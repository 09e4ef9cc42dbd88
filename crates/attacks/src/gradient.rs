//! Gradient-based l∞ attacks on static images: FGSM, BIM and PGD.
//!
//! All three ascend the loss gradient with respect to the input while
//! keeping the perturbation inside an ε-ball around the clean image and
//! the image itself inside `[0, 1]`:
//!
//! * **FGSM** — one signed step of size ε,
//! * **BIM** — iterative FGSM with per-step clipping (Kurakin et al.),
//! * **PGD** — BIM plus a random start inside the ε-ball (Madry et al.),
//!   the paper's strongest static attack.
//!
//! Gradients come from a [`GradientSource`]: [`AnnGradientSource`] wraps
//! the accurate ANN twin (the paper's threat model — the adversary crafts
//! on the accurate model and transfers to the Acc/Ax SNN), while
//! [`SnnGradientSource`] differentiates the spiking network directly
//! through its surrogate gradients (white-box ablation).

use crate::{AttackError, Result};
use axsnn_core::ann::AnnNetwork;
use axsnn_core::network::SpikingNetwork;
use axsnn_tensor::{ops, Tensor};
use rand::Rng;

/// l∞ attack budget.
///
/// # Example
///
/// ```
/// use axsnn_attacks::gradient::AttackBudget;
///
/// let b = AttackBudget { epsilon: 0.1, step_size: 0.02, steps: 7 };
/// assert!(b.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackBudget {
    /// Maximum l∞ perturbation ε.
    pub epsilon: f32,
    /// Per-iteration step size α.
    pub step_size: f32,
    /// Number of iterations.
    pub steps: usize,
}

impl AttackBudget {
    /// Standard budget for a given ε: `α = max(ε/4, 0.01)`, 10 steps.
    pub fn for_epsilon(epsilon: f32) -> Self {
        AttackBudget {
            epsilon,
            step_size: (epsilon / 4.0).max(0.01),
            steps: 10,
        }
    }

    /// Validates the budget.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::InvalidBudget`], naming the field and its
    /// value, for an ε that is negative, not finite or above
    /// `f32::MAX / 2`, a non-finite step size, a non-positive step size
    /// with positive ε, or zero steps. The random starts sample
    /// `[−ε, ε]`, so a range of infinite width would start PGD at
    /// `−ε + u·∞` (NaN at `u = 0`), and an infinite step turns every
    /// zero gradient sign into `0·∞` (NaN).
    pub fn validate(&self) -> Result<()> {
        self.validate_epsilon()?;
        if !self.step_size.is_finite() {
            return Err(AttackError::InvalidBudget {
                message: format!("step_size must be finite, got {}", self.step_size),
            });
        }
        if self.epsilon > 0.0 && self.step_size <= 0.0 {
            return Err(AttackError::InvalidBudget {
                message: format!("step_size must be > 0, got {}", self.step_size),
            });
        }
        if self.steps == 0 {
            return Err(AttackError::InvalidBudget {
                message: "steps must be ≥ 1".into(),
            });
        }
        Ok(())
    }

    /// The ε half of [`AttackBudget::validate`], for attacks that use
    /// nothing else of the budget.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::InvalidBudget`], naming its value, for an
    /// ε outside `[0, f32::MAX / 2]` or NaN: the width `2ε` of the
    /// sampled range `[−ε, ε]` must be finite.
    pub(crate) fn validate_epsilon(&self) -> Result<()> {
        if !(self.epsilon >= 0.0 && (2.0 * self.epsilon).is_finite()) {
            return Err(AttackError::InvalidBudget {
                message: format!("epsilon must be in [0, f32::MAX / 2], got {}", self.epsilon),
            });
        }
        Ok(())
    }
}

/// Anything that can provide loss gradients with respect to an input
/// image — the adversary's view of the (surrogate) classifier.
pub trait GradientSource {
    /// Gradient of the cross-entropy loss at (`image`, `label`) with
    /// respect to the image.
    ///
    /// # Errors
    ///
    /// Implementations propagate model failures.
    fn loss_gradient(&mut self, image: &Tensor, label: usize) -> Result<Tensor>;
}

/// Gradient source backed by the accurate ANN twin (transfer attack —
/// the paper's threat model).
///
/// Each [`GradientSource::loss_gradient`] call is one
/// [`AnnNetwork::input_gradient`]: the one-row case of the ANN's batched
/// pass, whose backward walk forms only the input gradient (no weight
/// gradients, no transposed weight copies). It is bit-identical to the
/// per-sample reference [`AnnNetwork::forward_backward`] for finite
/// weights, so crafted images do not depend on which walk ran.
#[derive(Debug)]
pub struct AnnGradientSource<'a> {
    ann: &'a AnnNetwork,
}

impl<'a> AnnGradientSource<'a> {
    /// Wraps a trained ANN.
    pub fn new(ann: &'a AnnNetwork) -> Self {
        AnnGradientSource { ann }
    }
}

impl GradientSource for AnnGradientSource<'_> {
    fn loss_gradient(&mut self, image: &Tensor, label: usize) -> Result<Tensor> {
        Ok(self.ann.input_gradient(image, label)?)
    }
}

/// Gradient source differentiating the spiking network itself through its
/// fast-sigmoid surrogate gradients (white-box variant).
///
/// Uses direct-current encoding so the image gradient is the sum of the
/// per-frame gradients. Each call is one recorded
/// [`SpikingNetwork::forward`] (a one-row fused pass) and one
/// [`SpikingNetwork::frame_gradients`], the batched backward swept down
/// to the input frames. No parameter gradient is formed, so the
/// network's gradient accumulators are left as they were.
#[derive(Debug)]
pub struct SnnGradientSource<'a> {
    net: &'a mut SpikingNetwork,
}

impl<'a> SnnGradientSource<'a> {
    /// Wraps a spiking network.
    pub fn new(net: &'a mut SpikingNetwork) -> Self {
        SnnGradientSource { net }
    }
}

impl GradientSource for SnnGradientSource<'_> {
    fn loss_gradient(&mut self, image: &Tensor, label: usize) -> Result<Tensor> {
        let time_steps = self.net.config().time_steps;
        let frames = vec![image.clamp(0.0, 1.0); time_steps];
        // Dropout layers are inference-mode; RNG is unused by forward here.
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let out = self.net.forward(&frames, true, &mut rng)?;
        let (_, grad_logits) = ops::cross_entropy_with_grad(&out.logits, label)?;
        let frame_grads = self.net.frame_gradients(&grad_logits, time_steps)?;
        let mut acc = Tensor::zeros(image.shape().dims());
        for g in &frame_grads {
            acc = acc.add(g)?;
        }
        Ok(acc)
    }
}

/// A white-box attack on static images.
///
/// Implementations return an adversarial image inside the ε-ball around
/// the clean input, clipped to `[0, 1]`.
pub trait ImageAttack {
    /// Short name used in reports ("PGD", "BIM", ...).
    fn name(&self) -> &'static str;

    /// The l∞ budget this attack was configured with.
    fn budget(&self) -> AttackBudget;

    /// Crafts an adversarial example for (`image`, `label`).
    ///
    /// # Errors
    ///
    /// Propagates gradient-source failures and invalid budgets.
    fn perturb<R: Rng>(
        &self,
        source: &mut dyn GradientSource,
        image: &Tensor,
        label: usize,
        rng: &mut R,
    ) -> Result<Tensor>
    where
        Self: Sized;
}

fn clip_to_ball(x: &Tensor, clean: &Tensor, epsilon: f32) -> Result<Tensor> {
    let clipped = x.zip(clean, |xi, ci| xi.clamp(ci - epsilon, ci + epsilon))?;
    Ok(clipped.clamp(0.0, 1.0))
}

/// Fast Gradient Sign Method — one signed ε step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fgsm {
    budget: AttackBudget,
}

impl Fgsm {
    /// Creates an FGSM attack with the given budget (only ε is used).
    pub fn new(budget: AttackBudget) -> Self {
        Fgsm { budget }
    }
}

impl ImageAttack for Fgsm {
    fn name(&self) -> &'static str {
        "FGSM"
    }

    fn budget(&self) -> AttackBudget {
        self.budget
    }

    fn perturb<R: Rng>(
        &self,
        source: &mut dyn GradientSource,
        image: &Tensor,
        label: usize,
        _rng: &mut R,
    ) -> Result<Tensor> {
        self.budget.validate()?;
        if self.budget.epsilon == 0.0 {
            return Ok(image.clamp(0.0, 1.0));
        }
        let grad = source.loss_gradient(image, label)?;
        let step = ops::sign(&grad).scale(self.budget.epsilon);
        clip_to_ball(&image.add(&step)?, image, self.budget.epsilon)
    }
}

/// Basic Iterative Method — iterative FGSM without random start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bim {
    budget: AttackBudget,
}

impl Bim {
    /// Creates a BIM attack with the given budget.
    pub fn new(budget: AttackBudget) -> Self {
        Bim { budget }
    }
}

impl ImageAttack for Bim {
    fn name(&self) -> &'static str {
        "BIM"
    }

    fn budget(&self) -> AttackBudget {
        self.budget
    }

    fn perturb<R: Rng>(
        &self,
        source: &mut dyn GradientSource,
        image: &Tensor,
        label: usize,
        _rng: &mut R,
    ) -> Result<Tensor> {
        self.budget.validate()?;
        if self.budget.epsilon == 0.0 {
            return Ok(image.clamp(0.0, 1.0));
        }
        let mut x = image.clone();
        for _ in 0..self.budget.steps {
            let grad = source.loss_gradient(&x, label)?;
            let step = ops::sign(&grad).scale(self.budget.step_size);
            x = clip_to_ball(&x.add(&step)?, image, self.budget.epsilon)?;
        }
        Ok(x)
    }
}

/// Projected Gradient Descent — BIM with a uniform random start inside
/// the ε-ball (the paper's strongest static attack).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pgd {
    budget: AttackBudget,
}

impl Pgd {
    /// Creates a PGD attack with the given budget.
    pub fn new(budget: AttackBudget) -> Self {
        Pgd { budget }
    }
}

impl ImageAttack for Pgd {
    fn name(&self) -> &'static str {
        "PGD"
    }

    fn budget(&self) -> AttackBudget {
        self.budget
    }

    fn perturb<R: Rng>(
        &self,
        source: &mut dyn GradientSource,
        image: &Tensor,
        label: usize,
        rng: &mut R,
    ) -> Result<Tensor> {
        self.budget.validate()?;
        if self.budget.epsilon == 0.0 {
            return Ok(image.clamp(0.0, 1.0));
        }
        let eps = self.budget.epsilon;
        let noise: Vec<f32> = (0..image.len())
            .map(|_| rng.gen_range(-eps..=eps))
            .collect();
        let start = image.add(&Tensor::from_vec(noise, image.shape().dims())?)?;
        let mut x = clip_to_ball(&start, image, eps)?;
        for _ in 0..self.budget.steps {
            let grad = source.loss_gradient(&x, label)?;
            let step = ops::sign(&grad).scale(self.budget.step_size);
            x = clip_to_ball(&x.add(&step)?, image, eps)?;
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axsnn_core::ann::AnnLayer;
    use axsnn_core::train::{train_ann, TrainConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A trained two-blob classifier and one correctly classified sample.
    fn trained_ann(rng: &mut StdRng) -> (AnnNetwork, Tensor, usize) {
        let mut net = AnnNetwork::new(vec![
            AnnLayer::linear_relu(rng, 4, 16),
            AnnLayer::linear_out(rng, 16, 2),
        ])
        .unwrap();
        let data: Vec<(Tensor, usize)> = (0..40)
            .map(|i| {
                let c = i % 2;
                let base = if c == 0 { 0.2 } else { 0.8 };
                let x = Tensor::from_vec(
                    (0..4)
                        .map(|_| (base + rng.gen_range(-0.05..0.05f32)).clamp(0.0, 1.0))
                        .collect(),
                    &[4],
                )
                .unwrap();
                (x, c)
            })
            .collect();
        train_ann(
            &mut net,
            &data,
            &TrainConfig {
                epochs: 30,
                learning_rate: 0.3,
                momentum: 0.0,
                batch_size: 8,
                encoder: axsnn_core::encoding::Encoder::DirectCurrent,
                ..TrainConfig::default()
            },
            rng,
        )
        .unwrap();
        let sample = Tensor::full(&[4], 0.2);
        assert_eq!(net.classify(&sample).unwrap(), 0);
        (net, sample, 0)
    }

    /// Every step through the ANN source runs `input_gradient`, which
    /// rejects a NaN or infinite pixel instead of crafting from it.
    #[test]
    fn ann_source_rejects_non_finite_pixels() {
        let mut rng = StdRng::seed_from_u64(31);
        let (net, _, _) = trained_ann(&mut rng);
        let budget = AttackBudget::for_epsilon(0.1);
        for (value, shown) in [(f32::NAN, "NaN"), (f32::INFINITY, "inf")] {
            let image = Tensor::from_vec(vec![0.2, value, 0.2, 0.2], &[4]).unwrap();
            let mut source = AnnGradientSource::new(&net);
            let err = Fgsm::new(budget)
                .perturb(&mut source, &image, 0, &mut rng)
                .unwrap_err();
            let expected = format!("image pixel 1 is {shown}, not a finite value");
            assert!(err.to_string().contains(&expected), "{err}");
        }
    }

    #[test]
    fn budget_validation() {
        assert!(AttackBudget {
            epsilon: -0.1,
            step_size: 0.1,
            steps: 1
        }
        .validate()
        .is_err());
        assert!(AttackBudget {
            epsilon: 0.1,
            step_size: 0.0,
            steps: 1
        }
        .validate()
        .is_err());
        assert!(AttackBudget {
            epsilon: 0.1,
            step_size: 0.1,
            steps: 0
        }
        .validate()
        .is_err());
        assert!(AttackBudget::for_epsilon(0.5).validate().is_ok());
        // Non-finite ε or step size, each error naming its field and value.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for (budget, field) in [
                (AttackBudget::for_epsilon(bad), "epsilon"),
                (
                    AttackBudget {
                        epsilon: bad,
                        step_size: 0.1,
                        steps: 1,
                    },
                    "epsilon",
                ),
                (
                    AttackBudget {
                        epsilon: 0.1,
                        step_size: bad,
                        steps: 1,
                    },
                    "step_size",
                ),
                (
                    AttackBudget {
                        epsilon: 0.0,
                        step_size: bad,
                        steps: 1,
                    },
                    "step_size",
                ),
            ] {
                let message = budget.validate().unwrap_err().to_string();
                assert!(
                    message.contains(field) && message.contains(&bad.to_string()),
                    "{budget:?}: {message}"
                );
            }
        }
    }

    #[test]
    fn zero_epsilon_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let (ann, x, y) = trained_ann(&mut rng);
        let mut src = AnnGradientSource::new(&ann);
        for name in ["fgsm", "bim", "pgd"] {
            let budget = AttackBudget {
                epsilon: 0.0,
                step_size: 0.1,
                steps: 3,
            };
            let adv = match name {
                "fgsm" => Fgsm::new(budget)
                    .perturb(&mut src, &x, y, &mut rng)
                    .unwrap(),
                "bim" => Bim::new(budget).perturb(&mut src, &x, y, &mut rng).unwrap(),
                _ => Pgd::new(budget).perturb(&mut src, &x, y, &mut rng).unwrap(),
            };
            assert_eq!(adv, x, "{name} with ε=0 must be identity");
        }
    }

    #[test]
    fn perturbation_respects_epsilon_ball() {
        let mut rng = StdRng::seed_from_u64(2);
        let (ann, x, y) = trained_ann(&mut rng);
        let mut src = AnnGradientSource::new(&ann);
        let budget = AttackBudget {
            epsilon: 0.15,
            step_size: 0.05,
            steps: 20,
        };
        for adv in [
            Fgsm::new(AttackBudget {
                epsilon: 0.15,
                ..budget
            })
            .perturb(&mut src, &x, y, &mut rng)
            .unwrap(),
            Bim::new(budget).perturb(&mut src, &x, y, &mut rng).unwrap(),
            Pgd::new(budget).perturb(&mut src, &x, y, &mut rng).unwrap(),
        ] {
            let linf = adv.sub(&x).unwrap().linf_norm();
            assert!(linf <= 0.15 + 1e-5, "l∞ {linf} exceeds ε");
            assert!(adv.min() >= 0.0 && adv.max() <= 1.0, "image range violated");
        }
    }

    #[test]
    fn large_epsilon_flips_prediction() {
        let mut rng = StdRng::seed_from_u64(3);
        let (ann, x, y) = trained_ann(&mut rng);
        let mut src = AnnGradientSource::new(&ann);
        let pgd = Pgd::new(AttackBudget {
            epsilon: 0.6,
            step_size: 0.1,
            steps: 20,
        });
        let adv = pgd.perturb(&mut src, &x, y, &mut rng).unwrap();
        assert_ne!(
            ann.classify(&adv).unwrap(),
            y,
            "a 0.6-ε PGD on a 0.2-vs-0.8 blob task must succeed"
        );
    }

    #[test]
    fn bim_is_deterministic_pgd_randomized() {
        let mut rng = StdRng::seed_from_u64(4);
        let (ann, x, y) = trained_ann(&mut rng);
        let mut src = AnnGradientSource::new(&ann);
        let budget = AttackBudget {
            epsilon: 0.2,
            step_size: 0.05,
            steps: 5,
        };
        let b1 = Bim::new(budget).perturb(&mut src, &x, y, &mut rng).unwrap();
        let b2 = Bim::new(budget).perturb(&mut src, &x, y, &mut rng).unwrap();
        assert_eq!(b1, b2, "BIM has no randomness");
        let p1 = Pgd::new(budget).perturb(&mut src, &x, y, &mut rng).unwrap();
        let p2 = Pgd::new(budget).perturb(&mut src, &x, y, &mut rng).unwrap();
        assert_ne!(p1, p2, "PGD random start must differ across runs");
    }

    #[test]
    fn attack_increases_loss() {
        let mut rng = StdRng::seed_from_u64(5);
        let (ann, x, y) = trained_ann(&mut rng);
        let loss = |img: &Tensor| {
            let logits = ann.forward(img).unwrap();
            ops::cross_entropy_with_grad(&logits, y).unwrap().0
        };
        let mut src = AnnGradientSource::new(&ann);
        let adv = Bim::new(AttackBudget {
            epsilon: 0.2,
            step_size: 0.05,
            steps: 10,
        })
        .perturb(&mut src, &x, y, &mut rng)
        .unwrap();
        assert!(loss(&adv) > loss(&x), "BIM must ascend the loss");
    }
}
