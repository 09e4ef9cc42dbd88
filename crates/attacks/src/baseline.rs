//! Baseline and extension attacks beyond the paper's four:
//!
//! * [`NoiseAttack`] — uniform random noise at matched ε. The canonical
//!   sanity baseline: gradient attacks must beat it decisively, otherwise
//!   the "adversarial" degradation is just noise sensitivity.
//! * [`TargetedPgd`] — PGD that *minimizes* the loss toward a chosen
//!   target class instead of maximizing the true-class loss (the paper's
//!   future-work direction of stronger, targeted adversaries).

use crate::gradient::{AttackBudget, GradientSource, ImageAttack};
use crate::Result;
use axsnn_tensor::{ops, Tensor};
use rand::Rng;

/// Uniform random l∞ noise at budget ε (attack-strength baseline).
///
/// # Example
///
/// ```
/// use axsnn_attacks::baseline::NoiseAttack;
/// use axsnn_attacks::gradient::AttackBudget;
///
/// let noise = NoiseAttack::new(AttackBudget::for_epsilon(0.1));
/// assert_eq!(noise.name(), "Noise");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseAttack {
    budget: AttackBudget,
}

impl NoiseAttack {
    /// Creates a noise baseline with the given ε (steps/step size unused).
    pub fn new(budget: AttackBudget) -> Self {
        NoiseAttack { budget }
    }

    /// Attack name for reports.
    pub fn name(&self) -> &'static str {
        "Noise"
    }

    /// Perturbs an image with uniform noise in `[-ε, ε]`, clipped to
    /// `[0, 1]`. Model-free: the gradient source is never queried.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors (cannot occur for valid images).
    pub fn perturb<R: Rng>(&self, image: &Tensor, rng: &mut R) -> Result<Tensor> {
        let eps = self.budget.epsilon;
        if eps <= 0.0 {
            return Ok(image.clamp(0.0, 1.0));
        }
        let noise: Vec<f32> = (0..image.len())
            .map(|_| rng.gen_range(-eps..=eps))
            .collect();
        let noisy = image.add(&Tensor::from_vec(noise, image.shape().dims())?)?;
        Ok(noisy.clamp(0.0, 1.0))
    }
}

impl ImageAttack for NoiseAttack {
    fn name(&self) -> &'static str {
        "Noise"
    }

    fn budget(&self) -> AttackBudget {
        self.budget
    }

    fn perturb<R: Rng>(
        &self,
        _source: &mut dyn GradientSource,
        image: &Tensor,
        _label: usize,
        rng: &mut R,
    ) -> Result<Tensor> {
        NoiseAttack::perturb(self, image, rng)
    }
}

/// Targeted PGD: descends the loss toward `target` within the ε-ball.
///
/// # Example
///
/// ```
/// use axsnn_attacks::baseline::TargetedPgd;
/// use axsnn_attacks::gradient::AttackBudget;
///
/// let attack = TargetedPgd::new(AttackBudget::for_epsilon(0.2), 7);
/// assert_eq!(attack.target(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetedPgd {
    budget: AttackBudget,
    target: usize,
}

impl TargetedPgd {
    /// Creates a targeted PGD toward class `target`.
    pub fn new(budget: AttackBudget, target: usize) -> Self {
        TargetedPgd { budget, target }
    }

    /// The attack's target class.
    pub fn target(&self) -> usize {
        self.target
    }

    /// The l∞ budget.
    pub fn budget(&self) -> AttackBudget {
        self.budget
    }

    /// Crafts an adversarial example pushing the model toward the target
    /// class: gradient *descent* on the cross-entropy against `target`.
    ///
    /// # Errors
    ///
    /// Propagates budget validation and gradient-source failures.
    pub fn perturb<R: Rng>(
        &self,
        source: &mut dyn GradientSource,
        image: &Tensor,
        rng: &mut R,
    ) -> Result<Tensor> {
        self.budget.validate()?;
        let eps = self.budget.epsilon;
        if eps == 0.0 {
            return Ok(image.clamp(0.0, 1.0));
        }
        let noise: Vec<f32> = (0..image.len())
            .map(|_| rng.gen_range(-eps..=eps))
            .collect();
        let mut x = image
            .add(&Tensor::from_vec(noise, image.shape().dims())?)?
            .zip(image, |xi, ci| xi.clamp(ci - eps, ci + eps))?
            .clamp(0.0, 1.0);
        for _ in 0..self.budget.steps {
            // Descend the loss toward the target class.
            let grad = source.loss_gradient(&x, self.target)?;
            let step = ops::sign(&grad).scale(-self.budget.step_size);
            x = x
                .add(&step)?
                .zip(image, |xi, ci| xi.clamp(ci - eps, ci + eps))?
                .clamp(0.0, 1.0);
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct ZeroSource;
    impl GradientSource for ZeroSource {
        fn loss_gradient(&mut self, image: &Tensor, _label: usize) -> Result<Tensor> {
            Ok(Tensor::zeros(image.shape().dims()))
        }
    }

    #[test]
    fn noise_respects_ball_and_range() {
        let mut rng = StdRng::seed_from_u64(0);
        let image = Tensor::full(&[16], 0.5);
        let attack = NoiseAttack::new(AttackBudget::for_epsilon(0.2));
        let adv = attack.perturb(&image, &mut rng).unwrap();
        assert!(adv.sub(&image).unwrap().linf_norm() <= 0.2 + 1e-6);
        assert!(adv.min() >= 0.0 && adv.max() <= 1.0);
        assert_ne!(adv, image, "noise must actually perturb");
    }

    #[test]
    fn noise_zero_epsilon_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let image = Tensor::full(&[4], 0.25);
        let attack = NoiseAttack::new(AttackBudget::for_epsilon(0.0));
        assert_eq!(attack.perturb(&image, &mut rng).unwrap(), image);
    }

    #[test]
    fn noise_is_model_free() {
        let mut rng = StdRng::seed_from_u64(1);
        let image = Tensor::full(&[4], 0.5);
        let attack = NoiseAttack::new(AttackBudget::for_epsilon(0.1));
        let mut src = ZeroSource;
        // ImageAttack impl delegates and never needs real gradients.
        let adv = ImageAttack::perturb(&attack, &mut src, &image, 0, &mut rng).unwrap();
        assert!(adv.sub(&image).unwrap().linf_norm() <= 0.1 + 1e-6);
    }

    #[test]
    fn targeted_respects_ball() {
        let mut rng = StdRng::seed_from_u64(2);
        let image = Tensor::full(&[8], 0.5);
        let attack = TargetedPgd::new(
            AttackBudget {
                epsilon: 0.15,
                step_size: 0.05,
                steps: 6,
            },
            3,
        );
        let mut src = ZeroSource;
        let adv = attack.perturb(&mut src, &image, &mut rng).unwrap();
        assert!(adv.sub(&image).unwrap().linf_norm() <= 0.15 + 1e-6);
        assert!(adv.min() >= 0.0 && adv.max() <= 1.0);
    }

    #[test]
    fn targeted_moves_toward_target() {
        // A linear "model": logit_i = w_i · x. Pushing toward target class
        // should raise its logit.
        struct LinearSource;
        impl GradientSource for LinearSource {
            fn loss_gradient(&mut self, image: &Tensor, label: usize) -> Result<Tensor> {
                // d(-log softmax_label)/dx for a 2-class linear model with
                // w0 = +1 per pixel, w1 = −1 per pixel, reduced to its sign
                // structure: gradient points away from the label's weight.
                let sign = if label == 0 { -1.0 } else { 1.0 };
                Ok(Tensor::full(image.shape().dims(), sign))
            }
        }
        let mut rng = StdRng::seed_from_u64(3);
        let image = Tensor::full(&[4], 0.5);
        let attack = TargetedPgd::new(
            AttackBudget {
                epsilon: 0.3,
                step_size: 0.1,
                steps: 5,
            },
            0,
        );
        let mut src = LinearSource;
        let adv = attack.perturb(&mut src, &image, &mut rng).unwrap();
        // Descending a gradient of −1 per pixel ⇒ pixels increase.
        assert!(adv.mean() > image.mean());
    }
}
