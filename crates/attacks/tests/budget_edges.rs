//! Budget edges: every image attack rejects a NaN or infinite ε or step
//! size, and an ε whose range `[−ε, ε]` is infinitely wide, with
//! `AttackError::InvalidBudget`. It never panics, and never returns a
//! NaN pixel for a budget it accepts — the largest accepted ε included,
//! with random draws at the low edge of their range.

use axsnn_attacks::baseline::{NoiseAttack, TargetedPgd};
use axsnn_attacks::gradient::{AttackBudget, Bim, Fgsm, GradientSource, ImageAttack, Pgd};
use axsnn_attacks::{AttackError, Result};
use axsnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// An RNG whose every other word is zero, so every other uniform draw
/// is exactly `0.0`: the `−ε` end of a `[−ε, ε]` range.
struct EdgeRng {
    inner: StdRng,
    zero_next: bool,
}

impl RngCore for EdgeRng {
    fn next_u64(&mut self) -> u64 {
        self.zero_next = !self.zero_next;
        if self.zero_next {
            0
        } else {
            self.inner.next_u64()
        }
    }
}

/// A gradient with exact zeros among signed values: a zero sign times
/// an infinite step is the `0·∞` a bad budget would turn into NaN.
struct ZerosAndSigns;

impl GradientSource for ZerosAndSigns {
    fn loss_gradient(&mut self, image: &Tensor, label: usize) -> Result<Tensor> {
        let data = (0..image.len())
            .map(|i| match (i + label) % 3 {
                0 => 0.0,
                1 => 0.5,
                _ => -2.0,
            })
            .collect();
        Ok(Tensor::from_vec(data, image.shape().dims())?)
    }
}

/// Budgets with a NaN or infinite ε or step size, or an ε too large
/// for `2ε` to be finite, each with the field that is bad.
fn invalid_budgets() -> Vec<(AttackBudget, &'static str)> {
    let mut budgets = vec![(AttackBudget::for_epsilon(f32::MAX), "epsilon")];
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        budgets.push((AttackBudget::for_epsilon(bad), "epsilon"));
        let budget = AttackBudget {
            epsilon: bad,
            step_size: 0.05,
            steps: 3,
        };
        budgets.push((budget, "epsilon"));
        let budget = AttackBudget {
            epsilon: 0.1,
            step_size: bad,
            steps: 3,
        };
        budgets.push((budget, "step_size"));
    }
    budgets
}

/// Valid budgets from zero to the largest accepted ε, far past the
/// `[0, 1]` pixel range.
fn valid_budgets() -> Vec<AttackBudget> {
    let mut budgets = Vec::new();
    for epsilon in [0.0, 0.05, 0.5, 2.0, 1e30, f32::MAX / 2.0] {
        budgets.push(AttackBudget::for_epsilon(epsilon));
        budgets.push(AttackBudget {
            epsilon,
            step_size: f32::MAX,
            steps: 3,
        });
    }
    budgets
}

/// Runs `attack` over every budget: each invalid one whose bad field
/// is in `checked` must fail with `InvalidBudget`, each valid one must
/// return an image of the clean shape with no NaN pixel.
fn check_edges(
    name: &str,
    checked: &[&str],
    attack: impl Fn(AttackBudget, &Tensor, &mut EdgeRng) -> Result<Tensor>,
) {
    let image = Tensor::from_vec(
        (0..12)
            .map(|i| if i % 4 == 0 { 0.0 } else { i as f32 / 12.0 })
            .collect(),
        &[1, 3, 4],
    )
    .unwrap();
    let mut rng = EdgeRng {
        inner: StdRng::seed_from_u64(17),
        zero_next: false,
    };
    for (budget, field) in invalid_budgets() {
        if !checked.contains(&field) {
            continue;
        }
        match attack(budget, &image, &mut rng) {
            Err(AttackError::InvalidBudget { message }) => {
                assert!(message.contains(field), "{name} {budget:?}: {message}");
            }
            other => panic!("{name} {budget:?}: expected InvalidBudget, got {other:?}"),
        }
    }
    for budget in valid_budgets() {
        let adv =
            attack(budget, &image, &mut rng).unwrap_or_else(|e| panic!("{name} {budget:?}: {e}"));
        assert_eq!(
            adv.shape().dims(),
            image.shape().dims(),
            "{name} {budget:?}"
        );
        assert!(
            adv.as_slice().iter().all(|v| !v.is_nan()),
            "{name} {budget:?}: NaN pixel in {adv:?}"
        );
    }
}

/// The budget fields the gradient attacks use.
const EPSILON_AND_STEP: &[&str] = &["epsilon", "step_size"];

#[test]
fn fgsm_budget_edges() {
    check_edges("FGSM", EPSILON_AND_STEP, |budget, image, rng| {
        Fgsm::new(budget).perturb(&mut ZerosAndSigns, image, 1, rng)
    });
}

#[test]
fn bim_budget_edges() {
    check_edges("BIM", EPSILON_AND_STEP, |budget, image, rng| {
        Bim::new(budget).perturb(&mut ZerosAndSigns, image, 1, rng)
    });
}

#[test]
fn pgd_budget_edges() {
    check_edges("PGD", EPSILON_AND_STEP, |budget, image, rng| {
        Pgd::new(budget).perturb(&mut ZerosAndSigns, image, 1, rng)
    });
}

#[test]
fn targeted_pgd_budget_edges() {
    check_edges("TargetedPgd", EPSILON_AND_STEP, |budget, image, rng| {
        TargetedPgd::new(budget, 2).perturb(&mut ZerosAndSigns, image, rng)
    });
}

#[test]
fn noise_budget_edges() {
    // Noise reads only ε of its budget.
    check_edges("Noise", &["epsilon"], |budget, image, rng| {
        ImageAttack::perturb(&NoiseAttack::new(budget), &mut ZerosAndSigns, image, 1, rng)
    });
}
