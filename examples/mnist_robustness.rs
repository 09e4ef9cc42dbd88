//! MNIST vulnerability analysis (small-scale Figs. 1–3): accuracy of the
//! AccSNN and AxSNNs at several approximation levels under PGD and BIM
//! across perturbation budgets.
//!
//! Run with:
//! ```text
//! cargo run --release -p axsnn --example mnist_robustness
//! ```

use axsnn::attacks::gradient::{AnnGradientSource, AttackBudget, Bim, ImageAttack, Pgd};
use axsnn::core::approx::ApproximationLevel;
use axsnn::core::encoding::Encoder;
use axsnn::core::network::SnnConfig;
use axsnn::datasets::mnist::MnistConfig;
use axsnn::defense::metrics::evaluate_image_attack_parallel;
use axsnn::defense::scenario::{MnistScenario, MnistScenarioConfig};

const EPSILONS: [f32; 6] = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9];
const LEVELS: [f32; 4] = [0.0, 0.01, 0.1, 1.0];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = MnistScenarioConfig::default();
    cfg.mnist = MnistConfig {
        size: 16,
        train_per_class: 30,
        test_per_class: 5,
        ..cfg.mnist
    };
    println!("preparing scenario (train ANN on synthetic MNIST)…");
    let scenario = MnistScenario::prepare(cfg)?;
    let snn_cfg = SnnConfig {
        threshold: 0.25,
        time_steps: 32,
        leak: 0.9,
    };

    for attack_name in ["PGD", "BIM"] {
        println!("\n=== {attack_name} attack: accuracy [%] by approximation level ===");
        print!("{:>8}", "ε");
        for l in LEVELS {
            print!("{:>10}", format!("ax={l}"));
        }
        println!();
        for eps in EPSILONS {
            print!("{eps:>8.2}");
            for level in LEVELS {
                let net = scenario.ax_snn(
                    snn_cfg,
                    ApproximationLevel::new(level).expect("valid level"),
                )?;
                let budget = AttackBudget::for_epsilon(eps * 0.1); // ε-axis calibration, see axsnn_bench::epsilon_scale
                                                                   // Fan the per-sample attack + classification out across
                                                                   // all cores (threads = 0); seeded per sample, so the
                                                                   // numbers are identical whatever the core count.
                let make_source = || AnnGradientSource::new(scenario.adversary());
                let outcome = if attack_name == "PGD" {
                    let a = Pgd::new(budget);
                    evaluate_image_attack_parallel(
                        &net,
                        make_source,
                        &a,
                        &scenario.dataset().test,
                        Encoder::DirectCurrent,
                        7,
                        0,
                    )?
                } else {
                    let a = Bim::new(budget);
                    evaluate_image_attack_parallel(
                        &net,
                        make_source,
                        &a,
                        &scenario.dataset().test,
                        Encoder::DirectCurrent,
                        7,
                        0,
                    )?
                };
                print!("{:>10.1}", outcome.adversarial_accuracy);
            }
            println!();
        }
        let _ = Pgd::new(AttackBudget::for_epsilon(0.1)).name(); // silence lint in case of edits
    }
    println!("\nExpected shape (paper Figs. 2–3): columns degrade left→right");
    println!("(more approximation → lower accuracy) and rows degrade top→bottom");
    println!("(bigger ε → lower accuracy), with level 1.0 at chance throughout.");
    Ok(())
}
