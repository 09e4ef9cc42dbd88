//! Accuracy-side ablations of five design choices:
//!
//! 1. attack gradient source — accurate-ANN transfer (threat model) vs
//!    direct SNN surrogate gradients (white-box),
//! 2. spike encoding — direct current vs deterministic rate vs Poisson,
//! 3. approximation operator — relative magnitude vs quantile vs Eq. (1),
//! 4. AQF parameters — quantization step and temporal threshold,
//! 5. energy proxy — synaptic operations of AccSNN vs AxSNN (the 4×
//!    energy-saving motivation of the paper's introduction).

use axsnn::attacks::gradient::{
    AnnGradientSource, AttackBudget, ImageAttack, Pgd, SnnGradientSource,
};
use axsnn::attacks::neuromorphic::{FrameAttack, FrameAttackConfig};
use axsnn::core::approx::{
    apply_approximation, apply_eq1_approximation, apply_quantile_approximation, ApproximationLevel,
};
use axsnn::core::encoding::Encoder;
use axsnn::defense::metrics::{
    clean_image_accuracy, evaluate_event_attack, evaluate_image_attack, EventAttackKind,
};
use axsnn::neuromorphic::aqf::AqfConfig;
use axsnn_bench::{capped_test, dvs_scenario, epsilon_scale, mnist_scenario, seed, snn_config};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(seed());
    eprintln!("ablations: preparing scenarios…");
    let scenario = mnist_scenario();
    let test = capped_test(&scenario);
    let cfg = snn_config(1.0, 32);
    let budget = AttackBudget::for_epsilon(epsilon_scale());

    println!(
        "# Ablation 1 — attack gradient source (PGD, effective ε = {:.2})",
        epsilon_scale()
    );
    {
        let mut victim = scenario.acc_snn(cfg)?;
        let mut source = AnnGradientSource::new(scenario.adversary());
        let transfer = evaluate_image_attack(
            &mut victim,
            &mut source,
            &Pgd::new(budget),
            &test,
            Encoder::DirectCurrent,
            &mut rng,
        )?;
        // White-box: gradients through the victim's own SNN surrogate.
        let mut victim2 = scenario.acc_snn(cfg)?;
        let mut crafting = scenario.acc_snn(cfg)?;
        let mut correct = 0usize;
        for (image, label) in &test {
            let adv = {
                let mut src = SnnGradientSource::new(&mut crafting);
                Pgd::new(budget).perturb(&mut src, image, *label, &mut rng)?
            };
            if victim2.classify(&adv, Encoder::DirectCurrent, &mut rng)? == *label {
                correct += 1;
            }
        }
        let whitebox = 100.0 * correct as f32 / test.len() as f32;
        println!(
            "  transfer (ANN twin): {:.1}%   white-box (SNN surrogate): {whitebox:.1}%",
            transfer.adversarial_accuracy
        );
        println!("  → the white-box attack should be at least as strong (lower accuracy).");
    }

    println!("\n# Ablation 2 — spike encoding (clean accuracy, T = 32)");
    for (name, enc) in [
        ("direct", Encoder::DirectCurrent),
        ("deterministic", Encoder::Deterministic),
        ("poisson", Encoder::Poisson),
    ] {
        let mut net = scenario.acc_snn(cfg)?;
        let acc = clean_image_accuracy(&mut net, &test, enc, &mut rng)?;
        println!("  {name:<14} {acc:>6.1}%");
    }

    println!("\n# Ablation 3 — approximation operator at level 0.1 (clean accuracy)");
    {
        let level = ApproximationLevel::new(0.1).expect("valid");
        let stats = {
            let mut probe = scenario.acc_snn(cfg)?;
            let frames = Encoder::DirectCurrent.encode(&test[0].0, 32, &mut rng)?;
            probe.forward(&frames, false, &mut rng)?.stats
        };
        for (name, which) in [
            ("relative-magnitude", 0),
            ("quantile", 1),
            ("eq1-security-aware", 2),
        ] {
            let mut net = scenario.acc_snn(cfg)?;
            let report = match which {
                0 => apply_approximation(&mut net, level),
                1 => apply_quantile_approximation(&mut net, level),
                _ => apply_eq1_approximation(&mut net, &stats, level.value())?,
            };
            let acc = clean_image_accuracy(&mut net, &test, Encoder::DirectCurrent, &mut rng)?;
            println!(
                "  {name:<20} pruned {:>5.1}%  clean {acc:>6.1}%",
                100.0 * report.pruned_fraction()
            );
        }
    }

    println!("\n# Ablation 4 — AQF parameters under Frame attack (DVS)");
    {
        let dvs = dvs_scenario();
        let dcfg = snn_config(1.0, 32);
        let attack = EventAttackKind::Frame(FrameAttack::new(FrameAttackConfig::default()));
        for (name, aqf) in [
            ("off", None),
            ("qt=0.015 (default)", Some(AqfConfig::default())),
            (
                "qt=0.05 (coarse)",
                Some(AqfConfig {
                    quantization_step: 0.05,
                    ..AqfConfig::default()
                }),
            ),
            (
                "T2=0.01 (strict)",
                Some(AqfConfig {
                    temporal_threshold: 0.01,
                    ..AqfConfig::default()
                }),
            ),
        ] {
            let mut victim = dvs.acc_snn(dcfg)?;
            let mut surrogate = dvs.adversary_snn(dcfg)?;
            let out = evaluate_event_attack(
                &mut victim,
                &mut surrogate,
                attack,
                &dvs.dataset().test,
                aqf.as_ref(),
                &mut rng,
            )?;
            println!(
                "  {name:<20} clean {:>6.1}%  under frame {:>6.1}%",
                out.clean_accuracy, out.adversarial_accuracy
            );
        }
    }

    println!("\n# Ablation 5 — energy proxy: synaptic operations");
    {
        let mut acc = scenario.acc_snn(cfg)?;
        let mut ax = scenario.ax_snn(cfg, ApproximationLevel::new(0.1).expect("valid"))?;
        let frames = Encoder::DirectCurrent.encode(&test[0].0, 32, &mut rng)?;
        let acc_ops = acc.forward(&frames, false, &mut rng)?.stats.synaptic_ops;
        let ax_ops = ax.forward(&frames, false, &mut rng)?.stats.synaptic_ops;
        println!(
            "  AccSNN {acc_ops:.0} synops; AxSNN(0.1) {ax_ops:.0} synops ({:.2}× reduction)",
            acc_ops / ax_ops.max(1.0)
        );
        println!("  → the paper motivates AxSNNs with up to 4× energy savings [2].");
    }
    Ok(())
}
