//! The one harness every `bench_*` binary runs on: timing, record
//! provenance and artifact emission.
//!
//! A bin builds a [`Bench`] from its process arguments, times every A/B
//! pair with [`Bench::time_pair`] (a single-sided figure with
//! [`Bench::time`]), starts each record with [`record`], hands it to
//! [`Bench::push`] and ends with [`Bench::finish`], which writes the
//! `BENCH_*.json` artifact that `bench_gate` checks against
//! [`crate::gates::FLOORS`]. The deterministic inputs ([`spike_frame`])
//! and the networks several bins time ([`mlp_1568`], [`conv1_net`],
//! [`conv2_net`]) live here too, so every record times the same
//! workload wherever it is built.
//!
//! `AXSNN_BENCH_ITERS` sets the timed iterations per side in every bin.
//! [`Bench::time_pair`] splits them over [`BLOCKS`] alternating blocks
//! and keeps each side's fastest block. Timing one side after the other
//! on a shared core lets one side absorb the cache warm-up or a
//! neighbour's noise burst and skews the ratio by up to 2×; alternating
//! blocks give both sides the same conditions, and the minimum discards
//! interference. The floors gate the ratio, not the absolute times.

use crate::json::BenchRow;
use axsnn::core::layer::Layer;
use axsnn::core::network::{SnnConfig, SpikingNetwork};
use axsnn::tensor::conv::Conv2dSpec;
use axsnn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Instant;

/// Alternating measurement blocks per side in [`Bench::time_pair`].
pub const BLOCKS: usize = 5;

/// Record fields [`record`] writes first; [`Bench::push`] prints them
/// once per run instead of on every line.
const HEADER: [&str; 4] = ["name", "isa_features", "dispatch", "hardware_threads"];

/// One bench run: the artifact path, the timed iterations per side and
/// the records emitted so far.
#[derive(Debug)]
pub struct Bench {
    out: String,
    iters: usize,
    rows: Vec<BenchRow>,
}

impl Bench {
    /// Reads the artifact path from the first process argument (default
    /// `default_out`) and the timed iterations per side from
    /// `AXSNN_BENCH_ITERS` (default `default_iters`), and prints the
    /// run's provenance.
    pub fn from_args(default_out: &str, default_iters: usize) -> Bench {
        let out = std::env::args()
            .nth(1)
            .unwrap_or_else(|| default_out.to_string());
        let iters = std::env::var("AXSNN_BENCH_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default_iters);
        println!(
            "{out}: {} dispatch on {}, {} hardware threads, {iters} timed iterations per side",
            axsnn::tensor::simd::isa_label(),
            axsnn::tensor::simd::detected_features(),
            hardware_threads()
        );
        Bench::new(out, iters)
    }

    fn new(out: String, iters: usize) -> Bench {
        Bench {
            out,
            iters,
            rows: Vec::new(),
        }
    }

    /// Times `a` against `b`: one warm-up call each, then [`BLOCKS`]
    /// alternating blocks of ⌈iters / BLOCKS⌉ calls per side. Returns
    /// each side's fastest block as mean ns per call.
    pub fn time_pair(&self, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
        let block = self.iters.div_ceil(BLOCKS).max(1);
        a();
        b();
        let mut best = (f64::INFINITY, f64::INFINITY);
        for _ in 0..BLOCKS {
            best.0 = best.0.min(mean_ns(&mut a, block));
            best.1 = best.1.min(mean_ns(&mut b, block));
        }
        best
    }

    /// Times a single-sided figure: one warm-up call, then every timed
    /// iteration in one block. Returns the mean ns per call.
    pub fn time(&self, mut f: impl FnMut()) -> f64 {
        f();
        mean_ns(&mut f, self.iters.max(1))
    }

    /// Prints one record and queues it for the artifact.
    pub fn push(&mut self, row: BenchRow) {
        let mut line = String::new();
        for (key, value) in &row.fields {
            if key == "name" {
                let _ = write!(line, "{:<40}", value.trim_matches('"'));
            } else if !HEADER.contains(&key.as_str()) {
                let _ = write!(line, " {key}={value}");
            }
        }
        println!("{line}");
        self.rows.push(row);
    }

    /// Writes every pushed record to the artifact path.
    ///
    /// # Panics
    ///
    /// Panics when the artifact cannot be written.
    pub fn finish(self) {
        write_bench_json(&self.out, &self.rows).expect("write bench artifact");
        println!("wrote {} (floors enforced by bench_gate)", self.out);
    }
}

fn mean_ns(f: &mut impl FnMut(), calls: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..calls {
        f();
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Starts a record with the header every bench record shares: its
/// `name`, the detected CPU `isa_features` (e.g. `"avx2,fma,f16c"`),
/// the `dispatch` the tensor kernels selected in this process (`"avx2"`
/// or `"scalar"`) and the runner's `hardware_threads`. A floor number
/// means nothing without the hardware and code path that produced it,
/// and the gate skips hardware-bound floors on these fields.
pub fn record(name: &str) -> BenchRow {
    BenchRow::new()
        .str("name", name)
        .str("isa_features", axsnn::tensor::simd::detected_features())
        .str("dispatch", axsnn::tensor::simd::isa_label())
        .num("hardware_threads", hardware_threads() as f64, 0)
}

/// A deterministic value in `[0, 1)` for element `i` under `salt`.
pub fn hash_unit(i: usize, salt: u64) -> f32 {
    let mut h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt;
    h ^= h >> 29;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    (h >> 40) as f32 / (1u64 << 24) as f32
}

/// A deterministic binary frame of `len` elements shaped `dims`: element
/// `i` spikes when [`hash_unit`]`(i, salt) < density`.
///
/// # Panics
///
/// Panics when `dims` does not hold `len` elements.
pub fn spike_frame(len: usize, density: f32, dims: &[usize], salt: u64) -> Tensor {
    let data = (0..len)
        .map(|i| f32::from(u8::from(hash_unit(i, salt) < density)))
        .collect();
    Tensor::from_vec(data, dims).expect("dims hold len elements")
}

/// The MLP at the paper's flattened MNIST conv width (16 maps × 14×14 =
/// 1568 inputs → 512 → 256 → 10): its ≈3.9 MB weight set exceeds L2.
///
/// # Panics
///
/// Never: the topology is static.
pub fn mlp_1568(cfg: SnnConfig, seed: u64) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let layers = vec![
        Layer::spiking_linear(&mut rng, 1568, 512, &cfg),
        Layer::spiking_linear(&mut rng, 512, 256, &cfg),
        Layer::output_linear(&mut rng, 256, 10),
    ];
    SpikingNetwork::new(layers, cfg).expect("static topology")
}

fn conv3x3(in_channels: usize, out_channels: usize) -> Conv2dSpec {
    Conv2dSpec {
        in_channels,
        out_channels,
        kernel: 3,
        stride: 1,
        padding: 1,
    }
}

/// One 3×3 spiking conv (1→16) on 28×28, a 2×2 max-pool, then
/// 3136 → 128 → 10.
///
/// # Panics
///
/// Never: the topology is static.
pub fn conv1_net(cfg: SnnConfig, seed: u64) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let layers = vec![
        Layer::spiking_conv2d(&mut rng, conv3x3(1, 16), &cfg),
        Layer::max_pool2d(2),
        Layer::flatten(),
        Layer::spiking_linear(&mut rng, 16 * 14 * 14, 128, &cfg),
        Layer::output_linear(&mut rng, 128, 10),
    ];
    SpikingNetwork::new(layers, cfg).expect("static topology")
}

/// Two 3×3 spiking convs (1→16, 16→32) on 28×28, each followed by a
/// 2×2 max-pool, then 1568 → 128 → 10.
///
/// # Panics
///
/// Never: the topology is static.
pub fn conv2_net(cfg: SnnConfig, seed: u64) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let layers = vec![
        Layer::spiking_conv2d(&mut rng, conv3x3(1, 16), &cfg),
        Layer::max_pool2d(2),
        Layer::spiking_conv2d(&mut rng, conv3x3(16, 32), &cfg),
        Layer::max_pool2d(2),
        Layer::flatten(),
        Layer::spiking_linear(&mut rng, 32 * 7 * 7, 128, &cfg),
        Layer::output_linear(&mut rng, 128, 10),
    ];
    SpikingNetwork::new(layers, cfg).expect("static topology")
}

/// Serializes bench records in the shared `BENCH_*.json` layout (one
/// object per line inside a flat array) and writes them to `path`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_bench_json(path: &str, rows: &[BenchRow]) -> std::io::Result<()> {
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("  {");
        for (f, (key, value)) in row.fields.iter().enumerate() {
            if f > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{key}\": {value}");
        }
        out.push('}');
        if i + 1 != rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn time_pair_calls_each_side_warm_up_plus_five_blocks() {
        for (iters, per_block) in [(0, 1), (1, 1), (7, 2), (10, 2), (20, 4)] {
            let bench = Bench::new(String::new(), iters);
            let (a, b) = (Cell::new(0), Cell::new(0));
            let (ns_a, ns_b) = bench.time_pair(|| a.set(a.get() + 1), || b.set(b.get() + 1));
            assert_eq!(a.get(), 1 + BLOCKS * per_block, "iters {iters}");
            assert_eq!(b.get(), 1 + BLOCKS * per_block, "iters {iters}");
            assert!(ns_a.is_finite() && ns_b.is_finite());
        }
    }

    #[test]
    fn spike_frame_reproduces_frozen_frames() {
        // FNV-1a over the f32 bits of frames the bins time. The digest
        // was taken from the per-bin generators this one replaced, so a
        // changed hash constant or threshold cannot shift what a record
        // times.
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bits: u32| {
            for byte in bits.to_le_bytes() {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        let cases: [(usize, f32, u64); 6] = [
            (16 * 28 * 28, 0.05, 0x1234_5678),
            (1568, 0.10, 3),
            (784, 0.10, 131 * 5 + 7),
            (4096, 0.05, 7),
            (8 * 14 * 14, 0.10, 977 * 31),
            (1024, 0.01, 1493),
        ];
        for (len, density, salt) in cases {
            for x in spike_frame(len, density, &[len], salt).as_slice() {
                eat(x.to_bits());
            }
        }
        for i in 0..1000 {
            eat(hash_unit(i, 149).to_bits());
        }
        assert_eq!(digest, FROZEN_DIGEST);
    }

    const FROZEN_DIGEST: u64 = 0x2c77_467f_fb91_311a;
}
