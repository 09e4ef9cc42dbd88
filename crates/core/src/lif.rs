//! Leaky-integrate-and-fire (LIF) neuron dynamics.
//!
//! The paper's SNNs (Sec. II) use the standard LIF model: each neuron
//! integrates synaptic current into a membrane potential `v`; when `v`
//! crosses the threshold voltage `V_th` the neuron emits a spike and the
//! potential hard-resets to zero. Between spikes the potential decays by a
//! multiplicative leak factor.
//!
//! For training, the non-differentiable Heaviside spike function is
//! replaced in the backward pass by the *fast-sigmoid surrogate*
//! `1 / (1 + α·|v − V_th|)²`, the de-facto standard surrogate gradient.

use axsnn_tensor::batched::{lif_fire, SpikeMatrix};

/// Parameters of a population of LIF neurons.
///
/// # Example
///
/// ```
/// use axsnn_core::lif::LifParams;
///
/// let p = LifParams { threshold: 1.0, leak: 0.9, surrogate_alpha: 2.0 };
/// assert!(p.leak <= 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifParams {
    /// Threshold voltage `V_th` above which the neuron fires.
    pub threshold: f32,
    /// Multiplicative membrane leak per time step (1.0 = perfect
    /// integrator, 0.0 = memoryless).
    pub leak: f32,
    /// Sharpness `α` of the fast-sigmoid surrogate gradient.
    pub surrogate_alpha: f32,
}

impl Default for LifParams {
    fn default() -> Self {
        LifParams {
            threshold: 1.0,
            leak: 0.9,
            surrogate_alpha: 2.0,
        }
    }
}

impl LifParams {
    /// Heaviside spike function: 1.0 when `v` crosses the threshold.
    ///
    /// # Example
    ///
    /// ```
    /// let p = axsnn_core::lif::LifParams::default();
    /// assert_eq!(p.spike(1.5), 1.0);
    /// assert_eq!(p.spike(0.5), 0.0);
    /// ```
    pub fn spike(&self, v: f32) -> f32 {
        if v >= self.threshold {
            1.0
        } else {
            0.0
        }
    }

    /// Fast-sigmoid surrogate derivative of the spike function at
    /// membrane potential `v`.
    ///
    /// Peaks at `v == threshold` with value 1 and decays quadratically.
    ///
    /// # Example
    ///
    /// ```
    /// let p = axsnn_core::lif::LifParams::default();
    /// assert_eq!(p.surrogate_grad(p.threshold), 1.0);
    /// assert!(p.surrogate_grad(p.threshold + 1.0) < 0.2);
    /// ```
    pub fn surrogate_grad(&self, v: f32) -> f32 {
        let x = self.surrogate_alpha * (v - self.threshold).abs();
        1.0 / ((1.0 + x) * (1.0 + x))
    }
}

/// State of a population of LIF neurons: one membrane potential per neuron.
///
/// The state is advanced one time step at a time by [`LifState::step`],
/// which consumes the synaptic input current for that step and returns the
/// emitted spikes.
#[derive(Debug, Clone, PartialEq)]
pub struct LifState {
    membrane: Vec<f32>,
    params: LifParams,
}

/// One time step's result: spikes and (pre-reset) membrane potentials.
///
/// The pre-reset potentials are what the surrogate gradient is evaluated
/// at during BPTT, so [`LifState::step`] exposes them.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutput {
    /// Binary spikes (0.0 / 1.0) per neuron.
    pub spikes: Vec<f32>,
    /// Membrane potential per neuron evaluated before reset.
    pub pre_reset_membrane: Vec<f32>,
}

impl LifState {
    /// Creates a resting (zero-potential) population of `n` neurons.
    ///
    /// # Example
    ///
    /// ```
    /// use axsnn_core::lif::{LifParams, LifState};
    ///
    /// let s = LifState::new(10, LifParams::default());
    /// assert_eq!(s.len(), 10);
    /// ```
    pub fn new(n: usize, params: LifParams) -> Self {
        LifState {
            membrane: vec![0.0; n],
            params,
        }
    }

    /// Number of neurons in the population.
    pub fn len(&self) -> usize {
        self.membrane.len()
    }

    /// Returns `true` when the population is empty.
    pub fn is_empty(&self) -> bool {
        self.membrane.is_empty()
    }

    /// The neuron parameters.
    pub fn params(&self) -> LifParams {
        self.params
    }

    /// Current membrane potentials.
    pub fn membrane(&self) -> &[f32] {
        &self.membrane
    }

    /// Resets all membrane potentials to zero (start of a new sample).
    pub fn reset(&mut self) {
        self.membrane.fill(0.0);
    }

    /// Advances the population one time step with synaptic input
    /// `current` (one value per neuron).
    ///
    /// Dynamics: `v ← leak·v + I`; if `v ≥ V_th` emit a spike and
    /// hard-reset `v` to 0.
    ///
    /// # Panics
    ///
    /// Panics when `current.len()` differs from the population size; this
    /// indicates a wiring bug in the layer above, not a user input error.
    ///
    /// # Example
    ///
    /// ```
    /// use axsnn_core::lif::{LifParams, LifState};
    ///
    /// let mut s = LifState::new(1, LifParams { threshold: 1.0, leak: 1.0, surrogate_alpha: 2.0 });
    /// assert_eq!(s.step(&[0.6]).spikes, vec![0.0]); // v = 0.6
    /// assert_eq!(s.step(&[0.6]).spikes, vec![1.0]); // v = 1.2 ≥ 1.0 → fire
    /// assert_eq!(s.membrane()[0], 0.0);             // hard reset
    /// ```
    pub fn step(&mut self, current: &[f32]) -> StepOutput {
        assert_eq!(
            current.len(),
            self.membrane.len(),
            "synaptic current size {} != population size {}",
            current.len(),
            self.membrane.len()
        );
        let mut spikes = vec![0.0f32; self.membrane.len()];
        let mut pre = vec![0.0f32; self.membrane.len()];
        for (i, v) in self.membrane.iter_mut().enumerate() {
            *v = self.params.leak * *v + current[i];
            pre[i] = *v;
            if *v >= self.params.threshold {
                spikes[i] = 1.0;
                *v = 0.0;
            }
        }
        StepOutput {
            spikes,
            pre_reset_membrane: pre,
        }
    }
}

/// Membrane state for a *batch* of identical LIF populations: `B × n`
/// potentials advanced in lockstep by the fused batched forward engine.
///
/// Row `b` evolves exactly like an independent [`LifState`] of size `n`
/// fed row `b` of each current block — the update is elementwise, so
/// the batched step is bit-identical per row to the per-sample step.
///
/// A step hands back its spikes as one CSR [`SpikeMatrix`] with a row
/// per batch row: the ascending indices of the neurons that fired,
/// which is what [`SpikeVector::from_dense`] yields on the binary spike
/// row [`LifState::step`] returns. The step runs
/// [`axsnn_tensor::batched::lif_fire`] (eight neurons per compare mask
/// under AVX2), and the fused engine passes the matrix straight to the
/// next layer, so no `[B, n]` spike block is written and scanned back
/// into events.
///
/// [`SpikeVector::from_dense`]: axsnn_tensor::sparse::SpikeVector::from_dense
///
/// # Example
///
/// ```
/// use axsnn_core::lif::{BatchedLifState, LifParams};
///
/// let params = LifParams { threshold: 1.0, leak: 1.0, surrogate_alpha: 2.0 };
/// let mut s = BatchedLifState::new(2, 3, params);
/// let spikes = s.step(&[0.6, 1.2, 0.0, 1.0, 0.2, 1.5]);
/// assert_eq!(spikes.row(0), &[1]); // row 0: neuron 1 fires
/// assert_eq!(spikes.row(1), &[0, 2]); // row 1: v = 1.0 fires at the threshold
/// assert_eq!(spikes.nnz(), 3);
/// let spikes = s.step(&[0.6, 0.0, 0.0, 0.0, 0.0, 0.0]);
/// assert_eq!(spikes.row(0), &[0]); // row 0, neuron 0 integrated to 1.2
/// assert_eq!(spikes.cols(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BatchedLifState {
    membrane: Vec<f32>,
    batch: usize,
    neurons: usize,
    params: LifParams,
}

impl BatchedLifState {
    /// Creates `batch` resting populations of `neurons` neurons each.
    pub fn new(batch: usize, neurons: usize, params: LifParams) -> Self {
        BatchedLifState {
            membrane: vec![0.0; batch * neurons],
            batch,
            neurons,
            params,
        }
    }

    /// Number of batch rows.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Neurons per batch row.
    pub fn neurons(&self) -> usize {
        self.neurons
    }

    /// The shared neuron parameters.
    pub fn params(&self) -> LifParams {
        self.params
    }

    /// Current membrane potentials, row-major `[B, n]`.
    pub fn membrane(&self) -> &[f32] {
        &self.membrane
    }

    /// Resets all potentials to zero (start of a new batch).
    pub fn reset(&mut self) {
        self.membrane.fill(0.0);
    }

    /// Advances every population one time step with the stacked
    /// synaptic current block `[B, n]`, returning the spikes as a
    /// `B`-row CSR matrix of `n` columns.
    ///
    /// Dynamics per element match [`LifState::step`]: `v ← leak·v + I`;
    /// fire and hard-reset at `v ≥ V_th`. Row `b` lists the neurons that
    /// fired in ascending order, each once.
    ///
    /// # Panics
    ///
    /// Panics when `current.len() != B·n` — a wiring bug in the layer
    /// above, not a user input error.
    pub fn step(&mut self, current: &[f32]) -> SpikeMatrix {
        self.fire(current, None)
    }

    /// [`BatchedLifState::step`] that additionally returns the
    /// pre-reset membrane block `[B, n]` — what the surrogate gradient
    /// is evaluated at, so the recorded batch forward can tape it.
    ///
    /// The dynamics and spike rows are identical to
    /// [`BatchedLifState::step`]; a neuron fired exactly where its
    /// pre-reset membrane is `≥ V_th`.
    ///
    /// # Panics
    ///
    /// As [`BatchedLifState::step`].
    pub fn step_recorded(&mut self, current: &[f32]) -> (SpikeMatrix, Vec<f32>) {
        let mut pre = vec![0.0f32; self.membrane.len()];
        let spikes = self.fire(current, Some(&mut pre));
        (spikes, pre)
    }

    fn fire(&mut self, current: &[f32], pre: Option<&mut [f32]>) -> SpikeMatrix {
        assert_eq!(
            current.len(),
            self.membrane.len(),
            "batched synaptic current size {} != B*n = {}",
            current.len(),
            self.membrane.len()
        );
        let LifParams {
            threshold, leak, ..
        } = self.params;
        lif_fire(
            &mut self.membrane,
            current,
            pre,
            (self.batch, self.neurons),
            threshold,
            leak,
        )
        .expect("the membrane block is B*n long and n indexes as u32")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axsnn_tensor::sparse::SpikeVector;
    use axsnn_tensor::Tensor;

    #[test]
    fn leak_decays_membrane() {
        let mut s = LifState::new(
            1,
            LifParams {
                threshold: 10.0,
                leak: 0.5,
                surrogate_alpha: 2.0,
            },
        );
        s.step(&[1.0]); // v = 1.0
        s.step(&[0.0]); // v = 0.5
        assert!((s.membrane()[0] - 0.5).abs() < 1e-6);
        s.step(&[0.0]); // v = 0.25
        assert!((s.membrane()[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn fires_exactly_at_threshold() {
        let mut s = LifState::new(
            1,
            LifParams {
                threshold: 1.0,
                leak: 1.0,
                surrogate_alpha: 2.0,
            },
        );
        let out = s.step(&[1.0]);
        assert_eq!(out.spikes, vec![1.0]);
        assert_eq!(out.pre_reset_membrane, vec![1.0]);
        assert_eq!(s.membrane()[0], 0.0);
    }

    #[test]
    fn higher_threshold_fires_less() {
        let fire_count = |vth: f32| {
            let mut s = LifState::new(
                1,
                LifParams {
                    threshold: vth,
                    leak: 0.9,
                    surrogate_alpha: 2.0,
                },
            );
            (0..20).map(|_| s.step(&[0.4]).spikes[0]).sum::<f32>()
        };
        assert!(fire_count(0.5) > fire_count(1.0));
        assert!(fire_count(1.0) > fire_count(3.0));
    }

    #[test]
    fn surrogate_is_symmetric_and_peaked() {
        let p = LifParams::default();
        let at = p.surrogate_grad(p.threshold);
        let below = p.surrogate_grad(p.threshold - 0.5);
        let above = p.surrogate_grad(p.threshold + 0.5);
        assert_eq!(at, 1.0);
        assert!((below - above).abs() < 1e-6);
        assert!(below < at);
    }

    #[test]
    fn reset_zeroes_state() {
        let mut s = LifState::new(3, LifParams::default());
        s.step(&[0.5, 0.4, 0.3]);
        s.reset();
        assert!(s.membrane().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "synaptic current size")]
    fn step_panics_on_size_mismatch() {
        let mut s = LifState::new(2, LifParams::default());
        s.step(&[1.0]);
    }

    /// Each CSR row of the batched step is exactly
    /// `SpikeVector::from_dense` of the per-sample spike row, and the
    /// membranes (pre- and post-reset) stay bitwise equal — across
    /// widths that are not multiples of 8 and currents landing exactly
    /// on the threshold, NaN, ±inf and −0.0.
    #[test]
    fn batched_rows_bitwise_match_per_sample_state() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (threshold, leak) in [(0.7f32, 0.9f32), (1.0, 1.0), (0.0, 0.5)] {
            let params = LifParams {
                threshold,
                leak,
                surrogate_alpha: 2.0,
            };
            for (b, n) in [(3usize, 4usize), (2, 13), (5, 1), (1, 23), (2, 37)] {
                let mut batched = BatchedLifState::new(b, n, params);
                let mut recorded = BatchedLifState::new(b, n, params);
                let mut singles: Vec<LifState> = (0..b).map(|_| LifState::new(n, params)).collect();
                for t in 0..12 {
                    let current: Vec<f32> = (0..b * n)
                        .map(|i| match (i * 7 + t * 3) % 11 {
                            0 => threshold,
                            1 => f32::NAN,
                            2 => f32::INFINITY,
                            3 => f32::NEG_INFINITY,
                            4 => -0.0,
                            _ => ((i + t) as f32 * 0.61).sin(),
                        })
                        .collect();
                    let spikes = batched.step(&current);
                    let (rec_spikes, pre) = recorded.step_recorded(&current);
                    assert_eq!(spikes, rec_spikes);
                    assert_eq!(spikes.rows(), b);
                    assert_eq!(spikes.cols(), n);
                    let mut expected_events = 0;
                    for (r, single) in singles.iter_mut().enumerate() {
                        let out = single.step(&current[r * n..(r + 1) * n]);
                        let dense = Tensor::from_vec(out.spikes, &[n]).unwrap();
                        let expected = SpikeVector::from_dense(&dense).unwrap();
                        expected_events += expected.nnz();
                        assert_eq!(
                            spikes.row(r),
                            expected.indices(),
                            "vth {threshold} {b}x{n} t {t} row {r}"
                        );
                        assert_eq!(
                            bits(&pre[r * n..(r + 1) * n]),
                            bits(&out.pre_reset_membrane)
                        );
                        let range = r * n..(r + 1) * n;
                        assert_eq!(
                            bits(&batched.membrane()[range.clone()]),
                            bits(single.membrane())
                        );
                        assert_eq!(bits(&recorded.membrane()[range]), bits(single.membrane()));
                    }
                    assert_eq!(spikes.nnz(), expected_events);
                }
                batched.reset();
                assert!(batched.membrane().iter().all(|&v| v == 0.0));
                assert_eq!(batched.batch(), b);
                assert_eq!(batched.neurons(), n);
            }
        }
        // Zero-width populations still yield one (empty) row per batch row.
        let spikes = BatchedLifState::new(2, 0, LifParams::default()).step(&[]);
        assert_eq!(spikes.rows(), 2);
        assert_eq!(spikes.cols(), 0);
        assert_eq!(spikes.nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "batched synaptic current size")]
    fn batched_step_panics_on_size_mismatch() {
        let mut s = BatchedLifState::new(2, 2, LifParams::default());
        s.step(&[1.0; 3]);
    }
}
