use ndarray::{Array1, Array2, ArrayView1, ArrayView2};
use rand::RngCore;

use ember_ising::{AnnealSchedule, Annealer, BipartiteProblem, IsingProblem};
use ember_rbm::Rbm;
use ember_substrate::{HardwareCounters, Substrate};

use crate::kernels::{binary_gemm, BitMatrix};
use crate::sampler::RngDiscipline;
use crate::GsKernel;

/// A Metropolis annealer driven as a conditional sampler over the
/// bipartite coupling — the software stand-in for an annealing-capable
/// Ising machine (the paper's §2.1 baseline; the seam future
/// quantum/CMOS annealer hardware plugs into).
///
/// Clamping one side of the bipartite problem reduces the free side to
/// independent spins in their conditional local fields: in bit domain
/// the field on hidden unit `j` is `aⱼ = Σᵢ Wᵢⱼ vᵢ + bₕⱼ`, which embeds
/// to a spin-domain field of `aⱼ/2`, so Metropolis sampling at
/// temperature `T` realizes `P(hⱼ = 1 | v) = σ(aⱼ/T)`. At the default
/// `T = 1` that is exactly the RBM conditional — the annealer is a
/// *calibrated* substrate, unlike the dynamics-driven
/// [`super::BrimSubstrate`].
///
/// # Example
///
/// ```
/// use ember_core::substrate::{AnnealerSubstrate, Substrate};
/// use ember_rbm::Rbm;
/// use ndarray::Array2;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
/// let rbm = Rbm::random(4, 2, 0.5, &mut rng);
/// let mut sub = AnnealerSubstrate::for_rbm(&rbm);
/// let v = Array2::from_elem((2, 4), 1.0);
/// let h = sub.sample_hidden_batch(&v, &mut rng);
/// assert_eq!(h.dim(), (2, 2));
/// ```
#[derive(Debug, Clone)]
pub struct AnnealerSubstrate {
    problem: BipartiteProblem,
    /// Materialized transpose of the programmed coupling, refreshed at
    /// every programming event: the packed reverse sweep-field kernel
    /// accumulates contiguous `Wᵀ` rows.
    weights_t: Array2<f64>,
    annealer: Annealer,
    temperature: f64,
    burn_in: usize,
    thin: usize,
    kernel: GsKernel,
    counters: HardwareCounters,
}

impl AnnealerSubstrate {
    /// Programs `problem` onto the annealer at unit temperature with a
    /// short equilibration (the clamped conditional chains are
    /// single-spin-flip on independent spins, so they mix in a handful
    /// of sweeps).
    pub fn new(problem: BipartiteProblem) -> Self {
        let weights_t = problem.weights().t().to_owned();
        AnnealerSubstrate {
            problem,
            weights_t,
            annealer: Annealer::new(AnnealSchedule::constant(1.0, 1)),
            temperature: 1.0,
            burn_in: 8,
            thin: 2,
            kernel: GsKernel::Packed,
            counters: HardwareCounters::new(),
        }
    }

    /// An annealer sized for (and programmed with) `rbm`.
    pub fn for_rbm(rbm: &Rbm) -> Self {
        AnnealerSubstrate::new(rbm.to_bipartite())
    }

    /// Returns a copy sampling at the given temperature (`T = 1` is the
    /// RBM's native Boltzmann temperature; higher values flatten the
    /// conditionals, modelling a hot substrate).
    ///
    /// # Panics
    ///
    /// Panics unless `temperature > 0`.
    #[must_use]
    pub fn with_temperature(mut self, temperature: f64) -> Self {
        assert!(temperature > 0.0, "temperature must be positive");
        self.temperature = temperature;
        self
    }

    /// Returns a copy with the given Metropolis mixing parameters
    /// (equilibration sweeps before the read-out and thinning sweeps per
    /// sample).
    ///
    /// # Panics
    ///
    /// Panics if `burn_in == 0`.
    #[must_use]
    pub fn with_mixing(mut self, burn_in: usize, thin: usize) -> Self {
        assert!(burn_in >= 1, "need at least one equilibration sweep");
        self.burn_in = burn_in;
        self.thin = thin;
        self
    }

    /// Returns a copy running the sweep-field products on the given
    /// kernel (conditional fields — and therefore samples — are
    /// bit-identical either way; see [`GsKernel`]).
    #[must_use]
    pub fn with_kernel(mut self, kernel: GsKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The selected sweep-field GEMM kernel.
    pub fn kernel(&self) -> GsKernel {
        self.kernel
    }

    /// The programmed bipartite coupling.
    pub fn problem(&self) -> &BipartiteProblem {
        &self.problem
    }

    /// The conditional bit fields of one batched half-step
    /// (`clamped · W (+ bias)` forward, `clamped · Wᵀ (+ bias)`
    /// reverse), through the selected kernel. Binary batches run the
    /// bit-packed product; gray levels and the dense baseline pay the
    /// dense GEMM. Returns the fields and whether the packed kernel
    /// served the call (for the counter accounting).
    fn batch_fields(&self, clamped: &Array2<f64>, rev: bool) -> (Array2<f64>, bool) {
        let (w, bias) = if rev {
            (&self.weights_t, self.problem.visible_bias())
        } else {
            (self.problem.weights(), self.problem.hidden_bias())
        };
        if self.kernel == GsKernel::Packed {
            if let Some(bits) = BitMatrix::from_batch(clamped) {
                return (binary_gemm(&bits, w, Some(&bias.view())), true);
            }
        }
        let mut fields = clamped.dot(w);
        for mut row in fields.axis_iter_mut(ndarray::Axis(0)) {
            row += bias;
        }
        (fields, false)
    }

    /// One batched half-step: the conditional bit fields of the whole
    /// batch in one product (`a = v · W + b_h` forward, `h · Wᵀ + b_v`
    /// when `rev`), then clamped Metropolis sweeps per row, each fed by
    /// that row's stream. Fields accumulate per row, so under one stream
    /// per row a row's bits never depend on its batch-mates.
    fn half_step(
        &mut self,
        clamped: &Array2<f64>,
        rev: bool,
        mut rngs: RngDiscipline<'_, '_>,
    ) -> Array2<f64> {
        let (width, free, side) = if rev {
            (self.hidden_len(), self.visible_len(), "hidden")
        } else {
            (self.visible_len(), self.hidden_len(), "visible")
        };
        assert_eq!(clamped.ncols(), width, "{side} width mismatch");
        rngs.check_rows(clamped.nrows());
        let (fields, packed) = self.batch_fields(clamped, rev);
        // The Metropolis sweep dots and both field kernels run their
        // inner loops on the runtime SIMD tier, so the tier counter is
        // orthogonal to the packed/dense split.
        self.counters.simd_kernel_calls += u64::from(ndarray::simd::simd_active());
        if packed {
            self.counters.packed_kernel_calls += 1;
        } else {
            self.counters.dense_kernel_calls += 1;
        }
        let mut out = Array2::zeros((clamped.nrows(), free));
        for (r, field_row) in fields.rows().enumerate() {
            out.row_mut(r)
                .assign(&self.sample_free_side(&field_row, rngs.row(r)));
        }
        self.counters.phase_points += clamped.nrows() as u64 * self.sweeps_per_sample();
        self.counters.host_words_transferred += (clamped.nrows() * free) as u64;
        out
    }

    /// Draws one free-side configuration given per-unit conditional bit
    /// fields `a` (length = free-side size): embeds `a/2` as spin
    /// fields and runs clamped Metropolis sweeps.
    fn sample_free_side(&self, fields: &ArrayView1<'_, f64>, rng: &mut dyn RngCore) -> Array1<f64> {
        let n = fields.len();
        let mut builder = IsingProblem::builder(n);
        for (j, &a) in fields.iter().enumerate() {
            builder.field(j, a / 2.0).expect("index in range");
        }
        let conditional = builder.build();
        let sample = self
            .annealer
            .sample_boltzmann(
                &conditional,
                self.temperature,
                1,
                self.burn_in,
                self.thin,
                rng,
            )
            .pop()
            .expect("one sample requested");
        Array1::from_iter(sample.to_bits().into_iter().map(f64::from))
    }

    fn sweeps_per_sample(&self) -> u64 {
        (self.burn_in + self.thin.max(1)) as u64
    }
}

impl Substrate for AnnealerSubstrate {
    fn name(&self) -> &'static str {
        "annealer"
    }

    fn visible_len(&self) -> usize {
        self.problem.visible_len()
    }

    fn hidden_len(&self) -> usize {
        self.problem.hidden_len()
    }

    fn program(
        &mut self,
        weights: &ArrayView2<'_, f64>,
        visible_bias: &ArrayView1<'_, f64>,
        hidden_bias: &ArrayView1<'_, f64>,
    ) {
        assert_eq!(
            weights.dim(),
            self.problem.weights().dim(),
            "fabricated size"
        );
        self.problem = BipartiteProblem::new(
            weights.to_owned(),
            visible_bias.to_owned(),
            hidden_bias.to_owned(),
        )
        .expect("consistent weight/bias dimensions");
        self.weights_t = self.problem.weights().t().to_owned();
        self.counters.host_words_transferred += self.programming_cost();
    }

    fn sample_hidden_batch(&mut self, visible: &Array2<f64>, rng: &mut dyn RngCore) -> Array2<f64> {
        self.half_step(visible, false, RngDiscipline::Shared(rng))
    }

    fn sample_visible_batch(&mut self, hidden: &Array2<f64>, rng: &mut dyn RngCore) -> Array2<f64> {
        self.half_step(hidden, true, RngDiscipline::Shared(rng))
    }

    fn sample_hidden_batch_rows(
        &mut self,
        visible: &Array2<f64>,
        rngs: &mut [&mut dyn RngCore],
    ) -> Array2<f64> {
        self.half_step(visible, false, RngDiscipline::PerRow(rngs))
    }

    fn sample_visible_batch_rows(
        &mut self,
        hidden: &Array2<f64>,
        rngs: &mut [&mut dyn RngCore],
    ) -> Array2<f64> {
        self.half_step(hidden, true, RngDiscipline::PerRow(rngs))
    }

    fn counters(&self) -> &HardwareCounters {
        &self.counters
    }

    fn counters_mut(&mut self) -> &mut HardwareCounters {
        &mut self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ember_rbm::math::sigmoid;
    use rand::SeedableRng;

    #[test]
    fn unit_temperature_matches_logistic_conditionals() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let problem = BipartiteProblem::new(
            ndarray::arr2(&[[0.8], [-0.3]]),
            ndarray::Array1::zeros(2),
            ndarray::arr1(&[0.2]),
        )
        .unwrap();
        let mut sub = AnnealerSubstrate::new(problem);
        let v = Array2::from_elem((4000, 2), 1.0);
        let h = sub.sample_hidden_batch(&v, &mut rng);
        let freq = h.sum() / 4000.0;
        let expected = sigmoid(0.8 - 0.3 + 0.2);
        assert!((freq - expected).abs() < 0.03, "freq {freq} vs {expected}");
    }

    #[test]
    fn hot_substrate_flattens_conditionals() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let problem = BipartiteProblem::new(
            ndarray::arr2(&[[3.0]]),
            ndarray::Array1::zeros(1),
            ndarray::Array1::zeros(1),
        )
        .unwrap();
        let mut sub = AnnealerSubstrate::new(problem).with_temperature(10.0);
        let v = Array2::from_elem((3000, 1), 1.0);
        let h = sub.sample_hidden_batch(&v, &mut rng);
        let freq = h.sum() / 3000.0;
        // σ(3/10) ≈ 0.574, far from the T=1 value σ(3) ≈ 0.953.
        assert!((freq - sigmoid(0.3)).abs() < 0.04, "freq {freq}");
    }

    #[test]
    fn packed_and_dense_sweep_fields_sample_identically() {
        use rand::Rng as _;
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let w = Array2::from_shape_fn((6, 4), |_| rng.random_range(-1.0..1.0));
        let problem = BipartiteProblem::new(
            w,
            ndarray::Array1::from_shape_fn(6, |_| rng.random_range(-0.5..0.5)),
            ndarray::Array1::from_shape_fn(4, |_| rng.random_range(-0.5..0.5)),
        )
        .unwrap();
        let v = Array2::from_shape_fn((5, 6), |_| f64::from(rng.random_bool(0.5)));
        let run = |kernel| {
            let mut sub = AnnealerSubstrate::new(problem.clone()).with_kernel(kernel);
            let mut rng = rand::rngs::StdRng::seed_from_u64(99);
            let h = sub.sample_hidden_batch(&v, &mut rng);
            let back = sub.sample_visible_batch(&h, &mut rng);
            (h, back, *sub.counters())
        };
        let (h_p, v_p, c_p) = run(crate::GsKernel::Packed);
        let (h_d, v_d, c_d) = run(crate::GsKernel::Dense);
        assert_eq!(h_p, h_d);
        assert_eq!(v_p, v_d);
        assert_eq!(c_p.packed_kernel_calls, 2);
        assert_eq!(c_d.dense_kernel_calls, 2);
    }

    #[test]
    fn per_row_streams_match_row_at_a_time_sampling() {
        // The batched per-row half-step computes every row's fields in
        // one product; row `r` must still be exactly what a batch of one
        // on `rngs[r]` draws, on either kernel and in either direction.
        use rand::Rng as _;
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        let problem = BipartiteProblem::new(
            Array2::from_shape_fn((7, 5), |_| rng.random_range(-1.0..1.0)),
            ndarray::Array1::from_shape_fn(7, |_| rng.random_range(-0.5..0.5)),
            ndarray::Array1::from_shape_fn(5, |_| rng.random_range(-0.5..0.5)),
        )
        .unwrap();
        let v = Array2::from_shape_fn((6, 7), |_| f64::from(rng.random_bool(0.5)));
        let h = Array2::from_shape_fn((6, 5), |_| f64::from(rng.random_bool(0.5)));
        let streams = || -> Vec<rand::rngs::StdRng> {
            (0..6)
                .map(|r| rand::rngs::StdRng::seed_from_u64(500 + r))
                .collect()
        };
        for kernel in [GsKernel::Packed, GsKernel::Dense] {
            let mut sub = AnnealerSubstrate::new(problem.clone()).with_kernel(kernel);
            for rev in [false, true] {
                let clamp = if rev { &h } else { &v };
                let mut rngs = streams();
                let mut lanes: Vec<&mut dyn RngCore> =
                    rngs.iter_mut().map(|r| r as &mut dyn RngCore).collect();
                let batched = if rev {
                    sub.sample_visible_batch_rows(clamp, &mut lanes)
                } else {
                    sub.sample_hidden_batch_rows(clamp, &mut lanes)
                };
                for (r, mut row_rng) in streams().into_iter().enumerate() {
                    let alone = if rev {
                        sub.sample_visible_row(&clamp.row(r), &mut row_rng)
                    } else {
                        sub.sample_hidden_row(&clamp.row(r), &mut row_rng)
                    };
                    assert_eq!(batched.row(r), alone, "{kernel:?} rev={rev} row {r}");
                }
            }
        }
    }

    #[test]
    fn reverse_direction_uses_visible_fields() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let problem = BipartiteProblem::new(
            ndarray::arr2(&[[5.0], [-5.0]]),
            ndarray::Array1::zeros(2),
            ndarray::Array1::zeros(1),
        )
        .unwrap();
        let mut sub = AnnealerSubstrate::new(problem);
        let h = Array2::from_elem((200, 1), 1.0);
        let v = sub.sample_visible_batch(&h, &mut rng);
        let mean0 = v.column(0).sum() / 200.0;
        let mean1 = v.column(1).sum() / 200.0;
        assert!(mean0 > 0.95, "v0 should be driven on, got {mean0}");
        assert!(mean1 < 0.05, "v1 should be driven off, got {mean1}");
    }
}
