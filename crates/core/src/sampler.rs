use ndarray::{Array1, Array2, ArrayView1};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

use ember_analog::{Comparator, NoiseModel, SigmoidUnit, ThermalRng};

/// Which RNG stream feeds each row's comparator — the one choice that
/// separates a trainer's half-step from a served one. Every backend
/// takes it in exactly one place, its private half-step.
pub(crate) enum RngDiscipline<'a, 'r> {
    /// One stream shared by the whole batch (the trait's
    /// `sample_*_batch` methods, which the trainers drive).
    Shared(&'a mut dyn RngCore),
    /// `rngs[i]` feeds row `i` and nothing else (the `*_batch_rows`
    /// methods, which the serving layer coalesces over).
    PerRow(&'a mut [&'r mut dyn RngCore]),
}

impl RngDiscipline<'_, '_> {
    /// Whether every row draws from its own stream.
    pub(crate) fn is_per_row(&self) -> bool {
        matches!(self, RngDiscipline::PerRow(_))
    }

    /// Panics unless a per-row discipline carries one stream per row.
    pub(crate) fn check_rows(&self, rows: usize) {
        if let RngDiscipline::PerRow(rngs) = self {
            assert_eq!(rows, rngs.len(), "one RNG stream per row");
        }
    }

    /// The stream that feeds row `r`.
    pub(crate) fn row(&mut self, r: usize) -> &mut dyn RngCore {
        match self {
            RngDiscipline::Shared(rng) => &mut **rng,
            RngDiscipline::PerRow(rngs) => &mut *rngs[r],
        }
    }
}

/// The probabilistic node path of the augmented substrate (§3.2, Fig. 12):
/// analog current summation through the coupling mesh → sigmoid unit →
/// comparator against a thermal-noise reference → latched Bernoulli sample.
///
/// Dynamic noise (§4.5) is injected at two places, matching the paper's
/// "dynamic noises at both nodes and coupling units":
///
/// * **coupler noise** — each coupler current `Wᵢⱼ·uᵢ` carries independent
///   relative Gaussian noise; the sum over the fan-in therefore has
///   standard deviation `RMS·√(Σᵢ (Wᵢⱼ uᵢ)²)`, which is applied in closed
///   form (no per-coupler sampling needed);
/// * **node noise** — a unit-scale disturbance on the summed voltage.
///
/// # Example
///
/// ```
/// use ember_core::AnalogSampler;
/// use ember_analog::NoiseModel;
/// use ndarray::{arr1, arr2};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let sampler = AnalogSampler::ideal();
/// let w = arr2(&[[8.0], [8.0]]);
/// let bias = arr1(&[-4.0]);
/// let v = arr1(&[1.0, 1.0]);
/// // Field = 12 ≫ 0, so the unit fires essentially always.
/// let h = sampler.sample_layer(&w.view(), &bias.view(), &v.view(), &mut rng);
/// assert_eq!(h[0], 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnalogSampler {
    sigmoid: SigmoidUnit,
    comparator: Comparator,
    thermal: ThermalRng,
    noise: NoiseModel,
}

impl AnalogSampler {
    /// An ideal front end: exact logistic, offset-free comparator,
    /// full-swing uniform reference, no noise.
    pub fn ideal() -> Self {
        AnalogSampler {
            sigmoid: SigmoidUnit::ideal(),
            comparator: Comparator::ideal(),
            thermal: ThermalRng::default(),
            noise: NoiseModel::noiseless(),
        }
    }

    /// A front end with explicit component models.
    pub fn new(sigmoid: SigmoidUnit, comparator: Comparator, noise: NoiseModel) -> Self {
        AnalogSampler {
            sigmoid,
            comparator,
            thermal: ThermalRng::default(),
            noise,
        }
    }

    /// The configured noise model.
    pub fn noise(&self) -> NoiseModel {
        self.noise
    }

    /// The configured sigmoid unit.
    pub fn sigmoid(&self) -> SigmoidUnit {
        self.sigmoid
    }

    /// The configured comparator.
    pub fn comparator(&self) -> Comparator {
        self.comparator
    }

    /// Computes the noisy analog fields of one output layer:
    /// `fieldⱼ = Σᵢ Wᵢⱼ uᵢ + bⱼ + noise`.
    ///
    /// `weights` is `(fan_in × out)`; `input` is the clamped side's levels.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn fields<R: Rng + ?Sized>(
        &self,
        weights: &ndarray::ArrayView2<'_, f64>,
        bias: &ArrayView1<'_, f64>,
        input: &ArrayView1<'_, f64>,
        rng: &mut R,
    ) -> Array1<f64> {
        assert_eq!(weights.nrows(), input.len(), "fan-in mismatch");
        assert_eq!(weights.ncols(), bias.len(), "fan-out mismatch");
        let mut field = weights.t().dot(input) + bias;
        if self.noise.noise_rms() > 0.0 {
            // Closed-form aggregate of independent relative coupler noises.
            let sq_in = input.mapv(|x| x * x);
            let sq_w = weights.mapv(|w| w * w);
            let var_coupler = sq_w.t().dot(&sq_in);
            self.perturb(field.as_mut_slice(), var_coupler.as_slice(), rng);
        }
        field
    }

    /// Full node path: fields → sigmoid → comparator. Returns 0/1 samples.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn sample_layer<R: Rng + ?Sized>(
        &self,
        weights: &ndarray::ArrayView2<'_, f64>,
        bias: &ArrayView1<'_, f64>,
        input: &ArrayView1<'_, f64>,
        rng: &mut R,
    ) -> Array1<f64> {
        let mut fields = self.fields(weights, bias, input, rng);
        self.latch_segment(fields.as_mut_slice(), rng);
        fields
    }

    /// Samples the *transpose* direction (output layer clamped, fan-in side
    /// sampled): used when the hidden side drives the visible side.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn sample_layer_rev<R: Rng + ?Sized>(
        &self,
        weights: &ndarray::ArrayView2<'_, f64>,
        bias: &ArrayView1<'_, f64>,
        input: &ArrayView1<'_, f64>,
        rng: &mut R,
    ) -> Array1<f64> {
        assert_eq!(weights.ncols(), input.len(), "fan-in mismatch (rev)");
        assert_eq!(weights.nrows(), bias.len(), "fan-out mismatch (rev)");
        let mut field = weights.dot(input) + bias;
        if self.noise.noise_rms() > 0.0 {
            let sq_in = input.mapv(|x| x * x);
            let sq_w = weights.mapv(|w| w * w);
            let var_coupler = sq_w.dot(&sq_in);
            self.perturb(field.as_mut_slice(), var_coupler.as_slice(), rng);
        }
        self.latch_segment(field.as_mut_slice(), rng);
        field
    }

    /// Whole-minibatch node path through the dense GEMM: every row of
    /// `inputs` is one clamped configuration, the analog vector-matrix
    /// products of the whole batch collapse into one GEMM (`inputs · W`
    /// forward, `inputs · Wᵀ` when `rev` clamps the output layer and
    /// samples the fan-in side), and the stochastic tail runs under
    /// `rngs` (see [`AnalogSampler::latch`]).
    ///
    /// The GEMM accumulates each output row independently of the
    /// others, so under [`RngDiscipline::PerRow`] row `i`'s bits depend
    /// only on (weights, bias, row `i`, its stream) — identical whether
    /// the row is sampled alone or coalesced into any batch.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch, or if a per-row discipline does not
    /// carry one stream per row.
    pub(crate) fn sample_dense(
        &self,
        weights: &ndarray::ArrayView2<'_, f64>,
        bias: &ArrayView1<'_, f64>,
        inputs: &Array2<f64>,
        rev: bool,
        rngs: RngDiscipline<'_, '_>,
    ) -> Array2<f64> {
        let mut fields = if rev {
            assert_eq!(weights.ncols(), inputs.ncols(), "fan-in mismatch (rev)");
            assert_eq!(weights.nrows(), bias.len(), "fan-out mismatch (rev)");
            inputs.dot(&weights.t())
        } else {
            assert_eq!(weights.nrows(), inputs.ncols(), "fan-in mismatch");
            assert_eq!(weights.ncols(), bias.len(), "fan-out mismatch");
            inputs.dot(weights)
        };
        let var = self.coupler_variance(weights, inputs, rev);
        self.latch(&mut fields, bias, var.as_ref(), rngs);
        fields
    }

    /// Closed-form coupler-noise variance of a dense batch,
    /// `Σᵢ (Wᵢⱼ uᵢ)²` per output cell, or `None` on a noiseless front
    /// end.
    fn coupler_variance(
        &self,
        weights: &ndarray::ArrayView2<'_, f64>,
        inputs: &Array2<f64>,
        rev: bool,
    ) -> Option<Array2<f64>> {
        if self.noise.noise_rms() <= 0.0 {
            return None;
        }
        let sq_in = inputs.mapv(|x| x * x);
        let sq_w = weights.mapv(|w| w * w);
        Some(if rev {
            sq_in.dot(&sq_w.t())
        } else {
            sq_in.dot(&sq_w)
        })
    }

    /// Stochastic tail of the batched node path, over precomputed
    /// fields: bias add, closed-form coupler-noise perturbation (when
    /// `var_coupler` is given), then the comparator latch
    /// ([`AnalogSampler::latch_segment`]). The packed-kernel substrates
    /// call this directly with fields (and variances) produced by
    /// [`crate::kernels::binary_gemm`].
    ///
    /// Each discipline runs its draws segment by segment, every
    /// segment's perturbations before its comparators, and both orders
    /// are pinned by golden fixtures. A shared stream makes the whole
    /// field matrix one segment, in row-major order. Per-row streams
    /// make each row its own segment, drawn from that row's stream.
    ///
    /// # Panics
    ///
    /// Panics if a per-row discipline does not carry one stream per row.
    pub(crate) fn latch(
        &self,
        fields: &mut Array2<f64>,
        bias: &ArrayView1<'_, f64>,
        var_coupler: Option<&Array2<f64>>,
        rngs: RngDiscipline<'_, '_>,
    ) {
        rngs.check_rows(fields.nrows());
        let cols = fields.ncols();
        if cols == 0 {
            return;
        }
        let var = var_coupler.map(Array2::as_slice);
        let cells = fields.as_mut_slice();
        for row in cells.chunks_exact_mut(cols) {
            add_bias(row, bias);
        }
        let mut scratch = LatchScratch::default();
        match rngs {
            RngDiscipline::Shared(rng) => {
                if let Some(var) = var {
                    self.perturb(cells, var, rng);
                }
                self.latch_into(cells, rng, &mut scratch);
            }
            RngDiscipline::PerRow(rngs) => {
                for (i, (row, rng)) in cells
                    .chunks_exact_mut(cols)
                    .zip(rngs.iter_mut())
                    .enumerate()
                {
                    if let Some(var) = var {
                        self.perturb(row, &var[i * cols..(i + 1) * cols], *rng);
                    }
                    self.latch_into(row, *rng, &mut scratch);
                }
            }
        }
    }

    /// Stochastic tail of the serial per-chain node path, over a field
    /// row precomputed by `kernels::binary_field_row`: bias add, then
    /// coupler-noise perturbation (when `var` is given), then the latch
    /// — the exact arithmetic *and RNG draw order* of
    /// [`AnalogSampler::sample_layer_reference`]'s tail (one segment,
    /// all perturbations before any comparator draw), so a serial
    /// chain's bits are invariant to which field kernel produced the
    /// row.
    pub(crate) fn latch_row(
        &self,
        field: &mut Array1<f64>,
        bias: &ArrayView1<'_, f64>,
        var: Option<&Array1<f64>>,
        rng: &mut dyn RngCore,
    ) {
        let field = field.as_mut_slice();
        add_bias(field, bias);
        if let Some(var) = var {
            self.perturb(field, var.as_slice(), rng);
        }
        self.latch_segment(field, rng);
    }

    /// Closed-form noise perturbation of a segment: field `j` moves by
    /// `N(0, RMS · √(var[j] + 1))` (`+1`: unit-scale node noise), drawn
    /// in index order.
    fn perturb<R: Rng + ?Sized>(&self, fields: &mut [f64], var: &[f64], rng: &mut R) {
        for (f, &v) in fields.iter_mut().zip(var) {
            *f = self.noise.perturb(*f, (v + 1.0).sqrt(), rng);
        }
    }

    /// The comparator latch of one segment of (already perturbed)
    /// fields: `fields[j]` becomes `1.0` when
    /// `transfer(fields[j]) + offset > reference_j`, else `0.0`, where
    /// `reference_j` is the segment's `j`-th [`ThermalRng::sample_unit`]
    /// draw from `rng` — exactly the bits and the stream position of
    /// `Comparator::sample(transfer(x), &thermal, rng)` run over the
    /// segment in order. Every sampling path of this type ends in it.
    ///
    /// It runs four steps over the whole segment instead of one draw
    /// and one `exp` per state:
    ///
    /// 1. **draw** — a uniform reference profile takes all the
    ///    segment's words in one [`RngCore::fill_u64`] call (other
    ///    profiles draw one reference at a time);
    /// 2. **references** — the words become references with
    ///    [`ThermalRng::unit_from_word`], `sample_unit`'s own
    ///    arithmetic (fused into step 4's pass);
    /// 3. **probabilities** — [`SigmoidUnit::screen`] approximates the
    ///    sigmoid through a vector `exp`;
    /// 4. **decide** — without branches: `p̃ + offset − reference`
    ///    above the screen's guard band
    ///    ([`SigmoidUnit::screen_bound`]) latches 1, below its negative
    ///    latches 0, and anything inside it (NaN included) is decided
    ///    again with the exact `transfer` and [`Comparator::decide`].
    ///
    /// Returns how many states took that exact fallback.
    pub fn latch_segment<R: RngCore + ?Sized>(&self, fields: &mut [f64], rng: &mut R) -> usize {
        self.latch_into(fields, rng, &mut LatchScratch::default())
    }

    /// [`AnalogSampler::latch_segment`] with caller-held scratch, so a
    /// batch of per-row segments allocates once.
    fn latch_into<R: RngCore + ?Sized>(
        &self,
        fields: &mut [f64],
        rng: &mut R,
        scratch: &mut LatchScratch,
    ) -> usize {
        let n = fields.len();
        scratch.words.resize(n, 0);
        scratch.probs.resize(n, 0.0);
        let (words, probs) = (&mut scratch.words[..n], &mut scratch.probs[..n]);
        let uniform = self.thermal.is_uniform();
        if uniform {
            rng.fill_u64(words);
        } else {
            for w in words.iter_mut() {
                *w = self.thermal.sample_unit(rng).to_bits();
            }
        }
        self.sigmoid.screen(fields, probs);
        if uniform {
            self.decide(fields, probs, words, |w| self.thermal.unit_from_word(w))
        } else {
            self.decide(fields, probs, words, f64::from_bits)
        }
    }

    /// Step 4 of [`AnalogSampler::latch_segment`]: latches every state
    /// the screen decides, then re-decides the rest exactly; `reference`
    /// turns a drawn word into its comparator reference. Returns the
    /// number of exact re-decisions.
    fn decide(
        &self,
        fields: &mut [f64],
        probs: &[f64],
        words: &[u64],
        reference: impl Fn(u64) -> f64,
    ) -> usize {
        let (offset, band) = (self.comparator.offset(), self.sigmoid.screen_bound());
        let margin = |p: f64, w: u64| (p + offset) - reference(w);
        let mut unsure = 0;
        for ((f, &p), &w) in fields.iter_mut().zip(probs).zip(words) {
            let m = margin(p, w);
            let (one, zero) = (m > band, m < -band);
            unsure += usize::from(!(one | zero));
            *f = if one {
                1.0
            } else if zero {
                0.0
            } else {
                *f
            };
        }
        if unsure > 0 {
            for ((f, &p), &w) in fields.iter_mut().zip(probs).zip(words) {
                let m = margin(p, w);
                if !(m > band || m < -band) {
                    let latched = self
                        .comparator
                        .decide(self.sigmoid.transfer(*f), reference(w));
                    *f = f64::from(u8::from(latched));
                }
            }
        }
        unsure
    }

    /// Row-at-a-time reference node path with straightforward scalar
    /// kernels (per-element accumulation vector-matrix product): a
    /// faithful reimplementation of the seed's row-at-a-time strategy,
    /// kept as the measured baseline of `GsEngine::SerialReference` and
    /// the `bench_pr1` harness. Its measured epoch time matches the
    /// seed path as first built (before the vendored GEMM kernels were
    /// unrolled and blocked): ~41 ms for a 784×200 batch-64 CD-1 epoch
    /// on the reference box in both cases. Statistically identical to
    /// [`AnalogSampler::sample_layer`] / [`AnalogSampler::sample_layer_rev`].
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn sample_layer_reference<R: Rng + ?Sized>(
        &self,
        weights: &ndarray::ArrayView2<'_, f64>,
        bias: &ArrayView1<'_, f64>,
        input: &ArrayView1<'_, f64>,
        rev: bool,
        rng: &mut R,
    ) -> Array1<f64> {
        let (rows, cols) = (weights.nrows(), weights.ncols());
        let (fan_in, out) = if rev { (cols, rows) } else { (rows, cols) };
        assert_eq!(fan_in, input.len(), "fan-in mismatch (reference)");
        assert_eq!(out, bias.len(), "fan-out mismatch (reference)");
        let at = |i: usize, j: usize| {
            if rev {
                weights[[j, i]]
            } else {
                weights[[i, j]]
            }
        };
        let mut field = Array1::zeros(out);
        for j in 0..out {
            field[j] = (0..fan_in).map(|i| at(i, j) * input[i]).sum::<f64>() + bias[j];
        }
        if self.noise.noise_rms() > 0.0 {
            let var_coupler: Vec<f64> = (0..out)
                .map(|j| {
                    (0..fan_in)
                        .map(|i| {
                            let c = at(i, j) * input[i];
                            c * c
                        })
                        .sum()
                })
                .collect();
            self.perturb(field.as_mut_slice(), &var_coupler, rng);
        }
        self.latch_segment(field.as_mut_slice(), rng);
        field
    }

    /// Deterministic variant of the weight matrix under frozen variation:
    /// helper re-exported for the accelerators.
    pub fn apply_variation(
        weights: &Array2<f64>,
        variation: &ember_analog::VariationMap,
    ) -> Array2<f64> {
        variation.apply(weights)
    }
}

impl Default for AnalogSampler {
    fn default() -> Self {
        AnalogSampler::ideal()
    }
}

/// Working buffers of [`AnalogSampler::latch_segment`]: the segment's
/// drawn words (or, for a non-uniform reference profile, its references
/// as `f64` bits) and its screened probabilities.
#[derive(Default)]
struct LatchScratch {
    words: Vec<u64>,
    probs: Vec<f64>,
}

/// `row[j] += bias[j]`.
fn add_bias(row: &mut [f64], bias: &ArrayView1<'_, f64>) {
    for (f, &b) in row.iter_mut().zip(bias.iter()) {
        *f += b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ember_rbm::math::sigmoid;
    use ndarray::{arr1, arr2};
    use rand::SeedableRng;

    #[test]
    fn ideal_sampler_matches_software_probabilities() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let sampler = AnalogSampler::ideal();
        let w = arr2(&[[0.8], [-0.3]]);
        let bias = arr1(&[0.2]);
        let v = arr1(&[1.0, 1.0]);
        let expected = sigmoid(0.8 - 0.3 + 0.2);
        let trials = 20000;
        let ones: f64 = (0..trials)
            .map(|_| sampler.sample_layer(&w.view(), &bias.view(), &v.view(), &mut rng)[0])
            .sum();
        let freq = ones / trials as f64;
        assert!((freq - expected).abs() < 0.01, "freq {freq} vs {expected}");
    }

    #[test]
    fn reverse_direction_matches_forward_semantics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let sampler = AnalogSampler::ideal();
        // (2 visible × 1 hidden); drive hidden=1, sample visible.
        let w = arr2(&[[1.5], [-2.0]]);
        let bv = arr1(&[0.1, 0.4]);
        let h = arr1(&[1.0]);
        let trials = 20000;
        let mut sums = [0.0; 2];
        for _ in 0..trials {
            let v = sampler.sample_layer_rev(&w.view(), &bv.view(), &h.view(), &mut rng);
            sums[0] += v[0];
            sums[1] += v[1];
        }
        assert!((sums[0] / trials as f64 - sigmoid(1.5 + 0.1)).abs() < 0.01);
        assert!((sums[1] / trials as f64 - sigmoid(-2.0 + 0.4)).abs() < 0.01);
    }

    #[test]
    fn noise_spreads_fields() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let noisy = AnalogSampler::new(
            SigmoidUnit::ideal(),
            Comparator::ideal(),
            NoiseModel::new(0.0, 0.2).unwrap(),
        );
        let w = arr2(&[[1.0], [1.0]]);
        let bias = arr1(&[0.0]);
        let v = arr1(&[1.0, 1.0]);
        let fields: Vec<f64> = (0..500)
            .map(|_| noisy.fields(&w.view(), &bias.view(), &v.view(), &mut rng)[0])
            .collect();
        let mean = fields.iter().sum::<f64>() / fields.len() as f64;
        let var = fields.iter().map(|f| (f - mean).powi(2)).sum::<f64>() / fields.len() as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        // σ = 0.2·sqrt(1²+1²+1) = 0.2·√3 ≈ 0.346
        assert!((var.sqrt() - 0.346).abs() < 0.05, "std {}", var.sqrt());
    }

    #[test]
    fn noiseless_fields_are_exact() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let sampler = AnalogSampler::ideal();
        let w = arr2(&[[0.5, -1.0], [2.0, 0.25]]);
        let bias = arr1(&[0.1, -0.1]);
        let v = arr1(&[1.0, 0.0]);
        let f = sampler.fields(&w.view(), &bias.view(), &v.view(), &mut rng);
        assert!((f[0] - 0.6).abs() < 1e-12);
        assert!((f[1] - (-1.1)).abs() < 1e-12);
    }

    #[test]
    fn batch_rows_output_is_invariant_to_co_batched_rows() {
        // Row 1 of a 3-row batch must equal the same row sampled alone
        // under the same stream — the coalescing-invisibility contract —
        // including with dynamic noise enabled.
        let sampler = AnalogSampler::new(
            SigmoidUnit::ideal(),
            Comparator::ideal(),
            NoiseModel::new(0.05, 0.1).unwrap(),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        use rand::Rng as _;
        let w = Array2::from_shape_fn((6, 4), |_| rng.random_range(-0.5..0.5));
        let bias = arr1(&[0.1, -0.2, 0.0, 0.3]);
        for rev in [false, true] {
            let fan_in = if rev { 4 } else { 6 };
            let inputs = Array2::from_shape_fn((3, fan_in), |_| f64::from(rng.random_bool(0.5)));
            let sample = |rows: &Array2<f64>, seeds: &[u64]| {
                let mut rngs: Vec<rand::rngs::StdRng> = seeds
                    .iter()
                    .map(|&s| rand::rngs::StdRng::seed_from_u64(s))
                    .collect();
                let mut dyn_rngs: Vec<&mut dyn rand::RngCore> = rngs
                    .iter_mut()
                    .map(|r| r as &mut dyn rand::RngCore)
                    .collect();
                let lanes = RngDiscipline::PerRow(&mut dyn_rngs);
                if rev {
                    let b = arr1(&[0.0; 6]);
                    sampler.sample_dense(&w.view(), &b.view(), rows, true, lanes)
                } else {
                    sampler.sample_dense(&w.view(), &bias.view(), rows, false, lanes)
                }
            };
            let full = sample(&inputs, &[7, 8, 9]);
            let solo = sample(&inputs.slice(ndarray::s![1..2, ..]).to_owned(), &[8]);
            assert_eq!(full.row(1), solo.row(0), "rev={rev}");
        }
    }

    #[test]
    fn samples_are_binary() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let sampler = AnalogSampler::ideal();
        let w = arr2(&[[0.1, 0.2, -0.1], [0.0, 0.5, 0.3]]);
        let bias = arr1(&[0.0, 0.0, 0.0]);
        let v = arr1(&[1.0, 1.0]);
        for _ in 0..50 {
            let h = sampler.sample_layer(&w.view(), &bias.view(), &v.view(), &mut rng);
            assert!(h.iter().all(|&x| x == 0.0 || x == 1.0));
        }
    }
}
