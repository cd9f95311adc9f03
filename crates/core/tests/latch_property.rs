//! Property tests of the comparator latch (`AnalogSampler::latch_segment`):
//! every bit it latches, and where it leaves each RNG stream, must match
//! the per-state node path `Comparator::sample(SigmoidUnit::transfer(x),
//! &ThermalRng::default(), rng)` run over the same stream — for any
//! sigmoid and comparator, for references within a few ulps of the
//! probability, for degenerate fields, and for every segment shape the
//! substrate paths use (the whole matrix under a shared stream, one row
//! per stream, one serial row), with noise on and off.

use ember_analog::{Comparator, NoiseModel, SigmoidUnit, ThermalRng};
use ember_core::kernels::scalar_ref_gemm;
use ember_core::substrate::{SoftwareGibbs, Substrate};
use ember_core::{AnalogSampler, GsConfig, GsKernel};
use ndarray::{Array1, Array2};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The per-state node path the latch must reproduce, over `fields` in
/// order.
fn per_state(sampler: &AnalogSampler, fields: &[f64], rng: &mut dyn RngCore) -> Vec<f64> {
    let (sigmoid, comparator) = (sampler.sigmoid(), sampler.comparator());
    let thermal = ThermalRng::default();
    fields
        .iter()
        .map(|&x| {
            f64::from(u8::from(comparator.sample(
                sigmoid.transfer(x),
                &thermal,
                rng,
            )))
        })
        .collect()
}

/// An RNG that replays a fixed script of words (then zeros).
struct Script(std::vec::IntoIter<u64>);

impl RngCore for Script {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
    fn next_u64(&mut self) -> u64 {
        self.0.next().unwrap_or(0)
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let w = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// A sampler with the given front end and an ideal uniform reference.
fn sampler(gain: f64, threshold: f64, saturation: f64, offset: f64) -> AnalogSampler {
    AnalogSampler::new(
        SigmoidUnit::new(gain, threshold, saturation).expect("valid sigmoid"),
        Comparator::with_offset(offset).expect("valid offset"),
        NoiseModel::noiseless(),
    )
}

/// Fields that hit every edge of the transfer function: signed zeros,
/// subnormals, `|gain·x| > 700`, infinities and NaN.
fn degenerate_fields(gain: f64, threshold: f64) -> Vec<f64> {
    let far = 701.0 / gain;
    vec![
        0.0,
        -0.0,
        threshold,
        f64::from_bits(1),
        -f64::from_bits(1),
        2.2e-310,
        -2.2e-310,
        f64::MIN_POSITIVE,
        threshold + far,
        threshold - far,
        threshold + 10.0 * far,
        threshold - 10.0 * far,
        1e300,
        -1e300,
        f64::MAX,
        f64::MIN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any gain, threshold, saturation < 0.5 and comparator offset: the
    /// latched bits and the stream position after the segment equal
    /// the per-state path's, including on degenerate fields.
    #[test]
    fn latch_matches_the_per_state_comparator(
        gain in 0.01f64..40.0,
        threshold in -4.0f64..4.0,
        saturation in 0.0f64..0.499,
        offset in -0.5f64..=0.5,
        len in 0usize..300,
        spread in 0.1f64..50.0,
        seed in any::<u64>(),
    ) {
        let sampler = sampler(gain, threshold, saturation, offset);
        let mut gen = StdRng::seed_from_u64(seed);
        let mut fields: Vec<f64> = (0..len)
            .map(|_| threshold + gen.random_range(-spread..spread))
            .collect();
        fields.extend(degenerate_fields(gain, threshold));
        let mut ours = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut theirs = ours.clone();
        let expected = per_state(&sampler, &fields, &mut theirs);
        let mut latched = fields.clone();
        let exact = sampler.latch_segment(&mut latched, &mut ours as &mut dyn RngCore);
        prop_assert_eq!(bits(&latched), bits(&expected));
        prop_assert_eq!(ours.next_u64(), theirs.next_u64());
        // Both NaN fields at least fall inside the band.
        prop_assert!(exact >= 2, "only {} exact decisions", exact);
    }

    /// A reference within three ulps of `transfer(x) + offset` on
    /// either side, or exactly equal to it, still latches the per-state
    /// decision — and the exact tie always takes the exact fallback.
    #[test]
    fn references_within_ulps_of_the_probability_latch_exactly(
        gain in 0.05f64..10.0,
        threshold in -2.0f64..2.0,
        saturation in 0.0f64..0.3,
        offset in -0.25f64..=0.25,
        x in -3.0f64..3.0,
    ) {
        let sampler = sampler(gain, threshold, saturation, offset);
        let level = SigmoidUnit::new(gain, threshold, saturation).unwrap().transfer(x) + offset;
        // The uniform reference is `(word >> 11) · 2⁻⁵³`: step through
        // the references around `level`, one ulp of `[0.5, 1)` apart.
        let grid = (level * (1u64 << 53) as f64).floor();
        prop_assume!((3.0..(1u64 << 53) as f64 - 3.0).contains(&grid));
        for k in -3i64..=3 {
            let word = ((grid as i64 + k) as u64) << 11;
            let reference = ThermalRng::default().unit_from_word(word);
            let mut fields = [x];
            let exact = sampler.latch_segment(&mut fields, &mut Script(vec![word].into_iter()));
            let expected = per_state(&sampler, &[x], &mut Script(vec![word].into_iter()));
            prop_assert_eq!(fields[0], expected[0], "k = {}", k);
            if reference == level {
                prop_assert_eq!(exact, 1, "a tie must be decided exactly");
            }
        }
        // In `[0.5, 1)` every double is a reference, so the tie exists.
        if (0.5..1.0).contains(&level) {
            let word = ((level * (1u64 << 53) as f64) as u64) << 11;
            prop_assert_eq!(ThermalRng::default().unit_from_word(word), level);
            let mut fields = [x];
            prop_assert_eq!(sampler.latch_segment(&mut fields, &mut Script(vec![word].into_iter())), 1);
        }
    }

    /// `unit_from_word` is `sample_unit` of a stream whose next word is
    /// `word`, at any swing.
    #[test]
    fn unit_from_word_is_sample_unit(
        word in any::<u64>(),
        swing in 0.001f64..=0.5,
    ) {
        for thermal in [ThermalRng::new(swing), ThermalRng::new(0.25), ThermalRng::default()] {
            for w in [word, 0, u64::MAX, 1 << 11, (1 << 11) - 1, word | 0x800] {
                let drawn = thermal.sample_unit(&mut Script(vec![w].into_iter()));
                prop_assert_eq!(thermal.unit_from_word(w).to_bits(), drawn.to_bits());
            }
        }
    }
}

/// The screen's guard band holds with a factor 100 to spare over a
/// dense grid of `t = gain·(x − threshold)` in `[−750, 750]`, for
/// several front ends — and its measured error is below `1e-14`.
#[test]
fn screen_stays_within_a_hundredth_of_its_guard_band() {
    for &(gain, threshold, saturation) in &[
        (1.0, 0.0, 0.0),
        (3.7, -1.25, 0.0),
        (0.2, 2.0, 0.02),
        (12.0, 0.5, 0.3),
        (1.0, 0.0, 0.49),
    ] {
        let unit = SigmoidUnit::new(gain, threshold, saturation).unwrap();
        let steps = 300_000;
        let xs: Vec<f64> = (0..=steps)
            .map(|i| threshold + (-750.0 + 1500.0 * i as f64 / steps as f64) / gain)
            .collect();
        let mut screened = vec![0.0; xs.len()];
        unit.screen(&xs, &mut screened);
        let worst = xs
            .iter()
            .zip(&screened)
            .map(|(&x, &p)| (p - unit.transfer(x)).abs())
            .fold(0.0, f64::max);
        let bound = unit.screen_bound();
        assert!(
            worst <= bound / 100.0,
            "gain {gain}: {worst} > {}",
            bound / 100.0
        );
        assert!(
            worst * (1.0 - 2.0 * saturation) < 1e-14,
            "gain {gain}: measured error {worst}"
        );
    }
}

/// A non-uniform reference profile draws one reference at a time
/// through `sample_unit` and still matches the per-state path.
#[test]
fn non_uniform_reference_profile_matches_the_per_state_path() {
    let ideal = AnalogSampler::ideal();
    let uniform = serde_json::to_string(&ThermalRng::default()).unwrap();
    let gaussian = serde_json::to_string(&ThermalRng::with_profile(0.5, 0.4).unwrap()).unwrap();
    let json = serde_json::to_string(&ideal).unwrap();
    assert!(json.contains(&uniform));
    let sampler: AnalogSampler = serde_json::from_str(&json.replace(&uniform, &gaussian)).unwrap();
    let thermal = ThermalRng::with_profile(0.5, 0.4).unwrap();
    let mut gen = StdRng::seed_from_u64(3);
    let fields: Vec<f64> = (0..500).map(|_| gen.random_range(-6.0..6.0)).collect();
    let mut ours = StdRng::seed_from_u64(4);
    let mut theirs = ours.clone();
    let expected: Vec<f64> = fields
        .iter()
        .map(|&x| {
            let p = SigmoidUnit::ideal().transfer(x);
            f64::from(u8::from(Comparator::ideal().sample(
                p,
                &thermal,
                &mut theirs,
            )))
        })
        .collect();
    let mut latched = fields.clone();
    sampler.latch_segment(&mut latched, &mut ours);
    assert_eq!(bits(&latched), bits(&expected));
    assert_eq!(ours.next_u64(), theirs.next_u64());
}

// ---------------------------------------------------------------------------
// Segments in context: the substrate's three sampling disciplines
// ---------------------------------------------------------------------------

/// A programmed software substrate, its analog front end made
/// non-ideal, with or without dynamic noise, and the visible and hidden
/// biases it was programmed with.
fn substrate(
    visible: usize,
    hidden: usize,
    noisy: bool,
    seed: u64,
) -> (SoftwareGibbs, Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let noise = if noisy {
        NoiseModel::new(0.05, 0.1).unwrap()
    } else {
        NoiseModel::noiseless()
    };
    let config = GsConfig::default()
        .with_sigmoid(SigmoidUnit::new(1.3, 0.1, 0.02).unwrap())
        .with_comparator(Comparator::with_offset(0.01).unwrap())
        .with_noise(noise);
    let mut sub = SoftwareGibbs::new(visible, hidden, &config, &mut rng);
    let w = Array2::from_shape_fn((visible, hidden), |_| rng.random_range(-1.5..1.5));
    let bv = Array1::from_shape_fn(visible, |_| rng.random_range(-0.5..0.5));
    let bh = Array1::from_shape_fn(hidden, |_| rng.random_range(-0.5..0.5));
    sub.program(&w.view(), &bv.view(), &bh.view());
    (sub, bv.as_slice().to_vec(), bh.as_slice().to_vec())
}

/// The documented node path of one segment, from public primitives:
/// bias add, every perturbation, then every comparator, all from `rng`.
fn reference_segment(
    sampler: &AnalogSampler,
    fields: &[f64],
    bias: &[f64],
    var: Option<&[f64]>,
    rng: &mut dyn RngCore,
) -> Vec<f64> {
    let mut fields: Vec<f64> = fields.iter().zip(bias).map(|(f, b)| f + b).collect();
    if let Some(var) = var {
        for (f, &v) in fields.iter_mut().zip(var) {
            *f = sampler.noise().perturb(*f, (v + 1.0).sqrt(), rng);
        }
    }
    per_state(sampler, &fields, rng)
}

/// The fields (and coupler-noise variances) of a binary batch through
/// the scalar reference GEMM, which the packed kernel matches bit for
/// bit.
fn reference_fields(
    sub: &SoftwareGibbs,
    inputs: &Array2<f64>,
    rev: bool,
) -> (Array2<f64>, Array2<f64>) {
    let w = if rev {
        sub.programmed_weights().t().to_owned()
    } else {
        sub.programmed_weights().clone()
    };
    let sq = w.mapv(|x| x * x);
    (
        scalar_ref_gemm(inputs, &w, None),
        scalar_ref_gemm(inputs, &sq, None),
    )
}

fn random_states(rows: usize, cols: usize, seed: u64) -> Array2<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    Array2::from_shape_fn((rows, cols), |_| f64::from(rng.random_bool(0.5)))
}

#[test]
fn substrate_segments_match_the_per_state_path() {
    let (visible, hidden, rows) = (37, 11, 5);
    for noisy in [false, true] {
        for rev in [false, true] {
            let (mut sub, bv, bh) = substrate(visible, hidden, noisy, 21);
            let sampler = *sub.sampler();
            let (fan_in, out, bias) = if rev {
                (hidden, visible, bv)
            } else {
                (visible, hidden, bh)
            };
            let inputs = random_states(rows, fan_in, 22);
            let (fields, var) = reference_fields(&sub, &inputs, rev);
            let var = noisy.then_some(&var);

            // Shared stream: the whole matrix is one segment.
            let mut ours = StdRng::seed_from_u64(5);
            let mut theirs = ours.clone();
            let got = if rev {
                sub.sample_visible_batch(&inputs, &mut ours)
            } else {
                sub.sample_hidden_batch(&inputs, &mut ours)
            };
            let tiled_bias: Vec<f64> = (0..rows).flat_map(|_| bias.iter().copied()).collect();
            let want = reference_segment(
                &sampler,
                fields.as_slice(),
                &tiled_bias,
                var.map(|v| v.as_slice()),
                &mut theirs,
            );
            assert_eq!(
                bits(got.as_slice()),
                bits(&want),
                "shared, noisy {noisy}, rev {rev}"
            );
            assert_eq!(ours.next_u64(), theirs.next_u64());

            // Per-row streams: each row is its own segment.
            let mut ours: Vec<StdRng> = (0..rows as u64).map(StdRng::seed_from_u64).collect();
            let mut theirs = ours.clone();
            let got = {
                let mut lanes: Vec<&mut dyn RngCore> =
                    ours.iter_mut().map(|r| r as &mut dyn RngCore).collect();
                if rev {
                    sub.sample_visible_batch_rows(&inputs, &mut lanes)
                } else {
                    sub.sample_hidden_batch_rows(&inputs, &mut lanes)
                }
            };
            for r in 0..rows {
                let want = reference_segment(
                    &sampler,
                    &fields.as_slice()[r * out..(r + 1) * out],
                    &bias,
                    var.map(|v| &v.as_slice()[r * out..(r + 1) * out]),
                    &mut theirs[r],
                );
                assert_eq!(
                    bits(&got.as_slice()[r * out..(r + 1) * out]),
                    bits(&want),
                    "per-row {r}, noisy {noisy}, rev {rev}"
                );
                assert_eq!(ours[r].next_u64(), theirs[r].next_u64());
            }

            // Serial rows: one layer is one segment, on both the packed
            // field kernel and the dense scalar reference.
            for kernel in [GsKernel::Packed, GsKernel::Dense] {
                let mut sub = substrate(visible, hidden, noisy, 21).0.with_kernel(kernel);
                for r in 0..rows {
                    let mut ours = StdRng::seed_from_u64(40 + r as u64);
                    let mut theirs = ours.clone();
                    let row = inputs.row(r).to_owned();
                    let got = if rev {
                        sub.sample_visible_row(&row.view(), &mut ours)
                    } else {
                        sub.sample_hidden_row(&row.view(), &mut ours)
                    };
                    let want = reference_segment(
                        &sampler,
                        &fields.as_slice()[r * out..(r + 1) * out],
                        &bias,
                        var.map(|v| &v.as_slice()[r * out..(r + 1) * out]),
                        &mut theirs,
                    );
                    assert_eq!(
                        bits(got.as_slice()),
                        bits(&want),
                        "serial row {r}, {kernel:?}, noisy {noisy}, rev {rev}"
                    );
                    assert_eq!(ours.next_u64(), theirs.next_u64());
                }
            }
        }
    }
}
