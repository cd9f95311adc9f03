//! The kernel tier matrix: `binary_gemm` on every SIMD tier this host
//! runs (`force_tier` Scalar / AVX2 / AVX-512 / NEON) must equal the
//! scalar row-loop reference bit for bit, at shapes straddling every
//! dispatch boundary — the AVX-512 multi-row kernel's row and density
//! thresholds and eight-row groups, the block path's 64-row chunks, and
//! the 16/8-column tiles — with empty, all-ones and ragged rows and
//! with signed zeros, subnormals, infinities and NaN among the weights.
//!
//! One test, alone in its own binary: it pins the process-wide tier,
//! so nothing else may flip it meanwhile. It prints which tiers ran and
//! which this host lacks (`cargo test --test kernel_tiers --
//! --nocapture`), so a runner without AVX-512 says so instead of
//! silently skipping the 512-bit body.

use ember_core::kernels::{
    active_tier, binary_gemm, force_tier, scalar_ref_gemm, BitMatrix, SimdTier,
};
use ndarray::{Array1, Array2};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Batch patterns: ragged (row `r` at density `r / rows`), every row
/// empty, every row full, and sparse (~8 set bits per row, the
/// multi-row kernel's density threshold).
const PATTERNS: [&str; 4] = ["ragged", "empty", "full", "sparse"];

fn batch(rows: usize, fan_in: usize, pattern: &str, rng: &mut StdRng) -> Array2<f64> {
    Array2::from_shape_fn((rows, fan_in), |(r, _)| {
        let p = match pattern {
            "ragged" => r as f64 / rows as f64,
            "empty" => 0.0,
            "full" => 1.0,
            _ => 8.0 / fan_in as f64,
        };
        f64::from(rng.random_bool(p))
    })
}

/// Weights with order-sensitive magnitudes, and with `specials`
/// sprinkled among them.
fn weights(fan_in: usize, out: usize, specials: &[f64], rng: &mut StdRng) -> Array2<f64> {
    Array2::from_shape_fn((fan_in, out), |_| {
        if !specials.is_empty() && rng.random_bool(0.05) {
            specials[rng.random_range(0..specials.len())]
        } else {
            rng.random_range(-3.0..3.0)
        }
    })
}

/// The selected-row sum in scalar loops: `Σ_{i : state = 1} w[i][j]`
/// in ascending `i` from `+0.0`, then the bias. This is
/// [`scalar_ref_gemm`] with the zero-state terms dropped, which is the
/// same value for finite weights; for an infinite or NaN weight the
/// dense reference's `0 · w` is NaN, so non-finite weights are checked
/// against this sum instead.
fn selected_row_sum(states: &Array2<f64>, w: &Array2<f64>, bias: &Array1<f64>) -> Array2<f64> {
    let (fan_in, out) = w.dim();
    Array2::from_shape_fn((states.nrows(), out), |(r, j)| {
        let mut acc = 0.0;
        for i in 0..fan_in {
            if states[[r, i]] == 1.0 {
                acc += w[[i, j]];
            }
        }
        acc + bias[j]
    })
}

/// Bit patterns with every NaN mapped to one value: which NaN payload
/// survives a sum of several NaNs is not specified.
fn canonical_bits(a: &Array2<f64>) -> Vec<u64> {
    a.iter()
        .map(|x| {
            if x.is_nan() {
                f64::NAN.to_bits()
            } else {
                x.to_bits()
            }
        })
        .collect()
}

#[test]
fn binary_gemm_matches_the_scalar_reference_on_every_tier() {
    let finite_specials = [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE / 3.0,
        -2.2e-308,
    ];
    let non_finite = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.0, 5e-324];
    let (tiers, missing): (Vec<SimdTier>, Vec<SimdTier>) = [
        SimdTier::Scalar,
        SimdTier::Avx2,
        SimdTier::Avx512,
        SimdTier::Neon,
    ]
    .into_iter()
    .partition(|&tier| {
        force_tier(Some(tier));
        active_tier() == tier
    });
    let mut products = 0;
    let mut rng = StdRng::seed_from_u64(0x7135);
    for &rows in &[1usize, 7, 8, 9, 15, 16, 17, 64, 67] {
        for &out in &[16usize, 17, 24, 200, 784] {
            // 410 inputs satisfy the block path's fan-in ≥ 2 × 200
            // rule; the 784-wide products keep a short fan-in, as in the
            // visible direction.
            let fan_in = match out {
                200 => 410,
                784 => 72,
                _ => 130,
            };
            for pattern in PATTERNS {
                let states = batch(rows, fan_in, pattern, &mut rng);
                let bits = BitMatrix::from_batch(&states).expect("binary batch");
                let bias = Array1::from_shape_fn(out, |_| rng.random_range(-1.0..1.0));
                let finite = weights(fan_in, out, &finite_specials, &mut rng);
                let finite_ref = scalar_ref_gemm(&states, &finite, Some(&bias.view()));
                let finite_ref_bits: Vec<u64> = finite_ref.iter().map(|x| x.to_bits()).collect();
                let wild = weights(fan_in, out, &non_finite, &mut rng);
                let wild_ref = canonical_bits(&selected_row_sum(&states, &wild, &bias));
                for &tier in &tiers {
                    force_tier(Some(tier));
                    let at = format!("{} {rows}x{fan_in}->{out} {pattern}", tier.name());
                    let fast = binary_gemm(&bits, &finite, Some(&bias.view()));
                    let fast_bits: Vec<u64> = fast.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(
                        fast_bits, finite_ref_bits,
                        "{at} (signed zeros, subnormals)"
                    );
                    let fast = binary_gemm(&bits, &wild, Some(&bias.view()));
                    assert_eq!(canonical_bits(&fast), wild_ref, "{at} (±inf, NaN)");
                    products += 2;
                }
            }
        }
    }
    force_tier(None);
    let names = |tiers: &[SimdTier]| -> String {
        if tiers.is_empty() {
            "none".to_string()
        } else {
            tiers
                .iter()
                .map(|t| t.name())
                .collect::<Vec<_>>()
                .join(", ")
        }
    };
    println!("kernel tiers run: {} ({products} products)", names(&tiers));
    println!("kernel tiers this host lacks: {}", names(&missing));
}
