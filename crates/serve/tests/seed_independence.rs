//! Seed independence of the serving path: rows `j` and `j + 1` of one
//! request draw from consecutive `RngStreams` seeds, and their joint
//! visible codes must follow the product of the exact single-chain
//! distributions. On an RBM small enough to enumerate, the `k`-step
//! chain distribution is exact, so one chi-square test checks both that
//! each served row has the right marginal and that neighbouring streams
//! are independent.

use ember_core::{GsConfig, SubstrateSpec};
use ember_rbm::Rbm;
use ember_serve::batch;
use ember_serve::SampleRequest;
use ndarray::{arr1, arr2, Array1};
use rand::rngs::StdRng;
use rand::SeedableRng;

const VISIBLE: usize = 3;
const HIDDEN: usize = 2;

/// Binary state `code` of width `len`, bit `i` = unit `i`.
fn state(code: usize, len: usize) -> Array1<f64> {
    Array1::from_shape_fn(len, |i| f64::from((code >> i) as u8 & 1))
}

/// `P(x = code)` for independent units that are on with `probs`.
fn product_prob(probs: &Array1<f64>, code: usize) -> f64 {
    probs
        .iter()
        .enumerate()
        .map(|(i, &p)| if (code >> i) & 1 == 1 { p } else { 1.0 - p })
        .product()
}

/// The exact visible distribution after `steps` Gibbs steps from a
/// uniformly random visible state — the served chain of a seedless,
/// unclamped request.
fn chain_distribution(rbm: &Rbm, steps: usize) -> Vec<f64> {
    let codes = 1 << VISIBLE;
    // T[a][b] = Σ_h P(h | v = a) · P(v' = b | h)
    let transition: Vec<Vec<f64>> = (0..codes)
        .map(|a| {
            let ph = rbm.hidden_probs(&state(a, VISIBLE).view());
            (0..codes)
                .map(|b| {
                    (0..1 << HIDDEN)
                        .map(|h| {
                            let pv = rbm.visible_probs(&state(h, HIDDEN).view());
                            product_prob(&ph, h) * product_prob(&pv, b)
                        })
                        .sum()
                })
                .collect()
        })
        .collect();
    let mut dist = vec![1.0 / codes as f64; codes];
    for _ in 0..steps {
        dist = (0..codes)
            .map(|b| (0..codes).map(|a| dist[a] * transition[a][b]).sum())
            .collect();
    }
    dist
}

fn code_of(row: ndarray::ArrayView1<'_, f64>) -> usize {
    row.iter()
        .enumerate()
        .map(|(i, &x)| usize::from(x == 1.0) << i)
        .sum()
}

#[test]
fn consecutive_served_streams_are_independent() {
    let rbm = Rbm::from_parts(
        arr2(&[[1.1, -0.7], [-0.4, 0.9], [0.6, 0.5]]),
        arr1(&[-0.3, 0.2, 0.1]),
        arr1(&[0.4, -0.5]),
    )
    .expect("consistent shapes");
    let steps = 2;
    let pairs = 20_000;
    let mut substrate = SubstrateSpec::software(GsConfig::default())
        .fabricate_for(&rbm, &mut StdRng::seed_from_u64(1));
    let request = SampleRequest::new("tiny")
        .with_samples(2 * pairs)
        .with_gibbs_steps(steps);
    let rows = batch::expand_request(&request, 0x5EED_1DE5);
    let served = batch::sample_rows(substrate.as_mut(), &rows, steps);

    // Disjoint pairs (2i, 2i + 1): each pair is one multinomial draw
    // over the 64 joint codes.
    let dist = chain_distribution(&rbm, steps);
    let codes = dist.len();
    let mut counts = vec![0usize; codes * codes];
    for i in 0..pairs {
        let (a, b) = (code_of(served.row(2 * i)), code_of(served.row(2 * i + 1)));
        counts[a * codes + b] += 1;
    }
    let mut chi2 = 0.0;
    for a in 0..codes {
        for b in 0..codes {
            let expected = pairs as f64 * dist[a] * dist[b];
            assert!(expected >= 5.0, "cell ({a}, {b}) expects only {expected}");
            let diff = counts[a * codes + b] as f64 - expected;
            chi2 += diff * diff / expected;
        }
    }
    // 63 degrees of freedom; the 0.999 quantile is 103.4.
    assert!(
        chi2 < 103.4,
        "joint codes of neighbouring rows: chi-square {chi2:.1}"
    );
}
