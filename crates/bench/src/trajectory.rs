//! The per-PR performance-trajectory suite shared by the `bench_pr<N>`
//! binaries: fixed-seed workloads at the paper's layer sizes whose
//! throughput every future PR is held to (the `bench_gate` binary
//! compares two trajectory files and fails on regression).
//!
//! **Timing semantics:** all rows measure *process CPU time* (user +
//! system, summed over every thread — see [`time`]), not wall-clock.
//! CPU time is what makes the trajectory comparable on the shared,
//! background-loaded runners these files are produced on. The
//! consequence: throughput is work per CPU-second, so a suite that
//! parallelizes across threads (e.g. `gibbs-chain`'s
//! `parallel-streams` mode) is credited for its *total work*, not its
//! latency — on a multi-core host its "speedup" over the serial mode
//! reflects per-thread efficiency, not the wall-clock win. The
//! algorithmic gates (batched GEMM vs scalar, bipartite vs dense
//! kernel) are unaffected.
//!
//! **Committed artifacts:** shared runners oscillate their effective
//! clock by double digits over minutes (a same-binary self-gate fails
//! at 10% on the reference box), which no within-process estimator can
//! reject. [`time`] therefore takes the best of three windows *within*
//! a process (interference only ever adds time to a deterministic
//! workload), and the committed `BENCH_PR<N>.json` points are per-row
//! **medians across several process runs** — both files produced with
//! the same estimator, so the gate compares like with like. A few
//! percent of irreducible between-binary variance remains (final-link
//! code layout shifts hot-kernel alignment), which is part of what the
//! gate's drift tolerance absorbs.

use std::time::{Duration, Instant};

use ember_brim::{BipartiteBrim, BrimConfig, FlipSchedule};
use ember_core::kernels::{binary_gemm, BitMatrix};
use ember_core::substrate::{BrimSubstrate, SoftwareGibbs, Substrate};
use ember_core::{GibbsSampler, GsConfig, GsEngine, GsKernel, SubstrateSpec};
use ember_ising::{BipartiteProblem, RngStreams};
use ember_rbm::{gibbs, CdTrainer, Rbm};
use ember_serve::{Priority, SampleRequest, SamplingService};
use ndarray::{Array1, Array2};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{header, RunConfig};

/// The paper's layer sizes exercised by the suite.
pub const SIZES: [(usize, usize); 3] = [(784, 200), (784, 500), (108, 1024)];

/// One measured trajectory row; `(name, visible, hidden, mode)` is the
/// identity the regression gate matches on.
pub struct BenchRow {
    /// Suite name (e.g. `gibbs-cd1`).
    pub name: String,
    /// Visible-layer size.
    pub visible: usize,
    /// Hidden-layer size.
    pub hidden: usize,
    /// Variant within the suite (e.g. `batched` vs `serial-baseline`).
    pub mode: &'static str,
    /// Mean per-call process-CPU time of the measured unit in
    /// milliseconds (see [`time`]; the JSON key stays `wall_ms` for
    /// schema compatibility with the PR 1 trajectory point).
    pub wall_ms: f64,
    /// Work units per CPU-second (higher is better; the gated quantity).
    pub throughput: f64,
    /// Unit of `throughput`.
    pub unit: &'static str,
}

impl BenchRow {
    /// One JSON object, schema shared by every `BENCH_PR<N>.json`.
    pub fn json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"visible\":{},\"hidden\":{},\"mode\":\"{}\",\"wall_ms\":{:.3},\"throughput\":{:.3},\"unit\":\"{}\"}}",
            self.name, self.visible, self.hidden, self.mode, self.wall_ms, self.throughput,
            self.unit
        )
    }
}

/// Cumulative CPU time (user + system, all threads) of this process in
/// milliseconds, read from `/proc/self/stat`. Unlike wall-clock time,
/// CPU time is immune to preemption by unrelated load on the host —
/// essential on the shared single-core runners this trajectory is
/// measured on. Returns `None` off Linux.
fn process_cpu_time_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesized comm (which may itself contain
    // spaces): state ppid pgrp session tty_nr tpgid flags minflt
    // cminflt majflt cmajflt utime stime …
    let rest = stat.rsplit(')').next()?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    // USER_HZ is 100 on every Linux configuration that matters.
    Some((utime + stime) * 10.0)
}

/// Per-call time of a deterministic workload, in milliseconds: the
/// **best of three measurement windows**.
///
/// Each window makes repeated calls until **at least `reps` calls and
/// ≥ 150 ms of accumulated CPU time** have been spent, yielding
/// `total / calls`; the minimum window mean is returned. Accumulating
/// CPU time (a) is robust to background load stealing the core
/// mid-measurement, and (b) amortizes the 10 ms `/proc` tick far below
/// 1%; taking the best window additionally rejects the slow-side drift
/// (thermal throttling, noisy neighbors ramping up) that a single mean
/// cannot — interference only ever *adds* time to a deterministic
/// workload. Falls back to the same procedure over wall-clock time when
/// `/proc` is unavailable. One warm-up call precedes the first window.
pub fn time<F: FnMut()>(mut f: F, reps: usize) -> f64 {
    const WINDOWS: usize = 3;
    const MIN_WINDOW_MS: f64 = 150.0;
    const MAX_CALLS: usize = 20_000;
    f();
    let mut best = f64::INFINITY;
    for _ in 0..WINDOWS {
        let wall_start = Instant::now();
        let cpu_start = process_cpu_time_ms();
        let mut calls = 0usize;
        let mean = loop {
            f();
            calls += 1;
            let elapsed = match cpu_start {
                Some(start) => process_cpu_time_ms().expect("cpu clock vanished") - start,
                None => wall_start.elapsed().as_secs_f64() * 1000.0,
            };
            if (calls >= reps && elapsed >= MIN_WINDOW_MS) || calls >= MAX_CALLS {
                break elapsed / calls as f64;
            }
        };
        best = best.min(mean);
    }
    best
}

/// A deterministic sparse binary batch.
pub fn random_batch(rows: usize, cols: usize, rng: &mut impl Rng) -> Array2<f64> {
    random_batch_density(rows, cols, 0.35, rng)
}

/// Binary batch with an explicit on-density. The packed kernel's work
/// scales with the number of set bits, so suites that probe it time
/// both the suite-standard p=0.35 batch and an MNIST-like p=0.15 one.
pub fn random_batch_density(
    rows: usize,
    cols: usize,
    density: f64,
    rng: &mut impl Rng,
) -> Array2<f64> {
    Array2::from_shape_fn((rows, cols), |_| {
        if rng.random_bool(density) {
            1.0
        } else {
            0.0
        }
    })
}

/// GS accelerator CD-1 epoch (batch 64): batched GEMM vs serial reference.
pub fn bench_gibbs_cd1(
    config: &RunConfig,
    rows: &mut Vec<BenchRow>,
    speedups: &mut Vec<(String, f64)>,
) {
    header("GS accelerator CD-1 epoch (batch 64): batched GEMM vs serial reference");
    let batch = 64;
    let reps = config.pick(4, 5);
    for &(m, n) in &SIZES {
        let mut rng = config.rng();
        let rbm = Rbm::random(m, n, 0.01, &mut rng);
        let data = random_batch(batch, m, &mut rng);
        let mut results = [0.0f64; 2];
        for (slot, engine, mode) in [
            (0, GsEngine::SerialReference, "serial-baseline"),
            (1, GsEngine::Batched, "batched"),
        ] {
            let gs_config = GsConfig::default().with_k(1).with_engine(engine);
            let mut gs = GibbsSampler::new(rbm.clone(), gs_config, &mut rng);
            let mut epoch_rng = config.rng();
            let wall_ms = time(
                || {
                    gs.train_epoch(&data, batch, &mut epoch_rng);
                },
                reps,
            );
            let throughput = batch as f64 / (wall_ms / 1000.0);
            results[slot] = throughput;
            println!("  {m}x{n} {mode:<16} {wall_ms:>10.2} ms/epoch  {throughput:>12.1} samples/s");
            rows.push(BenchRow {
                name: "gibbs-cd1".into(),
                visible: m,
                hidden: n,
                mode,
                wall_ms,
                throughput,
                unit: "samples/sec",
            });
        }
        let speedup = results[1] / results[0];
        println!("  {m}x{n} speedup {speedup:.2}x");
        speedups.push((format!("gibbs-cd1-{m}x{n}"), speedup));
    }
}

/// Software batched Gibbs chains: parallel streams vs single generator.
pub fn bench_gibbs_chain(
    config: &RunConfig,
    rows: &mut Vec<BenchRow>,
    speedups: &mut Vec<(String, f64)>,
) {
    header("Software batched Gibbs chain (k=1, batch 64): parallel streams vs serial");
    let batch = 64;
    let reps = config.pick(12, 12);
    for &(m, n) in &SIZES {
        let mut rng = config.rng();
        let rbm = Rbm::random(m, n, 0.01, &mut rng);
        let v0 = random_batch(batch, m, &mut rng);
        let mut results = [0.0f64; 2];

        let mut serial_rng = config.rng();
        let wall_serial = time(
            || {
                let _ = gibbs::chain_batch(&rbm, &v0, 1, &mut serial_rng);
            },
            reps,
        );
        results[0] = batch as f64 / (wall_serial / 1000.0);
        rows.push(BenchRow {
            name: "gibbs-chain".into(),
            visible: m,
            hidden: n,
            mode: "serial-baseline",
            wall_ms: wall_serial,
            throughput: results[0],
            unit: "samples/sec",
        });

        let streams = RngStreams::new(config.seed);
        let wall_par = time(
            || {
                let _ = gibbs::chain_batch_par(&rbm, &v0, 1, streams);
            },
            reps,
        );
        results[1] = batch as f64 / (wall_par / 1000.0);
        rows.push(BenchRow {
            name: "gibbs-chain".into(),
            visible: m,
            hidden: n,
            mode: "parallel-streams",
            wall_ms: wall_par,
            throughput: results[1],
            unit: "samples/sec",
        });

        let speedup = results[1] / results[0];
        println!(
            "  {m}x{n} serial {wall_serial:>9.2} ms  parallel {wall_par:>9.2} ms  speedup {speedup:.2}x"
        );
        speedups.push((format!("gibbs-chain-{m}x{n}"), speedup));
    }
}

/// Bipartite BRIM anneal sweeps: `O(m·n)` kernel vs dense reference.
pub fn bench_brim_anneal(
    config: &RunConfig,
    rows: &mut Vec<BenchRow>,
    speedups: &mut Vec<(String, f64)>,
) {
    header("Bipartite BRIM anneal: O(m*n) two-GEMV kernel vs dense (m+n)^2 reference");
    let sweeps = config.pick(120, 200);
    for &(m, n) in &SIZES {
        let mut rng = config.rng();
        let w = Array2::from_shape_fn((m, n), |_| rng.random_range(-0.1..0.1));
        let problem =
            BipartiteProblem::new(w, ndarray::Array1::zeros(m), ndarray::Array1::zeros(n))
                .expect("consistent dims");
        let schedule = FlipSchedule::geometric(0.05, 1e-3, sweeps);
        let mut results = [0.0f64; 2];
        let reps = config.pick(5, 7);
        for (slot, dense, mode) in [(0, true, "dense-baseline"), (1, false, "bipartite")] {
            let mut brim =
                BipartiteBrim::new(problem.clone(), BrimConfig::default()).with_dense_kernel(dense);
            let mut anneal_rng = config.rng();
            let wall_ms = time(|| brim.anneal(&schedule, &mut anneal_rng), reps);
            let throughput = sweeps as f64 / (wall_ms / 1000.0);
            results[slot] = throughput;
            println!(
                "  {m}x{n} {mode:<16} {wall_ms:>10.2} ms/{sweeps} sweeps  {throughput:>12.1} sweeps/s"
            );
            rows.push(BenchRow {
                name: "brim-anneal".into(),
                visible: m,
                hidden: n,
                mode,
                wall_ms,
                throughput,
                unit: "sweeps/sec",
            });
        }
        let speedup = results[1] / results[0];
        println!("  {m}x{n} speedup {speedup:.2}x");
        speedups.push((format!("brim-anneal-{m}x{n}"), speedup));
    }
}

/// Bipartite BRIM clamped settles: clamp-aware kernel vs dense reference.
pub fn bench_brim_settle(
    config: &RunConfig,
    rows: &mut Vec<BenchRow>,
    speedups: &mut Vec<(String, f64)>,
) {
    header("Bipartite BRIM clamped settle (the §3.2 sampling op): clamp-aware kernel vs dense");
    let sweeps = config.pick(240, 400);
    let reps = config.pick(7, 7);
    for &(m, n) in &SIZES {
        let mut rng = config.rng();
        let w = Array2::from_shape_fn((m, n), |_| rng.random_range(-0.1..0.1));
        let problem =
            BipartiteProblem::new(w, ndarray::Array1::zeros(m), ndarray::Array1::zeros(n))
                .expect("consistent dims");
        let levels: Vec<f64> = (0..m).map(|i| f64::from(i % 2 == 0)).collect();
        let mut results = [0.0f64; 2];
        for (slot, dense, mode) in [(0, true, "dense-baseline"), (1, false, "bipartite")] {
            let mut brim =
                BipartiteBrim::new(problem.clone(), BrimConfig::default()).with_dense_kernel(dense);
            brim.clamp_visible(&levels);
            let wall_ms = time(|| brim.settle(sweeps), reps);
            let throughput = sweeps as f64 / (wall_ms / 1000.0);
            results[slot] = throughput;
            println!(
                "  {m}x{n} {mode:<16} {wall_ms:>10.2} ms/{sweeps} sweeps  {throughput:>12.1} sweeps/s"
            );
            rows.push(BenchRow {
                name: "brim-settle".into(),
                visible: m,
                hidden: n,
                mode,
                wall_ms,
                throughput,
                unit: "sweeps/sec",
            });
        }
        let speedup = results[1] / results[0];
        println!("  {m}x{n} speedup {speedup:.2}x");
        speedups.push((format!("brim-settle-{m}x{n}"), speedup));
    }
}

/// The PR 2 substrate dimension: one CD-1 minibatch trained through
/// `CdTrainer::train_epoch_with` over interchangeable backends — software
/// Gibbs at full batch size, BRIM-in-the-loop at a reduced batch (each
/// BRIM conditional sample costs `anneal_steps` integration sweeps, the
/// honest price of physics-in-the-loop).
pub fn bench_substrate_cd1(
    config: &RunConfig,
    rows: &mut Vec<BenchRow>,
    speedups: &mut Vec<(String, f64)>,
) {
    header("Substrate-in-the-loop CD-1 (train_epoch_with): software Gibbs vs BRIM");
    let trainer = CdTrainer::new(1, 0.05);
    let brim_steps = config.pick(30, 120);
    for &(m, n) in &SIZES {
        let mut rng = config.rng();
        let rbm = Rbm::random(m, n, 0.01, &mut rng);
        let mut results = [0.0f64; 2];

        // Software Gibbs substrate, full batch.
        let soft_batch = 64;
        let soft_data = random_batch(soft_batch, m, &mut rng);
        let mut soft = SoftwareGibbs::new(m, n, &GsConfig::default(), &mut rng);
        let mut soft_rbm = rbm.clone();
        let mut soft_rng = config.rng();
        let wall_soft = time(
            || {
                trainer.train_epoch_with(
                    &mut soft_rbm,
                    &soft_data,
                    soft_batch,
                    &mut soft,
                    &mut soft_rng,
                );
            },
            config.pick(1, 3),
        );
        results[0] = soft_batch as f64 / (wall_soft / 1000.0);
        println!(
            "  {m}x{n} {:<16} {wall_soft:>10.2} ms/epoch  {:>12.1} samples/s",
            "software-gibbs", results[0]
        );
        rows.push(BenchRow {
            name: "substrate-cd1".into(),
            visible: m,
            hidden: n,
            mode: "software-gibbs",
            wall_ms: wall_soft,
            throughput: results[0],
            unit: "samples/sec",
        });

        // BRIM substrate: every conditional sample is a clamp + anneal +
        // read cycle on the machine.
        let brim_batch = config.pick(8, 16);
        let brim_data = random_batch(brim_batch, m, &mut rng);
        let mut brim =
            BrimSubstrate::for_rbm(&rbm, BrimConfig::default()).with_thermal_bath(0.01, brim_steps);
        let mut brim_rbm = rbm.clone();
        let mut brim_rng = config.rng();
        let wall_brim = time(
            || {
                trainer.train_epoch_with(
                    &mut brim_rbm,
                    &brim_data,
                    brim_batch,
                    &mut brim,
                    &mut brim_rng,
                );
            },
            1,
        );
        results[1] = brim_batch as f64 / (wall_brim / 1000.0);
        println!(
            "  {m}x{n} {:<16} {wall_brim:>10.2} ms/epoch  {:>12.1} samples/s",
            "brim", results[1]
        );
        rows.push(BenchRow {
            name: "substrate-cd1".into(),
            visible: m,
            hidden: n,
            mode: "brim",
            wall_ms: wall_brim,
            throughput: results[1],
            unit: "samples/sec",
        });

        // The interesting ratio: what the simulated physics costs relative
        // to arithmetic sampling (on real hardware each phase point is
        // ~12 ps — the perf model in ember-perf prices that in).
        let ratio = results[0] / results[1];
        println!("  {m}x{n} software/brim throughput ratio {ratio:.1}x (simulation cost)");
        speedups.push((format!("substrate-cd1-{m}x{n}-sim-cost"), ratio));
    }
}

/// The PR 4 kernel dimension: the CD-1 sampling chain (one positive
/// half-step plus one full Gibbs step — the §3.2 conditional-sampling
/// unit, batch 64) on the software substrate, bit-packed binary-state
/// kernel vs the dense-GEMM baseline **in the same binary**. Both
/// kernels produce bit-identical samples (pinned by the conformance
/// suite); this suite measures what the packing buys: no multiplies,
/// zero states skipped 64 at a time, and the reverse half-step running
/// over a cached contiguous transpose instead of per-output dot
/// products.
///
/// Since PR 7 the suite also times the **field product alone** (the
/// `…-field` rows: pack + `binary_gemm` vs the dense SIMD `ikj` GEMM on
/// the same batch), and the `packed-kernel-*` speedup entries report
/// that kernel-level ratio. The full-chain rows are kept for trajectory
/// continuity, but their ratio is floored by the latch stage (sigmoid +
/// RNG per output element), which is identical under both kernels by
/// bit-identity design and dominates once the products get fast — the
/// chain ratio measures Amdahl's law, not the kernel.
pub fn bench_packed_kernel(
    config: &RunConfig,
    rows: &mut Vec<BenchRow>,
    speedups: &mut Vec<(String, f64)>,
) {
    header("Bit-packed binary-state kernel (CD-1 sampling chain, batch 64): packed vs dense GEMM");
    const KERNEL_SIZES: [(usize, usize); 2] = [(784, 200), (108, 1024)];
    let batch = 64;
    // High rep floor: one chain is only a few ms, so the 150 ms window
    // alone quantizes the per-call mean in ~3% steps — demanding ≥40
    // calls per window keeps the estimator resolution ~1%.
    let reps = config.pick(40, 48);
    for &(m, n) in &KERNEL_SIZES {
        let mut rng = config.rng();
        let rbm = Rbm::random(m, n, 0.01, &mut rng);
        let v0 = random_batch(batch, m, &mut rng);
        let mut results = [0.0f64; 2];
        for (slot, kernel, mode) in [
            (0, GsKernel::Dense, "dense-gemm"),
            (1, GsKernel::Packed, "bit-packed"),
        ] {
            let gs_config = GsConfig::default().with_kernel(kernel);
            let mut fab_rng = config.rng();
            let mut sub = SoftwareGibbs::new(m, n, &gs_config, &mut fab_rng);
            sub.program(
                &rbm.weights().view(),
                &rbm.visible_bias().view(),
                &rbm.hidden_bias().view(),
            );
            let mut chain_rng = config.rng();
            let wall_ms = time(
                || {
                    // One CD-1 sampling unit: h⁺ | v, then v⁻ | h⁺ and
                    // h⁻ | v⁻ (all binary operands, the packed kernel's
                    // home turf and exactly what training offloads).
                    let h_pos = sub.sample_hidden_batch(&v0, &mut chain_rng);
                    let v_neg = sub.sample_visible_batch(&h_pos, &mut chain_rng);
                    let _ = sub.sample_hidden_batch(&v_neg, &mut chain_rng);
                },
                reps,
            );
            let throughput = batch as f64 / (wall_ms / 1000.0);
            results[slot] = throughput;
            println!("  {m}x{n} {mode:<16} {wall_ms:>10.2} ms/chain  {throughput:>12.1} samples/s");
            rows.push(BenchRow {
                name: "packed-kernel".into(),
                visible: m,
                hidden: n,
                mode,
                wall_ms,
                throughput,
                unit: "samples/sec",
            });
        }
        let chain_speedup = results[1] / results[0];
        println!("  {m}x{n} packed chain speedup {chain_speedup:.2}x (latch-floored)");

        // The kernel itself, latch excluded: one forward field product
        // over the batch. The packed side pays for packing every call —
        // that cost is part of what a sampler switching kernels pays.
        // The dense GEMM streams the whole weight matrix per batch row
        // regardless of the input bits, so it is L2-bandwidth-bound and
        // density-independent; the packed kernel only touches selected
        // rows, so its advantage scales with sparsity. Both the
        // suite-standard p=0.35 batch and an MNIST-like p=0.15 batch
        // are timed (`…-sparse` rows / the `packed-kernel-sparse-*`
        // speedup).
        let weights = rbm.weights();
        let v_sparse = random_batch_density(batch, m, 0.15, &mut rng);
        for (input, label, key) in [
            (&v0, "", format!("packed-kernel-{m}x{n}")),
            (
                &v_sparse,
                "-sparse",
                format!("packed-kernel-sparse-{m}x{n}"),
            ),
        ] {
            let mut field_results = [0.0f64; 2];
            for slot in [0usize, 1] {
                let mode: &'static str = match (slot, label) {
                    (0, "") => "dense-field",
                    (1, "") => "packed-field",
                    (0, _) => "dense-field-sparse",
                    _ => "packed-field-sparse",
                };
                let wall_ms = time(
                    || {
                        if slot == 0 {
                            let f = input.dot(weights);
                            assert_eq!(f.dim(), (batch, n));
                        } else {
                            let bits = BitMatrix::from_batch(input).expect("binary batch");
                            let f = binary_gemm(&bits, weights, None);
                            assert_eq!(f.dim(), (batch, n));
                        }
                    },
                    reps,
                );
                let throughput = batch as f64 / (wall_ms / 1000.0);
                field_results[slot] = throughput;
                println!(
                    "  {m}x{n} {mode:<20} {wall_ms:>10.2} ms/batch  {throughput:>12.1} fields/s"
                );
                rows.push(BenchRow {
                    name: "packed-kernel".into(),
                    visible: m,
                    hidden: n,
                    mode,
                    wall_ms,
                    throughput,
                    unit: "fields/sec",
                });
            }
            let speedup = field_results[1] / field_results[0];
            println!("  {m}x{n} packed kernel{label} speedup {speedup:.2}x");
            speedups.push((key, speedup));
        }
        speedups.push((format!("packed-chain-{m}x{n}"), chain_speedup));
    }
}

/// The PR 7 kernel-tier dimension: the same sampling work on the
/// runtime-dispatched SIMD tier vs the pinned scalar reference tier
/// (`ember_core::kernels::force_tier`), **in the same binary** — both
/// tiers produce bit-identical samples (pinned by the tier proptests),
/// so this suite measures exactly what the vector units buy. Two
/// workloads per size:
///
/// * `…-batch64`: the batch-64 CD-1 sampling chain on the software
///   substrate (packed kernel; the selected-row adds vectorize).
/// * `…-chain`: a **single serial Gibbs chain** through the row entry
///   points (`sample_hidden_row` / `sample_visible_row`) — the
///   latency-bound workload that batching cannot help and the serial
///   field kernel finally does. Three modes: `reference-chain` is the
///   pre-kernel-tier serial path (dense kernel, scalar tier — the
///   per-output scalar reference evaluation every serial chain ran
///   before this tier existed), `scalar-chain` is the selected-row
///   path pinned to the scalar tier, and `simd-chain` is the dispatched
///   tier. The `simd-chain-*` speedup is simd-vs-reference — the full
///   win the serial kernel delivers; the simd-vs-scalar tier ratio is
///   printed alongside (it is Amdahl-floored by the tier-independent
///   latch stage, sigmoid + RNG per output).
///
/// On a scalar-only host both tiers dispatch the same loops, the batch
/// speedup degenerates to ~1.0× and `simd-chain-*` to the (still real)
/// algorithmic selected-row-vs-reference win — the gate direction is
/// "the new paths must not be slower", which still holds.
pub fn bench_simd_kernel(
    config: &RunConfig,
    rows: &mut Vec<BenchRow>,
    speedups: &mut Vec<(String, f64)>,
) {
    use ember_core::kernels::{active_tier, force_tier, SimdTier};

    header("SIMD kernel tier (batch-64 CD-1 + single serial chain): dispatched vs forced scalar");
    println!("  detected tier: {}", active_tier().name());
    const KERNEL_SIZES: [(usize, usize); 2] = [(784, 200), (108, 1024)];
    let batch = 64;
    let batch_reps = config.pick(40, 48);
    // The serial chain is sub-millisecond: lean on the 150 ms window
    // floor with a high call floor for ~1% estimator resolution.
    let chain_reps = config.pick(200, 300);
    for &(m, n) in &KERNEL_SIZES {
        let mut rng = config.rng();
        let rbm = Rbm::random(m, n, 0.01, &mut rng);
        let v0 = random_batch(batch, m, &mut rng);
        let v_row = v0.row(0).to_owned();
        let mut fab_rng = config.rng();
        let mut sub = SoftwareGibbs::new(m, n, &GsConfig::default(), &mut fab_rng);
        sub.program(
            &rbm.weights().view(),
            &rbm.visible_bias().view(),
            &rbm.hidden_bias().view(),
        );

        // Batch-64 CD-1 sampling chain, forced-scalar vs dispatched.
        let mut batch_results = [0.0f64; 2];
        for (slot, tier, mode) in [
            (0, Some(SimdTier::Scalar), "scalar-batch64"),
            (1, None, "simd-batch64"),
        ] {
            force_tier(tier);
            let mut chain_rng = config.rng();
            let wall_ms = time(
                || {
                    let h_pos = sub.sample_hidden_batch(&v0, &mut chain_rng);
                    let v_neg = sub.sample_visible_batch(&h_pos, &mut chain_rng);
                    let _ = sub.sample_hidden_batch(&v_neg, &mut chain_rng);
                },
                batch_reps,
            );
            let throughput = batch as f64 / (wall_ms / 1000.0);
            batch_results[slot] = throughput;
            println!("  {m}x{n} {mode:<16} {wall_ms:>10.2} ms/chain  {throughput:>12.1} samples/s");
            rows.push(BenchRow {
                name: "simd-kernel".into(),
                visible: m,
                hidden: n,
                mode,
                wall_ms,
                throughput,
                unit: "samples/sec",
            });
        }
        let batch_speedup = batch_results[1] / batch_results[0];
        println!("  {m}x{n} batch-64 SIMD speedup {batch_speedup:.2}x");
        speedups.push((format!("simd-kernel-{m}x{n}"), batch_speedup));

        // Single serial Gibbs step through the row entry points. The
        // reference mode runs the dense-kernel substrate with the tier
        // pinned scalar: that is the exact serial path every chain took
        // before the kernel tier landed.
        let mut fab_rng2 = config.rng();
        let mut sub_ref = SoftwareGibbs::new(
            m,
            n,
            &GsConfig::default().with_kernel(GsKernel::Dense),
            &mut fab_rng2,
        );
        sub_ref.program(
            &rbm.weights().view(),
            &rbm.visible_bias().view(),
            &rbm.hidden_bias().view(),
        );
        let mut chain_results = [0.0f64; 3];
        for (slot, tier, mode) in [
            (0, Some(SimdTier::Scalar), "reference-chain"),
            (1, Some(SimdTier::Scalar), "scalar-chain"),
            (2, None, "simd-chain"),
        ] {
            force_tier(tier);
            let target = if slot == 0 { &mut sub_ref } else { &mut sub };
            let mut chain_rng = config.rng();
            let wall_ms = time(
                || {
                    let h = target.sample_hidden_row(&v_row.view(), &mut chain_rng);
                    let _ = target.sample_visible_row(&h.view(), &mut chain_rng);
                },
                chain_reps,
            );
            let throughput = 1.0 / (wall_ms / 1000.0);
            chain_results[slot] = throughput;
            println!("  {m}x{n} {mode:<16} {wall_ms:>10.3} ms/step   {throughput:>12.1} steps/s");
            rows.push(BenchRow {
                name: "simd-kernel".into(),
                visible: m,
                hidden: n,
                mode,
                wall_ms,
                throughput,
                unit: "gibbs-steps/sec",
            });
        }
        force_tier(None);
        let chain_speedup = chain_results[2] / chain_results[0];
        let tier_ratio = chain_results[2] / chain_results[1];
        println!(
            "  {m}x{n} serial-chain speedup {chain_speedup:.2}x vs reference \
             ({tier_ratio:.2}x tier-only, latch-floored)"
        );
        speedups.push((format!("simd-chain-{m}x{n}"), chain_speedup));
    }
}

/// The PR 3 serving dimension: a wave of 64 concurrent single-row
/// sample requests (batch-64 class load) pushed through the
/// `SamplingService` at 1/2/4 worker shards, with request coalescing on
/// vs off (request-at-a-time). Coalescing amortizes substrate
/// programming and turns 64 row kernels into whole-batch GEMM calls —
/// the serving-side replay of the paper's per-minibatch economics.
///
/// Like every suite here, throughput is per CPU-second: multi-shard rows
/// measure total work efficiency, not wall-clock latency.
pub fn bench_serve_throughput(
    config: &RunConfig,
    rows: &mut Vec<BenchRow>,
    speedups: &mut Vec<(String, f64)>,
) {
    header("Sampling service (64 concurrent single-row requests): coalesced vs request-at-a-time");
    const SERVE_SIZES: [(usize, usize); 2] = [(784, 200), (108, 1024)];
    fn mode_name(shards: usize, coalesced: bool) -> &'static str {
        match (shards, coalesced) {
            (1, false) => "request-at-a-time-1shard",
            (2, false) => "request-at-a-time-2shard",
            (4, false) => "request-at-a-time-4shard",
            (1, true) => "coalesced-1shard",
            (2, true) => "coalesced-2shard",
            (4, true) => "coalesced-4shard",
            _ => unreachable!("benched shard counts are 1/2/4"),
        }
    }
    let wave = 64;
    let reps = config.pick(2, 3);
    for &(m, n) in &SERVE_SIZES {
        let mut rng = config.rng();
        let rbm = Rbm::random(m, n, 0.01, &mut rng);
        let proto = SubstrateSpec::software(GsConfig::default()).fabricate_for(&rbm, &mut rng);
        let clamp = Array1::from_shape_fn(m, |_| f64::from(rng.random_bool(0.35)));
        for shards in [1usize, 2, 4] {
            let mut results = [0.0f64; 2];
            for (slot, coalesced) in [(0, false), (1, true)] {
                let service = SamplingService::builder()
                    .shards(shards)
                    .coalescing(coalesced)
                    .max_coalesce_rows(wave)
                    .queue_rows(8 * wave)
                    .build();
                service
                    .register_model("m", rbm.clone(), proto.clone_boxed())
                    .expect("register bench model");
                let mut wave_index = 0u64;
                let wall_ms = time(
                    || {
                        let handles: Vec<_> = (0..wave as u64)
                            .map(|i| {
                                service
                                    .submit(
                                        SampleRequest::new("m")
                                            .with_gibbs_steps(1)
                                            .with_clamp(clamp.clone())
                                            .with_seed(wave_index * 1000 + i),
                                    )
                                    .expect("bench queue sized for a full wave")
                            })
                            .collect();
                        wave_index += 1;
                        for handle in handles {
                            handle.wait().expect("bench request served");
                        }
                    },
                    reps,
                );
                let throughput = wave as f64 / (wall_ms / 1000.0);
                results[slot] = throughput;
                let mode = mode_name(shards, coalesced);
                println!(
                    "  {m}x{n} {mode:<26} {wall_ms:>10.2} ms/wave  {throughput:>12.1} requests/s"
                );
                rows.push(BenchRow {
                    name: "serve-throughput".into(),
                    visible: m,
                    hidden: n,
                    mode,
                    wall_ms,
                    throughput,
                    unit: "requests/sec",
                });
            }
            let speedup = results[1] / results[0];
            println!("  {m}x{n} {shards}-shard coalescing speedup {speedup:.2}x");
            speedups.push((format!("serve-coalesce-{m}x{n}-{shards}shard"), speedup));
        }
    }
}

/// The PR 6 robustness dimension: the 64-request coalesced serving wave
/// (2 shards, 784×200, software backend) pushed through a
/// `ChaosSubstrate` wrapper at a **0% vs 1% injected fault rate**. The
/// 0% row prices the fallible seam itself (per-read sanity screens,
/// readback verification, the chaos wrapper's bookkeeping); the 1% row
/// adds the reprogram-and-retry recovery work. The `faulty-serve-…`
/// speedup entry is the 0%-rate / 1%-rate throughput ratio — the fault
/// storm's overhead factor (close to 1.0 is good).
///
/// Backoff sleeps between retries do not charge CPU time, so the rows
/// measure the *recovery compute*, consistent with the suite's
/// work-per-CPU-second semantics.
pub fn bench_faulty_serve(
    config: &RunConfig,
    rows: &mut Vec<BenchRow>,
    speedups: &mut Vec<(String, f64)>,
) {
    use ember_core::substrate::{ChaosConfig, ChaosSubstrate};
    use ember_core::RetryPolicy;
    use std::time::Duration;

    header("Fault-injected serving (64 concurrent requests, 2 shards): 0% vs 1% fault rate");
    let (m, n) = (784usize, 200usize);
    let wave = 64;
    let reps = config.pick(2, 3);
    let mut rng = config.rng();
    let rbm = Rbm::random(m, n, 0.01, &mut rng);
    let proto = SubstrateSpec::software(GsConfig::default()).fabricate_for(&rbm, &mut rng);
    let clamp = Array1::from_shape_fn(m, |_| f64::from(rng.random_bool(0.35)));
    let mut results = [0.0f64; 2];
    for (slot, rate, mode) in [(0usize, 0.0, "fault-0pct"), (1, 0.01, "fault-1pct")] {
        let chaotic = Box::new(ChaosSubstrate::new(
            proto.clone_boxed(),
            ChaosConfig::new(config.seed ^ 0xC4A0).with_fault_rate(rate),
        ));
        let service = SamplingService::builder()
            .shards(2)
            .max_coalesce_rows(wave)
            .queue_rows(8 * wave)
            .retry_policy(RetryPolicy::default().with_max_retries(8).with_backoff(
                Duration::from_micros(50),
                2.0,
                Duration::from_millis(1),
            ))
            .build();
        service
            .register_model("m", rbm.clone(), chaotic)
            .expect("register bench model");
        let mut wave_index = 0u64;
        let wall_ms = time(
            || {
                let handles: Vec<_> = (0..wave as u64)
                    .map(|i| {
                        service
                            .submit(
                                SampleRequest::new("m")
                                    .with_gibbs_steps(1)
                                    .with_clamp(clamp.clone())
                                    .with_seed(wave_index * 1000 + i),
                            )
                            .expect("bench queue sized for a full wave")
                    })
                    .collect();
                wave_index += 1;
                for handle in handles {
                    handle.wait().expect("bench request served despite faults");
                }
            },
            reps,
        );
        let throughput = wave as f64 / (wall_ms / 1000.0);
        results[slot] = throughput;
        println!("  {m}x{n} {mode:<26} {wall_ms:>10.2} ms/wave  {throughput:>12.1} requests/s");
        rows.push(BenchRow {
            name: "faulty-serve".into(),
            visible: m,
            hidden: n,
            mode,
            wall_ms,
            throughput,
            unit: "requests/sec",
        });
    }
    let overhead = results[0] / results[1];
    println!("  {m}x{n} 1%-fault overhead {overhead:.2}x (0%-rate ÷ 1%-rate throughput)");
    speedups.push((format!("faulty-serve-overhead-{m}x{n}"), overhead));
}

/// The PR 8 network-edge dimension: the 64-request coalesced serving
/// wave (2 shards, 784×200, software backend) pushed through the
/// loopback HTTP edge, once over the bit-packed binary wire
/// (`application/x-ember-bits`) and once over the JSON fallback. Rows
/// price the full loopback round trip — request parse, service call,
/// response encode, TCP — so the binary/JSON throughput ratio isolates
/// what the wire format buys at the edge, and the `http-wire-bytes-…`
/// entry records the measured body-size ratio (JSON bytes ÷ binary
/// bytes for the same single-row response; the issue's ≥ 50× bar).
pub fn bench_http_edge(
    config: &RunConfig,
    rows: &mut Vec<BenchRow>,
    speedups: &mut Vec<(String, f64)>,
) {
    use ember_http::{Client, SampleOptions, Server};

    header("HTTP edge (64 concurrent loopback requests, 2 shards): binary wire vs JSON");
    let (m, n) = (784usize, 200usize);
    let wave = 64;
    let reps = config.pick(2, 3);
    let mut rng = config.rng();
    let rbm = Rbm::random(m, n, 0.01, &mut rng);
    let proto = SubstrateSpec::software(GsConfig::default()).fabricate_for(&rbm, &mut rng);
    let clamp: Vec<f64> = (0..m).map(|_| f64::from(rng.random_bool(0.35))).collect();

    let service = SamplingService::builder()
        .shards(2)
        .max_coalesce_rows(wave)
        .queue_rows(8 * wave)
        .build();
    service
        .register_model("m", rbm, proto)
        .expect("register bench model");
    let server =
        Server::start_with_workers("127.0.0.1:0", service, wave).expect("bind loopback edge");
    let client = Client::new(server.addr());

    // The body-size ratio, measured once on actually-served bytes.
    let probe = SampleOptions::new()
        .gibbs_steps(1)
        .clamp(clamp.clone())
        .seed(0);
    let binary_bytes = client
        .sample_binary("m", &probe)
        .expect("probe request served")
        .body_bytes;
    let json_bytes = client
        .sample_json("m", &probe)
        .expect("probe request served")
        .body_bytes;
    let bytes_ratio = json_bytes as f64 / binary_bytes as f64;

    let mut results = [0.0f64; 2];
    for (slot, binary, mode) in [
        (0usize, true, "binary-wire-2shard"),
        (1, false, "json-wire-2shard"),
    ] {
        let mut wave_index = 0u64;
        let wall_ms = time(
            || {
                let handles: Vec<_> = (0..wave as u64)
                    .map(|i| {
                        let client = client.clone();
                        let options = SampleOptions::new()
                            .gibbs_steps(1)
                            .clamp(clamp.clone())
                            .seed(wave_index * 1000 + i);
                        std::thread::spawn(move || {
                            if binary {
                                client
                                    .sample_binary("m", &options)
                                    .expect("bench request served")
                                    .body_bytes
                            } else {
                                client
                                    .sample_json("m", &options)
                                    .expect("bench request served")
                                    .body_bytes
                            }
                        })
                    })
                    .collect();
                wave_index += 1;
                for handle in handles {
                    handle.join().expect("bench client thread");
                }
            },
            reps,
        );
        let throughput = wave as f64 / (wall_ms / 1000.0);
        results[slot] = throughput;
        println!("  {m}x{n} {mode:<26} {wall_ms:>10.2} ms/wave  {throughput:>12.1} requests/s");
        rows.push(BenchRow {
            name: "http-edge".into(),
            visible: m,
            hidden: n,
            mode,
            wall_ms,
            throughput,
            unit: "requests/sec",
        });
    }
    server.shutdown(Duration::from_secs(30));
    let edge_speedup = results[0] / results[1];
    println!("  {m}x{n} binary-wire edge speedup {edge_speedup:.2}x (binary ÷ JSON throughput)");
    println!(
        "  {m}x{n} wire size {json_bytes} B (json) / {binary_bytes} B (binary) = {bytes_ratio:.1}x"
    );
    speedups.push((format!("http-edge-binary-vs-json-{m}x{n}"), edge_speedup));
    speedups.push((format!("http-wire-bytes-{m}"), bytes_ratio));
}

/// The PR 9 durable-lifecycle dimension: a 4-model registry at the
/// paper's 784×200 layer size, each model carrying a 4-version chain
/// where successive versions perturb ~10% of the weights (the shape a
/// training loop's publishes actually have). Rows price the two halves
/// of the crash drill end to end against a real on-disk store
/// ([`DiskDir`](ember_store::DiskDir) under a scratch directory):
/// `snapshot` is [`SnapshotStore::save`](ember_store::SnapshotStore)
/// (delta-encode + checksum + atomic temp-file/fsync/rename, plus the
/// prune that keeps the directory bounded), `restore` is
/// [`restore_latest`](ember_store::SnapshotStore) (read + verify +
/// decode + rebuild every chain in a fresh registry). The
/// `store-delta-bytes-…` entry is deterministic: encoded bytes with
/// delta chains disabled ÷ the shipped format, i.e. what the XOR
/// delta frames buy on a sparse-update chain.
pub fn bench_store_lifecycle(
    config: &RunConfig,
    rows: &mut Vec<BenchRow>,
    speedups: &mut Vec<(String, f64)>,
) {
    use ember_serve::ModelRegistry;
    use ember_store::format::{encode_registry, encode_registry_uncompressed};
    use ember_store::{DiskDir, ModelChainImage, RegistryImage, SnapshotStore};

    header("Durable store (4 models, 4-version chains, 784x200): snapshot vs restore");
    let (m, n) = (784usize, 200usize);
    let (models, versions) = (4usize, 4usize);
    let reps = config.pick(2, 3);
    let mut rng = config.rng();

    // Version chains with training-shaped churn: each publish nudges
    // ~10% of the weights, so consecutive versions XOR to sparse,
    // low-magnitude deltas — the case the chain encoding is built for.
    let registry = ModelRegistry::new();
    for i in 0..models {
        let name = format!("model-{i}");
        let mut rbm = Rbm::random(m, n, 0.1, &mut rng);
        registry
            .register(&name, rbm.clone())
            .expect("register bench model");
        for _ in 1..versions {
            for w in rbm.weights_mut().iter_mut() {
                if rng.random_bool(0.10) {
                    *w += (rng.random::<f64>() - 0.5) * 1e-3;
                }
            }
            registry
                .publish(&name, rbm.clone())
                .expect("publish bench version");
        }
    }

    // The deterministic format win, measured on the exact image a save
    // would seal (no clock, no disk).
    let image = RegistryImage {
        sequence: 1,
        models: registry
            .export_chains()
            .into_iter()
            .map(|(name, chain)| ModelChainImage { name, chain })
            .collect(),
    };
    let delta_bytes = encode_registry(&image).expect("encode bench image").len();
    let full_bytes = encode_registry_uncompressed(&image)
        .expect("encode bench image")
        .len();
    let bytes_ratio = full_bytes as f64 / delta_bytes as f64;

    let scratch = std::env::temp_dir().join(format!("ember-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let store =
        SnapshotStore::new(DiskDir::open(&scratch).expect("open scratch store")).expect("store");

    let save_ms = time(
        || {
            store.save(&registry).expect("bench snapshot");
            store.prune(2).expect("bench prune");
        },
        reps,
    );
    let save_throughput = 1000.0 / save_ms;
    println!(
        "  {m}x{n} {:<26} {save_ms:>10.2} ms/save  {save_throughput:>12.1} snapshots/s",
        "snapshot"
    );
    rows.push(BenchRow {
        name: "store-lifecycle".into(),
        visible: m,
        hidden: n,
        mode: "snapshot",
        wall_ms: save_ms,
        throughput: save_throughput,
        unit: "snapshots/sec",
    });

    let restore_ms = time(
        || {
            let (restored, report) = store.restore_latest().expect("bench restore");
            assert!(report.skipped.is_empty(), "clean store restores cleanly");
            assert_eq!(restored.names().len(), models);
        },
        reps,
    );
    let restore_throughput = 1000.0 / restore_ms;
    println!(
        "  {m}x{n} {:<26} {restore_ms:>10.2} ms/restore  {restore_throughput:>10.1} restores/s",
        "restore"
    );
    rows.push(BenchRow {
        name: "store-lifecycle".into(),
        visible: m,
        hidden: n,
        mode: "restore",
        wall_ms: restore_ms,
        throughput: restore_throughput,
        unit: "restores/sec",
    });
    let _ = std::fs::remove_dir_all(&scratch);

    println!(
        "  {m}x{n} chain size {full_bytes} B (full frames) / {delta_bytes} B (delta) = {bytes_ratio:.1}x"
    );
    speedups.push((format!("store-delta-bytes-{m}x{n}"), bytes_ratio));
}

/// Seeded open-loop arrival schedule: `count` cumulative offsets with
/// exponential inter-arrival gaps of the given mean — a deterministic
/// Poisson process. Open-loop means the schedule never waits on the
/// service: arrivals keep coming at the offered rate whether or not the
/// server keeps up, which is what exposes queueing delay (a closed loop
/// self-throttles and hides it).
pub fn exponential_arrivals(seed: u64, mean: Duration, count: usize) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at = 0.0f64;
    (0..count)
        .map(|_| {
            let u: f64 = rng.random();
            at += -(1.0 - u).ln() * mean.as_secs_f64();
            Duration::from_secs_f64(at)
        })
        .collect()
}

fn sleep_until(target: Instant) {
    let now = Instant::now();
    if target > now {
        std::thread::sleep(target - now);
    }
}

/// The PR 10 latency dimension: a seeded open-loop arrival process at
/// ~60% of the measured closed-loop capacity against a 2-shard service
/// with a 2 ms coalescing window, quantiles read from the service's own
/// [`LatencyHistogram`](ember_serve::LatencyHistogram) (queue-to-answer,
/// as `GET /v1/stats` serves them).
///
/// **These rows are wall-clock, not CPU time** — latency under an
/// arrival process *is* a wall phenomenon (queueing and the coalescing
/// window spend no CPU), so the suite's CPU-time convention would
/// measure nothing. `wall_ms` is the quantile itself; the gated
/// throughput is its inverse (`1000 / quantile_ms`, higher = faster).
///
/// The `latency-window-bound-784x200` speedup entry is the
/// deterministic half: one lone request's latency under a 250 ms window
/// ÷ under a 2 ms window. A bounded window must dispatch a batch-mate-
/// less request when its window expires, so the ratio sits near 125×;
/// anything ≥ 5× proves the window (not the service time) sets the
/// lone-request floor.
pub fn bench_latency_openloop(
    config: &RunConfig,
    rows: &mut Vec<BenchRow>,
    speedups: &mut Vec<(String, f64)>,
) {
    header("Open-loop latency (seeded Poisson arrivals at ~0.6x capacity, 2 shards, 2 ms window)");
    let (m, n) = (784usize, 200usize);
    let shards = 2usize;
    let window = Duration::from_millis(2);

    let mut rng = config.rng();
    let rbm = Rbm::random(m, n, 0.01, &mut rng);
    let proto = SubstrateSpec::software(GsConfig::default()).fabricate_for(&rbm, &mut rng);

    // Closed-loop calibration on a window-less single shard: the
    // per-request wall service time that sets the offered rate below.
    let calibration = SamplingService::builder().shards(1).build();
    calibration
        .register_model("m", rbm.clone(), proto.clone_boxed())
        .expect("register bench model");
    let calib_reqs = 30u64;
    let started = Instant::now();
    for i in 0..calib_reqs {
        calibration
            .sample(SampleRequest::new("m").with_gibbs_steps(5).with_seed(i))
            .expect("calibration request served");
    }
    let service_time = started.elapsed() / u32::try_from(calib_reqs).expect("fits");
    drop(calibration);

    // Offered rate = 0.6 × (shards / service_time); mean gap floored at
    // 200 µs so the sleeper stays meaningful on a fast box.
    let mean_gap = (service_time / u32::try_from(shards).expect("fits"))
        .mul_f64(1.0 / 0.6)
        .max(Duration::from_micros(200));
    let count = config.pick(300, 800);
    let arrivals = exponential_arrivals(config.seed ^ 0x09E4_1007, mean_gap, count);

    let service = SamplingService::builder()
        .shards(shards)
        .coalesce_window(window)
        .max_coalesce_rows(32)
        .queue_rows(8 * count)
        .build();
    service
        .register_model("m", rbm.clone(), proto.clone_boxed())
        .expect("register bench model");
    let start = Instant::now();
    let handles: Vec<_> = arrivals
        .iter()
        .enumerate()
        .map(|(i, &offset)| {
            sleep_until(start + offset);
            service
                .submit(
                    SampleRequest::new("m")
                        .with_gibbs_steps(5)
                        .with_seed(i as u64),
                )
                .expect("open-loop queue sized for the full schedule")
        })
        .collect();
    for handle in handles {
        handle.wait().expect("open-loop request served");
    }
    let latency = service.stats().latency();
    assert_eq!(latency.count(), count as u64, "every arrival recorded");

    for (mode, quantile) in [
        ("p50", latency.p50()),
        ("p99", latency.p99()),
        ("p999", latency.p999()),
    ] {
        let wall_ms = quantile.as_secs_f64() * 1000.0;
        let throughput = 1000.0 / wall_ms.max(1e-6);
        println!("  {m}x{n} open-loop {mode:<24} {wall_ms:>10.2} ms");
        rows.push(BenchRow {
            name: "latency-openloop".into(),
            visible: m,
            hidden: n,
            mode,
            wall_ms,
            throughput,
            unit: "1/sec (inverse latency)",
        });
    }

    // Deterministic window-bound check: the lone-request floor is the
    // window, so shrinking the window shrinks the floor proportionally.
    let mut lone = [Duration::ZERO; 2];
    for (slot, window) in [(0usize, Duration::from_millis(250)), (1, window)] {
        let service = SamplingService::builder()
            .shards(1)
            .coalesce_window(window)
            .build();
        service
            .register_model("m", rbm.clone(), proto.clone_boxed())
            .expect("register bench model");
        let started = Instant::now();
        service
            .sample(SampleRequest::new("m").with_gibbs_steps(5).with_seed(0))
            .expect("lone request served");
        lone[slot] = started.elapsed();
    }
    let bound_speedup = lone[0].as_secs_f64() / lone[1].as_secs_f64().max(1e-9);
    println!(
        "  {m}x{n} lone request {:.2} ms (250 ms window) / {:.2} ms (2 ms window) = {bound_speedup:.1}x",
        lone[0].as_secs_f64() * 1000.0,
        lone[1].as_secs_f64() * 1000.0
    );
    speedups.push((format!("latency-window-bound-{m}x{n}"), bound_speedup));
}

/// The PR 10 overload dimension: a seeded open-loop flood at **2× the
/// measured capacity** of a single shard behind a small queue, one
/// Interactive request (with a generous deadline) in every four
/// arrivals, the rest Bulk. The service must keep serving at capacity
/// (the `accepted` row, wall-clock requests/sec) while the shedder
/// drops Bulk work — and *only* Bulk work.
///
/// The `overload-shed-bulk-first` entry is the shed-ordering invariant
/// as a number: Bulk sheds ÷ total sheds, exactly 1.0 when no
/// Interactive request was turned away (gated ≥ 1 in CI, i.e. exact).
pub fn bench_overload(
    config: &RunConfig,
    rows: &mut Vec<BenchRow>,
    speedups: &mut Vec<(String, f64)>,
) {
    header(
        "Overload flood (seeded open-loop arrivals at 2x capacity, 1 shard, Bulk-first shedding)",
    );
    let (m, n) = (784usize, 200usize);
    let window = Duration::from_millis(5);

    let mut rng = config.rng();
    let rbm = Rbm::random(m, n, 0.01, &mut rng);
    let proto = SubstrateSpec::software(GsConfig::default()).fabricate_for(&rbm, &mut rng);

    // Calibrate the *coalesced* capacity — what the flooded service can
    // actually sustain (a closed-loop single-request probe would miss
    // the batching amortization by an order of magnitude and the
    // "flood" would never overload anything).
    let calibration = SamplingService::builder()
        .shards(1)
        .max_coalesce_rows(32)
        .queue_rows(1024)
        .build();
    calibration
        .register_model("m", rbm.clone(), proto.clone_boxed())
        .expect("register bench model");
    let calib_reqs = 256u64;
    let started = Instant::now();
    let probes: Vec<_> = (0..calib_reqs)
        .map(|i| {
            calibration
                .submit(SampleRequest::new("m").with_gibbs_steps(5).with_seed(i))
                .expect("calibration queue sized for the probe")
        })
        .collect();
    for probe in probes {
        probe.wait().expect("calibration request served");
    }
    let service_time = started.elapsed() / u32::try_from(calib_reqs).expect("fits");
    drop(calibration);

    // 2× the sustainable rate, small queue: shedding is guaranteed. No
    // floor on the gap — when the scheduler can't sleep this finely the
    // submit loop just runs behind schedule and `sleep_until` no-ops,
    // which is exactly open-loop behavior.
    let mean_gap = service_time / 2;
    let count = config.pick(400, 1200);
    let arrivals = exponential_arrivals(config.seed ^ 0x000F_100D, mean_gap, count);

    let service = SamplingService::builder()
        .shards(1)
        .coalesce_window(window)
        .max_coalesce_rows(32)
        .queue_rows(48)
        .build();
    service
        .register_model("m", rbm, proto)
        .expect("register bench model");

    let start = Instant::now();
    let mut handles = Vec::with_capacity(count);
    let mut rejected_at_enqueue = [0u64; 2]; // [interactive, bulk]
    for (i, &offset) in arrivals.iter().enumerate() {
        sleep_until(start + offset);
        let interactive = i % 4 == 0;
        let mut request = SampleRequest::new("m")
            .with_gibbs_steps(5)
            .with_seed(i as u64);
        if interactive {
            request = request.with_deadline_in(Duration::from_secs(30));
        } else {
            request = request.with_priority(Priority::Bulk);
        }
        match service.submit(request) {
            Ok(handle) => handles.push((interactive, handle)),
            Err(_) => rejected_at_enqueue[usize::from(!interactive)] += 1,
        }
    }
    let mut accepted = 0u64;
    let mut shed = [0u64; 2]; // [interactive, bulk]
    for (interactive, handle) in handles {
        match handle.wait() {
            Ok(_) => accepted += 1,
            Err(_) => shed[usize::from(!interactive)] += 1,
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let shed_interactive = shed[0] + rejected_at_enqueue[0];
    let shed_bulk = shed[1] + rejected_at_enqueue[1];
    assert!(
        shed_bulk > 0,
        "a 2x flood against a 48-row queue must shed Bulk work"
    );

    let throughput = accepted as f64 / wall_s;
    let wall_ms = wall_s * 1000.0 / accepted.max(1) as f64;
    println!(
        "  {m}x{n} accepted {accepted}/{count} at {throughput:.1} requests/s; shed {shed_bulk} bulk, {shed_interactive} interactive"
    );
    rows.push(BenchRow {
        name: "overload-flood".into(),
        visible: m,
        hidden: n,
        mode: "accepted-2x-flood",
        wall_ms,
        throughput,
        unit: "requests/sec",
    });
    let ordering = shed_bulk as f64 / (shed_bulk + shed_interactive).max(1) as f64;
    println!("  {m}x{n} shed ordering (bulk / total sheds) {ordering:.3}");
    speedups.push((format!("overload-shed-bulk-first-{m}x{n}"), ordering));
}

/// Serializes a trajectory to the `BENCH_PR<N>.json` schema and writes it.
pub fn write_trajectory(
    pr: u32,
    config: &RunConfig,
    rows: &[BenchRow],
    speedups: &[(String, f64)],
) -> String {
    let rows_json: Vec<String> = rows.iter().map(BenchRow::json).collect();
    let speedups_json: Vec<String> = speedups
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v:.3}"))
        .collect();
    let json = format!(
        "{{\n  \"pr\": {},\n  \"seed\": {},\n  \"mode\": \"{}\",\n  \"threads\": {},\n  \"benches\": [\n    {}\n  ],\n  \"speedups\": {{{}}}\n}}\n",
        pr,
        config.seed,
        if config.full { "full" } else { "quick" },
        rayon::current_num_threads(),
        rows_json.join(",\n    "),
        speedups_json.join(",")
    );
    let path = format!("BENCH_PR{pr}.json");
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote {path}");
    json
}
