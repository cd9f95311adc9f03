//! Chaos suite: the full service matrix (1/2/8 shards × all three
//! substrate backends) under seeded fault injection.
//!
//! The invariants pinned here are the robustness contract of
//! `SamplingService`:
//!
//! * **No hangs, every request answered** — each submission resolves to
//!   a response or a *typed* error, under fault storms included.
//! * **Recovered means bit-identical** — a request whose faults were
//!   absorbed by the reprogram-and-retry loop returns exactly the
//!   fault-free bits (per-row RNG streams are recreated from seeds on
//!   every attempt).
//! * **Exhaustion degrades, never lies** — retry-exhausted requests get
//!   `ServeError::SubstrateFault`; enough of them in a row trip the
//!   model's circuit breaker into the deterministic software fallback,
//!   flagged via `SampleResponse::degraded`.
//! * **Deadlines shed, drains bound shutdown.**

use std::time::{Duration, Instant};

use ember_brim::BrimConfig;
use ember_core::{GsConfig, RetryPolicy, SubstrateSpec};
use ember_rbm::Rbm;
use ember_serve::{SampleRequest, SamplingService, ServeError, TrainRequest};
use ember_substrate::{ChaosConfig, ChaosSubstrate};
use ndarray::Array2;
use rand::rngs::StdRng;
use rand::SeedableRng;

const MODEL: &str = "m";
const REQUESTS: u64 = 12;

fn backends() -> Vec<(&'static str, SubstrateSpec)> {
    vec![
        ("software", SubstrateSpec::software(GsConfig::default())),
        ("brim", SubstrateSpec::brim(BrimConfig::default())),
        ("annealer", SubstrateSpec::annealer()),
    ]
}

fn request(i: u64) -> SampleRequest {
    SampleRequest::new(MODEL)
        .with_samples(2)
        .with_gibbs_steps(2)
        .with_seed(1_000 + i)
}

/// A fast retry policy for tests: same shape as the default, but with
/// microsecond backoffs so fault storms don't slow the suite down.
fn fast_retries(max_retries: u32) -> RetryPolicy {
    RetryPolicy::default()
        .with_max_retries(max_retries)
        .with_backoff(Duration::from_micros(50), 2.0, Duration::from_millis(1))
}

#[test]
fn seeded_faults_recover_bit_identically_across_shards_and_backends() {
    for (backend, spec) in backends() {
        // One fabricated machine per backend; golden and chaotic
        // services serve clones of the *same* physical identity.
        let mut rng = StdRng::seed_from_u64(0xFAB);
        let rbm = Rbm::random(12, 6, 0.4, &mut rng);
        let proto = spec.fabricate_for(&rbm, &mut rng);

        let golden_service = SamplingService::builder().shards(1).build();
        golden_service
            .register_model(MODEL, rbm.clone(), proto.clone_boxed())
            .unwrap();
        let golden: Vec<Array2<f64>> = (0..REQUESTS)
            .map(|i| golden_service.sample(request(i)).unwrap().samples)
            .collect();

        for shards in [1usize, 2, 8] {
            let chaotic = Box::new(ChaosSubstrate::new(
                proto.clone_boxed(),
                ChaosConfig::new(0xBAD_5EED ^ shards as u64).with_fault_rate(0.01),
            ));
            let service = SamplingService::builder()
                .shards(shards)
                .retry_policy(fast_retries(8))
                .build();
            service.register_model(MODEL, rbm.clone(), chaotic).unwrap();

            let handles: Vec<_> = (0..REQUESTS)
                .map(|i| service.submit(request(i)).unwrap())
                .collect();
            for (i, handle) in handles.into_iter().enumerate() {
                let resp = handle.wait().unwrap_or_else(|e| {
                    panic!("{backend} @ {shards} shards: request {i} failed: {e}")
                });
                assert!(
                    !resp.degraded,
                    "{backend} @ {shards} shards: breaker must not trip at 1% faults"
                );
                assert_eq!(
                    resp.samples, golden[i],
                    "{backend} @ {shards} shards: request {i} recovered to different bits"
                );
            }
        }
    }
}

#[test]
fn heavy_faults_are_absorbed_and_counted() {
    // 5% on every fault class: most groups need at least one retry; all
    // must still recover to the fault-free bits, and the accounting must
    // show the storm happened.
    let mut rng = StdRng::seed_from_u64(0xFAB);
    let rbm = Rbm::random(12, 6, 0.4, &mut rng);
    let proto = SubstrateSpec::software(GsConfig::default()).fabricate_for(&rbm, &mut rng);

    let golden_service = SamplingService::builder().shards(1).build();
    golden_service
        .register_model(MODEL, rbm.clone(), proto.clone_boxed())
        .unwrap();

    let chaotic = Box::new(ChaosSubstrate::new(
        proto.clone_boxed(),
        ChaosConfig::new(77).with_fault_rate(0.05),
    ));
    let service = SamplingService::builder()
        .shards(1)
        .retry_policy(fast_retries(12))
        .build();
    service.register_model(MODEL, rbm, chaotic).unwrap();

    for i in 0..20 {
        let golden = golden_service.sample(request(i)).unwrap().samples;
        let resp = service.sample(request(i)).unwrap();
        assert_eq!(resp.samples, golden, "request {i}");
    }
    let stats = service.stats();
    assert!(
        stats.total_fault_events() > 0,
        "a 5% schedule over 20 requests must inject something"
    );
    assert!(
        stats.total_recovery_retries() > 0,
        "absorbed faults must be visible as recovery retries"
    );
    assert!(stats.degraded.is_empty(), "no breaker should trip");
    assert_eq!(stats.models[MODEL].failed_requests, 0);
}

#[test]
fn training_on_a_chaos_replica_is_the_golden_path() {
    // Faults enter only through the fallible seam. Training drives the
    // infallible `program` / `sample_*_batch` half-steps, so even a
    // schedule that faults every fallible call publishes exactly the
    // bare backend's weights and injects nothing.
    for (backend, spec) in backends() {
        let mut rng = StdRng::seed_from_u64(0xFAB);
        let rbm = Rbm::random(12, 6, 0.4, &mut rng);
        let proto = spec.fabricate_for(&rbm, &mut rng);
        let data = Array2::from_shape_fn((24, 12), |(i, j)| f64::from((i + j) % 3 == 0));
        let train = || {
            TrainRequest::new(MODEL, data.clone())
                .with_batch_size(6)
                .with_epochs(2)
                .with_seed(41)
        };

        let bare = SamplingService::builder().shards(1).build();
        bare.register_model(MODEL, rbm.clone(), proto.clone_boxed())
            .unwrap();
        let golden = bare.train(train()).unwrap();

        let chaotic = Box::new(ChaosSubstrate::new(
            proto.clone_boxed(),
            ChaosConfig::new(0xC0FFEE).with_fault_rate(1.0),
        ));
        let service = SamplingService::builder().shards(1).build();
        service.register_model(MODEL, rbm.clone(), chaotic).unwrap();
        let resp = service.train(train()).unwrap();

        assert_eq!(resp.new_version, golden.new_version, "{backend}");
        assert_eq!(resp.stats, golden.stats, "{backend}");
        assert_eq!(
            *service.registry().get(MODEL).unwrap().rbm,
            *bare.registry().get(MODEL).unwrap().rbm,
            "{backend}: published weights must be bit-identical to the bare backend's"
        );
        let counters = service.stats().models[MODEL].counters;
        for c in [resp.counters, counters] {
            assert_eq!(c.substrate_faults, 0, "{backend}");
            assert_eq!(c.corrupted_programmings, 0, "{backend}");
            assert_eq!(c.corrupted_reads, 0, "{backend}");
            assert_eq!(c.recovery_retries, 0, "{backend}");
        }
    }
}

#[test]
fn exhausted_retries_trip_the_breaker_into_deterministic_degraded_service() {
    let mut rng = StdRng::seed_from_u64(0xFAB);
    let rbm = Rbm::random(10, 5, 0.4, &mut rng);
    let proto = SubstrateSpec::software(GsConfig::default()).fabricate_for(&rbm, &mut rng);

    // Every programming and read hard-faults: retries can never succeed.
    let chaotic = Box::new(ChaosSubstrate::new(
        proto,
        ChaosConfig::new(9).with_hard_fault_rate(1.0),
    ));
    let service = SamplingService::builder()
        .shards(2)
        .retry_policy(fast_retries(1))
        .breaker_threshold(2)
        .build();
    service.register_model(MODEL, rbm, chaotic).unwrap();

    // The first `breaker_threshold` requests exhaust their budgets and
    // surface the typed fault...
    for i in 0..2 {
        match service.sample(request(i)) {
            Err(ServeError::SubstrateFault { model, .. }) => assert_eq!(model, MODEL),
            other => panic!("request {i}: expected SubstrateFault, got {other:?}"),
        }
    }
    // ...then the breaker trips and the model degrades to the software
    // fallback: requests succeed again, flagged as degraded.
    let a = service.sample(request(100)).unwrap();
    assert!(a.degraded, "post-trip responses must be flagged degraded");
    // The fallback is fabricated from the model *name*, not the shard,
    // so a repeated seeded request is bit-identical wherever it lands.
    let b = service.sample(request(100)).unwrap();
    assert_eq!(
        a.samples, b.samples,
        "degraded service must stay deterministic"
    );

    let stats = service.stats();
    assert_eq!(stats.degraded, vec![MODEL.to_string()]);
    assert_eq!(stats.models[MODEL].failed_requests, 2);
    assert!(stats.models[MODEL].degraded_requests >= 2);
}

#[test]
fn expired_deadlines_are_shed_without_substrate_work() {
    let mut rng = StdRng::seed_from_u64(0xFAB);
    let rbm = Rbm::random(8, 4, 0.4, &mut rng);
    let proto = SubstrateSpec::software(GsConfig::default()).fabricate_for(&rbm, &mut rng);
    let service = SamplingService::builder().shards(1).build();
    service.register_model(MODEL, rbm, proto).unwrap();

    // Already past due at submission: the shard must shed it with the
    // typed error instead of sampling.
    let doomed = service
        .submit(request(0).with_deadline(Instant::now() - Duration::from_millis(1)))
        .unwrap();
    assert!(matches!(doomed.wait(), Err(ServeError::DeadlineExceeded)));
    assert_eq!(service.stats().total_shed_requests(), 1);

    // An undated request right behind it is unaffected.
    let resp = service.sample(request(1)).unwrap();
    assert_eq!(resp.samples.nrows(), 2);
}

#[test]
fn graceful_shutdown_drains_everything_within_the_deadline() {
    let mut rng = StdRng::seed_from_u64(0xFAB);
    let rbm = Rbm::random(8, 4, 0.4, &mut rng);
    let proto = SubstrateSpec::software(GsConfig::default()).fabricate_for(&rbm, &mut rng);
    let service = SamplingService::builder().shards(2).build();
    service.register_model(MODEL, rbm, proto).unwrap();

    let handles: Vec<_> = (0..8)
        .map(|i| service.submit(request(i)).unwrap())
        .collect();
    let report = service.shutdown(Duration::from_secs(30));
    assert!(report.drained, "a light queue must drain well inside 30s");
    assert_eq!(report.aborted_requests, 0);
    for handle in handles {
        assert!(handle.wait().is_ok(), "drained requests must be answered");
    }
}

#[test]
fn expired_drain_aborts_queued_requests_with_typed_errors() {
    let mut rng = StdRng::seed_from_u64(0xFAB);
    let rbm = Rbm::random(8, 4, 0.4, &mut rng);
    let proto = SubstrateSpec::software(GsConfig::default()).fabricate_for(&rbm, &mut rng);
    // No faults — just a guaranteed 2 ms latency spike on every sample
    // call, making each request reliably slow (~200 ms at 50 steps).
    let pinned = Box::new(ChaosSubstrate::new(
        proto,
        ChaosConfig::new(1).with_latency_spikes(1.0, Duration::from_millis(2)),
    ));
    let service = SamplingService::builder()
        .shards(1)
        .coalescing(false)
        .build();
    service.register_model(MODEL, rbm, pinned).unwrap();

    // Pin the single shard and give it ample time to pick the request
    // up, then stack a backlog behind it.
    let slow = service
        .submit(SampleRequest::new(MODEL).with_gibbs_steps(50).with_seed(0))
        .unwrap();
    std::thread::sleep(Duration::from_millis(30));
    let queued: Vec<_> = (1..4)
        .map(|i| {
            service
                .submit(SampleRequest::new(MODEL).with_gibbs_steps(50).with_seed(i))
                .unwrap()
        })
        .collect();

    // A zero-length drain window: the backlog cannot complete in time.
    let report = service.shutdown(Duration::ZERO);
    assert!(!report.drained);
    assert_eq!(report.aborted_requests, 3, "the whole backlog is aborted");
    // The in-flight request still finishes (no preemption mid-kernel)...
    assert!(slow.wait().is_ok());
    // ...while every aborted one gets the typed close, not a hang.
    for handle in queued {
        assert!(matches!(handle.wait(), Err(ServeError::ServiceClosed)));
    }
}
