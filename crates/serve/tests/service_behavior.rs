//! Service-level behavior: bounded-queue backpressure (reject, never
//! deadlock), coalescing under load, training-through-the-service with
//! version publication, validation errors, and per-group programming:
//! §3.2 words charged every group, host work only when the snapshot
//! changes, never a stale image.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ember_core::recovery::verify_programming;
use ember_core::{GsConfig, RetryPolicy, SubstrateSpec};
use ember_rbm::{CdTrainer, Rbm};
use ember_serve::{batch, ModelRegistry, SampleRequest, SamplingService, ServeError, TrainRequest};
use ember_substrate::{
    ChaosConfig, ChaosSubstrate, HardwareCounters, ReplicableSubstrate, Substrate,
};
use ndarray::{Array2, ArrayView1, ArrayView2};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn fixture(m: usize, n: usize) -> (Rbm, Box<dyn ember_substrate::ReplicableSubstrate>) {
    let mut rng = StdRng::seed_from_u64(4);
    let rbm = Rbm::random(m, n, 0.3, &mut rng);
    let proto = SubstrateSpec::software(GsConfig::default()).fabricate(m, n, &mut rng);
    (rbm, proto)
}

/// A request slow enough (many steps on a mid-size model) to pin a shard
/// while the test manipulates the queue behind it.
fn slow_request(seed: u64) -> SampleRequest {
    SampleRequest::new("m")
        .with_gibbs_steps(400)
        .with_seed(seed)
}

#[test]
fn bounded_queue_rejects_rather_than_deadlocks_when_full() {
    let (rbm, proto) = fixture(64, 32);
    let service = SamplingService::builder().shards(1).queue_rows(2).build();
    service.register_model("m", rbm, proto).unwrap();

    // Occupy the single shard, then keep submitting until the two-row
    // queue is at capacity: the next submission must be REJECTED with
    // QueueFull — not block, not deadlock.
    let mut handles = vec![service.submit(slow_request(0)).unwrap()];
    let mut saw_full = false;
    for i in 1..200 {
        match service.submit(slow_request(i)) {
            Ok(handle) => handles.push(handle),
            Err(ServeError::QueueFull { retry_after }) => {
                assert!(
                    retry_after >= std::time::Duration::from_micros(100),
                    "retry_after hint must be a usable, non-zero pause"
                );
                saw_full = true;
                break;
            }
            Err(other) => panic!("unexpected error {other}"),
        }
    }
    assert!(saw_full, "a 2-row queue must fill under a pinned shard");
    assert!(service.stats().rejected >= 1);

    // No deadlock: every accepted request still completes.
    for handle in handles {
        let resp = handle.wait().unwrap();
        assert_eq!(resp.samples.nrows(), 1);
    }
}

#[test]
fn pending_same_key_requests_coalesce_into_one_batch() {
    let (rbm, proto) = fixture(64, 32);
    let service = SamplingService::builder().shards(1).queue_rows(256).build();
    service.register_model("m", rbm, proto).unwrap();

    // Pin the shard, then queue 16 fast same-key requests: when the
    // shard frees up it must take them as one coalesced batch.
    let slow = service.submit(slow_request(1)).unwrap();
    let fast: Vec<_> = (0..16)
        .map(|i| {
            service
                .submit(
                    SampleRequest::new("m")
                        .with_gibbs_steps(1)
                        .with_seed(100 + i),
                )
                .unwrap()
        })
        .collect();
    slow.wait().unwrap();
    for handle in fast {
        let resp = handle.wait().unwrap();
        assert_eq!(resp.coalesced_rows, 16, "all 16 should ride one batch");
    }
    let stats = service.stats();
    assert_eq!(stats.shards[0].largest_batch, 16);
    assert_eq!(stats.total_batches(), 2); // the slow one + the coalesced one
    assert!(stats.mean_coalesced_rows() > 8.0);
}

#[test]
fn disabling_coalescing_serves_request_at_a_time() {
    let (rbm, proto) = fixture(32, 16);
    let service = SamplingService::builder()
        .shards(1)
        .coalescing(false)
        .build();
    service.register_model("m", rbm, proto).unwrap();
    let handles: Vec<_> = (0..8)
        .map(|i| {
            service
                .submit(SampleRequest::new("m").with_seed(i))
                .unwrap()
        })
        .collect();
    for handle in handles {
        assert_eq!(handle.wait().unwrap().coalesced_rows, 1);
    }
    assert_eq!(service.stats().total_batches(), 8);
}

#[test]
fn train_through_service_publishes_a_version_and_matches_direct_training() {
    let (rbm, proto) = fixture(8, 4);
    let data = Array2::from_shape_fn((24, 8), |(i, _)| f64::from(i % 2 == 0));
    let trainer = CdTrainer::new(1, 0.05);

    // Direct reference: same snapshot, replica, seed, entry point.
    let mut expected = rbm.clone();
    let mut replica = proto.clone_boxed();
    let mut rng = StdRng::seed_from_u64(77);
    let expected_stats = trainer.train_with(&mut expected, &data, 6, &mut *replica, 2, &mut rng);

    let service = SamplingService::builder().shards(2).build();
    service.register_model("m", rbm, proto).unwrap();
    let resp = service
        .train(
            TrainRequest::new("m", data)
                .with_trainer(trainer)
                .with_batch_size(6)
                .with_epochs(2)
                .with_seed(77),
        )
        .unwrap();
    assert_eq!(resp.new_version, 2);
    assert_eq!(resp.stats, expected_stats);
    assert!(resp.counters.phase_points > 0);

    let snapshot = service.registry().get("m").unwrap();
    assert_eq!(snapshot.version, 2);
    assert_eq!(*snapshot.rbm, expected, "published parameters must match");

    // Sampling continues against the new version.
    let sampled = service
        .sample(SampleRequest::new("m").with_seed(5))
        .unwrap();
    assert_eq!(sampled.model_version, 2);
    assert_eq!(service.stats().models["m"].train_requests, 1);
}

#[test]
fn submit_validates_against_the_registry() {
    let (rbm, proto) = fixture(6, 3);
    let service = SamplingService::builder().shards(1).build();
    service.register_model("m", rbm, proto).unwrap();

    assert!(matches!(
        service.sample(SampleRequest::new("ghost")),
        Err(ServeError::ModelNotFound(_))
    ));
    assert!(matches!(
        service.sample(SampleRequest::new("m").with_samples(0)),
        Err(ServeError::InvalidRequest(_))
    ));
    assert!(matches!(
        service.sample(SampleRequest::new("m").with_gibbs_steps(0)),
        Err(ServeError::InvalidRequest(_))
    ));
    assert!(matches!(
        service.sample(SampleRequest::new("m").with_clamp(ndarray::Array1::zeros(5))),
        Err(ServeError::InvalidRequest(_))
    ));
    assert!(matches!(
        service.sample(SampleRequest::new("m").with_clamp(ndarray::Array1::from_elem(6, 1.5))),
        Err(ServeError::InvalidRequest(_))
    ));
    assert!(matches!(
        service.train(TrainRequest::new("m", Array2::zeros((4, 5)))),
        Err(ServeError::InvalidRequest(_))
    ));

    let (other, wrong_proto) = fixture(9, 3);
    assert!(matches!(
        service.register_model("n", other, {
            let (_, p) = fixture(6, 3);
            p
        }),
        Err(ServeError::InvalidRequest(_))
    ));
    drop(wrong_proto);
}

#[test]
fn oversized_requests_are_invalid_not_backpressure() {
    // Heavier than the whole queue can ever hold: retrying would never
    // help, so this must be a validation error, not QueueFull.
    let (rbm, proto) = fixture(6, 3);
    let service = SamplingService::builder().shards(1).queue_rows(8).build();
    service.register_model("m", rbm, proto).unwrap();
    assert!(matches!(
        service.submit(SampleRequest::new("m").with_samples(9)),
        Err(ServeError::InvalidRequest(_))
    ));
    // At exactly the capacity it is accepted.
    let resp = service
        .sample(SampleRequest::new("m").with_samples(8).with_seed(1))
        .unwrap();
    assert_eq!(resp.samples.nrows(), 8);
    assert_eq!(service.stats().rejected, 0);
}

#[test]
fn shared_registry_models_are_served_after_provisioning() {
    // Service A registers; service B shares the registry and provisions
    // its own replicas for the pre-existing model.
    let (rbm, proto) = fixture(6, 3);
    let a = SamplingService::builder().shards(1).build();
    a.register_model("m", rbm, proto.clone_boxed()).unwrap();

    let b = SamplingService::builder()
        .shards(2)
        .registry(a.registry().clone())
        .build();
    // Visible in the registry but not yet provisioned on B's shards:
    // the executing shard reports the model as unservable.
    assert!(matches!(
        b.sample(SampleRequest::new("m").with_seed(3)),
        Err(ServeError::ModelNotFound(_))
    ));
    b.provision_model("m", proto.clone_boxed()).unwrap();
    let via_b = b.sample(SampleRequest::new("m").with_seed(3)).unwrap();
    let via_a = a.sample(SampleRequest::new("m").with_seed(3)).unwrap();
    assert_eq!(via_b.samples, via_a.samples, "same model, same seed");

    // provision_model validates like register_model.
    assert!(matches!(
        b.provision_model("ghost", proto.clone_boxed()),
        Err(ServeError::ModelNotFound(_))
    ));
    let (_, wrong) = fixture(9, 3);
    assert!(matches!(
        b.provision_model("m", wrong),
        Err(ServeError::InvalidRequest(_))
    ));
}

#[test]
fn concurrent_training_loses_no_updates() {
    // Two clients train the same model concurrently on a 2-shard
    // service: either both land (serialized on one shard) or the loser
    // gets TrainConflict — never a silent lost update.
    let (rbm, proto) = fixture(8, 4);
    let service = SamplingService::builder().shards(2).build();
    service.register_model("m", rbm, proto).unwrap();
    let data = Array2::from_shape_fn((16, 8), |(i, _)| f64::from(i % 2 == 0));
    let h1 = service
        .submit_train(TrainRequest::new("m", data.clone()).with_seed(1))
        .unwrap();
    let h2 = service
        .submit_train(TrainRequest::new("m", data).with_seed(2))
        .unwrap();
    let results = [h1.wait(), h2.wait()];
    let won = results.iter().filter(|r| r.is_ok()).count();
    let conflicted = results
        .iter()
        .filter(|r| matches!(r, Err(ServeError::TrainConflict { .. })))
        .count();
    assert_eq!(won + conflicted, 2, "unexpected failure: {results:?}");
    assert!(won >= 1, "at least one trainer must land");
    // The registry version reflects exactly the publishes that landed.
    assert_eq!(service.registry().get("m").unwrap().version, 1 + won as u64);
}

#[test]
fn seedless_requests_are_served_from_the_shard_lane() {
    let (rbm, proto) = fixture(6, 3);
    let service = SamplingService::builder().shards(1).build();
    service.register_model("m", rbm, proto).unwrap();
    let a = service
        .sample(SampleRequest::new("m").with_samples(3))
        .unwrap();
    let b = service
        .sample(SampleRequest::new("m").with_samples(3))
        .unwrap();
    assert_eq!(a.samples.dim(), (3, 6));
    // Successive lane seeds differ, so the two draws are (almost surely)
    // different — the service is not replaying one stream.
    assert_ne!(a.samples, b.samples);
}

#[test]
fn mixed_model_traffic_keeps_per_model_accounting() {
    let (rbm_a, proto_a) = fixture(6, 3);
    let (rbm_b, proto_b) = fixture(10, 5);
    let service = SamplingService::builder().shards(2).build();
    service.register_model("a", rbm_a, proto_a).unwrap();
    service.register_model("b", rbm_b, proto_b).unwrap();
    let handles: Vec<_> = (0..12)
        .map(|i| {
            let name = if i % 2 == 0 { "a" } else { "b" };
            service
                .submit(SampleRequest::new(name).with_seed(i))
                .unwrap()
        })
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        let resp = handle.wait().unwrap();
        assert_eq!(resp.samples.ncols(), if i % 2 == 0 { 6 } else { 10 });
    }
    let stats = service.stats();
    assert_eq!(stats.models["a"].sample_requests, 6);
    assert_eq!(stats.models["b"].sample_requests, 6);
    assert_eq!(stats.total_rows(), 12);
}

#[test]
fn serving_binary_traffic_runs_on_the_packed_kernel() {
    // A served Gibbs chain is binary end to end (random binary inits,
    // exact {0, 1} feedback), so every sampling call of every shard
    // must be served by the bit-packed kernel — and the service stats
    // must say so.
    let (rbm, proto) = fixture(32, 16);
    let service = SamplingService::builder().shards(2).build();
    service.register_model("m", rbm, proto).unwrap();
    let handles: Vec<_> = (0..8)
        .map(|i| {
            service
                .submit(SampleRequest::new("m").with_samples(2).with_seed(i))
                .unwrap()
        })
        .collect();
    for handle in handles {
        handle.wait().unwrap();
    }
    let stats = service.stats();
    assert!(stats.total_packed_kernel_calls() > 0);
    assert_eq!(stats.total_dense_kernel_calls(), 0);
    assert_eq!(stats.packed_kernel_fraction(), 1.0);
    // The per-response counter delta carries the same attribution.
    let resp = service
        .sample(SampleRequest::new("m").with_seed(99))
        .unwrap();
    assert!(resp.counters.packed_kernel_calls > 0);
    assert_eq!(resp.counters.dense_kernel_calls, 0);
}

#[test]
fn panicking_request_does_not_hang_its_neighbors() {
    // Regression: a panic mid-request used to kill the worker thread and
    // leave every queued caller blocked forever on a dropped reply
    // channel. Now the panicking request gets a typed ShardRestarted,
    // the shard re-provisions, and the queue keeps draining.
    let (rbm, proto) = fixture(8, 4);
    let chaotic = Box::new(ember_substrate::ChaosSubstrate::new(
        proto,
        ember_substrate::ChaosConfig::new(7).with_panic_on_sample_call(1),
    ));
    let service = SamplingService::builder()
        .shards(1)
        .coalescing(false)
        .build();
    service.register_model("m", rbm, chaotic).unwrap();

    // First request trips the injected panic; its neighbors are queued
    // behind it on the same (single) shard.
    let doomed = service
        .submit(SampleRequest::new("m").with_seed(0))
        .unwrap();
    let neighbors: Vec<_> = (1..5)
        .map(|i| {
            service
                .submit(SampleRequest::new("m").with_seed(i))
                .unwrap()
        })
        .collect();

    assert!(matches!(
        doomed.wait(),
        Err(ServeError::ShardRestarted { shard: 0 })
    ));
    for neighbor in neighbors {
        let resp = neighbor.wait().expect("neighbors must still be served");
        assert_eq!(resp.samples.nrows(), 1);
    }
    let stats = service.stats();
    assert_eq!(stats.total_restarts(), 1, "exactly one recovery");
    // The restarted shard serves resubmissions immediately.
    let resubmitted = service
        .sample(SampleRequest::new("m").with_seed(0))
        .unwrap();
    assert_eq!(resubmitted.samples.nrows(), 1);
}

#[test]
fn concurrent_flood_accounts_for_every_request_exactly() {
    // 16 client threads flood a tiny queue; backpressure may reject any
    // number of submissions, but accepted + rejected must equal
    // submitted, every accepted request must complete, and the service's
    // own `rejected` counter must agree with the clients' tally.
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const THREADS: usize = 16;
    const PER_THREAD: u64 = 50;

    let (rbm, proto) = fixture(16, 8);
    let service = Arc::new(SamplingService::builder().shards(2).queue_rows(8).build());
    service.register_model("m", rbm, proto).unwrap();

    let accepted = Arc::new(AtomicU64::new(0));
    let rejected = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let service = Arc::clone(&service);
            let accepted = Arc::clone(&accepted);
            let rejected = Arc::clone(&rejected);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let seed = t as u64 * PER_THREAD + i;
                    match service
                        .submit(SampleRequest::new("m").with_gibbs_steps(3).with_seed(seed))
                    {
                        Ok(handle) => {
                            accepted.fetch_add(1, Ordering::SeqCst);
                            let resp = handle.wait().expect("accepted requests must complete");
                            assert_eq!(resp.samples.nrows(), 1);
                        }
                        Err(ServeError::QueueFull { retry_after }) => {
                            rejected.fetch_add(1, Ordering::SeqCst);
                            assert!(retry_after > std::time::Duration::ZERO);
                        }
                        Err(other) => panic!("unexpected error under flood: {other}"),
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    let accepted = accepted.load(Ordering::SeqCst);
    let rejected = rejected.load(Ordering::SeqCst);
    assert_eq!(
        accepted + rejected,
        (THREADS as u64) * PER_THREAD,
        "every submission must be either accepted or rejected"
    );
    assert!(accepted > 0, "a live service must accept some of the flood");
    let stats = service.stats();
    assert_eq!(stats.rejected, rejected, "service and clients must agree");
    let served: u64 = stats.shards.iter().map(|s| s.sample_requests).sum();
    assert_eq!(served, accepted, "every accepted request must be served");
}

/// Decorates a substrate to count `program` calls — the host-side work
/// a replica skips when its snapshot is unchanged — and, once armed, to
/// run an action inside the next `program` (a training job's first
/// minibatch). Clones share the count and the armed action.
#[derive(Clone)]
struct Probe {
    inner: Box<dyn ReplicableSubstrate>,
    programs: Arc<AtomicU64>,
    armed: Arc<Mutex<Option<ArmedAction>>>,
}

type ArmedAction = Box<dyn FnOnce() + Send>;

impl Probe {
    fn new(inner: Box<dyn ReplicableSubstrate>) -> Self {
        Probe {
            inner,
            programs: Arc::new(AtomicU64::new(0)),
            armed: Arc::new(Mutex::new(None)),
        }
    }

    fn programs(&self) -> u64 {
        self.programs.load(Ordering::SeqCst)
    }

    fn arm(&self, action: impl FnOnce() + Send + 'static) {
        *self.armed.lock().unwrap() = Some(Box::new(action));
    }
}

impl Substrate for Probe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn visible_len(&self) -> usize {
        self.inner.visible_len()
    }
    fn hidden_len(&self) -> usize {
        self.inner.hidden_len()
    }
    fn program(
        &mut self,
        weights: &ArrayView2<'_, f64>,
        visible_bias: &ArrayView1<'_, f64>,
        hidden_bias: &ArrayView1<'_, f64>,
    ) {
        self.programs.fetch_add(1, Ordering::SeqCst);
        if let Some(action) = self.armed.lock().unwrap().take() {
            action();
        }
        self.inner.program(weights, visible_bias, hidden_bias);
    }
    fn quantize_batch(&self, levels: &Array2<f64>) -> Array2<f64> {
        self.inner.quantize_batch(levels)
    }
    fn sample_hidden_batch(&mut self, visible: &Array2<f64>, rng: &mut dyn RngCore) -> Array2<f64> {
        self.inner.sample_hidden_batch(visible, rng)
    }
    fn sample_visible_batch(&mut self, hidden: &Array2<f64>, rng: &mut dyn RngCore) -> Array2<f64> {
        self.inner.sample_visible_batch(hidden, rng)
    }
    fn sample_hidden_batch_rows(
        &mut self,
        visible: &Array2<f64>,
        rngs: &mut [&mut dyn RngCore],
    ) -> Array2<f64> {
        self.inner.sample_hidden_batch_rows(visible, rngs)
    }
    fn sample_visible_batch_rows(
        &mut self,
        hidden: &Array2<f64>,
        rngs: &mut [&mut dyn RngCore],
    ) -> Array2<f64> {
        self.inner.sample_visible_batch_rows(hidden, rngs)
    }
    fn counters(&self) -> &HardwareCounters {
        self.inner.counters()
    }
    fn counters_mut(&mut self) -> &mut HardwareCounters {
        self.inner.counters_mut()
    }
}

fn lone_request(i: u64) -> SampleRequest {
    SampleRequest::new("m")
        .with_samples(2)
        .with_gibbs_steps(2)
        .with_seed(500 + i)
}

fn program_from(substrate: &mut dyn ReplicableSubstrate, rbm: &Rbm) {
    substrate.program(
        &rbm.weights().view(),
        &rbm.visible_bias().view(),
        &rbm.hidden_bias().view(),
    );
}

#[test]
fn lone_requests_pay_section_3_2_words_but_program_the_host_once() {
    const N: u64 = 6;
    for spec in [
        SubstrateSpec::software(GsConfig::default()),
        SubstrateSpec::brim(ember_brim::BrimConfig::default()),
        SubstrateSpec::annealer(),
    ] {
        let mut rng = StdRng::seed_from_u64(21);
        let rbm = Rbm::random(10, 5, 0.4, &mut rng);
        let proto = spec.fabricate_for(&rbm, &mut rng);

        // Direct reference: the volatile-weights discipline spelled out,
        // one `program` + `sample_rows` per group.
        let mut direct = proto.clone_boxed();
        let before = *direct.counters();
        let mut expected = Vec::new();
        for i in 0..N {
            let request = lone_request(i);
            program_from(&mut *direct, &rbm);
            let rows = batch::expand_request(&request, request.seed.unwrap());
            expected.push(batch::sample_rows(&mut *direct, &rows, request.gibbs_steps));
        }
        let direct_delta = direct.counters().delta_since(&before);

        let probe = Probe::new(proto);
        let service = SamplingService::builder().shards(1).build();
        service
            .register_model("m", rbm, Box::new(probe.clone()))
            .unwrap();
        for (i, expected) in (0..N).zip(&expected) {
            let resp = service.sample(lone_request(i)).unwrap();
            assert_eq!(resp.coalesced_rows, 2, "lone requests must not coalesce");
            assert_eq!(
                &resp.samples,
                expected,
                "{}: request {i} bits",
                probe.name()
            );
        }
        let served = service.stats().models["m"].counters;
        assert_eq!(
            served.host_words_transferred,
            direct_delta.host_words_transferred,
            "{}: every group still pays its programming words",
            probe.name()
        );
        assert_eq!(served.phase_points, direct_delta.phase_points);
        assert_eq!(
            probe.programs(),
            1,
            "{}: one host programming",
            probe.name()
        );
    }
}

#[test]
fn fallible_replicas_are_programmed_every_group_with_an_unchanged_fault_schedule() {
    const N: u64 = 24;
    let mut rng = StdRng::seed_from_u64(22);
    let rbm = Rbm::random(10, 5, 0.4, &mut rng);
    let inner = SubstrateSpec::software(GsConfig::default()).fabricate_for(&rbm, &mut rng);

    // Without faults: one `try_program` reaches the machine per group.
    let probe = Probe::new(inner.clone_boxed());
    let chaotic = ChaosSubstrate::new(Box::new(probe.clone()), ChaosConfig::new(3));
    let service = SamplingService::builder().shards(1).build();
    service
        .register_model("m", rbm.clone(), Box::new(chaotic))
        .unwrap();
    for i in 0..N {
        service.sample(lone_request(i)).unwrap();
    }
    assert_eq!(probe.programs(), N);

    // Under faults (no retries, no breaker): every group's outcome and
    // the accumulated counters match a direct replay of one verified
    // `try_program` + `try_sample_rows` per group on a clone.
    let proto = ChaosSubstrate::new(inner, ChaosConfig::new(4).with_fault_rate(0.1));
    let mut direct = proto.clone();
    let before = *direct.counters();
    let service = SamplingService::builder()
        .shards(1)
        .retry_policy(RetryPolicy::none())
        .breaker_threshold(u32::MAX)
        .build();
    service
        .register_model("m", rbm.clone(), Box::new(proto))
        .unwrap();
    let mut faults = 0;
    for i in 0..N {
        let request = lone_request(i);
        let rows = batch::expand_request(&request, request.seed.unwrap());
        let expected = direct
            .try_program(
                &rbm.weights().view(),
                &rbm.visible_bias().view(),
                &rbm.hidden_bias().view(),
            )
            .and_then(|()| {
                verify_programming(
                    &direct,
                    &rbm.weights().view(),
                    &rbm.visible_bias().view(),
                    &rbm.hidden_bias().view(),
                )
            })
            .and_then(|()| batch::try_sample_rows(&mut direct, &rows, request.gibbs_steps));
        match (service.sample(request), expected) {
            (Ok(resp), Ok(expected)) => assert_eq!(resp.samples, expected, "request {i}"),
            (Err(ServeError::SubstrateFault { fault, .. }), Err(expected)) => {
                assert_eq!(fault, expected, "request {i}");
                faults += 1;
            }
            (served, expected) => panic!("request {i}: served {served:?}, direct {expected:?}"),
        }
    }
    assert!(faults > 0, "a 10% schedule must fault within {N} groups");
    assert_eq!(
        service.stats().models["m"].counters,
        direct.counters().delta_since(&before)
    );
}

#[test]
fn retained_weights_are_reprogrammed_after_a_read_fault() {
    // Retention skips programming an unchanged snapshot, but a fault may
    // have disturbed the volatile couplings: every retry re-programs.
    let (rbm, proto) = fixture(10, 5);
    let probe = Probe::new(proto.clone_boxed());
    let chaotic = ChaosSubstrate::new(
        Box::new(probe.clone()),
        ChaosConfig {
            read_fault_rate: 0.2,
            ..ChaosConfig::new(9)
        },
    );
    let service = SamplingService::builder()
        .shards(1)
        .program_retention(true)
        .retry_policy(RetryPolicy::default().with_max_retries(50).with_backoff(
            std::time::Duration::from_micros(10),
            1.0,
            std::time::Duration::from_micros(10),
        ))
        .build();
    service.register_model("m", rbm, Box::new(chaotic)).unwrap();
    for i in 0..24 {
        service.sample(lone_request(i)).unwrap();
    }
    let retries = service.stats().total_recovery_retries();
    assert!(retries > 0, "a 20% read-fault schedule must retry");
    assert_eq!(probe.programs(), 1 + retries);
}

/// Samples from `service` and checks the bits against a fresh replica of
/// the probed machine programmed from the version the response reports
/// (outside the probe's count); returns that version.
fn assert_served_from_reported_version(service: &SamplingService, probe: &Probe, i: u64) -> u64 {
    // Enough rows that a slightly moved image flips some bit.
    let request = lone_request(i).with_samples(64);
    let resp = service.sample(request.clone()).unwrap();
    let rbm = service
        .registry()
        .get_version("m", resp.model_version)
        .unwrap();
    let mut fresh = probe.inner.clone_boxed();
    program_from(&mut *fresh, &rbm);
    let rows = batch::expand_request(&request, request.seed.unwrap());
    let expected = batch::sample_rows(&mut *fresh, &rows, request.gibbs_steps);
    assert_eq!(
        resp.samples, expected,
        "request {i} served stale programming for v{}",
        resp.model_version
    );
    resp.model_version
}

/// Several large minibatch steps, so the replica's last mid-training
/// image is far from both the base and the published parameters.
fn train_request(data: Array2<f64>) -> TrainRequest {
    TrainRequest::new("m", data)
        .with_trainer(CdTrainer::new(1, 0.5))
        .with_batch_size(4)
}

fn staleness_fixture() -> (Rbm, Probe, SamplingService, Array2<f64>) {
    let (rbm, proto) = fixture(8, 4);
    let probe = Probe::new(proto);
    let service = SamplingService::builder().shards(1).build();
    service
        .register_model("m", rbm.clone(), Box::new(probe.clone()))
        .unwrap();
    let data = Array2::from_shape_fn((16, 8), |(i, j)| f64::from((i + j) % 3 == 0));
    (rbm, probe, service, data)
}

#[test]
fn sample_after_a_shard_train_is_programmed_from_the_reported_version() {
    let (_, probe, service, data) = staleness_fixture();
    assert_eq!(assert_served_from_reported_version(&service, &probe, 0), 1);
    service.train(train_request(data.clone())).unwrap();
    assert_eq!(assert_served_from_reported_version(&service, &probe, 1), 2);
    // Train again, then roll back to the snapshot the replica held just
    // before training: the snapshot is the same `Arc`, but the replica's
    // image is the last mid-training minibatch.
    service.train(train_request(data)).unwrap();
    assert_eq!(service.rollback("m", 2).unwrap(), 4);
    assert_eq!(assert_served_from_reported_version(&service, &probe, 2), 4);
}

#[test]
fn sample_after_a_train_conflict_is_programmed_from_the_reported_version() {
    let (_, probe, service, data) = staleness_fixture();
    assert_eq!(assert_served_from_reported_version(&service, &probe, 0), 1);
    // Inside the training job, republish the very snapshot the replica
    // was programmed from: the publish conflicts, and the current
    // snapshot is the replica's old `Arc` under a new version.
    let registry = service.registry().clone();
    probe.arm(move || {
        registry.rollback("m", 1).unwrap();
    });
    assert!(matches!(
        service.train(train_request(data)),
        Err(ServeError::TrainConflict { .. })
    ));
    assert_eq!(assert_served_from_reported_version(&service, &probe, 1), 2);
}

#[test]
fn sample_after_rollback_is_programmed_from_the_reported_version() {
    let (rbm, probe, service, _) = staleness_fixture();
    assert_eq!(assert_served_from_reported_version(&service, &probe, 0), 1);
    let mut other = rbm;
    other.weights_mut().mapv_inplace(|w| -w);
    service.registry().publish("m", other).unwrap();
    assert_eq!(assert_served_from_reported_version(&service, &probe, 1), 2);
    assert_eq!(service.rollback("m", 1).unwrap(), 3);
    assert_eq!(assert_served_from_reported_version(&service, &probe, 2), 3);
    // Rolling back to the parameters already programmed skips the host
    // work and still serves them.
    let programs = probe.programs();
    assert_eq!(service.rollback("m", 3).unwrap(), 4);
    assert_eq!(assert_served_from_reported_version(&service, &probe, 3), 4);
    assert_eq!(probe.programs(), programs);
}

#[test]
fn sample_after_restore_chain_rewrites_the_current_version_is_programmed_from_it() {
    let (rbm, probe, service, data) = staleness_fixture();
    service.train(train_request(data)).unwrap();
    assert_eq!(assert_served_from_reported_version(&service, &probe, 0), 2);

    // A restored chain reuses version 2 for different parameters; the
    // new service's replicas are clones of a machine programmed from
    // the old version 2.
    let mut rewritten = rbm.clone();
    rewritten.weights_mut().mapv_inplace(|w| 0.5 * w);
    let registry = ModelRegistry::new();
    registry
        .restore_chain("m", vec![(1, Arc::new(rbm)), (2, Arc::new(rewritten))])
        .unwrap();
    let mut programmed = probe.clone_boxed();
    program_from(&mut *programmed, &service.registry().get("m").unwrap().rbm);
    let restored = SamplingService::builder()
        .shards(1)
        .registry(registry)
        .build();
    restored.provision_model("m", programmed).unwrap();
    assert_eq!(assert_served_from_reported_version(&restored, &probe, 1), 2);
}
