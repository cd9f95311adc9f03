//! Per-layer probes of the traced run: each times one public call of a
//! layer in isolation, on the workload's seeded inputs, and reports the
//! median per call from `Instant`. The probes also print the ROADMAP
//! baseline table side by side with what they measured.

use std::hint::black_box;
use std::io::BufReader;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ndarray::Array2;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use ember::core::{kernels, BitMatrix, GsConfig, SoftwareGibbs, Substrate};
use ember::http::{proto, wire, Client, Server};
use ember::rbm::CdTrainer;
use ember::serve::{batch, ModelRegistry, SampleRequest, SamplingService};
use ember::store::{format, ModelChainImage, RegistryImage, SnapshotStore};

use crate::clock;
use crate::rig::{Inputs, TempDir, HISTORY, MODEL, SHARDS, TRAIN_BATCH};
use crate::stats;
use crate::workloads::Metric;

/// Calls `f` once to warm up, then at least `reps` times and for at
/// least [`PROBE_SPAN`] (so a short disturbance of the host cannot carry
/// the median); returns the median wall time of one call in microseconds.
fn per_call_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let start = Instant::now();
    let mut us = Vec::new();
    while us.len() < reps || (start.elapsed() < PROBE_SPAN && us.len() < 100_000) {
        let t = Instant::now();
        black_box(f());
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    stats::median(&us)
}

const PROBE_SPAN: Duration = Duration::from_millis(150);

fn lanes(rngs: &mut [StdRng]) -> Vec<&mut dyn RngCore> {
    rngs.iter_mut().map(|r| r as &mut dyn RngCore).collect()
}

fn rngs(seed: u64, n: usize) -> Vec<StdRng> {
    (0..n)
        .map(|i| StdRng::seed_from_u64(seed + i as u64))
        .collect()
}

/// Every probe's result, named as in `BENCHMARK.json`.
pub struct Probes {
    pub metrics: Vec<Metric>,
    pub baseline: Vec<String>,
}

pub fn probe(inputs: &Inputs) -> Probes {
    let mut out: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        out.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
        value
    };
    let rbm = &inputs.rbm;
    let (w, vb, hb) = (rbm.weights(), rbm.visible_bias(), rbm.hidden_bias());

    // --- ember_core / ember_substrate: one programmed software substrate.
    let mut sub = SoftwareGibbs::new(
        rbm.visible_len(),
        rbm.hidden_len(),
        &GsConfig::default(),
        &mut StdRng::seed_from_u64(inputs.seed ^ 0xFAB),
    );
    let program_ms = put(
        "substrate.program_ms",
        per_call_us(20, || sub.try_program(&w.view(), &vb.view(), &hb.view())) / 1e3,
        "ms",
    );
    let bulk_rows: Vec<batch::ChainRequest> = batch::expand_request(
        &SampleRequest::new(MODEL)
            .with_samples(64)
            .with_gibbs_steps(5),
        inputs.seed,
    );
    let v64 = batch::sample_rows(&mut sub, &bulk_rows, 1);
    let h64 = sub.sample_hidden_batch_rows(&v64, &mut lanes(&mut rngs(inputs.seed, 64)));
    let hidden_us = put(
        "substrate.hidden_half_us",
        per_call_us(30, || {
            sub.sample_hidden_batch_rows(&v64, &mut lanes(&mut rngs(inputs.seed, 64)))
        }),
        "us",
    );
    let visible_us = put(
        "substrate.visible_half_us",
        per_call_us(30, || {
            sub.sample_visible_batch_rows(&h64, &mut lanes(&mut rngs(inputs.seed, 64)))
        }),
        "us",
    );
    let from_v_us = put(
        "kernels.from_batch_us",
        per_call_us(200, || BitMatrix::from_batch(&v64)),
        "us",
    );
    let from_h_us = per_call_us(200, || BitMatrix::from_batch(&h64));
    let (v_bits, h_bits) = (
        BitMatrix::from_batch(&v64).expect("binary states"),
        BitMatrix::from_batch(&h64).expect("binary states"),
    );
    let wp = sub.programmed_weights().clone();
    let wp_t = wp.t().to_owned();
    let gemm_h_us = put(
        "kernels.binary_gemm_us",
        per_call_us(30, || kernels::binary_gemm(&v_bits, &wp, Some(&hb.view()))),
        "us",
    );
    let gemm_v_us = put(
        "kernels.binary_gemm_visible_us",
        per_call_us(30, || {
            kernels::binary_gemm(&h_bits, &wp_t, Some(&vb.view()))
        }),
        "us",
    );
    let latch_us = put(
        "substrate.latch_us",
        (hidden_us - from_v_us - gemm_h_us) + (visible_us - from_h_us - gemm_v_us),
        "us",
    );
    put(
        "substrate.latch_share",
        latch_us / (hidden_us + visible_us),
        "ratio",
    );

    // --- ember_serve::batch on the programmed substrate.
    put(
        "serve.batch.sample_rows_ms",
        per_call_us(8, || batch::try_sample_rows(&mut sub, &bulk_rows, 5)) / 1e3,
        "ms",
    );
    let one_row = batch::expand_request(
        &SampleRequest::new(MODEL).with_clamp(inputs.clamp(0).clone()),
        inputs.seed,
    );
    put(
        "serve.batch.sample_rows_1row_ms",
        per_call_us(100, || batch::try_sample_rows(&mut sub, &one_row, 1)) / 1e3,
        "ms",
    );
    let wave_rows = batch::expand_request(&SampleRequest::new(MODEL).with_samples(64), inputs.seed);
    let wave_ms = put(
        "serve.batch.wave_ms",
        per_call_us(20, || {
            sub.try_program(&w.view(), &vb.view(), &hb.view())
                .and_then(|()| batch::try_sample_rows(&mut sub, &wave_rows, 1))
        }) / 1e3,
        "ms",
    );

    // --- ember_rbm: one CD-1 minibatch of 64 rows through the substrate.
    let data = inputs.train_data(0);
    let batch64 = data.slice(ndarray::s![..TRAIN_BATCH, ..]).to_owned();
    let trainer = CdTrainer::new(1, 0.05);
    let mut rng = StdRng::seed_from_u64(inputs.seed);
    put(
        "rbm.trainer.cd1_batch_ms",
        per_call_us(10, || {
            let mut model = rbm.clone();
            trainer.train_epoch_with(&mut model, &batch64, TRAIN_BATCH, &mut sub, &mut rng)
        }) / 1e3,
        "ms",
    );

    // --- ember_serve::registry and ember_store.
    // A chain as the service retains it, of successively trained versions.
    let registry = ModelRegistry::with_history_limit(HISTORY);
    registry.register(MODEL, rbm.clone()).expect("register");
    let mut model = rbm.clone();
    let publish_us = {
        let us: Vec<f64> = (0..8)
            .map(|_| {
                trainer.train_epoch(&mut model, &batch64, TRAIN_BATCH, &mut rng);
                let next = model.clone();
                let t = Instant::now();
                registry.publish(MODEL, next).expect("publish");
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        stats::median(&us)
    };
    put("serve.registry.publish_us", publish_us, "us");
    let image = RegistryImage {
        sequence: 1,
        models: registry
            .export_chains()
            .into_iter()
            .map(|(name, chain)| ModelChainImage { name, chain })
            .collect(),
    };
    put(
        "store.encode_ms",
        per_call_us(5, || format::encode_registry(&image).expect("encode")) / 1e3,
        "ms",
    );
    let dir = TempDir::new();
    let snapshots = SnapshotStore::open(dir.path()).expect("open store");
    put(
        "store.save_ms",
        per_call_us(5, || snapshots.save(&registry).expect("save")) / 1e3,
        "ms",
    );
    drop(dir);

    // --- ember_serve service on an idle 2-shard service.
    let lone = |retained: bool| {
        let service = SamplingService::builder()
            .shards(SHARDS)
            .program_retention(retained)
            .build();
        service
            .register_model(MODEL, rbm.clone(), inputs.prototype())
            .expect("register");
        let mut i = 0;
        let ms = per_call_us(40, || {
            i += 1;
            service
                .sample(
                    SampleRequest::new(MODEL)
                        .with_clamp(inputs.clamp(i).clone())
                        .with_seed(i as u64),
                )
                .expect("lone sample")
        }) / 1e3;
        (service, ms)
    };
    let (_, lone_retained_ms) = lone(true);
    let (service, lone_ms) = lone(false);
    put("serve.service.lone_ms", lone_ms, "ms");
    put("serve.service.lone_retained_ms", lone_retained_ms, "ms");
    put(
        "serve.service.lone_program_share",
        program_ms / lone_ms,
        "ratio",
    );

    // --- ember_http: edge without service work, the socket, the codecs.
    let server = Server::start("127.0.0.1:0", service).expect("bind loopback");
    let addr = server.addr();
    let client = Client::new(addr);
    let healthz_ms = put(
        "http.server.healthz_ms",
        per_call_us(40, || client.health().expect("healthz")) / 1e3,
        "ms",
    );
    // A fixed count: the server's 128-deep accept backlog, drained every
    // poll, bounds how many connections may be opened back to back.
    let connect_us: Vec<f64> = (0..100)
        .map(|_| {
            let t = Instant::now();
            drop(black_box(TcpStream::connect(addr).expect("connect")));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let connect_us = put("http.client.connect_us", stats::median(&connect_us), "us");
    server.shutdown(Duration::from_secs(10));

    let clamp_row = Array2::from_shape_vec(
        (1, rbm.visible_len()),
        inputs.clamp(0).iter().copied().collect(),
    )
    .expect("one row");
    let body = wire::encode_samples(&clamp_row, 0, 0).expect("binary clamp");
    let mut recorded = format!(
        "POST /v1/models/{MODEL}/sample HTTP/1.1\r\nHost: {addr}\r\nAccept: {mime}\r\n\
         X-Ember-Samples: 1\r\nX-Ember-Gibbs-Steps: 1\r\nX-Ember-Seed: {seed}\r\n\
         Content-Type: {mime}\r\nContent-Length: {len}\r\n\r\n",
        mime = wire::WIRE_MIME,
        seed = inputs.seed,
        len = body.len()
    )
    .into_bytes();
    recorded.extend_from_slice(&body);
    put(
        "http.proto.parse_us",
        per_call_us(500, || {
            proto::read_request(&mut BufReader::new(&recorded[..])).expect("parse")
        }),
        "us",
    );
    let one = v64.slice(ndarray::s![..1, ..]).to_owned();
    let encode_us = put(
        "http.wire.encode_us",
        per_call_us(200, || wire::encode_samples(&v64, 1, 0).expect("encode")),
        "us",
    );
    put(
        "http.wire.encode_1row_us",
        per_call_us(500, || wire::encode_samples(&one, 1, 0).expect("encode")),
        "us",
    );
    let (bytes64, bytes1) = (
        wire::encode_samples(&v64, 1, 0).expect("encode"),
        wire::encode_samples(&one, 1, 0).expect("encode"),
    );
    put(
        "http.wire.decode_us",
        per_call_us(200, || wire::decode(&bytes64).expect("decode")),
        "us",
    );
    put(
        "http.wire.decode_1row_us",
        per_call_us(500, || wire::decode(&bytes1).expect("decode")),
        "us",
    );

    let clock_us = per_call_us(1000, clock::process_cpu);
    let baseline = vec![
        "  ROADMAP baseline, side by side (roadmap value | measured now):".to_string(),
        format!("    lone in-process sample, 2 shards   ~0.93 ms        | {lone_ms:.3} ms"),
        format!(
            "      share that is program            ~90%            | {:.0}% (program {program_ms:.3} ms)",
            100.0 * program_ms / lone_ms
        ),
        format!("      with program_retention(true)     ~0.09 ms        | {lone_retained_ms:.3} ms"),
        format!("    GET /healthz                       ~2.1 ms         | {healthz_ms:.3} ms"),
        format!("    loopback connect + close           20-33 us        | {connect_us:.1} us"),
        format!("    64-row k=1 wave, program included  ~2.9 ms         | {wave_ms:.3} ms"),
        format!(
            "    visible half-step vs its GEMM      1.25 vs 0.52 ms | {:.3} vs {:.3} ms",
            visible_us / 1e3,
            gemm_v_us / 1e3
        ),
        format!("    BitMatrix::from_batch 64x784       ~45 us          | {from_v_us:.1} us"),
        format!("    wire::encode_samples 64x784        ~44 us          | {encode_us:.1} us"),
        format!("    CPU-time clock read                0.24 us         | {clock_us:.3} us (CLOCK_PROCESS_CPUTIME_ID)"),
    ];
    Probes {
        metrics: out,
        baseline,
    }
}
