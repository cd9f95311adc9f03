//! The three workloads and the run every one of them goes through: set
//! the rig up several times (reporting the median set-up time), run the
//! main phase at the workload's nominal load in consecutive windows with
//! train-and-publish rounds between or beside them, on `http-interactive`
//! climb an ascending ladder of fixed open-loop rates until the tail
//! latency misses its limit (`slo_rps`), replay the kept responses
//! against the offline oracle and check the accounting of every phase.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use ember::core::BitMatrix;
use ember::http::{proto, Client, ClientError, SampleOptions, Server, ServerConfig};
use ember::rbm::CdTrainer;
use ember::serve::{
    ModelRegistry, SampleRequest, SamplingService, ServeError, ServiceStats, ShardStats,
    TrainRequest,
};

use crate::clock;
use crate::load::{self, Fail, Latencies, Phase, Sample, Tally};
use crate::rig::{self, Check, Inputs, Store, MODEL, SHARDS, TRAIN_BATCH, TRAIN_ROWS};
use crate::stats;
use crate::trace;

/// Times the rig is set up per run; `setup_s` is the median.
const SETUP_REPS: usize = 15;
/// Consecutive windows of the main phase; per-window figures are
/// reported as their median.
const WINDOWS: u64 = 6;
/// Every `CHECK_EVERY`-th response of an untraced run is replayed
/// against the oracle (every response of a traced run).
const CHECK_EVERY: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HttpInteractive,
    InprocBulk,
    TrainPublish,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HttpInteractive,
        Workload::InprocBulk,
        Workload::TrainPublish,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HttpInteractive => "http-interactive",
            Workload::InprocBulk => "inproc-bulk",
            Workload::TrainPublish => "train-publish",
        }
    }
}

#[derive(Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The service-side view of a workload's main phase, for the traced
/// run's per-layer metrics.
#[derive(Debug)]
pub struct Feed {
    pub service_p50_ms: f64,
    pub service_p99_ms: f64,
    pub coalesced_rows: f64,
    pub busy_frac: f64,
    pub rejected: u64,
    pub shed: u64,
    pub host_words_per_row: f64,
    pub lag_p50_ms: f64,
    pub lag_tail_ms: f64,
}

/// What one workload run measured.
pub struct Run {
    pub e2e: Vec<Metric>,
    pub feed: Feed,
    pub phases: Vec<Phase>,
    pub lines: Vec<String>,
}

impl Run {
    /// Responses the oracle replayed.
    pub fn checked(&self) -> usize {
        self.phases.iter().map(|p| p.replayed).sum()
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.tally.sent).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.tally.failures()).sum()
    }

    pub fn mismatches(&self) -> u64 {
        self.phases.iter().map(|p| p.tally.failed[4]).sum()
    }

    pub fn exact(&self) -> bool {
        self.phases.iter().all(Phase::exact)
    }
}

/// Share of a run's seconds spent in the main phase of a workload with a
/// ladder, and in each ladder rung; a workload without a ladder spends
/// all of them in its main phase.
const MAIN_SHARE: f64 = 0.65;
const RUNG_SHARE: f64 = 0.05;
/// Ratio between consecutive ladder rates, and the most rungs climbed.
const LADDER_STEP: f64 = 1.25;
const MAX_RUNGS: u64 = 8;

/// The ascending ladder of fixed open-loop rates behind `slo_rps`.
struct Ladder {
    /// The lowest rate (requests per second).
    first_rate: f64,
    /// The latency limit on the tail percentile.
    slo_ms: f64,
}

/// Phase ids: they seed the arrival schedules and the request seeds.
const PHASE_MAIN: u64 = 100;
const PHASE_PUBLISH: u64 = 200;
const PHASE_RUNG: u64 = 300;

pub fn run(workload: Workload, inputs: &Inputs, seconds: f64, check_all: bool) -> Run {
    let every = if check_all { 1 } else { CHECK_EVERY };
    match workload {
        Workload::HttpInteractive => drive::<HttpRig>(inputs, seconds, every),
        Workload::InprocBulk => drive::<BulkRig>(inputs, seconds, every),
        Workload::TrainPublish => drive::<TrainRig>(inputs, seconds, every),
    }
}

/// Train-and-publish rounds: each round's latency (submit to published
/// and sealed), the tally, and trained rows per second of rounds.
#[derive(Default)]
struct Publish {
    ms: Vec<f64>,
    tally: Tally,
    rows_per_s: Vec<f64>,
}

impl Publish {
    /// Runs back-to-back rounds `first..` while `more()` holds. Each
    /// round's input is built by `prepare` before its timing starts, so
    /// only the submit, the train, the publish and the seal are timed.
    fn rounds<T>(
        first: usize,
        mut more: impl FnMut(usize) -> bool,
        prepare: impl Fn(usize) -> T,
        round: impl Fn(usize, T) -> Result<u64, Fail>,
    ) -> Publish {
        let mut p = Publish::default();
        let mut timed = Duration::ZERO;
        let mut j = first;
        while more(j - first) {
            let input = prepare(j);
            let t = Instant::now();
            let outcome = trace::span("publish.round", j as u64, || round(j, input));
            let elapsed = t.elapsed();
            timed += elapsed;
            p.ms.push(load::ms(elapsed));
            p.tally.add(TRAIN_ROWS, outcome.err());
            j += 1;
        }
        if !timed.is_zero() {
            p.rows_per_s.push(p.tally.rows as f64 / timed.as_secs_f64());
        }
        p
    }

    fn merge(&mut self, other: Publish) {
        self.ms.extend(other.ms);
        self.tally.merge(&other.tally);
        self.rows_per_s.extend(other.rows_per_s);
    }
}

/// One stretch of load at one setting.
struct Part {
    samples: Vec<Sample>,
    delta: Delta,
    kept: Kept,
    publish: Option<Publish>,
}

/// A served system the workloads drive.
trait Rig: Sized {
    /// The ladder behind `slo_rps`, on the one workload that has it.
    const LADDER: Option<Ladder> = None;
    /// Train-and-publish rounds after each main window (0 when the main
    /// phase trains beside its reads).
    const ROUNDS_PER_WINDOW: usize;
    /// One train-and-seal round's input, built before the round is timed.
    type Train;

    fn new(inputs: &Inputs) -> Self;
    fn stop(self);
    fn stats(&self) -> ServiceStats;
    /// Offers the workload's requests for `span`: at its nominal load
    /// when `rate` is `None`, else (only on a rig with a ladder) as an
    /// open loop at `rate`.
    fn part(
        &self,
        inputs: &Inputs,
        id: u64,
        rate: Option<f64>,
        span: Duration,
        every: usize,
    ) -> Part;
    /// The input of train-and-seal round `j`.
    fn prepare_train(&self, inputs: &Inputs, j: usize) -> Self::Train;
    /// One train-and-seal round; returns the published version.
    fn train_and_seal(&self, j: usize, train: Self::Train) -> Result<u64, Fail>;
}

/// Back-to-back train-and-seal rounds `first..` on `rig` while `more()`
/// holds.
fn publish_rounds<R: Rig>(
    rig: &R,
    inputs: &Inputs,
    first: usize,
    more: impl FnMut(usize) -> bool,
) -> Publish {
    Publish::rounds(
        first,
        more,
        |j| rig.prepare_train(inputs, j),
        |j, train| rig.train_and_seal(j, train),
    )
}

fn drive<R: Rig>(inputs: &Inputs, seconds: f64, every: usize) -> Run {
    let (setup_s, rig) = set_up(|| R::new(inputs), R::stop);
    let mut phases = Vec::new();

    // Main phase, in windows; publish rounds between the windows.
    let main_share = if R::LADDER.is_some() { MAIN_SHARE } else { 1.0 };
    let window = Duration::from_secs_f64(seconds * main_share / WINDOWS as f64);
    let trained_before = train_requests(&rig.stats());
    let mut publish = Publish::default();
    let mut main = Vec::new();
    let mut gauges = Vec::new();
    let mut early_replays = 0;
    for w in 0..WINDOWS {
        gauges.push(format!("{:.2}", clock::host_gauge_ms()));
        let mut part = rig.part(inputs, PHASE_MAIN + w, None, window, every);
        part.kept.replay(inputs);
        early_replays += part.kept.early;
        publish.merge(part.publish.take().unwrap_or_else(|| {
            let first = w as usize * R::ROUNDS_PER_WINDOW;
            publish_rounds(&rig, inputs, first, |n| n < R::ROUNDS_PER_WINDOW)
        }));
        main.push(part);
    }
    let trained = train_requests(&rig.stats()) - trained_before;
    let per_window =
        |f: &dyn Fn(&Part) -> f64| stats::median(&main.iter().map(f).collect::<Vec<_>>());
    let p50_ms = per_window(&|p| Latencies::of(&p.samples).p50());
    let p99_ms = per_window(&|p| Latencies::of(&p.samples).tail().value);
    let rows_per_s = per_window(&|p| rows(p) / p.delta.wall.as_secs_f64());
    let cpu_us_per_row = per_window(&|p| p.delta.cpu.as_secs_f64() * 1e6 / rows(p).max(1.0));
    let pooled: Vec<Sample> = main.iter().flat_map(|p| p.samples.clone()).collect();
    let main_lat = Latencies::of(&pooled);
    let feed = Delta::feed(
        &main.iter().map(|p| &p.delta).collect::<Vec<_>>(),
        &main_lat,
    );
    let window_tails: Vec<String> = main
        .iter()
        .map(|p| Latencies::of(&p.samples).tail().to_string())
        .collect();
    phases.push(checked_phase(
        "main".into(),
        &main.iter().collect::<Vec<_>>(),
        every,
    ));
    phases.push(Phase {
        name: "main publish".into(),
        tally: publish.tally.clone(),
        served: trained,
        replayed: 0,
        to_replay: 0,
    });

    // Ladder: ascend until two rungs in a row miss the limit, so that
    // one disturbed rung does not end the climb.
    let rung_span = Duration::from_secs_f64(seconds * RUNG_SHARE);
    let mut rungs: Vec<stats::Rung> = Vec::new();
    if let Some(ladder) = &R::LADDER {
        let mut rate = ladder.first_rate;
        for r in 0..MAX_RUNGS {
            let mut part = rig.part(inputs, PHASE_RUNG + r, Some(rate), rung_span, every);
            rungs.push(Latencies::of(&part.samples).rung(rate, &part.samples));
            part.kept.replay(inputs);
            early_replays += part.kept.early;
            phases.push(checked_phase(
                format!("ladder {rate:.0}/s"),
                &[&part],
                every,
            ));
            if rungs.len() >= 2
                && rungs[rungs.len() - 2..]
                    .iter()
                    .all(|r| !r.meets(ladder.slo_ms))
            {
                break;
            }
            rate *= LADDER_STEP;
        }
    }
    let peak_rss_mb = clock::peak_rss_mb();
    rig.stop();

    let e2e = E2e {
        setup_s,
        p50_ms,
        p99_ms,
        slo_rps: R::LADDER
            .as_ref()
            .map(|l| stats::slo_rate(&rungs, l.slo_ms)),
        rows_per_s,
        cpu_us_per_row,
        train_rows_per_s: stats::median(&publish.rows_per_s),
        publish_p50_ms: stats::median(&publish.ms),
        peak_rss_mb,
    };
    let mut lines = vec![
        format!(
            "  main latency: median of window p50s = {p50_ms:.3} ms; pooled {}",
            main_lat.tail()
        ),
        format!("  window tails: {}", window_tails.join("; ")),
        format!("  host gauge before each window (ms): {}", gauges.join(" ")),
        format!(
            "  generator lag: p50 = {:.3} ms, {}",
            main_lat.lag_p50(),
            main_lat.lag_tail()
        ),
    ];
    if let Some(ladder) = &R::LADDER {
        for r in &rungs {
            lines.push(format!(
                "  ladder {:>7.1}/s: {} failed {}{}",
                r.rate,
                r.tail,
                r.failed,
                if r.meets(ladder.slo_ms) {
                    ""
                } else {
                    "  (misses the limit)"
                }
            ));
        }
        lines.push(format!(
            "  slo_rps: highest rate with tail <= {} ms and no failures = {:.1}/s",
            ladder.slo_ms,
            e2e.slo_rps.unwrap_or_default()
        ));
    }
    lines.push(format!(
        "  publish: {} rounds, p50 = {:.3} ms",
        publish.ms.len(),
        e2e.publish_p50_ms
    ));
    let kept = if every == 1 {
        "every".to_string()
    } else {
        format!("every {every}th")
    };
    lines.push(format!(
        "  oracle: {kept} answered response replayed; {early_replays} replays ran inside a window \
         (at {MAX_KEPT_VERSIONS} held versions)"
    ));
    lines.extend(phases.iter().map(Phase::line));
    Run {
        e2e: e2e.metrics(),
        feed,
        phases,
        lines,
    }
}

/// A finished phase: the tally of its parts with the oracle's mismatches
/// folded in, and the oracle's coverage of them.
fn checked_phase(name: String, parts: &[&Part], every: usize) -> Phase {
    let mut tally = Tally::default();
    for p in parts {
        tally.merge(&Tally::of(&p.samples));
    }
    tally.mismatched(parts.iter().map(|p| p.kept.mismatched).sum());
    Phase {
        name,
        tally,
        served: parts.iter().map(|p| p.delta.sample_requests).sum(),
        replayed: parts.iter().map(|p| p.kept.replayed).sum(),
        // Request `i` of a part is kept when `i` is a multiple of `every`
        // (see `rid`) and it was answered.
        to_replay: parts
            .iter()
            .flat_map(|p| p.samples.iter().step_by(every))
            .filter(|s| s.fail.is_none())
            .count(),
    }
}

fn rows(part: &Part) -> f64 {
    part.samples.iter().map(|s| s.rows as f64).sum()
}

fn train_requests(stats: &ServiceStats) -> u64 {
    stats.shards.iter().map(|s| s.train_requests).sum()
}

/// Sets the rig up `SETUP_REPS` times, tearing all but the last down;
/// returns the median set-up seconds and the last rig.
fn set_up<R>(mut make: impl FnMut() -> R, mut stop: impl FnMut(R)) -> (f64, R) {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(rig) = last.take() {
            stop(rig);
        }
        let t = Instant::now();
        last = Some(make());
        secs.push(t.elapsed().as_secs_f64());
    }
    (stats::median(&secs), last.expect("at least one set-up"))
}

/// The end-to-end metrics every workload reports, in one place.
struct E2e {
    setup_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    /// Only on the workload with a ladder.
    slo_rps: Option<f64>,
    rows_per_s: f64,
    cpu_us_per_row: f64,
    train_rows_per_s: f64,
    publish_p50_ms: f64,
    peak_rss_mb: f64,
}

impl E2e {
    fn metrics(&self) -> Vec<Metric> {
        let m = |name: &str, value, unit| Metric {
            name: name.to_string(),
            value,
            unit,
        };
        [
            Some(m("setup_s", self.setup_s, "s")),
            Some(m("p50_ms", self.p50_ms, "ms")),
            Some(m("p99_ms", self.p99_ms, "ms")),
            self.slo_rps.map(|v| m("slo_rps", v, "1/s")),
            Some(m("rows_per_s", self.rows_per_s, "1/s")),
            Some(m("cpu_us_per_row", self.cpu_us_per_row, "us")),
            Some(m("train_rows_per_s", self.train_rows_per_s, "1/s")),
            Some(m("publish_p50_ms", self.publish_p50_ms, "ms")),
            Some(m("peak_rss_mb", self.peak_rss_mb, "MiB")),
        ]
        .into_iter()
        .flatten()
        .collect()
    }
}

// ---------------------------------------------------------------------
// Windows over the service's own counters

/// Service counters and clocks at the start of a window.
struct Window {
    wall: Instant,
    cpu: Duration,
    stats: ServiceStats,
}

/// What changed over a window.
struct Delta {
    wall: Duration,
    cpu: Duration,
    sample_requests: u64,
    rows: u64,
    batches: u64,
    busy_nanos: u64,
    rejected: u64,
    shed: u64,
    host_words: u64,
    end: ServiceStats,
}

impl Window {
    fn open(stats: ServiceStats) -> Window {
        Window {
            wall: Instant::now(),
            cpu: clock::process_cpu(),
            stats,
        }
    }

    fn close(self, end: ServiceStats) -> Delta {
        let wall = self.wall.elapsed();
        let cpu = clock::process_cpu() - self.cpu;
        let sum =
            |s: &ServiceStats, f: fn(&ShardStats) -> u64| -> u64 { s.shards.iter().map(f).sum() };
        let d = |f: fn(&ShardStats) -> u64| sum(&end, f) - sum(&self.stats, f);
        let refused = |s: &ServiceStats| s.rejected + s.admission_rejected;
        Delta {
            wall,
            cpu,
            sample_requests: d(|s| s.sample_requests),
            rows: d(|s| s.rows),
            batches: d(|s| s.batches),
            busy_nanos: d(|s| s.busy_nanos),
            rejected: refused(&end) - refused(&self.stats),
            shed: d(|s| s.shed_requests) + end.shed_bulk - self.stats.shed_bulk,
            host_words: d(|s| s.counters.host_words_transferred),
            end,
        }
    }
}

impl Delta {
    /// The service-side view over consecutive windows.
    fn feed(deltas: &[&Delta], lat: &Latencies) -> Feed {
        let total = |f: fn(&Delta) -> u64| -> u64 { deltas.iter().map(|d| f(d)).sum() };
        let wall: f64 = deltas.iter().map(|d| d.wall.as_secs_f64()).sum();
        let hist = deltas.last().expect("a window").end.latency();
        Feed {
            service_p50_ms: load::ms(hist.p50()),
            service_p99_ms: load::ms(hist.p99()),
            coalesced_rows: total(|d| d.rows) as f64 / total(|d| d.batches).max(1) as f64,
            busy_frac: total(|d| d.busy_nanos) as f64 / (SHARDS as f64 * wall * 1e9),
            rejected: total(|d| d.rejected),
            shed: total(|d| d.shed),
            host_words_per_row: total(|d| d.host_words) as f64 / total(|d| d.rows).max(1) as f64,
            lag_p50_ms: lat.lag_p50(),
            lag_tail_ms: lat.lag_tail().value,
        }
    }
}

fn schedule(inputs: &Inputs, phase: u64, rate: f64, span: Duration) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(inputs.seed ^ (phase << 32));
    load::poisson(rate, span, &mut rng)
}

/// The id of request `i` of a phase: unique within a run, shared by the
/// spans of that request, and congruent to `i` modulo 10.
fn rid(phase: u64, i: usize) -> u64 {
    phase * 1_000_000 + i as u64
}

/// Model versions whose responses one part holds for the oracle at once.
/// Each held version keeps its parameters (1.25 MB at 784×200) alive
/// until its responses are replayed, so a response of one version more
/// first replays and releases what is held: the benchmark's own memory
/// then does not grow with the publish rate it is measuring. Only
/// `train-publish`, which publishes during its windows, reaches the cap;
/// those replays run inside the window and the run prints their number.
const MAX_KEPT_VERSIONS: usize = 8;

/// The responses one part keeps for the oracle, and what replaying them
/// found.
#[derive(Default)]
struct Kept {
    held: Vec<Check>,
    replayed: usize,
    mismatched: u64,
    /// Replays run inside the part because the held versions hit the cap.
    early: usize,
}

impl Kept {
    /// Keeps request `rid`'s response when `rid` is a multiple of
    /// `every`.
    fn keep(
        kept: &Mutex<Kept>,
        inputs: &Inputs,
        rid: u64,
        every: usize,
        capture: impl FnOnce() -> Result<Check, Fail>,
    ) -> Result<(), Fail> {
        if !rid.is_multiple_of(every as u64) {
            return Ok(());
        }
        let check = trace::span("oracle.capture", rid, capture)?;
        let mut kept = kept.lock().expect("check lock");
        if !kept.holds(&check.model) && kept.versions() >= MAX_KEPT_VERSIONS {
            kept.replay(inputs);
            kept.early += 1;
        }
        kept.held.push(check);
        Ok(())
    }

    fn holds(&self, model: &Arc<ember::rbm::Rbm>) -> bool {
        self.held.iter().any(|c| Arc::ptr_eq(&c.model, model))
    }

    fn versions(&self) -> usize {
        let mut seen: Vec<&Arc<ember::rbm::Rbm>> = Vec::new();
        for c in &self.held {
            if !seen.iter().any(|m| Arc::ptr_eq(m, &c.model)) {
                seen.push(&c.model);
            }
        }
        seen.len()
    }

    /// Replays the held responses and releases them.
    fn replay(&mut self, inputs: &Inputs) {
        let held = std::mem::take(&mut self.held);
        self.mismatched += rig::replay(inputs, &held);
        self.replayed += held.len();
    }
}

fn serve_fail(e: &ServeError) -> Fail {
    match e {
        ServeError::QueueFull { .. } | ServeError::Overloaded { .. } => Fail::Refused,
        ServeError::DeadlineExceeded => Fail::Shed,
        _ => Fail::Error,
    }
}

fn client_fail(e: &ClientError) -> Fail {
    match e.status() {
        Some(429) => Fail::Refused,
        Some(504) => Fail::Shed,
        _ => Fail::Error,
    }
}

/// A single-row, k=1 request clamped to an MNIST-like image.
fn read_request(inputs: &Inputs, phase: u64, i: usize) -> SampleRequest {
    SampleRequest::new(MODEL)
        .with_clamp(inputs.clamp(i).clone())
        .with_seed(inputs.request_seed(phase, i))
}

fn train_request(inputs: &Inputs, j: usize) -> TrainRequest {
    TrainRequest::new(MODEL, inputs.train_data(j))
        .with_trainer(CdTrainer::new(1, 0.05))
        .with_batch_size(TRAIN_BATCH)
        .with_epochs(1)
        .with_seed(inputs.request_seed(PHASE_PUBLISH, j))
}

// ---------------------------------------------------------------------
// http-interactive: open-loop single-row reads over loopback HTTP

/// Nominal offered load of `http-interactive` (requests per second).
const HTTP_RPS: f64 = 200.0;
/// Generator threads, each holding at most one connection.
const HTTP_CONNECTIONS: usize = 2;

struct HttpRig {
    server: Server,
    client: Client,
    registry: ModelRegistry,
    _store: Store,
}

impl HttpRig {
    /// One request over the binary wire (binary clamp up, packed bits
    /// down), on its own connection.
    fn sample(
        &self,
        inputs: &Inputs,
        phase: u64,
        i: usize,
        kept: &Mutex<Kept>,
        every: usize,
    ) -> Result<usize, Fail> {
        let request = read_request(inputs, phase, i);
        let options = SampleOptions::new()
            .samples(1)
            .gibbs_steps(1)
            .seed(request.seed.expect("seeded"))
            .clamp(inputs.clamp(i).iter().copied().collect::<Vec<f64>>())
            .binary_clamp(true);
        let reply = trace::span("http.client.sample_binary", rid(phase, i), || {
            self.client.sample_binary(MODEL, &options)
        })
        .map_err(|e| client_fail(&e))?;
        let version = reply.samples.header.model_version;
        let rows = reply.samples.bits.nrows();
        Kept::keep(kept, inputs, rid(phase, i), every, || {
            Check::capture(&self.registry, request, version, reply.samples.bits)
        })?;
        Ok(rows)
    }
}

impl Rig for HttpRig {
    const LADDER: Option<Ladder> = Some(Ladder {
        first_rate: 400.0,
        slo_ms: 20.0,
    });
    const ROUNDS_PER_WINDOW: usize = 2;
    /// The JSON body of `POST /v1/models/{MODEL}/train`.
    type Train = Vec<u8>;

    fn new(inputs: &Inputs) -> HttpRig {
        let service = inputs.service();
        let registry = service.registry().clone();
        let store = Store::new(&registry);
        // As many connection workers as the generator has connections:
        // more would sit idle, and each one that parses a training body
        // keeps that memory in its own allocator arena.
        let config = ServerConfig::default()
            .with_workers(HTTP_CONNECTIONS)
            .with_persistence(Arc::clone(&store.daemon));
        let server =
            Server::start_with_config("127.0.0.1:0", service, config).expect("bind loopback");
        let client = Client::new(server.addr());
        let rig = HttpRig {
            server,
            client,
            registry,
            _store: store,
        };
        rig.sample(inputs, 0, 1, &Mutex::default(), usize::MAX)
            .expect("warm-up request");
        rig
    }

    fn stop(self) {
        self.server.shutdown(Duration::from_secs(10));
    }

    fn stats(&self) -> ServiceStats {
        self.client.stats().expect("GET /v1/stats")
    }

    fn part(
        &self,
        inputs: &Inputs,
        id: u64,
        rate: Option<f64>,
        span: Duration,
        every: usize,
    ) -> Part {
        let offsets = schedule(inputs, id, rate.unwrap_or(HTTP_RPS), span);
        let kept = Mutex::default();
        let window = Window::open(self.stats());
        let samples = load::open_loop(&offsets, HTTP_CONNECTIONS, |i| {
            self.sample(inputs, id, i, &kept, every)
        });
        Part {
            samples,
            delta: window.close(self.stats()),
            kept: kept.into_inner().expect("check lock"),
            publish: None,
        }
    }

    /// CD-1, batch 64, one epoch over the `j`-th window, as JSON.
    fn prepare_train(&self, inputs: &Inputs, j: usize) -> Vec<u8> {
        let request = train_request(inputs, j);
        let mut body = String::from("{\"data\":[");
        for (r, row) in request.data.rows().enumerate() {
            body.push_str(if r == 0 { "[" } else { ",[" });
            let cells: Vec<String> = row.iter().map(f64::to_string).collect();
            body.push_str(&cells.join(","));
            body.push(']');
        }
        body.push_str(&format!(
            "],\"cd_k\":1,\"batch_size\":{TRAIN_BATCH},\"epochs\":1,\"seed\":{}}}",
            request.seed.expect("seeded")
        ));
        body.into_bytes()
    }

    /// `POST /v1/models/{MODEL}/train`, then `POST /v1/admin/snapshot`.
    fn train_and_seal(&self, _j: usize, body: Vec<u8>) -> Result<u64, Fail> {
        let reply = post_json(
            self.server.addr(),
            &format!("/v1/models/{MODEL}/train"),
            &body,
        )?;
        let version = parse_field(&reply, "new_version").ok_or(Fail::Error)?;
        if parse_field(&reply, "batches") != Some((TRAIN_ROWS / TRAIN_BATCH) as u64) {
            return Err(Fail::Error);
        }
        self.client.snapshot().map_err(|e| client_fail(&e))?;
        Ok(version)
    }
}

/// One JSON POST on its own connection; the reply body on 2xx.
fn post_json(addr: SocketAddr, path: &str, body: &[u8]) -> Result<String, Fail> {
    let io = |_| Fail::Error;
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(io)?;
    stream.write_all(body).map_err(io)?;
    let response = proto::read_response(&mut BufReader::new(stream)).map_err(io)?;
    match response.status {
        200..=299 => String::from_utf8(response.body).map_err(|_| Fail::Error),
        429 => Err(Fail::Refused),
        _ => Err(Fail::Error),
    }
}

/// An unsigned integer field of a flat JSON object.
fn parse_field(json: &str, field: &str) -> Option<u64> {
    let key = format!("\"{field}\":");
    let rest = json[json.find(&key)? + key.len()..].trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

// ---------------------------------------------------------------------
// In-process rigs

/// A 2-shard service in process, sealing to a temporary `DiskDir`.
struct Inproc {
    service: SamplingService,
    store: Store,
}

impl Inproc {
    fn new(inputs: &Inputs) -> Inproc {
        let service = inputs.service();
        let store = Store::new(service.registry());
        service
            .sample(read_request(inputs, 0, 0))
            .expect("warm-up request");
        Inproc { service, store }
    }

    fn stop(self) {
        self.service.shutdown(Duration::from_secs(10));
    }

    /// Trains on one 512-row window (CD-1, batch 64, one epoch), which
    /// publishes a new version, then seals it durably.
    fn train_and_seal(&self, j: usize, request: TrainRequest) -> Result<u64, Fail> {
        let reply = trace::span("serve.service.train", j as u64, || {
            self.service.train(request)
        })
        .map_err(|e| serve_fail(&e))?;
        trace::span("store.daemon.snapshot_now", j as u64, || {
            self.store.daemon.snapshot_now()
        })
        .map_err(|_| Fail::Error)?;
        Ok(reply.new_version)
    }

    /// Keeps a response for the oracle, packed.
    fn keep(
        &self,
        inputs: &Inputs,
        kept: &Mutex<Kept>,
        rid: u64,
        every: usize,
        request: SampleRequest,
        reply: &ember::serve::SampleResponse,
    ) -> Result<(), Fail> {
        Kept::keep(kept, inputs, rid, every, || {
            let bits = BitMatrix::from_batch(&reply.samples).ok_or(Fail::Error)?;
            Check::capture(self.service.registry(), request, reply.model_version, bits)
        })
    }
}

// ---------------------------------------------------------------------
// inproc-bulk: 64-row k=5 requests, 8 in flight

const BULK_IN_FLIGHT: usize = 8;
const BULK_ROWS: usize = 64;
const BULK_STEPS: usize = 5;

struct BulkRig(Inproc);

fn bulk_request(inputs: &Inputs, phase: u64, i: usize) -> SampleRequest {
    SampleRequest::new(MODEL)
        .with_samples(BULK_ROWS)
        .with_gibbs_steps(BULK_STEPS)
        .with_seed(inputs.request_seed(phase, i))
}

impl Rig for BulkRig {
    const ROUNDS_PER_WINDOW: usize = 2;
    type Train = TrainRequest;

    fn new(inputs: &Inputs) -> BulkRig {
        BulkRig(Inproc::new(inputs))
    }

    fn stop(self) {
        self.0.stop();
    }

    fn stats(&self) -> ServiceStats {
        self.0.service.stats()
    }

    /// Closed loop: a slot is refilled as soon as it frees.
    fn part(
        &self,
        inputs: &Inputs,
        id: u64,
        rate: Option<f64>,
        span: Duration,
        every: usize,
    ) -> Part {
        assert!(rate.is_none(), "inproc-bulk has no ladder");
        let rig = &self.0;
        let kept = Mutex::default();
        let window = Window::open(self.stats());
        let samples = load::pipelined(
            Instant::now() + span,
            BULK_IN_FLIGHT,
            |i| {
                trace::span("serve.service.submit", rid(id, i), || {
                    rig.service.submit(bulk_request(inputs, id, i))
                })
                .map_err(|e| serve_fail(&e))
            },
            |i, handle| {
                let reply = trace::span("serve.service.wait", rid(id, i), || handle.wait())
                    .map_err(|e| serve_fail(&e))?;
                rig.keep(
                    inputs,
                    &kept,
                    rid(id, i),
                    every,
                    bulk_request(inputs, id, i),
                    &reply,
                )?;
                Ok(reply.samples.nrows())
            },
        );
        Part {
            samples,
            delta: window.close(self.stats()),
            kept: kept.into_inner().expect("check lock"),
            publish: None,
        }
    }

    fn prepare_train(&self, inputs: &Inputs, j: usize) -> TrainRequest {
        train_request(inputs, j)
    }

    fn train_and_seal(&self, j: usize, request: TrainRequest) -> Result<u64, Fail> {
        self.0.train_and_seal(j, request)
    }
}

// ---------------------------------------------------------------------
// train-publish: reads beside back-to-back train-and-seal rounds

/// Nominal read rate of `train-publish` (requests per second).
const READ_RPS: f64 = 100.0;

struct TrainRig(Inproc);

impl Rig for TrainRig {
    const ROUNDS_PER_WINDOW: usize = 0;
    type Train = TrainRequest;

    fn new(inputs: &Inputs) -> TrainRig {
        TrainRig(Inproc::new(inputs))
    }

    fn stop(self) {
        self.0.stop();
    }

    fn stats(&self) -> ServiceStats {
        self.0.service.stats()
    }

    /// Open-loop single-row reads on one thread while a second thread
    /// runs train-and-seal rounds until the reads are done.
    fn part(
        &self,
        inputs: &Inputs,
        id: u64,
        rate: Option<f64>,
        span: Duration,
        every: usize,
    ) -> Part {
        assert!(rate.is_none(), "train-publish has no ladder");
        let rig = &self.0;
        let offsets = schedule(inputs, id, READ_RPS, span);
        let kept = Mutex::default();
        let done = AtomicBool::new(false);
        let window = Window::open(self.stats());
        let (samples, publish) = std::thread::scope(|scope| {
            let trainer = scope.spawn(|| {
                let first = id as usize * 1000;
                publish_rounds(self, inputs, first, |_| !done.load(Ordering::Relaxed))
            });
            let samples = load::open_loop(&offsets, 1, |i| {
                let request = read_request(inputs, id, i);
                let reply = trace::span("serve.service.sample", rid(id, i), || {
                    rig.service.sample(request.clone())
                })
                .map_err(|e| serve_fail(&e))?;
                rig.keep(inputs, &kept, rid(id, i), every, request, &reply)?;
                Ok(reply.samples.nrows())
            });
            done.store(true, Ordering::Relaxed);
            (samples, trainer.join().expect("trainer thread"))
        });
        Part {
            samples,
            delta: window.close(self.stats()),
            kept: kept.into_inner().expect("check lock"),
            publish: Some(publish),
        }
    }

    fn prepare_train(&self, inputs: &Inputs, j: usize) -> TrainRequest {
        train_request(inputs, j)
    }

    fn train_and_seal(&self, j: usize, request: TrainRequest) -> Result<u64, Fail> {
        self.0.train_and_seal(j, request)
    }
}
