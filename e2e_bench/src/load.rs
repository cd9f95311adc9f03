//! Load generation: seeded Poisson schedules, an open-loop runner over
//! blocking calls, a closed-loop pipelined runner over submit/wait pairs,
//! and the per-phase accounting of what was sent, what came back and
//! what the oracle replayed.
//!
//! Every open-loop request is timed from the moment it was *due*, so a
//! stall charges the wait it imposes on later requests; how late the
//! generator itself ran is kept as the request's lag.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;

use crate::stats::{self, Rung, Tail};

/// Why a request counts as failed. Every failure also counts as missing
/// any latency limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fail {
    /// Refused by backpressure or admission (429, `QueueFull`,
    /// `Overloaded`).
    Refused,
    /// Shed past its deadline (504, `DeadlineExceeded`).
    Shed,
    /// The generator gave up waiting.
    Timeout,
    /// Any other error.
    Error,
    /// Served, but the output differs from the offline oracle's.
    Mismatch,
}

impl Fail {
    const ALL: [Fail; 5] = [
        Fail::Refused,
        Fail::Shed,
        Fail::Timeout,
        Fail::Error,
        Fail::Mismatch,
    ];

    fn name(self) -> &'static str {
        match self {
            Fail::Refused => "refused",
            Fail::Shed => "shed",
            Fail::Timeout => "timeout",
            Fail::Error => "error",
            Fail::Mismatch => "mismatch",
        }
    }
}

/// One timed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the request was due (open loop) or could first be sent
    /// (closed loop).
    pub due: Instant,
    /// When the generator actually sent it.
    pub start: Instant,
    /// When its answer arrived.
    pub end: Instant,
    /// Sampled rows answered (0 on failure).
    pub rows: usize,
    pub fail: Option<Fail>,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        ms(self.end - self.due)
    }

    pub fn lag_ms(&self) -> f64 {
        ms(self.start - self.due)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Offsets of a Poisson arrival process at `rate` per second over
/// `duration`.
pub fn poisson(rate: f64, duration: Duration, rng: &mut StdRng) -> Vec<Duration> {
    let mut offsets = Vec::new();
    let mut t = 0.0;
    loop {
        let u: f64 = rng.random();
        t += -(1.0 - u).ln() / rate;
        if t >= duration.as_secs_f64() {
            return offsets;
        }
        offsets.push(Duration::from_secs_f64(t));
    }
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// Open loop over a blocking call: request `i` is due at
/// `t0 + offsets[i]`; `threads` generator threads each take the next due
/// request, wait for its due time and block on `call(i)`, so at most
/// `threads` requests are in flight.
pub fn open_loop<F>(offsets: &[Duration], threads: usize, call: F) -> Vec<Sample>
where
    F: Fn(usize) -> Result<usize, Fail> + Sync,
{
    let next = AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut samples: Vec<(usize, Sample)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(offset) = offsets.get(i) else {
                            return mine;
                        };
                        let due = t0 + *offset;
                        sleep_until(due);
                        let start = Instant::now();
                        let outcome = call(i);
                        let end = Instant::now();
                        mine.push((i, sample(due, start, end, outcome)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("generator thread"))
            .collect()
    });
    samples.sort_by_key(|(i, _)| *i);
    samples.into_iter().map(|(_, s)| s).collect()
}

fn sample(due: Instant, start: Instant, end: Instant, outcome: Result<usize, Fail>) -> Sample {
    let (rows, fail) = match outcome {
        Ok(rows) => (rows, None),
        Err(f) => (0, Some(f)),
    };
    Sample {
        due,
        start,
        end,
        rows,
        fail,
    }
}

/// Closed loop over submit/wait pairs: keeps `max_outstanding` requests
/// in flight from two threads, a submitter that calls `submit(i)` as soon
/// as a slot frees (until `until`) and a collector that waits for each
/// answer in submission order with `finish(i, handle)`. Each request is
/// timed from the moment its slot freed.
pub fn pipelined<H, S, W>(
    until: Instant,
    max_outstanding: usize,
    mut submit: S,
    mut finish: W,
) -> Vec<Sample>
where
    H: Send,
    S: FnMut(usize) -> Result<H, Fail> + Send,
    W: FnMut(usize, H) -> Result<usize, Fail> + Send,
{
    // The instants at which free slots were released.
    let slots = Mutex::new(VecDeque::from(vec![Instant::now(); max_outstanding]));
    let freed = Condvar::new();
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Instant, Instant, Result<H, Fail>)>();
    std::thread::scope(|scope| {
        let collector = scope.spawn(|| {
            let mut out = Vec::new();
            for (i, due, start, handle) in rx {
                let outcome = handle.and_then(|h| finish(i, h));
                let end = Instant::now();
                out.push(sample(due, start, end, outcome));
                slots.lock().expect("slot lock").push_back(end);
                freed.notify_one();
            }
            out
        });
        for i in 0.. {
            let mut free = slots.lock().expect("slot lock");
            while free.is_empty() {
                free = freed.wait(free).expect("slot lock");
            }
            let due = free.pop_front().expect("a free slot");
            drop(free);
            let start = Instant::now();
            if start >= until {
                break;
            }
            tx.send((i, due, start, submit(i)))
                .expect("collector alive");
        }
        drop(tx);
        collector.join().expect("collector thread")
    })
}

/// What one phase sent and got back.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub sent: u64,
    pub succeeded: u64,
    pub rows: u64,
    pub failed: [u64; 5],
}

impl Tally {
    pub fn of(samples: &[Sample]) -> Tally {
        let mut t = Tally::default();
        for s in samples {
            t.add(s.rows, s.fail);
        }
        t
    }

    pub fn add(&mut self, rows: usize, fail: Option<Fail>) {
        self.sent += 1;
        match fail {
            None => {
                self.succeeded += 1;
                self.rows += rows as u64;
            }
            Some(f) => self.failed[Fail::ALL.iter().position(|&k| k == f).expect("kind")] += 1,
        }
    }

    pub fn merge(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.succeeded += other.succeeded;
        self.rows += other.rows;
        for (a, b) in self.failed.iter_mut().zip(other.failed) {
            *a += b;
        }
    }

    pub fn failures(&self) -> u64 {
        self.failed.iter().sum()
    }

    /// Records `n` oracle mismatches found after the phase: each turns a
    /// success into a failure.
    pub fn mismatched(&mut self, n: u64) {
        self.succeeded -= n;
        self.failed[4] += n;
    }
}

/// A phase's tally next to the service's own count of answered
/// requests over the same window, and the oracle's coverage of it.
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: String,
    pub tally: Tally,
    /// Δ`sample_requests` (Δ`train_requests` for a publish phase) summed
    /// over the service's shards.
    pub served: u64,
    /// Responses the oracle replayed, and how many it was due to replay
    /// (every answered response whose index is a multiple of the check
    /// interval).
    pub replayed: usize,
    pub to_replay: usize,
}

impl Phase {
    /// `sent = succeeded + failed`, every response the service reports
    /// as answered is one the generator saw succeed or fail the oracle,
    /// and the oracle replayed every response it was due to.
    pub fn exact(&self) -> bool {
        let t = &self.tally;
        t.sent == t.succeeded + t.failures()
            && t.succeeded + t.failed[4] == self.served
            && self.replayed == self.to_replay
    }

    pub fn line(&self) -> String {
        let kinds: Vec<String> = Fail::ALL
            .iter()
            .zip(self.tally.failed)
            .map(|(k, n)| format!("{}={n}", k.name()))
            .collect();
        format!(
            "  {:<22} sent {:>6}  succeeded {:>6}  failed {:>3} ({})  service answered {:>6}  oracle replayed {:>5} of {:>5}  {}",
            self.name,
            self.tally.sent,
            self.tally.succeeded,
            self.tally.failures(),
            kinds.join(" "),
            self.served,
            self.replayed,
            self.to_replay,
            if self.exact() { "exact" } else { "MISMATCH" }
        )
    }
}

/// Latency and lag order statistics of a phase's samples. Failed
/// requests are charged as infinitely late so they miss every limit.
pub struct Latencies {
    pub sorted_ms: Vec<f64>,
    pub lag_ms: Vec<f64>,
}

impl Latencies {
    pub fn of(samples: &[Sample]) -> Latencies {
        let mut sorted_ms: Vec<f64> = samples
            .iter()
            .map(|s| {
                if s.fail.is_some() {
                    f64::INFINITY
                } else {
                    s.latency_ms()
                }
            })
            .collect();
        sorted_ms.sort_by(f64::total_cmp);
        let mut lag_ms: Vec<f64> = samples.iter().map(Sample::lag_ms).collect();
        lag_ms.sort_by(f64::total_cmp);
        Latencies { sorted_ms, lag_ms }
    }

    pub fn p50(&self) -> f64 {
        stats::quantile(&self.sorted_ms, 0.5)
    }

    pub fn tail(&self) -> Tail {
        stats::tail(&self.sorted_ms, 0.99)
    }

    pub fn lag_p50(&self) -> f64 {
        stats::quantile(&self.lag_ms, 0.5)
    }

    pub fn lag_tail(&self) -> Tail {
        stats::tail(&self.lag_ms, 0.99)
    }

    pub fn rung(&self, rate: f64, samples: &[Sample]) -> Rung {
        Rung {
            rate,
            tail: self.tail(),
            failed: samples.iter().filter(|s| s.fail.is_some()).count() as u64,
        }
    }
}
