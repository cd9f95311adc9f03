//! Spans recorded from the benchmark's side around its calls into each
//! layer's public functions. Off by default; a traced run switches them
//! on, keeps them in memory and summarizes them when it ends.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats;

static ON: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// One call into a layer: which call, which request caused it, and when.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub start: Instant,
    pub end: Instant,
}

pub fn enable(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Runs `f`, recording a span named `name` for `request` while tracing
/// is on.
pub fn span<T>(name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
    if !ON.load(Ordering::Relaxed) {
        return f();
    }
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    SPANS.lock().expect("span lock").push(Span {
        name,
        request,
        start,
        end,
    });
    out
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span lock"))
}

/// One line per span name: count, distinct requests, median and total
/// duration.
pub fn summary(spans: &[Span]) -> Vec<String> {
    let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            let of_name: Vec<&Span> = spans.iter().filter(|s| s.name == name).collect();
            let us: Vec<f64> = of_name
                .iter()
                .map(|s| (s.end - s.start).as_secs_f64() * 1e6)
                .collect();
            let mut requests: Vec<u64> = of_name.iter().map(|s| s.request).collect();
            requests.sort_unstable();
            requests.dedup();
            format!(
                "  span {:<32} n {:>6}  requests {:>6}  p50 {:>10.1} us  total {:>9.1} ms",
                name,
                us.len(),
                requests.len(),
                stats::median(&us),
                us.iter().sum::<f64>() / 1e3
            )
        })
        .collect()
}
