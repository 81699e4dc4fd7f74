//! Repository benchmark for MLCask.
//!
//! ```text
//! perfbench --workload <linear|merge|served> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload gives the library only generated inputs derived from the
//! seed, measures for `--seconds`, checks the outputs, prints one
//! human-readable line per metric and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics with the benchmark's tracing off; `--trace 1` reports
//! the per-layer breakdown from a traced run. `spec.json` next to this
//! package defines every metric, the workloads it applies to, and the
//! end-to-end metric each per-layer metric should move.
//!
//! `BENCHMARK.json` lists `merge` and `served`. `linear` runs and checks the
//! same way but is not listed: on a 2-vCPU shared host its single-threaded,
//! cache-bound commits swung 1.5x with neighbour load, about twice as much as
//! `merge` over the same minutes, so two sets of runs could not agree within
//! the 0.25 bound. Its commit path is timed on `served`.

mod layers;
mod linear;
mod merge;
mod served;
mod trace;

use std::time::{Duration, Instant};

/// Command-line configuration.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

impl Config {
    /// Wall-clock end of the measurement window opened now.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// The pipelines every workload cycles through.
pub const PIPELINES: [&str; 5] = ["readmission", "dpm", "sa", "autolearn", "fusion"];

/// Derives an independent seed for sub-sequence `i` (SplitMix64 finaliser).
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Quantile `q` (in 0..1) of unsorted samples, interpolated linearly
/// between the two nearest order statistics; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let Some(last) = v.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(last);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Runs `f` `times` times and returns the median wall time with the last
/// result: set-up is measured several times per run so one slow repetition
/// does not decide `setup_s`.
pub fn repeat_setup<T>(times: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        let t = Instant::now();
        last = Some(f());
        secs.push(t.elapsed().as_secs_f64());
    }
    (median(&secs), last.expect("at least one set-up repetition"))
}

/// Runs input `i` once traced and once untraced, alternating which goes
/// first, and returns `(traced, untraced)`: the pair gives the tracing
/// overhead and the byte-identity check between the two modes.
pub fn pair<R>(i: u64, mut run: impl FnMut(bool) -> R) -> (R, R) {
    if i.is_multiple_of(2) {
        let traced = run(true);
        (traced, run(false))
    } else {
        let untraced = run(false);
        (run(true), untraced)
    }
}

/// Runs `f` and returns its result with the peak resident set size (MiB)
/// the process reached while it ran: writing `5` to `/proc/self/clear_refs`
/// resets `VmHWM` to the current RSS first.
pub fn with_peak_rss<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let out = f();
    (out, peak_rss_mib())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// One reported metric: the name in the JSON line, the workload-specific
/// name it stands for (printed alongside), value and unit.
pub struct Metric {
    pub name: &'static str,
    pub alias: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; the run is correct iff this stays empty.
    pub violations: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn metric(&mut self, name: &'static str, alias: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            alias: alias.to_string(),
            value,
            unit,
        });
    }
}

/// End-to-end samples a workload collects with tracing off.
#[derive(Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    /// Latency of the workload's timed op (commit or merge), in ms.
    pub op_ms: Vec<f64>,
    /// Reported as `op_p50_ms` instead of the median of `op_ms`, with the
    /// name it stands for (`merge` sets it, see there).
    pub op_typical_ms: Option<(String, f64)>,
    /// Timed ops completed and the measurement window they ran in.
    pub window_s: f64,
    /// Read latencies in µs.
    pub read_us: Vec<f64>,
    /// Peak RSS of each round (or epoch) in MiB.
    pub rss_mib: Vec<f64>,
    pub bytes_per_logical_byte: f64,
}

impl EndToEnd {
    /// Adds the end-to-end metrics; `op` names the timed op (`commit` or
    /// `merge`), `tail` its tail quantile, `read` the timed read and
    /// `read_tail` its tail quantile.
    pub fn report(&self, out: &mut Outcome, op: &str, tail: f64, read: &str, read_tail: f64) {
        let pct = |q: f64| (q * 100.0).round() as u32;
        let (p50_alias, p50) = self
            .op_typical_ms
            .clone()
            .unwrap_or_else(|| (format!("{op}_p50_ms"), median(&self.op_ms)));
        out.metric("setup_s", "setup_s", self.setup_s, "s");
        out.metric("peak_rss_mib", "peak_rss_mib", median(&self.rss_mib), "MiB");
        out.metric("op_p50_ms", &p50_alias, p50, "ms");
        out.metric(
            "op_tail_ms",
            &format!("{op}_p{}_ms", pct(tail)),
            quantile(&self.op_ms, tail),
            "ms",
        );
        out.metric(
            "ops_per_s",
            &format!("{op}s_per_s"),
            self.op_ms.len() as f64 / self.window_s.max(1e-9),
            "1/s",
        );
        out.metric(
            "read_p50_us",
            &format!("{read}_p50_us"),
            median(&self.read_us),
            "us",
        );
        out.metric(
            "read_tail_us",
            &format!("{read}_p{}_us", pct(read_tail)),
            quantile(&self.read_us, read_tail),
            "us",
        );
        out.metric(
            "bytes_per_logical_byte",
            "bytes_per_logical_byte",
            self.bytes_per_logical_byte,
            "ratio",
        );
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <linear|merge|served> --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

/// How long a run may take before it counts as stuck (a served run once
/// blocked forever inside a commit) and exits non-zero. A healthy run takes
/// the window plus under 10 s of set-up and checks; the limit allows the
/// window twice plus a minute, 150 s at `--seconds 45`, inside the 180 s a
/// run may take.
fn watchdog_limit(seconds: f64) -> Duration {
    Duration::from_secs_f64(60.0 + 2.0 * seconds.max(0.0))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut cfg = Config {
        seed: 0,
        seconds: 10.0,
        traced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => cfg.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                cfg.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let limit = watchdog_limit(cfg.seconds);
    // Detached on purpose: process exit ends it on every normal path.
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: no result after {limit:?}; the run is stuck, aborting");
        std::process::exit(3);
    });
    let outcome = match workload.as_deref() {
        Some("linear") => linear::run(&cfg),
        Some("merge") => merge::run(&cfg),
        Some("served") => served::run(&cfg),
        _ => usage(),
    };
    for m in &outcome.metrics {
        println!(
            "metric {:<34} {:>16.6} {:<6} ({})",
            m.name, m.value, m.unit, m.alias
        );
    }
    for v in &outcome.violations {
        println!("CHECK FAILED: {v}");
    }
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                value,
                json_str(m.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.violations.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics
    );
    if !outcome.violations.is_empty() {
        std::process::exit(1);
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_quantiles() {
        let v: Vec<f64> = (1..=9).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 9.0);
        assert!((quantile(&v, 0.9) - 8.2).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0, "no samples");
    }
}
