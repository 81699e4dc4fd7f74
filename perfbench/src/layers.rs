//! Per-layer breakdown of a traced run: span analysis, registry and stats
//! deltas per op, and the codec / chunk / hash probes.

use crate::trace::{write_spans, Samples, Span, SpanTree};
use crate::{mean, median, Outcome};
use mlcask_core::workspace::Workspace;
use mlcask_obs::MetricsRegistry;
use mlcask_pipeline::artifact::Artifact;
use mlcask_pipeline::component::ComponentKey;
use mlcask_storage::chunk::{chunk_blob, ChunkParams};
use mlcask_storage::hash::Hash256;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Monotone counters read before and after each traced op.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    fsyncs: f64,
    fsync_s: f64,
    appends: f64,
    graph_appends: f64,
    graph_publishes: f64,
    cache_hits: f64,
    cache_misses: f64,
    cache_evictions: f64,
    logical_bytes: f64,
    physical_bytes: f64,
}

impl Counters {
    /// Reads the process registry (cask and graph series, summed over
    /// instances) and the workspace's cache and store statistics.
    pub fn read(ws: &Workspace) -> Counters {
        let mut c = Counters::default();
        for (series, v) in MetricsRegistry::global().snapshot() {
            let family = series.split('{').next().unwrap_or("");
            match family {
                "mlcask_cask_fsync_seconds_count" => c.fsyncs += v,
                "mlcask_cask_fsync_seconds_sum" => c.fsync_s += v,
                "mlcask_cask_appends_total" => c.appends += v,
                "mlcask_graph_append_ops_total" => c.graph_appends += v,
                "mlcask_graph_publish_total" => c.graph_publishes += v,
                _ => {}
            }
        }
        if let Some(cs) = ws.cache_stats() {
            c.cache_hits = cs.hits as f64;
            c.cache_misses = cs.misses as f64;
            c.cache_evictions = cs.evictions as f64;
        }
        let total = ws.store().stats().total();
        c.logical_bytes = total.logical_bytes as f64;
        c.physical_bytes = total.physical_bytes as f64;
        c
    }

    fn minus(&self, o: &Counters) -> Counters {
        Counters {
            fsyncs: self.fsyncs - o.fsyncs,
            fsync_s: self.fsync_s - o.fsync_s,
            appends: self.appends - o.appends,
            graph_appends: self.graph_appends - o.graph_appends,
            graph_publishes: self.graph_publishes - o.graph_publishes,
            cache_hits: self.cache_hits - o.cache_hits,
            cache_misses: self.cache_misses - o.cache_misses,
            cache_evictions: self.cache_evictions - o.cache_evictions,
            logical_bytes: self.logical_bytes - o.logical_bytes,
            physical_bytes: self.physical_bytes - o.physical_bytes,
        }
    }
}

/// One traced op (commit or merge) as the workload loop saw it.
pub struct OpRecord {
    /// Root span id, which is also the op id every child carries.
    pub root: u64,
    /// The library-call span whose self time is `system.op_self_ms`.
    pub entry: u64,
    /// Inside the fixed prefix of rounds that exact counts are taken over.
    pub exact: bool,
    pub executed: u64,
    pub reused: u64,
    /// `(evaluated, pruned, frontier-skipped)` candidates of a merge search.
    pub merge: (u64, u64, u64),
    pub delta: Counters,
}

impl OpRecord {
    pub fn new(root: u64, entry: u64, exact: bool, before: &Counters, after: &Counters) -> Self {
        OpRecord {
            root,
            entry,
            exact,
            executed: 0,
            reused: 0,
            merge: (0, 0, 0),
            delta: after.minus(before),
        }
    }
}

/// Everything the breakdown is computed from.
pub struct TracedRun {
    pub tree: SpanTree,
    pub ops: Vec<OpRecord>,
    pub samples: Samples,
    /// Median op latency of traced vs untraced rounds over the same inputs.
    pub traced_op_ms: Vec<f64>,
    pub untraced_op_ms: Vec<f64>,
    /// Open-loop read lateness in ms (served only).
    pub late_ms: Vec<f64>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl TracedRun {
    /// Adds every per-layer metric to `out`, checks span containment and
    /// writes the spans to `.bench_trace/<label>.jsonl`.
    pub fn report(self, out: &mut Outcome, label: &str) {
        let tree = &self.tree;
        let path = std::path::Path::new(".bench_trace").join(format!("{label}.jsonl"));
        match write_spans(&path, &tree.spans) {
            Ok(()) => println!("spans: {} written to {}", tree.spans.len(), path.display()),
            Err(e) => println!("spans: could not write {}: {e}", path.display()),
        }
        let escaped = tree.escaped_children();
        out.check(escaped == 0, || {
            format!("{escaped} child spans lie outside their parent")
        });
        let n_ops = self.ops.len().max(1) as f64;
        let op_ids: HashMap<u64, bool> = self.ops.iter().map(|o| (o.root, o.exact)).collect();
        let exact: Vec<&OpRecord> = self.ops.iter().filter(|o| o.exact).collect();
        let n_exact = exact.len().max(1) as f64;
        let exact_sum = |f: &dyn Fn(&OpRecord) -> f64| exact.iter().map(|o| f(o)).sum::<f64>();

        // Span aggregates: durations by name (all traced ops) and counts by
        // name (exact-prefix ops only).
        let mut dur: HashMap<(&str, &str), Vec<f64>> = HashMap::new();
        let mut exact_count: HashMap<&str, f64> = HashMap::new();
        let by_id: HashMap<u64, &Span> = tree.spans.iter().map(|s| (s.id, s)).collect();
        for s in &tree.spans {
            // Wrapper calls outside any timed op (registration, history
            // commits, set-up) are not part of the breakdown.
            let wrapper = s.name.starts_with("component.") || s.name.starts_with("backend.");
            if wrapper && !op_ids.contains_key(&s.op) {
                continue;
            }
            let parent = by_id.get(&s.parent).map_or("", |p| p.name);
            let under = if s.name == "server.handle" {
                parent
            } else {
                ""
            };
            dur.entry((s.name, under))
                .or_default()
                .push(s.dur_ns() as f64);
            if op_ids.get(&s.op).copied().unwrap_or(false) {
                *exact_count.entry(s.name).or_default() += 1.0;
            }
        }
        let mean_of = |name: &str, under: &str, scale: f64| {
            mean(dur.get(&(name, under)).map(Vec::as_slice).unwrap_or(&[])) / scale
        };
        let per_op_ms = |name: &str| {
            let total: f64 = tree
                .spans
                .iter()
                .filter(|s| s.name == name && op_ids.contains_key(&s.op))
                .map(|s| s.dur_ns() as f64)
                .sum();
            total / n_ops / 1e6
        };
        let count_per_op = |name: &str| exact_count.get(name).copied().unwrap_or(0.0) / n_exact;

        out.metric(
            "server.parse_us",
            "server.parse_us",
            mean_of("server.parse", "", 1e3),
            "us",
        );
        out.metric(
            "server.read_handle_us",
            "server.read_handle_us",
            mean_of("server.handle", "op.read", 1e3),
            "us",
        );
        out.metric(
            "server.serialise_us",
            "server.serialise_us",
            mean_of("server.serialise", "", 1e3),
            "us",
        );
        out.metric(
            "server.write_handle_ms",
            "server.write_handle_ms",
            mean_of("server.handle", "op.commit", 1e6),
            "ms",
        );

        let self_ms: Vec<f64> = self
            .ops
            .iter()
            .filter_map(|o| by_id.get(&o.entry))
            .map(|s| tree.self_ns(s) as f64 / 1e6)
            .collect();
        out.metric(
            "system.op_self_ms",
            "system.{commit,merge}_self_ms",
            mean(&self_ms),
            "ms",
        );
        out.metric(
            "system.flush_ms",
            "system.flush_ms",
            mean_of("system.flush", "", 1e6),
            "ms",
        );

        out.metric(
            "component.run_ms_per_op",
            "component.run_ms_per_{commit,merge}",
            per_op_ms("component.run"),
            "ms",
        );
        out.metric(
            "component.cost_model_ms_per_op",
            "component.cost_model_ms_per_commit",
            per_op_ms("component.work_units"),
            "ms",
        );
        out.metric(
            "component.runs_per_op",
            "component.runs_per_{commit,merge}",
            count_per_op("component.run"),
            "count",
        );

        let reused = exact_sum(&|o| o.reused as f64);
        let executed = exact_sum(&|o| o.executed as f64);
        out.metric(
            "executor.reused_per_op",
            "executor.reused_per_commit",
            reused / n_exact,
            "count",
        );
        out.metric(
            "executor.reuse_ratio",
            "executor.reuse_ratio",
            ratio(reused, reused + executed),
            "ratio",
        );

        out.metric(
            "merge.candidates_evaluated",
            "merge.candidates_evaluated",
            exact_sum(&|o| o.merge.0 as f64) / n_exact,
            "count",
        );
        out.metric(
            "merge.candidates_pruned",
            "merge.candidates_pruned",
            exact_sum(&|o| o.merge.1 as f64) / n_exact,
            "count",
        );
        out.metric(
            "merge.frontier_skipped",
            "merge.frontier_skipped",
            exact_sum(&|o| o.merge.2 as f64) / n_exact,
            "count",
        );

        out.metric(
            "backend.puts_per_op",
            "backend.puts_per_commit",
            count_per_op("backend.put"),
            "count",
        );
        out.metric(
            "backend.put_us",
            "backend.put_us",
            mean_of("backend.put", "", 1e3),
            "us",
        );
        out.metric(
            "backend.gets_per_op",
            "backend.gets_per_{commit,merge}",
            count_per_op("backend.get"),
            "count",
        );
        out.metric(
            "backend.get_us",
            "backend.get_us",
            mean_of("backend.get", "", 1e3),
            "us",
        );
        out.metric(
            "backend.flush_ms",
            "backend.flush_ms",
            mean_of("backend.flush", "", 1e6),
            "ms",
        );

        let all_sum = |f: &dyn Fn(&OpRecord) -> f64| self.ops.iter().map(f).sum::<f64>();
        let fsyncs = all_sum(&|o| o.delta.fsyncs);
        out.metric(
            "cask.fsyncs_per_op",
            "cask.fsyncs_per_commit",
            fsyncs / n_ops,
            "count",
        );
        out.metric(
            "cask.fsync_ms",
            "cask.fsync_ms",
            ratio(all_sum(&|o| o.delta.fsync_s) * 1e3, fsyncs),
            "ms",
        );
        out.metric(
            "cask.appends_per_fsync",
            "cask.appends_per_fsync",
            ratio(all_sum(&|o| o.delta.appends), fsyncs),
            "ratio",
        );

        let hits = exact_sum(&|o| o.delta.cache_hits);
        let misses = exact_sum(&|o| o.delta.cache_misses);
        out.metric(
            "cache.hit_rate",
            "cache.hit_rate",
            ratio(hits, hits + misses),
            "ratio",
        );
        out.metric(
            "cache.evictions_per_op",
            "cache.evictions_per_commit",
            exact_sum(&|o| o.delta.cache_evictions) / n_exact,
            "count",
        );

        out.metric(
            "graph.append_ops_per_op",
            "graph.append_ops_per_commit",
            exact_sum(&|o| o.delta.graph_appends) / n_exact,
            "count",
        );
        out.metric(
            "graph.publishes_per_op",
            "graph.publishes_per_commit",
            exact_sum(&|o| o.delta.graph_publishes) / n_exact,
            "count",
        );
        out.metric(
            "store.logical_kib_per_op",
            "store.logical_kib_per_commit",
            exact_sum(&|o| o.delta.logical_bytes) / 1024.0 / n_exact,
            "KiB",
        );
        out.metric(
            "store.physical_kib_per_op",
            "store.physical_kib_per_commit",
            exact_sum(&|o| o.delta.physical_bytes) / 1024.0 / n_exact,
            "KiB",
        );

        probe(out, &self.samples, &op_ids);

        let traced = median(&self.traced_op_ms);
        let untraced = median(&self.untraced_op_ms);
        out.metric(
            "trace.overhead_pct",
            "trace.overhead_pct",
            (ratio(traced, untraced) - 1.0) * 100.0,
            "%",
        );
        out.metric(
            "served.generator_late_ms",
            "served.generator_late_ms (p99)",
            crate::quantile(&self.late_ms, 0.99),
            "ms",
        );
    }
}

/// Times the codec, chunker and hash on the first output of every
/// component version the wrapper saw (sorted by key so every run probes
/// the same set), and sizes the outputs of the runs inside exact ops.
fn probe(out: &mut Outcome, samples: &Samples, op_exact: &HashMap<u64, bool>) {
    let mut keys: Vec<&ComponentKey> = samples.first.keys().collect();
    keys.sort();
    let (mut enc, mut dec, mut chunk, mut hash, mut bytes) = (0f64, 0f64, 0f64, 0f64, 0f64);
    let mut encoded_len: HashMap<&ComponentKey, f64> = HashMap::new();
    const REPS: usize = 3;
    for key in keys {
        let artifact = &samples.first[key];
        let encoded = artifact.to_bytes();
        let len = encoded.len() as f64;
        encoded_len.insert(key, len);
        for _ in 0..REPS {
            let t = Instant::now();
            black_box(black_box(artifact).to_bytes());
            enc += t.elapsed().as_nanos() as f64;
            let t = Instant::now();
            let decoded = Artifact::from_bytes(black_box(&encoded));
            dec += t.elapsed().as_nanos() as f64;
            let round_trips = decoded.is_ok_and(|a| &a == artifact);
            out.check(round_trips, || {
                format!("artifact of {key} does not round-trip through its codec")
            });
            let t = Instant::now();
            black_box(chunk_blob(black_box(&encoded), ChunkParams::DEFAULT));
            chunk += t.elapsed().as_nanos() as f64;
            let t = Instant::now();
            black_box(Hash256::of(black_box(&encoded)));
            hash += t.elapsed().as_nanos() as f64;
            bytes += len;
        }
    }
    let exact_runs: Vec<f64> = samples
        .runs
        .iter()
        .filter(|(op, _)| op_exact.get(op).copied().unwrap_or(false))
        .map(|(_, key)| encoded_len[key])
        .collect();
    out.metric(
        "artifact.encode_ns_per_byte",
        "artifact.encode_ns_per_byte",
        ratio(enc, bytes),
        "ns/B",
    );
    out.metric(
        "artifact.decode_ns_per_byte",
        "artifact.decode_ns_per_byte",
        ratio(dec, bytes),
        "ns/B",
    );
    out.metric(
        "artifact.output_kib_per_node",
        "artifact.output_kib_per_node",
        mean(&exact_runs) / 1024.0,
        "KiB",
    );
    out.metric(
        "chunk.ns_per_byte",
        "chunk.ns_per_byte",
        ratio(chunk, bytes),
        "ns/B",
    );
    out.metric(
        "hash.ns_per_byte",
        "hash.ns_per_byte",
        ratio(hash, bytes),
        "ns/B",
    );
}
