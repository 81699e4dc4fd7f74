//! `linear`: the paper's linear-versioning scenario (Figs. 5–7) as a closed
//! loop with one caller.
//!
//! Round `i` builds a fresh in-memory system for pipeline
//! `PIPELINES[i % 5]` under the `Sequential` policy and replays a seeded
//! `linear_update_sequence` (p = 0.4, ten iterations ending in the
//! incompatible update). Each iteration registers the versions it
//! introduces and then commits; the timed op is `commit_pipeline` plus
//! `Workspace::flush`. At the end of each round the caller reads the
//! branch's first-parent log and checks it lists exactly the acknowledged
//! commits; that read is timed (`read_*` on this workload).
//!
//! Not listed in `BENCHMARK.json` (the crate docs say why); run it with
//! `--workload linear`.

use crate::layers::{Counters, OpRecord, TracedRun};
use crate::trace::{SpanTree, TracedBackend, TracedComponent, Tracer};
use crate::{mix, pair, repeat_setup, with_peak_rss, Config, EndToEnd, Outcome, PIPELINES};
use mlcask_core::registry::ComponentRegistry;
use mlcask_core::system::MlCask;
use mlcask_core::workspace::Workspace;
use mlcask_pipeline::clock::ClockLedger;
use mlcask_pipeline::component::{ComponentHandle, ComponentKey};
use mlcask_storage::backend::{MemBackend, StorageBackend};
use mlcask_storage::cache::CacheOptions;
use mlcask_storage::chunk::ChunkParams;
use mlcask_storage::costmodel::StorageCostModel;
use mlcask_storage::hash::Hash256;
use mlcask_storage::store::ChunkStore;
use mlcask_workloads::common::Workload;
use mlcask_workloads::scenario::{linear_update_sequence, LinearScenario};
use std::sync::Arc;
use std::time::Instant;

/// Rounds whose counts make up the exact per-layer figures (one per
/// pipeline); the run always completes at least this many.
const EXACT_ROUNDS: usize = PIPELINES.len();

/// Builds the in-memory store every round of `linear` and `merge` uses:
/// blob cache at its default budget, the backend wrapped when traced.
pub fn mem_store(tracer: Option<&Arc<Tracer>>) -> Arc<ChunkStore> {
    let mut backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
    if let Some(t) = tracer {
        backend = TracedBackend::wrap(backend, t);
    }
    Arc::new(ChunkStore::with_cache(
        backend,
        ChunkParams::DEFAULT,
        StorageCostModel::FORKBASE,
        Some(CacheOptions::default()),
    ))
}

/// The workload's component handles, wrapped when traced.
pub fn handles(w: &Workload, tracer: Option<&Arc<Tracer>>) -> Vec<ComponentHandle> {
    w.handles
        .iter()
        .map(|h| match tracer {
            Some(t) => TracedComponent::wrap(Arc::clone(h), t),
            None => Arc::clone(h),
        })
        .collect()
}

/// Registers the versions in `keys` that `registry` does not hold yet (the
/// library archives a commit introduces).
pub fn register(registry: &ComponentRegistry, handles: &[ComponentHandle], keys: &[ComponentKey]) {
    for key in keys {
        let handle = handles
            .iter()
            .find(|h| &h.key() == key)
            .expect("the workload defines every version it uses");
        registry
            .register(Arc::clone(handle))
            .expect("registering a workload version");
    }
}

/// Builds the five pipelines and warms the process up: every pipeline's
/// initial version is registered and committed once on a throwaway
/// in-memory system, so code paths and the allocator are warm before the
/// first timed op.
pub fn warm_up() -> Vec<Workload> {
    PIPELINES
        .iter()
        .map(|name| {
            let w = mlcask_workloads::by_name(name).expect("known pipeline");
            let registry = Arc::new(ComponentRegistry::new(mem_store(None)));
            w.register_all(&registry).expect("registering a workload");
            let sys = MlCask::new(&w.name, w.dag(), registry);
            let warm = sys
                .commit_pipeline("master", &w.initial, "warm-up", &ClockLedger::new())
                .expect("warm-up commit");
            assert!(warm.commit.is_some(), "initial pipeline of {name} commits");
            w
        })
        .collect()
}

/// Reads `branch`'s first-parent log and checks it lists exactly
/// `expected`, newest first; returns the read's latency in µs and the
/// verdict.
pub fn check_log(ws: &Workspace, branch: &str, expected: &[Hash256]) -> (f64, bool) {
    let t = Instant::now();
    let view = ws.graph().view();
    let mut logged = Vec::with_capacity(expected.len());
    let mut cursor = view.head(branch).ok();
    while let Some(c) = cursor.take() {
        logged.push(c.id);
        cursor = c.parents.first().and_then(|&p| view.get(p).ok());
    }
    (t.elapsed().as_secs_f64() * 1e6, logged == expected)
}

struct Round {
    /// Commit latencies in ms.
    op_ms: Vec<f64>,
    /// Report stream: commit ids, scores, executed/reused counts, stats.
    stream: String,
    logical: u64,
    physical: u64,
}

fn run_round(
    workloads: &[Workload],
    cfg: &Config,
    i: usize,
    tracer: Option<&Arc<Tracer>>,
    ops: &mut Vec<OpRecord>,
    read_us: &mut Vec<f64>,
    out: &mut Outcome,
) -> Round {
    let w = &workloads[i % PIPELINES.len()];
    let handles = handles(w, tracer);
    let sc = LinearScenario {
        seed: mix(cfg.seed, i as u64),
        ..LinearScenario::default()
    };
    let sequence = linear_update_sequence(w, &sc);
    let store = mem_store(tracer);
    let registry = Arc::new(ComponentRegistry::new(Arc::clone(&store)));
    let sys = MlCask::new(&w.name, w.dag(), Arc::clone(&registry));
    let ws = Arc::clone(sys.workspace());
    let ledger = ClockLedger::new();
    let mut round = Round {
        op_ms: Vec::new(),
        stream: String::new(),
        logical: 0,
        physical: 0,
    };
    let mut acked = Vec::new();
    let last = sequence.len() - 1;
    for (it, keys) in sequence.iter().enumerate() {
        register(&registry, &handles, keys);
        let before = tracer.map(|_| Counters::read(&ws));
        let (root, entry) = tracer.map_or((0, 0), |t| (t.id(), t.id()));
        let t0 = Instant::now();
        let start = tracer.map_or(0, |t| t.now());
        if let Some(t) = tracer {
            t.enter(entry, root);
        }
        let result = sys.commit_pipeline("master", keys, &format!("iteration {it}"), &ledger);
        if let Some(t) = tracer {
            t.record("system.commit", entry, root, root, start);
            let flush = t.id();
            let flush_start = t.now();
            t.enter(flush, root);
            ws.flush().expect("in-memory flush");
            t.record("system.flush", flush, root, root, flush_start);
            t.leave();
        } else {
            ws.flush().expect("in-memory flush");
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Some(t) = tracer {
            t.record("op.commit", root, 0, root, start);
        }
        out.attempted += 1;
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("{} iteration {it}: {e}", w.name));
                continue;
            }
        };
        round.op_ms.push(ms);
        let report = &result.report;
        if let Some(before) = before {
            let mut rec =
                OpRecord::new(root, entry, i < EXACT_ROUNDS, &before, &Counters::read(&ws));
            rec.executed = report.executed_count() as u64;
            rec.reused = report.reused_count() as u64;
            ops.push(rec);
        }
        if it == last {
            out.check(
                result.commit.is_none() && report.executed_count() == 0,
                || {
                    format!(
                        "{} round {i}: final incompatible iteration was not precheck-rejected \
                     with 0 executed nodes",
                        w.name
                    )
                },
            );
        } else {
            out.check(result.commit.is_some(), || {
                format!(
                    "{} round {i} iteration {it}: compatible update not committed",
                    w.name
                )
            });
        }
        let stats = serde_json::to_string(&store.stats()).expect("stats render");
        round.stream.push_str(&format!(
            "{it} {} {:?} executed={} reused={} {stats}\n",
            result
                .commit
                .as_ref()
                .map_or("rejected".into(), |c| c.id.to_hex()),
            report.outcome.score(),
            report.executed_count(),
            report.reused_count(),
        ));
        acked.extend(result.commit.as_ref().map(|c| c.id));
    }
    acked.reverse();
    let (us, logged) = check_log(&ws, "master", &acked);
    read_us.push(us);
    out.check(logged, || {
        format!(
            "{} round {i}: the log does not list exactly the acknowledged commits",
            w.name
        )
    });
    let total = store.stats().total();
    round.logical = total.logical_bytes;
    round.physical = total.physical_bytes;
    round
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let tracer = cfg.traced.then(Tracer::new);
    let (setup_s, workloads) = repeat_setup(3, warm_up);
    let mut e2e = EndToEnd {
        setup_s,
        ..EndToEnd::default()
    };
    let mut ops = Vec::new();
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut first_stream = None;
    let (mut logical, mut physical) = (0u64, 0u64);
    // Samples of the cycle (one round per pipeline) in progress; kept only
    // once the cycle completes, so every run weighs the pipelines equally.
    let (mut cycle_ms, mut cycle_reads, mut cycle_rss) = (Vec::new(), Vec::new(), Vec::new());
    let window = Instant::now();
    let deadline = cfg.deadline();
    let mut i = 0;
    while i < EXACT_ROUNDS || Instant::now() < deadline {
        match &tracer {
            None => {
                let (r, rss) = with_peak_rss(|| {
                    run_round(
                        &workloads,
                        cfg,
                        i,
                        None,
                        &mut ops,
                        &mut cycle_reads,
                        &mut out,
                    )
                });
                cycle_rss.push(rss);
                cycle_ms.extend(&r.op_ms);
                if i == 0 {
                    first_stream = Some(r.stream);
                }
                if i < EXACT_ROUNDS {
                    logical += r.logical;
                    physical += r.physical;
                }
            }
            Some(t) => {
                let mut reads = Vec::new();
                let (a, b) = pair(i as u64, |on| {
                    run_round(
                        &workloads,
                        cfg,
                        i,
                        on.then_some(t),
                        &mut ops,
                        &mut reads,
                        &mut out,
                    )
                });
                out.check(a.stream == b.stream, || {
                    format!("round {i}: traced and untraced report streams differ")
                });
                traced_ms.extend(&a.op_ms);
                untraced_ms.extend(&b.op_ms);
            }
        }
        i += 1;
        if i % PIPELINES.len() == 0 {
            e2e.op_ms.append(&mut cycle_ms);
            e2e.read_us.append(&mut cycle_reads);
            e2e.rss_mib.append(&mut cycle_rss);
            e2e.window_s = window.elapsed().as_secs_f64();
        }
    }
    e2e.bytes_per_logical_byte = physical as f64 / logical.max(1) as f64;
    match tracer {
        None => {
            // Identity check outside the window: round 0 again, traced.
            let t = Tracer::new();
            let r = run_round(
                &workloads,
                cfg,
                0,
                Some(&t),
                &mut Vec::new(),
                &mut Vec::new(),
                &mut out,
            );
            out.check(first_stream == Some(r.stream), || {
                "round 0: traced and untraced report streams differ".into()
            });
            e2e.report(&mut out, "commit", 0.95, "log_check", 0.9);
        }
        Some(t) => TracedRun {
            tree: SpanTree::new(t.take_spans()),
            ops,
            samples: t.take_samples(),
            traced_op_ms: traced_ms,
            untraced_op_ms: untraced_ms,
            late_ms: Vec::new(),
        }
        .report(&mut out, &format!("linear-seed{}", cfg.seed)),
    }
    out
}
