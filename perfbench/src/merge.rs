//! `merge`: the metric-driven merge (PAPER.md §VI) as a closed loop with
//! one caller and a two-worker pool.
//!
//! Every round builds a fresh in-memory system under `Parallel(2)`,
//! commits a Fig.-3-style history and runs `merge("master", "dev", Full)`;
//! only the merge is timed. A history is a *shape* `(pipeline, a, b)`:
//! from the initial pipeline, `master` advances slot `a` one step along its
//! version chain and `dev` advances slot `b` up to two steps (a step the
//! precheck rejects is skipped); each commit registers the versions it
//! introduces. One design cycle holds every shape with
//! `a < b` of all five pipelines, in an order the seed shuffles; merge
//! cost depends mostly on the shape, so whole cycles keep runs comparable.
//! `op_p50_ms` is the geometric mean over shapes of each shape's median
//! merge time: the plain median of a cycle falls in the gap between cheap
//! and expensive shapes and flips between them from run to run. After the
//! merge the caller reads `master`'s log and checks it lists the merge
//! commit and the acknowledged history (`read_*` on this workload).

use crate::layers::{Counters, OpRecord, TracedRun};
use crate::linear::{check_log, handles, mem_store, register, warm_up};
use crate::trace::{SpanTree, Tracer};
use crate::{median, pair, repeat_setup, with_peak_rss, Config, EndToEnd, Outcome};
use mlcask_core::merge::MergeStrategy;
use mlcask_core::registry::ComponentRegistry;
use mlcask_core::system::MlCask;
use mlcask_ml::metrics::Score;
use mlcask_pipeline::clock::ClockLedger;
use mlcask_pipeline::component::ComponentKey;
use mlcask_pipeline::parallel::ParallelismPolicy;
use mlcask_storage::hash::Hash256;
use mlcask_workloads::common::Workload;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

const WORKERS: usize = 2;

/// One history shape: pipeline index, the slot `master` advances and the
/// slot `dev` advances.
#[derive(Debug, Clone, Copy)]
struct Shape {
    p: usize,
    a: usize,
    b: usize,
}

/// Every shape of every pipeline, in seeded order.
fn design(workloads: &[Workload], seed: u64) -> Vec<Shape> {
    let mut cycle = Vec::new();
    for (p, w) in workloads.iter().enumerate() {
        let open: Vec<usize> = (0..w.slots.len())
            .filter(|&s| w.chains[s].len() > 1)
            .collect();
        for &a in &open {
            for &b in open.iter().filter(|&&b| b > a) {
                cycle.push(Shape { p, a, b });
            }
        }
    }
    cycle.shuffle(&mut StdRng::seed_from_u64(seed));
    cycle
}

struct Round {
    merge_ms: Option<f64>,
    best: Option<(Vec<ComponentKey>, Score)>,
    stream: String,
    logical: u64,
    physical: u64,
}

/// Builds a fresh system and commits the history of `shape`; returns it
/// with the commits acknowledged on `master`, oldest first.
fn build_history(
    w: &Workload,
    shape: Shape,
    i: usize,
    tracer: Option<&Arc<Tracer>>,
    out: &mut Outcome,
) -> (MlCask, Vec<Hash256>) {
    let handles = handles(w, tracer);
    let registry = Arc::new(ComponentRegistry::new(mem_store(tracer)));
    let sys = MlCask::new(&w.name, w.dag(), Arc::clone(&registry))
        .with_parallelism(ParallelismPolicy::Parallel(WORKERS));
    let ledger = ClockLedger::new();
    let mut master = Vec::new();
    let mut commit = |branch: &str, keys: &[ComponentKey], out: &mut Outcome| -> bool {
        register(&registry, &handles, keys);
        out.attempted += 1;
        match sys.commit_pipeline(branch, keys, "history", &ledger) {
            Ok(r) => {
                if branch == "master" {
                    master.extend(r.commit.as_ref().map(|c| c.id));
                }
                r.commit.is_some()
            }
            Err(e) => {
                out.failed += 1;
                out.check(false, || {
                    format!("{} round {i}: history commit: {e}", w.name)
                });
                false
            }
        }
    };
    commit("master", &w.initial, out);
    sys.branch("master", "dev").expect("fork dev from master");
    for (branch, slot, steps) in [("master", shape.a, 1), ("dev", shape.b, 2)] {
        let mut idx = vec![0usize; w.slots.len()];
        let mut advanced = 0;
        for _ in 0..steps {
            if idx[slot] + 1 >= w.chains[slot].len() {
                break;
            }
            idx[slot] += 1;
            let keys: Vec<ComponentKey> = idx
                .iter()
                .enumerate()
                .map(|(s, &v)| w.chains[s][v].clone())
                .collect();
            if commit(branch, &keys, out) {
                advanced += 1;
            } else {
                idx[slot] -= 1;
            }
        }
        out.check(advanced > 0, || {
            format!("{} round {i}: branch {branch} never advanced", w.name)
        });
    }
    (sys, master)
}

/// What the caller needs from one round besides its samples.
struct RoundCtx<'a> {
    w: &'a Workload,
    shape: Shape,
    i: usize,
    /// Counts of this round feed the exact per-layer figures.
    exact: bool,
}

fn run_round(
    ctx: &RoundCtx<'_>,
    tracer: Option<&Arc<Tracer>>,
    ops: &mut Vec<OpRecord>,
    read_us: &mut Vec<f64>,
    out: &mut Outcome,
) -> Round {
    let (w, i) = (ctx.w, ctx.i);
    let (sys, mut history) = build_history(w, ctx.shape, i, tracer, out);
    let ws = Arc::clone(sys.workspace());
    let ledger = ClockLedger::new();
    let before = tracer.map(|_| Counters::read(&ws));
    let (root, entry) = tracer.map_or((0, 0), |t| (t.id(), t.id()));
    let start = tracer.map_or(0, |t| t.now());
    if let Some(t) = tracer {
        t.enter(entry, root);
    }
    let t0 = Instant::now();
    let result = sys.merge("master", "dev", MergeStrategy::Full, &ledger);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Some(t) = tracer {
        t.leave();
        t.record("system.merge", entry, root, root, start);
        t.record("op.merge", root, 0, root, start);
        // The flush follows the merge outside its timing: a root span that
        // still belongs to the merge op.
        let flush = t.id();
        let flush_start = t.now();
        t.enter(flush, root);
        ws.flush().expect("in-memory flush");
        t.record("system.flush", flush, 0, root, flush_start);
        t.leave();
    } else {
        ws.flush().expect("in-memory flush");
    }
    out.attempted += 1;
    let mut round = Round {
        merge_ms: None,
        best: None,
        stream: String::new(),
        logical: 0,
        physical: 0,
    };
    match result {
        Err(e) => {
            out.failed += 1;
            out.check(false, || format!("{} round {i}: merge: {e}", w.name));
        }
        Ok(m) => {
            round.merge_ms = Some(ms);
            let report = m.report.as_ref();
            let evaluated = report.map_or(0, |r| r.candidates_evaluated);
            out.check(
                !m.fast_forward && m.commit.is_some() && evaluated >= 2,
                || {
                    format!(
                        "{} round {i}: merge must be a committed non-fast-forward search over \
                     >= 2 candidates (fast_forward={}, evaluated={evaluated})",
                        w.name, m.fast_forward
                    )
                },
            );
            if let Some(r) = report {
                if let Some(before) = before {
                    let mut rec =
                        OpRecord::new(root, entry, ctx.exact, &before, &Counters::read(&ws));
                    rec.executed = r.executed_components as u64;
                    rec.reused = r.reused_components as u64;
                    rec.merge = (
                        r.candidates_evaluated as u64,
                        r.candidates_pruned as u64,
                        r.skipped_by_frontier as u64,
                    );
                    ops.push(rec);
                }
                // `skipped_by_frontier` is left out: it may vary with
                // worker scheduling.
                round.stream = format!(
                    "{} best={:?} total={} evaluated={} pruned={} executed={} reused={} \
                     failed={} {}\n",
                    m.commit.as_ref().map_or("none".into(), |c| c.id.to_hex()),
                    r.best,
                    r.candidates_total,
                    r.candidates_evaluated,
                    r.candidates_pruned,
                    r.executed_components,
                    r.reused_components,
                    r.failed_candidates,
                    serde_json::to_string(&sys.store().stats()).expect("stats render"),
                );
                round.best = r.best.clone();
            }
            history.extend(m.commit.as_ref().map(|c| c.id));
            history.reverse();
            let (us, logged) = check_log(&ws, "master", &history);
            read_us.push(us);
            out.check(logged, || {
                format!(
                    "{} round {i}: master's log does not list the merge and its history",
                    w.name
                )
            });
        }
    }
    let total = sys.store().stats().total();
    round.logical = total.logical_bytes;
    round.physical = total.physical_bytes;
    round
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let tracer = cfg.traced.then(Tracer::new);
    let (setup_s, workloads) = repeat_setup(3, warm_up);
    let cycle = design(&workloads, cfg.seed);
    let ctx = |i: usize| {
        let shape = cycle[i % cycle.len()];
        RoundCtx {
            w: &workloads[shape.p],
            shape,
            i,
            exact: i < cycle.len(),
        }
    };
    let mut e2e = EndToEnd {
        setup_s,
        ..EndToEnd::default()
    };
    let mut ops = Vec::new();
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    // Samples of the cycle in progress; kept only once the cycle completes.
    let (mut cycle_ms, mut cycle_reads, mut cycle_rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut per_shape = vec![Vec::new(); cycle.len()];
    let mut first: Vec<Round> = Vec::new();
    let window = Instant::now();
    let deadline = cfg.deadline();
    let mut i = 0;
    while i < cycle.len() || Instant::now() < deadline {
        let r = match &tracer {
            None => {
                let (r, rss) = with_peak_rss(|| {
                    run_round(&ctx(i), None, &mut ops, &mut cycle_reads, &mut out)
                });
                cycle_rss.push(rss);
                cycle_ms.extend(r.merge_ms.map(|ms| (i % cycle.len(), ms)));
                r
            }
            Some(t) => {
                let mut reads = Vec::new();
                let (a, b) = pair(i as u64, |on| {
                    run_round(&ctx(i), on.then_some(t), &mut ops, &mut reads, &mut out)
                });
                out.check(a.stream == b.stream, || {
                    format!("round {i}: traced and untraced merge reports differ")
                });
                traced_ms.extend(a.merge_ms);
                untraced_ms.extend(b.merge_ms);
                b
            }
        };
        if i < cycle.len() {
            first.push(r);
        }
        i += 1;
        if i % cycle.len() == 0 {
            for (shape, ms) in cycle_ms.drain(..) {
                e2e.op_ms.push(ms);
                per_shape[shape].push(ms);
            }
            e2e.read_us.append(&mut cycle_reads);
            e2e.rss_mib.append(&mut cycle_rss);
            e2e.window_s = window.elapsed().as_secs_f64();
        }
    }
    let logical: u64 = first.iter().map(|r| r.logical).sum();
    let physical: u64 = first.iter().map(|r| r.physical).sum();
    e2e.bytes_per_logical_byte = physical as f64 / logical.max(1) as f64;
    let logs: Vec<f64> = per_shape
        .iter()
        .filter(|ms| !ms.is_empty())
        .map(|ms| median(ms).ln())
        .collect();
    e2e.op_typical_ms = Some((
        "merge_ms, geometric mean of per-shape medians".into(),
        (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp(),
    ));

    // Outside the window: the first history of each pipeline again, merged
    // by exhaustive search, must pick the same winner.
    for p in 0..workloads.len() {
        let Some(i) = (0..cycle.len()).find(|&i| cycle[i].p == p) else {
            continue;
        };
        let c = ctx(i);
        let (sys, _) = build_history(c.w, c.shape, i, None, &mut Outcome::default());
        let exhaustive = sys
            .merge(
                "master",
                "dev",
                MergeStrategy::WithoutPcPr,
                &ClockLedger::new(),
            )
            .ok()
            .and_then(|m| m.report)
            .and_then(|rep| rep.best);
        out.check(exhaustive.is_some() && exhaustive == first[i].best, || {
            format!(
                "{} round {i}: full merge chose {:?}, exhaustive search chose {exhaustive:?}",
                c.w.name, first[i].best
            )
        });
    }
    match tracer {
        None => {
            let t = Tracer::new();
            let again = run_round(
                &ctx(0),
                Some(&t),
                &mut Vec::new(),
                &mut Vec::new(),
                &mut out,
            );
            out.check(first[0].stream == again.stream, || {
                "round 0: traced and untraced merge reports differ".into()
            });
            e2e.report(&mut out, "merge", 0.9, "log_check", 0.9);
        }
        Some(t) => TracedRun {
            tree: SpanTree::new(t.take_spans()),
            ops,
            samples: t.take_samples(),
            traced_op_ms: traced_ms,
            untraced_op_ms: untraced_ms,
            late_ms: Vec::new(),
        }
        .report(&mut out, &format!("merge-seed{}", cfg.seed)),
    }
    out
}
