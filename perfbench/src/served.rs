//! `served`: the daemon path — an in-process [`Router`] over a durable
//! workspace, with open-loop reads beside closed-loop durable writes.
//!
//! The run is a sequence of *epochs*. Each epoch opens a fresh cask
//! directory under `.bench_work/` in the working directory, with a blob
//! cache budget ([`CACHE_BYTES`]) below the epoch's working set, builds a
//! `Router` over it and opens sessions for two tenants of the
//! `readmission` pipeline. The writer thread (this one) then sends, closed
//! loop, each tenant's seeded linear-update sequence as `commit` RPCs,
//! alternating tenants; every commit is followed by `Workspace::flush`, so
//! its acknowledgement is durable. A reader thread sends `log`, `head`,
//! `branches` and `usage` RPCs at [`READ_RATE`] per second on a fixed
//! schedule against the latest published epoch, timing each read from the
//! moment it was due.
//!
//! Checks: no error responses; at each epoch's end the tenants' `log`
//! lists exactly the acknowledged commits; the writer's responses are
//! byte-identical between traced and untraced epochs of the same inputs;
//! and each epoch's cask is crashed (unsynced bytes dropped) as soon as its
//! last acknowledged flush returns, and after the directory is reopened
//! every acknowledged commit's metafile and the outputs it references read
//! back with exactly the content addresses the commit records.

use crate::layers::{Counters, OpRecord, TracedRun};
use crate::trace::{SpanTree, TracedBackend, TracedComponent, Tracer};
use crate::{mix, pair, repeat_setup, with_peak_rss, Config, EndToEnd, Outcome};
use mlcask_core::workspace::Workspace;
use mlcask_pipeline::component::ComponentKey;
use mlcask_pipeline::metafile::PipelineMetafile;
use mlcask_server::limits::AdmissionControl;
use mlcask_server::protocol;
use mlcask_server::service::{Router, ServerOptions};
use mlcask_storage::backend::StorageBackend;
use mlcask_storage::cache::CacheOptions;
use mlcask_storage::cask::CaskBackend;
use mlcask_storage::chunk::chunk_blob;
use mlcask_storage::chunk::ChunkParams;
use mlcask_storage::commit::CommitGraph;
use mlcask_storage::costmodel::StorageCostModel;
use mlcask_storage::hash::Hash256;
use mlcask_storage::object::{Manifest, ObjectKind, ObjectRef};
use mlcask_storage::store::ChunkStore;
use mlcask_workloads::common::Workload;
use mlcask_workloads::scenario::{linear_update_sequence, LinearScenario};
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Open-loop read rate of the reader thread, per second.
pub const READ_RATE: f64 = 400.0;
/// Blob-cache budget of each epoch's store. An epoch reads 0.35–0.8 MiB
/// of distinct blobs (measured with an unbounded cache) and writes about
/// 3 MiB, so the cache evicts and reads go to disk.
pub const CACHE_BYTES: u64 = 256 << 10;
/// Epochs every run completes; store ratios are taken over these, so they
/// are fixed by the seed.
const MIN_EPOCHS: u64 = 3;
const TENANTS: [&str; 2] = ["alpha", "beta"];
const PIPELINE: &str = "readmission";
/// The reader sleeps until this long before a read is due, then spins.
const SPIN: Duration = Duration::from_micros(150);

/// One epoch's serving state.
struct Epoch {
    router: Router,
    ws: Arc<Workspace>,
    cask: Arc<CaskBackend>,
    dir: PathBuf,
    /// Writer sessions per tenant, then reader sessions per tenant.
    sessions: [u64; 4],
    tracer: Option<Arc<Tracer>>,
}

impl Epoch {
    fn open(dir: PathBuf, tracer: Option<&Arc<Tracer>>) -> Epoch {
        let cask = Arc::new(CaskBackend::open(&dir).expect("cask opens in the work directory"));
        let mut backend: Arc<dyn StorageBackend> = Arc::clone(&cask) as Arc<dyn StorageBackend>;
        let mut workload = mlcask_workloads::by_name(PIPELINE).expect("known pipeline");
        if let Some(t) = tracer {
            backend = TracedBackend::wrap(backend, t);
            workload = Workload {
                handles: workload
                    .handles
                    .iter()
                    .map(|h| TracedComponent::wrap(Arc::clone(h), t))
                    .collect(),
                ..workload
            };
        }
        let ws = Workspace::over(Arc::new(ChunkStore::with_cache(
            backend,
            ChunkParams::DEFAULT,
            StorageCostModel::FORKBASE,
            Some(CacheOptions {
                capacity_bytes: CACHE_BYTES,
                shards: 8,
            }),
        )));
        let router = Router::over(
            Arc::clone(&ws),
            workload,
            ServerOptions {
                parallelism: mlcask_pipeline::parallel::ParallelismPolicy::Sequential,
                coarse_lock: false,
                admission: AdmissionControl::unlimited(),
            },
        );
        let mut sessions = [0u64; 4];
        for (i, s) in sessions.iter_mut().enumerate() {
            let tenant = TENANTS[i % 2];
            let resp = router.handle_text(&format!(
                r#"{{"id":"open-{i}","method":"session.open","params":{{"tenant":"{tenant}"}}}}"#
            ));
            *s = result_of(&resp)
                .and_then(|r| match serde::map_get(r.as_map()?, "session") {
                    Some(Value::U64(id)) => Some(*id),
                    _ => None,
                })
                .expect("session.open succeeds");
        }
        Epoch {
            router,
            ws,
            cask,
            dir,
            sessions,
            tracer: tracer.cloned(),
        }
    }

    /// Serves one request line. Traced epochs split it into the three
    /// server layers, parented under `parent`; `entry` marks the handle
    /// span as the in-flight entry op for wrapper calls.
    fn serve(&self, line: &str, parent: u64, op: u64, entry: bool) -> (String, u64) {
        let Some(t) = &self.tracer else {
            return (self.router.handle_text(line), 0);
        };
        let parsed = t.span("server.parse", parent, op, || protocol::parse_request(line));
        let handle = t.id();
        let start = t.now();
        if entry {
            t.enter(handle, op);
        }
        let response = match &parsed {
            Ok(req) => self.router.handle(req),
            Err(failure) => protocol::error_response(&Value::Null, failure),
        };
        if entry {
            t.leave();
        }
        t.record("server.handle", handle, parent, op, start);
        let text = t.span("server.serialise", parent, op, || {
            serde_json::to_string(&response).expect("response values always render")
        });
        (text, handle)
    }
}

/// The `result` of a response line, `None` for error responses.
fn result_of(line: &str) -> Option<Value> {
    let v: Value = serde_json::from_str(line).ok()?;
    let m = v.as_map()?;
    if serde::map_get(m, "error").is_some() {
        return None;
    }
    serde::map_get(m, "result").cloned()
}

fn str_field<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match serde::map_get(v.as_map()?, key)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn u64_field(v: &Value, key: &str) -> u64 {
    match v.as_map().and_then(|m| serde::map_get(m, key)) {
        Some(Value::U64(n)) => *n,
        _ => 0,
    }
}

fn spec(key: &ComponentKey) -> String {
    format!("\"{}@{}\"", key.name, key.version)
}

/// The writer's commit requests for input `k`: both tenants' seeded
/// sequences, interleaved.
fn commit_lines(w: &Workload, seed: u64, k: u64, sessions: &[u64; 4]) -> Vec<String> {
    let seqs: Vec<Vec<Vec<ComponentKey>>> = (0..TENANTS.len())
        .map(|t| {
            let sc = LinearScenario {
                seed: mix(seed, k * TENANTS.len() as u64 + t as u64),
                ..LinearScenario::default()
            };
            linear_update_sequence(w, &sc)
        })
        .collect();
    let mut lines = Vec::new();
    for it in 0..seqs[0].len() {
        for (t, seq) in seqs.iter().enumerate() {
            let components = seq[it].iter().map(spec).collect::<Vec<_>>().join(",");
            lines.push(format!(
                r#"{{"id":{},"method":"commit","params":{{"session":{},"branch":"master","components":[{components}],"message":"update {it}"}}}}"#,
                lines.len(),
                sessions[t],
            ));
        }
    }
    lines
}

/// Reads are sent against whichever epoch was published last.
struct Board {
    epoch: Mutex<Option<Arc<Epoch>>>,
    stop: AtomicBool,
}

struct StopReader<'a>(&'a AtomicBool);

impl Drop for StopReader<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

#[derive(Default)]
struct ReaderLog {
    read_us: Vec<f64>,
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

fn reader(board: &Board) -> ReaderLog {
    let mut log = ReaderLog::default();
    let t0 = Instant::now();
    let period = Duration::from_secs_f64(1.0 / READ_RATE);
    let mut k: u32 = 0;
    let mut ready = t0;
    while !board.stop.load(Ordering::SeqCst) {
        let due = t0 + period * k;
        k += 1;
        let now = Instant::now();
        if due > now + SPIN {
            std::thread::sleep(due - now - SPIN);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let Some(epoch) = board
            .epoch
            .lock()
            .expect("board lock poisoned by the writer")
            .clone()
        else {
            continue;
        };
        let sent = Instant::now();
        let [_, _, ra, rb] = epoch.sessions;
        let line = match k % 4 {
            0 => format!(
                r#"{{"id":{k},"method":"log","params":{{"session":{ra},"branch":"master"}}}}"#
            ),
            1 => format!(
                r#"{{"id":{k},"method":"head","params":{{"session":{rb},"branch":"master"}}}}"#
            ),
            2 => format!(r#"{{"id":{k},"method":"branches","params":{{"session":{ra}}}}}"#),
            _ => format!(r#"{{"id":{k},"method":"usage","params":{{"session":{rb}}}}}"#),
        };
        let response = match &epoch.tracer {
            Some(t) => {
                let root = t.id();
                let start = t.now();
                let (text, _) = epoch.serve(&line, root, root, false);
                t.record("op.read", root, 0, root, start);
                text
            }
            None => epoch.router.handle_text(&line),
        };
        let done = Instant::now();
        // Latency from the due time on a single-server queue driven by the
        // measured service times: a slow read delays the reads behind it,
        // but the generator's own wake-up lateness (reported as
        // served.generator_late_ms) is not charged to the service.
        let start = due.max(ready);
        ready = start + (done - sent);
        log.read_us.push((ready - due).as_secs_f64() * 1e6);
        log.late_ms.push((sent - due).as_secs_f64() * 1e3);
        log.attempted += 1;
        if result_of(&response).is_none() {
            log.failed += 1;
        }
    }
    log
}

/// What one epoch of the writer produced.
struct EpochRun {
    /// Commit latencies in ms.
    op_ms: Vec<f64>,
    /// Concatenated commit responses.
    stream: String,
    /// The epoch's commit graph and the commits it acknowledged.
    graph: Arc<CommitGraph>,
    acked: Vec<Hash256>,
    dir: PathBuf,
    /// Store totals at the epoch's end.
    logical: u64,
    physical: u64,
    /// Blob-cache evictions during the epoch.
    evictions: u64,
}

/// Runs one epoch of input `k`; publishes it to the reader once both
/// tenants have a branch to read.
#[allow(clippy::too_many_arguments)]
fn run_epoch(
    dir: PathBuf,
    seed: u64,
    k: u64,
    exact: bool,
    tracer: Option<&Arc<Tracer>>,
    board: Option<&Board>,
    ops: &mut Vec<OpRecord>,
    out: &mut Outcome,
) -> EpochRun {
    let epoch = Arc::new(Epoch::open(dir, tracer));
    let w = mlcask_workloads::by_name(PIPELINE).expect("known pipeline");
    let lines = commit_lines(&w, seed, k, &epoch.sessions);
    let mut run = EpochRun {
        op_ms: Vec::new(),
        stream: String::new(),
        graph: Arc::clone(epoch.ws.graph()),
        acked: Vec::new(),
        dir: epoch.dir.clone(),
        logical: 0,
        physical: 0,
        evictions: 0,
    };
    let mut acked_ids: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    for (n, line) in lines.iter().enumerate() {
        let before = tracer.map(|_| Counters::read(&epoch.ws));
        let t0 = Instant::now();
        let (response, flushed, entry, root) = match tracer {
            Some(t) => {
                let root = t.id();
                let start = t.now();
                let (text, handle) = epoch.serve(line, root, root, true);
                let flush = t.id();
                let flush_start = t.now();
                t.enter(flush, root);
                let flushed = epoch.ws.flush();
                t.leave();
                t.record("system.flush", flush, root, root, flush_start);
                t.record("op.commit", root, 0, root, start);
                (text, flushed, handle, root)
            }
            None => {
                let text = epoch.router.handle_text(line);
                (text, epoch.ws.flush(), 0, 0)
            }
        };
        // Past the crash below the cask refuses every call, flushes too;
        // the precheck-rejected final iterations sent then write nothing.
        let last_iteration = n + TENANTS.len() >= lines.len();
        if !last_iteration {
            flushed.expect("flush after commit");
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        out.attempted += 1;
        let Some(result) = result_of(&response) else {
            out.failed += 1;
            out.check(false, || format!("epoch {k}: error response {response}"));
            continue;
        };
        run.op_ms.push(ms);
        if let Some(before) = before {
            let mut rec = OpRecord::new(root, entry, exact, &before, &Counters::read(&epoch.ws));
            rec.executed = u64_field(&result, "executed");
            rec.reused = u64_field(&result, "reused");
            ops.push(rec);
        }
        let committed = matches!(
            result.as_map().and_then(|m| serde::map_get(m, "committed")),
            Some(Value::Bool(true))
        );
        let id = result
            .as_map()
            .and_then(|m| serde::map_get(m, "commit"))
            .and_then(|c| str_field(c, "id"))
            .map(str::to_string);
        out.check(
            committed != last_iteration && committed == id.is_some(),
            || format!("epoch {k} commit {n}: unexpected outcome {response}"),
        );
        if let Some(id) = id {
            run.acked
                .push(Hash256::from_hex(&id).expect("commit ids are hex"));
            acked_ids[n % 2].push(id);
        }
        run.stream.push_str(&response);
        run.stream.push('\n');
        if n + 1 + TENANTS.len() == lines.len() {
            // The last write is acknowledged: crash with nothing in between,
            // so whatever its flush left unsynced is lost and the reopen
            // check sees only what the acks promised.
            epoch.cask.simulate_crash();
        }
        if n + 1 == TENANTS.len() {
            if let Some(b) = board {
                *b.epoch.lock().expect("board lock poisoned by the reader") =
                    Some(Arc::clone(&epoch));
            }
        }
    }
    let total = epoch.ws.store().stats().total();
    run.logical = total.logical_bytes;
    run.physical = total.physical_bytes;
    run.evictions = epoch
        .ws
        .cache_stats()
        .expect("the served store has a blob cache")
        .evictions;
    // Each tenant's log lists exactly its acknowledged commits, newest first.
    for (t, ids) in acked_ids.iter().enumerate() {
        let resp = epoch.router.handle_text(&format!(
            r#"{{"id":"final","method":"log","params":{{"session":{},"branch":"master","limit":1000}}}}"#,
            epoch.sessions[t]
        ));
        let logged: Vec<String> = result_of(&resp)
            .and_then(|v| {
                v.as_seq().map(|s| {
                    s.iter()
                        .filter_map(|c| str_field(c, "id").map(str::to_string))
                        .collect()
                })
            })
            .unwrap_or_default();
        let expected: Vec<String> = ids.iter().rev().cloned().collect();
        out.check(logged == expected, || {
            format!(
                "epoch {k} tenant {}: log does not list exactly the acknowledged commits",
                TENANTS[t]
            )
        });
    }
    run
}

/// Content address the store gives `bytes` (the id of its chunk manifest).
fn content_id(bytes: &[u8]) -> Hash256 {
    Hash256::of(&Manifest::from_chunks(&chunk_blob(bytes, ChunkParams::DEFAULT)).encode())
}

/// Reads every acknowledged commit's metafile and outputs through `store`
/// and checks each against the ids the commit records; returns how many
/// commits read back.
fn read_back(store: &ChunkStore, run: &EpochRun) -> Result<usize, String> {
    let view = run.graph.view();
    for &id in &run.acked {
        let commit = view.get(id).map_err(|e| e.to_string())?;
        let meta = ObjectRef {
            id: commit.payload,
            kind: ObjectKind::Pipeline,
            len: 0,
        };
        let bytes = store.get_blob(&meta).map_err(|e| e.to_string())?;
        if content_id(&bytes) != commit.payload {
            return Err(format!("metafile of commit {} changed", id.to_hex()));
        }
        let metafile: PipelineMetafile =
            serde_json::from_slice(&bytes).map_err(|e| e.to_string())?;
        for slot in &metafile.slots {
            let out = store.get_blob(&slot.output).map_err(|e| e.to_string())?;
            if content_id(&out) != slot.output.id || Hash256::of(&out) != slot.artifact_id {
                return Err(format!(
                    "output of {} in commit {} changed",
                    slot.component,
                    id.to_hex()
                ));
            }
        }
    }
    Ok(run.acked.len())
}

/// Reopens the crashed epoch's cask directory and checks every
/// acknowledged commit reads back bit-exact.
fn verify_durable(run: EpochRun, out: &mut Outcome) {
    let store = |cask| {
        ChunkStore::with_cache(
            Arc::new(cask),
            ChunkParams::DEFAULT,
            StorageCostModel::FORKBASE,
            None,
        )
    };
    let checked = CaskBackend::open(&run.dir)
        .map_err(|e| e.to_string())
        .and_then(|cask| read_back(&store(cask), &run));
    out.check(matches!(checked, Ok(n) if n > 0), || {
        format!(
            "{}: acknowledged commits did not survive crash and reopen: {checked:?}",
            run.dir.display()
        )
    });
    let _ = std::fs::remove_dir_all(&run.dir);
}

/// A per-process work directory inside the working directory.
fn work_dir() -> PathBuf {
    Path::new(".bench_work").join(format!("served-{}", std::process::id()))
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let root = work_dir();
    let mut dirs = 0u64;
    let mut next_dir = || {
        dirs += 1;
        root.join(format!("epoch-{dirs}"))
    };
    // Five repetitions: cask set-up is fsync-bound and varies more.
    let (setup_s, ()) = repeat_setup(5, || {
        // Stores, router and sessions, plus one warm-up commit.
        let epoch = Epoch::open(next_dir(), None);
        let w = mlcask_workloads::by_name(PIPELINE).expect("known pipeline");
        let line = &commit_lines(&w, cfg.seed, u64::MAX, &epoch.sessions)[0];
        assert!(
            result_of(&epoch.router.handle_text(line)).is_some(),
            "warm-up commit"
        );
        epoch.ws.flush().expect("warm-up flush");
        let dir = epoch.dir.clone();
        drop(epoch);
        let _ = std::fs::remove_dir_all(dir);
    });
    let tracer = cfg.traced.then(Tracer::new);
    let board = Board {
        epoch: Mutex::new(None),
        stop: AtomicBool::new(false),
    };
    let mut e2e = EndToEnd {
        setup_s,
        ..EndToEnd::default()
    };
    let mut ops = Vec::new();
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let mut finished: Vec<EpochRun> = Vec::new();
    let mut first_stream = None;
    let (reads, window_s) = std::thread::scope(|scope| {
        let reads = scope.spawn(|| reader(&board));
        // Stops the reader when the writer leaves, also by panicking, so a
        // failed writer ends the run instead of waiting on the reader.
        let stop = StopReader(&board.stop);
        let window = Instant::now();
        let deadline = cfg.deadline();
        let mut k = 0u64;
        while k < MIN_EPOCHS || Instant::now() < deadline {
            match &tracer {
                None => {
                    let dir = next_dir();
                    let (r, rss) = with_peak_rss(|| {
                        run_epoch(
                            dir,
                            cfg.seed,
                            k,
                            false,
                            None,
                            Some(&board),
                            &mut ops,
                            &mut out,
                        )
                    });
                    e2e.rss_mib.push(rss);
                    e2e.op_ms.extend(&r.op_ms);
                    if k == 0 {
                        first_stream = Some(r.stream.clone());
                    }
                    finished.push(r);
                }
                Some(t) => {
                    let (a, b) = pair(k, |on| {
                        let dir = next_dir();
                        run_epoch(
                            dir,
                            cfg.seed,
                            k,
                            k == 0,
                            on.then_some(t),
                            Some(&board),
                            &mut ops,
                            &mut out,
                        )
                    });
                    out.check(a.stream == b.stream, || {
                        format!("epoch {k}: traced and untraced writer responses differ")
                    });
                    traced_ms.extend(&a.op_ms);
                    untraced_ms.extend(&b.op_ms);
                    finished.push(a);
                    finished.push(b);
                }
            }
            k += 1;
        }
        let window_s = window.elapsed().as_secs_f64();
        drop(stop);
        (reads.join().expect("reader thread panicked"), window_s)
    });
    *board.epoch.lock().expect("board lock") = None;
    e2e.window_s = window_s;
    out.attempted += reads.attempted;
    out.failed += reads.failed;
    out.check(reads.failed == 0, || {
        format!("{} reads got error responses", reads.failed)
    });
    e2e.read_us = reads.read_us;

    // Outside the window: the traced/untraced identity check for the
    // untraced run, then durability of every epoch.
    if tracer.is_none() {
        let t = Tracer::new();
        let again = run_epoch(
            next_dir(),
            cfg.seed,
            0,
            false,
            Some(&t),
            None,
            &mut Vec::new(),
            &mut out,
        );
        out.check(first_stream.as_ref() == Some(&again.stream), || {
            "epoch 0: traced and untraced writer responses differ".into()
        });
        finished.push(again);
    }
    let first = &finished[..MIN_EPOCHS as usize];
    let physical: u64 = first.iter().map(|r| r.physical).sum();
    let logical: u64 = first.iter().map(|r| r.logical).sum();
    e2e.bytes_per_logical_byte = physical as f64 / logical.max(1) as f64;
    println!(
        "info: first epoch wrote {:.2} MiB and evicted {} blobs from a {} KiB blob cache",
        finished[0].physical as f64 / (1 << 20) as f64,
        finished[0].evictions,
        CACHE_BYTES >> 10
    );
    out.check(finished[0].evictions > 0, || {
        "the epoch working set must exceed the blob-cache budget".into()
    });
    for r in finished {
        verify_durable(r, &mut out);
    }
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(".bench_work");
    match tracer {
        // Reads report p95: the p99 of a ~35 us read follows scheduler and
        // host interference more than the service (IQR/median 0.18-0.36
        // across seeds on a 2-vCPU VM).
        None => e2e.report(&mut out, "commit", 0.95, "read", 0.95),
        Some(t) => TracedRun {
            tree: SpanTree::new(t.take_spans()),
            ops,
            samples: t.take_samples(),
            traced_op_ms: traced_ms,
            untraced_op_ms: untraced_ms,
            late_ms: reads.late_ms,
        }
        .report(&mut out, &format!("served-seed{}", cfg.seed)),
    }
    out
}
