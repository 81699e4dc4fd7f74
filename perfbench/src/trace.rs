//! Span tracing from outside the library.
//!
//! The benchmark never instruments library internals. It records spans
//! around the calls it makes itself (entry ops, RPC parse / handle /
//! serialise, flush) and around the two trait seams it can wrap without
//! touching library code: [`Component`] (pipeline compute) and
//! [`StorageBackend`] (physical storage). Spans are kept in memory and
//! analysed when the run ends.
//!
//! Components and backend calls may run on executor pool threads, so a
//! wrapper cannot know its caller. The workload loop therefore declares the single
//! in-flight *entry op* ([`Tracer::enter`]) and every wrapper call parents
//! itself under it.

use mlcask_pipeline::artifact::Artifact;
use mlcask_pipeline::component::{Component, ComponentHandle, ComponentKey, StageKind};
use mlcask_pipeline::errors::Result as PipelineResult;
use mlcask_pipeline::schema::SchemaId;
use mlcask_pipeline::semver::SemVer;
use mlcask_storage::backend::StorageBackend;
use mlcask_storage::errors::Result as StorageResult;
use mlcask_storage::hash::Hash256;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval. `op` is the id of the entry op's root span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What the component wrapper saw, for the codec / chunk / hash probes.
#[derive(Default)]
pub struct Samples {
    /// The first output of each component version.
    pub first: HashMap<ComponentKey, Artifact>,
    /// `(entry op, component version)` of every successful run.
    pub runs: Vec<(u64, ComponentKey)>,
}

/// In-memory span sink shared by the workload loop and every wrapper.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    entry_span: AtomicU64,
    entry_op: AtomicU64,
    spans: Mutex<Vec<Span>>,
    samples: Mutex<Samples>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            entry_span: AtomicU64::new(0),
            entry_op: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            samples: Mutex::new(Samples::default()),
        })
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id (never 0; 0 means "no parent").
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record(&self, name: &'static str, id: u64, parent: u64, op: u64, start_ns: u64) {
        let end_ns = self.now();
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking recorder")
            .push(Span {
                name,
                id,
                parent,
                op,
                start_ns,
                end_ns,
            });
    }

    /// Runs `f` inside a span named `name` and returns its result.
    pub fn span<T>(&self, name: &'static str, parent: u64, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.id();
        let start = self.now();
        let out = f();
        self.record(name, id, parent, op, start);
        out
    }

    /// Declares `span` (of entry op `op`) the parent of every wrapper call
    /// until [`Tracer::leave`]. SeqCst: pool threads spawned or woken after
    /// this store must observe it.
    pub fn enter(&self, span: u64, op: u64) {
        self.entry_op.store(op, Ordering::SeqCst);
        self.entry_span.store(span, Ordering::SeqCst);
    }

    pub fn leave(&self) {
        self.enter(0, 0);
    }

    fn entry(&self) -> (u64, u64) {
        (
            self.entry_span.load(Ordering::SeqCst),
            self.entry_op.load(Ordering::SeqCst),
        )
    }

    /// Runs a wrapper call as a child of the in-flight entry op.
    fn child<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (parent, op) = self.entry();
        self.span(name, parent, op, f)
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }

    pub fn take_samples(&self) -> Samples {
        std::mem::take(&mut *self.samples.lock().expect("sample sink poisoned"))
    }

    fn note_output(&self, key: ComponentKey, out: &Artifact) {
        let (_, op) = self.entry();
        let mut samples = self.samples.lock().expect("sample sink poisoned");
        samples.runs.push((op, key.clone()));
        samples.first.entry(key).or_insert_with(|| out.clone());
    }
}

/// A component that forwards everything to `inner`, timing `run` and
/// `work_units` (the virtual-time cost model).
pub struct TracedComponent {
    inner: ComponentHandle,
    tracer: Arc<Tracer>,
}

impl TracedComponent {
    pub fn wrap(inner: ComponentHandle, tracer: &Arc<Tracer>) -> ComponentHandle {
        Arc::new(TracedComponent {
            inner,
            tracer: Arc::clone(tracer),
        })
    }
}

impl Component for TracedComponent {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn version(&self) -> SemVer {
        self.inner.version()
    }
    fn stage(&self) -> StageKind {
        self.inner.stage()
    }
    fn input_schema(&self) -> Option<SchemaId> {
        self.inner.input_schema()
    }
    fn output_schema(&self) -> SchemaId {
        self.inner.output_schema()
    }
    fn run(&self, inputs: &[Artifact]) -> PipelineResult<Artifact> {
        let out = self
            .tracer
            .child("component.run", || self.inner.run(inputs));
        if let Ok(artifact) = &out {
            self.tracer.note_output(self.inner.key(), artifact);
        }
        out
    }
    fn work_units(&self, inputs: &[Artifact]) -> u64 {
        self.tracer
            .child("component.work_units", || self.inner.work_units(inputs))
    }
    fn ns_per_unit(&self) -> u64 {
        self.inner.ns_per_unit()
    }
    fn key(&self) -> ComponentKey {
        self.inner.key()
    }
    fn check_compatibility(&self, inputs: &[Artifact]) -> PipelineResult<()> {
        self.inner.check_compatibility(inputs)
    }
}

/// A storage backend that forwards everything to `inner`, timing `put`,
/// `get` and `flush`.
pub struct TracedBackend {
    inner: Arc<dyn StorageBackend>,
    tracer: Arc<Tracer>,
}

impl TracedBackend {
    pub fn wrap(inner: Arc<dyn StorageBackend>, tracer: &Arc<Tracer>) -> Arc<dyn StorageBackend> {
        Arc::new(TracedBackend {
            inner,
            tracer: Arc::clone(tracer),
        })
    }
}

impl StorageBackend for TracedBackend {
    fn put(&self, key: Hash256, data: &[u8]) -> StorageResult<bool> {
        self.tracer
            .child("backend.put", || self.inner.put(key, data))
    }
    fn get(&self, key: Hash256) -> StorageResult<bytes::Bytes> {
        self.tracer.child("backend.get", || self.inner.get(key))
    }
    fn contains(&self, key: Hash256) -> bool {
        self.inner.contains(key)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
    fn physical_bytes(&self) -> u64 {
        self.inner.physical_bytes()
    }
    fn keys(&self) -> Vec<Hash256> {
        self.inner.keys()
    }
    fn remove(&self, key: Hash256) -> StorageResult<Option<u64>> {
        self.inner.remove(key)
    }
    fn flush(&self) -> StorageResult<()> {
        self.tracer.child("backend.flush", || self.inner.flush())
    }
    fn compact(&self) -> StorageResult<u64> {
        self.inner.compact()
    }
}

/// Writes spans as JSON lines (one object per span) to `path`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            r#"{{"name":"{}","id":{},"parent":{},"op":{},"start_ns":{},"end_ns":{}}}"#,
            s.name, s.id, s.parent, s.op, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

/// Spans indexed by parent, for self-time and containment queries.
pub struct SpanTree {
    pub spans: Vec<Span>,
    children: HashMap<u64, Vec<usize>>,
}

impl SpanTree {
    pub fn new(spans: Vec<Span>) -> SpanTree {
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            children.entry(s.parent).or_default().push(i);
        }
        SpanTree { spans, children }
    }

    pub fn children(&self, id: u64) -> impl Iterator<Item = &Span> {
        self.children
            .get(&id)
            .into_iter()
            .flatten()
            .map(|&i| &self.spans[i])
    }

    /// Span duration minus the part of it its direct children cover
    /// (children on pool threads may overlap; their union is subtracted).
    pub fn self_ns(&self, span: &Span) -> u64 {
        let mut iv: Vec<(u64, u64)> = self
            .children(span.id)
            .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
            .filter(|(s, e)| s < e)
            .collect();
        iv.sort_unstable();
        let mut covered = 0;
        let mut cursor = span.start_ns;
        for (s, e) in iv {
            let s = s.max(cursor);
            if e > s {
                covered += e - s;
                cursor = e;
            }
        }
        span.dur_ns() - covered
    }

    /// Children recorded outside their parent's interval (there must be
    /// none: every child call returns before its entry op does).
    pub fn escaped_children(&self) -> usize {
        let by_id: HashMap<u64, &Span> = self.spans.iter().map(|s| (s.id, s)).collect();
        self.spans
            .iter()
            .filter(|c| {
                by_id
                    .get(&c.parent)
                    .is_some_and(|p| c.start_ns < p.start_ns || c.end_ns > p.end_ns)
            })
            .count()
    }
}
