//! The traced run's span recorder. Spans are kept in memory and written
//! out as JSON lines when the run ends, so recording costs a clock read
//! and a push.

use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer of the program.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work the call did, in the span's own unit (macro-ops simulated,
    /// bytes, ...); 0 when the span counts nothing.
    pub count: u64,
    /// Extra JSON members (`"net":"alexnet","layer":"conv1",...`).
    pub attrs: String,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    /// Ids of the spans currently open, innermost last: the parent of
    /// the next span. Calls are traced on one thread at a time.
    open: Vec<usize>,
    op: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("a traced call panicked")
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tags every span opened from now on with op `op`.
    pub fn set_op(&self, op: u64) {
        self.lock().op = op;
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&self, name: &'static str, attrs: String) -> usize {
        let start_ns = self.now_ns();
        let mut st = self.lock();
        let id = st.spans.len();
        let parent = st.open.last().copied();
        let op = st.op;
        st.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns,
            count: 0,
            attrs,
        });
        st.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) with its work count.
    pub fn end(&self, id: usize, count: u64) {
        let end_ns = self.now_ns();
        let mut st = self.lock();
        let closed = st.open.pop();
        debug_assert_eq!(closed, Some(id), "spans close innermost first");
        st.spans[id].end_ns = end_ns;
        st.spans[id].count = count;
    }

    /// Records an instant as a zero-length span under the innermost
    /// open one.
    pub fn mark(&self, name: &'static str) {
        let id = self.begin(name, String::new());
        self.end(id, 0);
    }

    /// Times `f` as a span with no count.
    pub fn time<T>(&self, name: &'static str, attrs: String, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, attrs);
        let out = f();
        self.end(id, 0);
        out
    }

    /// Takes every recorded span out of the tracer.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut self.lock().spans)
    }
}

/// Writes spans as one JSON object per line.
pub fn write_jsonl(spans: &[Span], path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let sep = if s.attrs.is_empty() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}{sep}{}}}",
            s.id, s.op, s.name, s.start_ns, s.end_ns, s.count, s.attrs
        )?;
    }
    out.flush()
}

/// Total and self time of every span named `name`, nanoseconds: a
/// span's self time is its duration minus its children's.
pub fn total_and_self_ns(spans: &[Span], name: &str) -> (u64, u64) {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.ns();
        }
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(total, own), s| {
            (total + s.ns(), own + s.ns().saturating_sub(child_ns[s.id]))
        })
}

/// Sum of durations (ns), sum of counts and number of spans named `name`
/// whose attributes contain `attr` (empty matches all).
pub fn sum(spans: &[Span], name: &str, attr: &str) -> (u64, u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name && s.attrs.contains(attr))
        .fold((0, 0, 0), |(ns, count, n), s| {
            (ns + s.ns(), count + s.count, n + 1)
        })
}
