//! The `cbrand` TCP daemon.
//!
//! One **reactor thread** owns every socket: the listener, a wakeup
//! channel, and all client connections, multiplexed through
//! [`cbrain_reactor`]'s `poll(2)` loop. Connections cost a descriptor
//! and a buffer while idle — never a thread — so thousands of
//! keep-alive clients coexist with a worker pool sized to the CPU.
//!
//! Compute stays scarce on purpose: a parsed `compile`/`simulate`/
//! `forward`/`compile_keys` request becomes a **ticket** on a bounded
//! queue that a fixed pool of workers drains, each wiring a [`Runner`]
//! to the shared [`CompiledLayerCache`] and the [`CompileBatcher`] that
//! merges concurrent compile work-lists into deterministic pool
//! batches. Per-layer report lines stream back through the reactor as
//! the serial merge pass finishes them. Cheap control requests
//! (`hello`, `stats`, `progress`, `metrics`, `evict`, `shutdown`) are
//! answered inline on the reactor thread, so observability stays
//! responsive even when every worker is busy.
//!
//! Overload is handled at the front door. The reactor tracks how many
//! connections *occupy* the daemon — fresh peers that have not yet
//! completed a request, plus anything with a ticket in flight or bytes
//! buffered — and sheds new arrivals with a single protocol v2
//! [`Event::Busy`] line (retry hint included) once occupancy crosses
//! the high-water mark, resuming accepts at the low-water mark. A shed
//! socket is half-closed and *drained* in-loop (the `Draining` phase
//! replaces the dedicated reaper thread of earlier versions) so the
//! close cannot RST the busy answer away. A silent connection that
//! never completes a handshake keeps counting as occupancy — a
//! connection storm of idle openers is shed exactly like a compute
//! flood. An optional hard cap ([`DaemonOptions::max_connections`])
//! additionally answers `busy` to every arrival past the cap, keeping
//! surplus clients out of the kernel backlog.
//!
//! On startup the daemon warms the cache from a persisted file (if one
//! is configured); on `shutdown` it saves the cache back before the
//! reactor returns.

use crate::batch::CompileBatcher;
use crate::json::{self, Value};
use crate::wire::{
    CompileItem, Event, NetworkSource, Request, RunRequest, PROTOCOL_MINOR, PROTOCOL_VERSION,
};
use cbrain::forward::{forward, NetworkWeights};
use cbrain::persist;
use cbrain::telemetry::{
    self, http::MetricsServer, Counter, Gauge, Histogram, MetricKind, Registry, Sample,
    SampleValue, Span, DURATION_BUCKETS,
};
use cbrain::{
    compile_cache_entry, CompileBackend as _, CompiledLayerCache, EnvConfig, RunOptions, Runner,
};
use cbrain_model::{spec, zoo, Layer, Network, Tensor3};
use cbrain_reactor::{Connection, Interest, Phase, Poller, WakeHandle, Waker};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Worker-pool floor when [`DaemonOptions::workers`] is `0`: even a
/// single-core host serves a few requests concurrently, since most
/// are short and cache-hit dominated.
const DEFAULT_MIN_WORKERS: usize = 4;

/// Ticket-queue bound when [`DaemonOptions::queue_depth`] is `0`.
const DEFAULT_QUEUE_DEPTH: usize = 64;

/// Per-unit-of-load retry hint when [`DaemonOptions::busy_retry_ms`] is
/// `0`.
const DEFAULT_BUSY_RETRY_MS: u64 = 25;

/// Ceiling on the `retry_after_ms` hint: the daemon never asks a client
/// to stay away longer than this, however deep the backlog.
const MAX_RETRY_HINT_MS: u64 = 1_000;

/// First accept pause after a failed `accept` (doubles per consecutive
/// failure). The reactor keeps polling connections during the pause; it
/// only stops watching the listener.
const ACCEPT_BACKOFF_BASE_MS: u64 = 5;

/// Accept-pause ceiling between failed `accept` calls.
const ACCEPT_BACKOFF_MAX_MS: u64 = 500;

/// Hard cap on one NDJSON request line. Far above any real request
/// (even a thousand-layer `compile_keys` batch), far below a
/// memory-exhaustion write.
const MAX_REQUEST_LINE: usize = 16 << 20;

/// Per-connection read budget per reactor iteration, so one firehose
/// peer cannot starve the rest of the loop.
const READ_BUDGET_PER_TICK: usize = 256 * 1024;

/// How long a shed connection's `Draining` phase waits for the peer's
/// EOF before closing anyway.
const SHED_DRAIN_MS: u64 = 2_000;

/// How many already-sent peer bytes a `Draining` connection discards
/// before closing anyway.
const SHED_DRAIN_BUDGET: usize = 64 * 1024;

/// After `shutdown`, how long the reactor keeps flushing pending
/// responses to slow readers before exiting regardless.
const STOP_FLUSH_MS: u64 = 1_000;

/// Daemon construction options.
#[derive(Debug, Clone, Default)]
pub struct DaemonOptions {
    /// Pool workers per compile batch (`0` means one).
    pub jobs: usize,
    /// Cache file to load on startup and save on shutdown (`None`
    /// disables persistence).
    pub cache_path: Option<PathBuf>,
    /// Compute-pool worker threads draining the ticket queue. `0`
    /// resolves to `max(available_jobs(), 4)`.
    pub workers: usize,
    /// Bound on parsed-but-unserved compute requests. `0` resolves to
    /// 64. It is also the admission high-water mark: occupancy above the
    /// worker pool at which the daemon starts shedding new connections
    /// with `busy`. Shedding stops again at half of it.
    pub queue_depth: usize,
    /// Base retry hint in milliseconds; the shed answer scales it by the
    /// daemon's current load (queued + in-flight requests). `0`
    /// resolves to 25.
    pub busy_retry_ms: u64,
    /// Bind address for the Prometheus text-format exposition listener
    /// (`GET /metrics` over HTTP/1.0). `None` disables the listener.
    /// Resolve flag > `CBRAIN_METRICS_ADDR` > none with
    /// [`resolve_metrics_addr`].
    pub metrics_addr: Option<String>,
    /// Hard cap on concurrently open connections; arrivals past it are
    /// answered with `busy` instead of queueing in the kernel backlog.
    /// `0` means no cap. Resolve flag > `CBRAIN_MAX_CONNS` > none with
    /// [`resolve_max_connections`].
    pub max_connections: usize,
}

/// Resolves the effective metrics listen address with the standard
/// flag > environment > default precedence (the default being "no
/// exposition listener").
#[must_use]
pub fn resolve_metrics_addr(flag: Option<String>, env: &EnvConfig) -> Option<String> {
    flag.or_else(|| env.metrics_addr())
}

/// Resolves the effective connection cap with the standard flag >
/// environment > default precedence (the default being "no cap",
/// expressed as `0`).
#[must_use]
pub fn resolve_max_connections(flag: Option<usize>, env: &EnvConfig) -> usize {
    flag.or_else(|| env.max_conns()).unwrap_or(0)
}

/// One parsed compute request waiting for (or holding) a pool worker.
struct Ticket {
    /// Reactor token of the connection that sent the request.
    conn: u64,
    request: Request,
    /// The client's frame id, echoed on every response event.
    id: Option<u64>,
    /// Cleared by the reactor when the connection dies, so a worker can
    /// skip (or abort) work nobody will read.
    alive: Arc<AtomicBool>,
    enqueued: Instant,
}

struct TicketQueueInner {
    tickets: VecDeque<Ticket>,
    closed: bool,
}

/// The bounded compute admission queue: the reactor pushes, pool
/// workers block on [`TicketQueue::next`].
struct TicketQueue {
    inner: Mutex<TicketQueueInner>,
    available: Condvar,
}

impl TicketQueue {
    fn new() -> Self {
        Self {
            inner: Mutex::new(TicketQueueInner {
                tickets: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Queues a ticket and returns the queue depth after the push.
    fn push(&self, ticket: Ticket) -> usize {
        let mut q = self.inner.lock().expect("ticket lock");
        q.tickets.push_back(ticket);
        self.available.notify_one();
        q.tickets.len()
    }

    /// Blocks until a ticket is available (`Some`) or the queue is
    /// closed (`None`, retiring the calling worker).
    fn next(&self) -> Option<Ticket> {
        let mut q = self.inner.lock().expect("ticket lock");
        loop {
            if let Some(ticket) = q.tickets.pop_front() {
                return Some(ticket);
            }
            if q.closed {
                return None;
            }
            q = self.available.wait(q).expect("ticket lock");
        }
    }

    /// Closes the queue and hands back whatever was still waiting:
    /// stop means stop, a queued request is dropped with its
    /// connection. Idempotent; later calls return nothing.
    fn close(&self) -> Vec<Ticket> {
        let mut q = self.inner.lock().expect("ticket lock");
        q.closed = true;
        let dropped = q.tickets.drain(..).collect();
        self.available.notify_all();
        dropped
    }

    fn len(&self) -> usize {
        self.inner.lock().expect("ticket lock").tickets.len()
    }
}

/// Server-side admission control: the bounded ticket queue plus the
/// water marks and counters the shed/accept hysteresis runs on. The
/// live counters the `stats` request reports are telemetry-registry
/// handles — one set of numbers backs the wire response, the `metrics`
/// object, and the Prometheus exposition.
struct Admission {
    tickets: TicketQueue,
    high_water: usize,
    low_water: usize,
    busy_retry_ms: u64,
    accepted: Arc<Counter>,
    shed: Arc<Counter>,
    rejected: Arc<Counter>,
    in_flight: Arc<Gauge>,
    ticket_wait: Arc<Histogram>,
}

impl Admission {
    fn new(high_water: usize, low_water: usize, busy_retry_ms: u64, registry: &Registry) -> Self {
        Self {
            tickets: TicketQueue::new(),
            high_water,
            low_water,
            busy_retry_ms,
            accepted: registry.counter(
                "admission_accepted_total",
                "connections admitted for service (shed arrivals count separately)",
            ),
            shed: registry.counter(
                "admission_shed_total",
                "connections refused with a busy answer",
            ),
            rejected: registry.counter(
                "accept_rejected_total",
                "connections refused with busy by the --max-connections cap",
            ),
            in_flight: registry.gauge(
                "admission_in_flight",
                "compute requests executing on pool workers right now",
            ),
            ticket_wait: registry.histogram(
                "ticket_wait_seconds",
                "wait between request parse and compute-pool admission, seconds",
                &DURATION_BUCKETS,
            ),
        }
    }
}

/// Live counters behind the protocol v2.1 `progress` request: how many
/// runs are executing right now and how far through their layer cells
/// they are. `layers_total`/`layers_done` cover *active* runs only —
/// a run's contribution is unwound when it finishes, so `done/total`
/// always reads as "this much of the in-flight work is complete".
/// Registry-resident since v2.2: the wire response and the `metrics`
/// exposition read the same handles.
struct ProgressCounters {
    runs_active: Arc<Gauge>,
    runs_done: Arc<Counter>,
    layers_done: Arc<Gauge>,
    layers_total: Arc<Gauge>,
}

impl ProgressCounters {
    fn new(registry: &Registry) -> Self {
        Self {
            runs_active: registry.gauge(
                "progress_runs_active",
                "simulate/compile runs executing right now",
            ),
            runs_done: registry.counter(
                "progress_runs_done_total",
                "runs completed since daemon startup",
            ),
            layers_done: registry.gauge(
                "progress_layers_done",
                "layer cells finished across the active runs",
            ),
            layers_total: registry.gauge(
                "progress_layers_total",
                "layer cells planned across the active runs",
            ),
        }
    }
}

/// Registers one run with the progress counters and unwinds its
/// contribution on drop — whatever path the run takes out (done, run
/// error, or mid-stream I/O failure), the active totals stay balanced.
struct RunProgress<'a> {
    counters: &'a ProgressCounters,
    planned: u64,
    seen: AtomicU64,
}

impl<'a> RunProgress<'a> {
    fn start(counters: &'a ProgressCounters, planned: u64) -> Self {
        counters.runs_active.inc();
        counters.layers_total.add(planned as i64);
        Self {
            counters,
            planned,
            seen: AtomicU64::new(0),
        }
    }

    fn layer_done(&self) {
        self.seen.fetch_add(1, Ordering::Relaxed);
        self.counters.layers_done.inc();
    }
}

impl Drop for RunProgress<'_> {
    fn drop(&mut self) {
        self.counters.runs_active.dec();
        self.counters.runs_done.inc();
        self.counters.layers_total.add(-(self.planned as i64));
        self.counters
            .layers_done
            .add(-(self.seen.load(Ordering::Relaxed) as i64));
    }
}

/// Request-type labels the per-request latency histograms are keyed by;
/// sorted so registration order matches exposition order.
const REQUEST_KINDS: [&str; 10] = [
    "compile",
    "compile_keys",
    "evict",
    "forward",
    "hello",
    "metrics",
    "progress",
    "shutdown",
    "simulate",
    "stats",
];

/// The wire label of a request, for metrics.
fn request_kind(request: &Request) -> &'static str {
    match request {
        Request::Hello { .. } => "hello",
        Request::Compile(_) => "compile",
        Request::CompileKeys { .. } => "compile_keys",
        Request::Simulate(_) => "simulate",
        Request::Forward { .. } => "forward",
        Request::Stats => "stats",
        Request::Progress => "progress",
        Request::Metrics => "metrics",
        Request::Evict { .. } => "evict",
        Request::Shutdown => "shutdown",
    }
}

/// Whether a request needs a pool worker (true) or is answered inline
/// on the reactor thread (false).
fn is_compute(request: &Request) -> bool {
    matches!(
        request,
        Request::Compile(_)
            | Request::Simulate(_)
            | Request::Forward { .. }
            | Request::CompileKeys { .. }
    )
}

struct ServerState {
    cache: Arc<CompiledLayerCache>,
    batcher: Arc<CompileBatcher>,
    admission: Admission,
    requests: Arc<Counter>,
    progress: ProgressCounters,
    /// This daemon's own registry: per-daemon so multiple in-process
    /// daemons (tests, tools) keep exact, independent counts. The
    /// exposition merges it with [`Registry::global`], which collects
    /// the core-layer metrics (journal, persist).
    registry: Arc<Registry>,
    request_seconds: HashMap<&'static str, Arc<Histogram>>,
    conns_open: Arc<Gauge>,
    conns_idle: Arc<Gauge>,
    poll_wakeups: Arc<Counter>,
}

impl ServerState {
    fn request_span(&self, request: &Request) -> Span {
        Span::start(&self.request_seconds[request_kind(request)])
    }
}

/// One full metrics snapshot: computed gauges (queue depth, cache
/// occupancy — state that lives outside the registry), this daemon's
/// registry, and the process-global registry (core-layer journal and
/// persistence counters). Earlier sets win on name collisions and the
/// merge sorts by name, so two scrapes of an idle daemon are
/// byte-identical.
fn metrics_samples(state: &ServerState) -> Vec<Sample> {
    let accepted = state.admission.accepted.get();
    let shed = state.admission.shed.get();
    let shed_ratio = if accepted + shed == 0 {
        0.0
    } else {
        shed as f64 / (accepted + shed) as f64
    };
    let computed = vec![
        Sample {
            name: "admission_queued".to_owned(),
            help: "compute requests parsed but not yet picked up by a pool worker".to_owned(),
            kind: MetricKind::Gauge,
            value: SampleValue::Gauge(state.admission.tickets.len() as i64),
        },
        Sample {
            name: "admission_shed_ratio".to_owned(),
            help: "shed connections over all admission decisions since startup".to_owned(),
            kind: MetricKind::Gauge,
            value: SampleValue::GaugeF64(shed_ratio),
        },
        Sample {
            name: "cache_entries".to_owned(),
            help: "compiled layers resident in the cache".to_owned(),
            kind: MetricKind::Gauge,
            value: SampleValue::Gauge(state.cache.len() as i64),
        },
        Sample {
            name: "cache_evictions_total".to_owned(),
            help: "compiled layers evicted by the LRU capacity bound".to_owned(),
            kind: MetricKind::Counter,
            value: SampleValue::Counter(state.cache.evictions()),
        },
        Sample {
            name: "cache_hits_total".to_owned(),
            help: "compile requests answered from the cache".to_owned(),
            kind: MetricKind::Counter,
            value: SampleValue::Counter(state.cache.hits()),
        },
        Sample {
            name: "cache_misses_total".to_owned(),
            help: "compile requests that had to run the backend".to_owned(),
            kind: MetricKind::Counter,
            value: SampleValue::Counter(state.cache.misses()),
        },
    ];
    telemetry::merge_samples(vec![
        computed,
        state.registry.samples(),
        Registry::global().samples(),
    ])
}

/// The `metrics` request's JSON view of a snapshot: one object member
/// per sample, in the (sorted) order [`metrics_samples`] produced.
/// Histograms become `{"buckets": {bound: cumulative, ..., "+Inf": n},
/// "sum": s, "count": n}`.
fn samples_to_json(samples: &[Sample]) -> Value {
    let members = samples
        .iter()
        .map(|sample| {
            let value = match &sample.value {
                SampleValue::Counter(v) => json::u(*v),
                SampleValue::Gauge(v) => {
                    if *v >= 0 {
                        json::u(*v as u64)
                    } else {
                        Value::Int(*v)
                    }
                }
                SampleValue::GaugeF64(v) => Value::Num(*v),
                SampleValue::Histogram {
                    bounds,
                    cumulative,
                    sum,
                    count,
                } => {
                    let mut buckets: Vec<(String, Value)> = bounds
                        .iter()
                        .zip(cumulative.iter())
                        .map(|(bound, cum)| (telemetry::format_f64(*bound), json::u(*cum)))
                        .collect();
                    buckets.push(("+Inf".to_owned(), json::u(*count)));
                    json::obj(vec![
                        ("buckets", Value::Obj(buckets)),
                        ("sum", Value::Num(*sum)),
                        ("count", json::u(*count)),
                    ])
                }
            };
            (sample.name.clone(), value)
        })
        .collect();
    Value::Obj(members)
}

/// A bound, not-yet-running daemon.
pub struct Daemon {
    listener: TcpListener,
    addr: SocketAddr,
    state: Arc<ServerState>,
    cache_path: Option<PathBuf>,
    load_note: String,
    workers: usize,
    max_conns: usize,
    /// The Prometheus exposition listener, when `--metrics-addr` is on.
    /// Owned here so it serves for exactly the daemon's lifetime; the
    /// drop at the end of [`Daemon::run`] stops it.
    metrics: Option<MetricsServer>,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("addr", &self.addr)
            .field("cache_path", &self.cache_path)
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl Daemon {
    /// Binds the daemon to `addr` (use port 0 for an ephemeral port) and
    /// warm-loads the cache file if one is configured. A corrupt or
    /// version-mismatched file degrades to a cold start, never an error.
    ///
    /// # Errors
    ///
    /// Returns the bind error, if any.
    pub fn bind(addr: &str, opts: DaemonOptions) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let cache = CompiledLayerCache::shared();
        let load_note = match &opts.cache_path {
            None => "cache persistence disabled".to_owned(),
            Some(path) => persist::load_or_cold(&cache, path),
        };
        let workers = if opts.workers == 0 {
            cbrain::available_jobs().max(DEFAULT_MIN_WORKERS)
        } else {
            opts.workers
        };
        let queue_depth = if opts.queue_depth == 0 {
            DEFAULT_QUEUE_DEPTH
        } else {
            opts.queue_depth
        };
        let (high_water, low_water) = (queue_depth, queue_depth / 2);
        let busy_retry_ms = if opts.busy_retry_ms == 0 {
            DEFAULT_BUSY_RETRY_MS
        } else {
            opts.busy_retry_ms
        };
        let registry = Arc::new(Registry::new());
        let request_seconds = REQUEST_KINDS
            .iter()
            .map(|kind| {
                (
                    *kind,
                    registry.histogram(
                        &format!("request_seconds{{req=\"{kind}\"}}"),
                        "request service latency by request type, seconds",
                        &DURATION_BUCKETS,
                    ),
                )
            })
            .collect();
        let state = Arc::new(ServerState {
            cache,
            batcher: Arc::new(CompileBatcher::with_registry(opts.jobs, &registry)),
            admission: Admission::new(high_water, low_water, busy_retry_ms, &registry),
            requests: registry.counter("requests_total", "protocol requests decoded since startup"),
            progress: ProgressCounters::new(&registry),
            registry: Arc::clone(&registry),
            request_seconds,
            conns_open: registry.gauge(
                "connections_open",
                "connections currently open on the serving listener",
            ),
            conns_idle: registry.gauge(
                "connections_idle",
                "open connections idle between requests (proven keep-alive peers)",
            ),
            poll_wakeups: registry.counter(
                "poll_wakeups_total",
                "reactor poll(2) returns that reported at least one ready descriptor",
            ),
        });
        let metrics = match &opts.metrics_addr {
            None => None,
            Some(addr) => {
                let st = Arc::clone(&state);
                Some(MetricsServer::serve(
                    addr.as_str(),
                    Arc::new(move || telemetry::render_prometheus(&metrics_samples(&st))),
                )?)
            }
        };
        Ok(Self {
            listener,
            addr,
            state,
            cache_path: opts.cache_path,
            load_note,
            workers,
            max_conns: opts.max_connections,
            metrics,
        })
    }

    /// The bound address (read the port from here when binding to 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// One line describing what the startup cache load did.
    pub fn load_note(&self) -> &str {
        &self.load_note
    }

    /// The daemon's shared cache handle.
    pub fn cache(&self) -> &Arc<CompiledLayerCache> {
        &self.state.cache
    }

    /// The resolved worker-pool size this daemon will run with.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The bound address of the Prometheus exposition listener, when one
    /// was requested (read the port from here when binding to 0).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(MetricsServer::addr)
    }

    /// Runs the reactor loop until a client sends `shutdown`, then saves
    /// the cache (if persistence is on). One thread polls every socket;
    /// a fixed pool of [`Self::workers`] threads executes compute
    /// tickets; requests on one connection are sequential. Connections
    /// arriving while the daemon is over its occupancy high-water mark
    /// (or the `--max-connections` cap) are answered with a single
    /// [`Event::Busy`] line, half-closed, and drained.
    ///
    /// On `shutdown`, queued-but-unstarted tickets are dropped with
    /// their connections, executing tickets finish and flush (bounded),
    /// and idle keep-alive peers are simply closed — nothing can hold
    /// this call hostage.
    ///
    /// Returns a note describing the final cache save.
    ///
    /// # Errors
    ///
    /// Returns thread-spawn, waker-setup, and `poll` failures.
    /// Per-connection errors only drop that connection; accept errors
    /// get bounded logging and an exponential accept pause so fd
    /// exhaustion cannot spin the loop hot.
    pub fn run(self) -> io::Result<String> {
        self.listener.set_nonblocking(true)?;
        let waker = Waker::new()?;
        let wake = waker.handle();
        let (tx, rx) = mpsc::channel::<PoolMsg>();
        let mut workers = Vec::with_capacity(self.workers);
        for n in 0..self.workers {
            let state = Arc::clone(&self.state);
            let tx = tx.clone();
            let wake = wake.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("cbrand-worker-{n}"))
                    .spawn(move || pool_worker(&state, &tx, &wake))?,
            );
        }
        // Workers own the only senders left: the channel closes with the
        // pool, never before.
        drop(tx);
        let result = {
            let mut reactor = Reactor {
                state: &self.state,
                listener: &self.listener,
                poller: Poller::new(),
                waker,
                rx,
                conns: HashMap::new(),
                next_token: 0,
                occupied: 0,
                shedding: false,
                outstanding: 0,
                stop_requested: false,
                stopping: false,
                stop_deadline: None,
                accept_failures: 0,
                accept_pause_until: None,
                cap_high: self.workers + self.state.admission.high_water,
                cap_low: self.workers + self.state.admission.low_water,
                max_conns: self.max_conns,
            };
            reactor.run_loop()
        };
        // The shutdown path closes the queue inside the loop; an error
        // exit must still retire blocked workers before returning.
        for ticket in self.state.admission.tickets.close() {
            ticket.alive.store(false, Ordering::SeqCst);
        }
        for worker in workers {
            let _ = worker.join();
        }
        result?;
        let note = match &self.cache_path {
            None => "cache persistence disabled; nothing saved".to_owned(),
            Some(path) => match persist::save(&self.state.cache, path) {
                Ok(entries) => {
                    format!("saved {entries} cached layers to {}", path.display())
                }
                Err(e) => format!("cache save to {} failed: {e}", path.display()),
            },
        };
        Ok(note)
    }
}

/// What a pool worker sends back to the reactor: response bytes to
/// queue on a connection, then a completion marker. Every send is
/// followed by a [`WakeHandle::wake`] so a reactor parked in `poll`
/// notices (wakes coalesce; see [`Waker`]).
enum PoolMsg {
    /// One encoded, newline-terminated event line for `conn`.
    Line { conn: u64, bytes: Vec<u8> },
    /// The ticket for `conn` finished (or was skipped dead); the
    /// connection may read its next request.
    Done { conn: u64 },
}

/// Where a request handler writes its response events. Pool workers
/// stream through the reactor mailbox ([`PoolSink`]); tests can collect
/// directly.
trait EventSink {
    /// Queues one response event. An `Err` aborts the handler's
    /// streaming — the connection is gone.
    fn event(&mut self, event: &Event, id: Option<u64>) -> io::Result<()>;
}

/// The pool-worker sink: encodes each event and mails it to the
/// reactor. Fails fast once the reactor marked the connection dead, so
/// a long run stops streaming into the void — the same abort the old
/// per-connection writer got from its socket error.
struct PoolSink<'a> {
    conn: u64,
    alive: &'a AtomicBool,
    tx: &'a mpsc::Sender<PoolMsg>,
    wake: &'a WakeHandle,
}

impl EventSink for PoolSink<'_> {
    fn event(&mut self, event: &Event, id: Option<u64>) -> io::Result<()> {
        if !self.alive.load(Ordering::SeqCst) {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "connection closed",
            ));
        }
        let mut line = event.encode_framed(id);
        line.push('\n');
        self.tx
            .send(PoolMsg::Line {
                conn: self.conn,
                bytes: line.into_bytes(),
            })
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "reactor gone"))?;
        self.wake.wake();
        Ok(())
    }
}

/// One pool worker: execute tickets until the queue closes. A ticket
/// whose connection died while waiting is skipped (its `Done` still
/// goes back so the reactor's outstanding count balances).
fn pool_worker(state: &ServerState, tx: &mpsc::Sender<PoolMsg>, wake: &WakeHandle) {
    while let Some(ticket) = state.admission.tickets.next() {
        if ticket.alive.load(Ordering::SeqCst) {
            state
                .admission
                .ticket_wait
                .observe_duration(ticket.enqueued.elapsed());
            state.admission.in_flight.inc();
            let mut sink = PoolSink {
                conn: ticket.conn,
                alive: &ticket.alive,
                tx,
                wake,
            };
            let _span = state.request_span(&ticket.request);
            // Streaming errors mean the peer is gone — their problem.
            let _ = dispatch_compute(state, &ticket.request, &mut sink, ticket.id);
            state.admission.in_flight.dec();
        }
        let _ = tx.send(PoolMsg::Done { conn: ticket.conn });
        wake.wake();
    }
}

fn dispatch_compute(
    state: &ServerState,
    request: &Request,
    sink: &mut dyn EventSink,
    id: Option<u64>,
) -> io::Result<()> {
    match request {
        Request::Compile(run) => handle_run(state, run, false, sink, id),
        Request::Simulate(run) => handle_run(state, run, true, sink, id),
        Request::Forward { run, seed } => handle_forward(run, *seed, sink, id),
        Request::CompileKeys { items } => handle_compile_keys(state, items, sink, id),
        // Non-compute requests are answered inline and never ticketed.
        _ => Ok(()),
    }
}

fn resolve_network(source: &NetworkSource) -> Result<Network, String> {
    match source {
        NetworkSource::Zoo(name) => {
            zoo::by_name(name).ok_or_else(|| format!("unknown zoo network `{name}`"))
        }
        NetworkSource::Spec(text) => spec::parse(text).map_err(|e| format!("bad spec: {e}")),
    }
}

fn runner_for(state: &ServerState, run: &RunRequest) -> Runner {
    Runner::with_options(
        run.config(),
        RunOptions {
            workload: run.workload,
            batch: run.batch,
            // The daemon's parallelism lives in the batcher; the
            // runner's own pool is bypassed by the backend.
            jobs: 1,
            ..RunOptions::default()
        },
    )
    .with_cache(Arc::clone(&state.cache))
    .with_compile_backend(Arc::clone(&state.batcher) as Arc<dyn cbrain::CompileBackend>)
}

fn handle_run(
    state: &ServerState,
    run: &RunRequest,
    full_stats: bool,
    sink: &mut dyn EventSink,
    id: Option<u64>,
) -> io::Result<()> {
    let net = match resolve_network(&run.network) {
        Ok(net) => net,
        Err(message) => return sink.event(&Event::Error { message }, id),
    };
    let runner = runner_for(state, run);
    let progress = RunProgress::start(&state.progress, net.layers().len() as u64);
    // Layer lines stream from inside the run; an I/O failure mid-stream
    // is remembered and the (already nearly-finished) run completes.
    let mut io_err: Option<io::Error> = None;
    let result = runner.run_network_streamed(&net, run.policy, |layer| {
        progress.layer_done();
        if io_err.is_some() {
            return;
        }
        let event = if full_stats {
            Event::Layer {
                name: layer.name.clone(),
                scheme: layer.scheme,
                stats: layer.stats,
                ideal_cycles: layer.ideal_cycles,
                transform_cycles: layer.layout_transform_cycles,
            }
        } else {
            Event::Compiled {
                name: layer.name.clone(),
                scheme: layer.scheme,
                cycles: layer.stats.cycles,
            }
        };
        if let Err(e) = sink.event(&event, id) {
            io_err = Some(e);
        }
    });
    if let Some(e) = io_err {
        return Err(e);
    }
    match result {
        Ok(report) => sink.event(
            &Event::Done {
                network: report.network.clone(),
                batch: report.batch as u64,
                policy: report.policy.label().to_owned(),
                cycles: report.cycles(),
                hits: report.cache_hits,
                misses: report.cache_misses,
                entries: state.cache.len() as u64,
            },
            id,
        ),
        Err(e) => sink.event(
            &Event::Error {
                message: e.to_string(),
            },
            id,
        ),
    }
}

fn handle_forward(
    run: &RunRequest,
    seed: u64,
    sink: &mut dyn EventSink,
    id: Option<u64>,
) -> io::Result<()> {
    let net = match resolve_network(&run.network) {
        Ok(net) => net,
        Err(message) => return sink.event(&Event::Error { message }, id),
    };
    let input = Tensor3::random(net.input(), seed);
    let weights = NetworkWeights::random(&net, seed.wrapping_add(1));
    match forward(&net, &input, &weights, run.policy, &run.config()) {
        Ok(result) => {
            let checksum = result.output.iter().map(|v| f64::from(*v)).sum();
            let head = result
                .output
                .iter()
                .take(8)
                .map(|v| f64::from(*v))
                .collect();
            sink.event(
                &Event::Forward {
                    output_len: result.output.len() as u64,
                    checksum,
                    head,
                },
                id,
            )
        }
        Err(e) => sink.event(
            &Event::Error {
                message: e.to_string(),
            },
            id,
        ),
    }
}

/// Compiles a batch of wire-shipped binary layer keys through the shared
/// batcher and streams each entry back in request order.
fn handle_compile_keys(
    state: &ServerState,
    items: &[CompileItem],
    sink: &mut dyn EventSink,
    id: Option<u64>,
) -> io::Result<()> {
    // Decode every key before compiling anything: a malformed item fails
    // the whole batch without wasted work. A key is self-contained:
    // rebuild the layer the compiler needs from it (the name is only for
    // diagnostics, `skip` does not affect compilation).
    let mut keyed = Vec::with_capacity(items.len());
    for item in items {
        match persist::decode_key_bytes(&item.key) {
            Ok(key) => keyed.push((
                key,
                Layer {
                    name: item.name.clone(),
                    input: key.input,
                    kind: key.kind,
                    skip: None,
                },
            )),
            Err(e) => {
                return sink.event(
                    &Event::Error {
                        message: format!("bad key for `{}`: {e}", item.name),
                    },
                    id,
                );
            }
        }
    }
    // Already-cached keys stay off the work-list.
    let worklist = keyed
        .iter()
        .filter(|(key, _)| !state.cache.contains(key))
        .cloned()
        .collect();
    if let Err(e) = state.batcher.compile_batch(&state.cache, worklist) {
        return sink.event(
            &Event::Error {
                message: e.to_string(),
            },
            id,
        );
    }
    // An `evict` answered meanwhile may have dropped any key again, one
    // left off the work-list or one the batch compiled: compile it here,
    // as the runner does. An entry is a pure function of its key.
    for (key, layer) in &keyed {
        let entry = match state.cache.peek(key) {
            Some(entry) => entry,
            None => match compile_cache_entry(layer, key) {
                Ok(entry) => state.cache.insert(*key, entry),
                Err(e) => {
                    return sink.event(
                        &Event::Error {
                            message: e.to_string(),
                        },
                        id,
                    )
                }
            },
        };
        sink.event(
            &Event::Entry {
                data: persist::entry_bytes(key, &entry),
            },
            id,
        )?;
    }
    sink.event(&Event::Ok, id)
}

/// Encodes `event` and queues it on the connection (reactor-side
/// responses; the flush happens in the loop's write pass).
fn queue_event(io: &mut Connection, event: &Event, id: Option<u64>) {
    let mut line = event.encode_framed(id);
    line.push('\n');
    io.queue(line.as_bytes());
}

/// One reactor-owned connection: the transport state machine plus the
/// daemon's bookkeeping around it.
struct ConnState {
    io: Connection,
    /// Shared with any ticket this connection has in flight; cleared on
    /// close so workers skip or abort work nobody will read.
    alive: Arc<AtomicBool>,
    /// Whether this peer ever completed a request. Fresh connections
    /// count as occupancy until they prove themselves — which is what
    /// makes a storm of silent connections sheddable.
    served_any: bool,
    /// A compute ticket is queued or executing; request parsing is
    /// paused until its `Done` comes back.
    ticket_out: bool,
    /// Close as soon as pending output flushes (shutdown acknowledged,
    /// protocol-fatal answer sent).
    close_after_flush: bool,
    /// Half-close and enter `Draining` as soon as pending output
    /// flushes (the shed path: the busy line must land first).
    shed_after_flush: bool,
}

impl ConnState {
    fn fresh(io: Connection) -> Self {
        Self {
            io,
            alive: Arc::new(AtomicBool::new(true)),
            served_any: false,
            ticket_out: false,
            close_after_flush: false,
            shed_after_flush: false,
        }
    }
}

/// The event loop proper. Owns every socket; everything it shares with
/// the pool goes through the ticket queue (out) and the mailbox (back).
struct Reactor<'a> {
    state: &'a ServerState,
    listener: &'a TcpListener,
    poller: Poller,
    waker: Waker,
    rx: mpsc::Receiver<PoolMsg>,
    conns: HashMap<u64, ConnState>,
    next_token: u64,
    /// Occupancy as of the *end of the previous iteration*: connections
    /// that are fresh, computing, or mid-transfer. Settled once per
    /// iteration so that an accept burst inside one iteration can only
    /// add pressure, never hide it.
    occupied: usize,
    /// Hysteresis state: `true` between crossing the occupancy
    /// high-water mark and draining back to the low-water mark.
    shedding: bool,
    /// Tickets dispatched whose `Done` has not come back (queued +
    /// executing). Shutdown waits for this to hit zero.
    outstanding: usize,
    stop_requested: bool,
    stopping: bool,
    stop_deadline: Option<Instant>,
    accept_failures: u32,
    /// While set, the listener is left out of the poll set (EMFILE
    /// backoff); connections keep being served at full speed.
    accept_pause_until: Option<Instant>,
    /// Occupancy at which shedding starts: the pool can hold `workers`
    /// executing plus `high_water` queued before anyone waits twice.
    cap_high: usize,
    /// Occupancy at which shedding stops again.
    cap_low: usize,
    /// Hard cap on open connections (`0` = uncapped).
    max_conns: usize,
}

impl Reactor<'_> {
    /// Whether the loop wants more request bytes from this connection:
    /// draining discards everything; otherwise only when no ticket is
    /// pending, no close is staged, and no parsed line is already
    /// waiting (pipelined bytes back-pressure in the kernel).
    fn wants_read(c: &ConnState) -> bool {
        if matches!(c.io.phase(), Phase::Draining { .. }) {
            return true;
        }
        !c.ticket_out && !c.close_after_flush && !c.shed_after_flush && !c.io.has_complete_line()
    }

    fn run_loop(&mut self) -> io::Result<()> {
        loop {
            // Register: listener (unless stopping or paused), waker,
            // and every connection with its current interest.
            self.poller.clear();
            let now = Instant::now();
            if self.accept_pause_until.is_some_and(|until| now >= until) {
                self.accept_pause_until = None;
            }
            let listener_slot = (!self.stopping && self.accept_pause_until.is_none()).then(|| {
                self.poller
                    .register(self.listener.as_raw_fd(), Interest::READ)
            });
            let waker_slot = self.poller.register(self.waker.fd(), Interest::READ);
            let mut slots: Vec<(u64, usize)> = Vec::with_capacity(self.conns.len());
            for (&token, c) in &self.conns {
                let interest = c.io.interest(Self::wants_read(c));
                slots.push((token, self.poller.register(c.io.fd(), interest)));
            }

            let timeout = self.next_timeout(now);
            let ready = self.poller.poll(timeout)?;
            if ready > 0 {
                self.state.poll_wakeups.inc();
            }
            if self.poller.readiness(waker_slot).readable() {
                self.waker.drain();
            }

            // Mailbox: queue worker response lines, note completions.
            let mut work: Vec<u64> = Vec::new();
            while let Ok(msg) = self.rx.try_recv() {
                match msg {
                    PoolMsg::Line { conn, bytes } => {
                        if let Some(c) = self.conns.get_mut(&conn) {
                            if c.io.phase() == Phase::AwaitingTicket {
                                c.io.set_phase(Phase::Streaming);
                            }
                            c.io.queue(&bytes);
                        }
                    }
                    PoolMsg::Done { conn } => {
                        self.outstanding = self.outstanding.saturating_sub(1);
                        if let Some(c) = self.conns.get_mut(&conn) {
                            c.ticket_out = false;
                            c.served_any = true;
                            if matches!(c.io.phase(), Phase::AwaitingTicket | Phase::Streaming) {
                                c.io.set_phase(Phase::Reading);
                            }
                            // Pipelined requests may already be buffered.
                            work.push(conn);
                        }
                    }
                }
            }

            // Accept burst: drain the backlog, shedding per decision.
            if listener_slot.is_some_and(|slot| self.poller.readiness(slot).readable()) {
                self.accept_burst();
            }

            // Socket I/O on whatever poll flagged.
            for (token, slot) in slots {
                let ready = self.poller.readiness(slot);
                if !ready.any() {
                    continue;
                }
                let Some(c) = self.conns.get_mut(&token) else {
                    continue;
                };
                let mut broken = ready.failed();
                if !broken && ready.readable() {
                    match c.io.fill(READ_BUDGET_PER_TICK) {
                        Ok(_) => work.push(token),
                        Err(_) => broken = true,
                    }
                }
                if !broken && ready.writable() && c.io.flush().is_err() {
                    broken = true;
                }
                // Full teardown with nothing deliverable left (e.g. the
                // peer vanished while its request computes and reads are
                // paused): close now rather than spin on POLLHUP.
                if !broken && ready.hangup() && !ready.readable() && !ready.writable() {
                    broken = true;
                }
                if broken {
                    if let Some(gone) = self.conns.remove(&token) {
                        gone.alive.store(false, Ordering::SeqCst);
                    }
                }
            }

            // Parse and dispatch whatever became runnable.
            for token in work {
                self.process_conn(token);
            }

            // Flush pending output, run staged transitions, close what
            // is finished.
            let now = Instant::now();
            let mut dead: Vec<u64> = Vec::new();
            for (&token, c) in &mut self.conns {
                if !c.io.out_empty() && c.io.flush().is_err() {
                    dead.push(token);
                    continue;
                }
                if c.io.out_empty() {
                    if c.close_after_flush {
                        dead.push(token);
                        continue;
                    }
                    if c.shed_after_flush {
                        // The busy line landed: half-close so the peer
                        // sees clean EOF, then discard whatever they
                        // already sent (closing with unread bytes would
                        // RST the answer away).
                        c.shed_after_flush = false;
                        c.io.shutdown_write();
                        c.io.set_phase(Phase::Draining {
                            deadline: now + Duration::from_millis(SHED_DRAIN_MS),
                            budget: SHED_DRAIN_BUDGET,
                        });
                    }
                }
                if c.io.drain_expired(now) {
                    dead.push(token);
                    continue;
                }
                // Peer finished sending, nothing in flight either way:
                // the keep-alive session is over. (A partial trailing
                // line can never complete; it does not keep us open.)
                if c.io.read_closed()
                    && !c.ticket_out
                    && c.io.out_empty()
                    && !c.io.has_complete_line()
                    && !matches!(c.io.phase(), Phase::Draining { .. })
                {
                    dead.push(token);
                }
            }
            for token in dead {
                if let Some(gone) = self.conns.remove(&token) {
                    gone.alive.store(false, Ordering::SeqCst);
                }
            }

            // Shutdown sequencing: stop accepting, drop waiting tickets
            // (stop means stop — those clients see EOF and reconnect
            // elsewhere), let executing tickets finish and flush.
            if self.stop_requested && !self.stopping {
                self.stopping = true;
                self.stop_deadline = Some(Instant::now() + Duration::from_millis(STOP_FLUSH_MS));
                for ticket in self.state.admission.tickets.close() {
                    self.outstanding = self.outstanding.saturating_sub(1);
                    ticket.alive.store(false, Ordering::SeqCst);
                    if let Some(gone) = self.conns.remove(&ticket.conn) {
                        gone.alive.store(false, Ordering::SeqCst);
                    }
                }
            }
            if self.stopping && self.outstanding == 0 {
                let flushed = self.conns.values().all(|c| c.io.out_empty());
                if flushed || self.stop_deadline.is_some_and(|d| Instant::now() >= d) {
                    return Ok(());
                }
            }

            // Settle occupancy for the next accept decision, and the
            // connection gauges with it. Draining connections are
            // already on their way out; everything else is either
            // proven-idle or load.
            let mut occupied = 0usize;
            let mut idle = 0usize;
            for c in self.conns.values() {
                if c.shed_after_flush || matches!(c.io.phase(), Phase::Draining { .. }) {
                    continue;
                }
                let busy = c.ticket_out
                    || !c.served_any
                    || c.close_after_flush
                    || c.io.has_buffered_input()
                    || !c.io.out_empty();
                if busy {
                    occupied += 1;
                } else {
                    idle += 1;
                }
            }
            self.occupied = occupied;
            self.state.conns_open.set(self.conns.len() as i64);
            self.state.conns_idle.set(idle as i64);
        }
    }

    /// The earliest wall-clock deadline the loop must wake for, as a
    /// poll timeout. `None` (block forever) whenever nothing is staged:
    /// an idle daemon makes zero syscalls until a socket stirs, which
    /// is also what keeps idle Prometheus scrapes byte-stable.
    fn next_timeout(&self, now: Instant) -> Option<Duration> {
        let mut deadline: Option<Instant> = None;
        let mut consider = |d: Instant| {
            deadline = Some(deadline.map_or(d, |cur| cur.min(d)));
        };
        for c in self.conns.values() {
            if let Some(d) = c.io.drain_deadline() {
                consider(d);
            }
        }
        if self.stopping {
            if let Some(d) = self.stop_deadline {
                consider(d);
            }
        }
        if let Some(d) = self.accept_pause_until {
            consider(d);
        }
        deadline.map(|d| d.saturating_duration_since(now))
    }

    /// Accepts until the backlog is dry, deciding admit/shed per
    /// connection. Connections admitted earlier in the same burst count
    /// as pressure immediately — a flood arriving between two polls is
    /// shed deterministically, not waved through because occupancy was
    /// settled before it hit.
    fn accept_burst(&mut self) {
        let mut admitted_now = 0usize;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.accept_failures = 0;
                    if self.max_conns > 0 && self.conns.len() >= self.max_conns {
                        self.state.admission.rejected.inc();
                        self.shed_stream(stream);
                        continue;
                    }
                    let pressure = self.occupied + admitted_now;
                    if self.shedding {
                        if pressure <= self.cap_low {
                            self.shedding = false;
                        }
                    } else if pressure >= self.cap_high {
                        self.shedding = true;
                    }
                    if self.shedding {
                        self.shed_stream(stream);
                        continue;
                    }
                    // Replies are streamed in small lines; without this
                    // each waits on the client's delayed ACK. A socket
                    // that refuses it is served anyway, only slower.
                    let _ = stream.set_nodelay(true);
                    if let Ok(io) = Connection::new(stream, MAX_REQUEST_LINE) {
                        self.state.admission.accepted.inc();
                        let token = self.next_token;
                        self.next_token += 1;
                        self.conns.insert(token, ConnState::fresh(io));
                        admitted_now += 1;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => {
                    // A persistent accept failure (EMFILE when fds run
                    // out) must neither spin this loop at 100% CPU nor
                    // flood stderr: log the first few and every 100th,
                    // and pause the listener — never the reactor — with
                    // exponential backoff until accept recovers.
                    self.accept_failures = self.accept_failures.saturating_add(1);
                    if self.accept_failures <= 3 || self.accept_failures.is_multiple_of(100) {
                        eprintln!(
                            "cbrand: accept failed ({} consecutive): {e}",
                            self.accept_failures
                        );
                    }
                    let pause =
                        ACCEPT_BACKOFF_BASE_MS << self.accept_failures.min(7).saturating_sub(1);
                    self.accept_pause_until = Some(
                        Instant::now() + Duration::from_millis(pause.min(ACCEPT_BACKOFF_MAX_MS)),
                    );
                    break;
                }
            }
        }
    }

    /// Sheds a just-accepted stream: count it, queue the v2 busy line
    /// (with a retry hint scaled by current load), and stage the
    /// half-close-and-drain exit.
    fn shed_stream(&mut self, stream: TcpStream) {
        self.state.admission.shed.inc();
        let depth = self.state.admission.tickets.len() as u64;
        // The hint grows with total outstanding load so a deep backlog
        // spreads retries out further, bounded so a client is never
        // told to vanish for whole seconds.
        let load = self.state.admission.in_flight.get_clamped() + depth + 1;
        let busy = Event::Busy {
            retry_after_ms: self
                .state
                .admission
                .busy_retry_ms
                .saturating_mul(load)
                .min(MAX_RETRY_HINT_MS),
            queue_depth: depth,
        };
        if let Ok(mut io) = Connection::new(stream, MAX_REQUEST_LINE) {
            io.queue(busy.encode().as_bytes());
            io.queue(b"\n");
            let mut conn = ConnState::fresh(io);
            conn.shed_after_flush = true;
            let token = self.next_token;
            self.next_token += 1;
            self.conns.insert(token, conn);
        }
    }

    /// Parses and serves as many buffered request lines as possible on
    /// one connection: control requests answer inline, the first
    /// compute request dispatches a ticket and pauses parsing until its
    /// `Done` comes back (requests on one connection stay sequential).
    fn process_conn(&mut self, token: u64) {
        loop {
            if self.stopping {
                return;
            }
            let Some(c) = self.conns.get_mut(&token) else {
                return;
            };
            if c.ticket_out || c.close_after_flush || c.shed_after_flush {
                return;
            }
            if !matches!(c.io.phase(), Phase::Reading) {
                return;
            }
            let line = match c.io.next_line() {
                Ok(Some(line)) => line,
                Ok(None) => return,
                Err(e) => {
                    // A frame-layer violation (overlong or non-UTF-8
                    // line) is fatal for the connection: answer, close.
                    queue_event(
                        &mut c.io,
                        &Event::Error {
                            message: e.to_string(),
                        },
                        None,
                    );
                    c.close_after_flush = true;
                    return;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            self.state.requests.inc();
            let (request, id) = match Request::decode_framed(&line) {
                Ok(decoded) => decoded,
                Err(e) => {
                    queue_event(
                        &mut c.io,
                        &Event::Error {
                            message: e.to_string(),
                        },
                        None,
                    );
                    continue;
                }
            };
            if is_compute(&request) {
                c.io.set_phase(Phase::AwaitingTicket);
                c.ticket_out = true;
                self.outstanding += 1;
                let depth = self.state.admission.tickets.push(Ticket {
                    conn: token,
                    request,
                    id,
                    alive: Arc::clone(&c.alive),
                    enqueued: Instant::now(),
                });
                // The accept-side hysteresis also trips when the pool
                // backlog itself crosses the high-water mark — the next
                // arrival is shed without waiting for occupancy to
                // catch up.
                if !self.shedding && depth >= self.state.admission.high_water {
                    self.shedding = true;
                }
                return;
            }
            let _span = self.state.request_span(&request);
            match request {
                Request::Hello { version } => {
                    if version != PROTOCOL_VERSION {
                        queue_event(
                            &mut c.io,
                            &Event::Error {
                                message: format!(
                                    "protocol version mismatch: peer v{version}, daemon v{PROTOCOL_VERSION}"
                                ),
                            },
                            id,
                        );
                        // Mismatched peers must not keep talking: close.
                        c.close_after_flush = true;
                        return;
                    }
                    queue_event(
                        &mut c.io,
                        &Event::Hello {
                            version: PROTOCOL_VERSION,
                            minor: PROTOCOL_MINOR,
                            caps: vec![
                                "compile_keys".to_owned(),
                                "evict".to_owned(),
                                "busy".to_owned(),
                                "progress".to_owned(),
                                "metrics".to_owned(),
                            ],
                        },
                        id,
                    );
                    c.served_any = true;
                }
                Request::Stats => {
                    let event = Event::Stats {
                        entries: self.state.cache.len() as u64,
                        hits: self.state.cache.hits(),
                        misses: self.state.cache.misses(),
                        requests: self.state.requests.get(),
                        accepted: self.state.admission.accepted.get(),
                        queued: self.state.admission.tickets.len() as u64,
                        shed: self.state.admission.shed.get(),
                        in_flight: self.state.admission.in_flight.get_clamped(),
                    };
                    queue_event(&mut c.io, &event, id);
                    c.served_any = true;
                }
                Request::Progress => {
                    let event = Event::Progress {
                        runs_active: self.state.progress.runs_active.get_clamped(),
                        runs_done: self.state.progress.runs_done.get(),
                        layers_done: self.state.progress.layers_done.get_clamped(),
                        layers_total: self.state.progress.layers_total.get_clamped(),
                    };
                    queue_event(&mut c.io, &event, id);
                    c.served_any = true;
                }
                Request::Metrics => {
                    let event = Event::Metrics {
                        metrics: samples_to_json(&metrics_samples(self.state)),
                    };
                    queue_event(&mut c.io, &event, id);
                    c.served_any = true;
                }
                Request::Evict { max } => {
                    let evicted = self.state.cache.evict_lru(max as usize) as u64;
                    let event = Event::Evicted {
                        evicted,
                        entries: self.state.cache.len() as u64,
                    };
                    queue_event(&mut c.io, &event, id);
                    c.served_any = true;
                }
                Request::Shutdown => {
                    queue_event(&mut c.io, &Event::Ok, id);
                    c.close_after_flush = true;
                    self.stop_requested = true;
                    return;
                }
                _ => unreachable!("compute requests are ticketed"),
            }
        }
    }
}
