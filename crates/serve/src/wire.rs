//! The `cbrand` wire protocol: newline-delimited JSON requests and
//! streamed events.
//!
//! One request per line; the daemon answers with zero or more
//! non-terminal event lines (`layer`, `compiled`, `entry`) followed by
//! exactly one terminal line (`done`, `stats`, `progress`, `forward`,
//! `hello`, `evicted`, `busy`, `ok`, or `error`). Requests may carry an `id`
//! member; the daemon echoes it on every event of that request's stream,
//! so a fleet client multiplexing requests can match responses (see
//! [`Request::encode_framed`]). An overloaded daemon may answer a fresh
//! connection with a single unsolicited `busy` line and close it —
//! admission control, see [`Event::Busy`]. See `docs/SERVING.md` for the
//! grammar.

use crate::json::{self, obj, s, u, Value};
use cbrain::{Policy, Workload};
use cbrain_compiler::Scheme;
use cbrain_sim::{AcceleratorConfig, BufferTraffic, PeConfig, Stats};
use std::fmt;

/// Version of the wire protocol this build speaks. Peers exchange it in
/// `hello` and refuse to talk across a mismatch — compiled-entry bytes
/// ride the wire verbatim, so a version skew could silently corrupt a
/// cache. v3 carries keys and entries in the v2 cache-file encoding
/// (160-byte packed keys, run-length programs); a v2 peer could not
/// decode them.
pub const PROTOCOL_VERSION: u32 = 3;

/// Minor revision of the wire protocol, advertised in the `hello`
/// answer. Minor revisions are backwards compatible: a later minor only
/// adds requests, events, members or capability labels that an older
/// peer never sends and never sees. v3.0 keeps the whole v2.2 grammar
/// (the `busy` admission-control event and counters of v2.1, the
/// `progress` and `metrics` pairs). Peers never refuse a connection over
/// a minor skew.
pub const PROTOCOL_MINOR: u32 = 0;

/// Error from decoding a request or event line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl From<json::JsonError> for WireError {
    fn from(e: json::JsonError) -> Self {
        WireError(e.to_string())
    }
}

/// Where a request's network comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkSource {
    /// A built-in zoo network by name.
    Zoo(String),
    /// Inline spec text (the client ships the file's contents, so the
    /// daemon needs no filesystem access).
    Spec(String),
}

/// Parameters shared by `compile`, `simulate` and `forward` requests.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// The network to run.
    pub network: NetworkSource,
    /// Scheme-selection policy.
    pub policy: Policy,
    /// Layer subset.
    pub workload: Workload,
    /// Images per run.
    pub batch: usize,
    /// PE array shape `(tin, tout)`.
    pub pe: (usize, usize),
    /// Clock override in MHz (`None` keeps the default).
    pub mhz: Option<u64>,
}

impl Default for RunRequest {
    fn default() -> Self {
        Self {
            network: NetworkSource::Zoo("alexnet".into()),
            policy: Policy::Adaptive {
                improved_inter: true,
            },
            workload: Workload::default(),
            batch: 1,
            pe: (16, 16),
            mhz: None,
        }
    }
}

impl RunRequest {
    /// The accelerator configuration this request describes. Client and
    /// daemon both derive it through here, so the two sides agree on
    /// every field `render_run_report` prints.
    pub fn config(&self) -> AcceleratorConfig {
        let mut cfg = AcceleratorConfig::with_pe(PeConfig::new(self.pe.0, self.pe.1));
        if let Some(mhz) = self.mhz {
            cfg.freq_mhz = mhz;
        }
        cfg
    }
}

/// One unit of `compile_keys` work: a layer cache key in the
/// `cbrain::persist` binary encoding, plus a display name for logs. The
/// key is self-contained (geometry, scheme, hardware, machine knobs,
/// batch), so the daemon needs nothing else to compile it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileItem {
    /// Binary-encoded [`cbrain::cache::LayerKey`] (hex on the wire).
    pub key: Vec<u8>,
    /// Layer name, for daemon-side diagnostics only.
    pub name: String,
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Version/capability exchange; must precede fleet traffic.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Warm the cache for a network; streams one light line per layer.
    Compile(RunRequest),
    /// Compile a batch of binary layer keys and stream each resulting
    /// cache entry back (`entry` events, then `ok`). The fleet router's
    /// scatter unit.
    CompileKeys {
        /// The keys to compile, answered in request order.
        items: Vec<CompileItem>,
    },
    /// Full run; streams per-layer statistics then a `done` summary.
    Simulate(RunRequest),
    /// Functional forward pass on seeded random data.
    Forward {
        /// Run parameters (batch is ignored: the pass is one image).
        run: RunRequest,
        /// Seed for input and weights.
        seed: u64,
    },
    /// Cache/daemon counters.
    Stats,
    /// Live run-progress counters (protocol v2.1): how many runs are in
    /// flight and how far through their layers they are.
    Progress,
    /// The full telemetry registry as one deterministic sorted JSON
    /// object (protocol v2.2, capability `metrics`).
    Metrics,
    /// Evict least-recently-used cache entries down to a bound.
    Evict {
        /// Maximum entries to keep.
        max: u64,
    },
    /// Save the cache and stop the daemon.
    Shutdown,
}

impl Request {
    fn to_value(&self) -> Value {
        match self {
            Request::Hello { version } => obj(vec![
                ("req", s("hello")),
                ("version", u(u64::from(*version))),
            ]),
            Request::Compile(run) => run_obj("compile", run, None),
            Request::CompileKeys { items } => obj(vec![
                ("req", s("compile_keys")),
                (
                    "items",
                    Value::Arr(
                        items
                            .iter()
                            .map(|item| {
                                obj(vec![
                                    ("key", s(to_hex(&item.key))),
                                    ("name", s(item.name.clone())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Request::Simulate(run) => run_obj("simulate", run, None),
            Request::Forward { run, seed } => run_obj("forward", run, Some(*seed)),
            Request::Stats => obj(vec![("req", s("stats"))]),
            Request::Progress => obj(vec![("req", s("progress"))]),
            Request::Metrics => obj(vec![("req", s("metrics"))]),
            Request::Evict { max } => obj(vec![("req", s("evict")), ("max", u(*max))]),
            Request::Shutdown => obj(vec![("req", s("shutdown"))]),
        }
    }

    fn from_value(v: &Value) -> Result<Self, WireError> {
        let req = v
            .get("req")
            .and_then(Value::as_str)
            .ok_or_else(|| WireError("missing `req`".into()))?;
        match req {
            "hello" => Ok(Request::Hello {
                version: u32::try_from(u64_field(v, "version")?)
                    .map_err(|_| WireError("`version` out of range".into()))?,
            }),
            "compile" => Ok(Request::Compile(run_from(v)?)),
            "compile_keys" => {
                let items = v
                    .get("items")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| WireError("missing `items`".into()))?
                    .iter()
                    .map(|item| {
                        Ok(CompileItem {
                            key: from_hex(&str_field(item, "key")?)?,
                            name: str_field(item, "name")?,
                        })
                    })
                    .collect::<Result<Vec<_>, WireError>>()?;
                Ok(Request::CompileKeys { items })
            }
            "simulate" => Ok(Request::Simulate(run_from(v)?)),
            "forward" => Ok(Request::Forward {
                run: run_from(v)?,
                seed: v.get("seed").and_then(Value::as_u64).unwrap_or(0),
            }),
            "stats" => Ok(Request::Stats),
            "progress" => Ok(Request::Progress),
            "metrics" => Ok(Request::Metrics),
            "evict" => Ok(Request::Evict {
                max: u64_field(v, "max")?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(WireError(format!("unknown request `{other}`"))),
        }
    }

    /// Encodes the request as a single JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        self.to_value().encode()
    }

    /// Like [`Request::encode`], with an `id` member the daemon echoes
    /// on every event of this request's response stream.
    pub fn encode_framed(&self, id: Option<u64>) -> String {
        frame(self.to_value(), id).encode()
    }

    /// Decodes one request line.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for malformed JSON, an unknown `req`, or
    /// invalid parameters.
    pub fn decode(line: &str) -> Result<Self, WireError> {
        Ok(Self::decode_framed(line)?.0)
    }

    /// Decodes one request line together with its optional `id`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for malformed JSON, an unknown `req`, or
    /// invalid parameters.
    pub fn decode_framed(line: &str) -> Result<(Self, Option<u64>), WireError> {
        let v = json::parse(line)?;
        let id = v.get("id").and_then(Value::as_u64);
        Ok((Self::from_value(&v)?, id))
    }
}

/// Appends an `id` member to an object value (the request/event framing
/// shared by both directions of the protocol).
fn frame(value: Value, id: Option<u64>) -> Value {
    match (value, id) {
        (Value::Obj(mut members), Some(id)) => {
            members.push(("id".to_owned(), u(id)));
            Value::Obj(members)
        }
        (value, _) => value,
    }
}

/// Lowercase hex encoding for binary payloads carried inside JSON.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = fmt::Write::write_fmt(&mut out, format_args!("{b:02x}"));
    }
    out
}

/// Decodes [`to_hex`] output.
///
/// # Errors
///
/// Returns a [`WireError`] on odd length or a non-hex digit.
pub fn from_hex(text: &str) -> Result<Vec<u8>, WireError> {
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return Err(WireError("hex payload has odd length".into()));
    }
    let digit = |b: u8| -> Result<u8, WireError> {
        match b {
            b'0'..=b'9' => Ok(b - b'0'),
            b'a'..=b'f' => Ok(b - b'a' + 10),
            b'A'..=b'F' => Ok(b - b'A' + 10),
            _ => Err(WireError(format!("bad hex digit `{}`", b as char))),
        }
    };
    bytes
        .chunks_exact(2)
        .map(|pair| Ok(digit(pair[0])? << 4 | digit(pair[1])?))
        .collect()
}

fn run_obj(req: &str, run: &RunRequest, seed: Option<u64>) -> Value {
    let mut members = vec![("req", s(req))];
    match &run.network {
        NetworkSource::Zoo(name) => members.push(("network", s(name.clone()))),
        NetworkSource::Spec(text) => members.push(("spec", s(text.clone()))),
    }
    members.push(("policy", s(run.policy.label())));
    members.push(("workload", s(run.workload.label())));
    members.push(("batch", u(run.batch as u64)));
    members.push((
        "pe",
        Value::Arr(vec![u(run.pe.0 as u64), u(run.pe.1 as u64)]),
    ));
    if let Some(mhz) = run.mhz {
        members.push(("mhz", u(mhz)));
    }
    if let Some(seed) = seed {
        members.push(("seed", u(seed)));
    }
    obj(members)
}

fn run_from(v: &Value) -> Result<RunRequest, WireError> {
    let network = match (
        v.get("network").and_then(Value::as_str),
        v.get("spec").and_then(Value::as_str),
    ) {
        (Some(name), None) => NetworkSource::Zoo(name.to_owned()),
        (None, Some(text)) => NetworkSource::Spec(text.to_owned()),
        (Some(_), Some(_)) => return Err(WireError("give `network` or `spec`, not both".into())),
        (None, None) => return Err(WireError("missing `network` or `spec`".into())),
    };
    let policy = match v.get("policy").and_then(Value::as_str) {
        None => RunRequest::default().policy,
        Some(text) => text
            .parse::<Policy>()
            .map_err(|e| WireError(e.to_string()))?,
    };
    let workload = match v.get("workload").and_then(Value::as_str) {
        None => Workload::default(),
        Some(text) => text
            .parse::<Workload>()
            .map_err(|e| WireError(e.to_string()))?,
    };
    let batch = match v.get("batch") {
        None => 1,
        Some(b) => match b.as_usize() {
            Some(n) if n >= 1 => n,
            _ => return Err(WireError("`batch` must be a positive integer".into())),
        },
    };
    let pe = match v.get("pe") {
        None => (16, 16),
        Some(p) => {
            let items = p
                .as_arr()
                .ok_or_else(|| WireError("`pe` must be [tin,tout]".into()))?;
            match items {
                [tin, tout] => match (tin.as_usize(), tout.as_usize()) {
                    (Some(a), Some(b)) if a >= 1 && b >= 1 => (a, b),
                    _ => return Err(WireError("`pe` entries must be positive".into())),
                },
                _ => return Err(WireError("`pe` must be [tin,tout]".into())),
            }
        }
    };
    let mhz = match v.get("mhz") {
        None => None,
        Some(m) => Some(
            m.as_u64()
                .filter(|m| *m >= 1)
                .ok_or_else(|| WireError("`mhz` must be a positive integer".into()))?,
        ),
    };
    Ok(RunRequest {
        network,
        policy,
        workload,
        batch,
        pe,
        mhz,
    })
}

/// A streamed response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// One layer of a `simulate` run, in execution order.
    Layer {
        /// Layer name.
        name: String,
        /// Scheme used (`None` for pool/FC layers).
        scheme: Option<Scheme>,
        /// Full simulated statistics.
        stats: Stats,
        /// The 100%-utilization lower bound, batch-scaled.
        ideal_cycles: u64,
        /// Explicit layout-transform cycles charged before this layer.
        transform_cycles: u64,
    },
    /// One layer of a `compile` run (no statistics payload).
    Compiled {
        /// Layer name.
        name: String,
        /// Scheme compiled for execution (`None` for pool/FC layers).
        scheme: Option<Scheme>,
        /// Total cycles of the compiled program.
        cycles: u64,
    },
    /// Terminal line of a `compile`/`simulate` run.
    Done {
        /// Network name.
        network: String,
        /// Images per run.
        batch: u64,
        /// Policy label.
        policy: String,
        /// Total cycles (integrity check against the summed layers).
        cycles: u64,
        /// Cache hits this run scored.
        hits: u64,
        /// Cache misses this run paid for.
        misses: u64,
        /// Entries resident in the daemon cache after the run.
        entries: u64,
    },
    /// Terminal line of a `forward` run.
    Forward {
        /// Output vector length.
        output_len: u64,
        /// Sum of the output activations (f32 math, reported as f64).
        checksum: f64,
        /// The first few output values.
        head: Vec<f64>,
    },
    /// Terminal line of a `stats` request: global daemon counters.
    Stats {
        /// Cached entries.
        entries: u64,
        /// Global cache hits since daemon start (including loaded runs).
        hits: u64,
        /// Global cache misses.
        misses: u64,
        /// Requests served since startup.
        requests: u64,
        /// Connections accepted since startup (admitted *or* shed).
        accepted: u64,
        /// Connections currently waiting in the admission queue.
        queued: u64,
        /// Connections refused with a `busy` answer since startup.
        shed: u64,
        /// Connections currently being served by workers.
        in_flight: u64,
    },
    /// Terminal answer to a `progress` request: live sweep-progress
    /// counters. A "layer cell" is one layer of an active run;
    /// `layers_total` sums the planned layer counts of every run in
    /// flight, so a sweep client can print `done/total` per poll.
    /// Protocol v2.1.
    Progress {
        /// Runs (simulate/compile requests) currently executing.
        runs_active: u64,
        /// Runs completed since daemon startup.
        runs_done: u64,
        /// Layer cells finished across the active runs.
        layers_done: u64,
        /// Layer cells planned across the active runs.
        layers_total: u64,
    },
    /// Terminal answer to a `metrics` request: the daemon's telemetry
    /// registry rendered as one JSON object whose members are sorted by
    /// metric name (protocol v2.2). Counters and gauges are numbers;
    /// histograms are objects with `buckets` (cumulative counts keyed by
    /// upper bound, ending at `+Inf`), `sum` and `count`. Iteration
    /// order is deterministic, so two scrapes after identical workloads
    /// encode byte-identically.
    Metrics {
        /// The sorted metrics object.
        metrics: Value,
    },
    /// Terminal answer to a `hello` request.
    Hello {
        /// The daemon's [`PROTOCOL_VERSION`].
        version: u32,
        /// The daemon's [`PROTOCOL_MINOR`] revision (`0` when a v2.0
        /// peer omits the member).
        minor: u32,
        /// Capability labels (e.g. `compile_keys`, `evict`, `busy`).
        caps: Vec<String>,
    },
    /// Admission-control refusal: the daemon is saturated and sheds this
    /// connection instead of queueing it. Sent as the only line of a
    /// connection, unsolicited, before the daemon closes it. The client
    /// should wait roughly `retry_after_ms` and reconnect; the hint grows
    /// with daemon load. Protocol v2.1.
    Busy {
        /// Suggested client back-off before reconnecting, milliseconds.
        retry_after_ms: u64,
        /// Admission-queue depth observed when the connection was shed.
        queue_depth: u64,
    },
    /// One compiled cache entry of a `compile_keys` batch, in the
    /// `cbrain::persist` binary encoding (key + value).
    Entry {
        /// Binary entry bytes (hex on the wire).
        data: Vec<u8>,
    },
    /// Terminal answer to an `evict` request.
    Evicted {
        /// Entries dropped.
        evicted: u64,
        /// Entries remaining after eviction.
        entries: u64,
    },
    /// Terminal acknowledgement (shutdown, `compile_keys`).
    Ok,
    /// Terminal failure for one request; the connection stays usable.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

impl Event {
    /// Whether this event terminates a request's response stream.
    pub fn is_terminal(&self) -> bool {
        !matches!(
            self,
            Event::Layer { .. } | Event::Compiled { .. } | Event::Entry { .. }
        )
    }

    fn to_value(&self) -> Value {
        match self {
            Event::Layer {
                name,
                scheme,
                stats,
                ideal_cycles,
                transform_cycles,
            } => obj(vec![
                ("ev", s("layer")),
                ("name", s(name.clone())),
                ("scheme", scheme_value(*scheme)),
                ("stats", stats_to_value(stats)),
                ("ideal_cycles", u(*ideal_cycles)),
                ("transform_cycles", u(*transform_cycles)),
            ]),
            Event::Compiled {
                name,
                scheme,
                cycles,
            } => obj(vec![
                ("ev", s("compiled")),
                ("name", s(name.clone())),
                ("scheme", scheme_value(*scheme)),
                ("cycles", u(*cycles)),
            ]),
            Event::Done {
                network,
                batch,
                policy,
                cycles,
                hits,
                misses,
                entries,
            } => obj(vec![
                ("ev", s("done")),
                ("network", s(network.clone())),
                ("batch", u(*batch)),
                ("policy", s(policy.clone())),
                ("cycles", u(*cycles)),
                ("hits", u(*hits)),
                ("misses", u(*misses)),
                ("entries", u(*entries)),
            ]),
            Event::Forward {
                output_len,
                checksum,
                head,
            } => obj(vec![
                ("ev", s("forward")),
                ("output_len", u(*output_len)),
                ("checksum", Value::Num(*checksum)),
                (
                    "head",
                    Value::Arr(head.iter().map(|v| Value::Num(*v)).collect()),
                ),
            ]),
            Event::Stats {
                entries,
                hits,
                misses,
                requests,
                accepted,
                queued,
                shed,
                in_flight,
            } => obj(vec![
                ("ev", s("stats")),
                ("entries", u(*entries)),
                ("hits", u(*hits)),
                ("misses", u(*misses)),
                ("requests", u(*requests)),
                ("accepted", u(*accepted)),
                ("queued", u(*queued)),
                ("shed", u(*shed)),
                ("in_flight", u(*in_flight)),
            ]),
            Event::Progress {
                runs_active,
                runs_done,
                layers_done,
                layers_total,
            } => obj(vec![
                ("ev", s("progress")),
                ("runs_active", u(*runs_active)),
                ("runs_done", u(*runs_done)),
                ("layers_done", u(*layers_done)),
                ("layers_total", u(*layers_total)),
            ]),
            Event::Metrics { metrics } => {
                obj(vec![("ev", s("metrics")), ("metrics", metrics.clone())])
            }
            Event::Hello {
                version,
                minor,
                caps,
            } => obj(vec![
                ("ev", s("hello")),
                ("version", u(u64::from(*version))),
                ("minor", u(u64::from(*minor))),
                (
                    "caps",
                    Value::Arr(caps.iter().map(|c| s(c.clone())).collect()),
                ),
            ]),
            Event::Busy {
                retry_after_ms,
                queue_depth,
            } => obj(vec![
                ("ev", s("busy")),
                ("retry_after_ms", u(*retry_after_ms)),
                ("queue_depth", u(*queue_depth)),
            ]),
            Event::Entry { data } => obj(vec![("ev", s("entry")), ("data", s(to_hex(data)))]),
            Event::Evicted { evicted, entries } => obj(vec![
                ("ev", s("evicted")),
                ("evicted", u(*evicted)),
                ("entries", u(*entries)),
            ]),
            Event::Ok => obj(vec![("ev", s("ok"))]),
            Event::Error { message } => {
                obj(vec![("ev", s("error")), ("message", s(message.clone()))])
            }
        }
    }

    /// Encodes the event as a single JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        self.to_value().encode()
    }

    /// Like [`Event::encode`], echoing the request `id` this event
    /// answers (the daemon frames every event of an identified request).
    pub fn encode_framed(&self, id: Option<u64>) -> String {
        frame(self.to_value(), id).encode()
    }

    /// Decodes one event line.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for malformed JSON or an unknown `ev`.
    pub fn decode(line: &str) -> Result<Self, WireError> {
        Ok(Self::decode_framed(line)?.0)
    }

    /// Decodes one event line together with its optional echoed `id`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for malformed JSON or an unknown `ev`.
    pub fn decode_framed(line: &str) -> Result<(Self, Option<u64>), WireError> {
        let v = json::parse(line)?;
        let id = v.get("id").and_then(Value::as_u64);
        Ok((Self::from_value(&v)?, id))
    }

    fn from_value(v: &Value) -> Result<Self, WireError> {
        let ev = v
            .get("ev")
            .and_then(Value::as_str)
            .ok_or_else(|| WireError("missing `ev`".into()))?;
        match ev {
            "layer" => Ok(Event::Layer {
                name: str_field(v, "name")?,
                scheme: scheme_from(v.get("scheme"))?,
                stats: stats_from_value(
                    v.get("stats")
                        .ok_or_else(|| WireError("missing `stats`".into()))?,
                )?,
                ideal_cycles: u64_field(v, "ideal_cycles")?,
                transform_cycles: u64_field(v, "transform_cycles")?,
            }),
            "compiled" => Ok(Event::Compiled {
                name: str_field(v, "name")?,
                scheme: scheme_from(v.get("scheme"))?,
                cycles: u64_field(v, "cycles")?,
            }),
            "done" => Ok(Event::Done {
                network: str_field(v, "network")?,
                batch: u64_field(v, "batch")?,
                policy: str_field(v, "policy")?,
                cycles: u64_field(v, "cycles")?,
                hits: u64_field(v, "hits")?,
                misses: u64_field(v, "misses")?,
                entries: u64_field(v, "entries")?,
            }),
            "forward" => Ok(Event::Forward {
                output_len: u64_field(v, "output_len")?,
                checksum: v
                    .get("checksum")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| WireError("missing `checksum`".into()))?,
                head: v
                    .get("head")
                    .and_then(Value::as_arr)
                    .map(|items| items.iter().filter_map(Value::as_f64).collect())
                    .unwrap_or_default(),
            }),
            "stats" => Ok(Event::Stats {
                entries: u64_field(v, "entries")?,
                hits: u64_field(v, "hits")?,
                misses: u64_field(v, "misses")?,
                requests: u64_field(v, "requests")?,
                // Admission counters arrived in v2.1; a v2.0 daemon
                // simply has none.
                accepted: u64_field_or(v, "accepted", 0),
                queued: u64_field_or(v, "queued", 0),
                shed: u64_field_or(v, "shed", 0),
                in_flight: u64_field_or(v, "in_flight", 0),
            }),
            "progress" => Ok(Event::Progress {
                runs_active: u64_field(v, "runs_active")?,
                runs_done: u64_field(v, "runs_done")?,
                layers_done: u64_field(v, "layers_done")?,
                layers_total: u64_field(v, "layers_total")?,
            }),
            "metrics" => Ok(Event::Metrics {
                metrics: v
                    .get("metrics")
                    .cloned()
                    .ok_or_else(|| WireError("missing `metrics`".into()))?,
            }),
            "busy" => Ok(Event::Busy {
                retry_after_ms: u64_field(v, "retry_after_ms")?,
                queue_depth: u64_field(v, "queue_depth")?,
            }),
            "hello" => Ok(Event::Hello {
                version: u32::try_from(u64_field(v, "version")?)
                    .map_err(|_| WireError("`version` out of range".into()))?,
                minor: u32::try_from(u64_field_or(v, "minor", 0))
                    .map_err(|_| WireError("`minor` out of range".into()))?,
                caps: v
                    .get("caps")
                    .and_then(Value::as_arr)
                    .map(|items| {
                        items
                            .iter()
                            .filter_map(Value::as_str)
                            .map(str::to_owned)
                            .collect()
                    })
                    .unwrap_or_default(),
            }),
            "entry" => Ok(Event::Entry {
                data: from_hex(&str_field(v, "data")?)?,
            }),
            "evicted" => Ok(Event::Evicted {
                evicted: u64_field(v, "evicted")?,
                entries: u64_field(v, "entries")?,
            }),
            "ok" => Ok(Event::Ok),
            "error" => Ok(Event::Error {
                message: str_field(v, "message")?,
            }),
            other => Err(WireError(format!("unknown event `{other}`"))),
        }
    }
}

fn str_field(v: &Value, key: &str) -> Result<String, WireError> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| WireError(format!("missing `{key}`")))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, WireError> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| WireError(format!("missing `{key}`")))
}

/// Like [`u64_field`] for members that later protocol minors added: a
/// peer speaking an older minor omits them, so absence means `default`
/// instead of a decode error.
fn u64_field_or(v: &Value, key: &str, default: u64) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(default)
}

fn scheme_value(scheme: Option<Scheme>) -> Value {
    scheme.map_or(Value::Null, |sc| s(sc.to_string()))
}

fn scheme_from(v: Option<&Value>) -> Result<Option<Scheme>, WireError> {
    match v {
        None | Some(Value::Null) => Ok(None),
        Some(v) => {
            let text = v
                .as_str()
                .ok_or_else(|| WireError("`scheme` must be a string or null".into()))?;
            text.parse::<Scheme>()
                .map(Some)
                .map_err(|e| WireError(e.to_string()))
        }
    }
}

fn traffic_to_value(t: &BufferTraffic) -> Value {
    obj(vec![("loads", u(t.loads)), ("stores", u(t.stores))])
}

fn traffic_from_value(v: &Value) -> Result<BufferTraffic, WireError> {
    Ok(BufferTraffic {
        loads: u64_field(v, "loads")?,
        stores: u64_field(v, "stores")?,
    })
}

/// Serializes full machine statistics (all fields, lossless `u64`).
pub fn stats_to_value(stats: &Stats) -> Value {
    obj(vec![
        ("cycles", u(stats.cycles)),
        ("compute_cycles", u(stats.compute_cycles)),
        ("dram_stall_cycles", u(stats.dram_stall_cycles)),
        ("mac_ops", u(stats.mac_ops)),
        ("lane_slots", u(stats.lane_slots)),
        ("add_store_ops", u(stats.add_store_ops)),
        ("eltwise_ops", u(stats.eltwise_ops)),
        ("input_buf", traffic_to_value(&stats.input_buf)),
        ("output_buf", traffic_to_value(&stats.output_buf)),
        ("weight_buf", traffic_to_value(&stats.weight_buf)),
        ("bias_buf", traffic_to_value(&stats.bias_buf)),
        ("dram_read_bytes", u(stats.dram_read_bytes)),
        ("dram_write_bytes", u(stats.dram_write_bytes)),
    ])
}

/// Deserializes machine statistics written by [`stats_to_value`].
///
/// # Errors
///
/// Returns a [`WireError`] if any field is missing or mistyped.
pub fn stats_from_value(v: &Value) -> Result<Stats, WireError> {
    let traffic = |key: &str| -> Result<BufferTraffic, WireError> {
        traffic_from_value(
            v.get(key)
                .ok_or_else(|| WireError(format!("missing `{key}`")))?,
        )
    };
    Ok(Stats {
        cycles: u64_field(v, "cycles")?,
        compute_cycles: u64_field(v, "compute_cycles")?,
        dram_stall_cycles: u64_field(v, "dram_stall_cycles")?,
        mac_ops: u64_field(v, "mac_ops")?,
        lane_slots: u64_field(v, "lane_slots")?,
        add_store_ops: u64_field(v, "add_store_ops")?,
        eltwise_ops: u64_field(v, "eltwise_ops")?,
        input_buf: traffic("input_buf")?,
        output_buf: traffic("output_buf")?,
        weight_buf: traffic("weight_buf")?,
        bias_buf: traffic("bias_buf")?,
        dram_read_bytes: u64_field(v, "dram_read_bytes")?,
        dram_write_bytes: u64_field(v, "dram_write_bytes")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Compile(RunRequest::default()),
            Request::Simulate(RunRequest {
                network: NetworkSource::Spec("network t input 3x8x8\n".into()),
                policy: Policy::Oracle,
                workload: Workload::FullNetwork,
                batch: 4,
                pe: (32, 32),
                mhz: Some(500),
            }),
            Request::Forward {
                run: RunRequest::default(),
                seed: 42,
            },
            Request::Stats,
            Request::Shutdown,
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
            Request::CompileKeys {
                items: vec![
                    CompileItem {
                        key: vec![0, 1, 0xfe, 0xff],
                        name: "conv1".into(),
                    },
                    CompileItem {
                        key: vec![],
                        name: "pool1".into(),
                    },
                ],
            },
            Request::Evict { max: 128 },
            Request::Progress,
            Request::Metrics,
        ];
        for req in reqs {
            let line = req.encode();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Request::decode(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn request_defaults_fill_in() {
        let req = Request::decode(r#"{"req":"simulate","network":"nin"}"#).unwrap();
        let Request::Simulate(run) = req else {
            panic!("simulate expected")
        };
        assert_eq!(run.batch, 1);
        assert_eq!(run.pe, (16, 16));
        assert_eq!(run.workload, Workload::ConvAndPool);
    }

    #[test]
    fn bad_requests_are_rejected() {
        for line in [
            "{}",
            r#"{"req":"launch"}"#,
            r#"{"req":"simulate"}"#,
            r#"{"req":"simulate","network":"a","spec":"b"}"#,
            r#"{"req":"simulate","network":"a","policy":"warp"}"#,
            r#"{"req":"simulate","network":"a","batch":0}"#,
            r#"{"req":"simulate","network":"a","pe":[16]}"#,
            r#"{"req":"simulate","network":"a","mhz":0}"#,
            "not json",
        ] {
            assert!(Request::decode(line).is_err(), "{line}");
        }
    }

    #[test]
    fn events_round_trip() {
        let stats = Stats {
            cycles: 1 << 60,
            compute_cycles: 3,
            dram_stall_cycles: 4,
            mac_ops: 5,
            lane_slots: 6,
            add_store_ops: 7,
            eltwise_ops: 8,
            input_buf: BufferTraffic {
                loads: 9,
                stores: 10,
            },
            output_buf: BufferTraffic {
                loads: 11,
                stores: 12,
            },
            weight_buf: BufferTraffic {
                loads: 13,
                stores: 14,
            },
            bias_buf: BufferTraffic {
                loads: 15,
                stores: 16,
            },
            dram_read_bytes: 17,
            dram_write_bytes: 18,
        };
        let events = [
            Event::Layer {
                name: "conv1".into(),
                scheme: Some(Scheme::Partition),
                stats,
                ideal_cycles: 123,
                transform_cycles: 0,
            },
            Event::Layer {
                name: "pool1".into(),
                scheme: None,
                stats,
                ideal_cycles: 1,
                transform_cycles: 2,
            },
            Event::Compiled {
                name: "conv2".into(),
                scheme: Some(Scheme::InterImproved),
                cycles: 99,
            },
            Event::Done {
                network: "alexnet".into(),
                batch: 1,
                policy: "adpa-2".into(),
                cycles: 1 << 60,
                hits: 2,
                misses: 11,
                entries: 13,
            },
            Event::Forward {
                output_len: 1000,
                checksum: -1.25,
                head: vec![0.5, -2.0],
            },
            Event::Stats {
                entries: 1,
                hits: 2,
                misses: 3,
                requests: 4,
                accepted: 5,
                queued: 6,
                shed: 7,
                in_flight: 8,
            },
            Event::Progress {
                runs_active: 2,
                runs_done: 14,
                layers_done: 9,
                layers_total: 21,
            },
            Event::Metrics {
                metrics: obj(vec![
                    ("admission_shed_total", u(4)),
                    (
                        "request_seconds{req=\"stats\"}",
                        obj(vec![
                            ("buckets", obj(vec![("0.001", u(1)), ("+Inf", u(2))])),
                            ("sum", Value::Num(1.5)),
                            ("count", u(2)),
                        ]),
                    ),
                ]),
            },
            Event::Hello {
                version: PROTOCOL_VERSION,
                minor: PROTOCOL_MINOR,
                caps: vec![
                    "compile_keys".into(),
                    "evict".into(),
                    "busy".into(),
                    "progress".into(),
                    "metrics".into(),
                ],
            },
            Event::Busy {
                retry_after_ms: 50,
                queue_depth: 9,
            },
            Event::Entry {
                data: vec![0xde, 0xad, 0xbe, 0xef],
            },
            Event::Evicted {
                evicted: 7,
                entries: 3,
            },
            Event::Ok,
            Event::Error {
                message: "bad\nrequest".into(),
            },
        ];
        for event in events {
            let line = event.encode();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Event::decode(&line).unwrap(), event, "{line}");
            assert_eq!(
                event.is_terminal(),
                !matches!(
                    event,
                    Event::Layer { .. } | Event::Compiled { .. } | Event::Entry { .. }
                )
            );
        }
    }

    #[test]
    fn v2_0_events_without_minor_members_still_decode() {
        // A v2.0 daemon omits the admission counters and the `minor`
        // member; both must decode with zero defaults, not error.
        let stats = Event::decode(r#"{"ev":"stats","entries":1,"hits":2,"misses":3,"requests":4}"#)
            .unwrap();
        assert_eq!(
            stats,
            Event::Stats {
                entries: 1,
                hits: 2,
                misses: 3,
                requests: 4,
                accepted: 0,
                queued: 0,
                shed: 0,
                in_flight: 0,
            }
        );
        let hello = Event::decode(r#"{"ev":"hello","version":2,"caps":["evict"]}"#).unwrap();
        assert_eq!(
            hello,
            Event::Hello {
                version: 2,
                minor: 0,
                caps: vec!["evict".into()],
            }
        );
    }

    #[test]
    fn busy_is_terminal_and_demands_its_hint() {
        assert!(Event::Busy {
            retry_after_ms: 1,
            queue_depth: 0
        }
        .is_terminal());
        // The hint is what clients sleep on — a busy line without it is
        // malformed, not defaulted.
        assert!(Event::decode(r#"{"ev":"busy"}"#).is_err());
    }

    #[test]
    fn framed_ids_round_trip_and_stay_optional() {
        let req = Request::Stats;
        let (decoded, id) = Request::decode_framed(&req.encode_framed(Some(7))).unwrap();
        assert_eq!(decoded, req);
        assert_eq!(id, Some(7));
        let (decoded, id) = Request::decode_framed(&req.encode()).unwrap();
        assert_eq!(decoded, req);
        assert_eq!(id, None);

        let ev = Event::Ok;
        let (decoded, id) = Event::decode_framed(&ev.encode_framed(Some(9))).unwrap();
        assert_eq!(decoded, ev);
        assert_eq!(id, Some(9));
        assert_eq!(Event::decode_framed(&ev.encode()).unwrap().1, None);
    }

    #[test]
    fn hex_codec_round_trips_and_rejects_garbage() {
        for bytes in [vec![], vec![0u8], vec![0x00, 0x7f, 0x80, 0xff]] {
            assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        }
        assert_eq!(to_hex(&[0xab, 0x01]), "ab01");
        assert!(from_hex("abc").is_err(), "odd length");
        assert!(from_hex("zz").is_err(), "non-hex digit");
    }

    #[test]
    fn config_derivation_is_shared() {
        let run = RunRequest {
            pe: (32, 32),
            mhz: Some(100),
            ..RunRequest::default()
        };
        let cfg = run.config();
        assert_eq!(cfg.pe.tin, 32);
        assert_eq!(cfg.freq_mhz, 100);
    }
}
