//! `serve`: an in-process `cbrand` (`Daemon::bind` on 127.0.0.1:0 with
//! one worker per CPU) warm-loaded from a cache file written at setup,
//! driven by one client connection with one request in flight. It is
//! the only workload that exercises the reactor, the wire/JSON codec
//! and the warm `Runner` path, and it only reads the layer cache that
//! `sweep` only fills. One connection, because with two the transport
//! stalls of the current code turn bimodal and throughput stops
//! repeating between identical runs.

use crate::digest;
use crate::measure::{median, Metric, Outcome};
use crate::trace::{self, Tracer};
use cbrain::model::{zoo, Network};
use cbrain::report::render_run_report;
use cbrain::{persist, CompiledLayerCache, NetworkReport, Policy, Runner};
use cbrain_serve::json::Value;
use cbrain_serve::{Client, Daemon, DaemonOptions, Event, NetworkSource, Request, RunRequest};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client deadline for connecting, for each request and for teardown:
/// about ten times what a request takes on the current code, so only a
/// stalled daemon misses it. A missed deadline is a failed op; the loop
/// reconnects and goes on.
const DEADLINE: Duration = Duration::from_secs(1);
const POLICIES: [Policy; 2] = [
    Policy::Adaptive {
        improved_inter: true,
    },
    Policy::OraclePruned,
];
/// Inline spec text for each zoo network: the `cbrand-client --spec`
/// path, whose request lines run to kilobytes.
const SPECS: [(&str, &str); 6] = [
    ("alexnet", include_str!("../../specs/alexnet.spec")),
    ("googlenet", include_str!("../../specs/googlenet.spec")),
    ("vgg16", include_str!("../../specs/vgg16.spec")),
    ("nin", include_str!("../../specs/nin.spec")),
    ("resnet18", include_str!("../../specs/resnet18.spec")),
    (
        "mobilenet_dw",
        include_str!("../../specs/mobilenet_dw.spec"),
    ),
];

struct Req {
    run: RunRequest,
    net: usize,
    spec: bool,
    /// `render_run_report` of an in-process run of the same request on
    /// the same warm cache: the rebuilt report must match it byte for
    /// byte.
    expected: String,
    /// Digest of every simulated statistic of that in-process report,
    /// which the rendering rounds or leaves out: the rebuilt report's
    /// digest must equal it too.
    digest: u64,
}

impl Req {
    fn label(&self, nets: &[Network]) -> String {
        let form = if self.spec { "spec" } else { "zoo" };
        format!("{}/{}/{form}", nets[self.net].name(), self.run.policy)
    }
}

fn render(report: &NetworkReport) -> String {
    render_run_report(report, true)
}

/// Counters of the daemon's `metrics` answer the traced run differences.
#[derive(Debug, Clone, Copy, Default)]
struct Scrape {
    service_s: f64,
    services: f64,
    ticket_wait_s: f64,
    tickets: f64,
    wakeups: f64,
    hits: f64,
    misses: f64,
    shed: f64,
}

impl Scrape {
    fn from_metrics(m: &Value) -> Self {
        let num = |name: &str| m.get(name).and_then(Value::as_f64).unwrap_or(0.0);
        let hist = |name: &str| {
            let h = m.get(name);
            let field = |f: &str| {
                h.and_then(|h| h.get(f))
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0)
            };
            (field("sum"), field("count"))
        };
        let (service_s, services) = hist("request_seconds{req=\"simulate\"}");
        let (ticket_wait_s, tickets) = hist("ticket_wait_seconds");
        Self {
            service_s,
            services,
            ticket_wait_s,
            tickets,
            wakeups: num("poll_wakeups_total"),
            hits: num("cache_hits_total"),
            misses: num("cache_misses_total"),
            shed: num("admission_shed_total"),
        }
    }
}

pub struct Serve {
    nets: Vec<Network>,
    /// Requests in the seed's order; ops cycle through them.
    requests: Vec<Req>,
    /// The in-process runner whose cache the daemon loaded.
    runner: Runner,
    cache_file: PathBuf,
    addr: String,
    client: Option<Client>,
    daemon: Option<JoinHandle<std::io::Result<String>>>,
    /// The daemon's counters scraped before the traced phase.
    before: Scrape,
}

fn connect(addr: &str) -> Result<Client, String> {
    Client::builder(addr)
        .connect_timeout(DEADLINE)
        .io_timeout(DEADLINE)
        .busy_wait(Duration::ZERO)
        .connect()
        .map_err(|e| format!("connect: {e}"))
}

impl Serve {
    /// Builds the warm cache in-process, writes it to a file, binds a
    /// daemon that loads it, and sends every request through the daemon
    /// once. Returns the failures of that pass.
    pub fn setup(seed: u64, rep: usize) -> Result<(Self, Vec<Outcome>), String> {
        let nets = zoo::all();
        let mut requests = Vec::new();
        for (net, (name, text)) in SPECS.iter().enumerate() {
            if nets[net].name() != *name {
                return Err(format!("zoo network {net} is not {name}"));
            }
            for policy in POLICIES {
                for spec in [false, true] {
                    let network = if spec {
                        NetworkSource::Spec((*text).to_owned())
                    } else {
                        NetworkSource::Zoo((*name).to_owned())
                    };
                    let run = RunRequest {
                        network,
                        policy,
                        ..RunRequest::default()
                    };
                    requests.push(Req {
                        run,
                        net,
                        spec,
                        expected: String::new(),
                        digest: 0,
                    });
                }
            }
        }
        crate::shuffle(&mut requests, seed);

        let runner = Runner::new(RunRequest::default().config());
        for policy in POLICIES {
            for net in &nets {
                runner.run_network(net, policy).map_err(|e| e.to_string())?;
            }
        }
        let mut problems = Vec::new();
        for req in &mut requests {
            let report = runner
                .run_network(&nets[req.net], req.run.policy)
                .map_err(|e| e.to_string())?;
            let key = format!("serve/{}/{}", nets[req.net].name(), req.run.policy);
            req.digest = digest::of_report(&report);
            if let Err(e) = digest::check_stored(&key, req.digest) {
                problems.push(Outcome::wrong(e));
            }
            req.expected = render(&report);
        }

        let cache_file = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
            .join(format!("serve-cache-{}-{rep}.bin", std::process::id()));
        persist::save(runner.cache(), &cache_file).map_err(|e| e.to_string())?;
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let daemon = Daemon::bind(
            "127.0.0.1:0",
            DaemonOptions {
                cache_path: Some(cache_file.clone()),
                workers,
                ..DaemonOptions::default()
            },
        )
        .map_err(|e| format!("bind: {e}"))?;
        let addr = daemon.local_addr().to_string();
        let handle = std::thread::Builder::new()
            .name("cbrand".into())
            .spawn(move || daemon.run())
            .map_err(|e| e.to_string())?;
        let mut serve = Self {
            nets,
            requests,
            runner,
            cache_file,
            client: None,
            addr,
            daemon: Some(handle),
            before: Scrape::default(),
        };
        for n in 0..serve.requests.len() as u64 {
            let out = serve.op(n, None);
            if !out.ok {
                problems.push(out);
            }
        }
        Ok((serve, problems))
    }

    pub fn op(&mut self, n: u64, tracer: Option<&Arc<Tracer>>) -> Outcome {
        let i = n as usize % self.requests.len();
        let mut client = match self.client.take() {
            Some(c) => c,
            None => match connect(&self.addr) {
                Ok(c) => c,
                Err(e) => return Outcome::fail(e),
            },
        };
        let req = &self.requests[i];
        let span = tracer.map(|t| {
            let form = if req.spec { "spec" } else { "zoo" };
            t.begin("client.simulate", format!("\"form\":\"{form}\""))
        });
        let mut first = true;
        let result = client.simulate(&req.run, |_| {
            if let (Some(t), true) = (tracer, first) {
                t.mark("client.first_event");
            }
            first = false;
        });
        if let (Some(t), Some(id)) = (tracer, span) {
            t.end(id, 0);
        }
        match result {
            Ok(report)
                if render(&report) == req.expected && digest::of_report(&report) == req.digest =>
            {
                self.client = Some(client);
                Outcome::pass(report.totals.mac_ops as f64)
            }
            Ok(_) => {
                self.client = Some(client);
                Outcome::wrong(format!(
                    "{}: report differs from the in-process run",
                    req.label(&self.nets)
                ))
            }
            // The connection is dropped; the next op reconnects.
            Err(e) => Outcome::fail(format!("{}: {e}", req.label(&self.nets))),
        }
    }

    fn scrape(&mut self) -> Result<Scrape, String> {
        let mut client = match self.client.take() {
            Some(c) => c,
            None => connect(&self.addr)?,
        };
        let answer = client.submit(&Request::Metrics, |_| {});
        match answer {
            Ok(Event::Metrics { metrics }) => {
                self.client = Some(client);
                Ok(Scrape::from_metrics(&metrics))
            }
            Ok(other) => Err(format!("metrics: unexpected answer {other:?}")),
            Err(e) => Err(format!("metrics: {e}")),
        }
    }

    /// Scrapes the daemon's counters before the traced phase.
    pub fn prepare_trace(&mut self) -> Result<(), String> {
        self.before = self.scrape()?;
        Ok(())
    }

    /// Per-layer metrics of the traced phase: the daemon's counters
    /// scraped after it, and in-process timings of the same work. A
    /// stalled daemon fails the exchanges it misses, reported beside
    /// the metrics, which then cover what was measured.
    pub fn layer_metrics(&mut self, spans: &[trace::Span]) -> (Vec<Metric>, Vec<Outcome>) {
        let mut failures = Vec::new();
        let b = self.before;
        let after = self.scrape().unwrap_or_else(|e| {
            failures.push(Outcome::fail(e));
            b
        });
        let per = |sum: f64, count: f64| if count > 0.0 { sum / count } else { 0.0 };
        let (latency_ns, _, requests) = trace::sum(spans, "client.simulate", "");
        let requests = requests as f64;
        let latency_ms = per(latency_ns as f64, requests) / 1e6;
        let (first_ns, firsts) = spans
            .iter()
            .filter(|s| s.name == "client.first_event")
            .filter_map(|s| s.parent.map(|p| s.start_ns - spans[p].start_ns))
            .fold((0, 0), |(ns, n), d| (ns + d, n + 1));
        let first_event_ms = per(first_ns as f64, f64::from(firsts)) / 1e6;
        let service_ms = per(after.service_s - b.service_s, after.services - b.services) * 1e3;
        let wait_ms = per(
            after.ticket_wait_s - b.ticket_wait_s,
            after.tickets - b.tickets,
        ) * 1e3;
        let hits = after.hits - b.hits;
        let lookups = hits + after.misses - b.misses;
        let (warm_ms, load_ms) = self.in_process_timings().unwrap_or_else(|e| {
            failures.push(Outcome::fail(e));
            (0.0, 0.0)
        });
        let (wire, wire_failure) = self.wire_timings();
        failures.extend(wire_failure.map(Outcome::fail));
        let mut m = vec![
            Metric::new("serve.client.first_event_ms", first_event_ms, "ms"),
            Metric::new("serve.daemon.service_ms", service_ms, "ms"),
            Metric::new("serve.daemon.ticket_wait_ms", wait_ms, "ms"),
            Metric::new(
                "serve.transport.ms",
                latency_ms - service_ms - wait_ms,
                "ms",
            ),
            Metric::new(
                "serve.reactor.wakeups_per_request",
                per(after.wakeups - b.wakeups, requests),
                "count",
            ),
            Metric::new("serve.runner.warm_ms", warm_ms, "ms"),
        ];
        m.extend(wire);
        m.extend([
            Metric::new("serve.cache.hit_ratio", per(hits, lookups), "ratio"),
            Metric::new("serve.daemon.shed", after.shed - b.shed, "count"),
            Metric::new("serve.persist.load_ms", load_ms, "ms"),
        ]);
        (m, failures)
    }

    /// Median over a few passes of: a warm in-process `run_network` per
    /// request, and a `persist::load_into` of the setup cache file.
    fn in_process_timings(&self) -> Result<(f64, f64), String> {
        let mut warm = Vec::new();
        let mut load = Vec::new();
        for _ in 0..3 {
            let start = Instant::now();
            for req in &self.requests {
                self.runner
                    .run_network(&self.nets[req.net], req.run.policy)
                    .map_err(|e| e.to_string())?;
            }
            warm.push(start.elapsed().as_secs_f64() * 1e3 / self.requests.len() as f64);
            let cache = CompiledLayerCache::new();
            let start = Instant::now();
            persist::load_into(&cache, &self.cache_file).map_err(|e| e.to_string())?;
            load.push(start.elapsed().as_secs_f64() * 1e3);
        }
        Ok((median(&warm), median(&load)))
    }

    /// Sends each request once more and rebuilds its exact lines, as
    /// the daemon frames them, from the events the client decoded; then
    /// times the codec on them: `encode_framed` of each request and
    /// `decode_framed` of each answer's lines, split by zoo-name and
    /// inline-spec requests, and the bytes both ways. Stops at the first
    /// failed exchange and returns its cause.
    fn wire_timings(&mut self) -> (Vec<Metric>, Option<String>) {
        const REPS: u32 = 20;
        let mut encode = [Vec::new(), Vec::new()];
        let mut decode = [Vec::new(), Vec::new()];
        let mut bytes = 0usize;
        let mut recorded = 0usize;
        let mut failure = None;
        for (id, req) in (1u64..).zip(&self.requests) {
            let request = Request::Simulate(req.run.clone());
            let frame = |e: &Event| e.encode_framed(Some(id)) + "\n";
            let mut answer = Vec::new();
            let exchange = self
                .client
                .take()
                .map_or_else(|| connect(&self.addr), Ok)
                .and_then(|mut client| {
                    let terminal = client
                        .submit(&request, |e| answer.push(frame(e)))
                        .map_err(|e| e.to_string())?;
                    answer.push(frame(&terminal));
                    self.client = Some(client);
                    Ok(())
                });
            if let Err(e) = exchange {
                failure = Some(format!("wire: {}: {e}", req.label(&self.nets)));
                break;
            }
            recorded += 1;
            let line = request.encode_framed(Some(id)) + "\n";
            bytes += line.len() + answer.iter().map(String::len).sum::<usize>();
            let form = usize::from(req.spec);
            let start = Instant::now();
            for _ in 0..REPS {
                std::hint::black_box(std::hint::black_box(&request).encode_framed(Some(id)));
            }
            encode[form].push(start.elapsed().as_secs_f64() * 1e6 / f64::from(REPS));
            let start = Instant::now();
            for _ in 0..REPS {
                for l in &answer {
                    let _ = std::hint::black_box(Event::decode_framed(std::hint::black_box(
                        l.trim_end(),
                    )));
                }
            }
            decode[form].push(start.elapsed().as_secs_f64() * 1e6 / f64::from(REPS));
        }
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let metrics = vec![
            Metric::new("serve.wire.encode_us.zoo", mean(&encode[0]), "us"),
            Metric::new("serve.wire.encode_us.spec", mean(&encode[1]), "us"),
            Metric::new("serve.wire.decode_us.zoo", mean(&decode[0]), "us"),
            Metric::new("serve.wire.decode_us.spec", mean(&decode[1]), "us"),
            Metric::new(
                "serve.wire.bytes",
                bytes as f64 / recorded.max(1) as f64,
                "B",
            ),
        ];
        (metrics, failure)
    }

    /// Digest over the expected report of every request.
    pub fn digest(&self) -> u64 {
        let mut texts: Vec<String> = self.requests.iter().map(|r| r.expected.clone()).collect();
        texts.sort();
        cbrain::persist::fnv1a64(texts.concat().as_bytes())
    }

    /// Stops the daemon within the deadline and removes the cache file.
    pub fn teardown(mut self) -> Result<(), String> {
        let stopped = match self.client.take().map_or_else(|| connect(&self.addr), Ok) {
            Ok(mut client) => client
                .submit(&Request::Shutdown, |_| {})
                .map(|_| ())
                .map_err(|e| format!("shutdown: {e}")),
            Err(e) => Err(e),
        };
        let handle = self.daemon.take().expect("the daemon runs until teardown");
        let deadline = Instant::now() + DEADLINE * 5;
        while !handle.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let joined = if handle.is_finished() {
            match handle.join() {
                Ok(Ok(_)) => Ok(()),
                Ok(Err(e)) => Err(format!("daemon: {e}")),
                Err(_) => Err("daemon thread panicked".to_owned()),
            }
        } else {
            Err("daemon did not stop within the teardown deadline".to_owned())
        };
        let _ = std::fs::remove_file(&self.cache_file);
        stopped.and(joined)
    }
}
