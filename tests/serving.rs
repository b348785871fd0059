//! End-to-end tests of the `cbrand` serving daemon over loopback TCP:
//! streamed client reports must be byte-identical to a single-process
//! [`Runner`], and the persisted cache must make a daemon restart warm.

use cbrain::cache::LayerKey;
use cbrain::persist;
use cbrain::report::render_run_report;
use cbrain::{RunOptions, Runner, Scheme};
use cbrain_serve::daemon::{Daemon, DaemonOptions};
use cbrain_serve::json::Value;
use cbrain_serve::wire::{CompileItem, Event, NetworkSource, Request, RunRequest};
use cbrain_serve::{Client, ClientError};
use cbrain_sim::AcceleratorConfig;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread;
use std::time::Duration;

/// The report a fresh single-process runner renders for `run`.
fn direct_report(run: &RunRequest, breakdown: bool) -> String {
    let net = match &run.network {
        NetworkSource::Zoo(name) => cbrain::model::zoo::by_name(name).expect("zoo network"),
        NetworkSource::Spec(text) => cbrain::model::spec::parse(text).expect("valid spec"),
    };
    let runner = Runner::with_options(
        run.config(),
        RunOptions {
            workload: run.workload,
            batch: run.batch,
            jobs: 1,
            ..RunOptions::default()
        },
    );
    let report = runner.run_network(&net, run.policy).expect("compiles");
    render_run_report(&report, breakdown)
}

#[test]
fn two_concurrent_clients_render_byte_identical_reports() {
    let _threads = shared_thread_counts();
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        DaemonOptions {
            jobs: 2,
            ..DaemonOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = daemon.local_addr().to_string();
    let server = thread::spawn(move || daemon.run());

    // Two different (network, PE) pairs, so the requests share no layer
    // key: each client's hit/miss line — part of the rendered report —
    // must then match a fresh single-process run exactly, no matter how
    // the daemon interleaves them.
    let runs = [
        RunRequest {
            network: NetworkSource::Zoo("alexnet".into()),
            ..RunRequest::default()
        },
        RunRequest {
            network: NetworkSource::Zoo("nin".into()),
            pe: (32, 32),
            ..RunRequest::default()
        },
    ];
    thread::scope(|scope| {
        let handles: Vec<_> = runs
            .iter()
            .map(|run| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = Client::builder(&addr).connect().expect("connect");
                    let mut streamed_layers = 0usize;
                    let report = client
                        .simulate(run, |_layer| streamed_layers += 1)
                        .expect("simulate");
                    assert!(streamed_layers > 0, "layer events should stream");
                    assert_eq!(streamed_layers, report.layers.len());
                    render_run_report(&report, true)
                })
            })
            .collect();
        for (run, handle) in runs.iter().zip(handles) {
            let remote = handle.join().expect("client thread");
            assert_eq!(remote, direct_report(run, true));
        }
    });

    let mut client = Client::builder(&addr).connect().expect("connect");
    client.submit(&Request::Shutdown, |_| {}).expect("shutdown");
    server.join().expect("server thread").expect("clean exit");
}

/// This process's current thread count, if the platform exposes it.
fn os_thread_count() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/task").ok()?.count())
}

/// Thread counts are process-wide, and the tests of this binary run on
/// parallel threads, each starting a daemon and clients of its own. A
/// test that counts threads holds this lock exclusively, every other
/// test holds it shared, so no sibling starts or stops threads inside
/// a count's window.
static THREAD_COUNTS: RwLock<()> = RwLock::new(());

fn shared_thread_counts() -> RwLockReadGuard<'static, ()> {
    THREAD_COUNTS.read().unwrap_or_else(PoisonError::into_inner)
}

fn exclusive_thread_counts() -> RwLockWriteGuard<'static, ()> {
    THREAD_COUNTS
        .write()
        .unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn overloaded_daemon_sheds_with_busy_yet_every_client_converges() {
    let _threads = exclusive_thread_counts();
    // A deliberately tiny daemon: 2 connection workers and a queue of
    // one, so it sheds arrivals once 2 + 1 connections occupy it.
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        DaemonOptions {
            jobs: 1,
            workers: 2,
            queue_depth: 1,
            busy_retry_ms: 5,
            ..DaemonOptions::default()
        },
    )
    .expect("bind loopback");
    assert_eq!(daemon.workers(), 2);
    let addr = daemon.local_addr().to_string();
    let threads_before = os_thread_count();
    let server = thread::spawn(move || daemon.run());

    // Eight clients over eight DISTINCT PE shapes: the PE config is
    // part of every layer key, so no request shares a key with another
    // (two networks at the same PE can share pool/conv keys!) and each
    // client's hit/miss line must match a fresh single-process run no
    // matter how the overloaded daemon interleaves or sheds them.
    let pes = [
        (16, 16),
        (32, 32),
        (16, 32),
        (32, 16),
        (8, 8),
        (8, 16),
        (16, 8),
        (24, 24),
    ];
    let runs: Vec<RunRequest> = pes
        .iter()
        .enumerate()
        .map(|(i, &pe)| RunRequest {
            network: NetworkSource::Zoo(if i % 2 == 0 { "alexnet" } else { "nin" }.to_owned()),
            pe,
            ..RunRequest::default()
        })
        .collect();

    // The overload must not hang on how long a request takes, so the
    // test makes it: silent connections that never say hello count as
    // occupancy, and workers + high water (here the queue depth) of them
    // fill the daemon. Every client is shed until they are released,
    // which happens once each client has seen a busy answer.
    let mut holders: Vec<std::net::TcpStream> = (0..2 + 1)
        .map(|_| std::net::TcpStream::connect(&addr).expect("connect holder"))
        .collect();
    let busy_seen = AtomicU64::new(0);
    let clients_shed = AtomicU64::new(0);
    let mut peak_threads = os_thread_count();
    thread::scope(|scope| {
        let handles: Vec<_> = runs
            .iter()
            .map(|run| {
                let addr = addr.clone();
                let busy_seen = &busy_seen;
                let clients_shed = &clients_shed;
                scope.spawn(move || {
                    // A zero busy budget surfaces every shed answer so
                    // the test can count them; the manual retry loop
                    // then honours the daemon's hint by hand.
                    let mut shed = false;
                    loop {
                        match Client::builder(&addr).busy_wait(Duration::ZERO).connect() {
                            Ok(mut client) => {
                                let report = client.simulate(run, |_| {}).expect("simulate");
                                return render_run_report(&report, true);
                            }
                            Err(ClientError::Busy { retry_after_ms, .. }) => {
                                busy_seen.fetch_add(1, Ordering::SeqCst);
                                if !shed {
                                    shed = true;
                                    clients_shed.fetch_add(1, Ordering::SeqCst);
                                }
                                thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
                            }
                            Err(e) => panic!("unexpected client failure: {e}"),
                        }
                    }
                })
            })
            .collect();
        while handles.iter().any(|h| !h.is_finished()) {
            if clients_shed.load(Ordering::SeqCst) == runs.len() as u64 {
                holders.clear();
            }
            peak_threads = peak_threads.max(os_thread_count());
            thread::sleep(Duration::from_millis(5));
        }
        for (run, handle) in runs.iter().zip(handles) {
            let remote = handle.join().expect("client thread");
            assert_eq!(
                remote,
                direct_report(run, true),
                "overload broke byte-identity"
            );
        }
    });

    // The fixed worker pool must keep the daemon's thread count flat:
    // 8 client threads + accept + 2 workers + shed reaper + slack, not
    // a thread per accepted-or-shed connection.
    if let (Some(before), Some(peak)) = (threads_before, peak_threads) {
        assert!(
            peak <= before + 13,
            "thread count unbounded under overload: {before} before, {peak} at peak"
        );
    }

    // The daemon must have shed at least once (8 clients into a queue
    // of one), and the clients must have seen it as `busy`.
    assert!(
        busy_seen.load(Ordering::SeqCst) >= 1,
        "no client ever observed a busy answer"
    );
    let mut client = Client::builder(&addr).connect().expect("connect");
    let stats = client.submit(&Request::Stats, |_| {}).expect("stats");
    let Event::Stats { accepted, shed, .. } = stats else {
        panic!("expected stats, got {stats:?}");
    };
    assert!(shed >= 1, "daemon counters never recorded a shed");
    assert!(accepted >= 8, "every client converged, so accepted >= 8");
    client.submit(&Request::Shutdown, |_| {}).expect("shutdown");
    server.join().expect("server thread").expect("clean exit");
}

#[test]
fn progress_counters_track_runs_and_settle_idle() {
    let _threads = shared_thread_counts();
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        DaemonOptions {
            jobs: 2,
            ..DaemonOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = daemon.local_addr().to_string();
    let server = thread::spawn(move || daemon.run());

    let progress = |client: &mut Client| {
        let terminal = client.submit(&Request::Progress, |_| {}).expect("progress");
        let Event::Progress {
            runs_active,
            runs_done,
            layers_done,
            layers_total,
        } = terminal
        else {
            panic!("expected progress, got {terminal:?}");
        };
        (runs_active, runs_done, layers_done, layers_total)
    };

    // An idle daemon reports all zeroes.
    let mut client = Client::builder(&addr).connect().expect("connect");
    assert_eq!(progress(&mut client), (0, 0, 0, 0));

    // During a run, a second connection must see it counted: poll from
    // inside the layer-stream callback, where the run is active by
    // construction.
    let mut poller = Client::builder(&addr).connect().expect("connect");
    let mut mid_run = None;
    let run = RunRequest {
        network: NetworkSource::Zoo("alexnet".into()),
        ..RunRequest::default()
    };
    client
        .simulate(&run, |_layer| {
            if mid_run.is_none() {
                mid_run = Some(progress(&mut poller));
            }
        })
        .expect("simulate");
    // The daemon may already have finished the (fast) run by the time
    // the poll lands, so accept both sides of that race — but demand a
    // consistent snapshot either way.
    let (active, done, layers_done, layers_total) = mid_run.expect("layer events streamed");
    assert_eq!(active + done, 1, "exactly one run was submitted");
    if active == 1 {
        assert!(layers_total > 0, "active run must contribute layer cells");
        assert!(layers_done <= layers_total);
    } else {
        assert_eq!(
            (layers_done, layers_total),
            (0, 0),
            "finished run must unwind"
        );
    }

    // After the run finishes its contribution unwinds: one run done,
    // nothing active, no layer cells in flight.
    assert_eq!(progress(&mut client), (0, 1, 0, 0));

    client.submit(&Request::Shutdown, |_| {}).expect("shutdown");
    server.join().expect("server thread").expect("clean exit");
}

/// Submits a `metrics` request and returns the decoded registry object.
fn fetch_metrics(client: &mut Client) -> Value {
    let terminal = client.submit(&Request::Metrics, |_| {}).expect("metrics");
    let Event::Metrics { metrics } = terminal else {
        panic!("expected metrics, got {terminal:?}");
    };
    metrics
}

/// The u64 payload of a named counter in a metrics object.
fn counter(metrics: &Value, name: &str) -> u64 {
    metrics
        .get(name)
        .unwrap_or_else(|| panic!("metric `{name}` missing"))
        .as_u64()
        .unwrap_or_else(|| panic!("metric `{name}` is not a u64"))
}

#[test]
fn metrics_request_is_sorted_and_agrees_with_stats() {
    let _threads = shared_thread_counts();
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        DaemonOptions {
            jobs: 2,
            ..DaemonOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = daemon.local_addr().to_string();
    let server = thread::spawn(move || daemon.run());

    let mut client = Client::builder(&addr).connect().expect("connect");
    let run = RunRequest {
        network: NetworkSource::Zoo("alexnet".into()),
        ..RunRequest::default()
    };
    let report = client.simulate(&run, |_| {}).expect("simulate");

    let metrics = fetch_metrics(&mut client);
    let Value::Obj(members) = &metrics else {
        panic!("metrics must be an object");
    };
    // Sorted, duplicate-free member names — the diff-stability contract.
    assert!(
        members.windows(2).all(|w| w[0].0 < w[1].0),
        "metrics keys must be strictly sorted"
    );

    // The registry view and the v2.1 stats view must agree: both are
    // fed by the same counters.
    let stats = client.submit(&Request::Stats, |_| {}).expect("stats");
    let Event::Stats {
        entries,
        hits,
        misses,
        ..
    } = stats
    else {
        panic!("expected stats, got {stats:?}");
    };
    assert_eq!(counter(&metrics, "cache_hits_total"), hits);
    assert_eq!(counter(&metrics, "cache_misses_total"), misses);
    assert_eq!(counter(&metrics, "cache_entries"), entries);
    assert_eq!(
        counter(&metrics, "cache_misses_total"),
        report.cache_misses,
        "a lone client's misses are the daemon's misses"
    );
    assert!(counter(&metrics, "requests_total") >= 2);
    assert_eq!(counter(&metrics, "admission_shed_total"), 0);
    assert_eq!(counter(&metrics, "progress_runs_done_total"), 1);
    // The per-request histograms exist for every request kind, as
    // nested objects with a bucket map.
    let sim = metrics
        .get("request_seconds{req=\"simulate\"}")
        .expect("simulate latency histogram");
    assert_eq!(counter(sim, "count"), 1);
    assert!(sim.get("buckets").is_some());

    client.submit(&Request::Shutdown, |_| {}).expect("shutdown");
    server.join().expect("server thread").expect("clean exit");
}

/// One plain HTTP/1.0 GET against the metrics listener; returns
/// (status line, body).
fn http_get(addr: &str, path: &str) -> (String, String) {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect metrics");
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("header/body separator");
    let status = head.lines().next().expect("status line").to_owned();
    (status, body.to_owned())
}

#[test]
fn prometheus_scrape_is_byte_stable_and_sorted() {
    let _threads = shared_thread_counts();
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        DaemonOptions {
            jobs: 2,
            metrics_addr: Some("127.0.0.1:0".to_owned()),
            ..DaemonOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = daemon.local_addr().to_string();
    let scrape_addr = daemon
        .metrics_addr()
        .expect("metrics listener bound")
        .to_string();
    let server = thread::spawn(move || daemon.run());

    let mut client = Client::builder(&addr).connect().expect("connect");
    let run = RunRequest {
        network: NetworkSource::Zoo("nin".into()),
        ..RunRequest::default()
    };
    client.simulate(&run, |_| {}).expect("simulate");

    // Two scrapes of an idle daemon must be byte-identical — the
    // exposition carries no timestamps and sampling mutates nothing.
    let (status, first) = http_get(&scrape_addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    let (_, second) = http_get(&scrape_addr, "/metrics");
    assert_eq!(first, second, "idle scrapes must not drift");

    // Text-format sanity: HELP/TYPE lines present, series names sorted.
    assert!(first.starts_with("# HELP "), "{first}");
    let series: Vec<&str> = first
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .collect();
    assert!(series.iter().any(|l| l.starts_with("cache_misses_total ")));
    assert!(series
        .iter()
        .any(|l| l.starts_with("request_seconds_bucket{req=\"simulate\"")));
    let families: Vec<&str> = first
        .lines()
        .filter_map(|l| l.strip_prefix("# HELP "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let mut sorted = families.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(families, sorted, "families must render sorted, once each");

    // Anything else is a 404, not a hang or a crash.
    let (status, _) = http_get(&scrape_addr, "/other");
    assert!(status.contains("404"), "{status}");

    client.submit(&Request::Shutdown, |_| {}).expect("shutdown");
    server.join().expect("server thread").expect("clean exit");
}

#[test]
fn shed_flood_counts_exactly_in_metrics() {
    let _threads = shared_thread_counts();
    // Same overload shape as the shedding test above, but the assertion
    // under test is the *metrics* contract: every `busy` line a client
    // observed is one shed connection, so `admission_shed_total` must
    // equal the observed count exactly — no double counting, no misses.
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        DaemonOptions {
            jobs: 1,
            workers: 2,
            queue_depth: 1,
            busy_retry_ms: 5,
            ..DaemonOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = daemon.local_addr().to_string();
    let server = thread::spawn(move || daemon.run());

    let busy_seen = AtomicU64::new(0);
    let runs: Vec<RunRequest> = [(16, 16), (32, 32), (8, 8), (24, 24), (8, 16), (16, 8)]
        .iter()
        .map(|&pe| RunRequest {
            network: NetworkSource::Zoo("nin".into()),
            pe,
            ..RunRequest::default()
        })
        .collect();
    thread::scope(|scope| {
        for run in &runs {
            let addr = addr.clone();
            let busy_seen = &busy_seen;
            scope.spawn(move || loop {
                match Client::builder(&addr).busy_wait(Duration::ZERO).connect() {
                    Ok(mut client) => {
                        client.simulate(run, |_| {}).expect("simulate");
                        return;
                    }
                    Err(ClientError::Busy { retry_after_ms, .. }) => {
                        busy_seen.fetch_add(1, Ordering::SeqCst);
                        thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
                    }
                    Err(e) => panic!("unexpected client failure: {e}"),
                }
            });
        }
    });

    let mut client = Client::builder(&addr).connect().expect("connect");
    let metrics = fetch_metrics(&mut client);
    assert_eq!(
        counter(&metrics, "admission_shed_total"),
        busy_seen.load(Ordering::SeqCst),
        "every busy line is exactly one shed connection"
    );
    assert!(
        counter(&metrics, "admission_accepted_total") >= runs.len() as u64,
        "every client eventually got in"
    );
    client.submit(&Request::Shutdown, |_| {}).expect("shutdown");
    server.join().expect("server thread").expect("clean exit");
}

#[test]
fn slow_loris_writers_and_stalled_readers_do_not_delay_other_clients() {
    let _threads = shared_thread_counts();
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        DaemonOptions {
            jobs: 1,
            ..DaemonOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = daemon.local_addr().to_string();
    let server = thread::spawn(move || daemon.run());

    let stop = std::sync::atomic::AtomicBool::new(false);
    let run = RunRequest {
        network: NetworkSource::Zoo("alexnet".into()),
        ..RunRequest::default()
    };
    thread::scope(|scope| {
        // A slow-loris writer: dribbles a request one byte at a time and
        // never finishes the line. In a thread-per-connection daemon this
        // parks a worker; here it must cost a descriptor and nothing else.
        let loris_addr = addr.clone();
        let loris_stop = &stop;
        scope.spawn(move || {
            let mut socket = std::net::TcpStream::connect(&loris_addr).expect("connect loris");
            let line = Request::Stats.encode();
            // Never send the last byte, let alone the newline.
            for byte in line.as_bytes()[..line.len() - 1].iter().cycle() {
                if loris_stop.load(Ordering::SeqCst) {
                    return;
                }
                if socket.write_all(std::slice::from_ref(byte)).is_err() {
                    return;
                }
                thread::sleep(Duration::from_millis(5));
            }
        });

        // A stalled reader: submits a full compute request and then never
        // reads a byte of the streamed answer. A distinct PE shape keeps
        // its layer keys out of the honest client's hit/miss line.
        let stalled_run = RunRequest {
            pe: (32, 32),
            ..run.clone()
        };
        let stalled_addr = addr.clone();
        let stalled_stop = &stop;
        scope.spawn(move || {
            let mut socket = std::net::TcpStream::connect(&stalled_addr).expect("connect stalled");
            let mut line = Request::Simulate(stalled_run).encode();
            line.push('\n');
            socket.write_all(line.as_bytes()).expect("send request");
            while !stalled_stop.load(Ordering::SeqCst) {
                thread::sleep(Duration::from_millis(5));
            }
        });

        // Both hostile peers in flight: a normal client must still get a
        // byte-identical report, promptly. Collect, then release the
        // hostile threads BEFORE asserting — a failed assert must not
        // leave the scope joining threads that never stop.
        thread::sleep(Duration::from_millis(50));
        let started = std::time::Instant::now();
        let outcome = Client::builder(&addr).connect().and_then(|mut client| {
            let report = client.simulate(&run, |_| {})?;
            let elapsed = started.elapsed();
            client.submit(&Request::Shutdown, |_| {})?;
            Ok((render_run_report(&report, true), elapsed))
        });
        stop.store(true, Ordering::SeqCst);
        let (remote, elapsed) = outcome.expect("honest client");
        assert_eq!(
            remote,
            direct_report(&run, true),
            "hostile peers broke byte-identity"
        );
        assert!(
            elapsed < Duration::from_secs(10),
            "a loris and a stalled reader delayed an honest client by {elapsed:?}"
        );
    });
    server.join().expect("server thread").expect("clean exit");
}

#[test]
fn idle_soak_keepalive_connections_stay_cheap_under_flood() {
    let _threads = exclusive_thread_counts();
    // The C10K shape: hundreds of proven keep-alive connections parked
    // on the daemon while a compute flood hits the same tiny pool. Idle
    // peers must cost a descriptor (never a thread), shed accounting
    // must stay exact, and reports must stay byte-identical. The ci
    // harness reruns this test with CBRAIN_TELEMETRY=off — counters and
    // gauges still count there; only span timing goes dark.
    const IDLE_CONNS: usize = 500;
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        DaemonOptions {
            jobs: 1,
            workers: 2,
            queue_depth: 1,
            busy_retry_ms: 5,
            ..DaemonOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = daemon.local_addr().to_string();
    let threads_before = os_thread_count();
    let server = thread::spawn(move || daemon.run());

    // Open the idle herd serially: each connection completes the
    // connect-time `hello` before the next one dials, proving itself
    // idle rather than reading as an unproven arrival the admission
    // logic would shed as a connection storm.
    let idle: Vec<Client> = (0..IDLE_CONNS)
        .map(|n| {
            Client::builder(&addr)
                .connect()
                .unwrap_or_else(|e| panic!("idle connect {n}: {e}"))
        })
        .collect();
    let threads_idle = os_thread_count();
    if let (Some(before), Some(now)) = (threads_before, threads_idle) {
        assert!(
            now <= before + 8,
            "{IDLE_CONNS} idle connections grew threads: {before} before, {now} now"
        );
    }

    // The connection gauges see the herd: this metrics client is one
    // more proven connection on top of it.
    let busy_seen = AtomicU64::new(0);
    let connect_counted = |busy_seen: &AtomicU64| loop {
        match Client::builder(&addr).busy_wait(Duration::ZERO).connect() {
            Ok(client) => return client,
            Err(ClientError::Busy { retry_after_ms, .. }) => {
                busy_seen.fetch_add(1, Ordering::SeqCst);
                thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
            }
            Err(e) => panic!("unexpected client failure: {e}"),
        }
    };
    let mut client = connect_counted(&busy_seen);
    let metrics = fetch_metrics(&mut client);
    assert_eq!(
        counter(&metrics, "connections_open"),
        IDLE_CONNS as u64 + 1,
        "connections_open must count the idle herd plus this client"
    );
    assert!(counter(&metrics, "connections_idle") >= IDLE_CONNS as u64);
    drop(client);

    // Concurrent flood into workers=2/queue_depth=1: sheds are certain;
    // every busy line a client saw must be exactly one shed connection.
    let runs: Vec<RunRequest> = [(16, 16), (32, 32), (8, 8), (24, 24)]
        .iter()
        .map(|&pe| RunRequest {
            network: NetworkSource::Zoo("nin".into()),
            pe,
            ..RunRequest::default()
        })
        .collect();
    let mut peak_threads = os_thread_count();
    thread::scope(|scope| {
        let handles: Vec<_> = runs
            .iter()
            .map(|run| {
                let busy_seen = &busy_seen;
                let connect_counted = &connect_counted;
                scope.spawn(move || {
                    let mut client = connect_counted(busy_seen);
                    let report = client.simulate(run, |_| {}).expect("simulate");
                    render_run_report(&report, true)
                })
            })
            .collect();
        while handles.iter().any(|h| !h.is_finished()) {
            peak_threads = peak_threads.max(os_thread_count());
            thread::sleep(Duration::from_millis(5));
        }
        for (run, handle) in runs.iter().zip(handles) {
            let remote = handle.join().expect("flood client");
            assert_eq!(
                remote,
                direct_report(run, true),
                "flood over an idle herd broke byte-identity"
            );
        }
    });
    // Flat under flood too: the 4 flood client threads live in this
    // process; the daemon itself adds nothing per connection.
    if let (Some(before), Some(peak)) = (threads_before, peak_threads) {
        assert!(
            peak <= before + 12,
            "thread count grew with load: {before} before, {peak} at peak"
        );
    }

    let mut client = connect_counted(&busy_seen);
    let metrics = fetch_metrics(&mut client);
    assert_eq!(
        counter(&metrics, "admission_shed_total"),
        busy_seen.load(Ordering::SeqCst),
        "every busy line is exactly one shed connection"
    );
    drop(idle);
    client.submit(&Request::Shutdown, |_| {}).expect("shutdown");
    server.join().expect("server thread").expect("clean exit");
}

#[test]
fn daemon_restart_serves_from_persisted_cache() {
    let _threads = shared_thread_counts();
    let dir = std::env::temp_dir().join(format!("cbrand_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cache_file = dir.join("compiled-layers.bin");
    let run = Request::Simulate(RunRequest {
        network: NetworkSource::Zoo("alexnet".into()),
        ..RunRequest::default()
    });
    let opts = DaemonOptions {
        jobs: 2,
        cache_path: Some(cache_file.clone()),
        ..DaemonOptions::default()
    };

    let done = |addr: &str| {
        let mut client = Client::builder(addr).connect().expect("connect");
        let terminal = client.submit(&run, |_| {}).expect("simulate");
        client.submit(&Request::Shutdown, |_| {}).expect("shutdown");
        let Event::Done { hits, misses, .. } = terminal else {
            panic!("expected done, got {terminal:?}");
        };
        (hits, misses)
    };

    // Cold daemon: every layer compiles.
    let daemon = Daemon::bind("127.0.0.1:0", opts.clone()).expect("bind");
    assert!(
        daemon.load_note().contains("cold start"),
        "{}",
        daemon.load_note()
    );
    let addr = daemon.local_addr().to_string();
    let server = thread::spawn(move || daemon.run());
    let (_, cold_misses) = done(&addr);
    assert!(cold_misses > 0, "cold run must compile");
    let note = server.join().expect("server thread").expect("clean exit");
    assert!(note.contains("saved"), "{note}");
    assert!(cache_file.exists());

    // Restarted daemon: the persisted file answers everything.
    let daemon = Daemon::bind("127.0.0.1:0", opts).expect("bind");
    assert!(
        daemon.load_note().contains("loaded"),
        "{}",
        daemon.load_note()
    );
    let addr = daemon.local_addr().to_string();
    let server = thread::spawn(move || daemon.run());
    let (warm_hits, warm_misses) = done(&addr);
    assert_eq!(warm_misses, 0, "warm restart must not recompile");
    assert!(warm_hits > 0);
    server.join().expect("server thread").expect("clean exit");

    std::fs::remove_dir_all(&dir).ok();
}

/// Waits on `rx` for the daemon thread's result, failing the test
/// instead of hanging if the daemon does not exit.
fn join_within(server: thread::JoinHandle<std::io::Result<String>>, limit: Duration) -> String {
    let (tx, rx) = std::sync::mpsc::channel();
    thread::spawn(move || tx.send(server.join()));
    rx.recv_timeout(limit)
        .expect("the daemon exits after shutdown")
        .expect("server thread")
        .expect("clean exit")
}

#[test]
fn compile_keys_answers_every_batch_while_evict_empties_the_cache() {
    let _threads = shared_thread_counts();
    let io = Duration::from_secs(10);
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        DaemonOptions {
            jobs: 1,
            ..DaemonOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = daemon.local_addr().to_string();
    let server = thread::spawn(move || daemon.run());

    // Every distinct alexnet key under every scheme, as a fleet router
    // would scatter them.
    let net = cbrain::model::zoo::alexnet();
    let cfg = AcceleratorConfig::paper_16_16();
    let opts = RunOptions::default();
    let mut keys: Vec<(LayerKey, String)> = Vec::new();
    for layer in net.layers() {
        for scheme in Scheme::ALL {
            let key = LayerKey::new(layer, scheme, &cfg, &opts);
            if keys.iter().all(|(k, _)| *k != key) {
                keys.push((key, layer.name.clone()));
            }
        }
    }
    let items: Vec<CompileItem> = keys
        .iter()
        .map(|(key, name)| CompileItem {
            key: persist::key_bytes(key),
            name: name.clone(),
        })
        .collect();

    // One client sends the batches while another loops `evict 0`, which
    // the reactor answers inline while a batch compiles or streams.
    thread::scope(|scope| {
        let batches = scope.spawn(|| {
            let mut client = Client::builder(&addr)
                .io_timeout(io)
                .connect()
                .expect("connect");
            for _ in 0..4 {
                let mut entries = Vec::new();
                let request = Request::CompileKeys {
                    items: items.clone(),
                };
                let terminal = client
                    .submit(&request, |event| {
                        if let Event::Entry { data } = event {
                            entries.push(data.clone());
                        }
                    })
                    .expect("the batch is answered");
                assert_eq!(terminal, Event::Ok);
                assert_eq!(entries.len(), keys.len());
                for (data, (key, name)) in entries.iter().zip(&keys) {
                    let (decoded, _) = persist::decode_entry_bytes(data).expect("entry decodes");
                    assert_eq!(decoded, *key, "entry for {name}");
                }
            }
        });
        let mut evictor = Client::builder(&addr)
            .io_timeout(io)
            .connect()
            .expect("connect");
        while !batches.is_finished() {
            evictor
                .submit(&Request::Evict { max: 0 }, |_| {})
                .expect("evict");
        }
        batches
            .join()
            .expect("every batch answers ok with its keys");
    });

    let mut client = Client::builder(&addr)
        .io_timeout(io)
        .connect()
        .expect("connect");
    client.submit(&Request::Shutdown, |_| {}).expect("shutdown");
    join_within(server, Duration::from_secs(20));
}

#[test]
fn connection_cap_sheds_arrivals_past_it_until_a_connection_closes() {
    let _threads = shared_thread_counts();
    let io = Duration::from_secs(10);
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        DaemonOptions {
            jobs: 1,
            max_connections: 2,
            ..DaemonOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = daemon.local_addr().to_string();
    let server = thread::spawn(move || daemon.run());
    let connect = || {
        Client::builder(&addr)
            .io_timeout(io)
            .busy_wait(Duration::ZERO)
            .connect()
    };

    // Two connections that said `hello` fill the cap.
    let mut first = connect().expect("first connection");
    let mut second = connect().expect("second connection");

    // A third gets one `busy` line, then EOF.
    let mut third = std::net::TcpStream::connect(&addr).expect("dial");
    third.set_read_timeout(Some(io)).expect("read timeout");
    let mut reply = String::new();
    third
        .read_to_string(&mut reply)
        .expect("busy line, then EOF");
    let lines: Vec<&str> = reply.lines().collect();
    assert_eq!(lines.len(), 1, "{reply:?}");
    assert!(
        matches!(Event::decode(lines[0]), Ok(Event::Busy { .. })),
        "{reply:?}"
    );
    drop(third);

    // Both admitted connections are still open and served.
    first.hello().expect("first connection still served");
    let metrics = fetch_metrics(&mut second);
    assert_eq!(counter(&metrics, "accept_rejected_total"), 1);
    assert_eq!(counter(&metrics, "admission_shed_total"), 1);

    // Once one closes, and the shed one has drained, a new connection
    // is admitted.
    drop(first);
    let deadline = std::time::Instant::now() + io;
    while counter(&fetch_metrics(&mut second), "connections_open") != 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "closed connections never left the daemon"
        );
        thread::sleep(Duration::from_millis(5));
    }
    let mut fourth = connect().expect("a freed slot admits a new connection");
    fourth.hello().expect("new connection served");
    let metrics = fetch_metrics(&mut fourth);
    assert_eq!(counter(&metrics, "accept_rejected_total"), 1);

    fourth.submit(&Request::Shutdown, |_| {}).expect("shutdown");
    join_within(server, Duration::from_secs(20));
}
