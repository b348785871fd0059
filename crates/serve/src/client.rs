//! Client side of the `cbrand` protocol.
//!
//! Connections are built through [`ClientBuilder`] ([`Client::builder`]),
//! which owns the connect/IO deadlines, the `hello` handshake, and the
//! reaction to an admission-control [`Event::Busy`] answer: sleep out
//! the daemon's hint and reconnect, up to a configurable deadline — busy
//! is backoff, not failure. That busy wait is the only retry loop:
//! transport failures surface to the caller at once.
//!
//! The client reconstructs a full [`NetworkReport`] from the streamed
//! layer events, so rendering it through
//! [`cbrain::report::render_run_report`] yields output byte-identical to
//! a single-process `cbrain run` of the same request.
//!
//! Events are framed by the same [`FrameDecoder`] the daemon reads
//! requests with, under the same [`MAX_LINE`] cap, so a peer that never
//! sends a newline costs the client at most that much memory.

use crate::wire::{Event, Request, RunRequest, WireError, MAX_LINE, PROTOCOL_VERSION};
use cbrain::{LayerReport, NetworkReport, RunOptions};
use cbrain_reactor::{FrameDecoder, FrameError};
use cbrain_sim::Stats;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Error from a client exchange.
#[derive(Debug)]
pub enum ClientError {
    /// Socket failure.
    Io(io::Error),
    /// The daemon sent a line the protocol does not recognize.
    Wire(WireError),
    /// The daemon sent a line longer than [`MAX_LINE`], or one that is
    /// not UTF-8.
    Frame(FrameError),
    /// The daemon reported a request failure.
    Remote(String),
    /// The stream violated the protocol (e.g. totals mismatch, missing
    /// terminal event).
    Protocol(String),
    /// The daemon shed this connection under admission control. Distinct
    /// from [`ClientError::Io`]: the daemon is alive and asks to be
    /// retried after roughly `retry_after_ms` — it must not be treated
    /// as down.
    Busy {
        /// The daemon's suggested back-off, milliseconds.
        retry_after_ms: u64,
        /// Admission-queue depth when the connection was shed.
        queue_depth: u64,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Frame(e) => write!(f, "daemon event {e}"),
            ClientError::Remote(m) => write!(f, "daemon error: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ClientError::Busy {
                retry_after_ms,
                queue_depth,
            } => write!(
                f,
                "daemon busy (retry in {retry_after_ms} ms, queue depth {queue_depth})"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// A connection to a `cbrand` daemon.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// Frames the daemon's events, at most [`MAX_LINE`] bytes a line.
    events: FrameDecoder,
    /// Monotonic request-id counter for framed submissions.
    next_id: u64,
}

impl Client {
    /// Starts building a connection to the daemon at `addr`
    /// (`host:port`). The builder's defaults — no deadlines, one
    /// connect attempt, a 30 s busy-wait, `hello` on connect — suit an
    /// interactive client; tests and perfbench tighten them.
    pub fn builder(addr: &str) -> ClientBuilder {
        ClientBuilder::new(addr)
    }

    fn from_stream(stream: TcpStream) -> Self {
        Self {
            stream,
            events: FrameDecoder::new(MAX_LINE),
            next_id: 0,
        }
    }

    /// The next event line, reading from the socket until one is whole.
    fn next_line(&mut self) -> Result<String, ClientError> {
        loop {
            if let Some(line) = self.events.next_line().map_err(ClientError::Frame)? {
                return Ok(line);
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(ClientError::Protocol(
                        "connection closed before a terminal event".into(),
                    ))
                }
                Ok(n) => self.events.push(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Performs the `hello` version exchange, returning the daemon's
    /// capability labels. [`ClientBuilder::connect`] already does this
    /// (unless [`ClientBuilder::no_handshake`] opted out); repeating it
    /// is harmless — the daemon answers every `hello`.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Remote`] on a daemon-reported version
    /// mismatch (the daemon closes the connection afterwards), or
    /// [`ClientError::Protocol`] if the answer's version disagrees with
    /// this build's [`PROTOCOL_VERSION`]. Minor-revision skew is *not*
    /// an error — minors are backwards compatible by contract.
    pub fn hello(&mut self) -> Result<Vec<String>, ClientError> {
        let terminal = self.submit(
            &Request::Hello {
                version: PROTOCOL_VERSION,
            },
            |_| {},
        )?;
        let Event::Hello { version, caps, .. } = terminal else {
            return Err(ClientError::Protocol(format!(
                "expected a `hello` event, got {terminal:?}"
            )));
        };
        if version != PROTOCOL_VERSION {
            return Err(ClientError::Protocol(format!(
                "daemon speaks protocol v{version}, this build v{PROTOCOL_VERSION}"
            )));
        }
        Ok(caps)
    }

    /// Sends one request and streams its response: `on_event` sees every
    /// non-terminal event in arrival order; the terminal event is
    /// returned ([`Event::Error`] becomes [`ClientError::Remote`]).
    ///
    /// Every request carries a fresh id; an event that echoes a
    /// *different* id is a protocol violation (requests on one
    /// connection are sequential, so stray events mean a confused peer).
    ///
    /// # Errors
    ///
    /// Returns socket, decode, or daemon-reported errors.
    pub fn submit(
        &mut self,
        request: &Request,
        mut on_event: impl FnMut(&Event),
    ) -> Result<Event, ClientError> {
        self.next_id += 1;
        let id = self.next_id;
        // One write per request: with the line and its `\n` in two
        // segments, Nagle holds the second until the first is acked.
        let mut frame = request.encode_framed(Some(id));
        frame.push('\n');
        self.stream.write_all(frame.as_bytes())?;
        self.stream.flush()?;
        loop {
            let line = self.next_line()?;
            if line.trim().is_empty() {
                continue;
            }
            let (event, echoed) = Event::decode_framed(&line)?;
            if echoed.is_some_and(|e| e != id) {
                return Err(ClientError::Protocol(format!(
                    "event answers request {:?}, expected {id}",
                    echoed.expect("checked some")
                )));
            }
            if let Event::Error { message } = event {
                return Err(ClientError::Remote(message));
            }
            if let Event::Busy {
                retry_after_ms,
                queue_depth,
            } = event
            {
                // Admission control shed this connection (the daemon
                // closes it right after); surface the hint as a typed
                // error so callers can back off instead of failing over.
                return Err(ClientError::Busy {
                    retry_after_ms,
                    queue_depth,
                });
            }
            if event.is_terminal() {
                return Ok(event);
            }
            on_event(&event);
        }
    }

    /// Runs a `simulate` request and reconstructs the [`NetworkReport`]
    /// from the stream. `on_layer` fires per layer as lines arrive (for
    /// live progress); the report is complete when this returns.
    ///
    /// # Errors
    ///
    /// Returns transport errors, daemon errors, or a
    /// [`ClientError::Protocol`] if the reconstructed totals disagree
    /// with the daemon's `done` line.
    pub fn simulate(
        &mut self,
        run: &RunRequest,
        mut on_layer: impl FnMut(&LayerReport),
    ) -> Result<NetworkReport, ClientError> {
        let mut layers: Vec<LayerReport> = Vec::new();
        let terminal = self.submit(&Request::Simulate(run.clone()), |event| {
            if let Event::Layer {
                name,
                scheme,
                stats,
                ideal_cycles,
                transform_cycles,
            } = event
            {
                let layer = LayerReport {
                    name: name.clone(),
                    scheme: *scheme,
                    stats: *stats,
                    ideal_cycles: *ideal_cycles,
                    layout_transform_cycles: *transform_cycles,
                };
                on_layer(&layer);
                layers.push(layer);
            }
        })?;
        let Event::Done {
            network,
            batch,
            cycles,
            hits,
            misses,
            ..
        } = terminal
        else {
            return Err(ClientError::Protocol(format!(
                "expected a `done` event, got {terminal:?}"
            )));
        };
        let report = assemble_report(run, network, batch, &layers, hits, misses);
        if report.cycles() != cycles {
            return Err(ClientError::Protocol(format!(
                "summed layer cycles {} disagree with daemon total {cycles}",
                report.cycles()
            )));
        }
        Ok(NetworkReport { layers, ..report })
    }
}

/// Builder for a [`Client`] connection: deadlines, busy back-off and
/// the `hello` handshake. Obtained from [`Client::builder`].
///
/// [`connect`](ClientBuilder::connect) makes one transport attempt: a
/// transport error ([`ClientError::Io`]) surfaces at once. An admission
/// refusal ([`ClientError::Busy`]) means the daemon is alive, so it is
/// retried after the daemon's own hint until
/// [`busy_wait`](ClientBuilder::busy_wait) is exhausted, at which point
/// the busy error surfaces to the caller.
#[derive(Debug, Clone)]
pub struct ClientBuilder {
    addr: String,
    connect_timeout: Option<Duration>,
    io_timeout: Option<Duration>,
    busy_wait: Duration,
    handshake: bool,
}

/// Ceiling applied to a daemon's `retry_after_ms` hint before sleeping
/// on it: a confused (or hostile) peer must not park the client forever.
const MAX_BUSY_SLEEP: Duration = Duration::from_secs(1);

impl ClientBuilder {
    fn new(addr: &str) -> Self {
        Self {
            addr: addr.to_owned(),
            connect_timeout: None,
            io_timeout: None,
            busy_wait: Duration::from_secs(30),
            handshake: true,
        }
    }

    /// Bounds the TCP connect itself (and implies resolving `addr`
    /// eagerly). Without it, connect blocks at the OS's pleasure.
    #[must_use]
    pub fn connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = Some(timeout);
        self
    }

    /// Bounds every read/write on the established connection.
    #[must_use]
    pub fn io_timeout(mut self, timeout: Duration) -> Self {
        self.io_timeout = Some(timeout);
        self
    }

    /// Total budget for waiting out `busy` answers before giving up and
    /// surfacing [`ClientError::Busy`]. `Duration::ZERO` surfaces the
    /// first busy immediately — callers that want to orchestrate their
    /// own back-off (tests, perfbench) use that.
    #[must_use]
    pub fn busy_wait(mut self, budget: Duration) -> Self {
        self.busy_wait = budget;
        self
    }

    /// Skips the `hello` exchange at connect time (raw-protocol tests).
    /// A busy daemon is then only noticed at the first `submit`.
    #[must_use]
    pub fn no_handshake(mut self) -> Self {
        self.handshake = false;
        self
    }

    /// Connects, waiting out `busy` refusals per [`busy_wait`], then (by
    /// default) performs the `hello` handshake.
    ///
    /// [`busy_wait`]: ClientBuilder::busy_wait
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on a transport failure,
    /// [`ClientError::Busy`] once the busy budget is exhausted, or
    /// handshake errors ([`ClientError::Remote`] / `Protocol`).
    pub fn connect(&self) -> Result<Client, ClientError> {
        let busy_deadline = Instant::now().checked_add(self.busy_wait);
        loop {
            match self.try_connect() {
                Err(ClientError::Busy {
                    retry_after_ms,
                    queue_depth,
                }) => {
                    let hint = Duration::from_millis(retry_after_ms.max(1)).min(MAX_BUSY_SLEEP);
                    // An unrepresentable deadline (absurd busy_wait)
                    // means "unbounded".
                    let within_budget =
                        busy_deadline.is_none_or(|deadline| Instant::now() + hint <= deadline);
                    if !within_budget {
                        return Err(ClientError::Busy {
                            retry_after_ms,
                            queue_depth,
                        });
                    }
                    std::thread::sleep(hint);
                }
                other => return other,
            }
        }
    }

    /// One connect + handshake attempt.
    fn try_connect(&self) -> Result<Client, ClientError> {
        let stream = match self.connect_timeout {
            Some(timeout) => {
                let resolved = self.addr.to_socket_addrs()?.next().ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("cannot resolve {}", self.addr),
                    )
                })?;
                TcpStream::connect_timeout(&resolved, timeout)?
            }
            None => TcpStream::connect(&self.addr)?,
        };
        if let Some(timeout) = self.io_timeout {
            stream.set_read_timeout(Some(timeout))?;
            stream.set_write_timeout(Some(timeout))?;
        }
        // Requests are small request/response exchanges: sending each
        // at once beats waiting on the peer's delayed ACK.
        stream.set_nodelay(true)?;
        let mut client = Client::from_stream(stream);
        if self.handshake {
            client.hello()?;
        }
        Ok(client)
    }
}

/// Rebuilds a [`NetworkReport`] from streamed layers plus the request
/// that produced them. The daemon runs with default options (layout
/// planning on), so totals are exactly the per-layer sums and the energy
/// model is the default — the same arithmetic `Runner::run_network`
/// performs, applied to the same numbers.
fn assemble_report(
    run: &RunRequest,
    network: String,
    batch: u64,
    layers: &[LayerReport],
    hits: u64,
    misses: u64,
) -> NetworkReport {
    let mut totals = Stats::new();
    for layer in layers {
        totals += layer.stats;
    }
    let energy = RunOptions::default().energy.evaluate(&totals);
    NetworkReport {
        network,
        batch: batch as usize,
        policy: run.policy,
        config: run.config(),
        layers: Vec::new(),
        totals,
        energy,
        cache_hits: hits,
        cache_misses: misses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    #[test]
    fn an_endless_event_line_fails_at_the_cap_before_the_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        // A hostile daemon: it answers `hello` with the cap plus 1 MiB
        // and no newline, then holds the socket open until the client
        // hangs up.
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            reader.read_line(&mut String::new()).expect("hello");
            let _ = (&stream).write_all(&vec![b'x'; MAX_LINE + (1 << 20)]);
            let _ = reader.read(&mut [0u8; 1]);
        });
        let timeout = Duration::from_secs(10);
        let start = Instant::now();
        let err = Client::builder(&addr)
            .io_timeout(timeout)
            .connect()
            .expect_err("an endless line is an error");
        assert!(start.elapsed() < timeout, "waited {:?}", start.elapsed());
        assert!(
            matches!(
                err,
                ClientError::Frame(FrameError::TooLong { limit: MAX_LINE })
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains(&MAX_LINE.to_string()), "{err}");
        peer.join().expect("peer");
    }
}
