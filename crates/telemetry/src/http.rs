//! Minimal HTTP/1.0 exposition listener: `GET /metrics` only.
//!
//! Deliberately tiny — no keep-alive, no chunking, no TLS — just enough
//! for a standard Prometheus scraper (which speaks plain HTTP GET) or a
//! `bash /dev/tcp` probe to pull the text exposition. Every response
//! closes the connection. Anything that is not `GET /metrics` gets a 404.
//!
//! Scrapes are answered one at a time, so each request head is read
//! under one deadline for the whole head and capped in size. A head
//! still incomplete at the deadline, or longer than the cap, closes the
//! connection unanswered: a client trickling bytes can hold the listener
//! for at most the deadline, and one that never sends a newline costs at
//! most the cap.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Time a client has to send its whole request head.
const HEAD_DEADLINE: Duration = Duration::from_secs(2);

/// Most bytes a request head may hold.
const HEAD_CAP: usize = 8 << 10;

/// Renders the exposition body on demand (called once per scrape, after
/// the owner has refreshed any sampled gauges).
pub type RenderFn = Arc<dyn Fn() -> String + Send + Sync>;

/// A background thread serving `GET /metrics` on a bound listener.
///
/// Dropping the server stops the thread (flag + self-connect, the same
/// unblocking idiom the daemon's accept loop uses).
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:0`) and start serving scrapes.
    pub fn serve(addr: impl ToSocketAddrs, render: RenderFn) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("cbrain-metrics".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    // Scrapes are rare and tiny; answering inline keeps the
                    // server single-threaded and deterministic.
                    let _ = answer(stream, &render);
                }
            })?;
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the serving thread and join it.
    pub fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Unblock the accept call.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Reads the request head through the blank line that ends it (or
/// until the peer closes its half). `None` when the head is incomplete at
/// [`HEAD_DEADLINE`] or grows past [`HEAD_CAP`].
fn read_head(stream: &mut TcpStream) -> Option<String> {
    let deadline = Instant::now() + HEAD_DEADLINE;
    let mut head = Vec::new();
    let mut buf = [0; 1024];
    while !(head.windows(2).any(|w| w == b"\n\n") || head.windows(3).any(|w| w == b"\n\r\n")) {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return None;
        }
        stream.set_read_timeout(Some(left)).ok()?;
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
        if head.len() > HEAD_CAP {
            return None;
        }
    }
    Some(String::from_utf8_lossy(&head).into_owned())
}

/// Read one request head, answer it, close.
fn answer(mut stream: TcpStream, render: &RenderFn) -> std::io::Result<()> {
    let Some(head) = read_head(&mut stream) else {
        return Ok(());
    };
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method == "GET" && (path == "/metrics" || path == "/metrics/") {
        let body = render();
        write!(
            stream,
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )?;
    } else {
        let body = "not found: only GET /metrics is served\n";
        write!(
            stream,
            "HTTP/1.0 404 Not Found\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )?;
    }
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;
    use std::io::Read;

    fn scrape(addr: SocketAddr, request: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(request.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    fn server() -> MetricsServer {
        let render: RenderFn = Arc::new(|| "up 1\n".to_owned());
        MetricsServer::serve("127.0.0.1:0", render).unwrap()
    }

    #[test]
    fn a_trickling_client_holds_the_listener_no_longer_than_the_head_deadline() {
        let mut srv = server();
        let mut slow = TcpStream::connect(srv.addr()).unwrap();
        let trickler = std::thread::spawn(move || {
            // One byte every 500 ms for 4 s, never ending the head.
            for byte in *b"GET /met" {
                if slow.write_all(&[byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(500));
            }
        });
        let start = Instant::now();
        let ok = scrape(srv.addr(), "GET /metrics HTTP/1.0\r\n\r\n");
        let took = start.elapsed();
        assert!(ok.starts_with("HTTP/1.0 200 OK\r\n"), "{ok}");
        assert!(took < Duration::from_secs(3), "the scrape took {took:?}");
        trickler.join().unwrap();
        srv.stop();
    }

    #[test]
    fn a_head_past_the_cap_is_cut_off_unread() {
        let mut srv = server();
        let mut flood = TcpStream::connect(srv.addr()).unwrap();
        flood
            .set_write_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let err = flood
            .write_all(&vec![b'G'; 16 << 20])
            .expect_err("the listener read 16 MiB without a newline");
        assert!(
            matches!(
                err.kind(),
                ErrorKind::BrokenPipe | ErrorKind::ConnectionReset
            ),
            "{err}"
        );
        let ok = scrape(srv.addr(), "GET /metrics HTTP/1.0\r\n\r\n");
        assert!(ok.starts_with("HTTP/1.0 200 OK\r\n"), "{ok}");
        srv.stop();
    }

    #[test]
    fn serves_metrics_and_rejects_other_paths() {
        let reg = Arc::new(Registry::new());
        reg.counter("up_total", "liveness").add(3);
        let r = Arc::clone(&reg);
        let render: RenderFn = Arc::new(move || crate::render_prometheus(&r.samples()));
        let mut srv = MetricsServer::serve("127.0.0.1:0", render).unwrap();

        let ok = scrape(srv.addr(), "GET /metrics HTTP/1.0\r\n\r\n");
        assert!(ok.starts_with("HTTP/1.0 200 OK\r\n"), "{ok}");
        assert!(ok.contains("up_total 3\n"));

        let two = scrape(srv.addr(), "GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n");
        assert_eq!(
            ok.lines().last(),
            two.lines().last(),
            "idle scrapes are byte-stable"
        );

        let missing = scrape(srv.addr(), "GET /other HTTP/1.0\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");

        srv.stop();
        assert!(
            TcpStream::connect(srv.addr()).is_err() || {
                // The OS may accept briefly after close on some platforms;
                // a second stop is a no-op either way.
                true
            }
        );
    }
}
