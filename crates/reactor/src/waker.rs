//! Cross-thread reactor wakeups over a socketpair.
//!
//! A reactor blocked in `poll(2)` only notices descriptors; threads
//! that want its attention (a pool worker with response bytes ready)
//! write one byte into the write half of a [`UnixStream::pair`] whose
//! read half sits in the poll set. An atomic `pending` flag coalesces
//! storms of wakeups into a single byte per reactor iteration, so a
//! worker streaming thousands of report lines costs one pipe write per
//! poll cycle, not per line.

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

struct WakerInner {
    tx: UnixStream,
    pending: AtomicBool,
}

/// The reactor-owned read half. Register [`Waker::fd`] for readability
/// and call [`Waker::drain`] every time it fires.
pub struct Waker {
    rx: UnixStream,
    inner: Arc<WakerInner>,
}

/// A cloneable handle other threads use to nudge the reactor.
#[derive(Clone)]
pub struct WakeHandle {
    inner: Arc<WakerInner>,
}

impl Waker {
    /// Builds the pair. Both halves are non-blocking: a full pipe must
    /// never park the waking thread (an unread byte already guarantees
    /// the reactor will wake).
    ///
    /// # Errors
    ///
    /// Socketpair creation or `set_nonblocking` failures.
    pub fn new() -> io::Result<Self> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Self {
            rx,
            inner: Arc::new(WakerInner {
                tx,
                pending: AtomicBool::new(false),
            }),
        })
    }

    /// The descriptor to include (readable) in the poll set.
    #[must_use]
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// A handle for threads that need to wake this reactor.
    #[must_use]
    pub fn handle(&self) -> WakeHandle {
        WakeHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Consumes buffered wakeup bytes and re-arms the coalescing flag.
    ///
    /// The pipe empties *before* the flag clears. A wake racing with
    /// the drain either finds the flag still set and writes nothing,
    /// which loses nothing because the reactor reads its mailbox after
    /// every drain, or lands after the flag clears and writes a fresh
    /// byte. The other order loses wakeups: a wake landing between
    /// clearing the flag and reading the pipe has its byte swallowed by
    /// the read and leaves the flag set over an empty pipe, so every
    /// later wake writes nothing and the reactor sleeps with replies
    /// waiting.
    pub fn drain(&self) {
        self.drain_with(|| {});
    }

    /// [`Waker::drain`], running `between` after the pipe is emptied and
    /// before the flag re-arms: the window a racing wake can land in.
    fn drain_with(&self, between: impl FnOnce()) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.rx).read(&mut buf) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        between();
        self.inner.pending.store(false, Ordering::SeqCst);
    }
}

impl WakeHandle {
    /// Nudges the reactor. Only the first call after a drain writes a
    /// byte; `WouldBlock` on a full pipe is ignored because unread
    /// bytes already make the read half level-triggered-ready.
    pub fn wake(&self) {
        if !self.inner.pending.swap(true, Ordering::SeqCst) {
            let _ = (&self.inner.tx).write(&[1u8]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sys::{poll_fds, PollFd, POLLIN};
    use std::time::Duration;

    fn readable(fd: RawFd, timeout_ms: u64) -> bool {
        let mut fds = [PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        }];
        poll_fds(&mut fds, Some(Duration::from_millis(timeout_ms))).expect("poll") > 0
    }

    #[test]
    fn wake_makes_fd_readable_and_drain_clears_it() {
        let waker = Waker::new().expect("waker");
        assert!(!readable(waker.fd(), 0), "fresh waker must be quiet");
        waker.handle().wake();
        assert!(readable(waker.fd(), 1000));
        waker.drain();
        assert!(!readable(waker.fd(), 0), "drain must consume the byte");
    }

    #[test]
    fn wakes_coalesce_into_one_byte() {
        let waker = Waker::new().expect("waker");
        let handle = waker.handle();
        for _ in 0..10_000 {
            handle.wake();
        }
        let mut buf = [0u8; 64];
        let n = (&waker.rx).read(&mut buf).expect("read");
        assert_eq!(n, 1, "coalesced wakes must write exactly one byte");
    }

    #[test]
    fn wake_landing_mid_drain_is_not_lost() {
        let waker = Waker::new().expect("waker");
        let handle = waker.handle();
        handle.wake();
        waker.drain_with(|| handle.wake());
        // The mid-drain wake's message is read with the mailbox after
        // this drain; what must hold is that the next wake still gets
        // through instead of finding the flag set over an empty pipe.
        handle.wake();
        assert!(readable(waker.fd(), 0), "a wake after the race was lost");
    }

    #[test]
    fn wake_after_drain_rearms() {
        let waker = Waker::new().expect("waker");
        let handle = waker.handle();
        handle.wake();
        waker.drain();
        handle.wake();
        assert!(readable(waker.fd(), 1000));
    }
}
