//! Incremental NDJSON framing.
//!
//! A blocking daemon gets line framing for free from
//! [`std::io::BufRead::lines`]; an event loop sees whatever byte
//! fragments the kernel happens to deliver. [`FrameDecoder`] accumulates
//! those fragments and hands back complete newline-terminated lines,
//! with a hard per-line byte cap so a malicious or broken peer cannot
//! grow the buffer without bound by never sending `\n`.

use std::fmt;

/// Why a buffered byte sequence cannot become a request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// More than the configured cap arrived without a newline.
    TooLong {
        /// The configured per-line byte cap.
        limit: usize,
    },
    /// A complete line was not valid UTF-8.
    Utf8,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TooLong { limit } => write!(f, "line exceeds {limit} bytes without a newline"),
            Self::Utf8 => write!(f, "line is not valid UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Accumulates byte fragments and yields complete `\n`-terminated
/// lines. Trailing `\r` is stripped so CRLF peers work unchanged.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
    /// Bytes past `pos` already searched and found free of a newline,
    /// so a long line arriving in many fragments is scanned once, not
    /// once per fragment.
    scanned: usize,
    max_line: usize,
}

impl FrameDecoder {
    /// A decoder that refuses lines longer than `max_line` bytes.
    #[must_use]
    pub fn new(max_line: usize) -> Self {
        Self {
            buf: Vec::new(),
            pos: 0,
            scanned: 0,
            max_line,
        }
    }

    /// Appends freshly-read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.compact_if_worthwhile();
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet yielded as lines.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether nothing at all is buffered — the peer is between
    /// requests, not mid-line.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buffered() == 0
    }

    /// Whether a complete (newline-terminated) line is waiting.
    #[must_use]
    pub fn has_complete_line(&self) -> bool {
        self.buf[self.pos + self.scanned..].contains(&b'\n')
    }

    /// The next complete line, without its terminator. `Ok(None)` means
    /// "no complete line buffered yet"; errors are sticky in the sense
    /// that the offending bytes stay buffered, so callers should treat
    /// any error as fatal for the connection.
    ///
    /// # Errors
    ///
    /// [`FrameError::TooLong`] when the unterminated tail exceeds the
    /// cap, [`FrameError::Utf8`] when a complete line is not UTF-8.
    pub fn next_line(&mut self) -> Result<Option<String>, FrameError> {
        let unscanned = &self.buf[self.pos + self.scanned..];
        let Some(rel) = unscanned.iter().position(|&b| b == b'\n') else {
            self.scanned = self.buffered();
            if self.buffered() > self.max_line {
                return Err(FrameError::TooLong {
                    limit: self.max_line,
                });
            }
            return Ok(None);
        };
        let rel = self.scanned + rel;
        self.scanned = 0;
        if rel > self.max_line {
            return Err(FrameError::TooLong {
                limit: self.max_line,
            });
        }
        let mut end = self.pos + rel;
        let start = self.pos;
        self.pos += rel + 1;
        if end > start && self.buf[end - 1] == b'\r' {
            end -= 1;
        }
        match std::str::from_utf8(&self.buf[start..end]) {
            Ok(line) => {
                let line = line.to_owned();
                self.compact_if_worthwhile();
                Ok(Some(line))
            }
            Err(_) => Err(FrameError::Utf8),
        }
    }

    /// Drops consumed bytes once they dominate the buffer, so a
    /// long-lived keep-alive connection does not retain every request
    /// it ever sent.
    fn compact_if_worthwhile(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 4096 && self.pos >= self.buf.len() / 2 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_reassemble_across_fragments() {
        let mut dec = FrameDecoder::new(1024);
        dec.push(b"{\"req\":");
        assert_eq!(dec.next_line().expect("frame"), None);
        dec.push(b"\"hello\"}\n{\"req\":\"stats\"}\npartial");
        assert_eq!(
            dec.next_line().expect("frame").as_deref(),
            Some("{\"req\":\"hello\"}")
        );
        assert_eq!(
            dec.next_line().expect("frame").as_deref(),
            Some("{\"req\":\"stats\"}")
        );
        assert_eq!(dec.next_line().expect("frame"), None);
        assert_eq!(dec.buffered(), "partial".len());
    }

    #[test]
    fn crlf_is_stripped() {
        let mut dec = FrameDecoder::new(1024);
        dec.push(b"a\r\n\r\nb\n");
        assert_eq!(dec.next_line().expect("frame").as_deref(), Some("a"));
        assert_eq!(dec.next_line().expect("frame").as_deref(), Some(""));
        assert_eq!(dec.next_line().expect("frame").as_deref(), Some("b"));
    }

    #[test]
    fn unterminated_overflow_errors() {
        let mut dec = FrameDecoder::new(8);
        dec.push(b"123456789");
        assert_eq!(dec.next_line(), Err(FrameError::TooLong { limit: 8 }));
    }

    #[test]
    fn terminated_overflow_errors() {
        let mut dec = FrameDecoder::new(4);
        dec.push(b"12345678\n");
        assert_eq!(dec.next_line(), Err(FrameError::TooLong { limit: 4 }));
    }

    #[test]
    fn invalid_utf8_errors() {
        let mut dec = FrameDecoder::new(1024);
        dec.push(&[0xFF, 0xFE, b'\n']);
        assert_eq!(dec.next_line(), Err(FrameError::Utf8));
    }

    #[test]
    fn byte_at_a_time_dribble_reassembles() {
        let mut dec = FrameDecoder::new(1024);
        let line = b"{\"req\":\"progress\"}\n";
        for &byte in &line[..line.len() - 1] {
            dec.push(&[byte]);
            assert_eq!(dec.next_line().expect("frame"), None);
        }
        dec.push(b"\n");
        assert_eq!(
            dec.next_line().expect("frame").as_deref(),
            Some("{\"req\":\"progress\"}")
        );
        assert!(dec.is_empty());
    }

    #[test]
    fn consumed_prefix_is_compacted() {
        let mut dec = FrameDecoder::new(1 << 20);
        let big = format!("{}\n", "x".repeat(100_000));
        for _ in 0..10 {
            dec.push(big.as_bytes());
            let got = dec.next_line().expect("frame").expect("line");
            assert_eq!(got.len(), 100_000);
        }
        assert!(dec.is_empty());
        assert!(
            dec.buf.capacity() < 10 * big.len(),
            "consumed requests must not accumulate"
        );
    }
}
