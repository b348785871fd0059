//! The record-file layout shared by the compiled-layer cache file
//! ([`crate::persist`]) and the run journal ([`crate::journal`]).
//!
//! ```text
//! header  magic    4 bytes, one per file kind
//!         version  u32 LE, bumped on any layout change
//! frame   length   u64 LE, payload byte count
//!         check    u64 LE, FNV-1a 64 over the payload
//!         payload  `length` bytes
//! ...     further frames
//! ```
//!
//! A cache file holds exactly one frame; a journal appends one frame per
//! record. Payloads are built from little-endian integers, `u8` tags and
//! bools, and UTF-8 strings prefixed with their u64 LE length.
//!
//! This module owns the mechanics: the writers, one bounds-checked decode
//! cursor, the header check, the frame reader and the atomic file
//! writer. Each file kind keeps its own codecs and decides what a short,
//! torn or damaged file means for it.

use std::io;
use std::path::Path;

/// Byte length of the header (magic + version).
pub(crate) const HEADER_LEN: usize = 8;

/// Byte length of a frame (length + checksum) before its payload.
pub(crate) const FRAME_LEN: usize = 16;

/// Why bytes failed to decode. Each file kind turns it into the
/// `Corrupt` variant of its own error type.
#[derive(Debug)]
pub(crate) struct Corrupt(pub(crate) String);

/// A decode result.
pub(crate) type Decoded<T> = Result<T, Corrupt>;

/// Fails with `why`, as [`Corrupt`] or as the error type of the file kind.
pub(crate) fn corrupt<T, E: From<Corrupt>>(why: impl Into<String>) -> Result<T, E> {
    Err(Corrupt(why.into()).into())
}

/// FNV-1a 64-bit over arbitrary bytes: the frame checksum, and the
/// stable hash the fleet ring and the report digests use. Stable across
/// platforms and versions of this crate.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// ---------------------------------------------------------------------
// Writers.
// ---------------------------------------------------------------------

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

pub(crate) fn put_bool(out: &mut Vec<u8>, v: bool) {
    put_u8(out, u8::from(v));
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// A file header: `magic`, then `version`.
pub(crate) fn header(magic: [u8; 4], version: u32) -> Vec<u8> {
    let mut out = magic.to_vec();
    put_u32(&mut out, version);
    out
}

/// Appends one frame whose payload `write` appends in place; the length
/// and checksum are filled in afterwards.
pub(crate) fn put_frame(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_LEN]);
    write(out);
    let payload = &out[start + FRAME_LEN..];
    let (length, check) = (payload.len() as u64, fnv1a(payload));
    out[start..start + 8].copy_from_slice(&length.to_le_bytes());
    out[start + 8..start + FRAME_LEN].copy_from_slice(&check.to_le_bytes());
}

/// Writes `bytes` to a `.tmp` sibling of `path` and renames it over
/// `path`, creating parent directories, so a reader never sees a
/// half-written file.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

// ---------------------------------------------------------------------
// Readers.
// ---------------------------------------------------------------------

/// The file at `path`, or `None` when there is none.
pub(crate) fn read(path: &Path) -> io::Result<Option<Vec<u8>>> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Checks a file's header against `magic`. Returns the version found
/// when it is not `version`, so the caller can start cold instead of
/// guessing at a foreign layout.
pub(crate) fn foreign_version(bytes: &[u8], magic: [u8; 4], version: u32) -> Decoded<Option<u32>> {
    let mut c = Cursor::new(bytes);
    let (Ok(found_magic), Ok(found)) = (c.array(), c.u32()) else {
        return corrupt(format!(
            "file is {} bytes, shorter than the header",
            bytes.len()
        ));
    };
    if found_magic != magic {
        return corrupt("bad magic");
    }
    Ok((found != version).then_some(found))
}

/// What [`read_frame`] found.
pub(crate) enum Frame<'a> {
    /// A whole frame whose payload matches its checksum; the next frame
    /// starts at `end`.
    Whole { payload: &'a [u8], end: usize },
    /// The bytes end inside the frame: what a crash mid-write leaves.
    Torn,
    /// A whole frame whose payload does not match its checksum: damage,
    /// not a crash.
    Damaged,
}

/// Reads the frame starting at byte `at` of `bytes` (`at <= len`).
pub(crate) fn read_frame(bytes: &[u8], at: usize) -> Frame<'_> {
    let mut c = Cursor::new(&bytes[at..]);
    let (Ok(length), Ok(check)) = (c.u64(), c.u64()) else {
        return Frame::Torn;
    };
    let Some(payload) = usize::try_from(length).ok().and_then(|n| c.take(n).ok()) else {
        return Frame::Torn;
    };
    if fnv1a(payload) != check {
        return Frame::Damaged;
    }
    Frame::Whole {
        payload,
        end: at + FRAME_LEN + payload.len(),
    }
}

/// Decodes `bytes` with `get`, which must consume all of them; `what`
/// names the last thing decoded in the trailing-bytes error.
pub(crate) fn decode_exact<'a, T>(
    bytes: &'a [u8],
    what: &str,
    get: impl FnOnce(&mut Cursor<'a>) -> Decoded<T>,
) -> Decoded<T> {
    let mut c = Cursor::new(bytes);
    let value = get(&mut c)?;
    match c.remaining() {
        0 => Ok(value),
        n => corrupt(format!("{n} trailing bytes after {what}")),
    }
}

/// Decode cursor. Every read is bounds-checked, and a length from the
/// input moves the position only through checked arithmetic: running
/// off the end is [`Corrupt`], never a panic or a wrapped index.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet read.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Decoded<&'a [u8]> {
        let Some(end) = self.pos.checked_add(n).filter(|&end| end <= self.buf.len()) else {
            return corrupt(format!(
                "payload truncated at byte {} (wanted {n} more)",
                self.pos
            ));
        };
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Decoded<[u8; N]> {
        let mut a = [0; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    pub(crate) fn u8(&mut self) -> Decoded<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Decoded<u32> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Decoded<u64> {
        self.array().map(u64::from_le_bytes)
    }

    pub(crate) fn usize(&mut self) -> Decoded<usize> {
        let v = self.u64()?;
        usize::try_from(v).or_else(|_| corrupt(format!("value {v} exceeds usize")))
    }

    /// An element count, rejected unless the bytes left can hold that
    /// many elements of at least `min_len` bytes each. A forged count
    /// therefore never sizes an allocation or a loop past the input.
    pub(crate) fn count(&mut self, min_len: usize) -> Decoded<usize> {
        let n = self.u64()?;
        let left = self.remaining();
        match usize::try_from(n) {
            Ok(n) if n.checked_mul(min_len).is_some_and(|len| len <= left) => Ok(n),
            _ => corrupt(format!("count {n} does not fit in the {left} bytes left")),
        }
    }

    pub(crate) fn bool(&mut self) -> Decoded<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => corrupt(format!("invalid bool byte {b:#x}")),
        }
    }

    pub(crate) fn str(&mut self) -> Decoded<String> {
        let len = self.usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).or_else(|_| corrupt("string payload is not valid UTF-8"))
    }
}
