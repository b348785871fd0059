//! On-disk persistence for the [`CompiledLayerCache`].
//!
//! Compiled layers are pure functions of their [`LayerKey`], so a cache
//! file written by one process is valid input for any other — repeated
//! `exp_*` invocations, the `cbrand` daemon across restarts, and the CLI
//! all share one warm store under `~/.cache/cbrain` (overridable, see
//! [`resolved_cache_file`]).
//!
//! The file is a header and one checksummed payload, in an in-tree
//! binary serialization (the workspace builds offline with no serde):
//!
//! ```text
//! magic   b"CBLC"          4 bytes
//! version u32 LE           bumped on any layout change
//! length  u64 LE           payload byte count
//! check   u64 LE           FNV-1a 64 over the payload
//! payload entry count u64 LE, then (LayerKey, CachedLayer) pairs
//! ```
//!
//! An entry is the key's 160 packed bytes ([`key_bytes`]), then the
//! program as `(repeat, tile)` runs, the scheme, both layouts, the tile
//! plan and the stats: nothing the key does not determine. Integers are
//! little-endian; tags and bools are one byte. Entries are sorted by key
//! bytes. A file of any other version is a cold start, replaced by the
//! next save.
//!
//! Failure modes are deliberately split:
//!
//! * **missing file** — a normal cold start ([`LoadOutcome::Missing`]);
//! * **version mismatch** — an old/newer writer; the reader falls back to
//!   a cold cache ([`LoadOutcome::VersionMismatch`]) rather than guessing
//!   at a foreign layout;
//! * **truncation / corruption** — the file is shorter than the header,
//!   magic, length or checksum disagree, or the payload fails to decode;
//!   the file is *rejected* with [`PersistError::Corrupt`] so the caller
//!   can surface it (silently reusing a damaged cache could poison every
//!   later report). Every read is bounds-checked and every count is
//!   checked against the bytes left, so no input panics the decoder or
//!   sizes an allocation past its own length.
//!
//! Saves are atomic: the file is written to a `.tmp` sibling and renamed
//! over the destination, so a crash mid-write never leaves a torn file at
//! the published path. Each save has its own sibling, named by process id
//! and a per-process counter, so concurrent savers into one directory,
//! threads or processes, never rename each other's file away.

use crate::cache::{CachedLayer, CompiledLayerCache, LayerKey};
use cbrain_compiler::{CompiledLayer, DataLayout, Scheme, TilePlan};
use cbrain_sim::{BufferTraffic, MacroOp, RunProgram, Stats, Tile};
use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// File magic: "C-Brain Layer Cache".
pub const MAGIC: [u8; 4] = *b"CBLC";

/// Current format version. Bump whenever any serialized struct changes.
pub const FORMAT_VERSION: u32 = 3;

/// File name used inside the resolved cache directory.
pub const CACHE_FILE_NAME: &str = "compiled-layers.bin";

/// Byte length of the header: magic, version, payload length and
/// checksum.
const HEADER_LEN: usize = 24;

/// Error from saving or loading a cache file.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The file exists but is not a valid cache file (bad magic, short
    /// header, length/checksum mismatch, undecodable payload, trailing
    /// garbage).
    Corrupt(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "cache file I/O error: {e}"),
            PersistError::Corrupt(why) => write!(f, "corrupt cache file: {why}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Corrupt(_) => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// A decode result.
type Decoded<T> = Result<T, PersistError>;

/// Fails with [`PersistError::Corrupt`] for `why`.
fn corrupt<T>(why: impl Into<String>) -> Decoded<T> {
    Err(PersistError::Corrupt(why.into()))
}

/// FNV-1a 64-bit over arbitrary bytes: the file checksum, and the
/// stable hash the report digests use. Stable across platforms and
/// versions of this crate.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// ---------------------------------------------------------------------
// Writers and the decode cursor.
// ---------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    put_u8(out, u8::from(v));
}

/// Decodes `bytes` with `get`, which must consume all of them; `what`
/// names the last thing decoded in the trailing-bytes error.
fn decode_exact<'a, T>(
    bytes: &'a [u8],
    what: &str,
    get: impl FnOnce(&mut Cursor<'a>) -> Decoded<T>,
) -> Decoded<T> {
    let mut c = Cursor { buf: bytes, pos: 0 };
    let value = get(&mut c)?;
    match c.remaining() {
        0 => Ok(value),
        n => corrupt(format!("{n} trailing bytes after {what}")),
    }
}

/// Decode cursor. Every read is bounds-checked, and a length from the
/// input moves the position only through checked arithmetic: running
/// off the end is [`PersistError::Corrupt`], never a panic or a wrapped
/// index.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
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

    fn u8(&mut self) -> Decoded<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Decoded<u32> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Decoded<u64> {
        self.array().map(u64::from_le_bytes)
    }

    fn usize(&mut self) -> Decoded<usize> {
        let v = self.u64()?;
        usize::try_from(v).or_else(|_| corrupt(format!("value {v} exceeds usize")))
    }

    /// An element count, rejected unless the bytes left can hold that
    /// many elements of at least `min_len` bytes each. A forged count
    /// therefore never sizes an allocation or a loop past the input.
    fn count(&mut self, min_len: usize) -> Decoded<usize> {
        let n = self.u64()?;
        let left = self.remaining();
        match usize::try_from(n) {
            Ok(n) if n.checked_mul(min_len).is_some_and(|len| len <= left) => Ok(n),
            _ => corrupt(format!("count {n} does not fit in the {left} bytes left")),
        }
    }

    fn bool(&mut self) -> Decoded<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => corrupt(format!("invalid bool byte {b:#x}")),
        }
    }
}

/// What a [`load_into`] call found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadOutcome {
    /// Entries were decoded and inserted.
    Loaded {
        /// Number of entries inserted into the cache.
        entries: usize,
    },
    /// The file was written by a different format version; the cache is
    /// left cold (no guessing at foreign layouts).
    VersionMismatch {
        /// Version found in the file header.
        found: u32,
    },
    /// No file at the path; a normal cold start.
    Missing,
}

// ---------------------------------------------------------------------
// Struct encoding. Field order here *is* the file format; any change
// must bump FORMAT_VERSION.
// ---------------------------------------------------------------------

/// Shortest encodings, the floor [`Cursor::count`] checks each count
/// against: an op is a tag and one u64; a run is a repeat and a tile of
/// two byte counts and an op count; an entry is a key (160 bytes), an
/// empty program (8), no scheme (1), two layouts (2), a tile plan (65)
/// and the stats (136).
const MIN_OP_LEN: usize = 9;
const MIN_RUN_LEN: usize = 32;
const MIN_ENTRY_LEN: usize = 372;

fn scheme_tag(s: Scheme) -> u8 {
    match s {
        Scheme::Inter => 0,
        Scheme::Intra => 1,
        Scheme::Partition => 2,
        Scheme::InterImproved => 3,
    }
}

fn scheme_from_tag(t: u8) -> Decoded<Scheme> {
    match t {
        0 => Ok(Scheme::Inter),
        1 => Ok(Scheme::Intra),
        2 => Ok(Scheme::Partition),
        3 => Ok(Scheme::InterImproved),
        _ => corrupt(format!("invalid scheme tag {t}")),
    }
}

fn layout_tag(l: DataLayout) -> u8 {
    match l {
        DataLayout::InterOrder => 0,
        DataLayout::IntraOrder => 1,
    }
}

fn layout_from_tag(t: u8) -> Decoded<DataLayout> {
    match t {
        0 => Ok(DataLayout::InterOrder),
        1 => Ok(DataLayout::IntraOrder),
        _ => corrupt(format!("invalid layout tag {t}")),
    }
}

fn get_key(c: &mut Cursor) -> Decoded<LayerKey> {
    LayerKey::unpack(&c.array()?).map_or_else(|| corrupt("the key bytes are not canonical"), Ok)
}

fn put_op(out: &mut Vec<u8>, op: &MacroOp) {
    match *op {
        MacroOp::MacBurst {
            bursts,
            active_lanes,
            input_reads,
            input_requests,
            weight_reads,
            psum_reads,
            output_writes,
        } => {
            put_u8(out, 0);
            put_u64(out, bursts);
            put_u32(out, active_lanes);
            put_u32(out, input_reads);
            put_u32(out, input_requests);
            put_u32(out, weight_reads);
            put_u32(out, psum_reads);
            put_u32(out, output_writes);
        }
        MacroOp::AddStore { count } => {
            put_u8(out, 1);
            put_u64(out, count);
        }
        MacroOp::OutputWrite { elems } => {
            put_u8(out, 2);
            put_u64(out, elems);
        }
        MacroOp::PoolBurst {
            bursts,
            input_reads,
            output_writes,
        } => {
            put_u8(out, 3);
            put_u64(out, bursts);
            put_u32(out, input_reads);
            put_u32(out, output_writes);
        }
        MacroOp::BiasLoad { elems } => {
            put_u8(out, 4);
            put_u64(out, elems);
        }
        MacroOp::EltwiseBurst {
            bursts,
            input_reads,
            output_writes,
        } => {
            put_u8(out, 5);
            put_u64(out, bursts);
            put_u32(out, input_reads);
            put_u32(out, output_writes);
        }
    }
}

fn get_op(c: &mut Cursor) -> Decoded<MacroOp> {
    match c.u8()? {
        0 => Ok(MacroOp::MacBurst {
            bursts: c.u64()?,
            active_lanes: c.u32()?,
            input_reads: c.u32()?,
            input_requests: c.u32()?,
            weight_reads: c.u32()?,
            psum_reads: c.u32()?,
            output_writes: c.u32()?,
        }),
        1 => Ok(MacroOp::AddStore { count: c.u64()? }),
        2 => Ok(MacroOp::OutputWrite { elems: c.u64()? }),
        3 => Ok(MacroOp::PoolBurst {
            bursts: c.u64()?,
            input_reads: c.u32()?,
            output_writes: c.u32()?,
        }),
        4 => Ok(MacroOp::BiasLoad { elems: c.u64()? }),
        5 => Ok(MacroOp::EltwiseBurst {
            bursts: c.u64()?,
            input_reads: c.u32()?,
            output_writes: c.u32()?,
        }),
        t => corrupt(format!("invalid macro-op tag {t}")),
    }
}

/// Writes the program as its runs: each `(repeat, tile)` once.
fn put_program(out: &mut Vec<u8>, p: &RunProgram) {
    put_usize(out, p.runs().len());
    for run in p.runs() {
        put_u64(out, run.repeat);
        put_u64(out, run.tile.dram_read_bytes);
        put_u64(out, run.tile.dram_write_bytes);
        put_usize(out, run.tile.ops.len());
        for op in &run.tile.ops {
            put_op(out, op);
        }
    }
}

/// Reads the runs back. Only canonical runs decode: a zero repeat, a run
/// equal to the one before it, or repeats whose sum overflows a `u64`
/// (which [`RunProgram::tile_count`] sums unchecked) is corrupt.
fn get_program(c: &mut Cursor) -> Decoded<RunProgram> {
    let mut program = RunProgram::new();
    let n_runs = c.count(MIN_RUN_LEN)?;
    let mut tiles = 0u64;
    for _ in 0..n_runs {
        let repeat = c.u64()?;
        let dram_read_bytes = c.u64()?;
        let dram_write_bytes = c.u64()?;
        let n_ops = c.count(MIN_OP_LEN)?;
        let mut ops = Vec::with_capacity(n_ops);
        for _ in 0..n_ops {
            ops.push(get_op(c)?);
        }
        let tile = Tile {
            dram_read_bytes,
            dram_write_bytes,
            ops,
        };
        if repeat == 0 {
            return corrupt("a run repeats its tile 0 times");
        }
        if program.runs().last().is_some_and(|last| last.tile == tile) {
            return corrupt("a run repeats the tile of the run before it");
        }
        let Some(sum) = tiles.checked_add(repeat) else {
            return corrupt("the runs repeat more than u64::MAX tiles");
        };
        tiles = sum;
        program.push(tile, repeat);
    }
    Ok(program)
}

fn put_tile_plan(out: &mut Vec<u8>, t: &TilePlan) {
    put_usize(out, t.spatial_tiles);
    put_usize(out, t.weight_chunks);
    put_usize(out, t.groups);
    put_u64(out, t.input_tile_bytes);
    put_u64(out, t.output_tile_bytes);
    put_u64(out, t.weight_chunk_bytes);
    put_bool(out, t.weights_resident);
    put_u64(out, t.output_group_bytes);
    put_usize(out, t.max_weight_outer_batch);
}

fn get_tile_plan(c: &mut Cursor) -> Decoded<TilePlan> {
    Ok(TilePlan {
        spatial_tiles: c.usize()?,
        weight_chunks: c.usize()?,
        groups: c.usize()?,
        input_tile_bytes: c.u64()?,
        output_tile_bytes: c.u64()?,
        weight_chunk_bytes: c.u64()?,
        weights_resident: c.bool()?,
        output_group_bytes: c.u64()?,
        max_weight_outer_batch: c.usize()?,
    })
}

fn put_traffic(out: &mut Vec<u8>, t: BufferTraffic) {
    put_u64(out, t.loads);
    put_u64(out, t.stores);
}

fn get_traffic(c: &mut Cursor) -> Decoded<BufferTraffic> {
    Ok(BufferTraffic {
        loads: c.u64()?,
        stores: c.u64()?,
    })
}

fn put_stats(out: &mut Vec<u8>, s: &Stats) {
    put_u64(out, s.cycles);
    put_u64(out, s.compute_cycles);
    put_u64(out, s.dram_stall_cycles);
    put_u64(out, s.mac_ops);
    put_u64(out, s.lane_slots);
    put_u64(out, s.add_store_ops);
    put_u64(out, s.eltwise_ops);
    put_traffic(out, s.input_buf);
    put_traffic(out, s.output_buf);
    put_traffic(out, s.weight_buf);
    put_traffic(out, s.bias_buf);
    put_u64(out, s.dram_read_bytes);
    put_u64(out, s.dram_write_bytes);
}

fn get_stats(c: &mut Cursor) -> Decoded<Stats> {
    let mut s = Stats::new();
    s.cycles = c.u64()?;
    s.compute_cycles = c.u64()?;
    s.dram_stall_cycles = c.u64()?;
    s.mac_ops = c.u64()?;
    s.lane_slots = c.u64()?;
    s.add_store_ops = c.u64()?;
    s.eltwise_ops = c.u64()?;
    s.input_buf = get_traffic(c)?;
    s.output_buf = get_traffic(c)?;
    s.weight_buf = get_traffic(c)?;
    s.bias_buf = get_traffic(c)?;
    s.dram_read_bytes = c.u64()?;
    s.dram_write_bytes = c.u64()?;
    Ok(s)
}

fn put_entry(out: &mut Vec<u8>, key: &LayerKey, value: &CachedLayer) {
    out.extend_from_slice(&key.packed());
    put_program(out, &value.compiled.program);
    match value.compiled.scheme {
        None => put_u8(out, 0),
        Some(s) => {
            put_u8(out, 1);
            put_u8(out, scheme_tag(s));
        }
    }
    put_u8(out, layout_tag(value.compiled.wants_input_layout));
    put_u8(out, layout_tag(value.compiled.output_layout));
    put_tile_plan(out, &value.compiled.tiles);
    put_stats(out, &value.stats);
}

fn get_entry(c: &mut Cursor) -> Decoded<(LayerKey, CachedLayer)> {
    let key = get_key(c)?;
    let program = get_program(c)?;
    let scheme = match c.u8()? {
        0 => None,
        1 => Some(scheme_from_tag(c.u8()?)?),
        t => return corrupt(format!("invalid option tag {t}")),
    };
    let wants_input_layout = layout_from_tag(c.u8()?)?;
    let output_layout = layout_from_tag(c.u8()?)?;
    let tiles = get_tile_plan(c)?;
    let stats = get_stats(c)?;
    Ok((
        key,
        CachedLayer {
            compiled: CompiledLayer {
                program,
                scheme,
                wants_input_layout,
                output_layout,
                tiles,
            },
            stats,
        },
    ))
}

// ---------------------------------------------------------------------
// Public entry/key codecs.
//
// One key or one entry in the file format's own encoding, so tests can
// round-trip and mutate a single record without writing a whole file.
// ---------------------------------------------------------------------

/// The canonical binary encoding of a [`LayerKey`]: its 160 packed
/// bytes, as the cache file carries it. Comparing encodings orders keys
/// as the file lists them.
pub fn key_bytes(key: &LayerKey) -> Vec<u8> {
    key.packed().to_vec()
}

/// Decodes a [`LayerKey`] written by [`key_bytes`].
///
/// # Errors
///
/// Returns [`PersistError::Corrupt`] on truncated, trailing or
/// non-canonical bytes.
pub fn decode_key_bytes(bytes: &[u8]) -> Result<LayerKey, PersistError> {
    decode_exact(bytes, "the key", get_key)
}

/// The canonical binary encoding of one `(key, entry)` pair — exactly
/// one entry of the cache file's payload.
pub fn entry_bytes(key: &LayerKey, value: &CachedLayer) -> Vec<u8> {
    let mut out = Vec::new();
    put_entry(&mut out, key, value);
    out
}

/// Decodes a `(key, entry)` pair written by [`entry_bytes`].
///
/// # Errors
///
/// Returns [`PersistError::Corrupt`] on truncated or invalid bytes,
/// including trailing garbage.
pub fn decode_entry_bytes(bytes: &[u8]) -> Result<(LayerKey, CachedLayer), PersistError> {
    decode_exact(bytes, "the entry", get_entry)
}

/// The entry bound `CBRAIN_CACHE_MAX` selects, if any. Delegates to
/// [`crate::config::EnvConfig::cache_max`]: unset, empty, zero or
/// unparsable values all mean "unbounded".
pub fn cache_max_from_env() -> Option<usize> {
    crate::config::EnvConfig::load().cache_max()
}

// ---------------------------------------------------------------------
// Save / load.
// ---------------------------------------------------------------------

/// Serializes the cache's current entries.
///
/// Entries are sorted by their packed key bytes so the same cache
/// contents always produce the same file, regardless of hash-map
/// iteration order.
fn encode(cache: &CompiledLayerCache) -> Vec<u8> {
    let mut snapshot = cache.snapshot();
    snapshot.sort_by_cached_key(|(key, _)| key.packed());
    let mut payload = Vec::new();
    put_usize(&mut payload, snapshot.len());
    for (key, value) in &snapshot {
        put_entry(&mut payload, key, value);
    }
    let mut file = MAGIC.to_vec();
    put_u32(&mut file, FORMAT_VERSION);
    put_usize(&mut file, payload.len());
    put_u64(&mut file, fnv1a64(&payload));
    file.extend_from_slice(&payload);
    file
}

/// Saves every cache entry to `path`, creating parent directories.
/// Returns the number of entries written.
///
/// Honors the `CBRAIN_CACHE_MAX` entry bound (see
/// [`crate::config::EnvConfig::cache_max`]): when set, least-recently-used
/// entries are evicted from `cache` first so the file (and the resident
/// cache) stay within the bound.
///
/// The write is atomic (temp file + rename), so readers never observe a
/// half-written file at `path`.
///
/// # Errors
///
/// Returns [`PersistError::Io`] on filesystem failures.
pub fn save(cache: &CompiledLayerCache, path: &Path) -> Result<usize, PersistError> {
    save_with_max(cache, path, cache_max_from_env())
}

/// [`save`] with an explicit entry bound instead of the
/// `CBRAIN_CACHE_MAX` environment lookup. `None` writes everything.
///
/// # Errors
///
/// Returns [`PersistError::Io`] on filesystem failures.
pub fn save_with_max(
    cache: &CompiledLayerCache,
    path: &Path,
    max_entries: Option<usize>,
) -> Result<usize, PersistError> {
    if let Some(max) = max_entries {
        cache.evict_lru(max);
    }
    let bytes = encode(cache);
    let entries = cache.len();
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    let tmp = temp_sibling(path);
    let mut file = std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&tmp)?;
    let written = file.write_all(&bytes);
    drop(file);
    if let Err(e) = written.and_then(|()| std::fs::rename(&tmp, path)) {
        // Best effort: the save already failed with `e`.
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    let reg = cbrain_telemetry::Registry::global();
    reg.counter(
        "persist_saves_total",
        "cache files written by cbrain::persist",
    )
    .inc();
    reg.counter(
        "persist_bytes_written_total",
        "bytes written to persisted cache files",
    )
    .add(bytes.len() as u64);
    Ok(entries)
}

/// A temp file beside `path` that no other save uses: `<name>.<pid>.<n>.tmp`,
/// with `n` counting this process's saves.
fn temp_sibling(path: &Path) -> PathBuf {
    static SAVES: AtomicU64 = AtomicU64::new(0);
    let n = SAVES.fetch_add(1, Ordering::Relaxed);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".{}.{n}.tmp", std::process::id()));
    path.with_file_name(name)
}

/// Loads a cache file into `cache` (merging with whatever it holds).
///
/// Missing files and version mismatches are *outcomes*, not errors —
/// both leave the cache usable (cold) and are reported in the returned
/// [`LoadOutcome`] so callers can log them.
///
/// # Errors
///
/// Returns [`PersistError::Corrupt`] if the file exists at the current
/// version but fails validation (truncation, checksum mismatch, bad
/// tags, trailing bytes), and [`PersistError::Io`] on read failures.
pub fn load_into(cache: &CompiledLayerCache, path: &Path) -> Result<LoadOutcome, PersistError> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(LoadOutcome::Missing),
        Err(e) => return Err(e.into()),
    };
    let Some((header, payload)) = bytes.split_first_chunk::<HEADER_LEN>() else {
        return corrupt(format!(
            "file is {} bytes, header needs {HEADER_LEN}",
            bytes.len()
        ));
    };
    let (magic, version, length, check) = decode_exact(header, "the header", |c| {
        Ok((c.array::<4>()?, c.u32()?, c.u64()?, c.u64()?))
    })?;
    if magic != MAGIC {
        return corrupt("bad magic");
    }
    if version != FORMAT_VERSION {
        return Ok(LoadOutcome::VersionMismatch { found: version });
    }
    if length != payload.len() as u64 {
        return corrupt(format!(
            "the header announces {length} payload bytes, the file holds {}",
            payload.len()
        ));
    }
    if fnv1a64(payload) != check {
        return corrupt("checksum mismatch");
    }
    let decoded = decode_exact(payload, "the last entry", |c| {
        let count = c.count(MIN_ENTRY_LEN)?;
        let mut decoded = Vec::with_capacity(count);
        for _ in 0..count {
            decoded.push(get_entry(c)?);
        }
        Ok(decoded)
    })?;
    let entries = decoded.len();
    for (key, value) in decoded {
        cache.insert(key, value);
    }
    let reg = cbrain_telemetry::Registry::global();
    reg.counter("persist_loads_total", "cache files read by cbrain::persist")
        .inc();
    reg.counter(
        "persist_bytes_read_total",
        "bytes read from persisted cache files",
    )
    .add(bytes.len() as u64);
    Ok(LoadOutcome::Loaded { entries })
}

/// [`load_into`] for a caller that carries on cold whatever it finds:
/// returns a one-line note for the operator (stderr, never stdout).
pub fn load_or_cold(cache: &CompiledLayerCache, path: &Path) -> String {
    let shown = path.display();
    match load_into(cache, path) {
        Ok(LoadOutcome::Loaded { entries }) => {
            format!("loaded {entries} cached layers from {shown}")
        }
        Ok(LoadOutcome::Missing) => format!("no cache file at {shown} (cold start)"),
        Ok(LoadOutcome::VersionMismatch { found }) => {
            format!("cache file {shown} is format v{found} (want v{FORMAT_VERSION}); cold start")
        }
        Err(e) => format!("cache file {shown} unusable ({e}); cold start"),
    }
}

/// The cache file the environment selects, or `None` when persistence is
/// disabled (`CBRAIN_CACHE=off|0`) or no cache directory can be derived.
///
/// Delegates to [`crate::config::EnvConfig::cache_file`]; resolution
/// order for the directory: `$CBRAIN_CACHE_DIR`, then
/// `$XDG_CACHE_HOME/cbrain`, then `$HOME/.cache/cbrain`.
pub fn resolved_cache_file() -> Option<PathBuf> {
    crate::config::EnvConfig::load().cache_file()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::Policy;
    use crate::runner::Runner;
    use cbrain_model::zoo;
    use cbrain_sim::AcceleratorConfig;
    use std::sync::Arc;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cbrain_persist_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn warm_cache() -> Arc<CompiledLayerCache> {
        let runner = Runner::new(AcceleratorConfig::paper_16_16());
        runner.run_network(&zoo::alexnet(), Policy::Oracle).unwrap();
        Arc::clone(runner.cache())
    }

    fn sorted_debug(cache: &CompiledLayerCache) -> Vec<String> {
        let mut v: Vec<String> = cache
            .snapshot()
            .into_iter()
            .map(|(k, e)| format!("{k:?} => {:?} {:?}", e.compiled, e.stats))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn round_trip_preserves_every_entry() {
        let cache = warm_cache();
        let path = tmpdir("rt").join(CACHE_FILE_NAME);
        let written = save(&cache, &path).unwrap();
        assert_eq!(written, cache.len());
        assert!(written > 0);

        let restored = CompiledLayerCache::new();
        let outcome = load_into(&restored, &path).unwrap();
        assert_eq!(
            outcome,
            LoadOutcome::Loaded {
                entries: cache.len()
            }
        );
        assert_eq!(sorted_debug(&cache), sorted_debug(&restored));
    }

    #[test]
    fn save_is_deterministic() {
        let cache = warm_cache();
        assert_eq!(encode(&cache), encode(&cache));
    }

    #[test]
    fn missing_file_is_a_cold_start() {
        let cache = CompiledLayerCache::new();
        let out = load_into(&cache, Path::new("/nonexistent/cbrain/cache.bin")).unwrap();
        assert_eq!(out, LoadOutcome::Missing);
        assert!(cache.is_empty());
    }

    #[test]
    fn version_mismatch_falls_back_cold() {
        let cache = warm_cache();
        let path = tmpdir("ver").join(CACHE_FILE_NAME);
        save(&cache, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let restored = CompiledLayerCache::new();
        let out = load_into(&restored, &path).unwrap();
        assert_eq!(
            out,
            LoadOutcome::VersionMismatch {
                found: FORMAT_VERSION + 1
            }
        );
        assert!(restored.is_empty());
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let cache = warm_cache();
        let path = tmpdir("trunc").join(CACHE_FILE_NAME);
        save(&cache, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Sample cut points across the whole file, including inside the
        // header and mid-entry.
        for cut in (0..bytes.len()).step_by(bytes.len() / 37 + 1) {
            let path = path.with_extension(format!("cut{cut}"));
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let restored = CompiledLayerCache::new();
            let res = load_into(&restored, &path);
            assert!(
                matches!(res, Err(PersistError::Corrupt(_))),
                "cut at {cut} was not rejected: {res:?}"
            );
            assert!(restored.is_empty());
        }
    }

    #[test]
    fn corruption_is_rejected() {
        let cache = warm_cache();
        let path = tmpdir("corrupt").join(CACHE_FILE_NAME);
        save(&cache, &path).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Flip one bit in the payload: the checksum catches it.
        let mut bad = good.clone();
        let mid = 24 + (bad.len() - 24) / 2;
        bad[mid] ^= 0x40;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            load_into(&CompiledLayerCache::new(), &path),
            Err(PersistError::Corrupt(_))
        ));

        // Garbage magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            load_into(&CompiledLayerCache::new(), &path),
            Err(PersistError::Corrupt(_))
        ));

        // Trailing garbage after a valid payload (header length updated,
        // checksum recomputed — only the cursor-exhaustion check fires).
        let mut bad = good.clone();
        bad.push(0xAB);
        let plen = (bad.len() - 24) as u64;
        bad[8..16].copy_from_slice(&plen.to_le_bytes());
        let ck = fnv1a64(&bad[24..]);
        bad[16..24].copy_from_slice(&ck.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        let res = load_into(&CompiledLayerCache::new(), &path);
        match res {
            Err(PersistError::Corrupt(why)) => assert!(why.contains("trailing"), "{why}"),
            other => panic!("expected trailing-bytes rejection, got {other:?}"),
        }
    }

    #[test]
    fn warm_load_skips_recompilation() {
        let cache = warm_cache();
        let path = tmpdir("warm").join(CACHE_FILE_NAME);
        save(&cache, &path).unwrap();

        let restored = CompiledLayerCache::shared();
        load_into(&restored, &path).unwrap();
        let runner = Runner::new(AcceleratorConfig::paper_16_16()).with_cache(restored);
        let report = runner.run_network(&zoo::alexnet(), Policy::Oracle).unwrap();
        assert_eq!(report.cache_misses, 0);
        assert!(report.cache_hits > 0);
    }

    #[test]
    fn key_and_entry_codecs_round_trip() {
        let cache = warm_cache();
        for (key, entry) in cache.snapshot() {
            let kb = key_bytes(&key);
            assert_eq!(decode_key_bytes(&kb).unwrap(), key);
            let eb = entry_bytes(&key, &entry);
            let (k2, e2) = decode_entry_bytes(&eb).unwrap();
            assert_eq!(k2, key);
            assert_eq!(
                format!("{:?} {:?}", entry.compiled, entry.stats),
                format!("{:?} {:?}", e2.compiled, e2.stats)
            );
            let mut trailing = kb.clone();
            trailing.push(0);
            assert!(decode_key_bytes(&trailing).is_err());
            let mut truncated = eb.clone();
            truncated.pop();
            assert!(decode_entry_bytes(&truncated).is_err());
        }
    }

    #[test]
    fn save_with_max_bounds_cache_and_file() {
        let cache = warm_cache();
        assert!(cache.len() > 4, "warm cache too small for the test");
        let path = tmpdir("max").join(CACHE_FILE_NAME);
        let written = save_with_max(&cache, &path, Some(4)).unwrap();
        assert_eq!(written, 4);
        assert_eq!(cache.len(), 4);

        let restored = CompiledLayerCache::new();
        let outcome = load_into(&restored, &path).unwrap();
        assert_eq!(outcome, LoadOutcome::Loaded { entries: 4 });
    }

    #[test]
    fn concurrent_savers_into_one_directory_all_succeed() {
        let cache = warm_cache();
        let dir = tmpdir("concurrent");
        let path = dir.join(CACHE_FILE_NAME);
        let (threads, rounds) = (4, 30);
        let start = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            let savers: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (0..rounds)
                            .map(|_| save_with_max(&cache, &path, None))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for saver in savers {
                for result in saver.join().expect("saver thread panicked") {
                    assert_eq!(result.expect("every save succeeds"), cache.len());
                }
            }
        });
        let restored = CompiledLayerCache::new();
        let outcome = load_into(&restored, &path).unwrap();
        assert_eq!(
            outcome,
            LoadOutcome::Loaded {
                entries: cache.len()
            }
        );
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|name| name.to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn env_resolution() {
        // Note: env vars are process-global; this test only exercises the
        // explicit-dir branch to stay independent of the host environment.
        let file = resolved_cache_file();
        // Whatever the host env, the result is either disabled or a path
        // ending in the canonical file name.
        if let Some(p) = file {
            assert!(
                p.ends_with(Path::new("cbrain").join(CACHE_FILE_NAME)) || p.file_name().is_some()
            );
        }
    }
}
