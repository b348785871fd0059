//! On-disk persistence for the [`CompiledLayerCache`].
//!
//! Compiled layers are pure functions of their [`LayerKey`], so a cache
//! file written by one process is valid input for any other — repeated
//! `exp_*` invocations, the `cbrand` daemon across restarts, and the CLI
//! all share one warm store under `~/.cache/cbrain` (overridable, see
//! [`resolved_cache_file`]).
//!
//! The file is a record file (`record.rs`, the layout the run journal
//! shares) holding exactly one frame, in an in-tree binary serialization
//! (the workspace builds offline with no serde):
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
//! program as its label and `(repeat, tile)` runs, the scheme, both
//! layouts, the tile plan and the stats. Entries are sorted by key
//! bytes. A file of any other version is a cold start, replaced by the
//! next save.
//!
//! Failure modes are deliberately split:
//!
//! * **missing file** — a normal cold start ([`LoadOutcome::Missing`]);
//! * **version mismatch** — an old/newer writer; the reader falls back to
//!   a cold cache ([`LoadOutcome::VersionMismatch`]) rather than guessing
//!   at a foreign layout;
//! * **truncation / corruption** — the file is shorter than the header
//!   and one frame, magic, length or checksum disagree, or the payload
//!   fails to decode; the file is *rejected* with
//!   [`PersistError::Corrupt`] so the caller can surface it (silently
//!   reusing a damaged cache could poison every later report).
//!
//! Saves are atomic: the file is written to a `.tmp` sibling and renamed
//! over the destination, so a crash mid-write never leaves a torn file at
//! the published path.

use crate::cache::{CachedLayer, CompiledLayerCache, LayerKey};
use crate::record::{
    self, corrupt, fnv1a, put_bool, put_str, put_u32, put_u64, put_u8, put_usize, Cursor, Decoded,
    Frame, FRAME_LEN, HEADER_LEN,
};
use cbrain_compiler::{CompiledLayer, DataLayout, Scheme, TilePlan};
use cbrain_sim::{BufferTraffic, MacroOp, RunProgram, Stats, Tile};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

pub use crate::record::fnv1a as fnv1a64;

/// File magic: "C-Brain Layer Cache".
pub const MAGIC: [u8; 4] = *b"CBLC";

/// Current format version. Bump whenever any serialized struct changes.
pub const FORMAT_VERSION: u32 = 2;

/// File name used inside the resolved cache directory.
pub const CACHE_FILE_NAME: &str = "compiled-layers.bin";

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

impl From<record::Corrupt> for PersistError {
    fn from(c: record::Corrupt) -> Self {
        PersistError::Corrupt(c.0)
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
/// empty program (16), no scheme (1), two layouts (2), a tile plan (65)
/// and the stats (136).
const MIN_OP_LEN: usize = 9;
const MIN_RUN_LEN: usize = 32;
const MIN_ENTRY_LEN: usize = 380;

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
    put_str(out, &p.label);
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
    let mut program = RunProgram::new(c.str()?);
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
// The fleet layer reuses the file format's codecs for two jobs: hashing
// a key onto the consistent-hash ring (the packed bytes are the
// canonical, platform-independent identity of a key) and shipping
// compiled entries over the wire (a shard streams `entry_bytes`, the
// client decodes them back — the exact bytes a local compile would have
// produced, because the entry is a pure function of the key).
// ---------------------------------------------------------------------

/// The canonical binary encoding of a [`LayerKey`]: its 160 packed
/// bytes, as the cache file and the wire carry it. Comparing encodings
/// orders keys as the file lists them.
pub fn key_bytes(key: &LayerKey) -> Vec<u8> {
    key.packed().to_vec()
}

/// A key's stable 64-bit identity: [`fnv1a64`] over [`key_bytes`]. The
/// fleet ring hashes this onto shards.
pub fn key_hash(key: &LayerKey) -> u64 {
    fnv1a(&key.packed())
}

/// Decodes a [`LayerKey`] written by [`key_bytes`].
///
/// # Errors
///
/// Returns [`PersistError::Corrupt`] on truncated, trailing or
/// non-canonical bytes.
pub fn decode_key_bytes(bytes: &[u8]) -> Result<LayerKey, PersistError> {
    Ok(record::decode_exact(bytes, "the key", get_key)?)
}

/// The canonical binary encoding of one `(key, entry)` pair — exactly
/// one entry of the cache file's payload, reusable as a wire transport
/// for compiled layers.
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
    Ok(record::decode_exact(bytes, "the entry", get_entry)?)
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
    let mut file = record::header(MAGIC, FORMAT_VERSION);
    record::put_frame(&mut file, |payload| {
        put_usize(payload, snapshot.len());
        for (key, value) in &snapshot {
            put_entry(payload, key, value);
        }
    });
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
    record::write_atomic(path, &bytes)?;
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
    let Some(bytes) = record::read(path)? else {
        return Ok(LoadOutcome::Missing);
    };
    if bytes.len() < HEADER_LEN + FRAME_LEN {
        return corrupt(format!("file is {} bytes, header needs 24", bytes.len()));
    }
    if let Some(found) = record::foreign_version(&bytes, MAGIC, FORMAT_VERSION)? {
        return Ok(LoadOutcome::VersionMismatch { found });
    }
    let payload = match record::read_frame(&bytes, HEADER_LEN) {
        Frame::Whole { payload, end } if end == bytes.len() => payload,
        Frame::Damaged => return corrupt("checksum mismatch"),
        _ => return corrupt("the bytes after the header are not exactly one frame"),
    };
    let decoded = record::decode_exact(payload, "the last entry", |c| {
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
/// returns a one-line note for the operator (stderr, never stdout), as
/// [`crate::journal::Journal::open_or_fresh`] does for the journal.
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
        let ck = fnv1a(&bad[24..]);
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
            assert_eq!(key_hash(&key), fnv1a64(&kb));
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
