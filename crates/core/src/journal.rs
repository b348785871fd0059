//! Durable run journal: checkpoint/resume for experiment sweeps.
//!
//! A journal records each **completed experiment cell** — a named unit of
//! sweep work (one `exp_*` table, or one `cbrain run` invocation) — along
//! with a digest of its rendered report and the report text itself. A
//! resumed sweep replays journaled cells verbatim instead of re-simulating
//! them, so its stdout is byte-identical to an uninterrupted run.
//!
//! The file is an append-only, in-tree binary log (the workspace builds
//! offline with no serde). It has the record-file layout (`record.rs`)
//! of the [`crate::persist`] cache file: a header, then frames. The cache
//! file holds one frame; the journal holds **one frame per record**, each
//! with its own checksum, so that a crash mid-append (SIGKILL, power
//! loss) leaves a recoverable file: the torn tail is detected and
//! dropped, and every record before it survives.
//!
//! ```text
//! header  magic b"CBJL"    4 bytes
//!         version u32 LE   bumped on any layout change
//! record  length u64 LE    payload byte count
//!         check  u64 LE    FNV-1a 64 over the payload
//!         payload          name str, digest u64, provenance str, output str
//! ...     (records repeat until end of file)
//! ```
//!
//! Strings are length-prefixed (u64 LE) UTF-8, as in the persist format.
//!
//! Failure modes follow the [`crate::persist`] discipline:
//!
//! * **missing file** — a normal fresh start ([`OpenOutcome::Fresh`]);
//! * **version mismatch** — an old/newer writer; the journal starts empty
//!   ([`OpenOutcome::VersionMismatch`]) and the foreign file is only
//!   overwritten on the next append, never on open;
//! * **torn tail** — the file ends inside a record (the crash artifact
//!   this format exists to survive); the valid prefix is kept and the
//!   tail's byte count is reported in [`OpenOutcome::Opened`];
//! * **corruption** — bad magic, a short header, or a fully-present
//!   record whose checksum or payload does not decode; the file is
//!   *rejected* with [`JournalError::Corrupt`] so the caller can surface
//!   it (silently resuming from a damaged journal could replay a wrong
//!   report).
//!
//! Compaction (dropping superseded records for re-run cells) and
//! post-recovery rewrites are atomic: a `.tmp` sibling is written and
//! renamed over the destination, exactly like cache saves. Appends are a
//! single `write_all` of the framed record, so an interrupted append can
//! only ever produce a torn tail, never a torn middle.

use crate::persist::fnv1a64;
use crate::record::{self, corrupt, put_str, put_u64, Decoded, Frame, HEADER_LEN};
use std::collections::HashMap;
use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// File magic: "C-Brain JournaL".
pub const MAGIC: [u8; 4] = *b"CBJL";

/// Current journal format version. Bump on any layout change.
pub const FORMAT_VERSION: u32 = 1;

/// Number of superseded (stale) records tolerated before [`Journal::open`]
/// compacts the file automatically.
pub const COMPACT_SLACK: usize = 64;

// The tests walk record frames by hand.
#[cfg(test)]
use crate::record::FRAME_LEN;

/// Error from opening, appending to, or compacting a journal.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The file exists but is not a valid journal (bad magic, short
    /// header, record checksum mismatch, undecodable payload).
    Corrupt(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Corrupt(why) => write!(f, "corrupt journal: {why}"),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            JournalError::Corrupt(_) => None,
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

impl From<record::Corrupt> for JournalError {
    fn from(c: record::Corrupt) -> Self {
        JournalError::Corrupt(c.0)
    }
}

/// What [`Journal::open`] found on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpenOutcome {
    /// No file at the path; a normal fresh start.
    Fresh,
    /// Records were decoded. `dropped_bytes > 0` means the file ended in
    /// a torn record (crash mid-append) whose bytes were discarded.
    Opened {
        /// Number of distinct cells available for replay.
        cells: usize,
        /// Bytes of torn tail discarded during recovery (0 = clean file).
        dropped_bytes: u64,
    },
    /// The file was written by a different format version; the journal
    /// starts empty (no guessing at foreign layouts) and the file is only
    /// overwritten on the next append.
    VersionMismatch {
        /// Version found in the file header.
        found: u32,
    },
}

/// One completed experiment cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Stable cell name (e.g. `exp_table2`, or a `cbrain run` cell id
    /// derived from network/config/workload/batch).
    pub name: String,
    /// FNV-1a 64 digest of `output`, re-verified on replay (see
    /// [`digest`]).
    pub digest: u64,
    /// Execution provenance: jobs count, and in fleet mode the shard
    /// ring the compiles were scattered over. Informational; not part of
    /// the replayed output.
    pub provenance: String,
    /// The cell's full rendered report, replayed verbatim on resume.
    pub output: String,
}

/// FNV-1a 64 digest of a cell's output text, stored alongside it and
/// re-checked before the output is replayed.
pub fn digest(text: &str) -> u64 {
    fnv1a64(text.as_bytes())
}

// ---------------------------------------------------------------------
// Record codec: one cell per frame.
// ---------------------------------------------------------------------

/// Appends one cell as a framed record.
fn put_record(out: &mut Vec<u8>, cell: &Cell) {
    record::put_frame(out, |payload| {
        put_str(payload, &cell.name);
        put_u64(payload, cell.digest);
        put_str(payload, &cell.provenance);
        put_str(payload, &cell.output);
    });
}

/// Decodes one record payload back into a cell.
fn decode_cell(payload: &[u8]) -> Decoded<Cell> {
    record::decode_exact(payload, "the cell", |c| {
        Ok(Cell {
            name: c.str()?,
            digest: c.u64()?,
            provenance: c.str()?,
            output: c.str()?,
        })
    })
}

// ---------------------------------------------------------------------
// The journal.
// ---------------------------------------------------------------------

/// An on-disk run journal, held open for the life of a sweep.
///
/// Duplicate names are allowed on disk (a cell re-run without `--resume`
/// appends a superseding record); the in-memory index keeps the latest.
/// [`Journal::compact`] drops the stale ones, and [`Journal::open`] does
/// so automatically once more than [`COMPACT_SLACK`] accumulate.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    /// All decoded records, in append order (duplicates included).
    cells: Vec<Cell>,
    /// name -> index into `cells` of the *latest* record for that name.
    index: HashMap<String, usize>,
    /// When set, the next append rewrites the whole file atomically
    /// instead of appending: after a torn-tail recovery (the tail bytes
    /// are still on disk) or a version mismatch (foreign layout).
    rewrite_pending: bool,
}

impl Journal {
    /// Opens the journal at `path`, recovering a torn tail if the last
    /// append was interrupted, and compacting when more than
    /// [`COMPACT_SLACK`] stale records have accumulated.
    ///
    /// A missing file is a fresh start; a foreign format version yields
    /// an empty journal without touching the file. Corruption anywhere
    /// except the tail is an error — see the module docs for the full
    /// failure-mode split.
    pub fn open(path: impl Into<PathBuf>) -> Result<(Self, OpenOutcome), JournalError> {
        let path = path.into();
        let bytes = match record::read(&path)? {
            // An empty file (e.g. `touch`ed by an operator) is a fresh
            // journal; the header is written with the first record.
            Some(bytes) if !bytes.is_empty() => bytes,
            _ => return Ok((Self::fresh(path, false), OpenOutcome::Fresh)),
        };
        if let Some(found) = record::foreign_version(&bytes, MAGIC, FORMAT_VERSION)? {
            return Ok((
                Self::fresh(path, true),
                OpenOutcome::VersionMismatch { found },
            ));
        }

        let mut cells = Vec::new();
        let mut pos = HEADER_LEN;
        let mut dropped_bytes = 0u64;
        while pos < bytes.len() {
            match record::read_frame(&bytes, pos) {
                Frame::Whole { payload, end } => {
                    cells.push(decode_cell(payload)?);
                    pos = end;
                }
                // Crash landed inside the last record: torn tail.
                Frame::Torn => {
                    dropped_bytes = (bytes.len() - pos) as u64;
                    break;
                }
                // The record is fully present yet damaged — this is disk
                // corruption, not a crash artifact, so reject the file.
                Frame::Damaged => {
                    return corrupt(format!("record checksum mismatch at byte {pos}"))
                }
            }
        }

        let mut index = HashMap::new();
        for (i, cell) in cells.iter().enumerate() {
            index.insert(cell.name.clone(), i);
        }
        let mut journal = Self {
            path,
            cells,
            index,
            rewrite_pending: dropped_bytes > 0,
        };
        if journal.cells.len() - journal.index.len() > COMPACT_SLACK {
            journal.compact()?;
            journal.rewrite_pending = false;
        }
        let reg = cbrain_telemetry::Registry::global();
        reg.counter(
            "journal_records_replayed_total",
            "journal records decoded on open",
        )
        .add(journal.cells.len() as u64);
        if dropped_bytes > 0 {
            reg.counter(
                "journal_torn_truncations_total",
                "journal opens that dropped a torn tail",
            )
            .inc();
        }
        let outcome = OpenOutcome::Opened {
            cells: journal.index.len(),
            dropped_bytes,
        };
        Ok((journal, outcome))
    }

    /// Opens the journal, degrading every failure to a fresh start, and
    /// returns a one-line human-readable note for the operator (printed
    /// to stderr by the sweep drivers, never stdout — stdout is the
    /// byte-identical report channel).
    pub fn open_or_fresh(path: impl Into<PathBuf>) -> (Self, String) {
        let path = path.into();
        let shown = path.display().to_string();
        match Self::open(path.clone()) {
            Ok((j, OpenOutcome::Fresh)) => (j, format!("journal: starting fresh at {shown}")),
            Ok((
                j,
                OpenOutcome::Opened {
                    cells,
                    dropped_bytes,
                },
            )) => {
                let note = if dropped_bytes > 0 {
                    format!(
                        "journal: recovered {cells} cells from {shown} \
                         (dropped {dropped_bytes} torn bytes from an interrupted append)"
                    )
                } else {
                    format!("journal: loaded {cells} cells from {shown}")
                };
                (j, note)
            }
            Ok((j, OpenOutcome::VersionMismatch { found })) => (
                j,
                format!(
                    "journal: {shown} is format v{found}, this build writes v{FORMAT_VERSION}; \
                     starting fresh (file kept until the first append)"
                ),
            ),
            Err(e) => (
                Self::fresh(path, true),
                format!("journal: {e}; starting fresh (file kept until the first append)"),
            ),
        }
    }

    fn fresh(path: PathBuf, rewrite_pending: bool) -> Self {
        Self {
            path,
            cells: Vec::new(),
            index: HashMap::new(),
            rewrite_pending,
        }
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of distinct cells available for replay.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the journal holds no cells.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Raw record count including superseded duplicates (compaction input
    /// size; equals [`Journal::len`] right after a compact).
    pub fn records(&self) -> usize {
        self.cells.len()
    }

    /// The latest record for `name`, if one exists.
    pub fn get(&self, name: &str) -> Option<&Cell> {
        self.index.get(name).map(|&i| &self.cells[i])
    }

    /// The latest record for `name`, only if its stored digest still
    /// matches its stored output — the check a resumer must pass before
    /// replaying the output instead of re-simulating the cell.
    pub fn replayable(&self, name: &str) -> Option<&Cell> {
        self.get(name).filter(|c| digest(&c.output) == c.digest)
    }

    /// Appends one completed cell. The record lands in a single
    /// `write_all`, so an interrupted append can only tear the tail.
    /// After a recovery or version mismatch the whole file is instead
    /// rewritten atomically (temp + rename), clearing the stale bytes.
    pub fn append(&mut self, cell: Cell) -> Result<(), JournalError> {
        cbrain_telemetry::Registry::global()
            .counter(
                "journal_records_appended_total",
                "journal records appended (including rewrite-path appends)",
            )
            .inc();
        if self.rewrite_pending {
            self.cells.push(cell.clone());
            self.index.insert(cell.name, self.cells.len() - 1);
            self.rewrite(self.cells.iter())?;
            self.rewrite_pending = false;
            return Ok(());
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        let mut bytes = if file.metadata()?.len() == 0 {
            record::header(MAGIC, FORMAT_VERSION)
        } else {
            Vec::new()
        };
        put_record(&mut bytes, &cell);
        file.write_all(&bytes)?;
        file.flush()?;
        self.cells.push(cell);
        let last = self.cells.len() - 1;
        self.index.insert(self.cells[last].name.clone(), last);
        Ok(())
    }

    /// Drops superseded records (keeping the latest per name, in first-
    /// appearance order) and rewrites the file atomically. Returns the
    /// number of stale records dropped. The rewrite is deterministic:
    /// the same surviving cells always produce the same bytes.
    pub fn compact(&mut self) -> Result<usize, JournalError> {
        let mut survivors: Vec<Cell> = Vec::with_capacity(self.index.len());
        let mut seen = HashMap::new();
        for cell in &self.cells {
            let latest = self.index[&cell.name];
            if self.cells[latest] == *cell && !seen.contains_key(&cell.name) {
                seen.insert(cell.name.clone(), survivors.len());
                survivors.push(self.cells[latest].clone());
            }
        }
        let dropped = self.cells.len() - survivors.len();
        self.rewrite(survivors.iter())?;
        self.cells = survivors;
        self.index = seen;
        self.rewrite_pending = false;
        Ok(dropped)
    }

    /// Writes header + the given records to a `.tmp` sibling and renames
    /// it over the journal path.
    fn rewrite<'a>(&self, cells: impl Iterator<Item = &'a Cell>) -> Result<(), JournalError> {
        let mut bytes = record::header(MAGIC, FORMAT_VERSION);
        for cell in cells {
            put_record(&mut bytes, cell);
        }
        Ok(record::write_atomic(&self.path, &bytes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cbrain_journal_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn cell(name: &str, output: &str) -> Cell {
        Cell {
            name: name.to_string(),
            digest: digest(output),
            provenance: "local;jobs=1".to_string(),
            output: output.to_string(),
        }
    }

    fn seed_journal(path: &Path) -> Vec<Cell> {
        let cells = vec![
            cell("exp_table2", "table 2 report\nwith lines\n"),
            cell("exp_fig8", "figure 8 report\n"),
            cell("exp_ablations", "ablations \u{2014} utf-8 dash\n"),
        ];
        let (mut j, outcome) = Journal::open(path).expect("open");
        assert_eq!(outcome, OpenOutcome::Fresh);
        for c in &cells {
            j.append(c.clone()).expect("append");
        }
        cells
    }

    #[test]
    fn round_trip_preserves_every_cell() {
        let dir = tmpdir("round_trip");
        let path = dir.join("journal.bin");
        std::fs::remove_file(&path).ok();
        let cells = seed_journal(&path);

        let (j, outcome) = Journal::open(&path).expect("reopen");
        assert_eq!(
            outcome,
            OpenOutcome::Opened {
                cells: 3,
                dropped_bytes: 0
            }
        );
        for c in &cells {
            assert_eq!(j.get(&c.name), Some(c));
            assert_eq!(j.replayable(&c.name), Some(c));
        }
        assert!(j.get("exp_missing").is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_a_fresh_start() {
        let dir = tmpdir("missing");
        let path = dir.join("no-such-journal.bin");
        std::fs::remove_file(&path).ok();
        let (j, outcome) = Journal::open(&path).expect("open");
        assert_eq!(outcome, OpenOutcome::Fresh);
        assert!(j.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_mismatch_starts_fresh_without_clobbering_the_file() {
        let dir = tmpdir("version");
        let path = dir.join("journal.bin");
        std::fs::remove_file(&path).ok();
        seed_journal(&path);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &bytes).expect("write");

        let (mut j, outcome) = Journal::open(&path).expect("open");
        assert_eq!(
            outcome,
            OpenOutcome::VersionMismatch {
                found: FORMAT_VERSION + 1
            }
        );
        assert!(j.is_empty());
        // Open alone must not touch the foreign file...
        assert_eq!(std::fs::read(&path).expect("read"), bytes);
        // ...but the first append rewrites it at the current version.
        j.append(cell("exp_new", "new output\n")).expect("append");
        let (j2, outcome) = Journal::open(&path).expect("reopen");
        assert_eq!(
            outcome,
            OpenOutcome::Opened {
                cells: 1,
                dropped_bytes: 0
            }
        );
        assert!(j2.replayable("exp_new").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_recovered_at_every_cut() {
        // A SIGKILL mid-append leaves a prefix of the final record; the
        // open must keep every complete record and drop the tail, at any
        // cut point past the header. Cuts *inside* the header are a
        // corrupt file (nothing to recover).
        let dir = tmpdir("torn");
        let path = dir.join("journal.bin");
        std::fs::remove_file(&path).ok();
        let cells = seed_journal(&path);
        let bytes = std::fs::read(&path).expect("read");

        // Record boundaries, for deciding how many cells each cut keeps.
        let mut boundaries = vec![HEADER_LEN];
        let mut pos = HEADER_LEN;
        while pos < bytes.len() {
            let len = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap()) as usize;
            pos += FRAME_LEN + len;
            boundaries.push(pos);
        }

        let step = bytes.len() / 37 + 1;
        for cut in (1..bytes.len()).step_by(step) {
            std::fs::write(&path, &bytes[..cut]).expect("write");
            if cut < HEADER_LEN {
                let err = Journal::open(&path).expect_err("short header must be corrupt");
                assert!(matches!(err, JournalError::Corrupt(_)), "cut {cut}: {err}");
                continue;
            }
            let (j, outcome) = Journal::open(&path).expect("recoverable");
            let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            let OpenOutcome::Opened {
                cells: kept,
                dropped_bytes,
            } = outcome
            else {
                panic!("cut {cut}: expected Opened, got {outcome:?}");
            };
            assert_eq!(kept, complete, "cut {cut}");
            let boundary = boundaries.contains(&cut);
            assert_eq!(dropped_bytes > 0, !boundary, "cut {cut}");
            for c in cells.iter().take(complete) {
                assert_eq!(j.replayable(&c.name), Some(c), "cut {cut}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_after_recovery_rewrites_a_clean_file() {
        let dir = tmpdir("recover_append");
        let path = dir.join("journal.bin");
        std::fs::remove_file(&path).ok();
        seed_journal(&path);
        let bytes = std::fs::read(&path).expect("read");
        // Tear the last record in half.
        let last_start = {
            let mut pos = HEADER_LEN;
            let mut starts = vec![];
            while pos < bytes.len() {
                starts.push(pos);
                let len = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap()) as usize;
                pos += FRAME_LEN + len;
            }
            *starts.last().unwrap()
        };
        let cut = last_start + FRAME_LEN + 3;
        std::fs::write(&path, &bytes[..cut]).expect("write");

        let (mut j, outcome) = Journal::open(&path).expect("recover");
        assert!(matches!(
            outcome,
            OpenOutcome::Opened { cells: 2, dropped_bytes } if dropped_bytes > 0
        ));
        // The next append must clear the torn bytes, not append past them.
        j.append(cell("exp_fresh", "fresh output\n"))
            .expect("append");
        let (j2, outcome) = Journal::open(&path).expect("reopen");
        assert_eq!(
            outcome,
            OpenOutcome::Opened {
                cells: 3,
                dropped_bytes: 0
            }
        );
        assert!(j2.replayable("exp_fresh").is_some());
        assert!(j2.replayable("exp_table2").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_rejected() {
        let dir = tmpdir("corrupt");
        let path = dir.join("journal.bin");
        std::fs::remove_file(&path).ok();
        seed_journal(&path);
        let good = std::fs::read(&path).expect("read");

        // A flipped bit inside the *first* record's payload: the record
        // is fully present, so this is disk damage, not a torn tail.
        let mut bad = good.clone();
        bad[HEADER_LEN + FRAME_LEN + 2] ^= 0x40;
        std::fs::write(&path, &bad).expect("write");
        let err = Journal::open(&path).expect_err("checksum must fail");
        let JournalError::Corrupt(why) = &err else {
            panic!("expected Corrupt, got {err:?}");
        };
        assert!(why.contains("checksum"), "{why}");

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        std::fs::write(&path, &bad).expect("write");
        assert!(matches!(
            Journal::open(&path),
            Err(JournalError::Corrupt(_))
        ));

        // A record whose payload decodes short of its declared length:
        // recompute the checksum so the frame passes and only the decode
        // can object.
        let mut payload = Vec::new();
        put_str(&mut payload, "name");
        put_u64(&mut payload, 7);
        put_str(&mut payload, "prov");
        put_str(&mut payload, "out");
        payload.extend_from_slice(b"trailing-garbage");
        let mut bad = good.clone();
        put_u64(&mut bad, payload.len() as u64);
        put_u64(&mut bad, fnv1a64(&payload));
        bad.extend_from_slice(&payload);
        std::fs::write(&path, &bad).expect("write");
        let err = Journal::open(&path).expect_err("trailing bytes must fail");
        let JournalError::Corrupt(why) = &err else {
            panic!("expected Corrupt, got {err:?}");
        };
        assert!(why.contains("trailing"), "{why}");

        // open_or_fresh degrades all of the above to an empty journal
        // with an explanatory note, and keeps the damaged file on disk.
        let (j, note) = Journal::open_or_fresh(&path);
        assert!(j.is_empty());
        assert!(note.contains("corrupt journal"), "{note}");
        assert!(path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replayable_rejects_a_digest_mismatch() {
        let dir = tmpdir("digest");
        let path = dir.join("journal.bin");
        std::fs::remove_file(&path).ok();
        let (mut j, _) = Journal::open(&path).expect("open");
        let mut c = cell("exp_table2", "the real output\n");
        c.digest ^= 1;
        j.append(c).expect("append");
        let (j, _) = Journal::open(&path).expect("reopen");
        assert!(j.get("exp_table2").is_some());
        assert!(j.replayable("exp_table2").is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_keeps_the_latest_record_and_is_deterministic() {
        let dir = tmpdir("compact");
        let path = dir.join("journal.bin");
        std::fs::remove_file(&path).ok();
        let (mut j, _) = Journal::open(&path).expect("open");
        j.append(cell("exp_table2", "stale v1\n")).expect("append");
        j.append(cell("exp_fig8", "fig8\n")).expect("append");
        j.append(cell("exp_table2", "fresh v2\n")).expect("append");
        assert_eq!(j.records(), 3);
        assert_eq!(j.len(), 2);
        assert_eq!(j.get("exp_table2").unwrap().output, "fresh v2\n");

        let dropped = j.compact().expect("compact");
        assert_eq!(dropped, 1);
        assert_eq!(j.records(), 2);
        assert_eq!(j.get("exp_table2").unwrap().output, "fresh v2\n");
        let first = std::fs::read(&path).expect("read");

        // Compacting an already-compact journal is a no-op byte-wise.
        assert_eq!(j.compact().expect("compact"), 0);
        assert_eq!(std::fs::read(&path).expect("read"), first);

        // The compacted file round-trips.
        let (j2, outcome) = Journal::open(&path).expect("reopen");
        assert_eq!(
            outcome,
            OpenOutcome::Opened {
                cells: 2,
                dropped_bytes: 0
            }
        );
        assert_eq!(j2.get("exp_table2").unwrap().output, "fresh v2\n");
        assert_eq!(j2.get("exp_fig8").unwrap().output, "fig8\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_auto_compacts_past_the_slack_threshold() {
        let dir = tmpdir("auto_compact");
        let path = dir.join("journal.bin");
        std::fs::remove_file(&path).ok();
        let (mut j, _) = Journal::open(&path).expect("open");
        for i in 0..=(COMPACT_SLACK + 1) {
            j.append(cell("exp_table2", &format!("v{i}\n")))
                .expect("append");
        }
        j.append(cell("exp_fig8", "fig8\n")).expect("append");
        drop(j);

        let (j, outcome) = Journal::open(&path).expect("reopen");
        assert_eq!(
            outcome,
            OpenOutcome::Opened {
                cells: 2,
                dropped_bytes: 0
            }
        );
        assert_eq!(j.records(), 2, "open must have compacted");
        assert_eq!(
            j.get("exp_table2").unwrap().output,
            format!("v{}\n", COMPACT_SLACK + 1)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
