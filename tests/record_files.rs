//! The on-disk bytes of the two record files — the compiled-layer cache
//! file (`CBLC`) and the run journal (`CBJL`) — pinned to literals, plus
//! the decoders' answers to hostile lengths and counts.
//!
//! The round-trip tests next to each codec pass as long as writer and
//! reader agree; the pinned tests here fail as soon as either one drifts
//! from the published layout.

use cbrain::cache::{CachedLayer, CompiledLayerCache, LayerKey};
use cbrain::compiler::{CompiledLayer, DataLayout, TilePlan};
use cbrain::journal::{self, Cell, Journal, JournalError, OpenOutcome};
use cbrain::persist::{self, LoadOutcome, PersistError};
use cbrain::Scheme;
use cbrain_model::{ConvParams, EltwiseParams, LayerKind, TensorShape};
use cbrain_sim::{AcceleratorConfig, MachineOptions, MacroOp, RunProgram, Stats, Tile};
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cbrain_records_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn u64le(v: u64) -> [u8; 8] {
    v.to_le_bytes()
}

/// Header and one frame around `payload`, as both record files lay them
/// out, with a correct checksum.
fn framed(magic: &[u8; 4], payload: &[u8]) -> Vec<u8> {
    let mut file = magic.to_vec();
    file.extend_from_slice(&1u32.to_le_bytes());
    file.extend_from_slice(&u64le(payload.len() as u64));
    file.extend_from_slice(&u64le(persist::fnv1a64(payload)));
    file.extend_from_slice(payload);
    file
}

/// A conv key whose every field is spelled out.
fn conv_key() -> LayerKey {
    LayerKey {
        kind: LayerKind::Conv(ConvParams::new(3, 8, 3, 1, 1)),
        input: TensorShape::new(3, 8, 8),
        scheme: Scheme::Partition,
        cfg: AcceleratorConfig::paper_16_16(),
        machine: MachineOptions::default(),
        batch: 1,
    }
}

fn tile_plan() -> TilePlan {
    TilePlan {
        spatial_tiles: 1,
        weight_chunks: 1,
        groups: 1,
        input_tile_bytes: 96,
        output_tile_bytes: 128,
        weight_chunk_bytes: 432,
        weights_resident: true,
        output_group_bytes: 128,
        max_weight_outer_batch: 1,
    }
}

/// A small entry with a tile repeated three times (the file holds the
/// expanded tile list) and ops of three encoded widths.
fn small_entry() -> CachedLayer {
    let mut program = RunProgram::new("pin");
    let tile = Tile {
        dram_read_bytes: 96,
        dram_write_bytes: 0,
        ops: vec![
            MacroOp::MacBurst {
                bursts: 4,
                active_lanes: 9,
                input_reads: 36,
                input_requests: 12,
                weight_reads: 72,
                psum_reads: 0,
                output_writes: 8,
            },
            MacroOp::AddStore { count: 2 },
        ],
    };
    program.push(tile, 3);
    program.push(
        Tile {
            dram_read_bytes: 0,
            dram_write_bytes: 128,
            ops: vec![
                MacroOp::BiasLoad { elems: 8 },
                MacroOp::PoolBurst {
                    bursts: 1,
                    input_reads: 4,
                    output_writes: 1,
                },
            ],
        },
        1,
    );
    let mut stats = Stats::new();
    stats.cycles = 1234;
    stats.compute_cycles = 1000;
    stats.mac_ops = 13_824;
    stats.dram_read_bytes = 288;
    stats.dram_write_bytes = 128;
    CachedLayer {
        compiled: CompiledLayer {
            program,
            scheme: Some(Scheme::Partition),
            wants_input_layout: DataLayout::InterOrder,
            output_layout: DataLayout::IntraOrder,
            tiles: tile_plan(),
        },
        stats,
    }
}

#[test]
fn cache_file_bytes_are_pinned() {
    const PAYLOAD_LEN: u64 = 620;
    const PAYLOAD_FNV: u64 = 0xc404_6c9d_83c8_334c;
    const FILE_FNV: u64 = 0x5a2c_80bd_c942_c5b6;

    let cache = CompiledLayerCache::new();
    cache.insert(conv_key(), small_entry());
    let dir = tmpdir("pin_cache");
    let path = dir.join(persist::CACHE_FILE_NAME);
    assert_eq!(
        persist::save_with_max(&cache, &path, None).expect("save"),
        1
    );
    let bytes = std::fs::read(&path).expect("read");

    #[rustfmt::skip]
    let header: [u8; 24] = [
        b'C', b'B', b'L', b'C',                          // magic
        1, 0, 0, 0,                                      // version 1
        0x6c, 0x02, 0, 0, 0, 0, 0, 0,                    // payload length 620
        0x4c, 0x33, 0xc8, 0x83, 0x9d, 0x6c, 0x04, 0xc4,  // FNV-1a 64 of the payload
    ];
    assert_eq!(bytes[..24], header);
    assert_eq!(header[8..16], u64le(PAYLOAD_LEN));
    assert_eq!(header[16..24], u64le(PAYLOAD_FNV));
    assert_eq!(bytes.len() as u64, 24 + PAYLOAD_LEN);
    assert_eq!(persist::fnv1a64(&bytes), FILE_FNV);
    // The payload is the entry count, then the entry's wire bytes.
    assert_eq!(bytes[24..32], u64le(1));
    assert_eq!(
        bytes[32..],
        persist::entry_bytes(&conv_key(), &small_entry())
    );

    let restored = CompiledLayerCache::new();
    assert_eq!(
        persist::load_into(&restored, &path).expect("load"),
        LoadOutcome::Loaded { entries: 1 }
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn short_cell(name: &str, output: &str) -> Cell {
    Cell {
        name: name.to_owned(),
        digest: journal::digest(output),
        provenance: "p".to_owned(),
        output: output.to_owned(),
    }
}

#[test]
fn journal_bytes_are_pinned() {
    #[rustfmt::skip]
    const JOURNAL: [u8; 113] = [
        b'C', b'B', b'J', b'L', 1, 0, 0, 0,              // magic, version 1
        // record 1: payload length 36, FNV-1a 64 of the payload
        36, 0, 0, 0, 0, 0, 0, 0,
        0x05, 0x1d, 0x7e, 0xaf, 0xef, 0x44, 0x41, 0x5e,
        1, 0, 0, 0, 0, 0, 0, 0, b'a',                    // name "a"
        0x02, 0x50, 0xba, 0xb4, 0x07, 0xbc, 0xf8, 0x07,  // digest of "1\n"
        1, 0, 0, 0, 0, 0, 0, 0, b'p',                    // provenance "p"
        2, 0, 0, 0, 0, 0, 0, 0, b'1', b'\n',             // output "1\n"
        // record 2: payload length 37, FNV-1a 64 of the payload
        37, 0, 0, 0, 0, 0, 0, 0,
        0x88, 0xc9, 0x68, 0x00, 0xc3, 0x90, 0xbc, 0x6a,
        1, 0, 0, 0, 0, 0, 0, 0, b'b',                    // name "b"
        0x3d, 0x4c, 0x93, 0x27, 0x18, 0x8e, 0x45, 0x60,  // digest of "22\n"
        1, 0, 0, 0, 0, 0, 0, 0, b'p',                    // provenance "p"
        3, 0, 0, 0, 0, 0, 0, 0, b'2', b'2', b'\n',       // output "22\n"
    ];

    let dir = tmpdir("pin_journal");
    let path = dir.join("journal.bin");
    let (mut j, outcome) = Journal::open(&path).expect("open");
    assert_eq!(outcome, OpenOutcome::Fresh);
    j.append(short_cell("a", "1\n")).expect("append");
    j.append(short_cell("b", "22\n")).expect("append");
    assert_eq!(std::fs::read(&path).expect("read"), JOURNAL);

    // A compacting rewrite lays out the same bytes as the appends did.
    assert_eq!(j.compact().expect("compact"), 0);
    assert_eq!(std::fs::read(&path).expect("read"), JOURNAL);
    let (_, outcome) = Journal::open(&path).expect("reopen");
    assert_eq!(
        outcome,
        OpenOutcome::Opened {
            cells: 2,
            dropped_bytes: 0
        }
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn entry_decoder_rejects_a_label_length_past_the_end() {
    // A conv key's 140 bytes, then a program label claiming u64::MAX
    // bytes: the cursor must answer `Corrupt`, not overflow.
    let mut bytes = persist::key_bytes(&conv_key());
    assert_eq!(bytes.len(), 140);
    bytes.extend_from_slice(&u64le(u64::MAX));
    let err = persist::decode_entry_bytes(&bytes).expect_err("hostile length");
    assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
}

#[test]
fn journal_rejects_a_checksummed_string_length_past_the_end() {
    // A complete record with a valid checksum whose name claims u64::MAX
    // bytes.
    let dir = tmpdir("hostile_journal");
    let path = dir.join("journal.bin");
    std::fs::write(&path, framed(b"CBJL", &u64le(u64::MAX))).expect("write");
    let err = Journal::open(&path).expect_err("hostile length");
    assert!(matches!(err, JournalError::Corrupt(_)), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_file_rejects_an_entry_count_its_payload_cannot_hold() {
    let dir = tmpdir("hostile_count");
    let path = dir.join(persist::CACHE_FILE_NAME);
    std::fs::write(&path, framed(b"CBLC", &u64le(u64::MAX))).expect("write");
    let cache = CompiledLayerCache::new();
    match persist::load_into(&cache, &path) {
        Err(PersistError::Corrupt(why)) => {
            assert!(why.contains(&u64::MAX.to_string()), "{why}");
        }
        other => panic!("expected a corrupt count, got {other:?}"),
    }
    assert!(cache.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_smallest_entry_fills_its_payload_exactly_and_loads() {
    // An eltwise key, an empty program and no scheme: the shortest entry
    // the format can hold. A file holding exactly one of it must load,
    // so no count bound may overstate an entry's encoded size.
    let key = LayerKey {
        kind: LayerKind::Eltwise(EltwiseParams::add()),
        input: TensorShape::new(1, 1, 1),
        scheme: Scheme::Inter,
        cfg: AcceleratorConfig::paper_16_16(),
        machine: MachineOptions::default(),
        batch: 1,
    };
    let entry = CachedLayer {
        compiled: CompiledLayer {
            program: RunProgram::new(""),
            scheme: None,
            wants_input_layout: DataLayout::InterOrder,
            output_layout: DataLayout::InterOrder,
            tiles: tile_plan(),
        },
        stats: Stats::new(),
    };
    assert_eq!(persist::entry_bytes(&key, &entry).len(), 313);

    let cache = CompiledLayerCache::new();
    cache.insert(key, entry);
    let dir = tmpdir("smallest");
    let path = dir.join(persist::CACHE_FILE_NAME);
    persist::save_with_max(&cache, &path, None).expect("save");
    assert_eq!(std::fs::metadata(&path).expect("stat").len(), 24 + 8 + 313);
    let restored = CompiledLayerCache::new();
    assert_eq!(
        persist::load_into(&restored, &path).expect("load"),
        LoadOutcome::Loaded { entries: 1 }
    );
    assert_eq!(restored.snapshot()[0].0, key);
    std::fs::remove_dir_all(&dir).ok();
}
