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
use cbrain::{RunOptions, Scheme};
use cbrain_model::{
    zoo, ConvParams, EltwiseParams, FcParams, LayerKind, PoolKind, PoolParams, TensorShape,
};
use cbrain_sim::{AcceleratorConfig, MachineOptions, MacroOp, PeConfig, RunProgram, Stats, Tile};
use std::collections::HashSet;
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
fn framed(magic: &[u8; 4], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut file = magic.to_vec();
    file.extend_from_slice(&version.to_le_bytes());
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

/// A small entry with a tile repeated three times (the file holds it
/// once, as a run) and ops of three encoded widths.
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
    const PAYLOAD_LEN: u64 = 524;
    const PAYLOAD_FNV: u64 = 0xa8ab_3434_bcba_e660;
    const FILE_FNV: u64 = 0xc893_bbd7_3e42_c59f;

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
        2, 0, 0, 0,                                      // version 2
        0x0c, 0x02, 0, 0, 0, 0, 0, 0,                    // payload length 524
        0x60, 0xe6, 0xba, 0xbc, 0x34, 0x34, 0xab, 0xa8,  // FNV-1a 64 of the payload
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
    // The entry opens with the key's 20 words: the conv tag and its six
    // parameters, the input shape, the scheme (partition), the config,
    // the machine flags (overlap_dma) and the batch.
    #[rustfmt::skip]
    let key_words: [u64; 20] = [
        0, 3, 8, 3, 1, 1, 1,
        3, 8, 8,
        2,
        16, 16, 2 << 20, 1 << 20, 4 << 10, 8, 1000,
        1,
        1,
    ];
    for (i, word) in key_words.into_iter().enumerate() {
        assert_eq!(bytes[32 + 8 * i..40 + 8 * i], u64le(word), "key word {i}");
    }
    // Then the program: its label, two runs, the first repeating its
    // tile three times.
    let program = &bytes[192..];
    assert_eq!(program[..8], u64le(3));
    assert_eq!(&program[8..11], b"pin");
    assert_eq!(program[11..19], u64le(2));
    assert_eq!(program[19..27], u64le(3));

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
    // A conv key's 160 bytes, then a program label claiming u64::MAX
    // bytes: the cursor must answer `Corrupt`, not overflow.
    let mut bytes = persist::key_bytes(&conv_key());
    assert_eq!(bytes.len(), 160);
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
    std::fs::write(&path, framed(b"CBJL", 1, &u64le(u64::MAX))).expect("write");
    let err = Journal::open(&path).expect_err("hostile length");
    assert!(matches!(err, JournalError::Corrupt(_)), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_file_rejects_an_entry_count_its_payload_cannot_hold() {
    let dir = tmpdir("hostile_count");
    let path = dir.join(persist::CACHE_FILE_NAME);
    std::fs::write(
        &path,
        framed(b"CBLC", persist::FORMAT_VERSION, &u64le(u64::MAX)),
    )
    .expect("write");
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
    assert_eq!(persist::entry_bytes(&key, &entry).len(), 380);

    let cache = CompiledLayerCache::new();
    cache.insert(key, entry);
    let dir = tmpdir("smallest");
    let path = dir.join(persist::CACHE_FILE_NAME);
    persist::save_with_max(&cache, &path, None).expect("save");
    assert_eq!(std::fs::metadata(&path).expect("stat").len(), 24 + 8 + 380);
    let restored = CompiledLayerCache::new();
    assert_eq!(
        persist::load_into(&restored, &path).expect("load"),
        LoadOutcome::Loaded { entries: 1 }
    );
    assert_eq!(restored.snapshot()[0].0, key);
    std::fs::remove_dir_all(&dir).ok();
}

/// The v1 file's field-by-field key encoding, the oracle for the order
/// of packed keys: a `u8` kind tag and the kind's parameters, the input
/// shape, a `u8` scheme tag, the config, a `u8` per machine flag, and
/// the batch.
fn v1_key_bytes(key: &LayerKey) -> Vec<u8> {
    let mut out = Vec::new();
    let word = |out: &mut Vec<u8>, v: usize| out.extend_from_slice(&u64le(v as u64));
    match key.kind {
        LayerKind::Conv(p) => {
            out.push(0);
            for v in [p.in_maps, p.out_maps, p.kernel, p.stride, p.pad, p.groups] {
                word(&mut out, v);
            }
        }
        LayerKind::Pool(p) => {
            out.push(1);
            word(&mut out, p.kernel);
            word(&mut out, p.stride);
            out.push(u8::from(p.kind == PoolKind::Average));
            out.push(u8::from(p.ceil_mode));
        }
        LayerKind::FullyConnected(p) => {
            out.push(2);
            word(&mut out, p.in_features);
            word(&mut out, p.out_features);
        }
        LayerKind::Eltwise(_) => out.extend([3, 0]),
    }
    for v in [key.input.maps, key.input.height, key.input.width] {
        word(&mut out, v);
    }
    out.push(match key.scheme {
        Scheme::Inter => 0,
        Scheme::Intra => 1,
        Scheme::Partition => 2,
        Scheme::InterImproved => 3,
    });
    let cfg = key.cfg;
    for v in [
        cfg.pe.tin,
        cfg.pe.tout,
        cfg.inout_buf_bytes,
        cfg.weight_buf_bytes,
        cfg.bias_buf_bytes,
        cfg.dram_bytes_per_cycle,
    ] {
        word(&mut out, v);
    }
    out.extend_from_slice(&u64le(cfg.freq_mhz));
    out.push(u8::from(key.machine.overlap_dma));
    out.push(u8::from(key.machine.add_store_on_critical_path));
    word(&mut out, key.batch);
    out
}

/// Every distinct zoo layer key under every scheme, two PE shapes, all
/// four machine-flag settings and batch 1 and 4.
fn zoo_keys() -> Vec<LayerKey> {
    let mut keys = HashSet::new();
    for net in zoo::all() {
        for layer in net.layers() {
            for scheme in Scheme::ALL {
                for (tin, tout) in [(16, 16), (32, 8)] {
                    let cfg = AcceleratorConfig::with_pe(PeConfig::new(tin, tout));
                    for (flags, batch) in (0..4).flat_map(|flags| [(flags, 1), (flags, 4)]) {
                        let opts = RunOptions {
                            batch,
                            machine: MachineOptions {
                                overlap_dma: flags & 1 == 1,
                                add_store_on_critical_path: flags & 2 == 2,
                            },
                            ..RunOptions::default()
                        };
                        keys.insert(LayerKey::new(layer, scheme, &cfg, &opts));
                    }
                }
            }
        }
    }
    keys.into_iter().collect()
}

#[test]
fn packed_keys_sort_as_v1_keys_did() {
    let keys = zoo_keys();
    assert!(keys.len() > 1_000, "only {} keys", keys.len());
    let mut by_packed = keys.clone();
    by_packed.sort_by_key(persist::key_bytes);
    let mut by_v1 = keys;
    by_v1.sort_by_key(v1_key_bytes);
    assert!(
        by_packed == by_v1,
        "packed and v1 key bytes order keys apart"
    );
}

#[test]
fn key_decoder_round_trips_every_key_and_rejects_non_canonical_bytes() {
    for key in zoo_keys() {
        let bytes = persist::key_bytes(&key);
        assert_eq!(bytes.len(), 160);
        assert_eq!(persist::decode_key_bytes(&bytes).expect("decodes"), key);
        assert!(persist::decode_key_bytes(&bytes[..159]).is_err());
        assert!(persist::decode_key_bytes(&[&bytes[..], &[0]].concat()).is_err());
    }

    // One key of each kind, with one word set to `value`.
    let pool = LayerKind::Pool(PoolParams {
        kernel: 3,
        stride: 2,
        kind: PoolKind::Average,
        ceil_mode: true,
    });
    let with_word = |kind: LayerKind, word: usize, value: u64| {
        let key = LayerKey { kind, ..conv_key() };
        let mut bytes = persist::key_bytes(&key);
        bytes[8 * word..8 * word + 8].copy_from_slice(&u64le(value));
        persist::decode_key_bytes(&bytes)
    };
    let conv = conv_key().kind;
    let fc = LayerKind::FullyConnected(FcParams::new(9, 10));
    let eltwise = LayerKind::Eltwise(EltwiseParams::add());
    assert!(with_word(pool, 3, 1).is_ok(), "a canonical control");
    let non_canonical = [
        ("kind tag", conv, 0, 4),
        ("pool kind", pool, 3, 2),
        ("ceil mode", pool, 4, 2),
        ("pool padding", pool, 5, 1),
        ("fc padding", fc, 3, 1),
        ("eltwise op", eltwise, 1, 1),
        ("eltwise padding", eltwise, 6, 1),
        ("scheme", conv, 10, 4),
        ("overlap_dma flag", conv, 18, 2),
        ("add-store flag", conv, 18, 2 << 8),
        ("flag word bits", conv, 18, 1 << 16),
    ];
    for (what, kind, word, value) in non_canonical {
        let err = with_word(kind, word, value).expect_err(what);
        assert!(matches!(err, PersistError::Corrupt(_)), "{what}: {err}");
    }
    // A word past `usize` is rejected where `usize` is narrower than 64
    // bits; elsewhere every word fits.
    assert_eq!(
        with_word(conv, 19, u64::MAX).is_ok(),
        usize::try_from(u64::MAX).is_ok()
    );
}

#[test]
fn run_decoder_rejects_non_canonical_runs() {
    let bytes = persist::entry_bytes(&conv_key(), &small_entry());
    // The key (160 bytes), the label "pin" (8 + 3) and the run count
    // (8) come first. The first run is its repeat (8), a tile header
    // (24) and two ops (33 + 9) at bytes 179..253; the second, of one
    // tile, follows.
    let (first, second) = (179..253, 253..311);
    assert_eq!(bytes[first.start..first.start + 8], u64le(3));
    assert_eq!(bytes[second.start..second.start + 8], u64le(1));
    assert!(persist::decode_entry_bytes(&bytes).is_ok());

    let with_repeat = |at: usize, repeat: u64| {
        let mut bad = bytes.clone();
        bad[at..at + 8].copy_from_slice(&u64le(repeat));
        bad
    };
    let zero_repeat = with_repeat(first.start, 0);
    let overflowing = with_repeat(first.start, u64::MAX);
    // The first run written twice: two runs of one tile, which the
    // writer would have merged into one.
    let merged = [
        &bytes[..second.start],
        &bytes[first.clone()],
        &bytes[second.end..],
    ]
    .concat();
    for (what, bad) in [
        ("zero repeat", zero_repeat),
        ("merged run", merged),
        ("overflowing repeat sum", overflowing),
    ] {
        let err = persist::decode_entry_bytes(&bad).expect_err(what);
        assert!(matches!(err, PersistError::Corrupt(_)), "{what}: {err}");
    }
}
