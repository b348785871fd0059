//! The on-disk bytes of the compiled-layer cache file (`CBLC`) pinned to
//! literals, plus the decoders' answers to hostile lengths and counts
//! and to seeded mutations of valid bytes.
//!
//! The round-trip tests next to the codec pass as long as writer and
//! reader agree; the pinned tests here fail as soon as either one drifts
//! from the published layout.

use cbrain::cache::{CachedLayer, CompiledLayerCache, LayerKey};
use cbrain::compiler::{CompiledLayer, DataLayout, TilePlan};
use cbrain::persist::{self, LoadOutcome, PersistError};
use cbrain::{compile_cache_entry, RunOptions, Scheme};
use cbrain_model::rng::XorShift64;
use cbrain_model::{
    zoo, ConvParams, EltwiseParams, FcParams, Layer, LayerKind, PoolKind, PoolParams, TensorShape,
};
use cbrain_sim::{AcceleratorConfig, MachineOptions, MacroOp, PeConfig, RunProgram, Stats, Tile};
use std::collections::{HashMap, HashSet};
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

/// A cache-file header around `payload`, with a correct length and
/// checksum.
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
    let mut program = RunProgram::new();
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
    const PAYLOAD_LEN: u64 = 513;
    const PAYLOAD_FNV: u64 = 0x5a2e_54c6_b57b_c038;
    const FILE_FNV: u64 = 0x1999_8ecb_5f86_d05e;

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
        3, 0, 0, 0,                                      // version 3
        0x01, 0x02, 0, 0, 0, 0, 0, 0,                    // payload length 513
        0x38, 0xc0, 0x7b, 0xb5, 0xc6, 0x54, 0x2e, 0x5a,  // FNV-1a 64 of the payload
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
    // Then the program: two runs, the first repeating its tile three
    // times.
    let program = &bytes[192..];
    assert_eq!(program[..8], u64le(2));
    assert_eq!(program[8..16], u64le(3));

    let restored = CompiledLayerCache::new();
    assert_eq!(
        persist::load_into(&restored, &path).expect("load"),
        LoadOutcome::Loaded { entries: 1 }
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn entry_decoder_rejects_a_run_count_past_the_end() {
    // A conv key's 160 bytes, then a program claiming u64::MAX runs: the
    // cursor must answer `Corrupt`, not overflow.
    let mut bytes = persist::key_bytes(&conv_key());
    assert_eq!(bytes.len(), 160);
    bytes.extend_from_slice(&u64le(u64::MAX));
    let err = persist::decode_entry_bytes(&bytes).expect_err("hostile length");
    assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
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
            program: RunProgram::new(),
            scheme: None,
            wants_input_layout: DataLayout::InterOrder,
            output_layout: DataLayout::InterOrder,
            tiles: tile_plan(),
        },
        stats: Stats::new(),
    };
    assert_eq!(persist::entry_bytes(&key, &entry).len(), 372);

    let cache = CompiledLayerCache::new();
    cache.insert(key, entry);
    let dir = tmpdir("smallest");
    let path = dir.join(persist::CACHE_FILE_NAME);
    persist::save_with_max(&cache, &path, None).expect("save");
    assert_eq!(std::fs::metadata(&path).expect("stat").len(), 24 + 8 + 372);
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
fn entries_are_pure_functions_of_their_key() {
    // Every zoo layer at the paper's configuration, each conv layer under
    // every scheme and every other layer under its fixed mapping, grouped
    // by key. Layers of different names share keys (VGG's repeated
    // blocks, look-alike convolutions across networks); whichever of them
    // compiles a key, the entry must be the same bytes.
    let cfg = AcceleratorConfig::paper_16_16();
    let opts = RunOptions::default();
    let mut groups: HashMap<LayerKey, Vec<Layer>> = HashMap::new();
    for net in zoo::all() {
        for layer in net.layers() {
            let schemes: &[Scheme] = if layer.as_conv().is_some() {
                &Scheme::ALL
            } else {
                &[Scheme::Inter]
            };
            for &scheme in schemes {
                let key = LayerKey::new(layer, scheme, &cfg, &opts);
                groups.entry(key).or_default().push(layer.clone());
            }
        }
    }
    let mut shared = 0;
    for (key, layers) in &groups {
        let bytes = |layer: &Layer| {
            let entry = compile_cache_entry(layer, key).expect("compiles");
            persist::entry_bytes(key, &entry)
        };
        let first = bytes(&layers[0]);
        for layer in &layers[1..] {
            assert!(
                bytes(layer) == first,
                "{} and {} share a key but not its entry bytes",
                layers[0].name,
                layer.name
            );
        }
        if layers.iter().any(|l| l.name != layers[0].name) {
            shared += 1;
        }
    }
    assert!(shared > 0, "no key is shared by differently named layers");
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
    // The key (160 bytes) and the run count (8) come first. The first
    // run is its repeat (8), a tile header (24) and two ops (33 + 9) at
    // bytes 168..242; the second, of one tile, follows.
    let (first, second) = (168..242, 242..300);
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

/// One seeded mutation of `good`: bit flips, a truncation, bytes spliced
/// in from `donor` or made up, or a forged u64 word, either at one of
/// `words` (the length, checksum and count words of the layout) or
/// anywhere. Returns the mutated bytes and whether a header word was
/// forged, which a checksum fix-up must then leave alone.
fn mutate(rng: &mut XorShift64, good: &[u8], donor: &[u8], words: &[usize]) -> (Vec<u8>, bool) {
    let mut bytes = good.to_vec();
    let at = |rng: &mut XorShift64, len: usize| rng.range_usize(0, len.saturating_sub(1));
    match rng.below(4) {
        0 => {
            for _ in 0..rng.range_usize(1, 4) {
                let i = at(rng, bytes.len());
                bytes[i] ^= 1 << rng.below(8);
            }
        }
        1 => bytes.truncate(rng.range_usize(0, good.len() - 1)),
        2 => {
            let start = at(rng, bytes.len());
            let end = rng.range_usize(start, bytes.len().min(start + 64));
            let from = at(rng, donor.len());
            let take = rng.range_usize(0, 64).min(donor.len() - from);
            let spliced: Vec<u8> = if rng.below(2) == 0 {
                donor[from..from + take].to_vec()
            } else {
                (0..take).map(|_| rng.below(256) as u8).collect()
            };
            bytes.splice(start..end, spliced);
        }
        _ => {
            let i = if rng.below(4) == 0 {
                at(rng, bytes.len() - 8)
            } else {
                words[rng.below(words.len() as u64) as usize]
            };
            let len = bytes.len() as u64;
            let forged = [
                0,
                1,
                2,
                3,
                len - 1,
                len,
                len + 1,
                1 << 32,
                u64::MAX,
                rng.next_u64(),
            ];
            let word = forged[rng.below(forged.len() as u64) as usize];
            bytes[i..i + 8].copy_from_slice(&u64le(word));
            return (bytes, i < 24 && i + 8 > 8);
        }
    }
    (bytes, false)
}

#[test]
fn mutated_cache_files_and_entries_decode_or_fail_typed() {
    // Seeded mutations of a small saved cache file and of its entry's
    // bytes. Neither decoder may panic; each must answer `Ok` or
    // `Corrupt`; a rejected file inserts nothing; and whatever decodes
    // re-encodes to exactly the bytes it came from, because the decoders
    // accept only canonical input. A file mutated anywhere but in its
    // header gets its length and checksum fixed up three times in four,
    // so most mutations reach the payload decoder.
    const ROUNDS: usize = 5_000;
    let (key, entry) = (conv_key(), small_entry());
    let good_entry = persist::entry_bytes(&key, &entry);
    let cache = CompiledLayerCache::new();
    cache.insert(key, entry);
    let dir = tmpdir("fuzz");
    let (path, resaved) = (dir.join("mutated.bin"), dir.join("resaved.bin"));
    persist::save_with_max(&cache, &dir.join("good.bin"), None).expect("save");
    let good_file = std::fs::read(dir.join("good.bin")).expect("read");
    // The file's length, checksum and entry count, then the entry's run
    // count, first repeat and first op count; the entry's own words sit
    // 32 bytes earlier.
    let file_words = [8, 16, 24, 192, 200, 224];
    let entry_words = [160, 168, 192];

    let mut rng = XorShift64::seed_from_u64(0x0cb1_c0de);
    let (mut loaded, mut rejected, mut decoded, mut refused) = (0, 0, 0, 0);
    for round in 0..ROUNDS {
        let (mut bytes, forged_header) = mutate(&mut rng, &good_file, &good_entry, &file_words);
        if bytes.len() >= 24 && !forged_header && rng.below(4) != 0 {
            let payload_len = bytes.len() as u64 - 24;
            let check = persist::fnv1a64(&bytes[24..]);
            bytes[8..16].copy_from_slice(&u64le(payload_len));
            bytes[16..24].copy_from_slice(&u64le(check));
        }
        std::fs::write(&path, &bytes).expect("write");
        let restored = CompiledLayerCache::new();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            persist::load_into(&restored, &path)
        }))
        .unwrap_or_else(|_| panic!("round {round}: load_into panicked on {bytes:?}"));
        match outcome {
            Ok(LoadOutcome::Loaded { entries }) => {
                loaded += 1;
                assert!(restored.len() <= entries, "round {round}");
                assert_eq!(restored.is_empty(), entries == 0, "round {round}");
                if entries == 1 {
                    persist::save_with_max(&restored, &resaved, None).expect("resave");
                    assert!(
                        std::fs::read(&resaved).expect("read") == bytes,
                        "round {round}: a loaded file re-saves to other bytes"
                    );
                }
            }
            Ok(LoadOutcome::VersionMismatch { .. }) => assert!(restored.is_empty()),
            Err(PersistError::Corrupt(_)) => {
                rejected += 1;
                assert!(
                    restored.is_empty(),
                    "round {round}: a rejected file inserted"
                );
            }
            other => panic!("round {round}: {other:?}"),
        }

        let (bytes, _) = mutate(&mut rng, &good_entry, &good_file, &entry_words);
        let outcome = std::panic::catch_unwind(|| persist::decode_entry_bytes(&bytes))
            .unwrap_or_else(|_| panic!("round {round}: decode_entry_bytes panicked on {bytes:?}"));
        match outcome {
            Ok((key, entry)) => {
                decoded += 1;
                assert!(
                    persist::entry_bytes(&key, &entry) == bytes,
                    "round {round}: a decoded entry re-encodes to other bytes"
                );
            }
            Err(PersistError::Corrupt(_)) => refused += 1,
            Err(e) => panic!("round {round}: {e:?}"),
        }
    }
    // Both outcomes of both decoders must be well exercised for the
    // check to mean much.
    for (what, n) in [
        ("loaded", loaded),
        ("rejected", rejected),
        ("decoded", decoded),
        ("refused", refused),
    ] {
        assert!(n > ROUNDS / 10, "{what}: {n} of {ROUNDS}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
