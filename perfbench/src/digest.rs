//! Digests of simulated statistics, and the expected digests kept in
//! `digests.txt`. A change that only makes the program faster must
//! leave every digest as it is.

use cbrain::sim::Stats;
use cbrain::NetworkReport;

const STORED: &str = include_str!("../digests.txt");

/// The digest `digests.txt` records under `key`.
fn stored(key: &str) -> Option<u64> {
    STORED
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(k, _)| *k == key)
        .and_then(|(_, hex)| u64::from_str_radix(hex.trim(), 16).ok())
}

/// Checks `got` against the stored digest for `key`.
pub fn check_stored(key: &str, got: u64) -> Result<(), String> {
    match stored(key) {
        Some(want) if want == got => Ok(()),
        Some(want) => Err(format!(
            "{key}: digest {got:016x}, digests.txt has {want:016x}"
        )),
        None => Err(format!("{key}: digest {got:016x} is not in digests.txt")),
    }
}

/// Accumulates the bytes of every simulated statistic of some reports.
#[derive(Debug, Default)]
pub struct Digest(Vec<u8>);

impl Digest {
    fn put(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn text(&mut self, s: &str) {
        self.0.extend_from_slice(s.as_bytes());
        self.0.push(0);
    }

    fn stats(&mut self, s: &Stats) {
        for v in [
            s.cycles,
            s.compute_cycles,
            s.dram_stall_cycles,
            s.mac_ops,
            s.lane_slots,
            s.add_store_ops,
            s.eltwise_ops,
            s.input_buf.loads,
            s.input_buf.stores,
            s.output_buf.loads,
            s.output_buf.stores,
            s.weight_buf.loads,
            s.weight_buf.stores,
            s.bias_buf.loads,
            s.bias_buf.stores,
            s.dram_read_bytes,
            s.dram_write_bytes,
        ] {
            self.put(v);
        }
    }

    /// Adds cycles, MACs, buffer and DRAM traffic of every layer and of
    /// the totals, the energy, and the run's cache hits and misses.
    pub fn report(&mut self, r: &NetworkReport) {
        self.text(&r.network);
        self.text(r.policy.label());
        self.put(r.batch as u64);
        for l in &r.layers {
            self.text(&l.name);
            self.text(&l.scheme.map_or("-".to_owned(), |s| s.to_string()));
            self.stats(&l.stats);
            self.put(l.ideal_cycles);
            self.put(l.layout_transform_cycles);
        }
        self.stats(&r.totals);
        for pj in [r.energy.pe_pj, r.energy.buffer_pj, r.energy.dram_pj] {
            self.put(pj.to_bits());
        }
        self.put(r.cache_hits);
        self.put(r.cache_misses);
    }

    pub fn finish(&self) -> u64 {
        cbrain::persist::fnv1a64(&self.0)
    }
}

/// Digest of one report.
pub fn of_report(r: &NetworkReport) -> u64 {
    let mut d = Digest::default();
    d.report(r);
    d.finish()
}
