//! Execution tracing: a bounded per-op event log for debugging compiled
//! programs and for inspecting where cycles go inside a layer.

use std::collections::BTreeMap;
use std::fmt;

/// One traced macro-op execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Tile index within the program.
    pub tile: usize,
    /// Op index within the tile.
    pub op_index: usize,
    /// Cycle at which the op started issuing (compute timeline; DMA is
    /// accounted at tile boundaries).
    pub start_cycle: u64,
    /// Issue cycles the op occupied.
    pub cycles: u64,
    /// Op kind (`"mac"`, `"add-store"`, ...).
    pub kind: &'static str,
    /// Human-readable operand summary.
    pub detail: String,
}

/// A bounded execution trace. Once `capacity` events are recorded, later
/// events are counted but not stored (`dropped`), so tracing a VGG-16
/// layer cannot blow up memory.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: usize,
}

impl Trace {
    /// Creates a trace storing at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    pub(crate) fn record(&mut self, event: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// Recorded events, in execution order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events that did not fit the capacity.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Total events observed (stored + dropped).
    pub fn total(&self) -> usize {
        self.events.len() + self.dropped
    }

    /// Cycle totals per op kind over the *stored* events — the "where did
    /// the time go" summary.
    pub fn cycles_by_kind(&self) -> BTreeMap<&'static str, u64> {
        let mut map = BTreeMap::new();
        for e in &self.events {
            *map.entry(e.kind).or_insert(0) += e.cycles;
        }
        map
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace: {} events ({} dropped)",
            self.total(),
            self.dropped
        )?;
        for e in &self.events {
            writeln!(
                f,
                "  t{}#{} @{:>10} +{:<8} {:<10} {}",
                e.tile, e.op_index, e.start_cycle, e.cycles, e.kind, e.detail
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {

    use crate::config::AcceleratorConfig;
    use crate::isa::{MacroOp, Program, Tile};
    use crate::machine::Machine;

    fn program() -> Program {
        Program::single_tile(Tile {
            dram_read_bytes: 64,
            dram_write_bytes: 0,
            ops: vec![
                MacroOp::MacBurst {
                    bursts: 10,
                    active_lanes: 256,
                    input_reads: 16,
                    input_requests: 1,
                    weight_reads: 256,
                    psum_reads: 0,
                    output_writes: 0,
                },
                MacroOp::AddStore { count: 5 },
                MacroOp::OutputWrite { elems: 3 },
                MacroOp::PoolBurst {
                    bursts: 2,
                    input_reads: 9,
                    output_writes: 1,
                },
                MacroOp::BiasLoad { elems: 16 },
            ],
        })
    }

    #[test]
    fn traced_run_matches_untraced_stats() {
        let machine = Machine::new(AcceleratorConfig::paper_16_16());
        let plain = machine.run(&program());
        let (traced, trace) = machine.run_traced(&program(), 100);
        assert_eq!(plain, traced);
        assert_eq!(trace.total(), 5);
        assert_eq!(trace.dropped(), 0);
    }

    #[test]
    fn events_carry_cycle_positions() {
        let machine = Machine::new(AcceleratorConfig::paper_16_16());
        let (_, trace) = machine.run_traced(&program(), 100);
        let ev = trace.events();
        assert_eq!(ev[0].kind, "mac");
        assert_eq!(ev[0].start_cycle, 0);
        assert_eq!(ev[0].cycles, 10);
        // Pool burst starts after the mac burst (stores are zero-width).
        let pool = ev.iter().find(|e| e.kind == "pool").unwrap();
        assert_eq!(pool.start_cycle, 10);
        assert_eq!(pool.cycles, 2);
    }

    #[test]
    fn capacity_bounds_memory() {
        let machine = Machine::new(AcceleratorConfig::paper_16_16());
        let (_, trace) = machine.run_traced(&program(), 2);
        assert_eq!(trace.events().len(), 2);
        assert_eq!(trace.dropped(), 3);
        assert_eq!(trace.total(), 5);
    }

    #[test]
    fn cycles_by_kind_summary() {
        let machine = Machine::new(AcceleratorConfig::paper_16_16());
        let (_, trace) = machine.run_traced(&program(), 100);
        let by_kind = trace.cycles_by_kind();
        assert_eq!(by_kind["mac"], 10);
        assert_eq!(by_kind["pool"], 2);
        assert_eq!(by_kind["add-store"], 0);
    }

    #[test]
    fn display_renders_events() {
        let machine = Machine::new(AcceleratorConfig::paper_16_16());
        let (_, trace) = machine.run_traced(&program(), 100);
        let s = trace.to_string();
        assert!(s.contains("5 events"));
        assert!(s.contains("mac"));
    }
}
