//! Trace inspector: push one layer through the machine with tracing on
//! and see where the cycles go, op by op — the debugging view of the
//! macro-op programs the compiler emits.
//!
//! ```text
//! cargo run --release --example trace_inspect
//! ```

use cbrain_compiler::{compile_conv, Scheme};
use cbrain_model::{zoo, ConvParams, Layer, TensorShape};
use cbrain_sim::{AcceleratorConfig, Machine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = AcceleratorConfig::paper_16_16();
    let machine = Machine::new(cfg);

    // A small layer so the full trace fits on screen.
    let layer = Layer::conv(
        "demo",
        TensorShape::new(3, 19, 19),
        ConvParams::new(3, 8, 5, 2, 0),
    );

    for scheme in [Scheme::Inter, Scheme::Partition] {
        let compiled = compile_conv(&layer, scheme, &cfg)?;
        let (stats, trace) = machine.run_traced(&compiled.program, 32);
        println!("== {} [{scheme}] under {scheme} ==", layer.name);
        println!(
            "{} cycles, {} MACs, utilization {:.1}%",
            stats.cycles,
            stats.mac_ops,
            stats.pe_utilization() * 100.0
        );
        print!("{trace}");
        println!("cycles by op kind: {:?}\n", trace.cycles_by_kind());
    }

    // On a real layer the trace is capped; the totals still count.
    let net = zoo::alexnet();
    let compiled = compile_conv(net.conv1(), Scheme::Partition, &cfg)?;
    let (_, trace) = machine.run_traced(&compiled.program, 8);
    println!(
        "alexnet conv1 [partition]: {} ops observed, {} stored, {} dropped (cap 8)",
        trace.total(),
        trace.events().len(),
        trace.dropped()
    );
    Ok(())
}
