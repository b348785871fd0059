//! The printable form of every experiment, one function per `exp_*`
//! binary. Each returns the binary's exact stdout as a `String`, so
//!
//! * the thin binaries stay byte-identical to their historical output,
//! * `exp_all` runs the whole suite **in one process** over the shared
//!   compiled-layer cache ([`crate::cache`]) instead of spawning twelve
//!   children with twelve cold caches, and
//! * each experiment's output is buffered whole before printing, so the
//!   report order never interleaves.

use crate::experiments::{
    ablate_addstore, ablate_ks, ablate_layout, ablate_overlap, batch_scaling, fig10, fig3, fig7,
    fig8, fig9, forward_macs, oracle_gap, sweep_pe_width, table2, table4, table5, AblationRow,
};
use cbrain::report::{format_cycles, log_bars, render_table};
use cbrain_model::zoo;
use cbrain_sim::AcceleratorConfig;
use std::fmt::Write as _;

/// Table 2 — benchmark networks.
pub fn table2_report() -> String {
    let mut out = String::new();
    writeln!(out, "Table 2 — benchmark networks\n").unwrap();
    let rows: Vec<Vec<String>> = table2()
        .into_iter()
        .map(|r| {
            let (din, k, s, dout) = r.conv1;
            let macs = zoo::by_name(&r.network)
                .map(|n| forward_macs(&n))
                .unwrap_or(0);
            vec![
                r.network.clone(),
                format!("{din},{k},{s},{dout}"),
                r.conv_layers.to_string(),
                r.kernel_types
                    .iter()
                    .map(usize::to_string)
                    .collect::<Vec<_>>()
                    .join(","),
                format!("{:.2e}", macs as f64),
            ]
        })
        .collect();
    writeln!(
        out,
        "{}",
        render_table(
            &[
                "network",
                "conv1 (Din,k,s,Dout)",
                "#conv layers",
                "kernel types",
                "conv+pool MACs"
            ],
            &rows
        )
    )
    .unwrap();
    writeln!(
        out,
        "Paper Table 2: AlexNet 3,11,4,96 / 5 / 11,5,3; GoogLeNet 3,7,2,64 / 57 / 7,5,3,1;"
    )
    .unwrap();
    writeln!(
        out,
        "              VGG 3,3,1,64 / 16 weight layers (13 conv) / 3; NiN 3,11,4,96 / 12 / 11,5,3,1."
    )
    .unwrap();
    out
}

/// Table 3 — accelerator parameters.
pub fn table3_report() -> String {
    let mut out = String::new();
    writeln!(out, "Table 3 — accelerator parameters\n").unwrap();
    let rows: Vec<Vec<String>> = [
        AcceleratorConfig::paper_16_16(),
        AcceleratorConfig::paper_32_32(),
    ]
    .iter()
    .map(|c| {
        vec![
            c.pe.to_string(),
            c.pe.multipliers().to_string(),
            format!("{} KB", c.inout_buf_bytes / 1024),
            format!("{} KB", c.weight_buf_bytes / 1024),
            format!("{} KB", c.bias_buf_bytes / 1024),
            format!("{} elems/cyc", c.weight_port_elems()),
            format!("{} B/cyc", c.dram_bytes_per_cycle),
            format!("{} MHz", c.freq_mhz),
        ]
    })
    .collect();
    writeln!(
        out,
        "{}",
        render_table(
            &[
                "PE",
                "multipliers",
                "in/out buf",
                "weight buf",
                "bias buf",
                "weight port",
                "DRAM BW",
                "clock"
            ],
            &rows
        )
    )
    .unwrap();
    writeln!(
        out,
        "Paper Table 3: PE 16-16/32-32, 2 MB in/out, 1 MB weight, 4 KB bias,"
    )
    .unwrap();
    writeln!(
        out,
        "all of mul/add/load/store are single-cycle (modelled per macro-op)."
    )
    .unwrap();
    out
}

/// Fig. 3 — data unrolling blow-up.
pub fn fig3_report() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Fig. 3 — data unrolling blow-up (Eq. 1), 16-bit elements\n"
    )
    .unwrap();
    let rows: Vec<Vec<String>> = fig3()
        .into_iter()
        .map(|r| {
            vec![
                r.layer.clone(),
                format!("{:.3e}", r.raw_bits as f64),
                format!("{:.3e}", r.unrolled_bits as f64),
                format!("{:.1}x", r.unrolled_bits as f64 / r.raw_bits as f64),
            ]
        })
        .collect();
    writeln!(
        out,
        "{}",
        render_table(&["layer", "raw bits", "unrolled bits", "blow-up"], &rows)
    )
    .unwrap();
    writeln!(
        out,
        "Paper: unrolled data grows to 9x-18.9x of the raw input."
    )
    .unwrap();
    out
}

/// Fig. 7 — conv1 execution time.
pub fn fig7_report(jobs: usize) -> String {
    let mut out = String::new();
    writeln!(out, "Fig. 7 — conv1 execution time (cycles)\n").unwrap();
    let rows: Vec<Vec<String>> = fig7(jobs)
        .into_iter()
        .map(|r| {
            vec![
                r.network.clone(),
                r.pe.clone(),
                format_cycles(r.ideal),
                format_cycles(r.inter),
                format_cycles(r.intra),
                format_cycles(r.partition),
                format!("{:.1}x", r.inter as f64 / r.partition as f64),
                format!("{:.1}x", r.intra as f64 / r.partition as f64),
            ]
        })
        .collect();
    writeln!(
        out,
        "{}",
        render_table(
            &[
                "network",
                "PE",
                "ideal",
                "inter",
                "intra",
                "partition",
                "part/inter",
                "part/intra"
            ],
            &rows
        )
    )
    .unwrap();
    writeln!(
        out,
        "Paper: partition outperforms inter by 5.8x and intra by 2.1x on average."
    )
    .unwrap();
    out
}

/// Fig. 8 — whole-network performance.
pub fn fig8_report(jobs: usize) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Fig. 8 — whole-network performance (cycles, conv+pool)\n"
    )
    .unwrap();
    let rows_data = fig8(jobs);
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            let mut row = vec![r.network.clone(), r.pe.clone()];
            row.extend(r.cycles.iter().map(|c| format_cycles(*c)));
            row.push(format!("{:.2}x", r.cycles[0] as f64 / r.cycles[4] as f64));
            row
        })
        .collect();
    writeln!(
        out,
        "{}",
        render_table(
            &[
                "network",
                "PE",
                "inter",
                "intra",
                "partition",
                "adpa-1",
                "adpa-2",
                "adpa-2 speedup"
            ],
            &rows
        )
    )
    .unwrap();
    writeln!(
        out,
        "Paper: adpa outperforms inter by 1.83x on AlexNet, 1.43x on average."
    )
    .unwrap();

    // The figure itself, log scale like the paper's.
    writeln!(out, "\nAlexNet @16-16 (log-scale bars):").unwrap();
    let alexnet = rows_data
        .iter()
        .find(|r| r.network == "alexnet" && r.pe == "16-16")
        .expect("alexnet row present");
    let labels = ["inter", "intra", "partition", "adpa-1", "adpa-2"];
    let bars: Vec<(&str, u64)> = labels.iter().copied().zip(alexnet.cycles).collect();
    write!(out, "{}", log_bars(&bars, 46)).unwrap();
    out
}

/// Fig. 9 — comparison with Zhang et al. FPGA'15.
pub fn fig9_report(jobs: usize) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Fig. 9 — comparison with Zhang et al. FPGA'15 at 100 MHz (AlexNet, ms)\n"
    )
    .unwrap();
    let rows_data = fig9(jobs);
    let zhang = rows_data[0].clone();
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.design.clone(),
                format!("{:.2}", r.conv1_ms),
                format!("{:.2}", r.whole_ms),
                format!("{:.2}x", zhang.conv1_ms / r.conv1_ms),
                format!("{:.2}x", zhang.whole_ms / r.whole_ms),
            ]
        })
        .collect();
    writeln!(
        out,
        "{}",
        render_table(
            &[
                "design",
                "conv1 ms",
                "whole NN ms",
                "conv1 speedup",
                "whole speedup"
            ],
            &rows
        )
    )
    .unwrap();
    writeln!(
        out,
        "Paper: zhang 7.4/21.6 ms; adpa-16-28 3.3/18.1 ms (2.22x / 1.20x)."
    )
    .unwrap();
    out
}

/// Table 4 — CPU baseline vs the adaptive accelerator. Calibrates the
/// host MAC rate unless `mac_rate` pins it (`CBRAIN_MAC_RATE`, read by
/// the binary before any experiment runs; determinism checks, CI diffs).
pub fn table4_report(jobs: usize, mac_rate: Option<f64>) -> String {
    let rate = mac_rate.unwrap_or_else(cbrain_baselines::cpu::calibrate_mac_rate);
    let mut out = String::new();
    writeln!(
        out,
        "Table 4 — CPU vs adaptive accelerator (host MAC rate {rate:.2e}/s)\n"
    )
    .unwrap();
    let rows: Vec<Vec<String>> = table4(rate, jobs)
        .into_iter()
        .map(|r| {
            vec![
                r.network.clone(),
                format!("{:.2}", r.cpu_ms),
                format!("{:.2}", r.adap_16_ms),
                format!("{:.1}x", r.speedup_16),
                format!("{:.2}", r.adap_32_ms),
                format!("{:.1}x", r.speedup_32),
            ]
        })
        .collect();
    writeln!(
        out,
        "{}",
        render_table(
            &[
                "network",
                "CPU ms",
                "adap-16-16 ms",
                "speedup",
                "adap-32-32 ms",
                "speedup"
            ],
            &rows
        )
    )
    .unwrap();
    writeln!(
        out,
        "Paper: 82x-212x for adap-16-16, 270x-697x for adap-32-32 (avg 139x / 469x)."
    )
    .unwrap();
    out
}

/// Table 5 — PE energy reduction.
pub fn table5_report(jobs: usize) -> String {
    let mut out = String::new();
    writeln!(out, "Table 5 — PE energy reduction vs inter (%, 16-16)\n").unwrap();
    let rows: Vec<Vec<String>> = table5(jobs)
        .into_iter()
        .map(|r| {
            let mut row = vec![r.network.clone()];
            row.extend(r.reduction_percent.iter().map(|p| format!("{p:.2}")));
            row
        })
        .collect();
    writeln!(
        out,
        "{}",
        render_table(
            &["network", "intra", "partition", "adap-1", "adap-2"],
            &rows
        )
    )
    .unwrap();
    writeln!(
        out,
        "Paper Table 5: AlexNet 32.85/40.23/47.77/47.71; GoogLeNet 9.66/22.77/31.48/31.40;"
    )
    .unwrap();
    writeln!(out, "              VGG -44.72/-8.61/3.00/2.89.").unwrap();
    out
}

/// Fig. 10 — buffer traffic.
pub fn fig10_report(jobs: usize) -> String {
    let mut out = String::new();
    writeln!(out, "Fig. 10 — buffer traffic (access bits, conv+pool)\n").unwrap();
    let rows: Vec<Vec<String>> = fig10(jobs)
        .into_iter()
        .map(|r| {
            let mut row = vec![r.network.clone(), r.pe.clone()];
            row.extend(r.access_bits.iter().map(|b| format!("{:.2e}", *b as f64)));
            row.push(format!(
                "{:.1}%",
                (1.0 - r.access_bits[4] as f64 / r.access_bits[3] as f64) * 100.0
            ));
            row
        })
        .collect();
    writeln!(
        out,
        "{}",
        render_table(
            &[
                "network",
                "PE",
                "inter",
                "intra",
                "partition",
                "adpa-1",
                "adpa-2",
                "adpa-2 vs adpa-1"
            ],
            &rows
        )
    )
    .unwrap();
    writeln!(
        out,
        "Paper: adap-2 cuts 90.13% vs adap-1, 73.7% vs intra on average."
    )
    .unwrap();
    out
}

/// The PE-width sweep and oracle-gap extension experiments.
pub fn sweep_report(jobs: usize) -> String {
    let mut out = String::new();
    writeln!(out, "PE-width scalability sweep (AlexNet, conv+pool)\n").unwrap();
    let rows: Vec<Vec<String>> = sweep_pe_width(jobs)
        .into_iter()
        .map(|r| {
            vec![
                r.pe.clone(),
                r.multipliers.to_string(),
                format_cycles(r.inter_cycles),
                format!("{:.1}%", r.inter_util * 100.0),
                format_cycles(r.adaptive_cycles),
                format!("{:.1}%", r.adaptive_util * 100.0),
                format!("{:.2}x", r.inter_cycles as f64 / r.adaptive_cycles as f64),
            ]
        })
        .collect();
    writeln!(
        out,
        "{}",
        render_table(
            &[
                "PE",
                "muls",
                "inter cycles",
                "inter util",
                "adpa-2 cycles",
                "adpa-2 util",
                "speedup"
            ],
            &rows
        )
    )
    .unwrap();

    writeln!(out, "Algorithm 2 vs exhaustive per-layer oracle (16-16)\n").unwrap();
    let rows: Vec<Vec<String>> = oracle_gap(jobs)
        .into_iter()
        .map(|r| {
            vec![
                r.network.clone(),
                format_cycles(r.adaptive_cycles),
                format_cycles(r.oracle_cycles),
                format!("{:.3}", r.gap),
            ]
        })
        .collect();
    writeln!(
        out,
        "{}",
        render_table(&["network", "adpa-2", "oracle", "gap"], &rows)
    )
    .unwrap();
    writeln!(
        out,
        "gap = adpa-2 cycles / oracle cycles; 1.0 means the O(1) heuristic is optimal."
    )
    .unwrap();
    out
}

/// The batch-scaling extension experiment.
pub fn batch_report(jobs: usize) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Batch scaling (AlexNet, full network incl. FC, adpa-2, 16-16)\n"
    )
    .unwrap();
    let rows_data = batch_scaling(jobs);
    let base = rows_data[0].clone();
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.batch.to_string(),
                format!("{:.3e}", r.cycles_per_image),
                format!("{:.3e}", r.dram_per_image),
                format!("{:.3}", r.energy_per_image_mj),
                format!("{:.2}x", base.cycles_per_image / r.cycles_per_image),
            ]
        })
        .collect();
    writeln!(
        out,
        "{}",
        render_table(
            &[
                "batch",
                "cycles/img",
                "DRAM B/img",
                "energy mJ/img",
                "throughput gain"
            ],
            &rows
        )
    )
    .unwrap();
    writeln!(
        out,
        "The FC weight stream (>100 MB/image at batch 1) amortizes across the batch."
    )
    .unwrap();
    out
}

fn ablation_section(title: &str, rows: &[AblationRow]) -> String {
    let mut out = String::new();
    writeln!(out, "{title}").unwrap();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.arm.clone(),
                r.cycles.to_string(),
                format!("{:.2e}", r.buffer_bits as f64),
            ]
        })
        .collect();
    writeln!(
        out,
        "{}",
        render_table(&["arm", "cycles", "buffer bits"], &table)
    )
    .unwrap();
    out
}

/// The four ablation studies.
pub fn ablations_report(jobs: usize) -> String {
    let mut out = String::new();
    out.push_str(&ablation_section(
        "Ablation: double-buffered DMA overlap (VGG-16, adpa-2, 16-16)\n",
        &ablate_overlap(jobs),
    ));
    out.push_str(&ablation_section(
        "Ablation: add-and-store off/on the critical path (AlexNet, adpa-2)\n",
        &ablate_addstore(jobs),
    ));
    out.push_str(&ablation_section(
        "Ablation: Algorithm 2 layout planning vs explicit transforms (AlexNet)\n",
        &ablate_layout(jobs),
    ));
    out.push_str(&ablation_section(
        "Ablation: Eq. 2 sub-kernel size ks=s vs ks=2s (AlexNet conv1)\n",
        &ablate_ks(),
    ));
    out
}

/// Every experiment in paper order, as `(name, report)` thunks —
/// exactly the sequence the old `exp_all` spawned as child processes.
#[allow(clippy::type_complexity)]
pub fn all_reports(
    jobs: usize,
    mac_rate: Option<f64>,
) -> Vec<(&'static str, Box<dyn Fn() -> String + Send>)> {
    let table4 = move || table4_report(jobs, mac_rate);
    vec![
        ("exp_table2", Box::new(table2_report)),
        ("exp_table3", Box::new(table3_report)),
        ("exp_fig3", Box::new(fig3_report)),
        ("exp_fig7", Box::new(move || fig7_report(jobs))),
        ("exp_fig8", Box::new(move || fig8_report(jobs))),
        ("exp_fig9", Box::new(move || fig9_report(jobs))),
        ("exp_table4", Box::new(table4)),
        ("exp_table5", Box::new(move || table5_report(jobs))),
        ("exp_fig10", Box::new(move || fig10_report(jobs))),
        ("exp_sweep", Box::new(move || sweep_report(jobs))),
        ("exp_batch", Box::new(move || batch_report(jobs))),
        ("exp_ablations", Box::new(move || ablations_report(jobs))),
    ]
}
