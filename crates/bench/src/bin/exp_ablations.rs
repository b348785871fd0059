//! Ablation studies for the design choices DESIGN.md flags: DMA overlap,
//! add-and-store placement, layout planning, and the Eq. 2 sub-kernel size.

fn main() {
    let jobs = cbrain_bench::args::jobs_from_args(env!("CARGO_BIN_NAME"));
    let _cache = cbrain_bench::cache::init_for_binary();
    cbrain::config::print_stdout(&cbrain_bench::drivers::ablations_report(jobs));
}
