//! Regenerates Fig. 9: AlexNet at 100 MHz vs the Zhang FPGA'15 design
//! (zhang-7-64) and three adaptive configurations.

fn main() {
    let jobs = cbrain_bench::args::jobs_from_args(env!("CARGO_BIN_NAME"));
    let _cache = cbrain_bench::cache::init_for_binary();
    cbrain::config::print_stdout(&cbrain_bench::drivers::fig9_report(jobs));
}
