//! Regenerates Table 5: PE energy reduction of each arm vs inter-kernel.

fn main() {
    let jobs = cbrain_bench::args::jobs_from_args(env!("CARGO_BIN_NAME"));
    let _cache = cbrain_bench::cache::init_for_binary();
    cbrain::config::print_stdout(&cbrain_bench::drivers::table5_report(jobs));
}
