//! Extension experiments beyond the paper's figures: the PE-width
//! scalability sweep (quantifying Sec. 4.1.1's scalability warning) and
//! the Algorithm-2-vs-oracle gap.

fn main() {
    let jobs = cbrain_bench::args::jobs_from_args(env!("CARGO_BIN_NAME"));
    let _cache = cbrain_bench::cache::init_for_binary();
    cbrain::config::print_stdout(&cbrain_bench::drivers::sweep_report(jobs));
}
