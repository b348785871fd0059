//! Regenerates Fig. 8: whole-network cycles under the five arms
//! (inter, intra, partition, adpa-1, adpa-2), 4 networks x 2 PE configs.

fn main() {
    let jobs = cbrain_bench::args::jobs_from_args(env!("CARGO_BIN_NAME"));
    let _cache = cbrain_bench::cache::init_for_binary();
    cbrain::config::print_stdout(&cbrain_bench::drivers::fig8_report(jobs));
}
