//! Extension experiment: batch-scaling of the full AlexNet forward pass
//! (FC layers included). Shows the weight-chunk-outer batching dividing
//! the classifier's weight stream across the batch.

fn main() {
    let jobs = cbrain_bench::args::jobs_from_args(env!("CARGO_BIN_NAME"));
    let _cache = cbrain_bench::cache::init_for_binary();
    cbrain::config::print_stdout(&cbrain_bench::drivers::batch_report(jobs));
}
