//! Regenerates Fig. 3: raw vs unrolled data size of early conv layers.

fn main() {
    cbrain_bench::args::no_args(env!("CARGO_BIN_NAME"));
    cbrain::config::print_stdout(&cbrain_bench::drivers::fig3_report());
}
