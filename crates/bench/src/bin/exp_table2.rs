//! Regenerates Table 2: the benchmark networks' characteristics.

fn main() {
    cbrain_bench::args::no_args(env!("CARGO_BIN_NAME"));
    cbrain::config::print_stdout(&cbrain_bench::drivers::table2_report());
}
