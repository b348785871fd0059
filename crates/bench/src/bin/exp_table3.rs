//! Regenerates Table 3: the accelerator configurations under test.

fn main() {
    cbrain_bench::args::no_args(env!("CARGO_BIN_NAME"));
    cbrain::config::print_stdout(&cbrain_bench::drivers::table3_report());
}
