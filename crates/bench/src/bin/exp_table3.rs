//! Regenerates Table 3: the accelerator configurations under test.

fn main() {
    cbrain_bench::args::no_args(env!("CARGO_BIN_NAME"));
    print!("{}", cbrain_bench::drivers::table3_report());
}
