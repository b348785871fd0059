//! Regenerates Table 4: CPU software baseline vs adap-16-16 / adap-32-32.
//!
//! The CPU column is measured on *this* host (naive direct convolution,
//! calibrated MAC rate); the paper's column is Caffe on a Xeon 2.20 GHz.
//! The reproduced claim is the 2-3 orders-of-magnitude speedup.
//!
//! The calibration is a wall-clock measurement and therefore varies
//! run-to-run; set `CBRAIN_MAC_RATE` (MACs/s, e.g. `5.7e8`) to pin it
//! for reproducible output (determinism checks, CI diffs). A pin that is
//! not a positive number is a usage error: exit 1 before any work.

fn main() {
    let (jobs, mac_rate) =
        cbrain_bench::args::from_args(env!("CARGO_BIN_NAME"), cbrain_bench::args::JOBS, |flags| {
            Ok((flags.jobs()?, cbrain::EnvConfig::load().mac_rate()?))
        });
    let _cache = cbrain_bench::cache::init_for_binary();
    cbrain::config::print_stdout(&cbrain_bench::drivers::table4_report(jobs, mac_rate));
}
