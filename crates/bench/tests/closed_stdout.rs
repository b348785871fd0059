//! The harness binaries write their reports through
//! `cbrain::config::print_stdout`: when stdout is a pipe whose reader
//! has already exited (`exp_all | head -1`), they stop printing and exit
//! 0 instead of panicking.

use std::process::{Command, Stdio};

/// Runs `bin` with stdout the write end of a pipe whose read end is
/// already closed, and asserts a clean exit.
fn exits_quietly_into_a_closed_pipe(bin: &str, args: &[&str]) {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(bin)
        .args(args)
        .env("CBRAIN_CACHE", "off")
        .env("CBRAIN_MAC_RATE", "5.7e8")
        .stdout(Stdio::from(writer))
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
}

#[test]
fn reports_into_a_closed_pipe_exit_zero_without_a_panic() {
    exits_quietly_into_a_closed_pipe(env!("CARGO_BIN_EXE_exp_all"), &[]);
    exits_quietly_into_a_closed_pipe(env!("CARGO_BIN_EXE_exp_table2"), &[]);
    exits_quietly_into_a_closed_pipe(env!("CARGO_BIN_EXE_bench_kernels"), &["--samples", "1"]);
}
