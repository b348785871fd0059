//! End-to-end tests of the compiled `cbrain` binary.

use std::process::{Command, Stdio};

fn cbrain(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_cbrain"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn help_prints_usage() {
    let (stdout, _, ok) = cbrain(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("spec-check"));
}

#[test]
fn no_args_prints_usage() {
    let (stdout, _, ok) = cbrain(&[]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
}

#[test]
fn run_alexnet_conv1() {
    let (stdout, _, ok) = cbrain(&[
        "run",
        "--network",
        "alexnet",
        "--policy",
        "partition",
        "--workload",
        "conv1",
    ]);
    assert!(ok);
    assert!(stdout.contains("alexnet"));
    assert!(stdout.contains("cycles"));
}

#[test]
fn zoo_lists_networks() {
    let (stdout, _, ok) = cbrain(&["zoo"]);
    assert!(ok);
    assert!(stdout.contains("googlenet"));
    assert!(stdout.contains("3,11,4,96"));
}

#[test]
fn scheme_query() {
    let (stdout, _, ok) = cbrain(&["scheme", "--din", "3", "--k", "11", "--s", "4"]);
    assert!(ok);
    assert!(stdout.contains("partition"));
}

#[test]
fn bad_flag_fails_with_usage() {
    let (_, stderr, ok) = cbrain(&["run", "--frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("error"));
    assert!(stderr.contains("USAGE"));
}

#[test]
fn unknown_network_fails() {
    let (_, stderr, ok) = cbrain(&["run", "--network", "lenet"]);
    assert!(!ok);
    assert!(stderr.contains("lenet"));
}

#[test]
fn spec_check_on_shipped_spec() {
    // CARGO_MANIFEST_DIR is crates/cli; the spec files live at the root.
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/nin.spec");
    let (stdout, _, ok) = cbrain(&["spec-check", spec]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("ok"));
    assert!(stdout.contains("nin"));
}

#[cfg(unix)]
#[test]
fn a_non_utf8_argument_is_a_usage_error_not_a_panic() {
    use std::ffi::OsStr;
    use std::os::unix::ffi::OsStrExt;
    let out = Command::new(env!("CARGO_BIN_EXE_cbrain"))
        .args([OsStr::new("run"), OsStr::from_bytes(b"--net\xffwork")])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty());
    assert!(stderr.contains("is not UTF-8"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn a_closed_stdout_ends_the_output_without_a_panic() {
    // The reader of the pipe has exited, as under `cbrain zoo | head -1`.
    for args in [&["zoo"][..], &["run", "--network", "alexnet"]] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_cbrain"))
            .args(args)
            .stdout(Stdio::from(writer))
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
