//! Command-line handling shared by the `exp_*` binaries, `bench_kernels`
//! and `gen_specs`. Each names its flags in a table and parses through
//! the workspace's one flag parser ([`cbrain::config::Flags`]); a usage
//! error prints the binary's usage line, built from that table, and
//! exits 1 before any work starts.

use cbrain::config::{args_or_exit, usage_line, FlagError, FlagSpec, Flags};

/// The one flag of most `exp_*` binaries.
pub const JOBS: &[FlagSpec] = &[("--jobs", Some("N"))];

/// Parses this process's arguments against `table` and reads them with
/// `read`, or exits 1 with `bin`'s usage line.
pub fn from_args<T>(
    bin: &str,
    table: &[FlagSpec],
    read: impl FnOnce(&Flags) -> Result<T, FlagError>,
) -> T {
    args_or_exit(&usage_line(bin, table), table, read)
}

/// `--jobs N` (N ≥ 1) for a binary whose only flag it is; every core
/// when it is absent. Output is byte-identical for every `N` — the flag
/// only changes wall-clock time.
pub fn jobs_from_args(bin: &str) -> usize {
    from_args(bin, JOBS, Flags::jobs)
}

/// For a binary that takes no flags: any argument is a usage error.
pub fn no_args(bin: &str) {
    from_args(bin, &[], |_| Ok(()));
}
