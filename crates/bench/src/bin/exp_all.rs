//! Runs every experiment in paper order — the one-shot reproduction
//! driver. One process, one shared compiled-layer cache: layers that
//! recur across experiments (the conv+pool grid dominates) compile
//! once instead of once per child binary, and the persisted cache makes
//! a second invocation start warm (`CBRAIN_CACHE=off` disables).
//!
//! ```text
//! exp_all [--jobs N]
//! ```
//!
//! Flags follow the workspace's one grammar (`cbrain::config`):
//! `--flag VALUE` or a bare switch, nothing else. An unknown flag, a
//! missing value or a bad one prints the usage line and exits 1 before
//! any experiment runs; so does a `CBRAIN_MAC_RATE` that is not a
//! positive number.
//!
//! `--jobs N` (N ≥ 1; default: all cores): each experiment fans its
//! cells over the pool and its output is buffered whole before
//! printing, so the report is byte-identical for every `N`. Once stdout
//! is closed (`exp_all | head`), the remaining experiments are skipped.

use cbrain::config::{print_stdout, EnvConfig, FlagError, Flags};

struct Args {
    jobs: usize,
    mac_rate: Option<f64>,
}

/// Reads `--jobs` and the Table 4 MAC-rate pin.
fn args(flags: &Flags, env: &EnvConfig) -> Result<Args, FlagError> {
    Ok(Args {
        jobs: flags.jobs()?,
        mac_rate: env.mac_rate()?,
    })
}

fn main() {
    let Args { jobs, mac_rate } =
        cbrain_bench::args::from_args(env!("CARGO_BIN_NAME"), cbrain_bench::args::JOBS, |flags| {
            args(flags, &EnvConfig::load())
        });
    let _cache = cbrain_bench::cache::init_for_binary();
    for (name, report) in cbrain_bench::drivers::all_reports(jobs, mac_rate) {
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(report))
            .unwrap_or_else(|_| panic!("{name} failed"));
        if !print_stdout(&format!("{}\n{out}\n", "=".repeat(78))) {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbrain::config::ENV_MAC_RATE;

    fn read(line: &str, env: &[(&str, &str)]) -> Result<Args, FlagError> {
        let tokens: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        let env = EnvConfig::from_lookup(|key| {
            env.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| (*v).to_owned())
        });
        args(&Flags::parse(&tokens, cbrain_bench::args::JOBS)?, &env)
    }

    #[test]
    fn jobs_and_the_mac_rate_pin_read_their_sources() {
        let given = read("--jobs 3", &[(ENV_MAC_RATE, "5.7e8")]).unwrap();
        assert_eq!((given.jobs, given.mac_rate), (3, Some(5.7e8)));
        let neither = read("", &[]).unwrap();
        assert_eq!(neither.jobs, cbrain::available_jobs());
        assert_eq!(neither.mac_rate, None);
    }

    #[test]
    fn bad_values_are_usage_errors() {
        let err = |line: &str| read(line, &[]).err().expect(line).0;
        assert_eq!(err("--resume"), "unknown flag `--resume`");
        assert_eq!(err("--jobs 0"), "--jobs must be at least 1");
        assert_eq!(err("--jobs=2"), "unknown flag `--jobs=2`");
        let bad_pin = read("", &[(ENV_MAC_RATE, "fast")]).err().expect("bad pin");
        assert_eq!(
            bad_pin.0,
            "CBRAIN_MAC_RATE must be a positive number, got `fast`"
        );
    }
}
