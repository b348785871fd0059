//! Runs every experiment in paper order — the one-shot reproduction
//! driver. One process, one shared compiled-layer cache: layers that
//! recur across experiments (the conv+pool grid dominates) compile
//! once instead of once per child binary, and the persisted cache makes
//! a second invocation start warm (`CBRAIN_CACHE=off` disables).
//!
//! ```text
//! exp_all [--jobs N] [--shards HOST:PORT[,HOST:PORT...]]
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
//! printing, so the report is byte-identical for every `N`.
//!
//! With `--shards HOST:PORT[,HOST:PORT...]` (or `CBRAIN_SHARDS`),
//! compile misses scatter over a fleet of `cbrand` daemons instead of
//! the local pool — same report, remote compilation.

use cbrain::config::{shard_list, EnvConfig, FlagError, FlagSpec, Flags};

const FLAGS: &[FlagSpec] = &[
    ("--jobs", Some("N")),
    ("--shards", Some("HOST:PORT[,HOST:PORT...]")),
];

struct Args {
    jobs: usize,
    shards: Option<Vec<String>>,
    mac_rate: Option<f64>,
}

/// Reads the flags, each falling back to its environment variable
/// (flag beats environment; environment beats nothing), and the Table 4
/// MAC-rate pin.
fn args(flags: &Flags, env: &EnvConfig) -> Result<Args, FlagError> {
    let shards = flags.read("--shards", |raw| {
        Some(shard_list(raw))
            .filter(|list| !list.is_empty())
            .ok_or_else(|| {
                FlagError(format!(
                    "--shards expects HOST:PORT[,HOST:PORT...], got `{raw}`"
                ))
            })
    })?;
    Ok(Args {
        jobs: flags.jobs()?,
        shards: shards.or_else(|| env.shards()),
        mac_rate: env.mac_rate()?,
    })
}

fn main() {
    let Args {
        jobs,
        shards,
        mac_rate,
    } = cbrain_bench::args::from_args(env!("CARGO_BIN_NAME"), FLAGS, |flags| {
        args(flags, &EnvConfig::load())
    });
    if let Some(shards) = shards {
        let router = std::sync::Arc::new(cbrain_fleet::FleetRouter::with_policy(
            shards,
            0,
            cbrain_fleet::RetryPolicy::default(),
            jobs,
        ));
        for (addr, outcome) in router.probe_shards() {
            match outcome {
                Ok(entries) => eprintln!("fleet: {addr} up ({entries} cached layers)"),
                Err(e) => eprintln!("fleet: {addr} down: {e}"),
            }
        }
        cbrain_bench::cache::install_fleet(router);
    }

    let _cache = cbrain_bench::cache::init_for_binary();
    for (name, report) in cbrain_bench::drivers::all_reports(jobs, mac_rate) {
        println!("{}", "=".repeat(78));
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(report))
            .unwrap_or_else(|_| panic!("{name} failed"));
        print!("{out}");
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbrain::config::{ENV_MAC_RATE, ENV_SHARDS};

    fn read(line: &str, env: &[(&str, &str)]) -> Result<Args, FlagError> {
        let tokens: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        let env = EnvConfig::from_lookup(|key| {
            env.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| (*v).to_owned())
        });
        args(&Flags::parse(&tokens, FLAGS)?, &env)
    }

    #[test]
    fn flags_beat_the_environment_and_the_environment_beats_nothing() {
        let env = [(ENV_SHARDS, "b:2"), (ENV_MAC_RATE, "5.7e8")];
        let given = read("--jobs 3 --shards a:1,c:3", &[]).unwrap();
        assert_eq!(given.jobs, 3);
        assert_eq!(given.shards, Some(vec!["a:1".into(), "c:3".into()]));
        let flagged = read("--shards a:1", &env).unwrap();
        assert_eq!(flagged.shards, Some(vec!["a:1".into()]));
        let from_env = read("", &env).unwrap();
        assert_eq!(from_env.shards, Some(vec!["b:2".into()]));
        assert_eq!(from_env.mac_rate, Some(5.7e8));
        let neither = read("", &[]).unwrap();
        assert_eq!(neither.jobs, cbrain::available_jobs());
        assert_eq!((neither.shards, neither.mac_rate), (None, None));
    }

    #[test]
    fn bad_values_are_usage_errors() {
        let err = |line: &str| read(line, &[]).err().expect(line).0;
        assert_eq!(
            err("--shards ,"),
            "--shards expects HOST:PORT[,HOST:PORT...], got `,`"
        );
        assert_eq!(err("--shards"), "--shards needs a value");
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
