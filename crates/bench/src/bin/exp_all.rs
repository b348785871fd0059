//! Runs every experiment in paper order — the one-shot reproduction
//! driver. One process, one shared compiled-layer cache: layers that
//! recur across experiments (the conv+pool grid dominates) compile
//! once instead of once per child binary, and the persisted cache makes
//! a second invocation start warm (`CBRAIN_CACHE=off` disables).
//!
//! ```text
//! exp_all [--jobs N] [--shards HOST:PORT[,HOST:PORT...]] [--journal PATH] [--resume]
//! ```
//!
//! Flags follow the workspace's one grammar (`cbrain::config`):
//! `--flag VALUE` or a bare switch, nothing else. An unknown flag, a
//! missing value or a bad one prints the usage line and exits 1 before
//! any experiment runs.
//!
//! `--jobs N` (N ≥ 1; default: all cores): each experiment fans its
//! cells over the pool and its output is buffered whole before
//! printing, so the report is byte-identical for every `N`.
//!
//! With `--shards HOST:PORT[,HOST:PORT...]` (or `CBRAIN_SHARDS`),
//! compile misses scatter over a fleet of `cbrand` daemons instead of
//! the local pool — same report, remote compilation.
//!
//! With `--journal PATH` (or `CBRAIN_JOURNAL`), every completed
//! experiment cell is appended to a durable run journal; adding
//! `--resume` (or `CBRAIN_RESUME=1`) replays journaled cells verbatim
//! instead of re-simulating them, so a sweep killed mid-run and
//! restarted produces byte-identical stdout to an uninterrupted one.
//! All journal notices go to stderr.

use cbrain::config::{shard_list, EnvConfig, FlagError, FlagSpec, Flags};
use cbrain::journal::{digest, Cell, Journal};

const FLAGS: &[FlagSpec] = &[
    ("--jobs", Some("N")),
    ("--shards", Some("HOST:PORT[,HOST:PORT...]")),
    ("--journal", Some("PATH")),
    ("--resume", None),
];

struct Args {
    jobs: usize,
    shards: Option<Vec<String>>,
    journal: Option<String>,
    resume: bool,
}

/// Reads the flags, each falling back to its environment variable
/// (flag beats environment; environment beats nothing).
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
    let journal = flags.read("--journal", |path| {
        Some(path.to_owned())
            .filter(|p| !p.trim().is_empty())
            .ok_or_else(|| FlagError("--journal expects a file path".into()))
    })?;
    Ok(Args {
        jobs: flags.jobs()?,
        shards: shards.or_else(|| env.shards()),
        journal: journal.or_else(|| env.journal_file().map(|p| p.display().to_string())),
        resume: flags.switch("--resume") || env.resume(),
    })
}

fn main() {
    let Args {
        jobs,
        shards,
        journal,
        resume,
    } = cbrain_bench::args::from_args(env!("CARGO_BIN_NAME"), FLAGS, |flags| {
        args(flags, &EnvConfig::load())
    });
    let mut provenance = format!("local;jobs={jobs}");
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
        provenance = format!("{};jobs={jobs}", router.provenance());
        cbrain_bench::cache::install_fleet(router);
    }
    let mut journal = journal.map(|path| {
        let (journal, note) = Journal::open_or_fresh(path);
        eprintln!("{note}");
        journal
    });
    if resume && journal.is_none() {
        eprintln!("journal: --resume has no effect without --journal (or CBRAIN_JOURNAL)");
    }

    let _cache = cbrain_bench::cache::init_for_binary();
    let cells = cbrain_bench::drivers::all_reports(jobs);
    let total = cells.len();
    for (done, (name, report)) in cells.into_iter().enumerate() {
        println!("{}", "=".repeat(78));
        let replay = if resume {
            journal
                .as_ref()
                .and_then(|j| j.replayable(name))
                .map(|cell| cell.output.clone())
        } else {
            None
        };
        let out = match replay {
            Some(out) => {
                eprintln!("journal: {name} already complete; replaying recorded output");
                out
            }
            None => {
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(report))
                    .unwrap_or_else(|_| panic!("{name} failed"));
                if let Some(j) = journal.as_mut() {
                    let cell = Cell {
                        name: name.to_owned(),
                        digest: digest(&out),
                        provenance: provenance.clone(),
                        output: out.clone(),
                    };
                    if let Err(e) = j.append(cell) {
                        eprintln!("journal: append for {name} failed: {e}");
                    }
                }
                out
            }
        };
        print!("{out}");
        println!();
        if journal.is_some() {
            eprintln!("journal: {}/{total} cells complete", done + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbrain::config::{ENV_JOURNAL, ENV_RESUME, ENV_SHARDS};

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
        let env = [
            (ENV_SHARDS, "b:2"),
            (ENV_JOURNAL, "env.bin"),
            (ENV_RESUME, "1"),
        ];
        let given = read("--jobs 3 --shards a:1,c:3 --journal flag.bin --resume", &[]).unwrap();
        assert_eq!(given.jobs, 3);
        assert_eq!(given.shards, Some(vec!["a:1".into(), "c:3".into()]));
        assert_eq!(given.journal.as_deref(), Some("flag.bin"));
        assert!(given.resume);
        let flagged = read("--shards a:1 --journal flag.bin", &env).unwrap();
        assert_eq!(flagged.shards, Some(vec!["a:1".into()]));
        assert_eq!(flagged.journal.as_deref(), Some("flag.bin"));
        let from_env = read("", &env).unwrap();
        assert_eq!(from_env.shards, Some(vec!["b:2".into()]));
        assert_eq!(from_env.journal.as_deref(), Some("env.bin"));
        assert!(from_env.resume);
        let neither = read("", &[]).unwrap();
        assert_eq!(neither.jobs, cbrain::available_jobs());
        assert_eq!(
            (neither.shards, neither.journal, neither.resume),
            (None, None, false)
        );
    }

    #[test]
    fn bad_values_are_usage_errors() {
        let err = |line: &str| read(line, &[]).err().expect(line).0;
        assert_eq!(
            err("--shards ,"),
            "--shards expects HOST:PORT[,HOST:PORT...], got `,`"
        );
        assert_eq!(err("--shards"), "--shards needs a value");
        assert_eq!(err("--journal"), "--journal needs a value");
        assert_eq!(err("--jobs 0"), "--jobs must be at least 1");
        assert_eq!(err("--jobs=2"), "unknown flag `--jobs=2`");
    }
}
