//! Argument parsing for the `cbrain` binary. The grammar and its error
//! messages belong to the workspace's one flag parser,
//! [`cbrain::config::Flags`]; this module names each subcommand's flags
//! and reads them into typed arguments.

use cbrain::config::{FlagSpec, Flags};
use cbrain::{Policy, Workload};
use cbrain_sim::{AcceleratorConfig, PeConfig};

/// A fully parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `cbrain run ...` — simulate a network under a policy.
    Run(RunArgs),
    /// `cbrain schedule ...` — print the planned per-layer schedule.
    Schedule(ScheduleArgs),
    /// `cbrain scheme ...` — query Algorithm 2 for one layer shape.
    Scheme(SchemeArgs),
    /// `cbrain spec-check <file>` — validate a network spec file.
    SpecCheck {
        /// Path to the spec file.
        path: String,
    },
    /// `cbrain zoo` — list the built-in benchmark networks.
    Zoo,
    /// `cbrain cbrand-client ...` — submit a run to a `cbrand` daemon.
    Client(ClientArgs),
    /// `cbrain help` or `--help`.
    Help,
}

/// Arguments of `cbrain cbrand-client`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientArgs {
    /// Daemon address (`host:port`).
    pub connect: String,
    /// Network to submit (`None` when only `--stats`/`--shutdown`).
    pub network: Option<NetworkRef>,
    /// Parallelization policy.
    pub policy: Policy,
    /// PE array shape.
    pub pe: PeConfig,
    /// Clock in MHz.
    pub mhz: u64,
    /// Layer subset.
    pub workload: Workload,
    /// Images per run.
    pub batch: usize,
    /// Print the per-layer breakdown table.
    pub breakdown: bool,
    /// Query daemon cache counters after the run (or alone).
    pub stats: bool,
    /// Query daemon run-progress counters (protocol v2.1) after the run
    /// (or alone).
    pub progress: bool,
    /// Query the daemon's full metrics registry (protocol v2.2) after
    /// the run (or alone).
    pub metrics: bool,
    /// Ask the daemon to evict down to this many cached layers
    /// (least-recently-used first).
    pub evict: Option<u64>,
    /// Ask the daemon to save its cache and exit.
    pub shutdown: bool,
}

/// Arguments of `cbrain run`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Network source (zoo name or spec file).
    pub network: NetworkRef,
    /// Parallelization policy.
    pub policy: Policy,
    /// Accelerator configuration.
    pub config: AcceleratorConfig,
    /// Layer subset.
    pub workload: Workload,
    /// Images per run.
    pub batch: usize,
    /// Worker threads for the compile work-list (0 = auto-detect).
    pub jobs: usize,
    /// Print the per-layer breakdown table.
    pub breakdown: bool,
    /// Compiled-layer cache persistence: `None` (flag absent) keeps the
    /// run self-contained; `Some("auto")` uses the resolved user cache
    /// file; `Some(path)` an explicit file; `Some("off")` is explicit
    /// no-persistence.
    pub cache: Option<String>,
}

/// Arguments of `cbrain schedule`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleArgs {
    /// Network source.
    pub network: NetworkRef,
    /// Policy to plan with.
    pub policy: Policy,
    /// Accelerator configuration.
    pub config: AcceleratorConfig,
}

/// Arguments of `cbrain scheme`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeArgs {
    /// Input map count (per group).
    pub din: usize,
    /// Kernel size.
    pub k: usize,
    /// Stride.
    pub s: usize,
    /// PE configuration.
    pub pe: PeConfig,
}

/// Where a network comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkRef {
    /// A zoo network name (`alexnet`, `googlenet`, `vgg`, `nin`,
    /// `resnet18`, `mobilenet_dw`).
    Zoo(String),
    /// A network-spec file path.
    SpecFile(String),
}

/// Argument parsing error with a user-facing message: the workspace's
/// one usage-error type (see [`cbrain::config`]).
pub use cbrain::config::FlagError as ArgError;

fn fail<T>(msg: impl Into<String>) -> Result<T, ArgError> {
    Err(ArgError(msg.into()))
}

/// Parses a `TinxTout` PE description, e.g. `16x16` or `16x28`.
pub fn parse_pe(s: &str) -> Result<PeConfig, ArgError> {
    let Some((a, b)) = s.split_once('x') else {
        return fail(format!("--pe expects TinxTout, got `{s}`"));
    };
    let tin = a
        .parse::<usize>()
        .map_err(|_| ArgError(format!("bad Tin `{a}`")))?;
    let tout = b
        .parse::<usize>()
        .map_err(|_| ArgError(format!("bad Tout `{b}`")))?;
    if tin == 0 || tout == 0 {
        return fail("PE dimensions must be non-zero");
    }
    Ok(PeConfig::new(tin, tout))
}

/// Parses a policy name (`inter`, `intra`, `partition`, `inter-improved`,
/// `adpa-1`, `adpa-2`, `oracle`, `oracle-pruned`), plus this CLI's
/// historical aliases (`adap-1`, `adap-2`, `adaptive`). The canonical
/// vocabulary is [`Policy`]'s `FromStr`, shared with the wire protocol.
pub fn parse_policy(s: &str) -> Result<Policy, ArgError> {
    match s {
        "adap-1" => Ok(Policy::Adaptive {
            improved_inter: false,
        }),
        "adap-2" | "adaptive" => Ok(Policy::Adaptive {
            improved_inter: true,
        }),
        other => other.parse::<Policy>().map_err(|e| ArgError(e.to_string())),
    }
}

/// Parses a workload name via [`Workload`]'s `FromStr`.
pub fn parse_workload(s: &str) -> Result<Workload, ArgError> {
    s.parse::<Workload>().map_err(|_| {
        ArgError(format!(
            "unknown workload `{s}` (conv1|conv|conv+pool|full)"
        ))
    })
}

/// The flags that say what to simulate and on what, shared by `run` and
/// `cbrand-client`; `schedule` takes the first four.
const SHAPE: [FlagSpec; 7] = [
    ("--network", Some("NAME")),
    ("--spec", Some("FILE")),
    ("--policy", Some("POLICY")),
    ("--pe", Some("TinxTout")),
    ("--mhz", Some("N")),
    ("--workload", Some("W")),
    ("--batch", Some("N")),
];

/// What [`SHAPE`]'s flags select, with `cbrain run`'s defaults for the
/// ones not given.
struct Shape {
    network: Option<NetworkRef>,
    policy: Policy,
    pe: PeConfig,
    mhz: u64,
    workload: Workload,
    batch: usize,
}

fn shape(flags: &Flags) -> Result<Shape, ArgError> {
    let network = flags
        .last(&["--network", "--spec"])
        .map(|(flag, value)| match flag {
            "--network" => NetworkRef::Zoo(value.to_owned()),
            _ => NetworkRef::SpecFile(value.to_owned()),
        });
    Ok(Shape {
        network,
        policy: flags
            .read("--policy", parse_policy)?
            .unwrap_or(Policy::Adaptive {
                improved_inter: true,
            }),
        pe: flags
            .read("--pe", parse_pe)?
            .unwrap_or(PeConfig::new(16, 16)),
        mhz: flags.parsed("--mhz")?.unwrap_or(1000),
        workload: flags
            .read("--workload", parse_workload)?
            .unwrap_or(Workload::ConvAndPool),
        batch: flags.count("--batch")?.unwrap_or(1),
    })
}

/// The flags of each subcommand, `SHAPE`'s included, or `None` for an
/// unknown subcommand. `spec-check` takes its file as the one token
/// before its (no) flags.
fn table(sub: &str) -> Option<Vec<FlagSpec>> {
    let own: &[FlagSpec] = match sub {
        "run" => &[
            ("--jobs", Some("N")),
            ("--breakdown", None),
            ("--cache", Some("MODE")),
        ],
        "schedule" => return Some(SHAPE[..4].to_vec()),
        "scheme" => {
            return Some(vec![
                ("--din", Some("N")),
                ("--k", Some("K")),
                ("--s", Some("S")),
                ("--pe", Some("TinxTout")),
            ])
        }
        "cbrand-client" => &[
            ("--connect", Some("HOST:PORT")),
            ("--breakdown", None),
            ("--stats", None),
            ("--progress", None),
            ("--metrics", None),
            ("--evict", Some("N")),
            ("--shutdown", None),
        ],
        "spec-check" | "zoo" | "help" | "--help" | "-h" => return Some(Vec::new()),
        _ => return None,
    };
    Some([&SHAPE[..], own].concat())
}

/// Parses a full command line (without the program name).
///
/// # Errors
///
/// Returns an [`ArgError`] with a user-facing message on any malformed
/// input.
pub fn parse(tokens: &[String]) -> Result<Command, ArgError> {
    let Some(sub) = tokens.first() else {
        return Ok(Command::Help);
    };
    let table = table(sub)
        .ok_or_else(|| ArgError(format!("unknown command `{sub}` (try `cbrain help`)")))?;
    let mut rest = &tokens[1..];
    let mut path = String::new();
    if sub == "spec-check" {
        path = rest
            .first()
            .ok_or_else(|| ArgError("spec-check needs a file path".into()))?
            .clone();
        rest = &rest[1..];
    }
    let flags = Flags::parse(rest, &table)?;
    let shape = shape(&flags)?;
    let jobs = flags.count("--jobs")?.unwrap_or(0); // 0 = auto-detect at execution time
    let breakdown = flags.switch("--breakdown");
    let needs_network = |name: &str| {
        shape
            .network
            .clone()
            .ok_or_else(|| ArgError(format!("{name} needs --network or --spec")))
    };
    Ok(match sub.as_str() {
        "run" => Command::Run(RunArgs {
            network: needs_network("run")?,
            policy: shape.policy,
            config: AcceleratorConfig::with_pe(shape.pe).at_mhz(shape.mhz),
            workload: shape.workload,
            batch: shape.batch,
            jobs,
            breakdown,
            cache: flags.value("--cache").map(str::to_owned),
        }),
        "schedule" => Command::Schedule(ScheduleArgs {
            network: needs_network("schedule")?,
            policy: shape.policy,
            config: AcceleratorConfig::with_pe(shape.pe).at_mhz(shape.mhz),
        }),
        "scheme" => {
            let (Some(din), Some(k), Some(s)) = (
                flags.parsed("--din")?,
                flags.parsed("--k")?,
                flags.parsed("--s")?,
            ) else {
                return fail("scheme needs --din, --k and --s");
            };
            Command::Scheme(SchemeArgs {
                din,
                k,
                s,
                pe: shape.pe,
            })
        }
        "cbrand-client" => {
            let args = ClientArgs {
                connect: flags
                    .value("--connect")
                    .unwrap_or("127.0.0.1:7227")
                    .to_owned(),
                network: shape.network,
                policy: shape.policy,
                pe: shape.pe,
                mhz: shape.mhz,
                workload: shape.workload,
                batch: shape.batch,
                breakdown,
                stats: flags.switch("--stats"),
                progress: flags.switch("--progress"),
                metrics: flags.switch("--metrics"),
                evict: flags.parsed("--evict")?,
                shutdown: flags.switch("--shutdown"),
            };
            if args.network.is_none()
                && !args.stats
                && !args.progress
                && !args.metrics
                && args.evict.is_none()
                && !args.shutdown
            {
                return fail(
                    "cbrand-client needs --network/--spec, --stats, --progress, --metrics, --evict, or --shutdown",
                );
            }
            Command::Client(args)
        }
        "spec-check" => Command::SpecCheck { path },
        "zoo" => Command::Zoo,
        _ => Command::Help,
    })
}

/// The help text.
pub const HELP: &str = "\
cbrain — C-Brain (DAC 2016) accelerator reproduction

USAGE:
  cbrain run      --network <alexnet|googlenet|vgg|nin|resnet18|mobilenet_dw> | --spec <file>
                  [--policy inter|intra|partition|inter-improved|adpa-1|adpa-2|oracle|oracle-pruned]
                  [--pe TinxTout] [--mhz N] [--workload conv1|conv|conv+pool|full]
                  [--batch N] [--jobs N] [--breakdown] [--cache auto|off|PATH]
  cbrain schedule --network <name> | --spec <file> [--policy ...] [--pe TinxTout]
  cbrain scheme   --din N --k K --s S [--pe TinxTout]
  cbrain spec-check <file>
  cbrain zoo
  cbrain cbrand-client [--connect HOST:PORT] --network <name> | --spec <file>
                  [--policy ...] [--pe TinxTout] [--mhz N] [--workload ...]
                  [--batch N] [--breakdown] [--stats] [--progress] [--metrics]
                  [--evict N] [--shutdown]
  cbrain help

`run --cache` persists compiled layers across invocations (auto = the
user cache file, also honoured by the cbrand daemon). `cbrand-client`
submits the run to a cbrand daemon instead of simulating in-process;
the printed report is byte-identical to the equivalent `cbrain run`.
`cbrand-client --evict N` asks the daemon to drop least-recently-used
cached layers until at most N remain; `--progress` prints the daemon's
live run-progress counters; `--metrics` prints the daemon's full
metrics registry as one sorted JSON object (protocol v2.2).
";

#[cfg(test)]
mod tests {
    use super::*;
    use cbrain::Scheme;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parse_pe_variants() {
        assert_eq!(parse_pe("16x16").unwrap(), PeConfig::new(16, 16));
        assert_eq!(parse_pe("16x28").unwrap(), PeConfig::new(16, 28));
        assert!(parse_pe("16").is_err());
        assert!(parse_pe("0x16").is_err());
        assert!(parse_pe("axb").is_err());
    }

    #[test]
    fn parse_policy_variants() {
        assert_eq!(parse_policy("inter").unwrap(), Policy::Fixed(Scheme::Inter));
        assert_eq!(
            parse_policy("adpa-1").unwrap(),
            Policy::Adaptive {
                improved_inter: false
            }
        );
        assert_eq!(parse_policy("oracle").unwrap(), Policy::Oracle);
        assert!(parse_policy("magic").is_err());
    }

    #[test]
    fn run_command_full() {
        let cmd = parse(&toks(
            "run --network alexnet --policy adpa-2 --pe 32x32 --mhz 100 --workload conv1 --batch 8 --breakdown",
        ))
        .unwrap();
        let Command::Run(args) = cmd else {
            panic!("run expected")
        };
        assert_eq!(args.network, NetworkRef::Zoo("alexnet".into()));
        assert_eq!(args.config.pe, PeConfig::new(32, 32));
        assert_eq!(args.config.freq_mhz, 100);
        assert_eq!(args.workload, Workload::Conv1Only);
        assert_eq!(args.batch, 8);
        assert!(args.breakdown);
        assert!(parse(&toks("run --network alexnet --batch 0")).is_err());
        assert_eq!(parse(&toks("zoo")).unwrap(), Command::Zoo);
    }

    #[test]
    fn jobs_flag() {
        let Command::Run(args) = parse(&toks("run --network vgg --jobs 4")).unwrap() else {
            panic!("run expected")
        };
        assert_eq!(args.jobs, 4);
        let Command::Run(args) = parse(&toks("run --network vgg")).unwrap() else {
            panic!("run expected")
        };
        assert_eq!(args.jobs, 0); // auto-detect sentinel
        assert!(parse(&toks("run --network vgg --jobs 0")).is_err());
        assert!(parse(&toks("run --network vgg --jobs x")).is_err());
    }

    #[test]
    fn run_defaults() {
        let Command::Run(args) = parse(&toks("run --network vgg")).unwrap() else {
            panic!("run expected")
        };
        assert_eq!(
            args.policy,
            Policy::Adaptive {
                improved_inter: true
            }
        );
        assert_eq!(args.config.pe, PeConfig::new(16, 16));
        assert_eq!(args.workload, Workload::ConvAndPool);
        assert!(!args.breakdown);
    }

    #[test]
    fn run_requires_network() {
        assert!(parse(&toks("run --policy inter")).is_err());
    }

    #[test]
    fn spec_source() {
        let Command::Run(args) = parse(&toks("run --spec net.spec")).unwrap() else {
            panic!("run expected")
        };
        assert_eq!(args.network, NetworkRef::SpecFile("net.spec".into()));
    }

    #[test]
    fn scheme_command() {
        let Command::Scheme(args) = parse(&toks("scheme --din 3 --k 11 --s 4")).unwrap() else {
            panic!("scheme expected")
        };
        assert_eq!((args.din, args.k, args.s), (3, 11, 4));
        assert!(parse(&toks("scheme --din 3 --k 11")).is_err());
    }

    #[test]
    fn spec_check_command() {
        assert_eq!(
            parse(&toks("spec-check foo.spec")).unwrap(),
            Command::SpecCheck {
                path: "foo.spec".into()
            }
        );
        assert!(parse(&toks("spec-check")).is_err());
    }

    #[test]
    fn cache_flag() {
        let Command::Run(args) = parse(&toks("run --network vgg")).unwrap() else {
            panic!("run expected")
        };
        assert_eq!(args.cache, None);
        let Command::Run(args) = parse(&toks("run --network vgg --cache auto")).unwrap() else {
            panic!("run expected")
        };
        assert_eq!(args.cache.as_deref(), Some("auto"));
        let Command::Run(args) = parse(&toks("run --network vgg --cache /tmp/c.bin")).unwrap()
        else {
            panic!("run expected")
        };
        assert_eq!(args.cache.as_deref(), Some("/tmp/c.bin"));
    }

    #[test]
    fn pruned_oracle_policy_parses() {
        assert_eq!(parse_policy("oracle-pruned").unwrap(), Policy::OraclePruned);
    }

    #[test]
    fn client_command() {
        let Command::Client(args) = parse(&toks(
            "cbrand-client --connect 127.0.0.1:9000 --network nin --batch 4 --stats",
        ))
        .unwrap() else {
            panic!("client expected")
        };
        assert_eq!(args.connect, "127.0.0.1:9000");
        assert_eq!(args.network, Some(NetworkRef::Zoo("nin".into())));
        assert_eq!(args.batch, 4);
        assert!(args.stats);
        assert!(!args.shutdown);
        // A pure control connection needs no network.
        let Command::Client(args) = parse(&toks("cbrand-client --shutdown")).unwrap() else {
            panic!("client expected")
        };
        assert!(args.shutdown);
        // But doing nothing at all is an error.
        assert!(parse(&toks("cbrand-client")).is_err());
        assert!(parse(&toks("cbrand-client --jobs 2")).is_err());
    }

    #[test]
    fn progress_flag() {
        // A pure progress query is a valid control connection on its own.
        let Command::Client(args) = parse(&toks("cbrand-client --progress")).unwrap() else {
            panic!("client expected")
        };
        assert!(args.progress);
        assert!(args.network.is_none());
        let Command::Client(args) =
            parse(&toks("cbrand-client --network nin --progress --stats")).unwrap()
        else {
            panic!("client expected")
        };
        assert!(args.progress && args.stats);
    }

    #[test]
    fn metrics_flag() {
        // A pure metrics query is a valid control connection on its own.
        let Command::Client(args) = parse(&toks("cbrand-client --metrics")).unwrap() else {
            panic!("client expected")
        };
        assert!(args.metrics);
        assert!(args.network.is_none());
        let Command::Client(args) = parse(&toks("cbrand-client --network nin --metrics")).unwrap()
        else {
            panic!("client expected")
        };
        assert!(args.metrics && args.network.is_some());
    }

    #[test]
    fn evict_flag() {
        let Command::Client(args) = parse(&toks("cbrand-client --evict 64")).unwrap() else {
            panic!("client expected")
        };
        assert_eq!(args.evict, Some(64));
        assert!(args.network.is_none());
        assert!(parse(&toks("cbrand-client --evict many")).is_err());
    }

    #[test]
    fn schedule_rejects_the_run_flags_it_does_not_use() {
        let Command::Schedule(args) =
            parse(&toks("schedule --spec n.spec --policy oracle --pe 32x32")).unwrap()
        else {
            panic!("schedule expected")
        };
        assert_eq!(args.network, NetworkRef::SpecFile("n.spec".into()));
        assert_eq!(args.policy, Policy::Oracle);
        assert_eq!(args.config.pe, PeConfig::new(32, 32));
        for extra in [
            "--batch 4",
            "--jobs 2",
            "--workload conv1",
            "--mhz 100",
            "--breakdown",
            "--cache c.bin",
            "--journal j.bin",
            "--resume",
        ] {
            let flag = extra.split_whitespace().next().unwrap();
            let err =
                parse(&toks(&format!("schedule --network alexnet {extra}"))).expect_err(extra);
            assert_eq!(err.0, format!("unknown flag `{flag}`"));
        }
    }

    #[test]
    fn help_lists_exactly_the_flags_each_subcommand_accepts() {
        let usage = HELP.split("USAGE:\n").nth(1).unwrap();
        let usage = usage.split("\n\n").next().unwrap();
        let mut listed: Vec<(&str, Vec<&str>)> = Vec::new();
        for line in usage.lines() {
            let mut words = line.split_whitespace();
            if line.starts_with("  cbrain ") {
                words.next();
                listed.push((words.next().unwrap(), Vec::new()));
            }
            let flags = &mut listed.last_mut().unwrap().1;
            for word in words.map(|w| w.trim_start_matches('[')) {
                if word.starts_with("--") {
                    let end = word
                        .find(|c: char| !c.is_ascii_lowercase() && c != '-')
                        .unwrap_or(word.len());
                    flags.push(&word[..end]);
                }
            }
        }
        let subs: Vec<&str> = listed.iter().map(|(sub, _)| *sub).collect();
        assert_eq!(
            subs,
            [
                "run",
                "schedule",
                "scheme",
                "spec-check",
                "zoo",
                "cbrand-client",
                "help"
            ]
        );
        for (sub, mut flags) in listed {
            let mut accepted: Vec<&str> = table(sub).unwrap().iter().map(|(n, _)| *n).collect();
            flags.sort_unstable();
            accepted.sort_unstable();
            assert_eq!(flags, accepted, "`cbrain {sub}`");
        }
    }

    #[test]
    fn every_subcommand_rejects_a_misspelt_flag() {
        for sub in ["run", "schedule", "scheme", "zoo", "cbrand-client", "help"] {
            for tail in ["--jbos 2", "--jbos"] {
                let err = parse(&toks(&format!("{sub} --network vgg {tail}")))
                    .or_else(|_| parse(&toks(&format!("{sub} {tail}"))))
                    .expect_err(sub);
                assert_eq!(err.0, "unknown flag `--jbos`", "`cbrain {sub} {tail}`");
            }
        }
        let err = parse(&toks("spec-check f.spec --jbos 2")).unwrap_err();
        assert_eq!(err.0, "unknown flag `--jbos`");
        let err = parse(&toks("run --network vgg --batch")).unwrap_err();
        assert_eq!(err.0, "--batch needs a value");
        let err = parse(&toks("run --network nin --journal x")).unwrap_err();
        assert_eq!(err.0, "unknown flag `--journal`");
    }

    #[test]
    fn help_and_unknown() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&toks("--help")).unwrap(), Command::Help);
        assert!(parse(&toks("frobnicate")).is_err());
        assert!(parse(&toks("run --network alexnet --frob")).is_err());
    }
}
