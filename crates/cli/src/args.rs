//! Argument parsing for the `cbrain` binary (hand-rolled; the project
//! deliberately keeps its dependency set to the offline-sanctioned crates).

use cbrain::{Policy, Workload};
use cbrain_sim::{AcceleratorConfig, PeConfig};
use std::fmt;

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
    /// `cbrain fleet-client ...` — run locally with compile misses
    /// scattered over a fleet of `cbrand` shards.
    FleetClient(FleetArgs),
    /// `cbrain help` or `--help`.
    Help,
}

/// Arguments of `cbrain fleet-client`.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetArgs {
    /// Shard addresses (`host:port`), in ring order. Empty when the
    /// flag was omitted — execution then falls back to the
    /// `CBRAIN_SHARDS` environment variable (flag beats environment).
    pub shards: Vec<String>,
    /// Ring seed for the rendezvous weights.
    pub seed: u64,
    /// Network to run.
    pub network: NetworkRef,
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
    /// Worker threads for locally recomputed keys (0 = auto-detect).
    pub jobs: usize,
    /// Print the per-layer breakdown table.
    pub breakdown: bool,
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
    /// Run-journal file: each completed run is appended as a journal
    /// cell (`None` = no journal; falls back to `CBRAIN_JOURNAL`).
    pub journal: Option<String>,
    /// Replay the journaled cell instead of re-simulating when the same
    /// run is already recorded (falls back to `CBRAIN_RESUME`).
    pub resume: bool,
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

/// Argument parsing error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

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

struct Flags<'a> {
    tokens: &'a [String],
    index: usize,
}

impl<'a> Flags<'a> {
    fn value(&mut self, flag: &str) -> Result<&'a str, ArgError> {
        self.index += 1;
        self.tokens
            .get(self.index)
            .map(String::as_str)
            .ok_or_else(|| ArgError(format!("{flag} needs a value")))
    }
}

type CommonArgs = (
    Option<NetworkRef>,
    Policy,
    AcceleratorConfig,
    Workload,
    usize,
    usize,
    bool,
    Option<String>,
    Option<String>,
    bool,
);

/// Parses `run`'s flags. A command that takes fewer passes `accepts`,
/// which names the flags it keeps; any other flag is unknown to it.
fn parse_common(tokens: &[String], accepts: fn(&str) -> bool) -> Result<CommonArgs, ArgError> {
    let mut network = None;
    let mut policy = Policy::Adaptive {
        improved_inter: true,
    };
    let mut pe = PeConfig::new(16, 16);
    let mut mhz = 1000u64;
    let mut workload = Workload::ConvAndPool;
    let mut batch = 1usize;
    let mut jobs = 0usize; // 0 = auto-detect at execution time
    let mut breakdown = false;
    let mut cache = None;
    let mut journal = None;
    let mut resume = false;

    let mut f = Flags { tokens, index: 0 };
    while f.index < tokens.len() {
        match tokens[f.index].as_str() {
            other if !accepts(other) => return fail(format!("unknown flag `{other}`")),
            "--network" => network = Some(NetworkRef::Zoo(f.value("--network")?.to_owned())),
            "--spec" => network = Some(NetworkRef::SpecFile(f.value("--spec")?.to_owned())),
            "--policy" => policy = parse_policy(f.value("--policy")?)?,
            "--pe" => pe = parse_pe(f.value("--pe")?)?,
            "--mhz" => {
                let v = f.value("--mhz")?;
                mhz = v
                    .parse()
                    .map_err(|_| ArgError(format!("bad --mhz `{v}`")))?;
            }
            "--workload" => workload = parse_workload(f.value("--workload")?)?,
            "--batch" => {
                let v = f.value("--batch")?;
                batch = v
                    .parse()
                    .map_err(|_| ArgError(format!("bad --batch `{v}`")))?;
                if batch == 0 {
                    return fail("--batch must be at least 1");
                }
            }
            "--jobs" => {
                let v = f.value("--jobs")?;
                jobs = v
                    .parse()
                    .map_err(|_| ArgError(format!("bad --jobs `{v}`")))?;
                if jobs == 0 {
                    return fail("--jobs must be at least 1");
                }
            }
            "--breakdown" => breakdown = true,
            "--cache" => cache = Some(f.value("--cache")?.to_owned()),
            "--journal" => journal = Some(f.value("--journal")?.to_owned()),
            "--resume" => resume = true,
            other => return fail(format!("unknown flag `{other}`")),
        }
        f.index += 1;
    }
    let config = AcceleratorConfig::with_pe(pe).at_mhz(mhz);
    Ok((
        network, policy, config, workload, batch, jobs, breakdown, cache, journal, resume,
    ))
}

fn parse_client(tokens: &[String]) -> Result<ClientArgs, ArgError> {
    let mut args = ClientArgs {
        connect: "127.0.0.1:7227".to_owned(),
        network: None,
        policy: Policy::Adaptive {
            improved_inter: true,
        },
        pe: PeConfig::new(16, 16),
        mhz: 1000,
        workload: Workload::ConvAndPool,
        batch: 1,
        breakdown: false,
        stats: false,
        progress: false,
        metrics: false,
        evict: None,
        shutdown: false,
    };
    let mut f = Flags { tokens, index: 0 };
    while f.index < tokens.len() {
        match tokens[f.index].as_str() {
            "--connect" => args.connect = f.value("--connect")?.to_owned(),
            "--network" => args.network = Some(NetworkRef::Zoo(f.value("--network")?.to_owned())),
            "--spec" => args.network = Some(NetworkRef::SpecFile(f.value("--spec")?.to_owned())),
            "--policy" => args.policy = parse_policy(f.value("--policy")?)?,
            "--pe" => args.pe = parse_pe(f.value("--pe")?)?,
            "--mhz" => {
                let v = f.value("--mhz")?;
                args.mhz = v
                    .parse()
                    .map_err(|_| ArgError(format!("bad --mhz `{v}`")))?;
            }
            "--workload" => args.workload = parse_workload(f.value("--workload")?)?,
            "--batch" => {
                let v = f.value("--batch")?;
                args.batch = v
                    .parse()
                    .map_err(|_| ArgError(format!("bad --batch `{v}`")))?;
                if args.batch == 0 {
                    return fail("--batch must be at least 1");
                }
            }
            "--breakdown" => args.breakdown = true,
            "--stats" => args.stats = true,
            "--progress" => args.progress = true,
            "--metrics" => args.metrics = true,
            "--evict" => {
                let v = f.value("--evict")?;
                args.evict = Some(
                    v.parse()
                        .map_err(|_| ArgError(format!("bad --evict `{v}`")))?,
                );
            }
            "--shutdown" => args.shutdown = true,
            other => return fail(format!("unknown flag `{other}`")),
        }
        f.index += 1;
    }
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
    Ok(args)
}

fn parse_fleet(tokens: &[String]) -> Result<FleetArgs, ArgError> {
    let mut shards: Vec<String> = Vec::new();
    let mut seed = 0u64;
    let mut network = None;
    let mut policy = Policy::Adaptive {
        improved_inter: true,
    };
    let mut pe = PeConfig::new(16, 16);
    let mut mhz = 1000u64;
    let mut workload = Workload::ConvAndPool;
    let mut batch = 1usize;
    let mut jobs = 0usize;
    let mut breakdown = false;

    let mut f = Flags { tokens, index: 0 };
    while f.index < tokens.len() {
        match tokens[f.index].as_str() {
            "--shards" => {
                shards = f
                    .value("--shards")?
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect();
            }
            "--seed" => {
                let v = f.value("--seed")?;
                seed = v
                    .parse()
                    .map_err(|_| ArgError(format!("bad --seed `{v}`")))?;
            }
            "--network" => network = Some(NetworkRef::Zoo(f.value("--network")?.to_owned())),
            "--spec" => network = Some(NetworkRef::SpecFile(f.value("--spec")?.to_owned())),
            "--policy" => policy = parse_policy(f.value("--policy")?)?,
            "--pe" => pe = parse_pe(f.value("--pe")?)?,
            "--mhz" => {
                let v = f.value("--mhz")?;
                mhz = v
                    .parse()
                    .map_err(|_| ArgError(format!("bad --mhz `{v}`")))?;
            }
            "--workload" => workload = parse_workload(f.value("--workload")?)?,
            "--batch" => {
                let v = f.value("--batch")?;
                batch = v
                    .parse()
                    .map_err(|_| ArgError(format!("bad --batch `{v}`")))?;
                if batch == 0 {
                    return fail("--batch must be at least 1");
                }
            }
            "--jobs" => {
                let v = f.value("--jobs")?;
                jobs = v
                    .parse()
                    .map_err(|_| ArgError(format!("bad --jobs `{v}`")))?;
                if jobs == 0 {
                    return fail("--jobs must be at least 1");
                }
            }
            "--breakdown" => breakdown = true,
            other => return fail(format!("unknown flag `{other}`")),
        }
        f.index += 1;
    }
    // An empty shard list is legal here: execution falls back to the
    // CBRAIN_SHARDS environment variable (and errors there if it is
    // empty too), so the flag can beat the environment.
    let network =
        network.ok_or_else(|| ArgError("fleet-client needs --network or --spec".into()))?;
    Ok(FleetArgs {
        shards,
        seed,
        network,
        policy,
        pe,
        mhz,
        workload,
        batch,
        jobs,
        breakdown,
    })
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
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "run" => {
            let (network, policy, config, workload, batch, jobs, breakdown, cache, journal, resume) =
                parse_common(&tokens[1..], |_| true)?;
            let network =
                network.ok_or_else(|| ArgError("run needs --network or --spec".into()))?;
            Ok(Command::Run(RunArgs {
                network,
                policy,
                config,
                workload,
                batch,
                jobs,
                breakdown,
                cache,
                journal,
                resume,
            }))
        }
        "zoo" => Ok(Command::Zoo),
        "cbrand-client" => Ok(Command::Client(parse_client(&tokens[1..])?)),
        "fleet-client" => Ok(Command::FleetClient(parse_fleet(&tokens[1..])?)),
        "schedule" => {
            let (network, policy, config, ..) = parse_common(&tokens[1..], |flag| {
                matches!(flag, "--network" | "--spec" | "--policy" | "--pe")
            })?;
            let network =
                network.ok_or_else(|| ArgError("schedule needs --network or --spec".into()))?;
            Ok(Command::Schedule(ScheduleArgs {
                network,
                policy,
                config,
            }))
        }
        "scheme" => {
            let mut din = None;
            let mut k = None;
            let mut s_ = None;
            let mut pe = PeConfig::new(16, 16);
            let rest = &tokens[1..];
            let mut f = Flags {
                tokens: rest,
                index: 0,
            };
            while f.index < rest.len() {
                match rest[f.index].as_str() {
                    "--din" => {
                        din = Some(
                            f.value("--din")?
                                .parse()
                                .map_err(|_| ArgError("bad --din".into()))?,
                        )
                    }
                    "--k" => {
                        k = Some(
                            f.value("--k")?
                                .parse()
                                .map_err(|_| ArgError("bad --k".into()))?,
                        )
                    }
                    "--s" => {
                        s_ = Some(
                            f.value("--s")?
                                .parse()
                                .map_err(|_| ArgError("bad --s".into()))?,
                        )
                    }
                    "--pe" => pe = parse_pe(f.value("--pe")?)?,
                    other => return fail(format!("unknown flag `{other}`")),
                }
                f.index += 1;
            }
            match (din, k, s_) {
                (Some(din), Some(k), Some(s)) => Ok(Command::Scheme(SchemeArgs { din, k, s, pe })),
                _ => fail("scheme needs --din, --k and --s"),
            }
        }
        "spec-check" => match tokens.get(1) {
            Some(path) => Ok(Command::SpecCheck { path: path.clone() }),
            None => fail("spec-check needs a file path"),
        },
        other => fail(format!("unknown command `{other}` (try `cbrain help`)")),
    }
}

/// The help text.
pub const HELP: &str = "\
cbrain — C-Brain (DAC 2016) accelerator reproduction

USAGE:
  cbrain run      --network <alexnet|googlenet|vgg|nin|resnet18|mobilenet_dw> | --spec <file>
                  [--policy inter|intra|partition|inter-improved|adpa-1|adpa-2|oracle|oracle-pruned]
                  [--pe TinxTout] [--mhz N] [--workload conv1|conv|conv+pool|full]
                  [--batch N] [--jobs N] [--breakdown] [--cache auto|off|PATH]
                  [--journal PATH] [--resume]
  cbrain schedule --network <name> | --spec <file> [--policy ...] [--pe TinxTout]
  cbrain scheme   --din N --k K --s S [--pe TinxTout]
  cbrain spec-check <file>
  cbrain zoo
  cbrain cbrand-client [--connect HOST:PORT] --network <name> | --spec <file>
                  [--policy ...] [--pe TinxTout] [--mhz N] [--workload ...]
                  [--batch N] [--breakdown] [--stats] [--progress] [--metrics]
                  [--evict N] [--shutdown]
  cbrain fleet-client [--shards HOST:PORT[,HOST:PORT...]] [--seed N]
                  --network <name> | --spec <file>
                  [--policy ...] [--pe TinxTout] [--mhz N] [--workload ...]
                  [--batch N] [--jobs N] [--breakdown]
  cbrain help

`run --cache` persists compiled layers across invocations (auto = the
user cache file, also honoured by the cbrand daemon). `run --journal`
appends the finished report to a durable run journal (CBRAIN_JOURNAL
sets a default path); with `--resume`, a run already recorded there is
replayed byte-identically instead of re-simulated. `cbrand-client`
submits the run to a cbrand daemon instead of simulating in-process;
the printed report is byte-identical to the equivalent `cbrain run`.
`cbrand-client --evict N` asks the daemon to drop least-recently-used
cached layers until at most N remain; `--progress` prints the daemon's
live run-progress counters; `--metrics` prints the daemon's full
metrics registry as one sorted JSON object (protocol v2.2).
`fleet-client` simulates locally
but scatters compile misses over a fleet of cbrand shards (rendezvous
hashing on the layer key); dead shards reroute or fall back to local
compilation, and the report stays byte-identical to `cbrain run`.
`fleet-client` without `--shards` reads the shard list from the
CBRAIN_SHARDS environment variable (comma-separated; the flag wins).
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
    fn journal_and_resume_flags() {
        let Command::Run(args) = parse(&toks("run --network vgg")).unwrap() else {
            panic!("run expected")
        };
        assert_eq!(args.journal, None);
        assert!(!args.resume);
        let Command::Run(args) =
            parse(&toks("run --network vgg --journal /tmp/j.bin --resume")).unwrap()
        else {
            panic!("run expected")
        };
        assert_eq!(args.journal.as_deref(), Some("/tmp/j.bin"));
        assert!(args.resume);
        assert!(parse(&toks("run --network vgg --journal")).is_err());
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
    fn fleet_client_command() {
        let Command::FleetClient(args) = parse(&toks(
            "fleet-client --shards 127.0.0.1:9000,127.0.0.1:9001 --network vgg --seed 7 --jobs 2",
        ))
        .unwrap() else {
            panic!("fleet-client expected")
        };
        assert_eq!(args.shards, vec!["127.0.0.1:9000", "127.0.0.1:9001"]);
        assert_eq!(args.seed, 7);
        assert_eq!(args.network, NetworkRef::Zoo("vgg".into()));
        assert_eq!(args.jobs, 2);
        // Defaults must match `cbrain run` for byte-identity.
        assert_eq!(
            args.policy,
            Policy::Adaptive {
                improved_inter: true
            }
        );
        assert_eq!(args.pe, PeConfig::new(16, 16));
        assert_eq!(args.batch, 1);
        // A network is mandatory; the shard list is not (an empty one
        // defers to CBRAIN_SHARDS at execution time).
        assert!(parse(&toks("fleet-client --shards 127.0.0.1:9000")).is_err());
        let Command::FleetClient(args) = parse(&toks("fleet-client --network vgg")).unwrap() else {
            panic!("fleet-client expected")
        };
        assert!(args.shards.is_empty());
        let Command::FleetClient(args) =
            parse(&toks("fleet-client --shards , --network vgg")).unwrap()
        else {
            panic!("fleet-client expected")
        };
        assert!(args.shards.is_empty());
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
    fn help_and_unknown() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&toks("--help")).unwrap(), Command::Help);
        assert!(parse(&toks("frobnicate")).is_err());
        assert!(parse(&toks("run --network alexnet --frob")).is_err());
    }
}
