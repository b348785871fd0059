//! Command implementations. Each returns its output as a `String` so the
//! logic is unit-testable; `main` only prints.

use crate::args::{ClientArgs, NetworkRef, RunArgs, ScheduleArgs, SchemeArgs};
use cbrain::partition_math::{partition, unroll_duplication};
use cbrain::persist;
use cbrain::report::{render_run_report, render_table};
use cbrain::schedule::plan_network;
use cbrain::{select_scheme, RunOptions, Runner, Scheme};
use cbrain_model::{spec, ConvParams, Network};
use cbrain_serve::wire::{Event, NetworkSource, Request, RunRequest};
use cbrain_serve::Client;
use std::fmt;
use std::path::PathBuf;

/// Error from executing a command.
#[derive(Debug)]
pub enum CommandError {
    /// Unknown zoo network or unreadable/invalid spec file.
    Network(String),
    /// Simulation error.
    Run(cbrain::RunError),
    /// Failure talking to a `cbrand` daemon.
    Serve(String),
}

impl fmt::Display for CommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommandError::Network(m) => write!(f, "{m}"),
            CommandError::Run(e) => write!(f, "{e}"),
            CommandError::Serve(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CommandError {}

impl From<cbrain::RunError> for CommandError {
    fn from(e: cbrain::RunError) -> Self {
        CommandError::Run(e)
    }
}

/// Resolves a network reference (zoo name or spec file).
///
/// # Errors
///
/// Returns [`CommandError::Network`] for unknown names, unreadable files
/// or invalid specs.
pub fn resolve_network(net: &NetworkRef) -> Result<Network, CommandError> {
    match net {
        NetworkRef::Zoo(name) => cbrain_model::zoo::by_name(name).ok_or_else(|| {
            CommandError::Network(format!(
                "unknown network `{name}` (alexnet|googlenet|vgg|nin|resnet18|mobilenet_dw)"
            ))
        }),
        NetworkRef::SpecFile(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CommandError::Network(format!("cannot read `{path}`: {e}")))?;
            spec::parse(&text).map_err(|e| CommandError::Network(format!("{path}: {e}")))
        }
    }
}

/// Resolves a `--cache` flag value to a file path, if persistence is on.
fn cache_file(mode: Option<&str>) -> Option<PathBuf> {
    match mode {
        None | Some("off") => None,
        Some("auto") => persist::resolved_cache_file(),
        Some(path) => Some(PathBuf::from(path)),
    }
}

/// `cbrain run`.
///
/// Without `--cache` the run is self-contained (fresh in-memory cache).
/// With it, compiled layers are loaded from / saved to the cache file,
/// so a repeated run reports hits on every previously compiled layer.
/// Persistence notices go to stderr; stdout carries only the report.
///
/// # Errors
///
/// Propagates network-resolution and simulation errors. Cache-file
/// problems are downgraded to stderr warnings — a stale or corrupt file
/// must never fail a run.
pub fn run(args: &RunArgs) -> Result<String, CommandError> {
    let net = resolve_network(&args.network)?;
    let jobs = if args.jobs == 0 {
        cbrain::available_jobs()
    } else {
        args.jobs
    };
    let runner = Runner::with_options(
        args.config,
        RunOptions {
            workload: args.workload,
            batch: args.batch,
            jobs,
            ..RunOptions::default()
        },
    );
    let path = cache_file(args.cache.as_deref());
    if let Some(path) = &path {
        eprintln!("cache: {}", persist::load_or_cold(runner.cache(), path));
    }
    let report = runner.run_network(&net, args.policy)?;
    if let Some(path) = &path {
        match persist::save(runner.cache(), path) {
            Ok(entries) => {
                eprintln!("cache: saved {entries} entries to {}", path.display());
            }
            Err(e) => eprintln!("cache: save to {} failed: {e}", path.display()),
        }
    }
    Ok(render_run_report(&report, args.breakdown))
}

/// `cbrain cbrand-client`: submit a run to a `cbrand` daemon and print
/// the streamed report. Per-layer progress goes to stderr as lines
/// arrive; stdout is the reconstructed report, byte-identical to the
/// `cbrain run` of the same request.
///
/// # Errors
///
/// Returns [`CommandError::Serve`] for connect/protocol/daemon errors
/// and [`CommandError::Network`] for an unreadable spec file.
pub fn client(args: &ClientArgs) -> Result<String, CommandError> {
    // The builder's defaults fit an interactive CLI: one transport
    // attempt (fail fast on a typo'd address), but patience with a
    // daemon that is up and shedding — busy answers are retried after
    // the daemon's hint for up to the builder's busy-wait budget.
    let mut client = Client::builder(&args.connect)
        .connect()
        .map_err(|e| CommandError::Serve(format!("cannot connect to {}: {e}", args.connect)))?;
    let mut out = String::new();
    if let Some(network) = &args.network {
        let source = match network {
            NetworkRef::Zoo(name) => NetworkSource::Zoo(name.clone()),
            NetworkRef::SpecFile(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| CommandError::Network(format!("cannot read `{path}`: {e}")))?;
                NetworkSource::Spec(text)
            }
        };
        let run = RunRequest {
            network: source,
            policy: args.policy,
            workload: args.workload,
            batch: args.batch,
            pe: (args.pe.tin, args.pe.tout),
            mhz: Some(args.mhz),
        };
        let report = client
            .simulate(&run, |layer| {
                eprintln!("layer {:<12} {:>14} cycles", layer.name, layer.stats.cycles);
            })
            .map_err(|e| CommandError::Serve(e.to_string()))?;
        out.push_str(&render_run_report(&report, args.breakdown));
    }
    if args.stats {
        let terminal = client
            .submit(&Request::Stats, |_| {})
            .map_err(|e| CommandError::Serve(e.to_string()))?;
        if let Event::Stats {
            entries,
            hits,
            misses,
            requests,
            accepted,
            queued,
            shed,
            in_flight,
        } = terminal
        {
            out.push_str(&format!(
                "daemon: {entries} cached layers, {hits} hits / {misses} misses, {requests} requests served\n"
            ));
            out.push_str(&format!(
                "daemon admission: accepted {accepted}, queued {queued}, shed {shed}, in-flight {in_flight}\n"
            ));
        }
    }
    if args.progress {
        let terminal = client
            .submit(&Request::Progress, |_| {})
            .map_err(|e| CommandError::Serve(e.to_string()))?;
        if let Event::Progress {
            runs_active,
            runs_done,
            layers_done,
            layers_total,
        } = terminal
        {
            out.push_str(&format!(
                "daemon progress: {runs_active} runs active, {runs_done} completed, \
                 {layers_done}/{layers_total} layer cells in flight\n"
            ));
        }
    }
    if args.metrics {
        let terminal = client
            .submit(&Request::Metrics, |_| {})
            .map_err(|e| CommandError::Serve(e.to_string()))?;
        if let Event::Metrics { metrics } = terminal {
            // The exposition contract says members arrive sorted by
            // name; holding the daemon to it keeps scrapes diffable.
            if let cbrain_serve::json::Value::Obj(members) = &metrics {
                if members.windows(2).any(|w| w[0].0 >= w[1].0) {
                    return Err(CommandError::Serve(
                        "daemon metrics keys are not sorted".into(),
                    ));
                }
            }
            out.push_str(&metrics.encode());
            out.push('\n');
        }
    }
    if let Some(max) = args.evict {
        let terminal = client
            .submit(&Request::Evict { max }, |_| {})
            .map_err(|e| CommandError::Serve(e.to_string()))?;
        if let Event::Evicted { evicted, entries } = terminal {
            out.push_str(&format!(
                "daemon: evicted {evicted} entries ({entries} remain)\n"
            ));
        }
    }
    if args.shutdown {
        client
            .submit(&Request::Shutdown, |_| {})
            .map_err(|e| CommandError::Serve(e.to_string()))?;
        out.push_str("daemon shut down\n");
    }
    Ok(out)
}

/// `cbrain schedule`.
///
/// # Errors
///
/// Propagates network-resolution and planning errors.
pub fn schedule(args: &ScheduleArgs) -> Result<String, CommandError> {
    let net = resolve_network(&args.network)?;
    let plan = plan_network(&net, args.policy, &args.config, true)?;
    let rows: Vec<Vec<String>> = plan
        .layers
        .iter()
        .map(|l| {
            vec![
                l.name.clone(),
                l.scheme.map_or("-".into(), |s| s.to_string()),
                l.input_layout.to_string(),
                l.output_layout.to_string(),
            ]
        })
        .collect();
    let mut out = format!(
        "schedule for {} under {} on PE {}\n",
        plan.network, plan.policy, args.config.pe
    );
    out.push_str(&render_table(
        &["layer", "scheme", "input layout", "output layout"],
        &rows,
    ));
    out.push_str(&format!(
        "{} scheme switches, {} layout transforms\n",
        plan.scheme_switches(),
        plan.transform_count()
    ));
    Ok(out)
}

/// `cbrain scheme`: Algorithm 2 plus the Eq. 1/Eq. 2 numbers for a layer
/// shape.
pub fn scheme(args: &SchemeArgs) -> String {
    let cfg = cbrain_sim::AcceleratorConfig::with_pe(args.pe);
    let params = ConvParams::new(args.din, 1, args.k, args.s, 0);
    let chosen = select_scheme(&params, &cfg, true);
    let mut out = format!(
        "Din={} k={} s={} on PE {} -> {}\n",
        args.din, args.k, args.s, args.pe, chosen
    );
    match chosen {
        Scheme::Partition => {
            let (g, ks) = partition(args.k, args.s);
            out.push_str(&format!(
                "  Eq.2: {g}x{g} sub-kernels of {ks}x{ks} ({} pieces, {:.1}% padding overhead)\n",
                g * g,
                ((g * ks * g * ks) as f64 / (args.k * args.k) as f64 - 1.0) * 100.0
            ));
        }
        Scheme::Intra => {
            out.push_str("  k == s: true sliding window, no unrolling needed\n");
        }
        Scheme::Inter | Scheme::InterImproved => {
            let t = unroll_duplication(64, 64, args.k, args.s);
            out.push_str(&format!(
                "  deep input: inter-kernel vectorizes over Din (unrolling would cost {t:.1}x)\n"
            ));
        }
    }
    out
}

/// `cbrain zoo`: list the built-in networks with their Table 2 row.
pub fn zoo_list() -> String {
    let rows: Vec<Vec<String>> = cbrain_model::zoo::all()
        .iter()
        .map(|net| {
            let c1 = net.conv1().as_conv().expect("conv1");
            vec![
                net.name().to_owned(),
                format!("{},{},{},{}", c1.in_maps, c1.kernel, c1.stride, c1.out_maps),
                net.conv_layers().count().to_string(),
                net.kernel_types()
                    .iter()
                    .map(usize::to_string)
                    .collect::<Vec<_>>()
                    .join(","),
            ]
        })
        .collect();
    render_table(
        &["network", "conv1 (Din,k,s,Dout)", "#conv", "kernels"],
        &rows,
    )
}

/// `cbrain spec-check`.
///
/// # Errors
///
/// Returns [`CommandError::Network`] for unreadable or invalid specs.
pub fn spec_check(path: &str) -> Result<String, CommandError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CommandError::Network(format!("cannot read `{path}`: {e}")))?;
    let net = spec::parse(&text).map_err(|e| CommandError::Network(format!("{path}: {e}")))?;
    Ok(format!(
        "{path}: ok — network `{}`, {} layers ({} conv), {} MACs\n",
        net.name(),
        net.layers().len(),
        net.conv_layers().count(),
        net.total_macs()
            .map(|m| m.to_string())
            .unwrap_or_else(|_| "?".into()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{parse, Command};
    use cbrain_sim::PeConfig;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn run_zoo_network() {
        let Command::Run(args) = parse(&toks(
            "run --network alexnet --policy inter --workload conv1",
        ))
        .unwrap() else {
            panic!("run expected")
        };
        let out = run(&args).unwrap();
        assert!(out.contains("alexnet"));
        assert!(out.contains("inter"));
        assert!(out.contains("cycles"));
    }

    #[test]
    fn run_with_breakdown() {
        let Command::Run(args) = parse(&toks("run --network nin --breakdown")).unwrap() else {
            panic!("run expected")
        };
        let out = run(&args).unwrap();
        assert!(out.contains("conv1"));
        assert!(out.contains("cccp1"));
    }

    #[test]
    fn run_unknown_network_fails_cleanly() {
        let Command::Run(args) = parse(&toks("run --network lenet")).unwrap() else {
            panic!("run expected")
        };
        let err = run(&args).unwrap_err();
        assert!(err.to_string().contains("lenet"));
    }

    #[test]
    fn schedule_renders_plan() {
        let Command::Schedule(args) =
            parse(&toks("schedule --network alexnet --policy adpa-2")).unwrap()
        else {
            panic!("schedule expected")
        };
        let out = schedule(&args).unwrap();
        assert!(out.contains("partition"));
        assert!(out.contains("scheme switches"));
    }

    #[test]
    fn scheme_explains_decision() {
        let out = scheme(&SchemeArgs {
            din: 3,
            k: 11,
            s: 4,
            pe: PeConfig::new(16, 16),
        });
        assert!(out.contains("partition"));
        assert!(out.contains("3x3 sub-kernels of 4x4"));

        let out = scheme(&SchemeArgs {
            din: 256,
            k: 3,
            s: 1,
            pe: PeConfig::new(16, 16),
        });
        assert!(out.contains("inter"));
    }

    #[test]
    fn spec_check_round_trip() {
        let dir = std::env::temp_dir().join("cbrain_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.spec");
        std::fs::write(
            &path,
            "network tiny input 3x32x32\nconv c1 out=16 k=5 s=1 pad=2\n",
        )
        .unwrap();
        let out = spec_check(path.to_str().unwrap()).unwrap();
        assert!(out.contains("ok"));
        assert!(out.contains("tiny"));

        std::fs::write(&path, "network broken input 3x32\n").unwrap();
        assert!(spec_check(path.to_str().unwrap()).is_err());
        assert!(spec_check("/nonexistent/x.spec").is_err());
    }

    #[test]
    fn zoo_lists_four_networks() {
        let out = zoo_list();
        for name in ["alexnet", "googlenet", "vgg16", "nin"] {
            assert!(out.contains(name), "{out}");
        }
    }

    #[test]
    fn batched_run_reports_per_image_cost() {
        let Command::Run(args) =
            parse(&toks("run --network alexnet --workload full --batch 4")).unwrap()
        else {
            panic!("run expected")
        };
        let out = run(&args).unwrap();
        assert!(out.contains("cycles/image"));
    }

    #[test]
    fn run_from_spec_file() {
        let dir = std::env::temp_dir().join("cbrain_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("runnable.spec");
        std::fs::write(
            &path,
            "network custom input 3x64x64\nconv stem out=32 k=7 s=2 pad=3\nconv mid out=64 k=3 s=1 pad=1\n",
        )
        .unwrap();
        let Command::Run(args) = parse(&toks(&format!(
            "run --spec {} --policy adpa-2",
            path.display()
        )))
        .unwrap() else {
            panic!("run expected")
        };
        let out = run(&args).unwrap();
        assert!(out.contains("custom"));
    }
}
