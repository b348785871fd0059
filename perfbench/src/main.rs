//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench [--workload sweep|infer|serve|all] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload is a closed loop with one op in flight, drives the
//! program only through its public API, and checks every op's output.
//! An untraced run (`--trace 0`) sets the workload up nine times, then
//! times ops for `--seconds` and prints the seven end-to-end metrics; a
//! traced run (`--trace 1`) profiles every workload, because the
//! per-layer metrics span all three, and writes its spans to
//! `out/spans-<workload>.jsonl`. Each report ends in one JSON line
//! with its metrics, so the last line of standard output is the last
//! workload's. See README.md.

mod digest;
mod infer;
mod measure;
mod serve;
mod sweep;
mod trace;

use measure::{end_to_end, median, result_line, run_phase, Metric, Outcome, Phase};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;

const USAGE: &str =
    "usage: perfbench [--workload sweep|infer|serve|all] [--seed N] [--seconds S] [--trace 0|1]";
/// Setups per untraced run; `setup_s` is their median. Each is about a
/// second of work, and the host changes speed every few seconds
/// (README.md): the median of more of them moves less with it.
const SETUP_REPS: usize = 9;

#[derive(Debug, Clone, Copy)]
enum Kind {
    Sweep,
    Infer,
    Serve,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::Sweep, Kind::Infer, Kind::Serve];

    fn name(self) -> &'static str {
        match self {
            Kind::Sweep => "sweep",
            Kind::Infer => "infer",
            Kind::Serve => "serve",
        }
    }

    /// Ops a traced phase runs at most; its untraced comparison phase
    /// runs half as many. A `sweep` op records ~700 spans, kept in
    /// memory until the run ends, and every `serve` request is another
    /// chance for the current daemon to stall (README.md), so `serve`
    /// traces two cycles of its 24 requests.
    fn trace_ops(self) -> u64 {
        match self {
            Kind::Serve => 48,
            Kind::Sweep | Kind::Infer => 300,
        }
    }
}

#[derive(Debug)]
struct Args {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Kind::ALL.to_vec(),
        seed: 1,
        seconds: 45.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                args.workloads = match value.as_str() {
                    "all" => Kind::ALL.to_vec(),
                    name => vec![*Kind::ALL
                        .iter()
                        .find(|k| k.name() == name)
                        .ok_or(format!("unknown workload `{name}`"))?],
                }
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad)?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Puts an op list in the order `seed` sets (Fisher-Yates).
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = cbrain::model::rng::XorShift64::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// A set-up workload.
enum Bench {
    Sweep(sweep::Sweep),
    Infer(infer::Infer),
    Serve(serve::Serve),
}

impl Bench {
    /// Runs the workload's fixed set-up, which ends in one untimed pass
    /// over its op list; returns the failed checks of that pass.
    fn setup(kind: Kind, seed: u64, rep: usize) -> Result<(Self, Vec<Outcome>), String> {
        let (bench, problems) = match kind {
            Kind::Sweep => sweep::Sweep::setup(seed).map(|(b, p)| (Bench::Sweep(b), p))?,
            Kind::Infer => infer::Infer::setup(seed).map(|(b, p)| (Bench::Infer(b), p))?,
            Kind::Serve => serve::Serve::setup(seed, rep).map(|(b, p)| (Bench::Serve(b), p))?,
        };
        Ok((bench, problems))
    }

    fn op(&mut self, n: u64, tracer: Option<&Arc<Tracer>>) -> Outcome {
        match self {
            Bench::Sweep(b) => b.op(n, tracer),
            Bench::Infer(b) => b.op(n, tracer),
            Bench::Serve(b) => b.op(n, tracer),
        }
    }

    fn digest(&self) -> u64 {
        match self {
            Bench::Sweep(b) => b.digest(),
            Bench::Infer(b) => b.digest(),
            Bench::Serve(b) => b.digest(),
        }
    }

    fn prepare_trace(&mut self, tracer: &Tracer) -> Result<(), String> {
        match self {
            Bench::Sweep(_) => Ok(()),
            Bench::Infer(b) => b.prepare_trace(tracer),
            Bench::Serve(b) => b.prepare_trace(),
        }
    }

    /// Work a traced phase of `ops` ops leaves for after its timing:
    /// `infer` replays the ops through the public executors. Returns the
    /// failed checks.
    fn after_trace(&self, tracer: &Tracer, ops: u64) -> Vec<Outcome> {
        match self {
            Bench::Infer(b) => b.replay_ops(tracer, ops),
            Bench::Sweep(_) | Bench::Serve(_) => Vec::new(),
        }
    }

    /// Per-layer metrics of a traced phase of `ops` ops, and the
    /// failures met while collecting them.
    fn layer_metrics(&mut self, spans: &[trace::Span], ops: u64) -> (Vec<Metric>, Vec<Outcome>) {
        match self {
            Bench::Sweep(b) => (b.layer_metrics(spans, ops), Vec::new()),
            Bench::Infer(b) => (b.layer_metrics(spans, ops), Vec::new()),
            Bench::Serve(b) => b.layer_metrics(spans),
        }
    }

    fn teardown(self) -> Result<(), String> {
        match self {
            Bench::Serve(b) => b.teardown(),
            Bench::Sweep(_) | Bench::Infer(_) => Ok(()),
        }
    }
}

/// Failure and op counts a run reports in its result line.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: u64,
}

impl Tally {
    fn phase(&mut self, p: &Phase) {
        self.attempted += p.attempted();
        self.failed += p.failed;
        self.wrong += p.wrong;
    }

    /// Counts failed checks outside the timed phase (set-up passes,
    /// teardown) and prints them.
    fn extra(&mut self, kind: Kind, what: &str, failures: &[Outcome]) {
        for f in failures {
            println!("{} {what} failure: {}", kind.name(), f.note);
            self.attempted += 1;
            self.failed += 1;
            self.wrong += u64::from(f.wrong);
        }
    }
}

fn print_phase(kind: Kind, label: &str, p: &Phase) {
    println!(
        "{} {label}: {} ops in {:.3} s ({} ok, {} failed), host steal {:.2}%",
        kind.name(),
        p.attempted(),
        p.wall_s,
        p.succeeded,
        p.failed,
        p.steal * 100.0
    );
    if let Some((at, why)) = &p.first_failure {
        println!("{} {label}: first failure at {at:.3} s: {why}", kind.name());
    }
}

fn print_metrics(kind: Kind, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{} {:<44} {:>16.6} {}",
            kind.name(),
            m.name,
            m.value,
            m.unit
        );
    }
}

fn teardown(kind: Kind, bench: Bench, tally: &mut Tally) {
    if let Err(e) = bench.teardown() {
        tally.extra(kind, "teardown", &[Outcome::fail(e)]);
    }
}

/// An untraced run of one workload: `SETUP_REPS` timed set-ups (the
/// first from process start), then the timed phase on the last one.
fn untraced(kind: Kind, args: &Args, process_start: Option<Instant>) -> Result<(), String> {
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut bench: Option<Bench> = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = bench.take() {
            teardown(kind, old, &mut tally);
        }
        let start = match (rep, process_start) {
            (0, Some(t)) => t,
            _ => Instant::now(),
        };
        let (b, failures) = Bench::setup(kind, args.seed, rep)?;
        setups.push(start.elapsed().as_secs_f64());
        tally.extra(kind, "setup", &failures);
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one setup ran");
    let phase = run_phase(args.seconds, u64::MAX, |n| bench.op(n, None));
    tally.phase(&phase);
    let digest = bench.digest();
    teardown(kind, bench, &mut tally);

    let metrics = end_to_end(median(&setups), &phase);
    print_phase(kind, "timed", &phase);
    let runs: Vec<String> = setups.iter().map(|s| format!("{s:.4}")).collect();
    println!("{} setups: {} s", kind.name(), runs.join(" "));
    println!("{} digest: {digest:016x}", kind.name());
    print_metrics(kind, &metrics);
    println!(
        "{}",
        result_line(tally.wrong == 0, tally.attempted, tally.failed, &metrics)
    );
    Ok(())
}

/// The traced run: for every workload a short untraced phase, then a
/// traced phase twice as long, both capped by `Kind::trace_ops`;
/// per-layer metrics come from the traced phase alone.
fn traced(args: &Args) -> Result<(), String> {
    let mut tally = Tally::default();
    let mut metrics = Vec::new();
    let slice = args.seconds / Kind::ALL.len() as f64;
    for kind in Kind::ALL {
        let tracer = Arc::new(Tracer::new());
        let (mut bench, failures) = Bench::setup(kind, args.seed, 0)?;
        tally.extra(kind, "setup", &failures);
        let plain = run_phase(slice / 3.0, kind.trace_ops() / 2, |n| bench.op(n, None));
        bench.prepare_trace(&tracer)?;
        let attrs = format!("\"workload\":\"{}\"", kind.name());
        let phase = run_phase(slice * 2.0 / 3.0, kind.trace_ops(), |n| {
            tracer.set_op(n);
            let id = tracer.begin("op", attrs.clone());
            let out = bench.op(n, Some(&tracer));
            tracer.end(id, 0);
            out
        });
        let replayed = bench.after_trace(&tracer, phase.attempted());
        let spans = tracer.take_spans();
        let (mut layer, failures) = bench.layer_metrics(&spans, phase.succeeded);
        tally.phase(&plain);
        tally.phase(&phase);
        tally.extra(kind, "replay", &replayed);
        tally.extra(kind, "trace", &failures);
        teardown(kind, bench, &mut tally);
        layer.push(Metric::new(
            format!("{}.trace.overhead_pct", kind.name()),
            (1.0 - phase.ops_per_s() / plain.ops_per_s()) * 100.0,
            "%",
        ));
        let file = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
            .join(format!("spans-{}.jsonl", kind.name()));
        trace::write_jsonl(&spans, &file)
            .map_err(|e| format!("writing {}: {e}", file.display()))?;
        print_phase(kind, "untraced", &plain);
        print_phase(kind, "traced", &phase);
        println!(
            "{} spans: {} in {}",
            kind.name(),
            spans.len(),
            file.display()
        );
        print_metrics(kind, &layer);
        metrics.append(&mut layer);
    }
    println!(
        "{}",
        result_line(tally.wrong == 0, tally.attempted, tally.failed, &metrics)
    );
    Ok(())
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = if args.trace {
        traced(&args)
    } else {
        let mut start = Some(process_start);
        args.workloads
            .iter()
            .try_for_each(|&kind| untraced(kind, &args, start.take()))
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
