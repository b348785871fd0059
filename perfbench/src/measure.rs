//! The closed-loop timer, the end-to-end metrics it yields, and the
//! host readings (`/proc`) every run reports beside them.

use std::time::{Duration, Instant};

/// Result of one op, as its workload's output check judged it.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The op completed and its output checked out.
    pub ok: bool,
    /// The op produced an output that disagrees with the expected one
    /// (as opposed to an error answer or a missed deadline).
    pub wrong: bool,
    /// MACs the op accounts for (simulated or computed, per workload).
    pub macs: f64,
    /// Why the op failed, for the first-failure line.
    pub note: String,
}

impl Outcome {
    pub fn pass(macs: f64) -> Self {
        Self {
            ok: true,
            macs,
            ..Self::default()
        }
    }

    pub fn fail(note: impl Into<String>) -> Self {
        Self {
            note: note.into(),
            ..Self::default()
        }
    }

    pub fn wrong(note: impl Into<String>) -> Self {
        Self {
            wrong: true,
            ..Self::fail(note)
        }
    }
}

/// What one timed phase measured.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Latency of every attempted op, milliseconds, in op order.
    pub latencies_ms: Vec<f64>,
    pub succeeded: u64,
    pub failed: u64,
    pub wrong: u64,
    /// MACs of the successful ops.
    pub macs: f64,
    pub wall_s: f64,
    /// Seconds into the phase and cause of the first failed op.
    pub first_failure: Option<(f64, String)>,
    /// Share of all host CPU time the hypervisor stole during the phase.
    pub steal: f64,
}

impl Phase {
    pub fn attempted(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    pub fn ops_per_s(&self) -> f64 {
        self.succeeded as f64 / self.wall_s
    }
}

/// Runs `op` back to back (a closed loop with one op in flight) until
/// `seconds` have passed or `max_ops` ops have run; the op in progress
/// at the deadline completes and counts.
pub fn run_phase(seconds: f64, max_ops: u64, mut op: impl FnMut(u64) -> Outcome) -> Phase {
    let cpu_before = cpu_times();
    let start = Instant::now();
    let limit = Duration::from_secs_f64(seconds);
    let mut phase = Phase::default();
    let mut n = 0u64;
    while start.elapsed() < limit && n < max_ops {
        let t = Instant::now();
        let out = op(n);
        phase.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if out.ok {
            phase.succeeded += 1;
            phase.macs += out.macs;
        } else {
            phase.failed += 1;
            phase.wrong += u64::from(out.wrong);
            if phase.first_failure.is_none() {
                phase.first_failure = Some((start.elapsed().as_secs_f64(), out.note));
            }
        }
        n += 1;
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.steal = steal_share(cpu_before, cpu_times());
    phase
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted values.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` jiffies from the aggregate `cpu` line of `/proc/stat`.
fn cpu_times() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already inside user, so only the first eight add up.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// One named metric as the result line carries it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The seven end-to-end metrics of one workload's untimed setup and
/// timed phase.
pub fn end_to_end(setup_s: f64, phase: &Phase) -> Vec<Metric> {
    let attempted = phase.attempted().max(1) as f64;
    vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("ops_per_s", phase.ops_per_s(), "1/s"),
        Metric::new("latency_p50_ms", quantile(&phase.latencies_ms, 0.50), "ms"),
        Metric::new("latency_p95_ms", quantile(&phase.latencies_ms, 0.95), "ms"),
        Metric::new("macs_per_host_s", phase.macs / phase.wall_s, "1/s"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        Metric::new("success_ratio", phase.succeeded as f64 / attempted, "ratio"),
    ]
}

/// The result line: one JSON object, the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // Non-finite values have no JSON spelling; a metric with no
            // samples reads 0.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
