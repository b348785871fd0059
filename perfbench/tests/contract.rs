//! Short runs of each workload at a fixed seed: the result line carries
//! exactly the metrics `BENCHMARK.json` declares, with their units;
//! `sweep` and `infer` fail no op; and the digests of the expected
//! outputs repeat between runs.

use cbrain_serve::json::{self, Value};
use std::collections::BTreeMap;
use std::process::Command;

const MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

fn declared(list: &str) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(MANIFEST).expect("BENCHMARK.json is readable");
    let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
    doc.get(list)
        .and_then(Value::as_arr)
        .expect("the list is declared")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect("name and unit");
            (field("name").to_owned(), field("unit").to_owned())
        })
        .collect()
}

struct Run {
    stdout: String,
    result: Value,
}

impl Run {
    fn metrics(&self) -> BTreeMap<String, String> {
        let Some(Value::Obj(members)) = self.result.get("metrics") else {
            panic!("no metrics object in {:?}", self.result);
        };
        members
            .iter()
            .map(|(name, m)| {
                let unit = m.get("unit").and_then(Value::as_str).expect("a unit");
                assert!(
                    m.get("value").and_then(Value::as_f64).is_some(),
                    "{name} has a value"
                );
                (name.clone(), unit.to_owned())
            })
            .collect()
    }

    fn value(&self, metric: &str) -> f64 {
        self.result
            .get("metrics")
            .and_then(|m| m.get(metric))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .expect("metric present")
    }

    fn count(&self, key: &str) -> u64 {
        self.result
            .get(key)
            .and_then(Value::as_u64)
            .expect("a count")
    }

    fn line(&self, prefix: &str) -> &str {
        self.stdout
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{}", self.stdout))
    }
}

fn run(workload: &str, seconds: &str, trace: &str) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3"])
        .args(["--seconds", seconds, "--trace", trace])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the last line is JSON");
    Run { stdout, result }
}

fn check_untraced(workload: &str, must_not_fail: bool) {
    let first = run(workload, "1", "0");
    assert_eq!(first.metrics(), declared("end_to_end"), "{workload}");
    assert_eq!(
        first.result.get("correct").and_then(Value::as_bool),
        Some(true)
    );
    assert!(first.count("attempted") >= 1);
    if must_not_fail {
        assert_eq!(first.count("failed"), 0, "{}", first.stdout);
        assert_eq!(first.value("success_ratio"), 1.0);
    }
    let again = run(workload, "1", "0");
    let digest = format!("{workload} digest:");
    assert_eq!(first.line(&digest), again.line(&digest));
}

#[test]
fn sweep_reports_declared_metrics_without_failures_and_repeats_its_digest() {
    check_untraced("sweep", true);
}

#[test]
fn infer_reports_declared_metrics_without_failures_and_repeats_its_digest() {
    check_untraced("infer", true);
}

// A request that misses its deadline counts as a failed op, and the
// current daemon can stall (see README.md), so only wrong outputs fail
// this test.
#[test]
fn serve_reports_declared_metrics_and_repeats_its_digest() {
    check_untraced("serve", false);
}

#[test]
fn traced_run_reports_every_declared_layer_metric_and_writes_spans() {
    let traced = run("sweep", "3", "1");
    assert_eq!(traced.metrics(), declared("per_layer"));
    assert_eq!(
        traced.result.get("correct").and_then(Value::as_bool),
        Some(true)
    );
    for workload in ["sweep", "infer", "serve"] {
        let line = traced.line(&format!("{workload} spans:"));
        let path = line.rsplit(" in ").next().expect("a span file path");
        let spans = std::fs::read_to_string(path).expect("span file written");
        assert!(spans.lines().count() > 0, "{path} is empty");
        for l in spans.lines() {
            json::parse(l).expect("each span line is JSON");
        }
    }
}
