//! Every workload runs end to end and traced in `--smoke` mode (1/50 of
//! the data and of the window), passes its own output checks, prints
//! exactly the declared metrics, and writes its span file; `compare` of
//! the result file against itself finds nothing to report.

use std::path::{Path, PathBuf};
use std::process::Command;

use skute_benchmark::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use skute_benchmark::json::{self, Json};

fn benchmark(args: &[&str], out: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_skute-benchmark"))
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("the benchmark binary runs")
}

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The span file holds individual spans, and they are those of the first
/// traced requests — whatever untraced work the run did before them.
fn kept_spans_start_at_the_first_traced_request(out: &Path, workload: &str) {
    let trace = out.join(format!("trace-{workload}.json"));
    let doc = json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
    assert!(spans.len() >= 10, "{workload}: {} spans kept", spans.len());
    let field = |span: &Json, name: &str| span.get(name).and_then(Json::as_f64).unwrap();
    assert!(
        spans.iter().any(|s| field(s, "request") == 0.0),
        "{workload}: no span of request 0"
    );
    let names: std::collections::BTreeSet<&str> = spans
        .iter()
        .map(|s| s.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let aggregates = doc.get("aggregates").and_then(Json::as_obj).unwrap();
    for (name, _) in aggregates {
        assert!(
            names.contains(name.as_str()),
            "{workload}: {name} is aggregated but no span of it was kept"
        );
    }
    if workload.starts_with("serve_") {
        // request ⊃ server.parse → core.<op> → server.write
        let root = spans
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some("request"))
            .expect("a request span");
        let children: Vec<&str> = spans
            .iter()
            .filter(|s| field(s, "parent") == field(root, "id"))
            .map(|s| s.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(children.len(), 3, "{workload}: {children:?}");
        assert_eq!((children[0], children[2]), ("server.parse", "server.write"));
        assert!(children[1].starts_with("core."), "{children:?}");
    }
}

#[test]
fn a_smoke_set_runs_every_workload_and_compares_clean() {
    let out = out_dir("smoke-set");
    let run = benchmark(&["--smoke", "--trace", "--seed", "7"], &out);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "smoke set failed:\n{stdout}");

    let results = out.join("results.json");
    let doc = json::parse(&std::fs::read_to_string(&results).unwrap()).unwrap();
    let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
    assert_eq!(runs.len(), 2 * WORKLOADS.len());
    for (i, run) in runs.iter().enumerate() {
        let workload = WORKLOADS[i / 2].name;
        let traced = i % 2 == 1;
        assert_eq!(run.get("workload").and_then(Json::as_str), Some(workload));
        assert_eq!(run.get("correct"), Some(&Json::Bool(true)), "{workload}");
        assert_eq!(run.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(run.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let printed: Vec<&str> = run
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap()
            .iter()
            .map(|(name, _)| name.as_str())
            .collect();
        let declared: Vec<&str> = if traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        assert_eq!(printed, declared, "{workload} traced={traced}");
        if !traced {
            for (name, metric) in run.get("metrics").and_then(Json::as_obj).unwrap() {
                let value = metric.get("value").and_then(Json::as_f64).unwrap();
                assert!(value > 0.0, "{workload}: {name} = {value}");
            }
        }
        if traced {
            kept_spans_start_at_the_first_traced_request(&out, workload);
        }
    }
    // Nothing the LSM stores created is left behind.
    let leftovers: Vec<_> = std::fs::read_dir(out.join("tmp")).unwrap().collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");

    let results = results.to_str().unwrap();
    let compare = Command::new(env!("CARGO_BIN_EXE_skute-benchmark"))
        .args(["compare", results, results])
        .output()
        .unwrap();
    let table = String::from_utf8_lossy(&compare.stdout);
    assert!(compare.status.success(), "{table}");
    assert!(
        !table.contains("regressed") && !table.contains("unresolved"),
        "{table}"
    );
}

#[test]
fn a_single_run_ends_with_the_result_object() {
    let out = out_dir("smoke-one");
    let run = benchmark(
        &[
            "--workload",
            "store_direct_lsm",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "0",
            "--smoke",
        ],
        &out,
    );
    assert!(run.status.success());
    let stdout = String::from_utf8_lossy(&run.stdout);
    let last = stdout.lines().last().unwrap();
    let result = json::parse(last).unwrap();
    let keys: Vec<&str> = result
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    // Every metric is also printed by name with its unit and sample count.
    for m in &END_TO_END {
        let prefix = format!("{} {} ", m.name, m.unit);
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&prefix) && l.contains(" n=")),
            "no line for {}",
            m.name
        );
    }
}

#[test]
fn bad_arguments_are_refused() {
    let out = out_dir("smoke-bad");
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--seconds", "0"],
        &["--frobnicate"],
    ] {
        let run = benchmark(args, &out);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty());
    }
}
