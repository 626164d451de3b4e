//! The benchmark's declarations agree with each other: the catalogue in
//! `src/catalog.rs`, `BENCHMARK.json` at the repository root, and the build
//! profile the numbers are taken under.

use std::path::Path;

use skute_benchmark::catalog::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use skute_benchmark::json::{self, Json};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is at most 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !s.is_empty()
        && s.len() <= 64
        && s.chars().all(ok)
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

#[test]
fn names_and_units_are_well_formed_and_unique() {
    let mut seen = std::collections::BTreeSet::new();
    for name in WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
    {
        assert!(is_name(name), "{name:?} is not [A-Za-z0-9][A-Za-z0-9_.-]*");
        assert!(seen.insert(name), "{name} is used twice");
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(is_unit(m.unit), "{}: unit {:?}", m.name, m.unit);
    }
    for w in &WORKLOADS {
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why",
            w.name
        );
    }
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
}

#[test]
fn end_to_end_metrics_carry_bounds_and_setup_has_the_largest() {
    for m in &END_TO_END {
        let bound = m.bound.expect("every end-to-end metric has a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
    }
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is declared");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
}

fn declared(doc: &Json, key: &str) -> Vec<Vec<(String, Json)>> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|entry| entry.as_obj().expect("an object").to_vec())
        .collect()
}

fn metric_object(m: &Metric) -> Vec<(String, Json)> {
    let mut object = vec![
        ("name".to_string(), Json::Str(m.name.into())),
        ("unit".to_string(), Json::Str(m.unit.into())),
        ("better".to_string(), Json::Str(m.better.as_str().into())),
    ];
    if let Some(bound) = m.bound {
        object.push(("bound".to_string(), Json::Num(bound)));
    }
    object
}

#[test]
fn benchmark_json_declares_exactly_the_catalogue() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("paths"),
        Some(&Json::Arr(vec![Json::Str("benchmark".into())]))
    );
    assert_eq!(
        doc.get("command"),
        Some(&Json::Arr(vec![
            Json::Str("bash".into()),
            Json::Str("benchmark/run.sh".into())
        ]))
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(RUN_SECONDS as f64)
    );
    let workloads: Vec<Vec<(String, Json)>> = WORKLOADS
        .iter()
        .map(|w| {
            vec![
                ("name".to_string(), Json::Str(w.name.into())),
                ("why".to_string(), Json::Str(w.why.into())),
            ]
        })
        .collect();
    assert_eq!(declared(&doc, "workloads"), workloads);
    let end_to_end: Vec<_> = END_TO_END.iter().map(metric_object).collect();
    assert_eq!(declared(&doc, "end_to_end"), end_to_end);
    let per_layer: Vec<_> = PER_LAYER.iter().map(metric_object).collect();
    assert_eq!(declared(&doc, "per_layer"), per_layer);
}

/// The `key = value` lines of a manifest's `[profile.release]` table.
fn release_profile(manifest: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(manifest).expect("manifest reads");
    let mut lines: Vec<String> = text
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap_or("").trim().to_string())
        .filter(|l| !l.is_empty())
        .collect();
    lines.sort();
    lines
}

#[test]
fn release_profile_equals_the_roots() {
    let root = release_profile(&repo_root().join("Cargo.toml"));
    assert!(!root.is_empty(), "the root manifest sets a release profile");
    assert_eq!(
        release_profile(&Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml")),
        root,
        "numbers taken under another profile do not compare with the product's"
    );
}
