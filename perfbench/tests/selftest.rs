//! Self-tests of the benchmark: metric naming, the result line's format,
//! minimal runs of every workload passing every correctness check, and
//! seed handling.

use evanesco_perfbench::workloads::{self, Plan, Workload};
use evanesco_perfbench::{result_json, run_with_plan, single, Options, END_TO_END, PER_LAYER};
use evanesco_ssd::jsonlite::Json;

fn minimal(w: Workload, seed: u64, trace: bool) -> evanesco_perfbench::Outcome {
    run_with_plan(w, Options { seed, seconds: 0.0, trace }, Plan::minimal(w))
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn metric_names_and_units_use_the_allowed_characters() {
    let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
    for (name, unit) in &all {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit}"
        );
    }
    let mut names: Vec<_> = all.iter().map(|(n, _)| *n).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all.len(), "metric names are unique");
    for w in Workload::ALL {
        assert!(valid_name(w.name()));
    }
}

#[test]
fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = listed("workloads").into_iter().map(|(name, _)| name).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn result_line_parses_with_jsonlite() {
    let o = minimal(Workload::SecureChurn, 3, false);
    let line = result_json(std::slice::from_ref(&o));
    let doc = Json::parse(&line).expect("result line parses");
    let obj = doc.as_obj().expect("an object");
    let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert!(matches!(doc.get("correct"), Some(Json::Bool(true))));
    assert!(doc.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
    let metrics = doc.get("metrics").and_then(Json::as_obj).expect("metrics object");
    assert_eq!(metrics.len(), END_TO_END.len());
    for (name, unit) in END_TO_END {
        let m = &metrics[name];
        assert!(m.get("value").and_then(Json::as_num).is_some(), "{name} has a value");
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
    }
}

#[test]
fn minimal_runs_of_every_workload_pass_every_check() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let o = minimal(w, 5, trace);
            assert!(o.correct, "{} trace={trace}: {:?}", w.name(), o.failures);
            assert!(o.attempted >= 1);
            let table = if trace { &PER_LAYER[..] } else { &END_TO_END[..] };
            let names: Vec<_> = o.metrics.iter().map(|m| m.name).collect();
            let want: Vec<_> = table.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, want, "{} trace={trace}", w.name());
            if !trace {
                for m in &o.metrics {
                    assert!(m.value > 0.0, "{}: {} reads {}", w.name(), m.name, m.value);
                }
                let raw = o.raw.expect("end-to-end runs report raw host times");
                assert!(raw.pages_per_s > 0.0 && raw.setup_s > 0.0 && raw.factor > 0.0);
            } else {
                assert!(!o.spans.spans().is_empty(), "{}: traced run records spans", w.name());
            }
        }
    }
}

#[test]
fn a_different_seed_changes_the_trace_but_not_the_metric_set() {
    let plan = Plan::minimal(Workload::SecureChurn);
    for w in [Workload::SecureChurn, Workload::ObservedReadmostly] {
        let a = single::inputs(w, &plan, 1);
        let b = single::inputs(w, &plan, 2);
        assert_ne!(a.measured, b.measured, "{}", w.name());
        assert_eq!(a, single::inputs(w, &plan, 1), "{}: same seed, same inputs", w.name());
    }
    let fa = evanesco_perfbench::fleet::setup(200, 1, 2);
    let fb = evanesco_perfbench::fleet::setup(200, 2, 2);
    assert_ne!(fa.traces, fb.traces);
    for w in Workload::ALL {
        let x = minimal(w, 11, false);
        let y = minimal(w, 12, false);
        let names = |o: &evanesco_perfbench::Outcome| -> Vec<(&str, &str)> {
            o.metrics.iter().map(|m| (m.name, m.unit)).collect()
        };
        assert_eq!(names(&x), names(&y), "{}", w.name());
        assert!(x.correct && y.correct);
    }
}

#[test]
fn workload_names_round_trip() {
    for w in Workload::ALL {
        assert_eq!(Workload::from_name(w.name()), Some(w));
    }
    assert_eq!(Workload::from_name("nope"), None);
    assert_eq!(workloads::ssd_config().ftl.logical_pages(), 48_384);
}
