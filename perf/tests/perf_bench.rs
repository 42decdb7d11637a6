//! Tests of the benchmark: short end-to-end runs of the binary, and the
//! pure pieces (op-stream accounting, statistics, the open-loop
//! schedule, `--diff` verdicts).
//!
//! Run with `cargo test --release --manifest-path perf/Cargo.toml`.

use fmm_perf::diff::{bounds_from_benchmark, more_failures, verdict, Verdict};
use fmm_perf::metrics::{END_TO_END, PER_LAYER};
use fmm_perf::schedule::{open_loop, Cycler};
use fmm_perf::stats::{geomean, median, percentile, quartiles, spread};
use fmm_perf::stream::{op_line, ready_line, setup_line, OpRecord, Phase, Tally, DONE_LINE};
use serde::Value;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in a BENCHMARK.json list.
fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
    let Some(Value::Array(items)) = doc.get(key) else {
        panic!("BENCHMARK.json lacks `{key}`");
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
            _ => panic!("metric entry without name and unit: {m:?}"),
        })
        .collect()
}

fn perf(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run perf");
    assert!(
        out.status.success(),
        "perf {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_lists_exactly_the_metrics_the_binary_reports() {
    let doc = benchmark_json();
    let code = |specs: &[fmm_perf::metrics::Spec]| -> Vec<(String, String)> {
        specs
            .iter()
            .map(|s| (s.name.to_string(), s.unit.to_string()))
            .collect()
    };
    assert_eq!(listed(&doc, "end_to_end"), code(END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), code(PER_LAYER));
    let bounds = bounds_from_benchmark(&serde_json::to_string_pretty(&doc).unwrap()).unwrap();
    let setup = bounds
        .iter()
        .find(|b| b.name == "setup_s")
        .expect("setup_s");
    assert!(bounds
        .iter()
        .all(|b| b.bound <= setup.bound && b.bound <= 0.25));
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let doc = benchmark_json();
    let out = perf(&["--seed", "1", "--seconds", "0.5"]);
    let Some(Value::Array(workloads)) = doc.get("workloads") else {
        panic!("BENCHMARK.json lacks workloads");
    };
    for w in workloads {
        let Some(Value::Str(w)) = w.get("name") else {
            panic!("workload without a name");
        };
        for (name, unit) in listed(&doc, "end_to_end")
            .into_iter()
            .chain(listed(&doc, "per_layer"))
        {
            assert!(valid_name(&name), "bad metric name {name}");
            let line = out
                .lines()
                .find(|l| l.starts_with(&format!("{w} {name} ")))
                .unwrap_or_else(|| panic!("{w} did not report {name}"));
            let fields: Vec<&str> = line.split(' ').collect();
            assert_eq!(
                fields.len(),
                5,
                "line `{line}` is not `workload metric value unit n`"
            );
            assert!(fields[2].parse::<f64>().is_ok_and(f64::is_finite), "{line}");
            assert_eq!(fields[3], unit, "{line}");
        }
    }
}

#[test]
fn one_workload_ends_with_the_result_line() {
    let out = perf(&[
        "--workload",
        "gf2_closure",
        "--seed",
        "3",
        "--seconds",
        "0.5",
        "--trace",
        "0",
    ]);
    let last = out.lines().last().expect("output");
    let v: Value = serde_json::from_str(last).expect("last line is JSON");
    let Value::Object(pairs) = &v else {
        panic!("result is not an object");
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
    assert!(matches!(v.get("attempted"), Some(Value::Num(n)) if *n >= 1.0));
    let Some(Value::Object(metrics)) = v.get("metrics") else {
        panic!("no metrics");
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = END_TO_END.iter().map(|s| s.name).collect();
    assert_eq!(names, want);
    for (_, m) in metrics {
        assert!(
            matches!(m.get("value"), Some(Value::Num(x)) if *x > 0.0),
            "{m:?}"
        );
    }
}

fn op(shape: usize, ok: bool) -> String {
    op_line(&OpRecord {
        phase: Phase::Window,
        shape,
        lat: 0.01,
        svc: 0.01,
        late: 0.0,
        ok,
    })
}

#[test]
fn truncated_stream_counts_one_crash_and_the_in_flight_ops() {
    let mut t = Tally::default();
    for line in [
        setup_line(0.5),
        ready_line(2),
        op(0, true),
        op(1, false),
        op(2, true),
    ] {
        assert!(t.feed(&line).is_some(), "{line}");
    }
    // The worker died mid-line: the fragment is ignored, not counted.
    assert_eq!(t.feed("{\"ev\":\"op\",\"ph\":\"w\",\"sha"), None);
    assert!(t.end_incarnation(1.5), "no `done` line means a crash");
    assert_eq!(t.crashes, 1);
    assert_eq!(t.attempted, 3 + 2);
    assert_eq!(t.failed, 1 + 2);
    assert_eq!(t.elapsed, 1.5);
    assert_eq!(t.setup_s, [0.5]);

    // A respawned worker that finishes cleanly adds no crash, and its
    // set-up time does not count as set-up.
    for line in [
        setup_line(9.0),
        ready_line(2),
        op(0, true),
        "{\"ev\":\"end\",\"elapsed\":2}".to_string(),
        DONE_LINE.to_string(),
    ] {
        t.feed(&line);
    }
    assert!(!t.end_incarnation(99.0));
    assert_eq!((t.crashes, t.attempted, t.failed), (1, 6, 3));
    assert_eq!(t.elapsed, 3.5);
    assert_eq!(t.setup_s, [0.5]);
}

#[test]
fn counters_of_several_slices_combine() {
    let mut t = Tally::default();
    t.feed(r#"{"ev":"layers","metrics":{"runtime.steals_per_op":[1,10],"engine.workspaces_created":[1,10]}}"#);
    t.feed(r#"{"ev":"layers","metrics":{"runtime.steals_per_op":[4,30],"engine.workspaces_created":[2,30]}}"#);
    let steals = t.layers["runtime.steals_per_op"];
    assert_eq!((steals.value, steals.n), ((10.0 + 120.0) / 40.0, 40));
    let created = t.layers["engine.workspaces_created"];
    assert_eq!((created.value, created.n), (3.0, 40));
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
    // statistics.quantiles([3, 1, 2, 5], n=4) == [1.25, 2.5, 4.5]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0]), [1.25, 2.5, 4.5]);
    assert_eq!(median(&[4.0, 1.0, 9.0]), 4.0);
    assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
}

#[test]
fn geomean_and_percentiles() {
    assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    assert_eq!(geomean(&[]), 0.0);
    let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    // The workspace rule: rank floor(len·q), clamped to the last.
    assert_eq!(percentile(&v, 0.5), 51.0);
    assert_eq!(percentile(&v, 0.99), 100.0);
    assert_eq!(percentile(&v, 0.0), 1.0);
    assert_eq!(percentile(&[], 0.5), 0.0);
}

#[test]
fn open_loop_schedule_is_a_function_of_the_seed() {
    let a = open_loop(5, 110.0, 10.0, 16);
    assert_eq!(a, open_loop(5, 110.0, 10.0, 16));
    assert_ne!(a, open_loop(6, 110.0, 10.0, 16));
    assert_eq!(a.len(), 1100, "the count is conditioned on the rate");
    assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
    assert!(a
        .iter()
        .all(|x| (0.0..10.0).contains(&x.due_s) && x.shape < 16));
}

#[test]
fn every_cycle_runs_each_shape_once_in_seeded_order() {
    let take = |seed| {
        let mut c = Cycler::new(seed, 0, 6);
        (0..12).map(|_| c.next_shape()).collect::<Vec<_>>()
    };
    let run = take(1);
    assert_eq!(run, take(1));
    for cycle in run.chunks(6) {
        let mut shapes: Vec<usize> = cycle.iter().map(|&(s, _)| s).collect();
        shapes.sort_unstable();
        assert_eq!(shapes, [0, 1, 2, 3, 4, 5]);
        let closes: Vec<bool> = cycle.iter().map(|&(_, c)| c).collect();
        assert_eq!(closes, [false, false, false, false, false, true]);
    }
}

#[test]
fn diff_verdicts_follow_the_bound_and_the_spread() {
    let a = [100.0, 101.0, 99.0, 100.5, 99.5];
    let up = a.map(|x| x * 1.2);
    let flat = a.map(|x| x * 1.01);
    assert_eq!(verdict(&a, &up, true, 0.1), Verdict::Better);
    assert_eq!(verdict(&a, &up, false, 0.1), Verdict::Worse);
    assert_eq!(verdict(&a, &flat, true, 0.1), Verdict::Within);
    let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
    assert_eq!(verdict(&a, &noisy, true, 0.1), Verdict::Unresolved);
    assert_eq!(verdict(&a, &[], true, 0.1), Verdict::Unresolved);

    // 0/10000 vs 30/10000 failures is significant; 1 vs 2 is not.
    assert!(more_failures(0, 10_000, 30, 10_000));
    assert!(!more_failures(1, 10_000, 2, 10_000));
    assert!(!more_failures(30, 10_000, 0, 10_000));
    assert!(!more_failures(0, 100, 0, 100));
}
