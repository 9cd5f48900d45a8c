//! Tiny-size smoke test: every workload runs untraced and traced, passes
//! every correctness check, and reports exactly the declared metrics.
//! The traced runs also check that observing changes nothing: traced
//! fingerprints and envelope bytes equal the untraced ones.

use std::sync::Mutex;

use perfbench::{
    end_to_end, parse_args, per_layer, result_line, Options, Size, Workload, END_TO_END, PER_LAYER,
};

/// Serializes the tests that run workloads. The serving path prices each
/// batch from the process-wide FLOP counter, so arithmetic on another
/// thread of the same process moves its virtual clock (a known defect,
/// listed in ROADMAP.md);
/// the benchmark runs one workload per process, and so do these tests.
static ONE_WORKLOAD_AT_A_TIME: Mutex<()> = Mutex::new(());

fn tiny(workload: Workload, trace: bool) -> Options {
    Options { workload, seed: 7, seconds: 0.01, trace, size: Size::Tiny }
}

fn assert_all_checks_pass(workload: Workload, trace: bool) -> perfbench::Report {
    let _alone = ONE_WORKLOAD_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let report = workload.run(&tiny(workload, trace));
    for check in &report.checks {
        assert!(
            check.passed,
            "{} (trace {trace}): {} failed: {}",
            workload.name(),
            check.name,
            check.detail
        );
    }
    assert!(report.correct());
    assert!(report.attempted > 0);
    assert_eq!(report.failed, 0, "{} lost ops", workload.name());
    report
}

#[test]
fn every_workload_runs_correctly_untraced() {
    for workload in Workload::ALL {
        let report = assert_all_checks_pass(workload, false);
        let names: Vec<&str> = end_to_end(&report).iter().map(|(n, _)| *n).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, declared);
        for (name, value) in end_to_end(&report) {
            assert!(value > 0.0, "{}: {name} reads {value}", workload.name());
        }
        let line = result_line(&tiny(workload, false), &report);
        assert!(line.starts_with("{\"correct\": true, "), "{line}");
    }
}

#[test]
fn traced_runs_observe_without_changing_the_outcome() {
    for workload in Workload::ALL {
        let report = assert_all_checks_pass(workload, true);
        // Each traced run compares its fingerprint or published bytes
        // with the untraced pass of the same inputs.
        assert!(
            report.checks.iter().any(|c| c.name.starts_with("traced")),
            "{} has no traced-versus-untraced check",
            workload.name()
        );
        let names: Vec<&str> = per_layer(&report).iter().map(|(n, _)| *n).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, declared);
        let coverage = per_layer(&report)
            .into_iter()
            .find(|(n, _)| *n == "trace.coverage")
            .map(|(_, v)| v)
            .expect("coverage is reported");
        assert!(
            coverage > 0.0 && coverage <= 1.0 + 1e-9,
            "{}: coverage {coverage}",
            workload.name()
        );
    }
}

#[test]
fn arguments_parse_and_reject_mistakes() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let opts =
        parse_args(&args("--workload serve-cloud --seed 3 --seconds 2.5 --trace 1")).unwrap();
    assert_eq!(opts.workload, Workload::ServeCloud);
    assert_eq!((opts.seed, opts.seconds, opts.trace, opts.size), (3, 2.5, true, Size::Bench));
    for bad in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload live-drift --seed 1 --seconds 0 --trace 0",
        "--workload live-drift --seed 1 --seconds 1 --trace 2",
        "--workload live-drift --seconds 1 --trace 0",
        "--workload live-drift --seed 1 --seconds 1 --trace 0 --extra 1",
        "--workload live-drift --seed 1 --seconds 1 --trace 0 --size tiny",
        "--workload live-drift --seed",
    ] {
        assert!(parse_args(&args(bad)).is_err(), "accepted {bad:?}");
    }
}

#[test]
fn benchmark_json_declares_what_the_benchmark_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    for workload in Workload::ALL {
        let entry =
            format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", workload.name(), workload.why());
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        json.matches("\"name\": ").count(),
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
