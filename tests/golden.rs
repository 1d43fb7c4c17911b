//! Golden snapshots of the frozen exports: `evald-report/2`, `mi-metrics/1`
//! (JSON document, single line, and Prometheus text), the Chrome pipeline
//! traces, and `mi-profile/1`.
//!
//! Each rendering is compared byte for byte with a file under
//! `tests/golden/`. There is deliberately no switch to regenerate them: a
//! frozen format that changes needs a schema bump, not a new snapshot.

use bench::driver::{CacheStats, Driver, Program, Report, SweepTimings};
use bench::job::{self, JobAction, JobCtl, JobOutcome, JobSpec, SourceRef, DEFAULT_PROFILE_TOP};
use bench::store::ArtifactStore;
use meminstrument::{Instrument, Mechanism};
use memvm::VmConfig;
use mir::trace::TraceRecorder;
use telemetry::Registry;

/// The sweep's two corpus programs: one memory-safe, one underflowing the
/// heap (a segfault uninstrumented, a violation under either mechanism).
const PROGRAMS: [&str; 2] = ["negative_index_legal.c", "heap_underflow.c"];

/// The program the traces and profiles follow: a loop over a stack
/// buffer, so it has check sites that are hit.
const TRACED: &str = "char_buffer_scan.c";

fn corpus_program(name: &str) -> Program {
    let path = format!("{}/tests/corpus/{name}", env!("CARGO_MANIFEST_DIR"));
    Program { name: name.to_string(), source: std::fs::read_to_string(path).unwrap() }
}

fn configs() -> Vec<Instrument> {
    vec![
        Instrument::baseline(),
        Instrument::mechanism(Mechanism::SoftBound),
        Instrument::mechanism(Mechanism::LowFat),
    ]
}

/// The two-program sweep, flame sampler on (so the metrics carry the
/// sample counters and the interval gauge). The second program is renamed
/// so that its name, which every cell, label and trap message repeats,
/// needs escaping: a quote, a backslash, a tab, a control character and
/// non-ASCII text.
fn sweep() -> Report {
    let mut programs: Vec<Program> = PROGRAMS.iter().map(|p| corpus_program(p)).collect();
    programs[1].name = "heap_underflow \"q\" \\ \t\u{1} \u{e9}.c".to_string();
    Driver::new(programs, configs())
        .with_jobs(2)
        .with_vm(VmConfig { sample_interval: 20, ..VmConfig::default() })
        .run()
}

fn assert_golden(file: &str, actual: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(expected == actual, "{file} differs from its snapshot:\n{actual}");
}

#[test]
fn evald_report_and_sweep_metrics() {
    let r = sweep();
    assert!(r.cells.iter().any(|c| c.outcome.is_err()), "the sweep must include a trapping cell");
    assert_golden("evald-report.json", &r.to_json(false));
    let m = r.metrics();
    assert_golden("metrics.json", &m.to_json());
    assert_golden("metrics-line.json", &m.to_json_line());
    assert_golden("metrics.prom", &m.to_prometheus());
    // Tracing off: the document with an empty event list.
    assert_golden("trace-off.json", &r.trace_json());
}

#[test]
fn empty_registry() {
    let r = Registry::new();
    assert_golden("metrics-empty.json", &r.to_json());
}

#[test]
fn traced_sweep() {
    let r = Driver::new(vec![corpus_program(TRACED)], vec![configs()[1].clone()])
        .with_jobs(1)
        .with_trace(true)
        .run();
    assert_golden("trace-sweep.json", &r.trace_json());
}

/// The single-track document `mi run --trace` writes: one `pipeline`
/// track holding the passes of one compile.
#[test]
fn run_trace() {
    let p = corpus_program(TRACED);
    let module = cfront::compile_named(&p.source, &p.name).unwrap();
    let mut rec = TraceRecorder::new();
    configs()[1].compile(module, Some(&mut rec));
    let single = Report {
        programs: Vec::new(),
        configs: Vec::new(),
        cells: Vec::new(),
        cache: CacheStats::default(),
        timings: SweepTimings::default(),
        traces: vec![("pipeline".to_string(), rec)],
        sample_interval: 0,
    };
    assert_golden("trace-run.json", &single.trace_json());
}

#[test]
fn profile_reports() {
    let p = corpus_program(TRACED);
    let store = ArtifactStore::new();
    for (top, file) in [(DEFAULT_PROFILE_TOP, "profile.json"), (0, "profile-top0.json")] {
        let spec = JobSpec {
            source: SourceRef::Inline { name: p.name.clone(), text: p.source.clone() },
            config: configs()[1].clone(),
            action: JobAction::Profile { top },
        };
        match job::execute(&spec, &store, VmConfig::default(), &JobCtl::default()) {
            Ok(JobOutcome::Profile { document }) => assert_golden(file, &document),
            other => panic!("unexpected profile outcome {other:?}"),
        }
    }
}
