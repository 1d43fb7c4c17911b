//! Determinism and reconciliation properties of the observability layer
//! (the flame sampler and the `mi-metrics/1` registry).
//!
//! The repo's core invariant — byte-identical results across VM backends
//! and worker counts — must extend to every telemetry artifact, or a
//! profile taken under `--vm walk` would not be comparable to one taken
//! under the default bytecode engine. These tests pin that down over the
//! whole corpus, and pin the exact-reconciliation contract: every number
//! in the metrics export is derivable from `VmStats`, never sampled.

mod common;

use bench::driver::{
    benchmark_programs, fig9_configs, paper_sweep_configs, Driver, Program, Report,
};
use meminstrument::{Instrument, Mechanism};
use memvm::{VmBackend, VmConfig};
use telemetry::json::Json;

use common::corpus_programs;

fn sweep(jobs: usize, backend: VmBackend, interval: u64) -> Report {
    Driver::new(corpus_programs(), paper_sweep_configs())
        .with_jobs(jobs)
        .with_vm(VmConfig { backend, sample_interval: interval, ..VmConfig::default() })
        .run()
}

/// The tentpole property: folded-stack output and the metrics registry
/// (op ledger included) are byte-identical between `--vm walk` and
/// `--vm bytecode`, and across `--jobs 1` and `--jobs 4` — over the
/// *whole corpus* and the whole 14-config paper sweep, traps included,
/// with the sampler off and on.
#[test]
fn corpus_flame_and_metrics_identical_across_backends_and_jobs() {
    for interval in [0, 500] {
        let r_bc1 = sweep(1, VmBackend::Bytecode, interval);
        let r_bc4 = sweep(4, VmBackend::Bytecode, interval);
        let r_walk4 = sweep(4, VmBackend::Walk, interval);

        let flame = r_bc1.flame().render();
        assert_eq!(flame.is_empty(), interval == 0, "sampling at interval {interval}");
        assert_eq!(flame, r_bc4.flame().render(), "flame differs across --jobs");
        assert_eq!(flame, r_walk4.flame().render(), "flame differs across VM backends");

        let metrics = r_bc1.metrics().to_json();
        assert_eq!(metrics, r_bc4.metrics().to_json(), "metrics differ across --jobs");
        assert_eq!(metrics, r_walk4.metrics().to_json(), "metrics differ across VM backends");
        assert_eq!(
            r_bc1.metrics().to_prometheus(),
            r_walk4.metrics().to_prometheus(),
            "prometheus rendering differs across VM backends"
        );
    }
}

/// Every frame of every sampled stack names a function of the compiled
/// module or a registered runtime helper (entry functions bare, callees
/// and helpers as `name:CALLSITE_LINE`) — no synthetic or dangling
/// frames.
#[test]
fn flame_frames_resolve_to_module_functions() {
    let mut programs_sampled = 0;
    for p in corpus_programs() {
        let module = cfront::compile_named(&p.source, &p.name)
            .unwrap_or_else(|e| panic!("{}: frontend error: {e}", p.name));
        let prog = Instrument::mechanism(Mechanism::SoftBound).compile(module, None);
        let mut known: std::collections::BTreeSet<String> =
            prog.module.functions.iter().map(|f| f.name.clone()).collect();
        let mut vm = prog
            .make_vm(VmConfig { sample_interval: 200, ..VmConfig::default() })
            .unwrap_or_else(|t| panic!("{}: vm setup trapped: {t}", p.name));
        known.extend(vm.registry_mut().names());
        let _ = vm.run("main", &[]); // traps are fine; the profile survives
        let folded = vm.flame().expect("sampling was configured on");
        if folded.is_empty() {
            continue; // ran to completion under the first sample boundary
        }
        programs_sampled += 1;
        for (stack, _) in folded.iter() {
            for frame in stack.split(';') {
                let base = frame.split(':').next().unwrap();
                assert!(
                    known.contains(base),
                    "{}: frame {frame:?} of stack {stack:?} names no module function",
                    p.name
                );
            }
        }
    }
    assert!(programs_sampled > 0, "no corpus program was large enough to sample");
}

/// Exact reconciliation: per-opcode-class costs sum to `cost_total`, the
/// sample count obeys `samples * interval <= cost_total`, the registry's
/// counters reproduce `VmStats` verbatim, and the merged folded stacks
/// hold exactly the samples the `flame_samples` series counts. Two
/// sweeps: a corpus slice, and two headline benchmarks at the CLI's
/// default flame interval.
#[test]
fn cell_metrics_reconcile_exactly_with_vm_stats() {
    let corpus_slice: Vec<Program> = corpus_programs().into_iter().take(6).collect();
    let headline: Vec<Program> = benchmark_programs()
        .into_iter()
        .filter(|p| ["183equake", "181mcf"].contains(&p.name.as_str()))
        .collect();
    assert_eq!(headline.len(), 2, "headline benchmarks missing");
    for (programs, interval, jobs) in [(corpus_slice, 300, 4), (headline, 1000, 8)] {
        reconcile_sweep(programs, interval, jobs);
    }
}

fn reconcile_sweep(programs: Vec<Program>, interval: u64, jobs: usize) {
    let report = Driver::new(programs, paper_sweep_configs())
        .with_jobs(jobs)
        .with_vm(VmConfig { sample_interval: interval, ..VmConfig::default() })
        .run();
    let registry = report.metrics();
    let mut checked = 0;
    let mut samples = 0;
    for cell in &report.cells {
        let Ok(ok) = &cell.outcome else { continue };
        checked += 1;
        let ctx = format!("{} [{}]", cell.program, cell.config);
        let s = &ok.stats;
        assert_eq!(ok.ops.total_cost(), s.cost_total, "{ctx}: op-class costs must sum exactly");
        let iter_cost: u64 = ok.ops.iter().map(|(_, _, cost)| cost).sum();
        assert_eq!(iter_cost, s.cost_total, "{ctx}: nonzero-class iteration drops cost");
        let flame = ok.flame.as_ref().expect("sampling on");
        assert!(
            flame.total_samples() * interval <= s.cost_total,
            "{ctx}: {} samples x {interval} exceeds cost {}",
            flame.total_samples(),
            s.cost_total
        );

        let l: &[(&str, &str)] = &[("program", &cell.program), ("config", &cell.config)];
        assert_eq!(registry.counter("vm_cost_total", l), s.cost_total, "{ctx}");
        assert_eq!(registry.counter("vm_instrs_executed", l), s.instrs_executed, "{ctx}");
        assert_eq!(registry.counter("vm_checks_executed", l), s.checks_executed, "{ctx}");
        assert_eq!(registry.gauge("vm_mapped_bytes", l), s.mapped_bytes, "{ctx}");
        assert_eq!(registry.counter("flame_samples", l), flame.total_samples(), "{ctx}");
        samples += registry.counter("flame_samples", l);
        let cat_sum: u64 = ["app", "checks", "metadata", "allocator", "other"]
            .iter()
            .map(|c| registry.counter("vm_cost_units", &[l[0], l[1], ("category", c)]))
            .sum();
        assert_eq!(cat_sum, s.cost_total, "{ctx}: category split must sum exactly");
        let op_sum: u64 = ok
            .ops
            .iter()
            .map(|(class, _, _)| {
                registry.counter("vm_op_cost", &[l[0], l[1], ("op", class.name())])
            })
            .sum();
        assert_eq!(op_sum, s.cost_total, "{ctx}: vm_op_cost series must sum exactly");
    }
    assert!(checked > 0, "no completed cells to reconcile");
    assert_eq!(registry.gauge("flame_sample_interval", &[]), interval);
    assert_eq!(
        registry.counter("sweep_cells", &[("outcome", "ok")]),
        checked,
        "sweep_cells{{ok}} must count completed cells"
    );
    let folded: u64 = report
        .flame()
        .render()
        .lines()
        .map(|l| l.rsplit_once(' ').and_then(|(_, n)| n.parse::<u64>().ok()).expect(l))
        .sum();
    assert_eq!(folded, samples, "merged folded stacks must hold every flame_samples sample");

    let doc = Json::parse(&registry.to_json()).expect("metrics export parses");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("mi-metrics/1"));
    let Json::Obj(members) = &doc else { panic!("metrics export is not an object") };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["schema", "counters", "gauges", "histograms"]);
}

/// The promoted trap corpus file (`fuzz_oversized_overflow_tally.c`)
/// lands in the metrics export as `vm_traps` tallies: one `violation`
/// (SoftBound's report) and two `segfault`s (baseline and the mechanisms
/// whose guarantee model misses the oversized overflow).
#[test]
fn trap_kinds_tallied_in_metrics_export() {
    let path =
        format!("{}/tests/corpus/fuzz_oversized_overflow_tally.c", env!("CARGO_MANIFEST_DIR"));
    let program = Program {
        name: "fuzz_oversized_overflow_tally.c".into(),
        source: std::fs::read_to_string(&path).unwrap(),
    };
    let report = Driver::new(vec![program], fig9_configs()).with_jobs(2).run();
    let registry = report.metrics();
    let p = "fuzz_oversized_overflow_tally.c";
    let violations: u64 = report
        .configs
        .iter()
        .map(|c| {
            registry.counter("vm_traps", &[("program", p), ("config", c), ("kind", "violation")])
        })
        .sum();
    let segfaults: u64 = report
        .configs
        .iter()
        .map(|c| {
            registry.counter("vm_traps", &[("program", p), ("config", c), ("kind", "segfault")])
        })
        .sum();
    assert_eq!(violations, 1, "softbound must report the oversized overflow");
    assert_eq!(segfaults, 2, "baseline and lowfat must segfault");
    assert_eq!(registry.counter("sweep_cells", &[("outcome", "trap")]), 3);
    assert_eq!(registry.counter("sweep_cells", &[("outcome", "ok")]), 0);
    // The tally survives serialization in both export formats.
    let json = registry.to_json();
    assert!(json.contains("\"name\": \"vm_traps\""), "{json}");
    assert!(json.contains("\"kind\": \"violation\""), "{json}");
    let prom = registry.to_prometheus();
    assert!(prom.contains("# TYPE vm_traps counter"), "{prom}");
    assert!(prom.contains("kind=\"segfault\""), "{prom}");
}
