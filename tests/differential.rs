//! Differential testing over `tests/corpus/` through the `evald` driver.
//!
//! The corpus harness (`tests/corpus.rs`) asserts per-configuration
//! *verdicts*. This suite asserts something stronger: semantics
//! preservation. For every corpus program, the driver runs a matrix of
//!
//! * baseline at `O0` and `O3`,
//! * SoftBound and Low-Fat at `O0` and at all three `O3` extension points,
//!
//! off a single cached frontend module per program, and demands that every
//! configuration under which a memory-safe program completes produces
//! byte-identical printed output and the same return value. Instrumented
//! and optimized builds may only *detect more*, never *compute different
//! answers*.
//!
//! Programs with expected violations are still swept across the full
//! matrix (the driver must never panic on them — traps become cells), but
//! their outputs are exempt from the byte-comparison: a program with
//! undefined behaviour has no single correct output across optimization
//! levels.

mod common;

use bench::driver::{benchmark_programs, paper_sweep_configs, Driver, JobConfig, Program};
use meminstrument::{Instrument, Mechanism, MiMode, OptConfig};
use memvm::{VmBackend, VmConfig};
use mir::pipeline::{ExtensionPoint, OptLevel};

/// The differential matrix: 2 baselines + 2 mechanisms × (O0 + 3×O3) = 10
/// configurations per program.
fn differential_configs() -> Vec<JobConfig> {
    let mut configs = vec![JobConfig::baseline().opt_level(OptLevel::O0), JobConfig::baseline()];
    for mech in [Mechanism::SoftBound, Mechanism::LowFat] {
        configs.push(JobConfig::mechanism(mech).opt_level(OptLevel::O0));
        for ep in ExtensionPoint::ALL {
            configs.push(JobConfig::mechanism(mech).at(ep));
        }
    }
    configs
}

/// The corpus with each program's safety (see [`common::is_safe`]).
fn corpus() -> Vec<(Program, bool)> {
    common::corpus()
        .into_iter()
        .map(|(name, source)| {
            let safe = common::is_safe(&source);
            (Program { name, source }, safe)
        })
        .collect()
}

#[test]
fn corpus_differential() {
    let programs = corpus();
    let configs = differential_configs();
    let n_configs = configs.len();
    let driver = Driver::new(programs.iter().map(|(p, _)| p.clone()).collect(), configs);
    let report = driver.run();

    // Full coverage: every corpus file × every configuration is a cell.
    assert_eq!(report.cells.len(), programs.len() * n_configs);
    // The frontend ran exactly once per corpus file.
    assert_eq!(report.cache.frontend_compiles, programs.len() as u64);

    let mut failures = vec![];
    for (prog, safe) in &programs {
        let cells: Vec<_> = report.cells.iter().filter(|c| c.program == prog.name).collect();
        assert_eq!(cells.len(), n_configs, "{}: missing cells", prog.name);
        if !safe {
            continue;
        }
        // Memory-safe program: every configuration must complete, and all
        // of them must agree byte-for-byte.
        let reference = match &cells[0].outcome {
            Ok(ok) => ok,
            Err(t) => {
                failures
                    .push(format!("{} [{}]: trapped: {}", prog.name, cells[0].config, t.message));
                continue;
            }
        };
        for cell in &cells[1..] {
            match &cell.outcome {
                Err(t) => {
                    failures
                        .push(format!("{} [{}]: trapped: {}", prog.name, cell.config, t.message));
                }
                Ok(ok) => {
                    if ok.output != reference.output {
                        failures.push(format!(
                            "{} [{}]: output diverges from [{}]:\n  {:?}\nvs\n  {:?}",
                            prog.name, cell.config, cells[0].config, ok.output, reference.output
                        ));
                    }
                    if ok.ret != reference.ret {
                        failures.push(format!(
                            "{} [{}]: ret {:?} != {:?} of [{}]",
                            prog.name, cell.config, ok.ret, reference.ret, cells[0].config
                        ));
                    }
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} differential mismatches:\n  {}",
        failures.len(),
        failures.join("\n  ")
    );
}

/// §5.3 loop optimizations are refinements, not semantic changes: for every
/// memory-safe corpus program and both full-metadata mechanisms, the fully
/// optimized build (dominance + hoist + widen), the dominance-only build,
/// and the unoptimized build must produce byte-identical output, and their
/// dynamic check counts must be monotone non-increasing as optimizations
/// are added.
#[test]
fn corpus_loop_opts_preserve_semantics_and_reduce_checks() {
    let programs = corpus();
    // Per mechanism: [full opts, dominance only, no opts] — ordered from
    // most to least optimized.
    let ladders: Vec<(Mechanism, Vec<JobConfig>)> = [Mechanism::SoftBound, Mechanism::LowFat]
        .into_iter()
        .map(|mech| {
            (
                mech,
                vec![
                    JobConfig::mechanism(mech),
                    JobConfig::mechanism(mech).opt(OptConfig::no_loops()),
                    JobConfig::mechanism(mech).opt(OptConfig::none()),
                ],
            )
        })
        .collect();
    let configs: Vec<JobConfig> = ladders.iter().flat_map(|(_, l)| l.iter().cloned()).collect();
    let report =
        Driver::new(programs.iter().map(|(p, _)| p.clone()).collect(), configs.clone()).run();

    let mut failures = vec![];
    let mut helped = 0usize;
    for (prog, safe) in &programs {
        if !safe {
            continue;
        }
        for (mech, ladder) in &ladders {
            let cells: Vec<_> = ladder
                .iter()
                .map(|cfg| {
                    report
                        .get(&prog.name, cfg)
                        .unwrap_or_else(|| panic!("{}: missing cell for {}", prog.name, cfg))
                })
                .collect();
            let outs: Vec<_> = cells
                .iter()
                .map(|c| match &c.outcome {
                    Ok(ok) => ok,
                    Err(t) => {
                        panic!("{} [{}]: safe program trapped: {}", prog.name, c.config, t.message)
                    }
                })
                .collect();
            for (cell, ok) in cells.iter().zip(&outs).skip(1) {
                if ok.output != outs[0].output || ok.ret != outs[0].ret {
                    failures.push(format!(
                        "{} [{}]: output/ret diverges from [{}]",
                        prog.name, cell.config, cells[0].config
                    ));
                }
            }
            // checks_executed: full ≤ dominance-only ≤ unoptimized.
            let counts: Vec<u64> = outs.iter().map(|ok| ok.stats.checks_executed).collect();
            if !(counts[0] <= counts[1] && counts[1] <= counts[2]) {
                failures.push(format!(
                    "{} [{mech:?}]: checks_executed not monotone: full {} / no-loop {} / unopt {}",
                    prog.name, counts[0], counts[1], counts[2]
                ));
            }
            if counts[0] < counts[1] {
                helped += 1;
            }
            // Counter reconciliation: the full build reports its loop work.
            let instr = &outs[0].instr;
            if counts[0] < counts[1] && instr.checks_hoisted + instr.checks_widened == 0 {
                failures.push(format!(
                    "{} [{mech:?}]: dynamic checks dropped but no hoist/widen counted",
                    prog.name
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} loop-opt mismatches:\n  {}",
        failures.len(),
        failures.join("\n  ")
    );
    // The optimization must actually fire somewhere in the corpus.
    assert!(helped >= 5, "loop opts reduced dynamic checks on only {helped} (program, mech) pairs");
}

/// Interprocedural elision is a refinement too: for every memory-safe
/// corpus program and all three mechanisms, the full build (loop opts +
/// IPO), the `-noipo` build (loop opts only), and the unoptimized build
/// must produce byte-identical output with monotone non-increasing
/// dynamic check counts — and wherever the dynamic count drops between
/// `-noipo` and full, the full build must account for it in its
/// `checks_elided_ipo` counter. Comparing full against `-noipo` (both
/// with loop opts on) isolates the benefit of summaries from the §5.3
/// loop optimizations.
#[test]
fn corpus_ipo_elision_preserves_semantics_and_reduces_checks() {
    let programs = corpus();
    // Per mechanism: [full opts, loop opts only (-noipo), no opts] —
    // ordered from most to least optimized.
    let ladders: Vec<(Mechanism, Vec<JobConfig>)> =
        [Mechanism::SoftBound, Mechanism::LowFat, Mechanism::RedZone]
            .into_iter()
            .map(|mech| {
                (
                    mech,
                    vec![
                        JobConfig::mechanism(mech),
                        JobConfig::mechanism(mech).opt(OptConfig::no_ipo()),
                        JobConfig::mechanism(mech).opt(OptConfig::none()),
                    ],
                )
            })
            .collect();
    let configs: Vec<JobConfig> = ladders.iter().flat_map(|(_, l)| l.iter().cloned()).collect();
    let report =
        Driver::new(programs.iter().map(|(p, _)| p.clone()).collect(), configs.clone()).run();

    let mut failures = vec![];
    let mut helped = 0usize;
    for (prog, safe) in &programs {
        let cell = |cfg: &JobConfig| {
            report
                .get(&prog.name, cfg)
                .unwrap_or_else(|| panic!("{}: missing cell for {}", prog.name, cfg))
        };
        // Elision is invisible on every program, trapping ones included:
        // the full and `-noipo` builds print the same lines and end the
        // same way, with the same return value or the same trap.
        for (_, ladder) in &ladders {
            let (full, noipo) = (cell(&ladder[0]), cell(&ladder[1]));
            let same = match (&full.outcome, &noipo.outcome) {
                (Ok(a), Ok(b)) => a.output == b.output && a.ret == b.ret,
                (Err(a), Err(b)) => a == b,
                _ => false,
            };
            if !same {
                failures.push(format!(
                    "{} [{}]: outcome diverges from [{}]:\n  {:?}\nvs\n  {:?}",
                    prog.name,
                    full.config,
                    noipo.config,
                    full.outcome.as_ref().map(|ok| (&ok.output, ok.ret)),
                    noipo.outcome.as_ref().map(|ok| (&ok.output, ok.ret))
                ));
            }
        }
        if !safe {
            continue;
        }
        for (mech, ladder) in &ladders {
            let cells: Vec<_> = ladder.iter().map(cell).collect();
            let outs: Vec<_> = cells
                .iter()
                .map(|c| match &c.outcome {
                    Ok(ok) => ok,
                    Err(t) => {
                        panic!("{} [{}]: safe program trapped: {}", prog.name, c.config, t.message)
                    }
                })
                .collect();
            for (cell, ok) in cells.iter().zip(&outs).skip(1) {
                if ok.output != outs[0].output || ok.ret != outs[0].ret {
                    failures.push(format!(
                        "{} [{}]: output/ret diverges from [{}]",
                        prog.name, cell.config, cells[0].config
                    ));
                }
            }
            // checks_executed: full ≤ -noipo ≤ unoptimized.
            let counts: Vec<u64> = outs.iter().map(|ok| ok.stats.checks_executed).collect();
            if !(counts[0] <= counts[1] && counts[1] <= counts[2]) {
                failures.push(format!(
                    "{} [{mech:?}]: checks_executed not monotone: full {} / noipo {} / unopt {}",
                    prog.name, counts[0], counts[1], counts[2]
                ));
            }
            if counts[0] < counts[1] {
                helped += 1;
            }
            // Counter reconciliation: a dynamic drop attributable to IPO
            // must be accounted for statically, and the full build must
            // have actually computed summaries.
            let instr = &outs[0].instr;
            if counts[0] < counts[1] {
                if instr.checks_elided_ipo == 0 {
                    failures.push(format!(
                        "{} [{mech:?}]: dynamic checks dropped vs -noipo but none elided",
                        prog.name
                    ));
                }
                if instr.summaries_computed == 0 {
                    failures
                        .push(format!("{} [{mech:?}]: elision fired without summaries", prog.name));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{} ipo mismatches:\n  {}", failures.len(), failures.join("\n  "));
    // The acceptance floor: summaries must pay off beyond loop opts on a
    // meaningful share of the (program, mechanism) grid.
    assert!(
        helped >= 15,
        "ipo elision reduced dynamic checks on only {helped} (program, mech) pairs"
    );
    // Statically, default SoftBound elides checks across the corpus,
    // trapping programs included (their cells carry no static counters,
    // so each program is compiled here).
    let eliding = programs
        .iter()
        .filter(|(p, _)| {
            let module = cfront::compile_named(&p.source, &p.name)
                .unwrap_or_else(|e| panic!("{}: frontend error: {e}", p.name));
            Instrument::mechanism(Mechanism::SoftBound)
                .compile(module, None)
                .stats
                .checks_elided_ipo
                > 0
        })
        .count();
    assert!(eliding >= 10, "softbound elides checks statically in only {eliding} corpus programs");
}

/// The report over the corpus is independent of the worker count — the
/// tentpole's determinism guarantee, exercised on real (partly trapping)
/// inputs rather than synthetic ones.
#[test]
fn corpus_report_is_scheduling_independent() {
    // A slice of the corpus keeps this affordable in debug runs; the full
    // matrix identity is covered per-program by `corpus_differential`.
    let programs: Vec<Program> = corpus().into_iter().take(6).map(|(p, _)| p).collect();
    let configs = differential_configs();
    let r1 = Driver::new(programs.clone(), configs.clone()).with_jobs(1).run();
    let r4 = Driver::new(programs, configs).with_jobs(4).run();
    assert_eq!(r1.to_json(false), r4.to_json(false));
}

/// The whole `mi eval` sweep (benchmark suite × paper configurations),
/// checked on two fronts.
///
/// Scheduling independence: the `evald-report/2` JSON is byte-identical
/// across `--jobs 1` and `--jobs 8`. So is a traced run with the flame
/// sampler at 1000 cost units, which adds the Chrome trace, the
/// `mi-metrics/1` export and the merged folded stacks; the tree-walker
/// reproduces that run byte for byte, and neither tracing nor sampling
/// changes the report.
///
/// Check-opt reconciliation, on the `--jobs 8` report: every SoftBound
/// and Low-Fat full-instrumentation cell places exactly the checks it
/// discovered, minus those dominance eliminated and those IPO elided
/// (hoisting and widening move checks, never add or drop one). RedZone is
/// exempt: it also counts its memcpy/memset interceptor checks as placed.
/// At the Figure 9 configuration, each full build executes no more checks
/// than its `-noloop` twin with the same output and return value (§5.3),
/// the optimizer hoists or widens some checks, and at least five cells
/// run strictly fewer checks.
#[test]
#[cfg_attr(debug_assertions, ignore = "full benchmark sweep is slow without optimizations")]
fn benchmark_sweep_is_scheduling_independent_and_loop_opts_reconcile() {
    let sweep = |jobs: usize, trace: bool, backend: VmBackend, sample_interval: u64| {
        Driver::new(benchmark_programs(), paper_sweep_configs())
            .with_jobs(jobs)
            .with_trace(trace)
            .with_vm(VmConfig { backend, sample_interval, ..VmConfig::default() })
            .run()
    };
    let report = sweep(8, false, VmBackend::Bytecode, 0);
    let json = report.to_json(false);
    assert!(json.contains("\"schema\": \"evald-report/2\""));
    assert_eq!(json, sweep(1, false, VmBackend::Bytecode, 0).to_json(false), "report vs --jobs");

    let traced = sweep(1, true, VmBackend::Bytecode, 1000);
    assert_eq!(json, traced.to_json(false), "tracing or sampling changed the report");
    let (trace, metrics, flame) =
        (traced.trace_json(), traced.metrics().to_json(), traced.flame().render());
    assert!(!flame.is_empty(), "sampler at 1000 units took no samples");
    for (what, other) in [
        ("--jobs 8", sweep(8, true, VmBackend::Bytecode, 1000)),
        ("--vm walk", sweep(8, true, VmBackend::Walk, 1000)),
    ] {
        assert_eq!(json, other.to_json(false), "report differs under {what}");
        assert_eq!(trace, other.trace_json(), "trace differs under {what}");
        assert_eq!(metrics, other.metrics().to_json(), "metrics differ under {what}");
        assert_eq!(flame, other.flame().render(), "flame stacks differ under {what}");
    }

    for cfg in paper_sweep_configs() {
        let checked = cfg
            .mi_config()
            .is_some_and(|c| c.mode == MiMode::Full && c.mechanism != Mechanism::RedZone);
        if !checked {
            continue;
        }
        for prog in &report.programs {
            let cell = report.get(prog, &cfg).expect("sweep cell");
            let Ok(ok) = &cell.outcome else { continue };
            let st = &ok.instr;
            assert_eq!(
                st.checks_placed + st.checks_eliminated + st.checks_elided_ipo,
                st.checks_discovered,
                "{prog} [{cfg}]: placed checks do not reconcile"
            );
        }
    }
    let (mut hoisted, mut widened, mut improved) = (0, 0, 0);
    for prog in &report.programs {
        for mech in [Mechanism::SoftBound, Mechanism::LowFat] {
            let full = report.get(prog, &Instrument::mechanism(mech)).expect("full cell");
            let noloop = Instrument::mechanism(mech).opt(OptConfig::no_loops());
            let noloop = report.get(prog, &noloop).expect("-noloop cell");
            let (Ok(full), Ok(noloop)) = (&full.outcome, &noloop.outcome) else { continue };
            hoisted += full.instr.checks_hoisted;
            widened += full.instr.checks_widened;
            let (full_dyn, noloop_dyn) = (full.stats.checks_executed, noloop.stats.checks_executed);
            assert!(full_dyn <= noloop_dyn, "{prog} [{mech:?}]: {full_dyn} > {noloop_dyn} checks");
            assert_eq!(full.output, noloop.output, "{prog} [{mech:?}]: output");
            assert_eq!(full.ret, noloop.ret, "{prog} [{mech:?}]: ret");
            improved += usize::from(full_dyn < noloop_dyn);
        }
    }
    assert!(hoisted + widened > 0, "loop optimizer never fired");
    assert!(improved >= 5, "dynamic checks dropped on only {improved} cells");
}
