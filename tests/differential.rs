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

use bench::driver::{Driver, JobConfig, Program};
use meminstrument::{Mechanism, OptConfig};
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
