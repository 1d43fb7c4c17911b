//! Differential gate for the bytecode VM backend.
//!
//! The tree-walking interpreter ([`memvm::interp`]) is the reference
//! semantics; the bytecode backend ([`memvm::bytecode`]) is an
//! optimization and must be observationally indistinguishable. This
//! suite sweeps every corpus program through the full 14-configuration
//! paper sweep under **both** backends and demands byte-identical
//! results: program output, return values, dynamic [`memvm::VmStats`]
//! (cost split, instruction/check counters, mapped bytes), per-site
//! [`memvm::SiteProfile`]s, and trap reports including their
//! ASan-style source provenance.

mod common;

use std::time::{Duration, Instant};

use bench::driver::{paper_sweep_configs, Driver, Report};
use meminstrument::runtime::CompiledProgram;
use meminstrument::Mechanism;
use memvm::bytecode::Op;
use memvm::interp::{ExecOutcome, Trap};
use memvm::{BcImage, OpClass, OpMetrics, SiteProfile, VmBackend, VmConfig, VmStats};

use common::corpus_programs;

fn sweep(backend: VmBackend) -> Report {
    Driver::new(corpus_programs(), paper_sweep_configs())
        .with_vm(VmConfig { backend, ..VmConfig::default() })
        .run()
}

/// The whole corpus × config matrix is byte-identical across backends:
/// the serialized reports match, and so does every structured cell
/// (stats, site profiles, trap kind + provenance text).
#[test]
fn bytecode_backend_matches_walker_on_full_corpus_sweep() {
    let programs = corpus_programs();
    assert!(programs.len() >= 57, "corpus shrank to {}", programs.len());
    let configs = paper_sweep_configs();
    assert_eq!(configs.len(), 14, "paper sweep is the 14-config matrix");

    let walk = sweep(VmBackend::Walk);
    let bytecode = sweep(VmBackend::Bytecode);

    // Structured comparison first: it localizes a divergence to a cell.
    assert_eq!(walk.cells.len(), bytecode.cells.len());
    let mut diverged = vec![];
    for (w, b) in walk.cells.iter().zip(&bytecode.cells) {
        assert_eq!((&w.program, &w.config), (&b.program, &b.config));
        let cell = format!("{} [{}]", w.program, w.config);
        match (&w.outcome, &b.outcome) {
            (Ok(wo), Ok(bo)) => {
                if wo != bo {
                    // CellOk equality covers ret, output, VmStats,
                    // InstrStats, and the full SiteProfile.
                    diverged.push(format!("{cell}: ok-cells differ:\n  {wo:?}\n  {bo:?}"));
                }
            }
            (Err(wt), Err(bt)) => {
                if wt != bt {
                    diverged.push(format!(
                        "{cell}: traps differ:\n  walk:     {} ({})\n  bytecode: {} ({})",
                        wt.message,
                        wt.kind.name(),
                        bt.message,
                        bt.kind.name()
                    ));
                }
            }
            (w, b) => diverged.push(format!("{cell}: verdicts differ: {w:?} vs {b:?}")),
        }
    }
    assert!(
        diverged.is_empty(),
        "{} backend divergences:\n{}",
        diverged.len(),
        diverged.join("\n")
    );

    // And the rendered artifact is byte-identical too (what `mi eval`
    // ships; timings excluded by contract).
    assert_eq!(walk.to_json(false), bytecode.to_json(false));
}

/// CHECKTRAP-style provenance survives the bytecode backend: every trap
/// message that carries source attribution under the walker carries the
/// exact same text under bytecode. (Subsumed by the full sweep above,
/// but asserted separately so a provenance regression names itself.)
#[test]
fn trap_provenance_is_identical_across_backends() {
    let walk = sweep(VmBackend::Walk);
    let bytecode = sweep(VmBackend::Bytecode);
    let traps = |r: &Report| -> Vec<(String, String, String)> {
        r.cells
            .iter()
            .filter_map(|c| {
                c.outcome
                    .as_ref()
                    .err()
                    .map(|t| (c.program.clone(), c.config.clone(), t.message.clone()))
            })
            .collect()
    };
    let (wt, bt) = (traps(&walk), traps(&bytecode));
    assert!(!wt.is_empty(), "corpus sweep should produce traps");
    assert_eq!(wt, bt);
}

/// Everything one run exposes, trapped or not.
#[derive(Debug, PartialEq)]
struct Observed {
    result: Result<ExecOutcome, Trap>,
    stats: VmStats,
    profile: SiteProfile,
    ledger: OpMetrics,
    flame: Option<String>,
}

/// Runs `main` on the walker (`image` = `None`) or on the bytecode VM
/// adopting `image` — the daemon's path, which re-arms the runtime's
/// check fast paths from the registry.
fn observe(
    prog: &CompiledProgram,
    image: Option<&BcImage>,
    cfg: VmConfig,
    deadline: bool,
) -> Observed {
    let backend = if image.is_some() { VmBackend::Bytecode } else { VmBackend::Walk };
    let mut vm = prog.make_vm(VmConfig { backend, ..cfg }).unwrap();
    if let Some(image) = image {
        vm.adopt_bytecode(image).unwrap();
    }
    if deadline {
        vm.set_deadline(Instant::now() + Duration::from_secs(3600));
    }
    let result = vm.run("main", &[]);
    Observed {
        result,
        stats: vm.stats().clone(),
        profile: vm.profile().clone(),
        ledger: vm.op_metrics().clone(),
        flame: vm.flame().map(|f| f.render()),
    }
}

/// The bytecode VM runs passing SoftBound/Low-Fat checks inline and hands
/// every other case to the runtime's closure. The hand-over must be
/// invisible: under every SoftBound/Low-Fat sweep configuration, with the
/// cost budget ending inside, just before and just after check charges,
/// with a deadline installed, and with flamegraph samples falling due at
/// every charge (interval 1), often (7) and rarely (500), the walker and
/// the bytecode VM agree on the result or trap, `VmStats`, the site
/// profile, the op ledger and the flamegraph.
#[test]
fn check_fast_path_hands_over_to_the_closure_invisibly() {
    const WINDOW: u64 = 24;
    let configs: Vec<_> = paper_sweep_configs()
        .into_iter()
        .filter(|c| matches!(c.mechanism_kind(), Some(Mechanism::SoftBound | Mechanism::LowFat)))
        .collect();
    assert_eq!(configs.len(), 12);
    let (mut windows, mut straddling) = (0, 0);
    for p in corpus_programs() {
        let module = cfront::compile_named(&p.source, &p.name)
            .unwrap_or_else(|e| panic!("{}: frontend error: {e}", p.name));
        for inst in &configs {
            let cell = format!("{} [{inst}]", p.name);
            let prog = inst.compile(module.clone(), None);
            let base = VmConfig::default();
            let image = prog.make_vm(base).unwrap().bytecode_image();
            let both = |cfg: VmConfig, deadline: bool| {
                let walk = observe(&prog, None, cfg, deadline);
                assert_eq!(walk, observe(&prog, Some(&image), cfg, deadline), "{cell} {cfg:?}");
                walk
            };
            let full = both(base, true);
            for interval in [1, 7, 500] {
                both(VmConfig { sample_interval: interval, ..base }, false);
            }
            if full.stats.checks_executed == 0 {
                continue;
            }
            // A window of budgets halfway through the run: consecutive
            // limits end the run before, inside and after check charges.
            let mid = full.stats.cost_total / 2;
            let mut checks_seen = std::collections::BTreeSet::new();
            for max_cost in mid..mid + WINDOW {
                let cut = both(VmConfig { max_cost, ..base }, false);
                checks_seen.insert(cut.stats.checks_executed);
            }
            windows += 1;
            straddling += usize::from(checks_seen.len() > 1);
        }
    }
    assert!(straddling * 2 >= windows, "only {straddling} of {windows} budget windows cut a check");
}

/// A superinstruction kind: its name, the opcode the bytecode compiler
/// fuses it into, and the op-ledger classes of its components in charge
/// order.
type FusedKind = (&'static str, fn(&Op) -> bool, &'static [&'static [OpClass]]);

const FUSED_KINDS: [FusedKind; 3] = {
    use OpClass::*;
    [
        (
            "test-branch",
            |op| matches!(op, Op::TestBr(_)),
            &[&[Icmp, Cast, Icmp, CondBr], &[Icmp, CondBr]],
        ),
        (
            "branch-to-test",
            |op| matches!(op, Op::BrTest { .. }),
            &[&[Br, Icmp, Cast, Icmp, CondBr], &[Br, Icmp, CondBr]],
        ),
        (
            "checked-access",
            |op| matches!(op, Op::CheckedAccess(_)),
            &[
                &[Gep, CheckSb, Load],
                &[Gep, CheckSb, Store],
                &[Gep, CheckLf, Load],
                &[Gep, CheckLf, Store],
            ],
        ),
    ]
};

/// The class of the one charge `after` records beyond `before`, or `None`
/// when it records several (zero-cost charges) or none.
fn next_charge(before: &OpMetrics, after: &OpMetrics) -> Option<OpClass> {
    let mut grown = OpClass::ALL.into_iter().filter(|&c| after.count(c) > before.count(c));
    match (grown.next(), grown.next()) {
        (Some(c), None) if after.total_count() == before.total_count() + 1 => Some(c),
        _ => None,
    }
}

/// Superinstructions run their components' accounting in one step only
/// when no budget event can fall inside them; otherwise they fall back to
/// their first component. The fall-back must be invisible: under the 12
/// SoftBound/Low-Fat configurations plus baseline, with a deadline, with
/// flamegraph samples at intervals 1, 7 and 500, and with the cost budget
/// ending at every charge boundary inside each superinstruction kind, the
/// walker and the bytecode VM agree on the result or trap, `VmStats`, the
/// site profile, the op ledger and the flamegraph.
///
/// Consecutive budgets over a window stop the run at consecutive charges,
/// so the walker's op ledgers spell out the window's charge sequence. A
/// kind counts as cut in a window when the program's bytecode contains
/// that superinstruction and its component classes appear in the window
/// in order, which puts a cut at each of its charges.
#[test]
fn superinstructions_fall_back_invisibly_at_every_charge_boundary() {
    const WINDOW: u64 = 32;
    let configs: Vec<_> = paper_sweep_configs()
        .into_iter()
        .filter(|c| !matches!(c.mechanism_kind(), Some(Mechanism::RedZone)))
        .collect();
    assert_eq!(configs.len(), 13);
    let mut cut = [0usize; FUSED_KINDS.len()];
    for p in corpus_programs() {
        let module = cfront::compile_named(&p.source, &p.name)
            .unwrap_or_else(|e| panic!("{}: frontend error: {e}", p.name));
        for inst in &configs {
            let cell = format!("{} [{inst}]", p.name);
            let prog = inst.compile(module.clone(), None);
            let base = VmConfig::default();
            let image = prog.make_vm(base).unwrap().bytecode_image();
            let both = |cfg: VmConfig, deadline: bool| {
                let walk = observe(&prog, None, cfg, deadline);
                assert_eq!(walk, observe(&prog, Some(&image), cfg, deadline), "{cell} {cfg:?}");
                walk
            };
            let full = both(base, true);
            for interval in [1, 7, 500] {
                both(VmConfig { sample_interval: interval, ..base }, false);
            }
            // A third of the way in, away from the window the check
            // fast-path test cuts.
            let start = full.stats.cost_total / 3;
            let mut charges: Vec<Option<OpClass>> = Vec::new();
            let mut last: Option<OpMetrics> = None;
            for max_cost in start..start + WINDOW {
                let ledger = both(VmConfig { max_cost, ..base }, false).ledger;
                if last.as_ref() != Some(&ledger) {
                    charges.push(last.as_ref().and_then(|l| next_charge(l, &ledger)));
                    last = Some(ledger);
                }
            }
            for (n, (_, fused, patterns)) in cut.iter_mut().zip(FUSED_KINDS) {
                let compiled = image.funcs.iter().flatten().any(|f| f.ops.iter().any(fused));
                let spelled = patterns.iter().any(|pat| {
                    charges
                        .windows(pat.len())
                        .any(|w| w.iter().zip(*pat).all(|(c, p)| *c == Some(*p)))
                });
                *n += usize::from(compiled && spelled);
            }
        }
    }
    for ((kind, ..), n) in FUSED_KINDS.iter().zip(cut) {
        eprintln!("{kind}: cut inside in {n} windows");
        assert!(n > 0, "no budget window cut inside a {kind} superinstruction");
    }
}
