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

use bench::driver::{paper_sweep_configs, Driver, Report};
use memvm::{VmBackend, VmConfig};

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
