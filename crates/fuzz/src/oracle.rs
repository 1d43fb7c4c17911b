//! The cross-mechanism differential oracle.
//!
//! Every fuzz case runs a safe program and its mutant through a
//! 14-configuration matrix via the typed job API ([`bench::job`]) with
//! one case-local artifact store sharing the frontend per program:
//!
//! * baseline at `O0` and `O3`,
//! * SoftBound, Low-Fat, and RedZone, each at `O0` and at all three
//!   `O3` extension points.
//!
//! The oracle demands:
//!
//! * **Safe program**: every configuration completes and prints
//!   byte-identical output — instrumentation and optimization may never
//!   change a correct program's answers.
//! * **Mutant**: each mechanism behaves exactly as the guarantee
//!   matrix ([`crate::mutate`]) predicts, in *all four* of its
//!   configurations. `Caught` means a violation report attributed to
//!   that mechanism; `Missed` means no violation report (the access may
//!   still segfault — a raw fault is the documented guarantee gap, not
//!   a report). Baselines must never report violations.
//!
//! A prediction the implementation does not meet is a **false
//! negative** (guarantee broken); a violation report the model says
//! cannot happen is a **false positive** (usability broken). Both
//! surface as [`check_pair`] errors.

use std::collections::HashMap;

use bench::driver::{CellOk, CellTrap, Driver, JobConfig, Program, TrapKind};
use bench::job::{self, JobCtl, JobOutcome};
use bench::store::ArtifactStore;
use meminstrument::Mechanism;
use memvm::{VmBackend, VmConfig};
use mir::pipeline::{ExtensionPoint, OptLevel};

use crate::ast::FuzzProgram;
use crate::mutate::Expect;

/// All three mechanisms, in matrix order.
pub const MECHS: [Mechanism; 3] = [Mechanism::SoftBound, Mechanism::LowFat, Mechanism::RedZone];

/// The 14-configuration oracle matrix.
pub fn matrix_configs() -> Vec<JobConfig> {
    let mut configs = vec![JobConfig::baseline().opt_level(OptLevel::O0), JobConfig::baseline()];
    for mech in MECHS {
        configs.push(JobConfig::mechanism(mech).opt_level(OptLevel::O0));
        for ep in ExtensionPoint::ALL {
            configs.push(JobConfig::mechanism(mech).at(ep));
        }
    }
    configs
}

/// Like [`check_pair_with`] under the default VM configuration.
pub fn check_pair(safe: &FuzzProgram, mutant: &FuzzProgram, case_title: &str) -> Vec<String> {
    check_pair_with(safe, mutant, case_title, VmConfig::default())
}

/// Emits the (safe, mutant) sources and pre-validates them through the
/// frontend. `Err` carries the oracle error list for a rejected program:
/// the driver panics on compile errors, but a generator construct the
/// frontend rejects is itself a finding we want reported, not a crash.
fn case_sources(
    safe: &FuzzProgram,
    mutant: &FuzzProgram,
    case_title: &str,
) -> Result<Vec<Program>, Vec<String>> {
    let safe_src = safe.emit_c(&format!("{case_title} (safe)"));
    let mutant_src = mutant.emit_c(&format!("{case_title} (mutant)"));
    for (name, src) in [("safe", &safe_src), ("mutant", &mutant_src)] {
        if let Err(e) = cfront::compile(src) {
            return Err(vec![format!("{name}: frontend error: {e}")]);
        }
    }
    Ok(vec![
        Program { name: "safe".into(), source: safe_src },
        Program { name: "mutant".into(), source: mutant_src },
    ])
}

/// Checks one (safe, mutant) pair against the full matrix under the
/// given VM configuration. Returns the list of oracle failures; empty
/// means the case passed.
pub fn check_pair_with(
    safe: &FuzzProgram,
    mutant: &FuzzProgram,
    case_title: &str,
    vm: VmConfig,
) -> Vec<String> {
    let programs = match case_sources(safe, mutant, case_title) {
        Ok(p) => p,
        Err(errors) => return errors,
    };
    let configs = matrix_configs();
    // The matrix runs through the typed job API against a case-local
    // artifact store — the same executor the `mi serve` daemon uses, so
    // the oracle exercises the served code path on every case. Sequential
    // on purpose: case-level parallelism lives in the fuzz loop, and
    // nested thread pools would oversubscribe.
    let store = ArtifactStore::new();
    let mut errors = Vec::new();
    let mut cells: HashMap<(String, String), Result<CellOk, CellTrap>> = HashMap::new();
    for spec in job::job_matrix(&programs, &configs) {
        match job::execute(&spec, &store, vm, &JobCtl::default()) {
            Ok(JobOutcome::Cell { program, config, outcome, .. }) => {
                cells.insert((program, config), *outcome);
            }
            Ok(other) => unreachable!("run jobs yield cells, got {other:?}"),
            Err(e) => {
                errors.push(format!("{} [{}]: job error: {e:?}", spec.source.name(), spec.config))
            }
        }
    }
    let cell_for = |program: &str, label: &str| -> Option<&Result<CellOk, CellTrap>> {
        cells.get(&(program.to_string(), label.to_string()))
    };

    // Safe program: all cells complete, byte-identical output.
    let mut reference: Option<(String, Vec<String>, Option<i64>)> = None;
    for cfg in &configs {
        let label = cfg.to_string();
        let Some(cell) = cell_for("safe", &label) else { continue };
        match cell {
            Err(t) => errors.push(format!("safe [{label}]: trapped: {}", t.message)),
            Ok(ok) => match &reference {
                None => reference = Some((label, ok.output.clone(), ok.ret)),
                Some((ref_label, ref_out, ref_ret)) => {
                    if &ok.output != ref_out {
                        errors.push(format!(
                            "safe [{label}]: output diverges from [{ref_label}]: {:?} vs {:?}",
                            ok.output, ref_out
                        ));
                    }
                    if ok.ret != *ref_ret {
                        errors.push(format!(
                            "safe [{label}]: ret {:?} != {:?} of [{ref_label}]",
                            ok.ret, ref_ret
                        ));
                    }
                }
            },
        }
    }

    // Mutant: verdicts per mechanism, in every configuration.
    let verdicts = mutant.mutation.as_ref().expect("mutant has a mutation").verdicts;
    for cfg in &configs {
        let label = cfg.to_string();
        let Some(cell) = cell_for("mutant", &label) else { continue };
        match cfg.mi_config() {
            None => {
                // Baseline: a violation report is impossible by
                // construction; anything else (clean run, segfault) is
                // fine for a program with undefined behaviour.
                if let Err(t) = cell {
                    if t.is_violation() {
                        errors.push(format!(
                            "mutant [{label}]: baseline reported a violation: {}",
                            t.message
                        ));
                    }
                }
            }
            Some(mi) => {
                let mech = mi.mechanism.name();
                match verdicts.for_mech(mech) {
                    Expect::Caught => match cell {
                        Err(t) if matches!(&t.kind, TrapKind::Violation(m) if m == mech) => {}
                        Err(t) => errors.push(format!(
                            "mutant [{label}]: false negative: expected a {mech} violation, got trap: {}",
                            t.message
                        )),
                        Ok(ok) => errors.push(format!(
                            "mutant [{label}]: false negative: expected a {mech} violation, ran clean (ret {:?})",
                            ok.ret
                        )),
                    },
                    Expect::Missed => {
                        if let Err(t) = cell {
                            if t.is_violation() {
                                errors.push(format!(
                                    "mutant [{label}]: false positive: expected a miss, got: {}",
                                    t.message
                                ));
                            }
                        }
                    }
                }
            }
        }
    }

    errors
}

/// Differential backend check: sweeps the (safe, mutant) pair through
/// the full matrix under **both** VM backends and byte-compares the
/// reports — outputs, return values, dynamic statistics, per-site
/// profiles, and trap reports (including CHECKTRAP provenance) must all
/// be identical. The fuzz loop samples this on a slice of the case
/// stream; any difference is a VM bug, independent of the guarantee
/// matrix.
pub fn backend_divergence(
    safe: &FuzzProgram,
    mutant: &FuzzProgram,
    case_title: &str,
) -> Vec<String> {
    let programs = match case_sources(safe, mutant, case_title) {
        // Frontend rejections are check_pair_with's finding to report.
        Err(_) => return Vec::new(),
        Ok(p) => p,
    };
    let run = |backend: VmBackend| {
        Driver::new(programs.clone(), matrix_configs())
            .with_jobs(1)
            .with_vm(VmConfig { backend, ..VmConfig::default() })
            .run()
            .to_json(false)
    };
    let (walk, bytecode) = (run(VmBackend::Walk), run(VmBackend::Bytecode));
    if walk == bytecode {
        return Vec::new();
    }
    // Point at the first differing line so the repro header says more
    // than "reports differ".
    let diff = walk
        .lines()
        .zip(bytecode.lines())
        .find(|(w, b)| w != b)
        .map(|(w, b)| format!("walk: {} | bytecode: {}", w.trim(), b.trim()))
        .unwrap_or_else(|| "reports differ in length".to_string());
    vec![format!("VM backend divergence: {diff}")]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_shape() {
        let configs = matrix_configs();
        assert_eq!(configs.len(), 2 + 3 * 4);
        // Labels are unique (report lookups key on them).
        let labels: std::collections::BTreeSet<String> =
            configs.iter().map(|c| c.to_string()).collect();
        assert_eq!(labels.len(), configs.len());
    }
}
