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

use std::collections::{BTreeMap, BTreeSet};

use bench::driver::{CellOk, CellTrap, JobConfig, Program, TrapKind};
use bench::job::{self, JobCtl, JobError, JobOutcome, JobSpec};
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

/// Checks one (safe, mutant) pair against the full matrix under the
/// given VM configuration. Returns the list of oracle failures; empty
/// means the case passed.
pub fn check_pair_with(
    safe: &FuzzProgram,
    mutant: &FuzzProgram,
    case_title: &str,
    vm: VmConfig,
) -> Vec<String> {
    check_case(safe, mutant, case_title, vm, false)
}

/// One matrix run: each cell's outcome, keyed by (program, config label).
type Cells = BTreeMap<(String, String), Result<CellOk, CellTrap>>;

/// [`check_pair_with`], plus — with `cross_check` — the differential
/// backend check: the same jobs run again under the other VM backend
/// against the case's store, so every compile level is a hit and only VM
/// setup and execution repeat. Each cell's whole outcome must be the
/// same under both backends.
pub(crate) fn check_case(
    safe: &FuzzProgram,
    mutant: &FuzzProgram,
    case_title: &str,
    vm: VmConfig,
    cross_check: bool,
) -> Vec<String> {
    let programs = [
        Program { name: "safe".into(), source: safe.emit_c(&format!("{case_title} (safe)")) },
        Program { name: "mutant".into(), source: mutant.emit_c(&format!("{case_title} (mutant)")) },
    ];
    let configs = matrix_configs();
    let specs = job::job_matrix(&programs, &configs);
    // The matrix runs through the typed job API against a case-local
    // artifact store — the same executor the `mi serve` daemon uses, so
    // the oracle exercises the served code path on every case. Sequential
    // on purpose: case-level parallelism lives in the fuzz loop, and
    // nested thread pools would oversubscribe.
    let store = ArtifactStore::new();
    let (cells, mut errors) = run_matrix(&specs, &store, vm);

    let cell_for = |program: &str, label: &str| cells.get(&(program.into(), label.into()));

    // Safe program: all cells complete, byte-identical output.
    let mut reference: Option<(String, &CellOk)> = None;
    for cfg in &configs {
        let label = cfg.to_string();
        match (cell_for("safe", &label), &reference) {
            (None, _) => {}
            (Some(Err(t)), _) => errors.push(format!("safe [{label}]: trapped: {}", t.message)),
            (Some(Ok(ok)), None) => reference = Some((label, ok)),
            (Some(Ok(ok)), Some((ref_label, r))) => {
                if ok.output != r.output {
                    errors.push(format!(
                        "safe [{label}]: output diverges from [{ref_label}]: {:?} vs {:?}",
                        ok.output, r.output
                    ));
                }
                if ok.ret != r.ret {
                    errors.push(format!(
                        "safe [{label}]: ret {:?} != {:?} of [{ref_label}]",
                        ok.ret, r.ret
                    ));
                }
            }
        }
    }

    // Mutant: verdicts per mechanism, in every configuration. A baseline
    // can never report a violation; anything else (clean run, segfault) is
    // fine for a program with undefined behaviour.
    let verdicts = mutant.mutation.as_ref().expect("mutant has a mutation").verdicts;
    for cfg in &configs {
        let label = cfg.to_string();
        let Some(cell) = cell_for("mutant", &label) else { continue };
        let expect = cfg.mechanism_kind().map(|m| (m.name(), verdicts.for_mech(m.name())));
        let error = match (expect, cell) {
            (None, Err(t)) if t.is_violation() => {
                format!("baseline reported a violation: {}", t.message)
            }
            (Some((mech, Expect::Caught)), Err(t))
                if t.kind != TrapKind::Violation(mech.into()) =>
            {
                format!("false negative: expected a {mech} violation, got trap: {}", t.message)
            }
            (Some((mech, Expect::Caught)), Ok(ok)) => {
                format!("false negative: expected a {mech} violation, ran clean (ret {:?})", ok.ret)
            }
            (Some((_, Expect::Missed)), Err(t)) if t.is_violation() => {
                format!("false positive: expected a miss, got: {}", t.message)
            }
            _ => continue,
        };
        errors.push(format!("mutant [{label}]: {error}"));
    }

    if cross_check {
        let other = match vm.backend {
            VmBackend::Walk => VmBackend::Bytecode,
            VmBackend::Bytecode => VmBackend::Walk,
        };
        let (other_cells, _) = run_matrix(&specs, &store, VmConfig { backend: other, ..vm });
        errors.extend(backend_divergence(&cells, &other_cells, [vm.backend, other]));
    }
    errors
}

/// Runs `specs` against `store` under `vm`. A program the frontend
/// rejects is a finding, reported once as `"<program>: frontend error: …"`
/// (the store caches the diagnostic); it has no cells to judge.
fn run_matrix(specs: &[JobSpec], store: &ArtifactStore, vm: VmConfig) -> (Cells, Vec<String>) {
    let mut cells = Cells::new();
    let mut errors = Vec::new();
    let mut rejected: Vec<&str> = Vec::new();
    for spec in specs {
        let name = spec.source.name();
        if rejected.contains(&name) {
            continue;
        }
        match job::execute(spec, store, vm, &JobCtl::default()) {
            Ok(JobOutcome::Cell { program, config, outcome, .. }) => {
                cells.insert((program, config), *outcome);
            }
            Ok(other) => unreachable!("run jobs yield cells, got {other:?}"),
            Err(JobError::Rejected { reason }) => {
                errors.push(format!("{name}: {reason}"));
                rejected.push(name);
            }
            Err(e) => errors.push(format!("{name} [{}]: job error: {e:?}", spec.config)),
        }
    }
    (cells, errors)
}

/// Compares two matrix runs of one case, made under `backends`, cell by
/// cell. Each cell's whole outcome must be identical: a difference in any
/// [`CellOk`] field or in the trap is a VM bug, independent of the
/// guarantee matrix.
fn backend_divergence(a: &Cells, b: &Cells, [na, nb]: [VmBackend; 2]) -> Vec<String> {
    let show = |c: Option<&Result<CellOk, CellTrap>>| match c {
        None => "no cell".to_string(),
        Some(Ok(ok)) => format!("ret {:?}", ok.ret),
        Some(Err(t)) => format!("trap {:?}", t.message),
    };
    let mut errors = Vec::new();
    for k @ (program, config) in a.keys().chain(b.keys()).collect::<BTreeSet<_>>() {
        let what = match (a.get(k), b.get(k)) {
            (x, y) if x == y => continue,
            (Some(Ok(x)), Some(Ok(y))) => {
                // Destructured so that a new `CellOk` field cannot go unnamed.
                let CellOk { ret, output, stats, instr, profile, ops, mem, flame } = x;
                let fields = [
                    ("ret", *ret != y.ret),
                    ("output", *output != y.output),
                    ("stats", *stats != y.stats),
                    ("instr", *instr != y.instr),
                    ("profile", *profile != y.profile),
                    ("ops", *ops != y.ops),
                    ("mem", *mem != y.mem),
                    ("flame", *flame != y.flame),
                ];
                let names: Vec<&str> = fields.iter().filter(|f| f.1).map(|f| f.0).collect();
                format!("{} differ ({na} vs {nb})", names.join(", "))
            }
            (x, y) => format!("{na}: {} | {nb}: {}", show(x), show(y)),
        };
        errors.push(format!("VM backend divergence: {program} [{config}]: {what}"));
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A real SoftBound cell of a small program (non-empty profile and op
    /// ledger), keyed the way [`run_matrix`] keys it.
    fn sample_cells() -> Cells {
        let program = Program {
            name: "p".into(),
            source: "long main(void) { long a[4]; long i; long s = 0; \
                     for (i = 0; i < 4; i = i + 1) { a[i] = i; s = s + a[i]; } return s; }"
                .into(),
        };
        let config = JobConfig::mechanism(Mechanism::SoftBound).opt_level(OptLevel::O0);
        let specs = job::job_matrix(&[program], &[config]);
        let (cells, errors) = run_matrix(&specs, &ArtifactStore::new(), VmConfig::default());
        assert!(errors.is_empty(), "{errors:?}");
        cells
    }

    #[test]
    fn cross_check_sees_profile_and_op_ledger_differences() {
        let walk_bc = [VmBackend::Walk, VmBackend::Bytecode];
        let cells = sample_cells();
        assert!(backend_divergence(&cells, &cells.clone(), walk_bc).is_empty());
        let ok = |c: &Cells| c.values().next().unwrap().clone().unwrap();
        assert!(ok(&cells).profile.total_hits() > 0 && ok(&cells).ops.total_count() > 0);

        // Neither field reaches the rendered report, so only a cell-by-cell
        // comparison can see these.
        for (field, clear) in [
            ("profile", (|c: &mut CellOk| c.profile = Default::default()) as fn(&mut CellOk)),
            ("ops", |c: &mut CellOk| c.ops = Default::default()),
        ] {
            let mut other = cells.clone();
            other.values_mut().for_each(|r| clear(r.as_mut().unwrap()));
            let errors = backend_divergence(&cells, &other, walk_bc);
            assert_eq!(
                errors,
                [format!(
                    "VM backend divergence: p [softbound@O0@VectorizerStart]: \
                     {field} differ (walk vs bytecode)"
                )]
            );
        }
    }

    #[test]
    fn frontend_rejection_is_one_error_per_program() {
        let (safe, mutant) = crate::case_programs(0, 0);
        // The title lands in a leading `//` comment; a newline ends it and
        // leaves a token no lexer accepts.
        let errors = check_case(&safe, &mutant, "t\n`", VmConfig::default(), true);
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors[0].starts_with("safe: frontend error: "), "{errors:?}");
        assert!(errors[1].starts_with("mutant: frontend error: "), "{errors:?}");
    }

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
