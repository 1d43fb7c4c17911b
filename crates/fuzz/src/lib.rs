#![warn(missing_docs)]

//! Generative differential fuzzer for the memory-safety
//! instrumentations.
//!
//! Each case derives two programs from a `(seed, index)` pair via
//! [`testutil::Rng::for_case`]:
//!
//! 1. a **safe** program from the seeded generator ([`gen`]), which
//!    every configuration must run to completion with byte-identical
//!    output, and
//! 2. a **mutant** with exactly one injected spatial violation
//!    ([`mutate`]), which every mechanism must judge exactly as the
//!    guarantee matrix predicts.
//!
//! The oracle ([`oracle`]) sweeps both through a 14-configuration
//! matrix (baseline + three mechanisms × O0/three O3 extension points)
//! through the typed job API (`bench::job`) against one case-local
//! artifact store. Failing cases are minimized by the structural shrinker
//! ([`shrink`]) and written out as standalone `.c` repros replayable from
//! the `(seed, index)` pair alone.
//!
//! Everything is deterministic: the same seed and case count produce a
//! byte-identical report, independent of worker count.

pub mod ast;
pub mod gen;
pub mod mutate;
pub mod oracle;
pub mod shrink;

use std::fmt::Write as _;
use std::path::PathBuf;

use mutate::Verdicts;
use testutil::Rng;

/// Fuzzing run options.
#[derive(Clone, Debug)]
pub struct FuzzOpts {
    /// Root seed; every case stream derives from `(seed, index)`.
    pub seed: u64,
    /// Number of cases.
    pub cases: u64,
    /// Worker threads (case-level parallelism).
    pub jobs: usize,
    /// Minimize failing cases before reporting.
    pub shrink: bool,
    /// Where to write minimized `.c` repros for failing cases.
    pub fail_dir: Option<PathBuf>,
    /// VM backend the oracle matrix executes under. Every eighth case
    /// also reruns its matrix under the other backend, against the same
    /// artifact store, and compares the two runs cell by cell.
    pub backend: memvm::VmBackend,
}

impl Default for FuzzOpts {
    fn default() -> FuzzOpts {
        FuzzOpts {
            seed: 0,
            cases: 100,
            jobs: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            shrink: true,
            fail_dir: None,
            backend: memvm::VmBackend::default(),
        }
    }
}

/// One failing case, with its minimized repro.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Case index (replay with `mi fuzz --seed <seed> --replay <index>`).
    pub index: u64,
    /// Mutation kind name.
    pub kind: &'static str,
    /// Oracle errors (before shrinking).
    pub errors: Vec<String>,
    /// Minimized failing C source, with a repro header.
    pub minimized_c: String,
    /// Candidate programs the shrinker tried.
    pub shrink_attempts: u64,
}

/// Aggregated result of a fuzzing run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Root seed.
    pub seed: u64,
    /// Cases executed.
    pub cases: u64,
    /// Mutants per catalogue kind.
    pub kind_counts: std::collections::BTreeMap<&'static str, u64>,
    /// Expected-caught counts per mechanism (from the verdict model).
    pub caught_counts: std::collections::BTreeMap<&'static str, u64>,
    /// Failing cases, ascending by index.
    pub failures: Vec<Failure>,
}

impl FuzzReport {
    /// Whether the run found no oracle violations.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Deterministic text rendering (no timings, no paths): the
    /// acceptance-criteria artifact that must be byte-identical across
    /// reruns and worker counts.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "fuzz-report/1 seed={} cases={}", self.seed, self.cases);
        let _ = writeln!(s, "mutants by kind:");
        for (kind, n) in &self.kind_counts {
            let _ = writeln!(s, "  {kind:<20} {n}");
        }
        let _ = writeln!(s, "expected caught by mechanism:");
        for (mech, n) in &self.caught_counts {
            let _ = writeln!(s, "  {mech:<20} {n}");
        }
        if self.failures.is_empty() {
            let _ = writeln!(s, "result: ok ({} cases, 0 failures)", self.cases);
        } else {
            let _ = writeln!(s, "result: FAILED ({} of {} cases)", self.failures.len(), self.cases);
            for f in &self.failures {
                let _ = writeln!(s, "case {} [{}]:", f.index, f.kind);
                for e in &f.errors {
                    let _ = writeln!(s, "  {e}");
                }
                let _ = writeln!(s, "  replay: mi fuzz --seed {} --replay {}", self.seed, f.index);
            }
        }
        s
    }
}

/// Generates the (safe, mutant) pair for one case. The derivation is
/// the replay contract: same `(seed, index)`, same programs, anywhere.
pub fn case_programs(seed: u64, index: u64) -> (ast::FuzzProgram, ast::FuzzProgram) {
    let mut rng = Rng::for_case(seed, index);
    let safe = gen::gen_program(&mut rng);
    let mutant = mutate::mutate(&safe, &mut rng);
    (safe, mutant)
}

/// Runs one case through the oracle. Returns the oracle errors (empty
/// means pass).
pub fn run_case(seed: u64, index: u64) -> Vec<String> {
    run_case_with(seed, index, memvm::VmConfig::default())
}

/// Like [`run_case`] under an explicit VM configuration — the entry point
/// the `mi serve` daemon's fuzz jobs execute cases through.
pub fn run_case_with(seed: u64, index: u64, vm: memvm::VmConfig) -> Vec<String> {
    let (safe, mutant) = case_programs(seed, index);
    oracle::check_pair_with(&safe, &mutant, &format!("fuzz seed={seed} case={index}"), vm)
}

/// The standalone repro source for a failing (possibly shrunk) mutant.
fn repro_source(seed: u64, index: u64, mutant: &ast::FuzzProgram, errors: &[String]) -> String {
    let m = mutant.mutation.as_ref().expect("repro of a mutant");
    let mut header = String::new();
    let _ = writeln!(header, "// fuzz repro: seed={seed} case={index} kind={}", m.kind.name());
    let _ = writeln!(header, "// expected: {}", m.verdicts.summary());
    for e in errors {
        let _ = writeln!(header, "// oracle: {e}");
    }
    let _ = writeln!(header, "// replay: mi fuzz --seed {seed} --replay {index}");
    header + &mutant.emit_c(&format!("minimized mutant (seed={seed} case={index})"))
}

/// Per-case sweep result: index, kind, predicted verdicts, oracle
/// errors, and — for failures — the minimized repro source plus the
/// number of shrink probes.
type CaseResult = (u64, &'static str, Verdicts, Vec<String>, Option<(String, u64)>);

/// Runs the full fuzzing sweep.
pub fn fuzz(opts: &FuzzOpts) -> FuzzReport {
    let indices: Vec<u64> = (0..opts.cases).collect();
    let vm = memvm::VmConfig { backend: opts.backend, ..memvm::VmConfig::default() };
    let results: Vec<CaseResult> = bench::driver::par_map(opts.jobs, &indices, |_, &index| {
        let (safe, mutant) = case_programs(opts.seed, index);
        let m = mutant.mutation.clone().expect("mutant");
        let title = format!("fuzz seed={} case={index}", opts.seed);
        // Every eighth case also reruns its matrix under the other VM
        // backend and compares the two cell by cell.
        let errors = oracle::check_case(&safe, &mutant, &title, vm, index % 8 == 0);
        let minimized = if errors.is_empty() {
            None
        } else {
            let (min, attempts) =
                if opts.shrink { shrink_failing(&mutant) } else { (mutant.clone(), 0) };
            Some((repro_source(opts.seed, index, &min, &errors), attempts))
        };
        (index, m.kind.name(), m.verdicts, errors, minimized)
    });

    let mut report = FuzzReport { seed: opts.seed, cases: opts.cases, ..FuzzReport::default() };
    for mech in ["softbound", "lowfat", "redzone"] {
        report.caught_counts.insert(mech, 0);
    }
    for (index, kind, verdicts, errors, minimized) in results {
        *report.kind_counts.entry(kind).or_insert(0) += 1;
        for mech in ["softbound", "lowfat", "redzone"] {
            if verdicts.for_mech(mech) == mutate::Expect::Caught {
                *report.caught_counts.get_mut(mech).unwrap() += 1;
            }
        }
        if let Some((minimized_c, shrink_attempts)) = minimized {
            report.failures.push(Failure { index, kind, errors, minimized_c, shrink_attempts });
        }
    }

    if let Some(dir) = &opts.fail_dir {
        if !report.failures.is_empty() {
            std::fs::create_dir_all(dir).expect("create fail dir");
            for f in &report.failures {
                let path = dir.join(format!("case-{}-{}.c", f.index, f.kind));
                std::fs::write(&path, &f.minimized_c).expect("write repro");
            }
        }
    }

    report
}

/// Minimizes a failing mutant: keeps shrinking while the oracle still
/// errors on the (safe twin, candidate) pair. The safe twin is the
/// candidate minus its mutation, so safe-side failures (output
/// divergence, spurious traps) shrink just as mutant-side verdict
/// mismatches do.
fn shrink_failing(mutant: &ast::FuzzProgram) -> (ast::FuzzProgram, u64) {
    shrink::shrink(mutant, |cand| {
        let mut safe_twin = cand.clone();
        safe_twin.mutation = None;
        !oracle::check_pair(&safe_twin, cand, "shrink probe").is_empty()
    })
}

/// Verbose single-case replay: regenerates the pair, runs the matrix,
/// and renders sources plus per-configuration outcomes. The flag is
/// `true` when the oracle failed.
pub fn replay(seed: u64, index: u64) -> (String, bool) {
    let (safe, mutant) = case_programs(seed, index);
    let m = mutant.mutation.as_ref().unwrap();
    let mut s = String::new();
    let _ = writeln!(s, "=== fuzz case seed={seed} index={index} ===");
    let _ =
        writeln!(s, "mutation: {} on object {} ({})", m.kind.name(), m.obj, m.verdicts.summary());
    let errors = oracle::check_pair(&safe, &mutant, &format!("replay seed={seed} case={index}"));
    if errors.is_empty() {
        let _ = writeln!(s, "oracle: pass");
    } else {
        let _ = writeln!(s, "oracle: FAIL");
        for e in &errors {
            let _ = writeln!(s, "  {e}");
        }
    }
    let _ = writeln!(s, "--- safe program ---");
    s.push_str(&safe.emit_c(&format!("fuzz seed={seed} case={index} (safe)")));
    let _ = writeln!(s, "--- mutant ---");
    s.push_str(&mutant.emit_c(&format!("fuzz seed={seed} case={index} (mutant)")));
    (s, !errors.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_programs_are_deterministic() {
        let (s1, m1) = case_programs(42, 7);
        let (s2, m2) = case_programs(42, 7);
        assert_eq!(s1.emit_c("t"), s2.emit_c("t"));
        assert_eq!(m1.emit_c("t"), m2.emit_c("t"));
        assert!(m1.mutation.is_some() && s1.mutation.is_none());
    }
}
