//! IR digest golden: pins the compiled IR and static statistics of every
//! program the evaluation compiles.
//!
//! Each program is compiled (action `Compile`, through the job API and an
//! artifact store, as the sweep and the daemon compile) under
//! `paper_sweep_configs()` ∪ `fuzz::oracle::matrix_configs()`. One line per
//! (program, config) holds the FNV-64 of the printed module and the FNV-64
//! of its `InstrStats` plus elision records, and the lines are compared
//! with `tests/golden/ir-digest.txt`. The cost-model figures only move when
//! a pass changes what executes; this digest also fails when a pass changes
//! IR that costs the same.
//!
//! There is no switch to regenerate the file: a pass that is meant to
//! change IR says so by changing this snapshot in the same commit.

mod common;

use bench::driver::{benchmark_programs, paper_sweep_configs, Program};
use bench::job::{self, program_hash, JobAction, JobCtl, JobOutcome, JobSpec, SourceRef};
use bench::store::ArtifactStore;
use meminstrument::Instrument;
use memvm::VmConfig;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/ir-digest.txt");

/// Generated fuzz cases pinned under the oracle matrix, per seed (0 and 7).
const FUZZ_CASES: u64 = 40;

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The paper sweep's configurations followed by the oracle matrix's that
/// the sweep lacks, in that order.
fn digest_configs() -> Vec<Instrument> {
    let mut configs = paper_sweep_configs();
    for c in fuzz::oracle::matrix_configs() {
        if !configs.iter().any(|d| d.to_string() == c.to_string()) {
            configs.push(c);
        }
    }
    configs
}

/// One digest line per configuration of `program`, reported as `key`.
/// Every configuration compiles against one store, so the later ones reuse
/// the prefixes the earlier ones built.
fn digest_program(key: &str, program: &Program, configs: &[Instrument]) -> Vec<String> {
    let store = ArtifactStore::new();
    let h = program_hash(program);
    configs
        .iter()
        .map(|config| {
            let spec = JobSpec {
                source: SourceRef::Inline {
                    name: program.name.clone(),
                    text: program.source.clone(),
                },
                config: config.clone(),
                action: JobAction::Compile,
            };
            let label = config.to_string();
            match job::execute(&spec, &store, VmConfig::default(), &JobCtl::default()) {
                Ok(JobOutcome::Compiled { .. }) => {}
                other => panic!("{key} [{label}]: {other:?}"),
            }
            let prog = store.compiled((h, label.clone()), || {
                unreachable!("{key} [{label}]: the compile job stored its program")
            });
            let ir = fnv64(mir::printer::print_module(&prog.module).as_bytes());
            let stats = fnv64(format!("{:?} {:?}", prog.stats, prog.elisions).as_bytes());
            format!("{key}\t{label}\t{ir:016x}\t{stats:016x}")
        })
        .collect()
}

/// Compares the computed lines with the golden lines that start with
/// `part`.
fn assert_part(part: &str, actual: &[String]) {
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_else(|e| panic!("{GOLDEN}: {e}"));
    let expected: Vec<&str> =
        golden.lines().filter(|l| l.starts_with(&format!("{part}/"))).collect();
    assert_eq!(expected.len(), actual.len(), "{part}: line count differs from the snapshot");
    let diffs: Vec<String> = expected
        .iter()
        .zip(actual)
        .filter(|(e, a)| *e != a)
        .map(|(e, a)| format!("  want {e}\n  got  {a}"))
        .collect();
    assert!(diffs.is_empty(), "{part}: {} lines differ:\n{}", diffs.len(), diffs.join("\n"));
}

#[test]
fn corpus_ir_matches_digest() {
    let configs = digest_configs();
    let lines: Vec<String> = common::corpus_programs()
        .iter()
        .flat_map(|p| digest_program(&format!("corpus/{}", p.name), p, &configs))
        .collect();
    assert_part("corpus", &lines);
}

#[test]
fn benchmark_ir_matches_digest() {
    let configs = digest_configs();
    let lines: Vec<String> = benchmark_programs()
        .iter()
        .flat_map(|p| digest_program(&format!("cbench/{}", p.name), p, &configs))
        .collect();
    assert_part("cbench", &lines);
}

/// The digest lines of the first `FUZZ_CASES` cases of fuzz seed `seed`.
fn fuzz_lines(seed: u64) -> Vec<String> {
    let configs = fuzz::oracle::matrix_configs();
    let mut lines = Vec::new();
    for case in 0..FUZZ_CASES {
        // Named and titled exactly as the oracle compiles them.
        let (safe, mutant) = fuzz::case_programs(seed, case);
        let title = format!("fuzz seed={seed} case={case}");
        for (half, prog) in [("safe", &safe), ("mutant", &mutant)] {
            let program =
                Program { name: half.into(), source: prog.emit_c(&format!("{title} ({half})")) };
            lines.extend(digest_program(&format!("fuzz{seed}/{case}/{half}"), &program, &configs));
        }
    }
    lines
}

#[test]
fn fuzz_ir_matches_digest() {
    assert_part("fuzz0", &fuzz_lines(0));
}

#[test]
fn fuzz_seed7_ir_matches_digest() {
    assert_part("fuzz7", &fuzz_lines(7));
}
