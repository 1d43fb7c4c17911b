//! `promote` — turn fuzzer mutants into corpus regression tests.
//!
//! For every mutation-catalogue kind, the tool takes the first fuzz case
//! of that kind (from a fixed seed, so reruns are reproducible), verifies
//! it against the differential oracle, shrinks it as far as the oracle
//! keeps agreeing with the guarantee matrix, and writes it to
//! `tests/corpus/fuzz_<kind>.c` with `// CHECK` verdict lines measured
//! from the actual default-configuration runs. The corpus runner
//! (`tests/corpus.rs`) then pins those verdicts forever — a mechanism or
//! optimizer change that flips one fails CI with a tiny readable repro.
//!
//! ```text
//! cargo run -p fuzz --bin promote [-- --seed S] [--out DIR]
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use fuzz::mutate::ALL_KINDS;
use fuzz::{case_programs, oracle, shrink};
use meminstrument::{Instrument, Mechanism};
use memvm::interp::Trap;

/// The concrete default-configuration outcome, in CHECK-line syntax.
fn check_verdict(module: &mir::Module, mech: Option<Mechanism>) -> String {
    let cell = mech.map_or_else(Instrument::baseline, Instrument::mechanism);
    match cell.run(module.clone()) {
        Ok(out) => format!("ok={}", out.ret.map(|v| v.as_int() as i64).unwrap_or(0)),
        Err(Trap::MemSafetyViolation { .. }) => "violation".into(),
        Err(Trap::UnmappedAccess { .. }) => "segfault".into(),
        Err(t) => panic!("unexpected trap under {mech:?}: {t}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 0u64;
    let mut out_dir = format!("{}/../../tests/corpus", env!("CARGO_MANIFEST_DIR"));
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = it.next().and_then(|s| s.parse().ok()).expect("--seed N"),
            "--out" => out_dir = it.next().expect("--out DIR").clone(),
            other => panic!("unknown option {other}"),
        }
    }

    // First case index per kind, scanning forward from the seed.
    let mut first: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut index = 0u64;
    while first.len() < ALL_KINDS.len() {
        let (_, mutant) = case_programs(seed, index);
        let kind = mutant.mutation.as_ref().unwrap().kind.name();
        first.entry(kind).or_insert(index);
        index += 1;
        assert!(index < 10_000, "kind coverage stalled at {first:?}");
    }

    for (kind, &case) in &first {
        let (_, mutant) = case_programs(seed, case);
        let errors = oracle::check_pair(
            &{
                let mut s = mutant.clone();
                s.mutation = None;
                s
            },
            &mutant,
            "promote",
        );
        assert!(errors.is_empty(), "case {case} ({kind}) fails its own oracle: {errors:?}");

        // Shrink while the oracle still agrees with the prediction — the
        // minimal program whose verdicts are still exactly the matrix row.
        let (min, attempts) = shrink::shrink(&mutant, |cand| {
            let mut safe = cand.clone();
            safe.mutation = None;
            oracle::check_pair(&safe, cand, "promote shrink").is_empty()
        });

        let m = min.mutation.as_ref().unwrap();
        let body = min.emit_c(&format!("promoted fuzz mutant: {kind}"));
        let module = cfront::compile(&body).expect("shrunk program compiles");

        let mut src = String::new();
        let _ = writeln!(src, "// Promoted from the generative fuzzer: seed={seed} case={case}");
        let _ = writeln!(src, "// kind={kind}, model: {}", m.verdicts.summary());
        let _ = writeln!(src, "// (regenerate: cargo run -p fuzz --bin promote)");
        for (cfg, mech) in [
            ("baseline", None),
            ("softbound", Some(Mechanism::SoftBound)),
            ("lowfat", Some(Mechanism::LowFat)),
            ("redzone", Some(Mechanism::RedZone)),
        ] {
            let _ = writeln!(src, "// CHECK {cfg}: {}", check_verdict(&module, mech));
        }
        src.push_str(&body);

        let path = format!("{out_dir}/fuzz_{}.c", kind.replace('-', "_"));
        std::fs::write(&path, &src).expect("write corpus file");
        println!("{path}: case {case}, {attempts} shrink probes");
    }
}
