//! The artifact-style corpus: small C programs with expected verdicts per
//! configuration (the paper's artifact ships ~200 such programs; each one
//! here exercises a distinct behaviour).
//!
//! Each `tests/corpus/*.c` file carries header lines:
//!
//! ```text
//! // CHECK <config>: ok[=<ret>] | violation
//! ```
//!
//! where `<config>` is `baseline`, `softbound`, `lowfat`, or `redzone`.
//!
//! A file may additionally assert on the *provenance text* of a trap:
//!
//! ```text
//! // CHECKTRAP <config>: <substring>
//! ```
//!
//! requires that configuration to trap with a display string containing
//! `<substring>` — used to pin the ASan-style source attribution
//! ("8-byte write at f.c:12 overflows 40-byte heap object allocated at
//! f.c:7"). CHECKTRAP lines may appear anywhere in the file; putting them
//! at the end keeps the source line numbers the text asserts on stable.

mod common;

use meminstrument::Instrument;
use memvm::interp::Trap;

#[derive(Debug, PartialEq)]
enum Expect {
    Ok(Option<i64>),
    Violation,
    /// A raw hardware-level page fault (unmapped access), *not* an
    /// instrumentation report.
    Segfault,
}

fn parse_expectations(src: &str) -> Vec<(String, Expect)> {
    let mut out = vec![];
    for line in src.lines() {
        let Some(rest) = line.trim().strip_prefix("// CHECK ") else { continue };
        let (config, verdict) = rest.split_once(':').expect("CHECK line has a colon");
        let verdict = verdict.trim();
        let verdict = verdict.split("  ").next().unwrap().trim(); // strip trailing comment
        let expect = if verdict == "violation" {
            Expect::Violation
        } else if verdict == "segfault" {
            Expect::Segfault
        } else if let Some(v) = verdict.strip_prefix("ok=") {
            Expect::Ok(Some(v.parse().expect("ret value")))
        } else if verdict == "ok" {
            Expect::Ok(None)
        } else {
            panic!("bad verdict {verdict:?}");
        };
        out.push((config.trim().to_string(), expect));
    }
    out
}

fn parse_trap_expectations(src: &str) -> Vec<(String, String)> {
    let mut out = vec![];
    for line in src.lines() {
        let Some(rest) = line.trim().strip_prefix("// CHECKTRAP ") else { continue };
        let (config, needle) = rest.split_once(':').expect("CHECKTRAP line has a colon");
        out.push((config.trim().to_string(), needle.trim().to_string()));
    }
    out
}

#[test]
fn corpus_verdicts() {
    let mut failures = vec![];
    for (name, src) in common::corpus() {
        let expectations = parse_expectations(&src);
        assert!(!expectations.is_empty(), "{name}: no CHECK lines");
        let module = match cfront::compile_named(&src, &name) {
            Ok(m) => m,
            Err(e) => {
                failures.push(format!("{name}: frontend error: {e}"));
                continue;
            }
        };
        let run_config = |config: &str| {
            let cell = match config {
                "baseline" => Instrument::baseline(),
                mech => {
                    Instrument::mechanism(mech.parse().unwrap_or_else(|e| panic!("{name}: {e}")))
                }
            };
            cell.run(module.clone())
        };
        for (config, expect) in expectations {
            let result = run_config(&config);
            let verdict = match (&expect, &result) {
                (Expect::Ok(want), Ok(out)) => {
                    let got = out.ret.map(|v| v.as_int() as i64).unwrap_or(0);
                    match want {
                        Some(w) if *w != got => Some(format!("expected ok={w}, got ok={got}")),
                        _ => None,
                    }
                }
                (Expect::Ok(_), Err(t)) => Some(format!("expected ok, got {t}")),
                (Expect::Violation, Ok(_)) => Some("expected violation, ran through".into()),
                (Expect::Violation, Err(Trap::MemSafetyViolation { .. })) => None,
                (Expect::Violation, Err(t)) => Some(format!("expected violation, got {t}")),
                (Expect::Segfault, Err(Trap::UnmappedAccess { .. })) => None,
                (Expect::Segfault, Ok(_)) => Some("expected segfault, ran through".into()),
                (Expect::Segfault, Err(t)) => Some(format!("expected segfault, got {t}")),
            };
            if let Some(msg) = verdict {
                failures.push(format!("{name} [{config}]: {msg}"));
            }
        }
        for (config, needle) in parse_trap_expectations(&src) {
            match run_config(&config) {
                Err(t) => {
                    let s = t.to_string();
                    if !s.contains(&needle) {
                        failures.push(format!(
                            "{name} [{config}]: trap {s:?} lacks provenance {needle:?}"
                        ));
                    }
                }
                Ok(_) => failures.push(format!(
                    "{name} [{config}]: expected a trap containing {needle:?}, ran through"
                )),
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} corpus mismatches:\n  {}",
        failures.len(),
        failures.join("\n  ")
    );
}
