//! Property suite for interprocedural check elision (`mir::analysis::ipo`
//! + `meminstrument::opt::elide_proven_checks`).
//!
//! The differential ladder (`tests/differential.rs`) shows elision never
//! changes observable behaviour. This suite goes after the *proofs*
//! themselves: every [`meminstrument::ElisionRecord`] claims the checked
//! pointer stays within a byte-offset range of an allocation of some
//! minimum extent — so we rebuild the same program *without* elision,
//! run it on the walker VM with the SoftBound runtime's per-access
//! bounds log installed, and demand the metadata the runtime actually
//! enforced at each elided site confirms the claim.
//!
//! Alongside it live the two remaining IPO acceptance gates: a 500-case
//! seed-0 fuzz sweep (IPO is on in the oracle's default matrix, so every
//! predicted trap must still fire through elision), and the pinned
//! deterministic tie-breaking of the check-site profile.

mod common;

use std::cell::RefCell;
use std::rc::Rc;

use bench::job::{self, JobAction, JobCtl, JobSpec, SourceRef};
use bench::store::ArtifactStore;
use meminstrument::{Instrument, Mechanism, OptConfig, SbAccessLog};
use memvm::{VmBackend, VmConfig};
use telemetry::json::Json;

/// Elision claims grouped by `(func, line, width)` site key: each entry
/// is a claimed `(offset range, minimum extent)` fact.
type ClaimMap = std::collections::BTreeMap<(String, Option<u32>, u64), Vec<((i64, i64), u64)>>;

/// The memory-safe half of `tests/corpus/` (same CHECK-line convention as
/// the differential suite).
fn safe_corpus() -> Vec<(String, String)> {
    common::corpus().into_iter().filter(|(_, source)| common::is_safe(source)).collect()
}

/// Every elision proof must agree with the ground-truth bounds the
/// SoftBound runtime consulted at that site. For each corpus program
/// whose full build elides checks, the `-noipo` twin (same pipeline,
/// checks intact) runs on the walker VM with the per-access log; logged
/// accesses are joined to elision records by `(func, line, width)` and
/// each must satisfy one of the claimed `(offset range, minimum extent)`
/// facts. Keys that still have a live check site in the full build are
/// skipped as ambiguous — a kept check at the same source position says
/// nothing about the elided one.
#[test]
fn elision_proofs_hold_against_walker_bounds_log() {
    let mut programs_verified = 0usize;
    let mut accesses_verified = 0usize;
    for (name, source) in safe_corpus() {
        if programs_verified >= 5 {
            break;
        }
        let module = cfront::compile_named(&source, &name)
            .unwrap_or_else(|e| panic!("{name}: frontend error: {e}"));
        let full = Instrument::mechanism(Mechanism::SoftBound).compile(module.clone(), None);
        if full.elisions.is_empty() {
            continue;
        }
        // Group claims by site key; drop keys a surviving check shadows.
        let mut claims = ClaimMap::new();
        for e in &full.elisions {
            claims.entry((e.func.clone(), e.line, e.width)).or_default().push((e.off, e.size_min));
        }
        claims.retain(|(func, line, width), _| {
            !full
                .module
                .check_sites
                .iter()
                .any(|cs| cs.func == *func && cs.line == *line && cs.width == Some(*width))
        });
        if claims.is_empty() {
            continue;
        }

        let noipo = Instrument::mechanism(Mechanism::SoftBound)
            .opt(OptConfig::no_ipo())
            .compile(module, None);
        let log: SbAccessLog = Rc::new(RefCell::new(Vec::new()));
        let mut vm = noipo
            .make_vm_sb_logged(
                VmConfig { backend: VmBackend::Walk, ..VmConfig::default() },
                Rc::clone(&log),
            )
            .unwrap_or_else(|t| panic!("{name}: vm setup trapped: {t}"));
        vm.run("main", &[]).unwrap_or_else(|t| panic!("{name}: safe program trapped: {t}"));

        let mut matched_here = 0usize;
        for a in log.borrow().iter() {
            let Some(func) = &a.func else { continue };
            let Some(facts) = claims.get(&(func.clone(), a.line, a.width)) else { continue };
            assert_ne!(
                a.bound,
                u64::MAX,
                "{name}: elided site {func}:{:?} ran under wide bounds",
                a.line
            );
            let off = a.ptr as i128 - a.base as i128;
            let extent = a.bound as i128 - a.base as i128;
            assert!(
                facts.iter().any(|((lo, hi), size_min)| off >= *lo as i128
                    && off <= *hi as i128
                    && extent >= *size_min as i128),
                "{name}: access at {func}:{:?} (offset {off}, extent {extent}) \
                 satisfies none of the elision facts {facts:?}",
                a.line
            );
            matched_here += 1;
        }
        if matched_here > 0 {
            programs_verified += 1;
            accesses_verified += matched_here;
        }
    }
    assert!(
        programs_verified >= 5,
        "only {programs_verified} corpus programs produced runtime-verifiable elisions"
    );
    assert!(accesses_verified > 0);
}

/// Zero fuzz regressions with elision in the loop: the oracle's default
/// matrix runs full optimization (IPO included), so 500 clean seed-0
/// cases mean every predicted trap still fires and every safe program
/// still prints identical bytes with summaries applied.
#[test]
#[cfg_attr(debug_assertions, ignore = "500-case sweep is slow without optimizations")]
fn fuzz_500_seed0_is_clean_with_elision() {
    let report = fuzz::fuzz(&fuzz::FuzzOpts { seed: 0, cases: 500, ..fuzz::FuzzOpts::default() });
    assert_eq!(report.cases, 500);
    assert!(report.ok(), "oracle violations on seed 0:\n{}", report.render());
}

/// `mi profile --top N` tie-breaking is part of the deterministic-output
/// contract: equal (cost, hits) sites rank by ascending site id, so two
/// runs — and two machines — render byte-identical documents. The
/// program makes ties inevitable: two distinct arrays, each accessed the
/// same number of times at the same width, under the unoptimized config
/// so every access keeps its own check.
#[test]
fn profile_ranking_breaks_ties_by_site_id() {
    let src = r#"
        long a[4];
        long b[4];
        long main(void) {
            long s = 0;
            for (long i = 0; i < 4; i += 1) {
                s += a[i];
                s += b[i];
            }
            print_i64(s);
            return 0;
        }
    "#;
    let spec = JobSpec {
        source: SourceRef::Inline { name: "ties.c".into(), text: src.into() },
        config: "softbound-unopt@O0@VectorizerStart".parse().unwrap(),
        action: JobAction::Profile { top: 32 },
    };
    let store = ArtifactStore::default();
    let ctl = JobCtl { deadline: None, interrupt: None };
    let run = || {
        job::execute(&spec, &store, VmConfig::default(), &ctl).expect("profile job").result_json()
    };
    let first = run();
    assert_eq!(first, run(), "profile document must be deterministic");

    let v = Json::parse(&first).expect("result parses");
    let doc = v.get("profile").and_then(Json::as_str).expect("profile string");
    let profile = Json::parse(doc).expect("profile parses");
    let sites = match profile.get("sites") {
        Some(Json::Arr(sites)) => sites,
        other => panic!("sites array missing: {other:?}"),
    };
    let ranked: Vec<(u64, u64, u64)> = sites
        .iter()
        .map(|s| {
            (
                s.get("cost").and_then(Json::as_u64).unwrap(),
                s.get("hits").and_then(Json::as_u64).unwrap(),
                s.get("site").and_then(Json::as_u64).unwrap(),
            )
        })
        .collect();
    // The ranking comparator, pinned: cost desc, hits desc, site id asc.
    let mut ties = 0usize;
    for w in ranked.windows(2) {
        let ((c0, h0, s0), (c1, h1, s1)) = (w[0], w[1]);
        assert!(
            (c0, h0) > (c1, h1) || ((c0, h0) == (c1, h1) && s0 < s1),
            "ranking violates (cost desc, hits desc, site asc): {ranked:?}"
        );
        if (c0, h0) == (c1, h1) {
            ties += 1;
        }
    }
    assert!(ties > 0, "program produced no tied sites; ranking ties untested: {ranked:?}");
}
