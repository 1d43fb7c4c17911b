//! Regression guards for the paper's headline shapes. If a pipeline or
//! cost-model change breaks one of these, the reproduction has drifted.
//!
//! Slow in debug builds, so they only run under `--release`
//! (`cargo test --release -p bench`).

use bench::driver::{
    benchmark_programs, extension_point_configs, fig9_configs, Driver, JobConfig, Program, Report,
};
use bench::{geomean, slowdown};
use meminstrument::{Mechanism, MiMode, OptConfig};
use mir::pipeline::ExtensionPoint;

/// The whole suite under `configs` (which must include the baseline).
fn sweep(configs: Vec<JobConfig>) -> Report {
    Driver::new(benchmark_programs(), configs).run()
}

/// Slowdown of `cfg` over the baseline on one benchmark.
fn slowdown_of(report: &Report, name: &str, cfg: &JobConfig) -> f64 {
    slowdown(report.ok(name, cfg), report.ok(name, &JobConfig::baseline()))
}

/// Geometric-mean slowdown of `cfg` over the suite.
fn mean_slowdown(report: &Report, cfg: &JobConfig) -> f64 {
    let xs: Vec<f64> = cbench::all().iter().map(|b| slowdown_of(report, b.name, cfg)).collect();
    geomean(&xs)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow without optimizations")]
fn figure9_means_stay_near_the_paper() {
    let report = sweep(fig9_configs());
    let sb = mean_slowdown(&report, &JobConfig::mechanism(Mechanism::SoftBound));
    let lf = mean_slowdown(&report, &JobConfig::mechanism(Mechanism::LowFat));
    // Paper: 1.74x / 1.77x. Allow a band, and require near-parity.
    assert!((1.55..=2.05).contains(&sb), "SoftBound mean drifted: {sb:.2}");
    assert!((1.55..=2.05).contains(&lf), "Low-Fat mean drifted: {lf:.2}");
    assert!((sb - lf).abs() < 0.15, "means no longer comparable: {sb:.2} vs {lf:.2}");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow without optimizations")]
fn figure9_crossovers_hold() {
    let report = sweep(fig9_configs());
    let check = |name: &str| {
        let sb = slowdown_of(&report, name, &JobConfig::mechanism(Mechanism::SoftBound));
        let lf = slowdown_of(&report, name, &JobConfig::mechanism(Mechanism::LowFat));
        (sb, lf)
    };
    // equake: trie lookups in the hot loop make SoftBound clearly worse.
    let (sb, lf) = check("183equake");
    assert!(sb > lf * 1.1, "equake crossover lost: sb {sb:.2} vs lf {lf:.2}");
    // crafty: the wider Low-Fat check dominates.
    let (sb, lf) = check("186crafty");
    assert!(lf > sb * 1.03, "crafty crossover lost: sb {sb:.2} vs lf {lf:.2}");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow without optimizations")]
fn extension_point_ordering_holds() {
    for mech in [Mechanism::SoftBound, Mechanism::LowFat] {
        let report = sweep(extension_point_configs(mech));
        let at = |ep| mean_slowdown(&report, &JobConfig::mechanism(mech).at(ep));
        let early = at(ExtensionPoint::ModuleOptimizerEarly);
        let scalar = at(ExtensionPoint::ScalarOptimizerLate);
        let vec = at(ExtensionPoint::VectorizerStart);
        // §5.5: early is clearly worse; the two late points are comparable.
        assert!(
            (early - 1.0) > (vec - 1.0) * 1.15,
            "{mech:?}: early {early:.2} not clearly above late {vec:.2}"
        );
        assert!(
            (scalar - vec).abs() < 0.12,
            "{mech:?}: late points diverged: {scalar:.2} vs {vec:.2}"
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow without optimizations")]
fn table2_signature_entries_hold() {
    // Dominance-only, like the paper artifact: loop widening would shrink
    // the executed-check denominator and skew the wide percentages.
    let noloop = |mech| JobConfig::mechanism(mech).opt(OptConfig::no_loops());
    let report = sweep(vec![noloop(Mechanism::SoftBound), noloop(Mechanism::LowFat)]);
    let wide =
        |name: &str, mech: Mechanism| report.ok(name, &noloop(mech)).stats.wide_check_percent();
    // gzip ~62 % wide under SoftBound, fully checked under Low-Fat.
    let g = wide("164gzip", Mechanism::SoftBound);
    assert!((50.0..75.0).contains(&g), "gzip SB wide {g:.1}");
    assert_eq!(wide("164gzip", Mechanism::LowFat), 0.0);
    // 429mcf ~54 % wide under Low-Fat, fully checked under SoftBound.
    let m = wide("429mcf", Mechanism::LowFat);
    assert!((40.0..75.0).contains(&m), "429mcf LF wide {m:.1}");
    assert_eq!(wide("429mcf", Mechanism::SoftBound), 0.0);
    // 433milc: size-less declaration, never used → exactly zero.
    assert_eq!(wide("433milc", Mechanism::SoftBound), 0.0);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow without optimizations")]
fn geninvariants_far_below_full_checking() {
    // §5.4/Figures 10-11: metadata propagation alone costs a small fraction
    // of full checking.
    for mech in [Mechanism::SoftBound, Mechanism::LowFat] {
        let full_cfg = JobConfig::mechanism(mech);
        let meta_cfg = JobConfig::mechanism(mech).mode(MiMode::GenInvariantsOnly);
        let report = sweep(vec![JobConfig::baseline(), full_cfg.clone(), meta_cfg.clone()]);
        let full = mean_slowdown(&report, &full_cfg);
        let meta = mean_slowdown(&report, &meta_cfg);
        assert!(
            (meta - 1.0) < (full - 1.0) * 0.3,
            "{mech:?}: metadata-only {meta:.2} too close to full {full:.2}"
        );
    }
}

/// Debug-profile smoke variant of the headline guards: a three-benchmark
/// subset through the `evald` driver, with loose bands. The full-suite
/// assertions above stay release-only; this one keeps `cargo test -q`
/// exercising the same code paths cheaply.
#[test]
fn headline_smoke_subset() {
    let subset = ["181mcf", "183equake", "186crafty"];
    let programs: Vec<Program> =
        subset.iter().map(|n| Program::from(&cbench::by_name(n).unwrap())).collect();
    let report = Driver::new(programs, fig9_configs()).run();
    let base_cfg = JobConfig::baseline();
    let sb_cfg = JobConfig::mechanism(Mechanism::SoftBound);
    let lf_cfg = JobConfig::mechanism(Mechanism::LowFat);
    let slow = |name: &str, cfg: &JobConfig| {
        report.ok(name, cfg).stats.cost_total as f64
            / report.ok(name, &base_cfg).stats.cost_total as f64
    };
    for name in subset {
        let (sb, lf) = (slow(name, &sb_cfg), slow(name, &lf_cfg));
        assert!(sb > 1.0 && sb < 5.0, "{name}: SoftBound slowdown implausible: {sb:.2}");
        assert!(lf > 1.0 && lf < 5.0, "{name}: Low-Fat slowdown implausible: {lf:.2}");
    }
    // The two Figure 9 crossover benchmarks keep their winners even in the
    // smoke subset.
    assert!(
        slow("183equake", &sb_cfg) > slow("183equake", &lf_cfg),
        "equake must be SoftBound-dominated"
    );
    assert!(
        slow("186crafty", &lf_cfg) > slow("186crafty", &sb_cfg),
        "crafty must be Low-Fat-dominated"
    );
}
