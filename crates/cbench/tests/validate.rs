//! Every benchmark must execute successfully — with output identical to the
//! uninstrumented baseline — under both mechanisms (the §5.1.1 selection
//! criterion: "we evaluate only the benchmarks that execute successfully
//! with both approaches").

use cbench::{by_name, Benchmark};
use meminstrument::{Instrument, Mechanism};
use memvm::interp::ExecOutcome;

/// Runs `b` under `cell`, panicking with a diagnostic on a trap.
fn run(b: &Benchmark, cell: &Instrument) -> ExecOutcome {
    let module =
        cfront::compile(b.source).unwrap_or_else(|e| panic!("{}: frontend error: {e}", b.name));
    cell.run(module).unwrap_or_else(|t| panic!("{} [{cell}] trapped: {t}", b.name))
}

/// The benchmark must run to completion under the baseline and under both
/// mechanisms (paper basis configs), with identical output. Returns the
/// three outcomes (baseline, SoftBound, Low-Fat).
fn validate_benchmark(b: &Benchmark) -> [ExecOutcome; 3] {
    let [base, sb, lf] = [
        Instrument::baseline(),
        Instrument::mechanism(Mechanism::SoftBound),
        Instrument::mechanism(Mechanism::LowFat),
    ]
    .map(|cell| run(b, &cell));
    assert_eq!(base.output, sb.output, "{}: softbound output diverged", b.name);
    assert_eq!(base.output, lf.output, "{}: lowfat output diverged", b.name);
    assert!(!base.output.is_empty(), "{}: benchmark must print a checksum", b.name);
    [base, sb, lf]
}

macro_rules! validate {
    ($test:ident, $name:literal) => {
        #[test]
        fn $test() {
            let b = by_name($name).expect("benchmark exists");
            let [base, sb, lf] = validate_benchmark(&b);
            // Instrumentation must actually be doing something.
            assert!(sb.stats.checks_executed > 0, "softbound ran no checks");
            assert!(lf.stats.checks_executed > 0, "lowfat ran no checks");
            assert!(sb.stats.cost_total > base.stats.cost_total);
            assert!(lf.stats.cost_total > base.stats.cost_total);
        }
    };
}

validate!(gzip_164, "164gzip");
validate!(mesa_177, "177mesa");
validate!(art_179, "179art");
validate!(mcf_181, "181mcf");
validate!(equake_183, "183equake");
validate!(crafty_186, "186crafty");
validate!(ammp_188, "188ammp");
validate!(parser_197, "197parser");
validate!(bzip2_256, "256bzip2");
validate!(twolf_300, "300twolf");
validate!(bzip2_401, "401bzip2");
validate!(mcf_429, "429mcf");
validate!(milc_433, "433milc");
validate!(gobmk_445, "445gobmk");
validate!(hmmer_456, "456hmmer");
validate!(sjeng_458, "458sjeng");
validate!(libquant_462, "462libquant");
validate!(h264ref_464, "464h264ref");
validate!(lbm_470, "470lbm");
validate!(sphinx3_482, "482sphinx3");

/// The Table 2 *traits* — which benchmarks see wide-bounds checks where.
#[test]
fn table2_wide_bounds_traits() {
    let check = |name: &str, mech: Mechanism| -> f64 {
        run(&by_name(name).unwrap(), &Instrument::mechanism(mech)).stats.wide_check_percent()
    };

    // 164gzip: most SoftBound checks are wide (paper: 61.71 %)...
    let gzip_sb = check("164gzip", Mechanism::SoftBound);
    assert!(gzip_sb > 40.0, "gzip SB wide = {gzip_sb:.2}%");
    // ... while Low-Fat checks everything (paper: 0.00).
    let gzip_lf = check("164gzip", Mechanism::LowFat);
    assert_eq!(gzip_lf, 0.0, "gzip LF wide = {gzip_lf:.2}%");

    // 429mcf: around half of Low-Fat checks are wide (paper: ~54 %)...
    let mcf_lf = check("429mcf", Mechanism::LowFat);
    assert!((30.0..80.0).contains(&mcf_lf), "429mcf LF wide = {mcf_lf:.2}%");
    // ... while SoftBound checks everything.
    assert_eq!(check("429mcf", Mechanism::SoftBound), 0.0);

    // 433milc declares a size-less array but never uses it: exactly 0.
    assert_eq!(check("433milc", Mechanism::SoftBound), 0.0);

    // 183equake / 186crafty / 470lbm: fully checked under both.
    for name in ["183equake", "186crafty", "470lbm"] {
        assert_eq!(check(name, Mechanism::SoftBound), 0.0, "{name} SB");
        assert_eq!(check(name, Mechanism::LowFat), 0.0, "{name} LF");
    }

    // 197parser: a visible share of Low-Fat checks are wide (paper: 7.14 %),
    // and a small share of SoftBound checks (paper: 0.27 %).
    let parser_lf = check("197parser", Mechanism::LowFat);
    assert!(parser_lf > 1.0 && parser_lf < 30.0, "parser LF wide = {parser_lf:.2}%");
    let parser_sb = check("197parser", Mechanism::SoftBound);
    assert!(parser_sb > 0.0 && parser_sb < 5.0, "parser SB wide = {parser_sb:.2}%");
}
