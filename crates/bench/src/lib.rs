#![warn(missing_docs)]

//! `bench`: harnesses regenerating every table and figure of the paper.
//!
//! One binary, `report`, prints the whole Markdown report (the content of
//! `EXPERIMENTS.md`); `report --section <name>` prints one section:
//!
//! | section | regenerates |
//! |---|---|
//! | `table2` | Table 2 — % of dynamic checks with wide bounds |
//! | `fig9` | Figure 9 — execution-time overhead, SoftBound vs Low-Fat |
//! | `fig10` | Figure 10 — SoftBound: optimized / unoptimized / metadata |
//! | `fig11` | Figure 11 — Low-Fat: optimized / unoptimized / invariants |
//! | `fig12` | Figure 12 — SoftBound at three extension points |
//! | `fig13` | Figure 13 — Low-Fat at three extension points |
//! | `checks_removed` | §5.3 — static share of checks removed by the dominance optimization |
//! | `check_opts` | loop hoisting / range widening, static and dynamic |
//! | `ipo` | interprocedural elision vs `-noipo` |
//! | `cost_breakdown` | §5.4 — cost split by category (checks/metadata/allocator) |
//! | `extensions` | summary of the extensions beyond the paper |
//! | `mechanisms` | SoftBound / Low-Fat / RedZone slowdowns |
//! | `memory_overhead` | mapped program memory relative to the baseline |
//! | `wrapper_checks` | §5.1.2 ablation — SoftBound wrapper checks on/off |
//! | `driver` | the evaluation driver's cache counters |
//!
//! Absolute cost units are a deterministic proxy (see `memvm::cost`); the
//! comparisons reproduce the paper's *shapes*, not its wall-clock numbers.

pub mod driver;
pub mod job;
pub mod store;

// `perfbench` imports the JSON layer from this path.
pub use telemetry::json;

use driver::CellOk;

/// Slowdown of cell `m` relative to the `baseline` cell (the figures'
/// y-axis): the ratio of their deterministic VM costs.
pub fn slowdown(m: &CellOk, baseline: &CellOk) -> f64 {
    m.stats.cost_total as f64 / baseline.stats.cost_total as f64
}

/// Geometric mean of a slice of ratios.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{Driver, JobConfig, Program};
    use meminstrument::Mechanism;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn slowdown_is_ratio() {
        let b = cbench::by_name("186crafty").unwrap();
        let (base, sb) = (JobConfig::baseline(), JobConfig::mechanism(Mechanism::SoftBound));
        let report = Driver::new(vec![Program::from(&b)], vec![base.clone(), sb.clone()]).run();
        let s = slowdown(report.ok(b.name, &sb), report.ok(b.name, &base));
        assert!(s > 1.0, "instrumentation must cost something, got {s}");
    }
}
