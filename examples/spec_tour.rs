//! A guided tour through the benchmark suite: runs three benchmarks with
//! paper-distinctive behaviour through every configuration and prints a
//! compact comparison — a miniature of the full `bench` harness.
//!
//! ```text
//! cargo run --release --example spec_tour
//! ```

use meminstrument::{Instrument, Mechanism};
use mir::pipeline::ExtensionPoint;

fn main() {
    for name in ["183equake", "186crafty", "429mcf"] {
        let b = cbench::by_name(name).expect("benchmark exists");
        println!("== {name} ==");
        println!("{}\n", b.description.split_whitespace().collect::<Vec<_>>().join(" "));

        let module = cfront::compile(b.source).expect("benchmark compiles");
        let run = |cell: Instrument| cell.run(module.clone()).expect("benchmark runs");
        let base = run(Instrument::baseline());
        let base_cost = base.stats.cost_total;
        println!("  baseline -O3: cost {base_cost}, output {:?}", base.output);

        for mech in [Mechanism::SoftBound, Mechanism::LowFat] {
            let r = run(Instrument::mechanism(mech));
            let s = &r.stats;
            println!(
                "  {:9}: {:.2}x slowdown | {} checks ({:.2}% wide) | {} metadata loads | {} invariant checks",
                mech.name(),
                s.cost_total as f64 / base_cost as f64,
                s.checks_executed,
                s.wide_check_percent(),
                s.metadata_loads,
                s.invariant_checks_executed,
            );
        }

        // The pipeline effect (§5.5) on this benchmark, SoftBound only.
        print!("  softbound by extension point:");
        for ep in ExtensionPoint::ALL {
            let r = run(Instrument::mechanism(Mechanism::SoftBound).at(ep));
            print!(" {}={:.2}x", ep.name(), r.stats.cost_total as f64 / base_cost as f64);
        }
        println!("\n");
    }
    println!("Full experiment suite: cargo run --release -p bench --bin report");
}
