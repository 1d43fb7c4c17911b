#![warn(missing_docs)]

//! MemInstrument-RS: a memory-safety instrumentation framework.
//!
//! This crate reproduces the framework contribution of *"Memory Safety
//! Instrumentations in Practice"* (CGO'25): common infrastructure —
//! instrumentation-target discovery (Table 1), witness propagation, and
//! approach-independent check optimization (§5.3) — shared by two
//! mechanisms, **SoftBound** (§3.2) and **Low-Fat Pointers** (§3.3), so the
//! two can be compared fairly.
//!
//! # Architecture
//!
//! * [`itarget`] discovers *instrumentation targets* on unmodified IR:
//!   dereference checks at loads/stores, invariants at pointer escapes,
//!   metadata updates at `memcpy`.
//! * [`opt`] filters and rewrites targets: dominance-based redundant-check
//!   elimination, loop-invariant check hoisting, and induction-variable
//!   range widening (§5.3), all configured by [`OptConfig`].
//! * [`witness`] resolves a *witness* (the values carrying a pointer's
//!   bounds) for every pointer that needs one, handling the shared SSA
//!   plumbing (phi/select companions, gep inheritance) and delegating true
//!   sources (allocations, loads, params, …) to the mechanism.
//! * [`mechanism`] defines the [`mechanism::MechanismLowering`] trait and
//!   its implementations (SoftBound, Low-Fat Pointers, red zones).
//! * [`pass`] is the module pass gluing it together; it plugs into
//!   [`mir::Pipeline`] at any extension point (Figure 8).
//! * [`runtime`] compiles modules (one body, [`runtime::complete`]),
//!   installs the runtime library (checks, trie, shadow stack, low-fat
//!   allocators) into a [`memvm::Vm`], and provides the end-to-end
//!   [`runtime::compile_and_run`] convenience used by examples and tests.
//!
//! # Quickstart
//!
//! The [`Instrument`] builder is the documented entry point: it names an
//! instrumentation cell — mechanism, pipeline extension point, optimization
//! level, check-optimization flags — and compiles/runs modules under it.
//!
//! ```
//! use meminstrument::{ExtensionPoint, Instrument, Mechanism};
//!
//! let src = r#"
//!     hostdecl ptr @malloc(i64)
//!     define i64 @main() {
//!     entry:
//!       %p = call ptr @malloc(i64 16)
//!       %q = gep i64, %p, [i64 4]    ; out of bounds
//!       store i64, i64 1, %q
//!       ret i64 0
//!     }
//! "#;
//! let module = mir::parser::parse_module(src).unwrap();
//! let cell = Instrument::mechanism(Mechanism::SoftBound).at(ExtensionPoint::VectorizerStart);
//! assert_eq!(cell.to_string(), "softbound@O3@VectorizerStart");
//! let result = cell.run(module);
//! assert!(result.is_err(), "SoftBound must catch the overflow");
//! ```

pub mod config;
pub mod hostdefs;
pub mod itarget;
pub mod mechanism;
pub mod opt;
pub mod pass;
pub mod runtime;
pub mod stats;
pub mod witness;

pub use config::{Instrument, Mechanism, MiConfig, MiMode, OptConfig};
pub use itarget::CheckPlacement;
pub use opt::ElisionRecord;
pub use pass::MemInstrumentPass;
pub use runtime::{compile, compile_and_run, BuildOptions, CompiledProgram, SbAccess, SbAccessLog};
pub use stats::InstrStats;

// Re-exported so builder call sites can name pipeline cells without an
// explicit `mir` dependency edge in every downstream crate.
pub use mir::pipeline::{ExtensionPoint, OptLevel};
