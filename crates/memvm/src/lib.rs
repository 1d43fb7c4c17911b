#![warn(missing_docs)]

//! A byte-addressable virtual machine for [`mir`] programs.
//!
//! `memvm` is the "hardware" of the reproduction: it interprets `mir`
//! modules over a sparse 64-bit address space with a **deterministic cost
//! model**, playing the role the authors' x86-64 test machine plays in the
//! paper. Because costs are charged per executed instruction (and per
//! runtime-helper invocation), "execution time" comparisons between
//! instrumentation configurations are exactly reproducible.
//!
//! Key properties that matter for the paper's experiments:
//!
//! * **C-like memory semantics.** An out-of-bounds access only traps when it
//!   hits an *unmapped page*; accesses into padding or a neighbouring
//!   allocation silently succeed, as on real hardware. Detecting such
//!   accesses is the instrumentation's job, not the VM's.
//! * **Host functions** model the linked runtime library (checks, metadata
//!   structures, allocators). They are registered by name and can carry
//!   state; the default `malloc` can be replaced wholesale, which is how
//!   Low-Fat Pointers substitute their allocator.
//! * **Statistics** record cost per category (application, checks, metadata,
//!   allocator) and dynamic check counts, including how many checks ran with
//!   *wide bounds* — the quantity of Table 2.
//!
//! # Example
//!
//! ```
//! use mir::builder::ModuleBuilder;
//! use mir::types::Type;
//! use memvm::{Vm, VmConfig};
//!
//! let mut mb = ModuleBuilder::new("demo");
//! let mut fb = mb.function("main", vec![], Type::I64);
//! let v = fb.add(Type::I64, mir::Operand::i64(40), mir::Operand::i64(2));
//! fb.ret(Some(v));
//! fb.finish();
//! let module = mb.finish();
//!
//! let mut vm = Vm::new(module, VmConfig::default()).unwrap();
//! let outcome = vm.run("main", &[]).unwrap();
//! assert_eq!(outcome.ret.unwrap().as_int(), 42);
//! ```

pub mod bytecode;
pub mod cost;
mod exec;
pub mod host;
pub mod interp;
pub mod layout;
pub mod memory;
pub mod metrics;
pub mod profiler;
pub mod stats;
pub mod value;

pub use bytecode::{BcCode, BcImage, BcModule, VmBackend};
pub use cost::CostModel;
pub use host::{CheckFastPath, CostCategory, HostCtx, HostRegistry};
pub use interp::{ExecOutcome, Trap, Vm, VmConfig};
pub use memory::{MemCounters, Memory};
pub use metrics::{classify_host, OpClass, OpMetrics};
pub use profiler::FlameSampler;
pub use stats::{SiteCounts, SiteProfile, VmStats};
pub use value::RtVal;
