#![warn(missing_docs)]

//! A small LLVM-like SSA intermediate representation.
//!
//! `mir` is the compiler substrate of the MemInstrument reproduction: a typed
//! SSA IR with opaque pointers, a textual format (printer + parser), a
//! verifier, standard analyses (CFG, dominator tree, natural loops), and an
//! optimizing pass pipeline with the three *extension points* the paper
//! evaluates (`ModuleOptimizerEarly`, `ScalarOptimizerLate`,
//! `VectorizerStart`, cf. Figure 8 of the paper).
//!
//! The IR deliberately mirrors the LLVM subset the paper's instrumentation
//! operates on: `alloca`/`load`/`store` for memory, `gep` for pointer
//! arithmetic, `phi`/`select` for SSA joins, `inttoptr`/`ptrtoint`/`bitcast`
//! casts (the §4.4 pitfalls), and calls — including calls to *host functions*
//! that model the linked runtime library.
//!
//! # Example
//!
//! ```
//! use mir::builder::ModuleBuilder;
//! use mir::types::Type;
//!
//! let mut mb = ModuleBuilder::new("demo");
//! let mut fb = mb.function("main", vec![], Type::I64);
//! let forty_two = fb.const_i64(42);
//! fb.ret(Some(forty_two));
//! fb.finish();
//! let module = mb.finish();
//! assert!(mir::verifier::verify_module(&module).is_ok());
//! ```

pub mod analysis;
pub mod builder;
pub mod function;
pub mod hash;
pub mod ids;
pub mod instr;
pub mod module;
pub mod parser;
pub mod passes;
pub mod pipeline;
pub mod printer;
pub mod srcloc;
pub mod trace;
pub mod types;
pub mod verifier;

pub use function::{Block, Function, Param, Rewrite, ValueDef, ValueInfo};
pub use ids::{BlockId, FuncId, GlobalId, InstrId, ValueId};
pub use instr::{BinOp, CastOp, FcmpPred, IcmpPred, Instr, InstrKind, Operand, Terminator};
pub use module::{Effect, Global, GlobalAttrs, HostDecl, Init, Module};
pub use pipeline::{ExtensionPoint, OptLevel, Pipeline};
pub use srcloc::{AllocKind, AllocSite, CheckSite, SiteKind, SrcLoc};
pub use types::Type;
