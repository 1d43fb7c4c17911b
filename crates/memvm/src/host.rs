//! Host functions: the runtime library interface.
//!
//! Instrumentation mechanisms ship a runtime library (checks, metadata
//! structures, allocators). In this VM those are *host functions*: named
//! entry points holding Rust state, registered before execution. The default
//! registry provides `malloc`/`free` (bump allocator), printing, and
//! `abort`; instrumentation runtimes extend or *replace* entries (Low-Fat
//! Pointers replace `malloc` wholesale, as the paper notes external heap
//! allocations automatically become low-fat).

use std::collections::HashMap;
use std::rc::Rc;

use crate::cost::{helper, CostModel};
use crate::interp::Trap;
use crate::memory::Memory;
use crate::stats::{SiteProfile, VmStats};
use crate::value::RtVal;

/// Which statistics bucket a host function's cost lands in.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CostCategory {
    /// Application work (default bucket for app-visible helpers).
    App,
    /// Safety checks.
    Checks,
    /// Metadata propagation.
    Metadata,
    /// Allocator work.
    Allocator,
    /// Everything else (I/O, ...).
    Other,
}

/// Mutable VM state handed to host functions.
pub struct HostCtx<'a> {
    /// The VM memory.
    pub mem: &'a mut Memory,
    /// Statistics (host functions update check counters directly).
    pub stats: &'a mut VmStats,
    /// Program output lines (`print_*` helpers append here).
    pub out: &'a mut Vec<String>,
    /// Per-check-site dynamic counters (check helpers record here).
    pub profile: &'a mut SiteProfile,
}

impl HostCtx<'_> {
    /// Charges `cost` units into `category`.
    pub fn charge(&mut self, category: CostCategory, cost: u64) {
        self.stats.cost_total += cost;
        match category {
            CostCategory::App => self.stats.cost_app += cost,
            CostCategory::Checks => self.stats.cost_checks += cost,
            CostCategory::Metadata => self.stats.cost_metadata += cost,
            CostCategory::Allocator => self.stats.cost_allocator += cost,
            CostCategory::Other => self.stats.cost_other += cost,
        }
    }

    /// Records one execution of check site `site` in the per-site profile.
    ///
    /// Check helpers call this with the same `cost` they charge into
    /// [`CostCategory::Checks`], so per-site cost totals reconcile exactly
    /// with [`VmStats::cost_checks`].
    pub fn record_site(&mut self, site: usize, wide: bool, cost: u64) {
        self.profile.record(site, wide, cost);
    }
}

/// The boxed host-function type. Returns the result value (use
/// `RtVal::Int(0)` for `void` helpers) or a [`Trap`].
pub type HostFn = Rc<dyn Fn(&mut HostCtx<'_>, &[RtVal]) -> Result<RtVal, Trap>>;

/// The passing case of a check helper, which the bytecode backend may run
/// inline instead of calling the closure.
///
/// Registering one ([`HostRegistry::register_check`]) is a promise about
/// the closure registered with it: whenever `pass` returns `Some(wide)` for
/// an argument list, calling the closure with the same arguments returns
/// `Ok` after doing exactly this and nothing else — charge `charge` into
/// [`CostCategory::Checks`], count one `checks_executed` (plus one
/// `checks_wide` when `wide`), and record the call's check site with
/// `(wide, charge)`. The op ledger attributes the charge to the helper's
/// [`crate::classify_host`] class on both paths. `None` promises nothing;
/// the closure then runs, and it stays the only producer of violations.
#[derive(Copy, Clone, Debug)]
pub struct CheckFastPath {
    /// The pass predicate over the call's arguments.
    pub pass: fn(&[RtVal]) -> Option<bool>,
    /// The fixed cost the helper charges per call.
    pub charge: u64,
}

/// A registry of host functions, keyed by name.
#[derive(Clone, Default)]
pub struct HostRegistry {
    map: HashMap<String, HostFn>,
    fast: HashMap<String, CheckFastPath>,
    version: u64,
}

impl HostRegistry {
    /// An empty registry.
    pub fn new() -> HostRegistry {
        HostRegistry::default()
    }

    /// Registers (or replaces) a host function. Replacing a check helper
    /// this way also drops its [`CheckFastPath`].
    pub fn register(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&mut HostCtx<'_>, &[RtVal]) -> Result<RtVal, Trap> + 'static,
    ) {
        let name = name.into();
        self.version += 1;
        self.fast.remove(&name);
        self.map.insert(name, Rc::new(f));
    }

    /// Registers (or replaces) a check helper together with the fast path
    /// of its passing case (see [`CheckFastPath`] for the promise it makes).
    pub fn register_check(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&mut HostCtx<'_>, &[RtVal]) -> Result<RtVal, Trap> + 'static,
        fast: CheckFastPath,
    ) {
        let name = name.into();
        self.register(name.clone(), f);
        self.fast.insert(name, fast);
    }

    /// A counter bumped on every [`HostRegistry::register`] call.
    ///
    /// The bytecode backend caches compiled code keyed on this value, so
    /// installing (or replacing) a runtime library after a compile
    /// invalidates the cache and call sites are re-resolved.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Looks up a host function.
    pub fn get(&self, name: &str) -> Option<&HostFn> {
        self.map.get(name)
    }

    /// The check fast path registered with `name`, if any.
    pub fn fast_path(&self, name: &str) -> Option<CheckFastPath> {
        self.fast.get(name).copied()
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.map.contains_key(name)
    }

    /// Names of all registered host functions (sorted), for diagnostics.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.map.keys().cloned().collect();
        v.sort();
        v
    }
}

impl std::fmt::Debug for HostRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostRegistry").field("names", &self.names()).finish()
    }
}

/// State of the default bump allocator.
#[derive(Debug)]
pub struct BumpAllocator {
    next: u64,
    /// Total bytes handed out.
    pub allocated: u64,
}

impl BumpAllocator {
    /// Creates a bump allocator starting at `base`.
    pub fn new(base: u64) -> BumpAllocator {
        BumpAllocator { next: base, allocated: 0 }
    }

    /// Allocates `size` bytes with 16-byte alignment, mapping the pages.
    pub fn alloc(&mut self, mem: &mut Memory, size: u64) -> u64 {
        let size = size.max(1);
        let addr = (self.next + 15) & !15;
        self.next = addr + size;
        self.allocated += size;
        mem.map(addr, size);
        addr
    }
}

/// Builds the default registry: `malloc`, `calloc`, `free`, `print_i64`,
/// `print_f64`, `print_str`, `abort`.
///
/// The allocator state is shared behind an `Rc<RefCell<..>>`, so cloning the
/// registry aliases the same heap.
pub fn default_registry(cost: &CostModel) -> HostRegistry {
    use std::cell::RefCell;
    let _ = cost;
    let mut reg = HostRegistry::new();
    let heap = Rc::new(RefCell::new(BumpAllocator::new(crate::layout::HEAP_BASE)));

    {
        let heap = heap.clone();
        reg.register("malloc", move |ctx, args| {
            ctx.charge(CostCategory::Allocator, helper::MALLOC);
            let size = args[0].as_int();
            Ok(RtVal::Int(heap.borrow_mut().alloc(ctx.mem, size)))
        });
    }
    {
        let heap = heap.clone();
        reg.register("calloc", move |ctx, args| {
            let n = args[0].as_int();
            let sz = args[1].as_int();
            let total = n.saturating_mul(sz);
            ctx.charge(CostCategory::Allocator, helper::MALLOC + total / 8);
            // Pages are zero on map; nothing else to do.
            Ok(RtVal::Int(heap.borrow_mut().alloc(ctx.mem, total)))
        });
    }
    reg.register("free", move |ctx, _args| {
        ctx.charge(CostCategory::Allocator, helper::FREE);
        Ok(RtVal::Int(0))
    });
    reg.register("print_i64", |ctx, args| {
        ctx.charge(CostCategory::Other, helper::PRINT);
        let v = args[0].as_int() as i64;
        ctx.out.push(v.to_string());
        Ok(RtVal::Int(0))
    });
    reg.register("print_f64", |ctx, args| {
        ctx.charge(CostCategory::Other, helper::PRINT);
        let v = args[0].as_float();
        ctx.out.push(format!("{v:.6}"));
        Ok(RtVal::Int(0))
    });
    reg.register("print_str", |ctx, args| {
        ctx.charge(CostCategory::Other, helper::PRINT);
        // Reads a NUL-terminated string from memory.
        let mut addr = args[0].as_int();
        let mut bytes = Vec::new();
        loop {
            let b = ctx.mem.read_uint(addr, 1).map_err(|f| Trap::UnmappedAccess {
                addr: f.addr,
                width: 1,
                write: false,
                func: None,
                line: None,
            })? as u8;
            if b == 0 || bytes.len() > 4096 {
                break;
            }
            bytes.push(b);
            addr += 1;
        }
        ctx.out.push(String::from_utf8_lossy(&bytes).into_owned());
        Ok(RtVal::Int(0))
    });
    reg.register("abort", |_ctx, _args| Err(Trap::Abort("abort() called".into())));
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_parts() -> (Memory, VmStats, Vec<String>, SiteProfile) {
        (Memory::new(), VmStats::default(), Vec::new(), SiteProfile::new())
    }

    #[test]
    fn default_registry_has_core_helpers() {
        let reg = default_registry(&CostModel::default());
        for name in ["malloc", "calloc", "free", "print_i64", "print_f64", "abort"] {
            assert!(reg.contains(name), "{name} missing");
        }
    }

    #[test]
    fn malloc_maps_memory_and_charges_allocator() {
        let reg = default_registry(&CostModel::default());
        let (mut mem, mut stats, mut out, mut prof) = ctx_parts();
        let mut ctx =
            HostCtx { mem: &mut mem, stats: &mut stats, out: &mut out, profile: &mut prof };
        let f = reg.get("malloc").unwrap().clone();
        let p = f(&mut ctx, &[RtVal::Int(100)]).unwrap().as_int();
        assert!(p >= crate::layout::HEAP_BASE);
        assert_eq!(p % 16, 0);
        assert!(mem.is_mapped(p, 100));
        assert!(stats.cost_allocator > 0);
    }

    #[test]
    fn consecutive_mallocs_do_not_overlap() {
        let reg = default_registry(&CostModel::default());
        let (mut mem, mut stats, mut out, mut prof) = ctx_parts();
        let mut ctx =
            HostCtx { mem: &mut mem, stats: &mut stats, out: &mut out, profile: &mut prof };
        let f = reg.get("malloc").unwrap().clone();
        let a = f(&mut ctx, &[RtVal::Int(24)]).unwrap().as_int();
        let b = f(&mut ctx, &[RtVal::Int(24)]).unwrap().as_int();
        assert!(b >= a + 24);
    }

    #[test]
    fn print_appends_output() {
        let reg = default_registry(&CostModel::default());
        let (mut mem, mut stats, mut out, mut prof) = ctx_parts();
        let mut ctx =
            HostCtx { mem: &mut mem, stats: &mut stats, out: &mut out, profile: &mut prof };
        let f = reg.get("print_i64").unwrap().clone();
        f(&mut ctx, &[RtVal::Int((-5i64) as u64)]).unwrap();
        assert_eq!(out, vec!["-5".to_string()]);
    }

    #[test]
    fn check_fast_paths_follow_registration_and_image_resolution() {
        let mut reg = HostRegistry::new();
        let fast = CheckFastPath { pass: |_| Some(false), charge: 7 };
        reg.register_check("__sb_check", |_ctx, _args| Ok(RtVal::Int(0)), fast);
        assert_eq!(reg.fast_path("__sb_check").map(|f| f.charge), Some(7));
        // Resolving a bytecode image re-arms the fast path with the closure.
        let image = crate::BcImage::from(crate::BcCode {
            host_names: vec!["__sb_check".into()],
            host_classes: vec![crate::OpClass::CheckSb],
            ..Default::default()
        });
        let armed = |reg: &HostRegistry| image.resolve(reg).unwrap().host_fast[0].is_some();
        assert!(armed(&reg));
        // A plain re-registration replaces the helper and drops its fast path.
        reg.register("__sb_check", |_ctx, _args| Ok(RtVal::Int(0)));
        assert!(reg.fast_path("__sb_check").is_none());
        assert!(!armed(&reg));
    }

    #[test]
    fn replacement_overrides() {
        let mut reg = default_registry(&CostModel::default());
        reg.register("malloc", |_ctx, _args| Ok(RtVal::Int(0x1234)));
        let (mut mem, mut stats, mut out, mut prof) = ctx_parts();
        let mut ctx =
            HostCtx { mem: &mut mem, stats: &mut stats, out: &mut out, profile: &mut prof };
        let f = reg.get("malloc").unwrap().clone();
        assert_eq!(f(&mut ctx, &[RtVal::Int(8)]).unwrap().as_int(), 0x1234);
    }
}
