//! Approach-independent check optimizations (§5.3).
//!
//! Three cooperating transformations run over the discovered check targets
//! before any code is emitted, so every mechanism (SoftBound, Low-Fat,
//! red-zone) benefits identically:
//!
//! 1. **Dominance elimination** ([`eliminate_dominated_checks`]): a check
//!    is removed when another check of the *same pointer* with at least
//!    the same access width dominates it — if the dominating check passed,
//!    the dominated one cannot fail. The paper reports 8–50 % of checks
//!    removed this way.
//! 2. **Loop-invariant hoisting** ([`optimize_loop_checks`]): a check of a
//!    loop-invariant pointer that provably executes whenever the loop is
//!    entered moves into the loop's dedicated preheader and runs once.
//! 3. **Induction-variable widening** ([`optimize_loop_checks`]): a check
//!    of `gep ty, base, [iv]` on a counted loop that executes on every
//!    iteration is replaced by a single preheader range check covering
//!    every byte the loop will access (`[first, last]` element), so the
//!    per-iteration checks disappear entirely.
//!
//! Both loop transformations are gated on a static proof that the guarded
//! access executes whenever the preheader does (trip count ≥ 1, the check
//! dominates every latch, and the loop has no side exits), so a hoisted or
//! widened check can only trap *earlier* — never on a program that was
//! safe without the optimization.

use std::collections::{BTreeSet, HashMap};

use mir::analysis::{
    ensure_dedicated_preheader, operand_is_invariant, Cfg, CountedLoop, DomTree, Loop, LoopForest,
};
use mir::function::ValueDef;
use mir::ids::BlockId;
use mir::instr::{InstrKind, Operand};
use mir::types::Type;
use mir::Function;

use crate::config::{Mechanism, OptConfig};
use crate::itarget::{CheckPlacement, CheckTarget, Targets};

/// The control-flow analyses the check optimizations share. They are
/// computed once per instrumented function: dominance elimination reads
/// them, and the loop optimizer keeps them until it inserts a block.
pub struct CfgAnalyses {
    /// Control-flow graph.
    pub cfg: Cfg,
    /// Dominator tree over `cfg`.
    pub dom: DomTree,
}

impl CfgAnalyses {
    /// Computes the analyses of `f`.
    pub fn compute(f: &Function) -> CfgAnalyses {
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(f, &cfg);
        CfgAnalyses { cfg, dom }
    }
}

/// Filters `targets.checks`, removing dominated redundant checks; `dom` is
/// the dominator tree of `f`. Returns the number of checks eliminated.
pub fn eliminate_dominated_checks(f: &Function, dom: &DomTree, targets: &mut Targets) -> u64 {
    // Group checks by checked pointer (identical SSA operand).
    let mut groups: HashMap<Operand, Vec<usize>> = HashMap::new();
    for (i, c) in targets.checks.iter().enumerate() {
        groups.entry(c.ptr.clone()).or_default().push(i);
    }

    // The block and position of each linked access, found in one scan of
    // every block that holds a check.
    let mut at = vec![None; f.instrs.len()];
    let mut scanned = vec![false; f.blocks.len()];
    for c in &targets.checks {
        if !std::mem::replace(&mut scanned[c.block.index()], true) {
            for (p, &iid) in f.blocks[c.block.index()].instrs.iter().enumerate() {
                at[iid.index()] = Some((c.block, p));
            }
        }
    }
    // Instruction dominance: `a`'s block strictly dominates `b`'s, or both
    // are in one block and `a` comes first.
    let dominates = |a: &CheckTarget, b: &CheckTarget| {
        if a.block != b.block {
            return dom.strictly_dominates(a.block, b.block);
        }
        match (at[a.instr.index()], at[b.instr.index()]) {
            _ if a.instr == b.instr => true,
            (Some((ba, pa)), Some((bb, pb))) => ba == a.block && bb == a.block && pa < pb,
            _ => false,
        }
    };

    let mut dead = vec![false; targets.checks.len()];
    for idxs in groups.values() {
        for &a in idxs {
            if dead[a] {
                continue;
            }
            for &b in idxs {
                if a == b || dead[b] {
                    continue;
                }
                let (ca, cb) = (&targets.checks[a], &targets.checks[b]);
                if ca.width >= cb.width && dominates(ca, cb) {
                    dead[b] = true;
                }
            }
        }
    }

    let before = targets.checks.len();
    let mut keep = dead.iter().map(|d| !d);
    targets.checks.retain(|_| keep.next().unwrap());
    (before - targets.checks.len()) as u64
}

/// Result of one [`optimize_loop_checks`] run.
#[derive(Copy, Clone, Default, PartialEq, Eq, Debug)]
pub struct LoopOptOutcome {
    /// Loop-invariant checks moved into a preheader.
    pub hoisted: u64,
    /// Induction-variable checks widened into a preheader range check.
    pub widened: u64,
    /// Preheader checks merged with an identical/covering one afterwards
    /// (counted into `checks_eliminated`).
    pub merged: u64,
}

/// Hoists loop-invariant checks and widens monotone induction-variable
/// checks into loop preheaders (may insert preheader blocks and `gep`s
/// into `f`). `analyses` must describe `f` as passed in. Must run before
/// witness resolution; rewritten targets keep their original access
/// instruction so check-site provenance still names the guarded access.
pub fn optimize_loop_checks(
    f: &mut Function,
    analyses: CfgAnalyses,
    targets: &mut Targets,
    opt: &OptConfig,
    mechanism: Mechanism,
) -> LoopOptOutcome {
    let mut out = LoopOptOutcome::default();
    if !opt.loop_hoist && !opt.loop_widen {
        return out;
    }
    // Loops are optimized one per round. The analyses depend only on the
    // blocks and their terminators, so the preheader `gep`s of widening
    // leave them valid; only an inserted preheader block invalidates them,
    // and only then are they recomputed. Headers identify loops across
    // rounds (block ids are stable: blocks only ever get appended).
    let CfgAnalyses { mut cfg, mut dom } = analyses;
    let mut forest = LoopForest::compute(&cfg, &dom);
    let mut handled: BTreeSet<BlockId> = BTreeSet::new();
    while let Some(l) = forest.loops.iter().find(|l| !handled.contains(&l.header)) {
        handled.insert(l.header);
        let blocks = f.blocks.len();
        let round = optimize_one_loop(f, &cfg, &dom, l, targets, opt, mechanism);
        out.hoisted += round.hoisted;
        out.widened += round.widened;
        out.merged += round.merged;
        if f.blocks.len() != blocks {
            CfgAnalyses { cfg, dom } = CfgAnalyses::compute(f);
            forest = LoopForest::compute(&cfg, &dom);
        }
    }
    out
}

/// What a candidate check in the current loop becomes.
enum Plan {
    Hoist,
    Widen { base: Operand, elem_ty: Type, min_idx: i64, width: u64 },
}

fn optimize_one_loop(
    f: &mut Function,
    cfg: &Cfg,
    dom: &DomTree,
    l: &Loop,
    targets: &mut Targets,
    opt: &OptConfig,
    mechanism: Mechanism,
) -> LoopOptOutcome {
    let mut out = LoopOptOutcome::default();

    // Red-zone checks consult mutable shadow state: any call inside the
    // loop (allocators, frees, arbitrary functions) may poison or unpoison
    // granules mid-loop, so moving a red-zone check across iterations is
    // only sound in loops free of calls and bulk memory ops.
    if mechanism == Mechanism::RedZone && loop_has_calls(f, l) {
        return out;
    }

    let loop_defs = l.defined_values(f);
    let counted = CountedLoop::analyze(f, l).filter(|cl| cl.trip_count >= 1);
    // A side exit (any in-loop edge leaving the loop other than from the
    // header) could end the loop before the guarded access ran its full
    // range — the trip-count proof only covers single-exit loops.
    let single_exit =
        l.blocks.iter().all(|&b| b == l.header || cfg.succs(b).iter().all(|&s| l.contains(s)));
    let every_iteration = |b: BlockId| l.latches.iter().all(|&latch| dom.dominates(b, latch));

    let mut plans: Vec<(usize, Plan)> = Vec::new();
    for (i, c) in targets.checks.iter().enumerate() {
        if c.placement != CheckPlacement::AtAccess || !l.contains(c.block) {
            continue;
        }
        // Both transformations need the access to provably execute
        // whenever the preheader does. A check in the header always
        // executes once the loop is entered; anything deeper additionally
        // needs trip ≥ 1, no side exits, and execution on every iteration.
        let proven_deep = counted.is_some() && single_exit && every_iteration(c.block);
        // Widening additionally excludes header checks: the header runs
        // trip + 1 times (the final, failing test included), so a header
        // access sees the induction variable one step past `last` — a
        // byte the `[first, last]` hull does not cover.
        if opt.loop_widen && proven_deep && c.block != l.header {
            if let Some(cl) = &counted {
                if let Some(plan) = widen_plan(f, c, cl, &loop_defs, mechanism) {
                    plans.push((i, plan));
                    continue;
                }
            }
        }
        if opt.loop_hoist
            && operand_is_invariant(&c.ptr, &loop_defs)
            && (c.block == l.header || proven_deep)
        {
            plans.push((i, Plan::Hoist));
        }
    }
    if plans.is_empty() {
        return out;
    }
    let Some(pre) = ensure_dedicated_preheader(f, cfg, l) else {
        return out;
    };

    // Identical widened ranges share one preheader gep.
    let mut geps: HashMap<(Operand, Type, i64), Operand> = HashMap::new();
    for (i, plan) in plans {
        match plan {
            Plan::Hoist => {
                targets.checks[i].placement = CheckPlacement::BlockEnd(pre);
                out.hoisted += 1;
            }
            Plan::Widen { base, elem_ty, min_idx, width } => {
                let loc = f.instrs[targets.checks[i].instr.index()].loc;
                let ptr = geps
                    .entry((base.clone(), elem_ty.clone(), min_idx))
                    .or_insert_with(|| {
                        let pos = f.blocks[pre.index()].instrs.len();
                        let id = f.insert_instr(
                            pre,
                            pos,
                            InstrKind::Gep { elem_ty, base, indices: vec![Operand::i64(min_idx)] },
                        );
                        f.set_instr_loc(id, loc);
                        Operand::Val(f.instr_result(id).expect("gep has a result"))
                    })
                    .clone();
                let c = &mut targets.checks[i];
                c.ptr = ptr;
                c.width = width;
                c.placement = CheckPlacement::BlockEnd(pre);
                out.widened += 1;
            }
        }
    }

    // Merge preheader checks that now validate the same pointer: keep one
    // per pointer, carrying the widest range and the strongest access kind.
    let mut kept: HashMap<Operand, usize> = HashMap::new();
    let mut dead = vec![false; targets.checks.len()];
    for (i, d) in dead.iter_mut().enumerate() {
        if targets.checks[i].placement != CheckPlacement::BlockEnd(pre) {
            continue;
        }
        match kept.entry(targets.checks[i].ptr.clone()) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(i);
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                let k = *e.get();
                let width = targets.checks[i].width;
                let is_store = targets.checks[i].is_store;
                let keeper = &mut targets.checks[k];
                keeper.width = keeper.width.max(width);
                keeper.is_store |= is_store;
                *d = true;
                out.merged += 1;
            }
        }
    }
    let mut keep = dead.iter().map(|d| !d);
    targets.checks.retain(|_| keep.next().unwrap());
    out
}

/// Whether the loop contains any call or bulk memory instruction.
fn loop_has_calls(f: &Function, l: &Loop) -> bool {
    l.blocks.iter().any(|&b| {
        f.blocks[b.index()].instrs.iter().any(|&iid| {
            matches!(
                f.instrs[iid.index()].kind,
                InstrKind::Call { .. }
                    | InstrKind::CallIndirect { .. }
                    | InstrKind::MemCpy { .. }
                    | InstrKind::MemSet { .. }
            )
        })
    })
}

/// Builds a widening plan for check `c` if its pointer is a single-index
/// `gep` of the loop's induction variable off a loop-invariant base and
/// the widened range is representable.
fn widen_plan(
    f: &Function,
    c: &CheckTarget,
    cl: &CountedLoop,
    loop_defs: &BTreeSet<mir::ids::ValueId>,
    mechanism: Mechanism,
) -> Option<Plan> {
    let v = c.ptr.as_value()?;
    let ValueDef::Instr(iid) = f.values[v.index()].def else {
        return None;
    };
    let InstrKind::Gep { elem_ty, base, indices } = &f.instrs[iid.index()].kind else {
        return None;
    };
    if indices.len() != 1 || indices[0].as_value() != Some(cl.iv) {
        return None;
    }
    if !operand_is_invariant(base, loop_defs) {
        return None;
    }
    let es = elem_ty.size_of();
    if es == 0 {
        return None;
    }
    // Red-zone shadow lookups inspect every granule in the checked range;
    // the union of the per-iteration accesses must therefore *cover* the
    // hull, or the widened check could hit a poisoned granule the loop
    // itself skips over. SoftBound and Low-Fat validate against a single
    // interval, where hull containment and per-access containment agree.
    if mechanism == Mechanism::RedZone && cl.step.unsigned_abs().saturating_mul(es) > c.width {
        return None;
    }
    let (min_idx, max_idx) = {
        let (a, b) = (cl.init, cl.last());
        (a.min(b), b.max(a))
    };
    // All byte arithmetic in i128: the hull must be addressable without
    // wrapping for the preheader check to mean what the per-iteration
    // checks meant.
    let es = es as i128;
    let first_byte = min_idx as i128 * es;
    let width = (max_idx as i128 - min_idx as i128) * es + c.width as i128;
    if first_byte.checked_add(width)? > i64::MAX as i128 || first_byte < i64::MIN as i128 {
        return None;
    }
    Some(Plan::Widen { base: base.clone(), elem_ty: elem_ty.clone(), min_idx, width: width as u64 })
}

/// One check dropped by [`elide_proven_checks`]: the summary-derived
/// precondition that justified the elision, kept for auditability (the
/// property suite replays these against the walker VM's per-access
/// bounds log).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ElisionRecord {
    /// Function containing the elided check.
    pub func: String,
    /// Source line of the guarded access, when known.
    pub line: Option<u32>,
    /// Checked width in bytes (the whole range for widened checks).
    pub width: u64,
    /// Proven byte-offset range of the checked pointer.
    pub off: (i64, i64),
    /// Proven minimum extent of the underlying allocation.
    pub size_min: u64,
}

/// Interprocedural check elision (the `mir::analysis::ipo` consumer):
/// recomputes per-value pointer facts for `f` under the whole-program
/// `summaries` and drops every check the facts prove in bounds of the
/// original allocation. Runs after the loop optimizations so widened
/// preheader range checks (whose pointer is a constant-index `gep` of
/// a summarized base) are themselves elidable.
///
/// SoftBound and Low-Fat elide on the spatial proof alone: SoftBound
/// bounds equal the allocation extent the summary reasons about, and a
/// Low-Fat size-class always contains the allocation. Both tolerate
/// in-bounds accesses to freed memory even with the check in place, so
/// the proof loses no temporal coverage. RedZone additionally demands
/// the access provably hits the *original, still-live* allocation —
/// its shadow poisons freed heap heads and dead stack frames, so heap
/// facts are only elidable while the module never calls `free`, and
/// stack facts must not have escaped a frame through a `ret`.
///
/// Returns the number of checks elided and appends one record each to
/// `records`.
pub fn elide_proven_checks(
    f: &Function,
    targets: &mut Targets,
    summaries: &mir::analysis::ipo::ModuleSummaries,
    env: &mir::analysis::ipo::FactEnv,
    mechanism: Mechanism,
    records: &mut Vec<ElisionRecord>,
) -> u64 {
    use mir::analysis::ipo::{operand_fact, value_facts, Provenance};

    if targets.checks.is_empty() {
        return 0;
    }
    let facts = value_facts(f, env, summaries);
    let before = targets.checks.len();
    targets.checks.retain(|c| {
        let Some(fact) = operand_fact(&c.ptr, &facts, env) else {
            return true; // bottom: no flow reached this value, keep
        };
        if !fact.proves_in_bounds(c.width) {
            return true;
        }
        let temporal_ok = match mechanism {
            Mechanism::SoftBound | Mechanism::LowFat => true,
            Mechanism::RedZone => {
                !fact.prov.contains(Provenance::STACK_RET)
                    && (!fact.prov.contains(Provenance::HEAP) || !env.has_free)
            }
        };
        if !temporal_ok {
            return true;
        }
        records.push(ElisionRecord {
            func: f.name.clone(),
            line: f.instrs[c.instr.index()].loc.map(|l| l.line),
            width: c.width,
            off: fact.off.expect("proven fact has a bounded offset"),
            size_min: fact.size_min,
        });
        false
    });
    (before - targets.checks.len()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itarget::discover;
    use mir::builder::ModuleBuilder;
    use mir::instr::IcmpPred;
    use mir::types::Type;
    use mir::verifier::verify_module;

    #[test]
    fn removes_same_block_duplicate() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("p", Type::Ptr)], Type::I64);
        let p = fb.param(0);
        let a = fb.load(Type::I64, p.clone());
        let b = fb.load(Type::I64, p.clone());
        let s = fb.add(Type::I64, a, b);
        fb.ret(Some(s));
        fb.finish();
        let m = mb.finish();
        let f = m.function_by_name("f").unwrap().1;
        let mut t = discover(f);
        assert_eq!(t.checks.len(), 2);
        let removed = eliminate_dominated_checks(f, &CfgAnalyses::compute(f).dom, &mut t);
        assert_eq!(removed, 1);
        assert_eq!(t.checks.len(), 1);
    }

    #[test]
    fn narrower_dominating_check_does_not_cover_wider() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("p", Type::Ptr)], Type::I64);
        let p = fb.param(0);
        let _a = fb.load(Type::I8, p.clone()); // 1-byte check first
        let b = fb.load(Type::I64, p.clone()); // 8-byte access NOT covered
        fb.ret(Some(b));
        fb.finish();
        let m = mb.finish();
        let f = m.function_by_name("f").unwrap().1;
        let mut t = discover(f);
        let removed = eliminate_dominated_checks(f, &CfgAnalyses::compute(f).dom, &mut t);
        assert_eq!(removed, 0);
    }

    #[test]
    fn wider_dominating_check_covers_narrower() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("p", Type::Ptr)], Type::I64);
        let p = fb.param(0);
        let a = fb.load(Type::I64, p.clone());
        let _b = fb.load(Type::I8, p.clone());
        fb.ret(Some(a));
        fb.finish();
        let m = mb.finish();
        let f = m.function_by_name("f").unwrap().1;
        let mut t = discover(f);
        assert_eq!(eliminate_dominated_checks(f, &CfgAnalyses::compute(f).dom, &mut t), 1);
        assert_eq!(t.checks[0].width, 8);
    }

    #[test]
    fn dominance_across_blocks() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("p", Type::Ptr), ("c", Type::I1)], Type::I64);
        let then_bb = fb.new_block("t");
        let exit = fb.new_block("x");
        let p = fb.param(0);
        let a = fb.load(Type::I64, p.clone());
        let c = fb.param(1);
        fb.cond_br(c, then_bb, exit);
        fb.switch_to(then_bb);
        let _b = fb.load(Type::I64, p.clone()); // dominated by entry load
        fb.br(exit);
        fb.switch_to(exit);
        fb.ret(Some(a));
        fb.finish();
        let m = mb.finish();
        let f = m.function_by_name("f").unwrap().1;
        let mut t = discover(f);
        assert_eq!(eliminate_dominated_checks(f, &CfgAnalyses::compute(f).dom, &mut t), 1);
    }

    #[test]
    fn sibling_branches_do_not_dominate() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("p", Type::Ptr), ("n", Type::I64)], Type::I64);
        let t_bb = fb.new_block("t");
        let e_bb = fb.new_block("e");
        let x_bb = fb.new_block("x");
        let p = fb.param(0);
        let n = fb.param(1);
        let c = fb.icmp(IcmpPred::Sgt, Type::I64, n, Operand::i64(0));
        fb.cond_br(c, t_bb, e_bb);
        fb.switch_to(t_bb);
        let _a = fb.load(Type::I64, p.clone());
        fb.br(x_bb);
        fb.switch_to(e_bb);
        let _b = fb.load(Type::I64, p.clone());
        fb.br(x_bb);
        fb.switch_to(x_bb);
        fb.ret(Some(Operand::i64(0)));
        fb.finish();
        let m = mb.finish();
        let f = m.function_by_name("f").unwrap().1;
        let mut t = discover(f);
        assert_eq!(eliminate_dominated_checks(f, &CfgAnalyses::compute(f).dom, &mut t), 0);
    }

    #[test]
    fn different_pointers_kept() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("p", Type::Ptr), ("q", Type::Ptr)], Type::I64);
        let p = fb.param(0);
        let q = fb.param(1);
        let a = fb.load(Type::I64, p);
        let b = fb.load(Type::I64, q);
        let s = fb.add(Type::I64, a, b);
        fb.ret(Some(s));
        fb.finish();
        let m = mb.finish();
        let f = m.function_by_name("f").unwrap().1;
        let mut t = discover(f);
        assert_eq!(eliminate_dominated_checks(f, &CfgAnalyses::compute(f).dom, &mut t), 0);
        assert_eq!(t.checks.len(), 2);
    }

    // ---------------------------------------------------------------
    // Loop hoisting / widening
    // ---------------------------------------------------------------

    /// `for (i = 0; i < 10; i++) p[i] = i;` followed by a load of p[9].
    const COUNTED_STORE: &str = r#"
        define i64 @f(ptr %p) {
        entry:
          br header
        header:
          %i = phi i64, [entry: i64 0], [body: %next]
          %c = icmp slt i64, %i, i64 10
          condbr %c, body, exit
        body:
          %q = gep i64, %p, [%i]
          store i64, %i, %q
          %next = add i64, %i, i64 1
          br header
        exit:
          %last = gep i64, %p, [i64 9]
          %v = load i64, %last
          ret %v
        }
    "#;

    fn run_loop_opt(src: &str, opt: OptConfig, mech: Mechanism) -> (Targets, LoopOptOutcome) {
        let mut m = mir::parser::parse_module(src).unwrap();
        let f = m.function_by_name_mut("f").unwrap();
        let mut t = discover(f);
        let out = optimize_loop_checks(f, CfgAnalyses::compute(f), &mut t, &opt, mech);
        verify_module(&m)
            .unwrap_or_else(|e| panic!("verify failed: {e}\n{}", mir::printer::print_module(&m)));
        (t, out)
    }

    #[test]
    fn widens_counted_loop_store() {
        let (t, out) = run_loop_opt(COUNTED_STORE, OptConfig::default(), Mechanism::SoftBound);
        assert_eq!(out, LoopOptOutcome { hoisted: 0, widened: 1, merged: 0 });
        let widened = t
            .checks
            .iter()
            .find(|c| matches!(c.placement, CheckPlacement::BlockEnd(_)))
            .expect("one widened check");
        // Bytes 0..80: elements 0..=9, 8 B each.
        assert_eq!(widened.width, 80);
        assert!(widened.is_store);
        // The exit load stays a plain access check.
        assert_eq!(t.checks.len(), 2);
    }

    #[test]
    fn widening_disabled_leaves_targets_alone() {
        let (t, out) = run_loop_opt(COUNTED_STORE, OptConfig::no_loops(), Mechanism::SoftBound);
        assert_eq!(out, LoopOptOutcome::default());
        assert!(t.checks.iter().all(|c| c.placement == CheckPlacement::AtAccess));
    }

    #[test]
    fn widens_descending_loop_to_full_range() {
        // for (i = 9; i >= 2; i--) p[i] = i  →  bytes 16..80 (width 64).
        let src = r#"
            define i64 @f(ptr %p) {
            entry:
              br header
            header:
              %i = phi i64, [entry: i64 9], [body: %next]
              %c = icmp sge i64, %i, i64 2
              condbr %c, body, exit
            body:
              %q = gep i64, %p, [%i]
              store i64, %i, %q
              %next = add i64, %i, i64 -1
              br header
            exit:
              ret i64 0
            }
        "#;
        let (t, out) = run_loop_opt(src, OptConfig::default(), Mechanism::LowFat);
        assert_eq!(out.widened, 1);
        assert_eq!(t.checks[0].width, 64);
    }

    #[test]
    fn zero_trip_loop_not_widened() {
        // for (i = 5; i < 5; ...) — never entered; a preheader check would
        // trap a program that accesses nothing.
        let src = r#"
            define i64 @f(ptr %p) {
            entry:
              br header
            header:
              %i = phi i64, [entry: i64 5], [body: %next]
              %c = icmp slt i64, %i, i64 5
              condbr %c, body, exit
            body:
              %q = gep i64, %p, [%i]
              store i64, %i, %q
              %next = add i64, %i, i64 1
              br header
            exit:
              ret i64 0
            }
        "#;
        let (t, out) = run_loop_opt(src, OptConfig::default(), Mechanism::SoftBound);
        assert_eq!(out, LoopOptOutcome::default());
        assert!(t.checks.iter().all(|c| c.placement == CheckPlacement::AtAccess));
    }

    #[test]
    fn side_exit_prevents_widening() {
        // A data-dependent break can end the loop before the range is
        // fully accessed: widening would over-approximate.
        let src = r#"
            define i64 @f(ptr %p, i64 %x) {
            entry:
              br header
            header:
              %i = phi i64, [entry: i64 0], [latch: %next]
              %c = icmp slt i64, %i, i64 100
              condbr %c, body, exit
            body:
              %b = icmp eq i64, %x, %i
              condbr %b, exit, work
            work:
              %q = gep i64, %p, [%i]
              store i64, %i, %q
              br latch
            latch:
              %next = add i64, %i, i64 1
              br header
            exit:
              ret i64 0
            }
        "#;
        let (t, out) = run_loop_opt(src, OptConfig::default(), Mechanism::SoftBound);
        assert_eq!(out, LoopOptOutcome::default());
        assert!(t.checks.iter().all(|c| c.placement == CheckPlacement::AtAccess));
    }

    #[test]
    fn hoists_invariant_pointer_check() {
        // for (i = 0; i < 10; i++) *p += 1 — invariant pointer, checked
        // once in the preheader (load + store merge into one check).
        let src = r#"
            define i64 @f(ptr %p) {
            entry:
              br header
            header:
              %i = phi i64, [entry: i64 0], [body: %next]
              %c = icmp slt i64, %i, i64 10
              condbr %c, body, exit
            body:
              %v = load i64, %p
              %w = add i64, %v, i64 1
              store i64, %w, %p
              %next = add i64, %i, i64 1
              br header
            exit:
              ret i64 0
            }
        "#;
        let (t, out) = run_loop_opt(src, OptConfig::default(), Mechanism::SoftBound);
        assert_eq!(out.hoisted, 2);
        assert_eq!(out.merged, 1, "load and store checks merge in the preheader");
        assert_eq!(t.checks.len(), 1);
        assert!(matches!(t.checks[0].placement, CheckPlacement::BlockEnd(_)));
        assert!(t.checks[0].is_store, "merged check keeps the store kind");
    }

    #[test]
    fn redzone_skips_loops_with_calls() {
        let src = r#"
            hostdecl i64 @work(i64)
            define i64 @f(ptr %p) {
            entry:
              br header
            header:
              %i = phi i64, [entry: i64 0], [body: %next]
              %c = icmp slt i64, %i, i64 10
              condbr %c, body, exit
            body:
              %q = gep i64, %p, [%i]
              store i64, %i, %q
              %z = call i64 @work(%i)
              %next = add i64, %i, i64 1
              br header
            exit:
              ret i64 0
            }
        "#;
        let (_, rz) = run_loop_opt(src, OptConfig::default(), Mechanism::RedZone);
        assert_eq!(rz, LoopOptOutcome::default());
        // SoftBound bounds are immutable SSA values: calls don't matter.
        let (_, sb) = run_loop_opt(src, OptConfig::default(), Mechanism::SoftBound);
        assert_eq!(sb.widened, 1);
    }

    #[test]
    fn redzone_requires_dense_coverage_for_widening() {
        // Stride 2 × 8 B with an 8 B access skips every other element;
        // the hull may contain poison the loop never touches.
        let src = r#"
            define i64 @f(ptr %p) {
            entry:
              br header
            header:
              %i = phi i64, [entry: i64 0], [body: %next]
              %c = icmp slt i64, %i, i64 10
              condbr %c, body, exit
            body:
              %q = gep i64, %p, [%i]
              store i64, %i, %q
              %next = add i64, %i, i64 2
              br header
            exit:
              ret i64 0
            }
        "#;
        let (_, rz) = run_loop_opt(src, OptConfig::default(), Mechanism::RedZone);
        assert_eq!(rz.widened, 0);
        // Interval-based mechanisms widen sparse strides soundly.
        let (t, lf) = run_loop_opt(src, OptConfig::default(), Mechanism::LowFat);
        assert_eq!(lf.widened, 1);
        // i ∈ {0, 2, 4, 6, 8}: bytes 0..72.
        assert_eq!(t.checks[0].width, 72);
    }

    #[test]
    fn widened_checks_share_the_preheader_gep() {
        // Load and store of p[i] in the same loop widen to the same range
        // and merge into a single preheader check.
        let src = r#"
            define i64 @f(ptr %p) {
            entry:
              br header
            header:
              %i = phi i64, [entry: i64 0], [body: %next]
              %c = icmp slt i64, %i, i64 10
              condbr %c, body, exit
            body:
              %q = gep i64, %p, [%i]
              %v = load i64, %q
              %w = add i64, %v, i64 1
              store i64, %w, %q
              %next = add i64, %i, i64 1
              br header
            exit:
              ret i64 0
            }
        "#;
        let (t, out) = run_loop_opt(src, OptConfig::default(), Mechanism::SoftBound);
        assert_eq!(out.widened, 2);
        assert_eq!(out.merged, 1);
        assert_eq!(t.checks.len(), 1);
        assert_eq!(t.checks[0].width, 80);
        assert!(t.checks[0].is_store);
    }

    #[test]
    fn hoists_into_an_inserted_and_an_existing_preheader() {
        // Loop `h1` has two outside predecessors, so hoisting its header
        // check inserts a preheader block; loop `h2` already has one
        // (`mid`). The exit edges come first, so `h1` is optimized first
        // and `h2` after the insertion.
        let src = r#"
            define i64 @f(ptr %p, ptr %q, i1 %b) {
            entry:
              condbr %b, left, right
            left:
              br h1
            right:
              br h1
            h1:
              %i = phi i64, [left: i64 0], [right: i64 1], [b1: %i2]
              %v = load i64, %p
              %c = icmp sge i64, %i, i64 10
              condbr %c, mid, b1
            b1:
              %i2 = add i64, %i, i64 1
              br h1
            mid:
              br h2
            h2:
              %j = phi i64, [mid: i64 0], [b2: %j2]
              %w = load i64, %q
              %d = icmp sge i64, %j, i64 10
              condbr %d, exit, b2
            b2:
              %j2 = add i64, %j, i64 1
              br h2
            exit:
              ret i64 0
            }
        "#;
        let mut m = mir::parser::parse_module(src).unwrap();
        let f = m.function_by_name_mut("f").unwrap();
        let blocks = f.blocks.len();
        let mut t = discover(f);
        let analyses = CfgAnalyses::compute(f);
        let order: Vec<String> = LoopForest::compute(&analyses.cfg, &analyses.dom)
            .loops
            .iter()
            .map(|l| f.blocks[l.header.index()].name.clone())
            .collect();
        assert_eq!(order, ["h1", "h2"], "the loop without a preheader goes first");
        let out =
            optimize_loop_checks(f, analyses, &mut t, &OptConfig::default(), Mechanism::SoftBound);
        assert_eq!(f.blocks.len(), blocks + 1, "one preheader block was inserted");
        let cfg = Cfg::compute(f);
        let block =
            |name: &str| BlockId::new(f.blocks.iter().position(|b| b.name == name).unwrap());
        let preheader_of = |header: &str, latch: &str| {
            let outside: Vec<BlockId> =
                cfg.preds(block(header)).iter().copied().filter(|&p| p != block(latch)).collect();
            assert_eq!(outside.len(), 1, "{header} has a dedicated preheader");
            outside[0]
        };
        let (pre1, pre2) = (preheader_of("h1", "b1"), preheader_of("h2", "b2"));
        assert_eq!(f.blocks[pre1.index()].name, "h1.preheader");
        assert_eq!(f.blocks[pre2.index()].name, "mid");
        verify_module(&m)
            .unwrap_or_else(|e| panic!("verify failed: {e}\n{}", mir::printer::print_module(&m)));
        assert_eq!(out, LoopOptOutcome { hoisted: 2, widened: 0, merged: 0 });
        let placements: Vec<CheckPlacement> = t.checks.iter().map(|c| c.placement).collect();
        assert_eq!(placements, [CheckPlacement::BlockEnd(pre1), CheckPlacement::BlockEnd(pre2)]);
    }

    // ---------------------------------------------------------------
    // Interprocedural elision
    // ---------------------------------------------------------------

    /// Runs summarize + elide over function `fname` of `src` under
    /// `mech`; returns (kept checks, elided count, records).
    fn run_elide(src: &str, fname: &str, mech: Mechanism) -> (Targets, u64, Vec<ElisionRecord>) {
        let m = mir::parser::parse_module(src).unwrap();
        let summaries = mir::analysis::ipo::summarize(&m);
        let env = mir::analysis::ipo::FactEnv::collect(&m);
        let f = m.function_by_name(fname).unwrap().1;
        let mut t = discover(f);
        let mut records = Vec::new();
        let n = elide_proven_checks(f, &mut t, &summaries, &env, mech, &mut records);
        (t, n, records)
    }

    const CROSS_FN: &str = r#"
        hostdecl ptr @malloc(i64)
        define i64 @main() {
        entry:
          %p = call ptr @malloc(i64 80)
          %r = call i64 @reader(%p)
          ret %r
        }
        define i64 @reader(ptr %p) {
        entry:
          %in = gep i64, %p, [i64 9]
          %v = load i64, %in
          %out = gep i64, %p, [i64 10]
          %w = load i64, %out
          %s = add i64, %v, %w
          ret %s
        }
    "#;

    #[test]
    fn elides_proven_cross_function_access_keeps_unproven() {
        for mech in [Mechanism::SoftBound, Mechanism::LowFat, Mechanism::RedZone] {
            let (t, n, records) = run_elide(CROSS_FN, "reader", mech);
            // p[9] is bytes 72..80 of an 80-byte allocation: proven.
            // p[10] is bytes 80..88: out of bounds, the check stays.
            assert_eq!(n, 1, "{mech:?}");
            assert_eq!(t.checks.len(), 1, "{mech:?}");
            assert_eq!(records.len(), 1);
            assert_eq!(records[0].func, "reader");
            assert_eq!(records[0].off, (72, 72));
            assert_eq!(records[0].size_min, 80);
        }
    }

    #[test]
    fn redzone_keeps_heap_elisions_when_free_is_reachable() {
        let src = r#"
            hostdecl ptr @malloc(i64)
            hostdecl void @free(ptr)
            define i64 @main() {
            entry:
              %p = call ptr @malloc(i64 16)
              %v = load i64, %p
              call void @free(%p)
              ret %v
            }
        "#;
        // Spatially proven for everyone; RedZone also needs the temporal
        // proof, which `free` in the module denies for heap facts.
        let (_, sb, _) = run_elide(src, "main", Mechanism::SoftBound);
        assert_eq!(sb, 1);
        let (_, lf, _) = run_elide(src, "main", Mechanism::LowFat);
        assert_eq!(lf, 1);
        let (t, rz, _) = run_elide(src, "main", Mechanism::RedZone);
        assert_eq!(rz, 0);
        assert_eq!(t.checks.len(), 1);
    }

    #[test]
    fn redzone_keeps_stack_pointers_that_escaped_a_return() {
        let src = r#"
            define ptr @make() {
            entry:
              %a = alloca i64, i64 4
              ret %a
            }
            define i64 @main() {
            entry:
              %p = call ptr @make()
              %v = load i64, %p
              ret %v
            }
        "#;
        // The frame is dead at the load: RedZone's shadow may have
        // repoisoned it. SoftBound/Low-Fat are spatial-only and elide.
        let (_, sb, _) = run_elide(src, "main", Mechanism::SoftBound);
        assert_eq!(sb, 1);
        let (_, rz, _) = run_elide(src, "main", Mechanism::RedZone);
        assert_eq!(rz, 0);
    }

    #[test]
    fn unknown_provenance_is_never_elided() {
        let src = r#"
            define i64 @main(ptr %p) {
            entry:
              %v = load i64, %p
              ret %v
            }
        "#;
        // main is an entry point: its params are TOP.
        for mech in [Mechanism::SoftBound, Mechanism::LowFat, Mechanism::RedZone] {
            let (t, n, records) = run_elide(src, "main", mech);
            assert_eq!(n, 0);
            assert_eq!(t.checks.len(), 1);
            assert!(records.is_empty());
        }
    }

    #[test]
    fn widened_range_check_is_elidable_after_loop_opt() {
        let src = r#"
            hostdecl ptr @malloc(i64)
            define i64 @main() {
            entry:
              %p = call ptr @malloc(i64 80)
              %r = call i64 @f(%p)
              ret %r
            }
            define i64 @f(ptr %p) {
            entry:
              br header
            header:
              %i = phi i64, [entry: i64 0], [body: %next]
              %c = icmp slt i64, %i, i64 10
              condbr %c, body, exit
            body:
              %q = gep i64, %p, [%i]
              store i64, %i, %q
              %next = add i64, %i, i64 1
              br header
            exit:
              ret i64 0
            }
        "#;
        let mut m = mir::parser::parse_module(src).unwrap();
        let summaries = mir::analysis::ipo::summarize(&m);
        let env = mir::analysis::ipo::FactEnv::collect(&m);
        let f = m.function_by_name_mut("f").unwrap();
        let mut t = discover(f);
        let analyses = CfgAnalyses::compute(f);
        let out =
            optimize_loop_checks(f, analyses, &mut t, &OptConfig::default(), Mechanism::SoftBound);
        assert_eq!(out.widened, 1);
        // The widened preheader check covers bytes 0..80 of the 80-byte
        // summary extent — provable, so the whole loop runs check-free.
        let mut records = Vec::new();
        let n =
            elide_proven_checks(f, &mut t, &summaries, &env, Mechanism::SoftBound, &mut records);
        assert_eq!(n, 1);
        assert!(t.checks.is_empty());
        assert_eq!(records[0].width, 80);
    }

    #[test]
    fn access_ending_exactly_at_bound_is_proven() {
        let src = r#"
            hostdecl ptr @malloc(i64)
            define i64 @main() {
            entry:
              %p = call ptr @malloc(i64 80)
              %edge = gep i64, %p, [i64 9]
              %v = load i64, %edge
              %past = gep i32, %edge, [i32 1]
              %w = load i32, %past
              %s = add i64, %v, %w
              ret %s
            }
        "#;
        // %edge loads bytes 72..80 and %past bytes 76..80: both end
        // exactly at the 80-byte extent, which is still in bounds
        // (`hi + width <= size_min`). One byte further would fail.
        let (t, n, _) = run_elide(src, "main", Mechanism::SoftBound);
        assert_eq!(n, 2);
        assert!(t.checks.is_empty());
    }
}
