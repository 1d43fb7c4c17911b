//! Natural loop detection (back edges to dominating headers), preheader
//! normalization, and a scalar-evolution-lite counted-loop analysis.
//!
//! Used by LICM, by the loop-aware check optimizer in `meminstrument`, and
//! by the pipeline experiments: checks inserted *before* loop optimizations
//! block hoisting (§5.5 of the paper), so loop structure must be
//! discoverable to show that effect.

use std::collections::BTreeSet;

use crate::analysis::cfg::Cfg;
use crate::analysis::dom::DomTree;
use crate::function::{Function, ValueDef};
use crate::ids::{BlockId, InstrId, ValueId};
use crate::instr::{BinOp, CastOp, IcmpPred, InstrKind, Operand, Terminator};
use crate::types::Type;

/// A natural loop: a header plus the set of blocks that reach the back edge
/// without passing through the header.
#[derive(Clone, Debug)]
pub struct Loop {
    /// The loop header (target of the back edge).
    pub header: BlockId,
    /// All blocks in the loop, including the header.
    pub blocks: BTreeSet<BlockId>,
    /// Blocks with a back edge to the header.
    pub latches: Vec<BlockId>,
}

impl Loop {
    /// Whether `b` belongs to the loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.contains(&b)
    }

    /// The unique predecessor of the header outside the loop, if there is
    /// exactly one (a *preheader candidate*).
    pub fn preheader(&self, cfg: &Cfg) -> Option<BlockId> {
        let outside: Vec<BlockId> =
            cfg.preds(self.header).iter().copied().filter(|p| !self.contains(*p)).collect();
        match outside.as_slice() {
            [single] => Some(*single),
            _ => None,
        }
    }

    /// The *dedicated* preheader, if present: the unique outside
    /// predecessor, ending in an unconditional branch to the header (so
    /// code appended there executes exactly once per loop entry).
    pub fn dedicated_preheader(&self, f: &Function, cfg: &Cfg) -> Option<BlockId> {
        let pre = self.preheader(cfg)?;
        match f.blocks[pre.index()].term {
            Terminator::Br(t) if t == self.header => Some(pre),
            _ => None,
        }
    }

    /// SSA values defined by instructions inside the loop.
    pub fn defined_values(&self, f: &Function) -> BTreeSet<ValueId> {
        let mut set = BTreeSet::new();
        for &b in &self.blocks {
            for &iid in &f.blocks[b.index()].instrs {
                if let Some(v) = f.instrs[iid.index()].result {
                    set.insert(v);
                }
            }
        }
        set
    }
}

/// Whether `op` refers only to values defined outside the loop whose
/// definitions are `loop_defs` (constants and globals are always invariant).
pub fn operand_is_invariant(op: &Operand, loop_defs: &BTreeSet<ValueId>) -> bool {
    if let Some(v) = op.as_value() {
        !loop_defs.contains(&v)
    } else {
        true
    }
}

/// Makes sure `l` has a dedicated preheader, creating one if necessary.
///
/// Returns the preheader block, or `None` when the header has no
/// predecessor outside the loop (an entry-header or unreachable loop).
/// `cfg` must describe `f` as passed in; it is stale after a block is
/// inserted, so recompute it before further CFG queries.
///
/// When a block is created, every outside predecessor is retargeted to it
/// and the header's phis are split: their outside incoming entries collapse
/// to a single entry from the new preheader (merging through a fresh phi in
/// the preheader when the incoming values differ — a value that dominates
/// the end of every outside predecessor also dominates the new block).
pub fn ensure_dedicated_preheader(f: &mut Function, cfg: &Cfg, l: &Loop) -> Option<BlockId> {
    if let Some(pre) = l.dedicated_preheader(f, cfg) {
        return Some(pre);
    }
    let outside: Vec<BlockId> =
        cfg.preds(l.header).iter().copied().filter(|p| !l.contains(*p)).collect();
    if outside.is_empty() {
        return None;
    }
    let name = format!("{}.preheader", f.blocks[l.header.index()].name);
    let pre = f.add_block(name);
    for &p in &outside {
        f.blocks[p.index()].term.replace_successor(l.header, pre);
    }
    f.blocks[pre.index()].term = Terminator::Br(l.header);
    let header_instrs = f.blocks[l.header.index()].instrs.clone();
    for iid in header_instrs {
        let (ty, incoming) = match &f.instrs[iid.index()].kind {
            InstrKind::Phi { ty, incoming } => (ty.clone(), incoming.clone()),
            _ => continue,
        };
        let (outer, inner): (Vec<_>, Vec<_>) =
            incoming.into_iter().partition(|(b, _)| !l.contains(*b));
        if outer.is_empty() {
            continue;
        }
        let merged = if outer.iter().all(|(_, op)| *op == outer[0].1) {
            outer[0].1.clone()
        } else {
            let phi = f.insert_instr(pre, 0, InstrKind::Phi { ty, incoming: outer });
            Operand::Val(f.instr_result(phi).unwrap())
        };
        let mut entries = inner;
        entries.push((pre, merged));
        if let InstrKind::Phi { incoming, .. } = &mut f.instrs[iid.index()].kind {
            *incoming = entries;
        }
    }
    Some(pre)
}

/// A counted loop: `for (iv = init; iv <pred> limit; iv += step)` with
/// compile-time-constant `init`, `limit`, and `step`, exiting through the
/// header. The trip count is exact, so downstream users may rely on the
/// loop body executing exactly `trip_count` times.
#[derive(Clone, Debug)]
pub struct CountedLoop {
    /// The induction variable (the header phi's result).
    pub iv: ValueId,
    /// The phi instruction defining the induction variable.
    pub phi: InstrId,
    /// Initial value of the IV on loop entry.
    pub init: i64,
    /// Per-iteration increment (never zero; negative for descending loops).
    pub step: i64,
    /// Exact number of body executions (0 when the loop is never entered).
    pub trip_count: u64,
}

/// Resolves a `CondBr` condition to the underlying `i64` comparison
/// `(pred, lhs, rhs)`, looking through the frontend's boolean
/// materialization idiom: `icmp ne/eq <int> x, 0` over a `zext`/`sext`
/// of an `i1`, chained arbitrarily. `negate` tracks parity of `eq 0`
/// wrappers (each one logically inverts the inner predicate).
fn resolve_exit_cmp(
    f: &Function,
    v: ValueId,
    negate: bool,
) -> Option<(IcmpPred, Operand, Operand)> {
    let ValueDef::Instr(id) = f.values[v.index()].def else {
        return None;
    };
    match &f.instrs[id.index()].kind {
        InstrKind::Icmp { pred, ty: Type::I64, lhs, rhs } => {
            let p = if negate { pred.inverse() } else { *pred };
            Some((p, lhs.clone(), rhs.clone()))
        }
        InstrKind::Icmp { pred: pred @ (IcmpPred::Ne | IcmpPred::Eq), lhs, rhs, .. } => {
            let inner = match (lhs.as_value(), rhs.as_const_int()) {
                (Some(x), Some(0)) => x,
                _ => match (lhs.as_const_int(), rhs.as_value()) {
                    (Some(0), Some(x)) => x,
                    _ => return None,
                },
            };
            resolve_exit_cmp(f, inner, negate ^ (*pred == IcmpPred::Eq))
        }
        InstrKind::Cast { op: CastOp::Zext | CastOp::Sext, value, from: Type::I1, .. } => {
            resolve_exit_cmp(f, value.as_value()?, negate)
        }
        _ => None,
    }
}

impl CountedLoop {
    /// IV value on the final executed iteration.
    ///
    /// Meaningless (and asserted against in debug builds) when
    /// `trip_count == 0`.
    pub fn last(&self) -> i64 {
        debug_assert!(self.trip_count >= 1);
        // Fits in i64: analyze() verified init + trip_count*step does.
        (self.init as i128 + (self.trip_count as i128 - 1) * self.step as i128) as i64
    }

    /// Recognizes `l` as a counted loop.
    ///
    /// Requirements: the header exits the loop through a `CondBr` on an
    /// `i64` `Icmp` of a header phi against a constant (possibly wrapped
    /// in the frontend's `zext i1` / `icmp ne _, 0` boolean-materialization
    /// idiom, which `resolve_exit_cmp` looks through); the phi has exactly
    /// two incoming values — a constant from outside and `iv + step`
    /// (or `iv - c`) from the unique latch; the predicate and the sign of
    /// `step` agree (ascending `<`/`<=`, descending `>`/`>=`; unsigned
    /// predicates additionally need non-negative `init` and `limit`, and
    /// unsigned descending loops are rejected because they can wrap).
    /// The IV value after the final iteration must fit in `i64`, so the
    /// trip count is exact under wrapping semantics.
    pub fn analyze(f: &Function, l: &Loop) -> Option<CountedLoop> {
        let Terminator::CondBr { cond, then_bb, else_bb } = &f.blocks[l.header.index()].term else {
            return None;
        };
        let cont_on_true = l.contains(*then_bb) && !l.contains(*else_bb);
        let cont_on_false = l.contains(*else_bb) && !l.contains(*then_bb);
        if !cont_on_true && !cont_on_false {
            return None;
        }
        let cond_v = cond.as_value()?;
        let (pred, lhs, rhs) = resolve_exit_cmp(f, cond_v, false)?;
        // Normalize to `iv pred limit` with a constant limit.
        let (iv, limit, mut pred) = match (lhs.as_value(), rhs.as_const_int()) {
            (Some(v), Some(c)) => (v, c, pred),
            _ => match (lhs.as_const_int(), rhs.as_value()) {
                (Some(c), Some(v)) => (v, c, pred.swapped()),
                _ => return None,
            },
        };
        if cont_on_false {
            pred = pred.inverse();
        }
        let ValueDef::Instr(phi_id) = f.values[iv.index()].def else {
            return None;
        };
        if f.block_of_instr(phi_id) != Some(l.header) {
            return None;
        }
        let InstrKind::Phi { ty, incoming } = &f.instrs[phi_id.index()].kind else {
            return None;
        };
        if *ty != Type::I64 || incoming.len() != 2 {
            return None;
        }
        let (outer, inner): (Vec<_>, Vec<_>) = incoming.iter().partition(|(b, _)| !l.contains(*b));
        if outer.len() != 1 || inner.len() != 1 {
            return None;
        }
        let init = outer[0].1.as_const_int()?;
        let next = inner[0].1.as_value()?;
        let ValueDef::Instr(next_id) = f.values[next.index()].def else {
            return None;
        };
        let InstrKind::Bin { op, lhs, rhs, .. } = &f.instrs[next_id.index()].kind else {
            return None;
        };
        let step = match op {
            BinOp::Add if lhs.as_value() == Some(iv) => rhs.as_const_int()?,
            BinOp::Add if rhs.as_value() == Some(iv) => lhs.as_const_int()?,
            BinOp::Sub if lhs.as_value() == Some(iv) => rhs.as_const_int()?.checked_neg()?,
            _ => return None,
        };
        if step == 0 {
            return None;
        }
        let (iw, lw, sw) = (init as i128, limit as i128, step as i128);
        let trip: i128 = match pred {
            IcmpPred::Slt | IcmpPred::Ult if step > 0 => {
                if pred == IcmpPred::Ult && (init < 0 || limit < 0) {
                    return None;
                }
                if iw >= lw {
                    0
                } else {
                    (lw - iw + sw - 1) / sw
                }
            }
            IcmpPred::Sle | IcmpPred::Ule if step > 0 => {
                if pred == IcmpPred::Ule && (init < 0 || limit < 0) {
                    return None;
                }
                if iw > lw {
                    0
                } else {
                    (lw - iw) / sw + 1
                }
            }
            IcmpPred::Sgt if step < 0 => {
                if iw <= lw {
                    0
                } else {
                    (iw - lw + (-sw) - 1) / (-sw)
                }
            }
            IcmpPred::Sge if step < 0 => {
                if iw < lw {
                    0
                } else {
                    (iw - lw) / (-sw) + 1
                }
            }
            _ => return None,
        };
        // The IV value after the final iteration must not wrap, or the
        // exit comparison would observe a wrapped value.
        let after = iw + trip * sw;
        if after < i64::MIN as i128 || after > i64::MAX as i128 {
            return None;
        }
        Some(CountedLoop { iv, phi: phi_id, init, step, trip_count: trip as u64 })
    }
}

/// All natural loops of a function (merged per header).
#[derive(Clone, Debug, Default)]
pub struct LoopForest {
    /// Loops, outermost order not guaranteed.
    pub loops: Vec<Loop>,
}

impl LoopForest {
    /// Finds the natural loops of `f`.
    pub fn compute(cfg: &Cfg, dom: &DomTree) -> LoopForest {
        let mut loops: Vec<Loop> = Vec::new();
        for &b in cfg.rpo() {
            for &s in cfg.succs(b) {
                if dom.dominates(s, b) {
                    // b -> s is a back edge with header s.
                    let body = collect_loop_body(cfg, s, b);
                    if let Some(l) = loops.iter_mut().find(|l| l.header == s) {
                        l.blocks.extend(body);
                        l.latches.push(b);
                    } else {
                        loops.push(Loop { header: s, blocks: body, latches: vec![b] });
                    }
                }
            }
        }
        LoopForest { loops }
    }
}

fn collect_loop_body(cfg: &Cfg, header: BlockId, latch: BlockId) -> BTreeSet<BlockId> {
    let mut body = BTreeSet::new();
    body.insert(header);
    body.insert(latch);
    let mut stack = vec![latch];
    while let Some(x) = stack.pop() {
        if x == header {
            continue;
        }
        for &p in cfg.preds(x) {
            if body.insert(p) {
                stack.push(p);
            }
        }
    }
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::instr::{IcmpPred, Operand};
    use crate::module::Module;
    use crate::types::Type;

    fn simple_loop() -> Module {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("n", Type::I64)], Type::I64);
        let header = fb.new_block("header");
        let body = fb.new_block("body");
        let exit = fb.new_block("exit");
        let entry = fb.current_block();
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64, vec![(entry, Operand::i64(0)), (body, Operand::i64(0))]);
        let n = fb.param(0);
        let c = fb.icmp(IcmpPred::Slt, Type::I64, i.clone(), n);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let next = fb.add(Type::I64, i, Operand::i64(1));
        // Patch the phi's second incoming to the real next value.
        if let crate::instr::InstrKind::Phi { incoming, .. } = &mut fb.func_mut().instrs[0].kind {
            incoming[1].1 = next;
        }
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(Operand::i64(0)));
        fb.finish();
        mb.finish()
    }

    #[test]
    fn finds_the_loop() {
        let m = simple_loop();
        let (_, f) = m.function_by_name("f").unwrap();
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(f, &cfg);
        let forest = LoopForest::compute(&cfg, &dom);
        assert_eq!(forest.loops.len(), 1);
        let l = &forest.loops[0];
        assert_eq!(l.header, BlockId::new(1));
        assert!(l.contains(BlockId::new(2)));
        assert!(!l.contains(BlockId::new(0)));
        assert!(!l.contains(BlockId::new(3)));
        assert_eq!(l.latches, vec![BlockId::new(2)]);
    }

    #[test]
    fn preheader_is_entry() {
        let m = simple_loop();
        let (_, f) = m.function_by_name("f").unwrap();
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(f, &cfg);
        let forest = LoopForest::compute(&cfg, &dom);
        assert_eq!(forest.loops[0].preheader(&cfg), Some(BlockId::new(0)));
    }

    /// `for (i = init; i pred limit; i += step) {}` with the latch folded
    /// into the body block.
    fn counted(init: i64, pred: IcmpPred, limit: Operand, step: i64) -> Module {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("n", Type::I64)], Type::I64);
        let header = fb.new_block("header");
        let body = fb.new_block("body");
        let exit = fb.new_block("exit");
        let entry = fb.current_block();
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64, vec![(entry, Operand::i64(init)), (body, Operand::i64(0))]);
        let c = fb.icmp(pred, Type::I64, i.clone(), limit);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let next = fb.add(Type::I64, i, Operand::i64(step));
        if let crate::instr::InstrKind::Phi { incoming, .. } = &mut fb.func_mut().instrs[0].kind {
            incoming[1].1 = next;
        }
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(Operand::i64(0)));
        fb.finish();
        mb.finish()
    }

    fn analyze_counted(m: &Module) -> Option<CountedLoop> {
        let (_, f) = m.function_by_name("f").unwrap();
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(f, &cfg);
        let forest = LoopForest::compute(&cfg, &dom);
        assert_eq!(forest.loops.len(), 1);
        CountedLoop::analyze(f, &forest.loops[0])
    }

    #[test]
    fn dedicated_preheader_is_detected_and_reused() {
        let mut m = simple_loop();
        let f = m.function_by_name_mut("f").unwrap();
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(f, &cfg);
        let forest = LoopForest::compute(&cfg, &dom);
        let l = forest.loops[0].clone();
        assert_eq!(l.dedicated_preheader(f, &cfg), Some(BlockId::new(0)));
        let nblocks = f.blocks.len();
        assert_eq!(ensure_dedicated_preheader(f, &cfg, &l), Some(BlockId::new(0)));
        assert_eq!(f.blocks.len(), nblocks, "no block inserted when one exists");
    }

    #[test]
    fn counted_loop_ascending() {
        let m = counted(0, IcmpPred::Slt, Operand::i64(10), 1);
        let cl = analyze_counted(&m).expect("counted loop");
        assert_eq!((cl.init, cl.step, cl.trip_count), (0, 1, 10));
        assert_eq!(cl.last(), 9);
    }

    #[test]
    fn counted_loop_with_stride_and_inclusive_bound() {
        let m = counted(2, IcmpPred::Sle, Operand::i64(11), 3);
        let cl = analyze_counted(&m).expect("counted loop");
        // 2, 5, 8, 11
        assert_eq!((cl.init, cl.step, cl.trip_count), (2, 3, 4));
        assert_eq!(cl.last(), 11);
    }

    #[test]
    fn counted_loop_descending() {
        let m = counted(7, IcmpPred::Sge, Operand::i64(-8), -1);
        let cl = analyze_counted(&m).expect("counted loop");
        assert_eq!((cl.init, cl.step, cl.trip_count), (7, -1, 16));
        assert_eq!(cl.last(), -8);
    }

    #[test]
    fn counted_loop_never_entered_has_zero_trips() {
        let m = counted(5, IcmpPred::Slt, Operand::i64(5), 1);
        let cl = analyze_counted(&m).expect("counted loop");
        assert_eq!(cl.trip_count, 0);
    }

    #[test]
    fn counted_loop_rejects_non_constant_limit() {
        // simple_loop compares against a parameter, not a constant.
        let m = simple_loop();
        let (_, f) = m.function_by_name("f").unwrap();
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(f, &cfg);
        let forest = LoopForest::compute(&cfg, &dom);
        assert!(CountedLoop::analyze(f, &forest.loops[0]).is_none());
    }

    #[test]
    fn counted_loop_rejects_mismatched_direction() {
        // step -1 with an ascending predicate is not countable.
        let m = counted(0, IcmpPred::Slt, Operand::i64(10), -1);
        assert!(analyze_counted(&m).is_none());
    }

    #[test]
    fn ensure_preheader_splits_multi_entry_header() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("n", Type::I64)], Type::I64);
        let left = fb.new_block("left");
        let right = fb.new_block("right");
        let header = fb.new_block("header");
        let body = fb.new_block("body");
        let exit = fb.new_block("exit");
        let n = fb.param(0);
        let c0 = fb.icmp(IcmpPred::Eq, Type::I64, n.clone(), Operand::i64(0));
        fb.cond_br(c0, left, right);
        fb.switch_to(left);
        fb.br(header);
        fb.switch_to(right);
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(
            Type::I64,
            vec![(left, Operand::i64(0)), (right, Operand::i64(5)), (body, Operand::i64(0))],
        );
        let c = fb.icmp(IcmpPred::Slt, Type::I64, i.clone(), n);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let next = fb.add(Type::I64, i, Operand::i64(1));
        if let crate::instr::InstrKind::Phi { incoming, .. } = &mut fb.func_mut().instrs[1].kind {
            incoming[2].1 = next;
        }
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(Operand::i64(0)));
        fb.finish();
        let mut m = mb.finish();
        crate::verifier::verify_module(&m).unwrap();

        let f = m.function_by_name_mut("f").unwrap();
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(f, &cfg);
        let forest = LoopForest::compute(&cfg, &dom);
        assert_eq!(forest.loops.len(), 1);
        let l = forest.loops[0].clone();
        assert!(l.dedicated_preheader(f, &cfg).is_none());
        let pre = ensure_dedicated_preheader(f, &cfg, &l).expect("preheader inserted");
        assert!(matches!(f.blocks[pre.index()].term, Terminator::Br(t) if t == l.header));
        // The header phi now has exactly one outside incoming (from pre),
        // merging 0 and 5 through a fresh phi in the preheader.
        let phi_id = f.blocks[l.header.index()].instrs[0];
        if let InstrKind::Phi { incoming, .. } = &f.instrs[phi_id.index()].kind {
            assert_eq!(incoming.len(), 2);
            assert!(incoming.iter().any(|(b, _)| *b == pre));
        } else {
            panic!("expected phi");
        }
        assert_eq!(f.blocks[pre.index()].instrs.len(), 1, "merge phi in preheader");
        crate::verifier::verify_module(&m).unwrap();
    }

    #[test]
    fn loop_invariance_helper() {
        let m = counted(0, IcmpPred::Slt, Operand::i64(10), 1);
        let (_, f) = m.function_by_name("f").unwrap();
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(f, &cfg);
        let forest = LoopForest::compute(&cfg, &dom);
        let defs = forest.loops[0].defined_values(f);
        // The IV phi is defined inside; the parameter and constants are not.
        let iv = f.instr_result(f.blocks[1].instrs[0]).unwrap();
        assert!(!operand_is_invariant(&Operand::Val(iv), &defs));
        assert!(operand_is_invariant(&Operand::Val(f.param_value(0)), &defs));
        assert!(operand_is_invariant(&Operand::i64(3), &defs));
    }

    #[test]
    fn straight_line_has_no_loops() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![], Type::Void);
        fb.ret(None);
        fb.finish();
        let m = mb.finish();
        let (_, f) = m.function_by_name("f").unwrap();
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(f, &cfg);
        let forest = LoopForest::compute(&cfg, &dom);
        assert!(forest.loops.is_empty());
    }
}
