//! Dominator tree (Cooper–Harvey–Kennedy) and dominance frontiers.
//!
//! Dominance drives three consumers in this project: the SSA verifier, the
//! `mem2reg` pass (phi placement at dominance frontiers), and — most
//! importantly for the paper — the *dominance-based redundant check
//! elimination* of §5.3, which removes a check if another check of the same
//! location dominates it.

use crate::analysis::cfg::Cfg;
use crate::function::Function;
use crate::ids::BlockId;

/// Dominator tree over the reachable blocks of a function.
#[derive(Clone, Debug)]
pub struct DomTree {
    /// Immediate dominator per block (`None` for entry and unreachable).
    idom: Vec<Option<BlockId>>,
    /// Children in the dominator tree.
    children: Vec<Vec<BlockId>>,
    /// RPO index per block, used for O(depth) dominance queries.
    rpo_index: Vec<Option<u32>>,
}

impl DomTree {
    /// Computes the dominator tree of `f` given its CFG.
    pub fn compute(f: &Function, cfg: &Cfg) -> DomTree {
        let n = f.blocks.len();
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        if n == 0 {
            return DomTree { idom, children: vec![], rpo_index: vec![] };
        }
        let entry = BlockId::new(0);
        idom[entry.index()] = Some(entry);

        let rpo = cfg.rpo();
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in cfg.preds(b) {
                    if idom[p.index()].is_none() {
                        continue; // unprocessed or unreachable
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cfg, cur, p),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        // Entry's idom is conventionally None in the public API.
        idom[entry.index()] = None;

        let mut children = vec![Vec::new(); n];
        for (b, d) in idom.iter().enumerate() {
            if let Some(d) = d {
                children[d.index()].push(BlockId::new(b));
            }
        }

        let rpo_index = (0..n).map(|b| cfg.rpo_index(BlockId::new(b))).collect();
        DomTree { idom, children, rpo_index }
    }

    /// Immediate dominator of `b` (`None` for the entry block).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom[b.index()]
    }

    /// Children of `b` in the dominator tree.
    pub fn children(&self, b: BlockId) -> &[BlockId] {
        &self.children[b.index()]
    }

    /// The dominance frontier of every block (Cytron et al.), indexed by
    /// block. Only phi placement needs frontiers, so they are computed on
    /// demand rather than with the tree.
    pub fn frontiers(&self, cfg: &Cfg) -> Vec<Vec<BlockId>> {
        let n = self.idom.len();
        let mut frontier = vec![Vec::new(); n];
        for b in 0..n {
            let bid = BlockId::new(b);
            if !cfg.is_reachable(bid) || cfg.preds(bid).len() < 2 {
                continue;
            }
            let b_idom = self.idom[b];
            for &p in cfg.preds(bid) {
                if !cfg.is_reachable(p) {
                    continue;
                }
                let mut runner = Some(p);
                while let Some(r) = runner {
                    if Some(r) == b_idom {
                        break;
                    }
                    if !frontier[r.index()].contains(&bid) {
                        frontier[r.index()].push(bid);
                    }
                    if r == BlockId::new(0) {
                        break;
                    }
                    runner = self.idom[r.index()];
                }
            }
        }
        frontier
    }

    /// Whether `a` dominates `b` (reflexive: every block dominates itself).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if a == b {
            return true;
        }
        // Walk up b's idom chain; RPO indices only decrease along it.
        let mut cur = self.idom(b);
        while let Some(c) = cur {
            if c == a {
                return true;
            }
            // Small optimization: a cannot dominate b if it comes later in RPO.
            if let (Some(ia), Some(ic)) = (self.rpo_index[a.index()], self.rpo_index[c.index()]) {
                if ic < ia {
                    return false;
                }
            }
            cur = self.idom(c);
        }
        false
    }

    /// Whether `a` *strictly* dominates `b`.
    pub fn strictly_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// Dominator-tree preorder over reachable blocks.
    pub fn preorder(&self) -> Vec<BlockId> {
        let mut out = Vec::new();
        if self.idom.is_empty() {
            return out;
        }
        let mut stack = vec![BlockId::new(0)];
        while let Some(b) = stack.pop() {
            out.push(b);
            for &c in self.children(b).iter().rev() {
                stack.push(c);
            }
        }
        out
    }
}

fn intersect(idom: &[Option<BlockId>], cfg: &Cfg, mut a: BlockId, mut b: BlockId) -> BlockId {
    let order = |x: BlockId| cfg.rpo_index(x).expect("reachable");
    while a != b {
        while order(a) > order(b) {
            a = idom[a.index()].expect("has idom");
        }
        while order(b) > order(a) {
            b = idom[b.index()].expect("has idom");
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::instr::Operand;
    use crate::module::Module;
    use crate::types::Type;

    fn diamond_with_loop() -> Module {
        // entry -> header; header -> body | exit; body -> header
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("n", Type::I64)], Type::I64);
        let header = fb.new_block("header");
        let body = fb.new_block("body");
        let exit = fb.new_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let n = fb.param(0);
        let c = fb.icmp(crate::instr::IcmpPred::Sgt, Type::I64, n, Operand::i64(0));
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(Operand::i64(0)));
        fb.finish();
        mb.finish()
    }

    #[test]
    fn idoms_in_loop() {
        let m = diamond_with_loop();
        let (_, f) = m.function_by_name("f").unwrap();
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(f, &cfg);
        let entry = BlockId::new(0);
        let header = BlockId::new(1);
        let body = BlockId::new(2);
        let exit = BlockId::new(3);
        assert_eq!(dom.idom(entry), None);
        assert_eq!(dom.idom(header), Some(entry));
        assert_eq!(dom.idom(body), Some(header));
        assert_eq!(dom.idom(exit), Some(header));
        assert!(dom.dominates(header, body));
        assert!(dom.dominates(header, exit));
        assert!(!dom.dominates(body, exit));
        assert!(dom.dominates(entry, exit));
    }

    #[test]
    fn dominance_matches_naive_definition() {
        // Check dominates() against the brute-force "every path" definition:
        // a dominates b iff removing a makes b unreachable from entry.
        let m = diamond_with_loop();
        let (_, f) = m.function_by_name("f").unwrap();
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(f, &cfg);
        let n = f.blocks.len();
        for a in 0..n {
            for b in 0..n {
                let (a, b) = (BlockId::new(a), BlockId::new(b));
                if !cfg.is_reachable(a) || !cfg.is_reachable(b) {
                    continue;
                }
                let naive = naive_dominates(&cfg, a, b);
                assert_eq!(dom.dominates(a, b), naive, "dominates({a},{b})");
            }
        }
    }

    fn naive_dominates(cfg: &Cfg, a: BlockId, b: BlockId) -> bool {
        if a == b {
            return true;
        }
        // BFS from entry avoiding a; if we still reach b, a does not dominate.
        let mut seen = vec![false; cfg.block_count()];
        let entry = BlockId::new(0);
        if entry == a {
            return true;
        }
        if b == entry {
            return false; // only entry dominates entry
        }
        let mut queue = vec![entry];
        seen[entry.index()] = true;
        while let Some(x) = queue.pop() {
            for &s in cfg.succs(x) {
                if s == a || seen[s.index()] {
                    continue;
                }
                if s == b {
                    return false;
                }
                seen[s.index()] = true;
                queue.push(s);
            }
        }
        true
    }

    #[test]
    fn frontier_of_branch_sides_is_join() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = mb.function("f", vec![("c", Type::I1)], Type::I64);
        let t = fb.new_block("t");
        let e = fb.new_block("e");
        let j = fb.new_block("j");
        let c = fb.param(0);
        fb.cond_br(c, t, e);
        fb.switch_to(t);
        fb.br(j);
        fb.switch_to(e);
        fb.br(j);
        fb.switch_to(j);
        fb.ret(Some(Operand::i64(0)));
        fb.finish();
        let m = mb.finish();
        let (_, f) = m.function_by_name("f").unwrap();
        let cfg = Cfg::compute(f);
        let frontiers = DomTree::compute(f, &cfg).frontiers(&cfg);
        assert_eq!(frontiers[1], [BlockId::new(3)]);
        assert_eq!(frontiers[2], [BlockId::new(3)]);
        assert_eq!(frontiers[0], [] as [BlockId; 0]);
        assert_eq!(frontiers[3], [] as [BlockId; 0]);
    }

    #[test]
    fn preorder_visits_all_reachable() {
        let m = diamond_with_loop();
        let (_, f) = m.function_by_name("f").unwrap();
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(f, &cfg);
        let pre = dom.preorder();
        assert_eq!(pre.len(), 4);
        assert_eq!(pre[0], BlockId::new(0));
    }
}
