//! Batched evaluation of independent top-level operations.
//!
//! A [`BddBatch`] collects a DAG of relational operations — the delta
//! rules of one fixpoint round, say — and evaluates them in one shot.
//! With the parallel engine engaged ([`BddManager::set_threads`] >= 2)
//! the whole DAG runs on the shared-table kernel: each expression is a
//! unit of work, dispatched to a worker as soon as its operands resolve,
//! so multi-core helps even when the individual operations are too small
//! to split profitably. At `threads = 1` the batch evaluates its terms
//! sequentially through the ordinary governed operations, preserving the
//! sequential path's node-id determinism bit for bit.
//!
//! # Examples
//!
//! ```
//! use jedd_bdd::BddManager;
//! let mgr = BddManager::new(4);
//! let f = mgr.var(0).or(&mgr.var(1));
//! let g = mgr.var(1).or(&mgr.var(2));
//! let h = mgr.var(2).or(&mgr.var(3));
//!
//! let mut batch = mgr.batch();
//! let tf = batch.leaf(&f);
//! let tg = batch.leaf(&g);
//! let th = batch.leaf(&h);
//! // Two independent intersections: one fixpoint round's worth of work.
//! let a = batch.and(tf, tg);
//! let b = batch.and(tg, th);
//! let out = batch.run(&[a, b]);
//! assert_eq!(out[0], f.and(&g));
//! assert_eq!(out[1], g.and(&h));
//! ```

use crate::budget::BddError;
use crate::manager::{run_governed, Bdd, BddManager};
use crate::node::Permutation;
use crate::ops::BinOp;
use crate::par::BatchExpr;
use crate::table::AnyInner;
use std::rc::Rc;

/// An opaque handle to one expression of a [`BddBatch`]. Only meaningful
/// for the batch that minted it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchTerm(usize);

enum Term {
    /// Index into `pins`.
    Leaf(usize),
    Bin(BinOp, usize, usize),
    /// `(term, cube pin)`.
    Exists(usize, usize),
    /// `(term, term, cube pin)`.
    AndExists(usize, usize, usize),
    /// `(term, perm index)`.
    Replace(usize, usize),
}

/// A DAG of top-level operations evaluated together; see the
/// [module docs](crate::batch) and [`BddManager::batch`].
pub struct BddBatch {
    mgr: BddManager,
    terms: Vec<Term>,
    perms: Vec<Permutation>,
    /// Operand handles (leaves and cubes), pinned for the batch's
    /// lifetime so a mid-ladder GC cannot reclaim them.
    pins: Vec<Bdd>,
}

impl BddManager {
    /// Starts an empty [`BddBatch`] on this manager.
    pub fn batch(&self) -> BddBatch {
        BddBatch {
            mgr: self.clone(),
            terms: Vec::new(),
            perms: Vec::new(),
            pins: Vec::new(),
        }
    }
}

impl BddBatch {
    fn pin(&mut self, f: &Bdd) -> usize {
        assert!(
            Rc::ptr_eq(&self.mgr.inner, &f.mgr),
            "batch operand from a different manager"
        );
        self.pins.push(f.clone());
        self.pins.len() - 1
    }

    fn push(&mut self, t: Term) -> BatchTerm {
        self.terms.push(t);
        BatchTerm(self.terms.len() - 1)
    }

    fn check(&self, t: BatchTerm) -> usize {
        assert!(t.0 < self.terms.len(), "batch term from another batch");
        t.0
    }

    /// Enters an existing BDD as a batch input.
    pub fn leaf(&mut self, f: &Bdd) -> BatchTerm {
        let p = self.pin(f);
        self.push(Term::Leaf(p))
    }

    /// Conjunction (set intersection) of two terms.
    pub fn and(&mut self, a: BatchTerm, b: BatchTerm) -> BatchTerm {
        let (a, b) = (self.check(a), self.check(b));
        self.push(Term::Bin(BinOp::And, a, b))
    }

    /// Disjunction (set union) of two terms.
    pub fn or(&mut self, a: BatchTerm, b: BatchTerm) -> BatchTerm {
        let (a, b) = (self.check(a), self.check(b));
        self.push(Term::Bin(BinOp::Or, a, b))
    }

    /// Difference `a & !b` (set difference) of two terms.
    pub fn diff(&mut self, a: BatchTerm, b: BatchTerm) -> BatchTerm {
        let (a, b) = (self.check(a), self.check(b));
        self.push(Term::Bin(BinOp::Diff, a, b))
    }

    /// Exclusive or (symmetric difference) of two terms.
    pub fn xor(&mut self, a: BatchTerm, b: BatchTerm) -> BatchTerm {
        let (a, b) = (self.check(a), self.check(b));
        self.push(Term::Bin(BinOp::Xor, a, b))
    }

    /// Existential quantification of a term over the variables of `cube`
    /// (a positive cube, e.g. from [`BddManager::cube`]).
    pub fn exists(&mut self, f: BatchTerm, cube: &Bdd) -> BatchTerm {
        let f = self.check(f);
        let c = self.pin(cube);
        self.push(Term::Exists(f, c))
    }

    /// The fused relational product `exists cube. (f & g)`.
    pub fn and_exists(&mut self, f: BatchTerm, g: BatchTerm, cube: &Bdd) -> BatchTerm {
        let (f, g) = (self.check(f), self.check(g));
        let c = self.pin(cube);
        self.push(Term::AndExists(f, g, c))
    }

    /// Variable replacement of a term under `perm`.
    pub fn replace(&mut self, f: BatchTerm, perm: &Permutation) -> BatchTerm {
        let f = self.check(f);
        self.perms.push(perm.clone());
        let p = self.perms.len() - 1;
        self.push(Term::Replace(f, p))
    }

    /// Evaluates every term and returns the results for `roots`, in
    /// order. All terms are evaluated (they are assumed to be wanted —
    /// don't enter speculative work into a batch).
    ///
    /// # Panics
    ///
    /// Panics on budget exhaustion like the plain (non-`try_`) operation
    /// methods; see [`BddBatch::try_run`].
    pub fn run(&self, roots: &[BatchTerm]) -> Vec<Bdd> {
        crate::manager::expect_within_budget("batch", self.try_run(roots))
    }

    /// Budget-aware form of [`BddBatch::run`].
    ///
    /// # Errors
    ///
    /// Returns the first [`BddError`] any expression trips: resource
    /// errors after the recovery ladder (GC, then reorder) is exhausted,
    /// or [`BddError::InvalidPermutation`] from a replace whose support
    /// collides under its permutation.
    pub fn try_run(&self, roots: &[BatchTerm]) -> Result<Vec<Bdd>, BddError> {
        let values = match self.run_parallel()? {
            Some(ids) => ids.into_iter().map(|id| self.mgr.wrap(id)).collect(),
            None => self.run_sequential()?,
        };
        Ok(roots.iter().map(|&r| values[self.check(r)].clone()).collect())
    }

    /// The sequential path: each term is an ordinary governed top-level
    /// operation with its own recovery ladder, so results (including
    /// node ids) are bit-identical to hand-written operation sequences.
    fn run_sequential(&self) -> Result<Vec<Bdd>, BddError> {
        let mut out: Vec<Bdd> = Vec::with_capacity(self.terms.len());
        for t in &self.terms {
            let r = match *t {
                Term::Leaf(p) => self.pins[p].clone(),
                Term::Bin(op, a, b) => match op {
                    BinOp::And => out[a].try_and(&out[b])?,
                    BinOp::Or => out[a].try_or(&out[b])?,
                    BinOp::Diff => out[a].try_diff(&out[b])?,
                    BinOp::Xor => out[a].try_xor(&out[b])?,
                    BinOp::Biimp => out[a].try_biimp(&out[b])?,
                },
                Term::Exists(f, c) => out[f].try_exists(&self.pins[c])?,
                Term::AndExists(f, g, c) => out[f].try_and_exists(&out[g], &self.pins[c])?,
                Term::Replace(f, p) => out[f].try_replace(&self.perms[p])?,
            };
            out.push(r);
        }
        Ok(out)
    }

    /// The parallel path: one lowered expression DAG, one kernel run,
    /// one recovery ladder around the whole batch (a mid-batch GC would
    /// move the frozen-arena snapshot under the workers). `None` when the
    /// manager runs sequentially: a resident one with the engine off, or
    /// any paged one.
    fn run_parallel(&self) -> Result<Option<Vec<u32>>, BddError> {
        let mut cell = self.mgr.inner.borrow_mut();
        let inner = match &mut *cell {
            AnyInner::Resident(inner) if inner.par_enabled() => inner,
            _ => return Ok(None),
        };
        let exprs: Vec<BatchExpr> = self
            .terms
            .iter()
            .map(|t| match *t {
                Term::Leaf(p) => BatchExpr::Leaf(self.pins[p].id),
                Term::Bin(op, a, b) => BatchExpr::Bin(op, a, b),
                Term::Exists(f, c) => BatchExpr::Exists(f, self.pins[c].id),
                Term::AndExists(f, g, c) => BatchExpr::AndExists(f, g, self.pins[c].id),
                Term::Replace(f, p) => BatchExpr::Replace(f, p),
            })
            .collect();
        run_governed(inner, |inner| inner.batch_run(&exprs, &self.perms)).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;

    fn setup(threads: usize) -> (BddManager, Bdd, Bdd, Bdd) {
        let mgr = BddManager::new(8);
        mgr.set_threads(threads);
        mgr.set_par_cutoff(2);
        let f = mgr.var(0).xor(&mgr.var(3)).or(&mgr.var(5));
        let g = mgr.var(1).biimp(&mgr.var(4)).and(&mgr.var(6).not());
        let h = mgr.var(2).or(&mgr.var(7));
        (mgr, f, g, h)
    }

    fn build(batch: &mut BddBatch, f: &Bdd, g: &Bdd, h: &Bdd, mgr: &BddManager) -> Vec<BatchTerm> {
        let tf = batch.leaf(f);
        let tg = batch.leaf(g);
        let th = batch.leaf(h);
        let cube = mgr.cube(&[1, 4]);
        let perm = Permutation::from_pairs(&[(0, 2), (2, 0)]);
        let a = batch.and(tf, tg);
        let b = batch.or(tg, th);
        let e = batch.exists(b, &cube);
        let ae = batch.and_exists(tf, tg, &cube);
        let r = batch.replace(e, &perm);
        let u = batch.or(a, r);
        vec![a, b, e, ae, r, u]
    }

    fn reference(f: &Bdd, g: &Bdd, h: &Bdd, mgr: &BddManager) -> Vec<Bdd> {
        let cube = mgr.cube(&[1, 4]);
        let perm = Permutation::from_pairs(&[(0, 2), (2, 0)]);
        let a = f.and(g);
        let b = g.or(h);
        let e = b.exists(&cube);
        let ae = f.and_exists(g, &cube);
        let r = e.replace(&perm);
        let u = a.or(&r);
        vec![a, b, e, ae, r, u]
    }

    #[test]
    fn batch_matches_individual_ops_at_each_thread_count() {
        for threads in [1, 2, 4, 8] {
            let (mgr, f, g, h) = setup(threads);
            let mut batch = mgr.batch();
            let roots = build(&mut batch, &f, &g, &h, &mgr);
            let got = batch.run(&roots);
            let want = reference(&f, &g, &h, &mgr);
            let vars: Vec<u32> = (0..8).collect();
            for (i, (a, b)) in got.iter().zip(want.iter()).enumerate() {
                assert_eq!(
                    a.sat_assignments(&vars),
                    b.sat_assignments(&vars),
                    "term {i} diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn parallel_batch_engages_kernel() {
        let (mgr, f, g, h) = setup(4);
        let before = mgr.kernel_stats().par_ops;
        let mut batch = mgr.batch();
        let roots = build(&mut batch, &f, &g, &h, &mgr);
        let _ = batch.run(&roots);
        assert!(
            mgr.kernel_stats().par_ops > before,
            "a 4-thread batch must run on the parallel kernel"
        );
    }

    #[test]
    fn batch_replace_reports_invalid_permutation() {
        for threads in [1, 4] {
            let (mgr, f, _, _) = setup(threads);
            let mut batch = mgr.batch();
            let tf = batch.leaf(&f);
            // f's support contains 0 and 3; mapping 0 onto the unmoved 3
            // collides.
            let bad = Permutation::from_pairs(&[(0, 3)]);
            let r = batch.replace(tf, &bad);
            let got = batch.try_run(&[r]);
            assert!(
                matches!(got, Err(BddError::InvalidPermutation { .. })),
                "threads={threads}: expected InvalidPermutation, got {got:?}"
            );
        }
    }

    #[test]
    fn batch_respects_step_budget() {
        for threads in [1, 4] {
            let (mgr, f, g, h) = setup(threads);
            mgr.set_budget(Budget::unlimited().with_max_steps(1));
            let mut batch = mgr.batch();
            let roots = build(&mut batch, &f, &g, &h, &mgr);
            let got = batch.try_run(&roots);
            assert!(
                matches!(got, Err(BddError::StepLimit { .. })),
                "threads={threads}: expected StepLimit, got {:?}",
                got.as_ref().err()
            );
        }
    }

    #[test]
    fn empty_and_leaf_only_batches() {
        let (mgr, f, _, _) = setup(4);
        let batch = mgr.batch();
        assert!(batch.run(&[]).is_empty());
        let mut batch = mgr.batch();
        let t = batch.leaf(&f);
        let out = batch.run(&[t, t]);
        assert_eq!(out[0], f);
        assert_eq!(out[1], f);
    }
}
