//! Node identifiers, node layout and variable permutations.

use crate::budget::{BddError, PermutationFlaw};
use std::fmt;

/// Index of a node in the manager's arena.
///
/// The two terminal nodes have fixed indices: [`NodeId::FALSE`] is `0` and
/// [`NodeId::TRUE`] is `1`. All other identifiers refer to internal decision
/// nodes. A `NodeId` is only meaningful relative to the manager that issued
/// it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The terminal node representing the constant `false` (the empty set).
    pub const FALSE: NodeId = NodeId(0);
    /// The terminal node representing the constant `true` (the full set).
    pub const TRUE: NodeId = NodeId(1);

    /// Returns `true` if this is one of the two terminal nodes.
    #[inline]
    pub fn is_terminal(self) -> bool {
        self.0 <= 1
    }

    /// Returns `true` if this is the `false` terminal.
    #[inline]
    pub fn is_false(self) -> bool {
        self.0 == 0
    }

    /// Returns `true` if this is the `true` terminal.
    #[inline]
    pub fn is_true(self) -> bool {
        self.0 == 1
    }

    /// The raw arena index. Exposed for diagnostics and tests.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            NodeId::FALSE => write!(f, "NodeId(FALSE)"),
            NodeId::TRUE => write!(f, "NodeId(TRUE)"),
            NodeId(n) => write!(f, "NodeId({n})"),
        }
    }
}

/// Level used to mark terminal nodes and free-list entries.
pub(crate) const TERMINAL_LEVEL: u32 = u32::MAX;
/// Level marker for nodes on the free list.
pub(crate) const FREE_LEVEL: u32 = u32::MAX - 1;
/// Sentinel for "no node" in intrusive lists.
pub(crate) const NIL: u32 = u32::MAX;

/// A single decision node stored in the arena.
///
/// Nodes are hash-consed: for a given `(level, bot, low, high)` quadruple at
/// most one live node exists. The `next` field chains nodes within a
/// unique-table bucket, and the low 31 bits of `refs` count external
/// [`crate::Bdd`] handles pinning the node (internal sharing is not
/// counted; garbage collection marks from the externally referenced
/// roots). Bit 31 of `refs` is the collector's mark bit, which keeps the
/// node at six words: 24 bytes, 2.67 nodes per 64-byte cache line.
///
/// `bot` is the chain interval's bottom level (Bryant's chain reduction,
/// TACAS 2018). A plain reduced node has `bot == level`. In a chain-mode
/// manager a node with `bot > level` encodes the OR-chain
/// `¬x_level ∧ … ∧ ¬x_{bot-1} ∧ (¬x_bot·low + x_bot·high)` — a CBDD
/// chain node. Managers with chain reduction off never create `bot >
/// level` nodes, so plain BDDs are exactly the `bot == level` degenerate
/// case and existing node ids are unchanged.
///
/// The pager stores this exact layout on disk (one little-endian word per
/// field) and exports it as [`crate::pager::BlockEntry`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Node {
    /// Decision level (top of the chain interval), or a terminal/free
    /// sentinel.
    pub level: u32,
    /// Bottom of the chain interval (`== level` for plain nodes).
    pub bot: u32,
    /// Low child id (or free-list link for freed slots).
    pub low: u32,
    /// High child id.
    pub high: u32,
    /// Unique-table chain link.
    pub next: u32,
    /// External reference count in the low 31 bits, the mark-and-sweep GC
    /// bit in bit 31 ([`Node::MARK_BIT`]).
    pub refs: u32,
}

impl Node {
    /// The GC mark bit inside [`Node::refs`]; external reference counts
    /// never approach 2^31.
    pub const MARK_BIT: u32 = 1 << 31;

    pub(crate) fn terminal() -> Node {
        Node {
            level: TERMINAL_LEVEL,
            bot: TERMINAL_LEVEL,
            low: NIL,
            high: NIL,
            next: NIL,
            refs: 1,
        }
    }

    /// The external reference count (the refs word without the mark bit).
    #[inline]
    pub fn ext_refs(&self) -> u32 {
        self.refs & !Node::MARK_BIT
    }

    /// `true` when the collection in progress has marked this node live.
    #[inline]
    pub fn marked(&self) -> bool {
        self.refs & Node::MARK_BIT != 0
    }
}

/// A mapping of BDD variables (levels) to new variables, used by
/// [`crate::Bdd::replace`].
///
/// Unmapped variables stay put. The permutation must be injective on the
/// variables it moves; this is validated by [`Permutation::from_pairs`] and
/// checked again (for the support of the operand) at replace time.
///
/// # Examples
///
/// ```
/// use jedd_bdd::{BddManager, Permutation};
/// let mgr = BddManager::new(4);
/// let f = mgr.var(0).and(&mgr.var(1));
/// let perm = Permutation::from_pairs(&[(0, 2), (1, 3)]);
/// let g = f.replace(&perm);
/// assert_eq!(g, mgr.var(2).and(&mgr.var(3)));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Permutation {
    /// Sorted list of `(from, to)` pairs with `from != to`.
    pairs: Vec<(u32, u32)>,
}

impl Permutation {
    /// Creates the identity permutation.
    pub fn identity() -> Permutation {
        Permutation::default()
    }

    /// Builds a permutation from `(from, to)` variable pairs.
    ///
    /// Pairs with `from == to` are dropped. The permutation may exchange
    /// variables (e.g. `[(0, 1), (1, 0)]`).
    ///
    /// # Panics
    ///
    /// Panics if the same `from` variable is mapped twice, or two variables
    /// map to the same `to` variable. Use
    /// [`Permutation::try_from_pairs`] to handle malformed pairs without
    /// panicking.
    pub fn from_pairs(pairs: &[(u32, u32)]) -> Permutation {
        match Permutation::try_from_pairs(pairs) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`Permutation::from_pairs`].
    ///
    /// # Errors
    ///
    /// Returns [`BddError::InvalidPermutation`] if the same `from` variable
    /// is mapped twice ([`PermutationFlaw::DuplicateSource`]) or two
    /// variables map to the same `to` variable
    /// ([`PermutationFlaw::DuplicateTarget`]).
    pub fn try_from_pairs(pairs: &[(u32, u32)]) -> Result<Permutation, BddError> {
        let mut kept: Vec<(u32, u32)> = pairs.iter().copied().filter(|(a, b)| a != b).collect();
        kept.sort_unstable();
        for w in kept.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(BddError::InvalidPermutation {
                    var: w[0].0,
                    kind: PermutationFlaw::DuplicateSource,
                });
            }
        }
        let mut targets: Vec<u32> = kept.iter().map(|&(_, t)| t).collect();
        targets.sort_unstable();
        for w in targets.windows(2) {
            if w[0] == w[1] {
                return Err(BddError::InvalidPermutation {
                    var: w[0],
                    kind: PermutationFlaw::DuplicateTarget,
                });
            }
        }
        Ok(Permutation { pairs: kept })
    }

    /// Returns the image of `var` under the permutation.
    #[inline]
    pub fn apply(&self, var: u32) -> u32 {
        match self.pairs.binary_search_by_key(&var, |&(f, _)| f) {
            Ok(i) => self.pairs[i].1,
            Err(_) => var,
        }
    }

    /// Returns `true` if the permutation moves no variable.
    pub fn is_identity(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Returns `true` if every moved variable maps to a larger-or-equal
    /// variable order position monotonically, i.e. the relative order of the
    /// support is preserved. Order-preserving permutations admit a cheaper
    /// single-pass rewrite.
    pub fn is_order_preserving(&self) -> bool {
        // `pairs` is sorted by `from`; the permutation is order preserving
        // when the `to` values are strictly increasing as well, and no
        // unmoved variable is crossed by a moved one. The latter is hard to
        // check without the support, so we only report the conservative case
        // where each variable maps to itself-shifted within disjoint ranges.
        // Used as a heuristic only; correctness never depends on it.
        let mut prev = None;
        for &(_, t) in &self.pairs {
            if let Some(p) = prev {
                if t <= p {
                    return false;
                }
            }
            prev = Some(t);
        }
        true
    }

    /// The explicit `(from, to)` pairs, sorted by `from`.
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.pairs
    }

    /// The inverse permutation.
    pub fn inverse(&self) -> Permutation {
        let inv: Vec<(u32, u32)> = self.pairs.iter().map(|&(f, t)| (t, f)).collect();
        Permutation::from_pairs(&inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_is_six_words() {
        assert_eq!(std::mem::size_of::<Node>(), 24);
        assert_eq!(Node::terminal().ext_refs(), 1);
        assert!(!Node::terminal().marked());
    }

    #[test]
    fn terminal_ids() {
        assert!(NodeId::FALSE.is_terminal());
        assert!(NodeId::TRUE.is_terminal());
        assert!(NodeId::FALSE.is_false());
        assert!(NodeId::TRUE.is_true());
        assert!(!NodeId(7).is_terminal());
        assert_eq!(NodeId(7).index(), 7);
    }

    #[test]
    fn debug_formatting_nonempty() {
        assert_eq!(format!("{:?}", NodeId::FALSE), "NodeId(FALSE)");
        assert_eq!(format!("{:?}", NodeId::TRUE), "NodeId(TRUE)");
        assert_eq!(format!("{:?}", NodeId(3)), "NodeId(3)");
    }

    #[test]
    fn permutation_identity() {
        let p = Permutation::identity();
        assert!(p.is_identity());
        assert_eq!(p.apply(5), 5);
        assert_eq!(p.inverse(), p);
    }

    #[test]
    fn permutation_apply_and_inverse() {
        let p = Permutation::from_pairs(&[(0, 3), (3, 0), (1, 2)]);
        assert_eq!(p.apply(0), 3);
        assert_eq!(p.apply(3), 0);
        assert_eq!(p.apply(1), 2);
        assert_eq!(p.apply(2), 2);
        let inv = p.inverse();
        // Round trip holds on the moved variables.
        for v in [0u32, 1, 3] {
            assert_eq!(inv.apply(p.apply(v)), v);
        }
    }

    #[test]
    fn permutation_drops_fixed_points() {
        let p = Permutation::from_pairs(&[(2, 2), (4, 4)]);
        assert!(p.is_identity());
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn permutation_rejects_duplicate_source() {
        let _ = Permutation::from_pairs(&[(0, 1), (0, 2)]);
    }

    #[test]
    #[should_panic(expected = "same target")]
    fn permutation_rejects_duplicate_target() {
        let _ = Permutation::from_pairs(&[(0, 2), (1, 2)]);
    }

    #[test]
    fn try_from_pairs_reports_flaws() {
        assert_eq!(
            Permutation::try_from_pairs(&[(0, 1), (0, 2)]),
            Err(BddError::InvalidPermutation {
                var: 0,
                kind: PermutationFlaw::DuplicateSource
            })
        );
        assert_eq!(
            Permutation::try_from_pairs(&[(0, 2), (1, 2)]),
            Err(BddError::InvalidPermutation {
                var: 2,
                kind: PermutationFlaw::DuplicateTarget
            })
        );
        assert!(Permutation::try_from_pairs(&[(0, 1), (1, 0)]).is_ok());
    }

    #[test]
    fn order_preserving_detection() {
        assert!(Permutation::from_pairs(&[(0, 4), (1, 5)]).is_order_preserving());
        assert!(!Permutation::from_pairs(&[(0, 5), (1, 4)]).is_order_preserving());
    }
}
