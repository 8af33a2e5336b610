//! Node stores: where a manager keeps its nodes, chosen when the manager
//! is built.
//!
//! The kernel ([`Inner`]) is generic over a [`NodeStore`], and every node
//! access in `table.rs` and the recursions routes through the trait, so
//! `mk`, the apply caches and GC are written once for both stores:
//!
//! - [`Resident`] is a plain `Vec<Node>`. Its accessors are infallible
//!   `#[inline]` indexing wrapped in `Ok`, so once monomorphised the
//!   pre-fault hook, the sticky-error probe in `Inner::step` and the `?`
//!   on every node read compile away. Only resident managers index
//!   slots directly ([`Index`]/[`IndexMut`]), run the parallel engine and
//!   reorder; those passes take `Inner<Resident>`, so the compiler keeps
//!   paged managers out of them.
//! - [`Paged`] is the disk-backed buffer pool ([`crate::pager::Pager`])
//!   behind a `Mutex`, so the `&self` read paths (`one_sat`, `satcount`,
//!   enumeration, export, shape/support) can fault blocks in without any
//!   signature changes.
//!
//! The two stores share node ids (`id == slot index`, so `block == id /
//! BLOCK_NODES`); at one thread a paged manager allocates in exactly the
//! order a resident one does, which is what makes the paged-vs-resident
//! differential rig able to demand *id*-identical results, stronger than
//! the tuple contract.
//!
//! Error discipline (paged store): fallible accessors (`try_*`) surface
//! pager failures as typed `BddError::Page` values and park the full
//! [`PageError`] for `BddManager::take_page_error`. Infallible accessors
//! panic on a fault failure — they sit on API paths that have promised
//! not to fail since the seed — after parking the error, so diagnostics
//! survive the unwind.

use crate::budget::BddError;
use crate::node::Node;
use crate::pager::{PageError, PageStats, Pager, PagerFaults};
use crate::table::Inner;
use jedd_sync::{Mutex, MutexGuard};
use std::ops::{Index, IndexMut};
use std::path::PathBuf;

/// Node storage the kernel is generic over. Node ids are slot indices;
/// slots `0` and `1` are the `FALSE` and `TRUE` terminals.
pub(crate) trait NodeStore: Sized {
    /// Number of slots (terminals, live and free nodes).
    fn len(&self) -> usize;

    /// Reads node `id` through a shared borrow. A paged store faults the
    /// block in and panics on a pager failure (see module docs).
    fn get(&self, id: usize) -> Node;

    /// Fallible exclusive read: pager failures come back as typed
    /// [`BddError::Page`] errors.
    fn try_read(&mut self, id: usize) -> Result<Node, BddError>;

    /// Fallible in-place mutation of node `id`.
    fn try_update<R>(
        &mut self,
        id: usize,
        f: impl FnOnce(&mut Node) -> R,
    ) -> Result<R, BddError>;

    /// Appends a node, returning its id. A paged store may evict to stay
    /// within its frame budget.
    fn try_append(&mut self, n: Node) -> Result<u32, BddError>;

    /// Walks slots `from..len` mutably — the GC / rehash bulk path. A
    /// paged store faults blocks in sequentially and panics on a pager
    /// failure.
    fn scan_mut(&mut self, from: usize, f: impl FnMut(usize, &mut Node));

    /// Faults the blocks holding `ids` in, surfacing failures typed — the
    /// pre-fault hook at the top of the kernel recursions.
    fn try_fault(&mut self, ids: &[u32]) -> Result<(), BddError>;

    /// The `(block, kind)` summary of a parked pager error, if any.
    fn sticky_brief(&mut self) -> Option<(u32, &'static str)>;

    /// Paging counters, for a paged store.
    fn page_stats(&self) -> Option<PageStats>;

    /// The kernel as a resident one, when it is: the gate to the passes
    /// that index slots directly (the parallel engine, reordering).
    fn resident_mut(inner: &mut Inner<Self>) -> Option<&mut Inner<Resident>>;

    /// Reads node `id` through an exclusive borrow. Panics on a pager
    /// failure.
    #[inline]
    fn read(&mut self, id: usize) -> Node {
        match self.try_read(id) {
            Ok(n) => n,
            Err(e) => page_panic(&e),
        }
    }

    /// Mutates node `id` in place. Panics on a pager failure.
    #[inline]
    fn update<R>(&mut self, id: usize, f: impl FnOnce(&mut Node) -> R) -> R {
        match self.try_update(id, f) {
            Ok(r) => r,
            Err(e) => page_panic(&e),
        }
    }
}

#[cold]
fn page_panic(e: &BddError) -> ! {
    panic!("jedd-bdd pager failure on an infallible path: {e}");
}

/// The resident store: every node in one flat vector.
pub(crate) struct Resident(Vec<Node>);

impl Resident {
    /// A store holding the two terminals.
    pub(crate) fn new() -> Resident {
        let mut nodes = Vec::with_capacity(1024);
        nodes.push(Node::terminal()); // FALSE
        nodes.push(Node::terminal()); // TRUE
        Resident(nodes)
    }

    /// Appends a node, returning its id (the parallel commit).
    #[inline]
    pub(crate) fn push(&mut self, n: Node) -> u32 {
        let id = self.0.len() as u32;
        self.0.push(n);
        id
    }

    /// Iterates the slots in id order (reordering's level scans).
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, Node> {
        self.0.iter()
    }
}

impl NodeStore for Resident {
    #[inline]
    fn len(&self) -> usize {
        self.0.len()
    }

    #[inline]
    fn get(&self, id: usize) -> Node {
        self.0[id]
    }

    #[inline]
    fn try_read(&mut self, id: usize) -> Result<Node, BddError> {
        Ok(self.0[id])
    }

    #[inline]
    fn try_update<R>(
        &mut self,
        id: usize,
        f: impl FnOnce(&mut Node) -> R,
    ) -> Result<R, BddError> {
        Ok(f(&mut self.0[id]))
    }

    #[inline]
    fn try_append(&mut self, n: Node) -> Result<u32, BddError> {
        Ok(self.push(n))
    }

    #[inline]
    fn scan_mut(&mut self, from: usize, mut f: impl FnMut(usize, &mut Node)) {
        for (i, n) in self.0.iter_mut().enumerate().skip(from) {
            f(i, n);
        }
    }

    #[inline]
    fn try_fault(&mut self, _ids: &[u32]) -> Result<(), BddError> {
        Ok(())
    }

    #[inline]
    fn sticky_brief(&mut self) -> Option<(u32, &'static str)> {
        None
    }

    fn page_stats(&self) -> Option<PageStats> {
        None
    }

    #[inline]
    fn resident_mut(inner: &mut Inner<Resident>) -> Option<&mut Inner<Resident>> {
        Some(inner)
    }
}

impl Index<usize> for Resident {
    type Output = Node;
    #[inline]
    fn index(&self, i: usize) -> &Node {
        &self.0[i]
    }
}

impl IndexMut<usize> for Resident {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut Node {
        &mut self.0[i]
    }
}

/// The paged store: a disk-backed buffer pool. The pager is boxed so a
/// manager's kernel is about the same size whichever store it holds.
pub(crate) struct Paged {
    pager: Box<Mutex<Pager>>,
    /// Shadow of the slot count, kept on this side of the mutex so `len`
    /// never locks.
    len: usize,
}

impl Paged {
    /// A store holding the two terminals, with a resident budget of
    /// `frames` (`0` = unbounded) and its page file where [`Pager::new`]
    /// puts it by default.
    pub(crate) fn new(frames: usize) -> Result<Paged, PageError> {
        let mut pager = Pager::new(frames, None)?;
        pager.push_entry(Node::terminal())?; // FALSE
        pager.push_entry(Node::terminal())?; // TRUE
        Ok(Paged {
            pager: Box::new(Mutex::new(pager)),
            len: 2,
        })
    }

    /// Locks the pager, recovering from poison: the pager's state is
    /// consistent after every call, so a panic elsewhere does not
    /// invalidate it.
    fn lock(&self) -> MutexGuard<'_, Pager> {
        self.pager.lock()
    }

    fn convert(pager: &mut Pager, e: PageError) -> BddError {
        let brief = BddError::Page {
            block: e.block(),
            kind: e.kind(),
        };
        pager.park_sticky(e);
        brief
    }

    /// Takes the parked pager error (clearing it), if any.
    pub(crate) fn take_page_error(&self) -> Option<PageError> {
        self.lock().take_sticky()
    }

    /// Installs a pager crash-injection plan.
    pub(crate) fn set_pager_faults(&self, faults: PagerFaults) {
        self.lock().set_faults(faults);
    }

    /// The backing page file.
    pub(crate) fn page_file(&self) -> PathBuf {
        self.lock().file_path().to_path_buf()
    }
}

impl NodeStore for Paged {
    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn get(&self, id: usize) -> Node {
        let mut pager = self.lock();
        match pager.entry(id) {
            Ok(n) => n,
            Err(e) => {
                let brief = Self::convert(&mut pager, e);
                drop(pager);
                page_panic(&brief);
            }
        }
    }

    #[inline]
    fn try_read(&mut self, id: usize) -> Result<Node, BddError> {
        let pager = self.pager.get_mut();
        pager.entry(id).map_err(|e| Self::convert(pager, e))
    }

    #[inline]
    fn try_update<R>(
        &mut self,
        id: usize,
        f: impl FnOnce(&mut Node) -> R,
    ) -> Result<R, BddError> {
        let pager = self.pager.get_mut();
        pager
            .with_node_mut(id, f)
            .map_err(|e| Self::convert(pager, e))
    }

    #[inline]
    fn try_append(&mut self, n: Node) -> Result<u32, BddError> {
        let pager = self.pager.get_mut();
        let id = pager.push_entry(n).map_err(|e| Self::convert(pager, e))?;
        self.len += 1;
        Ok(id)
    }

    fn scan_mut(&mut self, from: usize, mut f: impl FnMut(usize, &mut Node)) {
        let pager = self.pager.get_mut();
        if let Err(e) = pager.scan_nodes(from, &mut f) {
            let brief = Self::convert(pager, e);
            page_panic(&brief);
        }
    }

    #[inline]
    fn try_fault(&mut self, ids: &[u32]) -> Result<(), BddError> {
        for &id in ids {
            if id > 1 {
                self.try_read(id as usize)?;
            }
        }
        Ok(())
    }

    #[inline]
    fn sticky_brief(&mut self) -> Option<(u32, &'static str)> {
        self.pager.get_mut().sticky_brief()
    }

    fn page_stats(&self) -> Option<PageStats> {
        Some(self.lock().stats())
    }

    fn resident_mut(_inner: &mut Inner<Paged>) -> Option<&mut Inner<Resident>> {
        None
    }
}

/// Model-checked pager contention: the `&self` read path locks the pager
/// for every access, so two readers churning pin/fault/evict through a
/// two-frame buffer pool is the whole protocol — swept deterministically
/// here instead of hoping the OS scheduler collides them.
#[cfg(all(test, feature = "model"))]
mod model_tests {
    use super::*;
    use crate::node::Node;
    use jedd_sync::model::{self, Config};

    fn probe_node(i: u32) -> Node {
        Node {
            level: i % 7,
            bot: i % 7,
            low: i,
            high: i.wrapping_add(1),
            next: u32::MAX,
            refs: 0,
        }
    }

    /// Two readers fault disjoint far-apart blocks through a two-frame
    /// pager: every interleaving of pin, fault and evict must return the
    /// exact node written, never deadlock on the store mutex, and leave
    /// the happens-before ledger race-free.
    #[test]
    fn pin_evict_contention_is_exhaustively_coherent() {
        let report = model::check(Config::dfs(1), || {
            let mut store = Paged::new(2).expect("paging on");
            // Four blocks of distinct nodes, so two frames must evict.
            let total = crate::pager::BLOCK_NODES * 4;
            for i in 2..total {
                store.try_append(probe_node(i as u32)).expect("append");
            }
            let store = &store;
            jedd_sync::thread::scope(|s| {
                for t in 0..2usize {
                    s.spawn(move || {
                        // Reader 0 walks blocks 0→3, reader 1 walks 3→0:
                        // opposite sweeps maximise evictions of each
                        // other's hot frame.
                        for step in 0..4usize {
                            let block = if t == 0 { step } else { 3 - step };
                            let id = block * crate::pager::BLOCK_NODES
                                + crate::pager::BLOCK_NODES / 2;
                            let got = store.get(id);
                            assert_eq!(got.low, id as u32, "block {block} returned a foreign node");
                        }
                    });
                }
            });
        });
        report.assert_clean();
        assert!(report.complete, "DFS must exhaust the pin/evict protocol");
        assert!(report.schedules >= 2, "readers must interleave, got {}", report.schedules);
    }
}
