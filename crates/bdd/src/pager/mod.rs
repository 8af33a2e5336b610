//! Disk-backed node pager: a file manager over fixed-size blocks of
//! snapshot-encoded nodes plus a buffer pool with pin/unpin and a clock
//! (second-chance) replacement policy.
//!
//! A paged arena stores its nodes **only** in buffer-pool frames; cold
//! blocks live in a single scratch page file (one fixed
//! [`BLOCK_BYTES`](block::BLOCK_BYTES) slot per block) and are faulted
//! back in on access. The resident-frame budget is the paging analogue of
//! the governor's node budget: at most `budget` frames are resident at
//! once (`0` = unbounded), so an analysis whose live arena exceeds RAM
//! completes by trading faults for capacity.
//!
//! ## Pin protocol
//!
//! Every kernel access copies nodes out of a frame while holding the
//! pager lock, so no reference into a frame ever outlives a call —
//! eviction can therefore never invalidate an in-flight read. Pins exist
//! at the *policy* level: a pinned frame is skipped by the clock hand, so
//! frames that are in every recursion stay wired down. The kernel
//! permanently pins block 0 (the terminals and the hottest low node ids);
//! hosts and tests can pin further blocks through [`Pager::pin`].
//!
//! ## Eviction and failure
//!
//! Eviction always writes the victim block (so `evictions <=
//! page_writes` holds by construction; writes are counted on attempt,
//! evictions only on success). A failed eviction write — an I/O error or
//! an injected [`PagerFaults`] kill — aborts the eviction non-fatally:
//! the victim stays resident (temporarily over budget) and the error is
//! parked in a sticky slot that the kernel surfaces as a typed
//! `BddError::Page` at the next governed operation. Fault-in *read*
//! failures (a torn or corrupted block) are returned to the caller; the
//! kernel's fallible entry points propagate them typed, and
//! `jedd-store` converts them into `StoreError` via `From<PageError>`.

mod block;

pub use block::{
    block_error_kind, decode_block, encode_block, BlockEntry, BlockError, BLOCK_BYTES,
    BLOCK_NODES, ENTRY_BYTES, HEADER_BYTES,
};

use crate::node::Node;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use jedd_sync::atomic::{AtomicU64, Ordering};

/// Why a pager operation failed. Unlike the kernel's `Copy` error type
/// this carries the full context (paths, the underlying I/O error); the
/// kernel parks it in a sticky slot retrievable through
/// `BddManager::take_page_error` and reports the compact
/// `BddError::Page` form from governed operations.
#[derive(Debug)]
pub enum PageError {
    /// An operating-system I/O failure.
    Io {
        /// What the pager was doing (`"create"`, `"read"`, `"write"`, …).
        op: &'static str,
        /// The block involved (0 for file-level operations).
        block: u32,
        /// The page file (or directory) involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// A block read back from disk failed to decode — a torn page, a bit
    /// flip, or a misdirected write.
    Corrupt {
        /// The block that failed to decode.
        block: u32,
        /// The page file.
        path: PathBuf,
        /// The decode failure class.
        kind: BlockError,
    },
    /// An injected crash point fired (see [`PagerFaults`]).
    Killed {
        /// Which pager operation was killed.
        at: &'static str,
        /// The block being written when the kill fired.
        block: u32,
    },
}

impl PageError {
    /// The block this error is about.
    pub fn block(&self) -> u32 {
        match self {
            PageError::Io { block, .. }
            | PageError::Corrupt { block, .. }
            | PageError::Killed { block, .. } => *block,
        }
    }

    /// A stable short tag naming the failure class.
    pub fn kind(&self) -> &'static str {
        match self {
            PageError::Io { .. } => "io",
            PageError::Corrupt { kind, .. } => block_error_kind(kind),
            PageError::Killed { .. } => "killed",
        }
    }
}

impl fmt::Display for PageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageError::Io { op, block, path, source } => {
                write!(f, "page {op} failed for block {block} of {}: {source}", path.display())
            }
            PageError::Corrupt { block, path, kind } => {
                write!(f, "corrupt page block {block} in {}: {kind}", path.display())
            }
            PageError::Killed { at, block } => {
                write!(f, "injected kill during {at} of block {block}")
            }
        }
    }
}

impl std::error::Error for PageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PageError::Io { source, .. } => Some(source),
            PageError::Corrupt { kind, .. } => Some(kind),
            PageError::Killed { .. } => None,
        }
    }
}

/// Deterministic crash injection for the pager, mirroring
/// `jedd_store::StoreFaults`: the `at`-th block write (1-based, counted
/// from the moment the plan is installed) writes only a prefix of the
/// block — a torn page — and then dies with [`PageError::Killed`].
#[derive(Clone, Copy, Debug, Default)]
pub struct PagerFaults {
    kill_write: Option<(u64, u64)>,
}

impl PagerFaults {
    /// Kills the `at`-th block write after `after_bytes` bytes land.
    pub fn kill_write(at: u64, after_bytes: u64) -> PagerFaults {
        PagerFaults {
            kill_write: Some((at, after_bytes)),
        }
    }
}

/// Paging counters, merged into `KernelStats` for paged managers. All
/// counters are monotone; `max_resident` is a high-water gauge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PageStats {
    /// Block fault-ins that had to read the page file. Equal to
    /// `page_reads` by construction (fresh blocks are born resident).
    pub page_faults: u64,
    /// Blocks read from the page file.
    pub page_reads: u64,
    /// Block writes attempted (eviction always writes the victim).
    pub page_writes: u64,
    /// Successful evictions. `evictions <= page_writes` always.
    pub evictions: u64,
    /// High-water mark of simultaneously resident frames.
    pub max_resident: u64,
}

struct Frame {
    /// The valid node slots of this block (the tail block is partial).
    nodes: Vec<Node>,
    pins: u32,
    referenced: bool,
}

enum Slot {
    Resident(Frame),
    OnDisk,
}

static PAGER_SEQ: AtomicU64 = AtomicU64::new(0);

/// The buffer pool: a page table over block slots, a clock hand, and the
/// backing page file. One pager backs one arena; the page file is
/// scratch state (checkpoints are the durable story) and is removed on
/// drop, along with the scratch directory when the pager created it.
pub struct Pager {
    file: File,
    path: PathBuf,
    owned_dir: Option<PathBuf>,
    budget: usize,
    slots: Vec<Slot>,
    resident: usize,
    hand: usize,
    len: usize,
    stats: PageStats,
    faults: PagerFaults,
    sticky: Option<PageError>,
}

impl Pager {
    /// Opens a fresh pager with a resident budget of `budget` frames
    /// (`0` = unbounded). The page file lives under `dir` when given,
    /// else under `JEDD_PAGE_DIR`, else in a scratch directory beneath
    /// the system temp dir (removed on drop).
    ///
    /// # Errors
    ///
    /// [`PageError::Io`] when the directory or page file cannot be
    /// created.
    pub fn new(budget: usize, dir: Option<&Path>) -> Result<Pager, PageError> {
        let seq = PAGER_SEQ.fetch_add(1, Ordering::Relaxed);
        let pid = std::process::id();
        let mut owned_dir = None;
        let dir_path = match dir {
            Some(d) => d.to_path_buf(),
            None => match std::env::var("JEDD_PAGE_DIR") {
                Ok(v) if !v.is_empty() => PathBuf::from(v),
                _ => {
                    let d = std::env::temp_dir().join(format!("jedd-pager-{pid}-{seq}"));
                    owned_dir = Some(d.clone());
                    d
                }
            },
        };
        fn io_err(op: &'static str, path: &Path) -> impl FnOnce(io::Error) -> PageError {
            let path = path.to_path_buf();
            move |source| PageError::Io {
                op,
                block: 0,
                path,
                source,
            }
        }
        fs::create_dir_all(&dir_path).map_err(io_err("create-dir", &dir_path))?;
        let path = dir_path.join(format!("nodes-{pid}-{seq}.jpgb"));
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&path)
            .map_err(io_err("create", &path))?;
        Ok(Pager {
            file,
            path,
            owned_dir,
            budget,
            slots: Vec::new(),
            resident: 0,
            hand: 0,
            len: 0,
            stats: PageStats::default(),
            faults: PagerFaults::default(),
            sticky: None,
        })
    }

    /// The number of node slots the pager holds (resident or on disk).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the pager holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The number of blocks (resident or on disk).
    pub fn blocks(&self) -> usize {
        self.slots.len()
    }

    /// The number of currently resident frames.
    pub fn resident_frames(&self) -> usize {
        self.resident
    }

    /// The resident-frame budget (`0` = unbounded).
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Whether `block` is currently resident.
    pub fn is_resident(&self, block: usize) -> bool {
        matches!(self.slots.get(block), Some(Slot::Resident(_)))
    }

    /// The backing page file.
    pub fn file_path(&self) -> &Path {
        &self.path
    }

    /// A snapshot of the paging counters.
    pub fn stats(&self) -> PageStats {
        self.stats
    }

    /// Installs (or clears) the crash-injection plan.
    pub fn set_faults(&mut self, faults: PagerFaults) {
        // Kill ordinals are relative to installation: rebase them onto
        // the absolute `page_writes` counter so "the 3rd write from now"
        // works no matter how much paging history precedes the plan.
        self.faults = PagerFaults {
            kill_write: faults
                .kill_write
                .map(|(at, bytes)| (at + self.stats.page_writes, bytes)),
        };
    }

    /// Takes the sticky error parked by a failed eviction, if any.
    pub fn take_sticky(&mut self) -> Option<PageError> {
        self.sticky.take()
    }

    /// Parks `e` in the sticky slot (first error wins) so its full
    /// context stays retrievable after a compact form is reported.
    pub(crate) fn park_sticky(&mut self, e: PageError) {
        self.sticky.get_or_insert(e);
    }

    /// The `(block, kind)` summary of the sticky error, without clearing
    /// it.
    pub fn sticky_brief(&self) -> Option<(u32, &'static str)> {
        self.sticky.as_ref().map(|e| (e.block(), e.kind()))
    }

    /// Faults `block` in (if needed) and wires it down: a pinned frame is
    /// never chosen for eviction. Pins nest.
    ///
    /// # Errors
    ///
    /// Propagates fault-in failures.
    pub fn pin(&mut self, block: usize) -> Result<(), PageError> {
        self.ensure_resident(block)?;
        if let Slot::Resident(f) = &mut self.slots[block] {
            f.pins += 1;
        }
        Ok(())
    }

    /// Releases one pin on `block`. Unpinning below zero is a no-op.
    pub fn unpin(&mut self, block: usize) {
        if let Some(Slot::Resident(f)) = self.slots.get_mut(block) {
            f.pins = f.pins.saturating_sub(1);
        }
    }

    /// The pin count of `block` (0 when absent or on disk).
    pub fn pin_count(&self, block: usize) -> u32 {
        match self.slots.get(block) {
            Some(Slot::Resident(f)) => f.pins,
            _ => 0,
        }
    }

    /// Reads node slot `id`, faulting its block in if cold.
    ///
    /// # Errors
    ///
    /// Fault-in failures: I/O errors and corrupt (torn) blocks.
    pub fn entry(&mut self, id: usize) -> Result<BlockEntry, PageError> {
        debug_assert!(id < self.len, "node id {id} out of range {}", self.len);
        let block = id / BLOCK_NODES;
        self.ensure_resident(block)?;
        match &self.slots[block] {
            Slot::Resident(f) => Ok(f.nodes[id % BLOCK_NODES]),
            Slot::OnDisk => unreachable!("ensure_resident loaded the block"),
        }
    }

    pub(crate) fn with_node_mut<R>(
        &mut self,
        id: usize,
        f: impl FnOnce(&mut Node) -> R,
    ) -> Result<R, PageError> {
        debug_assert!(id < self.len, "node id {id} out of range {}", self.len);
        let block = id / BLOCK_NODES;
        self.ensure_resident(block)?;
        match &mut self.slots[block] {
            Slot::Resident(frame) => Ok(f(&mut frame.nodes[id % BLOCK_NODES])),
            Slot::OnDisk => unreachable!("ensure_resident loaded the block"),
        }
    }

    /// Appends a node slot, growing the tail block (or starting a new
    /// one), and returns its id.
    ///
    /// # Errors
    ///
    /// Fault-in failures when the tail block is cold.
    pub fn push_entry(&mut self, n: BlockEntry) -> Result<u32, PageError> {
        let id = self.len;
        let block = id / BLOCK_NODES;
        if id.is_multiple_of(BLOCK_NODES) {
            // A fresh tail block is born resident (never read from disk,
            // so it counts as neither a fault nor a read).
            self.make_room();
            self.slots.push(Slot::Resident(Frame {
                nodes: Vec::with_capacity(BLOCK_NODES),
                pins: if block == 0 { 1 } else { 0 },
                referenced: true,
            }));
            self.resident += 1;
            self.note_resident();
        } else {
            self.ensure_resident(block)?;
        }
        match &mut self.slots[block] {
            Slot::Resident(frame) => frame.nodes.push(n),
            Slot::OnDisk => unreachable!("tail block is resident"),
        }
        self.len += 1;
        Ok(id as u32)
    }

    /// Walks node slots `from..len`, faulting blocks in sequentially and
    /// handing each slot to `f` mutably — the bulk-scan path used by GC
    /// and unique-table rehashing.
    pub(crate) fn scan_nodes(
        &mut self,
        from: usize,
        f: &mut dyn FnMut(usize, &mut Node),
    ) -> Result<(), PageError> {
        let mut id = from;
        while id < self.len {
            let block = id / BLOCK_NODES;
            self.ensure_resident(block)?;
            let end = ((block + 1) * BLOCK_NODES).min(self.len);
            match &mut self.slots[block] {
                Slot::Resident(frame) => {
                    for i in id..end {
                        f(i, &mut frame.nodes[i - block * BLOCK_NODES]);
                    }
                }
                Slot::OnDisk => unreachable!("ensure_resident loaded the block"),
            }
            id = end;
        }
        Ok(())
    }

    fn note_resident(&mut self) {
        self.stats.max_resident = self.stats.max_resident.max(self.resident as u64);
    }

    fn ensure_resident(&mut self, block: usize) -> Result<(), PageError> {
        if let Slot::Resident(f) = &mut self.slots[block] {
            f.referenced = true;
            return Ok(());
        }
        self.make_room();
        let offset = block as u64 * BLOCK_BYTES as u64;
        let io_err = |op: &'static str, path: &Path| {
            let path = path.to_path_buf();
            move |source: io::Error| PageError::Io {
                op,
                block: block as u32,
                path,
                source,
            }
        };
        self.file
            .seek(SeekFrom::Start(offset))
            .map_err(io_err("seek", &self.path))?;
        let mut buf = vec![0u8; BLOCK_BYTES];
        self.file
            .read_exact(&mut buf)
            .map_err(io_err("read", &self.path))?;
        let entries = decode_block(block as u32, &buf).map_err(|kind| PageError::Corrupt {
            block: block as u32,
            path: self.path.clone(),
            kind,
        })?;
        let expected = ((block + 1) * BLOCK_NODES).min(self.len) - block * BLOCK_NODES;
        if entries.len() != expected {
            return Err(PageError::Corrupt {
                block: block as u32,
                path: self.path.clone(),
                kind: BlockError::BadLength((entries.len() * ENTRY_BYTES) as u32),
            });
        }
        self.stats.page_faults += 1;
        self.stats.page_reads += 1;
        self.slots[block] = Slot::Resident(Frame {
            nodes: entries,
            pins: 0,
            referenced: true,
        });
        self.resident += 1;
        self.note_resident();
        Ok(())
    }

    /// Evicts until the resident count is below the budget. Eviction
    /// write failures park a sticky error and leave the victim resident
    /// (over budget) so the access that triggered paging still succeeds.
    fn make_room(&mut self) {
        if self.budget == 0 {
            return;
        }
        while self.resident >= self.budget {
            match self.evict_one() {
                Ok(true) => {}
                // Everything pinned: allow the pool over budget.
                Ok(false) => break,
                Err(e) => {
                    self.sticky.get_or_insert(e);
                    break;
                }
            }
        }
    }

    /// One clock (second-chance) sweep step: skip pinned frames, clear
    /// the reference bit on referenced frames, evict the first
    /// unreferenced unpinned frame. Two full revolutions without a
    /// victim means everything is pinned.
    fn evict_one(&mut self) -> Result<bool, PageError> {
        let n = self.slots.len();
        if n == 0 {
            return Ok(false);
        }
        let mut scanned = 0;
        while scanned < 2 * n {
            let i = self.hand;
            self.hand = (self.hand + 1) % n;
            scanned += 1;
            let victim = match &mut self.slots[i] {
                Slot::Resident(f) if f.pins == 0 => {
                    if f.referenced {
                        f.referenced = false;
                        false
                    } else {
                        true
                    }
                }
                _ => false,
            };
            if victim {
                self.write_block(i)?;
                self.slots[i] = Slot::OnDisk;
                self.resident -= 1;
                self.stats.evictions += 1;
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn write_block(&mut self, block: usize) -> Result<(), PageError> {
        let bytes = match &self.slots[block] {
            Slot::Resident(f) => encode_block(block as u32, &f.nodes),
            Slot::OnDisk => unreachable!("only resident frames are written"),
        };
        let offset = block as u64 * BLOCK_BYTES as u64;
        self.stats.page_writes += 1;
        let io_err = |op: &'static str, path: &Path| {
            let path = path.to_path_buf();
            move |source: io::Error| PageError::Io {
                op,
                block: block as u32,
                path,
                source,
            }
        };
        self.file
            .seek(SeekFrom::Start(offset))
            .map_err(io_err("seek", &self.path))?;
        if let Some((at, after_bytes)) = self.faults.kill_write {
            if self.stats.page_writes == at {
                // Tear the page: land a prefix, then die.
                let torn = (after_bytes as usize).min(bytes.len());
                let _ = self.file.write_all(&bytes[..torn]);
                return Err(PageError::Killed {
                    at: "page-write",
                    block: block as u32,
                });
            }
        }
        self.file
            .write_all(&bytes)
            .map_err(io_err("write", &self.path))?;
        Ok(())
    }
}

impl Drop for Pager {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
        if let Some(dir) = &self.owned_dir {
            let _ = fs::remove_dir_all(dir);
        }
    }
}
