//! On-disk block format for the node pager.
//!
//! A block holds up to [`BLOCK_NODES`] arena slots in a fixed-size disk
//! frame, so block `b` always lives at byte offset `b * BLOCK_BYTES` of
//! the page file. The per-node payload is the `jedd-store` snapshot
//! triple (`level`/`low`/`high`, see `jedd_store::snapshot`) extended
//! with the in-arena bookkeeping words the snapshot format strips —
//! `bot` (chain interval), `next` (unique-table chain) and `refs`
//! (external count plus GC mark bit) — so unique-table chains and
//! collection marks survive eviction mid-operation and a paged arena
//! remains an incremental snapshot of itself. The header frames the
//! payload with the same CRC32 the snapshot and log formats use, so a
//! torn page write is a typed decode error, never a silently wrong node.
//!
//! Layout (all little-endian `u32`):
//!
//! ```text
//! magic "JPGB" | version | block index | payload length | crc32(payload)
//! payload: one 24-byte entry per slot (6 words, see above)
//! ```

use crate::crc32::crc32;
use std::fmt;

/// Arena slots per block. Block `b` holds node ids
/// `b * BLOCK_NODES .. (b + 1) * BLOCK_NODES`.
pub const BLOCK_NODES: usize = 256;

/// Encoded bytes per node entry (six little-endian `u32` words).
pub const ENTRY_BYTES: usize = 24;

/// Header bytes: magic, version, block index, payload length, CRC32.
pub const HEADER_BYTES: usize = 20;

/// Fixed on-disk frame size of one block.
pub const BLOCK_BYTES: usize = HEADER_BYTES + BLOCK_NODES * ENTRY_BYTES;

const MAGIC: u32 = u32::from_le_bytes(*b"JPGB");
const VERSION: u32 = 1;

/// One node slot, in the kernel's own layout: the snapshot triple plus
/// bookkeeping words, with the GC mark in the top bit of the refs word.
/// Encoding writes the six words as they are, so the on-disk entry and
/// the in-memory node are one format.
pub use crate::node::Node as BlockEntry;

/// Why a block failed to decode. Every corruption class is a distinct
/// typed case so the pager (and through it `jedd-store`) can report what
/// went wrong without guessing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockError {
    /// The magic word is not `JPGB`.
    BadMagic,
    /// The version word names a format this build does not read.
    BadVersion(u32),
    /// The block carries another block's index (a misdirected write).
    WrongBlock {
        /// The index the reader asked for.
        expected: u32,
        /// The index stored in the header.
        found: u32,
    },
    /// The payload-length word is impossible (not a whole number of
    /// entries, or more entries than a block holds).
    BadLength(u32),
    /// The payload checksum does not match the header.
    ChecksumMismatch,
    /// Fewer bytes than the header (or its payload length) promises.
    Truncated {
        /// Bytes the frame needs.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
}

impl fmt::Display for BlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockError::BadMagic => write!(f, "bad block magic"),
            BlockError::BadVersion(v) => write!(f, "unsupported block version {v}"),
            BlockError::WrongBlock { expected, found } => {
                write!(f, "block index mismatch: expected {expected}, found {found}")
            }
            BlockError::BadLength(n) => write!(f, "impossible payload length {n}"),
            BlockError::ChecksumMismatch => write!(f, "block checksum mismatch"),
            BlockError::Truncated { expected, actual } => {
                write!(f, "truncated block: need {expected} bytes, have {actual}")
            }
        }
    }
}

impl std::error::Error for BlockError {}

/// A stable short tag for a [`BlockError`], used by the kernel's `Copy`
/// error type.
pub fn block_error_kind(e: &BlockError) -> &'static str {
    match e {
        BlockError::BadMagic => "bad-magic",
        BlockError::BadVersion(_) => "bad-version",
        BlockError::WrongBlock { .. } => "wrong-block",
        BlockError::BadLength(_) => "bad-length",
        BlockError::ChecksumMismatch => "checksum",
        BlockError::Truncated { .. } => "truncated",
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

/// Encodes `entries` as block `index`, padded to the fixed
/// [`BLOCK_BYTES`] frame so every block occupies one file slot.
///
/// # Panics
///
/// Panics if `entries` holds more than [`BLOCK_NODES`] slots.
pub fn encode_block(index: u32, entries: &[BlockEntry]) -> Vec<u8> {
    assert!(entries.len() <= BLOCK_NODES, "block overflow");
    let mut payload = Vec::with_capacity(entries.len() * ENTRY_BYTES);
    for e in entries {
        put_u32(&mut payload, e.level);
        put_u32(&mut payload, e.bot);
        put_u32(&mut payload, e.low);
        put_u32(&mut payload, e.high);
        put_u32(&mut payload, e.next);
        put_u32(&mut payload, e.refs);
    }
    let mut out = Vec::with_capacity(BLOCK_BYTES);
    put_u32(&mut out, MAGIC);
    put_u32(&mut out, VERSION);
    put_u32(&mut out, index);
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    out.resize(BLOCK_BYTES, 0);
    out
}

/// Decodes the block frame read back for `index`, returning its entries.
///
/// # Errors
///
/// A typed [`BlockError`] for every corruption class: wrong magic or
/// version, a misdirected block index, an impossible length, a checksum
/// mismatch, or a truncated frame.
pub fn decode_block(index: u32, bytes: &[u8]) -> Result<Vec<BlockEntry>, BlockError> {
    if bytes.len() < HEADER_BYTES {
        return Err(BlockError::Truncated {
            expected: HEADER_BYTES,
            actual: bytes.len(),
        });
    }
    if get_u32(bytes, 0) != MAGIC {
        return Err(BlockError::BadMagic);
    }
    let version = get_u32(bytes, 4);
    if version != VERSION {
        return Err(BlockError::BadVersion(version));
    }
    let found = get_u32(bytes, 8);
    if found != index {
        return Err(BlockError::WrongBlock {
            expected: index,
            found,
        });
    }
    let len = get_u32(bytes, 12);
    if !(len as usize).is_multiple_of(ENTRY_BYTES) || len as usize > BLOCK_NODES * ENTRY_BYTES {
        return Err(BlockError::BadLength(len));
    }
    let want = HEADER_BYTES + len as usize;
    if bytes.len() < want {
        return Err(BlockError::Truncated {
            expected: want,
            actual: bytes.len(),
        });
    }
    let payload = &bytes[HEADER_BYTES..want];
    if crc32(payload) != get_u32(bytes, 16) {
        return Err(BlockError::ChecksumMismatch);
    }
    let mut entries = Vec::with_capacity(payload.len() / ENTRY_BYTES);
    for chunk in payload.chunks_exact(ENTRY_BYTES) {
        entries.push(BlockEntry {
            level: get_u32(chunk, 0),
            bot: get_u32(chunk, 4),
            low: get_u32(chunk, 8),
            high: get_u32(chunk, 12),
            next: get_u32(chunk, 16),
            refs: get_u32(chunk, 20),
        });
    }
    Ok(entries)
}
