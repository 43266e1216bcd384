//! Atomic dual-slot superblock commit (DESIGN.md §13).
//!
//! The container's root pointer lives in **two** 64-byte slots at device
//! offsets 0 and 64. Each slot is self-describing: magic, a generation
//! number, the metadata-extent pointer (address/length/FNV), the
//! allocation watermark, the root object id, and an FNV-1a self-checksum
//! over everything before it. A commit writes exactly **one** slot — the
//! one the *next* generation maps to — so no single torn or interrupted
//! superblock write can destroy the last durable root: [`read_latest`]
//! validates both slots independently and resumes from the highest valid
//! generation.
//!
//! The commit protocol (driven by `Container::flush`):
//!
//! 1. append the metadata extent and `sync` — the new root's payload is
//!    durable before any pointer to it exists;
//! 2. write slot `generation % 2` (the very first commit seeds both
//!    slots so a later torn commit always has a valid fallback);
//! 3. `sync` again — the root switch itself is now durable.
//!
//! A crash between any two steps leaves at least one valid slot naming a
//! fully durable metadata extent. The `xtask` `superblock-discipline`
//! lint denies raw offset-0 writes anywhere else in `h5lite`, so this
//! module stays the only code path that can touch the slots.

use std::sync::Arc;

use crate::codec::{Reader, Writer};
use crate::error::{H5Error, Result};
use crate::storage::StorageBackend;

/// Bytes per superblock slot.
pub const SLOT_LEN: u64 = 64;
/// Total reserved superblock area (two slots); extents start here.
pub const SUPERBLOCK_AREA: u64 = 2 * SLOT_LEN;

/// Format magic: version 2 is the dual-slot layout.
const MAGIC: &[u8; 8] = b"H5LITE\x00\x02";
/// Bytes covered by the slot self-checksum (magic + six u64 fields).
const CHECKSUMMED_LEN: usize = 56;

/// FNV-1a offset basis: the seed of a fresh hash.
pub const FNV_BASIS: u64 = 0xcbf29ce484222325;

/// FNV-1a over `bytes`, continued from `h` ([`FNV_BASIS`] to start) —
/// the one checksum the container format uses (slots, the metadata
/// extent, per-extent data checksums) and the staging WAL frames with.
/// Seedable so a checksum over header + payload needs no concatenation.
pub fn fnv1a64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// One decoded superblock slot: the durable root of a container.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Superblock {
    /// Monotonic commit counter; the highest valid slot wins at open.
    pub generation: u64,
    /// Address of the current metadata extent.
    pub meta_addr: u64,
    /// Length of the current metadata extent.
    pub meta_len: u64,
    /// FNV-1a over the metadata extent.
    pub meta_fnv: u64,
    /// Allocation watermark at commit time.
    pub eof: u64,
    /// Root object id (always `ROOT_ID`; validated by the opener).
    pub root_id: u64,
}

/// Encode one 64-byte slot image: magic, fields, self-checksum.
pub(crate) fn encode_slot(sb: &Superblock) -> Vec<u8> {
    let mut out = Vec::with_capacity(SLOT_LEN as usize);
    out.extend_from_slice(MAGIC);
    let mut w = Writer::new();
    w.u64(sb.generation);
    w.u64(sb.meta_addr);
    w.u64(sb.meta_len);
    w.u64(sb.meta_fnv);
    w.u64(sb.eof);
    w.u64(sb.root_id);
    out.extend_from_slice(&w.into_bytes());
    debug_assert_eq!(out.len(), CHECKSUMMED_LEN);
    let sum = fnv1a64(FNV_BASIS, &out);
    out.extend_from_slice(&sum.to_le_bytes());
    debug_assert_eq!(out.len() as u64, SLOT_LEN);
    out
}

/// Decode and validate one slot image (magic + self-checksum + fields).
pub(crate) fn decode_slot(buf: &[u8]) -> Result<Superblock> {
    if buf.len() < SLOT_LEN as usize {
        return Err(H5Error::Corrupt("superblock slot too short".into()));
    }
    if &buf[..MAGIC.len()] != MAGIC {
        return Err(H5Error::Corrupt("bad superblock magic".into()));
    }
    let stored = u64::from_le_bytes(
        buf[CHECKSUMMED_LEN..SLOT_LEN as usize]
            .try_into()
            .map_err(|_| H5Error::Corrupt("superblock slot too short".into()))?,
    );
    if fnv1a64(FNV_BASIS, &buf[..CHECKSUMMED_LEN]) != stored {
        return Err(H5Error::Corrupt("superblock slot checksum mismatch".into()));
    }
    let mut r = Reader::new(&buf[MAGIC.len()..CHECKSUMMED_LEN]);
    Ok(Superblock {
        generation: r.u64()?,
        meta_addr: r.u64()?,
        meta_len: r.u64()?,
        meta_fnv: r.u64()?,
        eof: r.u64()?,
        root_id: r.u64()?,
    })
}

/// Device offset of slot `index` (0 or 1).
fn slot_offset(index: u64) -> Result<u64> {
    index.checked_mul(SLOT_LEN).ok_or_else(|| {
        H5Error::Storage("superblock slot offset overflows the device address space".into())
    })
}

/// Read both slots and return the highest-generation valid one, plus the
/// number of invalid slots seen on the way (0 in the healthy steady
/// state, where the two slots hold consecutive generations). A non-zero
/// count on a successful open means the container survived a torn or
/// corrupted commit by falling back to the other slot.
pub(crate) fn read_latest(backend: &Arc<dyn StorageBackend>) -> Result<(Superblock, u64)> {
    let mut best: Option<Superblock> = None;
    let mut invalid = 0u64;
    for index in 0..2u64 {
        let mut buf = [0u8; SLOT_LEN as usize];
        if backend.read_at(slot_offset(index)?, &mut buf).is_err() {
            invalid = invalid.saturating_add(1);
            continue;
        }
        match decode_slot(&buf) {
            Err(_) => invalid = invalid.saturating_add(1),
            Ok(sb) => match &best {
                Some(b) if b.generation >= sb.generation => {}
                _ => best = Some(sb),
            },
        }
    }
    match best {
        Some(sb) => Ok((sb, invalid)),
        None => Err(H5Error::Corrupt(
            "no valid superblock slot (not an h5lite container, or a torn create)".into(),
        )),
    }
}

/// Commit `sb` by writing the slot its generation maps to. The first
/// commit (generation 1) seeds both slots with the same image so every
/// later commit has a valid fallback to tear away from. The caller
/// syncs the metadata extent before calling and syncs again after.
pub(crate) fn commit(backend: &Arc<dyn StorageBackend>, sb: &Superblock) -> Result<()> {
    let bytes = encode_slot(sb);
    let target = sb.generation % 2;
    if sb.generation == 1 {
        let other = 1u64.saturating_sub(target);
        backend.write_at(slot_offset(other)?, &bytes)?;
    }
    backend.write_at(slot_offset(target)?, &bytes)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemBackend;

    fn sb(generation: u64) -> Superblock {
        Superblock {
            generation,
            meta_addr: 128 + generation * 10,
            meta_len: 33,
            meta_fnv: 0xFEED,
            eof: 4096,
            root_id: 1,
        }
    }

    #[test]
    fn slot_roundtrip() {
        let orig = sb(7);
        let bytes = encode_slot(&orig);
        assert_eq!(bytes.len() as u64, SLOT_LEN);
        assert_eq!(decode_slot(&bytes).unwrap(), orig);
    }

    #[test]
    fn any_flipped_slot_byte_is_detected() {
        let bytes = encode_slot(&sb(3));
        for i in 0..bytes.len() {
            let mut torn = bytes.clone();
            torn[i] ^= 0x40;
            assert!(
                decode_slot(&torn).is_err(),
                "flip at byte {i} must invalidate the slot"
            );
        }
    }

    #[test]
    fn open_picks_highest_valid_generation() {
        let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        commit(&backend, &sb(1)).unwrap();
        commit(&backend, &sb(2)).unwrap();
        let (latest, invalid) = read_latest(&backend).unwrap();
        assert_eq!(latest.generation, 2);
        assert_eq!(invalid, 0, "both slots valid in the steady state");
    }

    #[test]
    fn torn_commit_falls_back_to_the_other_slot() {
        let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        commit(&backend, &sb(1)).unwrap();
        commit(&backend, &sb(2)).unwrap();
        // Tear the generation-2 slot (index 0) mid-write: scribble over
        // its second half. Open must fall back to generation 1.
        backend.write_at(SLOT_LEN / 2, &[0xAB; 32]).unwrap();
        let (latest, invalid) = read_latest(&backend).unwrap();
        assert_eq!(latest.generation, 1, "fallback to the surviving slot");
        assert_eq!(invalid, 1, "the torn slot is reported");
    }

    #[test]
    fn first_commit_seeds_both_slots() {
        let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        commit(&backend, &sb(1)).unwrap();
        // Destroy either slot: the other still opens.
        for torn_slot in 0..2u64 {
            let b2: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
            commit(&b2, &sb(1)).unwrap();
            b2.write_at(torn_slot * SLOT_LEN, &[0u8; SLOT_LEN as usize])
                .unwrap();
            let (latest, invalid) = read_latest(&b2).unwrap();
            assert_eq!(latest.generation, 1);
            assert_eq!(invalid, 1);
        }
    }

    #[test]
    fn garbage_everywhere_is_corrupt() {
        let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        backend.write_at(0, &[0x5A; SUPERBLOCK_AREA as usize]).unwrap();
        assert!(matches!(
            read_latest(&backend).unwrap_err(),
            H5Error::Corrupt(_)
        ));
        let empty: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        assert!(read_latest(&empty).is_err());
    }
}
