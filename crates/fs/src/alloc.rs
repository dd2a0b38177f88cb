//! The next-free allocation cursor shared by FAT32 and xv6fs.
//!
//! Both filesystems allocate first-fit: the lowest free cluster (FAT32) or
//! data block (xv6fs) that is not fenced as a pending free. Each probe of a
//! FAT entry or bitmap bit is one buffer-cache read, so a scan that starts
//! at the bottom of the volume on every allocation makes an n-block install
//! cost O(n × used blocks) lookups. Real FAT32 avoids the rescan with the
//! FSInfo "next free cluster" hint (FSI_Nxt_Free, FAT32 File System
//! Specification §5); [`NextFree`] is the same idea kept in memory only, so
//! the on-disk format is unchanged and no device write is added.
//!
//! **Invariant:** no free block lies below the cursor, and that includes
//! blocks the transaction layer still holds as pending frees. A scan that
//! starts at the cursor therefore meets the same first-fit block as a scan
//! from the bottom: the cursor changes how fast a block is found, never
//! which one. Three rules keep the invariant:
//!
//! * a scan from a start with no free block below it may move the cursor to
//!   the first free-or-pending block it meets;
//! * claiming the block a scan found steps the cursor past it;
//! * every free lowers the cursor to the freed block ([`NextFree::lower`]).
//!
//! A volume handle is cloned on every kernel call, so the cursor is shared
//! state behind an [`Arc`]: every clone of one mounted volume sees one
//! cursor, and `mkfs` / `mount` start a fresh one at the bottom.

use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use crate::block::BlockDevice;
use crate::bufcache::BufCache;
use crate::txn::TxnLog;
use crate::{FsError, FsResult};

/// What an allocation probe finds at one block.
pub(crate) enum Slot {
    /// Allocated.
    Used,
    /// Free and allocatable.
    Free,
    /// Free on disk but fenced until the free is durable.
    PendingFree,
}

/// The outcome of one first-fit scan.
enum Fit {
    /// The first allocatable block.
    Found(u32),
    /// Nothing allocatable, but pending frees were skipped: committing
    /// them would make room.
    OnlyPending,
    /// Every block in the range is in use.
    Full,
}

/// A mounted volume's next-free cursor (see the module docs). `Relaxed`
/// ordering suffices: the cursor publishes no data of its own, and every
/// access happens while the caller holds the volume's `&mut BufCache`, the
/// state the invariant speaks about.
#[derive(Debug, Clone)]
pub(crate) struct NextFree(Arc<AtomicU32>);

impl NextFree {
    /// A fresh cursor at `first`, the volume's lowest allocatable block.
    pub(crate) fn new(first: u32) -> Self {
        NextFree(Arc::new(AtomicU32::new(first)))
    }

    /// The cursor: no free block lies below it.
    pub(crate) fn get(&self) -> u32 {
        self.0.load(Ordering::Relaxed)
    }

    /// `block` became free: drop the cursor to it if it lies below.
    pub(crate) fn lower(&self, block: u32) {
        self.0.fetch_min(block, Ordering::Relaxed);
    }

    /// Allocates the first-fit block of `blocks` — the lowest one `probe`
    /// reports [`Slot::Free`] — by handing it to `claim`, and returns it.
    /// The scan starts at the cursor. If that finds nothing, the full scan
    /// from `blocks.start` runs, and if only pending frees stand in the
    /// way, `txn`'s open commit group is forced out to release them and the
    /// range is rescanned. So the cursor can make allocation faster but
    /// never causes a [`FsError::NoSpace`].
    pub(crate) fn alloc(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        txn: &TxnLog,
        blocks: Range<u32>,
        mut probe: impl FnMut(&mut dyn BlockDevice, &mut BufCache, u32) -> FsResult<Slot>,
        claim: impl FnOnce(&mut dyn BlockDevice, &mut BufCache, u32) -> FsResult<()>,
    ) -> FsResult<u32> {
        let Range { start, end } = blocks;
        let from = self.get().max(start);
        let mut fit = self.scan(from, end, |b| probe(dev, bc, b))?;
        if !matches!(fit, Fit::Found(_)) {
            fit = self.scan(start, end, |b| probe(dev, bc, b))?;
        }
        if matches!(fit, Fit::OnlyPending) {
            // The only free blocks await a durable free. Force the pending
            // group's commit record out (releasing its reservations) and
            // rescan — a delete-then-write on a nearly full volume must not
            // report NoSpace. Committing mid-transaction is safe: the
            // current transaction's sectors so far are plain allocation
            // records whose early drain can at worst leak an unpublished
            // block across a cut. Reservations with no group to commit them
            // — left behind by a transaction that failed before logging its
            // frees, or made with logging off — become durable, and are
            // cleared, by a full flush.
            txn.commit_pending(dev, bc)?;
            if bc.has_pending_frees() {
                bc.flush(dev)?;
            }
            fit = self.scan(start, end, |b| probe(dev, bc, b))?;
        }
        let Fit::Found(b) = fit else {
            return Err(FsError::NoSpace);
        };
        // A failed claim leaves the cursor at `b`, which is still free.
        claim(dev, bc, b)?;
        self.claimed(b);
        Ok(b)
    }

    /// Scans `from..end` for the first [`Slot::Free`] block. The caller
    /// guarantees that no free block lies below `from` (the cursor itself,
    /// or the bottom of the volume), so every block below the first
    /// free-or-pending block the scan meets is in use and the cursor may
    /// move there.
    fn scan(
        &self,
        from: u32,
        end: u32,
        mut probe: impl FnMut(u32) -> FsResult<Slot>,
    ) -> FsResult<Fit> {
        let mut first_pending = None;
        let mut found = None;
        for b in from..end {
            match probe(b)? {
                Slot::Used => {}
                Slot::PendingFree => {
                    first_pending.get_or_insert(b);
                }
                Slot::Free => {
                    found = Some(b);
                    break;
                }
            }
        }
        self.0
            .store(first_pending.or(found).unwrap_or(end), Ordering::Relaxed);
        Ok(match (found, first_pending) {
            (Some(b), _) => Fit::Found(b),
            (None, Some(_)) => Fit::OnlyPending,
            (None, None) => Fit::Full,
        })
    }

    /// The block a scan found is now allocated: step past it, unless the
    /// scan stopped the cursor lower (at a skipped pending free) or a free
    /// lowered it since.
    fn claimed(&self, block: u32) {
        if self.get() == block {
            self.0.store(block.saturating_add(1), Ordering::Relaxed);
        }
    }
}

/// A SplitMix64 generator for the filesystems' seeded random-op tests.
#[cfg(test)]
pub(crate) struct TestRng(u64);

#[cfg(test)]
impl TestRng {
    pub(crate) fn new(seed: u64) -> Self {
        TestRng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// A value in `0..n`.
    pub(crate) fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n.max(1) as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Probes a slot map: `u` used, `f` free, `p` pending free.
    fn probe(map: &str) -> impl FnMut(u32) -> FsResult<Slot> + '_ {
        move |b| {
            Ok(match map.as_bytes()[b as usize] {
                b'u' => Slot::Used,
                b'p' => Slot::PendingFree,
                _ => Slot::Free,
            })
        }
    }

    #[test]
    fn a_scan_parks_the_cursor_at_the_first_free_or_pending_block() {
        let cur = NextFree::new(0);
        assert!(matches!(cur.scan(0, 6, probe("uufuf_")), Ok(Fit::Found(2))));
        assert_eq!(cur.get(), 2);
        cur.claimed(2);
        assert_eq!(cur.get(), 3);
        // A skipped pending free holds the cursor back.
        let cur = NextFree::new(0);
        assert!(matches!(cur.scan(0, 5, probe("upuf_")), Ok(Fit::Found(3))));
        cur.claimed(3);
        assert_eq!(cur.get(), 1);
    }

    #[test]
    fn exhausted_scans_report_why() {
        let cur = NextFree::new(0);
        assert!(matches!(cur.scan(0, 3, probe("upu")), Ok(Fit::OnlyPending)));
        assert_eq!(cur.get(), 1);
        assert!(matches!(cur.scan(0, 3, probe("uuu")), Ok(Fit::Full)));
        assert_eq!(cur.get(), 3);
    }

    #[test]
    fn frees_lower_the_cursor_and_clones_share_it() {
        let cur = NextFree::new(10);
        let clone = cur.clone();
        clone.lower(4);
        assert_eq!(cur.get(), 4);
        cur.lower(7);
        assert_eq!(clone.get(), 4);
        // A free between scan and claim keeps the lower cursor.
        cur.claimed(5);
        assert_eq!(cur.get(), 4);
    }
}
