//! Filesystem-agnostic transaction layer: a physical redo log plus group
//! commit over the buffer cache's dependency / commit-group / pinning
//! machinery.
//!
//! PR 3 gave FAT32 a private on-volume intent log and PR 5 gave it group
//! commit; this module hoists both into a VFS-level service so any
//! filesystem with a spare run of sectors can journal its multi-sector
//! metadata updates. FAT32 and xv6fs are the two clients today; adding
//! filesystem N+1 costs a [`TxnLog`] value and a replay call at mount.
//!
//! # API
//!
//! A [`TxnLog`] is a tiny `Copy` value describing the log geometry (where
//! the reserved sector run lives, how many sectors it spans, how many
//! sectors past the end of the volume are addressable at all) plus two
//! policy knobs (enabled, group size). The protocol is:
//!
//! * [`TxnLog::with_txn`] — run a closure as one logged transaction. It
//!   opens the cache's metadata recorder ([`BufCache::begin_meta_txn`]),
//!   runs the closure, commits the touched sectors through the log on
//!   success and always closes the recorder. Every logged operation goes
//!   through here so no path can forget half of the begin / commit / end
//!   protocol.
//! * [`TxnLog::log_sector`] — classify sectors as logged metadata from
//!   inside a transaction (a thin alias for [`BufCache::note_metadata`],
//!   which both records the sectors in the open transaction and pins them
//!   against eviction).
//! * [`TxnLog::note_order`] — record a write-order edge (metadata after the
//!   data or metadata it references) for the *fallback* drain paths. Inside
//!   a transaction edges may be deliberately cyclic — the cache invariant is
//!   that a dependency cycle exists only among sectors pinned by the open
//!   transaction or commit group, and [`TxnLog::commit_pending`] clears the
//!   edges at the commit point, before releasing the pins.
//! * [`TxnLog::commit_pending`] — force the open commit group's single
//!   checksummed record to the device. Barriers (fsync, sync, unmount, the
//!   flusher's group-timeout pass) call this before their cache flush.
//! * [`TxnLog::replay`] — at mount, redo a committed record left by a power
//!   cut, or ignore a torn / stale one.
//!
//! # Crash-ordering guarantees
//!
//! The commit sequence for a group is: ready-only cache drain (everything a
//! logged sector could reference — data blocks, interleaved non-logged metadata
//! — becomes durable first), payload capture from the cache, the record as one
//! ordered write (the payload run, then the single-sector checksummed header:
//! one DMA chain on the SD card, persisted in that order), **device FLUSH (the
//! commit point)**, dependency-edge release, pin release, home-sector drain,
//! header clear (a write followed by a FLUSH, so it cannot linger in a posted
//! write cache). A power cut before the commit point leaves the old tree: the
//! logged sectors were cache-only, pinned, and any allocation units they freed
//! were reserved against reuse ([`BufCache::note_pending_free`]). A cut after the
//! commit point is repaired by replay, which is idempotent (payloads are final
//! contents) and validated (magic, count, target bounds, FNV-1a over header and
//! payloads), so a torn commit record is indistinguishable from no record. With
//! a posted write cache underneath ([`crate::MemDisk::set_posted_writes`])
//! these guarantees hold *because* of the explicit FLUSH barriers — see the
//! barrier-elision test in the crash suite for the counterexample.
//!
//! # Degraded mode
//!
//! The layer sits on the buffer cache's bounded write-retry budget: a block
//! whose async writeback keeps failing is retried (with backoff) at most
//! [`BufCache::write_retry_budget`] times and then the cache latches
//! read-only degraded mode — writes (and therefore transactions) fail with
//! [`FsError::Io`], reads keep working, and dirty data is kept cached
//! rather than dropped. A commit that fails *before* its commit point
//! leaves the group pending, so a later barrier retries it; the log is
//! never half-written because the header is a single sector.

use crate::block::{BlockDevice, BLOCK_SIZE};
use crate::bufcache::BufCache;
use crate::FsResult;

/// Magic bytes opening a committed log-record header (public so crash
/// tests can forge torn or stale records).
pub const TXN_MAGIC: &[u8; 8] = b"PROTOLOG";

/// FNV-1a offset basis.
const FNV_OFFSET: u32 = 0x811C_9DC5;

/// FNV-1a over `data`, continuing from `h` (seed with [`FNV_OFFSET`]).
fn fnv1a(data: &[u8], mut h: u32) -> u32 {
    for &b in data {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// A filesystem's handle on the shared transaction layer: log geometry plus
/// the enabled / group-commit policy knobs. `Copy` on purpose — filesystem
/// values are cloned per kernel call, and all mutable transaction state
/// (open-transaction recorder, commit group, pins, pending frees) lives in
/// the [`BufCache`] they share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnLog {
    /// First sector of the reserved on-volume log area.
    log_start: u64,
    /// Sectors in the log area: one header plus up to `log_sectors - 1`
    /// payload sectors.
    log_sectors: u64,
    /// Total addressable sectors; replay rejects records naming targets at
    /// or past this bound (or inside `[0, log_start + log_sectors)` — the
    /// boot/superblock region and the log itself).
    total_sectors: u64,
    /// Whether transactions commit through the log. When off,
    /// [`TxnLog::commit`] degrades to a plain synchronous flush (the
    /// crash-consistency ablation switch); replay still runs at mount so a
    /// committed record from an earlier life is never ignored.
    enabled: bool,
    /// How many logged transactions one commit record may cover (group
    /// commit, clamped to at least 1). Callers raising this above 1 own the
    /// durability consequences and must force [`TxnLog::commit_pending`] at
    /// their barriers.
    group_ops: u32,
}

impl TxnLog {
    /// A log over `[log_start, log_start + log_sectors)` on a volume of
    /// `total_sectors`, enabled, with group commit off (size 1).
    pub fn new(log_start: u64, log_sectors: u64, total_sectors: u64) -> TxnLog {
        TxnLog {
            log_start,
            log_sectors,
            total_sectors,
            enabled: true,
            group_ops: 1,
        }
    }

    /// First sector of the log area.
    pub fn log_start(&self) -> u64 {
        self.log_start
    }

    /// Sectors in the log area (header + payload capacity).
    pub fn log_sectors(&self) -> u64 {
        self.log_sectors
    }

    /// Maximum metadata sectors one logged transaction (or one open group)
    /// can carry.
    pub fn payload_capacity(&self) -> usize {
        self.log_sectors.saturating_sub(1) as usize
    }

    /// Enables or disables logged commits (see [`TxnLog::enabled`]).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether transactions commit through the log.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the group-commit size (clamped to at least 1).
    pub fn set_group_ops(&mut self, ops: u32) {
        self.group_ops = ops.max(1);
    }

    /// The configured group-commit size.
    pub fn group_ops(&self) -> u32 {
        self.group_ops
    }

    // ---- the transaction protocol -------------------------------------------------------------

    /// Runs `f` as one logged transaction: opens the cache's metadata
    /// recorder, commits the touched sectors through the log on success,
    /// and always closes the recorder (releasing its eviction pins).
    ///
    /// Nested calls join the enclosing transaction: if a recorder is
    /// already open, `f` simply runs inside it and the outermost `with_txn`
    /// commits everything — so a compound operation (xv6fs's
    /// truncate-then-write overwrite) is one atomic unit, not a sequence of
    /// individually atomic steps with a torn window between them.
    pub fn with_txn<R>(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        f: impl FnOnce(&mut dyn BlockDevice, &mut BufCache) -> FsResult<R>,
    ) -> FsResult<R> {
        if bc.meta_txn_active() {
            return f(dev, bc);
        }
        bc.begin_meta_txn();
        let result = f(dev, bc);
        let touched = bc.meta_txn_touched();
        let result = match result {
            Ok(v) => self.commit(dev, bc, &touched).map(|()| v),
            Err(e) => Err(e),
        };
        bc.end_meta_txn();
        result
    }

    /// Classifies `count` sectors starting at `lba` as logged metadata:
    /// records them in the open transaction (so they land in its commit
    /// record) and pins them against eviction. An alias for
    /// [`BufCache::note_metadata`] under the transaction layer's name.
    pub fn log_sector(bc: &mut BufCache, lba: u64, count: u64) {
        bc.note_metadata(lba, count);
    }

    /// Records a write-order dependency for the fallback (non-logged) drain
    /// paths: the metadata run `[meta_lba, meta_lba + meta_count)` must not
    /// reach the device while any sector of `[dep_lba, dep_lba + dep_count)`
    /// is still dirty. Edges among sectors of an open transaction may be
    /// cyclic; [`TxnLog::commit_pending`] clears them at the commit point.
    pub fn note_order(
        bc: &mut BufCache,
        meta_lba: u64,
        meta_count: u64,
        dep_lba: u64,
        dep_count: u64,
    ) {
        bc.add_dependency(meta_lba, meta_count, dep_lba, dep_count);
    }

    /// Folds one just-finished logged transaction into the open commit
    /// group, committing when the group reaches [`TxnLog::group_ops`]
    /// transactions or would overflow the log area. With the default group
    /// size of 1 every logged operation is atomic *and durable* on return;
    /// with a larger group the transaction is atomic at every cut (its
    /// sectors stay cached, held back by their deliberately cyclic ordering
    /// edges and pinned against eviction) but becomes durable only at the
    /// group's single commit flush. Payloads are captured at commit time,
    /// so a later non-logged write to a shared sector is never rolled back
    /// by replay.
    ///
    /// Falls back to a plain synchronous flush when the log is disabled or
    /// the transaction outgrows the log area — committing any pending group
    /// first so its record cannot be reordered behind the fallback. The
    /// fallback loses torn-update atomicity.
    pub fn commit(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        touched: &[u64],
    ) -> FsResult<()> {
        if !self.enabled || touched.is_empty() {
            return bc.flush(dev);
        }
        if touched.len() > self.payload_capacity() {
            self.commit_pending(dev, bc)?;
            return bc.flush(dev);
        }
        // Close the group first if this transaction would overflow the log
        // area. `commit_pending` drains only what the ordered contract
        // already allows, so this transaction's own (cyclic, not-yet-logged)
        // sectors stay cached and keep their atomicity.
        let fresh = touched.iter().filter(|l| !bc.group_contains(**l)).count();
        if bc.group_sectors().saturating_add(fresh) > self.payload_capacity() {
            self.commit_pending(dev, bc)?;
        }
        for &lba in touched {
            bc.group_append(lba);
        }
        bc.group_note_txn();
        if bc.group_txns() >= self.group_ops as u64 {
            self.commit_pending(dev, bc)?;
        }
        Ok(())
    }

    /// Writes the open commit group's single checksummed record and drains it
    /// home: ready drain → payload capture → the record as one ordered write
    /// (payload run, then the single-sector header) → device FLUSH (the
    /// commit point) → dependency release → pin release → home drain →
    /// header clear (a write, then FLUSH). Both record writes go through
    /// [`BufCache::write_through`]: one scatter-gather chain each on a queued
    /// device, polled commands otherwise.
    /// Payloads are captured at *commit* time, so the record reflects any
    /// non-logged write that shared a sector with the group — replay can never
    /// roll one back — and the pre-commit [`BufCache::flush_ready`] makes every
    /// non-group sector such content might reference durable before a record
    /// points at it. Both drains refuse to force dependency cycles, so a
    /// transaction still open for the *next* group (the log-overflow path)
    /// keeps its sectors cached and atomic. A failure before the commit point
    /// leaves the group pending, so the next barrier retries it; past the
    /// commit point the record repairs any torn home write at replay. A no-op
    /// when no group is open.
    pub fn commit_pending(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache) -> FsResult<()> {
        if bc.group_sectors() == 0 {
            return Ok(());
        }
        let targets = bc.group_entries();
        // Everything the group's commit-time payloads could reference —
        // data blocks, and metadata sectors dirtied by interleaved
        // non-logged writers — must be durable before the record.
        bc.flush_ready(dev)?;
        // Capture the final contents now: all sectors are cached (pinned
        // since their transactions logged them), so these reads are hits.
        let mut payloads = Vec::with_capacity(targets.len());
        for &lba in &targets {
            let mut p = vec![0u8; BLOCK_SIZE];
            bc.read(dev, lba, &mut p)?;
            payloads.push(p);
        }
        // The record is one ordered write: the payload run, then the header
        // (one chain on a queued device, persisted in run order). A cut
        // anywhere in it leaves payloads without a header, which replay
        // ignores like any torn record.
        let mut record = payloads.concat();
        record.extend_from_slice(&Self::header(&targets, &payloads));
        bc.write_through(
            dev,
            &[
                (self.log_start + 1, payloads.len() as u64),
                (self.log_start, 1),
            ],
            &record,
        )?;
        dev.flush()?; // commit point

        // Past the commit point the record repairs any torn home write, so
        // the logged sectors' (deliberately cyclic) ordering edges can go —
        // otherwise the home drain would trip the forced-cycle escape hatch
        // for updates that are in fact fully protected. Drop the edges while
        // the group still pins their sectors, *then* release the pins: the
        // cache invariant is "a dependency cycle exists only among pinned
        // sectors", and the reverse order would leave an unpinned cycle in
        // the window between the calls.
        bc.clear_dependencies(&targets);
        bc.group_clear_committed();
        bc.flush_ready(dev)?; // home sectors (ordered, cycles never forced)

        // The cleared header must not linger in a posted write cache, or a
        // crash would replay a record whose home sectors have since been
        // rewritten by non-logged writers: write it, then FLUSH.
        bc.write_through(dev, &[(self.log_start, 1)], &[0u8; BLOCK_SIZE])?;
        dev.flush()
    }

    /// Replays a committed log record onto its home sectors, then clears
    /// the header. A record that fails validation (torn commit, stale
    /// garbage, targets outside `[log_start + log_sectors, total_sectors)`)
    /// is ignored: the pre-transaction tree is the consistent one.
    pub fn replay(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache) -> FsResult<()> {
        let mut hdr = vec![0u8; BLOCK_SIZE];
        dev.read_block(self.log_start, &mut hdr)?;
        if &hdr[0..8] != TXN_MAGIC {
            return Ok(());
        }
        let count = u32::from_le_bytes([hdr[8], hdr[9], hdr[10], hdr[11]]) as usize;
        if count == 0 || count > self.payload_capacity() {
            return Ok(());
        }
        let mut targets = Vec::with_capacity(count);
        for i in 0..count {
            let o = 16 + i * 8;
            let t = u64::from_le_bytes([
                hdr[o],
                hdr[o + 1],
                hdr[o + 2],
                hdr[o + 3],
                hdr[o + 4],
                hdr[o + 5],
                hdr[o + 6],
                hdr[o + 7],
            ]);
            // A record naming the boot/superblock region, the log itself,
            // or space beyond the volume is not one we wrote.
            if t < self.log_start + self.log_sectors || t >= self.total_sectors {
                return Ok(());
            }
            targets.push(t);
        }
        let mut run = vec![0u8; count * BLOCK_SIZE];
        dev.read_range(self.log_start + 1, count as u64, &mut run)?;
        let payloads: Vec<&[u8]> = run.chunks_exact(BLOCK_SIZE).collect();
        let mut sum = fnv1a(&hdr[8..12], FNV_OFFSET);
        sum = fnv1a(&hdr[16..16 + count * 8], sum);
        for p in &payloads {
            sum = fnv1a(p, sum);
        }
        if sum != u32::from_le_bytes([hdr[12], hdr[13], hdr[14], hdr[15]]) {
            return Ok(());
        }
        // Redo the home-sector writes (idempotent: the payloads are final
        // contents) through the cache so any cached copies stay coherent.
        for (t, p) in targets.iter().zip(payloads) {
            bc.write(dev, *t, p)?;
            bc.note_metadata(*t, 1);
        }
        bc.flush(dev)?;
        let zero = vec![0u8; BLOCK_SIZE];
        dev.write_block(self.log_start, &zero)?;
        dev.flush()
    }

    /// Builds the checksummed header sector for a committed record (public
    /// so crash tests can hand-craft valid and torn records).
    pub fn header(targets: &[u64], payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut hdr = vec![0u8; BLOCK_SIZE];
        hdr[0..8].copy_from_slice(TXN_MAGIC);
        hdr[8..12].copy_from_slice(&(targets.len() as u32).to_le_bytes());
        for (i, t) in targets.iter().enumerate() {
            let o = 16 + i * 8;
            hdr[o..o + 8].copy_from_slice(&t.to_le_bytes());
        }
        let mut sum = fnv1a(&hdr[8..12], FNV_OFFSET);
        sum = fnv1a(&hdr[16..16 + targets.len() * 8], sum);
        for p in payloads {
            sum = fnv1a(p, sum);
        }
        hdr[12..16].copy_from_slice(&sum.to_le_bytes());
        hdr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockIoStats, DmaRig, SdBlockDevice, SgCompletion, SgRun};
    use hal::sdhost::SdHost;

    /// Forwards to a DMA-mode SD device and records every write chain.
    struct ChainSpy<'a> {
        dev: SdBlockDevice<'a>,
        chains: Vec<Vec<SgRun>>,
    }

    impl BlockDevice for ChainSpy<'_> {
        fn num_blocks(&self) -> u64 {
            self.dev.num_blocks()
        }
        fn read_block(&mut self, lba: u64, out: &mut [u8]) -> FsResult<()> {
            self.dev.read_block(lba, out)
        }
        fn write_block(&mut self, lba: u64, data: &[u8]) -> FsResult<()> {
            self.dev.write_block(lba, data)
        }
        fn read_range(&mut self, lba: u64, count: u64, out: &mut [u8]) -> FsResult<()> {
            self.dev.read_range(lba, count, out)
        }
        fn write_range(&mut self, lba: u64, count: u64, data: &[u8]) -> FsResult<()> {
            self.dev.write_range(lba, count, data)
        }
        fn flush(&mut self) -> FsResult<()> {
            self.dev.flush()
        }
        fn stats(&self) -> BlockIoStats {
            self.dev.stats()
        }
        fn queue_depth(&self) -> usize {
            self.dev.queue_depth()
        }
        fn inflight(&self) -> usize {
            self.dev.inflight()
        }
        fn can_submit(&self) -> bool {
            self.dev.can_submit()
        }
        fn submit_read_sg(&mut self, runs: &[SgRun]) -> FsResult<u64> {
            self.dev.submit_read_sg(runs)
        }
        fn submit_write_sg(&mut self, runs: &[SgRun], data: &[u8]) -> FsResult<u64> {
            self.chains.push(runs.to_vec());
            self.dev.submit_write_sg(runs, data)
        }
        fn poll_completions(&mut self) -> Vec<SgCompletion> {
            self.dev.poll_completions()
        }
        fn wait_some(&mut self) -> FsResult<Vec<SgCompletion>> {
            self.dev.wait_some()
        }
    }

    #[test]
    fn on_a_queued_device_a_commit_is_two_chains_and_no_polled_command() {
        let mut rig = DmaRig::new(4096);
        let mut bc = BufCache::default();
        let mut log = TxnLog::new(1, 16, 4096);
        log.set_group_ops(8);
        let targets = [100u64, 205, 310];
        log.with_txn(&mut rig.dev(), &mut bc, |dev, bc| {
            for (i, &lba) in targets.iter().enumerate() {
                bc.write(dev, lba, &[i as u8 + 1; BLOCK_SIZE])?;
                TxnLog::log_sector(bc, lba, 1);
            }
            Ok(())
        })
        .unwrap();
        let polled = |sd: &SdHost| (sd.single_block_cmds(), sd.range_cmds());
        let before = polled(&rig.sd);
        let mut spy = ChainSpy {
            dev: rig.dev(),
            chains: Vec::new(),
        };
        log.commit_pending(&mut spy, &mut bc).unwrap();
        let chains = spy.chains;
        assert_eq!(polled(&rig.sd), before, "no polled command");
        // The home drain rides chains of its own; the log area sees exactly
        // the record (payload run first, then the header) and the clear.
        let log_end = log.log_start() + log.log_sectors();
        let log_chains: Vec<Vec<SgRun>> = chains
            .into_iter()
            .filter(|c| c.iter().any(|&(lba, _)| lba < log_end))
            .collect();
        assert_eq!(
            log_chains,
            vec![vec![(2, targets.len() as u64), (1, 1)], vec![(1, 1)]]
        );
        let mut run = vec![0u8; (targets.len() + 1) * BLOCK_SIZE];
        rig.sd
            .read_range(1, targets.len() as u64 + 1, &mut run)
            .unwrap();
        let (hdr, payloads) = run.split_at(BLOCK_SIZE);
        assert!(hdr.iter().all(|&b| b == 0), "header cleared");
        for (i, p) in payloads.chunks_exact(BLOCK_SIZE).enumerate() {
            assert!(
                p.iter().all(|&b| b == i as u8 + 1),
                "payload {i} in log order"
            );
        }
    }

    #[test]
    fn a_commit_record_sends_its_payloads_as_one_range_command() {
        let mut sd = SdHost::new(4096);
        sd.init().unwrap();
        let mut dev = SdBlockDevice::new(&mut sd, 0, 4096);
        let mut bc = BufCache::default();
        let mut log = TxnLog::new(1, 16, 4096);
        log.set_group_ops(8);
        // One transaction over three scattered sectors: the group stays
        // open until the explicit commit below.
        let targets = [100u64, 205, 310];
        log.with_txn(&mut dev, &mut bc, |dev, bc| {
            for (i, &lba) in targets.iter().enumerate() {
                bc.write(dev, lba, &[i as u8 + 1; BLOCK_SIZE])?;
                TxnLog::log_sector(bc, lba, 1);
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(bc.group_sectors(), targets.len());
        let (dev0, bc0) = (dev.stats(), bc.stats());
        log.commit_pending(&mut dev, &mut bc).unwrap();
        let (dev1, bc1) = (dev.stats(), bc.stats());
        // Subtract the cache's own home drain; what is left is the record.
        let range =
            (dev1.range_cmds - dev0.range_cmds) - (bc1.coalesced_ranges - bc0.coalesced_ranges);
        let single = (dev1.single_cmds - dev0.single_cmds) - (bc1.single_cmds - bc0.single_cmds);
        let blocks = (dev1.blocks - dev0.blocks) - (bc1.writebacks - bc0.writebacks);
        assert_eq!(
            (range, single, blocks),
            (1, 2, targets.len() as u64 + 2),
            "one multi-block payload write, then the header and its FUA clear"
        );
        let mut run = vec![0u8; targets.len() * BLOCK_SIZE];
        dev.read_range(2, targets.len() as u64, &mut run).unwrap();
        for (i, p) in run.chunks_exact(BLOCK_SIZE).enumerate() {
            assert!(
                p.iter().all(|&b| b == i as u8 + 1),
                "payload {i} in log order"
            );
        }
    }
}
