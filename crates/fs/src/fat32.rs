//! FAT32.
//!
//! Prototype 5 needs files far larger than xv6fs's 268 KB limit (DOOM's
//! assets, videos, high-resolution slides), faster-than-single-block loading,
//! and interoperability so users can drop media onto the SD card from any
//! commodity OS (§4.5). Proto ports ChaN's FatFS; this module implements the
//! equivalent functionality natively: a FAT32 volume with a BIOS parameter
//! block, a single FAT, 4 KB clusters and 8.3 directory entries.
//!
//! Two properties of the paper's port are preserved deliberately:
//!
//! * **Range I/O.** File data moves through the unified buffer cache's range
//!   API in whole cluster *runs*: the chain walker merges contiguous
//!   clusters (up to [`MAX_RUN_CLUSTERS`]) into single multi-cluster
//!   commands before they ever reach the cache, so a cold sequential read
//!   costs a fraction of the one-command-per-cluster budget the retired
//!   cache-*bypass* hack paid for §5.2 — while also keeping hot clusters
//!   cached, which the bypass never could. On top of that, `read_at`
//!   prefetches the next run of a detected sequential stream (see
//!   [`Fat32::read_at`]); with the SD host's DMA data path active the cache
//!   turns that prefetch into an in-flight scatter-gather chain the next
//!   demand read *waits on* instead of re-issuing — genuine
//!   transfer/compute overlap rather than just a discounted setup cost.
//!   Metadata (BPB, FAT, directories) shares the same cache, so there is
//!   exactly one consistency domain.
//! * **No inodes.** FAT has no inode concept; the kernel VFS layers
//!   pseudo-inodes on top (see the kernel crate), exactly as Proto bridges
//!   FatFS into its xv6-style file table.
//!
//! The cache is write-back: callers that need the card itself up to date
//! (unmount, `fsync`) call [`crate::bufcache::BufCache::flush`].
//!
//! **Crash consistency** (an extension beyond the paper, which excludes it
//! in §5.4): writes to new files dirty the cache with write-order
//! dependencies — data clusters before the FAT entries mapping them, both
//! before the dirent that publishes the file — so the ordered drain can be
//! cut by a power loss at any block boundary (or torn mid-CMD25) and a
//! remount sees either the old tree or the complete file. Multi-sector
//! metadata updates whose safe order is cyclic at sector granularity
//! (mkdir, [`Fat32::rename`], [`Fat32::remove`], overwriting an existing
//! file, appending to one, directory extension) instead commit through a
//! tiny physical redo log in the reserved region ([`INTENT_LOG_START`])
//! that [`Fat32::mount`] replays. The log machinery itself — record format, group commit, replay,
//! the fallback for oversized transactions — is the filesystem-agnostic
//! transaction layer in [`crate::txn`]; this module supplies only the
//! placement (where the log lives on a FAT volume) and the choice of which
//! operations run as transactions. The xv6fs metadata journal is the second
//! client of the same layer. With the default group size of one, logged
//! operations are atomic *and durable* on return; with group commit enabled
//! ([`Fat32::set_group_commit_ops`]) they stay atomic at every cut but a
//! burst of them shares one checksummed commit record — durability moves to
//! the group's single commit flush, forced by any barrier.

use crate::alloc::{NextFree, Slot};
use crate::block::{BlockDevice, BLOCK_SIZE};
use crate::bufcache::BufCache;
use crate::path;
use crate::txn::TxnLog;
use crate::{FsError, FsResult};

/// Sectors per cluster (4 KB clusters).
pub const SECTORS_PER_CLUSTER: u32 = 8;
/// Bytes per cluster.
pub const CLUSTER_SIZE: usize = SECTORS_PER_CLUSTER as usize * BLOCK_SIZE;
/// End-of-chain marker.
pub const FAT_EOC: u32 = 0x0FFF_FFFF;
/// Free-cluster marker.
pub const FAT_FREE: u32 = 0;
/// First allocatable cluster number (0 and 1 are reserved).
pub const FIRST_CLUSTER: u32 = 2;
/// Directory entry size.
pub const DIRENT_SIZE: usize = 32;
/// Attribute flag: directory.
pub const ATTR_DIRECTORY: u8 = 0x10;
/// Attribute flag: archive (ordinary file).
pub const ATTR_ARCHIVE: u8 = 0x20;
/// Maximum clusters merged into one coalesced device command (128 KB). Bounds
/// the temporary transfer buffer while still amortising the per-command
/// latency over a long run.
pub const MAX_RUN_CLUSTERS: usize = 32;
/// First sector of the on-volume intent log, in the reserved region right
/// after the boot sector.
pub const INTENT_LOG_START: u64 = 1;
/// Sectors reserved for the intent log: one header plus up to
/// [`INTENT_LOG_PAYLOAD`] logged metadata sectors. Sized to the whole
/// usable reserved region so one record covers the FAT sectors of both
/// chains of a ~7 MB file overwrite (a FAT sector maps 128 clusters =
/// 512 KB); larger transactions fall back to an edge-ordered flush.
pub const INTENT_LOG_SECTORS: u64 = 30;
/// Maximum metadata sectors one logged transaction can carry.
pub const INTENT_LOG_PAYLOAD: usize = (INTENT_LOG_SECTORS - 1) as usize;
/// Magic bytes opening a committed intent-log header (the shared
/// transaction layer's record magic; used by the mount tests that forge
/// records).
#[cfg(test)]
const INTENT_MAGIC: &[u8; 8] = crate::txn::TXN_MAGIC;
/// Initial read-ahead window for a newly detected sequential stream (32 KB).
/// The window doubles per sequential continuation — the classic readahead
/// ramp — up to [`MAX_PREFETCH_CLUSTERS`], and since the deep-queue PR the
/// ramp state lives *per stream slot* in the cache
/// ([`BufCache::stream_window`]): each of the four tracked streams carries
/// its own depth, so an interleaved second stream no longer resets the
/// first's. A steady stream's demand reads end up fully covered by earlier
/// prefetch and pay no command setup of their own.
pub const PREFETCH_CLUSTERS: usize = 8;
/// Read-ahead window ceiling (128 KB, one maximal cluster run).
pub const MAX_PREFETCH_CLUSTERS: usize = MAX_RUN_CLUSTERS;

/// Metadata for a file or directory inside the FAT volume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FatEntry {
    /// Name in its original `NAME.EXT` form (upper-cased).
    pub name: String,
    /// True if this is a directory.
    pub is_dir: bool,
    /// Size in bytes (0 for directories).
    pub size: u32,
    /// First cluster of the data chain (0 if empty).
    pub first_cluster: u32,
}

/// The BIOS parameter block fields we need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bpb {
    /// Total sectors in the volume.
    pub total_sectors: u32,
    /// Sectors per FAT.
    pub sectors_per_fat: u32,
    /// First sector of the FAT.
    pub fat_start: u32,
    /// First sector of the data area.
    pub data_start: u32,
    /// Cluster number of the root directory.
    pub root_cluster: u32,
    /// Number of data clusters.
    pub cluster_count: u32,
}

/// A mounted FAT32 volume.
#[derive(Debug, Clone)]
pub struct Fat32 {
    bpb: Bpb,
    /// This volume's handle on the shared transaction layer
    /// ([`crate::txn::TxnLog`]): the intent-log geometry (the reserved
    /// region at [`INTENT_LOG_START`]) plus the enabled / group-commit
    /// knobs. The mutable transaction state itself (open recorder, commit
    /// group, pins, pending frees) lives in the [`BufCache`] because
    /// `Fat32` is cloned per kernel call. Logging is on by default when the
    /// reserved region has room for the log area; with a group size above 1
    /// ([`Fat32::set_group_commit_ops`]) consecutive transactions share one
    /// checksummed commit record and durability moves to the group's single
    /// commit flush, forced by any barrier.
    txn: TxnLog,
    /// The allocator's next-free cluster cursor, shared by every clone of
    /// this mounted volume (see [`crate::alloc`]). Held in memory only:
    /// no FSInfo sector is written.
    next_free: NextFree,
}

fn encode_83(name: &str) -> FsResult<[u8; 11]> {
    if !path::valid_name(name) {
        return Err(FsError::Invalid(format!("bad FAT name '{name}'")));
    }
    let upper = name.to_ascii_uppercase();
    let (base, ext) = match upper.rsplit_once('.') {
        Some((b, e)) => (b, e),
        None => (upper.as_str(), ""),
    };
    if base.is_empty() || base.len() > 8 || ext.len() > 3 {
        return Err(FsError::Invalid(format!("'{name}' does not fit 8.3")));
    }
    let mut out = [b' '; 11];
    out[..base.len()].copy_from_slice(base.as_bytes());
    out[8..8 + ext.len()].copy_from_slice(ext.as_bytes());
    Ok(out)
}

/// Groups consecutive cluster numbers into contiguous runs of at most
/// [`MAX_RUN_CLUSTERS`], so a FAT chain like `[5,6,7,9]` becomes
/// `[(5,3),(9,1)]` and each run can travel as one multi-cluster device
/// command instead of one command per cluster.
fn cluster_runs(clusters: &[u32]) -> Vec<(u32, u32)> {
    let mut runs: Vec<(u32, u32)> = Vec::new();
    for &c in clusters {
        match runs.last_mut() {
            Some((first, count))
                if *first + *count == c && (*count as usize) < MAX_RUN_CLUSTERS =>
            {
                *count += 1
            }
            _ => runs.push((c, 1)),
        }
    }
    runs
}

fn decode_83(raw: &[u8; 11]) -> String {
    let base: String = String::from_utf8_lossy(&raw[..8]).trim_end().to_string();
    let ext: String = String::from_utf8_lossy(&raw[8..]).trim_end().to_string();
    if ext.is_empty() {
        base
    } else {
        format!("{base}.{ext}")
    }
}

impl Fat32 {
    // ---- formatting / mounting -------------------------------------------------------------

    /// Formats the device as FAT32 and returns the mounted volume.
    pub fn mkfs(dev: &mut dyn BlockDevice, bc: &mut BufCache) -> FsResult<Fat32> {
        let total_sectors = dev.num_blocks() as u32;
        if total_sectors < 128 {
            return Err(FsError::Invalid("device too small for FAT32".into()));
        }
        // Size the FAT: each data cluster needs one 4-byte FAT entry.
        // Solve approximately: clusters ~= (total - fat) / spc.
        let approx_clusters = total_sectors / SECTORS_PER_CLUSTER;
        let sectors_per_fat = (approx_clusters * 4).div_ceil(BLOCK_SIZE as u32).max(1);
        let fat_start = 32; // reserved region
        let data_start = fat_start + sectors_per_fat;
        let cluster_count = (total_sectors - data_start) / SECTORS_PER_CLUSTER;
        if cluster_count < 8 {
            return Err(FsError::Invalid(
                "device too small for FAT32 data area".into(),
            ));
        }
        let bpb = Bpb {
            total_sectors,
            sectors_per_fat,
            fat_start,
            data_start,
            root_cluster: FIRST_CLUSTER,
            cluster_count,
        };
        // Write the boot sector.
        let mut boot = vec![0u8; BLOCK_SIZE];
        boot[0] = 0xEB; // jump
        boot[3..11].copy_from_slice(b"PROTO5  ");
        boot[11..13].copy_from_slice(&(BLOCK_SIZE as u16).to_le_bytes());
        boot[13] = SECTORS_PER_CLUSTER as u8;
        boot[14..16].copy_from_slice(&(fat_start as u16).to_le_bytes());
        boot[16] = 1; // number of FATs
        boot[32..36].copy_from_slice(&total_sectors.to_le_bytes());
        boot[36..40].copy_from_slice(&sectors_per_fat.to_le_bytes());
        boot[44..48].copy_from_slice(&bpb.root_cluster.to_le_bytes());
        boot[82..90].copy_from_slice(b"FAT32   ");
        boot[510] = 0x55;
        boot[511] = 0xAA;
        bc.write(dev, 0, &boot)?;
        bc.note_metadata(0, 1);
        // An empty intent-log header: a reformat must not leave a stale
        // committed record from the volume's previous life. The log area is
        // accessed directly (never through the cache) so the commit protocol
        // can order its writes against the cache's own flushes.
        let zero = vec![0u8; BLOCK_SIZE];
        dev.write_block(INTENT_LOG_START, &zero)?;
        // Zero the FAT.
        for s in 0..sectors_per_fat {
            bc.write(dev, (fat_start + s) as u64, &zero)?;
            bc.note_metadata((fat_start + s) as u64, 1);
        }
        let fs = Fat32 {
            bpb,
            txn: Self::make_txn(&bpb),
            next_free: NextFree::new(FIRST_CLUSTER),
        };
        // Reserve clusters 0 and 1, allocate the root directory cluster.
        fs.fat_set(dev, bc, 0, 0x0FFF_FFF8)?;
        fs.fat_set(dev, bc, 1, FAT_EOC)?;
        fs.fat_set(dev, bc, bpb.root_cluster, FAT_EOC)?;
        fs.zero_cluster(dev, bc, bpb.root_cluster)?;
        let root_sector = fs.cluster_to_sector(bpb.root_cluster)?;
        bc.note_metadata(root_sector, SECTORS_PER_CLUSTER as u64);
        Ok(fs)
    }

    /// Whether the reserved region leaves room for the intent log.
    fn log_fits(bpb: &Bpb) -> bool {
        bpb.fat_start as u64 >= INTENT_LOG_START + INTENT_LOG_SECTORS
    }

    /// Mounts an existing FAT32 volume by parsing (and validating) its boot
    /// sector, then replaying any committed intent-log record left by a
    /// power cut in the middle of a multi-sector metadata update.
    pub fn mount(dev: &mut dyn BlockDevice, bc: &mut BufCache) -> FsResult<Fat32> {
        let mut boot = vec![0u8; BLOCK_SIZE];
        bc.read(dev, 0, &mut boot)?;
        if boot[510] != 0x55 || boot[511] != 0xAA {
            return Err(FsError::Corrupt("missing FAT32 boot signature".into()));
        }
        if &boot[82..87] != b"FAT32" {
            return Err(FsError::Corrupt("not a FAT32 volume".into()));
        }
        if boot[13] != SECTORS_PER_CLUSTER as u8 {
            return Err(FsError::Corrupt(format!(
                "unsupported sectors-per-cluster {}",
                boot[13]
            )));
        }
        let total_sectors = u32::from_le_bytes([boot[32], boot[33], boot[34], boot[35]]);
        let sectors_per_fat = u32::from_le_bytes([boot[36], boot[37], boot[38], boot[39]]);
        let fat_start = u16::from_le_bytes([boot[14], boot[15]]) as u32;
        let root_cluster = u32::from_le_bytes([boot[44], boot[45], boot[46], boot[47]]);
        // A corrupt BPB must surface as `Corrupt`, never as an arithmetic
        // panic or an absurd allocation during remount.
        if fat_start == 0 || sectors_per_fat == 0 {
            return Err(FsError::Corrupt("BPB has an empty FAT region".into()));
        }
        let data_start = fat_start
            .checked_add(sectors_per_fat)
            .ok_or_else(|| FsError::Corrupt("BPB FAT region overflows".into()))?;
        if data_start >= total_sectors {
            return Err(FsError::Corrupt(
                "BPB data area starts beyond the volume".into(),
            ));
        }
        if total_sectors as u64 > dev.num_blocks() {
            return Err(FsError::Corrupt(format!(
                "BPB claims {total_sectors} sectors but the device holds {}",
                dev.num_blocks()
            )));
        }
        let cluster_count = (total_sectors - data_start) / SECTORS_PER_CLUSTER;
        if cluster_count == 0 {
            return Err(FsError::Corrupt("BPB has no data clusters".into()));
        }
        if !(FIRST_CLUSTER..FIRST_CLUSTER + cluster_count).contains(&root_cluster) {
            return Err(FsError::Corrupt(format!(
                "root cluster {root_cluster} outside the data area"
            )));
        }
        let bpb = Bpb {
            total_sectors,
            sectors_per_fat,
            fat_start,
            data_start,
            root_cluster,
            cluster_count,
        };
        let fs = Fat32 {
            bpb,
            txn: Self::make_txn(&bpb),
            next_free: NextFree::new(FIRST_CLUSTER),
        };
        if fs.txn.enabled() {
            fs.txn.replay(dev, bc)?;
        }
        Ok(fs)
    }

    /// Builds this volume's transaction-layer handle: the intent-log
    /// geometry over the reserved region, enabled when it fits.
    fn make_txn(bpb: &Bpb) -> TxnLog {
        let mut txn = TxnLog::new(
            INTENT_LOG_START,
            INTENT_LOG_SECTORS,
            bpb.total_sectors as u64,
        );
        txn.set_enabled(Self::log_fits(bpb));
        txn
    }

    /// Enables or disables the intent log for multi-sector metadata updates
    /// (the crash-consistency ablation switch; replay at mount always runs
    /// when a committed record exists).
    pub fn set_intent_log(&mut self, on: bool) {
        self.txn.set_enabled(on && Self::log_fits(&self.bpb));
    }

    /// Whether multi-sector metadata updates go through the intent log.
    pub fn intent_log_enabled(&self) -> bool {
        self.txn.enabled()
    }

    /// Sets how many logged transactions one commit record may cover (group
    /// commit; clamped to at least 1). Callers that raise this above 1 own
    /// the durability consequences and must force [`Fat32::commit_pending`]
    /// at their barriers — the kernel does so in `fsync`, `sync_all` and the
    /// flusher's timeout pass.
    pub fn set_group_commit_ops(&mut self, ops: u32) {
        self.txn.set_group_ops(ops);
    }

    /// The configured group-commit size.
    pub fn group_commit_ops(&self) -> u32 {
        self.txn.group_ops()
    }

    /// The parsed BPB.
    pub fn bpb(&self) -> Bpb {
        self.bpb
    }

    // ---- the intent log ------------------------------------------------------------------------
    //
    // FAT32's intent log is now a client of the shared transaction layer
    // ([`crate::txn`]): a tiny physical redo log for multi-sector metadata
    // updates (mkdir, rename, remove, file overwrite and append) living in the
    // reserved region at `INTENT_LOG_START`, with group commit folding a
    // burst of transactions into one checksummed record. The mechanism —
    // ready-drain before the commit record, single-sector header as the
    // commit point, FLUSH barrier underneath, idempotent validated replay,
    // pending-free reservation of freed clusters — is documented once, in
    // `txn.rs`; what stays FAT-specific here is only the geometry (the
    // reserved region) and which operations are transactions.

    /// Builds the checksummed header sector for a committed record (the
    /// shared layer's format; kept as a named helper for the mount tests
    /// that hand-craft records).
    #[cfg(test)]
    fn intent_header(targets: &[u64], payloads: &[Vec<u8>]) -> Vec<u8> {
        TxnLog::header(targets, payloads)
    }

    /// Forces the open commit group's record to the device: the barrier
    /// entry point. `fsync`, `sync_all` and the flusher's group-timeout
    /// pass call this before their cache flush — a flush skips group-held
    /// sectors, so skipping the commit would leave the burst cached instead
    /// of durable. A no-op when no group is open. See
    /// [`crate::txn::TxnLog::commit_pending`] for the full commit sequence
    /// and its crash-ordering argument.
    pub fn commit_pending(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache) -> FsResult<()> {
        self.txn.commit_pending(dev, bc)
    }

    /// Runs `f` as an intent-log transaction through the shared layer
    /// ([`crate::txn::TxnLog::with_txn`]). Every logged operation goes
    /// through here so no path can forget half of the begin / commit / end
    /// protocol.
    fn with_meta_txn<R>(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        f: impl FnOnce(&Self, &mut dyn BlockDevice, &mut BufCache) -> FsResult<R>,
    ) -> FsResult<R> {
        let txn = self.txn;
        txn.with_txn(dev, bc, |dev, bc| f(self, dev, bc))
    }

    // ---- FAT access ---------------------------------------------------------------------------

    fn fat_sector_of(&self, cluster: u32) -> (u64, usize) {
        // Saturating forms keep the panic-reachability pass honest: a u32
        // cluster index cannot overflow this u64 arithmetic, and the FAT
        // region bounds are enforced by `check_fat_index` before any access.
        let byte = u64::from(cluster).saturating_mul(4);
        (
            (self.bpb.fat_start as u64).saturating_add(byte / BLOCK_SIZE as u64),
            (byte % BLOCK_SIZE as u64) as usize,
        )
    }

    /// Rejects FAT indices whose entry would fall outside the FAT region —
    /// a corrupt chain must not silently read or scribble on the data area.
    fn check_fat_index(&self, cluster: u32) -> FsResult<()> {
        let (sector, _) = self.fat_sector_of(cluster);
        if sector >= self.bpb.data_start as u64 {
            return Err(FsError::Corrupt(format!(
                "FAT entry for cluster {cluster} lies outside the FAT region"
            )));
        }
        Ok(())
    }

    fn fat_get(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache, cluster: u32) -> FsResult<u32> {
        self.check_fat_index(cluster)?;
        let (sector, off) = self.fat_sector_of(cluster);
        let mut buf = vec![0u8; BLOCK_SIZE];
        bc.read(dev, sector, &mut buf)?;
        Ok(u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]]) & 0x0FFF_FFFF)
    }

    fn fat_set(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        cluster: u32,
        value: u32,
    ) -> FsResult<()> {
        self.check_fat_index(cluster)?;
        let (sector, off) = self.fat_sector_of(cluster);
        let mut buf = vec![0u8; BLOCK_SIZE];
        bc.read(dev, sector, &mut buf)?;
        let value = value & 0x0FFF_FFFF;
        if value == FAT_FREE {
            self.next_free.lower(cluster);
        }
        buf[off..off + 4].copy_from_slice(&value.to_le_bytes());
        bc.write(dev, sector, &buf)?;
        bc.note_metadata(sector, 1);
        Ok(())
    }

    /// Allocates a free cluster and marks it end-of-chain. With `zero_fill`
    /// the cluster's contents are zeroed in cache and a FAT→contents
    /// write-order edge is recorded, so the FAT entry claiming the cluster
    /// can never land before its (zeroed) contents — a chain must never
    /// gain a cluster of stale bytes. Callers that *fully overwrite* every
    /// allocated cluster before publishing it (whole-file writes; the tail
    /// cluster is zero-padded by the data write itself) pass `zero_fill =
    /// false` and skip both — their own data ≺ FAT ≺ dirent edges, added
    /// right after the real data lands, take over, and until then the worst
    /// a power cut can expose is an allocated-but-unpublished chain: a
    /// cluster leak, never a visible file with stale bytes. Skipping the
    /// zero fill halves the device traffic of a large sequential write —
    /// previously every data cluster travelled twice (once as evicted
    /// zeros, once as data). `for_metadata` classifies the fresh cluster's
    /// contents as metadata (directory clusters) so the ordered drain
    /// treats its dirents as such.
    ///
    /// Placement is first-fit: the lowest free cluster that is not a
    /// pending free. The scan starts at the volume's next-free cursor
    /// ([`crate::alloc`]), below which no free cluster lies — pending
    /// frees included — so installing an n-cluster file costs O(n) FAT
    /// reads instead of O(n × used clusters), and the cluster picked is the
    /// one a scan from [`FIRST_CLUSTER`] would pick. A scan from the cursor
    /// that finds nothing falls back to the full scan from
    /// [`FIRST_CLUSTER`], and when only pending frees remain, to forcing
    /// the open commit group out and rescanning, so the cursor can never
    /// cause a `NoSpace`.
    fn alloc_cluster(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        for_metadata: bool,
        zero_fill: bool,
    ) -> FsResult<u32> {
        let slot = |dev: &mut dyn BlockDevice, bc: &mut BufCache, c| self.cluster_slot(dev, bc, c);
        let claim = |dev: &mut dyn BlockDevice, bc: &mut BufCache, c| {
            self.claim_cluster(dev, bc, c, for_metadata, zero_fill)
        };
        let clusters = FIRST_CLUSTER..FIRST_CLUSTER.saturating_add(self.bpb.cluster_count);
        self.next_free
            .alloc(dev, bc, &self.txn, clusters, slot, claim)
    }

    /// What the allocator sees at cluster `c`.
    fn cluster_slot(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache, c: u32) -> FsResult<Slot> {
        Ok(if self.fat_get(dev, bc, c)? != FAT_FREE {
            Slot::Used
        } else if bc.is_pending_free(c) {
            Slot::PendingFree
        } else {
            Slot::Free
        })
    }

    /// Marks the free cluster `c` end-of-chain and applies the `zero_fill`
    /// policy described on [`Fat32::alloc_cluster`]. `c` is the first-fit
    /// cluster the cursor scan found; the cursor steps past it only once
    /// this claim succeeds, so a failed claim leaves the cursor at a
    /// cluster that is still free.
    fn claim_cluster(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        c: u32,
        for_metadata: bool,
        zero_fill: bool,
    ) -> FsResult<()> {
        // Metadata clusters (directories) must always be zero-filled with
        // the FAT→contents edge recorded: skipping it would let the FAT
        // claim persist before the dirents, exposing a directory of stale
        // bytes across a cut. Only fully-overwritten *data* chains may skip.
        debug_assert!(
            zero_fill || !for_metadata,
            "metadata clusters cannot skip the zero fill"
        );
        self.fat_set(dev, bc, c, FAT_EOC)?;
        if zero_fill {
            self.zero_cluster(dev, bc, c)?;
            if for_metadata {
                bc.note_metadata(self.cluster_to_sector(c)?, SECTORS_PER_CLUSTER as u64);
            }
            let (fat_sector, _) = self.fat_sector_of(c);
            bc.add_dependency(
                fat_sector,
                1,
                self.cluster_to_sector(c)?,
                SECTORS_PER_CLUSTER as u64,
            );
        }
        Ok(())
    }

    /// Allocates and links an `n`-cluster chain, unwinding the allocation on
    /// failure so a mid-flight `NoSpace` (or I/O error) never leaks
    /// half-built chains into the FAT. `zero_fill` as in
    /// [`Fat32::alloc_cluster`]: whole-file writers that overwrite every
    /// cluster skip the redundant zero pass.
    fn alloc_chain(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        n: usize,
        for_metadata: bool,
        zero_fill: bool,
    ) -> FsResult<Vec<u32>> {
        // Pre-reserve at most a bounded chunk: `n` scales with the caller's
        // write size and the vec grows as clusters land anyway.
        let mut clusters = Vec::with_capacity(n.min(1024));
        let unwind =
            |fs: &Fat32, dev: &mut dyn BlockDevice, bc: &mut BufCache, clusters: &[u32]| {
                for &c in clusters {
                    // Best-effort: the clusters were EOC-marked singletons.
                    let _ = fs.fat_set(dev, bc, c, FAT_FREE);
                }
            };
        for _ in 0..n {
            match self.alloc_cluster(dev, bc, for_metadata, zero_fill) {
                Ok(c) => clusters.push(c),
                Err(e) => {
                    unwind(self, dev, bc, &clusters);
                    return Err(e);
                }
            }
        }
        for w in clusters.windows(2) {
            if let Err(e) = self.fat_set(dev, bc, w[0], w[1]) {
                unwind(self, dev, bc, &clusters);
                return Err(e);
            }
        }
        Ok(clusters)
    }

    /// Frees an allocated (but not yet referenced) chain — the unwind path
    /// for operations that fail after [`Fat32::alloc_chain`] succeeded.
    fn unwind_chain(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache, clusters: &[u32]) {
        for &c in clusters {
            let _ = self.fat_set(dev, bc, c, FAT_FREE);
        }
    }

    fn free_chain(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache, first: u32) -> FsResult<()> {
        let mut c = first;
        while (FIRST_CLUSTER..FAT_EOC).contains(&c) {
            let next = self.fat_get(dev, bc, c)?;
            self.fat_set(dev, bc, c, FAT_FREE)?;
            // The free is not durable until the commit record (or a full
            // flush) lands. Reserve the cluster so a later transaction in
            // the same commit group cannot reallocate it and overwrite data
            // the old tree still references — a cut before the commit point
            // must keep showing the intact old file.
            bc.note_pending_free(c);
            if next == c {
                return Err(FsError::Corrupt(format!(
                    "self-referential FAT chain at {c}"
                )));
            }
            c = next;
        }
        Ok(())
    }

    /// Collects the cluster chain starting at `first`.
    fn chain(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        first: u32,
    ) -> FsResult<Vec<u32>> {
        let mut out = Vec::new();
        let mut c = first;
        let limit = (self.bpb.cluster_count as usize).saturating_add(2);
        while (FIRST_CLUSTER..0x0FFF_FFF8).contains(&c) {
            if c >= FIRST_CLUSTER.saturating_add(self.bpb.cluster_count) {
                return Err(FsError::Corrupt(format!(
                    "FAT chain references cluster {c} beyond the data area"
                )));
            }
            out.push(c);
            if out.len() > limit {
                return Err(FsError::Corrupt("FAT chain cycle".into()));
            }
            c = self.fat_get(dev, bc, c)?;
        }
        Ok(out)
    }

    /// Maps a data cluster to its first sector LBA. Cluster numbers outside
    /// the data area — which a corrupt dirent or torn FAT entry can supply —
    /// surface as [`FsError::Corrupt`] instead of underflowing the sector
    /// arithmetic.
    fn cluster_to_sector(&self, cluster: u32) -> FsResult<u64> {
        let end = FIRST_CLUSTER.saturating_add(self.bpb.cluster_count);
        if !(FIRST_CLUSTER..end).contains(&cluster) {
            return Err(FsError::Corrupt(format!(
                "cluster {cluster} outside the data area"
            )));
        }
        let off = u64::from(cluster - FIRST_CLUSTER).saturating_mul(SECTORS_PER_CLUSTER as u64);
        Ok((self.bpb.data_start as u64).saturating_add(off))
    }

    fn zero_cluster(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        cluster: u32,
    ) -> FsResult<()> {
        let zero = vec![0u8; CLUSTER_SIZE];
        let sector = self.cluster_to_sector(cluster)?;
        bc.write_range(dev, sector, SECTORS_PER_CLUSTER as u64, &zero)
    }

    /// Number of free clusters remaining.
    pub fn free_clusters(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache) -> FsResult<u32> {
        let mut free = 0;
        for c in FIRST_CLUSTER..FIRST_CLUSTER + self.bpb.cluster_count {
            if self.fat_get(dev, bc, c)? == FAT_FREE {
                free += 1;
            }
        }
        Ok(free)
    }

    // ---- cluster data I/O ------------------------------------------------------------------------

    fn read_cluster(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        cluster: u32,
        out: &mut [u8],
    ) -> FsResult<()> {
        debug_assert_eq!(out.len(), CLUSTER_SIZE);
        let sector = self.cluster_to_sector(cluster)?;
        bc.read_range(dev, sector, SECTORS_PER_CLUSTER as u64, out)
    }

    // ---- directories --------------------------------------------------------------------------------

    fn read_dir_cluster_entries(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        dir_first_cluster: u32,
    ) -> FsResult<Vec<(u32, usize, FatEntry)>> {
        // Returns (cluster, offset-within-cluster, entry).
        let mut out = Vec::new();
        for cluster in self.chain(dev, bc, dir_first_cluster)? {
            let mut buf = vec![0u8; CLUSTER_SIZE];
            self.read_cluster(dev, bc, cluster, &mut buf)?;
            for (i, raw) in buf.chunks_exact(DIRENT_SIZE).enumerate() {
                if raw[0] == 0x00 || raw[0] == 0xE5 {
                    continue; // end-of-dir sentinel / deleted; we scan everything
                }
                let mut name = [0u8; 11];
                name.copy_from_slice(&raw[..11]);
                let attr = raw[11];
                let first_cluster = u32::from_le_bytes([raw[26], raw[27], 0, 0])
                    | (u32::from_le_bytes([raw[20], raw[21], 0, 0]) << 16);
                let size = u32::from_le_bytes([raw[28], raw[29], raw[30], raw[31]]);
                out.push((
                    cluster,
                    i.saturating_mul(DIRENT_SIZE),
                    FatEntry {
                        name: decode_83(&name),
                        is_dir: attr & ATTR_DIRECTORY != 0,
                        size,
                        first_cluster,
                    },
                ));
            }
        }
        Ok(out)
    }

    /// Writes one 32-byte directory entry via a read-modify-write of the
    /// single sector containing it (an entry never straddles sectors), so
    /// every dirent update is one atomic device command. Returns the sector
    /// LBA so callers can order it after the blocks the entry references.
    fn write_dirent(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        cluster: u32,
        offset: usize,
        raw: &[u8; DIRENT_SIZE],
    ) -> FsResult<u64> {
        let sector = self
            .cluster_to_sector(cluster)?
            .saturating_add((offset / BLOCK_SIZE) as u64);
        let entry_off = offset % BLOCK_SIZE;
        let mut buf = vec![0u8; BLOCK_SIZE];
        bc.read(dev, sector, &mut buf)?;
        buf[entry_off..entry_off + DIRENT_SIZE].copy_from_slice(raw);
        bc.write(dev, sector, &buf)?;
        bc.note_metadata(sector, 1);
        Ok(sector)
    }

    /// Encodes `entry` as a raw 32-byte 8.3 directory entry.
    fn encode_dirent(entry: &FatEntry) -> FsResult<[u8; DIRENT_SIZE]> {
        let name83 = encode_83(&entry.name)?;
        let mut raw = [0u8; DIRENT_SIZE];
        raw[..11].copy_from_slice(&name83);
        raw[11] = if entry.is_dir {
            ATTR_DIRECTORY
        } else {
            ATTR_ARCHIVE
        };
        raw[20..22].copy_from_slice(&((entry.first_cluster >> 16) as u16).to_le_bytes());
        raw[26..28].copy_from_slice(&(entry.first_cluster as u16).to_le_bytes());
        raw[28..32].copy_from_slice(&entry.size.to_le_bytes());
        Ok(raw)
    }

    /// Adds `entry` to the directory, extending its chain if no slot is
    /// free. Returns the sector holding the new dirent.
    fn dir_add_entry(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        dir_cluster: u32,
        entry: &FatEntry,
    ) -> FsResult<u64> {
        let raw = Self::encode_dirent(entry)?;
        // Find a free slot in the existing chain.
        for cluster in self.chain(dev, bc, dir_cluster)? {
            let mut buf = vec![0u8; CLUSTER_SIZE];
            self.read_cluster(dev, bc, cluster, &mut buf)?;
            for i in 0..CLUSTER_SIZE / DIRENT_SIZE {
                let off = i * DIRENT_SIZE;
                if buf[off] == 0x00 || buf[off] == 0xE5 {
                    return self.write_dirent(dev, bc, cluster, off, &raw);
                }
            }
        }
        // No free slot: extend the directory with a new cluster — a
        // multi-sector metadata update (FAT link + EOC + cluster contents +
        // dirent) that runs as its own intent-log transaction unless the
        // caller already opened one. Leaving it async would let a later
        // file's dirent-ordering edges form a cycle with the extension's
        // FAT-before-contents edge whenever they share a FAT sector.
        let chain = self.chain(dev, bc, dir_cluster)?;
        let last = *chain
            .last()
            .ok_or_else(|| FsError::Corrupt("empty dir chain".into()))?;
        if bc.meta_txn_active() {
            self.extend_dir_with_entry(dev, bc, last, &raw)
        } else {
            self.with_meta_txn(dev, bc, |fs, dev, bc| {
                fs.extend_dir_with_entry(dev, bc, last, &raw)
            })
        }
    }

    /// Splices a fresh cluster onto the directory chain and writes `raw` as
    /// its first dirent; returns the dirent's sector. Runs inside a
    /// metadata transaction.
    fn extend_dir_with_entry(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        last: u32,
        raw: &[u8; DIRENT_SIZE],
    ) -> FsResult<u64> {
        let newc = self.alloc_cluster(dev, bc, true, true)?;
        if let Err(e) = self.fat_set(dev, bc, last, newc) {
            self.unwind_chain(dev, bc, &[newc]);
            return Err(e);
        }
        let (link_sector, _) = self.fat_sector_of(last);
        bc.add_dependency(
            link_sector,
            1,
            self.cluster_to_sector(newc)?,
            SECTORS_PER_CLUSTER as u64,
        );
        self.write_dirent(dev, bc, newc, 0, raw)
    }

    fn dir_find(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        dir_cluster: u32,
        name: &str,
    ) -> FsResult<(u32, usize, FatEntry)> {
        let upper = name.to_ascii_uppercase();
        self.read_dir_cluster_entries(dev, bc, dir_cluster)?
            .into_iter()
            .find(|(_, _, e)| e.name == upper)
            .ok_or_else(|| FsError::NotFound(name.to_string()))
    }

    /// Resolves `p` (a path inside the FAT volume) to its entry. The root
    /// resolves to a synthetic directory entry.
    pub fn lookup(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        p: &str,
    ) -> FsResult<FatEntry> {
        let mut cur = FatEntry {
            name: String::new(),
            is_dir: true,
            size: 0,
            first_cluster: self.bpb.root_cluster,
        };
        for comp in path::components(p) {
            if !cur.is_dir {
                return Err(FsError::NotADirectory(comp));
            }
            let (_, _, entry) = self.dir_find(dev, bc, cur.first_cluster, &comp)?;
            cur = entry;
        }
        Ok(cur)
    }

    /// Lists the directory at `p`.
    pub fn list_dir(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        p: &str,
    ) -> FsResult<Vec<FatEntry>> {
        let dir = self.lookup(dev, bc, p)?;
        if !dir.is_dir {
            return Err(FsError::NotADirectory(p.to_string()));
        }
        Ok(self
            .read_dir_cluster_entries(dev, bc, dir.first_cluster)?
            .into_iter()
            .map(|(_, _, e)| e)
            .collect())
    }

    /// Creates an empty file or directory at `p`.
    ///
    /// File creation is a single-sector dirent write (atomic by itself) and
    /// stays asynchronous under the ordered write-back drain. Directory
    /// creation spans the parent dirent plus the child's FAT entry and
    /// cluster — a multi-sector metadata update — so it runs as an
    /// intent-log transaction (mkdir is atomic and durable on return).
    pub fn create(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        p: &str,
        is_dir: bool,
    ) -> FsResult<FatEntry> {
        let (parent, name) = path::split_parent(p)
            .ok_or_else(|| FsError::Invalid("cannot create FAT root".into()))?;
        let parent_entry = self.lookup(dev, bc, &parent)?;
        if !parent_entry.is_dir {
            return Err(FsError::NotADirectory(parent));
        }
        if self
            .dir_find(dev, bc, parent_entry.first_cluster, &name)
            .is_ok()
        {
            return Err(FsError::AlreadyExists(p.to_string()));
        }
        if !is_dir {
            let entry = FatEntry {
                name: name.to_ascii_uppercase(),
                is_dir: false,
                size: 0,
                first_cluster: 0,
            };
            self.dir_add_entry(dev, bc, parent_entry.first_cluster, &entry)?;
            return Ok(entry);
        }
        self.with_meta_txn(dev, bc, |fs, dev, bc| {
            let first_cluster = fs.alloc_cluster(dev, bc, true, true)?;
            let entry = FatEntry {
                name: name.to_ascii_uppercase(),
                is_dir: true,
                size: 0,
                first_cluster,
            };
            let dirent_sector = match fs.dir_add_entry(dev, bc, parent_entry.first_cluster, &entry)
            {
                Ok(s) => s,
                Err(e) => {
                    fs.unwind_chain(dev, bc, &[first_cluster]);
                    return Err(e);
                }
            };
            // Belt and braces for the no-log fallback: the parent dirent
            // must follow the child's FAT entry and cluster contents.
            let (fat_sector, _) = fs.fat_sector_of(first_cluster);
            bc.add_dependency(dirent_sector, 1, fat_sector, 1);
            bc.add_dependency(
                dirent_sector,
                1,
                fs.cluster_to_sector(first_cluster)?,
                SECTORS_PER_CLUSTER as u64,
            );
            Ok(entry)
        })
    }

    /// Rewrites the dirent for `p` with a new chain head and size, returning
    /// the sector holding the entry.
    fn update_dirent_for(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        p: &str,
        new_first_cluster: u32,
        new_size: u32,
    ) -> FsResult<u64> {
        let (parent, name) =
            path::split_parent(p).ok_or_else(|| FsError::Invalid("root has no dirent".into()))?;
        let parent_entry = self.lookup(dev, bc, &parent)?;
        let (cluster, offset, mut entry) =
            self.dir_find(dev, bc, parent_entry.first_cluster, &name)?;
        entry.first_cluster = new_first_cluster;
        entry.size = new_size;
        let raw = Self::encode_dirent(&entry)?;
        self.write_dirent(dev, bc, cluster, offset, &raw)
    }

    // ---- whole-file I/O -----------------------------------------------------------------------------

    /// Writes `data` as the complete contents of the file at `p`, creating it
    /// if necessary. Existing contents are replaced, not patched: a shorter
    /// `data` truncates the file. [`Fat32::write_at`] routes every write at
    /// offset 0 here, which is how the kernel truncates a rewritten file.
    ///
    /// A write to a *new* (or empty) file stays fully asynchronous: the data
    /// clusters, the FAT entries and finally the dirent are dirtied in the
    /// cache with write-order dependencies (`data ≺ FAT ≺ dirent`), so the
    /// ordered drain — background or fsync — can never expose a dirent
    /// pointing at unwritten clusters; until the dirent lands, a power cut
    /// simply yields the old tree. Overwriting a file that already has a
    /// chain additionally frees old FAT entries — a multi-sector metadata
    /// update with an ordering cycle no drain order can solve — so it runs
    /// as an intent-log transaction: atomic (old or new contents, never a
    /// mix) and durable on return.
    pub fn write_file(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        p: &str,
        data: &[u8],
    ) -> FsResult<()> {
        let entry = match self.lookup(dev, bc, p) {
            Ok(e) if e.is_dir => return Err(FsError::IsADirectory(p.to_string())),
            Ok(e) => e,
            Err(FsError::NotFound(_)) => self.create(dev, bc, p, false)?,
            Err(e) => return Err(e),
        };
        if entry.first_cluster == 0 {
            return self.write_new_contents(dev, bc, p, data);
        }
        self.with_meta_txn(dev, bc, |fs, dev, bc| {
            fs.rewrite_contents(dev, bc, p, entry.first_cluster, data)
        })
    }

    /// Writes `data` into the existing file at `p` at byte `offset`: the
    /// kernel's positional `write`. Three cases:
    ///
    /// * **`offset == 0`** replaces the whole file through
    ///   [`Fat32::write_file`]; bytes past `data.len()` are dropped.
    /// * **`offset >= size`** (an append, or a hole that reads back as
    ///   zeros) extends the file in place: only the bytes from the old size
    ///   on are written, into the unused tail of the last cluster and into
    ///   newly allocated clusters. One intent-log transaction links the old
    ///   tail's FAT entry to the new clusters and updates the dirent size,
    ///   and `data ≺ FAT ≺ dirent` edges keep the fallback path without the
    ///   log old-xor-new too. See [`Fat32::append_contents`].
    /// * **`0 < offset < size`** patches a copy of the file and rewrites it
    ///   through [`Fat32::write_file`]'s logged copy-on-write overwrite, so
    ///   an overwrite stays atomic.
    ///
    /// An empty `data` at a non-zero offset writes nothing. A write whose
    /// end passes the FAT32 4 GiB file limit fails with
    /// [`FsError::TooLarge`] before anything is touched.
    pub fn write_at(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        p: &str,
        offset: u32,
        data: &[u8],
    ) -> FsResult<()> {
        if offset == 0 {
            return self.write_file(dev, bc, p, data);
        }
        if data.is_empty() {
            return Ok(());
        }
        let end = u32::try_from(data.len())
            .ok()
            .and_then(|len| offset.checked_add(len))
            .ok_or_else(|| {
                FsError::TooLarge(format!(
                    "{} bytes at {offset} pass the FAT32 file size limit",
                    data.len()
                ))
            })?;
        let entry = self.lookup(dev, bc, p)?;
        if entry.is_dir {
            return Err(FsError::IsADirectory(p.to_string()));
        }
        if offset >= entry.size {
            return self.with_meta_txn(dev, bc, |fs, dev, bc| {
                fs.append_contents(dev, bc, p, &entry, offset, data)
            });
        }
        let mut whole = self.read_file(dev, bc, p)?;
        let (off, end) = (offset as usize, end as usize);
        if whole.len() < end {
            whole.resize(end, 0);
        }
        whole[off..end].copy_from_slice(data);
        self.write_file(dev, bc, p, &whole)
    }

    /// The in-place extension behind [`Fat32::write_at`]: the file's bytes
    /// `[entry.size, offset)` become zeros and the next `data.len()` bytes
    /// become `data`; no byte below `entry.size` is rewritten. The caller
    /// has checked that the new end fits a FAT32 file size. Runs inside the
    /// caller's metadata transaction, which logs the FAT sectors (the new
    /// clusters' entries and the old tail's link) and the dirent sector as
    /// one record. New clusters skip the zero fill because every one is
    /// written in full. Failures unwind the new clusters and the link, so
    /// the file keeps its old chain and size.
    fn append_contents(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        p: &str,
        entry: &FatEntry,
        offset: u32,
        data: &[u8],
    ) -> FsResult<()> {
        let chain = if entry.first_cluster == 0 {
            Vec::new()
        } else {
            self.chain(dev, bc, entry.first_cluster)?
        };
        let size = entry.size as usize;
        let offset = offset as usize;
        let end = offset.saturating_add(data.len());
        if chain.len() < size.div_ceil(CLUSTER_SIZE) {
            return Err(FsError::Corrupt(format!("chain too short for {p}")));
        }
        let needed = end.div_ceil(CLUSTER_SIZE).saturating_sub(chain.len());
        let fresh = self.alloc_chain(dev, bc, needed, false, false)?;
        let result = (|| {
            let mut written = self.write_chain_tail(dev, bc, &chain, size, offset, data)?;
            // The new clusters hold file bytes from `base` on.
            let base = chain.len() * CLUSTER_SIZE;
            let start = offset.max(base);
            let lead = start - base;
            let tail_data = data.get(start - offset..).unwrap_or(&[]);
            self.write_chain_data(dev, bc, &fresh, lead, tail_data)?;
            for (first, count) in cluster_runs(&fresh) {
                written.push((
                    self.cluster_to_sector(first)?,
                    count as u64 * SECTORS_PER_CLUSTER as u64,
                ));
            }
            Ok(written)
        })();
        let written = match result {
            Ok(w) => w,
            Err(e) => {
                self.unwind_chain(dev, bc, &fresh);
                return Err(e);
            }
        };
        // The link: the old tail's entry stops being end-of-chain.
        let link = match (chain.last(), fresh.first()) {
            (Some(&last), Some(&first)) => {
                if let Err(e) = self.fat_set(dev, bc, last, first) {
                    self.unwind_chain(dev, bc, &fresh);
                    return Err(e);
                }
                Some(last)
            }
            _ => None,
        };
        let head = chain.first().or(fresh.first()).copied().unwrap_or(0);
        let dirent_sector = match self.update_dirent_for(dev, bc, p, head, end as u32) {
            Ok(s) => s,
            Err(e) => {
                if let Some(last) = link {
                    let _ = self.fat_set(dev, bc, last, FAT_EOC);
                }
                self.unwind_chain(dev, bc, &fresh);
                return Err(e);
            }
        };
        // data ≺ FAT: each new entry waits for its own cluster's data, and
        // the link waits for every new entry, so a chain that reaches the
        // new clusters never meets a free entry or unwritten data.
        let fat_sectors = self.order_data_before_fat(bc, &fresh)?;
        if let Some(last) = link {
            let (link_sector, _) = self.fat_sector_of(last);
            for &f in fat_sectors.iter().filter(|&&f| f != link_sector) {
                bc.add_dependency(link_sector, 1, f, 1);
            }
            for &(lba, count) in &written {
                bc.add_dependency(link_sector, 1, lba, count);
            }
            bc.add_dependency(dirent_sector, 1, link_sector, 1);
        }
        // FAT ≺ dirent: the new size is published last.
        for &f in &fat_sectors {
            bc.add_dependency(dirent_sector, 1, f, 1);
        }
        for &(lba, count) in &written {
            bc.add_dependency(dirent_sector, 1, lba, count);
        }
        Ok(())
    }

    /// Writes the file bytes from `size` to the end of `data` (placed at
    /// `offset`) that fall in the clusters the file already owns: zeros up
    /// to `offset`, then `data`. Only the sectors holding those bytes are
    /// written; a sector that also holds bytes below `size` is read first,
    /// so they go back unchanged. Returns the written sector runs.
    fn write_chain_tail(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        chain: &[u32],
        size: usize,
        offset: usize,
        data: &[u8],
    ) -> FsResult<Vec<(u64, u64)>> {
        let mut written = Vec::new();
        let stop = offset
            .saturating_add(data.len())
            .min(chain.len().saturating_mul(CLUSTER_SIZE));
        let mut pos = size;
        while pos < stop {
            let ci = pos / CLUSTER_SIZE;
            let cluster = *chain
                .get(ci)
                .ok_or_else(|| FsError::Corrupt("chain shorter than its file".into()))?;
            let base = ci.saturating_mul(CLUSTER_SIZE);
            let upto = base.saturating_add(CLUSTER_SIZE).min(stop);
            // Whole sectors, from the one holding `pos` to the one holding
            // the last byte below `upto`; `first` is the file offset of the
            // first of them.
            let skip = (pos - base) / BLOCK_SIZE;
            let count = (upto - base).div_ceil(BLOCK_SIZE) - skip;
            let first = base.saturating_add(skip.saturating_mul(BLOCK_SIZE));
            let lba = self.cluster_to_sector(cluster)?.saturating_add(skip as u64);
            let mut buf = vec![0u8; count.saturating_mul(BLOCK_SIZE)];
            if pos > first {
                // The old bytes of the sector holding the old end.
                let mut old = vec![0u8; BLOCK_SIZE];
                bc.read(dev, lba, &mut old)?;
                let keep = pos - first;
                buf.get_mut(..keep)
                    .zip(old.get(..keep))
                    .ok_or_else(|| FsError::Invalid("tail sector overrun".into()))
                    .map(|(dst, src)| dst.copy_from_slice(src))?;
            }
            let lo = pos.max(offset);
            if lo < upto {
                buf.get_mut(lo - first..upto - first)
                    .zip(data.get(lo - offset..upto - offset))
                    .ok_or_else(|| FsError::Invalid("append data overrun".into()))
                    .map(|(dst, src)| dst.copy_from_slice(src))?;
            }
            bc.write_range(dev, lba, count as u64, &buf)?;
            written.push((lba, count as u64));
            pos = upto;
        }
        Ok(written)
    }

    /// Records `data ≺ FAT` for freshly written clusters: each FAT sector
    /// waits only for the data of the clusters whose entries it holds, so
    /// a chain of n clusters costs O(n) edges. Returns the FAT sectors, for
    /// the caller's `FAT ≺ dirent` edges.
    fn order_data_before_fat(
        &self,
        bc: &mut BufCache,
        clusters: &[u32],
    ) -> FsResult<std::collections::BTreeSet<u64>> {
        let mut by_sector: std::collections::BTreeMap<u64, Vec<u32>> =
            std::collections::BTreeMap::new();
        for &c in clusters {
            by_sector
                .entry(self.fat_sector_of(c).0)
                .or_default()
                .push(c);
        }
        for (&f, mapped) in &by_sector {
            for (first, count) in cluster_runs(mapped) {
                bc.add_dependency(
                    f,
                    1,
                    self.cluster_to_sector(first)?,
                    count as u64 * SECTORS_PER_CLUSTER as u64,
                );
            }
        }
        Ok(by_sector.into_keys().collect())
    }

    /// The asynchronous new-file write: allocate, fill, link, then publish
    /// via the dirent, with write-order dependencies registered so the drain
    /// commits the file bottom-up.
    fn write_new_contents(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        p: &str,
        data: &[u8],
    ) -> FsResult<()> {
        if data.is_empty() {
            self.update_dirent_for(dev, bc, p, 0, 0)?;
            return Ok(());
        }
        // Every cluster of the chain is fully overwritten below (the
        // tail is zero-padded by `write_chain_data`), so the allocation
        // skips the redundant zero fill.
        let clusters =
            self.alloc_chain(dev, bc, data.len().div_ceil(CLUSTER_SIZE), false, false)?;
        if let Err(e) = self.write_chain_data(dev, bc, &clusters, 0, data) {
            self.unwind_chain(dev, bc, &clusters);
            return Err(e);
        }
        // data ≺ FAT: no FAT sector of the chain may land before the
        // clusters it maps.
        let fat_sectors = self.order_data_before_fat(bc, &clusters)?;
        // FAT ≺ dirent: the entry publishing the file goes last.
        let Some(&head) = clusters.first() else {
            return Err(FsError::Invalid(
                "empty allocation for non-empty write".into(),
            ));
        };
        let dirent_sector = match self.update_dirent_for(dev, bc, p, head, data.len() as u32) {
            Ok(s) => s,
            Err(e) => {
                self.unwind_chain(dev, bc, &clusters);
                return Err(e);
            }
        };
        for &f in &fat_sectors {
            bc.add_dependency(dirent_sector, 1, f, 1);
        }
        for (first, count) in cluster_runs(&clusters) {
            bc.add_dependency(
                dirent_sector,
                1,
                self.cluster_to_sector(first)?,
                count as u64 * SECTORS_PER_CLUSTER as u64,
            );
        }
        Ok(())
    }

    /// Records that the FAT sectors holding a freed chain's entries must
    /// drain only after the dirent that stopped referencing the chain — the
    /// tombstone-before-frees order the no-log fallback relies on.
    fn order_frees_after_dirent(&self, bc: &mut BufCache, old_chain: &[u32], dirent_sector: u64) {
        let sectors: std::collections::BTreeSet<u64> =
            old_chain.iter().map(|&c| self.fat_sector_of(c).0).collect();
        for f in sectors {
            bc.add_dependency(f, 1, dirent_sector, 1);
        }
    }

    /// The logged overwrite: allocate + fill the new chain, swing the
    /// dirent, then free the old chain — all inside the caller's open
    /// metadata transaction. Failures before the dirent swings unwind the
    /// new allocation and leave the old file untouched. Write-order edges
    /// (`data ≺ new FAT ≺ dirent ≺ old-chain frees`) are registered as well,
    /// so even a transaction too large for the intent log keeps its safe
    /// order through the fallback flush (only torn-update atomicity is lost
    /// there, plus the shared-FAT-sector cycle case the
    /// [`crate::txn::TxnLog::commit`] docs describe).
    fn rewrite_contents(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        p: &str,
        old_first: u32,
        data: &[u8],
    ) -> FsResult<()> {
        let old_chain = self.chain(dev, bc, old_first)?;
        if data.is_empty() {
            let dirent_sector = self.update_dirent_for(dev, bc, p, 0, 0)?;
            self.free_chain(dev, bc, old_first)?;
            self.order_frees_after_dirent(bc, &old_chain, dirent_sector);
            return Ok(());
        }
        // Every cluster of the chain is fully overwritten below (the
        // tail is zero-padded by `write_chain_data`), so the allocation
        // skips the redundant zero fill.
        let clusters =
            self.alloc_chain(dev, bc, data.len().div_ceil(CLUSTER_SIZE), false, false)?;
        if let Err(e) = self.write_chain_data(dev, bc, &clusters, 0, data) {
            self.unwind_chain(dev, bc, &clusters);
            return Err(e);
        }
        let Some(&head) = clusters.first() else {
            return Err(FsError::Invalid(
                "empty allocation for non-empty write".into(),
            ));
        };
        let dirent_sector = match self.update_dirent_for(dev, bc, p, head, data.len() as u32) {
            Ok(s) => s,
            Err(e) => {
                self.unwind_chain(dev, bc, &clusters);
                return Err(e);
            }
        };
        for &(first, count) in &cluster_runs(&clusters) {
            bc.add_dependency(
                dirent_sector,
                1,
                self.cluster_to_sector(first)?,
                count as u64 * SECTORS_PER_CLUSTER as u64,
            );
        }
        let new_fat: std::collections::BTreeSet<u64> =
            clusters.iter().map(|&c| self.fat_sector_of(c).0).collect();
        for f in new_fat {
            bc.add_dependency(dirent_sector, 1, f, 1);
        }
        self.free_chain(dev, bc, old_first)?;
        self.order_frees_after_dirent(bc, &old_chain, dirent_sector);
        Ok(())
    }

    /// Fills the chain's clusters completely: `lead` zero bytes, then
    /// `data`, then zeros to the end of the last cluster. Contiguous cluster
    /// runs (the common case for a freshly allocated chain) travel as single
    /// multi-cluster commands, and no buffer larger than one run is built,
    /// so a hole of any size costs no memory beyond a run.
    fn write_chain_data(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        clusters: &[u32],
        lead: usize,
        data: &[u8],
    ) -> FsResult<()> {
        let mut ci = 0usize;
        for (first, count) in cluster_runs(clusters) {
            let byte_start = ci * CLUSTER_SIZE;
            let run_bytes = count as usize * CLUSTER_SIZE;
            let mut buf = vec![0u8; run_bytes];
            // The run's slice of the data, in chain byte positions.
            let lo = byte_start.max(lead);
            let hi = (byte_start + run_bytes).min(lead + data.len());
            if lo < hi {
                buf[lo - byte_start..hi - byte_start].copy_from_slice(&data[lo - lead..hi - lead]);
            }
            let sector = self.cluster_to_sector(first)?;
            bc.write_range(dev, sector, count as u64 * SECTORS_PER_CLUSTER as u64, &buf)?;
            ci += count as usize;
        }
        Ok(())
    }

    /// Reads `len` bytes of the file at `p` starting at `offset`.
    ///
    /// Contiguous cluster runs in the FAT chain are merged into single
    /// multi-cluster range reads before they reach the cache, and — when the
    /// cache's prefetch policy is on and the read continues a detected
    /// sequential stream — the next [`PREFETCH_CLUSTERS`] of the chain are
    /// range-filled ahead of demand so a streaming consumer finds them
    /// already cached.
    pub fn read_at(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        p: &str,
        offset: u32,
        len: usize,
    ) -> FsResult<Vec<u8>> {
        let entry = self.lookup(dev, bc, p)?;
        if entry.is_dir {
            return Err(FsError::IsADirectory(p.to_string()));
        }
        if offset >= entry.size {
            return Ok(Vec::new());
        }
        let len = len.min((entry.size - offset) as usize);
        if len == 0 {
            return Ok(Vec::new());
        }
        let chain = self.chain(dev, bc, entry.first_cluster)?;
        let offset = offset as usize;
        let first_ci = offset / CLUSTER_SIZE;
        let last_ci = (offset + len - 1) / CLUSTER_SIZE;
        let needed = chain
            .get(first_ci..=last_ci)
            .ok_or_else(|| FsError::Corrupt(format!("chain too short for {p}")))?;
        let mut out = vec![0u8; len];
        let mut ci = first_ci;
        for (first, count) in cluster_runs(needed) {
            let run_bytes = count as usize * CLUSTER_SIZE;
            let run_start = ci * CLUSTER_SIZE; // file offset of the run start
            let mut buf = vec![0u8; run_bytes];
            let sector = self.cluster_to_sector(first)?;
            bc.read_range(
                dev,
                sector,
                count as u64 * SECTORS_PER_CLUSTER as u64,
                &mut buf,
            )?;
            let want_start = offset.max(run_start);
            let want_end = (offset + len).min(run_start + run_bytes);
            out[want_start - offset..want_end - offset]
                .copy_from_slice(&buf[want_start - run_start..want_end - run_start]);
            ci += count as usize;
        }
        // Streaming read-ahead: fill the next cluster run of the chain while
        // the caller consumes this one. Errors are swallowed deliberately —
        // this is speculative I/O, and a real fault will surface on the
        // demand read that eventually covers the same blocks.
        let streak = bc.sequential_streak();
        if bc.prefetch_enabled() && streak >= 1 {
            if let Some(ahead) = chain.get(last_ci + 1..) {
                // Per-stream readahead ramp: the stream slot this read just
                // extended carries its own window (8 clusters on detection,
                // doubling per continuation up to a full 128 KB run), so an
                // interleaved second stream ramps independently instead of
                // resetting this one's depth — but never more than a quarter
                // of the cache, so read-ahead cannot thrash out the demand
                // run (or itself).
                let cap_clusters = (bc.capacity_blocks() / 4 / SECTORS_PER_CLUSTER as usize).max(1);
                let window_clusters = (bc.stream_window() as usize / SECTORS_PER_CLUSTER as usize)
                    .clamp(1, MAX_PREFETCH_CLUSTERS)
                    .min(cap_clusters);
                let take = ahead.len().min(window_clusters);
                let window = &ahead[..take];
                for (first, count) in cluster_runs(window) {
                    let sector = self.cluster_to_sector(first)?;
                    let _ =
                        bc.prefetch_range(dev, sector, count as u64 * SECTORS_PER_CLUSTER as u64);
                }
            }
        }
        Ok(out)
    }

    /// Reads the whole file at `p`.
    pub fn read_file(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        p: &str,
    ) -> FsResult<Vec<u8>> {
        let entry = self.lookup(dev, bc, p)?;
        self.read_at(dev, bc, p, 0, entry.size as usize)
    }

    /// Removes the file (or empty directory) at `p`, freeing its clusters.
    ///
    /// The dirent tombstone and the FAT frees span multiple sectors whose
    /// safe order (tombstone first) can cycle against concurrent creates on
    /// the same sectors, so the whole update runs as an intent-log
    /// transaction: after a power cut the entry is either fully gone or
    /// fully intact — never a surviving dirent pointing at freed clusters.
    pub fn remove(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache, p: &str) -> FsResult<()> {
        let (parent, name) = path::split_parent(p)
            .ok_or_else(|| FsError::Invalid("cannot remove FAT root".into()))?;
        let parent_entry = self.lookup(dev, bc, &parent)?;
        let (cluster, offset, entry) = self.dir_find(dev, bc, parent_entry.first_cluster, &name)?;
        if entry.is_dir {
            let children = self.read_dir_cluster_entries(dev, bc, entry.first_cluster)?;
            if !children.is_empty() {
                return Err(FsError::NotEmpty(p.to_string()));
            }
        }
        self.with_meta_txn(dev, bc, |fs, dev, bc| {
            let mut raw = [0u8; DIRENT_SIZE];
            raw[0] = 0xE5;
            let tombstone = fs.write_dirent(dev, bc, cluster, offset, &raw)?;
            if entry.first_cluster != 0 {
                // Tombstone-before-frees edges keep the no-log fallback
                // ordered for chains too large to log.
                let old_chain = fs.chain(dev, bc, entry.first_cluster)?;
                fs.free_chain(dev, bc, entry.first_cluster)?;
                fs.order_frees_after_dirent(bc, &old_chain, tombstone);
            }
            Ok(())
        })
    }

    /// Renames (or moves) `from` to `to` atomically: the new dirent is
    /// added, the old one tombstoned, and both land through one intent-log
    /// transaction — after any power cut exactly one of the two names
    /// exists, always pointing at the intact chain. Fails if `to` exists.
    pub fn rename(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        from: &str,
        to: &str,
    ) -> FsResult<()> {
        let (fparent, fname) = path::split_parent(from)
            .ok_or_else(|| FsError::Invalid("cannot rename FAT root".into()))?;
        let (tparent, tname) = path::split_parent(to)
            .ok_or_else(|| FsError::Invalid("cannot rename to FAT root".into()))?;
        let src_parent = self.lookup(dev, bc, &fparent)?;
        let (src_cluster, src_offset, src_entry) =
            self.dir_find(dev, bc, src_parent.first_cluster, &fname)?;
        // Moving a directory beneath itself would detach it from the tree.
        if src_entry.is_dir {
            let from_comps = path::components(from);
            let to_comps = path::components(to);
            if to_comps.len() > from_comps.len() && to_comps[..from_comps.len()] == from_comps[..] {
                return Err(FsError::Invalid(format!(
                    "cannot move '{from}' beneath itself"
                )));
            }
        }
        let dst_parent = self.lookup(dev, bc, &tparent)?;
        if !dst_parent.is_dir {
            return Err(FsError::NotADirectory(tparent));
        }
        if self
            .dir_find(dev, bc, dst_parent.first_cluster, &tname)
            .is_ok()
        {
            return Err(FsError::AlreadyExists(to.to_string()));
        }
        // Validate the destination name before mutating anything.
        encode_83(&tname)?;
        self.with_meta_txn(dev, bc, |fs, dev, bc| {
            let new_entry = FatEntry {
                name: tname.to_ascii_uppercase(),
                ..src_entry.clone()
            };
            let new_sector = fs.dir_add_entry(dev, bc, dst_parent.first_cluster, &new_entry)?;
            let mut raw = [0u8; DIRENT_SIZE];
            raw[0] = 0xE5;
            // The source coordinates looked up before the txn stay valid:
            // the target entry only ever fills a free/tombstoned slot.
            let tombstone = fs.write_dirent(dev, bc, src_cluster, src_offset, &raw)?;
            // Fallback-defense edges: the new name lands before the old one
            // disappears, and only after the chain it points at.
            if tombstone != new_sector {
                bc.add_dependency(tombstone, 1, new_sector, 1);
            }
            if src_entry.first_cluster != 0 {
                let (f, _) = fs.fat_sector_of(src_entry.first_cluster);
                bc.add_dependency(new_sector, 1, f, 1);
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::MemDisk;

    fn fresh_volume() -> (MemDisk, BufCache, Fat32) {
        // 16 MB volume.
        let mut dev = MemDisk::new(32 * 1024);
        let mut bc = BufCache::default();
        let fs = Fat32::mkfs(&mut dev, &mut bc).unwrap();
        (dev, bc, fs)
    }

    #[test]
    fn mkfs_then_mount_round_trips_the_bpb() {
        let (mut dev, mut bc, fs) = fresh_volume();
        let mounted = Fat32::mount(&mut dev, &mut bc).unwrap();
        assert_eq!(mounted.bpb(), fs.bpb());
    }

    #[test]
    fn small_file_round_trips() {
        let (mut dev, mut bc, fs) = fresh_volume();
        fs.write_file(&mut dev, &mut bc, "/hello.txt", b"hi fat32")
            .unwrap();
        assert_eq!(
            fs.read_file(&mut dev, &mut bc, "/hello.txt").unwrap(),
            b"hi fat32"
        );
        let entry = fs.lookup(&mut dev, &mut bc, "/hello.txt").unwrap();
        assert_eq!(entry.size, 8);
        assert!(!entry.is_dir);
    }

    #[test]
    fn multi_megabyte_file_round_trips() {
        let (mut dev, mut bc, fs) = fresh_volume();
        // 3 MB: far beyond xv6fs's 268 KB limit — the reason FAT32 exists in
        // Prototype 5.
        let data: Vec<u8> = (0..3 * 1024 * 1024u32).map(|i| (i % 253) as u8).collect();
        fs.write_file(&mut dev, &mut bc, "/doom.wad", &data)
            .unwrap();
        let back = fs.read_file(&mut dev, &mut bc, "/doom.wad").unwrap();
        assert_eq!(back.len(), data.len());
        assert_eq!(back, data);
    }

    #[test]
    fn directories_nest_and_list() {
        let (mut dev, mut bc, fs) = fresh_volume();
        fs.create(&mut dev, &mut bc, "/games", true).unwrap();
        fs.write_file(&mut dev, &mut bc, "/games/mario.nes", &[1u8; 4000])
            .unwrap();
        fs.write_file(&mut dev, &mut bc, "/games/kungfu.nes", &[2u8; 5000])
            .unwrap();
        let listing = fs.list_dir(&mut dev, &mut bc, "/games").unwrap();
        let names: Vec<_> = listing.iter().map(|e| e.name.clone()).collect();
        assert!(names.contains(&"MARIO.NES".to_string()));
        assert!(names.contains(&"KUNGFU.NES".to_string()));
        assert_eq!(listing.len(), 2);
    }

    #[test]
    fn partial_reads_honour_offset_and_length() {
        let (mut dev, mut bc, fs) = fresh_volume();
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        fs.write_file(&mut dev, &mut bc, "/track1.ogg", &data)
            .unwrap();
        let mid = fs
            .read_at(&mut dev, &mut bc, "/track1.ogg", 5000, 300)
            .unwrap();
        assert_eq!(&mid[..], &data[5000..5300]);
        let tail = fs
            .read_at(&mut dev, &mut bc, "/track1.ogg", 19_900, 500)
            .unwrap();
        assert_eq!(tail.len(), 100);
        let past = fs
            .read_at(&mut dev, &mut bc, "/track1.ogg", 50_000, 10)
            .unwrap();
        assert!(past.is_empty());
        // Zero-length reads are a no-op, not an underflow.
        let none = fs.read_at(&mut dev, &mut bc, "/track1.ogg", 0, 0).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn overwrite_replaces_contents_and_frees_old_clusters() {
        let (mut dev, mut bc, fs) = fresh_volume();
        let free0 = fs.free_clusters(&mut dev, &mut bc).unwrap();
        fs.write_file(&mut dev, &mut bc, "/video.mpg", &vec![7u8; 200 * 1024])
            .unwrap();
        fs.write_file(&mut dev, &mut bc, "/video.mpg", b"small now")
            .unwrap();
        assert_eq!(
            fs.read_file(&mut dev, &mut bc, "/video.mpg").unwrap(),
            b"small now"
        );
        let free1 = fs.free_clusters(&mut dev, &mut bc).unwrap();
        assert_eq!(free1, free0 - 1, "only one cluster remains allocated");
    }

    #[test]
    fn remove_frees_clusters_and_hides_the_file() {
        let (mut dev, mut bc, fs) = fresh_volume();
        let free0 = fs.free_clusters(&mut dev, &mut bc).unwrap();
        fs.write_file(&mut dev, &mut bc, "/tmp.bin", &vec![1u8; 64 * 1024])
            .unwrap();
        fs.remove(&mut dev, &mut bc, "/tmp.bin").unwrap();
        assert_eq!(fs.free_clusters(&mut dev, &mut bc).unwrap(), free0);
        assert!(matches!(
            fs.lookup(&mut dev, &mut bc, "/tmp.bin"),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn eight_three_names_are_enforced() {
        let (mut dev, mut bc, fs) = fresh_volume();
        assert!(fs
            .write_file(&mut dev, &mut bc, "/averylongfilename.data", b"x")
            .is_err());
        assert!(fs.write_file(&mut dev, &mut bc, "/ok.txt", b"x").is_ok());
        // Lookup is case-insensitive (names are stored upper-case).
        assert!(fs.lookup(&mut dev, &mut bc, "/OK.TXT").is_ok());
        assert!(fs.lookup(&mut dev, &mut bc, "/ok.txt").is_ok());
    }

    #[test]
    fn volume_fills_up_with_no_space() {
        // Small volume: 1 MB.
        let mut dev = MemDisk::new(2048);
        let mut bc = BufCache::default();
        let fs = Fat32::mkfs(&mut dev, &mut bc).unwrap();
        let mut i = 0;
        let result = loop {
            let r = fs.write_file(
                &mut dev,
                &mut bc,
                &format!("/f{i}.bin"),
                &vec![0u8; 64 * 1024],
            );
            if r.is_err() {
                break r;
            }
            i += 1;
            if i > 64 {
                panic!("volume never filled");
            }
        };
        assert!(matches!(result, Err(FsError::NoSpace)));
    }

    #[test]
    fn cold_reads_coalesce_and_warm_reads_stay_in_cache() {
        let (mut dev, mut bc, fs) = fresh_volume();
        // 32 KB = 8 clusters: small enough to stay resident in the cache.
        let data = vec![9u8; 32 * 1024];
        fs.write_file(&mut dev, &mut bc, "/big.bin", &data).unwrap();
        bc.flush(&mut dev).unwrap();
        let mut cold = BufCache::default();
        let before = dev.stats();
        assert_eq!(fs.read_file(&mut dev, &mut cold, "/big.bin").unwrap(), data);
        let after = dev.stats();
        // Data clusters plus the root-directory cluster the lookup reads
        // (the retired bypass path issued exactly the same commands).
        let nclusters = data.len().div_ceil(CLUSTER_SIZE) as u64 + 1;
        assert!(
            after.range_cmds - before.range_cmds <= nclusters,
            "cold read issued {} range commands for {nclusters} clusters",
            after.range_cmds - before.range_cmds
        );
        // Warm read: everything still cached, zero device traffic.
        let mid = dev.stats();
        assert_eq!(fs.read_file(&mut dev, &mut cold, "/big.bin").unwrap(), data);
        let warm = dev.stats();
        assert_eq!(
            warm.single_cmds, mid.single_cmds,
            "warm read hits the cache"
        );
        assert_eq!(warm.range_cmds, mid.range_cmds);
        assert!(cold.stats().hits > 0);
    }

    #[test]
    fn unified_cache_issues_no_more_sd_commands_than_the_retired_bypass_path() {
        // The acceptance bar for retiring `bypass_bufcache`: a cold FAT32
        // range read through the unified cache must cost no more SD commands
        // than the bypass issued — one CMD18 per cluster for data, plus the
        // handful of single-block metadata reads both paths share.
        let mut sd = hal::sdhost::SdHost::new(64 * 1024);
        sd.init().unwrap();
        let data = vec![7u8; 256 * 1024];
        // Data clusters + the root-directory cluster read by the lookup —
        // the exact command budget of the seed's bypass path.
        let nclusters = data.len().div_ceil(CLUSTER_SIZE) as u64 + 1;
        {
            let mut dev = crate::block::SdBlockDevice::new(&mut sd, 0, 64 * 1024);
            let mut bc = BufCache::default();
            let fs = Fat32::mkfs(&mut dev, &mut bc).unwrap();
            fs.write_file(&mut dev, &mut bc, "/doom.wad", &data)
                .unwrap();
            bc.flush(&mut dev).unwrap();
        }
        let (range_before, single_before) = (sd.range_cmds(), sd.single_block_cmds());
        let blocks_before = sd.blocks_transferred();
        let mut cold = BufCache::default();
        let stats = {
            let mut dev = crate::block::SdBlockDevice::new(&mut sd, 0, 64 * 1024);
            let fs = Fat32::mount(&mut dev, &mut cold).unwrap();
            let back = fs.read_file(&mut dev, &mut cold, "/doom.wad").unwrap();
            assert_eq!(back, data);
            cold.stats()
        };
        let range_delta = sd.range_cmds() - range_before;
        let single_delta = sd.single_block_cmds() - single_before;
        assert!(
            range_delta <= nclusters,
            "data path: {range_delta} range commands for {nclusters} clusters"
        );
        // Metadata (boot sector, FAT chain, root directory) is a handful of
        // single-block fills — the same blocks the bypass path also read.
        assert!(
            single_delta <= 16,
            "metadata path issued {single_delta} single-block commands"
        );
        // The cache's own accounting agrees with the SD host's counters,
        // modulo the one direct (uncached, by design) intent-log header
        // probe the mount performs.
        assert_eq!(stats.coalesced_ranges, range_delta);
        assert_eq!(stats.single_cmds + 1, single_delta);
        // Cluster-run coalescing merges contiguous clusters into fewer, larger
        // commands: well under one command per cluster on a contiguous file.
        assert!(
            range_delta <= nclusters.div_ceil(MAX_RUN_CLUSTERS as u64) + 2,
            "{range_delta} range commands for {nclusters} clusters"
        );
        // Every miss corresponds to exactly one block fetched from the card
        // (plus the direct intent-log header probe).
        let blocks_delta = sd.blocks_transferred() - blocks_before;
        assert_eq!(stats.misses + 1, blocks_delta);
    }

    #[test]
    fn contiguous_cluster_runs_travel_as_single_commands() {
        let (mut dev, mut bc, fs) = fresh_volume();
        // 128 KB = 32 contiguous clusters on a fresh volume = one run.
        let data: Vec<u8> = (0..128 * 1024u32).map(|i| (i % 241) as u8).collect();
        fs.write_file(&mut dev, &mut bc, "/run.bin", &data).unwrap();
        bc.flush(&mut dev).unwrap();
        let mut cold = BufCache::default();
        let before = dev.stats();
        assert_eq!(fs.read_file(&mut dev, &mut cold, "/run.bin").unwrap(), data);
        let after = dev.stats();
        // One command for the 32-cluster data run plus the root-directory
        // cluster the lookup reads — not one per cluster.
        assert!(
            after.range_cmds - before.range_cmds <= 3,
            "expected a coalesced run, got {} range commands",
            after.range_cmds - before.range_cmds
        );
    }

    #[test]
    fn fragmented_chains_split_into_per_fragment_runs() {
        let (mut dev, mut bc, fs) = fresh_volume();
        // Interleave two files so their chains fragment, then delete one.
        for i in 0..8 {
            fs.write_file(
                &mut dev,
                &mut bc,
                &format!("/a{i}.bin"),
                &[1u8; CLUSTER_SIZE],
            )
            .unwrap();
            fs.write_file(
                &mut dev,
                &mut bc,
                &format!("/b{i}.bin"),
                &[2u8; CLUSTER_SIZE],
            )
            .unwrap();
        }
        for i in 0..8 {
            fs.remove(&mut dev, &mut bc, &format!("/a{i}.bin")).unwrap();
        }
        // A new 8-cluster file lands in the freed (non-contiguous) holes.
        let data: Vec<u8> = (0..8 * CLUSTER_SIZE as u32)
            .map(|i| (i % 199) as u8)
            .collect();
        fs.write_file(&mut dev, &mut bc, "/frag.bin", &data)
            .unwrap();
        assert_eq!(
            fs.read_file(&mut dev, &mut bc, "/frag.bin").unwrap(),
            data,
            "fragmented chain round-trips through per-fragment runs"
        );
    }

    #[test]
    fn sequential_reads_prefetch_the_next_cluster_run() {
        let (mut dev, mut bc, fs) = fresh_volume();
        let data = vec![7u8; 256 * 1024];
        fs.write_file(&mut dev, &mut bc, "/stream.bin", &data)
            .unwrap();
        bc.flush(&mut dev).unwrap();
        let mut cold = BufCache::default();
        cold.set_prefetch(true);
        // Stream the file in cluster-sized chunks, as a media player would.
        let mut got = Vec::new();
        let mut off = 0u32;
        loop {
            let chunk = fs
                .read_at(&mut dev, &mut cold, "/stream.bin", off, CLUSTER_SIZE)
                .unwrap();
            if chunk.is_empty() {
                break;
            }
            off += chunk.len() as u32;
            got.extend_from_slice(&chunk);
        }
        assert_eq!(got, data);
        let s = cold.stats();
        assert!(s.prefetch_cmds > 0, "prefetch issued speculative fills");
        assert!(s.prefetched_blocks > 0);
        assert!(
            s.hits >= s.prefetched_blocks,
            "prefetched blocks were consumed as hits ({} hits, {} prefetched)",
            s.hits,
            s.prefetched_blocks
        );
        // With prefetch off, the same stream issues no speculative commands.
        let mut plain = BufCache::default();
        let _ = fs.read_file(&mut dev, &mut plain, "/stream.bin").unwrap();
        assert_eq!(plain.stats().prefetch_cmds, 0);
    }

    #[test]
    fn prefetch_faults_do_not_fail_the_demand_read() {
        let (mut dev, mut bc, fs) = fresh_volume();
        let data = vec![5u8; 64 * 1024];
        fs.write_file(&mut dev, &mut bc, "/ok.bin", &data).unwrap();
        bc.flush(&mut dev).unwrap();
        let entry = fs.lookup(&mut dev, &mut bc, "/ok.bin").unwrap();
        let chain = fs.chain(&mut dev, &mut bc, entry.first_cluster).unwrap();
        // Fault a block in the *last* cluster: prefetch will trip over it
        // while earlier demand reads must still succeed.
        let bad = fs.cluster_to_sector(*chain.last().unwrap()).unwrap();
        dev.inject_fault(bad);
        let mut cold = BufCache::default();
        cold.set_prefetch(true);
        // Stream every cluster but the last: prefetch windows cross the
        // faulty block along the way, but the speculative failures are
        // swallowed and every demand read still succeeds.
        let nclusters = data.len() / CLUSTER_SIZE;
        for ci in 0..nclusters - 1 {
            let chunk = fs
                .read_at(
                    &mut dev,
                    &mut cold,
                    "/ok.bin",
                    (ci * CLUSTER_SIZE) as u32,
                    CLUSTER_SIZE,
                )
                .unwrap();
            assert_eq!(chunk, data[ci * CLUSTER_SIZE..(ci + 1) * CLUSTER_SIZE]);
        }
        // The demand read that actually covers the faulty block reports it.
        let at_fault = fs.read_at(
            &mut dev,
            &mut cold,
            "/ok.bin",
            (data.len() - CLUSTER_SIZE) as u32,
            CLUSTER_SIZE,
        );
        assert!(at_fault.is_err(), "fault surfaces on the demand read");
    }

    #[test]
    fn rename_moves_files_atomically_between_directories() {
        let (mut dev, mut bc, fs) = fresh_volume();
        fs.create(&mut dev, &mut bc, "/inbox", true).unwrap();
        fs.create(&mut dev, &mut bc, "/outbox", true).unwrap();
        let data = vec![3u8; 10_000];
        fs.write_file(&mut dev, &mut bc, "/inbox/mail.txt", &data)
            .unwrap();
        fs.rename(&mut dev, &mut bc, "/inbox/mail.txt", "/outbox/sent.txt")
            .unwrap();
        assert!(matches!(
            fs.lookup(&mut dev, &mut bc, "/inbox/mail.txt"),
            Err(FsError::NotFound(_))
        ));
        assert_eq!(
            fs.read_file(&mut dev, &mut bc, "/outbox/sent.txt").unwrap(),
            data
        );
        // Renaming onto an existing name is refused, as is moving a
        // directory beneath itself.
        fs.write_file(&mut dev, &mut bc, "/outbox/other.txt", b"x")
            .unwrap();
        assert!(matches!(
            fs.rename(&mut dev, &mut bc, "/outbox/other.txt", "/outbox/sent.txt"),
            Err(FsError::AlreadyExists(_))
        ));
        assert!(fs
            .rename(&mut dev, &mut bc, "/inbox", "/inbox/sub")
            .is_err());
    }

    #[test]
    fn committed_intent_log_is_replayed_on_mount() {
        let (mut dev, mut bc, fs) = fresh_volume();
        fs.write_file(&mut dev, &mut bc, "/a.txt", b"old").unwrap();
        bc.flush(&mut dev).unwrap();
        // Hand-craft a committed record renaming the dirent sector contents:
        // capture the root dir sector, tombstone the entry in the payload.
        let root_sector = fs.cluster_to_sector(fs.bpb().root_cluster).unwrap();
        let mut sector = vec![0u8; BLOCK_SIZE];
        dev.read_block(root_sector, &mut sector).unwrap();
        sector[0] = 0xE5; // delete /a.txt
        dev.write_block(INTENT_LOG_START + 1, &sector).unwrap();
        let hdr = Fat32::intent_header(&[root_sector], &[sector.clone()]);
        dev.write_block(INTENT_LOG_START, &hdr).unwrap();
        // Remount: the record is replayed and cleared.
        let mut bc2 = BufCache::default();
        let fs2 = Fat32::mount(&mut dev, &mut bc2).unwrap();
        assert!(matches!(
            fs2.lookup(&mut dev, &mut bc2, "/a.txt"),
            Err(FsError::NotFound(_))
        ));
        let mut hdr_after = vec![0u8; BLOCK_SIZE];
        dev.read_block(INTENT_LOG_START, &mut hdr_after).unwrap();
        assert_eq!(&hdr_after[0..8], &[0u8; 8], "record cleared after replay");
        // A second mount replays nothing and still succeeds.
        let mut bc3 = BufCache::default();
        Fat32::mount(&mut dev, &mut bc3).unwrap();
    }

    #[test]
    fn torn_intent_log_records_are_ignored() {
        let (mut dev, mut bc, fs) = fresh_volume();
        fs.write_file(&mut dev, &mut bc, "/keep.txt", b"keep")
            .unwrap();
        bc.flush(&mut dev).unwrap();
        // A header whose checksum does not match its payloads (torn commit).
        let root_sector = fs.cluster_to_sector(fs.bpb().root_cluster).unwrap();
        let mut hdr = vec![0u8; BLOCK_SIZE];
        hdr[0..8].copy_from_slice(INTENT_MAGIC);
        hdr[8..12].copy_from_slice(&1u32.to_le_bytes());
        hdr[16..24].copy_from_slice(&root_sector.to_le_bytes());
        hdr[12..16].copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        dev.write_block(INTENT_LOG_START, &hdr).unwrap();
        let mut bc2 = BufCache::default();
        let fs2 = Fat32::mount(&mut dev, &mut bc2).unwrap();
        assert_eq!(
            fs2.read_file(&mut dev, &mut bc2, "/keep.txt").unwrap(),
            b"keep",
            "torn record ignored, old tree intact"
        );
    }

    #[test]
    fn corrupt_bpbs_fail_mount_cleanly() {
        let (mut dev, mut bc, _fs) = fresh_volume();
        bc.flush(&mut dev).unwrap();
        let mut boot = vec![0u8; BLOCK_SIZE];
        dev.read_block(0, &mut boot).unwrap();
        // Data area beyond the volume: total_sectors tiny.
        let mut bad = boot.clone();
        bad[32..36].copy_from_slice(&8u32.to_le_bytes());
        dev.write_block(0, &bad).unwrap();
        let mut cold = BufCache::default();
        assert!(matches!(
            Fat32::mount(&mut dev, &mut cold),
            Err(FsError::Corrupt(_))
        ));
        // Root cluster outside the data area.
        let mut bad = boot.clone();
        bad[44..48].copy_from_slice(&0x00FF_FFFF_u32.to_le_bytes());
        dev.write_block(0, &bad).unwrap();
        let mut cold = BufCache::default();
        assert!(matches!(
            Fat32::mount(&mut dev, &mut cold),
            Err(FsError::Corrupt(_))
        ));
        // Zero-length FAT.
        let mut bad = boot.clone();
        bad[36..40].copy_from_slice(&0u32.to_le_bytes());
        dev.write_block(0, &bad).unwrap();
        let mut cold = BufCache::default();
        assert!(matches!(
            Fat32::mount(&mut dev, &mut cold),
            Err(FsError::Corrupt(_))
        ));
        // The pristine boot sector still mounts.
        dev.write_block(0, &boot).unwrap();
        let mut cold = BufCache::default();
        assert!(Fat32::mount(&mut dev, &mut cold).is_ok());
    }

    #[test]
    fn failed_allocation_mid_write_unwinds_and_keeps_the_old_contents() {
        // Small volume that a big write cannot fit into.
        let mut dev = MemDisk::new(2048);
        let mut bc = BufCache::default();
        let fs = Fat32::mkfs(&mut dev, &mut bc).unwrap();
        let free0 = fs.free_clusters(&mut dev, &mut bc).unwrap();
        fs.write_file(&mut dev, &mut bc, "/v.bin", b"version one")
            .unwrap();
        let free1 = fs.free_clusters(&mut dev, &mut bc).unwrap();
        // Overwrite with more data than the volume holds: NoSpace, the old
        // contents survive, and no clusters leak.
        let huge = vec![1u8; 4 * 1024 * 1024];
        assert!(matches!(
            fs.write_file(&mut dev, &mut bc, "/v.bin", &huge),
            Err(FsError::NoSpace)
        ));
        assert_eq!(
            fs.read_file(&mut dev, &mut bc, "/v.bin").unwrap(),
            b"version one"
        );
        assert_eq!(
            fs.free_clusters(&mut dev, &mut bc).unwrap(),
            free1,
            "failed overwrite leaked no clusters"
        );
        // Same for a brand-new file: nothing visible, nothing leaked.
        assert!(matches!(
            fs.write_file(&mut dev, &mut bc, "/n.bin", &huge),
            Err(FsError::NoSpace)
        ));
        assert_eq!(fs.free_clusters(&mut dev, &mut bc).unwrap(), free1);
        let entry = fs.lookup(&mut dev, &mut bc, "/n.bin").unwrap();
        assert_eq!(
            (entry.first_cluster, entry.size),
            (0, 0),
            "the created dirent still points nowhere"
        );
        let _ = free0;
    }

    #[test]
    fn group_commit_batches_txns_into_one_record() {
        let (mut dev, mut bc, mut fs) = fresh_volume();
        // Pre-create four files so every write below is a *logged*
        // overwrite (a couple of sectors each — dirent + FAT).
        for i in 0..4 {
            fs.write_file(&mut dev, &mut bc, &format!("/f{i}.bin"), b"old")
                .unwrap();
        }
        bc.flush(&mut dev).unwrap();
        fs.set_group_commit_ops(4);
        // Three logged transactions accumulate without committing: nothing
        // reaches the medium, the group is pending.
        for i in 0..3 {
            fs.write_file(&mut dev, &mut bc, &format!("/f{i}.bin"), b"newer contents")
                .unwrap();
        }
        assert_eq!(bc.group_txns(), 3);
        assert_eq!(bc.stats().log_commits, 0);
        {
            let mut cold = BufCache::default();
            let fs2 = Fat32::mount(&mut dev, &mut cold).unwrap();
            assert_eq!(
                fs2.read_file(&mut dev, &mut cold, "/f0.bin").unwrap(),
                b"old",
                "uncommitted group is cache-only — a cut now yields the old tree"
            );
        }
        // The fourth transaction closes the group: one commit record, one
        // home drain, everything durable.
        fs.write_file(&mut dev, &mut bc, "/f3.bin", b"newer contents")
            .unwrap();
        assert_eq!(bc.group_txns(), 0);
        let s = bc.stats();
        assert_eq!((s.log_txns, s.log_commits), (4, 1));
        assert_eq!(
            s.forced_meta_writes, 0,
            "the pending group never tripped the cycle escape hatch"
        );
        let mut cold = BufCache::default();
        let fs2 = Fat32::mount(&mut dev, &mut cold).unwrap();
        for i in 0..4 {
            assert_eq!(
                fs2.read_file(&mut dev, &mut cold, &format!("/f{i}.bin"))
                    .unwrap(),
                b"newer contents"
            );
        }
    }

    #[test]
    fn pending_frees_commit_and_retry_instead_of_nospace() {
        // Nearly fill a small volume, then delete-and-rewrite while the
        // commit group is open: the freed clusters are reserved until the
        // group's record lands, so the allocator must force the pending
        // commit out and rescan instead of reporting NoSpace.
        let mut dev = MemDisk::new(2048);
        let mut bc = BufCache::default();
        let mut fs = Fat32::mkfs(&mut dev, &mut bc).unwrap();
        bc.flush(&mut dev).unwrap();
        fs.set_group_commit_ops(8);
        let free = fs.free_clusters(&mut dev, &mut bc).unwrap() as usize;
        let big = vec![7u8; (free - 2) * CLUSTER_SIZE];
        fs.write_file(&mut dev, &mut bc, "/big.bin", &big).unwrap();
        fs.remove(&mut dev, &mut bc, "/big.bin").unwrap();
        assert!(bc.group_txns() > 0, "the remove pends in the open group");
        let big2 = vec![9u8; (free - 2) * CLUSTER_SIZE];
        fs.write_file(&mut dev, &mut bc, "/next.bin", &big2)
            .unwrap();
        assert_eq!(
            fs.read_file(&mut dev, &mut bc, "/next.bin").unwrap(),
            big2,
            "the freed clusters were reused after the forced commit"
        );
    }

    /// The clusters that break the allocation cursor's invariant: free
    /// clusters (pending frees included) below the cursor.
    fn free_below_cursor(fs: &Fat32, dev: &mut MemDisk, bc: &mut BufCache) -> Vec<u32> {
        let end = FIRST_CLUSTER + fs.bpb.cluster_count;
        (FIRST_CLUSTER..fs.next_free.get().min(end))
            .filter(|&c| fs.fat_get(dev, bc, c).unwrap() == FAT_FREE)
            .collect()
    }

    #[test]
    fn no_free_cluster_ever_lies_below_the_allocation_cursor() {
        // Seeded create / overwrite / append / remove / mkdir sequences on a
        // 1 MB volume that keeps filling up, with group commit holding
        // frees pending across operations.
        for seed in 1..=4 {
            let mut rng = crate::alloc::TestRng::new(seed);
            let mut dev = MemDisk::new(2048);
            let mut bc = BufCache::default();
            let mut fs = Fat32::mkfs(&mut dev, &mut bc).unwrap();
            bc.flush(&mut dev).unwrap();
            fs.set_group_commit_ops(4);
            let (mut saw_pending, mut saw_nospace) = (false, false);
            for step in 0..160 {
                let dir = ["", "/d0", "/d1"][rng.below(3)];
                let path = format!("{dir}/f{}.bin", rng.below(6));
                let data = vec![step as u8; rng.below(128 * 1024)];
                let result = match rng.below(5) {
                    0 | 1 => fs.write_file(&mut dev, &mut bc, &path, &data),
                    // The kernel's append: a positional write at the end.
                    2 => fs.lookup(&mut dev, &mut bc, &path).and_then(|e| {
                        fs.write_at(&mut dev, &mut bc, &path, e.size, &data[..data.len() / 4])
                    }),
                    3 => fs.remove(&mut dev, &mut bc, &path),
                    _ => fs
                        .create(&mut dev, &mut bc, &format!("/d{}", rng.below(2)), true)
                        .map(|_| ()),
                };
                match result {
                    Ok(()) | Err(FsError::NotFound(_) | FsError::AlreadyExists(_)) => {}
                    Err(FsError::NoSpace) => saw_nospace = true,
                    Err(e) => panic!("seed {seed} step {step}: {e}"),
                }
                saw_pending |= bc.has_pending_frees();
                assert_eq!(
                    free_below_cursor(&fs, &mut dev, &mut bc),
                    Vec::<u32>::new(),
                    "seed {seed} step {step}: free clusters below cursor {}",
                    fs.next_free.get()
                );
            }
            assert!(
                saw_pending && saw_nospace,
                "seed {seed} never hit the fallback paths: pending {saw_pending} nospace {saw_nospace}"
            );
        }
    }

    #[test]
    fn commit_pending_forces_the_open_group_out() {
        let (mut dev, mut bc, mut fs) = fresh_volume();
        bc.flush(&mut dev).unwrap();
        fs.set_group_commit_ops(16);
        fs.create(&mut dev, &mut bc, "/a", true).unwrap();
        fs.write_file(&mut dev, &mut bc, "/f.bin", b"v1").unwrap();
        fs.write_file(&mut dev, &mut bc, "/f.bin", b"v2 is longer")
            .unwrap(); // overwrite: a second logged txn in the group
        assert_eq!(bc.group_txns(), 2);
        fs.commit_pending(&mut dev, &mut bc).unwrap();
        assert_eq!(bc.group_txns(), 0);
        assert_eq!(bc.stats().log_commits, 1);
        // Idempotent on an empty group.
        fs.commit_pending(&mut dev, &mut bc).unwrap();
        assert_eq!(bc.stats().log_commits, 1);
        bc.flush(&mut dev).unwrap();
        let mut cold = BufCache::default();
        let fs2 = Fat32::mount(&mut dev, &mut cold).unwrap();
        assert!(fs2.lookup(&mut dev, &mut cold, "/a").unwrap().is_dir);
        assert_eq!(
            fs2.read_file(&mut dev, &mut cold, "/f.bin").unwrap(),
            b"v2 is longer"
        );
    }

    #[test]
    fn deep_paths_resolve() {
        let (mut dev, mut bc, fs) = fresh_volume();
        fs.create(&mut dev, &mut bc, "/a", true).unwrap();
        fs.create(&mut dev, &mut bc, "/a/b", true).unwrap();
        fs.create(&mut dev, &mut bc, "/a/b/c", true).unwrap();
        fs.write_file(&mut dev, &mut bc, "/a/b/c/deep.txt", b"deep")
            .unwrap();
        assert_eq!(
            fs.read_file(&mut dev, &mut bc, "/a/b/c/deep.txt").unwrap(),
            b"deep"
        );
    }

    /// Deterministic bytes for the positional-write tests.
    fn bytes(seed: u8, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed) | 1)
            .collect()
    }

    fn chain_of(fs: &Fat32, dev: &mut MemDisk, bc: &mut BufCache, p: &str) -> Vec<u32> {
        let entry = fs.lookup(dev, bc, p).unwrap();
        fs.chain(dev, bc, entry.first_cluster).unwrap()
    }

    #[test]
    fn append_keeps_the_existing_cluster_prefix() {
        let (mut dev, mut bc, fs) = fresh_volume();
        let old = bytes(1, 3 * CLUSTER_SIZE + 700);
        fs.write_file(&mut dev, &mut bc, "/save.sav", &old).unwrap();
        let before = chain_of(&fs, &mut dev, &mut bc, "/save.sav");
        let more = bytes(2, 2 * CLUSTER_SIZE);
        fs.write_at(&mut dev, &mut bc, "/save.sav", old.len() as u32, &more)
            .unwrap();
        let after = chain_of(&fs, &mut dev, &mut bc, "/save.sav");
        assert_eq!(
            after[..before.len()],
            before[..],
            "the append extends the chain instead of replacing it"
        );
        assert!(after.len() > before.len());
    }

    #[test]
    fn append_allocates_only_the_missing_clusters() {
        let (mut dev, mut bc, fs) = fresh_volume();
        let old = bytes(1, 5000);
        fs.write_file(&mut dev, &mut bc, "/save.sav", &old).unwrap();
        let old_clusters = chain_of(&fs, &mut dev, &mut bc, "/save.sav").len();
        let free0 = fs.free_clusters(&mut dev, &mut bc).unwrap() as usize;
        let more = bytes(2, 9000);
        fs.write_at(&mut dev, &mut bc, "/save.sav", old.len() as u32, &more)
            .unwrap();
        let new_size = old.len() + more.len();
        let expect = new_size.div_ceil(CLUSTER_SIZE) - old_clusters;
        let free1 = fs.free_clusters(&mut dev, &mut bc).unwrap() as usize;
        assert_eq!(free0 - free1, expect, "clusters allocated by the append");
        assert_eq!(
            chain_of(&fs, &mut dev, &mut bc, "/save.sav").len(),
            new_size.div_ceil(CLUSTER_SIZE)
        );
    }

    #[test]
    fn append_then_flush_writes_only_the_new_sectors_and_metadata() {
        let (mut dev, mut bc, fs) = fresh_volume();
        let old = bytes(1, 20_000);
        fs.write_file(&mut dev, &mut bc, "/save.sav", &old).unwrap();
        bc.flush(&mut dev).unwrap();
        let more = bytes(2, 10_000);
        let before = dev.stats().blocks;
        fs.write_at(&mut dev, &mut bc, "/save.sav", old.len() as u32, &more)
            .unwrap();
        fs.commit_pending(&mut dev, &mut bc).unwrap();
        bc.flush(&mut dev).unwrap();
        let moved = dev.stats().blocks - before;
        let new_size = old.len() + more.len();
        let old_clusters = old.len().div_ceil(CLUSTER_SIZE);
        // The old tail cluster from the sector holding the old end, plus
        // every new cluster in full.
        let tail_sectors = (old_clusters * CLUSTER_SIZE - old.len()).div_ceil(BLOCK_SIZE) as u64;
        let new_sectors = ((new_size.div_ceil(CLUSTER_SIZE) - old_clusters)
            * SECTORS_PER_CLUSTER as usize) as u64;
        // One FAT sector (this small chain's entries share one) and the
        // dirent, each written home and once into the log record, plus the
        // record header and its clear.
        let meta = 2;
        let bound = tail_sectors + new_sectors + 2 * meta + 2;
        assert!(
            moved <= bound,
            "append moved {moved} blocks; the new bytes and metadata need at most {bound}"
        );
        assert!(
            moved < (new_size / BLOCK_SIZE) as u64,
            "fewer blocks than a whole-file rewrite"
        );
        let mut cold = BufCache::default();
        let fs2 = Fat32::mount(&mut dev, &mut cold).unwrap();
        assert_eq!(
            fs2.read_file(&mut dev, &mut cold, "/save.sav").unwrap(),
            [old, more].concat()
        );
    }

    #[test]
    fn append_filling_the_tail_cluster_and_crossing_into_a_new_one_round_trips() {
        let (mut dev, mut bc, fs) = fresh_volume();
        let old = bytes(1, 3000);
        fs.write_file(&mut dev, &mut bc, "/save.sav", &old).unwrap();
        let mut model = old.clone();
        // 1096 bytes finish the first cluster, the rest start a second;
        // then two more appends at sizes that are not sector aligned.
        for (seed, len) in [(2u8, 6000usize), (3, 1), (4, 2 * CLUSTER_SIZE + 333)] {
            let more = bytes(seed, len);
            fs.write_at(&mut dev, &mut bc, "/save.sav", model.len() as u32, &more)
                .unwrap();
            model.extend_from_slice(&more);
            assert_eq!(fs.read_file(&mut dev, &mut bc, "/save.sav").unwrap(), model);
        }
        bc.flush(&mut dev).unwrap();
        let mut cold = BufCache::default();
        let fs2 = Fat32::mount(&mut dev, &mut cold).unwrap();
        assert_eq!(
            fs2.read_file(&mut dev, &mut cold, "/save.sav").unwrap(),
            model
        );
    }

    #[test]
    fn writes_past_the_end_read_the_gap_back_as_zeros() {
        let (mut dev, mut bc, fs) = fresh_volume();
        // A hole in a file that has clusters: part of the gap lies in the
        // old tail cluster, part in whole new clusters.
        let old = bytes(1, 100);
        fs.write_file(&mut dev, &mut bc, "/hole.bin", &old).unwrap();
        let off = 3 * CLUSTER_SIZE + 17;
        fs.write_at(&mut dev, &mut bc, "/hole.bin", off as u32, b"tail")
            .unwrap();
        let mut model = old.clone();
        model.resize(off, 0);
        model.extend_from_slice(b"tail");
        assert_eq!(fs.read_file(&mut dev, &mut bc, "/hole.bin").unwrap(), model);
        // A hole in an empty file: the chain starts with the write.
        fs.create(&mut dev, &mut bc, "/empty.bin", false).unwrap();
        fs.write_at(&mut dev, &mut bc, "/empty.bin", 5000, b"x")
            .unwrap();
        let mut model2 = vec![0u8; 5000];
        model2.push(b'x');
        assert_eq!(
            fs.read_file(&mut dev, &mut bc, "/empty.bin").unwrap(),
            model2
        );
        bc.flush(&mut dev).unwrap();
        let mut cold = BufCache::default();
        let fs2 = Fat32::mount(&mut dev, &mut cold).unwrap();
        assert_eq!(
            fs2.read_file(&mut dev, &mut cold, "/hole.bin").unwrap(),
            model
        );
        assert_eq!(
            fs2.read_file(&mut dev, &mut cold, "/empty.bin").unwrap(),
            model2
        );
        // The end of a write may not pass the FAT32 file size limit.
        assert!(matches!(
            fs.write_at(&mut dev, &mut bc, "/hole.bin", u32::MAX - 1, b"abc"),
            Err(FsError::TooLarge(_))
        ));
    }

    #[test]
    fn overwrites_inside_the_file_stay_atomic() {
        let old = bytes(1, 3 * CLUSTER_SIZE);
        let patch = bytes(2, CLUSTER_SIZE + 50);
        let off = CLUSTER_SIZE + 100;
        let mut new = old.clone();
        new[off..off + patch.len()].copy_from_slice(&patch);
        let setup = || {
            let (mut dev, mut bc, fs) = fresh_volume();
            fs.write_file(&mut dev, &mut bc, "/cfg.bin", &old).unwrap();
            bc.flush(&mut dev).unwrap();
            (dev, bc, fs)
        };
        let total = {
            let (mut dev, mut bc, fs) = setup();
            let before = dev.stats().blocks;
            fs.write_at(&mut dev, &mut bc, "/cfg.bin", off as u32, &patch)
                .unwrap();
            assert_eq!(bc.stats().log_txns, 1, "the overwrite is one logged txn");
            dev.stats().blocks - before
        };
        let (mut saw_old, mut saw_new) = (false, false);
        for k in 0..=total {
            let (mut dev, mut bc, fs) = setup();
            dev.power_cut_after(k);
            let _ = fs.write_at(&mut dev, &mut bc, "/cfg.bin", off as u32, &patch);
            dev.power_restored();
            let mut disk = MemDisk::from_image(dev.image().to_vec());
            let mut cold = BufCache::default();
            let fs2 = Fat32::mount(&mut disk, &mut cold).unwrap();
            let got = fs2.read_file(&mut disk, &mut cold, "/cfg.bin").unwrap();
            if got == old {
                saw_old = true;
            } else if got == new {
                saw_new = true;
            } else {
                panic!("cut at {k}/{total}: the overwrite left a mix");
            }
        }
        assert!(saw_old && saw_new, "the sweep covers both outcomes");
    }
}
