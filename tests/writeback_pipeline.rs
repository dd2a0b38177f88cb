//! Tier-1 tests for the I/O pipeline above the unified block cache: the
//! `kbio` background flusher, its cost attribution, and what survives a
//! power cut ("what is actually on the card") with write-back caching in
//! front of both filesystems.

use hal::sdhost::SdDataMode;
use kernel::kernel::FAT_PARTITION_START;
use kernel::OpenFlags;
use proto_repro::prelude::*;
use protofs::block::SdBlockDevice;
use protofs::bufcache::BufCache;
use protofs::fat32::Fat32;
use protofs::xv6fs::Xv6Fs;
use protofs::MemDisk;

#[test]
fn kbio_drains_dirty_extents_and_is_charged_for_the_writeback() {
    let mut sys = ProtoSystem::desktop().unwrap();
    assert!(sys.kernel.kbio_task() != 0, "desktop runs the kbio flusher");
    let writer = sys.kernel.spawn_bench_task("writer").unwrap();
    // Dirty extents across *both* filesystems, then close. With the
    // background flusher on, close returns without draining.
    sys.kernel
        .with_task_ctx(writer, |ctx| {
            let fd = ctx.open("/d/spike.bin", OpenFlags::wronly_create())?;
            ctx.write(fd, &vec![0xA5u8; 96 * 1024])?;
            ctx.close(fd)?;
            let fd = ctx.open("/spike.txt", OpenFlags::wronly_create())?;
            ctx.write(fd, &vec![0x5Au8; 16 * 1024])?;
            ctx.close(fd)
        })
        .unwrap();
    assert!(
        sys.kernel.fat_cache().dirty_blocks() > 0,
        "close left FAT extents dirty for the flusher"
    );
    assert!(
        sys.kernel.root_cache().dirty_blocks() > 0,
        "close left root extents dirty for the flusher"
    );
    let writer_sd_at_close = sys.kernel.task_sd_cycles(writer);
    let kbio = sys.kernel.kbio_task();
    let kbio_sd_before = sys.kernel.task_sd_cycles(kbio);
    // Run the kernel: kbio drains both caches to quiescence.
    let drained = sys.kernel.run_until(
        |k| k.fat_cache().dirty_blocks() == 0 && k.root_cache().dirty_blocks() == 0,
        10_000_000,
    );
    assert!(drained, "kbio drained both caches");
    assert!(
        sys.kernel.task_sd_cycles(kbio) > kbio_sd_before,
        "write-back cycles are charged to kbio"
    );
    assert_eq!(
        sys.kernel.task_sd_cycles(writer),
        writer_sd_at_close,
        "the background drain billed nothing further to the writer"
    );
    // The drained data really reached the devices: remount both stores
    // through fresh caches (i.e. read what is on the "card", not what is in
    // the live cache).
    let total = sys.kernel.board.sdhost.total_blocks();
    let mut fresh = BufCache::default();
    let mut dev = SdBlockDevice::new(
        &mut sys.kernel.board.sdhost,
        FAT_PARTITION_START,
        total - FAT_PARTITION_START,
    );
    let fat = Fat32::mount(&mut dev, &mut fresh).unwrap();
    assert_eq!(
        fat.read_file(&mut dev, &mut fresh, "/spike.bin").unwrap(),
        vec![0xA5u8; 96 * 1024]
    );
    let image = sys.kernel.ramdisk_image().unwrap();
    let mut disk = MemDisk::from_image(image);
    let mut bc = BufCache::default();
    let root = Xv6Fs::mount(&mut disk, &mut bc).unwrap();
    assert_eq!(
        root.read_file(&mut disk, &mut bc, "/spike.txt").unwrap(),
        vec![0x5Au8; 16 * 1024]
    );
}

#[test]
fn fsynced_data_survives_a_power_cut_and_unsynced_data_stays_in_cache() {
    let mut sys = ProtoSystem::desktop().unwrap();
    let writer = sys.kernel.spawn_bench_task("writer").unwrap();
    sys.kernel
        .with_task_ctx(writer, |ctx| {
            let fd = ctx.open("/d/synced.bin", OpenFlags::wronly_create())?;
            ctx.write(fd, b"durable")?;
            ctx.fsync(fd)?; // full synchronous flush: on the card now
            ctx.close(fd)?;
            let fd = ctx.open("/d/unsynced.bin", OpenFlags::wronly_create())?;
            ctx.write(fd, b"volatile")?;
            ctx.close(fd) // background flusher has not run: cache only
        })
        .unwrap();
    // fsync attributed its own write-back to the caller, synchronously.
    assert!(sys.kernel.task_sd_cycles(writer) > 0);
    // "Power cut": read the raw card through a fresh cache. Only flushed
    // state exists there.
    let total = sys.kernel.board.sdhost.total_blocks();
    let mut fresh = BufCache::default();
    let mut dev = SdBlockDevice::new(
        &mut sys.kernel.board.sdhost,
        FAT_PARTITION_START,
        total - FAT_PARTITION_START,
    );
    let fat = Fat32::mount(&mut dev, &mut fresh).unwrap();
    assert_eq!(
        fat.read_file(&mut dev, &mut fresh, "/synced.bin").unwrap(),
        b"durable",
        "fsync'd data is on the card after the cut"
    );
    assert!(
        matches!(
            fat.lookup(&mut dev, &mut fresh, "/unsynced.bin"),
            Err(protofs::FsError::NotFound(_))
        ),
        "un-fsync'd file never reached the card"
    );
    // The live system still sees it (it is dirty in the cache), so a later
    // flusher pass would have made it durable too.
    let seen = sys.kernel.with_task_ctx(writer, |ctx| {
        let fd = ctx.open("/d/unsynced.bin", OpenFlags::rdonly())?;
        let data = ctx.read(fd, 64)?;
        ctx.close(fd)?;
        Ok::<Vec<u8>, kernel::KernelError>(data)
    });
    assert_eq!(seen.unwrap(), b"volatile");
}

#[test]
fn failed_background_writeback_is_contained_and_retried() {
    let mut sys = ProtoSystem::desktop().unwrap();
    let writer = sys.kernel.spawn_bench_task("writer").unwrap();
    sys.kernel
        .with_task_ctx(writer, |ctx| {
            let fd = ctx.open("/faulty.txt", OpenFlags::wronly_create())?;
            ctx.write(fd, &vec![0xEEu8; 8 * 1024])?;
            ctx.close(fd)
        })
        .unwrap();
    let dirty = sys.kernel.root_cache().dirty_blocks();
    assert!(dirty > 0);
    // Fault the whole ramdisk: every kbio write-back pass fails. The kernel
    // must not panic, and the dirty blocks must be retained for retry.
    let blocks = kernel::kernel::RAMDISK_BYTES / protofs::BLOCK_SIZE as u64;
    for lba in 0..blocks {
        sys.kernel.ramdisk_inject_fault(lba);
    }
    sys.run_ms(100);
    assert_eq!(
        sys.kernel.root_cache().dirty_blocks(),
        dirty,
        "failed write-back loses nothing"
    );
    let log = sys.kernel.console_log();
    assert!(
        log.contains("kbio: root write-back failed"),
        "the failure is reported, not swallowed: {log}"
    );
    // The card recovers; the retried write-back drains and the data is
    // durable on a remount of the raw image.
    sys.kernel.ramdisk_clear_faults();
    let drained = sys
        .kernel
        .run_until(|k| k.root_cache().dirty_blocks() == 0, 5_000_000);
    assert!(drained, "retry drained the cache after the fault cleared");
    let image = sys.kernel.ramdisk_image().unwrap();
    let mut disk = MemDisk::from_image(image);
    let mut bc = BufCache::default();
    let root = Xv6Fs::mount(&mut disk, &mut bc).unwrap();
    assert_eq!(
        root.read_file(&mut disk, &mut bc, "/faulty.txt").unwrap(),
        vec![0xEEu8; 8 * 1024]
    );
}

#[test]
fn sync_all_is_a_whole_system_durability_barrier() {
    let mut sys = ProtoSystem::desktop().unwrap();
    let writer = sys.kernel.spawn_bench_task("writer").unwrap();
    sys.kernel
        .with_task_ctx(writer, |ctx| {
            let fd = ctx.open("/d/bye.bin", OpenFlags::wronly_create())?;
            ctx.write(fd, b"unmount me")?;
            ctx.close(fd)
        })
        .unwrap();
    assert!(sys.kernel.fat_cache().dirty_blocks() > 0);
    sys.kernel.sync_all().unwrap();
    assert_eq!(sys.kernel.fat_cache().dirty_blocks(), 0);
    assert_eq!(sys.kernel.root_cache().dirty_blocks(), 0);
}

#[test]
fn ordered_writeback_survives_a_power_cut_mid_kbio_drain() {
    // The end-to-end version of the ordering guarantee: a power cut while
    // the background flusher is half-way through draining a freshly written
    // file must leave the card showing the old tree — never a dirent whose
    // clusters were still queued behind it.
    let mut sys = ProtoSystem::desktop().unwrap();
    let writer = sys.kernel.spawn_bench_task("writer").unwrap();
    sys.kernel
        .with_task_ctx(writer, |ctx| {
            let fd = ctx.open("/d/cut.bin", OpenFlags::wronly_create())?;
            ctx.write(fd, &vec![0x3Cu8; 96 * 1024])?;
            ctx.close(fd) // kbio will drain it
        })
        .unwrap();
    let dirty = sys.kernel.fat_cache().dirty_blocks();
    assert!(dirty > 0, "close deferred the write-back to kbio");
    // Die 40 blocks into the drain: mid-CMD25, inside the data clusters.
    sys.kernel.sd_power_cut_after(40);
    sys.run_ms(100);
    let log = sys.kernel.console_log();
    assert!(
        log.contains("kbio: FAT write-back failed"),
        "the torn write-back is reported: {log}"
    );
    // Remount what actually persisted: the file must be absent (old tree),
    // and the mount itself must succeed.
    sys.kernel.sd_power_restore();
    let total = sys.kernel.board.sdhost.total_blocks();
    {
        let mut fresh = BufCache::default();
        let mut dev = SdBlockDevice::new(
            &mut sys.kernel.board.sdhost,
            FAT_PARTITION_START,
            total - FAT_PARTITION_START,
        );
        let fat = Fat32::mount(&mut dev, &mut fresh).unwrap();
        assert!(
            matches!(
                fat.lookup(&mut dev, &mut fresh, "/cut.bin"),
                Err(protofs::FsError::NotFound(_))
            ),
            "a half-drained file must not be visible on the card"
        );
    }
    // Power is back: the retained dirty blocks drain and the file lands.
    let drained = sys
        .kernel
        .run_until(|k| k.fat_cache().dirty_blocks() == 0, 10_000_000);
    assert!(drained, "kbio finished the job after power returned");
    assert_eq!(
        sys.kernel.fat_cache_stats().forced_meta_writes,
        0,
        "the drain never bypassed its ordering edges"
    );
    let mut fresh = BufCache::default();
    let mut dev = SdBlockDevice::new(
        &mut sys.kernel.board.sdhost,
        FAT_PARTITION_START,
        total - FAT_PARTITION_START,
    );
    let fat = Fat32::mount(&mut dev, &mut fresh).unwrap();
    assert_eq!(
        fat.read_file(&mut dev, &mut fresh, "/cut.bin").unwrap(),
        vec![0x3Cu8; 96 * 1024]
    );
}

#[test]
fn dma_completions_route_through_the_irq_handler_to_the_flusher() {
    // End to end: a deferred close leaves dirty extents; kbio *submits*
    // scatter-gather chains and returns; the chains complete on the device
    // timeline and their Interrupt::Dma0 completions are routed back into
    // the cache (for years this handler silently discarded them) — only
    // then does dirty reach zero and the data the card.
    let mut sys = ProtoSystem::desktop().unwrap();
    assert!(sys.kernel.config.sd_dma, "desktop runs the DMA data path");
    let writer = sys.kernel.spawn_bench_task("writer").unwrap();
    sys.kernel
        .with_task_ctx(writer, |ctx| {
            let fd = ctx.open("/d/irq.bin", OpenFlags::wronly_create())?;
            ctx.write(fd, &vec![0xB7u8; 64 * 1024])?;
            ctx.close(fd)
        })
        .unwrap();
    assert!(
        sys.kernel.fat_cache().dirty_blocks() > 0,
        "close deferred to kbio"
    );
    let dma_before = sys.kernel.board.sdhost.dma_cmds();
    let drained = sys
        .kernel
        .run_until(|k| k.fat_cache().dirty_blocks() == 0, 10_000_000);
    assert!(drained, "kbio drained through the async queue");
    assert!(
        sys.kernel.board.sdhost.dma_cmds() > dma_before,
        "the background drain moved by DMA chains, not polled commands"
    );
    assert_eq!(
        sys.kernel.board.sdhost.queue_len(),
        0,
        "every chain was reaped"
    );
    let total = sys.kernel.board.sdhost.total_blocks();
    let mut fresh = BufCache::default();
    let mut dev = SdBlockDevice::new(
        &mut sys.kernel.board.sdhost,
        FAT_PARTITION_START,
        total - FAT_PARTITION_START,
    );
    let fat = Fat32::mount(&mut dev, &mut fresh).unwrap();
    assert_eq!(
        fat.read_file(&mut dev, &mut fresh, "/irq.bin").unwrap(),
        vec![0xB7u8; 64 * 1024]
    );
}

#[test]
fn kbio_interval_tracks_the_dirty_ratio() {
    let mut sys = ProtoSystem::desktop().unwrap();
    let base = sys.kernel.config.flush_interval_ms;
    // Both caches clean (drain whatever boot left behind): sleep long.
    sys.kernel.sync_all().unwrap();
    assert_eq!(sys.kernel.kbio_next_interval_ms(), base * 4);
    // Push the FAT cache past the high-water mark: wake early.
    let writer = sys.kernel.spawn_bench_task("writer").unwrap();
    sys.kernel
        .with_task_ctx(writer, |ctx| {
            let fd = ctx.open("/d/hw.bin", OpenFlags::wronly_create())?;
            // 384 KB dirties ~75% of the 512 KB cache.
            ctx.write(fd, &vec![0x42u8; 384 * 1024])?;
            ctx.close(fd)
        })
        .unwrap();
    assert!(sys.kernel.cache_dirty_ratio() >= kernel::kernel::KBIO_HIGH_WATER);
    assert_eq!(sys.kernel.kbio_next_interval_ms(), (base / 4).max(1));
    // Drain to quiescence: the long interval returns.
    let drained = sys
        .kernel
        .run_until(|k| k.fat_cache().dirty_blocks() == 0, 20_000_000);
    assert!(drained);
    sys.kernel.sync_all().unwrap();
    assert_eq!(sys.kernel.kbio_next_interval_ms(), base * 4);
}

#[test]
fn group_commit_defers_logged_txns_until_fsync_forces_them() {
    let mut sys = ProtoSystem::desktop().unwrap();
    assert!(sys.kernel.config.group_commit_ops > 1);
    let writer = sys.kernel.spawn_bench_task("writer").unwrap();
    // Pre-create two files with contents so the burst writes below are
    // *logged overwrites*, then reach a clean durable baseline.
    sys.kernel
        .with_task_ctx(writer, |ctx| {
            for i in 0..2 {
                let fd = ctx.open(&format!("/d/gc{i}.bin"), OpenFlags::wronly_create())?;
                ctx.write(fd, b"old contents")?;
                ctx.close(fd)?;
            }
            Ok::<(), kernel::KernelError>(())
        })
        .unwrap();
    sys.kernel.sync_all().unwrap();
    let commits_before = sys.kernel.fat_cache_stats().log_commits;
    // Two logged overwrites: both fold into the open commit group — no
    // commit record yet, nothing durable, the old contents still own the
    // card.
    let mut fd_keep = 0;
    sys.kernel
        .with_task_ctx(writer, |ctx| {
            for i in 0..2 {
                let fd = ctx.open(&format!("/d/gc{i}.bin"), OpenFlags::wronly_create())?;
                ctx.write(fd, b"new contents!")?;
                fd_keep = fd;
            }
            Ok::<(), kernel::KernelError>(())
        })
        .unwrap();
    assert_eq!(
        sys.kernel.fat_group_txns(),
        2,
        "both txns pend in the group"
    );
    assert_eq!(sys.kernel.fat_cache_stats().log_commits, commits_before);
    let total = sys.kernel.board.sdhost.total_blocks();
    {
        let mut fresh = BufCache::default();
        let mut dev = SdBlockDevice::new(
            &mut sys.kernel.board.sdhost,
            FAT_PARTITION_START,
            total - FAT_PARTITION_START,
        );
        let fat = Fat32::mount(&mut dev, &mut fresh).unwrap();
        assert_eq!(
            fat.read_file(&mut dev, &mut fresh, "/gc0.bin").unwrap(),
            b"old contents",
            "a cut before the group commits yields the old tree"
        );
    }
    // fsync is a durability barrier: it forces the pending group's single
    // commit record out before the cache flush.
    sys.kernel
        .with_task_ctx(writer, |ctx| ctx.fsync(fd_keep))
        .unwrap();
    assert_eq!(sys.kernel.fat_group_txns(), 0);
    assert_eq!(
        sys.kernel.fat_cache_stats().log_commits,
        commits_before + 1,
        "one record covered both transactions"
    );
    let mut fresh = BufCache::default();
    let mut dev = SdBlockDevice::new(
        &mut sys.kernel.board.sdhost,
        FAT_PARTITION_START,
        total - FAT_PARTITION_START,
    );
    let fat = Fat32::mount(&mut dev, &mut fresh).unwrap();
    for i in 0..2 {
        assert_eq!(
            fat.read_file(&mut dev, &mut fresh, &format!("/gc{i}.bin"))
                .unwrap(),
            b"new contents!"
        );
    }
}

#[test]
fn kbio_commits_a_pending_group_after_the_timeout() {
    let mut sys = ProtoSystem::desktop().unwrap();
    let timeout_ms = sys.kernel.config.group_commit_timeout_ms;
    assert!(timeout_ms > 0);
    let writer = sys.kernel.spawn_bench_task("writer").unwrap();
    sys.kernel
        .with_task_ctx(writer, |ctx| {
            let fd = ctx.open("/d/lone.bin", OpenFlags::wronly_create())?;
            ctx.write(fd, b"v1")?;
            ctx.close(fd)?;
            Ok::<(), kernel::KernelError>(())
        })
        .unwrap();
    sys.kernel.sync_all().unwrap();
    // One lone logged overwrite, then silence: no burst closes the group
    // and nobody calls fsync. The flusher's timeout pass must commit it
    // within a bounded window.
    sys.kernel
        .with_task_ctx(writer, |ctx| {
            let fd = ctx.open("/d/lone.bin", OpenFlags::wronly_create())?;
            ctx.write(fd, b"v2 committed by kbio")?;
            Ok::<(), kernel::KernelError>(())
        })
        .unwrap();
    assert_eq!(sys.kernel.fat_group_txns(), 1);
    let committed = sys
        .kernel
        .run_until(|k| k.fat_group_txns() == 0, (timeout_ms + 500) * 1000);
    assert!(
        committed,
        "the flusher force-committed the lone transaction"
    );
    let drained = sys
        .kernel
        .run_until(|k| k.fat_cache().dirty_blocks() == 0, 10_000_000);
    assert!(drained);
    let total = sys.kernel.board.sdhost.total_blocks();
    let mut fresh = BufCache::default();
    let mut dev = SdBlockDevice::new(
        &mut sys.kernel.board.sdhost,
        FAT_PARTITION_START,
        total - FAT_PARTITION_START,
    );
    let fat = Fat32::mount(&mut dev, &mut fresh).unwrap();
    assert_eq!(
        fat.read_file(&mut dev, &mut fresh, "/lone.bin").unwrap(),
        b"v2 committed by kbio"
    );
}

#[test]
fn eviction_write_back_keeps_the_queue_deep_under_cache_pressure() {
    let mut sys = ProtoSystem::desktop().unwrap();
    let writer = sys.kernel.spawn_bench_task("writer").unwrap();
    // Snapshot the occupancy histogram so boot-time install traffic (which
    // also drives the queue deep) cannot satisfy the depth assertions.
    let occupancy_before = sys.kernel.fat_cache().queue_occupancy();
    // 2 MB through the 512 KB cache: most blocks move under eviction
    // pressure, and the writer keeps several scatter-gather chains in
    // flight.
    sys.kernel
        .with_task_ctx(writer, |ctx| {
            let fd = ctx.open("/d/deep.bin", OpenFlags::wronly_create())?;
            ctx.write(fd, &vec![0x6Du8; 2 * 1024 * 1024])?;
            ctx.fsync(fd)?;
            ctx.close(fd)
        })
        .unwrap();
    let occupancy: Vec<u64> = sys
        .kernel
        .fat_cache()
        .queue_occupancy()
        .iter()
        .zip(occupancy_before.iter())
        .map(|(a, b)| a - b)
        .collect();
    let peak = occupancy.iter().rposition(|&c| c > 0).unwrap_or(0);
    assert!(
        peak >= 4,
        "this run's submissions peaked at queue depth {peak} — the write \
         path never went deep: {occupancy:?}"
    );
    let stats = sys.kernel.fat_cache_stats();
    assert!(
        stats.batched_evictions > 0,
        "evictions used the batched path"
    );
    // The data is durable and intact on a raw remount.
    let total = sys.kernel.board.sdhost.total_blocks();
    let mut fresh = BufCache::default();
    let mut dev = SdBlockDevice::new(
        &mut sys.kernel.board.sdhost,
        FAT_PARTITION_START,
        total - FAT_PARTITION_START,
    );
    let fat = Fat32::mount(&mut dev, &mut fresh).unwrap();
    assert_eq!(
        fat.read_file(&mut dev, &mut fresh, "/deep.bin").unwrap(),
        vec![0x6Du8; 2 * 1024 * 1024]
    );
}

#[test]
fn without_the_flusher_close_drains_synchronously_and_bills_the_writer() {
    let mut sys = ProtoSystem::desktop().unwrap();
    // The ablation switch: revert to PR-1 close-flush semantics.
    sys.kernel.set_background_flush(false);
    let writer = sys.kernel.spawn_bench_task("writer").unwrap();
    sys.kernel
        .with_task_ctx(writer, |ctx| {
            let fd = ctx.open("/d/sync.bin", OpenFlags::wronly_create())?;
            ctx.write(fd, &vec![0x11u8; 96 * 1024])?;
            ctx.close(fd)
        })
        .unwrap();
    assert_eq!(
        sys.kernel.fat_cache().dirty_blocks(),
        0,
        "close flushed synchronously"
    );
    assert!(
        sys.kernel.task_sd_cycles(writer) > 0,
        "the write-back spike is billed to the closing task"
    );
}

#[test]
fn cache_geometry_change_keeps_the_runtime_cache_policy() {
    let mut sys = ProtoSystem::desktop().unwrap();
    // The polled data path, where coalescing decides the command shape.
    sys.kernel.set_sd_dma(false);
    sys.kernel.set_fat_range_coalescing(false);
    sys.kernel.set_fat_cache_geometry(16, 128).unwrap();
    assert!(!sys.kernel.fat_cache().coalescing());
    let reader = sys.kernel.spawn_bench_task("reader").unwrap();
    let sd = &sys.kernel.board.sdhost;
    let (singles, ranges, blocks) = (
        sd.single_block_cmds(),
        sd.range_cmds(),
        sd.blocks_transferred(),
    );
    let bytes = sys
        .kernel
        .with_task_ctx(reader, |ctx| {
            let fd = ctx.open("/d/doom.wad", OpenFlags::rdonly())?;
            let data = ctx.read(fd, 256 * 1024)?;
            ctx.close(fd)?;
            Ok::<usize, kernel::KernelError>(data.len())
        })
        .unwrap();
    assert_eq!(bytes, 256 * 1024);
    let sd = &sys.kernel.board.sdhost;
    let blocks = sd.blocks_transferred() - blocks;
    assert!(blocks >= 512, "the read went to the card: {blocks} blocks");
    assert_eq!(sd.range_cmds(), ranges, "no range command after reshaping");
    assert_eq!(
        sd.single_block_cmds() - singles,
        blocks,
        "one command per block"
    );
}

#[test]
fn the_booted_xv6_baseline_runs_the_baseline_storage_policy() {
    let mut sys = ProtoSystem::build(SystemOptions {
        variant: KernelVariant::Xv6Baseline,
        ..SystemOptions::default()
    })
    .unwrap();
    let k = &sys.kernel;
    for bc in [k.fat_cache(), k.root_cache()] {
        assert!(!bc.coalescing(), "one SD command per block");
        assert!(!bc.ordered_writeback(), "pure-LBA drain");
        assert!(!bc.prefetch_enabled(), "no read-ahead");
    }
    assert!(!k.config.prefetch);
    assert_eq!(k.board.sdhost.data_mode(), SdDataMode::Pio);
    assert_eq!(k.kbio_task(), 0, "no background flusher");
    // Logged metadata operations on both volumes write no log: the FAT
    // intent log and the xv6fs journal are off.
    let (fat_txns, root_txns) = (k.fat_cache_stats().log_txns, k.root_cache_stats().log_txns);
    let tid = sys.kernel.spawn_bench_task("meta").unwrap();
    sys.kernel
        .with_task_ctx(tid, |ctx| {
            for dir in ["/d/base", "/base"] {
                ctx.mkdir(dir)?;
                for _ in 0..2 {
                    let fd = ctx.open(&format!("{dir}/f"), OpenFlags::wronly_create())?;
                    ctx.write(fd, b"overwritten")?;
                    ctx.close(fd)?;
                }
                ctx.unlink(&format!("{dir}/f"))?;
            }
            Ok::<(), kernel::KernelError>(())
        })
        .unwrap();
    assert_eq!(sys.kernel.fat_cache_stats().log_txns, fat_txns);
    assert_eq!(sys.kernel.root_cache_stats().log_txns, root_txns);
}
