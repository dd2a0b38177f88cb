//! Ablation of the §5.2 optimisations and the I/O pipeline above the
//! unified block cache: SIMD pixel conversion, the FAT32 range-coalescing
//! buffer-cache policy (the successor of the old cache-bypass hack), the
//! streaming-prefetch policy, and the `kbio` background write-back flusher.
//!
//! Besides the console table, the filesystem half writes a machine-readable
//! `BENCH_fs.json` at the repository root (hits, misses, coalesced ranges,
//! prefetch commands, modeled MB/s per policy, plus the flusher-on/off cost
//! attribution) so later PRs — and the CI bench-smoke job — can track the
//! storage-stack perf trajectory.

use std::path::Path;

use bench::report;
use bench::storagescale::{self, StorageScalePoint};
use hal::cost::Platform;
use kernel::vfs::OpenFlags;
use proto::prototype::{ProtoSystem, SystemOptions};
use serde::Serialize;

/// One FAT32 read-workload run under a given cache policy.
#[derive(Debug, Clone, Serialize)]
struct FsRun {
    /// Range coalescing enabled?
    coalescing: bool,
    /// Streaming prefetch enabled?
    prefetch: bool,
    /// SD DMA data path (scatter-gather chains + async command queue)?
    dma: bool,
    /// Bytes read from `/d/doom.wad`.
    bytes: u64,
    /// Modeled wall-clock for the read loop, in ms (measured on the reading
    /// task's core so other cores' clocks cannot skew the window).
    ms: f64,
    /// Modeled throughput in MB/s.
    mb_s: f64,
    /// Buffer-cache hits (blocks served from cache).
    hits: u64,
    /// Buffer-cache misses (blocks fetched from the card).
    misses: u64,
    /// Multi-block SD commands the cache issued.
    coalesced_ranges: u64,
    /// Single-block SD commands the cache issued.
    single_cmds: u64,
    /// SD commands issued speculatively by the prefetcher (their setup
    /// latency overlaps the previous transfer in the cost model).
    prefetch_cmds: u64,
    /// Blocks brought in ahead of demand.
    prefetched_blocks: u64,
    /// Demand reads that waited on an in-flight prefetch chain instead of
    /// re-issuing it — the DMA pipeline's transfer/compute overlap at work.
    demand_waits: u64,
}

/// One write+close workload under a given flusher policy.
#[derive(Debug, Clone, Serialize)]
struct FlushRun {
    /// Background `kbio` flusher active?
    background_flush: bool,
    /// Bytes written to `/d/spike.bin`.
    bytes: u64,
    /// Modeled latency of the `close()` call itself, in ms — the write-back
    /// spike the flusher exists to remove from the task's critical path.
    close_ms: f64,
    /// Storage cycles billed to the writing task (demand I/O plus, without
    /// the flusher, the close-time write-back).
    writer_sd_cycles: u64,
    /// Storage cycles billed to the `kbio` flusher thread.
    kbio_sd_cycles: u64,
    /// Dirty blocks still cached right after `close` returned.
    dirty_after_close: u64,
}

/// One sequential-write workload under a given write-back ordering policy.
#[derive(Debug, Clone, Serialize)]
struct OrderedRun {
    /// Dependency-ordered draining active?
    ordered: bool,
    /// Bytes written (then fsync'd) to `/d/seq.bin`.
    bytes: u64,
    /// Modeled wall-clock of write + fsync, in ms.
    ms: f64,
    /// Modeled sequential-write throughput in MB/s.
    mb_s: f64,
}

/// The ordered-write-back cost pair: the crash-consistency ordering pass
/// must stay within a few percent of the unordered drain.
#[derive(Debug, Clone, Serialize)]
struct OrderedWriteback {
    on: OrderedRun,
    off: OrderedRun,
    /// Throughput cost of ordering, in percent (negative = free).
    overhead_pct: f64,
}

/// One sequential write+fsync workload on the batched write path: under
/// cache pressure, dirty runs gather into multi-control-block chains kept
/// up to queue depth in flight.
#[derive(Debug, Clone, Serialize)]
struct BatchedWbRun {
    /// Posted write cache on the card? When true, completed writes park in
    /// volatile card RAM and only the fsync's FLUSH barrier (plus the
    /// intent log's FUA commit records) makes them durable — the barrier
    /// cost the CI gate holds within 5% of the write-through run.
    posted: bool,
    /// Bytes written (then fsync'd) to the FAT volume.
    bytes: u64,
    /// Modeled wall-clock of write + fsync + close, in ms.
    ms: f64,
    /// Modeled sequential write+fsync throughput in MB/s.
    mb_s: f64,
    /// DMA chains the workload submitted (fewer, larger chains = the win).
    dma_cmds: u64,
    /// Times the writer found the queue full and had to spin-reap.
    queue_full_stalls: u64,
    /// Deepest queue occupancy a submission of *this run* observed (derived
    /// from the occupancy-histogram delta, so boot-time traffic cannot
    /// inflate it).
    queue_high_water: usize,
    /// Queue-occupancy histogram sampled after each write-chain submission
    /// (index = commands in flight, last bucket clamps).
    queue_occupancy: Vec<u64>,
}

/// A burst of 64 logged metadata transactions (small-file overwrites — each
/// one an intent-log transaction) under a given group-commit size.
#[derive(Debug, Clone, Serialize)]
struct GroupCommitRun {
    /// Transactions per commit record (1 = the PR 3 per-op commit).
    group_commit_ops: u32,
    /// Logged metadata transactions the burst performed.
    meta_ops: u64,
    /// Intent-log commit records written — each is one checksummed commit
    /// flush plus a home drain and a header clear.
    commit_flushes: u64,
    /// Modeled wall-clock of the burst (including the closing sync), in ms.
    ms: f64,
}

/// A burst of metadata operations (create + data write + unlink triples)
/// on the root xv6fs ramdisk volume, with the write-ahead metadata journal
/// on or off. Both arms durably commit every transaction (the unjournaled
/// path falls back to a full cache flush per operation), so the delta is
/// the pure journal tax: writing each touched sector to the log — payload,
/// checksummed header, FUA header clear — before it drains home.
#[derive(Debug, Clone, Serialize)]
struct JournalRun {
    /// Write-ahead metadata journal enabled?
    journal: bool,
    /// Journaled transactions the burst committed (0 with the journal off).
    log_txns: u64,
    /// Journal commit records written (0 with the journal off).
    log_commits: u64,
    /// Blocks drained home to the ramdisk by the cache during the burst.
    /// The journal arm's extra writes (log payload, checksummed header,
    /// FUA header clear) go straight to the device at commit time and are
    /// deliberately not counted here — `log_commits` tracks them.
    writebacks: u64,
    /// Metadata operations in the burst.
    meta_ops: u64,
    /// Modeled wall-clock of the burst (including the closing sync), in ms.
    ms: f64,
    /// Metadata operations per second.
    ops_per_s: f64,
}

/// Video-conversion ablation results (the §5.2 SIMD-vs-scalar gap).
#[derive(Debug, Clone, Serialize)]
struct VideoRun {
    simd_fps: f64,
    scalar_fps: f64,
    speedup: f64,
    /// The gap measured before the cost-model rebalance of the decode /
    /// conversion split (decode used to dominate the modeled frame and
    /// flattened the ablation; the paper reports ~3x).
    speedup_before_rebalance: f64,
}

/// The `BENCH_fs.json` payload.
#[derive(Debug, Serialize)]
struct BenchFs {
    workload: String,
    coalesced: FsRun,
    single_block: FsRun,
    prefetch_on: FsRun,
    prefetch_off: FsRun,
    /// The full storage pipeline: DMA scatter-gather data path + async
    /// command queue + coalescing + prefetch.
    dma_on: FsRun,
    /// Same pipeline with the polled data phase (the pre-DMA default; the
    /// 1.09 MB/s floor PR 2 measured).
    dma_off: FsRun,
    /// DMA with prefetch disabled: what the async queue buys without
    /// read-ahead overlapping the transfers.
    dma_prefetch_off: FsRun,
    flusher_on: FlushRun,
    flusher_off: FlushRun,
    ordered_writeback: OrderedWriteback,
    /// Deep-queue batched write-back on a write-through card.
    batched_wb_on: BatchedWbRun,
    /// The batched write path on a posted-write-cache card: completed
    /// writes park in volatile card RAM, and durability comes only from
    /// the fsync's FLUSH barrier plus the intent log's FUA commit records.
    /// The CI gate holds this within 5% of `batched_wb_on`.
    posted_cache_barrier: BatchedWbRun,
    /// Group-committed intent log vs per-operation commits.
    group_commit_on: GroupCommitRun,
    group_commit_off: GroupCommitRun,
    /// xv6fs metadata burst with the write-ahead journal on / off — the
    /// price of making create/unlink/overwrite atomic under power cuts.
    xv6fs_journal_on: JournalRun,
    xv6fs_journal_off: JournalRun,
    /// The per-core block stack's N-cores × N-streams sweep: four concurrent
    /// stream readers (blocking demand I/O, core-affine shards, per-core
    /// reaping) at 1, 2 and 4 active cores.
    multicore_scaling: Vec<StorageScalePoint>,
    video: VideoRun,
    speedup: f64,
    /// Read-ahead gain *under DMA* (dma_prefetch_off.ms / dma_on.ms): with
    /// the data phase off the CPU, transfer overlap finally matters.
    prefetch_gain: f64,
    /// Read-ahead gain on the polled path (the PR 2 honest finding: ~1.0x,
    /// because the polled per-block transfer was the floor).
    pio_prefetch_gain: f64,
    /// dma_on over dma_off: what the DMA data path + queue buy end to end.
    dma_speedup: f64,
    /// Throughput cost of the posted-cache FLUSH/FUA barriers, in percent
    /// of `batched_wb_on` (negative = free). Acceptance bar: < 5%.
    posted_barrier_overhead_pct: f64,
    /// Wall-clock cost of the xv6fs journal on the metadata burst, in
    /// percent — the double-write tax for crash-atomic metadata.
    xv6fs_journal_overhead_pct: f64,
    /// Commit flushes saved by group commit on the 64-op metadata burst
    /// (off / on).
    group_commit_reduction: f64,
}

fn fs_run(coalesce: bool, prefetch: bool, dma: bool) -> FsRun {
    let mut options = SystemOptions::benchmark(Platform::Pi3);
    options.window_manager = false;
    let mut sys = ProtoSystem::build(options).expect("system");
    sys.kernel.set_fat_range_coalescing(coalesce);
    sys.kernel.set_fat_prefetch(prefetch);
    sys.kernel.set_sd_dma(dma);
    let tid = sys.kernel.spawn_bench_task("reader").expect("task");
    let core = sys.kernel.task(tid).expect("task exists").core;
    let cache_before = sys.kernel.fat_cache_stats();
    let before = sys.kernel.board.clock.cycles(core);
    let mut bytes = 0u64;
    sys.kernel
        .with_task_ctx(tid, |ctx| {
            let fd = ctx.open("/d/doom.wad", OpenFlags::rdonly())?;
            loop {
                let chunk = ctx.read(fd, 128 * 1024)?;
                if chunk.is_empty() {
                    break;
                }
                bytes += chunk.len() as u64;
            }
            ctx.close(fd)
        })
        .expect("read wad");
    let after = sys.kernel.board.clock.cycles(core);
    let cache = sys.kernel.fat_cache_stats();
    let ms = (after - before) as f64 / 1e6;
    FsRun {
        coalescing: coalesce,
        prefetch,
        dma,
        bytes,
        ms,
        mb_s: if ms > 0.0 {
            bytes as f64 / 1e6 / (ms / 1e3)
        } else {
            0.0
        },
        hits: cache.hits - cache_before.hits,
        misses: cache.misses - cache_before.misses,
        coalesced_ranges: cache.coalesced_ranges - cache_before.coalesced_ranges,
        single_cmds: cache.single_cmds - cache_before.single_cmds,
        prefetch_cmds: cache.prefetch_cmds - cache_before.prefetch_cmds,
        prefetched_blocks: cache.prefetched_blocks - cache_before.prefetched_blocks,
        demand_waits: cache.demand_waits - cache_before.demand_waits,
    }
}

fn flush_run(background: bool) -> FlushRun {
    // Small assets: this workload only needs an empty FAT volume.
    let mut options = SystemOptions::benchmark(Platform::Pi3);
    options.window_manager = false;
    options.small_assets = true;
    let mut sys = ProtoSystem::build(options).expect("system");
    sys.kernel.set_background_flush(background);
    let tid = sys.kernel.spawn_bench_task("writer").expect("task");
    let core = sys.kernel.task(tid).expect("task exists").core;
    // 96 KB stays within the cache, so all write-back is deferred work.
    let data = vec![0xA5u8; 96 * 1024];
    let mut fd = 0;
    sys.kernel
        .with_task_ctx(tid, |ctx| {
            fd = ctx.open("/d/spike.bin", OpenFlags::wronly_create())?;
            ctx.write(fd, &data).map(|_| ())
        })
        .expect("write spike");
    // Measure the close on the writer's own core so other cores' clocks
    // cannot skew the window.
    let before = sys.kernel.board.clock.cycles(core);
    sys.kernel
        .with_task_ctx(tid, |ctx| ctx.close(fd))
        .expect("close spike");
    let close_cycles = sys.kernel.board.clock.cycles(core) - before;
    let dirty_after_close = sys.kernel.fat_cache().dirty_blocks() as u64;
    // Let the kbio thread drain to quiescence (a no-op when it flushed
    // synchronously at close).
    sys.kernel
        .run_until(|k| k.fat_cache().dirty_blocks() == 0, 10_000_000);
    FlushRun {
        background_flush: background,
        bytes: data.len() as u64,
        close_ms: close_cycles as f64 / 1e6,
        writer_sd_cycles: sys.kernel.task_sd_cycles(tid),
        kbio_sd_cycles: sys.kernel.task_sd_cycles(sys.kernel.kbio_task()),
        dirty_after_close,
    }
}

fn ordered_run(ordered: bool) -> OrderedRun {
    let mut options = SystemOptions::benchmark(Platform::Pi3);
    options.window_manager = false;
    options.small_assets = true;
    let mut sys = ProtoSystem::build(options).expect("system");
    sys.kernel.set_ordered_writeback(ordered);
    let tid = sys.kernel.spawn_bench_task("writer").expect("task");
    let core = sys.kernel.task(tid).expect("task exists").core;
    // A fresh 2 MB file, written then fsync'd: the fsync forces the full
    // drain, so both policies pay their complete write-back cost inside the
    // measured window.
    let data = vec![0xC3u8; 2 * 1024 * 1024];
    let before = sys.kernel.board.clock.cycles(core);
    sys.kernel
        .with_task_ctx(tid, |ctx| {
            let fd = ctx.open("/d/seq.bin", OpenFlags::wronly_create())?;
            ctx.write(fd, &data)?;
            ctx.fsync(fd)?;
            ctx.close(fd)
        })
        .expect("sequential write");
    let ms = (sys.kernel.board.clock.cycles(core) - before) as f64 / 1e6;
    OrderedRun {
        ordered,
        bytes: data.len() as u64,
        ms,
        mb_s: if ms > 0.0 {
            data.len() as f64 / 1e6 / (ms / 1e3)
        } else {
            0.0
        },
    }
}

fn batched_run(posted: bool) -> BatchedWbRun {
    let mut options = SystemOptions::benchmark(Platform::Pi3);
    options.window_manager = false;
    options.small_assets = true;
    let mut sys = ProtoSystem::build(options).expect("system");
    sys.kernel.set_posted_write_cache(posted);
    let tid = sys.kernel.spawn_bench_task("writer").expect("task");
    let core = sys.kernel.task(tid).expect("task exists").core;
    let cache_before = sys.kernel.fat_cache_stats();
    let occupancy_before = sys.kernel.fat_cache().queue_occupancy();
    let dma_before = sys.kernel.board.sdhost.dma_cmds();
    // 2 MB through the 512 KB cache: ~3/4 of the blocks move under cache
    // pressure (the eviction path), the rest at the fsync barrier — exactly
    // the mix the batching exists for.
    let data = vec![0xC3u8; 2 * 1024 * 1024];
    let before = sys.kernel.board.clock.cycles(core);
    sys.kernel
        .with_task_ctx(tid, |ctx| {
            let fd = ctx.open("/d/batch.bin", OpenFlags::wronly_create())?;
            ctx.write(fd, &data)?;
            ctx.fsync(fd)?;
            ctx.close(fd)
        })
        .expect("sequential write");
    let ms = (sys.kernel.board.clock.cycles(core) - before) as f64 / 1e6;
    let cache = sys.kernel.fat_cache_stats();
    let queue_occupancy: Vec<u64> = sys
        .kernel
        .fat_cache()
        .queue_occupancy()
        .iter()
        .zip(occupancy_before.iter())
        .map(|(a, b)| a - b)
        .collect();
    let queue_high_water = queue_occupancy.iter().rposition(|&c| c > 0).unwrap_or(0);
    BatchedWbRun {
        posted,
        bytes: data.len() as u64,
        ms,
        mb_s: if ms > 0.0 {
            data.len() as f64 / 1e6 / (ms / 1e3)
        } else {
            0.0
        },
        dma_cmds: sys.kernel.board.sdhost.dma_cmds() - dma_before,
        queue_full_stalls: cache.queue_full_stalls - cache_before.queue_full_stalls,
        queue_high_water,
        queue_occupancy,
    }
}

fn xv6fs_journal_run(journal: bool) -> JournalRun {
    let mut options = SystemOptions::benchmark(Platform::Pi3);
    options.window_manager = false;
    options.small_assets = true;
    let mut sys = ProtoSystem::build(options).expect("system");
    sys.kernel.set_xv6fs_journal(journal);
    let tid = sys.kernel.spawn_bench_task("meta").expect("task");
    let core = sys.kernel.task(tid).expect("task exists").core;
    let stats_before = sys.kernel.root_cache_stats();
    let before = sys.kernel.board.clock.cycles(core);
    // 32 create + write + unlink triples on the root (xv6fs) ramdisk —
    // exactly the operations the journal makes atomic. Each create and
    // unlink is its own committed transaction; the data write rides the
    // write-back cache in both arms.
    const FILES: u32 = 32;
    sys.kernel
        .with_task_ctx(tid, |ctx| {
            for i in 0..FILES {
                let path = format!("/j{i}.bin");
                let fd = ctx.open(&path, OpenFlags::wronly_create())?;
                ctx.write(fd, &[0x5Au8; 2048])?;
                ctx.close(fd)?;
                ctx.unlink(&path)?;
            }
            Ok::<(), kernel::KernelError>(())
        })
        .expect("metadata burst");
    sys.kernel.sync_all().expect("sync");
    let ms = (sys.kernel.board.clock.cycles(core) - before) as f64 / 1e6;
    let stats = sys.kernel.root_cache_stats();
    let meta_ops = FILES as u64 * 3;
    JournalRun {
        journal,
        log_txns: stats.log_txns - stats_before.log_txns,
        log_commits: stats.log_commits - stats_before.log_commits,
        writebacks: stats.writebacks - stats_before.writebacks,
        meta_ops,
        ms,
        ops_per_s: if ms > 0.0 {
            meta_ops as f64 / (ms / 1e3)
        } else {
            0.0
        },
    }
}

fn group_commit_run(ops: u32) -> GroupCommitRun {
    let mut options = SystemOptions::benchmark(Platform::Pi3);
    options.window_manager = false;
    options.small_assets = true;
    let mut sys = ProtoSystem::build(options).expect("system");
    sys.kernel.set_group_commit_ops(ops);
    let tid = sys.kernel.spawn_bench_task("meta").expect("task");
    let core = sys.kernel.task(tid).expect("task exists").core;
    // Pre-create 8 files with contents so every burst write below is an
    // *overwrite* — a logged intent-log transaction.
    sys.kernel
        .with_task_ctx(tid, |ctx| {
            for i in 0..8 {
                let fd = ctx.open(&format!("/d/m{i}.bin"), OpenFlags::wronly_create())?;
                ctx.write(fd, &[0x11u8; 4096])?;
                ctx.close(fd)?;
            }
            Ok::<(), kernel::KernelError>(())
        })
        .expect("precreate");
    sys.kernel.sync_all().expect("sync");
    let cache_before = sys.kernel.fat_cache_stats();
    let before = sys.kernel.board.clock.cycles(core);
    sys.kernel
        .with_task_ctx(tid, |ctx| {
            for n in 0..64u32 {
                let i = n % 8;
                let fd = ctx.open(&format!("/d/m{i}.bin"), OpenFlags::wronly_create())?;
                ctx.write(fd, &vec![(n % 251) as u8 + 1; 4096])?;
                ctx.close(fd)?;
            }
            Ok::<(), kernel::KernelError>(())
        })
        .expect("metadata burst");
    // Close the tail group so the measured window pays every commit it owes.
    sys.kernel.sync_all().expect("sync");
    let ms = (sys.kernel.board.clock.cycles(core) - before) as f64 / 1e6;
    let cache = sys.kernel.fat_cache_stats();
    GroupCommitRun {
        group_commit_ops: ops,
        meta_ops: cache.log_txns - cache_before.log_txns,
        commit_flushes: cache.log_commits - cache_before.log_commits,
        ms,
    }
}

fn main() {
    println!("Ablation — §5.2 performance optimisations + I/O pipeline\n");
    // 1. Video playback with SIMD vs scalar YUV conversion.
    let fps = |scalar: bool| {
        let mut options = SystemOptions::benchmark(Platform::Pi3);
        options.window_manager = false;
        let mut sys = ProtoSystem::build(options).expect("system");
        let mut args = vec!["/d/video480.mpg".to_string()];
        if scalar {
            args.push("0".into());
            args.push("scalar".into());
        }
        let tid = sys.spawn("videoplayer", &args).expect("spawn");
        // Full-size assets: loading the stream from the SD card takes tens
        // of seconds of *board* time before the first frame, so run until
        // the whole stream has played rather than for a fixed window.
        sys.kernel.run_until(
            |k| k.task(tid).map(|t| t.is_zombie()).unwrap_or(true),
            240_000_000,
        );
        sys.fps_of(tid)
    };
    let simd = fps(false);
    let scalar = fps(true);
    let video = VideoRun {
        simd_fps: simd,
        scalar_fps: scalar,
        speedup: simd / scalar.max(0.01),
        // Measured with the pre-rebalance cost split (decode-dominated):
        // 21.3 vs 18.8 FPS.
        speedup_before_rebalance: 1.13,
    };
    println!(
        "video 480p playback : SIMD convert {simd:.1} FPS vs scalar {scalar:.1} FPS ({:.1}x)  (paper: ~3x; was {:.1}x before the cost rebalance)",
        video.speedup, video.speedup_before_rebalance
    );

    // 2. FAT32 large-file read latency across the storage-stack policies:
    // range coalescing on/off, streaming prefetch, and the DMA data path
    // with its async command queue (the polled-transfer-floor lift).
    let ranged = fs_run(true, false, false);
    let single = fs_run(false, false, false);
    let prefetch = fs_run(true, true, false);
    let dma_on = fs_run(true, true, true);
    let dma_prefetch_off = fs_run(true, false, true);
    let dma_off = prefetch.clone();
    let speedup = single.ms / ranged.ms.max(0.01);
    let pio_prefetch_gain = ranged.ms / prefetch.ms.max(0.01);
    let prefetch_gain = dma_prefetch_off.ms / dma_on.ms.max(0.01);
    let dma_speedup = dma_off.ms / dma_on.ms.max(0.01);
    println!(
        "DOOM asset load     : range-coalesced {:.0} ms ({:.2} MB/s) vs single-block {:.0} ms ({:.2} MB/s) ({speedup:.1}x)  (paper: 2-3x)",
        ranged.ms, ranged.mb_s, single.ms, single.mb_s
    );
    println!(
        "  + prefetch (PIO)  : {:.0} ms ({:.2} MB/s, {pio_prefetch_gain:.2}x over coalesced) — the polled data phase is the floor",
        prefetch.ms, prefetch.mb_s
    );
    println!(
        "  + DMA + queue     : {:.0} ms ({:.2} MB/s, {dma_speedup:.1}x over polled) — {} chains, {} blocks waited on in-flight read-ahead",
        dma_on.ms, dma_on.mb_s, dma_on.coalesced_ranges, dma_on.demand_waits
    );
    println!(
        "  + DMA no prefetch : {:.0} ms ({:.2} MB/s); read-ahead overlap under DMA = {prefetch_gain:.2}x",
        dma_prefetch_off.ms, dma_prefetch_off.mb_s
    );
    println!(
        "                      cache: {} hits, {} misses, {} range cmds, {} single cmds",
        ranged.hits, ranged.misses, ranged.coalesced_ranges, ranged.single_cmds
    );

    // 3. The background flusher: who pays for deferred write-back.
    let fl_on = flush_run(true);
    let fl_off = flush_run(false);

    // 4. Ordered write-back: what the crash-consistency ordering pass costs
    // on a sequential write (acceptance bar: < 5%).
    let ord_on = ordered_run(true);
    let ord_off = ordered_run(false);
    let overhead_pct = if ord_off.mb_s > 0.0 {
        (ord_off.mb_s - ord_on.mb_s) / ord_off.mb_s * 100.0
    } else {
        0.0
    };
    println!(
        "ordered write-back  : {:.2} MB/s ordered vs {:.2} MB/s LBA-order ({overhead_pct:+.2}% cost for crash consistency)",
        ord_on.mb_s, ord_off.mb_s
    );
    let ordered_writeback = OrderedWriteback {
        on: ord_on,
        off: ord_off,
        overhead_pct,
    };
    println!(
        "write-back flusher  : close() {:.2} ms with kbio (writer {} / kbio {} sd-cycles) vs {:.2} ms synchronous (writer {} sd-cycles)",
        fl_on.close_ms,
        fl_on.writer_sd_cycles,
        fl_on.kbio_sd_cycles,
        fl_off.close_ms,
        fl_off.writer_sd_cycles
    );

    // 5. Deep-queue batched write-back: multi-extent eviction chains on
    // sequential write+fsync.
    let bw_on = batched_run(false);
    println!(
        "batched write-back  : {:.2} MB/s ({} chains, depth {} peak, {} stalls)",
        bw_on.mb_s, bw_on.dma_cmds, bw_on.queue_high_water, bw_on.queue_full_stalls
    );
    println!(
        "                      queue occupancy after submit: {:?}",
        bw_on.queue_occupancy
    );

    // 5b. The same batched write path on a posted-write-cache card: every
    // fsync pays a real FLUSH barrier and every intent-log commit record a
    // FUA program. Acceptance bar: within 5% of the write-through run.
    let posted_barrier = batched_run(true);
    let posted_barrier_overhead_pct = if bw_on.mb_s > 0.0 {
        (bw_on.mb_s - posted_barrier.mb_s) / bw_on.mb_s * 100.0
    } else {
        0.0
    };
    println!(
        "posted-cache barrier: {:.2} MB/s with FLUSH/FUA barriers vs {:.2} MB/s write-through ({posted_barrier_overhead_pct:+.2}% cost for durable barriers)",
        posted_barrier.mb_s, bw_on.mb_s
    );

    // 6. The per-core block stack: four concurrent stream readers at 1, 2
    // and 4 active cores. The cold pass exercises blocking demand reads and
    // per-core reaping; the timed warm passes are CPU-bound, which is where
    // core count can show up as aggregate throughput (the card's line rate
    // itself is a single shared resource).
    let multicore_scaling = storagescale::storage_scaling();
    for p in &multicore_scaling {
        println!(
            "storage scaling     : {} core{} x {} streams: {:.1} MB/s warm ({:.1} ms), cold: {} demand waits, {} parks, {} spin-reaps, {} steals; shard imbalance {:.2}",
            p.cores,
            if p.cores == 1 { " " } else { "s" },
            p.streams,
            p.aggregate_mb_s,
            p.ms,
            p.demand_waits,
            p.demand_blocks,
            p.demand_spin_reaps,
            p.affinity_steals,
            p.shard_imbalance
        );
    }

    // 7. Group-committed intent log: one checksummed commit flush per group
    // of logged metadata transactions instead of one per transaction.
    let gc_on = group_commit_run(8);
    let gc_off = group_commit_run(1);
    let group_commit_reduction =
        gc_off.commit_flushes as f64 / (gc_on.commit_flushes as f64).max(1.0);
    println!(
        "group commit        : {} commit flushes for {} metadata ops (group of 8, {:.0} ms) vs {} flushes per-op ({:.0} ms) = {group_commit_reduction:.1}x fewer",
        gc_on.commit_flushes, gc_on.meta_ops, gc_on.ms, gc_off.commit_flushes, gc_off.ms
    );

    // 8. The xv6fs write-ahead journal: what crash-atomic metadata costs on
    // a create/write/unlink burst against the ramdisk root volume.
    let jr_on = xv6fs_journal_run(true);
    let jr_off = xv6fs_journal_run(false);
    let xv6fs_journal_overhead_pct = if jr_off.ms > 0.0 {
        (jr_on.ms - jr_off.ms) / jr_off.ms * 100.0
    } else {
        0.0
    };
    println!(
        "xv6fs journal       : {} metadata ops in {:.1} ms journaled ({} txns, {} commits, {} writebacks) vs {:.1} ms unjournaled ({} writebacks) = {xv6fs_journal_overhead_pct:+.1}% for crash-atomic metadata",
        jr_on.meta_ops, jr_on.ms, jr_on.log_txns, jr_on.log_commits, jr_on.writebacks, jr_off.ms, jr_off.writebacks
    );

    let bench_fs = BenchFs {
        workload: format!("sequential read of /d/doom.wad ({} bytes)", ranged.bytes),
        coalesced: ranged.clone(),
        single_block: single.clone(),
        prefetch_on: prefetch.clone(),
        prefetch_off: ranged.clone(),
        dma_on: dma_on.clone(),
        dma_off,
        dma_prefetch_off: dma_prefetch_off.clone(),
        flusher_on: fl_on,
        flusher_off: fl_off,
        ordered_writeback,
        batched_wb_on: bw_on.clone(),
        posted_cache_barrier: posted_barrier.clone(),
        group_commit_on: gc_on,
        group_commit_off: gc_off,
        xv6fs_journal_on: jr_on.clone(),
        xv6fs_journal_off: jr_off.clone(),
        multicore_scaling,
        video,
        speedup,
        prefetch_gain,
        pio_prefetch_gain,
        dma_speedup,
        posted_barrier_overhead_pct,
        xv6fs_journal_overhead_pct,
        group_commit_reduction,
    };
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    report::write_json_to(&repo_root.join("BENCH_fs.json"), &bench_fs);

    report::write_json(
        "ablation_opts",
        &vec![
            ("video_simd_fps", simd),
            ("video_scalar_fps", scalar),
            ("fat_read_coalesced_ms", ranged.ms),
            ("fat_read_single_block_ms", single.ms),
            ("fat_read_coalesced_mb_s", ranged.mb_s),
            ("fat_read_single_block_mb_s", single.mb_s),
            ("fat_read_prefetch_mb_s", prefetch.mb_s),
            ("fat_read_dma_mb_s", dma_on.mb_s),
            ("fat_read_dma_no_prefetch_mb_s", dma_prefetch_off.mb_s),
            ("fat_write_batched_mb_s", bw_on.mb_s),
            ("fat_write_posted_barrier_mb_s", posted_barrier.mb_s),
            ("xv6fs_journal_on_ms", jr_on.ms),
            ("xv6fs_journal_off_ms", jr_off.ms),
        ],
    );
}
