//! The N-cores × N-streams storage-scaling bench behind the
//! `multicore_scaling` section of `BENCH_fs.json` (and the storage half of
//! Figure 10): four concurrent stream readers over a sharded, core-affine
//! FAT32 cache, swept across 1/2/4 active cores.
//!
//! Each stream is a real scheduled [`UserProgram`], so the readers go
//! through the whole per-core block stack: demand reads that hit an
//! in-flight chain park on the completion interrupt
//! (`KernelError::WouldBlock` → retry on wake), completions are reaped on
//! the submitting core, and extents land on home-core shards. The run has
//! two phases:
//!
//! * a **cold** pass (untimed): every stream faults its file in from the
//!   card, exercising blocking demand reads, per-core reaping and affinity
//!   placement — the phase the `demand_waits` / `demand_blocks` /
//!   `affinity_steals` counters describe;
//! * **warm** passes (timed): fresh readers stream the now-resident files
//!   out of the cache. The card's line rate is a single shared resource, so
//!   this CPU-bound phase is where core count can actually show up as
//!   aggregate throughput.

use hal::cost::Platform;
use kernel::vfs::OpenFlags;
use kernel::{KernelError, StepResult, UserCtx, UserProgram};
use proto::prototype::{ProtoSystem, SystemOptions};
use serde::{Deserialize, Serialize};

/// Streams to run concurrently (one 1 MB file each).
pub const STREAMS: usize = 4;
/// Bytes per stream file.
pub const STREAM_BYTES: usize = 1024 * 1024;
/// Timed warm passes over each file.
pub const WARM_PASSES: u32 = 4;
/// Bytes per `read` call (the DOOM asset-loader chunk size).
const CHUNK: usize = 128 * 1024;

/// One point of the storage-scaling sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StorageScalePoint {
    /// Active cores.
    pub cores: usize,
    /// Concurrent reader streams.
    pub streams: usize,
    /// Timed warm passes per stream.
    pub passes: u32,
    /// Bytes read in the timed window.
    pub bytes: u64,
    /// Modeled wall-clock of the timed window, in ms.
    pub ms: f64,
    /// Aggregate throughput across all streams, in MB/s.
    pub aggregate_mb_s: f64,
    /// Cold-pass blocks that waited on an in-flight chain instead of
    /// re-issuing it.
    pub demand_waits: u64,
    /// Cold-pass times a reader parked on the completion interrupt.
    pub demand_blocks: u64,
    /// Cold-pass completions reaped on a reader's own clock — the blocking
    /// path exists to keep this at zero.
    pub demand_spin_reaps: u64,
    /// Cold-pass extents placed off their home partition (work stealing).
    pub affinity_steals: u64,
    /// Cold-pass writer yields on a full SD queue (zero here: read-only).
    pub queue_full_yields: u64,
    /// Warm-pass per-shard load imbalance: max over mean of per-shard
    /// lookups (1.0 = perfectly even).
    pub shard_imbalance: f64,
}

/// A sequential stream reader: one `read` per step, `WouldBlock` retried on
/// the next step (i.e. after the completion interrupt wakes the task), EOF
/// rewound with `lseek` until `passes` full passes are done.
struct StreamReader {
    path: String,
    passes: u32,
    fd: Option<i32>,
    done: u32,
}

impl StreamReader {
    fn new(path: String, passes: u32) -> Self {
        StreamReader {
            path,
            passes,
            fd: None,
            done: 0,
        }
    }
}

impl UserProgram for StreamReader {
    fn step(&mut self, ctx: &mut UserCtx<'_>) -> StepResult {
        let fd = match self.fd {
            Some(fd) => fd,
            None => match ctx.open(&self.path, OpenFlags::rdonly()) {
                Ok(fd) => {
                    self.fd = Some(fd);
                    fd
                }
                // The directory lookup parked on an in-flight chain; retry
                // the open when the completion wakes us.
                Err(KernelError::WouldBlock) => return StepResult::Continue,
                Err(_) => return StepResult::Exited(1),
            },
        };
        match ctx.read(fd, CHUNK) {
            Ok(chunk) if chunk.is_empty() => {
                self.done += 1;
                if self.done >= self.passes {
                    let _ = ctx.close(fd);
                    return StepResult::Exited(0);
                }
                if ctx.lseek(fd, 0).is_err() {
                    return StepResult::Exited(1);
                }
                StepResult::Continue
            }
            Ok(_) => StepResult::Continue,
            // Parked on the completion interrupt; the kernel wakes the task
            // and this step retries at the same offset.
            Err(KernelError::WouldBlock) => StepResult::Continue,
            Err(_) => StepResult::Exited(1),
        }
    }

    fn program_name(&self) -> &str {
        "streamread"
    }
}

fn spawn_readers(sys: &mut ProtoSystem, passes: u32) -> Vec<kernel::TaskId> {
    (0..STREAMS)
        .map(|i| {
            let name = format!("streamread{i}");
            let image = kernel::ProgramImage::small(&name);
            let reader = StreamReader::new(format!("/d/s{i}.bin"), passes);
            sys.kernel
                .spawn_user_program(&image, Box::new(reader), 0)
                .expect("spawn stream reader")
        })
        .collect()
}

fn run_to_exit(sys: &mut ProtoSystem, tids: &[kernel::TaskId], max_us: u64) {
    let ids: Vec<_> = tids.to_vec();
    let finished = sys.kernel.run_until(
        move |k| {
            ids.iter()
                .all(|t| k.task(*t).map(|t| t.is_zombie()).unwrap_or(true))
        },
        max_us,
    );
    assert!(finished, "stream readers did not finish within {max_us} us");
}

/// Runs the four-stream workload at `cores` active cores and returns the
/// measured point.
pub fn scale_point(cores: usize) -> StorageScalePoint {
    let mut options = SystemOptions::benchmark(Platform::Pi3);
    options.window_manager = false;
    // The workload brings its own files; skip the multi-megabyte media.
    options.small_assets = true;
    options.cores = cores;
    let mut sys = ProtoSystem::build(options).expect("bench system");
    // 16 shards × 128 extents: enough residency for all four streams, and
    // enough shards that per-core partitions are meaningful at 4 cores.
    sys.kernel
        .set_fat_cache_geometry(16, 128)
        .expect("cache geometry");
    sys.kernel.set_blocking_io(true);
    for i in 0..STREAMS {
        let data: Vec<u8> = (0..STREAM_BYTES).map(|b| (b + i) as u8).collect();
        sys.kernel
            .install_fat_file(&format!("/s{i}.bin"), &data)
            .expect("install stream file");
    }
    sys.kernel.drop_fs_caches().expect("drop caches");
    // Asset installation charged one core heavily; re-align the others so
    // the device timeline (which runs on the global clock) does not make
    // their chains look instantaneous.
    sys.kernel.sync_core_clocks();

    // Cold pass: fault everything in through the blocking demand-read path.
    let cache_before = sys.kernel.fat_cache_stats();
    let cold = spawn_readers(&mut sys, 1);
    run_to_exit(&mut sys, &cold, 120_000_000);
    let cold_stats = sys.kernel.fat_cache_stats();

    // Warm passes: fresh readers, resident files, timed by per-core *busy*
    // cycles — a core whose reader has finished jumps its clock to the next
    // timer deadline in WFI, so wall-clock deltas over the global clock
    // would count sleep, not work. The makespan of a compute-bound phase is
    // the busiest core's busy time.
    sys.kernel.sync_core_clocks();
    let active = sys.kernel.board.active_cores();
    let busy_before: Vec<u64> = (0..active)
        .map(|c| sys.kernel.sched.core_stats(c).busy_cycles)
        .collect();
    let shard_before = sys.kernel.fat_cache().shard_stats();
    let warm = spawn_readers(&mut sys, WARM_PASSES);
    run_to_exit(&mut sys, &warm, 240_000_000);
    let elapsed_cycles = (0..active)
        .map(|c| sys.kernel.sched.core_stats(c).busy_cycles - busy_before[c])
        .max()
        .unwrap_or(0);
    let shard_after = sys.kernel.fat_cache().shard_stats();

    let loads: Vec<f64> = shard_after
        .iter()
        .zip(shard_before.iter())
        .map(|(a, b)| ((a.hits + a.misses) - (b.hits + b.misses)) as f64)
        .collect();
    let mean = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
    let max = loads.iter().cloned().fold(0.0f64, f64::max);
    let shard_imbalance = if mean > 0.0 { max / mean } else { 0.0 };

    let bytes = (STREAMS * STREAM_BYTES) as u64 * WARM_PASSES as u64;
    let ms = sys.kernel.board.clock.cycles_to_ns(elapsed_cycles) as f64 / 1e6;
    StorageScalePoint {
        cores,
        streams: STREAMS,
        passes: WARM_PASSES,
        bytes,
        ms,
        aggregate_mb_s: if ms > 0.0 {
            bytes as f64 / 1e6 / (ms / 1e3)
        } else {
            0.0
        },
        demand_waits: cold_stats.demand_waits - cache_before.demand_waits,
        demand_blocks: cold_stats.demand_blocks - cache_before.demand_blocks,
        demand_spin_reaps: cold_stats.demand_spin_reaps - cache_before.demand_spin_reaps,
        affinity_steals: cold_stats.affinity_steals - cache_before.affinity_steals,
        queue_full_yields: cold_stats.queue_full_yields - cache_before.queue_full_yields,
        shard_imbalance,
    }
}

/// The full sweep: 1, 2 and 4 active cores.
pub fn storage_scaling() -> Vec<StorageScalePoint> {
    [1usize, 2, 4].iter().map(|&c| scale_point(c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "full sweep is slow; run explicitly when tuning the bench"]
    fn sweep_prints_all_points() {
        for p in storage_scaling() {
            println!("{p:?}");
        }
    }

    #[test]
    fn four_core_point_blocks_instead_of_spinning() {
        let p = scale_point(4);
        assert_eq!(p.cores, 4);
        assert!(p.bytes > 0 && p.ms > 0.0);
        assert!(
            p.demand_blocks > 0,
            "cold streams should park on completions: {p:?}"
        );
        assert!(
            p.demand_waits > 0,
            "cold streams should hit blocks pinned under in-flight chains: {p:?}"
        );
        assert_eq!(
            p.demand_spin_reaps, 0,
            "blocking readers must never spin-reap: {p:?}"
        );
        assert!(p.shard_imbalance >= 1.0, "imbalance is max/mean: {p:?}");
    }
}
