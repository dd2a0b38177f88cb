//! Host clocks, order statistics and the counter snapshots the per-layer
//! metrics are taken from.

use kernel::kernel::Kernel;
use kernel::TaskId;
use protofs::bufcache::BufCacheStats;

/// The host's `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// On-CPU seconds of the calling thread. Host time is noisy in a shared VM;
/// CPU time at least excludes the time the thread sat descheduled.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the call's duration,
    // and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `v`.
pub fn percentile(v: &[u64], p: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Harrell–Davis estimate of percentile `p` (0–100) of `v`: a weighted
/// average of all order statistics, the weight of the `i`-th being the
/// Beta(`q(n+1)`, `(1-q)(n+1)`) mass of `[(i-1)/n, i/n]`.
///
/// Modeled costs are discrete — most calls of one kind cost exactly the
/// same cycles — so a nearest-rank percentile sits on a plateau of equal
/// values and does not move until the plateau's edge crosses it. The
/// Harrell–Davis estimate moves with every neighbour of the rank it
/// estimates, which is what a regression bound on a tail needs.
pub fn hd_percentile(v: &[u64], p: f64) -> f64 {
    let n = v.len();
    if n < 2 {
        return v.first().map_or(0.0, |x| *x as f64);
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    let q = p / 100.0;
    let (a, b) = (q * (n + 1) as f64, (1.0 - q) * (n + 1) as f64);
    let mut prev = 0.0;
    let mut est = 0.0;
    for (i, x) in s.iter().enumerate() {
        let cdf = inc_beta((i + 1) as f64 / n as f64, a, b);
        est += (cdf - prev) * *x as f64;
        prev = cdf;
    }
    est
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7, nine terms; ~15 digits).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    use std::f64::consts::PI;
    if x < 0.5 {
        return (PI / (PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let sum = C[1..]
        .iter()
        .enumerate()
        .fold(C[0], |acc, (i, c)| acc + c / (x + (i + 1) as f64));
    0.5 * (2.0 * PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

/// The regularized incomplete beta function `I_x(a, b)`.
fn inc_beta(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(x, a, b) / a
    } else {
        1.0 - front * beta_cf(1.0 - x, b, a) / b
    }
}

/// Continued fraction of the incomplete beta function (modified Lentz).
fn beta_cf(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let guard = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..=10_000 {
        let m = m as f64;
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / guard(1.0 + even * d);
        c = guard(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / guard(1.0 + odd * d);
        c = guard(1.0 + odd / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// Cumulative counters of every layer the benchmark can read from outside:
/// both buffer caches, the SD host and its DMA path, the scheduler and the
/// storage cycles charged to tasks. Per-layer metrics are deltas of two
/// snapshots — the values themselves count from boot, and installs
/// dominate them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    pub fat: BufCacheStats,
    pub root: BufCacheStats,
    pub sd_cmds: u64,
    pub sd_blocks: u64,
    pub sd_flush_cmds: u64,
    pub sd_fua_cmds: u64,
    pub dma_cmds: u64,
    pub dma_cbs: u64,
    pub dma_blocks: u64,
    pub busy: Vec<u64>,
    pub idle: Vec<u64>,
    /// Storage cycles charged to the `kbio` flusher.
    pub kbio_sd: u64,
    /// Storage cycles charged to the workload's own tasks.
    pub task_sd: u64,
}

impl Counters {
    pub fn read(k: &Kernel, tasks: &[TaskId]) -> Counters {
        let sd = &k.board.sdhost;
        let cores = k.board.active_cores();
        Counters {
            fat: k.fat_cache_stats(),
            root: k.root_cache_stats(),
            sd_cmds: sd.single_block_cmds() + sd.range_cmds() + sd.dma_cmds(),
            sd_blocks: sd.blocks_transferred(),
            sd_flush_cmds: sd.flush_cmds(),
            sd_fua_cmds: sd.fua_cmds(),
            dma_cmds: sd.dma_cmds(),
            dma_cbs: sd.sg_control_blocks(),
            dma_blocks: sd.dma_blocks(),
            busy: (0..cores)
                .map(|c| k.sched.core_stats(c).busy_cycles)
                .collect(),
            idle: (0..cores)
                .map(|c| k.sched.core_stats(c).idle_cycles)
                .collect(),
            kbio_sd: k.task_sd_cycles(k.kbio_task()),
            task_sd: tasks.iter().map(|t| k.task_sd_cycles(*t)).sum(),
        }
    }

    /// `self - before`, field by field.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            fat: stats_delta(&self.fat, &before.fat),
            root: stats_delta(&self.root, &before.root),
            sd_cmds: self.sd_cmds - before.sd_cmds,
            sd_blocks: self.sd_blocks - before.sd_blocks,
            sd_flush_cmds: self.sd_flush_cmds - before.sd_flush_cmds,
            sd_fua_cmds: self.sd_fua_cmds - before.sd_fua_cmds,
            dma_cmds: self.dma_cmds - before.dma_cmds,
            dma_cbs: self.dma_cbs - before.dma_cbs,
            dma_blocks: self.dma_blocks - before.dma_blocks,
            busy: vec_delta(&self.busy, &before.busy),
            idle: vec_delta(&self.idle, &before.idle),
            kbio_sd: self.kbio_sd - before.kbio_sd,
            task_sd: self.task_sd - before.task_sd,
        }
    }
}

fn vec_delta(a: &[u64], b: &[u64]) -> Vec<u64> {
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

fn stats_delta(a: &BufCacheStats, b: &BufCacheStats) -> BufCacheStats {
    BufCacheStats {
        hits: a.hits - b.hits,
        misses: a.misses - b.misses,
        writebacks: a.writebacks - b.writebacks,
        coalesced_ranges: a.coalesced_ranges - b.coalesced_ranges,
        single_cmds: a.single_cmds - b.single_cmds,
        evictions: a.evictions - b.evictions,
        flushes: a.flushes - b.flushes,
        partial_flushes: a.partial_flushes - b.partial_flushes,
        prefetch_cmds: a.prefetch_cmds - b.prefetch_cmds,
        prefetched_blocks: a.prefetched_blocks - b.prefetched_blocks,
        dropped_flush_errors: a.dropped_flush_errors - b.dropped_flush_errors,
        forced_meta_writes: a.forced_meta_writes - b.forced_meta_writes,
        demand_waits: a.demand_waits - b.demand_waits,
        async_write_errors: a.async_write_errors - b.async_write_errors,
        queue_full_stalls: a.queue_full_stalls - b.queue_full_stalls,
        batched_evictions: a.batched_evictions - b.batched_evictions,
        log_txns: a.log_txns - b.log_txns,
        log_commits: a.log_commits - b.log_commits,
        affinity_steals: a.affinity_steals - b.affinity_steals,
        queue_full_yields: a.queue_full_yields - b.queue_full_yields,
        demand_blocks: a.demand_blocks - b.demand_blocks,
        demand_spin_reaps: a.demand_spin_reaps - b.demand_spin_reaps,
        write_retries: a.write_retries - b.write_retries,
        write_gave_up: a.write_gave_up - b.write_gave_up,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn incomplete_beta_matches_closed_forms() {
        // I_x(1, 1) = x; I_x(2, 3) = sum_{j=2..4} C(4,j) x^j (1-x)^(4-j).
        assert!((inc_beta(0.37, 1.0, 1.0) - 0.37).abs() < 1e-12);
        assert!((inc_beta(0.3, 2.0, 3.0) - 0.3483).abs() < 1e-12);
        assert!((inc_beta(0.5, 900.5, 900.5) - 0.5).abs() < 1e-9);
        assert!((ln_gamma(10.0) - 362_880f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn harrell_davis_tracks_the_rank_it_estimates() {
        let v: Vec<u64> = (1..=1000).collect();
        assert!((hd_percentile(&v, 50.0) - 500.5).abs() < 1e-6);
        let p99 = hd_percentile(&v, 99.0);
        assert!((989.0..=992.0).contains(&p99), "{p99}");
        // A plateau under the rank still feels its neighbours.
        let mut w = vec![100u64; 990];
        w.extend(std::iter::repeat_n(500, 10));
        let a = hd_percentile(&w, 99.0);
        w[999] = 900;
        assert!(hd_percentile(&w, 99.0) > a);
        assert_eq!(hd_percentile(&[7], 99.0), 7.0);
    }

    #[test]
    fn thread_cpu_time_advances() {
        let a = thread_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(thread_cpu_s() > a);
    }
}
