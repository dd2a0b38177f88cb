//! Turns recordings into the end-to-end and per-layer metrics, checks the
//! trace, and writes the spans out.

use std::fmt::Write as _;

use crate::harness::{OpKind, Recording, Vol};
use crate::measure::{hd_percentile, median};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Read off the host clock (varies run to run); everything else is
    /// modeled or a count and must repeat exactly for a deterministic run.
    pub host: bool,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        host: false,
    }
}

fn host(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        host: true,
        ..m(name, value, unit)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn us(cycles: f64, freq_hz: u64) -> f64 {
    cycles * 1e6 / freq_hz as f64
}

/// Modeled end-to-end metrics of one run. Ops include `WouldBlock` retries:
/// each is a real trap into the kernel.
pub fn modeled(r: &Recording) -> Vec<Metric> {
    let lat: Vec<u64> = r.ops.iter().map(|o| o.modeled_cycles()).collect();
    let secs = r.base_cycles as f64 / r.freq_hz as f64;
    vec![
        m(
            "modeled_mb_s",
            ratio(r.user_bytes as f64 / 1e6, secs),
            "MB/s",
        ),
        m("modeled_ops_per_s", ratio(r.ops.len() as f64, secs), "1/s"),
        m(
            "modeled_op_p99_us",
            us(hd_percentile(&lat, 99.0), r.freq_hz),
            "us",
        ),
    ]
}

/// End-to-end metrics over the untraced repeats: each value is the median
/// over repeats (modeled values are identical across repeats of a seed).
pub fn end_to_end(runs: &[Recording], peak_rss_mb: f64) -> Vec<Metric> {
    let per_run: Vec<Vec<Metric>> = runs.iter().map(modeled).collect();
    let mut out: Vec<Metric> = (0..per_run[0].len())
        .map(|i| {
            let vals: Vec<f64> = per_run.iter().map(|r| r[i].value).collect();
            Metric {
                value: median(&vals),
                ..per_run[0][i].clone()
            }
        })
        .collect();
    let setup_s: Vec<f64> = runs.iter().map(Recording::setup_s).collect();
    out.push(host("setup_s", median(&setup_s), "s"));
    out.push(host("host_peak_rss_mb", peak_rss_mb, "MB"));
    out
}

/// On-CPU seconds of the timed phase, median over `runs`. Reported with
/// the per-layer metrics, unbounded: it drifts 20–35% between runs made
/// minutes apart on a shared host, more than any bound may allow.
pub fn host_s(runs: &[Recording]) -> f64 {
    median(&runs.iter().map(|r| r.phase_cpu_s).collect::<Vec<_>>())
}

/// Host self time of each layer of a traced run, in ns: the workload's own
/// code between calls, the scheduler's part of each slice, and each
/// syscall. Spans are well nested (one host thread), so the three sum to
/// the phase's span exactly; `Err` names a span that escapes its parent.
#[derive(Debug, Default, Clone, Copy)]
pub struct SelfTimes {
    pub total: u64,
    pub workload: u64,
    pub sched: u64,
    pub syscalls: u64,
}

pub fn self_times(r: &Recording) -> Result<SelfTimes, String> {
    let (p0, p1) = r.phase_host;
    let mut child_of_slice = vec![0u64; r.slices.len()];
    let mut direct = 0u64;
    let mut syscalls = 0u64;
    for (i, o) in r.ops.iter().enumerate() {
        let (lo, hi) = match o.slice {
            Some(s) => (r.slices[s].host_start, r.slices[s].host_end),
            None => (p0, p1),
        };
        if o.host_start < lo || o.host_end > hi || o.host_end < o.host_start {
            return Err(format!("syscall span {i} escapes its parent"));
        }
        let d = o.host_end - o.host_start;
        syscalls += d;
        match o.slice {
            Some(s) => child_of_slice[s] += d,
            None => direct += d,
        }
    }
    let mut sched = 0u64;
    let mut slices = 0u64;
    for (i, s) in r.slices.iter().enumerate() {
        if s.host_start < p0 || s.host_end > p1 {
            return Err(format!("slice span {i} escapes the workload span"));
        }
        let d = s.host_end - s.host_start;
        slices += d;
        sched += d
            .checked_sub(child_of_slice[i])
            .ok_or(format!("syscalls of slice {i} outlast it"))?;
    }
    let total = p1 - p0;
    let workload = total
        .checked_sub(slices + direct)
        .ok_or("children of the workload span overlap")?;
    Ok(SelfTimes {
        total,
        workload,
        sched,
        syscalls,
    })
}

/// Per-layer metrics of one traced run. `host_s` is the untraced repeats'
/// median; `overhead_pct` compares the traced and untraced host medians.
pub fn per_layer(r: &Recording, selfs: &SelfTimes, host_s: f64, overhead_pct: f64) -> Vec<Metric> {
    let f = r.freq_hz;
    let c = &r.phase;
    let mut out = Vec::new();

    let span_s = |name: &str| {
        r.setup
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.cpu_s)
            .sum::<f64>()
    };
    out.push(host("setup.build_s", span_s("build"), "s"));
    out.push(host("setup.install_s", span_s("install"), "s"));
    out.push(m(
        "setup.install_lookups_per_block",
        ratio(r.install_lookups as f64, r.install_blocks as f64),
        "ratio",
    ));

    for kind in OpKind::ALL {
        let ops: Vec<_> = r.ops.iter().filter(|o| o.kind == kind).collect();
        let lat: Vec<u64> = ops.iter().map(|o| o.modeled_cycles()).collect();
        let p = format!("syscall.{}", kind.name());
        out.push(m(format!("{p}.count"), ops.len() as f64, "count"));
        out.push(m(
            format!("{p}.modeled_us_sum"),
            us(lat.iter().sum::<u64>() as f64, f),
            "us",
        ));
        out.push(m(
            format!("{p}.modeled_us_p99"),
            us(hd_percentile(&lat, 99.0), f),
            "us",
        ));
        let host_ns: u64 = ops.iter().map(|o| o.host_end - o.host_start).sum();
        out.push(host(format!("{p}.host_ms_sum"), host_ns as f64 / 1e6, "ms"));
        let errors = ops.iter().filter(|o| !o.ok).count();
        out.push(m(format!("{p}.errors"), errors as f64, "count"));
    }
    out.push(m(
        "syscall.wouldblock_retries",
        r.wouldblock_retries as f64,
        "count",
    ));

    for (name, vol) in [("fat32", Vol::Fat), ("xv6fs", Vol::Root)] {
        let cycles: u64 = r
            .ops
            .iter()
            .filter(|o| o.vol == vol)
            .map(|o| o.modeled_cycles())
            .sum();
        out.push(m(
            format!("fs.{name}.modeled_us_sum"),
            us(cycles as f64, f),
            "us",
        ));
    }

    let busy: Vec<f64> = c.busy.iter().map(|b| *b as f64).collect();
    let util: Vec<f64> = c
        .busy
        .iter()
        .zip(&c.idle)
        .map(|(b, i)| ratio(*b as f64, (*b + *i) as f64))
        .collect();
    out.push(m("sched.slices", r.slices.len() as f64, "count"));
    out.push(host("sched.self_host_ms", selfs.sched as f64 / 1e6, "ms"));
    out.push(m(
        "sched.busy_ms_max",
        busy.iter().cloned().fold(0.0, f64::max) * 1e3 / f as f64,
        "ms",
    ));
    out.push(m(
        "sched.utilisation_mean",
        util.iter().sum::<f64>() / util.len().max(1) as f64,
        "ratio",
    ));

    let bytes_on =
        |vol: Vol| -> u64 { r.ops.iter().filter(|o| o.vol == vol).map(|o| o.bytes).sum() };
    for (name, s, vol) in [("fat", &c.fat, Vol::Fat), ("root", &c.root, Vol::Root)] {
        let p = format!("bufcache.{name}");
        let lookups = (s.hits + s.misses) as f64;
        let user_blocks = bytes_on(vol).div_ceil(512) as f64;
        out.push(m(
            format!("{p}.lookups_per_user_block"),
            ratio(lookups, user_blocks),
            "ratio",
        ));
        out.push(m(
            format!("{p}.hit_ratio"),
            ratio(s.hits as f64, lookups),
            "ratio",
        ));
        for (field, v) in [
            ("evictions", s.evictions),
            ("writebacks", s.writebacks),
            ("batched_evictions", s.batched_evictions),
            ("prefetch_cmds", s.prefetch_cmds),
            ("prefetched_blocks", s.prefetched_blocks),
            ("demand_waits", s.demand_waits),
            ("demand_blocks", s.demand_blocks),
            ("demand_spin_reaps", s.demand_spin_reaps),
            ("queue_full_stalls", s.queue_full_stalls),
            ("queue_full_yields", s.queue_full_yields),
            ("forced_meta_writes", s.forced_meta_writes),
            ("write_retries", s.write_retries),
        ] {
            out.push(m(format!("{p}.{field}"), v as f64, "count"));
        }
    }
    for (name, s) in [("fat", &c.fat), ("root", &c.root)] {
        out.push(m(
            format!("txn.{name}.log_txns"),
            s.log_txns as f64,
            "count",
        ));
        out.push(m(
            format!("txn.{name}.log_commits"),
            s.log_commits as f64,
            "count",
        ));
        out.push(m(
            format!("txn.{name}.txns_per_commit"),
            ratio(s.log_txns as f64, s.log_commits as f64),
            "ratio",
        ));
    }

    let syscall_cycles: u64 = r.ops.iter().map(|o| o.modeled_cycles()).sum();
    out.push(m("sdhost.cmds", c.sd_cmds as f64, "count"));
    out.push(m("sdhost.blocks", c.sd_blocks as f64, "count"));
    out.push(m(
        "sdhost.blocks_per_cmd",
        ratio(c.sd_blocks as f64, c.sd_cmds as f64),
        "ratio",
    ));
    out.push(m("sdhost.flush_cmds", c.sd_flush_cmds as f64, "count"));
    out.push(m("sdhost.fua_cmds", c.sd_fua_cmds as f64, "count"));
    out.push(m(
        "sdhost.queue_high_water",
        r.queue_high_water as f64,
        "count",
    ));
    out.push(m(
        "sdhost.storage_cycles_share",
        ratio(c.task_sd as f64, syscall_cycles as f64),
        "ratio",
    ));
    out.push(m("sdhost.line_rate_ratio", line_rate_ratio(r), "ratio"));
    out.push(m("dma.control_blocks", c.dma_cbs as f64, "count"));
    out.push(m("dma.blocks", c.dma_blocks as f64, "count"));
    out.push(m(
        "dma.cbs_per_cmd",
        ratio(c.dma_cbs as f64, c.dma_cmds as f64),
        "ratio",
    ));
    out.push(m("kbio.sd_cycles", c.kbio_sd as f64, "cycles"));
    out.push(m(
        "kbio.writeback_share",
        ratio(c.kbio_sd as f64, (c.kbio_sd + c.task_sd) as f64),
        "ratio",
    ));
    out.push(host("trace.overhead_host_pct", overhead_pct, "%"));
    out.push(host("trace.total_host_ms", selfs.total as f64 / 1e6, "ms"));
    out.push(host(
        "trace.workload_self_host_ms",
        selfs.workload as f64 / 1e6,
        "ms",
    ));
    out.push(host("host_s", host_s, "s"));
    out
}

/// Card bytes per modeled second of the workload's time base, over the
/// DMA line rate.
pub fn line_rate_ratio(r: &Recording) -> f64 {
    let secs = r.base_cycles as f64 / r.freq_hz as f64;
    ratio(r.phase.sd_blocks as f64 * 512.0 / 1e6, secs) / dma_ceiling_mb_s(r)
}

/// The card's modeled DMA line rate in MB/s: one 512-byte block per
/// `sd_dma_block_transfer` cycles (85.3 MB/s on the Pi 3 model).
pub fn dma_ceiling_mb_s(r: &Recording) -> f64 {
    512.0 * r.freq_hz as f64 / r.sd_dma_block_cycles as f64 / 1e6
}

/// Names of the modeled values that differ between two runs.
pub fn drift(a: &[Metric], b: &[Metric]) -> Vec<String> {
    a.iter()
        .zip(b)
        .filter(|(x, y)| !x.host && x.value.to_bits() != y.value.to_bits())
        .map(|(x, y)| format!("{} ({} vs {})", x.name, x.value, y.value))
        .collect()
}

/// The traced run's spans as TSV: one row per span, parent by id, modeled
/// times on the issuing core's clock, host times since the run's epoch,
/// and the counter deltas recorded at the span's boundaries.
pub fn spans_tsv(r: &Recording) -> String {
    let mut out = String::from(
        "id\tparent\tlayer\tname\tprogram\tcore\tmodeled_start\tmodeled_end\thost_start_ns\thost_end_ns\tfat_lookups\tfat_misses\troot_lookups\tsd_cmds\tsd_blocks\tflush_cmds\tfua_cmds\n",
    );
    let mut id = 0usize;
    for s in &r.setup {
        id += 1;
        let _ = writeln!(
            out,
            "{id}\t0\tsetup\t{}\t\t\t\t\t{}\t{}",
            s.name, s.host_start, s.host_end
        );
    }
    id += 1;
    let workload = id;
    let _ = writeln!(
        out,
        "{workload}\t0\tworkload\tphase\t\t\t\t\t{}\t{}",
        r.phase_host.0, r.phase_host.1
    );
    let counters = |c: &Option<crate::measure::Counters>| match c {
        Some(c) => format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            c.fat.hits + c.fat.misses,
            c.fat.misses,
            c.root.hits + c.root.misses,
            c.sd_cmds,
            c.sd_blocks,
            c.sd_flush_cmds,
            c.sd_fua_cmds
        ),
        None => "\t\t\t\t\t\t".into(),
    };
    let first_slice = id + 1;
    for s in &r.slices {
        id += 1;
        let _ = writeln!(
            out,
            "{id}\t{workload}\tsched\trun_slice\t\t\t\t\t{}\t{}\t{}",
            s.host_start,
            s.host_end,
            counters(&s.counters)
        );
    }
    for o in &r.ops {
        id += 1;
        let parent = o.slice.map(|s| first_slice + s).unwrap_or(workload);
        let _ = writeln!(
            out,
            "{id}\t{parent}\tsyscall\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            o.kind.name(),
            o.program,
            o.core,
            o.modeled_start,
            o.modeled_end,
            o.host_start,
            o.host_end,
            counters(&o.counters)
        );
    }
    out
}
