//! Drives one booted system through its public entry points and records
//! what each call cost on both clocks.
//!
//! Every span is recorded here, around calls *into* the system: setup
//! steps, `Kernel::run_slice`, and syscalls (made either through
//! `Kernel::with_task_ctx` or from benchmark-owned programs the scheduler
//! steps). Nothing inside the system is instrumented.
//!
//! Modeled time of a syscall is measured on the clock of the core that
//! made it: the delta of `board.clock.cycles(core)` across a
//! `with_task_ctx` call, or — for a scheduled program, whose steps each
//! make exactly one syscall — the core's scheduler busy-cycle delta across
//! the `run_slice` that stepped it (busy cycles cover the program step and
//! nothing else). `UserCtx::now_us` cannot be used: it reads the most
//! advanced core, so an op on a lagging core can read 0 µs.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use hal::cost::Platform;
use kernel::vfs::OpenFlags;
use kernel::{FileStat, KResult, TaskId, UserCtx};
use proto::prototype::{ProtoSystem, SystemOptions};

use crate::measure::{thread_cpu_s, Counters};

/// The syscalls the workloads time, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Open,
    Read,
    Write,
    Fsync,
    Close,
    Stat,
    ListDir,
    Mkdir,
    Unlink,
}

impl OpKind {
    pub const ALL: [OpKind; 9] = [
        OpKind::Open,
        OpKind::Read,
        OpKind::Write,
        OpKind::Fsync,
        OpKind::Close,
        OpKind::Stat,
        OpKind::ListDir,
        OpKind::Mkdir,
        OpKind::Unlink,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Open => "open",
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Fsync => "fsync",
            OpKind::Close => "close",
            OpKind::Stat => "stat",
            OpKind::ListDir => "list_dir",
            OpKind::Mkdir => "mkdir",
            OpKind::Unlink => "unlink",
        }
    }
}

/// Which filesystem an op went to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vol {
    /// FAT32 on the SD card (`/d/...`).
    Fat,
    /// xv6fs on the ramdisk (the root).
    Root,
}

impl Vol {
    pub fn of(path: &str) -> Vol {
        if path == "/d" || path.starts_with("/d/") {
            Vol::Fat
        } else {
            Vol::Root
        }
    }
}

/// One timed syscall. Host times are nanoseconds since the run's epoch and
/// are recorded only in traced runs.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: OpKind,
    pub vol: Vol,
    /// Which program made it: every call of one program shares this id.
    pub program: u32,
    pub core: usize,
    pub modeled_start: u64,
    pub modeled_end: u64,
    pub host_start: u64,
    pub host_end: u64,
    pub ok: bool,
    pub bytes: u64,
    /// Index of the slice that stepped the issuing program, if scheduled.
    pub slice: Option<usize>,
    /// Counter deltas across the call (traced runs, direct calls only;
    /// a scheduled call's deltas are its slice's).
    pub counters: Option<Counters>,
}

impl Op {
    pub fn modeled_cycles(&self) -> u64 {
        self.modeled_end - self.modeled_start
    }
}

/// One `Kernel::run_slice` call (traced runs record host times and
/// counter deltas).
#[derive(Debug, Clone)]
pub struct Slice {
    pub host_start: u64,
    pub host_end: u64,
    pub counters: Option<Counters>,
}

/// A setup step's span.
#[derive(Debug, Clone)]
pub struct SetupSpan {
    pub name: &'static str,
    pub host_start: u64,
    pub host_end: u64,
    pub cpu_s: f64,
}

/// What a scheduled benchmark program reports about the one syscall its
/// step made. The harness completes it with modeled times after the
/// slice returns.
#[derive(Debug)]
pub struct Call {
    pub program: u32,
    pub kind: OpKind,
    pub vol: Vol,
    pub core: usize,
    /// The call returned `WouldBlock`; the program retries it next step.
    pub would_block: bool,
    pub error: Option<String>,
    pub bytes: u64,
    pub host_start: u64,
    pub host_end: u64,
}

/// The mailbox scheduled programs post their `Call` records to.
pub type CallLog = Arc<Mutex<Vec<Call>>>;

/// Host-time stamps relative to a run's epoch; `None` in untraced runs.
#[derive(Debug, Clone, Copy)]
pub struct HostClock(Option<Instant>);

impl HostClock {
    pub fn now_ns(&self) -> u64 {
        self.0.map(|e| e.elapsed().as_nanos() as u64).unwrap_or(0)
    }
}

/// Everything one run of a workload recorded.
#[derive(Debug, Default)]
pub struct Recording {
    pub ops: Vec<Op>,
    pub slices: Vec<Slice>,
    pub setup: Vec<SetupSpan>,
    /// Host span of the timed phase.
    pub phase_host: (u64, u64),
    /// On-CPU seconds of the timed phase, pauses excluded.
    pub phase_cpu_s: f64,
    /// Counter deltas over the timed phase.
    pub phase: Counters,
    /// FAT cache lookups and blocks written while installing files.
    pub install_lookups: u64,
    pub install_blocks: u64,
    /// `WouldBlock` results that made a program retry its call.
    pub wouldblock_retries: u64,
    /// Failed calls and verification mismatches, one line each.
    pub failures: Vec<String>,
    /// User bytes the workload moved in the timed phase.
    pub user_bytes: u64,
    /// Modeled time base of `modeled_mb_s` / `modeled_ops_per_s`.
    pub base_cycles: u64,
    pub freq_hz: u64,
    /// Modeled cycles per 512-byte block on the card's DMA data path.
    pub sd_dma_block_cycles: u64,
    /// Deepest the SD command queue has been since boot.
    pub queue_high_water: usize,
}

impl Recording {
    /// On-CPU seconds of all setup steps.
    pub fn setup_s(&self) -> f64 {
        self.setup.iter().map(|s| s.cpu_s).sum()
    }
}

/// A booted system plus the recorder wrapped around it.
pub struct Harness {
    pub sys: ProtoSystem,
    pub clock: HostClock,
    pub rec: Recording,
    /// The workload's own tasks (their storage cycles are summed).
    pub tasks: Vec<TaskId>,
    /// Counters at `begin_phase`.
    phase_start: Option<Counters>,
    /// Thread CPU time when the phase clock last resumed.
    cpu_mark: Option<f64>,
}

impl Harness {
    /// Builds the shipped Desktop configuration with small stock assets and
    /// no window manager — the workload brings its own files. No
    /// `Kernel::set_*` knob is touched, so a changed default shows up in the
    /// numbers.
    pub fn build(traced: bool) -> KResult<Harness> {
        let clock = HostClock(traced.then(Instant::now));
        let options = SystemOptions {
            small_assets: true,
            window_manager: false,
            ..SystemOptions::benchmark(Platform::Pi3)
        };
        let h0 = clock.now_ns();
        let c0 = thread_cpu_s();
        let sys = ProtoSystem::build(options)?;
        let cpu_s = thread_cpu_s() - c0;
        let mut rec = Recording {
            freq_hz: sys.kernel.board.clock.freq_hz(),
            sd_dma_block_cycles: sys.kernel.cost_model().sd_dma_block_transfer,
            ..Recording::default()
        };
        rec.setup.push(SetupSpan {
            name: "build",
            host_start: h0,
            host_end: clock.now_ns(),
            cpu_s,
        });
        Ok(Harness {
            sys,
            clock,
            rec,
            tasks: Vec::new(),
            phase_start: None,
            cpu_mark: None,
        })
    }

    pub fn traced(&self) -> bool {
        self.clock.0.is_some()
    }

    /// Runs one setup step (installing files), timing it as `install`.
    pub fn install(&mut self, f: impl FnOnce(&mut ProtoSystem) -> KResult<u64>) -> KResult<()> {
        let h0 = self.clock.now_ns();
        let before = self.sys.kernel.fat_cache_stats();
        let c0 = thread_cpu_s();
        let bytes = f(&mut self.sys)?;
        let cpu_s = thread_cpu_s() - c0;
        let after = self.sys.kernel.fat_cache_stats();
        self.rec.install_lookups += (after.hits + after.misses) - (before.hits + before.misses);
        self.rec.install_blocks += bytes.div_ceil(512);
        self.rec.setup.push(SetupSpan {
            name: "install",
            host_start: h0,
            host_end: self.clock.now_ns(),
            cpu_s,
        });
        Ok(())
    }

    /// Starts the timed phase: aligns the core clocks to the device's
    /// present (installs ran on core 0 only) and snapshots the counters.
    pub fn begin_phase(&mut self) {
        self.sys.kernel.sync_core_clocks();
        self.phase_start = Some(Counters::read(&self.sys.kernel, &self.tasks));
        self.rec.phase_host.0 = self.clock.now_ns();
        self.resume();
    }

    pub fn end_phase(&mut self) {
        self.pause();
        self.rec.phase_host.1 = self.clock.now_ns();
        let before = self.phase_start.take().expect("begin_phase first");
        // Tasks spawned inside the phase start from zero storage cycles, so
        // the delta is right even though `before` summed fewer tasks.
        self.rec.phase = Counters::read(&self.sys.kernel, &self.tasks).since(&before);
        self.rec.queue_high_water = self.sys.kernel.board.sdhost.queue_high_water();
    }

    /// Stops the phase's CPU clock while the benchmark checks results.
    pub fn pause(&mut self) {
        if let Some(mark) = self.cpu_mark.take() {
            self.rec.phase_cpu_s += thread_cpu_s() - mark;
        }
    }

    pub fn resume(&mut self) {
        self.cpu_mark = Some(thread_cpu_s());
    }

    pub fn fail(&mut self, what: String) {
        self.rec.failures.push(what);
    }

    fn core_of(&self, tid: TaskId) -> usize {
        self.sys.kernel.task(tid).map(|t| t.core).unwrap_or(0)
    }

    /// Makes one syscall from `tid` through `with_task_ctx` and records it.
    fn call<R>(
        &mut self,
        tid: TaskId,
        kind: OpKind,
        vol: Vol,
        f: impl FnOnce(&mut UserCtx<'_>) -> KResult<R>,
        bytes: impl FnOnce(&R) -> u64,
    ) -> KResult<R> {
        let core = self.core_of(tid);
        let before = self
            .traced()
            .then(|| Counters::read(&self.sys.kernel, &self.tasks));
        let host_start = self.clock.now_ns();
        let modeled_start = self.sys.kernel.board.clock.cycles(core);
        let result = self.sys.kernel.with_task_ctx(tid, f);
        let modeled_end = self.sys.kernel.board.clock.cycles(core);
        let host_end = self.clock.now_ns();
        let counters = before.map(|b| Counters::read(&self.sys.kernel, &self.tasks).since(&b));
        let ok = result.is_ok();
        let n = result.as_ref().map(bytes).unwrap_or(0);
        if let Err(e) = &result {
            self.fail(format!("{} on {vol:?}: {e}", kind.name()));
        }
        self.rec.ops.push(Op {
            kind,
            vol,
            program: tid as u32,
            core,
            modeled_start,
            modeled_end,
            host_start,
            host_end,
            ok,
            bytes: n,
            slice: None,
            counters,
        });
        result
    }

    pub fn open(&mut self, tid: TaskId, path: &str, flags: OpenFlags) -> KResult<i32> {
        self.call(
            tid,
            OpKind::Open,
            Vol::of(path),
            |c| c.open(path, flags),
            |_| 0,
        )
    }

    pub fn write(&mut self, tid: TaskId, vol: Vol, fd: i32, data: &[u8]) -> KResult<usize> {
        let r = self.call(
            tid,
            OpKind::Write,
            vol,
            |c| c.write(fd, data),
            |n| *n as u64,
        );
        if let Ok(n) = r {
            if n != data.len() {
                self.fail(format!("short write: {n} of {} bytes", data.len()));
            }
        }
        r
    }

    pub fn fsync(&mut self, tid: TaskId, vol: Vol, fd: i32) -> KResult<()> {
        self.call(tid, OpKind::Fsync, vol, |c| c.fsync(fd), |_| 0)
    }

    pub fn close(&mut self, tid: TaskId, vol: Vol, fd: i32) -> KResult<()> {
        self.call(tid, OpKind::Close, vol, |c| c.close(fd), |_| 0)
    }

    pub fn stat(&mut self, tid: TaskId, path: &str) -> KResult<FileStat> {
        self.call(tid, OpKind::Stat, Vol::of(path), |c| c.stat(path), |_| 0)
    }

    pub fn list_dir(&mut self, tid: TaskId, path: &str) -> KResult<Vec<String>> {
        self.call(
            tid,
            OpKind::ListDir,
            Vol::of(path),
            |c| c.list_dir(path),
            |_| 0,
        )
    }

    pub fn mkdir(&mut self, tid: TaskId, path: &str) -> KResult<()> {
        self.call(tid, OpKind::Mkdir, Vol::of(path), |c| c.mkdir(path), |_| 0)
    }

    pub fn unlink(&mut self, tid: TaskId, path: &str) -> KResult<()> {
        self.call(
            tid,
            OpKind::Unlink,
            Vol::of(path),
            |c| c.unlink(path),
            |_| 0,
        )
    }

    /// One `Kernel::run_slice`. Any syscall a benchmark program made in
    /// it is drained from `log` and timed on its core's busy cycles.
    pub fn slice(&mut self, log: Option<&CallLog>) {
        let k = &self.sys.kernel;
        let busy: Vec<u64> = (0..k.board.active_cores())
            .map(|c| k.sched.core_stats(c).busy_cycles)
            .collect();
        let before = self.traced().then(|| Counters::read(k, &self.tasks));
        let host_start = self.clock.now_ns();
        self.sys.kernel.run_slice();
        let host_end = self.clock.now_ns();
        let k = &self.sys.kernel;
        let counters = before.map(|b| Counters::read(k, &self.tasks).since(&b));
        let index = self.rec.slices.len();
        self.rec.slices.push(Slice {
            host_start,
            host_end,
            counters,
        });
        let Some(log) = log else { return };
        let calls: Vec<Call> = std::mem::take(&mut *log.lock().expect("call log poisoned"));
        for i in calls {
            let k = &self.sys.kernel;
            let end = k.board.clock.cycles(i.core);
            let spent = k.sched.core_stats(i.core).busy_cycles - busy[i.core];
            let ok = i.error.is_none();
            if let Some(e) = i.error {
                self.fail(format!("{} on {:?}: {e}", i.kind.name(), i.vol));
            }
            if i.would_block {
                self.rec.wouldblock_retries += 1;
            }
            self.rec.ops.push(Op {
                kind: i.kind,
                vol: i.vol,
                program: i.program,
                core: i.core,
                modeled_start: end - spent,
                modeled_end: end,
                host_start: i.host_start,
                host_end: i.host_end,
                ok,
                bytes: i.bytes,
                slice: Some(index),
                counters: None,
            });
        }
    }

    /// Lets the system run on its own for `us` of modeled time (the flusher
    /// and pending completions run; the workload makes no calls).
    pub fn idle(&mut self, us: u64) {
        let until = self.sys.kernel.now_us() + us;
        while self.sys.kernel.now_us() < until {
            self.slice(None);
        }
    }
}
