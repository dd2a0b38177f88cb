//! The syscall surface (29 syscalls across task, file and threading groups).
//!
//! Every entry point charges the platform's syscall entry/exit cost, checks
//! the prototype stage it belongs to (Table 1), performs the operation, and
//! — when the operation cannot complete — parks the calling task on the
//! right wait queue and returns [`KernelError::WouldBlock`]. Device I/O
//! charges additional cycles derived from the device statistics so that the
//! microbenchmarks (Figure 8/9) and the app benchmarks (Table 5) come out of
//! the same accounting.

use hal::framebuffer::BYTES_PER_PIXEL;

use crate::error::{KResult, KernelError};
use crate::exec::ProgramImage;
use crate::kernel::{fat_dev, Kernel};
use crate::mm::addrspace::RegionKind;
use crate::mm::pagetable::MapFlags;
use crate::sync::SemWaitResult;
use crate::task::{MmRef, TaskId, TaskState, WaitChannel};
use crate::trace::TraceKind;
use crate::usercall::{FileStat, UserProgram};
use crate::vfs::{DeviceFile, FileKind, MountTarget, OpenFile, OpenFlags};
use crate::wm::Rect;

/// One row of the numbered syscall ABI.
///
/// This table is the single source of truth for the user/kernel boundary:
/// each row names a stable syscall number, the kernel dispatch method that
/// implements it (in this module), the `UserCtx` stub that user programs
/// call (in `usercall.rs`), and the argument count both sides must agree on
/// (beyond the implicit task/core context). The `analysis` crate's
/// ABI-consistency pass parses this table *and* both sets of function
/// signatures and fails the build on any number gap, missing function, or
/// arity drift — so the table cannot silently rot the way the old
/// hand-maintained name list could. ROADMAP item 2's generated syscall layer
/// will emit dispatch and stubs *from* this table; the pass is the precursor
/// that proves the three views agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyscallDef {
    /// Stable syscall number. Numbers are dense, start at 0, and are never
    /// reused: a retired syscall would keep its row with "-" entries.
    pub num: u16,
    /// Canonical name, as the paper's Table 1 groups them.
    pub name: &'static str,
    /// The `Kernel` dispatch method in this module, or `"-"` when the
    /// operation is handled structurally rather than by a dispatch function
    /// (`exit` is a `StepResult`, `uptime` reads the clock without trapping).
    pub dispatch: &'static str,
    /// The `UserCtx` stub method in `usercall.rs`, or `"-"` when none
    /// exists (`exit` again).
    pub stub: &'static str,
    /// Arguments beyond the implicit task/core context. The stub takes
    /// exactly this many; the dispatch takes these after `task` and `core`.
    pub args: u8,
}

/// Number of syscalls Proto implements (§3's 29, across the task, file and
/// threading groups).
pub const NSYSCALLS: usize = 29;

/// The numbered syscall table, grouped as the paper groups them (task
/// management & time, file system, threading/synchronisation). `fsync`
/// joined the file group when the block layer's buffer cache became
/// write-back: it drains a file's dirty blocks to the device.
#[rustfmt::skip]
pub const SYSCALL_TABLE: [SyscallDef; NSYSCALLS] = [
    // task management & time
    SyscallDef { num: 0,  name: "getpid",     dispatch: "sys_getpid",       stub: "getpid",       args: 0 },
    SyscallDef { num: 1,  name: "fork",       dispatch: "sys_fork",         stub: "fork",         args: 1 },
    SyscallDef { num: 2,  name: "exec",       dispatch: "sys_spawn",        stub: "spawn",        args: 2 },
    SyscallDef { num: 3,  name: "exit",       dispatch: "-",                stub: "-",            args: 1 },
    SyscallDef { num: 4,  name: "wait",       dispatch: "sys_wait",         stub: "wait_child",   args: 0 },
    SyscallDef { num: 5,  name: "kill",       dispatch: "sys_kill",         stub: "kill",         args: 1 },
    SyscallDef { num: 6,  name: "sleep",      dispatch: "sys_sleep_us",     stub: "sleep_us",     args: 1 },
    SyscallDef { num: 7,  name: "yield",      dispatch: "sys_yield",        stub: "yield_now",    args: 0 },
    SyscallDef { num: 8,  name: "sbrk",       dispatch: "sys_sbrk",         stub: "sbrk",         args: 1 },
    SyscallDef { num: 9,  name: "priority",   dispatch: "sys_set_priority", stub: "set_priority", args: 1 },
    SyscallDef { num: 10, name: "uptime",     dispatch: "-",                stub: "now_us",       args: 0 },
    // file system
    SyscallDef { num: 11, name: "open",       dispatch: "sys_open",         stub: "open",         args: 2 },
    SyscallDef { num: 12, name: "close",      dispatch: "sys_close",        stub: "close",        args: 1 },
    SyscallDef { num: 13, name: "read",       dispatch: "sys_read",         stub: "read",         args: 2 },
    SyscallDef { num: 14, name: "write",      dispatch: "sys_write",        stub: "write",        args: 2 },
    SyscallDef { num: 15, name: "lseek",      dispatch: "sys_lseek",        stub: "lseek",        args: 2 },
    SyscallDef { num: 16, name: "fsync",      dispatch: "sys_fsync",        stub: "fsync",        args: 1 },
    SyscallDef { num: 17, name: "stat",       dispatch: "sys_stat",         stub: "stat",         args: 1 },
    SyscallDef { num: 18, name: "mkdir",      dispatch: "sys_mkdir",        stub: "mkdir",        args: 1 },
    SyscallDef { num: 19, name: "unlink",     dispatch: "sys_unlink",       stub: "unlink",       args: 1 },
    SyscallDef { num: 20, name: "readdir",    dispatch: "sys_list_dir",     stub: "list_dir",     args: 1 },
    SyscallDef { num: 21, name: "pipe",       dispatch: "sys_pipe",         stub: "pipe",         args: 0 },
    SyscallDef { num: 22, name: "dup",        dispatch: "sys_dup",          stub: "dup",          args: 1 },
    SyscallDef { num: 23, name: "mmap_fb",    dispatch: "sys_fb_map",       stub: "fb_map",       args: 0 },
    SyscallDef { num: 24, name: "fb_flush",   dispatch: "sys_fb_flush",     stub: "fb_flush",     args: 0 },
    // threading & synchronisation
    SyscallDef { num: 25, name: "clone",      dispatch: "sys_clone_thread", stub: "clone_thread", args: 1 },
    SyscallDef { num: 26, name: "sem_create", dispatch: "sys_sem_create",   stub: "sem_create",   args: 1 },
    SyscallDef { num: 27, name: "sem_wait",   dispatch: "sys_sem_wait",     stub: "sem_wait",     args: 1 },
    SyscallDef { num: 28, name: "sem_post",   dispatch: "sys_sem_post",     stub: "sem_post",     args: 1 },
];

/// Kernel entry points named `sys_*` that are *not* numbered syscalls: they
/// back device files and the window-manager protocol (reads/writes on
/// `/dev/*` descriptors or library conveniences layered on `read`/`write`).
/// The ABI-consistency pass requires every `sys_*` function in this module
/// to be either a table dispatch or listed here, so a new syscall cannot be
/// added without claiming a number.
pub const AUX_DISPATCH: [&str; 6] = [
    "sys_read_key_event",    // decode helper over sys_read on /dev/event*
    "sys_fb_info",           // framebuffer geometry (mailbox query, no trap)
    "sys_fb_write",          // store through the user framebuffer mapping
    "sys_surface_create",    // open("/dev/surface") convenience
    "sys_surface_configure", // WM protocol message
    "sys_surface_present",   // WM protocol message
];

/// Names of the 29 syscalls, derived from [`SYSCALL_TABLE`] so the two can
/// never drift.
pub const SYSCALL_NAMES: [&str; NSYSCALLS] = {
    let mut names = [""; NSYSCALLS];
    let mut i = 0;
    while i < NSYSCALLS {
        names[i] = SYSCALL_TABLE[i].name;
        i += 1;
    }
    names
};

impl Kernel {
    pub(crate) fn charge_syscall(&mut self, core: usize, task: TaskId) {
        let c = self.board.cost.trivial_syscall();
        self.board.charge(core, c);
        self.trace.record(
            self.board.now_us(),
            core,
            TraceKind::SyscallEnter,
            Some(task),
            "",
        );
    }

    /// Charges `core` (and attributes to `task`) the cycles implied by the
    /// SD commands issued since `before`. Commands the cache issued as
    /// *prefetch* get their command-setup latency discounted: the read-ahead
    /// is dispatched while the previous transfer's data is still streaming,
    /// so its setup overlaps instead of serialising. Polled commands still
    /// pay their full data phase on the CPU; DMA chains instead charge the
    /// CPU-side work only — control-block construction (`dma_setup` per
    /// scatter-gather run), per-block cache bookkeeping on the completion
    /// path, and the bounce copy between the DMA region and the extents —
    /// while the data phase itself elapses on the device timeline and shows
    /// up as wait time when (and only when) a demand read has to block on it.
    pub(crate) fn charge_sd_delta(
        &mut self,
        core: usize,
        task: TaskId,
        before: crate::kernel::SdSnapshot,
    ) {
        let after = self.sd_snapshot();
        let singles = after.single_cmds - before.single_cmds;
        let ranges = after.range_cmds - before.range_cmds;
        let dma_cmds = after.dma_cmds - before.dma_cmds;
        let dma_cbs = after.dma_cbs - before.dma_cbs;
        let dma_blocks = after.dma_blocks - before.dma_blocks;
        let pio_blocks = (after.blocks - before.blocks).saturating_sub(dma_blocks);
        let prefetched = after.prefetch_cmds - before.prefetch_cmds;
        let cost = &self.board.cost;
        let mut cycles = (singles + ranges + dma_cmds).saturating_sub(prefetched)
            * cost.sd_cmd_latency
            + singles * cost.sd_block_poll_transfer
            + pio_blocks.saturating_sub(singles) * cost.sd_range_block_transfer
            + dma_cbs * cost.dma_setup
            + dma_blocks * cost.bufcache_op
            + cost.per_byte(cost.memmove_fast_per_byte_milli, dma_blocks * 512);
        if self.config.variant == crate::config::KernelVariant::Xv6Baseline {
            // The baseline's simpler SD driver is measurably slower (§7.2).
            cycles = cycles * 8 / 5;
        }
        self.board.charge(core, cycles);
        if let Some(t) = self.tasks_mut(task) {
            t.sd_cycles += cycles;
        }
    }

    // =====================================================================================
    // Task management & time
    // =====================================================================================

    pub(crate) fn sys_getpid(&mut self, task: TaskId, core: usize) -> TaskId {
        self.charge_syscall(core, task);
        task
    }

    pub(crate) fn sys_sleep_us(&mut self, task: TaskId, core: usize, us: u64) -> KResult<()> {
        self.charge_syscall(core, task);
        // Saturate: `sleep(u64::MAX)` must park the task forever, not
        // overflow the deadline in debug builds.
        let wake_at = self.now_us().saturating_add(us.max(1));
        if let Some(t) = self.tasks_mut(task) {
            t.state = TaskState::Sleeping(wake_at);
        }
        self.dequeue_task(task);
        Ok(())
    }

    pub(crate) fn sys_yield(&mut self, task: TaskId, core: usize) -> KResult<()> {
        self.charge_syscall(core, task);
        Ok(())
    }

    pub(crate) fn sys_sbrk(&mut self, task: TaskId, core: usize, delta: i64) -> KResult<u64> {
        self.charge_syscall(core, task);
        self.config.require(self.config.virtual_memory, "sbrk")?;
        let asid = self.task_asid(task)?;
        let cost = self.board.cost.clone();
        let space = self
            .address_space_mut(asid)
            .ok_or_else(|| KernelError::NotFound(format!("address space {asid}")))?;
        let pages_before = space.stats().mapped_pages;
        // Split borrows: sbrk needs frames + mem, both on self but disjoint
        // from address_spaces; do it with a temporary remove/insert.
        let mut space = self
            .take_address_space(asid)
            .ok_or_else(|| KernelError::NotFound(format!("address space {asid}")))?;
        let result = space.sbrk(&mut self.mm.frames, &mut self.board.mem, delta);
        let pages_after = space.stats().mapped_pages;
        self.put_address_space(asid, space);
        let new_pages = pages_after.saturating_sub(pages_before) as u64;
        self.board
            .charge_kernel(core, new_pages * (cost.frame_alloc + cost.pte_write));
        result
    }

    pub(crate) fn sys_fork(
        &mut self,
        task: TaskId,
        core: usize,
        child_program: Box<dyn UserProgram>,
    ) -> KResult<TaskId> {
        self.charge_syscall(core, task);
        self.config.require(self.config.syscalls_tasks, "fork")?;
        let cost = self.board.cost.clone();
        self.board.charge_kernel(core, cost.fork_base);
        // Copy the address space if the parent owns one.
        let parent_mm = self.task(task).map(|t| t.mm).unwrap_or(MmRef::KernelOnly);
        let child_mm = match parent_mm {
            MmRef::Owns(asid) => {
                let mut parent_space = self
                    .take_address_space(asid)
                    .ok_or_else(|| KernelError::NotFound(format!("address space {asid}")))?;
                let forked = parent_space.fork_copy(&mut self.mm.frames, &mut self.board.mem);
                self.put_address_space(asid, parent_space);
                let (child_space, copied) = forked?;
                self.board
                    .charge_kernel(core, copied * cost.fork_copy_per_page);
                let child_asid = self.alloc_asid();
                self.put_address_space(child_asid, child_space);
                MmRef::Owns(child_asid)
            }
            other => other,
        };
        // Child task: inherits fds (bumping pipe refs), cwd and priority.
        let child_name = self
            .task(task)
            .map(|t| format!("{}-child", t.name))
            .unwrap_or_else(|| "child".into());
        let image = ProgramImage {
            name: child_name,
            code_size: 0,
            data_size: 0,
            heap_size: 0,
            args: Vec::new(),
        };
        // Spawn without building a new address space (we already copied one).
        let child = self.spawn_forked_child(task, &image.name, child_program, child_mm)?;
        // Duplicate descriptor table.
        let fds = self.task(task).map(|t| t.fds.clone_for_fork());
        if let Some(fds) = fds {
            // Bump pipe reference counts for inherited pipe fds.
            for fd in 0..crate::vfs::MAX_FDS as i32 {
                if let Ok(f) = fds.get(fd) {
                    if let FileKind::Pipe { id, write_end } = f.kind {
                        let _ = self.pipes_add_ref(id, write_end);
                    }
                }
            }
            if let Some(t) = self.tasks_mut(child) {
                t.fds = fds;
            }
        }
        Ok(child)
    }

    pub(crate) fn sys_spawn(
        &mut self,
        task: TaskId,
        core: usize,
        path: &str,
        args: &[String],
    ) -> KResult<TaskId> {
        self.charge_syscall(core, task);
        self.config
            .require(self.config.syscalls_files, "exec from a file")?;
        // Read the image through the normal file path so exec pays real I/O.
        let fd = self.sys_open(task, core, path, OpenFlags::rdonly())?;
        let mut image_bytes = Vec::new();
        loop {
            match self.sys_read(task, core, fd, 64 * 1024) {
                Ok(chunk) if chunk.is_empty() => break,
                Ok(chunk) => image_bytes.extend_from_slice(&chunk),
                Err(e) => {
                    let _ = self.sys_close(task, core, fd);
                    return Err(e);
                }
            }
        }
        self.sys_close(task, core, fd)?;
        let image = ProgramImage::parse(&image_bytes)?;
        let mut full_args = image.args.clone();
        full_args.extend_from_slice(args);
        let program = self.registry.instantiate(&image.name, &full_args)?;
        self.spawn_user_program(&image, program, task)
    }

    pub(crate) fn sys_wait(&mut self, task: TaskId, core: usize) -> KResult<Option<(TaskId, i32)>> {
        self.charge_syscall(core, task);
        // Reap a pending child if any.
        let pending = self
            .tasks_mut(task)
            .and_then(|t| (!t.pending_children.is_empty()).then(|| t.pending_children.remove(0)));
        if let Some((child, code)) = pending {
            self.remove_task(child);
            return Ok(Some((child, code)));
        }
        // Any children still running?
        let has_children = self.any_child_of(task);
        if has_children {
            self.block_current(task, WaitChannel::ChildExit);
            Ok(None)
        } else {
            Err(KernelError::NotFound("no children".into()))
        }
    }

    pub(crate) fn sys_kill(&mut self, task: TaskId, core: usize, pid: TaskId) -> KResult<()> {
        self.charge_syscall(core, task);
        if self.task(pid).is_none() {
            return Err(KernelError::NotFound(format!("task {pid}")));
        }
        self.handle_exit(pid, -9);
        Ok(())
    }

    pub(crate) fn sys_set_priority(
        &mut self,
        task: TaskId,
        core: usize,
        priority: u8,
    ) -> KResult<()> {
        self.charge_syscall(core, task);
        self.tasks_mut(task)
            .ok_or_else(|| KernelError::NotFound(format!("task {task}")))?
            .set_priority(priority)
    }

    // =====================================================================================
    // Threading & synchronisation
    // =====================================================================================

    pub(crate) fn sys_clone_thread(
        &mut self,
        task: TaskId,
        core: usize,
        thread_program: Box<dyn UserProgram>,
    ) -> KResult<TaskId> {
        self.charge_syscall(core, task);
        self.config
            .require(self.config.syscalls_threading, "clone(CLONE_VM)")?;
        let mm = match self.task(task).map(|t| t.mm) {
            Some(MmRef::Owns(asid)) | Some(MmRef::Shares(asid)) => MmRef::Shares(asid),
            _ => MmRef::KernelOnly,
        };
        let name = self
            .task(task)
            .map(|t| format!("{}-thr", t.name))
            .unwrap_or_else(|| "thread".into());
        let tid = self.spawn_forked_child(task, &name, thread_program, mm)?;
        // Threads share the file table conceptually; we copy it (offsets are
        // private), bumping pipe references.
        let fds = self.task(task).map(|t| t.fds.clone_for_fork());
        if let Some(fds) = fds {
            for fd in 0..crate::vfs::MAX_FDS as i32 {
                if let Ok(f) = fds.get(fd) {
                    if let FileKind::Pipe { id, write_end } = f.kind {
                        let _ = self.pipes_add_ref(id, write_end);
                    }
                }
            }
            if let Some(t) = self.tasks_mut(tid) {
                t.fds = fds;
            }
        }
        Ok(tid)
    }

    pub(crate) fn sys_sem_create(&mut self, task: TaskId, core: usize, value: i64) -> KResult<u64> {
        self.charge_syscall(core, task);
        self.config
            .require(self.config.syscalls_threading, "semaphores")?;
        Ok(self.sems_create(value))
    }

    pub(crate) fn sys_sem_wait(&mut self, task: TaskId, core: usize, sem: u64) -> KResult<()> {
        self.charge_syscall(core, task);
        self.config
            .require(self.config.syscalls_threading, "semaphores")?;
        match self.sems_wait(sem, task)? {
            SemWaitResult::Acquired => Ok(()),
            SemWaitResult::MustBlock => {
                self.block_current(task, WaitChannel::Semaphore(sem));
                Err(KernelError::WouldBlock)
            }
        }
    }

    pub(crate) fn sys_sem_post(&mut self, task: TaskId, core: usize, sem: u64) -> KResult<()> {
        self.charge_syscall(core, task);
        self.config
            .require(self.config.syscalls_threading, "semaphores")?;
        if let Some(waiter) = self.sems_post(sem)? {
            self.wake_task(waiter);
        }
        Ok(())
    }

    // =====================================================================================
    // Files
    // =====================================================================================

    pub(crate) fn sys_open(
        &mut self,
        task: TaskId,
        core: usize,
        path: &str,
        flags: OpenFlags,
    ) -> KResult<i32> {
        self.charge_syscall(core, task);
        self.config
            .require(self.config.syscalls_files, "file syscalls")?;
        let (target, inner) = self.mounts.resolve(path);
        let kind = match target {
            MountTarget::Dev => {
                let dev = DeviceFile::from_path(&inner)
                    .ok_or_else(|| KernelError::NotFound(inner.clone()))?;
                if dev == DeviceFile::Surface {
                    self.config
                        .require(self.config.window_manager, "window manager surfaces")?;
                    let title = self
                        .task(task)
                        .map(|t| t.name.clone())
                        .unwrap_or_else(|| "app".into());
                    let surface_id = self.wm.create_surface(task, title);
                    FileKind::SurfaceHandle { surface_id }
                } else {
                    FileKind::Device(dev)
                }
            }
            MountTarget::Proc => FileKind::Proc { name: inner },
            MountTarget::Root => {
                let fs = self.rootfs_clone()?;
                let bc = &mut self.root_bufcache;
                let dev = self.ramdisk.as_mut().ok_or_else(|| {
                    KernelError::NotSupported("root ramdisk not available".into())
                })?;
                let inum = match fs.lookup(dev, bc, &inner) {
                    Ok(i) => i,
                    Err(protofs::FsError::NotFound(_)) if flags.create => {
                        fs.create(dev, bc, &inner, protofs::xv6fs::InodeType::File)?
                    }
                    Err(e) => return Err(e.into()),
                };
                FileKind::Xv6 { inum }
            }
            MountTarget::Fat => {
                let fat = self.fatfs_clone()?;
                let before = self.sd_snapshot();
                // The directory lookup is read-only, so a scheduled task may
                // park on an in-flight chain and retry the whole open; the
                // create path below mutates and stays synchronous.
                let blocking =
                    self.config.blocking_io && self.in_scheduled_step && self.config.sd_dma;
                let looked_up = {
                    let mut dev = fat_dev!(self, core);
                    self.fat_bufcache.set_block_demand(blocking);
                    let r = fat.lookup(&mut dev, &mut self.fat_bufcache, &inner);
                    self.fat_bufcache.set_block_demand(false);
                    r
                };
                self.charge_sd_delta(core, task, before);
                match looked_up {
                    Ok(_) => {}
                    Err(protofs::FsError::WouldBlock) => {
                        self.block_current(task, WaitChannel::BlockIo);
                        return Err(KernelError::WouldBlock);
                    }
                    Err(protofs::FsError::NotFound(_)) if flags.create => {
                        let before = self.sd_snapshot();
                        {
                            let mut dev = fat_dev!(self, core);
                            fat.create(&mut dev, &mut self.fat_bufcache, &inner, false)?;
                        }
                        self.charge_sd_delta(core, task, before);
                    }
                    Err(e) => return Err(e.into()),
                }
                let pseudo_inum = self.pseudo_inum_for(&inner);
                FileKind::Fat {
                    volume_path: inner,
                    pseudo_inum,
                }
            }
        };
        let file = OpenFile::new(kind, flags);
        self.tasks_mut(task)
            .ok_or_else(|| KernelError::NotFound(format!("task {task}")))?
            .fds
            .install(file)
    }

    pub(crate) fn sys_close(&mut self, task: TaskId, core: usize, fd: i32) -> KResult<()> {
        self.charge_syscall(core, task);
        let file = self
            .tasks_mut(task)
            .ok_or_else(|| KernelError::NotFound(format!("task {task}")))?
            .fds
            .remove(fd)?;
        // The buffer cache is write-back. Without the background flusher,
        // closing a descriptor that wrote to a disk filesystem drains its
        // dirty blocks synchronously (errors propagate to the caller — a
        // failed write-back must not vanish into `close`); with the `kbio`
        // flusher running, the dirty extents stay cached and drain in the
        // background, charged to `kbio`.
        if file.written && !self.config.background_flush {
            match file.kind {
                FileKind::Fat { .. } => self.flush_fat_cache(core, task)?,
                FileKind::Xv6 { .. } => self.flush_root_cache(core, task)?,
                _ => {}
            }
        }
        self.drop_open_file(file);
        Ok(())
    }

    /// Flushes the FAT32 buffer cache to the SD card, charging the issuing
    /// core — and attributing to `task` — the SD commands the write-back
    /// generates. A durability barrier must close the intent log's pending
    /// commit group first: flushing around an open group would force its
    /// deliberately cyclic ordering edges instead of committing them
    /// atomically.
    pub(crate) fn flush_fat_cache(&mut self, core: usize, task: TaskId) -> KResult<()> {
        if self.fatfs.is_none() {
            return Ok(());
        }
        self.commit_fat_group(core, task)?;
        let before = self.sd_snapshot();
        let result = {
            let mut dev = fat_dev!(self, core);
            self.fat_bufcache.flush(&mut dev)
        };
        self.charge_sd_delta(core, task, before);
        result.map_err(KernelError::from)
    }

    /// Flushes the root (xv6fs) buffer cache to the ramdisk, charging the
    /// memory-to-memory copy cost to `core` and attributing it to `task`.
    /// Mirrors [`Self::flush_fat_cache`]: a pending journal commit group
    /// must close before the barrier, or the flush would force the group's
    /// deliberately cyclic ordering edges instead of committing atomically.
    pub(crate) fn flush_root_cache(&mut self, core: usize, task: TaskId) -> KResult<()> {
        let dev = match self.ramdisk.as_mut() {
            Some(d) => d,
            None => return Ok(()),
        };
        if let Some(fs) = self.rootfs.as_ref() {
            fs.commit_pending(dev, &mut self.root_bufcache)?;
        }
        let before = self.root_bufcache.stats().writebacks;
        let result = self.root_bufcache.flush(dev);
        let blocks = self.root_bufcache.stats().writebacks - before;
        let cost = self.board.cost.clone();
        let cycles =
            cost.bufcache_op * blocks + cost.per_byte(cost.ramdisk_per_byte_milli, blocks * 512);
        self.board.charge(core, cycles);
        if let Some(t) = self.tasks_mut(task) {
            t.sd_cycles += cycles;
        }
        result.map_err(KernelError::from)
    }

    /// `fsync`: drains a file's dirty blocks from the write-back buffer
    /// cache to the backing device. Proto has no per-file dirty lists, so
    /// this flushes the owning filesystem's cache — the cost accounting
    /// still lands on the calling task, which is the point.
    pub(crate) fn sys_fsync(&mut self, task: TaskId, core: usize, fd: i32) -> KResult<()> {
        self.charge_syscall(core, task);
        let kind = {
            let t = self
                .tasks_mut(task)
                .ok_or_else(|| KernelError::NotFound(format!("task {task}")))?;
            t.fds.get(fd)?.kind.clone()
        };
        match kind {
            FileKind::Fat { .. } => self.flush_fat_cache(core, task)?,
            FileKind::Xv6 { .. } => self.flush_root_cache(core, task)?,
            FileKind::Device(_) | FileKind::Proc { .. } => {}
            FileKind::Pipe { .. } | FileKind::SurfaceHandle { .. } => {
                return Err(KernelError::Invalid("fsync on an unsyncable file".into()));
            }
        }
        if let Some(t) = self.tasks_mut(task) {
            if let Ok(f) = t.fds.get_mut(fd) {
                f.written = false;
            }
        }
        Ok(())
    }

    pub(crate) fn sys_dup(&mut self, task: TaskId, core: usize, fd: i32) -> KResult<i32> {
        self.charge_syscall(core, task);
        let t = self
            .tasks_mut(task)
            .ok_or_else(|| KernelError::NotFound(format!("task {task}")))?;
        let new_fd = t.fds.dup(fd)?;
        let kind = t.fds.get(new_fd)?.kind.clone();
        if let FileKind::Pipe { id, write_end } = kind {
            self.pipes_add_ref(id, write_end)?;
        }
        Ok(new_fd)
    }

    pub(crate) fn sys_pipe(&mut self, task: TaskId, core: usize) -> KResult<(i32, i32)> {
        self.charge_syscall(core, task);
        self.config.require(self.config.syscalls_files, "pipes")?;
        let id = self.pipes_create();
        let t = self
            .tasks_mut(task)
            .ok_or_else(|| KernelError::NotFound(format!("task {task}")))?;
        let r = t.fds.install(OpenFile::new(
            FileKind::Pipe {
                id,
                write_end: false,
            },
            OpenFlags::rdonly(),
        ))?;
        let w = t.fds.install(OpenFile::new(
            FileKind::Pipe {
                id,
                write_end: true,
            },
            OpenFlags {
                write: true,
                ..Default::default()
            },
        ))?;
        Ok((r, w))
    }

    pub(crate) fn sys_lseek(
        &mut self,
        task: TaskId,
        core: usize,
        fd: i32,
        offset: u64,
    ) -> KResult<u64> {
        self.charge_syscall(core, task);
        let t = self
            .tasks_mut(task)
            .ok_or_else(|| KernelError::NotFound(format!("task {task}")))?;
        let f = t.fds.get_mut(fd)?;
        match f.kind {
            FileKind::Xv6 { .. } | FileKind::Fat { .. } => {
                f.offset = offset;
                Ok(offset)
            }
            _ => Err(KernelError::Invalid("lseek on an unseekable file".into())),
        }
    }

    pub(crate) fn sys_stat(&mut self, task: TaskId, core: usize, path: &str) -> KResult<FileStat> {
        self.charge_syscall(core, task);
        self.config.require(self.config.syscalls_files, "stat")?;
        let (target, inner) = self.mounts.resolve(path);
        match target {
            MountTarget::Root => {
                let fs = self.rootfs_clone()?;
                let bc = &mut self.root_bufcache;
                let dev = self.ramdisk.as_mut().ok_or_else(|| {
                    KernelError::NotSupported("root ramdisk not available".into())
                })?;
                let inum = fs.lookup(dev, bc, &inner)?;
                let st = fs.stat(dev, bc, inum)?;
                Ok(FileStat {
                    size: st.size as u64,
                    is_dir: st.itype == protofs::xv6fs::InodeType::Dir,
                })
            }
            MountTarget::Fat => {
                let fat = self.fatfs_clone()?;
                let before = self.sd_snapshot();
                let entry = {
                    let mut dev = fat_dev!(self, core);
                    fat.lookup(&mut dev, &mut self.fat_bufcache, &inner)?
                };
                self.charge_sd_delta(core, task, before);
                Ok(FileStat {
                    size: entry.size as u64,
                    is_dir: entry.is_dir,
                })
            }
            MountTarget::Dev => Ok(FileStat {
                size: 0,
                is_dir: inner == "/dev",
            }),
            MountTarget::Proc => Ok(FileStat {
                size: 0,
                is_dir: inner == "/proc",
            }),
        }
    }

    pub(crate) fn sys_mkdir(&mut self, task: TaskId, core: usize, path: &str) -> KResult<()> {
        self.charge_syscall(core, task);
        self.config.require(self.config.syscalls_files, "mkdir")?;
        let (target, inner) = self.mounts.resolve(path);
        match target {
            MountTarget::Root => {
                let fs = self.rootfs_clone()?;
                let bc = &mut self.root_bufcache;
                let dev = self.ramdisk.as_mut().ok_or_else(|| {
                    KernelError::NotSupported("root ramdisk not available".into())
                })?;
                fs.create(dev, bc, &inner, protofs::xv6fs::InodeType::Dir)?;
                Ok(())
            }
            MountTarget::Fat => {
                let fat = self.fatfs_clone()?;
                let mut dev = fat_dev!(self, core);
                fat.create(&mut dev, &mut self.fat_bufcache, &inner, true)?;
                Ok(())
            }
            _ => Err(KernelError::Permission(
                "cannot mkdir in /dev or /proc".into(),
            )),
        }
    }

    pub(crate) fn sys_unlink(&mut self, task: TaskId, core: usize, path: &str) -> KResult<()> {
        self.charge_syscall(core, task);
        self.config.require(self.config.syscalls_files, "unlink")?;
        let (target, inner) = self.mounts.resolve(path);
        match target {
            MountTarget::Root => {
                let fs = self.rootfs_clone()?;
                let bc = &mut self.root_bufcache;
                let dev = self.ramdisk.as_mut().ok_or_else(|| {
                    KernelError::NotSupported("root ramdisk not available".into())
                })?;
                fs.unlink(dev, bc, &inner)?;
                Ok(())
            }
            MountTarget::Fat => {
                let fat = self.fatfs_clone()?;
                let mut dev = fat_dev!(self, core);
                fat.remove(&mut dev, &mut self.fat_bufcache, &inner)?;
                Ok(())
            }
            _ => Err(KernelError::Permission(
                "cannot unlink in /dev or /proc".into(),
            )),
        }
    }

    pub(crate) fn sys_list_dir(
        &mut self,
        task: TaskId,
        core: usize,
        path: &str,
    ) -> KResult<Vec<String>> {
        self.charge_syscall(core, task);
        self.config.require(self.config.syscalls_files, "readdir")?;
        let (target, inner) = self.mounts.resolve(path);
        match target {
            MountTarget::Root => {
                let fs = self.rootfs_clone()?;
                let bc = &mut self.root_bufcache;
                let dev = self.ramdisk.as_mut().ok_or_else(|| {
                    KernelError::NotSupported("root ramdisk not available".into())
                })?;
                Ok(fs
                    .list_dir(dev, bc, &inner)?
                    .into_iter()
                    .map(|e| e.name)
                    .collect())
            }
            MountTarget::Fat => {
                let fat = self.fatfs_clone()?;
                let mut dev = fat_dev!(self, core);
                Ok(fat
                    .list_dir(&mut dev, &mut self.fat_bufcache, &inner)?
                    .into_iter()
                    .map(|e| e.name)
                    .collect())
            }
            MountTarget::Dev => Ok(DeviceFile::ALL
                .iter()
                .map(|d| d.path().trim_start_matches("/dev/").to_string())
                .collect()),
            MountTarget::Proc => Ok(vec![
                "cpuinfo".into(),
                "meminfo".into(),
                "uptime".into(),
                "tasks".into(),
            ]),
        }
    }

    pub(crate) fn sys_read(
        &mut self,
        task: TaskId,
        core: usize,
        fd: i32,
        max: usize,
    ) -> KResult<Vec<u8>> {
        self.charge_syscall(core, task);
        let (kind, offset, flags) = {
            let t = self
                .tasks_mut(task)
                .ok_or_else(|| KernelError::NotFound(format!("task {task}")))?;
            let f = t.fds.get(fd)?;
            (f.kind.clone(), f.offset, f.flags)
        };
        match kind {
            FileKind::Xv6 { inum } => {
                let fs = self.rootfs_clone()?;
                let bc = &mut self.root_bufcache;
                let dev = self.ramdisk.as_mut().ok_or_else(|| {
                    KernelError::NotSupported("root ramdisk not available".into())
                })?;
                // Clamp the scratch buffer: no xv6 file exceeds
                // MAXFILE_BYTES, so a huge `max` must not drive a huge
                // allocation.
                let mut buf = vec![0u8; max.min(protofs::xv6fs::MAXFILE_BYTES)];
                let n = fs.read(dev, bc, inum, offset as u32, &mut buf)?;
                buf.truncate(n);
                let cost = self.board.cost.clone();
                self.board.charge(
                    core,
                    cost.per_byte(cost.ramdisk_per_byte_milli, n as u64)
                        + cost.bufcache_op * (n as u64 / 512 + 1),
                );
                self.advance_offset(task, fd, n as u64)?;
                Ok(buf)
            }
            FileKind::Fat { volume_path, .. } => {
                let fat = self.fatfs_clone()?;
                // Blocking demand mode: a scheduled task whose read window
                // hits an in-flight chain parks on the block-I/O channel
                // and retries the whole syscall when the completion router
                // wakes it (the offset only advances on success, so the
                // retry is idempotent). Outside `run_slice` — benches
                // driving syscalls via `with_task_ctx` — there is no
                // scheduler to run the device forward, so the cache keeps
                // its spin-reap path.
                let blocking =
                    self.config.blocking_io && self.in_scheduled_step && self.config.sd_dma;
                let before = self.sd_snapshot();
                self.fat_bufcache.set_block_demand(blocking);
                let result = {
                    let mut dev = fat_dev!(self, core);
                    fat.read_at(
                        &mut dev,
                        &mut self.fat_bufcache,
                        &volume_path,
                        offset as u32,
                        max,
                    )
                };
                self.fat_bufcache.set_block_demand(false);
                self.charge_sd_delta(core, task, before);
                match result {
                    Ok(data) => {
                        let cost = self.board.cost.clone();
                        self.board.charge(
                            core,
                            cost.per_byte(cost.bufcache_copy_per_byte_milli, data.len() as u64),
                        );
                        self.advance_offset(task, fd, data.len() as u64)?;
                        Ok(data)
                    }
                    Err(protofs::FsError::WouldBlock) => {
                        self.block_current(task, WaitChannel::BlockIo);
                        Err(KernelError::WouldBlock)
                    }
                    Err(e) => Err(e.into()),
                }
            }
            FileKind::Device(dev) => self.read_device(task, core, dev, max, flags),
            FileKind::Proc { name } => {
                // Generate (and cache) the snapshot, then serve from offset.
                let content = {
                    let t = self
                        .tasks_mut(task)
                        .ok_or_else(|| KernelError::NotFound(format!("task {task}")))?;
                    let f = t.fds.get_mut(fd)?;
                    if f.proc_snapshot.is_none() {
                        f.proc_snapshot = Some(Vec::new()); // placeholder, filled below
                    }
                    f.proc_snapshot.clone().unwrap_or_default()
                };
                let content = if content.is_empty() {
                    let generated = self.procfs_content(&name)?;
                    let t = self
                        .tasks_mut(task)
                        .ok_or_else(|| KernelError::NotFound(format!("task {task}")))?;
                    let f = t.fds.get_mut(fd)?;
                    f.proc_snapshot = Some(generated.clone());
                    generated
                } else {
                    content
                };
                let start = (offset as usize).min(content.len());
                let end = start.saturating_add(max).min(content.len());
                let out = content[start..end].to_vec();
                self.advance_offset(task, fd, out.len() as u64)?;
                Ok(out)
            }
            FileKind::Pipe { id, write_end } => {
                if write_end {
                    return Err(KernelError::Invalid("read from a pipe write end".into()));
                }
                let cost = self.board.cost.clone();
                self.board.charge_kernel(core, cost.pipe_op);
                match self.pipes_read(id, max)? {
                    crate::pipe::PipeReadResult::Data(d) => {
                        self.board.charge_kernel(
                            core,
                            cost.per_byte(cost.pipe_copy_per_byte_milli, d.len() as u64),
                        );
                        self.wake_all(WaitChannel::PipeWrite(id));
                        Ok(d)
                    }
                    crate::pipe::PipeReadResult::Eof => Ok(Vec::new()),
                    crate::pipe::PipeReadResult::WouldBlock => {
                        if flags.nonblock {
                            Err(KernelError::WouldBlock)
                        } else {
                            self.block_current(task, WaitChannel::PipeRead(id));
                            Err(KernelError::WouldBlock)
                        }
                    }
                }
            }
            FileKind::SurfaceHandle { .. } => Err(KernelError::Invalid(
                "surfaces are write-only; read events from /dev/event1".into(),
            )),
        }
    }

    fn read_device(
        &mut self,
        task: TaskId,
        core: usize,
        dev: DeviceFile,
        max: usize,
        flags: OpenFlags,
    ) -> KResult<Vec<u8>> {
        match dev {
            DeviceFile::Events | DeviceFile::WmEvents => {
                let use_dispatched = dev == DeviceFile::WmEvents;
                let mut out = Vec::new();
                let now = self.now_us();
                loop {
                    if out.len() + crate::kbd::EVENT_RECORD_SIZE > max {
                        break;
                    }
                    let ev = if use_dispatched {
                        self.kbd.dispatched_queue.pop()
                    } else {
                        self.kbd.raw_queue.pop()
                    };
                    match ev {
                        Some(e) => {
                            self.trace.record(
                                now,
                                core,
                                TraceKind::KeyEventApp,
                                Some(task),
                                format!("{}", e.timestamp_us),
                            );
                            out.extend_from_slice(&crate::kbd::encode_event(&e));
                        }
                        None => break,
                    }
                }
                if out.is_empty() {
                    if flags.nonblock {
                        return Err(KernelError::WouldBlock);
                    }
                    self.block_current(task, WaitChannel::KeyEvent);
                    return Err(KernelError::WouldBlock);
                }
                Ok(out)
            }
            DeviceFile::Null => Ok(Vec::new()),
            DeviceFile::Console => {
                if self.board.uart.rx_ready() {
                    let mut out = Vec::new();
                    while out.len() < max {
                        match self.board.uart.read_byte() {
                            Some(b) => out.push(b),
                            None => break,
                        }
                    }
                    Ok(out)
                } else if flags.nonblock {
                    Err(KernelError::WouldBlock)
                } else {
                    self.block_current(task, WaitChannel::KeyEvent);
                    Err(KernelError::WouldBlock)
                }
            }
            DeviceFile::Framebuffer | DeviceFile::SoundBuffer | DeviceFile::Surface => Err(
                KernelError::Invalid(format!("{} is not readable", dev.path())),
            ),
        }
    }

    pub(crate) fn sys_write(
        &mut self,
        task: TaskId,
        core: usize,
        fd: i32,
        data: &[u8],
    ) -> KResult<usize> {
        self.charge_syscall(core, task);
        let (kind, offset, flags) = {
            let t = self
                .tasks_mut(task)
                .ok_or_else(|| KernelError::NotFound(format!("task {task}")))?;
            let f = t.fds.get(fd)?;
            (f.kind.clone(), f.offset, f.flags)
        };
        match kind {
            FileKind::Device(DeviceFile::Console) | FileKind::Device(DeviceFile::Null) => {
                if matches!(kind, FileKind::Device(DeviceFile::Console)) {
                    let cost = self
                        .board
                        .cost
                        .uart_tx_per_byte
                        .saturating_mul(data.len() as u64);
                    self.board.charge(core, cost);
                    self.board.uart.write_bytes(data);
                }
                Ok(data.len())
            }
            FileKind::Device(DeviceFile::Framebuffer) => {
                // Raw byte writes to /dev/fb at the descriptor offset.
                let px_off = (offset / BYTES_PER_PIXEL as u64) as usize;
                let pixels: Vec<u32> = data
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect();
                self.sys_fb_write(task, core, px_off, &pixels)?;
                self.advance_offset(task, fd, (pixels.len() * 4) as u64)?;
                Ok(pixels.len() * 4)
            }
            FileKind::Device(DeviceFile::SoundBuffer) => {
                self.config.require(self.config.sound, "sound output")?;
                let now = self.now_us();
                let cost = self.board.cost.clone();
                let outcome = self.sound.write_samples(&mut self.board.pwm, now, data)?;
                match outcome {
                    crate::sound::SoundWriteOutcome::Accepted(n) => {
                        self.board.charge(
                            core,
                            cost.dma_setup
                                + cost.per_byte(cost.memmove_fast_per_byte_milli, n as u64),
                        );
                        Ok(n)
                    }
                    crate::sound::SoundWriteOutcome::WouldBlock => {
                        if flags.nonblock {
                            Err(KernelError::WouldBlock)
                        } else {
                            self.block_current(task, WaitChannel::SoundSpace);
                            Err(KernelError::WouldBlock)
                        }
                    }
                }
            }
            FileKind::Device(DeviceFile::Events)
            | FileKind::Device(DeviceFile::WmEvents)
            | FileKind::Device(DeviceFile::Surface) => Err(KernelError::Invalid(format!(
                "{:?} is not writable via write()",
                kind
            ))),
            FileKind::Xv6 { inum } => {
                // Kick a sleeping flusher *before* the write: if the caches
                // are already past the high-water mark, kbio gets scheduled
                // to absorb the backlog instead of this writer paying for
                // the whole drain itself.
                self.maybe_kick_kbio();
                let fs = self.rootfs_clone()?;
                let bc = &mut self.root_bufcache;
                let dev = self.ramdisk.as_mut().ok_or_else(|| {
                    KernelError::NotSupported("root ramdisk not available".into())
                })?;
                let n = fs.write(dev, bc, inum, offset as u32, data)?;
                let cost = self.board.cost.clone();
                self.board.charge(
                    core,
                    cost.per_byte(cost.ramdisk_per_byte_milli, n as u64)
                        + cost.bufcache_op * (n as u64 / 512 + 1),
                );
                self.advance_offset(task, fd, n as u64)?;
                self.mark_written(task, fd);
                self.maybe_kick_kbio();
                Ok(n)
            }
            FileKind::Fat { volume_path, .. } => {
                // A writer about to hit a full DMA queue would spin-reap its
                // own chains (`BufCacheStats::queue_full_stalls`); waking a
                // sleeping kbio first lets the flusher absorb the backlog.
                self.maybe_kick_kbio();
                // Back-pressure fairness: a scheduled writer that finds the
                // SD queue already full yields its slice — parked on the
                // block-I/O channel until a completion frees a queue slot —
                // instead of burning it spin-reaping other tasks' chains.
                // This gate sits *before* any cache mutation because the
                // write path is not retry-idempotent once blocks dirty.
                if self.config.blocking_io
                    && self.in_scheduled_step
                    && self.config.sd_dma
                    && !self.board.sdhost.can_submit()
                {
                    self.fat_bufcache.note_queue_full_yield();
                    self.block_current(task, WaitChannel::BlockIo);
                    return Err(KernelError::WouldBlock);
                }
                // FAT32 offsets are 32-bit: a larger one is refused here,
                // an end past 4 GiB inside `Fat32::write_at`.
                let off = u32::try_from(offset).map_err(|_| {
                    KernelError::Invalid(format!("FAT write offset {offset} too large"))
                })?;
                let fat = self.fatfs_clone()?;
                let before = self.sd_snapshot();
                {
                    let mut dev = fat_dev!(self, core);
                    // `Fat32::write_at` owns the write policy: offset 0
                    // replaces the file, an offset at or past the end
                    // extends it in place, one inside it is a logged
                    // copy-on-write rewrite.
                    fat.write_at(&mut dev, &mut self.fat_bufcache, &volume_path, off, data)?;
                }
                self.charge_sd_delta(core, task, before);
                self.advance_offset(task, fd, data.len() as u64)?;
                self.mark_written(task, fd);
                self.maybe_kick_kbio();
                Ok(data.len())
            }
            FileKind::Proc { .. } => {
                Err(KernelError::Permission("proc files are read-only".into()))
            }
            FileKind::Pipe { id, write_end } => {
                if !write_end {
                    return Err(KernelError::Invalid("write to a pipe read end".into()));
                }
                let cost = self.board.cost.clone();
                self.board.charge_kernel(core, cost.pipe_op);
                match self.pipes_write(id, data)? {
                    crate::pipe::PipeWriteResult::Wrote(n) => {
                        self.board.charge_kernel(
                            core,
                            cost.per_byte(cost.pipe_copy_per_byte_milli, n as u64),
                        );
                        self.wake_all(WaitChannel::PipeRead(id));
                        Ok(n)
                    }
                    crate::pipe::PipeWriteResult::Broken => Err(KernelError::BrokenPipe),
                    crate::pipe::PipeWriteResult::WouldBlock => {
                        if flags.nonblock {
                            Err(KernelError::WouldBlock)
                        } else {
                            self.block_current(task, WaitChannel::PipeWrite(id));
                            Err(KernelError::WouldBlock)
                        }
                    }
                }
            }
            FileKind::SurfaceHandle { surface_id } => {
                // Raw pixel writes: a full ARGB frame per write().
                let pixels: Vec<u32> = data
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect();
                let cost = self.board.cost.clone();
                self.board.charge(
                    core,
                    cost.per_byte(cost.memmove_fast_per_byte_milli, data.len() as u64),
                );
                self.wm.submit_frame(surface_id, &pixels)?;
                Ok(data.len())
            }
        }
    }

    pub(crate) fn sys_read_key_event(
        &mut self,
        task: TaskId,
        core: usize,
        fd: i32,
    ) -> KResult<Option<protousb::KeyEvent>> {
        match self.sys_read(task, core, fd, crate::kbd::EVENT_RECORD_SIZE) {
            Ok(bytes) if bytes.len() >= crate::kbd::EVENT_RECORD_SIZE => {
                Ok(crate::kbd::decode_event(&bytes))
            }
            Ok(_) => Ok(None),
            Err(KernelError::WouldBlock) => {
                // Non-blocking descriptors simply report "no event yet".
                let nonblock = self
                    .task(task)
                    .and_then(|t| t.fds.get(fd).ok().map(|f| f.flags.nonblock))
                    .unwrap_or(false);
                if nonblock {
                    Ok(None)
                } else {
                    Err(KernelError::WouldBlock)
                }
            }
            Err(e) => Err(e),
        }
    }

    // =====================================================================================
    // Graphics
    // =====================================================================================

    pub(crate) fn sys_fb_info(&mut self, task: TaskId, core: usize) -> KResult<(u32, u32)> {
        self.charge_syscall(core, task);
        self.config
            .require(self.config.framebuffer, "framebuffer")?;
        let info = self
            .board
            .framebuffer
            .info()
            .ok_or_else(|| KernelError::Device("framebuffer not allocated".into()))?;
        Ok((info.width, info.height))
    }

    pub(crate) fn sys_fb_map(&mut self, task: TaskId, core: usize) -> KResult<u64> {
        self.charge_syscall(core, task);
        self.config
            .require(self.config.framebuffer, "framebuffer")?;
        let info = self
            .board
            .framebuffer
            .info()
            .ok_or_else(|| KernelError::Device("framebuffer not allocated".into()))?;
        if let Some(va) = self.fb_mappings.get(&task) {
            return Ok(*va);
        }
        let va = info.phys_addr; // identity mapping, as §4.3 prefers
        if self.config.virtual_memory {
            if let Ok(asid) = self.task_asid(task) {
                let cost = self.board.cost.clone();
                let mut space = self
                    .take_address_space(asid)
                    .ok_or_else(|| KernelError::NotFound(format!("address space {asid}")))?;
                let result = space.map_physical_range(
                    &mut self.mm.frames,
                    &mut self.board.mem,
                    RegionKind::Framebuffer,
                    va,
                    info.phys_addr,
                    info.size as u64,
                    MapFlags::user_framebuffer(),
                );
                self.put_address_space(asid, space);
                result?;
                let pages = (info.size as u64).div_ceil(4096);
                self.board.charge_kernel(core, pages * cost.pte_write);
            }
        }
        self.fb_mappings.insert(task, va);
        Ok(va)
    }

    pub(crate) fn sys_fb_write(
        &mut self,
        task: TaskId,
        core: usize,
        offset_px: usize,
        pixels: &[u32],
    ) -> KResult<()> {
        // Note: deliberately *no* syscall charge — this is a store through the
        // user's framebuffer mapping, not a trap. Only the pixel cost applies.
        self.config
            .require(self.config.framebuffer, "framebuffer")?;
        if self.config.virtual_memory && !self.fb_mappings.contains_key(&task) {
            // Touching an unmapped framebuffer is a fault.
            return Err(KernelError::Fault(
                "framebuffer not mapped; call fb_map() first".into(),
            ));
        }
        let cost = self.board.cost.clone();
        self.board.charge_user(
            core,
            cost.per_byte(cost.pixel_draw_per_px_milli, pixels.len() as u64),
        );
        self.board
            .framebuffer
            .write_pixels(offset_px, pixels, true)?;
        Ok(())
    }

    pub(crate) fn sys_fb_flush(&mut self, task: TaskId, core: usize) -> KResult<()> {
        self.charge_syscall(core, task);
        self.config
            .require(self.config.framebuffer, "framebuffer")?;
        let lines = self.board.framebuffer.flush_all();
        let cost = self.board.cost.cache_flush_per_line * lines as u64;
        self.board.charge_kernel(core, cost);
        self.trace.record(
            self.board.now_us(),
            core,
            TraceKind::FramePresent,
            Some(task),
            "flush",
        );
        Ok(())
    }

    pub(crate) fn sys_surface_create(
        &mut self,
        task: TaskId,
        core: usize,
        title: &str,
    ) -> KResult<i32> {
        self.charge_syscall(core, task);
        self.config
            .require(self.config.window_manager, "window manager")?;
        let surface_id = self.wm.create_surface(task, title);
        let file = OpenFile::new(FileKind::SurfaceHandle { surface_id }, OpenFlags::rdwr());
        self.tasks_mut(task)
            .ok_or_else(|| KernelError::NotFound(format!("task {task}")))?
            .fds
            .install(file)
    }

    pub(crate) fn sys_surface_configure(
        &mut self,
        task: TaskId,
        core: usize,
        fd: i32,
        rect: Rect,
        floating: bool,
    ) -> KResult<()> {
        self.charge_syscall(core, task);
        let surface_id = self.surface_id_for(task, fd)?;
        self.wm.configure(surface_id, rect, floating)
    }

    pub(crate) fn sys_surface_present(
        &mut self,
        task: TaskId,
        core: usize,
        fd: i32,
        pixels: &[u32],
    ) -> KResult<()> {
        // Like fb_write, the copy itself is the cost; no trap charge.
        let surface_id = self.surface_id_for(task, fd)?;
        let cost = self.board.cost.clone();
        self.board.charge_user(
            core,
            cost.per_byte(cost.memmove_fast_per_byte_milli, (pixels.len() * 4) as u64),
        );
        self.wm.submit_frame(surface_id, pixels)
    }

    // =====================================================================================
    // Small internal helpers
    // =====================================================================================

    fn surface_id_for(&self, task: TaskId, fd: i32) -> KResult<u64> {
        let t = self
            .task(task)
            .ok_or_else(|| KernelError::NotFound(format!("task {task}")))?;
        match t.fds.get(fd)?.kind {
            FileKind::SurfaceHandle { surface_id } => Ok(surface_id),
            _ => Err(KernelError::Invalid("fd is not a surface".into())),
        }
    }

    fn advance_offset(&mut self, task: TaskId, fd: i32, by: u64) -> KResult<()> {
        let t = self
            .tasks_mut(task)
            .ok_or_else(|| KernelError::NotFound(format!("task {task}")))?;
        if let Ok(f) = t.fds.get_mut(fd) {
            f.offset = f.offset.saturating_add(by);
        }
        Ok(())
    }

    fn mark_written(&mut self, task: TaskId, fd: i32) {
        if let Some(t) = self.tasks_mut(task) {
            if let Ok(f) = t.fds.get_mut(fd) {
                f.written = true;
            }
        }
    }

    /// Generates the contents of a `/proc` file.
    pub(crate) fn procfs_content(&mut self, name: &str) -> KResult<Vec<u8>> {
        let text = match name {
            "/proc/cpuinfo" | "cpuinfo" => {
                let mut s = String::new();
                for core in 0..self.config.cores {
                    s.push_str(&format!(
                        "processor\t: {core}\nmodel name\t: ARM Cortex-A53 @ 1000 MHz\nfeatures\t: fp asimd\n\n"
                    ));
                }
                s
            }
            "/proc/meminfo" | "meminfo" => {
                let snap = self.memory_snapshot();
                format!(
                    "MemTotal: {} kB\nMemUsed: {} kB\nKernelImage: {} kB\nKmalloc: {} kB\nFrames: {} kB\n",
                    snap.total_bytes / 1024,
                    snap.used_bytes() / 1024,
                    snap.kernel_image_bytes / 1024,
                    snap.kmalloc_bytes / 1024,
                    snap.frames_bytes / 1024,
                )
            }
            "/proc/uptime" | "uptime" => {
                format!("{:.3}\n", self.now_us() as f64 / 1e6)
            }
            "/proc/tasks" | "tasks" => {
                let mut s = String::from("pid\tstate\tprio\tcpu_cycles\tname\n");
                for id in self.task_ids() {
                    if let Some(t) = self.task(id) {
                        s.push_str(&format!(
                            "{}\t{:?}\t{}\t{}\t{}\n",
                            id, t.state, t.priority, t.cpu_cycles, t.name
                        ));
                    }
                }
                s
            }
            other => {
                return Err(KernelError::NotFound(format!("/proc entry '{other}'")));
            }
        };
        Ok(text.into_bytes())
    }
}
