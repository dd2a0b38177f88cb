//! The Proto kernel object: boot, scheduling loop, interrupt handling.
//!
//! This is the monolithic kernel of §3: it owns the simulated board, the
//! memory manager, the scheduler, the VFS and every driver, and runs user
//! programs in cooperative steps. The file-level split mirrors the paper's
//! own structure — this module covers boot and the core loop, `syscalls.rs`
//! the user/kernel interface.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use hal::board::SimBoard;
use hal::cost::{CostModel, Platform};
use hal::intc::Interrupt;
use hal::mem::FRAME_SIZE;
use hal::usb_hw::{UsbHwDevice, UsbSetupPacket};
use protofs::bufcache::BufCache;
use protofs::fat32::Fat32;
use protofs::xv6fs::Xv6Fs;
use protofs::MemDisk;
use protousb::{KeyCode, KeyEvent, Modifiers, SimUsbKeyboard, UsbStack};

use crate::config::{KernelConfig, KernelVariant};
use crate::debug::DebugMonitor;
use crate::error::{KResult, KernelError};
use crate::exec::{ProgramImage, ProgramRegistry};
use crate::kbd::KeyboardDriver;
use crate::mm::addrspace::{AddressSpace, RegionKind};
use crate::mm::pagetable::MapFlags;
use crate::mm::MemoryManager;
use crate::pipe::PipeTable;
use crate::sched::Scheduler;
use crate::sound::SoundDriver;
use crate::sync::SemTable;
use crate::task::{MmRef, Task, TaskId, TaskState, WaitChannel};
use crate::trace::{TraceBuffer, TraceKind};
use crate::usercall::{FramePhases, StepResult, UserCtx, UserProgram};
use crate::vfs::{FdTable, MountTable, OpenFile};
use crate::wm::WindowManager;

/// Size of the ramdisk baked into the kernel image (8 MB, plenty for the
/// program images and `/etc` files).
pub const RAMDISK_BYTES: u64 = 8 * 1024 * 1024;
/// Where the FAT32 partition (partition 2) starts on the SD card, in blocks.
pub const FAT_PARTITION_START: u64 = 8192;
/// Scheduler tick period in microseconds.
pub const TICK_US: u64 = 10_000;
/// Dirty-ratio high-water mark: past this, the adaptive flusher wakes early
/// and writers kick a sleeping `kbio` immediately.
pub const KBIO_HIGH_WATER: f64 = 0.5;
/// Nominal size of the kernel image + packed ramdisk, for memory accounting
/// (the paper's Prototype 5 kernel is ~33 kSLoC plus an 8 MB ramdisk dump).
pub const KERNEL_IMAGE_BYTES: u64 = 2 * 1024 * 1024 + RAMDISK_BYTES;

/// A point-in-time snapshot of SD traffic counters plus the FAT cache's
/// prefetch-command counter; syscalls diff two snapshots to charge the right
/// cycle cost for exactly the commands they caused (prefetch-issued commands
/// get their setup latency discounted — it overlaps the previous transfer;
/// DMA chains charge command issue + control-block setup + per-block
/// completion bookkeeping, while their data phase runs on the device
/// timeline and shows up as wait time, not as a CPU charge).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SdSnapshot {
    pub(crate) single_cmds: u64,
    pub(crate) range_cmds: u64,
    pub(crate) blocks: u64,
    pub(crate) prefetch_cmds: u64,
    pub(crate) dma_cmds: u64,
    pub(crate) dma_cbs: u64,
    pub(crate) dma_blocks: u64,
}

/// Builds the FAT volume's block-device adapter over the SD card, attaching
/// the DMA context (engine + clock + cost model) whenever the kernel's SD
/// data path runs in DMA mode — so every filesystem call site drives the
/// same asynchronous queue. All borrows are disjoint `board` fields.
macro_rules! fat_dev {
    ($k:expr, $core:expr) => {{
        // Stamp the operating core on the cache first: extent placement
        // (the core's home shards) and chain ownership (which core reaps a
        // completion) key off the core driving this device instance.
        $k.fat_bufcache.set_home_core($core);
        let total = $k.board.sdhost.total_blocks();
        protofs::block::SdBlockDevice::with_dma(
            &mut $k.board.sdhost,
            crate::kernel::FAT_PARTITION_START,
            total - crate::kernel::FAT_PARTITION_START,
            if $k.config.sd_dma {
                Some(protofs::block::SdDmaCtx {
                    engine: &mut $k.board.dma,
                    clock: &mut $k.board.clock,
                    cost: &$k.board.cost,
                    core: $core,
                })
            } else {
                None
            },
        )
    }};
}
pub(crate) use fat_dev;

/// Boot-time measurements (Figure 8's right-hand table).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BootStats {
    /// Time the firmware spent loading the kernel image, in ms.
    pub firmware_load_ms: u64,
    /// Time from power-on to the shell prompt (kernel fully booted), in ms.
    pub to_prompt_ms: u64,
}

/// Per-task runtime metrics (frames, phase breakdown) used by Table 5 and
/// Figure 11.
#[derive(Debug, Clone, Copy, Default)]
pub struct TaskMetrics {
    /// Frames presented.
    pub frames: u64,
    /// Board time of the first recorded frame (µs).
    pub first_frame_us: u64,
    /// Board time of the latest recorded frame (µs).
    pub last_frame_us: u64,
    /// Accumulated app-logic cycles across frames.
    pub app_logic_cycles: u64,
    /// Accumulated draw cycles across frames.
    pub draw_cycles: u64,
    /// Accumulated present cycles across frames.
    pub present_cycles: u64,
}

impl TaskMetrics {
    /// Frames per second over the recorded window, optionally skipping a
    /// warm-up period (the paper uses 20 s of warm-up).
    pub fn fps(&self) -> f64 {
        if self.frames < 2 || self.last_frame_us <= self.first_frame_us {
            return 0.0;
        }
        let secs = (self.last_frame_us - self.first_frame_us) as f64 / 1e6;
        (self.frames - 1) as f64 / secs
    }

    /// Mean per-frame latency contribution of each phase, in milliseconds:
    /// (app logic, draw, present).
    pub fn mean_phase_ms(&self) -> (f64, f64, f64) {
        if self.frames == 0 {
            return (0.0, 0.0, 0.0);
        }
        let f = self.frames as f64 * 1e6; // cycles -> ms at 1 GHz
        (
            self.app_logic_cycles as f64 / f,
            self.draw_cycles as f64 / f,
            self.present_cycles as f64 / f,
        )
    }
}

/// A keyboard device shared between the USB port and the kernel's
/// key-injection helper (tests and benches press keys through this).
/// Lock poisoning is recovered with `into_inner`: the keyboard state is
/// plain data, so the worst a panicked presser leaves behind is a missed
/// key event — never a reason to cascade the panic into the kernel.
#[derive(Clone)]
pub struct SharedKeyboard(Arc<Mutex<SimUsbKeyboard>>);

impl SharedKeyboard {
    /// Creates a new shared keyboard.
    pub fn new() -> Self {
        SharedKeyboard(Arc::new(Mutex::new(SimUsbKeyboard::new())))
    }

    /// Presses and releases a key.
    pub fn tap(&self, code: KeyCode, modifiers: Modifiers) {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .tap(code, modifiers);
    }

    /// Presses a key.
    pub fn press(&self, code: KeyCode, modifiers: Modifiers) {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .press(code, modifiers);
    }

    /// Releases a key.
    pub fn release(&self, code: KeyCode) {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .release(code);
    }

    /// Types a string of printable characters.
    pub fn type_str(&self, s: &str) {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).type_str(s);
    }
}

impl Default for SharedKeyboard {
    fn default() -> Self {
        Self::new()
    }
}

impl UsbHwDevice for SharedKeyboard {
    fn control(&mut self, setup: &UsbSetupPacket, data_out: &[u8]) -> hal::HalResult<Vec<u8>> {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .control(setup, data_out)
    }
    fn interrupt_in(&mut self, endpoint: u8) -> Option<Vec<u8>> {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .interrupt_in(endpoint)
    }
    fn has_pending_input(&self) -> bool {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .has_pending_input()
    }
    fn name(&self) -> &str {
        "shared-hid-keyboard"
    }
}

/// The window-manager kernel thread body: services input dispatch and
/// composition at ~60 Hz.
struct WmThread;

impl UserProgram for WmThread {
    fn step(&mut self, ctx: &mut UserCtx<'_>) -> StepResult {
        let core = ctx.core;
        ctx.kernel.wm_service(core);
        let _ = ctx.sleep_ms(16);
        StepResult::Continue
    }
    fn program_name(&self) -> &str {
        "kwm"
    }
}

/// The background write-back flusher kernel thread (modeled on `kwm`): wakes
/// on a timer and drains a bounded budget of dirty extents from the
/// write-back caches, so the SD cycles of deferred write-back are charged to
/// `kbio` instead of spiking whichever task closes last.
struct KbioThread;

impl UserProgram for KbioThread {
    fn step(&mut self, ctx: &mut UserCtx<'_>) -> StepResult {
        let core = ctx.core;
        ctx.kernel.kbio_service(core);
        // Adaptive cadence: the post-drain dirty ratio decides how soon the
        // flusher needs to look again.
        let interval = ctx.kernel.kbio_next_interval_ms();
        let _ = ctx.sleep_ms(interval);
        StepResult::Continue
    }
    fn program_name(&self) -> &str {
        "kbio"
    }
}

/// The Proto kernel.
pub struct Kernel {
    /// The simulated board.
    pub board: SimBoard,
    /// Kernel configuration (prototype stage + variant).
    pub config: KernelConfig,
    /// Memory manager.
    pub mm: MemoryManager,
    /// Scheduler.
    pub sched: Scheduler,
    /// Trace ring buffer.
    pub trace: TraceBuffer,
    /// Debug monitor.
    pub debugmon: DebugMonitor,
    /// Window manager.
    pub wm: WindowManager,
    /// Program registry consulted by exec/spawn.
    pub registry: ProgramRegistry,

    tasks: HashMap<TaskId, Task>,
    programs: HashMap<TaskId, Box<dyn UserProgram>>,
    address_spaces: HashMap<u64, AddressSpace>,
    next_asid: u64,
    next_task_id: TaskId,

    pipes: PipeTable,
    sems: SemTable,
    pub(crate) mounts: MountTable,

    // Root filesystem (xv6fs on the ramdisk).
    pub(crate) ramdisk: Option<MemDisk>,
    pub(crate) root_bufcache: BufCache,
    pub(crate) rootfs: Option<Xv6Fs>,
    // FAT32 on the SD card.
    pub(crate) fat_bufcache: BufCache,
    pub(crate) fatfs: Option<Fat32>,
    pub(crate) pseudo_inums: HashMap<String, u32>,
    pub(crate) next_pseudo_inum: u32,

    // Drivers.
    pub(crate) kbd: KeyboardDriver,
    pub(crate) sound: SoundDriver,
    usb_stack: UsbStack,
    shared_keyboard: Option<SharedKeyboard>,

    // Per-task framebuffer mapping (user VA of the mapping).
    pub(crate) fb_mappings: HashMap<TaskId, u64>,
    metrics: HashMap<TaskId, TaskMetrics>,

    boot_stats: BootStats,
    booted: bool,
    /// Tracks the last task run per core, to charge context switches only on
    /// actual switches.
    last_on_core: Vec<Option<TaskId>>,
    /// Console output accumulated through `print` (mirrors the UART log).
    console_lines: Vec<String>,
    /// Init task id (parent of orphans).
    init_task: TaskId,
    /// The `kbio` background flusher thread (0 when not running).
    kbio_task: TaskId,
    /// `(log_commits, board time µs)` when `kbio` first observed the FAT
    /// intent log's current commit group pending (`None` = no group open).
    /// Drives the `group_commit_timeout_ms` bound: a group that sits open
    /// past it is force-committed by the flusher's next pass. Keyed on the
    /// commit counter so a group that filled up and self-committed between
    /// passes does not leave a stale timestamp that would prematurely
    /// force-commit its successor.
    fat_group_seen: Option<(u64, u64)>,
    /// Per-core completion routing queues: SD completions polled by the
    /// `Dma0` handler (which always runs on core 0 — the interrupt
    /// controller routes device IRQs there) but owned by a chain another
    /// core submitted are parked here and applied by that core in the same
    /// scheduler pass, so completion bookkeeping lands on the submitting
    /// core's clock. Queues for cores beyond the active set are orphans and
    /// are adopted by the `kbio` flusher.
    pending_sd_comps: Vec<Vec<protofs::block::SgCompletion>>,
    /// The cache's `completions_applied` counter as of the last scheduler
    /// pass; any growth wakes the block-I/O wait channel, no matter which
    /// path reaped the completions.
    sd_comps_seen: u64,
    /// True while a task's program step is running under `run_slice` — the
    /// only context where blocking I/O may actually park the caller
    /// (`with_task_ctx` drives steps synchronously and must stay
    /// spin-based).
    pub(crate) in_scheduled_step: bool,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("stage", &self.config.stage)
            .field("platform", &self.board.platform())
            .field("tasks", &self.tasks.len())
            .field("booted", &self.booted)
            .finish()
    }
}

impl Kernel {
    /// Creates a kernel for `config` on `platform`. Call [`Kernel::boot`]
    /// before running anything.
    pub fn new(config: KernelConfig, platform: Platform) -> Self {
        let mut board = SimBoard::new(platform);
        board.set_active_cores(config.cores);
        Kernel {
            board,
            config,
            mm: MemoryManager::new(KERNEL_IMAGE_BYTES),
            sched: Scheduler::new(config.cores),
            trace: TraceBuffer::default(),
            debugmon: DebugMonitor::new(),
            wm: WindowManager::new(),
            registry: ProgramRegistry::new(),
            tasks: HashMap::new(),
            programs: HashMap::new(),
            address_spaces: HashMap::new(),
            next_asid: 1,
            next_task_id: 1,
            pipes: PipeTable::new(),
            sems: SemTable::new(),
            mounts: MountTable::default(),
            ramdisk: None,
            root_bufcache: BufCache::default(),
            rootfs: None,
            fat_bufcache: BufCache::default(),
            fatfs: None,
            pseudo_inums: HashMap::new(),
            next_pseudo_inum: 1,
            kbd: KeyboardDriver::new(),
            sound: SoundDriver::new(),
            usb_stack: UsbStack::new(),
            shared_keyboard: None,
            fb_mappings: HashMap::new(),
            metrics: HashMap::new(),
            boot_stats: BootStats::default(),
            booted: false,
            last_on_core: vec![None; hal::NUM_CORES],
            console_lines: Vec::new(),
            init_task: 0,
            kbio_task: 0,
            fat_group_seen: None,
            pending_sd_comps: (0..hal::NUM_CORES).map(|_| Vec::new()).collect(),
            sd_comps_seen: 0,
            in_scheduled_step: false,
        }
    }

    /// Convenience: a fully featured Prototype 5 kernel on the Pi 3.
    pub fn desktop_pi3() -> Self {
        Self::new(KernelConfig::desktop(), Platform::Pi3)
    }

    // ---- accessors ----------------------------------------------------------------------

    /// Current board time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.board.now_us()
    }

    /// The platform cost model.
    pub fn cost_model(&self) -> CostModel {
        self.board.cost.clone()
    }

    /// Whether [`Kernel::boot`] has completed.
    pub fn is_booted(&self) -> bool {
        self.booted
    }

    /// Boot-time measurements.
    pub fn boot_stats(&self) -> BootStats {
        self.boot_stats
    }

    /// Looks up a task.
    pub fn task(&self, id: TaskId) -> Option<&Task> {
        self.tasks.get(&id)
    }

    /// Number of live (non-reaped) tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// All live task ids.
    pub fn task_ids(&self) -> Vec<TaskId> {
        let mut v: Vec<_> = self.tasks.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Runtime metrics for a task.
    pub fn task_metrics(&self, id: TaskId) -> Option<TaskMetrics> {
        self.metrics.get(&id).copied()
    }

    /// The UART console log so far.
    pub fn console_log(&self) -> String {
        self.board.uart.tx_log_string()
    }

    /// Lines printed through the in-kernel console helper.
    pub fn console_lines(&self) -> &[String] {
        &self.console_lines
    }

    /// The keyboard injection handle, if a keyboard is attached.
    pub fn keyboard(&self) -> Option<SharedKeyboard> {
        self.shared_keyboard.clone()
    }

    /// Registers a program factory under `name` (delegates to the registry).
    pub fn register_program<F>(&mut self, name: &str, factory: F)
    where
        F: Fn(&[String]) -> Box<dyn UserProgram> + Send + Sync + 'static,
    {
        self.registry.register(name, factory);
    }

    // ---- boot -----------------------------------------------------------------------------

    /// Attaches a USB keyboard to port 0 (before or after boot; enumeration
    /// happens at boot or on the next re-enumeration).
    pub fn attach_keyboard(&mut self) -> KResult<SharedKeyboard> {
        let kb = SharedKeyboard::new();
        self.board.usb.attach(0, Box::new(kb.clone()))?;
        self.shared_keyboard = Some(kb.clone());
        if self.booted && self.config.usb_keyboard {
            self.usb_stack.enumerate(&mut self.board.usb)?;
        }
        Ok(kb)
    }

    /// Boots the kernel: firmware load, device bring-up, filesystem mounts,
    /// and (in Prototype 5) the window-manager kernel thread. Returns the
    /// boot statistics.
    pub fn boot(&mut self) -> KResult<BootStats> {
        if self.booted {
            return Ok(self.boot_stats);
        }
        self.config.apply_variant();
        let cost = self.board.cost.clone();
        // Firmware loads the kernel image from the SD card before the ARM
        // cores even start.
        self.board.charge(0, cost.boot_firmware_load);
        let firmware_ms = self.board.clock.cycles_to_ms(self.board.clock.cycles(0));

        self.printk("proto: booting");
        // UART mode per stage (Table 1 footnotes 7-9).
        let mode = match self.config.stage.number() {
            1 => hal::uart::UartMode::PollingTxOnly,
            2 | 3 => hal::uart::UartMode::IrqRx,
            _ => hal::uart::UartMode::IrqRxTx,
        };
        self.board.uart.set_mode(mode);
        self.board.intc.enable(Interrupt::UartRx);

        // Framebuffer via the mailbox property interface.
        if self.config.framebuffer {
            let mut fb = std::mem::take(&mut self.board.framebuffer);
            self.board.mailbox.allocate_framebuffer(
                &mut fb,
                hal::framebuffer::DEFAULT_WIDTH,
                hal::framebuffer::DEFAULT_HEIGHT,
            )?;
            self.board.framebuffer = fb;
        }

        // Virtual memory: kernel block maps.
        if self.config.virtual_memory {
            self.mm.init_kernel_space(&mut self.board.mem)?;
        }

        // Timers and interrupts.
        self.board.intc.enable(Interrupt::SystemTimer1);
        self.board.intc.enable(Interrupt::SystemTimer3);
        for core in 0..self.config.cores {
            self.board.intc.set_core_masked(core, false);
        }
        let now = self.board.now_us();
        if self.config.multicore {
            for core in 0..self.config.cores {
                self.board.intc.enable(Interrupt::GenericTimer(core));
                self.board
                    .generic_timers
                    .enable_periodic(core, now, TICK_US);
            }
        } else {
            self.board.systimer.arm(1, now, TICK_US);
        }
        self.board.charge(0, cost.boot_kernel_misc);

        // Root filesystem on the ramdisk.
        if self.config.xv6fs {
            let mut ramdisk = MemDisk::new(RAMDISK_BYTES / protofs::BLOCK_SIZE as u64);
            let mut bc = BufCache::default();
            let mut fs = Xv6Fs::mkfs(
                &mut ramdisk,
                &mut bc,
                (RAMDISK_BYTES / protofs::xv6fs::BSIZE as u64) as u32,
                512,
            )?;
            fs.set_journal(self.config.xv6fs_journal);
            self.ramdisk = Some(ramdisk);
            self.root_bufcache = bc;
            self.rootfs = Some(fs);
        }

        // USB: power the controller, enumerate whatever is plugged in.
        if self.config.usb_keyboard {
            self.board.mailbox.set_power_state(3, true);
            self.board.usb.power_on();
            self.board.intc.enable(Interrupt::UsbHc);
            self.board.charge(0, cost.boot_usb_init);
            self.usb_stack.enumerate(&mut self.board.usb)?;
        }

        // Sound path.
        if self.config.sound {
            self.board.intc.enable(Interrupt::Dma0);
            self.board.intc.enable(Interrupt::GpioBank0);
        }

        // SD card + FAT32 on partition 2, mounted at /d.
        if self.config.sd_card && self.config.fat32 {
            self.board.sdhost.init()?;
            self.board.charge(0, cost.boot_sd_init);
            let total = self.board.sdhost.total_blocks();
            let mut bc = BufCache::default();
            let fat = {
                let mut dev = protofs::block::SdBlockDevice::new(
                    &mut self.board.sdhost,
                    FAT_PARTITION_START,
                    total - FAT_PARTITION_START,
                );
                let mut fat = match Fat32::mount(&mut dev, &mut bc) {
                    Ok(f) => f,
                    Err(_) => Fat32::mkfs(&mut dev, &mut bc)?,
                };
                fat.set_intent_log(self.config.fat_intent_log);
                // Group commit is safe at syscall level because close/fsync
                // are the kernel's durability points, and both force the
                // pending group out (as does the flusher's timeout pass).
                fat.set_group_commit_ops(self.config.group_commit_ops);
                // A fresh format leaves the superblock and FAT dirty in the
                // write-back cache; put the card in a mountable state now.
                bc.flush(&mut dev)?;
                fat
            };
            self.fat_bufcache = bc;
            self.fatfs = Some(fat);
            self.mounts = MountTable::with_fat();
        }

        // Posted device write cache: writes park in volatile card/ramdisk RAM
        // until a FLUSH barrier. The consistency layers above already
        // emit the barriers; this knob makes cuts actually test them.
        if self.config.posted_write_cache {
            if let Some(rd) = self.ramdisk.as_mut() {
                rd.set_posted_writes(true);
            }
            self.board.sdhost.set_posted_writes(true);
        }
        // The cache policy, in one place for both volumes. Formatting and
        // mounting above ran under the cache defaults. The xv6 baseline
        // issues one SD command per block (the policy §5.2's range
        // coalescing replaced). Only the FAT cache partitions its shards
        // across the active cores, so each core's extents and write-back
        // chains stay in its home shards; the ramdisk has no device queue
        // to contend for, and the root cache keeps hashed placement.
        for bc in [&mut self.fat_bufcache, &mut self.root_bufcache] {
            bc.set_coalescing(self.config.variant == KernelVariant::Proto);
            bc.set_prefetch(self.config.prefetch);
            bc.set_ordered_writeback(self.config.ordered_writeback);
        }
        self.fat_bufcache
            .set_core_affinity(self.board.active_cores());
        // The DMA data path: scatter-gather chains on channel 0 with the
        // async command queue. The polled mode stays the fallback (and the
        // xv6-baseline behaviour).
        if self.config.sd_card && self.config.fat32 && self.config.sd_dma {
            self.board
                .sdhost
                .set_data_mode(hal::sdhost::SdDataMode::Dma);
            self.board.intc.enable(Interrupt::Dma0);
        }

        // The window-manager kernel thread.
        if self.config.window_manager {
            let wm_tid = self.spawn_kernel_thread("kwm", Box::new(WmThread))?;
            // The WM runs frequently but briefly; give it a modest priority.
            if let Some(t) = self.tasks.get_mut(&wm_tid) {
                t.priority = 5;
            }
        }

        // The background write-back flusher kernel thread.
        if self.config.background_flush && (self.config.xv6fs || self.config.fat32) {
            self.spawn_kbio()?;
        }

        self.printk("proto: boot complete, starting shell");
        let to_prompt_ms = self
            .board
            .clock
            .cycles_to_ms(self.board.clock.global_cycles());
        self.boot_stats = BootStats {
            firmware_load_ms: firmware_ms,
            to_prompt_ms,
        };
        self.booted = true;
        Ok(self.boot_stats)
    }

    /// Writes a kernel log line over the UART (synchronous, as in all five
    /// prototypes).
    pub fn printk(&mut self, msg: &str) {
        let cost = self.board.cost.uart_tx_per_byte * (msg.len() as u64 + 1);
        self.board.charge(0, cost);
        self.board.uart.write_bytes(msg.as_bytes());
        self.board.uart.write_byte(b'\n');
    }

    // ---- filesystem population helpers (used by the image builder) -------------------------

    /// Writes a file into the root (xv6fs) filesystem.
    pub fn install_root_file(&mut self, path: &str, data: &[u8]) -> KResult<()> {
        let fs = self
            .rootfs
            .as_ref()
            .ok_or_else(|| KernelError::NotSupported("root filesystem not available".into()))?;
        let dev = self
            .ramdisk
            .as_mut()
            .ok_or_else(|| KernelError::NotSupported("root ramdisk not available".into()))?;
        fs.write_file(dev, &mut self.root_bufcache, path, data)?;
        Ok(())
    }

    /// Creates a directory on the root filesystem.
    pub fn install_root_dir(&mut self, path: &str) -> KResult<()> {
        let fs = self
            .rootfs
            .as_ref()
            .ok_or_else(|| KernelError::NotSupported("root filesystem not available".into()))?;
        let dev = self
            .ramdisk
            .as_mut()
            .ok_or_else(|| KernelError::NotSupported("root ramdisk not available".into()))?;
        match fs.create(
            dev,
            &mut self.root_bufcache,
            path,
            protofs::xv6fs::InodeType::Dir,
        ) {
            Ok(_) => Ok(()),
            Err(protofs::FsError::AlreadyExists(_)) => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Writes a file onto the FAT32 volume (path relative to the volume, e.g.
    /// `/doom.wad` which apps see as `/d/doom.wad`).
    pub fn install_fat_file(&mut self, volume_path: &str, data: &[u8]) -> KResult<()> {
        let fat = self
            .fatfs
            .as_ref()
            .ok_or_else(|| KernelError::NotSupported("FAT32 not mounted".into()))?
            .clone();
        let mut dev = fat_dev!(self, 0);
        fat.write_file(&mut dev, &mut self.fat_bufcache, volume_path, data)?;
        // Image-building writes happen outside any task context; commit any
        // pending intent-log group and push everything to the card
        // immediately so the installed image is always mountable.
        fat.commit_pending(&mut dev, &mut self.fat_bufcache)?;
        self.fat_bufcache.flush(&mut dev)?;
        Ok(())
    }

    /// Creates a directory on the FAT32 volume.
    pub fn install_fat_dir(&mut self, volume_path: &str) -> KResult<()> {
        let fat = self
            .fatfs
            .as_ref()
            .ok_or_else(|| KernelError::NotSupported("FAT32 not mounted".into()))?
            .clone();
        let mut dev = fat_dev!(self, 0);
        let result = match fat.create(&mut dev, &mut self.fat_bufcache, volume_path, true) {
            Ok(_) => Ok(()),
            Err(protofs::FsError::AlreadyExists(_)) => Ok(()),
            Err(e) => Err(e.into()),
        };
        fat.commit_pending(&mut dev, &mut self.fat_bufcache)?;
        self.fat_bufcache.flush(&mut dev)?;
        result
    }

    /// Installs a program image on the root filesystem under `/bin/<name>`.
    pub fn install_program_image(&mut self, image: &ProgramImage) -> KResult<()> {
        self.install_root_dir("/bin")?;
        let path = format!("/bin/{}", image.name);
        self.install_root_file(&path, &image.encode())
    }

    // ---- task creation ----------------------------------------------------------------------

    fn alloc_task_id(&mut self) -> TaskId {
        let id = self.next_task_id;
        self.next_task_id += 1;
        id
    }

    pub(crate) fn alloc_asid(&mut self) -> u64 {
        let id = self.next_asid;
        self.next_asid += 1;
        id
    }

    /// Spawns a kernel thread running `program`.
    pub fn spawn_kernel_thread(
        &mut self,
        name: &str,
        program: Box<dyn UserProgram>,
    ) -> KResult<TaskId> {
        let id = self.alloc_task_id();
        let mut task = Task::new(id, 0, name, true);
        task.mm = MmRef::KernelOnly;
        let core = self.sched.choose_core();
        task.core = core;
        self.tasks.insert(id, task);
        self.programs.insert(id, program);
        self.metrics.insert(id, TaskMetrics::default());
        self.enqueue_task(id, core);
        Ok(id)
    }

    /// Spawns a user task from an in-memory program image and an already
    /// instantiated program (the file-less exec of Prototype 3; also the
    /// entry point benches use to avoid filesystem dependence).
    pub fn spawn_user_program(
        &mut self,
        image: &ProgramImage,
        program: Box<dyn UserProgram>,
        parent: TaskId,
    ) -> KResult<TaskId> {
        // Prototype 1 is "a baremetal appliance for a single application":
        // without multitasking exactly one user task may exist.
        if !self.config.multitasking {
            let user_tasks = self.tasks.values().filter(|t| !t.kernel_thread).count();
            self.config
                .require(user_tasks == 0, "multitasking (a second task)")?;
        }
        let id = self.alloc_task_id();
        let mut task = Task::new(id, parent, image.name.clone(), false);

        if self.config.virtual_memory {
            let cost = self.board.cost.clone();
            let mut space = AddressSpace::new(&mut self.mm.frames, &mut self.board.mem)?;
            // Code at 0, data after it, heap after that, stack demand-paged.
            let code_len = image.code_size.max(1) as u64;
            let data_start = (code_len.div_ceil(FRAME_SIZE as u64) + 1) * FRAME_SIZE as u64;
            let data_len = image.data_size.max(1) as u64;
            let heap_start =
                data_start + (data_len.div_ceil(FRAME_SIZE as u64) + 1) * FRAME_SIZE as u64;
            let heap_len = image.heap_size.max(FRAME_SIZE as u32) as u64;
            space.add_region(
                &mut self.mm.frames,
                &mut self.board.mem,
                RegionKind::Code,
                0,
                code_len,
                MapFlags::user_code(),
                false,
            )?;
            space.add_region(
                &mut self.mm.frames,
                &mut self.board.mem,
                RegionKind::Data,
                data_start,
                data_len,
                MapFlags::user_data(),
                false,
            )?;
            space.add_region(
                &mut self.mm.frames,
                &mut self.board.mem,
                RegionKind::Heap,
                heap_start,
                heap_len,
                MapFlags::user_data(),
                false,
            )?;
            space.add_stack(&mut self.mm.frames, &mut self.board.mem)?;
            // Charge the exec work: one PTE write per mapped page plus the
            // copy of the code/data payload.
            let pages = space.stats().mapped_pages as u64;
            let exec_cycles = pages * (cost.pte_write + cost.frame_alloc)
                + cost.per_byte(cost.memmove_fast_per_byte_milli, code_len + data_len);
            self.board.charge_kernel(0, exec_cycles);
            let asid = self.alloc_asid();
            self.address_spaces.insert(asid, space);
            task.mm = MmRef::Owns(asid);
        }

        // Standard descriptors 0/1/2 -> console.
        if self.config.file_abstraction {
            let mut fds = FdTable::new();
            for _ in 0..3 {
                fds.install(OpenFile::new(
                    crate::vfs::FileKind::Device(crate::vfs::DeviceFile::Console),
                    crate::vfs::OpenFlags::rdwr(),
                ))?;
            }
            task.fds = fds;
        }

        let core = self.sched.choose_core();
        task.core = core;
        self.tasks.insert(id, task);
        self.programs.insert(id, program);
        self.metrics.insert(id, TaskMetrics::default());
        self.enqueue_task(id, core);
        if self.init_task == 0 {
            self.init_task = id;
        }
        Ok(id)
    }

    /// Spawns a registered program by name using a default image (no
    /// filesystem access). Convenient for tests and benches.
    pub fn spawn_registered(&mut self, name: &str, args: &[String]) -> KResult<TaskId> {
        let program = self.registry.instantiate(name, args)?;
        let image = ProgramImage::small(name);
        self.spawn_user_program(&image, program, 0)
    }

    // ---- exit/kill --------------------------------------------------------------------------

    pub(crate) fn handle_exit(&mut self, id: TaskId, code: i32) {
        let now = self.now_us();
        self.trace
            .record(now, 0, TraceKind::Marker, Some(id), format!("exit {code}"));
        // Close every fd (dropping pipe references). Without the background
        // flusher, descriptors that wrote to a disk filesystem get the same
        // write-back flush sys_close performs, so an exiting (or killed)
        // task still pays for its own dirty blocks and the device is left
        // consistent; with `kbio` running, the dirty extents drain in the
        // background instead. Exit cannot propagate a flush error, so a
        // failure is logged (and the blocks stay dirty for a retry) rather
        // than silently discarded.
        let (open_files, core) = match self.tasks.get_mut(&id) {
            Some(t) => (t.fds.drain_all(), t.core),
            None => return,
        };
        if !self.config.background_flush {
            let flush_fat = open_files
                .iter()
                .any(|f| f.written && matches!(f.kind, crate::vfs::FileKind::Fat { .. }));
            let flush_root = open_files
                .iter()
                .any(|f| f.written && matches!(f.kind, crate::vfs::FileKind::Xv6 { .. }));
            if flush_fat {
                if let Err(e) = self.flush_fat_cache(core, id) {
                    self.printk(&format!("exit({id}): FAT write-back failed: {e}"));
                }
            }
            if flush_root {
                if let Err(e) = self.flush_root_cache(core, id) {
                    self.printk(&format!("exit({id}): root write-back failed: {e}"));
                }
            }
        }
        for f in open_files {
            self.drop_open_file(f);
        }
        // Destroy WM surfaces and release the address space.
        self.wm.destroy_owned_by(id);
        self.fb_mappings.remove(&id);
        self.sems.forget_task(id);
        if let Some(task) = self.tasks.get(&id) {
            if let MmRef::Owns(asid) = task.mm {
                // Only release when no thread still shares it.
                let shared = self
                    .tasks
                    .iter()
                    .any(|(tid, t)| *tid != id && t.mm == MmRef::Shares(asid));
                if !shared {
                    if let Some(mut space) = self.address_spaces.remove(&asid) {
                        let _ = space.release(&mut self.mm.frames);
                    }
                }
            }
        }
        self.programs.remove(&id);
        self.dequeue_task(id);
        let parent = if let Some(task) = self.tasks.get_mut(&id) {
            task.state = TaskState::Zombie(code);
            task.exit_code = Some(code);
            task.parent
        } else {
            return;
        };
        // Notify the parent.
        if let Some(p) = self.tasks.get_mut(&parent) {
            p.pending_children.push((id, code));
            if p.wake_if_waiting_on(WaitChannel::ChildExit) {
                let core = p.core;
                self.enqueue_task(parent, core);
            }
        }
    }

    pub(crate) fn drop_open_file(&mut self, f: OpenFile) {
        match f.kind {
            crate::vfs::FileKind::Pipe { id, write_end } => {
                let _ = self.pipes.close_end(id, write_end);
                // Whoever is blocked on the other side should re-evaluate.
                self.wake_all(WaitChannel::PipeRead(id));
                self.wake_all(WaitChannel::PipeWrite(id));
            }
            crate::vfs::FileKind::SurfaceHandle { surface_id } => {
                self.wm.destroy_surface(surface_id);
            }
            _ => {}
        }
    }

    // ---- runqueue wrappers ----------------------------------------------------------------------

    /// Enqueues `id` on `core`'s runqueue, maintaining the task's
    /// `queued_on` tag. This is the only path that may put a task on a
    /// runqueue: the tag replaces the scheduler's old O(n) duplicate scan
    /// (and its silent inactive-core clamp — the placed core is recorded,
    /// so wakeup charging follows the task). A task already queued, or
    /// currently running on its core, is left alone.
    pub(crate) fn enqueue_task(&mut self, id: TaskId, core: usize) {
        let Some(t) = self.tasks.get(&id) else {
            return;
        };
        if t.queued_on.is_some() || self.sched.current(t.core) == Some(id) {
            return;
        }
        let placed = self.sched.enqueue(id, core);
        if let Some(t) = self.tasks.get_mut(&id) {
            t.queued_on = Some(placed);
            t.core = placed;
        }
    }

    /// Removes `id` from the runqueues: one-queue fast path when its
    /// `queued_on` tag knows where it sits, full sweep otherwise (running
    /// or already-dequeued tasks, which must also vacate `current` slots).
    pub(crate) fn dequeue_task(&mut self, id: TaskId) {
        match self.tasks.get_mut(&id).and_then(|t| t.queued_on.take()) {
            Some(core) => self.sched.remove_from(id, core),
            None => self.sched.remove(id),
        }
    }

    // ---- wait queues ----------------------------------------------------------------------------

    pub(crate) fn block_current(&mut self, task: TaskId, channel: WaitChannel) {
        if let Some(t) = self.tasks.get_mut(&task) {
            t.block_on(channel);
        }
        self.dequeue_task(task);
    }

    pub(crate) fn wake_all(&mut self, channel: WaitChannel) -> usize {
        let mut woken = 0;
        // Wake in id order, not `HashMap` order, so the run queues (and
        // every modeled number downstream) repeat exactly from run to run.
        let mut ids: Vec<TaskId> = self.tasks.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let mut wake_core = None;
            if let Some(t) = self.tasks.get_mut(&id) {
                if t.wake_if_waiting_on(channel) {
                    wake_core = Some(t.core);
                }
            }
            if let Some(core) = wake_core {
                let cost = self.board.cost.wait_wakeup;
                self.board.charge_kernel(core, cost);
                self.enqueue_task(id, core);
                self.trace
                    .record(self.board.now_us(), core, TraceKind::Wakeup, Some(id), "");
                woken += 1;
            }
        }
        woken
    }

    pub(crate) fn wake_task(&mut self, id: TaskId) {
        if let Some(t) = self.tasks.get_mut(&id) {
            if !matches!(t.state, TaskState::Zombie(_)) {
                t.state = TaskState::Ready;
                let core = t.core;
                self.enqueue_task(id, core);
            }
        }
    }

    // ---- interrupts -------------------------------------------------------------------------------

    fn handle_irq(&mut self, core: usize, irq: Interrupt) {
        let now = self.now_us();
        let cost = self.board.cost.irq_entry + self.board.cost.irq_delivery;
        self.board.charge_kernel(core, cost);
        self.trace
            .record(now, core, TraceKind::Irq, None, format!("{irq:?}"));
        match irq {
            Interrupt::SystemTimer1 => {
                self.sched.account_tick(core);
                self.board.systimer.clear_match(1);
                self.board.systimer.rearm_periodic(1, now);
            }
            Interrupt::GenericTimer(c) => {
                self.sched.account_tick(c);
            }
            Interrupt::UsbHc => {
                let events = self
                    .usb_stack
                    .poll_keyboards(&mut self.board.usb, now)
                    .unwrap_or_default();
                if !events.is_empty() {
                    let parse_cost = self.board.cost.hid_report_parse * events.len() as u64;
                    self.board.charge_kernel(core, parse_cost);
                    for e in &events {
                        self.trace.record(
                            now,
                            core,
                            TraceKind::KeyEventDriver,
                            None,
                            format!("{}", e.timestamp_us),
                        );
                    }
                    self.kbd.push_events(events);
                    self.wake_all(WaitChannel::KeyEvent);
                }
            }
            Interrupt::Dma0 => {
                // Channel-0 completions carry either audio refills or SD
                // scatter-gather chains. The SD ones flow back through the
                // driver (`finish_dma` applies the data phase; the adapter
                // kicks the next queued chain) and into the FAT cache's
                // in-flight state — this handler used to silently drop
                // them, which is why no storage byte ever moved by DMA.
                //
                // The interrupt controller routes Dma0 to core 0 only, but
                // each chain's completion bookkeeping is applied by the core
                // that *submitted* it: this handler acts as a router,
                // applying its own chains inline and parking the rest on
                // the owner's `pending_sd_comps` queue
                // (drained later in the same scheduler pass; queues of
                // since-deactivated cores are adopted by `kbio`).
                if self.config.sd_dma {
                    use protofs::block::BlockDevice as _;
                    let comps = {
                        let mut dev = fat_dev!(self, core);
                        dev.poll_completions()
                    };
                    for c in comps {
                        let owner = self.fat_bufcache.chain_owner(c.id).unwrap_or(core);
                        if owner == core {
                            self.fat_bufcache.apply_completion(&c);
                        } else {
                            self.pending_sd_comps[owner].push(c);
                        }
                    }
                }
                // Anything left (audio transfers) drains as before.
                let _ = self.board.dma.take_completions();
                self.sound.refill(&mut self.board.pwm);
                self.wake_all(WaitChannel::SoundSpace);
            }
            Interrupt::UartRx => {
                // Console input: drain into the raw key queue as synthetic
                // key events so shells work over serial too.
                while let Some(b) = self.board.uart.read_byte() {
                    let code = match b {
                        b'\r' | b'\n' => KeyCode::Enter,
                        b' ' => KeyCode::Space,
                        c if c.is_ascii_alphabetic() => {
                            KeyCode::Char((c as char).to_ascii_uppercase())
                        }
                        c if c.is_ascii_digit() => KeyCode::Digit(c as char),
                        other => KeyCode::Unknown(other),
                    };
                    self.kbd.push_events([KeyEvent {
                        code,
                        modifiers: Modifiers::default(),
                        pressed: true,
                        timestamp_us: now,
                    }]);
                }
                self.wake_all(WaitChannel::KeyEvent);
            }
            Interrupt::GpioBank0 => {
                let _ = self.board.gpio.take_pending_events();
            }
            Interrupt::SdHost | Interrupt::UartTx | Interrupt::SystemTimer3 => {}
            Interrupt::PanicButtonFiq => {
                self.debugmon.panic_button(core, now);
                self.printk("proto: panic button pressed, dumping all cores");
            }
        }
    }

    fn wake_sleepers(&mut self) {
        let now = self.now_us();
        let due: Vec<TaskId> = self
            .tasks
            .iter()
            .filter_map(|(id, t)| match t.state {
                TaskState::Sleeping(when) if when <= now => Some(*id),
                _ => None,
            })
            .collect();
        for id in due {
            self.wake_task(id);
        }
    }

    // ---- window-manager service (called from the WM kernel thread) ----------------------------------

    pub(crate) fn wm_service(&mut self, core: usize) {
        let now = self.now_us();
        // Dispatch raw input to the focused app.
        while let Some(event) = self.kbd.raw_queue.pop() {
            if let Some(passed) = self.wm.filter_input(event) {
                self.trace.record(
                    now,
                    core,
                    TraceKind::KeyEventDispatch,
                    self.wm.focused_owner(),
                    format!("{}", passed.timestamp_us),
                );
                self.kbd.dispatched_queue.push(passed);
            }
        }
        if !self.kbd.dispatched_queue.is_empty() {
            self.wake_all(WaitChannel::KeyEvent);
        }
        // Composite dirty surfaces.
        let mut fb = std::mem::take(&mut self.board.framebuffer);
        let written = self.wm.compose(&mut fb).unwrap_or(0);
        self.board.framebuffer = fb;
        if written > 0 {
            let cost = self.board.cost.clone();
            let compose_cycles = cost.per_byte(cost.compose_per_px_milli, written)
                + cost.cache_flush_per_line * (written * 4 / 64);
            self.board.charge_kernel(core, compose_cycles);
            self.trace
                .record(now, core, TraceKind::Compose, None, format!("{written}px"));
        }
    }

    // ---- background write-back service (called from the kbio kernel thread) -------------------------

    /// One bounded write-back pass: drains up to `flush_budget_blocks` dirty
    /// blocks from each write-back cache, charging the SD / ramdisk cycles to
    /// the `kbio` thread's core and task. Errors are logged and the affected
    /// blocks stay dirty for the next pass (a faulted card must not panic or
    /// lose data).
    pub(crate) fn kbio_service(&mut self, core: usize) {
        if !self.config.background_flush {
            return;
        }
        // Adopt orphaned completions: the Dma0 router can park a chain on
        // the queue of a core that has since left the active set (the
        // Figure 10 sweep shrinks it between phases). Nobody drains those
        // queues in `run_slice`, so the flusher applies them here — a
        // completion must never strand dirty/pending state.
        for q in self.board.active_cores()..hal::NUM_CORES {
            let orphans = std::mem::take(&mut self.pending_sd_comps[q]);
            if !orphans.is_empty() {
                let cost = self.board.cost.bufcache_op * orphans.len() as u64;
                self.board.charge_kernel(core, cost);
                for c in &orphans {
                    self.fat_bufcache.apply_completion(c);
                }
            }
        }
        let budget = self.config.flush_budget_blocks.max(1);
        let kbio = self.kbio_task;
        // The intent log's group-commit timeout: a pending group that has
        // sat open past `group_commit_timeout_ms` is force-committed here,
        // so a lone logged operation (no burst following it, no fsync) still
        // becomes durable within a bounded window. The commit's SD cycles
        // are charged to kbio like any other background write-back.
        if self.fatfs.is_some() && self.fat_bufcache.group_txns() > 0 {
            let now = self.now_us();
            let commits = self.fat_bufcache.stats().log_commits;
            let since = match self.fat_group_seen {
                // Same commit generation: the group we stamped is still the
                // open one.
                Some((c, t)) if c == commits => t,
                // First sighting of this group (or its predecessor filled
                // and self-committed since the last pass): stamp it now.
                _ => {
                    self.fat_group_seen = Some((commits, now));
                    now
                }
            };
            if now.saturating_sub(since) >= self.config.group_commit_timeout_ms * 1000 {
                if let Err(e) = self.commit_fat_group(core, kbio) {
                    self.printk(&format!("kbio: group commit failed: {e}"));
                }
            }
        } else {
            self.fat_group_seen = None;
        }
        // FAT32 on the SD card. In DMA mode `flush_some` first reaps any
        // chains that completed since the last pass (surfacing their
        // errors), then *submits* up to the budget and returns — the data
        // phase runs on the device timeline, so kbio's CPU bill is just the
        // command issue and bookkeeping.
        if self.fatfs.is_some() && self.fat_bufcache.dirty_blocks() > 0 {
            let before = self.sd_snapshot();
            let result = {
                let mut dev = fat_dev!(self, core);
                self.fat_bufcache.flush_some(&mut dev, budget)
            };
            self.charge_sd_delta(core, kbio, before);
            if let Err(e) = result {
                self.printk(&format!("kbio: FAT write-back failed: {e}"));
            }
        }
        // xv6fs on the ramdisk.
        if self.rootfs.is_some() && self.root_bufcache.dirty_blocks() > 0 {
            let before = self.root_bufcache.stats().writebacks;
            let result = match self.ramdisk.as_mut() {
                Some(dev) => self.root_bufcache.flush_some(dev, budget),
                None => Ok(0),
            };
            let blocks = self.root_bufcache.stats().writebacks - before;
            let cost = self.board.cost.clone();
            let cycles = cost.bufcache_op * blocks
                + cost.per_byte(cost.ramdisk_per_byte_milli, blocks * 512);
            self.board.charge(core, cycles);
            if let Some(t) = self.tasks.get_mut(&kbio) {
                t.sd_cycles += cycles;
            }
            if let Err(e) = result {
                self.printk(&format!("kbio: root write-back failed: {e}"));
            }
        }
    }

    // ---- metrics ------------------------------------------------------------------------------------

    pub(crate) fn record_frame(&mut self, task: TaskId, phases: FramePhases) {
        let now = self.now_us();
        let m = self.metrics.entry(task).or_default();
        if m.frames == 0 {
            m.first_frame_us = now;
        }
        m.frames += 1;
        m.last_frame_us = now;
        m.app_logic_cycles += phases.app_logic_cycles;
        m.draw_cycles += phases.draw_cycles;
        m.present_cycles += phases.present_cycles;
        self.trace
            .record(now, 0, TraceKind::FramePresent, Some(task), "");
    }

    pub(crate) fn trace_marker(&mut self, task: TaskId, core: usize, detail: &str) {
        self.trace.record(
            self.board.now_us(),
            core,
            TraceKind::Marker,
            Some(task),
            detail,
        );
    }

    pub(crate) fn console_print(&mut self, core: usize, text: &str) {
        let cost = self.board.cost.uart_tx_per_byte * (text.len() as u64 + 1);
        self.board.charge(core, cost);
        self.board.uart.write_bytes(text.as_bytes());
        self.board.uart.write_byte(b'\n');
        self.console_lines.push(text.to_string());
    }

    pub(crate) fn charge_user_cycles(&mut self, task: TaskId, core: usize, cycles: u64) {
        let scaled = self.board.cost.user_cost(cycles);
        self.board.charge(core, scaled);
        if let Some(t) = self.tasks.get_mut(&task) {
            t.cpu_cycles += scaled;
        }
    }

    // ---- the scheduling loop ---------------------------------------------------------------------------

    /// Runs one scheduling iteration on the least-advanced active core.
    /// Returns `true` if a task was stepped (false means the core idled).
    pub fn run_slice(&mut self) -> bool {
        let _ = self.board.tick_devices();
        // Deliver pending interrupts on every active core, then let each
        // core apply the SD completions the Dma0 router parked for it —
        // core 0 runs first, so chains another core submitted are reaped
        // by that core within the same pass (no completion ever waits for
        // a later slice).
        for core in 0..self.board.active_cores() {
            while let Some(irq) = self.board.intc.take_pending(core) {
                self.handle_irq(core, irq);
            }
            let routed = std::mem::take(&mut self.pending_sd_comps[core]);
            if !routed.is_empty() {
                let cost = self.board.cost.bufcache_op * routed.len() as u64;
                self.board.charge_kernel(core, cost);
                for c in &routed {
                    self.fat_bufcache.apply_completion(c);
                }
            }
        }
        // Any reaped completion — whichever core or path applied it — may
        // unblock a parked demand reader or back-pressured writer.
        let applied = self.fat_bufcache.completions_applied();
        if applied != self.sd_comps_seen {
            self.sd_comps_seen = applied;
            self.wake_all(WaitChannel::BlockIo);
        }
        self.wake_sleepers();

        // Pick the laggard active core so the cores advance together.
        let core = (0..self.board.active_cores())
            .min_by_key(|c| self.board.clock.cycles(*c))
            .unwrap_or(0);

        // `pick_next` requeues the previously-running task and pops the
        // next one; mirror both moves into the tasks' `queued_on` tags.
        let prev = self.sched.current(core);
        let next = self.sched.pick_next(core);
        if let Some(p) = prev {
            if next != Some(p) {
                if let Some(t) = self.tasks.get_mut(&p) {
                    t.queued_on = Some(core);
                }
            }
        }
        if let Some(n) = next {
            if let Some(t) = self.tasks.get_mut(&n) {
                t.queued_on = None;
            }
        }
        let tid = match next {
            Some(t) => t,
            None => {
                let before = self.board.clock.cycles(core);
                self.board.wait_for_interrupt(core);
                let after = self.board.clock.cycles(core);
                self.sched.account_idle(core, after - before);
                return false;
            }
        };
        if !self.tasks.contains_key(&tid) {
            self.sched.clear_current(core);
            return false;
        }
        // Charge scheduling overhead; a full context switch only when the
        // core is actually switching tasks.
        let cost = self.board.cost.clone();
        self.board.charge_kernel(core, cost.sched_pick);
        if self.last_on_core[core] != Some(tid) {
            self.board.charge_kernel(core, cost.context_switch);
            self.trace.record(
                self.board.now_us(),
                core,
                TraceKind::ContextSwitch,
                Some(tid),
                "",
            );
        }
        self.last_on_core[core] = Some(tid);
        if let Some(t) = self.tasks.get_mut(&tid) {
            t.state = TaskState::Running;
            t.core = core;
            t.schedules += 1;
        }

        let before = self.board.clock.cycles(core);
        let mut program = match self.programs.remove(&tid) {
            Some(p) => p,
            None => {
                // Task without a program (already exiting).
                self.sched.clear_current(core);
                return false;
            }
        };
        self.in_scheduled_step = true;
        let result = {
            let mut ctx = UserCtx::new(self, tid, core);
            program.step(&mut ctx)
        };
        self.in_scheduled_step = false;
        let after = self.board.clock.cycles(core);
        self.sched.account_busy(core, after - before);
        if let Some(t) = self.tasks.get_mut(&tid) {
            t.cpu_cycles += after - before;
        }

        match result {
            StepResult::Exited(code) => {
                self.programs.insert(tid, program);
                self.programs.remove(&tid);
                self.handle_exit(tid, code);
                self.sched.clear_current(core);
            }
            StepResult::Continue => {
                self.programs.insert(tid, program);
                // If the step blocked or slept, take it off the runqueue.
                let state = self.tasks.get(&tid).map(|t| t.state);
                match state {
                    Some(TaskState::Running) => {
                        if let Some(t) = self.tasks.get_mut(&tid) {
                            t.state = TaskState::Ready;
                        }
                    }
                    Some(TaskState::Sleeping(_)) | Some(TaskState::Blocked(_)) => {
                        self.sched.clear_current(core);
                    }
                    _ => {
                        self.sched.clear_current(core);
                    }
                }
            }
        }
        true
    }

    /// Runs the kernel until the board clock has advanced by `us`
    /// microseconds (across all cores).
    pub fn run_for_us(&mut self, us: u64) {
        let start = self.now_us();
        let mut guard = 0u64;
        while self.now_us() < start + us {
            self.run_slice();
            guard += 1;
            if guard > 50_000_000 {
                panic!("run_for_us: too many iterations without time advancing");
            }
        }
    }

    /// Runs until `pred` returns true or `max_us` of board time has elapsed.
    /// Returns whether the predicate was satisfied.
    pub fn run_until<F: FnMut(&Kernel) -> bool>(&mut self, mut pred: F, max_us: u64) -> bool {
        let start = self.now_us();
        while self.now_us() < start + max_us {
            if pred(self) {
                return true;
            }
            self.run_slice();
        }
        pred(self)
    }

    /// Runs until every user task has exited (kernel threads excluded), or
    /// `max_us` elapses. Returns true if all user tasks finished.
    pub fn run_until_idle(&mut self, max_us: u64) -> bool {
        self.run_until(
            |k| {
                k.tasks
                    .values()
                    .filter(|t| !t.kernel_thread)
                    .all(|t| t.is_zombie())
            },
            max_us,
        )
    }

    /// Advances every core's clock to the most-advanced core — a barrier.
    /// Device models run on the *global* (furthest-ahead) clock, so heavy
    /// single-core work such as asset installation leaves the other cores
    /// with virtual time the device has already lived through: a chain they
    /// submit would look instantaneous. Benches call this between setup and
    /// measurement so every core starts at the device's present.
    pub fn sync_core_clocks(&mut self) {
        let target = self.board.clock.global_cycles();
        for c in 0..hal::NUM_CORES {
            self.board.clock.advance_to(c, target);
        }
    }

    /// CPU utilisation per core over the run so far.
    pub fn core_utilisations(&self) -> Vec<f64> {
        (0..self.board.active_cores())
            .map(|c| self.sched.core_stats(c).utilisation())
            .collect()
    }

    /// A memory-usage snapshot (the §7.3 measurement).
    pub fn memory_snapshot(&self) -> crate::mm::MemSnapshot {
        self.mm.snapshot(&self.board.mem)
    }
}

// ---- internal helpers shared with the syscall layer ------------------------------------------

impl Kernel {
    pub(crate) fn tasks_mut(&mut self, id: TaskId) -> Option<&mut Task> {
        self.tasks.get_mut(&id)
    }

    pub(crate) fn task_asid(&self, task: TaskId) -> KResult<u64> {
        match self.task(task).map(|t| t.mm) {
            Some(MmRef::Owns(asid)) | Some(MmRef::Shares(asid)) => Ok(asid),
            _ => Err(KernelError::NotSupported(
                "task has no user address space".into(),
            )),
        }
    }

    pub(crate) fn address_space_mut(&mut self, asid: u64) -> Option<&mut AddressSpace> {
        self.address_spaces.get_mut(&asid)
    }

    /// Read access to a task's address space (tests and benches use this to
    /// check translations).
    pub fn address_space_of(&self, task: TaskId) -> Option<&AddressSpace> {
        match self.task(task).map(|t| t.mm) {
            Some(MmRef::Owns(asid)) | Some(MmRef::Shares(asid)) => self.address_spaces.get(&asid),
            _ => None,
        }
    }

    pub(crate) fn take_address_space(&mut self, asid: u64) -> Option<AddressSpace> {
        self.address_spaces.remove(&asid)
    }

    pub(crate) fn put_address_space(&mut self, asid: u64, space: AddressSpace) {
        self.address_spaces.insert(asid, space);
    }

    pub(crate) fn spawn_forked_child(
        &mut self,
        parent: TaskId,
        name: &str,
        program: Box<dyn UserProgram>,
        mm: MmRef,
    ) -> KResult<TaskId> {
        let id = self.alloc_task_id();
        let mut task = Task::new(id, parent, name, false);
        task.mm = mm;
        if let Some(p) = self.task(parent) {
            task.priority = p.priority;
            task.cwd = p.cwd.clone();
        }
        let core = self.sched.choose_core();
        task.core = core;
        self.tasks.insert(id, task);
        self.programs.insert(id, program);
        self.metrics.insert(id, TaskMetrics::default());
        self.enqueue_task(id, core);
        Ok(id)
    }

    pub(crate) fn remove_task(&mut self, id: TaskId) {
        self.dequeue_task(id);
        self.tasks.remove(&id);
        self.programs.remove(&id);
    }

    pub(crate) fn any_child_of(&self, parent: TaskId) -> bool {
        self.tasks
            .values()
            .any(|t| t.parent == parent && t.id != parent)
    }

    pub(crate) fn pipes_create(&mut self) -> u64 {
        self.pipes.create()
    }

    pub(crate) fn pipes_read(
        &mut self,
        id: u64,
        max: usize,
    ) -> KResult<crate::pipe::PipeReadResult> {
        self.pipes.read(id, max)
    }

    pub(crate) fn pipes_write(
        &mut self,
        id: u64,
        data: &[u8],
    ) -> KResult<crate::pipe::PipeWriteResult> {
        self.pipes.write(id, data)
    }

    pub(crate) fn pipes_add_ref(&mut self, id: u64, write_end: bool) -> KResult<()> {
        self.pipes.add_ref(id, write_end)
    }

    pub(crate) fn sems_create(&mut self, value: i64) -> u64 {
        self.sems.create(value)
    }

    pub(crate) fn sems_wait(
        &mut self,
        id: u64,
        task: TaskId,
    ) -> KResult<crate::sync::SemWaitResult> {
        self.sems.wait(id, task)
    }

    pub(crate) fn sems_post(&mut self, id: u64) -> KResult<Option<TaskId>> {
        self.sems.post(id)
    }

    pub(crate) fn rootfs_clone(&self) -> KResult<Xv6Fs> {
        self.rootfs
            .clone()
            .ok_or_else(|| KernelError::NotSupported("root filesystem not mounted".into()))
    }

    pub(crate) fn fatfs_clone(&self) -> KResult<Fat32> {
        self.fatfs
            .clone()
            .ok_or_else(|| KernelError::NotSupported("FAT32 not mounted".into()))
    }

    pub(crate) fn sd_snapshot(&self) -> SdSnapshot {
        SdSnapshot {
            single_cmds: self.board.sdhost.single_block_cmds(),
            range_cmds: self.board.sdhost.range_cmds(),
            blocks: self.board.sdhost.blocks_transferred(),
            prefetch_cmds: self.fat_bufcache.stats().prefetch_cmds,
            dma_cmds: self.board.sdhost.dma_cmds(),
            dma_cbs: self.board.sdhost.sg_control_blocks(),
            dma_blocks: self.board.sdhost.dma_blocks(),
        }
    }

    pub(crate) fn pseudo_inum_for(&mut self, volume_path: &str) -> u32 {
        if let Some(i) = self.pseudo_inums.get(volume_path) {
            return *i;
        }
        let i = self.next_pseudo_inum;
        self.next_pseudo_inum += 1;
        self.pseudo_inums.insert(volume_path.to_string(), i);
        i
    }

    /// Number of pseudo-inodes currently tracked for FAT files.
    pub fn pseudo_inode_count(&self) -> usize {
        self.pseudo_inums.len()
    }
}

impl Kernel {
    /// Runs `f` with a syscall context for `task`, as if that task had
    /// trapped into the kernel on core 0. Benchmarks and integration tests
    /// use this to drive individual syscalls and measure their cost without
    /// writing a full [`UserProgram`].
    pub fn with_task_ctx<R>(&mut self, task: TaskId, f: impl FnOnce(&mut UserCtx<'_>) -> R) -> R {
        let core = self.task(task).map(|t| t.core).unwrap_or(0);
        let mut ctx = UserCtx::new(self, task, core);
        f(&mut ctx)
    }

    /// Spawns an inert user task (it never runs on its own) that benches and
    /// tests can issue syscalls from via [`Kernel::with_task_ctx`].
    pub fn spawn_bench_task(&mut self, name: &str) -> KResult<TaskId> {
        struct Inert;
        impl UserProgram for Inert {
            fn step(&mut self, ctx: &mut UserCtx<'_>) -> StepResult {
                let _ = ctx.sleep_ms(1000);
                StepResult::Continue
            }
        }
        let image = ProgramImage::small(name);
        self.spawn_user_program(&image, Box::new(Inert), 0)
    }
}

impl Kernel {
    /// Enables or disables range-command coalescing in the FAT32 buffer
    /// cache (the §5.2 optimisation, now a cache policy rather than a cache
    /// bypass); used by the ablation benchmark.
    pub fn set_fat_range_coalescing(&mut self, coalesce: bool) {
        self.fat_bufcache.set_coalescing(coalesce);
    }

    /// Enables or disables streaming read-ahead on the FAT32 cache (the
    /// prefetch half of the I/O-pipeline ablation).
    pub fn set_fat_prefetch(&mut self, prefetch: bool) {
        self.fat_bufcache.set_prefetch(prefetch);
        self.config.prefetch = prefetch;
    }

    /// Enables or disables the background flusher policy at runtime (the
    /// flusher half of the I/O-pipeline ablation). When disabled, `close`
    /// reverts to draining dirty blocks synchronously; an already-spawned
    /// `kbio` thread keeps sleeping but performs no write-back. Enabling on
    /// a kernel that booted without the flusher spawns the `kbio` thread
    /// now — `close` must never skip its drain with nobody left to do it.
    pub fn set_background_flush(&mut self, enabled: bool) {
        if enabled && self.kbio_task == 0 && self.spawn_kbio().is_err() {
            return; // keep synchronous close-flush semantics
        }
        self.config.background_flush = enabled;
    }

    /// Spawns the `kbio` flusher thread. Write-back is deferrable work, so
    /// it runs below interactive tasks.
    fn spawn_kbio(&mut self) -> KResult<()> {
        let tid = self.spawn_kernel_thread("kbio", Box::new(KbioThread))?;
        if let Some(t) = self.tasks.get_mut(&tid) {
            t.priority = 3;
        }
        self.kbio_task = tid;
        Ok(())
    }

    /// Enables or disables the SD DMA data path at runtime (the DMA half of
    /// the storage ablation). Disabling drains the async queue first —
    /// `close`-style semantics must never strand an in-flight chain — and
    /// drops the host back to polled transfers.
    pub fn set_sd_dma(&mut self, enabled: bool) {
        if !enabled && self.config.sd_dma {
            // Barrier while the DMA context still exists.
            let _ = self.sync_all();
        }
        self.config.sd_dma = enabled && self.config.sd_card;
        self.board.sdhost.set_data_mode(if self.config.sd_dma {
            hal::sdhost::SdDataMode::Dma
        } else {
            hal::sdhost::SdDataMode::Pio
        });
        if self.config.sd_dma {
            self.board.intc.enable(Interrupt::Dma0);
        }
    }

    /// Worst-case dirty ratio across the write-back caches (0.0 = both
    /// clean), the signal the adaptive flusher cadence runs on.
    pub fn cache_dirty_ratio(&self) -> f64 {
        let ratio = |dirty: usize, cap: usize| dirty as f64 / cap.max(1) as f64;
        ratio(
            self.fat_bufcache.dirty_blocks(),
            self.fat_bufcache.capacity_blocks(),
        )
        .max(ratio(
            self.root_bufcache.dirty_blocks(),
            self.root_bufcache.capacity_blocks(),
        ))
    }

    /// How long `kbio` should sleep before its next pass. The configured
    /// `flush_interval_ms` is a midpoint: a cache past the high-water mark
    /// quarters the interval, a completely clean pair of caches sleeps four
    /// intervals, anything in between keeps the configured cadence.
    pub fn kbio_next_interval_ms(&self) -> u64 {
        let base = self.config.flush_interval_ms.max(1);
        let ratio = self.cache_dirty_ratio();
        if ratio >= KBIO_HIGH_WATER {
            (base / 4).max(1)
        } else if ratio > 0.0 {
            base
        } else {
            base * 4
        }
    }

    /// Called by the write paths after dirtying cache blocks: a cache past
    /// the high-water mark wakes a sleeping `kbio` immediately instead of
    /// letting dirty data pile up until the timer fires.
    pub(crate) fn maybe_kick_kbio(&mut self) {
        if !self.config.background_flush || self.kbio_task == 0 {
            return;
        }
        if self.cache_dirty_ratio() >= KBIO_HIGH_WATER {
            self.wake_task(self.kbio_task);
        }
    }

    /// Enables or disables dependency-ordered write-back on both caches (the
    /// crash-consistency ablation switch; on by default everywhere but the
    /// xv6 baseline). Ordering off restores the pure-LBA drain whose
    /// power-cut behaviour the regression tests demonstrate.
    pub fn set_ordered_writeback(&mut self, ordered: bool) {
        self.fat_bufcache.set_ordered_writeback(ordered);
        self.root_bufcache.set_ordered_writeback(ordered);
        self.config.ordered_writeback = ordered;
    }

    /// Enables or disables blocking demand I/O: a scheduled task whose read
    /// hits an in-flight chain (or whose write finds the SD queue full)
    /// parks on [`WaitChannel::BlockIo`] and is woken by the completion
    /// router instead of spin-advancing its core's clock. Off by default —
    /// programs must treat `WouldBlock` as "retry later", which the stock
    /// demo apps' read loops do not.
    pub fn set_blocking_io(&mut self, on: bool) {
        self.config.blocking_io = on;
    }

    /// Rebuilds the FAT cache as `shards` × `extents_per_shard` extents,
    /// keeping its current policy (see [`BufCache::reshape`]). The multicore
    /// scaling bench uses this to give N concurrent streams a resident
    /// working set. Synchronously drains both caches first so no dirty
    /// block or in-flight chain is stranded with the old contents.
    pub fn set_fat_cache_geometry(
        &mut self,
        shards: usize,
        extents_per_shard: usize,
    ) -> KResult<()> {
        self.sync_all()?;
        self.fat_bufcache.reshape(shards, extents_per_shard);
        Ok(())
    }

    /// Sets the FAT32 intent log's group-commit size at runtime (the group
    /// commit ablation switch). Setting it to 1 first commits any pending
    /// group so no transaction is stranded with nobody left to close it.
    pub fn set_group_commit_ops(&mut self, ops: u32) {
        if ops <= 1 && self.fatfs.is_some() && self.fat_bufcache.group_txns() > 0 {
            if let Err(e) = self.commit_fat_group(0, self.kbio_task) {
                self.printk(&format!("set_group_commit_ops: commit failed: {e}"));
            }
        }
        self.config.group_commit_ops = ops.max(1);
        if let Some(f) = self.fatfs.as_mut() {
            f.set_group_commit_ops(ops);
        }
    }

    /// Enables or disables the xv6fs metadata journal at runtime (the
    /// journal-cost ablation switch). xv6fs commits every transaction at
    /// its close, so there is never an open group to strand and the toggle
    /// is immediate.
    pub fn set_xv6fs_journal(&mut self, on: bool) {
        self.config.xv6fs_journal = on;
        if let Some(f) = self.rootfs.as_mut() {
            f.set_journal(on);
        }
    }

    /// Enables or disables the posted write cache on the SD card and the
    /// root ramdisk at runtime (the barrier-cost ablation switch). Turning
    /// the cache off persists whatever it held — a model switch, not a
    /// data-loss event.
    pub fn set_posted_write_cache(&mut self, on: bool) {
        self.config.posted_write_cache = on;
        self.board.sdhost.set_posted_writes(on);
        if let Some(rd) = self.ramdisk.as_mut() {
            rd.set_posted_writes(on);
        }
    }

    /// Commits the FAT intent log's pending group (if any), charging the SD
    /// work to `task`.
    pub(crate) fn commit_fat_group(&mut self, core: usize, task: TaskId) -> KResult<()> {
        let Some(fat) = self.fatfs.as_ref().cloned() else {
            return Ok(());
        };
        if self.fat_bufcache.group_txns() == 0 {
            return Ok(());
        }
        let before = self.sd_snapshot();
        let result = {
            let mut dev = fat_dev!(self, core);
            fat.commit_pending(&mut dev, &mut self.fat_bufcache)
        };
        self.charge_sd_delta(core, task, before);
        self.fat_group_seen = None;
        result.map_err(KernelError::from)
    }

    /// Logged transactions sitting in the FAT intent log's open commit
    /// group.
    pub fn fat_group_txns(&self) -> u64 {
        self.fat_bufcache.group_txns()
    }

    /// The FAT32 volume's buffer cache, read-only (policy and state).
    pub fn fat_cache(&self) -> &BufCache {
        &self.fat_bufcache
    }

    /// The root (xv6fs) volume's buffer cache, read-only.
    pub fn root_cache(&self) -> &BufCache {
        &self.root_bufcache
    }

    /// Statistics of the FAT32 volume's buffer cache.
    pub fn fat_cache_stats(&self) -> protofs::bufcache::BufCacheStats {
        self.fat_bufcache.stats()
    }

    /// Statistics of the root (xv6fs) buffer cache.
    pub fn root_cache_stats(&self) -> protofs::bufcache::BufCacheStats {
        self.root_bufcache.stats()
    }

    /// The `kbio` background flusher's task id (0 when it is not running).
    pub fn kbio_task(&self) -> TaskId {
        self.kbio_task
    }

    /// Storage-stack cycles charged to a task so far (SD commands/transfers
    /// and ramdisk write-back it caused, including background write-back
    /// accumulated by `kbio`).
    pub fn task_sd_cycles(&self, id: TaskId) -> u64 {
        self.tasks.get(&id).map(|t| t.sd_cycles).unwrap_or(0)
    }

    /// Unmount-style barrier: synchronously drains *both* write-back caches
    /// to their devices, propagating the first error. `fsync` covers one
    /// filesystem for one task; this is the whole-system "safe to power off"
    /// point (and what a shutdown path would call).
    pub fn sync_all(&mut self) -> KResult<()> {
        let core = 0;
        let kbio = self.kbio_task;
        self.flush_fat_cache(core, kbio)?;
        self.flush_root_cache(core, kbio)
    }

    /// Drains both write-back caches, then drops every clean cached block —
    /// the `drop_caches` facility. Benchmarks call it between a write and a
    /// read so the read measures cold-cache device throughput instead of the
    /// cache's copy speed.
    pub fn drop_fs_caches(&mut self) -> KResult<()> {
        self.sync_all()?;
        self.fat_bufcache.invalidate_all();
        self.root_bufcache.invalidate_all();
        Ok(())
    }

    /// A copy of the root ramdisk's raw image — what would actually be on the
    /// "card" after a power cut (dirty cache contents excluded). Crash-
    /// consistency tests remount this under a fresh cache.
    pub fn ramdisk_image(&self) -> Option<Vec<u8>> {
        self.ramdisk.as_ref().map(|d| d.image().to_vec())
    }

    /// Injects a fault at `lba` of the root ramdisk (write-backs touching it
    /// fail until [`Kernel::ramdisk_clear_faults`]).
    pub fn ramdisk_inject_fault(&mut self, lba: u64) {
        if let Some(d) = self.ramdisk.as_mut() {
            d.inject_fault(lba);
        }
    }

    /// Clears all injected ramdisk faults.
    pub fn ramdisk_clear_faults(&mut self) {
        if let Some(d) = self.ramdisk.as_mut() {
            d.clear_faults();
        }
    }

    /// Arms a power cut on the SD card: after `blocks` more blocks persist,
    /// the card dies mid-command (a CMD25 crossing the budget is torn) and
    /// every later SD command fails until [`Kernel::sd_power_restore`].
    pub fn sd_power_cut_after(&mut self, blocks: u64) {
        self.board.sdhost.power_cut_after(blocks);
    }

    /// Restores SD power; the card keeps exactly what persisted before the
    /// cut.
    pub fn sd_power_restore(&mut self) {
        self.board.sdhost.power_restored();
    }
}

impl Kernel {
    /// Total key events the keyboard driver has received from the USB stack.
    pub fn kbd_events_received(&self) -> u64 {
        self.kbd.events_received
    }
}
