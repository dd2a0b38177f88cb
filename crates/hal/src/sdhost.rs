//! SD card host controller (EMMC).
//!
//! Prototype 5 brings up a deliberately small SD driver (§4.5) whose
//! *synchronous, polled* single-block and range commands are what bounds
//! FAT32 throughput to around one MB/s even after range coalescing (Figure
//! 8, §5.2) — the "polled-transfer floor" PR 2 measured. This model keeps
//! that polled mode (CMD17/CMD24/CMD18/CMD25 with the CPU feeding the FIFO)
//! as the baseline and adds the driver evolution past it:
//!
//! * **A DMA data path** ([`SdDataMode::Dma`]): the data phase of a read or
//!   write command is carried by a scatter-gather control-block chain on DMA
//!   channel 0 — one control block per contiguous LBA run (ADMA2-style
//!   descriptor table), costed per [`crate::cost::CostModel::sd_dma_run`] on
//!   the *device* timeline so the CPU can overlap it.
//! * **A bounded asynchronous command queue** ([`SD_QUEUE_DEPTH`] entries):
//!   callers [`SdHost::submit_dma_read`]/[`SdHost::submit_dma_write`] and
//!   reap [`SdCompletion`]s when the chain finishes — either from the
//!   [`crate::intc::Interrupt::Dma0`] handler or by polling the channel.
//!   [`SdHost::kick_dma`] programs the engine with the next queued command;
//!   commands start, transfer and complete strictly in submission order.
//!
//! Card-side semantics are identical in both modes: `inject_fault` fails the
//! covering command, and an armed [`SdHost::power_cut_after`] tears a
//! multi-block write at block granularity — a DMA CMD25 crossing the budget
//! persists only its scatter-gather prefix, exactly like the polled path.
//! The polled mode stays fully functional so the xv6-baseline ablation (and
//! tiny metadata transfers) remain honest.

use std::collections::VecDeque;

use crate::clock::Cycles;
use crate::cost::CostModel;
use crate::dma::{DmaDest, DmaEngine, DmaTransfer};
use crate::{HalError, HalResult};

/// SD/FAT sector size in bytes.
pub const BLOCK_SIZE: usize = 512;

/// Default card capacity: a 32 GB class-10 card is what Table 3 lists, but
/// simulating 32 GB sparsely is pointless — the default image is 256 MB,
/// plenty for game assets and test media.
pub const DEFAULT_CARD_BLOCKS: u64 = (256 << 20) / BLOCK_SIZE as u64;

/// Depth of the asynchronous command queue in DMA mode. Eight in-flight
/// commands is plenty to keep the card streaming while bounding the memory
/// pinned under scatter-gather chains.
pub const SD_QUEUE_DEPTH: usize = 8;

/// The DMA channel carrying SD data phases. Channel 0 is the only one whose
/// completions raise [`crate::intc::Interrupt::Dma0`].
pub const SD_DMA_CHANNEL: usize = 0;

/// How the controller moves a command's data phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SdDataMode {
    /// The CPU polls the data FIFO (the paper's driver; the throughput floor).
    Pio,
    /// Scatter-gather DMA chains on channel 0 with the async command queue.
    Dma,
}

/// One contiguous LBA run of a scatter-gather chain (one control block).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdSgRun {
    /// First block of the run.
    pub lba: u64,
    /// Number of blocks.
    pub count: u64,
}

/// A command sitting in (or at the head of) the async queue.
#[derive(Debug, Clone)]
struct SdQueuedCmd {
    id: u64,
    write: bool,
    runs: Vec<SdSgRun>,
    /// Staged payload for writes, run-major (the driver snapshots the buffers
    /// when it builds the chain, so later cache writes cannot tear it).
    data: Option<Vec<u8>>,
}

/// A finished asynchronous command, reported when its chain completes.
#[derive(Debug, Clone)]
pub struct SdCompletion {
    /// The command id returned by submit.
    pub id: u64,
    /// Whether this was a write (CMD25) chain.
    pub write: bool,
    /// The scatter-gather runs the command covered.
    pub runs: Vec<SdSgRun>,
    /// Read payload, run-major (successful reads only).
    pub data: Option<Vec<u8>>,
    /// Outcome of the data phase (faults and power cuts surface here, when
    /// the card actually moved the data — not at submit).
    pub result: HalResult<()>,
}

/// The SD host controller + card model.
#[derive(Debug)]
pub struct SdHost {
    /// Card contents, stored sparsely by block index.
    blocks: std::collections::HashMap<u64, Box<[u8]>>,
    total_blocks: u64,
    initialized: bool,
    /// Statistics: single-block commands issued.
    single_block_cmds: u64,
    /// Statistics: range commands issued.
    range_cmds: u64,
    /// Statistics: total blocks transferred.
    blocks_transferred: u64,
    /// Blocks that will fail on access (error injection).
    faulty_blocks: std::collections::HashSet<u64>,
    /// If set, the card is "removed" and every command fails.
    removed: bool,
    /// Remaining blocks that may persist before the armed power cut fires
    /// (`None` = no cut armed). See [`SdHost::power_cut_after`].
    power_budget: Option<u64>,
    /// True once the armed power cut has fired; every command fails until
    /// [`SdHost::power_restored`].
    power_lost: bool,
    /// CMD25 range writes that persisted only a prefix of their blocks
    /// before failing (mid-transfer power loss).
    torn_writes: u64,
    /// Posted-write-cache mode: completed writes land in [`SdHost::cache`]
    /// (the card's volatile RAM buffer) and persist only at
    /// [`SdHost::flush_cache`] or a FUA write; a power cut drops the whole
    /// cache. Off by default — the instant-persist model the existing torn
    /// write tests pin.
    posted: bool,
    /// The volatile write cache (block → contents). BTreeMap so a flush
    /// persists in deterministic LBA order.
    cache: std::collections::BTreeMap<u64, Box<[u8]>>,
    /// Statistics: cache FLUSH commands served.
    flush_cmds: u64,
    /// Statistics: FUA (forced-program) single-block writes served.
    fua_cmds: u64,
    /// How the data phase moves (polled FIFO vs scatter-gather DMA).
    data_mode: SdDataMode,
    /// Commands waiting for the DMA channel.
    queue: VecDeque<SdQueuedCmd>,
    /// The command whose chain is currently on the channel.
    inflight: Option<SdQueuedCmd>,
    next_cmd_id: u64,
    /// Statistics: DMA-mode commands submitted.
    dma_cmds: u64,
    /// Statistics: scatter-gather control blocks programmed.
    sg_control_blocks: u64,
    /// Statistics: blocks committed to DMA chains (counted at submit so the
    /// submitting task's accounting window sees them).
    dma_blocks: u64,
    /// Statistics: deepest the command queue has ever been (queued +
    /// in-flight). The batched write-back path pushes this toward
    /// [`SD_QUEUE_DEPTH`].
    queue_high_water: usize,
}

impl Default for SdHost {
    fn default() -> Self {
        Self::new(DEFAULT_CARD_BLOCKS)
    }
}

impl SdHost {
    /// Creates a host with an empty (all-zero) card of `total_blocks` blocks.
    pub fn new(total_blocks: u64) -> Self {
        SdHost {
            blocks: std::collections::HashMap::new(),
            total_blocks,
            initialized: false,
            single_block_cmds: 0,
            range_cmds: 0,
            blocks_transferred: 0,
            faulty_blocks: std::collections::HashSet::new(),
            removed: false,
            power_budget: None,
            power_lost: false,
            torn_writes: 0,
            posted: false,
            cache: std::collections::BTreeMap::new(),
            flush_cmds: 0,
            fua_cmds: 0,
            data_mode: SdDataMode::Pio,
            queue: VecDeque::new(),
            inflight: None,
            next_cmd_id: 1,
            dma_cmds: 0,
            sg_control_blocks: 0,
            dma_blocks: 0,
            queue_high_water: 0,
        }
    }

    /// Card capacity in 512-byte blocks.
    pub fn total_blocks(&self) -> u64 {
        self.total_blocks
    }

    /// Performs controller + card initialisation (CMD0/CMD8/ACMD41... on real
    /// hardware). Must be called before any data command.
    pub fn init(&mut self) -> HalResult<()> {
        if self.removed {
            return Err(HalError::InvalidState("no card present".into()));
        }
        self.initialized = true;
        Ok(())
    }

    /// Whether the controller has been initialised.
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// Simulates pulling the card out (or a fatal card error).
    pub fn set_removed(&mut self, removed: bool) {
        self.removed = removed;
        if removed {
            self.initialized = false;
        }
    }

    /// Marks `block` as faulty: reads and writes touching it will fail.
    pub fn inject_fault(&mut self, block: u64) {
        self.faulty_blocks.insert(block);
    }

    /// Clears all injected faults.
    pub fn clear_faults(&mut self) {
        self.faulty_blocks.clear();
    }

    /// Arms a power cut: after `blocks` more blocks persist, the supply dies
    /// mid-command. A CMD25 range write crossing the budget persists only its
    /// first blocks before the command fails — the torn write the crash
    /// consistency tests model — and every later command fails until
    /// [`SdHost::power_restored`]. Card contents persisted before the cut are
    /// retained, exactly as flash would retain them.
    pub fn power_cut_after(&mut self, blocks: u64) {
        self.power_budget = Some(blocks);
        self.power_lost = false;
    }

    /// Restores power (the card keeps whatever persisted before the cut).
    pub fn power_restored(&mut self) {
        self.power_budget = None;
        self.power_lost = false;
    }

    /// Whether the armed power cut has fired.
    pub fn power_lost(&self) -> bool {
        self.power_lost
    }

    /// CMD25 writes torn mid-transfer by the power cut.
    pub fn torn_writes(&self) -> u64 {
        self.torn_writes
    }

    /// Enables or disables the card's modeled posted write cache. When on,
    /// completed writes sit in volatile card RAM until
    /// [`SdHost::flush_cache`] (or a FUA write) programs them to flash; a
    /// power cut drops every un-flushed block. Disabling the mode persists
    /// whatever the cache holds (a model switch, not a data-loss event).
    pub fn set_posted_writes(&mut self, on: bool) {
        if !on && !self.cache.is_empty() {
            let cached = std::mem::take(&mut self.cache);
            for (lba, buf) in cached {
                self.blocks.insert(lba, buf);
            }
        }
        self.posted = on;
    }

    /// Whether the posted write cache is enabled.
    pub fn posted_writes(&self) -> bool {
        self.posted
    }

    /// Blocks sitting in the volatile write cache (un-flushed).
    pub fn cached_blocks(&self) -> usize {
        self.cache.len()
    }

    /// Cache FLUSH commands served.
    pub fn flush_cmds(&self) -> u64 {
        self.flush_cmds
    }

    /// FUA (forced-program) writes served.
    pub fn fua_cmds(&self) -> u64 {
        self.fua_cmds
    }

    /// Cuts power *right now*: the volatile write cache is dropped and
    /// every later command fails until [`SdHost::power_restored`]. The
    /// immediate form of [`SdHost::power_cut_after`].
    pub fn power_cut(&mut self) {
        self.power_lost = true;
        self.power_budget = Some(0);
        self.cache.clear();
    }

    /// The cache FLUSH command: programs every block in the volatile write
    /// cache to flash. The barrier `BlockDevice::flush` threads down to —
    /// a no-op when the cache is off or empty.
    pub fn flush_cache(&mut self) -> HalResult<()> {
        if self.power_lost {
            return Err(HalError::InvalidState("card lost power".into()));
        }
        if self.removed || !self.initialized {
            return Err(HalError::InvalidState("no card present".into()));
        }
        if self.posted {
            self.flush_cmds += 1;
            let cached = std::mem::take(&mut self.cache);
            for (lba, buf) in cached {
                self.blocks.insert(lba, buf);
            }
        }
        Ok(())
    }

    /// Accounts `count` blocks about to persist against an armed power-cut
    /// budget; returns how many actually persist.
    fn power_allow(&mut self, count: u64) -> u64 {
        match self.power_budget {
            None => count,
            Some(budget) => {
                let allowed = budget.min(count);
                self.power_budget = Some(budget - allowed);
                if allowed < count {
                    self.power_lost = true;
                    // The posted write cache is card RAM: it dies with the
                    // power, un-flushed blocks and all.
                    self.cache.clear();
                }
                allowed
            }
        }
    }

    fn check_ready(&self, lba: u64, count: u64) -> HalResult<()> {
        if self.power_lost {
            return Err(HalError::InvalidState("card lost power".into()));
        }
        if self.removed {
            return Err(HalError::InvalidState("no card present".into()));
        }
        if !self.initialized {
            return Err(HalError::InvalidState("SD host not initialised".into()));
        }
        if count == 0 {
            return Err(HalError::OutOfRange("zero-block SD transfer".into()));
        }
        if lba
            .checked_add(count)
            .is_none_or(|end| end > self.total_blocks)
        {
            return Err(HalError::OutOfRange(format!(
                "SD access lba={lba} count={count} beyond {} blocks",
                self.total_blocks
            )));
        }
        for b in lba..lba.saturating_add(count) {
            if self.faulty_blocks.contains(&b) {
                return Err(HalError::InjectedFault(format!("SD block {b}")));
            }
        }
        Ok(())
    }

    fn read_one(&self, lba: u64, out: &mut [u8]) {
        match self.cache.get(&lba).or_else(|| self.blocks.get(&lba)) {
            Some(b) => out.copy_from_slice(b),
            None => out.fill(0),
        }
    }

    fn write_one(&mut self, lba: u64, data: &[u8]) {
        if self.posted {
            self.cache.insert(lba, data.to_vec().into_boxed_slice());
        } else {
            self.blocks.insert(lba, data.to_vec().into_boxed_slice());
        }
    }

    /// Reads a single 512-byte block (CMD17).
    pub fn read_block(&mut self, lba: u64, out: &mut [u8; BLOCK_SIZE]) -> HalResult<()> {
        self.check_ready(lba, 1)?;
        self.single_block_cmds += 1;
        self.blocks_transferred += 1;
        self.read_one(lba, out);
        Ok(())
    }

    /// Writes a single 512-byte block (CMD24).
    pub fn write_block(&mut self, lba: u64, data: &[u8; BLOCK_SIZE]) -> HalResult<()> {
        self.check_ready(lba, 1)?;
        if self.power_allow(1) == 0 {
            return Err(HalError::InvalidState(format!(
                "power cut before CMD24 write of block {lba}"
            )));
        }
        self.single_block_cmds += 1;
        self.blocks_transferred += 1;
        self.write_one(lba, data);
        Ok(())
    }

    /// Writes a single block with Force Unit Access semantics: the block is
    /// programmed to flash directly, bypassing the posted write cache, and
    /// is durable when the command returns. (On a card without the cache
    /// enabled this is just a CMD24.)
    pub fn write_block_fua(&mut self, lba: u64, data: &[u8; BLOCK_SIZE]) -> HalResult<()> {
        self.check_ready(lba, 1)?;
        if self.power_allow(1) == 0 {
            return Err(HalError::InvalidState(format!(
                "power cut before FUA write of block {lba}"
            )));
        }
        self.single_block_cmds += 1;
        self.blocks_transferred += 1;
        if self.posted {
            self.fua_cmds += 1;
            // A FUA write also supersedes any stale volatile copy of the
            // same block — the cache must not later flush old contents over
            // the forced program.
            self.cache.remove(&lba);
        }
        self.blocks.insert(lba, data.to_vec().into_boxed_slice());
        Ok(())
    }

    /// Reads a contiguous range of blocks (CMD18). `out` must be
    /// `count * BLOCK_SIZE` bytes.
    pub fn read_range(&mut self, lba: u64, count: u64, out: &mut [u8]) -> HalResult<()> {
        if out.len() != (count as usize) * BLOCK_SIZE {
            return Err(HalError::OutOfRange(
                "read_range buffer size mismatch".into(),
            ));
        }
        self.check_ready(lba, count)?;
        self.range_cmds += 1;
        self.blocks_transferred += count;
        for i in 0..count {
            let start = (i as usize) * BLOCK_SIZE;
            self.read_one(lba.saturating_add(i), &mut out[start..start + BLOCK_SIZE]);
        }
        Ok(())
    }

    /// Writes a contiguous range of blocks (CMD25). `data` must be
    /// `count * BLOCK_SIZE` bytes.
    pub fn write_range(&mut self, lba: u64, count: u64, data: &[u8]) -> HalResult<()> {
        if data.len() != (count as usize) * BLOCK_SIZE {
            return Err(HalError::OutOfRange(
                "write_range buffer size mismatch".into(),
            ));
        }
        self.check_ready(lba, count)?;
        let persist = self.power_allow(count);
        self.range_cmds += 1;
        self.blocks_transferred += persist;
        // With the posted cache on, a command the cut interrupts leaves
        // nothing behind: the cut already dropped the volatile cache, so
        // re-inserting the prefix would fake durability. No tearing either
        // — loss, not a torn flash program.
        if !self.posted || persist == count {
            for i in 0..persist {
                let start = (i as usize) * BLOCK_SIZE;
                self.write_one(lba.saturating_add(i), &data[start..start + BLOCK_SIZE]);
            }
        }
        if persist < count {
            if persist > 0 && !self.posted {
                self.torn_writes += 1;
            }
            return Err(HalError::InvalidState(format!(
                "power cut mid-CMD25 at block {lba}: {persist} of {count} blocks persisted"
            )));
        }
        Ok(())
    }

    /// Number of single-block commands issued since boot.
    pub fn single_block_cmds(&self) -> u64 {
        self.single_block_cmds
    }

    /// Number of range commands issued since boot.
    pub fn range_cmds(&self) -> u64 {
        self.range_cmds
    }

    /// Total blocks moved since boot.
    pub fn blocks_transferred(&self) -> u64 {
        self.blocks_transferred
    }

    // ---- the DMA data path + async command queue -----------------------------------

    /// Selects the data-phase mode. Switching to PIO with commands still
    /// queued is a driver bug; callers drain the queue first.
    pub fn set_data_mode(&mut self, mode: SdDataMode) {
        self.data_mode = mode;
    }

    /// The current data-phase mode.
    pub fn data_mode(&self) -> SdDataMode {
        self.data_mode
    }

    /// Commands submitted but not yet reaped (queued + on the channel).
    pub fn queue_len(&self) -> usize {
        self.queue.len() + usize::from(self.inflight.is_some())
    }

    /// Whether the queue can accept another command.
    pub fn can_submit(&self) -> bool {
        self.queue_len() < SD_QUEUE_DEPTH
    }

    /// DMA-mode commands submitted since boot.
    pub fn dma_cmds(&self) -> u64 {
        self.dma_cmds
    }

    /// Scatter-gather control blocks programmed since boot.
    pub fn sg_control_blocks(&self) -> u64 {
        self.sg_control_blocks
    }

    /// Blocks committed to DMA chains since boot.
    pub fn dma_blocks(&self) -> u64 {
        self.dma_blocks
    }

    /// Deepest the asynchronous command queue has ever been.
    pub fn queue_high_water(&self) -> usize {
        self.queue_high_water
    }

    /// Validates a scatter-gather list for submission. Faults are *not*
    /// checked here — the card discovers them mid-transfer, so they surface
    /// in the completion.
    fn check_submit(&self, runs: &[SdSgRun]) -> HalResult<u64> {
        if self.data_mode != SdDataMode::Dma {
            return Err(HalError::InvalidState(
                "SD host not in DMA mode; use the polled commands".into(),
            ));
        }
        if !self.can_submit() {
            return Err(HalError::InvalidState(format!(
                "SD command queue full (depth {SD_QUEUE_DEPTH})"
            )));
        }
        if runs.is_empty() {
            return Err(HalError::OutOfRange("empty scatter-gather list".into()));
        }
        if self.power_lost {
            return Err(HalError::InvalidState("card lost power".into()));
        }
        if self.removed {
            return Err(HalError::InvalidState("no card present".into()));
        }
        if !self.initialized {
            return Err(HalError::InvalidState("SD host not initialised".into()));
        }
        let mut total = 0u64;
        for r in runs {
            if r.count == 0 {
                return Err(HalError::OutOfRange("zero-block SD transfer".into()));
            }
            if r.lba
                .checked_add(r.count)
                .is_none_or(|end| end > self.total_blocks)
            {
                return Err(HalError::OutOfRange(format!(
                    "SD access lba={} count={} beyond {} blocks",
                    r.lba, r.count, self.total_blocks
                )));
            }
            total = total.saturating_add(r.count);
        }
        Ok(total)
    }

    fn enqueue(&mut self, write: bool, runs: Vec<SdSgRun>, data: Option<Vec<u8>>) -> u64 {
        let id = self.next_cmd_id;
        self.next_cmd_id += 1;
        self.dma_cmds += 1;
        self.sg_control_blocks += runs.len() as u64;
        let total: u64 = runs.iter().map(|r| r.count).sum();
        self.dma_blocks += total;
        // Counted at submit: the command is committed to the wire. (A torn
        // write may persist fewer; the crash tests check the medium, not the
        // odometer.)
        self.blocks_transferred += total;
        self.queue.push_back(SdQueuedCmd {
            id,
            write,
            runs,
            data,
        });
        self.queue_high_water = self.queue_high_water.max(self.queue_len());
        id
    }

    /// Queues an asynchronous read (CMD18 per contiguous run, chained as one
    /// scatter-gather command). Returns the command id; the data arrives in
    /// the [`SdCompletion`].
    pub fn submit_dma_read(&mut self, runs: &[SdSgRun]) -> HalResult<u64> {
        self.check_submit(runs)?;
        Ok(self.enqueue(false, runs.to_vec(), None))
    }

    /// Queues an asynchronous write (CMD25 per contiguous run). `data` is the
    /// run-major payload, snapshotted into the chain.
    pub fn submit_dma_write(&mut self, runs: &[SdSgRun], data: &[u8]) -> HalResult<u64> {
        let total = self.check_submit(runs)?;
        if data.len() != total as usize * BLOCK_SIZE {
            return Err(HalError::OutOfRange(
                "submit_dma_write payload size mismatch".into(),
            ));
        }
        Ok(self.enqueue(true, runs.to_vec(), Some(data.to_vec())))
    }

    /// Programs the DMA engine with the next queued command's chain if the
    /// channel is idle. Called after submit and after each completion (from
    /// the IRQ handler or the polled wait), so the queue drains in order.
    pub fn kick_dma(&mut self, engine: &mut DmaEngine, now: Cycles, cost: &CostModel) {
        if self.inflight.is_some() || engine.is_busy(SD_DMA_CHANNEL) {
            return;
        }
        let Some(cmd) = self.queue.pop_front() else {
            return;
        };
        let duration: Cycles = cmd
            .runs
            .iter()
            .fold(0u64, |acc, r| acc.saturating_add(cost.sd_dma_run(r.count)));
        let len: usize = cmd.runs.iter().map(|r| r.count as usize * BLOCK_SIZE).sum();
        let started = engine.start(
            SD_DMA_CHANNEL,
            DmaTransfer {
                src: 0,
                dest: DmaDest::SdChain { cmd_id: cmd.id },
                len,
            },
            now,
            duration,
        );
        debug_assert!(started.is_ok(), "idle channel rejected an SD chain");
        self.inflight = Some(cmd);
    }

    /// Completes the in-flight command `cmd_id` (its chain finished on the
    /// engine): applies the data phase to the card at block granularity and
    /// returns the completion. Faults fail the covering command; a write
    /// crossing an armed power cut persists only its prefix (torn, counted)
    /// — identical semantics to the polled path, discovered at completion.
    pub fn finish_dma(&mut self, cmd_id: u64) -> Option<SdCompletion> {
        let cmd = self.inflight.take_if(|c| c.id == cmd_id)?;
        let result = self.apply_data_phase(&cmd);
        let (result, data) = match result {
            Ok(data) => (Ok(()), data),
            Err(e) => (Err(e), None),
        };
        Some(SdCompletion {
            id: cmd.id,
            write: cmd.write,
            runs: cmd.runs,
            data,
            result,
        })
    }

    /// Moves the data for a finished chain, returning read payloads.
    fn apply_data_phase(&mut self, cmd: &SdQueuedCmd) -> HalResult<Option<Vec<u8>>> {
        if self.power_lost {
            return Err(HalError::InvalidState("card lost power".into()));
        }
        if self.removed || !self.initialized {
            return Err(HalError::InvalidState("no card present".into()));
        }
        if cmd.write {
            let Some(data) = cmd.data.as_ref() else {
                return Err(HalError::InvalidState(
                    "DMA write chain completed without a staged payload".into(),
                ));
            };
            let mut off = 0usize;
            let mut persisted_in_cmd = 0u64;
            for r in &cmd.runs {
                for i in 0..r.count {
                    let b = r.lba.saturating_add(i);
                    if self.faulty_blocks.contains(&b) {
                        return Err(HalError::InjectedFault(format!("SD block {b}")));
                    }
                    if self.power_allow(1) == 0 {
                        if persisted_in_cmd > 0 && !self.posted {
                            self.torn_writes += 1;
                        }
                        return Err(HalError::InvalidState(format!(
                            "power cut mid-DMA CMD25: {persisted_in_cmd} blocks of \
                             the chain persisted"
                        )));
                    }
                    self.write_one(b, &data[off..off + BLOCK_SIZE]);
                    persisted_in_cmd += 1;
                    off += BLOCK_SIZE;
                }
            }
            Ok(None)
        } else {
            let total: usize = cmd.runs.iter().map(|r| r.count as usize).sum();
            let mut out = vec![0u8; total * BLOCK_SIZE];
            let mut off = 0usize;
            for r in &cmd.runs {
                for i in 0..r.count {
                    let b = r.lba.saturating_add(i);
                    if self.faulty_blocks.contains(&b) {
                        return Err(HalError::InjectedFault(format!("SD block {b}")));
                    }
                    self.read_one(b, &mut out[off..off + BLOCK_SIZE]);
                    off += BLOCK_SIZE;
                }
            }
            Ok(Some(out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready_host() -> SdHost {
        let mut sd = SdHost::new(1024);
        sd.init().unwrap();
        sd
    }

    #[test]
    fn commands_require_initialisation() {
        let mut sd = SdHost::new(16);
        let mut buf = [0u8; BLOCK_SIZE];
        assert!(matches!(
            sd.read_block(0, &mut buf),
            Err(HalError::InvalidState(_))
        ));
        sd.init().unwrap();
        assert!(sd.read_block(0, &mut buf).is_ok());
    }

    #[test]
    fn single_block_write_read_round_trips() {
        let mut sd = ready_host();
        let mut data = [0u8; BLOCK_SIZE];
        data[0] = 0xAB;
        data[511] = 0xCD;
        sd.write_block(7, &data).unwrap();
        let mut back = [0u8; BLOCK_SIZE];
        sd.read_block(7, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(sd.single_block_cmds(), 2);
    }

    #[test]
    fn range_write_read_round_trips_and_counts_one_command() {
        let mut sd = ready_host();
        let data: Vec<u8> = (0..BLOCK_SIZE * 8).map(|i| (i % 256) as u8).collect();
        sd.write_range(100, 8, &data).unwrap();
        let mut back = vec![0u8; BLOCK_SIZE * 8];
        sd.read_range(100, 8, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(sd.range_cmds(), 2);
        assert_eq!(sd.blocks_transferred(), 16);
    }

    #[test]
    fn accesses_beyond_the_card_are_rejected() {
        let mut sd = ready_host();
        let mut buf = [0u8; BLOCK_SIZE];
        assert!(sd.read_block(1024, &mut buf).is_err());
        let big = vec![0u8; BLOCK_SIZE * 4];
        assert!(sd.write_range(1022, 4, &big).is_err());
    }

    #[test]
    fn injected_faults_fail_the_covering_transfer() {
        let mut sd = ready_host();
        sd.inject_fault(50);
        let mut buf = vec![0u8; BLOCK_SIZE * 4];
        assert!(matches!(
            sd.read_range(48, 4, &mut buf),
            Err(HalError::InjectedFault(_))
        ));
        sd.clear_faults();
        assert!(sd.read_range(48, 4, &mut buf).is_ok());
    }

    #[test]
    fn card_removal_fails_everything_until_reinit() {
        let mut sd = ready_host();
        sd.set_removed(true);
        let mut buf = [0u8; BLOCK_SIZE];
        assert!(sd.read_block(0, &mut buf).is_err());
        assert!(sd.init().is_err());
        sd.set_removed(false);
        sd.init().unwrap();
        assert!(sd.read_block(0, &mut buf).is_ok());
    }

    #[test]
    fn power_cut_tears_a_cmd25_mid_transfer() {
        let mut sd = ready_host();
        sd.power_cut_after(2);
        let data: Vec<u8> = (0..BLOCK_SIZE * 6).map(|i| (i % 247) as u8).collect();
        assert!(sd.write_range(10, 6, &data).is_err());
        assert_eq!(sd.torn_writes(), 1);
        assert!(sd.power_lost());
        let mut buf = [0u8; BLOCK_SIZE];
        assert!(sd.read_block(10, &mut buf).is_err(), "no power, no reads");
        sd.power_restored();
        sd.read_block(11, &mut buf).unwrap();
        assert_eq!(&buf[..], &data[BLOCK_SIZE..2 * BLOCK_SIZE]);
        sd.read_block(12, &mut buf).unwrap();
        assert_eq!(buf, [0u8; BLOCK_SIZE], "unpersisted tail reads as before");
    }

    #[test]
    fn range_buffer_size_must_match() {
        let mut sd = ready_host();
        let mut small = vec![0u8; BLOCK_SIZE];
        assert!(sd.read_range(0, 2, &mut small).is_err());
    }

    // ---- DMA mode + async queue ---------------------------------------------------

    fn dma_host() -> (SdHost, DmaEngine, CostModel) {
        let mut sd = SdHost::new(4096);
        sd.init().unwrap();
        sd.set_data_mode(SdDataMode::Dma);
        (sd, DmaEngine::new(), CostModel::pi3())
    }

    /// Drives the engine until the queue drains, reaping by polled status.
    fn drain(sd: &mut SdHost, engine: &mut DmaEngine, cost: &CostModel) -> Vec<SdCompletion> {
        let mut out = Vec::new();
        let mut now = 0;
        sd.kick_dma(engine, now, cost);
        while let Some(done_at) = engine.busy_until(SD_DMA_CHANNEL) {
            now = done_at;
            let id = engine
                .poll_channel(SD_DMA_CHANNEL, now)
                .expect("due chain polls complete");
            out.push(sd.finish_dma(id).expect("inflight command completes"));
            sd.kick_dma(engine, now, cost);
        }
        out
    }

    #[test]
    fn dma_chain_round_trips_a_scatter_gather_write_and_read() {
        let (mut sd, mut engine, cost) = dma_host();
        // Two discontiguous runs = two control blocks, one command.
        let runs = [
            SdSgRun { lba: 10, count: 4 },
            SdSgRun { lba: 100, count: 2 },
        ];
        let data: Vec<u8> = (0..6 * BLOCK_SIZE).map(|i| (i % 253) as u8).collect();
        sd.submit_dma_write(&runs, &data).unwrap();
        sd.submit_dma_read(&runs).unwrap();
        let done = drain(&mut sd, &mut engine, &cost);
        assert_eq!(done.len(), 2);
        assert!(done[0].write && done[0].result.is_ok());
        assert!(!done[1].write && done[1].result.is_ok());
        assert_eq!(done[1].data.as_deref(), Some(&data[..]));
        assert_eq!(sd.dma_cmds(), 2);
        assert_eq!(sd.sg_control_blocks(), 4);
        assert_eq!(sd.dma_blocks(), 12);
        assert_eq!(sd.queue_len(), 0);
    }

    #[test]
    fn dma_queue_is_bounded_and_orders_commands() {
        let (mut sd, mut engine, cost) = dma_host();
        let block = vec![1u8; BLOCK_SIZE];
        for i in 0..SD_QUEUE_DEPTH as u64 {
            sd.submit_dma_write(&[SdSgRun { lba: i, count: 1 }], &block)
                .unwrap();
        }
        assert!(!sd.can_submit());
        assert!(matches!(
            sd.submit_dma_read(&[SdSgRun { lba: 0, count: 1 }]),
            Err(HalError::InvalidState(_))
        ));
        let done = drain(&mut sd, &mut engine, &cost);
        assert_eq!(done.len(), SD_QUEUE_DEPTH);
        // FIFO completion order.
        for w in done.windows(2) {
            assert!(w[0].id < w[1].id);
        }
        assert!(sd.can_submit());
    }

    #[test]
    fn dma_mode_rejects_submission_in_pio_and_validates_bounds() {
        let mut sd = ready_host();
        assert!(sd.submit_dma_read(&[SdSgRun { lba: 0, count: 1 }]).is_err());
        sd.set_data_mode(SdDataMode::Dma);
        assert!(sd
            .submit_dma_read(&[SdSgRun {
                lba: 1020,
                count: 8
            }])
            .is_err());
        assert!(sd.submit_dma_read(&[]).is_err());
        assert!(sd.submit_dma_read(&[SdSgRun { lba: 0, count: 0 }]).is_err());
    }

    #[test]
    fn dma_write_crossing_the_power_budget_is_torn_at_block_granularity() {
        let (mut sd, mut engine, cost) = dma_host();
        sd.power_cut_after(3);
        let data: Vec<u8> = (0..6 * BLOCK_SIZE).map(|i| (i % 241) as u8).collect();
        sd.submit_dma_write(&[SdSgRun { lba: 20, count: 6 }], &data)
            .unwrap();
        let done = drain(&mut sd, &mut engine, &cost);
        assert!(done[0].result.is_err(), "torn chain fails the command");
        assert_eq!(sd.torn_writes(), 1);
        assert!(sd.power_lost());
        sd.power_restored();
        let mut buf = [0u8; BLOCK_SIZE];
        sd.read_block(22, &mut buf).unwrap();
        assert_eq!(&buf[..], &data[2 * BLOCK_SIZE..3 * BLOCK_SIZE]);
        sd.read_block(23, &mut buf).unwrap();
        assert_eq!(buf, [0u8; BLOCK_SIZE], "past the cut nothing landed");
    }

    #[test]
    fn dma_faults_surface_in_the_completion_not_at_submit() {
        let (mut sd, mut engine, cost) = dma_host();
        sd.inject_fault(33);
        let data = vec![9u8; 4 * BLOCK_SIZE];
        sd.submit_dma_write(&[SdSgRun { lba: 32, count: 4 }], &data)
            .unwrap();
        let done = drain(&mut sd, &mut engine, &cost);
        assert!(matches!(done[0].result, Err(HalError::InjectedFault(_))));
        // Retry after the fault clears succeeds.
        sd.clear_faults();
        sd.submit_dma_write(&[SdSgRun { lba: 32, count: 4 }], &data)
            .unwrap();
        let done = drain(&mut sd, &mut engine, &cost);
        assert!(done[0].result.is_ok());
    }
}
