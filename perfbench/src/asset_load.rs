//! `asset_load`: four app sessions load the shipped media from a cold cache.
//!
//! Every file access the paper's apps make is a read, and their loaders
//! read in fixed chunk sizes until a short read. The files are the assets
//! the benchmark configuration ships, each at its shipped size and read
//! with the chunk size of the app that opens it. Four benchmark programs,
//! one per modeled core, each load one copy of that set per round. A set is
//! 4.3 MiB, so a round reads 17.2 MiB, ~34× the 512 KB FAT cache: the cache
//! cannot hold the working set, and every byte comes from the card through
//! read-ahead and the DMA queue.

use std::sync::{Arc, Mutex};

use kernel::vfs::OpenFlags;
use kernel::{KResult, KernelError, StepResult, UserCtx, UserProgram};

use crate::gen::{self, Digest, Rng};
use crate::harness::{Call, CallLog, Harness, HostClock, OpKind, Vol};

/// One shipped asset: its name and size, and the `read` size of the app
/// that loads it.
struct Asset {
    name: &'static str,
    chunk: usize,
    len: u64,
}

const KB: usize = 1024;

/// The set: every file `proto::assets` installs for the benchmark
/// configuration (`small_assets`), at the size it installs. The FAT volume
/// holds DOOM's WAD, the media players' two videos and track, and the
/// slider's four slides. The root volume holds the NES ROMs and the text
/// the shell reads, its rc script and the motd it `cat`s; here they sit on
/// `/d` with the rest. `shipped_sizes_match_the_card` checks the sizes.
const ASSETS: [Asset; 12] = [
    // `doomlike` reads 256 KB at a time.
    Asset {
        name: "doom.wad",
        chunk: 256 * KB,
        len: 524_288,
    },
    // `media_apps` (video and music players) read 256 KB at a time.
    Asset {
        name: "video480.mpg",
        chunk: 256 * KB,
        len: 690_800,
    },
    Asset {
        name: "video720.mpg",
        chunk: 256 * KB,
        len: 2_785_360,
    },
    Asset {
        name: "track1.ogg",
        chunk: 256 * KB,
        len: 176_760,
    },
    // `slider` reads 128 KB at a time.
    Asset {
        name: "s0.bmp",
        chunk: 128 * KB,
        len: 57_654,
    },
    Asset {
        name: "s1.bmp",
        chunk: 128 * KB,
        len: 57_654,
    },
    Asset {
        name: "s2.bmp",
        chunk: 128 * KB,
        len: 57_654,
    },
    Asset {
        name: "s3.bmp",
        chunk: 128 * KB,
        len: 57_654,
    },
    // `nes` reads 32 KB at a time.
    Asset {
        name: "mario.nes",
        chunk: 32 * KB,
        len: 40_960,
    },
    Asset {
        name: "kungfu.nes",
        chunk: 32 * KB,
        len: 49_152,
    },
    // The shell reads its rc script 4 KB at a time, and `cat` reads 16 KB.
    Asset {
        name: "rc",
        chunk: 4 * KB,
        len: 42,
    },
    Asset {
        name: "motd",
        chunk: 16 * KB,
        len: 17,
    },
];

/// Readers, one per modeled core, and copies of the set on the card.
const READERS: usize = 4;

/// How far the seed moves a copy's size from the shipped one, in percent.
/// The copies of one asset keep the shipped total.
const JITTER_PCT: u64 = 10;

/// Cold loads of the card per run: the card image is built once (the
/// expensive set-up), then read `ROUNDS` times with caches dropped between,
/// so each run times enough host work for a steady `host_s`.
const ROUNDS: usize = 5;

/// Upper bound on the modeled makespan before the run counts as hung.
const MAX_MODELED_US: u64 = 60_000_000;

#[derive(Debug, Clone)]
struct Job {
    /// Path as apps see it (`/d/...`).
    path: String,
    id: u64,
    len: usize,
    chunk: usize,
}

/// The files, and for each round their split among the readers.
pub struct Spec {
    seed: u64,
    /// Every file, copy by copy, in `ASSETS` order.
    files: Vec<Job>,
    /// Per file, the digest of its generated content.
    want: Vec<(u64, u64)>,
    /// Per round, per reader: indices into `files`, in load order.
    rounds: Vec<Vec<Vec<usize>>>,
}

fn set_dir(copy: usize) -> String {
    format!("/set{copy}")
}

pub fn spec(seed: u64) -> Spec {
    let mut rng = Rng::stream(seed, 1);
    let sizes: Vec<Vec<u64>> = ASSETS
        .iter()
        .map(|a| gen::split_sizes(&mut rng, a.len * READERS as u64, READERS, JITTER_PCT))
        .collect();
    let mut files = Vec::new();
    for copy in 0..READERS {
        for (a, sizes) in ASSETS.iter().zip(&sizes) {
            files.push(Job {
                path: format!("/d{}/{}", set_dir(copy), a.name),
                id: files.len() as u64,
                len: sizes[copy] as usize,
                chunk: a.chunk,
            });
        }
    }
    let want = files
        .iter()
        .map(|f| gen::digest(&gen::content(seed, f.id, f.len)))
        .collect();
    let rounds = (0..ROUNDS).map(|_| split(&mut rng)).collect();
    Spec {
        seed,
        files,
        want,
        rounds,
    }
}

/// One round's split: every reader loads one copy of every asset, the copy
/// dealt by the seed, and all four load the assets in one seed-chosen
/// order. The readers contend for the card symmetrically, so the makespan
/// measures the stack rather than an unlucky split.
fn split(rng: &mut Rng) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..ASSETS.len()).collect();
    rng.shuffle(&mut order);
    let mut split = vec![Vec::new(); READERS];
    for a in order {
        let mut copies: Vec<usize> = (0..READERS).collect();
        rng.shuffle(&mut copies);
        for (mine, copy) in split.iter_mut().zip(copies) {
            mine.push(copy * ASSETS.len() + a);
        }
    }
    split
}

enum State {
    Open,
    Read(i32),
    Close(i32),
}

/// A benchmark-owned loader: one syscall per step, `WouldBlock` retried on
/// the next step. It keeps a running digest of each file, not its bytes.
struct Reader {
    program: u32,
    jobs: Vec<Job>,
    next: usize,
    state: State,
    log: CallLog,
    digests: Arc<Mutex<Vec<Digest>>>,
    clock: HostClock,
}

impl Reader {
    fn post<T>(
        &self,
        ctx: &UserCtx<'_>,
        kind: OpKind,
        host_start: u64,
        r: &KResult<T>,
        bytes: u64,
    ) {
        let (would_block, error) = match r {
            Ok(_) => (false, None),
            Err(KernelError::WouldBlock) => (true, None),
            Err(e) => (false, Some(e.to_string())),
        };
        let call = Call {
            program: self.program,
            kind,
            vol: Vol::Fat,
            core: ctx.core(),
            would_block,
            error,
            bytes,
            host_start,
            host_end: self.clock.now_ns(),
        };
        self.log.lock().expect("call log poisoned").push(call);
    }
}

impl UserProgram for Reader {
    fn step(&mut self, ctx: &mut UserCtx<'_>) -> StepResult {
        let Some(job) = self.jobs.get(self.next) else {
            return StepResult::Exited(0);
        };
        let chunk = job.chunk;
        let t0 = self.clock.now_ns();
        match self.state {
            State::Open => {
                let r = ctx.open(&job.path, OpenFlags::rdonly());
                self.post(ctx, OpKind::Open, t0, &r, 0);
                match r {
                    Ok(fd) => self.state = State::Read(fd),
                    Err(KernelError::WouldBlock) => {}
                    // Counted as a failure; the job is skipped.
                    Err(_) => self.next += 1,
                }
            }
            State::Read(fd) => {
                let r = ctx.read(fd, chunk);
                let n = r.as_ref().map(|c| c.len() as u64).unwrap_or(0);
                self.post(ctx, OpKind::Read, t0, &r, n);
                match r {
                    Ok(chunk) if chunk.is_empty() => self.state = State::Close(fd),
                    Ok(chunk) => {
                        self.digests.lock().expect("digests poisoned")[self.next].update(&chunk)
                    }
                    Err(KernelError::WouldBlock) => {}
                    Err(_) => self.state = State::Close(fd),
                }
            }
            State::Close(fd) => {
                let r = ctx.close(fd);
                self.post(ctx, OpKind::Close, t0, &r, 0);
                if !matches!(r, Err(KernelError::WouldBlock)) {
                    self.state = State::Open;
                    self.next += 1;
                }
            }
        }
        StepResult::Continue
    }

    fn program_name(&self) -> &str {
        "assetload"
    }
}

pub fn run(spec: &Spec, traced: bool) -> KResult<Harness> {
    let mut h = Harness::build(traced)?;
    h.install(|sys| {
        for copy in 0..READERS {
            sys.kernel.install_fat_dir(&set_dir(copy))?;
        }
        let mut bytes = 0;
        for f in &spec.files {
            sys.kernel.install_fat_file(
                f.path.trim_start_matches("/d"),
                &gen::content(spec.seed, f.id, f.len),
            )?;
            bytes += f.len as u64;
        }
        Ok(bytes)
    })?;

    h.begin_phase();
    for (round, split) in spec.rounds.iter().enumerate() {
        // Cold cache: every byte of the round comes from the card.
        h.sys.kernel.drop_fs_caches()?;
        h.sys.kernel.sync_core_clocks();
        let start = h.sys.kernel.board.clock.global_cycles();
        let log: CallLog = Arc::default();
        let mut digests = Vec::new();
        let mut tids = Vec::new();
        for (r, mine) in split.iter().enumerate() {
            let store = Arc::new(Mutex::new(vec![Digest::default(); mine.len()]));
            let program = (round * READERS + r) as u32;
            let reader = Reader {
                program,
                jobs: mine.iter().map(|f| spec.files[*f].clone()).collect(),
                next: 0,
                state: State::Open,
                log: log.clone(),
                digests: store.clone(),
                clock: h.clock,
            };
            let image = kernel::ProgramImage::small(&format!("assetload{program}"));
            let tid = h
                .sys
                .kernel
                .spawn_user_program(&image, Box::new(reader), 0)?;
            h.tasks.push(tid);
            tids.push(tid);
            digests.push(store);
        }
        let mut end = [None; READERS];
        let limit = h.sys.kernel.now_us() + MAX_MODELED_US;
        while end.iter().any(Option::is_none) {
            if h.sys.kernel.now_us() > limit {
                h.fail(format!(
                    "readers still running after {MAX_MODELED_US} us modeled"
                ));
                break;
            }
            h.slice(Some(&log));
            for (r, tid) in tids.iter().enumerate() {
                if end[r].is_none() {
                    if let Some(t) = h.sys.kernel.task(*tid).filter(|t| t.is_zombie()) {
                        end[r] = Some(h.sys.kernel.board.clock.cycles(t.core));
                    }
                }
            }
        }
        // The round's makespan: first spawn to last exit.
        h.rec.base_cycles += end.iter().flatten().max().map_or(0, |e| e - start);

        // Verification, off the phase clock: every file's digest against
        // the generator's.
        h.pause();
        for (r, mine) in split.iter().enumerate() {
            let got = digests[r].lock().expect("digests poisoned");
            for (j, f) in mine.iter().enumerate() {
                if got[j].finish() != spec.want[*f] {
                    let file = &spec.files[*f];
                    h.fail(format!(
                        "{}: content mismatch ({} of {} bytes read)",
                        file.path,
                        got[j].bytes(),
                        file.len
                    ));
                }
            }
        }
        h.resume();
    }
    h.end_phase();
    h.rec.user_bytes = h.rec.ops.iter().map(|o| o.bytes).sum();
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The set's sizes are the ones the benchmark configuration installs.
    #[test]
    fn shipped_sizes_match_the_card() {
        let mut h = Harness::build(false).expect("boot");
        let tid = h.sys.kernel.spawn_bench_task("sizes").expect("task");
        let shipped = [
            "/d/doom.wad",
            "/d/video480.mpg",
            "/d/video720.mpg",
            "/d/track1.ogg",
            "/d/slides/s0.bmp",
            "/d/slides/s1.bmp",
            "/d/slides/s2.bmp",
            "/d/slides/s3.bmp",
            "/mario.nes",
            "/kungfu.nes",
            "/etc/rc",
            "/etc/motd",
        ];
        for (a, path) in ASSETS.iter().zip(shipped) {
            let size = h
                .sys
                .kernel
                .with_task_ctx(tid, |ctx| ctx.stat(path))
                .expect("shipped asset")
                .size;
            assert_eq!(size, a.len, "{path}");
            assert!(path.ends_with(a.name), "{path}");
        }
    }

    /// Every reader gets one copy of every asset per round, and every copy
    /// is read once per round.
    #[test]
    fn rounds_deal_one_copy_of_each_asset_per_reader() {
        let s = spec(3);
        for split in &s.rounds {
            let mut seen: Vec<usize> = split.iter().flatten().copied().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..s.files.len()).collect::<Vec<_>>());
            for mine in split {
                let mut assets: Vec<usize> = mine.iter().map(|f| f % ASSETS.len()).collect();
                assets.sort_unstable();
                assert_eq!(assets, (0..ASSETS.len()).collect::<Vec<_>>());
            }
        }
    }
}
