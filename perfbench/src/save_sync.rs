//! `save_sync`: one writer saves files the way apps do.
//!
//! Each save file is created, appended in app-sized chunks (16–128 KB),
//! `fsync`ed and closed. Between saves the writer rewrites small existing
//! settings files — each rewrite overwrites a FAT file, which runs as a
//! logged intent-log transaction. After every save the system runs idle
//! for a fixed modeled gap, so the `kbio` flusher and pending completions
//! run as they would between user actions. The saves total 3× the 512 KB
//! FAT cache, so eviction and write-back are part of the steady state.
//! Read-back after `drop_fs_caches` verifies every file and is not timed.

use kernel::vfs::OpenFlags;
use kernel::KResult;

use crate::gen::{self, Rng};
use crate::harness::{Harness, Vol};

const KB: u64 = 1024;
const SAVES: usize = 12;
const SAVE_TOTAL: u64 = 1536 * KB;
const CHUNKS: [u64; 4] = [16 * KB, 32 * KB, 64 * KB, 128 * KB];
const SETTINGS: usize = 32;
const REWRITES_PER_SAVE: usize = 28;
/// Modeled idle time after each save.
const GAP_US: u64 = 20_000;

struct Save {
    path: String,
    id: u64,
    chunks: Vec<usize>,
}

struct Rewrite {
    file: usize,
    id: u64,
    len: usize,
}

pub struct Spec {
    seed: u64,
    /// Settings files: (path, content id, length) as installed.
    settings: Vec<(String, u64, usize)>,
    saves: Vec<Save>,
    /// The rewrites that follow each save.
    rewrites: Vec<Vec<Rewrite>>,
}

fn settings_path(i: usize) -> String {
    format!("/d/cfg/c{i:03}.cfg")
}

pub fn spec(seed: u64) -> Spec {
    let mut rng = Rng::stream(seed, 2);
    let mut next_id = 0u64;
    let mut id = || {
        next_id += 1;
        next_id
    };
    let settings = (0..SETTINGS)
        .map(|i| (settings_path(i), id(), rng.range(512, 4096) as usize))
        .collect();
    // Rewrite lengths: 512..4096 bytes, a fixed total per run.
    let n = SAVES * REWRITES_PER_SAVE;
    let mut lens = gen::split_sizes(&mut rng, n as u64 * 2304, n, 77).into_iter();
    let sizes = gen::split_sizes(&mut rng, SAVE_TOTAL, SAVES, 10);
    let mut saves = Vec::new();
    let mut rewrites = Vec::new();
    for (i, len) in sizes.into_iter().enumerate() {
        // Every save cycles through the app chunk sizes in one fixed order:
        // `sys_write` rewrites the whole file for an append, so the order of
        // chunk sizes sets the cost, and the seed must not move it.
        let mut chunks = Vec::new();
        let mut left = len;
        while left > 0 {
            let c = CHUNKS[chunks.len() % CHUNKS.len()].min(left);
            chunks.push(c as usize);
            left -= c;
        }
        saves.push(Save {
            path: format!("/d/save/s{i:03}.sav"),
            id: id(),
            chunks,
        });
        rewrites.push(
            (0..REWRITES_PER_SAVE)
                .map(|_| Rewrite {
                    file: rng.below(SETTINGS as u64) as usize,
                    id: id(),
                    len: lens.next().expect("one length per rewrite") as usize,
                })
                .collect(),
        );
    }
    Spec {
        seed,
        settings,
        saves,
        rewrites,
    }
}

pub fn run(spec: &Spec, traced: bool) -> KResult<Harness> {
    let seed = spec.seed;
    let mut h = Harness::build(traced)?;
    h.install(|sys| {
        sys.kernel.install_fat_dir("/cfg")?;
        sys.kernel.install_fat_dir("/save")?;
        let mut bytes = 0;
        for (path, id, len) in &spec.settings {
            sys.kernel.install_fat_file(
                path.trim_start_matches("/d"),
                &gen::content(seed, *id, *len),
            )?;
            bytes += *len as u64;
        }
        Ok(bytes)
    })?;
    let tid = h.sys.kernel.spawn_bench_task("savesync")?;
    h.tasks.push(tid);
    // What each settings file must hold at the end: (content id, length).
    let mut expect: Vec<(u64, usize)> = spec.settings.iter().map(|(_, i, l)| (*i, *l)).collect();

    h.begin_phase();
    for (i, save) in spec.saves.iter().enumerate() {
        // Each save's bytes are generated off the phase clock, one save at
        // a time, so the timed phase holds only the system's work and the
        // benchmark keeps no copy of what it wrote.
        h.pause();
        let data = gen::content(seed, save.id, save.chunks.iter().sum());
        let rewrite_data: Vec<Vec<u8>> = spec.rewrites[i]
            .iter()
            .map(|rw| gen::content(seed, rw.id, rw.len))
            .collect();
        h.resume();
        if let Ok(fd) = h.open(tid, &save.path, OpenFlags::wronly_create()) {
            let mut off = 0;
            for &c in &save.chunks {
                let _ = h.write(tid, Vol::Fat, fd, &data[off..off + c]);
                off += c;
            }
            let _ = h.fsync(tid, Vol::Fat, fd);
            let _ = h.close(tid, Vol::Fat, fd);
        }
        for (rw, data) in spec.rewrites[i].iter().zip(&rewrite_data) {
            if let Ok(fd) = h.open(tid, &settings_path(rw.file), OpenFlags::wronly_create()) {
                if h.write(tid, Vol::Fat, fd, data).is_ok() {
                    expect[rw.file] = (rw.id, rw.len);
                }
                let _ = h.close(tid, Vol::Fat, fd);
            }
        }
        h.idle(GAP_US);
    }
    h.end_phase();
    h.rec.base_cycles = h.rec.ops.iter().map(|o| o.modeled_cycles()).sum();
    h.rec.user_bytes = h.rec.ops.iter().map(|o| o.bytes).sum();

    // Verification (untimed): read everything back from the card, one file
    // at a time against its regenerated content.
    h.sys.kernel.drop_fs_caches()?;
    let saves = spec
        .saves
        .iter()
        .map(|s| (s.path.clone(), s.id, s.chunks.iter().sum::<usize>()));
    let settings = expect
        .iter()
        .enumerate()
        .map(|(i, (id, len))| (settings_path(i), *id, *len));
    for (path, id, len) in saves.chain(settings) {
        let got = read_back(&mut h, tid, &path);
        if got.as_ref() != Ok(&gen::content(seed, id, len)) {
            h.fail(format!("{path}: read-back mismatch"));
        }
    }
    Ok(h)
}

/// Reads a whole file without recording it (verification is not timed).
pub fn read_back(h: &mut Harness, tid: kernel::TaskId, path: &str) -> KResult<Vec<u8>> {
    h.sys.kernel.with_task_ctx(tid, |ctx| {
        let fd = ctx.open(path, OpenFlags::rdonly())?;
        let mut out = Vec::new();
        loop {
            let chunk = ctx.read(fd, 64 * 1024)?;
            if chunk.is_empty() {
                break;
            }
            out.extend_from_slice(&chunk);
        }
        ctx.close(fd)?;
        Ok(out)
    })
}
