//! `metadata_churn`: small namespace operations on both filesystems.
//!
//! One task makes a seed-ordered mix of `mkdir`, create + write (≤ 4 KB),
//! `stat`, `list_dir` and `unlink`, spread over the xv6fs root and the FAT
//! volume. It moves almost no data — the working set (≤ 48 small files and
//! 8 directories per volume) fits both caches — so it exercises path
//! lookup, transactions, group commit and the xv6fs journal, and bypasses
//! read-ahead and streaming DMA. The generator keeps a model of both trees:
//! every `stat` and `list_dir` result is checked against the model as of
//! that point in the sequence, and the whole tree again after
//! `drop_fs_caches`.

use std::collections::BTreeMap;

use kernel::vfs::OpenFlags;
use kernel::KResult;

use crate::gen::{self, Rng};
use crate::harness::{Harness, Vol};
use crate::save_sync::read_back;

/// Operations per volume (FAT, then xv6fs), by kind: a fixed mix the seed
/// only orders. A create is open + write + close; mkdirs fill each tree to
/// `MAX_DIRS`. FAT gets the larger share: its intent log group-commits
/// every 8 transactions, and those commits are the tail this workload
/// exists to measure, so there are enough of them (~170 per run) for the
/// p99 to rest on many commits rather than a few.
const MIX: [[(Kind, usize); 5]; 2] = [
    [
        (Kind::Mkdir, MAX_DIRS - 1),
        (Kind::Create, 1400),
        (Kind::Stat, 500),
        (Kind::List, 250),
        (Kind::Unlink, 1380),
    ],
    [
        (Kind::Mkdir, MAX_DIRS - 1),
        (Kind::Create, 460),
        (Kind::Stat, 500),
        (Kind::List, 250),
        (Kind::Unlink, 440),
    ],
];
const MAX_DIRS: usize = 8;
const MAX_FILES: usize = 48;
/// The two trees the workload churns, as apps see them.
const BASES: [&str; 2] = ["/d/mc", "/mc"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Mkdir,
    Create,
    Stat,
    List,
    Unlink,
}

#[derive(Debug, Clone)]
enum Action {
    Mkdir(String),
    Create {
        path: String,
        id: u64,
        len: usize,
    },
    /// `want` is the file's length, or `None` for a directory.
    Stat {
        path: String,
        want: Option<usize>,
    },
    List {
        dir: String,
        want: Vec<String>,
    },
    Unlink(String),
}

/// The model of one tree: directories and files with their content.
#[derive(Debug, Default, Clone)]
struct Tree {
    dirs: Vec<String>,
    files: BTreeMap<String, (u64, usize)>,
}

impl Tree {
    /// Names directly inside `dir`, upper-cased when FAT would store them
    /// that way (8.3 entries are case-insensitive and kept upper-case).
    fn children(&self, dir: &str, fat: bool) -> Vec<String> {
        let prefix = format!("{dir}/");
        let direct = |p: &String| {
            p.strip_prefix(&prefix)
                .filter(|rest| !rest.contains('/'))
                .map(|rest| {
                    if fat {
                        rest.to_ascii_uppercase()
                    } else {
                        rest.to_string()
                    }
                })
        };
        let mut names: Vec<String> = self
            .dirs
            .iter()
            .chain(self.files.keys())
            .filter_map(direct)
            .collect();
        names.sort();
        names
    }
}

pub struct Spec {
    seed: u64,
    actions: Vec<Action>,
    /// Both trees as they must look at the end.
    trees: Vec<Tree>,
}

pub fn spec(seed: u64) -> Spec {
    let mut rng = Rng::stream(seed, 3);
    let mut trees: Vec<Tree> = BASES
        .iter()
        .map(|b| Tree {
            dirs: vec![b.to_string()],
            ..Tree::default()
        })
        .collect();
    // Each volume's kinds in seed order; the two sequences interleave at
    // random, in proportion to what each has left.
    let mut queues: Vec<Vec<Kind>> = MIX
        .iter()
        .map(|mix| {
            let mut q: Vec<Kind> = mix
                .iter()
                .flat_map(|(k, n)| std::iter::repeat_n(*k, *n))
                .collect();
            rng.shuffle(&mut q);
            q.reverse();
            q
        })
        .collect();
    // Create lengths: 1..4096 bytes, a fixed total per volume.
    let mut lens: Vec<_> = MIX
        .iter()
        .map(|mix| {
            let creates = mix
                .iter()
                .find(|(k, _)| *k == Kind::Create)
                .map_or(0, |m| m.1);
            gen::split_sizes(&mut rng, creates as u64 * 2048, creates, 95).into_iter()
        })
        .collect();
    let mut actions = Vec::new();
    let mut next = 0u64;
    while queues.iter().any(|q| !q.is_empty()) {
        let left = queues[0].len() as u64;
        let v = usize::from(rng.below(left + queues[1].len() as u64) >= left);
        let t = &mut trees[v];
        let feasible = |k: Kind, t: &Tree| match k {
            Kind::Create => t.files.len() < MAX_FILES,
            Kind::Unlink => !t.files.is_empty(),
            _ => true,
        };
        // An infeasible kind (unlink with no files, create at the cap)
        // swaps with the next feasible one, so the mix stays exact.
        let q = &mut queues[v];
        let Some(pos) = q.iter().rposition(|k| feasible(*k, t)) else {
            q.clear();
            continue;
        };
        let last = q.len() - 1;
        q.swap(pos, last);
        let kind = q.pop().expect("non-empty");
        let dir = t.dirs[rng.below(t.dirs.len() as u64) as usize].clone();
        let action = match kind {
            Kind::Create => {
                next += 1;
                let path = format!("{dir}/f{next:04}.dat");
                let len = lens[v].next().expect("one length per create") as usize;
                t.files.insert(path.clone(), (next, len));
                Action::Create {
                    path,
                    id: next,
                    len,
                }
            }
            Kind::Mkdir => {
                next += 1;
                let path = format!("{}/d{next:04}", BASES[v]);
                t.dirs.push(path.clone());
                Action::Mkdir(path)
            }
            Kind::Stat => {
                let i = rng.below((t.files.len() + t.dirs.len()) as u64) as usize;
                match t.files.iter().nth(i) {
                    Some((f, (_, len))) => Action::Stat {
                        path: f.clone(),
                        want: Some(*len),
                    },
                    None => Action::Stat {
                        path: t.dirs[i - t.files.len()].clone(),
                        want: None,
                    },
                }
            }
            Kind::List => Action::List {
                want: t.children(&dir, v == 0),
                dir,
            },
            Kind::Unlink => {
                let i = rng.below(t.files.len() as u64) as usize;
                let path = t.files.keys().nth(i).expect("feasible").clone();
                t.files.remove(&path);
                Action::Unlink(path)
            }
        };
        actions.push(action);
    }
    Spec {
        seed,
        actions,
        trees,
    }
}

pub fn run(spec: &Spec, traced: bool) -> KResult<Harness> {
    let seed = spec.seed;
    let mut h = Harness::build(traced)?;
    h.install(|sys| {
        sys.kernel.install_fat_dir("/mc")?;
        sys.kernel.install_root_dir("/mc")?;
        Ok(0)
    })?;
    let tid = h.sys.kernel.spawn_bench_task("mdchurn")?;
    h.tasks.push(tid);
    // Generated up front, and results checked after the phase: the timed
    // phase holds only the system's work.
    let data: Vec<Vec<u8>> = spec
        .actions
        .iter()
        .map(|a| match a {
            Action::Create { id, len, .. } => gen::content(seed, *id, *len),
            _ => Vec::new(),
        })
        .collect();
    let mut stats = Vec::new();
    let mut listings = Vec::new();

    h.begin_phase();
    for (i, action) in spec.actions.iter().enumerate() {
        match action {
            Action::Mkdir(path) => {
                let _ = h.mkdir(tid, path);
            }
            Action::Create { path, .. } => {
                let vol = Vol::of(path);
                if let Ok(fd) = h.open(tid, path, OpenFlags::wronly_create()) {
                    let _ = h.write(tid, vol, fd, &data[i]);
                    let _ = h.close(tid, vol, fd);
                }
            }
            Action::Stat { path, .. } => {
                if let Ok(st) = h.stat(tid, path) {
                    stats.push((i, st));
                }
            }
            Action::List { dir, .. } => {
                if let Ok(names) = h.list_dir(tid, dir) {
                    listings.push((i, names));
                }
            }
            Action::Unlink(path) => {
                let _ = h.unlink(tid, path);
            }
        }
    }
    h.end_phase();
    h.rec.base_cycles = h.rec.ops.iter().map(|o| o.modeled_cycles()).sum();
    h.rec.user_bytes = h.rec.ops.iter().map(|o| o.bytes).sum();

    // Verification (untimed): every stat and listing against the model as
    // of its point in the sequence, then the whole tree from the devices.
    for (i, st) in stats {
        if let Action::Stat { path, want } = &spec.actions[i] {
            let ok = match want {
                Some(len) => !st.is_dir && st.size == *len as u64,
                None => st.is_dir,
            };
            if !ok {
                h.fail(format!("stat {path}: got {st:?}, model says {want:?}"));
            }
        }
    }
    for (i, names) in listings {
        if let Action::List { dir, want } = &spec.actions[i] {
            check_listing(&mut h, dir, names, want);
        }
    }
    h.sys.kernel.drop_fs_caches()?;
    for (i, t) in spec.trees.iter().enumerate() {
        let fat = i == 0;
        for dir in &t.dirs {
            let names = h.sys.kernel.with_task_ctx(tid, |c| c.list_dir(dir));
            match names {
                Ok(names) => check_listing(&mut h, dir, names, &t.children(dir, fat)),
                Err(e) => h.fail(format!("final list_dir {dir}: {e}")),
            }
        }
        for (path, (id, len)) in &t.files {
            if read_back(&mut h, tid, path) != Ok(gen::content(seed, *id, *len)) {
                h.fail(format!("{path}: read-back mismatch"));
            }
        }
    }
    Ok(h)
}

fn check_listing(h: &mut Harness, dir: &str, mut names: Vec<String>, want: &[String]) {
    names.retain(|n| n != "." && n != "..");
    names.sort();
    if names != want {
        h.fail(format!(
            "list_dir {dir}: got {names:?}, model says {want:?}"
        ));
    }
}
