//! Integration tests for the syscall surface: files, pipes, devices, fork,
//! threads and the framebuffer cache-flush behaviour.

use kernel::OpenFlags;
use proto_repro::prelude::*;

fn desktop() -> (ProtoSystem, kernel::TaskId) {
    let mut sys = ProtoSystem::desktop().unwrap();
    let tid = sys.kernel.spawn_bench_task("itest").unwrap();
    (sys, tid)
}

#[test]
fn files_round_trip_on_both_filesystems() {
    let (mut sys, tid) = desktop();
    for path in ["/notes.txt", "/d/notes.txt"] {
        let data = format!("hello via {path}").into_bytes();
        sys.kernel
            .with_task_ctx(tid, |ctx| {
                let fd = ctx.open(path, OpenFlags::wronly_create())?;
                ctx.write(fd, &data)?;
                ctx.close(fd)?;
                let fd = ctx.open(path, OpenFlags::rdonly())?;
                let back = ctx.read(fd, 1024)?;
                ctx.close(fd)?;
                assert_eq!(back, data);
                Ok::<(), kernel::KernelError>(())
            })
            .unwrap();
    }
}

#[test]
fn xv6fs_enforces_its_size_limit_but_fat_does_not() {
    let (mut sys, tid) = desktop();
    let big = vec![0u8; 400 * 1024];
    let on_root = sys.kernel.with_task_ctx(tid, |ctx| {
        let fd = ctx.open("/too-big.bin", OpenFlags::wronly_create())?;
        let r = ctx.write(fd, &big);
        ctx.close(fd)?;
        r
    });
    assert!(on_root.is_err(), "root xv6fs refuses a 400 KB file");
    let on_fat = sys.kernel.with_task_ctx(tid, |ctx| {
        let fd = ctx.open("/d/big.bin", OpenFlags::wronly_create())?;
        let r = ctx.write(fd, &big);
        ctx.close(fd)?;
        r
    });
    assert_eq!(on_fat.unwrap(), big.len(), "FAT32 accepts it");
}

#[test]
fn proc_files_report_cpu_memory_and_tasks() {
    let (mut sys, tid) = desktop();
    for (path, needle) in [
        ("/proc/cpuinfo", "Cortex-A53"),
        ("/proc/meminfo", "MemTotal"),
        ("/proc/tasks", "pid"),
        ("/proc/uptime", "."),
    ] {
        let text = sys
            .kernel
            .with_task_ctx(tid, |ctx| {
                let fd = ctx.open(path, OpenFlags::rdonly())?;
                let data = ctx.read(fd, 8192)?;
                ctx.close(fd)?;
                Ok::<String, kernel::KernelError>(String::from_utf8_lossy(&data).into_owned())
            })
            .unwrap();
        assert!(text.contains(needle), "{path} -> {text}");
    }
}

#[test]
fn nonblocking_event_reads_return_eagain_instead_of_blocking() {
    let (mut sys, tid) = desktop();
    let err = sys.kernel.with_task_ctx(tid, |ctx| {
        let fd = ctx.open("/dev/events", OpenFlags::rdonly_nonblock())?;
        ctx.read(fd, 8)
    });
    assert!(matches!(err, Err(kernel::KernelError::WouldBlock)));
    // The task is NOT blocked: non-blocking reads leave it runnable.
    assert!(sys.kernel.task(tid).is_some());
}

#[test]
fn framebuffer_writes_are_invisible_until_flushed() {
    let (mut sys, tid) = desktop();
    sys.kernel
        .with_task_ctx(tid, |ctx| {
            ctx.fb_map()?;
            ctx.fb_write(0, &[0xFFFF_FFFF; 256])
        })
        .unwrap();
    assert!(
        sys.kernel.board.framebuffer.stale_pixels() > 0,
        "cached write not yet visible"
    );
    sys.kernel.with_task_ctx(tid, |ctx| ctx.fb_flush()).unwrap();
    assert_eq!(sys.kernel.board.framebuffer.stale_pixels(), 0);
    assert_eq!(
        sys.kernel.board.framebuffer.scanout_at(0, 0).unwrap(),
        0xFFFF_FFFF
    );
}

#[test]
fn fork_gives_the_child_a_private_copy_of_memory() {
    let (mut sys, _tid) = desktop();
    struct Child;
    impl kernel::UserProgram for Child {
        fn step(&mut self, _ctx: &mut kernel::UserCtx<'_>) -> kernel::StepResult {
            kernel::StepResult::Exited(7)
        }
    }
    let parent = sys.spawn("helloworld", &[]).unwrap();
    let child = sys
        .kernel
        .with_task_ctx(parent, |ctx| ctx.fork(Box::new(Child)))
        .unwrap();
    let p_space = sys
        .kernel
        .address_space_of(parent)
        .unwrap()
        .page_table()
        .root();
    let c_space = sys
        .kernel
        .address_space_of(child)
        .unwrap()
        .page_table()
        .root();
    assert_ne!(p_space, c_space, "separate page tables");
    sys.run_ms(200);
    assert!(sys
        .kernel
        .task(child)
        .map(|t| t.is_zombie())
        .unwrap_or(true));
}

#[test]
fn pipes_carry_data_between_fork_peers_and_break_cleanly() {
    let (mut sys, tid) = desktop();
    let (r, w) = sys.kernel.with_task_ctx(tid, |ctx| ctx.pipe()).unwrap();
    sys.kernel
        .with_task_ctx(tid, |ctx| ctx.write(w, b"ping"))
        .unwrap();
    let data = sys
        .kernel
        .with_task_ctx(tid, |ctx| ctx.read(r, 16))
        .unwrap();
    assert_eq!(data, b"ping");
    sys.kernel.with_task_ctx(tid, |ctx| ctx.close(w)).unwrap();
    let eof = sys
        .kernel
        .with_task_ctx(tid, |ctx| ctx.read(r, 16))
        .unwrap();
    assert!(eof.is_empty(), "EOF after all writers close");
}

#[test]
fn semaphores_block_and_wake_threads() {
    let (mut sys, tid) = desktop();
    let sem = sys
        .kernel
        .with_task_ctx(tid, |ctx| ctx.sem_create(0))
        .unwrap();
    // Waiting on a zero semaphore blocks the task...
    let r = sys.kernel.with_task_ctx(tid, |ctx| ctx.sem_wait(sem));
    assert!(matches!(r, Err(kernel::KernelError::WouldBlock)));
    assert!(matches!(
        sys.kernel.task(tid).unwrap().state,
        kernel::TaskState::Blocked(_)
    ));
    // ...and a post from another task wakes it.
    let other = sys.kernel.spawn_bench_task("poster").unwrap();
    sys.kernel
        .with_task_ctx(other, |ctx| ctx.sem_post(sem))
        .unwrap();
    assert!(sys.kernel.task(tid).unwrap().is_ready());
}

#[test]
fn killing_a_task_releases_its_resources() {
    let mut sys = ProtoSystem::desktop().unwrap();
    let doom = sys.spawn("doom", &["/d/doom.wad".into()]).unwrap();
    sys.run_ms(300);
    let frames_before = sys.kernel.task_metrics(doom).unwrap().frames;
    assert!(frames_before > 0);
    let killer = sys.kernel.spawn_bench_task("killer").unwrap();
    sys.kernel
        .with_task_ctx(killer, |ctx| ctx.kill(doom))
        .unwrap();
    sys.run_ms(300);
    let frames_after = sys
        .kernel
        .task_metrics(doom)
        .map(|m| m.frames)
        .unwrap_or(frames_before);
    assert_eq!(frames_before, frames_after, "killed task stops rendering");
}

#[test]
fn sd_card_faults_surface_as_io_errors_not_panics() {
    let (mut sys, tid) = desktop();
    // Inject a fault into the middle of the FAT data area and read the WAD.
    for b in 9000..9300 {
        sys.kernel.board.sdhost.inject_fault(b);
    }
    let result = sys.kernel.with_task_ctx(tid, |ctx| {
        let fd = ctx.open("/d/doom.wad", OpenFlags::rdonly())?;
        let mut total = 0usize;
        loop {
            match ctx.read(fd, 64 * 1024) {
                Ok(chunk) if chunk.is_empty() => break,
                Ok(chunk) => total += chunk.len(),
                Err(e) => {
                    ctx.close(fd)?;
                    return Err(e);
                }
            }
        }
        ctx.close(fd)?;
        Ok(total)
    });
    assert!(result.is_err(), "injected SD fault is reported");
    sys.kernel.board.sdhost.clear_faults();
}

#[test]
fn fat_positional_writes_match_a_byte_model() {
    // Every branch of the FAT write path, driven through write/lseek and
    // checked byte for byte: offset 0 replaces the file, an offset at or
    // past the end extends it (a gap reads back as zeros), and an offset
    // inside it patches the bytes there.
    let (mut sys, tid) = desktop();
    let path = "/d/model.bin";
    let bytes = |seed: u8, len: usize| -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(13).wrapping_add(seed) | 0x80)
            .collect()
    };
    // (offset, data); `None` writes at the current offset.
    let steps: Vec<(Option<u64>, Vec<u8>)> = vec![
        (None, bytes(1, 5000)),        // offset 0: replace
        (None, bytes(2, 3000)),        // append, crossing a cluster
        (Some(20_000), bytes(3, 100)), // hole, then data
        (Some(1000), bytes(4, 2000)),  // overwrite inside
        (Some(19_990), bytes(5, 200)), // overwrite that runs past the end
        (Some(0), bytes(6, 10)),       // offset 0 again: the file shrinks
        (None, bytes(7, 9000)),        // append after the replace
    ];
    let read_all = |ctx: &mut kernel::UserCtx<'_>| -> kernel::KResult<Vec<u8>> {
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
    };
    let mut model: Vec<u8> = Vec::new();
    let mut pos = 0usize;
    sys.kernel
        .with_task_ctx(tid, |ctx| {
            let fd = ctx.open(path, OpenFlags::wronly_create())?;
            for (i, (seek, data)) in steps.iter().enumerate() {
                if let Some(off) = *seek {
                    ctx.lseek(fd, off)?;
                    pos = off as usize;
                }
                assert_eq!(ctx.write(fd, data)?, data.len());
                if pos == 0 {
                    model = data.clone();
                } else {
                    if model.len() < pos + data.len() {
                        model.resize(pos + data.len(), 0);
                    }
                    model[pos..pos + data.len()].copy_from_slice(data);
                }
                pos += data.len();
                assert_eq!(read_all(ctx)?, model, "after step {i}");
            }
            ctx.fsync(fd)?;
            ctx.close(fd)?;
            Ok::<(), kernel::KernelError>(())
        })
        .unwrap();
    sys.kernel.drop_fs_caches().unwrap();
    let back = sys.kernel.with_task_ctx(tid, read_all).unwrap();
    assert_eq!(back, model, "the card holds the model after a cold read");
}
