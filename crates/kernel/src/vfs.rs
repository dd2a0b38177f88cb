//! The VFS layer: file descriptors, open-file objects and mounts.
//!
//! Prototype 4 introduces the file abstraction and immediately stretches it
//! across disk files (xv6fs on the ramdisk), device files (`/dev/fb`,
//! `/dev/events`, `/dev/sb`) and proc files (`/proc/cpuinfo`,
//! `/proc/meminfo`). Prototype 5 adds the FAT32 volume mounted under `/d`,
//! pseudo-inodes bridging FatFS's inode-less API into the file table, the
//! window-manager surface device (`/dev/surface`, `/dev/event1`) and the
//! non-blocking flag DOOM's polling loop needs (§4.5).
//!
//! The dispatching read/write logic lives on the kernel object (it touches
//! filesystems, drivers and the scheduler); this module defines the data
//! model: open flags, file kinds, the per-task descriptor table and the mount
//! table.

use crate::error::{KResult, KernelError};

/// Open flags, a small subset of POSIX.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpenFlags {
    /// Open for reading.
    pub read: bool,
    /// Open for writing.
    pub write: bool,
    /// Create the file if it does not exist.
    pub create: bool,
    /// Truncate on open. Never read: on FAT32 a write at offset 0
    /// replaces the whole file (`Fat32::write_at`), which truncates it;
    /// an xv6fs file keeps any bytes past the end of the write.
    pub truncate: bool,
    /// Non-blocking reads (Prototype 5, for key-polling games).
    pub nonblock: bool,
}

impl OpenFlags {
    /// Read-only.
    pub fn rdonly() -> Self {
        OpenFlags {
            read: true,
            ..Default::default()
        }
    }
    /// Write-only, creating if needed.
    pub fn wronly_create() -> Self {
        OpenFlags {
            write: true,
            create: true,
            truncate: true,
            ..Default::default()
        }
    }
    /// Read/write.
    pub fn rdwr() -> Self {
        OpenFlags {
            read: true,
            write: true,
            ..Default::default()
        }
    }
    /// Read-only and non-blocking (DOOM's event polling).
    pub fn rdonly_nonblock() -> Self {
        OpenFlags {
            read: true,
            nonblock: true,
            ..Default::default()
        }
    }
}

/// Device files exported by the kernel (§3: "the kernel exports device
/// files... and proc files").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceFile {
    /// `/dev/fb` — the hardware framebuffer (direct rendering).
    Framebuffer,
    /// `/dev/events` — raw keyboard events from the USB driver.
    Events,
    /// `/dev/event1` — events dispatched by the window manager to the focused
    /// app.
    WmEvents,
    /// `/dev/sb` — the sound buffer (PWM/DMA pipeline).
    SoundBuffer,
    /// `/dev/surface` — a window-manager surface for indirect rendering.
    Surface,
    /// `/dev/null`.
    Null,
    /// `/dev/console` — the UART console.
    Console,
}

impl DeviceFile {
    /// Resolves a `/dev` path to a device, if it exists.
    pub fn from_path(path: &str) -> Option<DeviceFile> {
        match path {
            "/dev/fb" => Some(DeviceFile::Framebuffer),
            "/dev/events" => Some(DeviceFile::Events),
            "/dev/event1" => Some(DeviceFile::WmEvents),
            "/dev/sb" => Some(DeviceFile::SoundBuffer),
            "/dev/surface" => Some(DeviceFile::Surface),
            "/dev/null" => Some(DeviceFile::Null),
            "/dev/console" => Some(DeviceFile::Console),
            _ => None,
        }
    }

    /// The canonical path of this device file.
    pub fn path(&self) -> &'static str {
        match self {
            DeviceFile::Framebuffer => "/dev/fb",
            DeviceFile::Events => "/dev/events",
            DeviceFile::WmEvents => "/dev/event1",
            DeviceFile::SoundBuffer => "/dev/sb",
            DeviceFile::Surface => "/dev/surface",
            DeviceFile::Null => "/dev/null",
            DeviceFile::Console => "/dev/console",
        }
    }

    /// All device files, for `ls /dev`.
    pub const ALL: [DeviceFile; 7] = [
        DeviceFile::Framebuffer,
        DeviceFile::Events,
        DeviceFile::WmEvents,
        DeviceFile::SoundBuffer,
        DeviceFile::Surface,
        DeviceFile::Null,
        DeviceFile::Console,
    ];
}

/// What an open file descriptor refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileKind {
    /// A file on the root xv6fs (by inode number).
    Xv6 {
        /// Inode number.
        inum: u32,
    },
    /// A file on the FAT32 volume, addressed by its in-volume path (FAT has
    /// no inodes; this is the pseudo-inode the kernel maintains).
    Fat {
        /// Path within the FAT volume (after stripping the `/d` mount point).
        volume_path: String,
        /// Pseudo-inode number assigned at open time.
        pseudo_inum: u32,
    },
    /// A device file.
    Device(DeviceFile),
    /// A proc file; contents are generated at read time and snapshotted into
    /// the open file so repeated reads see a consistent view.
    Proc {
        /// The `/proc` entry name.
        name: String,
    },
    /// One end of a pipe.
    Pipe {
        /// Pipe id in the kernel's pipe table.
        id: u64,
        /// True if this is the write end.
        write_end: bool,
    },
    /// A surface handle created by opening `/dev/surface` (each open creates
    /// a new window surface owned by the opening task).
    SurfaceHandle {
        /// Surface id in the window manager.
        surface_id: u64,
    },
}

/// An open file: kind + cursor + flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenFile {
    /// What this descriptor refers to.
    pub kind: FileKind,
    /// Byte offset for seekable files.
    pub offset: u64,
    /// Flags it was opened with.
    pub flags: OpenFlags,
    /// Cached proc-file contents (generated on first read).
    pub proc_snapshot: Option<Vec<u8>>,
    /// True once the descriptor has written to a disk filesystem. The block
    /// layer's buffer cache is write-back, so `close` (and `fsync`) use this
    /// to know whether dirty blocks may need draining to the device — and to
    /// attribute those SD cycles to the task that wrote them.
    pub written: bool,
}

impl OpenFile {
    /// Creates an open file at offset zero.
    pub fn new(kind: FileKind, flags: OpenFlags) -> Self {
        OpenFile {
            kind,
            offset: 0,
            flags,
            proc_snapshot: None,
            written: false,
        }
    }
}

/// Maximum open descriptors per task (xv6's NOFILE is 16; Proto keeps it
/// small too).
pub const MAX_FDS: usize = 16;

/// A per-task file-descriptor table.
#[derive(Debug, Default)]
pub struct FdTable {
    files: Vec<Option<OpenFile>>,
}

impl FdTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        FdTable {
            files: vec![None; MAX_FDS],
        }
    }

    /// Installs an open file in the lowest free slot, returning the fd.
    pub fn install(&mut self, file: OpenFile) -> KResult<i32> {
        for (i, slot) in self.files.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(file);
                return Ok(i as i32);
            }
        }
        Err(KernelError::LimitExceeded(format!(
            "more than {MAX_FDS} open files"
        )))
    }

    /// Returns a reference to the open file behind `fd`.
    pub fn get(&self, fd: i32) -> KResult<&OpenFile> {
        self.files
            .get(fd as usize)
            .and_then(|f| f.as_ref())
            .ok_or(KernelError::BadFd(fd))
    }

    /// Returns a mutable reference to the open file behind `fd`.
    pub fn get_mut(&mut self, fd: i32) -> KResult<&mut OpenFile> {
        self.files
            .get_mut(fd as usize)
            .and_then(|f| f.as_mut())
            .ok_or(KernelError::BadFd(fd))
    }

    /// Removes and returns the open file behind `fd`.
    pub fn remove(&mut self, fd: i32) -> KResult<OpenFile> {
        self.files
            .get_mut(fd as usize)
            .and_then(|f| f.take())
            .ok_or(KernelError::BadFd(fd))
    }

    /// Duplicates `fd` into the lowest free slot (a simplified `dup`: the new
    /// descriptor has its own offset).
    pub fn dup(&mut self, fd: i32) -> KResult<i32> {
        let copy = self.get(fd)?.clone();
        self.install(copy)
    }

    /// Every currently open file (used when a task exits to close them all).
    pub fn drain_all(&mut self) -> Vec<OpenFile> {
        self.files.iter_mut().filter_map(|f| f.take()).collect()
    }

    /// Number of open descriptors.
    pub fn open_count(&self) -> usize {
        self.files.iter().filter(|f| f.is_some()).count()
    }

    /// Clones the table for `fork()` (the child inherits copies of every
    /// descriptor).
    pub fn clone_for_fork(&self) -> FdTable {
        FdTable {
            files: self.files.clone(),
        }
    }
}

/// Which mounted filesystem a path belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MountTarget {
    /// The root xv6fs on the ramdisk.
    Root,
    /// The FAT32 volume mounted at `/d`.
    Fat,
    /// The `/dev` namespace.
    Dev,
    /// The `/proc` namespace.
    Proc,
}

/// The mount table: "the OS mounts its root filesystem (in xv6fs) under `/`
/// and mounts the FAT32 partition under `/d`" (§4.5).
#[derive(Debug, Clone, Default)]
pub struct MountTable {
    /// Where the FAT volume is mounted (default `/d`); `None` before
    /// Prototype 5 brings up the SD card.
    pub fat_mount: Option<String>,
}

impl MountTable {
    /// A mount table with FAT32 mounted at `/d`.
    pub fn with_fat() -> Self {
        MountTable {
            fat_mount: Some("/d".to_string()),
        }
    }

    /// Classifies `path` (which must be normalised) into a mount target and
    /// the path within that mount.
    pub fn resolve(&self, path: &str) -> (MountTarget, String) {
        let norm = protofs::path::normalize(path);
        if norm == "/dev" || protofs::path::is_under(&norm, "/dev") {
            return (MountTarget::Dev, norm);
        }
        if norm == "/proc" || protofs::path::is_under(&norm, "/proc") {
            return (MountTarget::Proc, norm);
        }
        if let Some(fat) = &self.fat_mount {
            if let Some(stripped) = protofs::path::strip_prefix(&norm, fat) {
                return (MountTarget::Fat, stripped);
            }
        }
        (MountTarget::Root, norm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fd_table_installs_in_lowest_slot_and_enforces_the_limit() {
        let mut t = FdTable::new();
        let f = || OpenFile::new(FileKind::Device(DeviceFile::Null), OpenFlags::rdonly());
        let a = t.install(f()).unwrap();
        let b = t.install(f()).unwrap();
        assert_eq!((a, b), (0, 1));
        t.remove(0).unwrap();
        assert_eq!(t.install(f()).unwrap(), 0, "lowest free slot reused");
        while t.open_count() < MAX_FDS {
            t.install(f()).unwrap();
        }
        assert!(matches!(t.install(f()), Err(KernelError::LimitExceeded(_))));
    }

    #[test]
    fn bad_fds_are_rejected() {
        let mut t = FdTable::new();
        assert!(matches!(t.get(0), Err(KernelError::BadFd(0))));
        assert!(t.get_mut(99).is_err());
        assert!(t.remove(-1).is_err());
    }

    #[test]
    fn dup_copies_the_descriptor() {
        let mut t = FdTable::new();
        let fd = t
            .install(OpenFile::new(
                FileKind::Xv6 { inum: 7 },
                OpenFlags::rdonly(),
            ))
            .unwrap();
        let dup = t.dup(fd).unwrap();
        assert_ne!(fd, dup);
        assert_eq!(t.get(dup).unwrap().kind, FileKind::Xv6 { inum: 7 });
    }

    #[test]
    fn mount_table_routes_paths_like_the_paper() {
        let m = MountTable::with_fat();
        assert_eq!(m.resolve("/etc/rc").0, MountTarget::Root);
        assert_eq!(
            m.resolve("/d/doom.wad"),
            (MountTarget::Fat, "/doom.wad".into())
        );
        assert_eq!(m.resolve("/dev/fb").0, MountTarget::Dev);
        assert_eq!(m.resolve("/proc/meminfo").0, MountTarget::Proc);
        // Without the FAT mount, /d is just a root directory.
        let no_fat = MountTable::default();
        assert_eq!(no_fat.resolve("/d/doom.wad").0, MountTarget::Root);
    }

    #[test]
    fn device_paths_resolve_and_round_trip() {
        for dev in DeviceFile::ALL {
            assert_eq!(DeviceFile::from_path(dev.path()), Some(dev));
        }
        assert_eq!(DeviceFile::from_path("/dev/nope"), None);
    }
}
