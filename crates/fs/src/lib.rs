//! Proto's storage stack.
//!
//! The paper's filesystem story unfolds across two prototypes. Prototype 4
//! ports xv6's small ext2-like filesystem ("xv6fs") and runs it on a ramdisk
//! baked into the kernel image: all block I/O is synchronous and single-block,
//! which keeps the read/write paths inside syscall context and easy to debug.
//! Prototype 5 then hits xv6fs's three limits — 270 KB maximum file size,
//! single-block transfers, and zero interoperability with commodity OSes —
//! and brings up a FAT32 volume on the SD card's second partition with
//! multi-block range I/O (§5.2).
//!
//! This crate implements that whole stack:
//!
//! * [`block`] — the [`block::BlockDevice`] trait (single-block + range +
//!   flush shapes) plus the memory-backed disk used for ramdisks and tests.
//! * [`bufcache`] — the unified sharded, extent-based, write-back buffer
//!   cache with first-class range I/O, shared by both filesystems. (It
//!   replaces both xv6's single-block LRU cache and the FAT32 cache-bypass
//!   hack the first reproduction used for §5.2.)
//! * [`xv6fs`] — the small inode-based filesystem with its 268 KB file limit.
//! * [`fat32`] — a FAT32 implementation whose cluster I/O flows through the
//!   cache's range API.
//! * [`txn`] — the filesystem-agnostic transaction layer: physical redo
//!   log + group commit over the cache's dependency/pinning machinery,
//!   shared by FAT32's intent log and xv6fs's journal.
//! * [`path`] — path normalisation shared by the kernel's VFS.
//! * `alloc` (crate-internal) — the next-free allocation cursor both
//!   filesystems' first-fit allocators scan from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panic-freedom backstop (see clippy.toml for the method list and the
// rationale): production code may not unwrap/expect; unit tests may.
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

mod alloc;
pub mod block;
pub mod bufcache;
pub mod fat32;
pub mod path;
pub mod txn;
pub mod xv6fs;

pub use block::{BlockDevice, MemDisk, BLOCK_SIZE};

/// Errors surfaced by the storage stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Underlying block device failed.
    Io(String),
    /// No such file or directory.
    NotFound(String),
    /// File or directory already exists.
    AlreadyExists(String),
    /// The operation needs a directory but found a file (or vice versa).
    NotADirectory(String),
    /// The operation needs a file but found a directory.
    IsADirectory(String),
    /// The filesystem or file hit a size limit (e.g. xv6fs's 268 KB max).
    TooLarge(String),
    /// No free blocks / clusters / inodes remain.
    NoSpace,
    /// The directory is not empty (rmdir-style failures).
    NotEmpty(String),
    /// The on-disk structures are inconsistent.
    Corrupt(String),
    /// Invalid argument (bad name, bad offset...).
    Invalid(String),
    /// The operation would have to wait for an in-flight device command.
    /// Only surfaced when the cache is in blocking-demand mode (the kernel
    /// parks the calling task on a wait channel and retries the operation
    /// after the completion interrupt); spin-mode callers never see it.
    WouldBlock,
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::Io(s) => write!(f, "I/O error: {s}"),
            FsError::NotFound(s) => write!(f, "not found: {s}"),
            FsError::AlreadyExists(s) => write!(f, "already exists: {s}"),
            FsError::NotADirectory(s) => write!(f, "not a directory: {s}"),
            FsError::IsADirectory(s) => write!(f, "is a directory: {s}"),
            FsError::TooLarge(s) => write!(f, "too large: {s}"),
            FsError::NoSpace => write!(f, "no space left on device"),
            FsError::NotEmpty(s) => write!(f, "directory not empty: {s}"),
            FsError::Corrupt(s) => write!(f, "filesystem corrupt: {s}"),
            FsError::Invalid(s) => write!(f, "invalid argument: {s}"),
            FsError::WouldBlock => write!(f, "operation would block on device I/O"),
        }
    }
}

impl std::error::Error for FsError {}

/// Result alias for storage operations.
pub type FsResult<T> = Result<T, FsError>;

impl From<hal::HalError> for FsError {
    fn from(e: hal::HalError) -> Self {
        FsError::Io(e.to_string())
    }
}
