//! Minimal unix syscall surface for the mmap page backend (DESIGN.md §13).
//!
//! The build environment is offline, so instead of a `libc` dependency this
//! module declares the two calls the mmap backend needs — `mmap` and
//! `munmap` — directly as `extern "C"` items. Everything here is
//! `pub(crate)`: the public API surface is `Device::open_snapshot_as`,
//! never raw pointers.
//!
//! [`Mapping`] is the one abstraction: a read-only, private, whole-file
//! mapping that unmaps on drop. It is `Send + Sync` because the mapped
//! bytes are immutable for the life of the mapping (the snapshot file is
//! written once via atomic rename and never mutated in place by this
//! process; external truncation is the same unrecoverable environment
//! fault as deleting the file under the pread backend).

#![cfg(unix)]

use std::ffi::{c_int, c_void};
use std::fs::File;
use std::io;
use std::os::unix::io::AsRawFd;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

const PROT_READ: c_int = 1;
const MAP_PRIVATE: c_int = 2;
/// `(void *)-1`, the mmap failure sentinel.
const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

/// A read-only private mapping of an entire file; unmapped on drop.
pub(crate) struct Mapping {
    ptr: *mut c_void,
    len: usize,
}

// SAFETY: the mapping is PROT_READ/MAP_PRIVATE over a file this process
// never writes; the bytes behind `ptr` are immutable for the mapping's
// lifetime, so shared references from any thread are sound.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Map the first `len` bytes of `file` read-only. `len` must be
    /// non-zero (a zero-length mmap is EINVAL); snapshot files are always
    /// at least one header long.
    pub(crate) fn map_file(file: &File, len: usize) -> io::Result<Mapping> {
        assert!(len > 0, "cannot map an empty file");
        let ptr =
            unsafe { mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0) };
        if ptr == MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        Ok(Mapping { ptr, len })
    }

    /// The mapped bytes. Reading a byte may fault the page in — that is
    /// the real-hardware IO the model's `read` counter abstracts.
    pub(crate) fn as_slice(&self) -> &[u8] {
        // SAFETY: ptr/len describe a live PROT_READ mapping owned by self.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: ptr/len came from a successful mmap and are unmapped
        // exactly once.
        unsafe {
            let _ = munmap(self.ptr, self.len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn map_reads_file_bytes_and_unmaps() {
        let dir = crate::snapshot::TempDir::new("lcrs-sys-map");
        let path = dir.file("bytes.bin");
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        File::create(&path).unwrap().write_all(&data).unwrap();
        let f = File::open(&path).unwrap();
        let map = Mapping::map_file(&f, data.len()).unwrap();
        assert_eq!(map.len(), data.len());
        assert_eq!(map.as_slice(), &data[..]);
        drop(map);
        // The fd outlives the mapping and the mapping outlives the fd —
        // either order is fine; dropping both here must not disturb the
        // file contents.
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), data);
    }
}
