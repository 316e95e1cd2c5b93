//! Read-only memory mapping over a snapshot file, via direct `libc` FFI
//! (`mmap` / `munmap` / `madvise`) — no external crate, no build script.
//!
//! The real implementation is gated on **little-endian Linux**: the
//! snapshot's sections are little-endian on disk, so a zero-copy reinterpret
//! is only sound there, and the syscalls are POSIX-on-Linux. Everywhere
//! else [`Mapping::map_file`] returns `Unsupported` and the store falls
//! back to the read-decode path — same index, slower first query.

use std::fs::File;
use std::io;

/// Hardware page size assumed by the snapshot layout. The snapshot writer
/// aligns sections to [`imm_service::SNAPSHOT_PAGE_BYTES`] (4096); systems
/// with larger base pages still map correctly because `mmap` only needs
/// the *file offset* page-aligned, and we always map from offset zero.
pub const PAGE_BYTES: usize = imm_service::SNAPSHOT_PAGE_BYTES;

#[cfg(all(target_os = "linux", target_endian = "little"))]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 0x1;
    pub const MAP_PRIVATE: i32 = 0x02;
    pub const MADV_WILLNEED: i32 = 3;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
        pub fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
    }
}

/// An owned, read-only, `MAP_PRIVATE` mapping of an entire file.
///
/// Unmapped on drop. The pointer is page-aligned (kernel guarantee), which
/// is what makes the store's `&[u32]` / `&[u64]` section reinterprets sound
/// together with the writer's page-aligned section offsets.
#[derive(Debug)]
pub struct Mapping {
    ptr: std::ptr::NonNull<u8>,
    len: usize,
}

// SAFETY: the mapping is read-only for its entire lifetime (PROT_READ,
// private), so shared references from any thread are fine.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Mapped length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty (never true for a successful map).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(all(target_os = "linux", target_endian = "little"))]
impl Mapping {
    /// Map the whole of `file` read-only.
    pub fn map_file(file: &File) -> io::Result<Mapping> {
        use std::os::fd::AsRawFd;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
        if len == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "refusing to map empty file"));
        }
        // SAFETY: NULL hint, read-only private mapping of a file we hold
        // open; the kernel picks the address. Failure is MAP_FAILED.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        let ptr = std::ptr::NonNull::new(ptr.cast::<u8>())
            .ok_or_else(|| io::Error::other("mmap returned NULL"))?;
        Ok(Mapping { ptr, len })
    }

    /// The mapped bytes. Creating the slice touches no pages; reads fault
    /// them in on demand.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: ptr/len describe a live PROT_READ mapping owned by self.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Advise the kernel to prefetch `[offset, offset + len)`. The range is
    /// widened down to its containing page boundary (`madvise` requires a
    /// page-aligned start) and clamped to the mapping.
    pub fn advise_willneed(&self, offset: usize, len: usize) -> io::Result<()> {
        if len == 0 || offset >= self.len {
            return Ok(());
        }
        let start = offset - offset % PAGE_BYTES;
        let end = (offset + len).min(self.len);
        // SAFETY: [start, end) lies within our own mapping and start is
        // page-aligned; WILLNEED is purely advisory.
        let rc = unsafe {
            sys::madvise(self.ptr.as_ptr().add(start).cast(), end - start, sys::MADV_WILLNEED)
        };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

#[cfg(all(target_os = "linux", target_endian = "little"))]
impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: ptr/len came from a successful mmap and are unmapped
        // exactly once.
        unsafe {
            sys::munmap(self.ptr.as_ptr().cast(), self.len);
        }
    }
}

#[cfg(not(all(target_os = "linux", target_endian = "little")))]
impl Mapping {
    /// Stub: this platform cannot serve snapshots zero-copy; callers fall
    /// back to the read-decode path.
    pub fn map_file(_file: &File) -> io::Result<Mapping> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "memory mapping requires little-endian linux",
        ))
    }

    /// Unreachable on this platform ([`Mapping::map_file`] never succeeds).
    pub fn as_slice(&self) -> &[u8] {
        &[]
    }

    /// No-op on this platform.
    pub fn advise_willneed(&self, _offset: usize, _len: usize) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(all(test, target_os = "linux", target_endian = "little"))]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("imm_store_mmap_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}_{}", std::process::id()));
        let mut f = File::create(&path).unwrap();
        f.write_all(bytes).unwrap();
        path
    }

    #[test]
    fn maps_a_file_and_reads_its_bytes_back() {
        let bytes: Vec<u8> = (0..=255u8).cycle().take(3 * PAGE_BYTES + 17).collect();
        let path = temp_file("roundtrip", &bytes);
        let mapping = Mapping::map_file(&File::open(&path).unwrap()).unwrap();
        assert_eq!(mapping.len(), bytes.len());
        assert_eq!(mapping.as_slice(), &bytes[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_files_are_refused() {
        let path = temp_file("empty", &[]);
        assert!(Mapping::map_file(&File::open(&path).unwrap()).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn advise_accepts_unaligned_and_overlong_ranges() {
        let bytes = vec![7u8; 2 * PAGE_BYTES];
        let path = temp_file("advise", &bytes);
        let mapping = Mapping::map_file(&File::open(&path).unwrap()).unwrap();
        mapping.advise_willneed(13, 100).unwrap();
        mapping.advise_willneed(PAGE_BYTES - 1, usize::MAX / 2).unwrap();
        mapping.advise_willneed(mapping.len() + 5, 1).unwrap(); // clamped no-op
        mapping.advise_willneed(0, 0).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn the_mapping_is_page_aligned() {
        let bytes = vec![1u8; PAGE_BYTES];
        let path = temp_file("aligned", &bytes);
        let mapping = Mapping::map_file(&File::open(&path).unwrap()).unwrap();
        assert_eq!(mapping.as_slice().as_ptr() as usize % PAGE_BYTES, 0);
        std::fs::remove_file(&path).ok();
    }
}
