//! Persistent snapshots of frozen devices (DESIGN.md §9).
//!
//! A [`crate::Device::freeze`]d page store is one serialization step away
//! from a real on-disk, reopen-read-only backend: the pages are immutable,
//! so a snapshot is a header (magic, format version, page geometry,
//! checksums) followed by the raw page bytes. This module owns that
//! format plus the small envelope used for *structure metadata* (roots,
//! fanouts, partition tables — everything a structure keeps host-side):
//!
//! * [`SnapshotFile`] — an opened, fully *validated* page snapshot;
//!   [`crate::Device::open_snapshot`] wraps one as a file-backed
//!   [`crate::device::PageBackend::File`] store.
//! * [`MetaWriter`]/[`MetaReader`] — a tiny tagged little-endian codec
//!   with a checksummed envelope, used by every structure's
//!   `save`/`load` pair and by the engine's `SnapshotCatalog`.
//! * [`SnapshotError`] — the typed error surface: corruption (truncation,
//!   bit flips, wrong magic, future versions) is always reported with the
//!   failing offset, never a panic.
//! * [`TempDir`] — a self-cleaning scratch directory so snapshot tests and
//!   benches never write outside the system temp dir, and clean up even
//!   when a test panics.
//!
//! All integers are little-endian. Checksums are 64-bit FNV-1a — not
//! cryptographic, but a deterministic, dependency-free detector for the
//! corruption classes the test matrix pins (truncated files, flipped
//! bytes in header, page body, or checksum table).

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening a page snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"LCRSSNAP";
/// Magic bytes opening a metadata envelope.
pub const META_MAGIC: [u8; 8] = *b"LCRSMETA";
/// Current format version of both file kinds. Readers reject anything
/// newer; older versions would be migrated here once they exist.
pub const FORMAT_VERSION: u32 = 1;

// Page-snapshot header layout (all offsets in bytes, little-endian):
//   0  magic            [u8; 8]   "LCRSSNAP"
//   8  format version   u32
//  12  page size        u32       bytes per page
//  16  page count       u64
//  24  table checksum   u64       FNV-1a of the per-page checksum table
//  32  header checksum  u64       FNV-1a of bytes 0..32
//  40  checksum table   page_count × u64 (FNV-1a of each page)
//  40 + 8·pc  pages     page_count × page_size raw bytes
const OFF_VERSION: u64 = 8;
const OFF_PAGE_BYTES: u64 = 12;
const OFF_TABLE_CHECKSUM: u64 = 24;
const OFF_HEADER_CHECKSUM: u64 = 32;
const HEADER_LEN: u64 = 40;

// Metadata envelope layout:
//   0  magic            [u8; 8]   "LCRSMETA"
//   8  format version   u32
//  12  payload length   u64
//  20  payload          tagged values ([`MetaWriter`])
//  20 + len  checksum   u64       FNV-1a of bytes 0..20+len
const META_HEADER_LEN: u64 = 20;

// Value tags of the metadata codec. Every value is tagged so a wrong-order
// or wrong-kind load fails with a typed error instead of decoding garbage.
const TAG_U64: u8 = 1;
const TAG_I64: u8 = 2;
const TAG_BYTES: u8 = 3;
const TAG_SEQ: u8 = 4;
const TAG_OPT: u8 = 5;

/// 64-bit FNV-1a over `bytes` — the checksum of every snapshot artifact.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Everything that can go wrong opening, reading, or decoding a snapshot.
///
/// Corruption is always a typed error carrying the failing file offset —
/// the load path never panics on bad bytes (pinned by the corruption
/// matrix in `tests/snapshot_corruption.rs`).
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotError {
    /// An underlying filesystem error.
    Io(io::Error),
    /// The file does not start with the expected magic bytes.
    BadMagic { offset: u64, found: [u8; 8], expected: [u8; 8] },
    /// The file's format version is newer than this reader understands.
    UnsupportedVersion { offset: u64, found: u32, supported: u32 },
    /// A header- or envelope-level checksum did not match.
    ChecksumMismatch { offset: u64, what: &'static str, expected: u64, actual: u64 },
    /// One page's body does not match its recorded checksum; `offset` is
    /// where that page starts in the file.
    PageChecksum { page: u64, offset: u64, expected: u64, actual: u64 },
    /// The file is shorter (or longer) than its header declares; `offset`
    /// is where the usable data ends.
    Truncated { offset: u64, expected: u64, actual: u64 },
    /// A header field holds a value that cannot describe a valid snapshot.
    InvalidField { offset: u64, what: &'static str, value: u64 },
    /// Serialization was requested on a device still in its build phase.
    NotFrozen,
    /// Structure metadata failed to decode at `offset` into the file.
    Meta { offset: u64, detail: String },
    /// A catalog label is empty, too long, or not `[A-Za-z0-9_-]`.
    InvalidLabel { label: String },
    /// A catalog label starts with the prefix reserved for engine-internal
    /// files (manifests, calibration data) living in the same directory.
    ReservedLabel { label: String, prefix: &'static str },
    /// A catalog already holds an entry with this label.
    DuplicateEntry { label: String },
    /// A catalog holds no entry with this label.
    NoSuchEntry { label: String },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot IO error: {e}"),
            SnapshotError::BadMagic { offset, found, expected } => {
                write!(f, "bad magic at offset {offset}: found {found:?}, expected {expected:?}")
            }
            SnapshotError::UnsupportedVersion { offset, found, supported } => write!(
                f,
                "unsupported format version {found} at offset {offset} (this reader supports \
                 up to {supported})"
            ),
            SnapshotError::ChecksumMismatch { offset, what, expected, actual } => write!(
                f,
                "{what} checksum mismatch at offset {offset}: expected {expected:#018x}, \
                 found {actual:#018x}"
            ),
            SnapshotError::PageChecksum { page, offset, expected, actual } => write!(
                f,
                "page {page} corrupt at offset {offset}: checksum expected {expected:#018x}, \
                 found {actual:#018x}"
            ),
            SnapshotError::Truncated { offset, expected, actual } => write!(
                f,
                "file length mismatch: expected {expected} bytes, found {actual} (data ends \
                 at offset {offset})"
            ),
            SnapshotError::InvalidField { offset, what, value } => {
                write!(f, "invalid {what} {value} at offset {offset}")
            }
            SnapshotError::NotFrozen => {
                write!(f, "device is not frozen (freeze() must end the build phase first)")
            }
            SnapshotError::Meta { offset, detail } => {
                write!(f, "metadata error at offset {offset}: {detail}")
            }
            SnapshotError::InvalidLabel { label } => write!(
                f,
                "invalid catalog label {label:?} (1..=64 chars of [A-Za-z0-9_-] required)"
            ),
            SnapshotError::ReservedLabel { label, prefix } => write!(
                f,
                "catalog label {label:?} uses the prefix {prefix:?} reserved for \
                 engine-internal files"
            ),
            SnapshotError::DuplicateEntry { label } => {
                write!(f, "catalog already holds an entry labeled {label:?}")
            }
            SnapshotError::NoSuchEntry { label } => {
                write!(f, "catalog holds no entry labeled {label:?}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Write a page snapshot to `path`: header + per-page checksum table +
/// raw pages, then an atomic rename from a `.tmp` sibling so a crash never
/// leaves a half-written file under the final name. `page` must fill the
/// buffer with the bytes of the page at the given index.
pub(crate) fn write_snapshot(
    path: &Path,
    page_bytes: usize,
    page_count: u64,
    mut page: impl FnMut(u64, &mut [u8]),
) -> Result<(), SnapshotError> {
    let page_bytes_u32 = u32::try_from(page_bytes).map_err(|_| SnapshotError::InvalidField {
        offset: OFF_PAGE_BYTES,
        what: "page size",
        value: page_bytes as u64,
    })?;
    let file_name = path.file_name().ok_or_else(|| {
        SnapshotError::Io(io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))
    })?;
    let tmp = path.with_file_name(format!("{}.tmp", file_name.to_string_lossy()));
    let mut f = File::create(&tmp)?;

    // Reserve header + table, stream the pages while computing checksums,
    // then seek back and fill the reserved region in.
    let table_len = 8 * page_count;
    f.seek(SeekFrom::Start(HEADER_LEN + table_len))?;
    let mut buf = vec![0u8; page_bytes];
    let mut table = Vec::with_capacity(page_count as usize);
    for i in 0..page_count {
        page(i, &mut buf);
        table.push(fnv1a64(&buf));
        f.write_all(&buf)?;
    }

    let mut table_bytes = Vec::with_capacity(table_len as usize);
    for sum in &table {
        table_bytes.extend_from_slice(&sum.to_le_bytes());
    }
    let mut header = Vec::with_capacity(HEADER_LEN as usize);
    header.extend_from_slice(&SNAPSHOT_MAGIC);
    header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    header.extend_from_slice(&page_bytes_u32.to_le_bytes());
    header.extend_from_slice(&page_count.to_le_bytes());
    header.extend_from_slice(&fnv1a64(&table_bytes).to_le_bytes());
    let header_checksum = fnv1a64(&header);
    header.extend_from_slice(&header_checksum.to_le_bytes());
    debug_assert_eq!(header.len() as u64, HEADER_LEN);
    f.seek(SeekFrom::Start(0))?;
    f.write_all(&header)?;
    f.write_all(&table_bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// An opened, fully validated page snapshot.
///
/// [`SnapshotFile::open`] reads the whole file once, verifying the header,
/// the checksum table, every page body, and the exact file length; any
/// mismatch is a typed [`SnapshotError`] with the failing offset. After
/// open, page reads are positional (`pread`) against the validated file —
/// no locks, so a file-backed store stays `Send + Sync` and lock-free
/// exactly like an in-memory frozen one.
pub struct SnapshotFile {
    #[cfg(unix)]
    file: File,
    #[cfg(not(unix))]
    file: std::sync::Mutex<File>,
    page_bytes: usize,
    page_count: u64,
    data_offset: u64,
    path: PathBuf,
}

impl SnapshotFile {
    /// Open and validate the snapshot at `path`.
    pub fn open(path: &Path) -> Result<SnapshotFile, SnapshotError> {
        let mut f = File::open(path)?;
        let actual_len = f.metadata()?.len();
        if actual_len < HEADER_LEN {
            return Err(SnapshotError::Truncated {
                offset: actual_len,
                expected: HEADER_LEN,
                actual: actual_len,
            });
        }
        let mut header = [0u8; HEADER_LEN as usize];
        f.read_exact(&mut header)?;
        if header[..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic {
                offset: 0,
                found: header[..8].try_into().unwrap(),
                expected: SNAPSHOT_MAGIC,
            });
        }
        let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if version > FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                offset: OFF_VERSION,
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let stored_header_sum = u64::from_le_bytes(header[32..40].try_into().unwrap());
        let computed_header_sum = fnv1a64(&header[..32]);
        if stored_header_sum != computed_header_sum {
            return Err(SnapshotError::ChecksumMismatch {
                offset: OFF_HEADER_CHECKSUM,
                what: "header",
                expected: stored_header_sum,
                actual: computed_header_sum,
            });
        }
        let page_bytes = u32::from_le_bytes(header[12..16].try_into().unwrap());
        if page_bytes == 0 {
            return Err(SnapshotError::InvalidField {
                offset: OFF_PAGE_BYTES,
                what: "page size",
                value: 0,
            });
        }
        let page_count = u64::from_le_bytes(header[16..24].try_into().unwrap());
        let stored_table_sum = u64::from_le_bytes(header[24..32].try_into().unwrap());

        let table_len = page_count.checked_mul(8).ok_or(SnapshotError::InvalidField {
            offset: 16,
            what: "page count",
            value: page_count,
        })?;
        let data_offset = HEADER_LEN + table_len;
        let expected_len = page_count
            .checked_mul(page_bytes as u64)
            .and_then(|d| d.checked_add(data_offset))
            .ok_or(SnapshotError::InvalidField {
                offset: 16,
                what: "page count",
                value: page_count,
            })?;
        if actual_len != expected_len {
            return Err(SnapshotError::Truncated {
                offset: actual_len.min(expected_len),
                expected: expected_len,
                actual: actual_len,
            });
        }

        let mut table_bytes = vec![0u8; table_len as usize];
        f.read_exact(&mut table_bytes)?;
        let computed_table_sum = fnv1a64(&table_bytes);
        if stored_table_sum != computed_table_sum {
            return Err(SnapshotError::ChecksumMismatch {
                offset: OFF_TABLE_CHECKSUM,
                what: "page-checksum table",
                expected: stored_table_sum,
                actual: computed_table_sum,
            });
        }

        // Verify every page body once, up front: after open, reads can
        // trust the file without re-hashing on the hot path.
        let mut buf = vec![0u8; page_bytes as usize];
        for i in 0..page_count {
            f.read_exact(&mut buf)?;
            let expected =
                u64::from_le_bytes(table_bytes[i as usize * 8..][..8].try_into().unwrap());
            let actual = fnv1a64(&buf);
            if expected != actual {
                return Err(SnapshotError::PageChecksum {
                    page: i,
                    offset: data_offset + i * page_bytes as u64,
                    expected,
                    actual,
                });
            }
        }

        Ok(SnapshotFile {
            #[cfg(unix)]
            file: f,
            #[cfg(not(unix))]
            file: std::sync::Mutex::new(f),
            page_bytes: page_bytes as usize,
            page_count,
            data_offset,
            path: path.to_path_buf(),
        })
    }

    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    pub fn page_count(&self) -> u64 {
        self.page_count
    }

    /// Read page `idx` into `buf` (positional read; no seek, no lock on
    /// unix). The content was checksum-verified at open, so a read failure
    /// here is an environment error (file deleted, device gone) and
    /// panics like any other unrecoverable IO fault in the cost model.
    pub fn read_page_into(&self, idx: u64, buf: &mut [u8]) {
        assert!(idx < self.page_count, "page {idx} out of range {}", self.page_count);
        assert_eq!(buf.len(), self.page_bytes);
        let offset = self.data_offset + idx * self.page_bytes as u64;
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file
                .read_exact_at(buf, offset)
                .unwrap_or_else(|e| panic!("snapshot {:?}: read of page {idx}: {e}", self.path));
        }
        #[cfg(not(unix))]
        {
            let mut f = self.file.lock().unwrap();
            f.seek(SeekFrom::Start(offset))
                .and_then(|_| f.read_exact(buf))
                .unwrap_or_else(|e| panic!("snapshot {:?}: read of page {idx}: {e}", self.path));
        }
    }
}

/// A fully validated page snapshot exposed as one read-only memory
/// mapping — the zero-copy backend behind
/// [`crate::device::PageBackend::Mmap`] (DESIGN.md §13).
///
/// Construction goes through [`SnapshotFile::open`] first, so the header,
/// checksum table, every page body, and the exact file length are verified
/// by *the same code path* as the pread backend — corruption surfaces as
/// the identical typed [`SnapshotError`] no matter which backend was
/// requested (pinned by the corruption matrix). After that, a page read is
/// a pointer offset into the mapping: no syscall, no copy, no per-thread
/// buffer.
#[cfg(unix)]
pub struct MappedSnapshot {
    map: crate::sys::Mapping,
    page_bytes: usize,
    page_count: u64,
    data_offset: usize,
}

#[cfg(unix)]
impl MappedSnapshot {
    /// Map a snapshot that [`SnapshotFile::open`] already validated. The
    /// file descriptor is closed on return; the mapping keeps the pages
    /// reachable.
    pub(crate) fn from_snapshot_file(sf: SnapshotFile) -> Result<MappedSnapshot, SnapshotError> {
        // Validated at open: the file length is exactly header + table +
        // pages, and at least one header, so the whole-file mapping is
        // never empty and every page slice below is in bounds.
        let len = sf.data_offset + sf.page_count * sf.page_bytes as u64;
        let map = crate::sys::Mapping::map_file(&sf.file, len as usize)?;
        debug_assert_eq!(map.len() as u64, len);
        Ok(MappedSnapshot {
            map,
            page_bytes: sf.page_bytes,
            page_count: sf.page_count,
            data_offset: sf.data_offset as usize,
        })
    }

    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    pub fn page_count(&self) -> u64 {
        self.page_count
    }

    /// The bytes of page `idx` — a borrow straight out of the mapping.
    pub fn page(&self, idx: u64) -> &[u8] {
        assert!(idx < self.page_count, "page {idx} out of range {}", self.page_count);
        let start = self.data_offset + idx as usize * self.page_bytes;
        &self.map.as_slice()[start..start + self.page_bytes]
    }
}

/// Builder for a structure-metadata payload: a flat stream of *tagged*
/// little-endian values wrapped in a checksummed envelope. The tag makes
/// a mis-ordered or wrong-kind load fail typed instead of decoding
/// garbage; the envelope checksum catches flipped bytes.
#[derive(Default)]
pub struct MetaWriter {
    buf: Vec<u8>,
}

impl MetaWriter {
    pub fn new() -> MetaWriter {
        MetaWriter { buf: Vec::new() }
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.push(TAG_U64);
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.push(TAG_I64);
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn u32(&mut self, v: u32) {
        self.u64(u64::from(v));
    }

    pub fn bool(&mut self, v: bool) {
        self.u64(u64::from(v));
    }

    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.push(TAG_BYTES);
        self.buf.extend_from_slice(&(b.len() as u64).to_le_bytes());
        self.buf.extend_from_slice(b);
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Open a sequence of `len` elements; the caller then writes exactly
    /// `len` of them.
    pub fn seq(&mut self, len: usize) {
        self.buf.push(TAG_SEQ);
        self.buf.extend_from_slice(&(len as u64).to_le_bytes());
    }

    /// Presence marker for an optional value; written before the value
    /// itself when `some`.
    pub fn opt(&mut self, some: bool) {
        self.buf.push(TAG_OPT);
        self.buf.push(u8::from(some));
    }

    /// Seal the payload into its envelope (magic, version, length,
    /// trailing checksum) and return the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(META_HEADER_LEN as usize + self.buf.len() + 8);
        out.extend_from_slice(&META_MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.buf.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.buf);
        let sum = fnv1a64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// [`Self::into_bytes`] written to `path` via sync + atomic rename, so
    /// a crash never leaves a half-written envelope under the final name
    /// (same durability contract as the page-snapshot writer).
    pub fn write_to_path(self, path: &Path) -> Result<(), SnapshotError> {
        let bytes = self.into_bytes();
        let file_name = path.file_name().ok_or_else(|| {
            SnapshotError::Io(io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))
        })?;
        let tmp = path.with_file_name(format!("{}.tmp", file_name.to_string_lossy()));
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        Ok(())
    }
}

/// Reader for a [`MetaWriter`] envelope. Construction validates magic,
/// version, declared length, and the trailing checksum; the typed reads
/// then validate tags, so every decode failure is a [`SnapshotError`]
/// carrying the offset it happened at.
pub struct MetaReader {
    buf: Vec<u8>,
    pos: usize,
    payload_end: usize,
}

impl MetaReader {
    pub fn from_bytes(buf: Vec<u8>) -> Result<MetaReader, SnapshotError> {
        let min = META_HEADER_LEN + 8;
        if (buf.len() as u64) < min {
            return Err(SnapshotError::Truncated {
                offset: buf.len() as u64,
                expected: min,
                actual: buf.len() as u64,
            });
        }
        if buf[..8] != META_MAGIC {
            return Err(SnapshotError::BadMagic {
                offset: 0,
                found: buf[..8].try_into().unwrap(),
                expected: META_MAGIC,
            });
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        if version > FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                offset: OFF_VERSION,
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let payload_len = u64::from_le_bytes(buf[12..20].try_into().unwrap());
        let expected_len = payload_len.checked_add(min).ok_or(SnapshotError::InvalidField {
            offset: 12,
            what: "payload length",
            value: payload_len,
        })?;
        if buf.len() as u64 != expected_len {
            return Err(SnapshotError::Truncated {
                offset: (buf.len() as u64).min(expected_len),
                expected: expected_len,
                actual: buf.len() as u64,
            });
        }
        let payload_end = META_HEADER_LEN as usize + payload_len as usize;
        let stored = u64::from_le_bytes(buf[payload_end..][..8].try_into().unwrap());
        let actual = fnv1a64(&buf[..payload_end]);
        if stored != actual {
            return Err(SnapshotError::ChecksumMismatch {
                offset: payload_end as u64,
                what: "metadata envelope",
                expected: stored,
                actual,
            });
        }
        Ok(MetaReader { buf, pos: META_HEADER_LEN as usize, payload_end })
    }

    pub fn open(path: &Path) -> Result<MetaReader, SnapshotError> {
        MetaReader::from_bytes(std::fs::read(path)?)
    }

    /// A typed decode error at the current position — also the hook
    /// structure `load`s use to report semantic validation failures
    /// (out-of-range page ids, impossible field combinations).
    pub fn error(&self, detail: impl Into<String>) -> SnapshotError {
        SnapshotError::Meta { offset: self.pos as u64, detail: detail.into() }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&[u8], SnapshotError> {
        if self.payload_end - self.pos < n {
            return Err(self.error(format!(
                "unexpected end of payload reading {what} ({n} bytes needed, {} left)",
                self.payload_end - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn tag(&mut self, want: u8, what: &'static str) -> Result<(), SnapshotError> {
        let at = self.pos;
        let got = self.take(1, what)?[0];
        if got != want {
            return Err(SnapshotError::Meta {
                offset: at as u64,
                detail: format!("expected {what} (tag {want}), found tag {got}"),
            });
        }
        Ok(())
    }

    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        self.tag(TAG_U64, "u64")?;
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().unwrap()))
    }

    pub fn i64(&mut self) -> Result<i64, SnapshotError> {
        self.tag(TAG_I64, "i64")?;
        Ok(i64::from_le_bytes(self.take(8, "i64")?.try_into().unwrap()))
    }

    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.error(format!("value {v} exceeds usize")))
    }

    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let v = self.u64()?;
        u32::try_from(v).map_err(|_| self.error(format!("value {v} exceeds u32")))
    }

    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u64()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(self.error(format!("boolean out of range: {v}"))),
        }
    }

    pub fn bytes(&mut self) -> Result<Vec<u8>, SnapshotError> {
        self.tag(TAG_BYTES, "bytes")?;
        let len = u64::from_le_bytes(self.take(8, "byte length")?.try_into().unwrap());
        let len = usize::try_from(len).map_err(|_| self.error("byte length exceeds usize"))?;
        Ok(self.take(len, "byte body")?.to_vec())
    }

    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let at = self.pos;
        let b = self.bytes()?;
        String::from_utf8(b).map_err(|_| SnapshotError::Meta {
            offset: at as u64,
            detail: "string is not valid UTF-8".to_string(),
        })
    }

    /// Element count of a sequence; the caller then reads exactly that
    /// many elements. Counts that could not possibly fit in the remaining
    /// payload (every element is at least one tag byte) are rejected.
    pub fn seq(&mut self) -> Result<usize, SnapshotError> {
        self.tag(TAG_SEQ, "sequence")?;
        let len = u64::from_le_bytes(self.take(8, "sequence length")?.try_into().unwrap());
        let remaining = (self.payload_end - self.pos) as u64;
        if len > remaining {
            return Err(self.error(format!(
                "sequence of {len} elements cannot fit in {remaining} remaining payload bytes"
            )));
        }
        Ok(len as usize)
    }

    /// Presence marker written by [`MetaWriter::opt`].
    pub fn opt(&mut self) -> Result<bool, SnapshotError> {
        self.tag(TAG_OPT, "option")?;
        match self.take(1, "option marker")?[0] {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(self.error(format!("option marker out of range: {v}"))),
        }
    }

    /// Assert the payload was fully consumed (catches truncated saves and
    /// loads that used the wrong structure kind but happened to parse).
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.pos != self.payload_end {
            return Err(SnapshotError::Meta {
                offset: self.pos as u64,
                detail: format!(
                    "{} bytes of trailing payload after the last value",
                    self.payload_end - self.pos
                ),
            });
        }
        Ok(())
    }
}

/// A scratch directory under the system temp dir that removes itself on
/// drop — including panic unwinds, so snapshot tests never leak files.
/// Uniqueness comes from the process id, a process-wide counter, and a
/// clock sample, so concurrent test binaries cannot collide.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    pub fn new(prefix: &str) -> TempDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let path = std::env::temp_dir().join(format!(
            "{prefix}-{}-{}-{nanos}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::SeqCst),
        ));
        std::fs::create_dir_all(&path).expect("create scratch directory");
        TempDir { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path for `name` inside the scratch directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable() {
        // Reference values of FNV-1a 64 — the on-disk format depends on
        // these never changing.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn meta_roundtrip_all_kinds() {
        let mut w = MetaWriter::new();
        w.u64(42);
        w.i64(-7);
        w.usize(123456);
        w.u32(9);
        w.bool(true);
        w.bool(false);
        w.str("hello");
        w.bytes(&[1, 2, 3]);
        w.seq(2);
        w.u64(10);
        w.u64(11);
        w.opt(true);
        w.i64(5);
        w.opt(false);
        let mut r = MetaReader::from_bytes(w.into_bytes()).unwrap();
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.i64().unwrap(), -7);
        assert_eq!(r.usize().unwrap(), 123456);
        assert_eq!(r.u32().unwrap(), 9);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.seq().unwrap(), 2);
        assert_eq!(r.u64().unwrap(), 10);
        assert_eq!(r.u64().unwrap(), 11);
        assert!(r.opt().unwrap());
        assert_eq!(r.i64().unwrap(), 5);
        assert!(!r.opt().unwrap());
        r.finish().unwrap();
    }

    #[test]
    fn meta_tag_mismatch_is_typed() {
        let mut w = MetaWriter::new();
        w.u64(1);
        let mut r = MetaReader::from_bytes(w.into_bytes()).unwrap();
        match r.i64() {
            Err(SnapshotError::Meta { offset, .. }) => assert_eq!(offset, META_HEADER_LEN),
            other => panic!("expected a Meta error, got {other:?}"),
        }
    }

    #[test]
    fn meta_envelope_rejects_flip_truncation_magic_version() {
        let mut w = MetaWriter::new();
        w.u64(77);
        w.str("payload");
        let good = w.into_bytes();
        assert!(MetaReader::from_bytes(good.clone()).is_ok());

        let mut flipped = good.clone();
        let mid = META_HEADER_LEN as usize + 3;
        flipped[mid] ^= 0x40;
        assert!(matches!(
            MetaReader::from_bytes(flipped),
            Err(SnapshotError::ChecksumMismatch { what: "metadata envelope", .. })
        ));

        let truncated = good[..good.len() - 5].to_vec();
        assert!(matches!(MetaReader::from_bytes(truncated), Err(SnapshotError::Truncated { .. })));

        let mut magic = good.clone();
        magic[0] = b'X';
        assert!(matches!(
            MetaReader::from_bytes(magic),
            Err(SnapshotError::BadMagic { offset: 0, .. })
        ));

        let mut future = good.clone();
        future[8] = (FORMAT_VERSION + 1) as u8;
        assert!(matches!(
            MetaReader::from_bytes(future),
            Err(SnapshotError::UnsupportedVersion { found, .. }) if found == FORMAT_VERSION + 1
        ));
    }

    #[test]
    fn meta_finish_catches_trailing_values() {
        let mut w = MetaWriter::new();
        w.u64(1);
        w.u64(2);
        let mut r = MetaReader::from_bytes(w.into_bytes()).unwrap();
        assert_eq!(r.u64().unwrap(), 1);
        assert!(matches!(r.finish(), Err(SnapshotError::Meta { .. })));
    }

    #[test]
    fn meta_seq_rejects_impossible_counts() {
        // A sequence claiming more elements than the payload has bytes.
        let mut w = MetaWriter::new();
        w.seq(3);
        w.u64(1); // only one element follows
        let bytes = w.into_bytes();
        // Craft: rewrite the count to a huge value and re-checksum.
        let mut bad = bytes.clone();
        let count_at = META_HEADER_LEN as usize + 1;
        bad[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let payload_end = bad.len() - 8;
        let sum = fnv1a64(&bad[..payload_end]);
        bad[payload_end..].copy_from_slice(&sum.to_le_bytes());
        let mut r = MetaReader::from_bytes(bad).unwrap();
        assert!(matches!(r.seq(), Err(SnapshotError::Meta { .. })));
    }

    #[test]
    fn tempdir_cleans_up() {
        let dir = TempDir::new("lcrs-snapshot-selftest");
        let p = dir.path().to_path_buf();
        std::fs::write(dir.file("x"), b"y").unwrap();
        assert!(p.exists());
        drop(dir);
        assert!(!p.exists());
    }

    #[test]
    fn snapshot_write_open_roundtrip() {
        let dir = TempDir::new("lcrs-snapfile");
        let path = dir.file("pages.snap");
        let pages: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 64]).collect();
        write_snapshot(&path, 64, 5, |i, buf| buf.copy_from_slice(&pages[i as usize])).unwrap();
        let sf = SnapshotFile::open(&path).unwrap();
        assert_eq!(sf.page_bytes(), 64);
        assert_eq!(sf.page_count(), 5);
        let mut buf = vec![0u8; 64];
        for i in 0..5u64 {
            sf.read_page_into(i, &mut buf);
            assert_eq!(buf, pages[i as usize]);
        }
        // No stray .tmp sibling after the atomic rename.
        assert!(!dir.file("pages.snap.tmp").exists());
    }

    #[test]
    fn snapshot_zero_pages() {
        let dir = TempDir::new("lcrs-snapfile-empty");
        let path = dir.file("empty.snap");
        write_snapshot(&path, 128, 0, |_, _| unreachable!()).unwrap();
        let sf = SnapshotFile::open(&path).unwrap();
        assert_eq!(sf.page_count(), 0);
        assert_eq!(sf.page_bytes(), 128);
    }
}
