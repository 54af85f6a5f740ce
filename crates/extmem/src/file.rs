//! Fixed-size records and typed record files.

use crate::device::{DeviceHandle, PageId};
use crate::snapshot::{MetaReader, MetaWriter, SnapshotError};

/// A fixed-size, byte-serializable record.
///
/// Implementations must write exactly [`Record::SIZE`] bytes. All structures
/// in the workspace store plain-old-data records, so the codec is trivial
/// little-endian packing — fast enough that (de)serialization never shows up
/// next to the simulated IO costs being measured.
pub trait Record: Copy {
    /// Encoded size in bytes.
    const SIZE: usize;
    fn store(&self, buf: &mut [u8]);
    fn load(buf: &[u8]) -> Self;
}

macro_rules! int_record {
    ($($t:ty),*) => {$(
        impl Record for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            fn store(&self, buf: &mut [u8]) {
                buf[..Self::SIZE].copy_from_slice(&self.to_le_bytes());
            }
            fn load(buf: &[u8]) -> Self {
                <$t>::from_le_bytes(buf[..Self::SIZE].try_into().unwrap())
            }
        }
    )*};
}
int_record!(u8, u16, u32, u64, i8, i16, i32, i64, i128, u128);

impl<A: Record, B: Record> Record for (A, B) {
    const SIZE: usize = A::SIZE + B::SIZE;
    fn store(&self, buf: &mut [u8]) {
        self.0.store(&mut buf[..A::SIZE]);
        self.1.store(&mut buf[A::SIZE..]);
    }
    fn load(buf: &[u8]) -> Self {
        (A::load(&buf[..A::SIZE]), B::load(&buf[A::SIZE..]))
    }
}

impl<A: Record, B: Record, C: Record> Record for (A, B, C) {
    const SIZE: usize = A::SIZE + B::SIZE + C::SIZE;
    fn store(&self, buf: &mut [u8]) {
        self.0.store(&mut buf[..A::SIZE]);
        self.1.store(&mut buf[A::SIZE..A::SIZE + B::SIZE]);
        self.2.store(&mut buf[A::SIZE + B::SIZE..]);
    }
    fn load(buf: &[u8]) -> Self {
        (
            A::load(&buf[..A::SIZE]),
            B::load(&buf[A::SIZE..A::SIZE + B::SIZE]),
            C::load(&buf[A::SIZE + B::SIZE..]),
        )
    }
}

impl<A: Record, B: Record, C: Record, D: Record> Record for (A, B, C, D) {
    const SIZE: usize = A::SIZE + B::SIZE + C::SIZE + D::SIZE;
    fn store(&self, buf: &mut [u8]) {
        self.0.store(&mut buf[..A::SIZE]);
        self.1.store(&mut buf[A::SIZE..A::SIZE + B::SIZE]);
        self.2.store(&mut buf[A::SIZE + B::SIZE..A::SIZE + B::SIZE + C::SIZE]);
        self.3.store(&mut buf[A::SIZE + B::SIZE + C::SIZE..]);
    }
    fn load(buf: &[u8]) -> Self {
        (
            A::load(&buf[..A::SIZE]),
            B::load(&buf[A::SIZE..A::SIZE + B::SIZE]),
            C::load(&buf[A::SIZE + B::SIZE..A::SIZE + B::SIZE + C::SIZE]),
            D::load(&buf[A::SIZE + B::SIZE + C::SIZE..]),
        )
    }
}

impl<const N: usize> Record for [i64; N] {
    const SIZE: usize = 8 * N;
    fn store(&self, buf: &mut [u8]) {
        for (i, v) in self.iter().enumerate() {
            v.store(&mut buf[i * 8..]);
        }
    }
    fn load(buf: &[u8]) -> Self {
        std::array::from_fn(|i| i64::load(&buf[i * 8..]))
    }
}

impl Record for PageId {
    const SIZE: usize = 8;
    fn store(&self, buf: &mut [u8]) {
        self.0.store(buf);
    }
    fn load(buf: &[u8]) -> Self {
        PageId(u64::load(buf))
    }
}

/// An immutable sequence of `T` records packed `B` per page into contiguous
/// pages of a device. Occupies `ceil(len/B)` pages — the paper's notion
/// of storing a list in `ceil(len/B)` blocks. Metadata is three words
/// (first page, length, device handle), mirroring an inode.
pub struct VecFile<T: Record> {
    dev: DeviceHandle,
    first: PageId,
    len: usize,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Record> VecFile<T> {
    /// Build a file from a slice in one pass (pays the write IOs).
    pub fn from_slice(dev: &DeviceHandle, items: &[T]) -> Self {
        let mut b = FileBuilder::new(dev);
        for it in items {
            b.push(*it);
        }
        b.finish()
    }

    /// An empty file.
    pub fn empty(dev: &DeviceHandle) -> Self {
        VecFile { dev: dev.clone(), first: PageId(u64::MAX), len: 0, _marker: Default::default() }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records per page for this file's record type.
    pub fn per_page(&self) -> usize {
        self.dev.records_per_page(T::SIZE)
    }

    /// Pages occupied.
    pub fn pages(&self) -> usize {
        self.len.div_ceil(self.per_page())
    }

    /// Read one record (one IO unless its page is cached).
    pub fn get(&self, i: usize) -> T {
        assert!(i < self.len, "index {i} out of bounds {}", self.len);
        let per = self.per_page();
        let page = PageId(self.first.0 + (i / per) as u64);
        let off = (i % per) * T::SIZE;
        self.dev.read_page(page, |b| T::load(&b[off..]))
    }

    /// Read `range` into `out`, paying one IO per touched page.
    pub fn read_range(&self, range: std::ops::Range<usize>, out: &mut Vec<T>) {
        assert!(range.end <= self.len, "range out of bounds");
        if range.is_empty() {
            return;
        }
        let per = self.per_page();
        let first_page = range.start / per;
        let last_page = (range.end - 1) / per;
        for p in first_page..=last_page {
            let page = PageId(self.first.0 + p as u64);
            let lo = range.start.max(p * per) - p * per;
            let hi = range.end.min((p + 1) * per) - p * per;
            self.dev.read_page(page, |b| {
                for k in lo..hi {
                    out.push(T::load(&b[k * T::SIZE..]));
                }
            });
        }
    }

    /// Read the records at `sorted_indices` (ascending), paying one IO per
    /// *distinct page* touched instead of one per record.
    pub fn get_many(&self, sorted_indices: &[usize], out: &mut Vec<T>) {
        debug_assert!(sorted_indices.windows(2).all(|w| w[0] <= w[1]), "indices must be sorted");
        let per = self.per_page();
        let mut i = 0;
        while i < sorted_indices.len() {
            let page_no = sorted_indices[i] / per;
            let page = PageId(self.first.0 + page_no as u64);
            self.dev.read_page(page, |b| {
                while i < sorted_indices.len() && sorted_indices[i] / per == page_no {
                    let idx = sorted_indices[i];
                    assert!(idx < self.len, "index {idx} out of bounds {}", self.len);
                    out.push(T::load(&b[(idx % per) * T::SIZE..]));
                    i += 1;
                }
            });
        }
    }

    /// Read the whole file.
    pub fn read_all(&self) -> Vec<T> {
        let mut v = Vec::with_capacity(self.len);
        self.read_range(0..self.len, &mut v);
        v
    }

    /// Iterate page by page, invoking `f` on each record in order. One IO per
    /// page; stops early when `f` returns `false`.
    pub fn scan_while(&self, mut f: impl FnMut(usize, T) -> bool) {
        let per = self.per_page();
        let mut i = 0;
        'outer: while i < self.len {
            let page = PageId(self.first.0 + (i / per) as u64);
            let hi = (i / per * per + per).min(self.len);
            let cont = self.dev.read_page(page, |b| {
                while i < hi {
                    let t = T::load(&b[(i % per) * T::SIZE..]);
                    if !f(i, t) {
                        return false;
                    }
                    i += 1;
                }
                true
            });
            if !cont {
                break 'outer;
            }
        }
    }

    pub fn device(&self) -> &DeviceHandle {
        &self.dev
    }

    /// The same on-disk file viewed through a different handle scope
    /// (metadata copied, IOs accounted to `h`). The handle must target the
    /// store this file was built on.
    pub fn with_handle(&self, h: &DeviceHandle) -> VecFile<T> {
        assert!(h.same_store(&self.dev), "handle belongs to a different device");
        VecFile { dev: h.clone(), first: self.first, len: self.len, _marker: Default::default() }
    }

    /// Serialize the file's metadata — first page and length; the page
    /// *data* is captured separately by [`crate::Device::freeze_to_path`].
    pub fn save(&self, w: &mut MetaWriter) {
        w.u64(self.first.0);
        w.usize(self.len);
    }

    /// Rebuild from metadata written by [`Self::save`], reading pages
    /// through `dev`. Validates that the record type fits the device's
    /// page size and that the page range lies inside the store, so a
    /// cross-wired metadata/pages pair fails typed instead of panicking.
    pub fn load(dev: &DeviceHandle, r: &mut MetaReader) -> Result<VecFile<T>, SnapshotError> {
        let first = r.u64()?;
        let len = r.usize()?;
        if len == 0 {
            return Ok(VecFile::empty(dev));
        }
        if T::SIZE == 0 || T::SIZE > dev.page_bytes() {
            return Err(r.error(format!(
                "record size {} does not fit the {}-byte pages of this device",
                T::SIZE,
                dev.page_bytes()
            )));
        }
        let pages = len.div_ceil(dev.records_per_page(T::SIZE)) as u64;
        if first.checked_add(pages).is_none_or(|end| end > dev.pages_allocated()) {
            return Err(r.error(format!(
                "page range {first}..{} exceeds the {} allocated pages",
                first as u128 + pages as u128,
                dev.pages_allocated()
            )));
        }
        Ok(VecFile { dev: dev.clone(), first: PageId(first), len, _marker: Default::default() })
    }
}

/// Streaming writer producing a [`VecFile`]. Buffers one page in memory and
/// flushes it with one write IO when full.
pub struct FileBuilder<T: Record> {
    dev: DeviceHandle,
    items: Vec<T>,
}

impl<T: Record> FileBuilder<T> {
    pub fn new(dev: &DeviceHandle) -> Self {
        FileBuilder { dev: dev.clone(), items: Vec::new() }
    }

    pub fn push(&mut self, t: T) {
        self.items.push(t);
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Allocate contiguous pages and write everything out.
    pub fn finish(self) -> VecFile<T> {
        let per = self.dev.records_per_page(T::SIZE);
        let npages = self.items.len().div_ceil(per);
        if npages == 0 {
            return VecFile::empty(&self.dev);
        }
        let first = self.dev.alloc_pages(npages);
        for (p, chunk) in self.items.chunks(per).enumerate() {
            self.dev.write_page(PageId(first.0 + p as u64), |buf| {
                for (k, it) in chunk.iter().enumerate() {
                    it.store(&mut buf[k * T::SIZE..]);
                }
            });
        }
        VecFile { dev: self.dev, first, len: self.items.len(), _marker: Default::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Device, DeviceConfig};

    fn dev() -> Device {
        Device::new(DeviceConfig::new(64, 0)) // 8 i64s per page
    }

    #[test]
    fn roundtrip_and_page_count() {
        let d = dev();
        let data: Vec<i64> = (0..20).collect();
        let f = VecFile::from_slice(&d, &data);
        assert_eq!(f.len(), 20);
        assert_eq!(f.per_page(), 8);
        assert_eq!(f.pages(), 3);
        assert_eq!(f.read_all(), data);
    }

    #[test]
    fn get_costs_one_io() {
        let d = dev();
        let f = VecFile::from_slice(&d, &(0..100i64).collect::<Vec<_>>());
        d.reset_stats();
        assert_eq!(f.get(63), 63);
        assert_eq!(d.stats().reads, 1);
    }

    #[test]
    fn read_range_touches_minimal_pages() {
        let d = dev();
        let f = VecFile::from_slice(&d, &(0..64i64).collect::<Vec<_>>());
        d.reset_stats();
        let mut out = Vec::new();
        f.read_range(6..18, &mut out); // spans pages 0,1,2
        assert_eq!(out, (6..18).collect::<Vec<i64>>());
        assert_eq!(d.stats().reads, 3);
    }

    #[test]
    fn scan_while_stops_early() {
        let d = dev();
        let f = VecFile::from_slice(&d, &(0..64i64).collect::<Vec<_>>());
        d.reset_stats();
        let mut seen = 0;
        f.scan_while(|_, v| {
            seen += 1;
            v < 10
        });
        assert_eq!(seen, 11);
        assert_eq!(d.stats().reads, 2); // pages 0 and 1 only
    }

    #[test]
    fn tuple_records_roundtrip() {
        let d = Device::new(DeviceConfig::new(256, 0));
        let data: Vec<(i64, i32, u16)> = (0..50i32).map(|i| (i as i64, -i, i as u16)).collect();
        let f = VecFile::from_slice(&d, &data);
        assert_eq!(f.read_all(), data);
    }

    #[test]
    fn empty_file() {
        let d = dev();
        let f: VecFile<i64> = VecFile::from_slice(&d, &[]);
        assert!(f.is_empty());
        assert_eq!(f.pages(), 0);
        assert_eq!(f.read_all(), Vec::<i64>::new());
    }
}
