//! Column storage: every posting column is either heap-owned or borrowed
//! zero-copy from a memory-mapped index file.
//!
//! [`Column<T>`] is the store behind each [`Layer`] column (the
//! `offsets`/`ids`/`weights` triplet of each view's base and overlay) and
//! the per-node aggregate tables. An `Owned` column is a plain `Vec<T>`; a `Mapped`
//! column is an aligned window into an [`MmapRegion`] reinterpreted in
//! place as `[T]` — no parse, no copy, pages fault in on first touch.
//! Both deref to `&[T]`, so every consumer (postings views, point
//! queries, gain engines, `save`) reads the same slice type and cannot
//! observe which store backs it.
//!
//! A column is written once and never mutated. A refresh writes the rows
//! it changes into fresh owned overlay columns over the old base, owned or
//! mapped, and leaves the old layer to whoever still holds it; a mapped
//! base stays mapped until a fold rewrites its view on the heap — and a
//! refreshed mapped index is bitwise equal to a refreshed owned one (see
//! `tests/storage_equivalence.rs`).
//!
//! The mmap itself is a minimal std-only `mmap(2)`/`munmap(2)`/`madvise(2)`
//! FFI wrapper (`PROT_READ`, `MAP_PRIVATE`) — no crates. The on-disk format
//! is little-endian on every host: `save` writes a little-endian host's
//! columns as they lie in memory and byte-swaps them elsewhere (see
//! [`Pod::to_le`]). Zero-copy reinterpretation therefore requires a
//! little-endian host; the mapped open refuses others, which use the
//! deserializing loader instead. All downstream accesses go through
//! bounds-checked slices, so even a file that mutates under the map
//! (which `MAP_PRIVATE` leaves unspecified) can only produce wrong query
//! answers or a clean panic — never undefined behaviour. Structural
//! invariants (offset monotonicity) are validated once at open; bulk
//! payloads are trusted under the file's CRC-32 trailer.
//!
//! One **section codec** ([`SectionWriter`], [`read_header`]) frames every
//! durable file of pod columns: a magic, fixed `u64` header fields, a `u64`
//! table, then 8-aligned little-endian sections tiled exactly up to a
//! CRC-32 trailer. Each [`Schema`] is one layout on it: RWDIDX4 walk-index
//! files, and the durable snapshot's state file.
//!
//! [`Layer`]: crate::index::WalkIndex

use std::borrow::Cow;
use std::fs::File;
use std::io;
use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::Arc;

use crate::crc::Crc32;

/// Scalars a [`Column`] may store: plain old data with no padding and no
/// invalid bit patterns, stored little-endian on disk. Sealed — the
/// on-disk format only ever holds `u16`/`u32`/`u64` columns.
pub trait Pod: Copy + Send + Sync + Eq + std::fmt::Debug + sealed::Sealed + 'static {
    /// The value with its bytes in little-endian order (the identity on
    /// little-endian hosts).
    fn to_le(self) -> Self;

    /// The value whose little-endian encoding is `bytes`, which hold
    /// exactly `size_of::<Self>()` bytes.
    fn from_le_slice(bytes: &[u8]) -> Self;
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for u16 {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
}

macro_rules! impl_pod {
    ($($t:ty),*) => {$(
        impl Pod for $t {
            fn to_le(self) -> Self {
                <$t>::to_le(self)
            }

            fn from_le_slice(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("one value's bytes"))
            }
        }
    )*};
}
impl_pod!(u16, u32, u64);

/// A read-only `mmap(2)` window over an entire file, unmapped on drop.
///
/// Held in an [`Arc`] by every [`Column`] borrowing from it, so the
/// mapping outlives all views regardless of drop order.
#[derive(Debug)]
pub struct MmapRegion {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the region is immutable after creation (PROT_READ) and the
// kernel mapping is process-global; sharing the base pointer across
// threads is sound.
unsafe impl Send for MmapRegion {}
unsafe impl Sync for MmapRegion {}

impl MmapRegion {
    /// Maps the whole of `file` read-only.
    ///
    /// Fails with [`io::ErrorKind::Unsupported`] on non-unix hosts and
    /// with [`io::ErrorKind::InvalidData`] for empty files (POSIX forbids
    /// zero-length mappings).
    pub fn map(file: &File) -> io::Result<MmapRegion> {
        sys::map(file)
    }

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the region is empty (never true for a successful map).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The mapped file contents.
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: ptr/len describe a live PROT_READ mapping owned by self.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for MmapRegion {
    fn drop(&mut self) {
        // SAFETY: ptr/len came from a successful mmap and are unmapped
        // exactly once.
        unsafe { sys::unmap(self.ptr, self.len) }
    }
}

#[cfg(unix)]
mod sys {
    use super::MmapRegion;
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 0x1;
    const MAP_PRIVATE: i32 = 0x2;
    const MADV_DONTNEED: i32 = 4;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
        fn madvise(addr: *mut core::ffi::c_void, len: usize, advice: i32) -> i32;
        fn getpagesize() -> i32;
    }

    pub(super) fn map(file: &File) -> io::Result<MmapRegion> {
        let len = file.metadata()?.len();
        if len == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "cannot memory-map an empty file",
            ));
        }
        if len > isize::MAX as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "file too large to memory-map",
            ));
        }
        let len = len as usize;
        // SAFETY: fd is a live open file, len > 0, offset 0; a failed map
        // returns MAP_FAILED which we convert to an error.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as usize == usize::MAX {
            return Err(io::Error::last_os_error());
        }
        Ok(MmapRegion {
            ptr: ptr as *const u8,
            len,
        })
    }

    pub(super) unsafe fn unmap(ptr: *const u8, len: usize) {
        munmap(ptr as *mut core::ffi::c_void, len);
    }

    /// Drops the resident pages of the whole pages inside `[start, end)`.
    ///
    /// # Safety
    ///
    /// `[start, end)` must lie inside a live mapping made by `map`: a
    /// `PROT_READ`, `MAP_PRIVATE` file mapping that is never written, so
    /// dropping its pages only makes a later touch re-read the file.
    pub(super) unsafe fn release(start: usize, end: usize) {
        let page = getpagesize() as usize;
        let (lo, hi) = (start.next_multiple_of(page), end / page * page);
        if lo < hi {
            madvise(lo as *mut core::ffi::c_void, hi - lo, MADV_DONTNEED);
        }
    }
}

#[cfg(not(unix))]
mod sys {
    use super::MmapRegion;
    use std::fs::File;
    use std::io;

    pub(super) fn map(_file: &File) -> io::Result<MmapRegion> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "memory-mapped index storage requires a unix host; use the deserializing load path",
        ))
    }

    pub(super) unsafe fn unmap(_ptr: *const u8, _len: usize) {}

    pub(super) unsafe fn release(_start: usize, _end: usize) {}
}

/// One posting column: an owned vector or a zero-copy window into a
/// mapped index file, built once and never mutated. Dereferences to `&[T]`
/// either way.
#[derive(Clone)]
pub struct Column<T: Pod> {
    repr: Repr<T>,
}

#[derive(Clone)]
enum Repr<T: Pod> {
    Owned(Vec<T>),
    Mapped {
        region: Arc<MmapRegion>,
        /// Byte offset of the first element inside the region; the
        /// element pointer `region.ptr + offset` is aligned for `T`
        /// (checked at construction).
        offset: usize,
        /// Element count.
        len: usize,
        _t: PhantomData<T>,
    },
}

impl<T: Pod> Column<T> {
    /// A heap-owned column.
    pub fn owned(v: Vec<T>) -> Column<T> {
        Column {
            repr: Repr::Owned(v),
        }
    }

    /// A zero-copy column over `len` elements starting `offset` bytes
    /// into `region`.
    ///
    /// Fails if the window overruns the region or the element pointer is
    /// not aligned for `T`. Only meaningful on little-endian hosts — the
    /// on-disk encoding is little-endian and is reinterpreted in place;
    /// callers gate on `cfg(target_endian = "little")`.
    pub fn mapped(region: Arc<MmapRegion>, offset: usize, len: usize) -> io::Result<Column<T>> {
        let size = std::mem::size_of::<T>();
        let bytes = len
            .checked_mul(size)
            .ok_or_else(|| bad_col("column length overflows"))?;
        let end = offset
            .checked_add(bytes)
            .ok_or_else(|| bad_col("column window overflows"))?;
        if end > region.len() {
            return Err(bad_col("column window exceeds the mapped file"));
        }
        if !(region.ptr as usize + offset).is_multiple_of(std::mem::align_of::<T>()) {
            return Err(bad_col("column window is misaligned"));
        }
        Ok(Column {
            repr: Repr::Mapped {
                region,
                offset,
                len,
                _t: PhantomData,
            },
        })
    }

    /// The column contents as a slice, whichever store backs them.
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Owned(v) => v.as_slice(),
            Repr::Mapped {
                region,
                offset,
                len,
                ..
            } => {
                // SAFETY: construction checked bounds and alignment; the
                // region is immutable and outlives self via the Arc; T is
                // Pod so any bit pattern is a valid value.
                unsafe { std::slice::from_raw_parts(region.ptr.add(*offset) as *const T, *len) }
            }
        }
    }

    /// Whether this column borrows from a mapped file.
    pub fn is_mapped(&self) -> bool {
        matches!(self.repr, Repr::Mapped { .. })
    }

    /// Bytes of heap this column's allocation holds — its capacity, spare
    /// room included (0 when mapped).
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Owned(v) => v.capacity() * std::mem::size_of::<T>(),
            Repr::Mapped { .. } => 0,
        }
    }

    /// Bytes this column borrows from a mapped file (0 when owned).
    pub fn mapped_bytes(&self) -> usize {
        match &self.repr {
            Repr::Owned(_) => 0,
            Repr::Mapped { len, .. } => len * std::mem::size_of::<T>(),
        }
    }

    /// Hands a mapped window's resident pages back: the whole pages inside
    /// the window are `madvise(MADV_DONTNEED)`ed, so they stop counting
    /// toward the process's RSS. The mapping is read-only and backed by
    /// the file, so a later touch re-reads the same bytes and the values
    /// never change. Pages the window shares with a neighbouring column
    /// are left alone. A no-op on an owned column and off unix.
    pub(crate) fn release_pages(&self) {
        if let Repr::Mapped {
            region,
            offset,
            len,
            ..
        } = &self.repr
        {
            let start = region.ptr as usize + offset;
            // SAFETY: construction checked that the window lies inside the
            // region, which the Arc keeps mapped.
            unsafe { sys::release(start, start + len * std::mem::size_of::<T>()) }
        }
    }
}

impl<T: Pod> From<Vec<T>> for Column<T> {
    fn from(v: Vec<T>) -> Self {
        Column::owned(v)
    }
}

impl<T: Pod> Deref for Column<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> PartialEq for Column<T> {
    /// Value equality: an owned and a mapped column with the same
    /// contents compare equal (bit-identity is about values, not stores).
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod> Eq for Column<T> {}

impl<T: Pod> std::fmt::Debug for Column<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_mapped() {
            write!(f, "Mapped")?;
        }
        std::fmt::Debug::fmt(self.as_slice(), f)
    }
}

/// The little-endian byte image of a pod slice — the encoding index-file
/// sections store. On a little-endian host that is the slice's memory,
/// borrowed as is; elsewhere each value is byte-swapped into a copy.
pub(crate) fn le_bytes<T: Pod>(s: &[T]) -> Cow<'_, [u8]> {
    if cfg!(target_endian = "little") {
        Cow::Borrowed(raw_bytes(s))
    } else {
        let le: Vec<T> = s.iter().map(|&v| v.to_le()).collect();
        Cow::Owned(raw_bytes(&le).to_vec())
    }
}

/// The in-memory bytes of a pod slice.
fn raw_bytes<T: Pod>(s: &[T]) -> &[u8] {
    // SAFETY: T is Pod — no padding and every byte initialized — so the
    // slice's memory is `size_of_val(s)` readable bytes for its lifetime.
    unsafe { std::slice::from_raw_parts(s.as_ptr() as *const u8, std::mem::size_of_val(s)) }
}

/// One file layout on the section codec: its magic, the retired magics it
/// refuses by name, and the shape of its fixed header and table.
#[derive(Debug)]
pub struct Schema {
    /// What the file is called in error messages (`"walk-index file"`).
    pub noun: &'static str,
    /// The magic every file of this layout starts with.
    pub magic: &'static [u8; 8],
    /// Magics of retired layouts, refused by name instead of parsed.
    pub retired: &'static [&'static [u8; 8]],
    /// What to do about a retired file; ends its refusal.
    pub retired_hint: &'static str,
    /// The number of fixed `u64` header fields after the magic.
    pub fields: usize,
    /// The header field that counts the `u64` table's entries; `None` for
    /// a layout without a table.
    pub table_len: Option<usize>,
}

impl Schema {
    /// An `InvalidData` error that names the file corrupt:
    /// `corrupt <noun> (<detail>)`.
    pub fn corrupt(&self, detail: &str) -> io::Error {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("corrupt {} ({detail})", self.noun),
        )
    }

    fn truncated(&self) -> io::Error {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("{} is truncated", self.noun),
        )
    }
}

/// Writes one section-coded file: the magic, header fields and table
/// first, then each [`SectionWriter::section`] in order, then the CRC-32
/// trailer over every preceding byte ([`SectionWriter::finish`]).
pub struct SectionWriter<W: io::Write> {
    w: W,
    crc: Crc32,
}

impl<W: io::Write> SectionWriter<W> {
    /// Starts a `schema` file on `w` with these header fields and table.
    pub fn new(mut w: W, schema: &Schema, fields: &[u64], table: &[u64]) -> io::Result<Self> {
        debug_assert_eq!(fields.len(), schema.fields);
        let mut header = Vec::with_capacity(8 * (1 + fields.len() + table.len()));
        header.extend_from_slice(schema.magic);
        for v in fields.iter().chain(table) {
            header.extend_from_slice(&v.to_le_bytes());
        }
        let mut crc = Crc32::new();
        crc.update(&header);
        w.write_all(&header)?;
        Ok(SectionWriter { w, crc })
    }

    /// Appends one section: the column's little-endian image, zero-padded
    /// to a multiple of 8 bytes.
    pub fn section<T: Pod>(&mut self, col: &[T]) -> io::Result<()> {
        let bytes = le_bytes(col);
        let pad = &[0u8; 8][..(8 - bytes.len() % 8) % 8];
        for part in [&bytes[..], pad] {
            self.crc.update(part);
            self.w.write_all(part)?;
        }
        Ok(())
    }

    /// Appends the CRC-32 trailer and flushes.
    pub fn finish(mut self) -> io::Result<()> {
        self.w.write_all(&self.crc.finish().to_le_bytes())?;
        self.w.flush()
    }
}

/// A section-coded file's header, and a cursor over its sections.
#[derive(Debug)]
pub struct Header {
    /// The fixed header fields.
    pub fields: Vec<u64>,
    /// The `u64` table (empty for a layout without one).
    pub table: Vec<u64>,
    schema: &'static Schema,
    file_len: u64,
    /// Where the next section starts.
    next: u64,
}

impl Header {
    /// Claims the next section, `count` values of `T` padded to 8 bytes,
    /// and returns its absolute position. A section that would end past
    /// the file, or whose size overflows, is a size mismatch.
    pub fn section<T: Pod>(&mut self, count: u64) -> io::Result<usize> {
        let at = self.next;
        self.next = count
            .checked_mul(std::mem::size_of::<T>() as u64)
            .and_then(|bytes| bytes.checked_next_multiple_of(8))
            .and_then(|bytes| at.checked_add(bytes))
            .filter(|&end| end <= self.file_len)
            .ok_or_else(|| self.mismatch())?;
        Ok(at as usize)
    }

    /// The checksummed length, once every section is claimed: the sections
    /// must end exactly at the 4-byte CRC-32 trailer.
    pub fn content_len(&self) -> io::Result<u64> {
        if self.next.checked_add(4) != Some(self.file_len) {
            return Err(self.mismatch());
        }
        Ok(self.next)
    }

    fn mismatch(&self) -> io::Error {
        self.schema.corrupt("size mismatch before checksum trailer")
    }
}

/// Reads a section-coded file's magic, fixed header fields and table
/// through `read_at(buf, offset)`, a positioned read of the file or a copy
/// out of its bytes ([`read_bytes`]). A retired magic is refused by name,
/// and every size is checked against `file_len` before it is read or
/// allocated; the layout validates its own fields.
pub fn read_header(
    schema: &'static Schema,
    file_len: u64,
    read_at: impl Fn(&mut [u8], u64) -> io::Result<()>,
) -> io::Result<Header> {
    let bad_magic = || {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("not a {} (bad magic)", schema.noun),
        )
    };
    if file_len < 8 {
        return Err(bad_magic());
    }
    let mut magic = [0u8; 8];
    read_at(&mut magic, 0)?;
    if &magic != schema.magic {
        let name = |m: &[u8; 8]| String::from_utf8_lossy(&m[..7]).into_owned();
        return Err(match schema.retired.iter().find(|&&old| *old == magic) {
            Some(old) => io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{} uses the retired {} layout; this build reads only {} — {}",
                    schema.noun,
                    name(old),
                    name(schema.magic),
                    schema.retired_hint
                ),
            ),
            None => bad_magic(),
        });
    }
    let fixed = 8 + 8 * schema.fields as u64;
    if file_len < fixed {
        return Err(schema.truncated());
    }
    let mut buf = vec![0u8; fixed as usize - 8];
    read_at(&mut buf, 8)?;
    let fields: Vec<u64> = le_values(&buf).collect();
    let table_len = schema.table_len.map_or(0, |f| fields[f]);
    if table_len.saturating_mul(8) > file_len {
        return Err(schema.corrupt("header exceeds file size"));
    }
    let next = fixed + table_len * 8;
    if file_len < next {
        return Err(schema.truncated());
    }
    let mut buf = vec![0u8; table_len as usize * 8];
    read_at(&mut buf, fixed)?;
    Ok(Header {
        fields,
        table: le_values(&buf).collect(),
        schema,
        file_len,
        next,
    })
}

/// The `read_at` of [`read_header`] over a file already in memory.
pub fn read_bytes(bytes: &[u8]) -> impl Fn(&mut [u8], u64) -> io::Result<()> + '_ {
    move |buf, off| {
        let src = usize::try_from(off)
            .ok()
            .and_then(|at| bytes.get(at..at.checked_add(buf.len())?))
            .ok_or(io::ErrorKind::UnexpectedEof)?;
        buf.copy_from_slice(src);
        Ok(())
    }
}

/// The values of type `T` whose little-endian encodings are packed in
/// `bytes` (a whole number of them): one section's contents.
pub fn le_values<T: Pod>(bytes: &[u8]) -> impl Iterator<Item = T> + '_ {
    bytes
        .chunks_exact(std::mem::size_of::<T>())
        .map(T::from_le_slice)
}

/// Checks the CRC-32 trailer of a file held in memory (its last 4 bytes)
/// against every byte before it, hashed on up to `threads` workers.
pub fn check_trailer(schema: &Schema, bytes: &[u8], threads: usize) -> io::Result<()> {
    let (content, trailer) = bytes
        .split_last_chunk::<4>()
        .ok_or_else(|| schema.truncated())?;
    if u32::from_le_bytes(*trailer) != crate::crc::crc32_parallel(content, threads) {
        return Err(schema.corrupt("content checksum mismatch"));
    }
    Ok(())
}

/// Streams a file's first `content_len` bytes in fixed chunks, checks the
/// CRC-32 trailer after them, and returns the chunk buffer's size.
pub fn verify_trailer(schema: &Schema, file: &File, content_len: u64) -> io::Result<usize> {
    const CRC_CHUNK: u64 = 64 << 10;
    let cap = content_len.clamp(1, CRC_CHUNK) as usize;
    let mut buf = vec![0u8; cap];
    let mut crc = Crc32::new();
    let mut pos = 0u64;
    while pos < content_len {
        let take = cap.min((content_len - pos) as usize);
        pread(file, &mut buf[..take], pos)?;
        crc.update(&buf[..take]);
        pos += take as u64;
    }
    let mut t = [0u8; 4];
    pread(file, &mut t, content_len)?;
    if u32::from_le_bytes(t) != crc.finish() {
        return Err(schema.corrupt("content checksum mismatch"));
    }
    Ok(cap)
}

/// Positioned read (`pread(2)`): fills `buf` from absolute offset `off`
/// without touching the shared cursor, so parse workers can read one open
/// file concurrently.
pub(crate) fn pread(file: &File, buf: &mut [u8], off: u64) -> io::Result<()> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.read_exact_at(buf, off)
    }
    #[cfg(not(unix))]
    {
        // No positioned-read API: clone the handle and seek. Clones share
        // the cursor, so off-unix loads keep a single reader.
        use std::io::{Read, Seek, SeekFrom};
        let mut f = file.try_clone()?;
        f.seek(SeekFrom::Start(off))?;
        f.read_exact(buf)
    }
}

fn bad_col(msg: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt walk-index file ({msg})"),
    )
}

/// Publishes a process-level storage footprint to the global metrics
/// registry: `rwd_storage_heap_bytes` and `rwd_storage_mapped_bytes`.
/// Callers (engines, servers) set this after construction, recovery and
/// each commit, typically from
/// [`WalkIndex::heap_bytes`](crate::WalkIndex::heap_bytes) /
/// [`WalkIndex::mapped_bytes`](crate::WalkIndex::mapped_bytes) sums, so
/// the metrics endpoint shows resident-vs-mapped split live.
pub fn record_storage_footprint(heap_bytes: usize, mapped_bytes: usize) {
    let m = crate::obs::metrics();
    m.storage_heap_bytes.set(heap_bytes as i64);
    m.storage_mapped_bytes.set(mapped_bytes as i64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn owned_column_derefs_and_accounts() {
        let c: Column<u32> = Column::owned(vec![1, 2, 3]);
        assert_eq!(&c[..], &[1, 2, 3]);
        assert!(!c.is_mapped());
        assert_eq!(c.heap_bytes(), 12);
        assert_eq!(c.mapped_bytes(), 0);
    }

    #[test]
    fn le_bytes_is_the_little_endian_encoding() {
        let vals = [0x0102_0304u32, 7];
        let want: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(&le_bytes(&vals[..])[..], &want[..]);
        assert_eq!(&le_bytes(&[0xA1B2u16][..])[..], &[0xB2, 0xA1]);
    }

    #[cfg(unix)]
    #[test]
    fn mapped_column_reads_file_bytes() {
        let dir = std::env::temp_dir().join(format!("rwd-storage-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("col.bin");
        let vals: Vec<u32> = (0..64).map(|i| i * 3 + 1).collect();
        {
            let mut f = File::create(&path).unwrap();
            for v in &vals {
                f.write_all(&v.to_le_bytes()).unwrap();
            }
        }
        let region = Arc::new(MmapRegion::map(&File::open(&path).unwrap()).unwrap());
        let col: Column<u32> = Column::mapped(region.clone(), 0, vals.len()).unwrap();
        assert!(col.is_mapped());
        assert_eq!(col.heap_bytes(), 0);
        assert_eq!(col.mapped_bytes(), vals.len() * 4);
        assert_eq!(col.as_slice(), &vals[..]);
        // Window beyond the file is rejected.
        assert!(Column::<u32>::mapped(region.clone(), 0, vals.len() + 1).is_err());
        // Misaligned element pointer is rejected (offset 2 within u32s).
        assert!(Column::<u32>::mapped(region.clone(), 2, 1).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[cfg(unix)]
    #[test]
    fn released_mapped_column_still_reads_the_file() {
        let dir = std::env::temp_dir().join(format!("rwd-storage-rel-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("col.bin");
        // Several pages, so the window has a whole-page interior to drop.
        let vals: Vec<u64> = (0..40_000u64).map(|i| (i * i) ^ 0x5A5A).collect();
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        std::fs::write(&path, &bytes).unwrap();
        let region = Arc::new(MmapRegion::map(&File::open(&path).unwrap()).unwrap());
        let col: Column<u64> = Column::mapped(region.clone(), 8, vals.len() - 1).unwrap();
        let neighbour: Column<u64> = Column::mapped(region, 0, 1).unwrap();
        assert_eq!(col.as_slice(), &vals[1..]);
        col.release_pages();
        col.release_pages();
        assert_eq!(col.as_slice(), &vals[1..]);
        assert_eq!(neighbour[0], vals[0]);
        // An owned column has nothing to release.
        let owned = Column::owned(vals.clone());
        owned.release_pages();
        assert_eq!(&owned[..], &vals[..]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(unix)]
    #[test]
    fn region_outlives_columns_via_arc() {
        let dir = std::env::temp_dir().join(format!("rwd-storage-arc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("col.bin");
        std::fs::write(&path, 42u64.to_le_bytes()).unwrap();
        let col: Column<u64> = {
            let region = Arc::new(MmapRegion::map(&File::open(&path).unwrap()).unwrap());
            Column::mapped(region, 0, 1).unwrap()
        };
        // The temporary Arc is gone; the column still reads.
        assert_eq!(col[0], 42);
        std::fs::remove_file(&path).ok();
    }
}
