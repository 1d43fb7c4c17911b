//! Sparse memory with lazy page materialization.
//!
//! Mapped-ness is tracked as a set of byte intervals; backing pages are
//! materialized only on first write (reads from mapped-but-untouched memory
//! return zeros). This makes multi-GiB allocations — like the > 1 GiB
//! array of the paper's `429mcf` discussion — free until touched, while
//! still faulting on accesses outside any mapping, mirroring a hardware
//! page fault. Out-of-bounds accesses that stay within mapped intervals
//! succeed silently — the behaviour memory-safety instrumentations exist
//! to catch.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use crate::layout::PAGE_SIZE;

/// Multiplicative hasher for page-base keys. Page bases are already
/// well-distributed u64s; a Fibonacci multiply beats SipHash on the
/// per-access page lookup without any collision pathology (keys come
/// from the VM's own allocators, not an adversary).
#[derive(Default)]
pub struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    fn finish(&self) -> u64 {
        // Mix the high bits down: HashMap keys buckets on the low bits.
        self.0 ^ (self.0 >> 32)
    }
}

/// Number of direct-mapped hot-page slots (power of two).
const HOT_SLOTS: usize = 16;

/// A sparse memory with interval-tracked mappings.
pub struct Memory {
    /// Direct-mapped cache of recently accessed materialized pages, held
    /// *out of* `pages`: repeated accesses to the same few pages (the
    /// common pattern in loops, and in an instrumentation's data/shadow
    /// interleave) skip the hash lookup entirely. Invariant: a page lives
    /// either in its slot here or in `pages`, never both.
    hot: [Option<(u64, Box<[u8]>)>; HOT_SLOTS],
    /// Materialized pages (page base → bytes), minus the `hot` slots.
    pages: HashMap<u64, Box<[u8]>, BuildHasherDefault<PageHasher>>,
    /// Mapped intervals: start → end (exclusive), non-overlapping, merged.
    ranges: BTreeMap<u64, u64>,
    mapped_bytes: u64,
    /// Hot-slot fast-path accesses (single-page access found in its slot).
    cache_hits: u64,
    /// Accesses that had to promote a page out of the hash map.
    cache_misses: u64,
    /// Promotions that evicted a previous occupant back into the map.
    cache_demotions: u64,
    /// Pages created on first write.
    pages_materialized: u64,
}

impl Default for Memory {
    fn default() -> Memory {
        Memory {
            hot: std::array::from_fn(|_| None),
            pages: HashMap::default(),
            ranges: BTreeMap::new(),
            mapped_bytes: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_demotions: 0,
            pages_materialized: 0,
        }
    }
}

/// Snapshot of [`Memory`]'s hot-page cache effectiveness counters.
///
/// *Hits* count accesses served by the direct-mapped hot-slot fast path;
/// *misses* count accesses that found their page in the hash map and
/// promoted it; *demotions* count promotions that evicted a slot's previous
/// occupant. Accesses to mapped-but-unmaterialized memory are neither hits
/// nor misses (there is nothing cached to find), and multi-page accesses
/// bypass the cache entirely. Because both VM backends perform identical
/// access sequences, these counters are deterministic and backend-invariant.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MemCounters {
    /// Hot-slot fast-path accesses.
    pub cache_hits: u64,
    /// Accesses that promoted a page from the hash map into a slot.
    pub cache_misses: u64,
    /// Promotions that demoted a previous slot occupant.
    pub cache_demotions: u64,
    /// Pages materialized on first write.
    pub pages_materialized: u64,
}

/// Error for accesses to unmapped addresses.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Fault {
    /// The faulting address.
    pub addr: u64,
    /// Access width in bytes.
    pub width: u64,
    /// Whether the access was a write.
    pub write: bool,
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    fn page_base(addr: u64) -> u64 {
        addr & !(PAGE_SIZE - 1)
    }

    /// Maps `[addr, addr+len)`, rounded out to page boundaries. Mapping is
    /// idempotent and never clears existing contents.
    pub fn map(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let start = Self::page_base(addr);
        let end = Self::page_base(addr.saturating_add(len - 1)) + PAGE_SIZE;
        self.insert_range(start, end);
    }

    fn insert_range(&mut self, mut start: u64, mut end: u64) {
        // Merge with any overlapping or adjacent intervals.
        loop {
            let mut merged = false;
            // Predecessor that might overlap/touch.
            if let Some((&s, &e)) = self.ranges.range(..=end).next_back() {
                if e >= start && !(s <= start && e >= end) {
                    start = start.min(s);
                    end = end.max(e);
                    self.ranges.remove(&s);
                    self.mapped_bytes -= e - s;
                    merged = true;
                } else if s <= start && e >= end {
                    return; // fully covered
                }
            }
            if !merged {
                break;
            }
        }
        self.ranges.insert(start, end);
        self.mapped_bytes += end - start;
    }

    /// Whether every byte of `[addr, addr+len)` is mapped.
    pub fn is_mapped(&self, addr: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        let end = match addr.checked_add(len) {
            Some(e) => e,
            None => return false,
        };
        let mut cur = addr;
        while cur < end {
            match self.ranges.range(..=cur).next_back() {
                Some((&_s, &e)) if e > cur => cur = e,
                _ => return false,
            }
        }
        true
    }

    /// Total mapped bytes (memory-overhead reporting).
    pub fn mapped_bytes(&self) -> u64 {
        self.mapped_bytes
    }

    /// Snapshot of the hot-page cache effectiveness counters.
    pub fn counters(&self) -> MemCounters {
        MemCounters {
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            cache_demotions: self.cache_demotions,
            pages_materialized: self.pages_materialized,
        }
    }

    /// The direct-mapped `hot` slot for a page base.
    #[inline]
    fn slot_of(base: u64) -> usize {
        ((base / PAGE_SIZE) as usize) & (HOT_SLOTS - 1)
    }

    /// Promotes the materialized page at `base` into its `hot` slot,
    /// demoting the slot's current occupant back into `pages`. Returns
    /// `false` when `base` has no materialized page anywhere.
    #[inline]
    fn promote(&mut self, base: u64) -> bool {
        match self.pages.remove(&base) {
            Some(page) => {
                self.cache_misses += 1;
                let slot = &mut self.hot[Self::slot_of(base)];
                if let Some((old_base, old_page)) = slot.take() {
                    self.cache_demotions += 1;
                    self.pages.insert(old_base, old_page);
                }
                *slot = Some((base, page));
                true
            }
            None => false,
        }
    }

    /// The materialized page at `base` (hot slot or map), if any.
    #[inline]
    fn page(&self, base: u64) -> Option<&[u8]> {
        match &self.hot[Self::slot_of(base)] {
            Some((b, page)) if *b == base => Some(page),
            _ => self.pages.get(&base).map(|p| &**p),
        }
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Faults if any byte is unmapped.
    pub fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), Fault> {
        // Fast path: the access sits inside one already-materialized
        // page. Pages only materialize inside mapped intervals (there is
        // no unmap), so a materialized page proves mapped-ness without
        // consulting the interval set.
        let base = Self::page_base(addr);
        let off = (addr - base) as usize;
        if off + buf.len() <= PAGE_SIZE as usize {
            match &self.hot[Self::slot_of(base)] {
                Some((b, page)) if *b == base => {
                    buf.copy_from_slice(&page[off..off + buf.len()]);
                    self.cache_hits += 1;
                    return Ok(());
                }
                _ => {
                    if self.promote(base) {
                        let (_, page) =
                            self.hot[Self::slot_of(base)].as_ref().expect("just promoted");
                        buf.copy_from_slice(&page[off..off + buf.len()]);
                        return Ok(());
                    }
                }
            }
        }
        if !self.is_mapped(addr, buf.len() as u64) {
            return Err(Fault { addr, width: buf.len() as u64, write: false });
        }
        self.read_mapped(addr, buf);
        Ok(())
    }

    /// Reads mapped bytes page by page, without the hot-slot fast path:
    /// no cache counter moves.
    fn read_mapped(&self, addr: u64, buf: &mut [u8]) {
        let mut a = addr;
        let mut i = 0;
        while i < buf.len() {
            let base = Self::page_base(a);
            let off = (a - base) as usize;
            let n = ((PAGE_SIZE as usize) - off).min(buf.len() - i);
            match self.page(base) {
                Some(page) => buf[i..i + n].copy_from_slice(&page[off..off + n]),
                None => buf[i..i + n].fill(0), // mapped but untouched
            }
            a += n as u64;
            i += n;
        }
    }

    /// Writes `buf` starting at `addr`.
    ///
    /// # Errors
    ///
    /// Faults if any byte is unmapped.
    pub fn write(&mut self, addr: u64, buf: &[u8]) -> Result<(), Fault> {
        // Fast path: same single-materialized-page shortcut as `read`.
        let base = Self::page_base(addr);
        let off = (addr - base) as usize;
        if off + buf.len() <= PAGE_SIZE as usize {
            match &mut self.hot[Self::slot_of(base)] {
                Some((b, page)) if *b == base => {
                    page[off..off + buf.len()].copy_from_slice(buf);
                    self.cache_hits += 1;
                    return Ok(());
                }
                _ => {
                    if self.promote(base) {
                        let (_, page) =
                            self.hot[Self::slot_of(base)].as_mut().expect("just promoted");
                        page[off..off + buf.len()].copy_from_slice(buf);
                        return Ok(());
                    }
                }
            }
        }
        if !self.is_mapped(addr, buf.len() as u64) {
            return Err(Fault { addr, width: buf.len() as u64, write: true });
        }
        self.write_mapped(addr, buf);
        Ok(())
    }

    /// Writes mapped bytes page by page, materializing untouched pages,
    /// without the hot-slot fast path: only `pages_materialized` moves.
    fn write_mapped(&mut self, addr: u64, buf: &[u8]) {
        let mut a = addr;
        let mut i = 0;
        while i < buf.len() {
            let base = Self::page_base(a);
            let off = (a - base) as usize;
            let n = ((PAGE_SIZE as usize) - off).min(buf.len() - i);
            // Route around the hot slots so a page never exists twice.
            let page = match &mut self.hot[Self::slot_of(base)] {
                Some((b, page)) if *b == base => page,
                _ => {
                    let materialized = &mut self.pages_materialized;
                    self.pages.entry(base).or_insert_with(|| {
                        *materialized += 1;
                        vec![0u8; PAGE_SIZE as usize].into_boxed_slice()
                    })
                }
            };
            page[off..off + n].copy_from_slice(&buf[i..i + n]);
            a += n as u64;
            i += n;
        }
    }

    /// Reads a little-endian unsigned integer of `width` bytes (1..=8).
    pub fn read_uint(&mut self, addr: u64, width: u64) -> Result<u64, Fault> {
        // Width-specialized hot-slot path: fixed-size slice conversions
        // compile to single loads, unlike the variable-length copy in the
        // generic `read`.
        let base = Self::page_base(addr);
        let off = (addr - base) as usize;
        if off + width as usize <= PAGE_SIZE as usize {
            if let Some((b, page)) = &self.hot[Self::slot_of(base)] {
                if *b == base {
                    let v =
                        match width {
                            8 => u64::from_le_bytes(page[off..off + 8].try_into().expect("width")),
                            4 => u32::from_le_bytes(page[off..off + 4].try_into().expect("width"))
                                as u64,
                            2 => u16::from_le_bytes(page[off..off + 2].try_into().expect("width"))
                                as u64,
                            1 => page[off] as u64,
                            w => {
                                let mut buf = [0u8; 8];
                                buf[..w as usize].copy_from_slice(&page[off..off + w as usize]);
                                u64::from_le_bytes(buf)
                            }
                        };
                    self.cache_hits += 1;
                    return Ok(v);
                }
            }
        }
        let mut buf = [0u8; 8];
        self.read(addr, &mut buf[..width as usize])?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Writes a little-endian unsigned integer of `width` bytes (1..=8).
    pub fn write_uint(&mut self, addr: u64, width: u64, value: u64) -> Result<(), Fault> {
        // Same width specialization as `read_uint`, on the mutable slot.
        let base = Self::page_base(addr);
        let off = (addr - base) as usize;
        if off + width as usize <= PAGE_SIZE as usize {
            if let Some((b, page)) = &mut self.hot[Self::slot_of(base)] {
                if *b == base {
                    match width {
                        8 => page[off..off + 8].copy_from_slice(&value.to_le_bytes()),
                        4 => page[off..off + 4].copy_from_slice(&(value as u32).to_le_bytes()),
                        2 => page[off..off + 2].copy_from_slice(&(value as u16).to_le_bytes()),
                        1 => page[off] = value as u8,
                        w => {
                            let bytes = value.to_le_bytes();
                            page[off..off + w as usize].copy_from_slice(&bytes[..w as usize]);
                        }
                    }
                    self.cache_hits += 1;
                    return Ok(());
                }
            }
        }
        let bytes = value.to_le_bytes();
        self.write(addr, &bytes[..width as usize])
    }

    /// Copies `len` bytes from `src` to `dst` (regions may overlap), with
    /// the faults and cache counters of a `read` of `src` followed by a
    /// `write` of `dst`, but without a host buffer of `len` bytes.
    ///
    /// # Errors
    ///
    /// Faults (reading `src` first, then writing `dst`) if any byte is
    /// unmapped; nothing is written then.
    pub fn copy(&mut self, dst: u64, src: u64, len: u64) -> Result<(), Fault> {
        let mut chunk = [0u8; PAGE_SIZE as usize];
        if len <= PAGE_SIZE {
            let buf = &mut chunk[..len as usize];
            self.read(src, buf)?;
            return self.write(dst, buf);
        }
        // Spans over a page never take the single-page fast paths, so the
        // mapping checks up front are all `read` and `write` would do
        // besides the page walk.
        if !self.is_mapped(src, len) {
            return Err(Fault { addr: src, width: len, write: false });
        }
        if !self.is_mapped(dst, len) {
            return Err(Fault { addr: dst, width: len, write: true });
        }
        // memmove order: back to front when `dst` overlaps past `src`.
        let backward = dst > src && dst - src < len;
        let mut done = 0;
        while done < len {
            let n = (len - done).min(PAGE_SIZE);
            let off = if backward { len - done - n } else { done };
            self.read_mapped(src + off, &mut chunk[..n as usize]);
            self.write_mapped(dst + off, &chunk[..n as usize]);
            done += n;
        }
        Ok(())
    }

    /// Fills `len` bytes at `dst` with `byte`, with the fault and cache
    /// counters of a `write` of `len` bytes, streamed page by page.
    ///
    /// # Errors
    ///
    /// Faults if any byte is unmapped; nothing is written then.
    pub fn fill(&mut self, dst: u64, byte: u8, len: u64) -> Result<(), Fault> {
        let chunk = [byte; PAGE_SIZE as usize];
        if len <= PAGE_SIZE {
            return self.write(dst, &chunk[..len as usize]);
        }
        if !self.is_mapped(dst, len) {
            return Err(Fault { addr: dst, width: len, write: true });
        }
        let mut done = 0;
        while done < len {
            let n = (len - done).min(PAGE_SIZE);
            self.write_mapped(dst + done, &chunk[..n as usize]);
            done += n;
        }
        Ok(())
    }
}

impl std::fmt::Debug for Memory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memory")
            .field("materialized_pages", &(self.pages.len() + self.hot.iter().flatten().count()))
            .field("mapped_bytes", &self.mapped_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_within_page() {
        let mut m = Memory::new();
        m.map(0x1000, 64);
        m.write_uint(0x1008, 8, 0xDEAD_BEEF_CAFE_F00D).unwrap();
        assert_eq!(m.read_uint(0x1008, 8).unwrap(), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(m.read_uint(0x1000, 4).unwrap(), 0);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        m.map(0x1FF8, 16);
        m.write_uint(0x1FFC, 8, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(m.read_uint(0x1FFC, 8).unwrap(), 0x1122_3344_5566_7788);
    }

    #[test]
    fn unmapped_access_faults() {
        let mut m = Memory::new();
        m.map(0x1000, 8);
        assert!(m.read_uint(0x5000, 8).is_err());
        let f = m.write_uint(0x5000, 8, 1).unwrap_err();
        assert!(f.write);
    }

    #[test]
    fn access_straddling_mapping_end_faults() {
        let mut m = Memory::new();
        m.map(0x1000, 8); // maps the whole page 0x1000..0x2000
        assert!(m.read_uint(0x1FFC, 8).is_err(), "crosses into unmapped 0x2000");
    }

    #[test]
    fn oob_within_mapped_page_succeeds() {
        let mut m = Memory::new();
        m.map(0x1000, 16);
        assert!(m.write_uint(0x1100, 8, 7).is_ok());
    }

    #[test]
    fn huge_mapping_is_lazy() {
        let mut m = Memory::new();
        m.map(0x10_0000_0000, 2 << 30); // 2 GiB
        assert_eq!(m.mapped_bytes(), 2 << 30);
        // Untouched reads are zero and materialize nothing.
        assert_eq!(m.read_uint(0x10_4000_0000, 8).unwrap(), 0);
        assert_eq!(m.pages.len(), 0);
        m.write_uint(0x10_4000_0000, 8, 5).unwrap();
        assert_eq!(m.pages.len(), 1);
        assert_eq!(m.read_uint(0x10_4000_0000, 8).unwrap(), 5);
    }

    #[test]
    fn narrow_widths() {
        let mut m = Memory::new();
        m.map(0x1000, 16);
        m.write_uint(0x1000, 1, 0xAB).unwrap();
        m.write_uint(0x1001, 2, 0xCDEF).unwrap();
        assert_eq!(m.read_uint(0x1000, 1).unwrap(), 0xAB);
        assert_eq!(m.read_uint(0x1001, 2).unwrap(), 0xCDEF);
        assert_eq!(m.read_uint(0x1000, 4).unwrap(), 0x00CD_EFAB);
    }

    #[test]
    fn copy_and_fill() {
        let mut m = Memory::new();
        m.map(0x1000, 64);
        m.write(0x1000, b"hello world!").unwrap();
        m.copy(0x1020, 0x1000, 12).unwrap();
        let mut buf = [0u8; 12];
        m.read(0x1020, &mut buf).unwrap();
        assert_eq!(&buf, b"hello world!");
        m.fill(0x1000, 0xFF, 4).unwrap();
        assert_eq!(m.read_uint(0x1000, 4).unwrap(), 0xFFFF_FFFF);
    }

    #[test]
    fn overlapping_copy() {
        let mut m = Memory::new();
        m.map(0x1000, 32);
        m.write(0x1000, b"abcdef").unwrap();
        m.copy(0x1002, 0x1000, 6).unwrap();
        let mut buf = [0u8; 8];
        m.read(0x1000, &mut buf).unwrap();
        assert_eq!(&buf, b"ababcdef");
    }

    #[test]
    fn oversized_fill_and_copy_fault_without_allocating() {
        let mut m = Memory::new();
        m.map(0x1000, 16);
        let huge = 100_000_000_000;
        assert_eq!(m.fill(0x1000, 0, huge), Err(Fault { addr: 0x1000, width: huge, write: true }));
        // The source is checked first, then the destination.
        assert_eq!(
            m.copy(0x1000, 0x9000, huge),
            Err(Fault { addr: 0x9000, width: huge, write: false })
        );
        assert_eq!(
            m.copy(0x9000, 0x1000, huge),
            Err(Fault { addr: 0x1000, width: huge, write: false })
        );
        m.map(0x10_0000, 3 * PAGE_SIZE);
        assert_eq!(
            m.copy(0x9000, 0x10_0000, 2 * PAGE_SIZE),
            Err(Fault { addr: 0x9000, width: 2 * PAGE_SIZE, write: true })
        );
        assert_eq!(m.counters().pages_materialized, 0, "a faulting fill or copy writes nothing");
    }

    /// The buffered reference semantics of `copy`: read all of `src`, then
    /// write all of `dst`.
    fn buffered_copy(m: &mut Memory, dst: u64, src: u64, len: u64) -> Result<(), Fault> {
        let mut buf = vec![0u8; len as usize];
        m.read(src, &mut buf)?;
        m.write(dst, &buf)
    }

    #[test]
    fn streamed_copy_and_fill_match_the_buffered_reference() {
        let base = 0x20_0000;
        let span = 6 * PAGE_SIZE;
        let setup = || {
            let mut m = Memory::new();
            m.map(base, span);
            let pattern: Vec<u8> = (0..span).map(|i| (i * 7 + i / 4099) as u8).collect();
            // Leave the last page untouched so reads of it see zeros.
            m.write(base, &pattern[..(span - PAGE_SIZE) as usize]).unwrap();
            m
        };
        let snapshot = |m: &mut Memory| {
            let mut buf = vec![0u8; span as usize];
            m.read_mapped(base, &mut buf);
            buf
        };
        let page = PAGE_SIZE;
        // Overlap in both directions, disjoint spans, sub-page and
        // multi-page lengths, unaligned ends.
        for (dst, src, len) in [
            (base + 3, base, 3 * page + 5),
            (base, base + 3, 3 * page + 5),
            (base + page + 1, base + 17, 2 * page),
            (base + 17, base + page + 1, 2 * page),
            (base + 4 * page, base, 2 * page - 9),
            (base + 100, base + 40, 200),
            (base + 2 * page - 8, base + 5 * page - 3, page),
        ] {
            let (mut streamed, mut buffered) = (setup(), setup());
            streamed.copy(dst, src, len).unwrap();
            buffered_copy(&mut buffered, dst, src, len).unwrap();
            assert_eq!(snapshot(&mut streamed), snapshot(&mut buffered), "{dst:x} {src:x} {len}");
            assert_eq!(streamed.counters(), buffered.counters(), "{dst:x} {src:x} {len}");
        }
        for (dst, len) in [(base + 5, 4 * page), (base + page, page), (base + 3, 10)] {
            let (mut streamed, mut buffered) = (setup(), setup());
            streamed.fill(dst, 0xA5, len).unwrap();
            buffered.write(dst, &vec![0xA5; len as usize]).unwrap();
            assert_eq!(snapshot(&mut streamed), snapshot(&mut buffered), "{dst:x} {len}");
            assert_eq!(streamed.counters(), buffered.counters(), "{dst:x} {len}");
        }
    }

    #[test]
    fn map_is_idempotent() {
        let mut m = Memory::new();
        m.map(0x1000, 8);
        m.write_uint(0x1000, 8, 42).unwrap();
        m.map(0x1000, 4096);
        assert_eq!(m.read_uint(0x1000, 8).unwrap(), 42);
    }

    #[test]
    fn interval_merging() {
        let mut m = Memory::new();
        m.map(0x1000, PAGE_SIZE);
        m.map(0x2000, PAGE_SIZE);
        m.map(0x5000, PAGE_SIZE);
        assert_eq!(m.ranges.len(), 2, "adjacent ranges merged");
        assert_eq!(m.mapped_bytes(), 3 * PAGE_SIZE);
        assert!(m.is_mapped(0x1000, 2 * PAGE_SIZE));
        assert!(!m.is_mapped(0x1000, 5 * PAGE_SIZE));
        // Overlapping remap keeps accounting correct.
        m.map(0x1800, 2 * PAGE_SIZE);
        assert_eq!(m.mapped_bytes(), 4 * PAGE_SIZE);
    }

    #[test]
    fn mapped_bytes_accounting() {
        let mut m = Memory::new();
        m.map(0, 1);
        assert_eq!(m.mapped_bytes(), PAGE_SIZE);
        m.map(0, PAGE_SIZE + 1);
        assert_eq!(m.mapped_bytes(), 2 * PAGE_SIZE);
    }

    #[test]
    fn cache_counters_track_crafted_pattern() {
        let mut m = Memory::new();
        m.map(0x1000, PAGE_SIZE);
        assert_eq!(m.counters(), MemCounters::default());

        // First write: the page is not yet materialized anywhere, so the
        // access is neither a hit nor a miss — it materializes the page
        // into the hash map (the hot slot stays empty).
        m.write_uint(0x1000, 8, 1).unwrap();
        assert_eq!(
            m.counters(),
            MemCounters {
                cache_hits: 0,
                cache_misses: 0,
                cache_demotions: 0,
                pages_materialized: 1
            }
        );

        // The next access finds the page in the map and promotes it: a miss.
        assert_eq!(m.read_uint(0x1000, 8).unwrap(), 1);
        assert_eq!(m.counters().cache_misses, 1);
        assert_eq!(m.counters().cache_hits, 0);

        // Repeated accesses to the promoted page are hot-slot hits.
        for _ in 0..10 {
            m.read_uint(0x1000, 8).unwrap();
        }
        m.write_uint(0x1000, 4, 7).unwrap();
        let c = m.counters();
        assert_eq!(c.cache_hits, 11);
        assert_eq!(c.cache_misses, 1);
        assert_eq!(c.cache_demotions, 0);

        // A page HOT_SLOTS pages away maps to the same direct-mapped slot:
        // promoting it demotes the first page, and touching the first page
        // again demotes the second right back.
        let conflict = 0x1000 + HOT_SLOTS as u64 * PAGE_SIZE;
        m.map(conflict, PAGE_SIZE);
        m.write_uint(conflict, 8, 2).unwrap(); // materializes, slot untouched
        m.read_uint(conflict, 8).unwrap(); // miss + demotion of 0x1000's page
        let c = m.counters();
        assert_eq!(c.pages_materialized, 2);
        assert_eq!(c.cache_misses, 2);
        assert_eq!(c.cache_demotions, 1);
        m.read_uint(0x1000, 8).unwrap(); // miss + demotion of the conflict page
        let c = m.counters();
        assert_eq!(c.cache_misses, 3);
        assert_eq!(c.cache_demotions, 2);
    }
}
