//! The two-level bounds-metadata trie.
//!
//! Keys are pointer *locations* (the address a pointer value is stored at),
//! quantized to 8-byte slots. The primary level indexes fixed-size secondary
//! tables, mirroring the structure from Nagarakatte's runtime (and the
//! "trie data structure" of §3.2): a lookup is two dependent loads, which is
//! why it is charged more than a low-fat base recovery in the cost model.

use std::collections::HashMap;

/// A `(base, bound)` pair. `bound` is one past the last accessible byte.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct Bounds {
    /// Lowest accessible address.
    pub base: u64,
    /// One past the highest accessible address.
    pub bound: u64,
}

impl Bounds {
    /// The "null" metadata: any access check against it fails.
    pub const NULL: Bounds = Bounds { base: 0, bound: 0 };
    /// Wide bounds: every access check against it succeeds (used for
    /// `inttoptr` results and size-unknown externals under the paper's
    /// `-mi-sb-*-wide-*` flags).
    pub const WIDE: Bounds = Bounds { base: 0, bound: u64::MAX };

    /// Whether an access of `width` bytes at `ptr` is within bounds
    /// (Figure 2 of the paper).
    pub fn allows(self, ptr: u64, width: u64) -> bool {
        ptr >= self.base && ptr.checked_add(width).is_some_and(|end| end <= self.bound)
    }
}

/// Entries per secondary-level table (covers 2^15 bytes of address space).
const SECONDARY_ENTRIES: usize = 1 << 12;

/// The two-level metadata trie.
#[derive(Default)]
pub struct MetadataTrie {
    primary: HashMap<u64, Box<[Bounds]>>,
    /// Number of secondary tables allocated (memory-overhead reporting).
    pub secondary_tables: u64,
}

impl MetadataTrie {
    /// An empty trie.
    pub fn new() -> MetadataTrie {
        MetadataTrie::default()
    }

    fn split(addr: u64) -> (u64, usize) {
        let slot = addr >> 3;
        (slot / SECONDARY_ENTRIES as u64, (slot % SECONDARY_ENTRIES as u64) as usize)
    }

    /// Records bounds for the pointer stored at `addr`.
    pub fn set(&mut self, addr: u64, bounds: Bounds) {
        let (hi, lo) = Self::split(addr);
        let table = self.primary.entry(hi).or_insert_with(|| {
            self.secondary_tables += 1;
            vec![Bounds::NULL; SECONDARY_ENTRIES].into_boxed_slice()
        });
        table[lo] = bounds;
    }

    /// Bounds recorded for the pointer stored at `addr` ([`Bounds::NULL`] if
    /// none were ever recorded — the "outdated or unavailable metadata"
    /// situation of the paper).
    pub fn get(&self, addr: u64) -> Bounds {
        let (hi, lo) = Self::split(addr);
        self.primary.get(&hi).map_or(Bounds::NULL, |t| t[lo])
    }

    /// Copies metadata for every 8-byte slot of `[src, src+len)` to the
    /// corresponding slot of `[dst, dst+len)` — the `copy_metadata` part of
    /// the `memcpy` wrapper (Figure 6 of the paper).
    pub fn copy_range(&mut self, dst: u64, src: u64, len: u64) {
        let slots = len / 8;
        if dst <= src {
            for i in 0..slots {
                let b = self.get(src + i * 8);
                self.set(dst + i * 8, b);
            }
        } else {
            for i in (0..slots).rev() {
                let b = self.get(src + i * 8);
                self.set(dst + i * 8, b);
            }
        }
    }
}

impl std::fmt::Debug for MetadataTrie {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetadataTrie").field("secondary_tables", &self.secondary_tables).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_null_bounds() {
        let t = MetadataTrie::new();
        assert_eq!(t.get(0x1000), Bounds::NULL);
        assert!(!t.get(0x1000).allows(0x1000, 1));
    }

    #[test]
    fn set_get_roundtrip() {
        let mut t = MetadataTrie::new();
        let b = Bounds { base: 0x5000, bound: 0x5100 };
        t.set(0x1000, b);
        assert_eq!(t.get(0x1000), b);
        // Neighbouring slots are unaffected.
        assert_eq!(t.get(0x1008), Bounds::NULL);
        assert_eq!(t.get(0x0FF8), Bounds::NULL);
    }

    #[test]
    fn sub_slot_addresses_share_entry() {
        // Pointer locations are quantized to 8 bytes.
        let mut t = MetadataTrie::new();
        let b = Bounds { base: 1, bound: 2 };
        t.set(0x1000, b);
        assert_eq!(t.get(0x1007), b);
    }

    #[test]
    fn bounds_check_math() {
        let b = Bounds { base: 100, bound: 116 };
        assert!(b.allows(100, 8));
        assert!(b.allows(108, 8));
        assert!(!b.allows(109, 8)); // crosses the upper bound
        assert!(!b.allows(99, 1)); // below base
        assert!(b.allows(115, 1));
        assert!(!b.allows(116, 1)); // one-past-end may not be dereferenced
        assert!(Bounds::WIDE.allows(0xDEAD_BEEF, 4096));
        assert!(!Bounds::WIDE.allows(u64::MAX - 3, 8)); // overflow guarded
    }

    #[test]
    fn copy_range_moves_metadata() {
        let mut t = MetadataTrie::new();
        let b0 = Bounds { base: 10, bound: 20 };
        let b1 = Bounds { base: 30, bound: 40 };
        t.set(0x1000, b0);
        t.set(0x1008, b1);
        t.copy_range(0x2000, 0x1000, 16);
        assert_eq!(t.get(0x2000), b0);
        assert_eq!(t.get(0x2008), b1);
    }

    #[test]
    fn overlapping_copy_forward_and_backward() {
        let mut t = MetadataTrie::new();
        let b = |i: u64| Bounds { base: i, bound: i + 1 };
        for i in 0..4 {
            t.set(0x1000 + i * 8, b(i));
        }
        // Overlapping copy to a higher address (backward iteration needed).
        t.copy_range(0x1008, 0x1000, 32);
        for i in 0..4 {
            assert_eq!(t.get(0x1008 + i * 8), b(i));
        }
    }

    #[test]
    fn spans_secondary_tables() {
        let mut t = MetadataTrie::new();
        let far = 0x9999_0000_0000;
        t.set(far, Bounds { base: 1, bound: 2 });
        t.set(0x10, Bounds { base: 3, bound: 4 });
        assert_eq!(t.get(far).base, 1);
        assert_eq!(t.get(0x10).base, 3);
        assert_eq!(t.secondary_tables, 2);
    }
}
