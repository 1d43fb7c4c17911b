//! A fast hasher for compiler-internal tables.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher (the FxHash step) for tables keyed by ids,
/// constants, types and names taken from the module being compiled, not
/// from an adversary. SipHash took about a third of GVN's walk.
#[derive(Default)]
pub struct KeyHasher(u64);

impl KeyHasher {
    fn add(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b.into());
        }
    }
    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    fn finish(&self) -> u64 {
        // Mix the high bits down: the table buckets on the low bits.
        self.0 ^ (self.0 >> 32)
    }
}

/// A `HashMap` hashed by [`KeyHasher`]. Build one with `KeyMap::default()`.
pub type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;
