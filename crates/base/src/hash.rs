//! A multiply-rotate hasher for maps keyed by the program's own small
//! keys.
//!
//! [`KeyHasher`] folds each word into its state with a rotate, a xor
//! and one multiplication. It suits keys the program makes itself and
//! hashes many times per operation: plan addresses and revision
//! counters, entity ids, symbol indexes (a [`crate::value::Value`]
//! string hashes by symbol), pane starts. Collision resistance against
//! chosen keys buys nothing there, and SipHash, the standard default,
//! costs several times more per key.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hashing; see the [module docs](self).
#[derive(Debug, Default, Clone, Copy)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// Builds [`KeyHasher`]s.
pub type KeyBuild = BuildHasherDefault<KeyHasher>;

/// A `HashMap` hashed with [`KeyHasher`].
pub type KeyMap<K, V> = HashMap<K, V, KeyBuild>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Symbol;
    use crate::value::Value;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(k: &impl Hash) -> u64 {
        KeyBuild::default().hash_one(k)
    }

    #[test]
    fn equal_keys_hash_equal_and_neighbours_differ() {
        let a = (Value::str("lobby"), Value::Null, 60_000u64);
        let b = (Value::Str(Symbol::intern("lobby")), Value::Null, 60_000u64);
        assert_eq!(hash_of(&a), hash_of(&b));
        // Dense keys (pane starts, entity ids) spread over the low
        // bits a table indexes by.
        let mut low: Vec<u64> = (0..256u64).map(|n| hash_of(&n) & 0xff).collect();
        low.sort_unstable();
        low.dedup();
        assert!(low.len() > 128, "{} distinct low bytes of 256", low.len());
    }
}
