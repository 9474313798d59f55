//! A fixed-seed hasher for the small integer keys of per-flow tables.
//!
//! The standard library's SipHash is keyed per process and costs more than
//! a whole flow-table update or NAT lookup for a `u32` session id. This
//! multiply-rotate mix is a few cycles, and its fixed seed makes table
//! internals reproducible across processes (every exported ordering is
//! sorted explicitly regardless). The analyzer's `FlowTable` and the NAT
//! device's translation table both hash with it.
//!
//! Its methods are `#[inline]`: the tables that use it live in other
//! crates, and without link-time optimisation a non-inline method would
//! be a call across the crate boundary on every lookup.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier for the rustc-style multiply-rotate mix below.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fixed-seed multiply-rotate hasher; see the [module docs](self).
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` plugging [`FxHasher`] into `HashMap`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn fixed_seed_hashes_are_stable_and_spread() {
        // The same key hashes alike in every hasher built, so table
        // internals do not vary between processes.
        assert_eq!(hash_of(7u32), hash_of(7u32));
        assert_eq!(hash_of(7u32), 7u64.wrapping_mul(FX_SEED));
        let mut seen: Vec<u64> = (0..1000u32).map(hash_of).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 1000, "consecutive session ids never collide");
    }
}
