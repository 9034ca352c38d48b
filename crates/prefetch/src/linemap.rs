//! `LineMap<V>`: the comparator prefetchers' per-access bookkeeping map.
//!
//! MLOP, Pythia and Bingo probe a `u64`-keyed map (cache lines, regions,
//! signatures) several times per L2 access, where std's default SipHash
//! costs more than the rest of the probe. Its protection against keys
//! crafted to collide buys nothing here: each of these maps holds at most a
//! few thousand entries, so even a trace built to collide costs a scan of
//! one small table and cannot grow memory. `LineMap` is std's `HashMap`
//! with a deterministic multiply/xor-shift hasher instead.
//!
//! No caller iterates a `LineMap`: its iteration order depends on the
//! hasher, so observing it would let a hasher change alter simulated output.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `u64`-keyed map hashed with [`mix`].
pub(crate) type LineMap<V> = HashMap<u64, V, BuildHasherDefault<LineHasher>>;

/// The 64-bit finalizer of MurmurHash3: every input bit affects every
/// output bit, so both the bucket index (low bits) and the control byte
/// (high bits) of the table are well spread.
pub(crate) fn mix(x: u64) -> u64 {
    let mut h = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// The [`Hasher`] behind [`LineMap`]: a `u64` key hashes to [`mix`] of it.
#[derive(Default)]
pub(crate) struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = mix(self.0 ^ x);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn a_key_hashes_to_its_mix() {
        let build = BuildHasherDefault::<LineHasher>::default();
        for x in [0, 1, 63, 64, 1 << 40, u64::MAX] {
            assert_eq!(build.hash_one(x), mix(x));
        }
    }
}
