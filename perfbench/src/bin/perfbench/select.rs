//! Deterministic input selection from the benchmark's `--seed`.
//!
//! The benchmark draws from its own SplitMix64 stream rather than the
//! program's RNG, so a change to the program's random streams cannot
//! change which targets, pairs and orders the benchmark sends.

/// A SplitMix64 stream keyed by `(seed, salt)`.
#[derive(Clone, Debug)]
pub struct Stream(u64);

impl Stream {
    /// The stream for one purpose (`salt`) under one benchmark seed.
    pub fn new(seed: u64, salt: u64) -> Stream {
        let mut s = Stream(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        s.next_u64();
        s
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `k` distinct indices of `0..n`, in draw order.
    pub fn pick(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        self.shuffle(&mut all);
        all.truncate(k.min(n));
        all
    }
}

/// Zoo seed number `index` of a run: distinct per index, below 2^32 so
/// it survives the JSON number round trip exactly.
pub fn zoo_seed(seed: u64, index: u64) -> u64 {
    Stream::new(seed, 0x5EED_0000 + index).next_u64() >> 32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_selection() {
        let a = Stream::new(3, 1).pick(12, 4);
        assert_eq!(a, Stream::new(3, 1).pick(12, 4));
        assert_eq!(a.len(), 4);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "picks are distinct: {a:?}");
        assert!(a.iter().all(|&i| i < 12));
    }

    #[test]
    fn seeds_and_salts_give_different_streams() {
        assert_ne!(Stream::new(3, 1).pick(12, 4), Stream::new(4, 1).pick(12, 4));
        assert_ne!(Stream::new(3, 1).next_u64(), Stream::new(3, 2).next_u64());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<usize> = (0..100).collect();
        Stream::new(9, 9).shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zoo_seeds_are_distinct_and_json_safe() {
        let seeds: Vec<u64> = (0..64).map(|i| zoo_seed(1, i)).collect();
        assert!(seeds.iter().all(|&s| s < 1 << 32));
        let mut d = seeds.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), seeds.len());
        assert_eq!(zoo_seed(1, 0), zoo_seed(1, 0));
        assert_ne!(zoo_seed(1, 0), zoo_seed(2, 0));
    }

    #[test]
    fn below_stays_in_range() {
        let mut s = Stream::new(0, 0);
        assert!((0..1000).all(|_| s.below(7) < 7));
    }
}
