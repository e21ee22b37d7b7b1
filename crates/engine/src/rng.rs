//! Explicitly-seeded, platform-independent random streams.
//!
//! Workload generation must be bit-reproducible so that an experiment rerun
//! produces the same table rows. We therefore implement the tiny SplitMix64
//! generator (used by Java, xoshiro seeding, etc.) rather than depend on the
//! stability of an external RNG's stream.

/// A deterministic 64-bit random stream (SplitMix64).
///
/// SplitMix64 passes BigCrush for this use (driving synthetic workloads) and
/// is two shifts and two multiplies per draw.
///
/// # Example
///
/// ```
/// use sim_engine::DetRng;
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Creates a stream from a seed. Identical seeds yield identical streams.
    pub fn new(seed: u64) -> Self {
        DetRng { state: seed }
    }

    /// Derives an independent child stream; used to give each simulated
    /// thread or component its own stream from one experiment seed.
    pub fn split(&mut self, salt: u64) -> DetRng {
        let mixed = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        DetRng::new(mixed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Multiply-shift rejection-free mapping (Lemire); bias is < 2^-64 * bound,
        // irrelevant for workload generation.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element, or `None` if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.below(items.len() as u64) as usize])
        }
    }
}

/// Randomized per-hop latency jitter that preserves point-to-point
/// ordering.
///
/// Stress harnesses perturb message timing to widen race windows, but the
/// protocol (like gem5's `MESI_Two_Level`) assumes each source→destination
/// link delivers in send order. `LinkJitter` adds a seeded random extra
/// delay per hop and then clamps the delivery time to be no earlier than
/// the last delivery already scheduled on the same link, so cross-link
/// interleavings vary while each link stays FIFO.
///
/// # Example
///
/// ```
/// use sim_engine::{Cycle, LinkJitter};
/// let mut j = LinkJitter::new(7, 4);
/// let a = j.delay((0, 1), Cycle(100), 10);
/// let b = j.delay((0, 1), Cycle(101), 10);
/// assert!(a >= Cycle(110) && a <= Cycle(114));
/// assert!(b >= a, "same link stays FIFO");
/// ```
#[derive(Debug)]
pub struct LinkJitter {
    rng: DetRng,
    max_extra: u64,
    last: crate::fxhash::FxHashMap<(u64, u64), crate::cycle::Cycle>,
}

impl LinkJitter {
    /// Creates a jitter model adding `0..=max_extra` cycles per hop.
    pub fn new(seed: u64, max_extra: u64) -> Self {
        LinkJitter {
            rng: DetRng::new(seed),
            max_extra,
            last: crate::fxhash::FxHashMap::default(),
        }
    }

    /// Delivery time for a message sent at `now` over `link` with nominal
    /// latency `base`, after jitter and the link's FIFO clamp.
    pub fn delay(
        &mut self,
        link: (u64, u64),
        now: crate::cycle::Cycle,
        base: u64,
    ) -> crate::cycle::Cycle {
        let extra = if self.max_extra == 0 {
            0
        } else {
            self.rng.below(self.max_extra + 1)
        };
        let mut at = now + crate::cycle::Cycle(base + extra);
        if let Some(&prev) = self.last.get(&link) {
            if at < prev {
                at = prev;
            }
        }
        self.last.insert(link, at);
        at
    }
}

/// Zipf-distributed sampler over `[0, n)`.
///
/// Cache workloads have skewed popularity; SPEC/PARSEC-like profiles use a
/// Zipf(θ) access distribution over their working set. Sampling is by
/// inverse transform over a precomputed CDF (O(log n) per draw).
///
/// # Example
///
/// ```
/// use sim_engine::{DetRng, Zipf};
/// let zipf = Zipf::new(1000, 0.99);
/// let mut rng = DetRng::new(7);
/// let x = zipf.sample(&mut rng);
/// assert!(x < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `[0, n)` with exponent `theta`.
    ///
    /// `theta == 0` degenerates to the uniform distribution.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta < 0`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf over empty domain");
        assert!(theta >= 0.0, "negative Zipf exponent");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the domain is empty (never true; `new` rejects `n == 0`).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws one value in `[0, len)`.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.next_f64();
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("cdf has no NaNs"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = DetRng::new(123);
        let mut b = DetRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = DetRng::new(9);
        for _ in 0..10_000 {
            assert!(rng.below(7) < 7);
        }
    }

    #[test]
    fn range_inclusive_exclusive() {
        let mut rng = DetRng::new(10);
        for _ in 0..10_000 {
            let v = rng.range(5, 8);
            assert!((5..8).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        DetRng::new(0).below(0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = DetRng::new(11);
        for _ in 0..10_000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::new(12);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DetRng::new(13);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_empty_and_nonempty() {
        let mut rng = DetRng::new(14);
        let empty: [u8; 0] = [];
        assert_eq!(rng.choose(&empty), None);
        assert_eq!(rng.choose(&[42]), Some(&42));
    }

    #[test]
    fn split_gives_distinct_streams() {
        let mut parent = DetRng::new(99);
        let mut c1 = parent.split(0);
        let mut c2 = parent.split(1);
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn zipf_skews_toward_small_indices() {
        let zipf = Zipf::new(100, 1.0);
        let mut rng = DetRng::new(15);
        let mut counts = vec![0u32; 100];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // Item 0 should be drawn far more often than item 99.
        assert!(counts[0] > counts[99] * 10);
    }

    #[test]
    fn zipf_theta_zero_is_roughly_uniform() {
        let zipf = Zipf::new(10, 0.0);
        let mut rng = DetRng::new(16);
        let mut counts = vec![0u32; 10];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        let min = *counts.iter().min().unwrap() as f64;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(max / min < 1.2, "uniform draw too skewed: {counts:?}");
    }

    #[test]
    fn zipf_domain_bounds() {
        let zipf = Zipf::new(3, 0.8);
        assert_eq!(zipf.len(), 3);
        let mut rng = DetRng::new(17);
        for _ in 0..1000 {
            assert!(zipf.sample(&mut rng) < 3);
        }
    }
}
