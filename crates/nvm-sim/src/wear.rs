//! Wear tracking: per-word write counts and per-bit flip counts.
//!
//! §VI-G of the paper studies wear-leveling with two cumulative distribution
//! functions:
//!
//! * Figure 12 — the number of times each *address* (word) in the data zone
//!   was written;
//! * Figure 13 — the number of times each *bit* was flipped.
//!
//! [`WearTracker`] maintains both counters (bit-level tracking is optional
//! because it costs one byte of DRAM per emulated NVM bit) and [`WearCdf`]
//! turns a counter array into the CDF series the figures plot.

/// Per-word and optional per-bit wear counters for a device of fixed size.
#[derive(Debug, Clone)]
pub struct WearTracker {
    word_bytes: usize,
    /// Writes per word. Saturating.
    word_writes: Vec<u32>,
    /// Flips per bit (saturating u16, enough for every experiment in the
    /// paper where maxima are in the tens). `None` when disabled.
    bit_flips: Option<Vec<u16>>,
}

impl WearTracker {
    /// Creates a tracker for `size` bytes of memory with the given word size.
    ///
    /// `track_bits` enables per-bit counters (costs `2 * size * 8` bytes of
    /// DRAM).
    pub fn new(size: usize, word_bytes: usize, track_bits: bool) -> Self {
        assert!(word_bytes > 0);
        let words = size.div_ceil(word_bytes);
        WearTracker {
            word_bytes,
            word_writes: vec![0; words],
            bit_flips: track_bits.then(|| vec![0u16; size * 8]),
        }
    }

    /// Whether per-bit tracking is enabled.
    pub fn tracks_bits(&self) -> bool {
        self.bit_flips.is_some()
    }

    /// Records that the word containing byte `addr` was written once.
    #[inline]
    pub fn record_word_write(&mut self, word_index: usize) {
        if let Some(w) = self.word_writes.get_mut(word_index) {
            *w = w.saturating_add(1);
        }
    }

    /// Records a flip of bit `bit` (0..8) of byte `addr`.
    #[inline]
    pub fn record_bit_flip(&mut self, addr: usize, bit: u32) {
        if let Some(bits) = self.bit_flips.as_mut() {
            let idx = addr * 8 + bit as usize;
            if let Some(b) = bits.get_mut(idx) {
                *b = b.saturating_add(1);
            }
        }
    }

    /// Records one flip per set bit of `xor`, interpreted as the
    /// little-endian XOR of up to 8 bytes starting at byte `addr` — the
    /// per-bit counters are byte-major LSB-first, so bit `b` of the word
    /// maps directly to counter index `addr*8 + b`. One call covers a whole
    /// device word; the bit-scan only visits set bits.
    #[inline]
    pub fn record_word_flips(&mut self, addr: usize, xor: u64) {
        if let Some(bits) = self.bit_flips.as_mut() {
            record_flips(bits, addr, xor);
        }
    }

    /// Both counter arrays at once, for the device's write kernel, which
    /// bumps words by direct index and bits through [`record_flips`] while
    /// it also holds the cells and the fault state — and for a file-backed
    /// device's open, which loads the word counters from its file.
    pub(crate) fn counters_mut(&mut self) -> (&mut [u32], Option<&mut [u16]>) {
        (&mut self.word_writes, self.bit_flips.as_deref_mut())
    }

    /// Writes-per-word counter slice.
    pub fn word_writes(&self) -> &[u32] {
        &self.word_writes
    }

    /// Flips-per-bit counter slice, if tracking is enabled.
    pub fn bit_flips(&self) -> Option<&[u16]> {
        self.bit_flips.as_deref()
    }

    /// Maximum writes observed on any single word.
    pub fn max_word_writes(&self) -> u32 {
        self.word_writes.iter().copied().max().unwrap_or(0)
    }

    /// CDF of per-word write counts over the byte range
    /// `[start, start+len)` (restricting to e.g. the data zone, as the paper
    /// does). Pass the whole device range for a global view.
    pub fn word_cdf(&self, start: usize, len: usize) -> WearCdf {
        let a = start / self.word_bytes;
        let b = (start + len).div_ceil(self.word_bytes).min(self.word_writes.len());
        WearCdf::from_counts_u32(&self.word_writes[a.min(b)..b])
    }

    /// CDF of per-bit flip counts over byte range `[start, start+len)`.
    ///
    /// Returns `None` when bit tracking is disabled.
    pub fn bit_cdf(&self, start: usize, len: usize) -> Option<WearCdf> {
        let bits = self.bit_flips.as_ref()?;
        let a = (start * 8).min(bits.len());
        let b = ((start + len) * 8).min(bits.len());
        Some(WearCdf::from_counts_u16(&bits[a..b]))
    }

    /// Clears all counters (used between experiment phases).
    pub fn reset(&mut self) {
        self.word_writes.fill(0);
        if let Some(b) = self.bit_flips.as_mut() {
            b.fill(0);
        }
    }

    /// Accumulates another tracker's counters into this one, elementwise.
    ///
    /// Both trackers must describe the same geometry (same word size and
    /// cell count); this models two traffic streams hitting one physical
    /// address space — e.g. folding separate measurement windows, or
    /// mirrored replicas of one device, into a combined view. (Shards of a
    /// sharded store cover *disjoint* slices with differently-sized
    /// trackers — aggregate those with [`WearCdf::merge`] instead.)
    ///
    /// # Panics
    /// Panics if the geometries differ.
    pub fn absorb(&mut self, other: &WearTracker) {
        assert_eq!(self.word_bytes, other.word_bytes, "word size mismatch");
        assert_eq!(
            self.word_writes.len(),
            other.word_writes.len(),
            "tracker size mismatch"
        );
        for (a, b) in self.word_writes.iter_mut().zip(&other.word_writes) {
            *a = a.saturating_add(*b);
        }
        if let (Some(mine), Some(theirs)) = (self.bit_flips.as_mut(), other.bit_flips.as_ref()) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a = a.saturating_add(*b);
            }
        }
    }
}

/// Bumps the per-bit counter of every set bit of `xor`, the little-endian
/// image of (up to) 8 bytes starting at byte `addr`. Bits past the end of
/// `bits` are ignored.
#[inline]
pub(crate) fn record_flips(bits: &mut [u16], addr: usize, mut xor: u64) {
    let base = addr * 8;
    while xor != 0 {
        let b = xor.trailing_zeros() as usize;
        if let Some(slot) = bits.get_mut(base + b) {
            *slot = slot.saturating_add(1);
        }
        xor &= xor - 1;
    }
}

/// An empirical CDF over wear counts: `p(x) = P(count <= x)`.
///
/// This is exactly the series Figures 12/13 plot.
#[derive(Debug, Clone, PartialEq)]
pub struct WearCdf {
    /// Sorted distinct count values.
    pub values: Vec<u32>,
    /// Cumulative probability at each value.
    pub cumulative: Vec<f64>,
    /// Number of cells observed.
    pub population: usize,
}

impl WearCdf {
    fn from_histogram(hist: &[u64], population: usize) -> Self {
        let mut values = Vec::new();
        let mut cumulative = Vec::new();
        let mut acc = 0u64;
        for (v, &n) in hist.iter().enumerate() {
            if n == 0 && !(v == 0 && population > 0) {
                continue;
            }
            acc += n;
            values.push(v as u32);
            cumulative.push(acc as f64 / population.max(1) as f64);
        }
        WearCdf {
            values,
            cumulative,
            population,
        }
    }

    /// Builds a CDF from u32 counters.
    pub fn from_counts_u32(counts: &[u32]) -> Self {
        let max = counts.iter().copied().max().unwrap_or(0) as usize;
        let mut hist = vec![0u64; max + 1];
        for &c in counts {
            hist[c as usize] += 1;
        }
        Self::from_histogram(&hist, counts.len())
    }

    /// Builds a CDF from u16 counters.
    pub fn from_counts_u16(counts: &[u16]) -> Self {
        let max = counts.iter().copied().max().unwrap_or(0) as usize;
        let mut hist = vec![0u64; max + 1];
        for &c in counts {
            hist[c as usize] += 1;
        }
        Self::from_histogram(&hist, counts.len())
    }

    /// `P(count <= x)` — e.g. the paper reports `P(X <= 5) = 0.85` for
    /// Figure 12a.
    pub fn probability_le(&self, x: u32) -> f64 {
        match self.values.binary_search(&x) {
            Ok(i) => self.cumulative[i],
            Err(0) => 0.0,
            Err(i) => self.cumulative[i - 1],
        }
    }

    /// Smallest count value `x` with `P(count <= x) >= p` (a quantile).
    pub fn quantile(&self, p: f64) -> u32 {
        for (v, c) in self.values.iter().zip(&self.cumulative) {
            if *c >= p {
                return *v;
            }
        }
        self.values.last().copied().unwrap_or(0)
    }

    /// Largest observed count.
    pub fn max(&self) -> u32 {
        self.values.last().copied().unwrap_or(0)
    }

    /// Per-value cell counts recovered from the cumulative series.
    ///
    /// Exact as long as the population fits in 52 bits (cumulative
    /// probabilities are stored as `acc / population`, so `cum * population`
    /// round-trips the integer accumulator).
    fn counts(&self) -> Vec<(u32, u64)> {
        let mut prev = 0u64;
        self.values
            .iter()
            .zip(&self.cumulative)
            .map(|(&v, &c)| {
                let acc = (c * self.population as f64).round() as u64;
                let n = acc - prev;
                prev = acc;
                (v, n)
            })
            .collect()
    }

    /// CDF of the union of two cell populations.
    ///
    /// A sharded store keeps one device (and so one wear tracker) per shard
    /// over disjoint slices of the logical address space; merging the
    /// per-shard CDFs yields exactly the Figure 12/13 curve a single device
    /// spanning all shards would report.
    pub fn merge(&self, other: &WearCdf) -> WearCdf {
        let max = self.max().max(other.max()) as usize;
        let population = self.population + other.population;
        if population == 0 {
            return WearCdf::from_counts_u32(&[]);
        }
        let mut hist = vec![0u64; max + 1];
        for (v, n) in self.counts().into_iter().chain(other.counts()) {
            hist[v as usize] += n;
        }
        WearCdf::from_histogram(&hist, population)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_writes_are_recorded() {
        let mut t = WearTracker::new(64, 8, false);
        t.record_word_write(0);
        t.record_word_write(0);
        t.record_word_write(3);
        assert_eq!(t.word_writes()[0], 2);
        assert_eq!(t.word_writes()[3], 1);
        assert_eq!(t.max_word_writes(), 2);
    }

    #[test]
    fn bit_tracking_disabled_by_default_path() {
        let mut t = WearTracker::new(64, 8, false);
        t.record_bit_flip(0, 3); // must be a no-op, not a panic
        assert!(t.bit_flips().is_none());
        assert!(t.bit_cdf(0, 64).is_none());
    }

    #[test]
    fn bit_tracking_enabled() {
        let mut t = WearTracker::new(16, 8, true);
        t.record_bit_flip(0, 0);
        t.record_bit_flip(0, 0);
        t.record_bit_flip(1, 7);
        let bits = t.bit_flips().unwrap();
        assert_eq!(bits[0], 2);
        assert_eq!(bits[15], 1);
    }

    #[test]
    fn word_flips_match_per_bit_recording() {
        let mut a = WearTracker::new(16, 8, true);
        let mut b = WearTracker::new(16, 8, true);
        let xor = 0x8000_0000_0000_A501u64; // bits across several bytes
        a.record_word_flips(3, xor);
        for bit in 0..64u32 {
            if xor >> bit & 1 == 1 {
                b.record_bit_flip(3 + bit as usize / 8, bit % 8);
            }
        }
        assert_eq!(a.bit_flips(), b.bit_flips());
        // Disabled tracking: a no-op, not a panic.
        let mut c = WearTracker::new(16, 8, false);
        c.record_word_flips(0, u64::MAX);
        assert!(c.bit_flips().is_none());
    }

    #[test]
    fn cdf_probabilities() {
        // counts: 0,0,1,2 -> P(<=0)=0.5, P(<=1)=0.75, P(<=2)=1.0
        let cdf = WearCdf::from_counts_u32(&[0, 0, 1, 2]);
        assert_eq!(cdf.population, 4);
        assert!((cdf.probability_le(0) - 0.5).abs() < 1e-12);
        assert!((cdf.probability_le(1) - 0.75).abs() < 1e-12);
        assert!((cdf.probability_le(2) - 1.0).abs() < 1e-12);
        assert!((cdf.probability_le(100) - 1.0).abs() < 1e-12);
        assert_eq!(cdf.max(), 2);
    }

    #[test]
    fn cdf_quantile() {
        let cdf = WearCdf::from_counts_u32(&[0, 1, 1, 5]);
        assert_eq!(cdf.quantile(0.25), 0);
        assert_eq!(cdf.quantile(0.75), 1);
        assert_eq!(cdf.quantile(1.0), 5);
    }

    #[test]
    fn word_cdf_restricts_to_range() {
        let mut t = WearTracker::new(64, 8, false);
        for w in 0..4 {
            for _ in 0..w {
                t.record_word_write(w);
            }
        }
        // Words 0..4 have counts 0,1,2,3; restrict to bytes [8,32) -> words 1..4
        let cdf = t.word_cdf(8, 24);
        assert_eq!(cdf.population, 3);
        assert_eq!(cdf.max(), 3);
        assert!((cdf.probability_le(1) - (1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_counters() {
        let mut t = WearTracker::new(64, 8, true);
        t.record_word_write(1);
        t.record_bit_flip(0, 0);
        t.reset();
        assert_eq!(t.max_word_writes(), 0);
        assert!(t.bit_flips().unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn merged_cdf_equals_cdf_of_concatenated_counts() {
        let a = [0u32, 1, 1, 5];
        let b = [2u32, 2, 0];
        let merged = WearCdf::from_counts_u32(&a).merge(&WearCdf::from_counts_u32(&b));
        let concat: Vec<u32> = a.iter().chain(&b).copied().collect();
        assert_eq!(merged, WearCdf::from_counts_u32(&concat));
        // Merging with an empty population is the identity.
        let empty = WearCdf::from_counts_u32(&[]);
        assert_eq!(empty.merge(&empty).population, 0);
        assert_eq!(
            WearCdf::from_counts_u32(&a).merge(&empty),
            WearCdf::from_counts_u32(&a)
        );
    }

    #[test]
    fn absorb_sums_counters_elementwise() {
        let mut a = WearTracker::new(32, 8, true);
        a.record_word_write(0);
        a.record_bit_flip(0, 1);
        let mut b = WearTracker::new(32, 8, true);
        b.record_word_write(0);
        b.record_word_write(2);
        b.record_bit_flip(0, 1);
        a.absorb(&b);
        assert_eq!(a.word_writes()[0], 2);
        assert_eq!(a.word_writes()[2], 1);
        assert_eq!(a.bit_flips().unwrap()[1], 2);
    }

    #[test]
    fn cdf_of_empty_population() {
        let cdf = WearCdf::from_counts_u32(&[]);
        assert_eq!(cdf.population, 0);
        assert_eq!(cdf.max(), 0);
        assert_eq!(cdf.probability_le(3), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        /// A wear CDF is a valid distribution function: monotone
        /// non-decreasing and terminating at exactly 1.
        #[test]
        fn cdf_is_a_distribution(counts in proptest::collection::vec(0u32..50, 1..200)) {
            let cdf = WearCdf::from_counts_u32(&counts);
            prop_assert_eq!(cdf.population, counts.len());
            for w in cdf.cumulative.windows(2) {
                prop_assert!(w[1] >= w[0] - 1e-12);
            }
            prop_assert!((cdf.cumulative.last().unwrap() - 1.0).abs() < 1e-9);
            // probability_le at the max is 1; below the min is < 1 or 0.
            prop_assert!((cdf.probability_le(cdf.max()) - 1.0).abs() < 1e-9);
            // Quantiles are inverse-consistent.
            for p in [0.25, 0.5, 0.9] {
                let q = cdf.quantile(p);
                prop_assert!(cdf.probability_le(q) >= p - 1e-9);
            }
        }
    }
}
