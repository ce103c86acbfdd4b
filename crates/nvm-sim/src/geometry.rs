//! Device geometry: word and cache-line layout.
//!
//! The paper charges writes at three granularities (§IV): individual bits
//! ("bit flips"), NVM *words* (the 8-byte unit a differential write modifies)
//! and NVM *lines* (the 64-byte cache line that must be written back).
//! [`Geometry`] centralizes the index arithmetic for all three.

/// Word/line geometry of an emulated NVM device.
///
/// Defaults match the paper's assumed hardware: 8-byte words and 64-byte
/// cache lines (the granularity PCM is written at, per §I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Bytes per NVM word (the unit of a read-modify-write).
    pub word_bytes: usize,
    /// Bytes per cache line (the unit of a line write-back).
    pub line_bytes: usize,
}

impl Default for Geometry {
    fn default() -> Self {
        Geometry {
            word_bytes: 8,
            line_bytes: 64,
        }
    }
}

impl Geometry {
    /// Creates a geometry, validating that the line size is a positive
    /// multiple of the word size.
    ///
    /// # Panics
    /// Panics if `word_bytes == 0` or `line_bytes` is not a multiple of
    /// `word_bytes`.
    pub fn new(word_bytes: usize, line_bytes: usize) -> Self {
        assert!(word_bytes > 0, "word size must be positive");
        assert!(
            line_bytes >= word_bytes && line_bytes.is_multiple_of(word_bytes),
            "line size ({line_bytes}) must be a positive multiple of word size ({word_bytes})"
        );
        Geometry {
            word_bytes,
            line_bytes,
        }
    }

    /// Index of the word containing byte address `addr`.
    #[inline]
    pub fn word_of(&self, addr: usize) -> usize {
        addr / self.word_bytes
    }

    /// Index of the cache line containing byte address `addr`. Under
    /// every write, so a power-of-two line size (every real one) is a
    /// shift, not a division by a value the compiler cannot see.
    #[inline]
    pub fn line_of(&self, addr: usize) -> usize {
        if self.line_bytes.is_power_of_two() {
            addr >> self.line_bytes.trailing_zeros()
        } else {
            addr / self.line_bytes
        }
    }

    /// Number of distinct words overlapped by the byte range `[addr, addr+len)`.
    ///
    /// Returns 0 for an empty range.
    #[inline]
    pub fn words_spanned(&self, addr: usize, len: usize) -> usize {
        span(addr, len, self.word_bytes)
    }

    /// Number of distinct cache lines overlapped by `[addr, addr+len)`.
    #[inline]
    pub fn lines_spanned(&self, addr: usize, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        self.line_of(addr + len - 1) - self.line_of(addr) + 1
    }

    /// Iterator over `(word_index, byte_range)` pairs covering
    /// `[addr, addr+len)`, where each `byte_range` is the sub-range of the
    /// request that falls into that word.
    pub fn words_in(
        &self,
        addr: usize,
        len: usize,
    ) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> + '_ {
        chunks(addr, len, self.word_bytes)
    }

    /// Iterator over `(line_index, byte_range)` pairs covering
    /// `[addr, addr+len)`.
    pub fn lines_in(
        &self,
        addr: usize,
        len: usize,
    ) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> + '_ {
        chunks(addr, len, self.line_bytes)
    }
}

/// Number of aligned `unit`-sized blocks overlapping `[addr, addr+len)`.
#[inline]
fn span(addr: usize, len: usize, unit: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let first = addr / unit;
    let last = (addr + len - 1) / unit;
    last - first + 1
}

/// Yields `(block_index, absolute_byte_range)` for each aligned block
/// overlapping `[addr, addr+len)`.
fn chunks(
    addr: usize,
    len: usize,
    unit: usize,
) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> {
    let end = addr + len;
    let mut cur = addr;
    std::iter::from_fn(move || {
        if cur >= end {
            return None;
        }
        let block = cur / unit;
        let block_end = ((block + 1) * unit).min(end);
        let r = cur..block_end;
        cur = block_end;
        Some((block, r))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_8_byte_words_64_byte_lines() {
        let g = Geometry::default();
        assert_eq!(g.word_bytes, 8);
        assert_eq!(g.line_bytes, 64);
    }

    #[test]
    fn word_and_line_of() {
        let g = Geometry::default();
        assert_eq!(g.word_of(0), 0);
        assert_eq!(g.word_of(7), 0);
        assert_eq!(g.word_of(8), 1);
        assert_eq!(g.line_of(63), 0);
        assert_eq!(g.line_of(64), 1);
    }

    #[test]
    fn words_spanned_handles_unaligned_ranges() {
        let g = Geometry::default();
        assert_eq!(g.words_spanned(0, 8), 1);
        assert_eq!(g.words_spanned(4, 8), 2); // straddles a word boundary
        assert_eq!(g.words_spanned(0, 0), 0);
        assert_eq!(g.words_spanned(7, 2), 2);
        assert_eq!(g.words_spanned(8, 16), 2);
    }

    #[test]
    fn lines_spanned_handles_unaligned_ranges() {
        let g = Geometry::default();
        assert_eq!(g.lines_spanned(0, 64), 1);
        assert_eq!(g.lines_spanned(60, 8), 2);
        assert_eq!(g.lines_spanned(0, 65), 2);
        assert_eq!(g.lines_spanned(128, 1), 1);
    }

    #[test]
    fn words_in_yields_subranges() {
        let g = Geometry::default();
        let parts: Vec<_> = g.words_in(4, 12).collect();
        assert_eq!(parts, vec![(0, 4..8), (1, 8..16)]);
    }

    #[test]
    fn lines_in_yields_subranges() {
        let g = Geometry::default();
        let parts: Vec<_> = g.lines_in(60, 10).collect();
        assert_eq!(parts, vec![(0, 60..64), (1, 64..70)]);
    }

    #[test]
    #[should_panic]
    fn rejects_non_multiple_line_size() {
        Geometry::new(8, 60);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_word() {
        Geometry::new(0, 64);
    }

    #[test]
    fn custom_geometry() {
        let g = Geometry::new(4, 32);
        assert_eq!(g.words_spanned(0, 9), 3);
        assert_eq!(g.lines_spanned(0, 33), 2);
    }

    #[test]
    fn line_math_agrees_off_the_power_of_two_path() {
        let g = Geometry::new(8, 24);
        for addr in 0..100 {
            assert_eq!(g.line_of(addr), addr / 24);
            for len in 0..60 {
                assert_eq!(
                    g.lines_spanned(addr, len),
                    g.lines_in(addr, len).count(),
                    "{addr}+{len}"
                );
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        /// `words_in`/`lines_in` partition the request exactly: sub-ranges
        /// are contiguous, disjoint, cover [addr, addr+len), and their
        /// count equals `*_spanned`.
        #[test]
        fn chunk_iterators_partition_the_range(addr in 0usize..4096, len in 0usize..512) {
            let g = Geometry::default();
            for (spanned, parts) in [
                (g.words_spanned(addr, len), g.words_in(addr, len).collect::<Vec<_>>()),
                (g.lines_spanned(addr, len), g.lines_in(addr, len).collect::<Vec<_>>()),
            ] {
                prop_assert_eq!(parts.len(), spanned);
                let mut cursor = addr;
                for (_, r) in &parts {
                    prop_assert_eq!(r.start, cursor);
                    prop_assert!(r.end > r.start);
                    cursor = r.end;
                }
                if len > 0 {
                    prop_assert_eq!(cursor, addr + len);
                }
            }
        }

        /// Block indices are non-decreasing and strictly increase across
        /// chunk boundaries.
        #[test]
        fn chunk_indices_increase(addr in 0usize..4096, len in 1usize..512) {
            let g = Geometry::default();
            let parts: Vec<_> = g.words_in(addr, len).collect();
            for w in parts.windows(2) {
                prop_assert_eq!(w[0].0 + 1, w[1].0);
            }
        }
    }
}
