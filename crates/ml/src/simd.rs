//! Vectorized inner kernels for the packed bit-domain paths.
//!
//! Three kernels dominate prediction and training: the integer word-dot
//! scorer of [`crate::pca::FoldedPredictor`] (each 64-bit value word
//! against K rows of 64 `i8` weights, `word_dot`) — every model's
//! prediction and the packed training set's assignment step — the
//! per-set-bit f32 accumulation behind [`crate::pca::BitProjector`] (one
//! stripe add per set value *bit*; training's projections only), and `u64`
//! popcounts. All are vectorized here with `std::arch::x86_64` intrinsics
//! behind **runtime** feature detection — the workspace stays
//! dependency-free and portable, and every dispatch falls back to the
//! scalar reference on non-x86 targets or older CPUs.
//!
//! **Bit-for-bit contract:** the per-bit float kernel performs, per output
//! lane, exactly the same sequence of f32 additions as its scalar reference
//! — four chains filled in a fixed rotation and combined in a fixed order —
//! so SIMD and scalar results are identical to the last bit (property-tested
//! below). The word-dot scorer and the popcounts are integer and exact by
//! construction: every compiled path returns the same sums, whatever order
//! it adds them in.

/// Whether this CPU runs a vectorized compilation (AVX2 or wider) of the
/// word-dot scorer and the per-bit kernel. `false` means every call takes
/// the portable path.
pub fn simd_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Independent partial sums per output lane in the per-bit kernel. One
/// chain would cost a dependent f32 add (~4 cycles) per set bit; four
/// chains keep the adders busy instead of waiting on each other.
pub(crate) const BIT_PARTIALS: usize = 4;

/// The value bytes as little-endian `u64` words, the tail zero-padded — bit
/// `j` of word `w` is bit-feature `64·w + j` (LSB-first within each byte,
/// as [`crate::featurize::bits_to_features`] numbers them).
#[inline(always)]
fn le_words(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    let chunks = bytes.chunks_exact(8);
    let rest = chunks.remainder();
    let mut pad = [0u8; 8];
    pad[..rest.len()].copy_from_slice(rest);
    chunks
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
        .chain((!rest.is_empty()).then(|| u64::from_le_bytes(pad)))
}

/// Scalar reference for the per-set-bit accumulation: for every set bit
/// `j` of `bytes`, adds row `j` of `table` (`lanes` floats per bit) into
/// `out`, which holds a running sum (the affine map's constant term) on
/// entry. Only the first `out.len() <= lanes` lanes are produced.
///
/// Summation order, per lane — the contract the SIMD kernel reproduces:
/// within each `u64` word the set bits are visited in ascending order and
/// the i-th one goes to partial sum `i % BIT_PARTIALS`; at the end
/// `out += (p0 + p1) + (p2 + p3)`.
pub(crate) fn bit_accumulate_scalar(table: &[f32], lanes: usize, bytes: &[u8], out: &mut [f32]) {
    // Eight lanes at a time so the partial sums live on the stack; lanes
    // never interact, so the blocking does not change any result.
    for (block, out) in out.chunks_mut(8).enumerate() {
        let mut p = [[0.0f32; 8]; BIT_PARTIALS];
        for (wi, mut w) in le_words(bytes).enumerate() {
            let mut turn = 0;
            while w != 0 {
                let row = (wi * 64 + w.trailing_zeros() as usize) * lanes + block * 8;
                w &= w - 1;
                for (acc, &x) in p[turn].iter_mut().zip(&table[row..row + out.len()]) {
                    *acc += x;
                }
                turn = (turn + 1) % BIT_PARTIALS;
            }
        }
        for (l, o) in out.iter_mut().enumerate() {
            *o += (p[0][l] + p[1][l]) + (p[2][l] + p[3][l]);
        }
    }
}

/// Per-set-bit accumulation with runtime SIMD dispatch. Semantically (and
/// bit-for-bit) identical to [`bit_accumulate_scalar`]. The AVX2 kernel
/// needs rows padded to a multiple of 8 lanes; any other `lanes` takes the
/// scalar path.
///
/// # Panics
/// Panics if `out.len() > lanes` or `table` holds fewer than
/// `bytes.len() * 8 * lanes` floats.
#[inline]
pub(crate) fn bit_accumulate(table: &[f32], lanes: usize, bytes: &[u8], out: &mut [f32]) {
    assert!(out.len() <= lanes, "more outputs than table lanes");
    assert!(
        table.len() >= bytes.len() * 8 * lanes,
        "per-bit table shorter than the value"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if lanes.is_multiple_of(8) && std::arch::is_x86_feature_detected!("avx2") {
            // Up to 32 lanes (4 registers × BIT_PARTIALS = all 16 ymm) per
            // pass over the bits; wider tables take several passes.
            let mut first = 0;
            while first < out.len() {
                let n = ((lanes - first) / 8).min(4);
                let end = out.len().min(first + 8 * n);
                let out = &mut out[first..end];
                // SAFETY: AVX2 confirmed at runtime. Every set bit of the
                // (zero-padded) words indexes a row below `bytes.len() * 8`
                // and the kernel reads lanes `first..first + 8n <= lanes` of
                // it — inside `table` by the assert above.
                unsafe {
                    match n {
                        1 => bit_accumulate_avx2::<1>(table, lanes, first, bytes, out),
                        2 => bit_accumulate_avx2::<2>(table, lanes, first, bytes, out),
                        3 => bit_accumulate_avx2::<3>(table, lanes, first, bytes, out),
                        _ => bit_accumulate_avx2::<4>(table, lanes, first, bytes, out),
                    }
                }
                first = end;
            }
            return;
        }
    }
    bit_accumulate_scalar(table, lanes, bytes, out);
}

/// AVX2 per-bit kernel over lanes `first..first + 8N` of each row: `N`
/// registers per partial sum, [`BIT_PARTIALS`] partial sums, the same
/// rotation and combine order as [`bit_accumulate_scalar`].
///
/// # Safety
/// Caller must verify AVX2 at runtime; `table` must hold
/// `bytes.len() * 8 * lanes` floats, `first + 8 * N <= lanes` and
/// `out.len() <= 8 * N`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn bit_accumulate_avx2<const N: usize>(
    table: &[f32],
    lanes: usize,
    first: usize,
    bytes: &[u8],
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    unsafe {
        let mut acc = [[_mm256_setzero_ps(); N]; BIT_PARTIALS];
        for (wi, mut w) in le_words(bytes).enumerate() {
            let word = table.as_ptr().add(wi * 64 * lanes + first);
            while w != 0 {
                for p in &mut acc {
                    let row = word.add(w.trailing_zeros() as usize * lanes);
                    w &= w - 1;
                    for (i, a) in p.iter_mut().enumerate() {
                        *a = _mm256_add_ps(*a, _mm256_loadu_ps(row.add(i * 8)));
                    }
                    if w == 0 {
                        break;
                    }
                }
            }
        }
        let mut sums = [[0.0f32; 8]; N];
        for (i, s) in sums.iter_mut().enumerate() {
            let sum = _mm256_add_ps(
                _mm256_add_ps(acc[0][i], acc[1][i]),
                _mm256_add_ps(acc[2][i], acc[3][i]),
            );
            _mm256_storeu_ps(s.as_mut_ptr(), sum);
        }
        for (o, s) in out.iter_mut().zip(sums.iter().flatten()) {
            *o += s;
        }
    }
}

/// Weights per row of the word-dot table: one `i8` per bit of a value word.
pub(crate) const WORD_BITS: usize = 64;

/// Adds, for each cluster `first + i`, the dot product of the value's bits
/// with that cluster's weights into `out[i]`, which holds a running sum (the
/// cluster's bias) on entry.
///
/// The value is read as little-endian `u64` words, the tail zero-padded;
/// bit `j` of word `w` weighs `table[(w·k + c)·64 + j]` for cluster `c`, so
/// a word's K rows are contiguous (word-major). Each word becomes 64 bytes
/// of 0/1 and meets each row in one `u8 × i8` dot product, so the cost is
/// words × clusters whatever the value's content.
///
/// **Exact, on every path**, while no sum leaves `i32`: a cluster's result
/// and every partial sum of it lie within `|out[i]| + 127 · 8 · bytes.len()`
/// of zero, so `|out[i]| ≤ i32::MAX − 1016 · bytes.len()` on entry is
/// enough (the SIMD steps' 16-bit intermediates hold at most ±508).
///
/// # Panics
/// Panics if `first + out.len() > k` or `table` holds fewer than
/// `bytes.len().div_ceil(8) · k · 64` weights.
#[inline]
pub(crate) fn word_dot(table: &[i8], k: usize, first: usize, bytes: &[u8], out: &mut [i32]) {
    word_dot_with(DotKernel::detect(), table, k, first, bytes, out);
}

/// [`word_dot`] on the given compilation of the word loop.
#[inline]
fn word_dot_with(
    kernel: DotKernel,
    table: &[i8],
    k: usize,
    first: usize,
    bytes: &[u8],
    out: &mut [i32],
) {
    assert!(
        first.checked_add(out.len()).is_some_and(|end| end <= k),
        "clusters past the table's K"
    );
    let words = bytes.len().div_ceil(8);
    let weights = words
        .checked_mul(k)
        .and_then(|rows| rows.checked_mul(WORD_BITS));
    assert!(
        weights.is_some_and(|n| table.len() >= n),
        "word table shorter than the value"
    );
    match kernel {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: only `detect` and `available` make `Vnni`, once they found
        // the features; the table bounds are asserted above.
        DotKernel::Vnni => unsafe { word_dot_vnni(table, k, first, bytes, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as for `Vnni`, with AVX2.
        DotKernel::Avx2 => unsafe { word_dot_avx2(table, k, first, bytes, out) },
        _ => word_dot_portable(table, k, first, bytes, out),
    }
}

/// Which compilation of the word loop ([`word_dot`]) runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DotKernel {
    /// AVX-512BW + VNNI: a masked byte move expands a word, one `vpdpbusd`
    /// per cluster.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Vnni,
    /// AVX2: a shuffle, AND and min expand a word, `vpmaddubsw` +
    /// `vpmaddwd` per cluster.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Avx2,
    /// The portable reference.
    Scalar,
}

impl DotKernel {
    /// The fastest compilation this CPU runs.
    #[inline]
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512bw")
                && std::arch::is_x86_feature_detected!("avx512vnni")
            {
                return DotKernel::Vnni;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return DotKernel::Avx2;
            }
        }
        DotKernel::Scalar
    }

    /// Every compilation this CPU runs, the reference first.
    #[cfg(test)]
    fn available() -> Vec<Self> {
        let mut all = vec![DotKernel::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                all.push(DotKernel::Avx2);
            }
            if DotKernel::detect() == DotKernel::Vnni {
                all.push(DotKernel::Vnni);
            }
        }
        all
    }
}

/// One compilation's per-word step: how a value word becomes 64 bytes of
/// 0/1, and how one cluster's row of 64 weights is dotted with them.
trait WordStep {
    /// A word's bits, expanded.
    type Bits: Copy;
    /// One cluster's running sum.
    type Acc: Copy;
    /// Most clusters one pass over the words scores: as many running sums
    /// as the registers hold.
    const BLOCK: usize;

    /// # Safety
    /// The CPU runs this step's instructions.
    unsafe fn zero() -> Self::Acc;

    /// # Safety
    /// As for [`WordStep::zero`].
    unsafe fn expand(word: u64) -> Self::Bits;

    /// `acc + Σ_b bits[b] · row[b]`.
    ///
    /// # Safety
    /// As for [`WordStep::zero`], and `row` points at 64 readable weights.
    unsafe fn dot(acc: Self::Acc, bits: Self::Bits, row: *const i8) -> Self::Acc;

    /// # Safety
    /// As for [`WordStep::zero`].
    unsafe fn sum(acc: Self::Acc) -> i32;
}

/// The one word loop: every cluster of `out` (from `first` on) in passes of
/// at most `S::BLOCK`, each pass one walk over the value's words.
///
/// # Safety
/// The CPU runs `S`'s instructions; `first + out.len() <= k` and `table`
/// holds `bytes.len().div_ceil(8) · k · 64` weights.
#[inline(always)]
unsafe fn word_loop<S: WordStep>(
    table: &[i8],
    k: usize,
    first: usize,
    bytes: &[u8],
    out: &mut [i32],
) {
    // Equal-sized passes: K = 17 on 16 registers is 9 + 8, not 16 + 1.
    let passes = out.len().div_ceil(S::BLOCK);
    let mut done = 0;
    for pass in 0..passes {
        let n = (out.len() - done).div_ceil(passes - pass);
        let (out, first) = (&mut out[done..done + n], first + done);
        macro_rules! pass {
            ($($size:literal)+) => {
                match n {
                    $($size => unsafe { word_pass::<S, $size>(table, k, first, bytes, out) },)+
                    _ => unreachable!("a pass scores 1 to 16 clusters"),
                }
            };
        }
        pass!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16);
        done += n;
    }
}

/// One pass of [`word_loop`]: `N` running sums, one per cluster of `out`.
///
/// # Safety
/// As for [`word_loop`], with `out.len() == N`.
#[inline(always)]
unsafe fn word_pass<S: WordStep, const N: usize>(
    table: &[i8],
    k: usize,
    first: usize,
    bytes: &[u8],
    out: &mut [i32],
) {
    unsafe {
        let mut acc = [S::zero(); N];
        for (w, word) in le_words(bytes).enumerate() {
            let bits = S::expand(word);
            let rows = table.as_ptr().add((w * k + first) * WORD_BITS);
            for (n, a) in acc.iter_mut().enumerate() {
                *a = S::dot(*a, bits, rows.add(n * WORD_BITS));
            }
        }
        for (o, a) in out.iter_mut().zip(acc) {
            *o += S::sum(a);
        }
    }
}

/// The portable step: a word's bits are shifted out one weight at a time.
struct Portable;

impl WordStep for Portable {
    type Bits = u64;
    type Acc = i32;
    const BLOCK: usize = 16;

    #[inline(always)]
    unsafe fn zero() -> i32 {
        0
    }

    #[inline(always)]
    unsafe fn expand(word: u64) -> u64 {
        word
    }

    #[inline(always)]
    unsafe fn dot(acc: i32, bits: u64, row: *const i8) -> i32 {
        // SAFETY: the caller's contract.
        let row = unsafe { std::slice::from_raw_parts(row, WORD_BITS) };
        row.iter().enumerate().fold(acc, |acc, (b, &w)| {
            acc + (bits >> b & 1) as i32 * i32::from(w)
        })
    }

    #[inline(always)]
    unsafe fn sum(acc: i32) -> i32 {
        acc
    }
}

/// [`word_loop`] compiled for the baseline target.
#[inline(never)]
fn word_dot_portable(table: &[i8], k: usize, first: usize, bytes: &[u8], out: &mut [i32]) {
    // SAFETY: the portable step runs anywhere; `word_dot_with` checked the
    // bounds.
    unsafe { word_loop::<Portable>(table, k, first, bytes, out) }
}

/// The AVX2 step: each 32-bit half of a word is broadcast, shuffled so
/// byte `i` holds the half's byte `i / 8`, masked to bit `i % 8` and
/// clamped to 0/1; `vpmaddubsw` sums the 0/1 × weight products in pairs
/// (±254 at most, so no 16-bit saturation), and `vpmaddwd` widens them.
#[cfg(target_arch = "x86_64")]
struct Avx2;

#[cfg(target_arch = "x86_64")]
impl WordStep for Avx2 {
    type Bits = [std::arch::x86_64::__m256i; 2];
    type Acc = std::arch::x86_64::__m256i;
    // Eight running sums, the two halves, the constant and temporaries fill
    // the 16 ymm registers.
    const BLOCK: usize = 8;

    #[inline(always)]
    unsafe fn zero() -> Self::Acc {
        unsafe { std::arch::x86_64::_mm256_setzero_si256() }
    }

    #[inline(always)]
    unsafe fn expand(word: u64) -> Self::Bits {
        use std::arch::x86_64::*;
        unsafe {
            #[rustfmt::skip]
            let spread = _mm256_setr_epi8(
                0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1,
                2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3,
            );
            let select = _mm256_set1_epi64x(0x8040_2010_0804_0201u64 as i64);
            let one = _mm256_set1_epi8(1);
            let half = |bits: u32| {
                let bytes = _mm256_shuffle_epi8(_mm256_set1_epi32(bits as i32), spread);
                _mm256_min_epu8(_mm256_and_si256(bytes, select), one)
            };
            [half(word as u32), half((word >> 32) as u32)]
        }
    }

    #[inline(always)]
    unsafe fn dot(acc: Self::Acc, bits: Self::Bits, row: *const i8) -> Self::Acc {
        use std::arch::x86_64::*;
        unsafe {
            let lo = _mm256_maddubs_epi16(bits[0], _mm256_loadu_si256(row.cast()));
            let hi = _mm256_maddubs_epi16(bits[1], _mm256_loadu_si256(row.add(32).cast()));
            let pairs = _mm256_add_epi16(lo, hi);
            _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, _mm256_set1_epi16(1)))
        }
    }

    #[inline(always)]
    unsafe fn sum(acc: Self::Acc) -> i32 {
        use std::arch::x86_64::*;
        unsafe {
            let x = _mm_add_epi32(
                _mm256_castsi256_si128(acc),
                _mm256_extracti128_si256::<1>(acc),
            );
            let x = _mm_add_epi32(x, _mm_shuffle_epi32::<0b01_00_11_10>(x));
            let x = _mm_add_epi32(x, _mm_shuffle_epi32::<0b10_11_00_01>(x));
            _mm_cvtsi128_si32(x)
        }
    }
}

/// [`word_loop`] compiled with AVX2.
///
/// # Safety
/// The CPU must support AVX2, and the bounds of [`word_loop`] hold.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn word_dot_avx2(table: &[i8], k: usize, first: usize, bytes: &[u8], out: &mut [i32]) {
    unsafe { word_loop::<Avx2>(table, k, first, bytes, out) }
}

/// The AVX-512 step: the word is the byte mask of one masked move of
/// 64 ones, and `vpdpbusd` adds the 0/1 × weight products four at a time
/// into 16 `i32` lanes.
#[cfg(target_arch = "x86_64")]
struct Vnni;

#[cfg(target_arch = "x86_64")]
impl WordStep for Vnni {
    type Bits = std::arch::x86_64::__m512i;
    type Acc = std::arch::x86_64::__m512i;
    // Sixteen running sums leave half the 32 zmm registers free.
    const BLOCK: usize = 16;

    #[inline(always)]
    unsafe fn zero() -> Self::Acc {
        unsafe { std::arch::x86_64::_mm512_setzero_si512() }
    }

    #[inline(always)]
    unsafe fn expand(word: u64) -> Self::Bits {
        use std::arch::x86_64::*;
        unsafe { _mm512_maskz_mov_epi8(word, _mm512_set1_epi8(1)) }
    }

    #[inline(always)]
    unsafe fn dot(acc: Self::Acc, bits: Self::Bits, row: *const i8) -> Self::Acc {
        use std::arch::x86_64::*;
        unsafe { _mm512_dpbusd_epi32(acc, bits, _mm512_loadu_si512(row.cast())) }
    }

    #[inline(always)]
    unsafe fn sum(acc: Self::Acc) -> i32 {
        unsafe { std::arch::x86_64::_mm512_reduce_add_epi32(acc) }
    }
}

/// [`word_loop`] compiled with AVX-512BW and VNNI.
///
/// # Safety
/// The CPU must support both, and the bounds of [`word_loop`] hold.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512bw,avx512vnni")]
unsafe fn word_dot_vnni(table: &[i8], k: usize, first: usize, bytes: &[u8], out: &mut [i32]) {
    unsafe { word_loop::<Vnni>(table, k, first, bytes, out) }
}

#[inline(always)]
fn popcount_words_impl(words: &[u64]) -> u64 {
    // u64×8 unrolled with four independent accumulators: breaks the add
    // dependency chain so the popcounts pipeline.
    let mut c = [0u64; 4];
    let mut chunks = words.chunks_exact(8);
    for ch in &mut chunks {
        c[0] += (ch[0].count_ones() + ch[1].count_ones()) as u64;
        c[1] += (ch[2].count_ones() + ch[3].count_ones()) as u64;
        c[2] += (ch[4].count_ones() + ch[5].count_ones()) as u64;
        c[3] += (ch[6].count_ones() + ch[7].count_ones()) as u64;
    }
    let mut total = c[0] + c[1] + c[2] + c[3];
    for &w in chunks.remainder() {
        total += w.count_ones() as u64;
    }
    total
}

/// Popcount-instruction variant: `count_ones` lowers to a real `popcnt`
/// only when the feature is enabled for the function body.
///
/// # Safety
/// Caller must verify `popcnt` support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn popcount_words_popcnt(words: &[u64]) -> u64 {
    popcount_words_impl(words)
}

/// Total population count of a `u64` slice (exact; u64×8 unrolled, with a
/// hardware-`popcnt` path selected at runtime on x86_64).
#[inline]
pub fn popcount_words(words: &[u64]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("popcnt") {
            // SAFETY: feature checked the line above.
            return unsafe { popcount_words_popcnt(words) };
        }
    }
    popcount_words_impl(words)
}

#[inline(always)]
fn popcount_bytes_impl(bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    let mut total = 0u64;
    for c in &mut chunks {
        total += u64::from_le_bytes(c.try_into().unwrap()).count_ones() as u64;
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut pad = [0u8; 8];
        pad[..rest.len()].copy_from_slice(rest);
        total += u64::from_le_bytes(pad).count_ones() as u64;
    }
    total
}

/// Popcount-instruction variant of the byte kernel.
///
/// # Safety
/// Caller must verify `popcnt` support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn popcount_bytes_popcnt(bytes: &[u8]) -> u64 {
    popcount_bytes_impl(bytes)
}

/// Total population count of a byte slice (exact; eight bytes per word,
/// hardware `popcnt` selected at runtime on x86_64).
#[inline]
pub fn popcount_bytes(bytes: &[u8]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("popcnt") {
            // SAFETY: feature checked the line above.
            return unsafe { popcount_bytes_popcnt(bytes) };
        }
    }
    popcount_bytes_impl(bytes)
}

/// XOR-popcount (Hamming distance) between two equal-length word slices.
#[inline]
pub fn hamming_words(a: &[u64], b: &[u64]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("popcnt") {
            // SAFETY: feature checked the line above.
            return unsafe { hamming_words_popcnt(a, b) };
        }
    }
    hamming_words_impl(a, b)
}

#[inline(always)]
fn hamming_words_impl(a: &[u64], b: &[u64]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x ^ y).count_ones() as u64)
        .sum()
}

/// Hardware-popcnt variant of [`hamming_words`].
///
/// # Safety
/// Caller must verify `popcnt` support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn hamming_words_popcnt(a: &[u64], b: &[u64]) -> u64 {
    hamming_words_impl(a, b)
}

/// AND-popcount (shared set bits — the inner product of two 0/1 vectors)
/// between two equal-length word slices.
#[inline]
pub fn and_popcount_words(a: &[u64], b: &[u64]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("popcnt") {
            // SAFETY: feature checked the line above.
            return unsafe { and_popcount_words_popcnt(a, b) };
        }
    }
    and_popcount_words_impl(a, b)
}

#[inline(always)]
fn and_popcount_words_impl(a: &[u64], b: &[u64]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x & y).count_ones() as u64)
        .sum()
}

/// Hardware-popcnt variant of [`and_popcount_words`].
///
/// # Safety
/// Caller must verify `popcnt` support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn and_popcount_words_popcnt(a: &[u64], b: &[u64]) -> u64 {
    and_popcount_words_impl(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn popcount_words_matches_naive() {
        for len in [0usize, 1, 7, 8, 9, 16, 17, 31] {
            let v: Vec<u64> = (0..len as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect();
            let naive: u64 = v.iter().map(|w| w.count_ones() as u64).sum();
            assert_eq!(popcount_words(&v), naive, "len={len}");
        }
    }

    #[test]
    fn popcount_bytes_matches_naive() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65] {
            let v: Vec<u8> = (0..len).map(|i| (i * 151 + 3) as u8).collect();
            let naive: u64 = v.iter().map(|b| b.count_ones() as u64).sum();
            assert_eq!(popcount_bytes(&v), naive, "len={len}");
        }
    }

    #[test]
    fn hamming_words_matches_naive() {
        let a: Vec<u64> = (0..13u64).map(|i| i.wrapping_mul(0xABCD_EF01)).collect();
        let b: Vec<u64> = (0..13u64).map(|i| i.wrapping_mul(0x1234_5678)).collect();
        let naive: u64 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| (x ^ y).count_ones() as u64)
            .sum();
        assert_eq!(hamming_words(&a, &b), naive);
    }

    #[test]
    fn word_dot_is_exact_at_its_overflow_bound() {
        // Every weight ±127, every bit set, the entry sum at the documented
        // bound: each path lands on ±i32::MAX exactly.
        let kernels = DotKernel::available();
        for bytes in [1usize, 8, 13, 784] {
            let reach = 127 * 8 * bytes as i32;
            for k in [1usize, 17] {
                for sign in [1i8, -1] {
                    let table = vec![127 * sign; bytes.div_ceil(8) * k * WORD_BITS];
                    for &kernel in &kernels {
                        let mut out = vec![(i32::MAX - reach) * i32::from(sign); k];
                        word_dot_with(kernel, &table, k, 0, &vec![0xFF; bytes], &mut out);
                        assert_eq!(
                            out,
                            vec![i32::MAX * i32::from(sign); k],
                            "{kernel:?}, {bytes} B, k={k}"
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Probe values per generated table: 64 cases × 16 = 1 024 probes.
    const PROBES: usize = 16;

    proptest! {
        /// The dispatched per-bit kernel and its scalar reference agree
        /// **bit-for-bit**: value widths with and without a `u64` tail,
        /// every K the store pads differently (1 stays one lane, the rest
        /// round up to whole registers; 33 → 40 lanes takes two passes),
        /// sparse to dense values, and a non-zero running sum on entry.
        #[test]
        fn bit_accumulate_simd_matches_scalar_bit_for_bit(
            seed in 0u64..u64::MAX,
            value_bytes in 1usize..100,
            k in prop_oneof![Just(1usize), Just(3), Just(8), Just(10), Just(16), Just(17), Just(32), Just(33)],
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let lanes = if k == 1 { 1 } else { k.next_multiple_of(8) };
            let table: Vec<f32> = (0..value_bytes * 8 * lanes)
                .map(|_| rng.gen::<f32>() * 2.0 - 1.0)
                .collect();
            let init: Vec<f32> = (0..k).map(|_| rng.gen::<f32>() * 100.0).collect();
            for probe in 0..PROBES {
                // Density sweeps from a few set bits to nearly all of them.
                let keep = (probe + 1) as f32 / (PROBES + 1) as f32;
                let value: Vec<u8> = (0..value_bytes)
                    .map(|_| (0..8).fold(0u8, |b, bit| b | (u8::from(rng.gen::<f32>() < keep) << bit)))
                    .collect();
                let (mut simd, mut scalar) = (init.clone(), init.clone());
                bit_accumulate(&table, lanes, &value, &mut simd);
                bit_accumulate_scalar(&table, lanes, &value, &mut scalar);
                prop_assert_eq!(
                    simd.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                    scalar.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                    "k={} bytes={} probe={}", k, value_bytes, probe
                );
                // And both are the sum they claim to be.
                for (c, &got) in scalar.iter().enumerate() {
                    let want: f64 = f64::from(init[c])
                        + (0..value_bytes * 8)
                            .filter(|j| value[j / 8] >> (j % 8) & 1 == 1)
                            .map(|j| f64::from(table[j * lanes + c]))
                            .sum::<f64>();
                    prop_assert!(
                        (f64::from(got) - want).abs() <= 1e-3 * (1.0 + want.abs()),
                        "lane {}: {} vs {}", c, got, want
                    );
                }
            }
        }
        /// The compilations of the word loop return **equal** sums, each the
        /// `i64` sum it claims to be: value widths with and without a `u64`
        /// tail (the table's weights past the value are not zero, so a tail
        /// bit read as set would show), K from the untrained placeholder's 1
        /// through one pass (3, 10, 16) to two and three passes (17, 33),
        /// sparse to dense values, a running sum on entry, and a cluster
        /// range that starts past 0.
        #[test]
        fn word_dot_paths_are_equal_and_exact(
            seed in 0u64..u64::MAX,
            value_bytes in 1usize..100,
            k in prop_oneof![Just(1usize), Just(3), Just(10), Just(16), Just(17), Just(33)],
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let table: Vec<i8> = (0..value_bytes.div_ceil(8) * k * WORD_BITS)
                .map(|_| rng.gen_range(-127i8..=127))
                .collect();
            let bias: Vec<i32> = (0..k).map(|_| rng.gen_range(-1_000_000i32..1_000_000)).collect();
            let kernels = DotKernel::available();
            for probe in 0..PROBES {
                let keep = (probe + 1) as f32 / (PROBES + 1) as f32;
                let value: Vec<u8> = (0..value_bytes)
                    .map(|_| (0..8).fold(0u8, |b, bit| b | (u8::from(rng.gen::<f32>() < keep) << bit)))
                    .collect();
                let want: Vec<i64> = (0..k)
                    .map(|c| {
                        i64::from(bias[c])
                            + (0..value_bytes * 8)
                                .filter(|j| value[j / 8] >> (j % 8) & 1 == 1)
                                .map(|j| i64::from(table[((j / 64) * k + c) * WORD_BITS + j % 64]))
                                .sum::<i64>()
                    })
                    .collect();
                for &kernel in &kernels {
                    let mut got = bias.clone();
                    word_dot_with(kernel, &table, k, 0, &value, &mut got);
                    prop_assert_eq!(
                        got.iter().map(|&g| i64::from(g)).collect::<Vec<_>>(),
                        want.clone(),
                        "{:?}, k={} bytes={} probe={}", kernel, k, value_bytes, probe
                    );
                    let mut tail = bias[k / 2..].to_vec();
                    word_dot_with(kernel, &table, k, k / 2, &value, &mut tail);
                    prop_assert_eq!(&tail[..], &got[k / 2..], "{:?}, clusters from {}", kernel, k / 2);
                }
            }
        }
    }
}
