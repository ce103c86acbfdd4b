//! Input generation: the seeded RNG, the Zipf key sampler and the
//! self-validating value codecs. Everything a store sees is produced here
//! from `--seed`; the same seed gives the same bytes.
//!
//! The RNG is the benchmark's own (SplitMix64) rather than the workspace's
//! vendored `rand`, so a change to that shim cannot silently change the
//! benchmark's inputs.

use pnw_workloads::{ImageStyle, TemplateImages, Workload};

/// SplitMix64: tiny, fast, and a pure function of its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Exponential with the given mean (inter-arrival gaps of a Poisson
    /// process).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.next_f64()).ln()
    }
}

/// The SplitMix64 finalizer, also used as the codecs' hash.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipfian rank sampler over `0..n` by inverted CDF, `p(rank) ∝
/// 1/(rank+1)^theta` — the same construction as the repository's throughput
/// harness, so skew means the same thing in both.
#[derive(Debug, Clone)]
pub struct Zipf {
    cum: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0, "empty key space");
        let mut cum = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(theta);
            cum.push(acc);
        }
        for c in &mut cum {
            *c /= acc;
        }
        Zipf { cum }
    }

    /// Rank for a uniform draw `u` in `[0, 1)`; 0 is the most popular.
    pub fn rank(&self, u: f64) -> u64 {
        self.cum.partition_point(|&c| c < u).min(self.cum.len() - 1) as u64
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        self.rank(rng.next_f64())
    }
}

/// Maps a popularity rank to a key so hot keys land on unrelated shards and
/// buckets: a bijection on `0..n` (multiplication by a prime larger than any
/// key count used here, plus a seed-derived offset, modulo `n`).
pub fn scatter(rank: u64, n: u64, seed: u64) -> u64 {
    const PRIME: u128 = 0x9E37_79B1; // 2 654 435 761
    ((rank as u128 * PRIME + (mix64(seed) % n) as u128) % n as u128) as u64
}

/// In an op ring entry, the bit that marks a PUT; the rest is the key.
pub const PUT_BIT: u32 = 1 << 31;

/// A ring of `len` ops: Zipf-popular scattered keys, each a PUT with
/// probability `put_share`. Workloads walk it cyclically; values carry a
/// growing version, so a second lap writes different bytes.
pub fn op_ring(zipf: &Zipf, n_keys: u64, len: usize, put_share: f64, seed: u64) -> Vec<u32> {
    assert!(n_keys < PUT_BIT as u64);
    let mut rng = Rng::new(seed);
    (0..len)
        .map(|_| {
            let key = scatter(zipf.sample(&mut rng), n_keys, seed) as u32;
            if rng.next_f64() < put_share {
                key | PUT_BIT
            } else {
                key
            }
        })
        .collect()
}

/// The four fill bytes of the pattern family (as the repository's throughput
/// harness): structure for K-means to steer by.
const FILLS: [u8; 4] = [0x00, 0xFF, 0x0F, 0xAA];

/// Bytes at the end of an image value that carry key, version and check.
const IMAGE_TRAILER: usize = 16;

/// Seed of the image templates: the dataset, which does not vary with
/// `--seed` (a different dataset per seed would make runs of different seeds
/// different workloads).
pub const IMAGE_DATASET: u64 = 0x4D4E_4953_5400;

/// Builds and checks self-validating values: every value names the key and
/// version it was written for and carries a check over them, so a GET can be
/// verified from the returned bytes alone — no lock-step oracle beside the
/// store.
pub enum Codec {
    /// 64-byte-style values: a fill byte chosen by `key % 4`, then an 8-byte
    /// tail of version and check. The key is bound by the fill and the check.
    Pattern { seed: u64 },
    /// Image values (784 B): a body drawn from a seeded pool of
    /// `TemplateImages` samples — style picked by `version % 2` (0 = Digits,
    /// 1 = Fashion), image by a hash of the key — then a 16-byte trailer of
    /// key, version and check.
    Images { seed: u64, pools: [Vec<Vec<u8>>; 2] },
}

impl Codec {
    pub fn pattern(seed: u64) -> Codec {
        Codec::Pattern { seed }
    }

    /// Renders `per_style` samples of each style from the workloads crate.
    /// The class templates are a fixed dataset, as MNIST is; the seed picks
    /// which samples of it are drawn.
    pub fn images(seed: u64, per_style: usize) -> Codec {
        let pool = |style| {
            let mut w = TemplateImages::new(style, IMAGE_DATASET).with_stream_seed(seed);
            (0..per_style).map(|_| w.next_value()).collect::<Vec<_>>()
        };
        Codec::Images {
            seed,
            pools: [pool(ImageStyle::Digits), pool(ImageStyle::Fashion)],
        }
    }

    fn check(seed: u64, key: u64, version: u32) -> u32 {
        (mix64(seed ^ mix64(key) ^ ((version as u64) << 32)) >> 32) as u32
    }

    /// Writes the value for `(key, version)` into `buf` (whole buffer).
    pub fn fill(&self, key: u64, version: u32, buf: &mut [u8]) {
        match self {
            Codec::Pattern { seed } => {
                let tail = buf.len() - 8;
                buf[..tail].fill(FILLS[(key % 4) as usize]);
                buf[tail..tail + 4].copy_from_slice(&version.to_le_bytes());
                buf[tail + 4..].copy_from_slice(&Self::check(*seed, key, version).to_le_bytes());
            }
            Codec::Images { seed, pools } => {
                let pool = &pools[(version % 2) as usize];
                let body = buf.len() - IMAGE_TRAILER;
                let img = &pool[(mix64(key ^ *seed) % pool.len() as u64) as usize];
                buf[..body].copy_from_slice(&img[..body]);
                buf[body..body + 8].copy_from_slice(&key.to_le_bytes());
                buf[body + 8..body + 12].copy_from_slice(&version.to_le_bytes());
                buf[body + 12..].copy_from_slice(&Self::check(*seed, key, version).to_le_bytes());
            }
        }
    }

    /// Checks that `buf` is a value this codec wrote for `key`; returns the
    /// version it carries, or `None` if any byte is wrong.
    pub fn verify(&self, key: u64, buf: &[u8]) -> Option<u32> {
        let le32 = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4 bytes"));
        match self {
            Codec::Pattern { seed } => {
                let tail = buf.len().checked_sub(8)?;
                let version = le32(&buf[tail..tail + 4]);
                let fill = FILLS[(key % 4) as usize];
                (buf[..tail].iter().all(|&b| b == fill)
                    && le32(&buf[tail + 4..]) == Self::check(*seed, key, version))
                .then_some(version)
            }
            Codec::Images { seed, pools } => {
                let body = buf.len().checked_sub(IMAGE_TRAILER)?;
                let version = le32(&buf[body + 8..body + 12]);
                let pool = &pools[(version % 2) as usize];
                let img = &pool[(mix64(key ^ *seed) % pool.len() as u64) as usize];
                (buf[body..body + 8] == key.to_le_bytes()
                    && le32(&buf[body + 12..]) == Self::check(*seed, key, version)
                    && buf[..body] == img[..body])
                    .then_some(version)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_pure_function_of_its_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(11), draw(11));
        assert_ne!(draw(11), draw(29));
        let mut r = Rng::new(3);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
            assert!(r.exponential(2.0) >= 0.0);
        }
    }

    #[test]
    fn zipf_is_deterministic_skewed_and_in_range() {
        let z = Zipf::new(1000, 0.99);
        let ring = |seed| op_ring(&z, 1000, 20_000, 0.05, seed);
        assert_eq!(ring(11), ring(11));
        assert_ne!(ring(11), ring(29));
        let mut hits = vec![0u32; 1000];
        let mut rng = Rng::new(1);
        for _ in 0..100_000 {
            hits[z.sample(&mut rng) as usize] += 1;
        }
        // Rank 0 draws ~1/H(1000, 0.99) ≈ 13% of samples; the tail far less.
        assert!(
            hits[0] > 10_000 && hits[0] < 16_000,
            "rank 0 drew {}",
            hits[0]
        );
        assert!(hits[999] < 100);
        assert_eq!(z.rank(0.0), 0);
        assert_eq!(z.rank(0.999_999_999_9), 999);
        let puts = ring(11).iter().filter(|&&op| op & PUT_BIT != 0).count();
        assert!((700..1300).contains(&puts), "5% of 20 000 ops, got {puts}");
        assert!(ring(11).iter().all(|&op| (op & !PUT_BIT) < 1000));
    }

    #[test]
    fn scatter_is_a_bijection() {
        for n in [1u64, 7, 163, 16_384] {
            let mut seen = vec![false; n as usize];
            for r in 0..n {
                let k = scatter(r, n, 11) as usize;
                assert!(!seen[k], "n={n}: key {k} hit twice");
                seen[k] = true;
            }
        }
    }

    #[test]
    fn codecs_round_trip_and_catch_every_kind_of_damage() {
        for (codec, size) in [(Codec::pattern(11), 64), (Codec::images(11, 8), 784)] {
            let mut a = vec![0u8; size];
            let mut b = vec![0u8; size];
            codec.fill(42, 7, &mut a);
            codec.fill(42, 7, &mut b);
            assert_eq!(a, b, "same (key, version) must give the same bytes");
            assert_eq!(codec.verify(42, &a), Some(7));
            assert_eq!(
                codec.verify(43, &a),
                None,
                "another key's value must not verify"
            );
            codec.fill(42, 8, &mut b);
            assert_ne!(a, b, "a new version must change the bytes");
            assert_eq!(codec.verify(42, &b), Some(8));
            for flip in [0, size / 2, size - 1] {
                let mut c = a.clone();
                c[flip] ^= 0x10;
                assert_eq!(
                    codec.verify(42, &c),
                    None,
                    "flip at byte {flip} went unseen"
                );
            }
        }
    }

    #[test]
    fn codecs_depend_on_the_seed() {
        let (mut a, mut b) = (vec![0u8; 64], vec![0u8; 64]);
        Codec::pattern(11).fill(5, 1, &mut a);
        Codec::pattern(29).fill(5, 1, &mut b);
        assert_ne!(a, b);
        assert_eq!(Codec::pattern(29).verify(5, &a), None);
        let (mut a, mut b) = (vec![0u8; 784], vec![0u8; 784]);
        Codec::images(11, 4).fill(5, 0, &mut a);
        Codec::images(29, 4).fill(5, 0, &mut b);
        assert_ne!(a, b);
    }
}
