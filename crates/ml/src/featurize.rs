//! Bit-vector featurization (§V-A.1).
//!
//! *"In our system, each memory location is encoded as a vector of bits,
//! each of which is used as a feature/dimension."* These helpers map between
//! byte buffers and that representation. On 0/1 features, squared Euclidean
//! distance equals Hamming distance, so K-means on this encoding clusters by
//! exactly the quantity PNW wants to minimize.

use crate::matrix::Matrix;

/// Expands a byte buffer into one `f32` feature per bit (LSB-first within
/// each byte).
pub fn bits_to_features(bytes: &[u8]) -> Vec<f32> {
    let mut out = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for bit in 0..8 {
            out.push(f32::from(b >> bit & 1));
        }
    }
    out
}

/// Writes a byte buffer's bits into a pre-allocated feature slice.
///
/// # Panics
/// Panics if `out.len() != bytes.len() * 8`.
pub fn bits_into_features(bytes: &[u8], out: &mut [f32]) {
    assert_eq!(out.len(), bytes.len() * 8);
    for (i, &b) in bytes.iter().enumerate() {
        for bit in 0..8 {
            out[i * 8 + bit] = f32::from(b >> bit & 1);
        }
    }
}

/// Collapses features back into bytes, thresholding at 0.5 (used to
/// materialize cluster centroids as representative bit patterns).
pub fn features_to_bits(features: &[f32]) -> Vec<u8> {
    let mut out = vec![0u8; features.len().div_ceil(8)];
    for (i, &f) in features.iter().enumerate() {
        if f >= 0.5 {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

/// Featurizes a set of equal-length byte values into a samples × bits
/// matrix — the 2D training tensor of §V-A.1.
pub fn featurize_values<V: AsRef<[u8]>>(values: &[V]) -> Matrix {
    if values.is_empty() {
        return Matrix::zeros(0, 0);
    }
    let bits = values[0].as_ref().len() * 8;
    let mut m = Matrix::zeros(values.len(), bits);
    for (i, v) in values.iter().enumerate() {
        assert_eq!(v.as_ref().len() * 8, bits, "values must share one length");
        bits_into_features(v.as_ref(), m.row_mut(i));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::sq_dist;
    use pnw_nvm_sim_hamming::hamming;

    /// A byte-at-a-time Hamming distance, so this crate stays
    /// dependency-free. The device's `pnw_nvm_sim::device::hamming` is a
    /// pass of its word-diff kernel — the one loop behind a differential
    /// write's flip count — and `tests/equivalence.rs` checks that it
    /// equals `sq_dist` on bits, as this one does here.
    mod pnw_nvm_sim_hamming {
        pub fn hamming(a: &[u8], b: &[u8]) -> u64 {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x ^ y).count_ones() as u64)
                .sum()
        }
    }

    #[test]
    fn roundtrip() {
        let v = [0xA5u8, 0x00, 0xFF, 0x3C];
        assert_eq!(features_to_bits(&bits_to_features(&v)), v);
    }

    #[test]
    fn bit_order_is_lsb_first() {
        let f = bits_to_features(&[0b0000_0001]);
        assert_eq!(f[0], 1.0);
        assert!(f[1..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn sq_dist_equals_hamming_on_bits() {
        let a = [0b1010_1100u8, 0x42];
        let b = [0b0110_1001u8, 0x24];
        let fa = bits_to_features(&a);
        let fb = bits_to_features(&b);
        assert_eq!(sq_dist(&fa, &fb) as u64, hamming(&a, &b));
    }

    #[test]
    fn featurize_values_shape() {
        let m = featurize_values(&[[1u8, 2], [3, 4]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 16);
    }

    #[test]
    fn featurize_empty() {
        let m = featurize_values::<&[u8]>(&[]);
        assert_eq!(m.rows(), 0);
    }

    #[test]
    fn centroid_thresholding() {
        // Fractional centroid rounds to the majority bit.
        let c = [0.9f32, 0.1, 0.5, 0.49];
        assert_eq!(features_to_bits(&c), vec![0b0000_0101]);
    }
}
