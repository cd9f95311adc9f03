//! The readback digest: FNV-1a over bytes, and over a programming
//! image's `f64` bit patterns.
//!
//! Readback verification only works if the host and the substrate
//! digest an image the same way, so both sides call
//! [`couplings_checksum`] from here. The byte-level [`fnv1a`] core also
//! serves the other small digests in the workspace (snapshot-file
//! trailers, the degraded fallback's name seed).

use ndarray::{ArrayView1, ArrayView2};

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a_extend(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

/// 64-bit FNV-1a over raw bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(OFFSET_BASIS, bytes)
}

/// FNV-1a over the little-endian bit patterns of a programming image
/// (`weights` row-major, then `visible_bias`, then `hidden_bias`).
///
/// This is the host side of readback verification: program the
/// substrate, then compare this digest of the *intended* image against
/// [`crate::Substrate::programmed_checksum`] (the digest of the
/// *realized* couplings, on backends that can read them back). A
/// mismatch is a [`crate::SubstrateFault::Readback`].
pub fn couplings_checksum(
    weights: &ArrayView2<'_, f64>,
    visible_bias: &ArrayView1<'_, f64>,
    hidden_bias: &ArrayView1<'_, f64>,
) -> u64 {
    weights
        .iter()
        .chain(visible_bias.iter())
        .chain(hidden_bias.iter())
        .fold(OFFSET_BASIS, |h, x| {
            fnv1a_extend(h, &x.to_bits().to_le_bytes())
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn couplings_checksum_is_fnv1a_of_the_image_bytes() {
        let w = ndarray::arr2(&[[0.1, -0.2], [0.3, 0.4]]);
        let bv = ndarray::arr1(&[0.5, 0.0]);
        let bh = ndarray::arr1(&[-0.5, 1.0]);
        let bytes: Vec<u8> = w
            .iter()
            .chain(bv.iter())
            .chain(bh.iter())
            .flat_map(|x| x.to_bits().to_le_bytes())
            .collect();
        assert_eq!(
            couplings_checksum(&w.view(), &bv.view(), &bh.view()),
            fnv1a(&bytes)
        );
    }
}
