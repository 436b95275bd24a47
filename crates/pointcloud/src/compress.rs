//! Quantisation-based point-cloud compression.
//!
//! The paper notes that "further reduction in data size can be attained by
//! leveraging compression techniques [15]" (Draco). Draco is a C++ library;
//! as documented in DESIGN.md we substitute a self-contained codec that
//! exercises the same code path: coordinates are quantised to 16 bits within
//! the cloud's bounding box, giving a 16 → 6 bytes-per-point reduction with
//! a bounded reconstruction error of `extent / 65535` per axis.

use crate::PointCloud;
use erpd_geometry::Vec3;
use std::error::Error;
use std::fmt;

/// Magic bytes identifying the encoded format.
const MAGIC: [u8; 4] = *b"EPC1";
/// Header: magic + point count (u64) + min/max bounds (6 × f64).
const HEADER_BYTES: usize = 4 + 8 + 48;
/// Bytes per encoded point (three u16 coordinates).
pub(crate) const COMPRESSED_POINT_BYTES: usize = 6;

/// Error decoding a compressed cloud.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer is shorter than the fixed header.
    TooShort,
    /// The magic bytes do not match.
    BadMagic,
    /// The payload length disagrees with the declared point count.
    LengthMismatch {
        /// Points declared in the header.
        declared: u64,
        /// Payload bytes actually present.
        payload_bytes: usize,
    },
    /// The header bounds are non-finite or inverted.
    BadBounds,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::TooShort => write!(f, "buffer shorter than header"),
            DecodeError::BadMagic => write!(f, "magic bytes do not match"),
            DecodeError::LengthMismatch {
                declared,
                payload_bytes,
            } => write!(
                f,
                "declared {declared} points but payload has {payload_bytes} bytes"
            ),
            DecodeError::BadBounds => write!(f, "invalid bounds in header"),
        }
    }
}

impl Error for DecodeError {}

/// Encodes a cloud into the quantised wire format.
///
/// # Examples
///
/// ```
/// use erpd_pointcloud::{compress, decompress, PointCloud};
/// use erpd_geometry::Vec3;
///
/// let cloud = PointCloud::from_points(vec![Vec3::new(1.0, 2.0, 3.0)]);
/// let bytes = compress(&cloud);
/// let restored = decompress(&bytes)?;
/// assert_eq!(restored.len(), 1);
/// # Ok::<(), erpd_pointcloud::DecodeError>(())
/// ```
pub fn compress(cloud: &PointCloud) -> Vec<u8> {
    let (min, max) = cloud
        .bounds()
        .unwrap_or((Vec3::ZERO, Vec3::ZERO));
    let mut out = Vec::with_capacity(HEADER_BYTES + cloud.len() * COMPRESSED_POINT_BYTES);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&(cloud.len() as u64).to_le_bytes());
    for v in [min.x, min.y, min.z, max.x, max.y, max.z] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let extent = max - min;
    let quant = |value: f64, lo: f64, ext: f64| -> u16 {
        if ext <= f64::EPSILON {
            0
        } else {
            (((value - lo) / ext).clamp(0.0, 1.0) * 65535.0).round() as u16
        }
    };
    for p in cloud {
        out.extend_from_slice(&quant(p.x, min.x, extent.x).to_le_bytes());
        out.extend_from_slice(&quant(p.y, min.y, extent.y).to_le_bytes());
        out.extend_from_slice(&quant(p.z, min.z, extent.z).to_le_bytes());
    }
    out
}

/// Decodes a cloud from the quantised wire format.
///
/// # Errors
///
/// Returns a [`DecodeError`] when the buffer is truncated, has wrong magic
/// bytes, an inconsistent length, or corrupt bounds.
pub fn decompress(bytes: &[u8]) -> Result<PointCloud, DecodeError> {
    if bytes.len() < HEADER_BYTES {
        return Err(DecodeError::TooShort);
    }
    if bytes[..4] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let n = u64::from_le_bytes(bytes[4..12].try_into().expect("sized slice"));
    let mut bounds = [0.0f64; 6];
    for (i, b) in bounds.iter_mut().enumerate() {
        let off = 12 + i * 8;
        *b = f64::from_le_bytes(bytes[off..off + 8].try_into().expect("sized slice"));
    }
    let (min, max) = (
        Vec3::new(bounds[0], bounds[1], bounds[2]),
        Vec3::new(bounds[3], bounds[4], bounds[5]),
    );
    if !min.is_finite() || !max.is_finite() || max.x < min.x || max.y < min.y || max.z < min.z {
        return Err(DecodeError::BadBounds);
    }
    let payload = &bytes[HEADER_BYTES..];
    let expected = (n as usize).checked_mul(COMPRESSED_POINT_BYTES);
    if expected != Some(payload.len()) {
        return Err(DecodeError::LengthMismatch {
            declared: n,
            payload_bytes: payload.len(),
        });
    }
    // One pass over the payload into exactly sized lanes. The division
    // stays a division: `/ 65535.0` is not a multiply by its reciprocal,
    // and a multiply would move points.
    let extent = max - min;
    let dequant =
        |raw: [u8; 2], lo: f64, ext: f64| lo + f64::from(u16::from_le_bytes(raw)) / 65535.0 * ext;
    let n = payload.len() / COMPRESSED_POINT_BYTES;
    let (mut xs, mut ys, mut zs) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let lanes = xs.iter_mut().zip(&mut ys).zip(&mut zs);
    for (((x, y), z), c) in lanes.zip(payload.chunks_exact(COMPRESSED_POINT_BYTES)) {
        *x = dequant([c[0], c[1]], min.x, extent.x);
        *y = dequant([c[2], c[3]], min.y, extent.y);
        *z = dequant([c[4], c[5]], min.z, extent.z);
    }
    Ok(PointCloud::with_folded_bounds(xs, ys, zs))
}

/// Worst-case per-axis reconstruction error for a cloud, in metres.
pub fn max_quantization_error(cloud: &PointCloud) -> f64 {
    match cloud.bounds() {
        None => 0.0,
        Some((min, max)) => {
            let e = max - min;
            e.x.max(e.y).max(e.z) / 65535.0 / 2.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PointCloudMerger;
    use erpd_rand::rngs::StdRng;
    use erpd_rand::{Rng, RngCore, SeedableRng};

    fn sample_cloud() -> PointCloud {
        (0..100)
            .map(|i| {
                Vec3::new(
                    (i % 10) as f64 * 1.7 - 8.0,
                    (i / 10) as f64 * 2.3 - 11.0,
                    (i % 7) as f64 * 0.4,
                )
            })
            .collect()
    }

    #[test]
    fn round_trip_within_error_bound() {
        let cloud = sample_cloud();
        let bytes = compress(&cloud);
        let restored = decompress(&bytes).unwrap();
        assert_eq!(restored.len(), cloud.len());
        let bound = max_quantization_error(&cloud) * 2.0 + 1e-9;
        for (a, b) in cloud.iter().zip(restored.iter()) {
            assert!((a.x - b.x).abs() <= bound);
            assert!((a.y - b.y).abs() <= bound);
            assert!((a.z - b.z).abs() <= bound);
        }
    }

    #[test]
    fn empty_cloud_round_trip() {
        let bytes = compress(&PointCloud::new());
        assert_eq!(bytes.len(), HEADER_BYTES);
        assert!(decompress(&bytes).unwrap().is_empty());
    }

    #[test]
    fn single_point_is_exact() {
        let cloud = PointCloud::from_points(vec![Vec3::new(3.5, -2.5, 1.0)]);
        let restored = decompress(&compress(&cloud)).unwrap();
        assert!((restored.point(0) - cloud.point(0)).norm() < 1e-9);
    }

    #[test]
    fn compresses_meaningfully() {
        let cloud = sample_cloud();
        let bytes = compress(&cloud);
        assert!(bytes.len() < cloud.wire_size_bytes());
        assert!(bytes.len() * 2 < cloud.wire_size_bytes());
    }

    #[test]
    fn rejects_truncated_buffer() {
        let bytes = compress(&sample_cloud());
        assert_eq!(decompress(&bytes[..10]), Err(DecodeError::TooShort));
        assert!(matches!(
            decompress(&bytes[..bytes.len() - 3]),
            Err(DecodeError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = compress(&sample_cloud());
        bytes[0] = b'X';
        assert_eq!(decompress(&bytes), Err(DecodeError::BadMagic));
    }

    #[test]
    fn rejects_corrupt_bounds() {
        let mut bytes = compress(&sample_cloud());
        // Overwrite min.x with NaN.
        bytes[12..20].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(decompress(&bytes), Err(DecodeError::BadBounds));
    }

    #[test]
    fn error_bound_scales_with_extent() {
        let small: PointCloud = (0..10).map(|i| Vec3::new(i as f64 * 0.01, 0.0, 0.0)).collect();
        let large: PointCloud = (0..10).map(|i| Vec3::new(i as f64 * 10.0, 0.0, 0.0)).collect();
        assert!(max_quantization_error(&small) < max_quantization_error(&large));
        assert_eq!(max_quantization_error(&PointCloud::new()), 0.0);
    }

    #[test]
    fn decode_error_display() {
        assert!(!format!("{}", DecodeError::TooShort).is_empty());
        assert!(format!(
            "{}",
            DecodeError::LengthMismatch {
                declared: 5,
                payload_bytes: 7
            }
        )
        .contains('5'));
    }

    /// `cloud`'s bounds, lane by lane and as `bounds()`, equal those of a
    /// cloud built afresh from its points, NaN matching NaN.
    fn assert_bounds_are_a_fresh_fold(cloud: &PointCloud) {
        let fresh = PointCloud::from_points(cloud.iter().collect());
        let same = |a: f64, b: f64| a == b || (a.is_nan() && b.is_nan());
        let (got, want) = (cloud.lane_bounds(), fresh.lane_bounds());
        assert_eq!(got.is_some(), want.is_some());
        for (g, w) in got.into_iter().flatten().zip(want.into_iter().flatten()) {
            assert!(
                same(g.0, w.0) && same(g.1, w.1) && g.2 == w.2,
                "{got:?} != {want:?}"
            );
        }
        let flat = |b: Option<(Vec3, Vec3)>| b.map(|(lo, hi)| [lo.x, lo.y, lo.z, hi.x, hi.y, hi.z]);
        let (got, want) = (flat(cloud.bounds()), flat(fresh.bounds()));
        assert_eq!(got.is_some(), want.is_some());
        for (g, w) in got.into_iter().flatten().zip(want.into_iter().flatten()) {
            assert!(same(g, w), "{got:?} != {want:?}");
        }
    }

    /// A cloud's wire bytes with the given header bounds and raw codes.
    fn encoded(min: [f64; 3], max: [f64; 3], raws: &[[u16; 3]]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&(raws.len() as u64).to_le_bytes());
        for v in min.into_iter().chain(max) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for raw in raws.iter().flatten() {
            out.extend_from_slice(&raw.to_le_bytes());
        }
        out
    }

    #[test]
    fn decoded_bounds_are_a_fresh_fold_of_the_decoded_points() {
        let mut rng = StdRng::seed_from_u64(43);
        for len in 0..=48 {
            for trial in 0..16 {
                // Half the trials flatten one lane to a single value.
                let flat_lane = (trial % 2 == 1).then(|| rng.gen_range(0..3usize));
                let span = [1e-3, 1.0, 1e3, 1e9][trial % 4];
                let cloud: PointCloud = (0..len)
                    .map(|_| {
                        let mut c = [(); 3].map(|_| (rng.next_unit_f64() - 0.5) * span);
                        if let Some(a) = flat_lane {
                            c[a] = -0.5 * span;
                        }
                        Vec3::new(c[0], c[1], c[2])
                    })
                    .collect();
                let decoded = decompress(&compress(&cloud)).unwrap();
                assert_eq!(decoded.len(), len);
                assert_bounds_are_a_fresh_fold(&decoded);
            }
        }
    }

    #[test]
    fn adversarial_headers_decode_to_exact_bounds() {
        let codes = [0u16, 1, 2, 32_767, 32_768, 65_534, 65_535];
        let n = codes.len();
        let raws: Vec<[u16; 3]> = (0..n)
            .map(|i| [codes[i], codes[(i + 3) % n], codes[(i + 5) % n]])
            .collect();
        let max = f64::MAX;
        let headers = [
            // ext = 0 on every axis.
            ([1.5, -2.0, 0.0], [1.5, -2.0, 0.0]),
            // lo = -0.0: with ext = 0 every point decodes to +0.0.
            ([-0.0, -0.0, -0.0], [-0.0, 0.0, 1.0]),
            // Subnormal extents.
            ([0.0, -1e-310, 1.0], [5e-324, 0.0, 1.0]),
            // Near ±f64::MAX: max - min overflows to +∞, so code 0
            // decodes as NaN (0 · ∞) and any other code as ±∞.
            ([-max, -max, -1.0], [max, max, 1.0]),
            ([-max, 0.0, -max], [max, 0.0, 0.0]),
        ];
        for (min, max) in headers {
            let decoded = decompress(&encoded(min, max, &raws)).unwrap();
            assert_eq!(decoded.len(), raws.len());
            assert_bounds_are_a_fresh_fold(&decoded);
        }

        // The overflowing header: every point has a non-finite coordinate,
        // and the merge rejects each of them.
        let decoded = decompress(&encoded([-max, -max, -1.0], [max, max, 1.0], &raws)).unwrap();
        assert!(decoded.xs()[0].is_nan() && decoded.xs()[1] == f64::INFINITY);
        let non_finite = decoded.iter().filter(|p| !p.is_finite()).count();
        assert_eq!(non_finite, decoded.len());
        let finite = PointCloud::from_points(vec![Vec3::new(0.1, 0.1, 0.1)]);
        let mut merger = PointCloudMerger::new(0.5);
        assert_eq!(merger.count([&finite, &decoded]), 1);
        assert_eq!(merger.rejected_points(), non_finite);
    }
}
