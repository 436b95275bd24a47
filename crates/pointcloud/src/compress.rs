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
    let extent = max - min;
    let dequant = |raw: u16, lo: f64, ext: f64| lo + raw as f64 / 65535.0 * ext;
    let mut cloud = PointCloud::with_capacity(n as usize);
    for chunk in payload.chunks_exact(COMPRESSED_POINT_BYTES) {
        let qx = u16::from_le_bytes(chunk[0..2].try_into().expect("sized slice"));
        let qy = u16::from_le_bytes(chunk[2..4].try_into().expect("sized slice"));
        let qz = u16::from_le_bytes(chunk[4..6].try_into().expect("sized slice"));
        cloud.push(Vec3::new(
            dequant(qx, min.x, extent.x),
            dequant(qy, min.y, extent.y),
            dequant(qz, min.z, extent.z),
        ));
    }
    Ok(cloud)
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
}
