//! 16-bit fixed-point coordinate encoding.
//!
//! The paper represents a link's center with "three 16-bit fixed point
//! representations of its Cartesian coordinates" and the COORD hash keeps the
//! top `k` most-significant bits of each (Fig. 10). [`FixedEncoder`] performs
//! that quantization relative to a workspace bounding box: each axis of the
//! workspace is mapped linearly onto the full `u16` range, so an MSB slice is
//! exactly a uniform spatial bin along that axis.

use crate::aabb::Aabb;
use crate::vec3::Vec3;

/// Width, in bits, of the fixed-point coordinate representation.
pub const FIXED_BITS: u32 = 16;

/// Quantizes world coordinates into 16-bit fixed point over a workspace box.
///
/// # Examples
///
/// ```
/// use copred_geometry::{Aabb, FixedEncoder, Vec3};
///
/// let ws = Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0));
/// let enc = FixedEncoder::new(ws);
/// let q = enc.encode(Vec3::ZERO);
/// // The workspace center quantizes to mid-range on every axis.
/// assert!(q.iter().all(|&c| (c as i32 - 0x8000).abs() <= 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedEncoder {
    workspace: Aabb,
    inv_extent: Vec3,
}

impl FixedEncoder {
    /// Creates an encoder over `workspace`. Coordinates outside the box are
    /// clamped to its boundary before quantization (saturating fixed point).
    ///
    /// # Panics
    ///
    /// Panics when any workspace extent is zero or negative.
    pub fn new(workspace: Aabb) -> Self {
        let e = workspace.extents();
        assert!(
            e.x > 0.0 && e.y > 0.0 && e.z > 0.0,
            "workspace must have positive extent on every axis, got {e}"
        );
        FixedEncoder {
            workspace,
            inv_extent: Vec3::new(1.0 / e.x, 1.0 / e.y, 1.0 / e.z),
        }
    }

    /// The workspace this encoder quantizes over.
    pub fn workspace(&self) -> &Aabb {
        &self.workspace
    }

    /// Quantizes one coordinate on axis `axis` (0=x, 1=y, 2=z).
    pub fn encode_axis(&self, v: f64, axis: usize) -> u16 {
        let lo = self.workspace.min[axis];
        let t = ((v - lo) * self.inv_extent[axis]).clamp(0.0, 1.0);
        // Scale so that the max coordinate maps to u16::MAX exactly.
        (t * f64::from(u16::MAX)).round() as u16
    }

    /// Quantizes a point to `[qx, qy, qz]` 16-bit fixed-point values.
    pub fn encode(&self, p: Vec3) -> [u16; 3] {
        [
            self.encode_axis(p.x, 0),
            self.encode_axis(p.y, 1),
            self.encode_axis(p.z, 2),
        ]
    }

    /// Reconstructs the (bin-center) world coordinate of a quantized point.
    pub fn decode(&self, q: [u16; 3]) -> Vec3 {
        let e = self.workspace.extents();
        Vec3::new(
            self.workspace.min.x + f64::from(q[0]) / f64::from(u16::MAX) * e.x,
            self.workspace.min.y + f64::from(q[1]) / f64::from(u16::MAX) * e.y,
            self.workspace.min.z + f64::from(q[2]) / f64::from(u16::MAX) * e.z,
        )
    }

    /// Spatial size of one MSB bin when keeping `k` bits per axis.
    pub fn bin_size(&self, k: u32) -> Vec3 {
        let bins = f64::from(1u32 << k);
        self.workspace.extents() / bins
    }
}

/// Keeps the `k` most-significant bits of a 16-bit fixed-point value.
///
/// This is the paper's Fig. 10 operation: "four MSBs of each coordinate are
/// used for hash code generation, and the rest of the bits are discarded."
///
/// # Panics
///
/// Panics when `k > 16`.
#[inline]
pub fn msbs(q: u16, k: u32) -> u16 {
    assert!(k <= FIXED_BITS, "cannot keep {k} MSBs of a 16-bit value");
    if k == 0 {
        0
    } else {
        q >> (FIXED_BITS - k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws() -> Aabb {
        Aabb::new(Vec3::splat(-2.0), Vec3::splat(2.0))
    }

    #[test]
    fn endpoints_map_to_extremes() {
        let enc = FixedEncoder::new(ws());
        assert_eq!(enc.encode(Vec3::splat(-2.0)), [0, 0, 0]);
        assert_eq!(enc.encode(Vec3::splat(2.0)), [u16::MAX; 3]);
    }

    #[test]
    fn out_of_range_saturates() {
        let enc = FixedEncoder::new(ws());
        assert_eq!(enc.encode(Vec3::splat(-100.0)), [0, 0, 0]);
        assert_eq!(enc.encode(Vec3::splat(100.0)), [u16::MAX; 3]);
    }

    #[test]
    fn quantization_is_monotone() {
        let enc = FixedEncoder::new(ws());
        let mut prev = 0u16;
        for i in 0..=100 {
            let v = -2.0 + 4.0 * (i as f64) / 100.0;
            let q = enc.encode_axis(v, 0);
            assert!(q >= prev, "quantization not monotone at {v}");
            prev = q;
        }
    }

    #[test]
    fn decode_roundtrip_within_one_lsb() {
        let enc = FixedEncoder::new(ws());
        let p = Vec3::new(0.123, -1.9, 1.7);
        let back = enc.decode(enc.encode(p));
        let lsb = 4.0 / f64::from(u16::MAX);
        assert!((back - p).abs().max_element() <= lsb);
    }

    #[test]
    fn msb_extraction() {
        assert_eq!(msbs(0xFFFF, 4), 0xF);
        assert_eq!(msbs(0x8000, 1), 1);
        assert_eq!(msbs(0x7FFF, 1), 0);
        assert_eq!(msbs(0xABCD, 8), 0xAB);
        assert_eq!(msbs(0x1234, 16), 0x1234);
        assert_eq!(msbs(0xFFFF, 0), 0);
    }

    #[test]
    #[should_panic(expected = "cannot keep")]
    fn msbs_rejects_wide_k() {
        msbs(0, 17);
    }

    #[test]
    fn nearby_points_share_msb_bins() {
        let enc = FixedEncoder::new(ws());
        // Two points 1 mm apart in a 4 m workspace share a 4-bit bin (25 cm)
        // unless they straddle a bin boundary; pick points mid-bin.
        let a = Vec3::new(0.125, 0.125, 0.125);
        let b = a + Vec3::splat(0.001);
        let (qa, qb) = (enc.encode(a), enc.encode(b));
        for i in 0..3 {
            assert_eq!(msbs(qa[i], 4), msbs(qb[i], 4));
        }
    }

    #[test]
    fn distant_points_differ_in_msb_bins() {
        let enc = FixedEncoder::new(ws());
        let qa = enc.encode(Vec3::splat(-1.5));
        let qb = enc.encode(Vec3::splat(1.5));
        assert_ne!(msbs(qa[0], 2), msbs(qb[0], 2));
    }

    #[test]
    fn bin_size_halves_per_bit() {
        let enc = FixedEncoder::new(ws());
        let b4 = enc.bin_size(4);
        let b5 = enc.bin_size(5);
        assert!((b4.x - 0.25).abs() < 1e-12);
        assert!((b5.x - 0.125).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive extent")]
    fn degenerate_workspace_rejected() {
        let flat = Aabb::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 1.0));
        let _ = FixedEncoder::new(flat);
    }
}
