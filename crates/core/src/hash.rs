//! Collision-prediction hash functions (paper §III-B and §III-C).
//!
//! Every hash maps a CDQ to a code addressing the Collision History Table.
//! The paper explores C-space hashes (**POSE**, **POSE-part**, **POSE+fold**,
//! **ENPOSE**) and physical-space hashes (**COORD**, **ENCOORD**); COORD —
//! quantized Cartesian link centers — wins because it is the only family
//! whose codes preserve *physical* spatial locality.

use crate::mlp::Autoencoder;
use copred_geometry::{msbs, Aabb, FixedEncoder, Vec3};
use copred_kinematics::{Config, Robot};
use rand::Rng;
use std::fmt;

/// The per-CDQ quantities a hash function may consume: the C-space pose and
/// the Cartesian center of the queried bounding volume.
#[derive(Debug, Clone, Copy)]
pub struct HashInput<'a> {
    /// The robot configuration the CDQ belongs to.
    pub config: &'a Config,
    /// World-space center of the CDQ's bounding volume (link center).
    pub center: Vec3,
}

/// A collision-prediction hash function.
///
/// Implementations must be deterministic: equal inputs give equal codes.
pub trait CollisionHash: fmt::Debug + Send + Sync {
    /// Short display name (e.g. `"COORD-12"`).
    fn name(&self) -> String;
    /// Width of the produced code in bits; the natural CHT has `2^bits`
    /// entries.
    fn bits(&self) -> u32;
    /// Hash code for a CDQ.
    fn code(&self, input: &HashInput<'_>) -> u64;
}

/// Quantizes each DOF of a configuration to 16-bit fixed point over its
/// joint limits.
///
/// Degenerate joint limits (`hi <= lo`, e.g. a welded joint with a
/// zero-width range) map every value of that DOF to one constant bucket
/// instead of propagating the `0/0` NaN of the naive formula: NaN silently
/// casts to code 0 in [`Self::quantize`] but poisons any MLP fed by
/// [`Self::normalize`].
#[derive(Debug, Clone)]
pub struct DofQuantizer {
    limits: Vec<(f64, f64)>,
}

impl DofQuantizer {
    /// Builds a quantizer from a robot's joint limits.
    pub fn for_robot(robot: &Robot) -> Self {
        Self::from_limits((0..robot.dofs()).map(|i| robot.limits(i)).collect())
    }

    /// Builds a quantizer from explicit `(lo, hi)` limits per DOF.
    /// Degenerate pairs (`hi <= lo`, or non-finite bounds) are accepted and
    /// behave as a constant bucket.
    pub fn from_limits(limits: Vec<(f64, f64)>) -> Self {
        DofQuantizer { limits }
    }

    /// Number of DOFs.
    pub fn dofs(&self) -> usize {
        self.limits.len()
    }

    /// Whether DOF `i` has a usable (positive-width, finite) range.
    #[inline]
    fn usable_range(&self, i: usize) -> Option<(f64, f64)> {
        let (lo, hi) = self.limits[i];
        (hi > lo && (hi - lo).is_finite()).then_some((lo, hi))
    }

    /// Quantizes DOF `i` to a `u16` (saturating outside limits). DOFs with
    /// degenerate limits quantize to the constant bucket 0.
    pub fn quantize(&self, v: f64, i: usize) -> u16 {
        let Some((lo, hi)) = self.usable_range(i) else {
            return 0;
        };
        let t = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
        (t * f64::from(u16::MAX)).round() as u16
    }

    /// Normalizes DOF `i` into `[-1, 1]` (for MLP inputs). DOFs with
    /// degenerate limits normalize to the constant midpoint `0.0`.
    pub fn normalize(&self, v: f64, i: usize) -> f64 {
        let Some((lo, hi)) = self.usable_range(i) else {
            return 0.0;
        };
        (2.0 * (v - lo) / (hi - lo) - 1.0).clamp(-1.0, 1.0)
    }

    /// Normalizes a full configuration.
    pub fn normalize_config(&self, q: &Config) -> Vec<f64> {
        q.values()
            .iter()
            .enumerate()
            .map(|(i, &v)| self.normalize(v, i))
            .collect()
    }
}

/// XOR-folds a `from_bits`-wide code down to `to_bits` (paper's POSE+fold:
/// "a part of the POSE hash code is XORed with the other part").
pub fn fold_xor(code: u64, from_bits: u32, to_bits: u32) -> u64 {
    assert!(
        to_bits > 0 && to_bits <= 64,
        "fold target must be 1..=64 bits"
    );
    if from_bits <= to_bits {
        return code;
    }
    let mask = if to_bits == 64 {
        u64::MAX
    } else {
        (1u64 << to_bits) - 1
    };
    let mut rest = code;
    let mut out = 0u64;
    let mut remaining = from_bits;
    while remaining > 0 {
        out ^= rest & mask;
        rest >>= to_bits;
        remaining = remaining.saturating_sub(to_bits);
    }
    out
}

/// **POSE**: `k` MSBs of each quantized DOF, concatenated (paper §III-B).
/// Code width is `k · n` for an n-DOF robot — large and sparse for arms.
#[derive(Debug, Clone)]
pub struct PoseHash {
    quant: DofQuantizer,
    k: u32,
}

impl PoseHash {
    /// Creates a POSE hash with `k` bits per DOF.
    ///
    /// # Panics
    ///
    /// Panics when `k` is zero, exceeds 16, or the total width exceeds 64.
    pub fn new(robot: &Robot, k: u32) -> Self {
        assert!((1..=16).contains(&k), "POSE needs 1..=16 bits per DOF");
        let quant = DofQuantizer::for_robot(robot);
        assert!(
            k as usize * quant.dofs() <= 64,
            "POSE code wider than 64 bits"
        );
        PoseHash { quant, k }
    }
}

impl CollisionHash for PoseHash {
    fn name(&self) -> String {
        format!("POSE-{}", self.bits())
    }
    fn bits(&self) -> u32 {
        self.k * self.quant.dofs() as u32
    }
    fn code(&self, input: &HashInput<'_>) -> u64 {
        let mut code = 0u64;
        for (i, &v) in input.config.values().iter().enumerate() {
            code = (code << self.k) | u64::from(msbs(self.quant.quantize(v, i), self.k));
        }
        code
    }
}

/// **POSE-part**: only the first two DOFs — the joints closest to the base,
/// which dominate the physical space the robot occupies (paper Fig. 8b/8c).
#[derive(Debug, Clone)]
pub struct PosePartHash {
    quant: DofQuantizer,
    k: u32,
    dofs_used: usize,
}

impl PosePartHash {
    /// Creates a POSE-part hash with `k` bits for each of the first two DOFs.
    ///
    /// # Panics
    ///
    /// Panics when the robot has fewer than two DOFs or `k` is out of range.
    pub fn new(robot: &Robot, k: u32) -> Self {
        assert!((1..=16).contains(&k), "POSE-part needs 1..=16 bits per DOF");
        let quant = DofQuantizer::for_robot(robot);
        assert!(quant.dofs() >= 2, "POSE-part needs at least 2 DOFs");
        PosePartHash {
            quant,
            k,
            dofs_used: 2,
        }
    }
}

impl CollisionHash for PosePartHash {
    fn name(&self) -> String {
        format!("POSE-part-{}", self.bits())
    }
    fn bits(&self) -> u32 {
        self.k * self.dofs_used as u32
    }
    fn code(&self, input: &HashInput<'_>) -> u64 {
        let mut code = 0u64;
        for i in 0..self.dofs_used {
            let v = input.config[i];
            code = (code << self.k) | u64::from(msbs(self.quant.quantize(v, i), self.k));
        }
        code
    }
}

/// **POSE+fold**: the POSE code XOR-folded to a smaller width. Folding
/// shrinks the table but destroys physical locality (nearby poses land in
/// unrelated entries once distant poses alias onto them).
#[derive(Debug, Clone)]
pub struct PoseFoldHash {
    inner: PoseHash,
    to_bits: u32,
}

impl PoseFoldHash {
    /// Creates a POSE hash with `k` bits per DOF folded to `to_bits`.
    pub fn new(robot: &Robot, k: u32, to_bits: u32) -> Self {
        let inner = PoseHash::new(robot, k);
        assert!(
            to_bits >= 1 && to_bits < inner.bits(),
            "fold must shrink the code"
        );
        PoseFoldHash { inner, to_bits }
    }
}

impl CollisionHash for PoseFoldHash {
    fn name(&self) -> String {
        format!("POSE+fold-{}", self.to_bits)
    }
    fn bits(&self) -> u32 {
        self.to_bits
    }
    fn code(&self, input: &HashInput<'_>) -> u64 {
        fold_xor(self.inner.code(input), self.inner.bits(), self.to_bits)
    }
}

/// **ENPOSE**: the pose is encoded by a trained one-layer MLP autoencoder
/// into a 2- or 4-dimensional latent vector, which is quantized to `k` bits
/// per dimension (paper §III-B).
#[derive(Debug, Clone)]
pub struct EnposeHash {
    quant: DofQuantizer,
    ae: Autoencoder,
    k: u32,
}

impl EnposeHash {
    /// Number of random poses the paper trains on.
    pub const TRAIN_POSES: usize = 32_768;

    /// Trains the encoder on `train_poses` random poses of `robot` and
    /// builds the hash with `latent_dim` latent dimensions and `k` bits per
    /// dimension.
    pub fn train<R: Rng + ?Sized>(
        robot: &Robot,
        latent_dim: usize,
        k: u32,
        train_poses: usize,
        epochs: usize,
        rng: &mut R,
    ) -> Self {
        assert!(
            k >= 1 && (k as usize * latent_dim) <= 64,
            "ENPOSE code too wide"
        );
        let quant = DofQuantizer::for_robot(robot);
        let samples: Vec<Vec<f64>> = (0..train_poses.max(8))
            .map(|_| quant.normalize_config(&robot.sample_uniform(rng)))
            .collect();
        let ae = Autoencoder::train(&samples, latent_dim, epochs, 0.02, rng);
        EnposeHash { quant, ae, k }
    }
}

impl CollisionHash for EnposeHash {
    fn name(&self) -> String {
        format!("ENPOSE-{}", self.bits())
    }
    fn bits(&self) -> u32 {
        self.k * self.ae.latent_dim() as u32
    }
    fn code(&self, input: &HashInput<'_>) -> u64 {
        let x = self.quant.normalize_config(input.config);
        self.ae.quantized_code(&x, self.k)
    }
}

/// **COORD** (the paper's proposal, Fig. 10): the CDQ's link center is
/// expressed as three 16-bit fixed-point coordinates over the workspace and
/// the `k` MSBs of each are concatenated. For planar robots only x and y are
/// hashed.
#[derive(Debug, Clone)]
pub struct CoordHash {
    enc: FixedEncoder,
    k: u32,
    planar: bool,
}

impl CoordHash {
    /// Creates a COORD hash over `workspace` with `k` bits per coordinate.
    ///
    /// # Panics
    ///
    /// Panics when `k` is out of `1..=16`.
    pub fn new(workspace: Aabb, k: u32, planar: bool) -> Self {
        assert!(
            (1..=16).contains(&k),
            "COORD needs 1..=16 bits per coordinate"
        );
        CoordHash {
            enc: FixedEncoder::new(workspace),
            k,
            planar,
        }
    }

    /// COORD hash sized for a robot: planar robots hash (x, y), arms hash
    /// (x, y, z), both over the robot's workspace.
    pub fn for_robot(robot: &Robot, k: u32) -> Self {
        let planar = matches!(robot, Robot::Planar(_));
        CoordHash::new(robot.workspace(), k, planar)
    }

    /// The paper's default table sizes: 4096 entries (k=4, 12 bits) for
    /// robotic arms and 1024 entries (k=5, 10 bits) for 2D path planning.
    pub fn paper_default(robot: &Robot) -> Self {
        match robot {
            Robot::Planar(_) => CoordHash::for_robot(robot, 5),
            Robot::Arm(_) => CoordHash::for_robot(robot, 4),
        }
    }

    /// Bits kept per coordinate.
    pub fn k(&self) -> u32 {
        self.k
    }
}

impl CollisionHash for CoordHash {
    fn name(&self) -> String {
        format!("COORD-{}", self.bits())
    }
    fn bits(&self) -> u32 {
        self.k * if self.planar { 2 } else { 3 }
    }
    fn code(&self, input: &HashInput<'_>) -> u64 {
        let q = self.enc.encode(input.center);
        let dims = if self.planar { 2 } else { 3 };
        let mut code = 0u64;
        for &qi in q.iter().take(dims) {
            code = (code << self.k) | u64::from(msbs(qi, self.k));
        }
        code
    }
}

/// **ENCOORD**: the link center is MLP-encoded into a small latent space
/// before quantization (paper §III-C).
#[derive(Debug, Clone)]
pub struct EncoordHash {
    workspace: Aabb,
    ae: Autoencoder,
    k: u32,
}

impl EncoordHash {
    /// Trains the center-coordinate encoder on `train_points` centers drawn
    /// from random robot poses.
    pub fn train<R: Rng + ?Sized>(
        robot: &Robot,
        latent_dim: usize,
        k: u32,
        train_points: usize,
        epochs: usize,
        rng: &mut R,
    ) -> Self {
        assert!(
            k >= 1 && (k as usize * latent_dim) <= 64,
            "ENCOORD code too wide"
        );
        let workspace = robot.workspace();
        let mut samples = Vec::with_capacity(train_points.max(8));
        while samples.len() < train_points.max(8) {
            let q = robot.sample_uniform(rng);
            for link in robot.fk(&q).links {
                samples.push(normalize_center(&workspace, link.center));
                if samples.len() >= train_points.max(8) {
                    break;
                }
            }
        }
        let ae = Autoencoder::train(&samples, latent_dim, epochs, 0.02, rng);
        EncoordHash { workspace, ae, k }
    }
}

fn normalize_center(ws: &Aabb, c: Vec3) -> Vec<f64> {
    let e = ws.extents();
    vec![
        (2.0 * (c.x - ws.min.x) / e.x - 1.0).clamp(-1.0, 1.0),
        (2.0 * (c.y - ws.min.y) / e.y - 1.0).clamp(-1.0, 1.0),
        (2.0 * (c.z - ws.min.z) / e.z - 1.0).clamp(-1.0, 1.0),
    ]
}

impl CollisionHash for EncoordHash {
    fn name(&self) -> String {
        format!("ENCOORD-{}", self.bits())
    }
    fn bits(&self) -> u32 {
        self.k * self.ae.latent_dim() as u32
    }
    fn code(&self, input: &HashInput<'_>) -> u64 {
        let x = normalize_center(&self.workspace, input.center);
        self.ae.quantized_code(&x, self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copred_kinematics::presets;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn arm() -> Robot {
        presets::kuka_iiwa().into()
    }

    fn input_for<'a>(robot: &Robot, q: &'a Config) -> (HashInput<'a>, Vec3) {
        let pose = robot.fk(q);
        let c = pose.links[3].center;
        (
            HashInput {
                config: q,
                center: c,
            },
            c,
        )
    }

    #[test]
    fn pose_hash_width_and_range() {
        let robot = arm();
        let h = PoseHash::new(&robot, 4);
        assert_eq!(h.bits(), 28);
        let q = Config::zeros(7);
        let (input, _) = input_for(&robot, &q);
        assert!(h.code(&input) < (1u64 << 28));
    }

    #[test]
    fn pose_hash_locality() {
        let robot = arm();
        let h = PoseHash::new(&robot, 3);
        let a = Config::new(vec![0.51; 7]);
        let mut b = a.clone();
        b.values_mut()[6] += 1e-4;
        let pa = robot.fk(&a).links[6].center;
        let pb = robot.fk(&b).links[6].center;
        assert_eq!(
            h.code(&HashInput {
                config: &a,
                center: pa
            }),
            h.code(&HashInput {
                config: &b,
                center: pb
            })
        );
    }

    #[test]
    fn pose_part_uses_first_two_dofs_only() {
        let robot = arm();
        let h = PosePartHash::new(&robot, 5);
        assert_eq!(h.bits(), 10);
        let a = Config::new(vec![0.3, -0.2, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let b = Config::new(vec![0.3, -0.2, 1.0, -1.0, 0.5, 2.0, -2.0]);
        let ca = robot.fk(&a).links[0].center;
        let cb = robot.fk(&b).links[0].center;
        assert_eq!(
            h.code(&HashInput {
                config: &a,
                center: ca
            }),
            h.code(&HashInput {
                config: &b,
                center: cb
            })
        );
    }

    #[test]
    fn fold_reduces_width() {
        assert_eq!(fold_xor(0b1010_1100, 8, 4), 0b1010 ^ 0b1100);
        assert_eq!(fold_xor(0x7, 3, 8), 0x7); // no-op when already narrow
                                              // Folding is deterministic and in range.
        for c in [0u64, 1, 0xFFFF_FFFF, 0xDEAD_BEEF_CAFE] {
            let f = fold_xor(c, 48, 12);
            assert!(f < (1 << 12));
            assert_eq!(f, fold_xor(c, 48, 12));
        }
    }

    #[test]
    fn pose_fold_hash_range() {
        let robot = arm();
        let h = PoseFoldHash::new(&robot, 4, 12);
        assert_eq!(h.bits(), 12);
        let q = Config::new(vec![0.7; 7]);
        let (input, _) = input_for(&robot, &q);
        assert!(h.code(&input) < (1 << 12));
    }

    #[test]
    fn coord_hash_matches_paper_fig10() {
        // Fig. 10: 4 MSBs of each 16-bit coordinate, concatenated.
        let ws = Aabb::new(Vec3::splat(0.0), Vec3::splat(1.0));
        let h = CoordHash::new(ws, 4, false);
        assert_eq!(h.bits(), 12);
        let q = Config::zeros(2);
        // Center at (0.5, 0.25, 0.75): fixed point rounds to 0x8000, 0x4000,
        // 0xBFFF (0.75 · 65535 = 49151), so the MSB nibbles are 8, 4, B and
        // the concatenated code is 0x84B.
        let code = h.code(&HashInput {
            config: &q,
            center: Vec3::new(0.5, 0.25, 0.75),
        });
        assert_eq!(code, 0x84B);
    }

    #[test]
    fn coord_hash_groups_nearby_centers() {
        let ws = Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0));
        let h = CoordHash::new(ws, 4, false);
        let q = Config::zeros(2);
        let a = Vec3::new(0.30, 0.30, 0.30);
        let b = a + Vec3::splat(0.01);
        let far = Vec3::new(-0.70, 0.30, 0.30);
        let ca = h.code(&HashInput {
            config: &q,
            center: a,
        });
        let cb = h.code(&HashInput {
            config: &q,
            center: b,
        });
        let cf = h.code(&HashInput {
            config: &q,
            center: far,
        });
        assert_eq!(ca, cb);
        assert_ne!(ca, cf);
    }

    #[test]
    fn coord_planar_ignores_z() {
        let ws = Aabb::new(Vec3::new(-1.0, -1.0, -0.1), Vec3::new(1.0, 1.0, 0.1));
        let h = CoordHash::new(ws, 5, true);
        assert_eq!(h.bits(), 10);
        let q = Config::zeros(2);
        let a = h.code(&HashInput {
            config: &q,
            center: Vec3::new(0.2, 0.2, -0.05),
        });
        let b = h.code(&HashInput {
            config: &q,
            center: Vec3::new(0.2, 0.2, 0.05),
        });
        assert_eq!(a, b);
    }

    #[test]
    fn paper_default_table_sizes() {
        let arm: Robot = presets::baxter_arm().into();
        let planar: Robot = presets::planar_2d().into();
        assert_eq!(CoordHash::paper_default(&arm).bits(), 12); // 4096 entries
        assert_eq!(CoordHash::paper_default(&planar).bits(), 10); // 1024 entries
    }

    #[test]
    fn enpose_trains_and_hashes() {
        let robot = arm();
        let mut rng = StdRng::seed_from_u64(9);
        let h = EnposeHash::train(&robot, 2, 5, 256, 3, &mut rng);
        assert_eq!(h.bits(), 10);
        let q = robot.sample_uniform(&mut rng);
        let (input, _) = input_for(&robot, &q);
        let c = h.code(&input);
        assert!(c < (1 << 10));
        assert_eq!(c, h.code(&input));
    }

    #[test]
    fn encoord_trains_and_hashes() {
        let robot = arm();
        let mut rng = StdRng::seed_from_u64(10);
        let h = EncoordHash::train(&robot, 2, 5, 256, 3, &mut rng);
        assert_eq!(h.bits(), 10);
        let q = robot.sample_uniform(&mut rng);
        let (input, _) = input_for(&robot, &q);
        assert!(h.code(&input) < (1 << 10));
    }

    #[test]
    fn names_identify_family_and_width() {
        let robot = arm();
        assert_eq!(PoseHash::new(&robot, 4).name(), "POSE-28");
        assert_eq!(CoordHash::for_robot(&robot, 4).name(), "COORD-12");
        assert_eq!(PoseFoldHash::new(&robot, 4, 14).name(), "POSE+fold-14");
    }

    #[test]
    fn degenerate_limits_map_to_constant_bucket_not_nan() {
        // Regression: `hi == lo` made (v - lo) / (hi - lo) evaluate to NaN,
        // which silently cast to quantized code 0 but leaked NaN out of
        // normalize() into MLP inputs.
        let q = DofQuantizer::from_limits(vec![(0.5, 0.5), (-1.0, 1.0), (2.0, -2.0)]);
        assert_eq!(q.dofs(), 3);
        for v in [0.5, 0.0, -3.0, 7.0, f64::MAX] {
            // Zero-width and inverted ranges: one constant bucket.
            assert_eq!(q.quantize(v, 0), 0, "v={v}");
            assert_eq!(q.quantize(v, 2), 0, "v={v}");
            // normalize must never return NaN.
            assert_eq!(q.normalize(v, 0), 0.0, "v={v}");
            assert_eq!(q.normalize(v, 2), 0.0, "v={v}");
            assert!(!q.normalize(v, 0).is_nan());
        }
        // The healthy DOF still quantizes normally.
        assert_eq!(q.quantize(-1.0, 1), 0);
        assert_eq!(q.quantize(1.0, 1), u16::MAX);
        assert!((q.normalize(0.0, 1)).abs() < 1e-9);
        // Non-finite limits are degenerate too, not NaN factories.
        let inf = DofQuantizer::from_limits(vec![(f64::NEG_INFINITY, f64::INFINITY)]);
        assert_eq!(inf.quantize(0.0, 0), 0);
        assert!(!inf.normalize(123.0, 0).is_nan());
    }

    #[test]
    fn dof_quantizer_saturation_and_normalization() {
        let robot = arm();
        let quant = DofQuantizer::for_robot(&robot);
        let (lo, hi) = robot.limits(0);
        assert_eq!(quant.quantize(lo - 10.0, 0), 0);
        assert_eq!(quant.quantize(hi + 10.0, 0), u16::MAX);
        assert!((quant.normalize((lo + hi) / 2.0, 0)).abs() < 1e-9);
    }
}
