//! # copred-trace
//!
//! Trace capture and replay: converts recorded planner workloads
//! ([`copred_planners::PlanLog`]) into self-contained CDQ traces with
//! precomputed ground truth — the equivalent of the paper artifact's "trace
//! files" that drive the predictor studies and the COPU+CDU
//! microarchitectural simulator without re-running forward kinematics or
//! narrow-phase collision detection.
//!
//! Traces serialize to a line-oriented text format (dependency-free) so
//! suites can be generated once and replayed by many harnesses.
//!
//! ## Text grammar
//!
//! ```text
//! query <robot> <link_count>                      (trace files only)
//! motion <S1|S2> <n_poses> <n_cdqs>
//! pose <q_0> <q_1> ...                            n_poses lines
//! cdq <pose_idx> <link_idx> <x> <y> <z> <0|1> <obstacle_tests>   n_cdqs lines
//! ```
//!
//! Lines end in `\n` (a trailing `\r` is tolerated). Fields are
//! separated by runs of ASCII whitespace (space, `\t`, `\x0C`, `\r`);
//! other Unicode separators such as U+00A0 or U+000B are not separators,
//! so a field containing one fails to parse. The encoder writes one space
//! between fields, integers in plain decimal, and every float exactly as
//! `format!("{v:.17e}")` does (18 significant digits, round-trip exact);
//! the decoder reads floats with `str::parse::<f64>`.
//!
//! ## Example
//!
//! ```
//! use copred_trace::QueryTrace;
//! use copred_collision::Environment;
//! use copred_geometry::{Aabb, Vec3};
//! use copred_kinematics::{presets, Config, Robot};
//! use copred_planners::{PlanContext, Planner, Rrt};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let robot: Robot = presets::planar_2d().into();
//! let env = Environment::new(
//!     robot.workspace(),
//!     vec![Aabb::new(Vec3::new(-0.05, -1.0, -0.1), Vec3::new(0.05, 0.5, 0.1))],
//! );
//! let mut ctx = PlanContext::new(&robot, &env, 0.05);
//! let mut rng = StdRng::seed_from_u64(3);
//! Rrt::default().plan(&mut ctx, &Config::new(vec![-0.6, 0.0]), &Config::new(vec![0.6, 0.0]), &mut rng);
//! let log = ctx.into_log();
//! let trace = QueryTrace::from_log(&robot, &env, &log);
//! let text = trace.to_text();
//! let back = QueryTrace::from_text(&text).unwrap();
//! assert_eq!(trace.motions.len(), back.motions.len());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use copred_collision::{enumerate_motion_cdqs, CdqInfo, Environment};
use copred_geometry::Vec3;
use copred_kinematics::{Config, Robot};
use copred_planners::PlanLog;
use std::fmt::Write as _;

pub use copred_planners::Stage;

pub mod frame;

/// Hard cap applied to *declared* counts (`motion <stage> <poses> <cdqs>`)
/// before any allocation, so a malformed or hostile header cannot request
/// an absurd reservation. Actual content is still parsed line by line and
/// may legitimately exceed typical sizes up to this bound.
pub const MAX_DECLARED: usize = 1 << 20;

/// One CDQ in a trace: which sample pose and link it belongs to, the hash
/// input (link center), the ground-truth outcome, and its CDU cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceCdq {
    /// Sample-pose index within the motion.
    pub pose_idx: u32,
    /// Link index within the pose.
    pub link_idx: u32,
    /// Link center in world coordinates (COORD hash input).
    pub center: Vec3,
    /// Ground truth: does the CDQ collide?
    pub colliding: bool,
    /// Obstacle-pair tests an early-exit CDU evaluates for this CDQ.
    pub obstacle_tests: u32,
}

/// One recorded motion check: the sample poses, its stage, and every CDQ
/// with ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct MotionTrace {
    /// The issuing stage (S1 exploration / S2 validation).
    pub stage: Stage,
    /// Discretized sample poses.
    pub poses: Vec<Config>,
    /// All CDQs in pose-major order.
    pub cdqs: Vec<TraceCdq>,
}

impl MotionTrace {
    /// Whether any CDQ collides.
    pub fn colliding(&self) -> bool {
        self.cdqs.iter().any(|c| c.colliding)
    }

    /// Total CDQ count.
    pub fn cdq_count(&self) -> usize {
        self.cdqs.len()
    }

    /// Serializes this motion as a standalone `motion` block — the payload
    /// unit of the `copred-service` wire protocol (CHECK_MOTION /
    /// CHECK_POSE frames carry one block each).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write_text(&mut out);
        out
    }

    /// Appends this motion's `motion` block to `out`.
    ///
    /// Floats are written byte-for-byte as `format!("{v:.17e}")` would
    /// write them, without going through `fmt` for the common case.
    pub fn write_text(&self, out: &mut String) {
        out.push_str("motion ");
        out.push_str(self.stage.label());
        out.push(' ');
        push_u64(out, self.poses.len() as u64);
        out.push(' ');
        push_u64(out, self.cdqs.len() as u64);
        out.push('\n');
        for p in &self.poses {
            out.push_str("pose");
            for &v in p.values() {
                out.push(' ');
                push_sci17(out, v);
            }
            out.push('\n');
        }
        for c in &self.cdqs {
            out.push_str("cdq ");
            push_u64(out, c.pose_idx.into());
            out.push(' ');
            push_u64(out, c.link_idx.into());
            for v in [c.center.x, c.center.y, c.center.z] {
                out.push(' ');
                push_sci17(out, v);
            }
            out.push_str(if c.colliding { " 1 " } else { " 0 " });
            push_u64(out, c.obstacle_tests.into());
            out.push('\n');
        }
    }

    /// Parses one standalone `motion` block produced by [`Self::to_text`].
    /// Rejects trailing content after the block.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceParseError`] describing the first malformed line.
    pub fn from_text(text: &str) -> Result<Self, TraceParseError> {
        let mut lines = text.lines().enumerate();
        let (ln, header) = lines
            .next()
            .ok_or_else(|| TraceParseError::at(0, "empty motion block"))?;
        let motion = parse_motion_block(ln, header, &mut lines)?;
        if let Some((ln, _)) = lines.next() {
            return Err(TraceParseError::at(
                ln,
                "trailing content after motion block",
            ));
        }
        Ok(motion)
    }

    /// Converts to the collision crate's [`CdqInfo`] list so the reference
    /// schedulers can replay the motion. The OBB is reconstructed as a
    /// degenerate point box at the center (schedulers never re-execute
    /// geometry; only `colliding` / `obstacle_tests` matter).
    pub fn to_cdq_infos(&self) -> Vec<CdqInfo> {
        let mut out = Vec::with_capacity(self.cdqs.len());
        self.cdq_infos_into(&mut out);
        out
    }

    /// [`to_cdq_infos`](Self::to_cdq_infos) into a caller-owned buffer,
    /// replacing its contents: a caller converting many motions reuses one
    /// allocation.
    pub fn cdq_infos_into(&self, out: &mut Vec<CdqInfo>) {
        out.clear();
        out.extend(self.cdqs.iter().map(|c| CdqInfo {
            pose_idx: c.pose_idx as usize,
            link_idx: c.link_idx as usize,
            center: c.center,
            obb: copred_geometry::Obb::axis_aligned(c.center, Vec3::ZERO),
            colliding: c.colliding,
            obstacle_tests: c.obstacle_tests as usize,
        }));
    }
}

/// A full planning query's trace: every motion check in issue order.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// Robot identifier.
    pub robot_name: String,
    /// Links per pose (CDQs per pose check).
    pub link_count: u32,
    /// Motion checks in the order the planner issued them.
    pub motions: Vec<MotionTrace>,
}

impl QueryTrace {
    /// Builds a trace from a recorded plan log by enumerating all CDQs with
    /// ground truth against `env`.
    pub fn from_log(robot: &Robot, env: &Environment, log: &PlanLog) -> Self {
        let motions = log
            .records
            .iter()
            .map(|rec| {
                let cdqs = enumerate_motion_cdqs(robot, env, &rec.poses)
                    .into_iter()
                    .map(|c| TraceCdq {
                        pose_idx: c.pose_idx as u32,
                        link_idx: c.link_idx as u32,
                        center: c.center,
                        colliding: c.colliding,
                        obstacle_tests: c.obstacle_tests as u32,
                    })
                    .collect();
                MotionTrace {
                    stage: rec.stage,
                    poses: rec.poses.clone(),
                    cdqs,
                }
            })
            .collect();
        QueryTrace {
            robot_name: robot.name().to_string(),
            link_count: robot.link_count() as u32,
            motions,
        }
    }

    /// Total CDQs across all motions — the paper's difficulty proxy for a
    /// query.
    pub fn total_cdqs(&self) -> usize {
        self.motions.iter().map(MotionTrace::cdq_count).sum()
    }

    /// Fraction of motions that collide.
    pub fn colliding_fraction(&self) -> f64 {
        if self.motions.is_empty() {
            return 0.0;
        }
        self.motions.iter().filter(|m| m.colliding()).count() as f64 / self.motions.len() as f64
    }

    /// Motions issued by one stage.
    pub fn stage_motions(&self, stage: Stage) -> impl Iterator<Item = &MotionTrace> {
        self.motions.iter().filter(move |m| m.stage == stage)
    }

    /// Serializes to the line-oriented text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        writeln!(out, "query {} {}", self.robot_name, self.link_count).expect("string write");
        for m in &self.motions {
            m.write_text(&mut out);
        }
        out
    }

    /// Writes the trace to a file in the text format.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// Loads a trace from a file written by [`Self::save`].
    ///
    /// # Errors
    ///
    /// Returns an I/O error for unreadable files, or a parse error (wrapped
    /// as [`std::io::ErrorKind::InvalidData`]) for malformed contents.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_text(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Parses the text format produced by [`Self::to_text`].
    ///
    /// Every malformed input — truncated blocks, bad numbers, counts that
    /// overflow their integer type, out-of-range CDQ pose indices, or
    /// absurd declared sizes (see [`MAX_DECLARED`]) — returns `Err`; no
    /// input panics or over-allocates.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceParseError`] describing the first malformed line.
    pub fn from_text(text: &str) -> Result<Self, TraceParseError> {
        let mut lines = text.lines().enumerate();
        let (ln, header) = lines
            .next()
            .ok_or_else(|| TraceParseError::at(0, "empty trace"))?;
        let mut h = header.split_ascii_whitespace();
        if h.next() != Some("query") {
            return Err(TraceParseError::at(ln, "expected 'query' header"));
        }
        let robot_name = h
            .next()
            .ok_or_else(|| TraceParseError::at(ln, "missing robot name"))?
            .to_string();
        let link_count: u32 = parse_field(h.next(), ln, "link count")?;
        if h.next().is_some() {
            return Err(TraceParseError::at(ln, "trailing fields on 'query' header"));
        }
        let mut motions = Vec::new();
        while let Some((ln, line)) = lines.next() {
            motions.push(parse_motion_block(ln, line, &mut lines)?);
        }
        Ok(QueryTrace {
            robot_name,
            link_count,
            motions,
        })
    }
}

/// Parses one `motion` block whose header line is already in hand;
/// consumes exactly the declared pose and cdq lines from `lines`.
///
/// Public so protocol layers that embed motion blocks inside larger
/// line-oriented payloads (e.g. `copred-service` batches) can reuse the
/// hardened parser instead of re-implementing it. `lines` must yield
/// `(line_number, line)` pairs, typically from `text.lines().enumerate()`.
///
/// # Errors
///
/// Returns a located [`TraceParseError`] for any malformed block.
pub fn parse_motion_block<'a>(
    header_ln: usize,
    header: &str,
    lines: &mut impl Iterator<Item = (usize, &'a str)>,
) -> Result<MotionTrace, TraceParseError> {
    let ln = header_ln;
    let mut f = header.split_ascii_whitespace();
    if f.next() != Some("motion") {
        return Err(TraceParseError::at(ln, "expected 'motion' line"));
    }
    let stage = match f.next() {
        Some("S1") => Stage::Explore,
        Some("S2") => Stage::Validate,
        _ => return Err(TraceParseError::at(ln, "bad stage label")),
    };
    let n_poses: usize = parse_field(f.next(), ln, "pose count")?;
    let n_cdqs: usize = parse_field(f.next(), ln, "cdq count")?;
    if f.next().is_some() {
        return Err(TraceParseError::at(ln, "trailing fields on 'motion' line"));
    }
    if n_poses > MAX_DECLARED || n_cdqs > MAX_DECLARED {
        return Err(TraceParseError::at(
            ln,
            "declared count exceeds MAX_DECLARED",
        ));
    }
    let mut poses = Vec::with_capacity(n_poses);
    // Poses of one motion share a DOF count: size each from the last.
    let mut dof_hint = 0;
    for _ in 0..n_poses {
        let (ln, line) = lines
            .next()
            .ok_or_else(|| TraceParseError::at(ln, "truncated pose block"))?;
        let mut f = line.split_ascii_whitespace();
        if f.next() != Some("pose") {
            return Err(TraceParseError::at(ln, "expected 'pose' line"));
        }
        let mut vals = Vec::with_capacity(dof_hint);
        for tok in f {
            vals.push(
                tok.parse()
                    .map_err(|_| TraceParseError::at(ln, "bad pose value"))?,
            );
        }
        dof_hint = vals.len();
        poses.push(Config::new(vals));
    }
    let mut cdqs = Vec::with_capacity(n_cdqs);
    for _ in 0..n_cdqs {
        let (ln, line) = lines
            .next()
            .ok_or_else(|| TraceParseError::at(ln, "truncated cdq block"))?;
        let mut f = line.split_ascii_whitespace();
        if f.next() != Some("cdq") {
            return Err(TraceParseError::at(ln, "expected 'cdq' line"));
        }
        let pose_idx: u32 = parse_field(f.next(), ln, "pose idx")?;
        let link_idx: u32 = parse_field(f.next(), ln, "link idx")?;
        let x: f64 = parse_field(f.next(), ln, "center x")?;
        let y: f64 = parse_field(f.next(), ln, "center y")?;
        let z: f64 = parse_field(f.next(), ln, "center z")?;
        let colliding: u8 = parse_field(f.next(), ln, "colliding flag")?;
        let obstacle_tests: u32 = parse_field(f.next(), ln, "obstacle tests")?;
        if f.next().is_some() {
            return Err(TraceParseError::at(ln, "trailing fields on 'cdq' line"));
        }
        if pose_idx as usize >= n_poses {
            // Out-of-range indices would panic downstream in the
            // schedulers' pose-block bucketing; reject them at the parse
            // boundary instead.
            return Err(TraceParseError::at(ln, "cdq pose idx out of range"));
        }
        cdqs.push(TraceCdq {
            pose_idx,
            link_idx,
            center: Vec3::new(x, y, z),
            colliding: colliding != 0,
            obstacle_tests,
        });
    }
    Ok(MotionTrace { stage, poses, cdqs })
}

fn parse_field<T: std::str::FromStr>(
    field: Option<&str>,
    line: usize,
    what: &str,
) -> Result<T, TraceParseError> {
    field
        .ok_or_else(|| TraceParseError::at(line, format!("missing {what}")))?
        .parse()
        .map_err(|_| TraceParseError::at(line, format!("bad {what}")))
}

/// Appends the decimal digits of `n`, as `write!(out, "{n}")` would.
fn push_u64(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ascii digits"));
}

/// `10^k` for `k` in `0..=22`; `10^22 < 2^74`, so `m * 10^k` for a 53-bit
/// mantissa `m` and `k <= 22` fits in a `u128`.
const POW10: [u128; 23] = {
    let mut t = [1u128; 23];
    let mut k = 1;
    while k < t.len() {
        t[k] = t[k - 1] * 10;
        k += 1;
    }
    t
};

/// "00" through "99": the decimal digit pairs.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Writes `n < 100` as two digits.
fn put2(dst: &mut [u8], n: u32) {
    let i = 2 * n as usize;
    dst.copy_from_slice(&DIGIT_PAIRS[i..i + 2]);
}

/// Writes `n < 10^8` as eight digits, zero-padded.
fn put8(dst: &mut [u8], n: u32) {
    let (hi, lo) = (n / 10_000, n % 10_000);
    put2(&mut dst[..2], hi / 100);
    put2(&mut dst[2..4], hi % 100);
    put2(&mut dst[4..6], lo / 100);
    put2(&mut dst[6..], lo % 100);
}

/// Appends `v` exactly as `write!(out, "{v:.17e}")` would: 18 significant
/// digits, rounded half-to-even on the exact binary value, and an
/// unpadded exponent (`e-1`, `e0`, `e16`).
///
/// Normal values with `1e-5 <= |v| < 2^53` (the range of the joint angles
/// and link-center coordinates a motion block carries) are formatted in
/// integer arithmetic:
/// `|v| = m * 2^-s` with `s` in `0..=69`, so the 18 digits are
/// `m * 10^(17 - d) >> s` for the decimal exponent `d` in `-5..=15`. Every
/// other value — ±0, subnormals, ±inf, NaN, `|v| >= 2^53` and
/// `|v| < 1e-5` — goes to `fmt`, which is the specification the fast path
/// reproduces.
fn push_sci17(out: &mut String, v: f64) {
    let a = v.abs();
    if !(1e-5..9_007_199_254_740_992.0).contains(&a) {
        write!(out, "{v:.17e}").expect("string write");
        return;
    }
    let bits = a.to_bits();
    let biased = (bits >> 52) as i32;
    let m = u128::from((bits & ((1 << 52) - 1)) | (1 << 52));
    let shift = (1075 - biased) as u32;
    // floor(log2 |v|) * 1233 / 4096 never exceeds floor(log10 |v|), and
    // `|v| > 10^-5` bounds it below, so `d` only ever needs to grow.
    let mut d = (((biased - 1023) * 1233) >> 12).max(-5);
    let (mut q, rem) = loop {
        let p = m * POW10[(17 - d) as usize];
        let q = p >> shift;
        debug_assert!(q >= POW10[17], "decimal exponent overestimated");
        if q < POW10[18] {
            break (q, p - (q << shift));
        }
        d += 1;
    };
    if shift > 0 {
        let half = 1u128 << (shift - 1);
        if rem > half || (rem == half && q & 1 == 1) {
            q += 1;
        }
    }
    if q == POW10[18] {
        q = POW10[17];
        d += 1;
    }
    // 18 digits, as 2 + 8 + 8 written two at a time from independent
    // quotients so no long divide-by-ten chain serializes them.
    let q = q as u64;
    let r = q % 10_000_000_000_000_000;
    let mut digits = [0u8; 18];
    put2(&mut digits[..2], (q / 10_000_000_000_000_000) as u32);
    put8(&mut digits[2..10], (r / 100_000_000) as u32);
    put8(&mut digits[10..], (r % 100_000_000) as u32);
    // Sign, d.ddddddddddddddddd, 'e', exponent sign, two exponent digits.
    let mut buf = [0u8; 24];
    let mut n = 0;
    if v < 0.0 {
        buf[n] = b'-';
        n += 1;
    }
    buf[n] = digits[0];
    buf[n + 1] = b'.';
    buf[n + 2..n + 19].copy_from_slice(&digits[1..]);
    buf[n + 19] = b'e';
    n += 20;
    if d < 0 {
        buf[n] = b'-';
        n += 1;
    }
    let e = d.unsigned_abs();
    if e >= 10 {
        buf[n] = b'0' + (e / 10) as u8;
        n += 1;
    }
    buf[n] = b'0' + (e % 10) as u8;
    n += 1;
    out.push_str(std::str::from_utf8(&buf[..n]).expect("ascii digits"));
}

/// Error describing a malformed trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// Zero-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl TraceParseError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        TraceParseError {
            line,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line + 1,
            self.message
        )
    }
}

impl std::error::Error for TraceParseError {}

#[cfg(test)]
mod tests {
    use super::*;
    use copred_geometry::Aabb;
    use copred_kinematics::{presets, Motion};
    use copred_planners::{PlanContext, Planner, Rrt};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_trace() -> (Robot, Environment, QueryTrace) {
        let robot: Robot = presets::planar_2d().into();
        let env = Environment::new(
            robot.workspace(),
            vec![Aabb::new(
                Vec3::new(-0.05, -1.0, -0.1),
                Vec3::new(0.05, 0.5, 0.1),
            )],
        );
        let mut ctx = PlanContext::new(&robot, &env, 0.05);
        let mut rng = StdRng::seed_from_u64(1);
        let _ = Rrt::default().plan(
            &mut ctx,
            &Config::new(vec![-0.6, 0.0]),
            &Config::new(vec![0.6, 0.0]),
            &mut rng,
        );
        let log = ctx.into_log();
        let trace = QueryTrace::from_log(&robot, &env, &log);
        (robot, env, trace)
    }

    #[test]
    fn trace_matches_log_shape() {
        let (robot, _, trace) = sample_trace();
        assert_eq!(trace.robot_name, robot.name());
        assert_eq!(trace.link_count, 1);
        assert!(!trace.motions.is_empty());
        for m in &trace.motions {
            assert_eq!(m.cdqs.len(), m.poses.len() * trace.link_count as usize);
        }
    }

    #[test]
    fn ground_truth_is_consistent() {
        let (robot, env, trace) = sample_trace();
        // Re-derive ground truth for a few motions and compare.
        for m in trace.motions.iter().take(10) {
            let colliding = copred_collision::motion_collides(&robot, &env, &m.poses);
            assert_eq!(m.colliding(), colliding);
        }
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let (_, _, trace) = sample_trace();
        let text = trace.to_text();
        let back = QueryTrace::from_text(&text).expect("parse");
        assert_eq!(trace, back);
    }

    #[test]
    fn replay_through_schedulers() {
        let (_, _, trace) = sample_trace();
        use copred_collision::{run_schedule, Schedule};
        for m in &trace.motions {
            let infos = m.to_cdq_infos();
            let naive = run_schedule(&infos, m.poses.len(), Schedule::Naive);
            let oracle = run_schedule(&infos, m.poses.len(), Schedule::Oracle);
            assert_eq!(naive.colliding, m.colliding());
            if m.colliding() {
                assert_eq!(oracle.cdqs_executed, 1);
                assert!(naive.cdqs_executed >= 1);
            } else {
                assert_eq!(naive.cdqs_executed, m.cdq_count());
            }
        }
    }

    #[test]
    fn parse_errors_are_located() {
        assert!(QueryTrace::from_text("").is_err());
        assert!(QueryTrace::from_text("nonsense").is_err());
        let err = QueryTrace::from_text("query r 1\nmotion S3 1 1").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("stage"));
        // Truncated cdq block.
        let err =
            QueryTrace::from_text("query r 1\nmotion S1 1 2\npose 0.0 0.0\ncdq 0 0 0 0 0 1 1")
                .unwrap_err();
        assert!(err.message.contains("truncated"));
    }

    #[test]
    fn parser_rejects_hostile_headers() {
        // A CDQ pointing at a pose that does not exist would panic in the
        // schedulers' pose bucketing; the parser must reject it.
        let err = QueryTrace::from_text("query r 1\nmotion S1 0 1\ncdq 0 0 0 0 0 1 1").unwrap_err();
        assert!(err.message.contains("out of range"), "{err}");
        let err = QueryTrace::from_text(
            "query r 1\nmotion S1 2 1\npose 0.0\npose 0.0\ncdq 5 0 0 0 0 1 1",
        )
        .unwrap_err();
        assert!(err.message.contains("out of range"), "{err}");
        // Declared counts that overflow or exceed the allocation cap.
        assert!(QueryTrace::from_text("query r 1\nmotion S1 99999999999999999999 0").is_err());
        let huge = format!("query r 1\nmotion S1 {} 0", usize::MAX);
        assert!(QueryTrace::from_text(&huge).is_err());
        let big = format!("query r 1\nmotion S1 {} 0", crate::MAX_DECLARED + 1);
        let err = QueryTrace::from_text(&big).unwrap_err();
        assert!(err.message.contains("MAX_DECLARED"), "{err}");
    }

    #[test]
    fn motion_block_roundtrip_standalone() {
        let (_, _, trace) = sample_trace();
        let m = &trace.motions[0];
        let text = m.to_text();
        let back = MotionTrace::from_text(&text).expect("parse motion block");
        assert_eq!(&back, m);
        // Trailing garbage after a standalone block is rejected.
        let mut with_junk = text.clone();
        with_junk.push_str("junk line\n");
        assert!(MotionTrace::from_text(&with_junk).is_err());
        assert!(MotionTrace::from_text("").is_err());
    }

    fn assert_sci17_matches_fmt(v: f64, buf: &mut String) {
        buf.clear();
        push_sci17(buf, v);
        assert_eq!(*buf, format!("{v:.17e}"), "bits {:#018x}", v.to_bits());
    }

    #[test]
    fn sci17_edge_cases_match_fmt() {
        let mut buf = String::new();
        let mut cases = vec![
            0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            9_007_199_254_740_992.0,
            1e-5,
            // Exact ties after the 18th digit round half-to-even:
            // 1.00000381469726562|5 (down), 1.00001144409179687|5 (up),
            // 10.0000076293945312|5 (down).
            1.0 + 2f64.powi(-18),
            1.0 + 3.0 * 2f64.powi(-18),
            10.0 + 2f64.powi(-17),
        ];
        for k in -6..=18 {
            let p: f64 = format!("1e{k}").parse().unwrap();
            cases.extend([p, p.next_down(), p.next_up()]);
        }
        for v in cases {
            assert_sci17_matches_fmt(v, &mut buf);
            assert_sci17_matches_fmt(-v, &mut buf);
        }
    }

    #[test]
    fn sci17_matches_fmt_on_seeded_values() {
        // 1M values: raw bit patterns (every class, every exponent) plus
        // the ranges the wire carries — joint angles, small offsets, and
        // values past 2^53 where the fast path hands over to `fmt`.
        let mut rng = StdRng::seed_from_u64(0x5C17);
        let mut buf = String::new();
        for _ in 0..250_000 {
            let bits = f64::from_bits(rng.gen::<u64>());
            let rad = rng.gen_range(-3.0..3.0);
            let small = rng.gen_range(-1e-4..1e-4);
            let big = rng.gen_range(-1e16..1e16);
            for v in [bits, rad, small, big] {
                assert_sci17_matches_fmt(v, &mut buf);
            }
        }
    }

    #[test]
    fn encoder_bytes_match_fmt_encoder() {
        // The hand-written encoder emits exactly what the `fmt` one did.
        let (_, _, trace) = sample_trace();
        for m in &trace.motions {
            let mut want = format!(
                "motion {} {} {}\n",
                m.stage.label(),
                m.poses.len(),
                m.cdqs.len()
            );
            for p in &m.poses {
                want.push_str("pose");
                for v in p.values() {
                    write!(want, " {v:.17e}").unwrap();
                }
                want.push('\n');
            }
            for c in &m.cdqs {
                writeln!(
                    want,
                    "cdq {} {} {:.17e} {:.17e} {:.17e} {} {}",
                    c.pose_idx,
                    c.link_idx,
                    c.center.x,
                    c.center.y,
                    c.center.z,
                    u8::from(c.colliding),
                    c.obstacle_tests
                )
                .unwrap();
            }
            assert_eq!(m.to_text(), want);
        }
    }

    #[test]
    fn unicode_separators_are_located_errors() {
        // Only ASCII whitespace separates fields: U+00A0 and U+000B are
        // not separators, so the line fails to parse and the error names it.
        for sep in ['\u{a0}', '\u{b}'] {
            let cdq = format!("motion S1 1 1\npose 0.0\ncdq 0 0 0 0 0{sep}1 1\n");
            let err = MotionTrace::from_text(&cdq).unwrap_err();
            assert_eq!(err.line, 2, "{err}");
            let pose = format!("motion S1 1 1\npose 0.0{sep}0.5\ncdq 0 0 0 0 0 1 1\n");
            let err = MotionTrace::from_text(&pose).unwrap_err();
            assert_eq!(err.line, 1, "{err}");
            assert!(err.message.contains("pose"), "{err}");
            let head = format!("motion{sep}S1 1 1\npose 0.0\ncdq 0 0 0 0 0 1 1\n");
            let err = MotionTrace::from_text(&head).unwrap_err();
            assert_eq!(err.line, 0, "{err}");
            let query = format!("query r{sep}1\n");
            assert!(QueryTrace::from_text(&query).is_err());
        }
        // ASCII whitespace runs (tabs, form feeds, CRLF) still separate.
        let ok = "motion\tS1  1 1\r\npose\x0c0.0\ncdq 0 0 0 0 0 1 1\n";
        assert_eq!(MotionTrace::from_text(ok).unwrap().cdqs.len(), 1);
    }

    #[test]
    fn difficulty_proxy_counts_all_cdqs() {
        let (_, _, trace) = sample_trace();
        let total: usize = trace.motions.iter().map(|m| m.cdqs.len()).sum();
        assert_eq!(trace.total_cdqs(), total);
        assert!(trace.colliding_fraction() > 0.0);
    }

    #[test]
    fn stage_filter() {
        let (_, _, trace) = sample_trace();
        let s1 = trace.stage_motions(Stage::Explore).count();
        let s2 = trace.stage_motions(Stage::Validate).count();
        assert_eq!(s1 + s2, trace.motions.len());
        assert!(s2 > 0, "validated path missing from trace");
    }

    #[test]
    fn empty_trace_roundtrip() {
        let robot: Robot = presets::planar_2d().into();
        let env = Environment::empty(robot.workspace());
        let trace = QueryTrace::from_log(&robot, &env, &PlanLog::default());
        let back = QueryTrace::from_text(&trace.to_text()).unwrap();
        assert_eq!(trace, back);
        assert_eq!(back.total_cdqs(), 0);
        assert_eq!(back.colliding_fraction(), 0.0);
    }

    #[test]
    fn save_load_roundtrip() {
        let (_, _, trace) = sample_trace();
        let path = std::env::temp_dir().join("copred_trace_roundtrip.trace");
        trace.save(&path).expect("save");
        let back = QueryTrace::load(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(back, trace);
    }

    #[test]
    fn load_rejects_garbage_file() {
        let path = std::env::temp_dir().join("copred_trace_garbage.trace");
        std::fs::write(&path, "not a trace").unwrap();
        let err = QueryTrace::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn trace_from_manual_motion() {
        // Traces can also be built directly from a hand-rolled log.
        let robot: Robot = presets::planar_2d().into();
        let env = Environment::new(
            robot.workspace(),
            vec![Aabb::new(
                Vec3::new(-0.05, -1.0, -0.1),
                Vec3::new(0.05, 1.0, 0.1),
            )],
        );
        let poses =
            Motion::new(Config::new(vec![-0.5, 0.0]), Config::new(vec![0.5, 0.0])).discretize(11);
        let log = PlanLog {
            records: vec![copred_planners::MotionRecord {
                poses: poses.clone(),
                stage: Stage::Explore,
                colliding: true,
            }],
        };
        let trace = QueryTrace::from_log(&robot, &env, &log);
        assert_eq!(trace.motions.len(), 1);
        assert!(trace.motions[0].colliding());
        assert_eq!(trace.motions[0].cdqs.len(), 11);
    }
}
