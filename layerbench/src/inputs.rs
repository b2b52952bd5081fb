//! The three workloads and their seed-generated inputs.
//!
//! Inputs come from the repository's own planner generators
//! ([`planner_traces_with_scenes`]): every planning query yields a scene
//! and the motion checks its planner emitted, each with the ground-truth
//! outcome of every CDQ. Generation runs on two threads, but every query
//! is planned from its own sub-seed, so one seed always yields the same
//! inputs.

use copred_bench::workloads::{planner_traces_with_scenes, Algo, Combo, RobotKind, Scale};
use copred_collision::{motion_collides, Environment};
use copred_kinematics::{Config, Robot};
use copred_service::{Request, SchedMode};
use copred_store::environment_fingerprint;
use copred_trace::{MotionTrace, QueryTrace};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Motions per check request.
pub const BATCH: usize = 8;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// BIT*-KUKA queries served by one `copred_server` child.
    ServeArm,
    /// BIT*-2D queries served by a two-backend `copred_fleet up` child.
    Fleet2d,
    /// The BIT*-KUKA scenes checked for real by `run_cpu` in-process.
    DetectArm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::ServeArm, Workload::Fleet2d, Workload::DetectArm];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeArm => "serve-arm",
            Workload::Fleet2d => "fleet-2d",
            Workload::DetectArm => "detect-arm",
        }
    }

    /// Why the workload was chosen, in one line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ServeArm => {
                "heavy arm checks over the wire: codec, queue and scheduling carry the work, no FK or narrow phase runs"
            }
            Workload::Fleet2d => {
                "light 2D checks through the fleet router: WAL writes, replica pulls and the router hop dominate"
            }
            Workload::DetectArm => {
                "real FK, COORD hashing, CHT probes and narrow phase in-process, with no wire at all"
            }
        }
    }

    /// The planner's robot.
    pub fn robot_kind(self) -> RobotKind {
        match self {
            Workload::ServeArm | Workload::DetectArm => RobotKind::Kuka,
            Workload::Fleet2d => RobotKind::Planar2d,
        }
    }

    /// Planning queries per run. Per-query costs vary widely, so fewer
    /// queries would let the seed, not the code, set the figures.
    pub fn queries(self) -> usize {
        match self {
            Workload::ServeArm | Workload::DetectArm => 360,
            Workload::Fleet2d => 240,
        }
    }

    /// Motion checks kept per query: its last ones, in the order the
    /// planner emitted them, so the CHT sees an unbroken stream. Uncapped,
    /// one query of thousands of checks outweighs dozens of small ones
    /// and the seed alone moves the medians by half; the first checks of
    /// a query are mostly single-pose vertex checks, while its last ones
    /// have the whole query's mix of CDQs per check.
    pub fn checks_per_scene(self) -> usize {
        80
    }

    /// Client connections of the end-to-end run. `serve-arm` uses one:
    /// with two, both client threads and the server's threads contend for
    /// two processors, and the median round trip became the wait of a
    /// small request behind the other connection's large one, which moved
    /// with the seed's mix of large requests and with host load by half.
    /// `fleet-2d` keeps two, so the router's single lock is contended.
    pub fn connections(self) -> usize {
        match self {
            Workload::ServeArm => 1,
            Workload::Fleet2d => 2,
            Workload::DetectArm => 0,
        }
    }

    /// Whether the end-to-end run goes over the wire to a child process.
    pub fn uses_wire(self) -> bool {
        !matches!(self, Workload::DetectArm)
    }

    /// Whether sessions carry their scene fingerprint (warm start and
    /// replication).
    pub fn fingerprinted(self) -> bool {
        matches!(self, Workload::Fleet2d)
    }
}

/// One planning query: its scene and its motion checks, batched into
/// check requests.
#[derive(Debug)]
pub struct Scene {
    /// The obstacle set.
    pub env: Environment,
    /// Store fingerprint of robot plus obstacles.
    pub fp: u64,
    /// Seed of the session's `U`-policy stream.
    pub session_seed: u64,
    /// `check_motion` requests of [`BATCH`] motions, in planner order. The
    /// session field is filled in by whoever sends them.
    pub batches: Vec<Request>,
    /// Ground-truth verdict of every motion, per batch.
    pub truth: Vec<Vec<bool>>,
}

impl Scene {
    /// The scene's motions in planner order.
    pub fn motions(&self) -> impl Iterator<Item = &MotionTrace> {
        self.batches.iter().flat_map(batch_motions)
    }

    /// Motion checks in the scene.
    pub fn checks(&self) -> usize {
        self.truth.iter().map(Vec::len).sum()
    }

    /// Colliding motions, by ground truth.
    pub fn colliding(&self) -> u64 {
        self.truth.iter().flatten().filter(|&&c| c).count() as u64
    }

    /// The sample poses of every motion, as `run_cpu` takes them.
    pub fn poses(&self) -> Vec<Vec<Config>> {
        self.motions().map(|m| m.poses.clone()).collect()
    }
}

/// The motions a `check_motion` request carries (empty for other verbs).
pub fn batch_motions(req: &Request) -> &[MotionTrace] {
    match req {
        Request::CheckMotion { motions, .. } => motions,
        _ => &[],
    }
}

/// A workload's generated inputs.
#[derive(Debug)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The robot model.
    pub robot: Robot,
    /// The robot's wire name.
    pub robot_name: String,
    /// Links per pose.
    pub link_count: u32,
    /// Every query, in generation order.
    pub scenes: Vec<Scene>,
    /// Motions whose trace verdict disagreed with a brute-force
    /// `motion_collides` (always 0 on a correct program).
    pub truth_conflicts: u64,
}

fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Inputs {
    /// Generates the workload's inputs from `seed`. With `brute_force`,
    /// every kept motion's verdict is also recomputed with
    /// `motion_collides` and compared against the trace's ground truth.
    ///
    /// Queries are planned one at a time, each from its own sub-seed, on
    /// two threads; each query is cut down to its kept motions as soon as
    /// it is planned, so only one uncut query per thread is ever held.
    pub fn generate(workload: Workload, seed: u64, brute_force: bool) -> Inputs {
        let combo = Combo {
            algo: Algo::BitStar,
            robot: workload.robot_kind(),
        };
        let robot = combo.robot.robot();
        let queries = workload.queries();
        let mut planned: Vec<(usize, QueryTrace, Environment, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|part| {
                    let (combo, robot) = (&combo, &robot);
                    s.spawn(move || {
                        let one = Scale {
                            queries: 1,
                            ..Scale::quick()
                        };
                        let mut out = Vec::new();
                        for q in (part..queries).step_by(2) {
                            let planned =
                                planner_traces_with_scenes(combo, &one, mix(seed, q as u64));
                            for (mut trace, env) in planned {
                                let cut = trace
                                    .motions
                                    .len()
                                    .saturating_sub(workload.checks_per_scene());
                                trace.motions.drain(..cut);
                                trace.motions.shrink_to_fit();
                                let conflicts = if brute_force {
                                    trace
                                        .motions
                                        .iter()
                                        .filter(|m| {
                                            m.colliding() != motion_collides(robot, &env, &m.poses)
                                        })
                                        .count() as u64
                                } else {
                                    0
                                };
                                out.push((q, trace, env, conflicts));
                            }
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("input generator panicked"))
                .collect()
        });
        planned.sort_by_key(|(q, ..)| *q);
        let truth_conflicts = planned.iter().map(|(.., c)| c).sum();
        let mut robot_name = String::new();
        let mut link_count = 0;
        let mut scenes = Vec::new();
        // The kept inputs are copied on this thread and the planners'
        // copies dropped: the planners' heaps then hold nothing live and
        // can be handed back to the OS before a timed region.
        for (q, trace, env, _) in planned {
            robot_name.clone_from(&trace.robot_name);
            link_count = trace.link_count;
            let mut batches = Vec::new();
            let mut truth = Vec::new();
            for batch in trace.motions.chunks(BATCH) {
                truth.push(batch.iter().map(MotionTrace::colliding).collect());
                batches.push(Request::CheckMotion {
                    session: 0,
                    motions: batch.to_vec(),
                    trace: None,
                });
            }
            scenes.push(Scene {
                fp: environment_fingerprint(&robot, &env),
                env: env.clone(),
                session_seed: mix(seed, q as u64 + 0x5EED),
                batches,
                truth,
            });
        }
        Inputs {
            workload,
            robot,
            robot_name,
            link_count,
            scenes,
            truth_conflicts,
        }
    }

    /// Motion checks in one pass over every scene.
    pub fn checks(&self) -> usize {
        self.scenes.iter().map(Scene::checks).sum()
    }

    /// Check requests in one pass.
    pub fn requests(&self) -> usize {
        self.scenes.iter().map(|s| s.batches.len()).sum()
    }

    /// The `open` request for scene `i` in the given mode.
    pub fn open_request(&self, i: usize, mode: SchedMode) -> Request {
        let scene = &self.scenes[i];
        Request::Open {
            robot: self.robot_name.clone(),
            link_count: self.link_count,
            mode,
            seed: scene.session_seed,
            fp: self.workload.fingerprinted().then_some(scene.fp),
        }
    }
}

/// Properties of a workload's traffic that a change may depend on.
#[derive(Debug, Clone, PartialEq)]
pub struct Traffic {
    /// Planning queries (scenes).
    pub scenes: usize,
    /// Motion checks in one pass.
    pub checks: usize,
    /// Check requests in one pass.
    pub requests: usize,
    /// Request text bytes per check, from every 16th request.
    pub req_bytes_per_check: f64,
    /// CDQs the motions declare, per check.
    pub cdqs_declared_per_check: f64,
    /// Sample poses per check.
    pub poses_per_check: f64,
    /// Share of checks whose motion collides.
    pub colliding_share: f64,
    /// Mean obstacles per scene.
    pub obstacles_per_scene: f64,
    /// Links per pose.
    pub links_per_pose: u32,
    /// Distinct scene fingerprints.
    pub distinct_fingerprints: usize,
    /// Share of session opens that warm-started (filled in by the run;
    /// 0 where the workload opens no session).
    pub warm_open_share: f64,
}

impl Traffic {
    /// Measures the traffic properties of `inputs`.
    pub fn of(inputs: &Inputs) -> Traffic {
        let checks = inputs.checks();
        let per_check = |x: f64| x / checks.max(1) as f64;
        let (mut sampled_bytes, mut sampled_checks) = (0usize, 0usize);
        for req in inputs.scenes.iter().flat_map(|s| &s.batches).step_by(16) {
            sampled_bytes += req.to_text().len();
            sampled_checks += batch_motions(req).len();
        }
        let motions = || inputs.scenes.iter().flat_map(Scene::motions);
        Traffic {
            scenes: inputs.scenes.len(),
            checks,
            requests: inputs.requests(),
            req_bytes_per_check: sampled_bytes as f64 / sampled_checks.max(1) as f64,
            cdqs_declared_per_check: per_check(
                motions().map(|m| m.cdqs.len()).sum::<usize>() as f64
            ),
            poses_per_check: per_check(motions().map(|m| m.poses.len()).sum::<usize>() as f64),
            colliding_share: per_check(
                inputs.scenes.iter().map(Scene::colliding).sum::<u64>() as f64
            ),
            obstacles_per_scene: inputs
                .scenes
                .iter()
                .map(|s| s.env.obstacle_count() as f64)
                .sum::<f64>()
                / inputs.scenes.len().max(1) as f64,
            links_per_pose: inputs.link_count,
            distinct_fingerprints: inputs
                .scenes
                .iter()
                .map(|s| s.fp)
                .collect::<BTreeSet<_>>()
                .len(),
            warm_open_share: 0.0,
        }
    }

    /// The properties as `(name, value)` pairs, in report order.
    pub fn fields(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("scenes", self.scenes as f64),
            ("checks_per_pass", self.checks as f64),
            ("requests_per_pass", self.requests as f64),
            ("req_bytes_per_check", self.req_bytes_per_check),
            ("cdqs_declared_per_check", self.cdqs_declared_per_check),
            ("poses_per_check", self.poses_per_check),
            ("colliding_share", self.colliding_share),
            ("obstacles_per_scene", self.obstacles_per_scene),
            ("links_per_pose", f64::from(self.links_per_pose)),
            ("distinct_fingerprints", self.distinct_fingerprints as f64),
            ("warm_open_share", self.warm_open_share),
        ]
    }

    /// The properties as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.fields().into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{k}\": {v}");
        }
        out.push('}');
        out
    }
}
