//! Dadu-P-style octree-voxel accelerator with environment-space hashing
//! (paper §VII-2).
//!
//! Dadu-P (ref. \[31\]) precomputes an octree of the space each short (roadmap)
//! motion sweeps, then at runtime tests that octree against the voxels
//! occupied by environmental obstacles; a CDQ here is one motion-octree vs
//! voxel test. The hashing function is applied to the *voxel coordinates*:
//! a voxel seen colliding with a previous motion is likely to collide with
//! the next one, so predicted voxels are tested first. The paper reports,
//! for colliding motions relative to naive voxel order: CSP −74.3%,
//! CSP+COPU −81.2%, oracle limit −99%.

use copred_collision::Environment;
use copred_core::{Cht, ChtParams};
use copred_geometry::{Octree, VoxelCoord, VoxelGrid};
use copred_kinematics::{csp_order, Config, Robot};

/// Scheduling mode for the voxel stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DadupMode {
    /// Voxels in storage order.
    Naive,
    /// Coarse-step reordering of the voxel stream (ref. \[43\]).
    Csp,
    /// CSP plus the voxel-hash COPU with a bounded deferral queue.
    CspCopu,
    /// Perfect prediction: one CDQ per colliding motion.
    Oracle,
}

/// Configuration of the Dadu-P substrate.
#[derive(Debug, Clone)]
pub struct DadupConfig {
    /// Voxels per axis for the environment grid.
    pub voxel_resolution: u32,
    /// Maximum octree depth for motion swept volumes.
    pub octree_depth: u32,
    /// Poses per motion when sweeping the volume.
    pub sweep_samples: usize,
    /// CSP stride over the voxel stream.
    pub csp_step: usize,
    /// CHT parameters for the voxel-hash COPU.
    pub cht_params: ChtParams,
    /// Deferral (QNONCOLL) capacity; `usize::MAX` for the idealized queue.
    pub queue_len: usize,
    /// CHT seed.
    pub seed: u64,
}

impl Default for DadupConfig {
    fn default() -> Self {
        DadupConfig {
            voxel_resolution: 32,
            octree_depth: 5,
            sweep_samples: 10,
            csp_step: 7,
            cht_params: ChtParams::paper_arm(),
            queue_len: 56,
            seed: 11,
        }
    }
}

/// One precomputed motion: its swept-volume octree.
#[derive(Debug, Clone)]
pub struct PrecomputedMotion {
    octree: Octree,
}

/// Precomputes the octree of the volume `poses` sweep (the offline step of
/// Dadu-P). The swept volume is the union of all link AABBs over the sample
/// poses.
pub fn precompute_motion(robot: &Robot, poses: &[Config], cfg: &DadupConfig) -> PrecomputedMotion {
    let mut boxes = Vec::with_capacity(poses.len() * robot.link_count());
    let mut obbs = Vec::with_capacity(robot.link_count());
    for q in poses {
        robot.fk_obbs(q, &mut obbs);
        boxes.extend(obbs.iter().map(|o| o.aabb()));
    }
    PrecomputedMotion {
        octree: Octree::build(robot.workspace(), cfg.octree_depth, &boxes),
    }
}

/// Result of checking one motion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DadupMotionResult {
    /// Whether the motion's swept volume hits an occupied voxel.
    pub colliding: bool,
    /// Motion-octree vs voxel CDQs executed.
    pub cdqs: u64,
}

/// Hash code of an environment voxel: concatenated voxel coordinates packed
/// to fit the paper-sized 4096-entry table (5 bits x, 5 bits y, 2 bits z for
/// the default 32³ grid), so nearby voxels share table entries — the
/// locality COORD exploits, applied to environment space.
fn voxel_code(c: VoxelCoord) -> u64 {
    (u64::from(c.x & 0x1F) << 7) | (u64::from(c.y & 0x1F) << 2) | u64::from(c.z & 0x3)
}

/// The Dadu-P runtime: checks precomputed motions against the voxelized
/// environment with the selected voxel schedule.
#[derive(Debug)]
pub struct DadupSim {
    grid: VoxelGrid,
    voxels: Vec<VoxelCoord>,
    cht: Cht,
    cfg: DadupConfig,
}

impl DadupSim {
    /// Voxelizes `env` and prepares the runtime.
    pub fn new(env: &Environment, cfg: DadupConfig) -> Self {
        let grid = env.voxelize(cfg.voxel_resolution);
        let voxels: Vec<VoxelCoord> = grid.occupied_voxels().collect();
        let cht = Cht::new(cfg.cht_params, cfg.seed);
        DadupSim {
            grid,
            voxels,
            cht,
            cfg,
        }
    }

    /// Number of occupied environment voxels (CDQs per exhaustive check).
    pub fn voxel_count(&self) -> usize {
        self.voxels.len()
    }

    /// Clears voxel-collision history (environment re-mapped).
    pub fn reset(&mut self) {
        self.cht.reset();
    }

    /// Checks one precomputed motion under `mode`.
    pub fn run_motion(&mut self, motion: &PrecomputedMotion, mode: DadupMode) -> DadupMotionResult {
        let n = self.voxels.len();
        let base_order: Vec<usize> = match mode {
            DadupMode::Naive => (0..n).collect(),
            _ => csp_order(n, self.cfg.csp_step),
        };
        let grid = &self.grid;
        let voxels = &self.voxels;
        let cht = &mut self.cht;
        let test = |i: usize, executed: &mut u64, cht: &mut Cht, observe: bool| -> bool {
            *executed += 1;
            let v = voxels[i];
            let hit = motion.octree.intersects(&grid.voxel_aabb(v));
            if observe {
                cht.observe(voxel_code(v), hit);
            }
            hit
        };
        let mut executed = 0u64;
        match mode {
            DadupMode::Oracle => {
                let colliding = voxels
                    .iter()
                    .any(|&v| motion.octree.intersects(&grid.voxel_aabb(v)));
                DadupMotionResult {
                    colliding,
                    cdqs: if colliding { 1 } else { n as u64 },
                }
            }
            DadupMode::Naive | DadupMode::Csp => {
                for i in base_order {
                    if test(i, &mut executed, cht, false) {
                        return DadupMotionResult {
                            colliding: true,
                            cdqs: executed,
                        };
                    }
                }
                DadupMotionResult {
                    colliding: false,
                    cdqs: executed,
                }
            }
            DadupMode::CspCopu => {
                // Bounded deferral: unpredicted voxels wait in a queue of
                // size `queue_len`; overflow forces execution of the oldest
                // deferred voxel (the limited-queue effect the paper notes).
                let mut queue: Vec<usize> = Vec::new();
                for i in base_order {
                    let predicted = cht.predict(voxel_code(voxels[i]));
                    if predicted {
                        if test(i, &mut executed, cht, true) {
                            return DadupMotionResult {
                                colliding: true,
                                cdqs: executed,
                            };
                        }
                    } else if queue.len() < self.cfg.queue_len {
                        queue.push(i);
                    } else {
                        let oldest = queue.remove(0);
                        queue.push(i);
                        if test(oldest, &mut executed, cht, true) {
                            return DadupMotionResult {
                                colliding: true,
                                cdqs: executed,
                            };
                        }
                    }
                }
                for i in queue {
                    if test(i, &mut executed, cht, true) {
                        return DadupMotionResult {
                            colliding: true,
                            cdqs: executed,
                        };
                    }
                }
                DadupMotionResult {
                    colliding: false,
                    cdqs: executed,
                }
            }
        }
    }

    /// Checks a workload, returning `(results, cdqs on colliding motions)` —
    /// the paper's §VII-2 metric is the reduction for colliding motions.
    pub fn run_workload(
        &mut self,
        motions: &[PrecomputedMotion],
        mode: DadupMode,
    ) -> (Vec<DadupMotionResult>, u64) {
        let results: Vec<_> = motions.iter().map(|m| self.run_motion(m, mode)).collect();
        let colliding_cdqs = results.iter().filter(|r| r.colliding).map(|r| r.cdqs).sum();
        (results, colliding_cdqs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copred_geometry::{Aabb, Vec3};
    use copred_kinematics::{presets, Motion, Robot};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Robot, Environment, Vec<PrecomputedMotion>) {
        let robot: Robot = presets::planar_2d().into();
        let env = Environment::new(
            robot.workspace(),
            vec![
                Aabb::new(Vec3::new(0.2, -0.6, -0.05), Vec3::new(0.5, 0.4, 0.05)),
                Aabb::new(Vec3::new(-0.6, 0.3, -0.05), Vec3::new(-0.3, 0.7, 0.05)),
            ],
        );
        let cfg = DadupConfig::default();
        let mut rng = StdRng::seed_from_u64(9);
        let motions: Vec<_> = (0..30)
            .map(|_| {
                let m = Motion::new(
                    robot.sample_uniform(&mut rng),
                    robot.sample_uniform(&mut rng),
                );
                precompute_motion(&robot, &m.discretize(cfg.sweep_samples), &cfg)
            })
            .collect();
        (robot, env, motions)
    }

    #[test]
    fn modes_agree_on_outcomes() {
        let (_, env, motions) = setup();
        let mut sims: Vec<DadupSim> = (0..4)
            .map(|_| DadupSim::new(&env, DadupConfig::default()))
            .collect();
        let modes = [
            DadupMode::Naive,
            DadupMode::Csp,
            DadupMode::CspCopu,
            DadupMode::Oracle,
        ];
        let outcomes: Vec<Vec<bool>> = sims
            .iter_mut()
            .zip(modes)
            .map(|(s, m)| {
                s.run_workload(&motions, m)
                    .0
                    .iter()
                    .map(|r| r.colliding)
                    .collect()
            })
            .collect();
        for o in &outcomes[1..] {
            assert_eq!(o, &outcomes[0], "scheduling changed an outcome");
        }
        // The scene must exercise both outcomes.
        assert!(outcomes[0].iter().any(|&c| c));
        assert!(outcomes[0].iter().any(|&c| !c));
    }

    #[test]
    fn ordering_hierarchy_on_colliding_motions() {
        let (_, env, motions) = setup();
        let run = |mode| {
            let mut s = DadupSim::new(&env, DadupConfig::default());
            s.run_workload(&motions, mode).1
        };
        let naive = run(DadupMode::Naive);
        let csp = run(DadupMode::Csp);
        let copu = run(DadupMode::CspCopu);
        let oracle = run(DadupMode::Oracle);
        assert!(csp < naive, "csp {csp} !< naive {naive}");
        assert!(copu < csp, "copu {copu} !< csp {csp}");
        assert!(oracle <= copu, "oracle {oracle} !<= copu {copu}");
    }

    #[test]
    fn oracle_is_one_cdq_per_colliding_motion() {
        let (_, env, motions) = setup();
        let mut s = DadupSim::new(&env, DadupConfig::default());
        let (results, cdqs) = s.run_workload(&motions, DadupMode::Oracle);
        let colliding = results.iter().filter(|r| r.colliding).count() as u64;
        assert_eq!(cdqs, colliding);
    }

    #[test]
    fn smaller_queue_gives_less_benefit() {
        let (_, env, motions) = setup();
        let run = |queue_len| {
            let cfg = DadupConfig {
                queue_len,
                ..Default::default()
            };
            let mut s = DadupSim::new(&env, cfg);
            s.run_workload(&motions, DadupMode::CspCopu).1
        };
        let tiny = run(2);
        let big = run(100_000);
        // Forced early execution of deferred voxels occasionally gets lucky,
        // so allow a small tolerance around the expected ordering.
        assert!(
            tiny as f64 >= big as f64 * 0.95,
            "tiny queue {tiny} beat big queue {big} by more than noise"
        );
    }

    #[test]
    fn octree_precompute_covers_motion() {
        let robot: Robot = presets::planar_2d().into();
        let cfg = DadupConfig::default();
        let m = Motion::new(Config::new(vec![-0.5, 0.0]), Config::new(vec![0.5, 0.0]));
        let poses = m.discretize(cfg.sweep_samples);
        let pre = precompute_motion(&robot, &poses, &cfg);
        // The swept octree must contain every sample pose's disc center.
        for q in &poses {
            assert!(pre.octree.contains(Vec3::planar(q[0], q[1])));
        }
    }

    #[test]
    fn empty_environment_has_no_cdqs() {
        let robot: Robot = presets::planar_2d().into();
        let env = Environment::empty(robot.workspace());
        let cfg = DadupConfig::default();
        let m = precompute_motion(
            &robot,
            &Motion::new(Config::zeros(2), Config::new(vec![0.5, 0.5])).discretize(5),
            &cfg,
        );
        let mut s = DadupSim::new(&env, cfg);
        assert_eq!(s.voxel_count(), 0);
        let r = s.run_motion(&m, DadupMode::CspCopu);
        assert!(!r.colliding);
        assert_eq!(r.cdqs, 0);
    }
}
