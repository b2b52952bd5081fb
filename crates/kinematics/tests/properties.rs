//! Property-based tests for kinematics invariants.

use copred_geometry::{Obb, Vec3};
use copred_kinematics::{csp_order, presets, Config, Motion, Robot};
use proptest::prelude::*;

fn vec_bits(v: Vec3) -> [u64; 3] {
    [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]
}

fn obb_bits(o: &Obb) -> Vec<u64> {
    let mut bits = vec_bits(o.center).to_vec();
    for c in 0..3 {
        bits.extend(vec_bits(o.rot.col(c)));
    }
    bits.extend(vec_bits(o.half_extents));
    bits
}

/// Every preset, with a configuration drawn from unit-interval fractions
/// of its joint limits.
fn presets_at(fracs: &[f64]) -> Vec<(Robot, Config)> {
    [
        Robot::from(presets::kuka_iiwa()),
        Robot::from(presets::jaco2()),
        Robot::from(presets::baxter_arm()),
        Robot::from(presets::planar_arm_2dof()),
        Robot::from(presets::planar_2d()),
    ]
    .into_iter()
    .map(|robot| {
        let q = (0..robot.dofs())
            .map(|i| {
                let (lo, hi) = robot.limits(i);
                lo + (hi - lo) * fracs[i]
            })
            .collect();
        (robot, q)
    })
    .collect()
}

fn config7() -> impl Strategy<Value = Config> {
    prop::collection::vec(-1.5..1.5f64, 7).prop_map(Config::new)
}

proptest! {
    #[test]
    fn fk_is_deterministic(q in config7()) {
        let arm = presets::kuka_iiwa();
        prop_assert_eq!(arm.fk(&q), arm.fk(&q));
    }

    #[test]
    fn fk_obbs_is_bit_identical_to_fk(fracs in prop::collection::vec(0.0..1.0f64, 7)) {
        // COORD codes, verdicts and CDQ counts rest on the OBB-only FK
        // reproducing the full FK's boxes to the bit.
        let mut obbs = vec![Obb::axis_aligned(Vec3::ZERO, Vec3::ZERO); 9];
        for (robot, q) in presets_at(&fracs) {
            let pose = robot.fk(&q);
            robot.fk_obbs(&q, &mut obbs);
            prop_assert_eq!(obbs.len(), pose.links.len(), "{}", robot.name());
            for (obb, link) in obbs.iter().zip(&pose.links) {
                prop_assert_eq!(obb_bits(obb), obb_bits(&link.obb), "{}", robot.name());
                prop_assert_eq!(vec_bits(link.center), vec_bits(link.obb.center));
            }
        }
    }

    #[test]
    fn link_centers_within_workspace(q in config7()) {
        for robot in [Robot::from(presets::jaco2()), Robot::from(presets::kuka_iiwa())] {
            let ws = robot.workspace();
            for link in robot.fk(&q).links {
                prop_assert!(ws.contains(link.center));
            }
        }
    }

    #[test]
    fn chain_is_connected(q in config7()) {
        // Consecutive link OBBs meet: the distal end of link i equals the
        // proximal end of link i+1, so both OBBs contain that joint point.
        let arm = presets::baxter_arm();
        let ts = arm.link_transforms(&q);
        let pose = arm.fk(&q);
        for i in 0..pose.links.len() - 1 {
            let joint = ts[i + 1].trans;
            prop_assert!(pose.links[i].obb.contains(joint));
            prop_assert!(pose.links[i + 1].obb.contains(joint));
        }
    }

    #[test]
    fn small_config_change_moves_links_little(q in config7(), eps in 1e-6..1e-3f64) {
        // Physical spatial locality (the paper's key insight): nearby poses
        // have nearby link centers. FK is Lipschitz with constant bounded by
        // the total reach.
        let arm = presets::kuka_iiwa();
        let mut q2 = q.clone();
        q2.values_mut()[3] += eps;
        let a = arm.fk(&q);
        let b = arm.fk(&q2);
        let reach = arm.reach();
        for (la, lb) in a.links.iter().zip(&b.links) {
            prop_assert!(la.center.distance(lb.center) <= reach * eps * 2.0 + 1e-9);
        }
    }

    #[test]
    fn motion_discretization_monotone_along_line(n in 2usize..40) {
        let m = Motion::new(Config::zeros(3), Config::new(vec![1.0, -2.0, 0.5]));
        let ps = m.discretize(n);
        prop_assert_eq!(ps.len(), n);
        // Distances from start are nondecreasing.
        let mut prev = -1.0;
        for p in &ps {
            let d = m.from.distance(p);
            prop_assert!(d >= prev - 1e-12);
            prev = d;
        }
    }

    #[test]
    fn csp_is_permutation(n in 0usize..200, step in 0usize..250) {
        // `step` deliberately covers the degenerate 0, strides larger than
        // `n`, and everything between: every case must visit each pose
        // exactly once.
        let mut order = csp_order(n, step);
        order.sort_unstable();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn csp_degenerate_strides_are_identity(n in 0usize..64) {
        let identity: Vec<usize> = (0..n).collect();
        prop_assert_eq!(csp_order(n, 0), identity.clone(), "step 0");
        prop_assert_eq!(csp_order(n, 1), identity, "step 1");
    }

    #[test]
    fn sphere_set_encloses_obb_center(q in config7()) {
        let arm = presets::jaco2();
        for link in arm.fk(&q).links {
            prop_assert!(link.spheres.iter().any(|s| s.contains(link.center)));
        }
    }
}
