//! Criterion microbenchmarks for the hot kernels behind every figure:
//! COORD/POSE hashing, CHT lookups/updates, the OBB SAT test, forward
//! kinematics, end-to-end motion checks with and without prediction, the
//! motion-block text codec every wire request carries, and the service's
//! batch executor behind it.

use copred_collision::{check_motion_scheduled, Environment, Schedule};
use copred_core::hash::CollisionHash;
use copred_core::{Cht, ChtParams, CoordHash, HashInput, PoseHash, Predictor};
use copred_geometry::{Aabb, Mat3, Obb, Vec3};
use copred_kinematics::{presets, Config, Motion, Robot};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_hash_kernels(c: &mut Criterion) {
    let robot: Robot = presets::kuka_iiwa().into();
    let coord = CoordHash::paper_default(&robot);
    let pose_hash = PoseHash::new(&robot, 4);
    let q = Config::new(vec![0.3, -0.5, 0.8, -1.0, 0.2, 0.6, -0.4]);
    let center = robot.fk(&q).links[3].center;
    let input = HashInput { config: &q, center };
    let mut g = c.benchmark_group("hash");
    g.bench_function("coord", |b| {
        b.iter(|| black_box(coord.code(black_box(&input))))
    });
    g.bench_function("pose", |b| {
        b.iter(|| black_box(pose_hash.code(black_box(&input))))
    });
    g.finish();
}

fn bench_cht_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("cht");
    g.bench_function("predict", |b| {
        let mut cht = Cht::new(ChtParams::paper_arm(), 1);
        cht.observe(100, true);
        let mut code = 0u64;
        b.iter(|| {
            code = (code + 1) & 0xFFF;
            black_box(cht.predict(black_box(code)))
        })
    });
    g.bench_function("observe", |b| {
        let mut cht = Cht::new(ChtParams::paper_arm(), 1);
        let mut code = 0u64;
        b.iter(|| {
            code = (code + 1) & 0xFFF;
            cht.observe(black_box(code), code & 1 == 0);
        })
    });
    g.finish();
}

fn bench_obb_sat(c: &mut Criterion) {
    let a = Obb::new(Vec3::ZERO, Mat3::rot_z(0.4), Vec3::new(0.3, 0.2, 0.1));
    let hit = Obb::new(
        Vec3::new(0.2, 0.1, 0.0),
        Mat3::rot_x(0.7),
        Vec3::new(0.2, 0.2, 0.2),
    );
    let miss = Obb::new(
        Vec3::new(2.0, 2.0, 2.0),
        Mat3::rot_y(1.0),
        Vec3::new(0.2, 0.2, 0.2),
    );
    let mut g = c.benchmark_group("obb_sat");
    g.bench_function("hit", |b| {
        b.iter(|| black_box(a.intersects(black_box(&hit))))
    });
    g.bench_function("miss", |b| {
        b.iter(|| black_box(a.intersects(black_box(&miss))))
    });
    g.finish();
}

fn bench_fk(c: &mut Criterion) {
    let robot: Robot = presets::baxter_arm().into();
    let q = Config::new(vec![0.1, -0.4, 0.9, 0.5, -0.7, 0.3, 0.2]);
    c.bench_function("fk_7dof", |b| b.iter(|| black_box(robot.fk(black_box(&q)))));
    // The OBB-only FK the detection hot path runs, into a reused buffer.
    let mut obbs = Vec::with_capacity(robot.link_count());
    c.bench_function("fk_obbs_7dof", |b| {
        b.iter(|| {
            robot.fk_obbs(black_box(&q), &mut obbs);
            black_box(&obbs);
        })
    });
}

fn bench_motion_check(c: &mut Criterion) {
    let robot: Robot = presets::planar_2d().into();
    let env = Environment::new(
        robot.workspace(),
        vec![Aabb::new(
            Vec3::new(0.2, -1.0, -0.1),
            Vec3::new(0.6, 1.0, 0.1),
        )],
    );
    let poses =
        Motion::new(Config::new(vec![-0.8, 0.0]), Config::new(vec![0.8, 0.0])).discretize(33);
    let mut g = c.benchmark_group("motion_check");
    g.bench_function("csp", |b| {
        b.iter(|| {
            black_box(check_motion_scheduled(
                black_box(&robot),
                &env,
                &poses,
                Schedule::csp_default(),
            ))
        })
    });
    g.bench_function("coord_warm", |b| {
        // Warm predictor: the regime the accelerator operates in.
        let mut pred = Predictor::coord_default(&robot, 3);
        let _ = pred.check_motion(&robot, &env, &poses);
        b.iter(|| black_box(pred.check_motion(black_box(&robot), &env, &poses)))
    });
    g.bench_function("coord_cold", |b| {
        b.iter_batched(
            || Predictor::coord_default(&robot, 3),
            |mut pred| black_box(pred.check_motion(&robot, &env, &poses)),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_accel_sim(c: &mut Criterion) {
    use copred_accel::{AccelConfig, AccelSim};
    use copred_planners::{MotionRecord, PlanLog, Stage};
    use copred_trace::QueryTrace;

    // A representative arm motion trace (20 poses x 7 links).
    let robot: Robot = presets::kuka_iiwa().into();
    let env = Environment::new(
        robot.workspace(),
        vec![Aabb::from_center_half_extents(
            Vec3::new(0.45, 0.1, 0.45),
            Vec3::splat(0.22),
        )],
    );
    let mut rng = StdRng::seed_from_u64(2);
    let poses = Motion::new(
        robot.sample_uniform(&mut rng),
        robot.sample_uniform(&mut rng),
    )
    .discretize(20);
    let colliding = copred_collision::motion_collides(&robot, &env, &poses);
    let trace = QueryTrace::from_log(
        &robot,
        &env,
        &PlanLog {
            records: vec![MotionRecord {
                poses,
                stage: Stage::Explore,
                colliding,
            }],
        },
    );
    let motion = &trace.motions[0];
    let hash = copred_core::CoordHash::paper_default(&robot);
    let mut g = c.benchmark_group("accel_sim_motion");
    g.bench_function("baseline_4cdu", |b| {
        let mut sim = AccelSim::new(AccelConfig::baseline(4), hash.clone());
        b.iter(|| black_box(sim.run_motion(black_box(motion))))
    });
    g.bench_function("copu_4cdu", |b| {
        let mut sim = AccelSim::new(
            AccelConfig::copu(4, copred_core::ChtParams::paper_arm()),
            hash.clone(),
        );
        b.iter(|| black_box(sim.run_motion(black_box(motion))))
    });
    g.finish();
}

fn bench_motion_block_codec(c: &mut Criterion) {
    use copred_planners::{MotionRecord, PlanLog, Stage};
    use copred_trace::{MotionTrace, QueryTrace};

    // One 7-DOF motion of 6 poses: 42 CDQs, 84 floats on the wire.
    let robot: Robot = presets::kuka_iiwa().into();
    let env = Environment::new(
        robot.workspace(),
        vec![Aabb::from_center_half_extents(
            Vec3::new(0.45, 0.1, 0.45),
            Vec3::splat(0.22),
        )],
    );
    let mut rng = StdRng::seed_from_u64(5);
    let poses = Motion::new(
        robot.sample_uniform(&mut rng),
        robot.sample_uniform(&mut rng),
    )
    .discretize(6);
    let colliding = copred_collision::motion_collides(&robot, &env, &poses);
    let trace = QueryTrace::from_log(
        &robot,
        &env,
        &PlanLog {
            records: vec![MotionRecord {
                poses,
                stage: Stage::Explore,
                colliding,
            }],
        },
    );
    let motion = &trace.motions[0];
    assert_eq!(motion.cdqs.len(), 42);
    let text = motion.to_text();
    let mut out = String::with_capacity(text.len());
    c.bench_function("motion_block_encode", |b| {
        b.iter(|| {
            out.clear();
            black_box(motion).write_text(&mut out);
            black_box(&out);
        })
    });
    c.bench_function("motion_block_decode", |b| {
        b.iter(|| black_box(MotionTrace::from_text(black_box(&text))))
    });
}

fn bench_execute_batch(c: &mut Criterion) {
    use copred_planners::{MotionRecord, PlanLog, Stage};
    use copred_service::{execute_batch, SchedMode, SessionRegistry};
    use copred_trace::QueryTrace;

    // One wire batch: 8 seven-DOF motions of 6 poses (42 CDQs each),
    // checked on a Coord session whose table has already learned them.
    let robot: Robot = presets::kuka_iiwa().into();
    let env = Environment::new(
        robot.workspace(),
        vec![Aabb::from_center_half_extents(
            Vec3::new(0.45, 0.1, 0.45),
            Vec3::splat(0.22),
        )],
    );
    let mut rng = StdRng::seed_from_u64(6);
    let records = (0..8)
        .map(|_| {
            let poses = Motion::new(
                robot.sample_uniform(&mut rng),
                robot.sample_uniform(&mut rng),
            )
            .discretize(6);
            let colliding = copred_collision::motion_collides(&robot, &env, &poses);
            MotionRecord {
                poses,
                stage: Stage::Explore,
                colliding,
            }
        })
        .collect();
    let trace = QueryTrace::from_log(&robot, &env, &PlanLog { records });
    let registry = SessionRegistry::new(ChtParams::paper_arm(), 1);
    let (session, _) = registry
        .open("kuka-iiwa", SchedMode::Coord, 7)
        .expect("open session");
    let step = Schedule::DEFAULT_CSP_STEP;
    for _ in 0..4 {
        let _ = execute_batch(&session, &trace.motions, step);
    }
    c.bench_function("execute_batch", |b| {
        b.iter(|| black_box(execute_batch(&session, black_box(&trace.motions), step)))
    });
}

fn bench_scene_generation(c: &mut Criterion) {
    let robot: Robot = presets::planar_2d().into();
    let mut rng = StdRng::seed_from_u64(4);
    c.bench_function("calibrated_scene", |b| {
        b.iter(|| {
            black_box(copred_envgen::calibrated_environment(
                &robot,
                copred_envgen::Density::Medium,
                50,
                &mut rng,
            ))
        })
    });
}

criterion_group!(
    benches,
    bench_hash_kernels,
    bench_cht_ops,
    bench_obb_sat,
    bench_fk,
    bench_motion_check,
    bench_accel_sim,
    bench_motion_block_codec,
    bench_execute_batch,
    bench_scene_generation
);
criterion_main!(benches);
