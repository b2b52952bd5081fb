//! Allocation regression test for `execute_batch`: a batch's heap
//! allocations are a per-batch constant (the result vector and one set of
//! reused scheduling buffers) and do not grow with the number of motions
//! or CDQs in it.
//!
//! The file holds a single test so no other test shares the process-wide
//! allocation counter while it measures.

use copred_collision::{enumerate_motion_cdqs, Environment, Schedule};
use copred_core::ChtParams;
use copred_geometry::{Aabb, Vec3};
use copred_kinematics::{presets, Motion, Robot};
use copred_service::{execute_batch, SchedMode, SessionRegistry};
use copred_trace::{MotionTrace, QueryTrace, Stage, TraceCdq};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator and counts every `alloc`,
/// `alloc_zeroed` and `realloc` call.
struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a relaxed statistic that publishes no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` and the caller upholds
        // `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Slack for scratch growth: the longer batch may meet a motion with more
/// poses or CDQs than any in the shorter one, and each of the batch's six
/// reused buffers then doubles a few more times.
const GROWTH_SLACK: u64 = 16;

/// KUKA motions of 4 to 12 poses with ground-truth CDQs against two
/// boxes in the arm's reach.
fn kuka_trace(n: usize, seed: u64) -> QueryTrace {
    let robot: Robot = presets::kuka_iiwa().into();
    let env = Environment::new(
        robot.workspace(),
        vec![
            Aabb::from_center_half_extents(Vec3::new(0.5, 0.0, 0.4), Vec3::splat(0.15)),
            Aabb::from_center_half_extents(Vec3::new(-0.3, 0.4, 0.6), Vec3::splat(0.1)),
        ],
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let motions = (0..n)
        .map(|_| {
            let n_poses = rng.gen_range(4..=12);
            let poses = Motion::new(
                robot.sample_uniform(&mut rng),
                robot.sample_uniform(&mut rng),
            )
            .discretize(n_poses);
            let cdqs = enumerate_motion_cdqs(&robot, &env, &poses)
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
                stage: Stage::Explore,
                poses,
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

#[test]
fn execute_batch_allocations_do_not_grow_with_motions() {
    let trace = kuka_trace(80, 13);
    let (short, long) = (&trace.motions[..8], &trace.motions[..]);
    assert!(
        trace.motions.iter().any(MotionTrace::colliding),
        "the batch must exercise early exit"
    );
    let registry = SessionRegistry::new(ChtParams::paper_arm(), 4);
    let step = Schedule::DEFAULT_CSP_STEP;
    for mode in [SchedMode::Coord, SchedMode::Csp] {
        let (session, _) = registry.open("kuka-iiwa", mode, 5).expect("open");
        // Warm lazily initialised per-thread state (profiler stage cell)
        // so both measured batches start equal.
        let _ = execute_batch(&session, short, step);
        let measure = |motions: &[MotionTrace]| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let cdqs: u64 = execute_batch(&session, motions, step)
                .iter()
                .map(|r| r.cdqs_executed)
                .sum();
            (ALLOCATIONS.load(Ordering::Relaxed) - before, cdqs)
        };
        let (a_short, cdqs_short) = measure(short);
        let (a_long, cdqs_long) = measure(long);
        assert!(
            cdqs_long > 5 * cdqs_short,
            "{mode:?}: the long batch must do far more work: {cdqs_long} vs {cdqs_short} CDQs"
        );
        assert!(
            a_long <= a_short + GROWTH_SLACK,
            "{mode:?}: {a_long} allocations for 80 motions vs {a_short} for 8"
        );
    }
}
