//! Allocation regression test for `run_cpu`: a run's heap allocations are
//! a per-run, per-thread constant (the CHT, the worker threads and their
//! reused buffers) and do not grow with the number of motions or poses.
//!
//! The file holds a single test so no other test shares the process-wide
//! allocation counter while it measures.

use copred_collision::Environment;
use copred_core::ChtParams;
use copred_geometry::{Aabb, Vec3};
use copred_kinematics::{presets, Config, Motion, Robot};
use copred_swexec::{run_cpu, CpuExecConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
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

/// Slack for the deferred queue's amortized growth: a longer run may meet
/// a motion that defers more CDQs than any before it, and each doubling
/// up to `poses × links` entries is one `realloc`.
const GROWTH_SLACK: u64 = 12;

fn kuka_motions(n: usize, rng: &mut StdRng, robot: &Robot) -> Vec<Vec<Config>> {
    (0..n)
        .map(|_| Motion::new(robot.sample_uniform(rng), robot.sample_uniform(rng)).discretize(16))
        .collect()
}

fn allocations_of(f: impl FnOnce() -> u64) -> (u64, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn run_cpu_allocations_do_not_grow_with_motions() {
    let robot: Robot = presets::kuka_iiwa().into();
    let env = Environment::new(
        robot.workspace(),
        vec![
            Aabb::from_center_half_extents(Vec3::new(0.5, 0.0, 0.4), Vec3::splat(0.15)),
            Aabb::from_center_half_extents(Vec3::new(-0.3, 0.4, 0.6), Vec3::splat(0.1)),
        ],
    );
    let mut rng = StdRng::seed_from_u64(13);
    let short = kuka_motions(40, &mut rng, &robot);
    let long = kuka_motions(400, &mut rng, &robot);
    for with_prediction in [false, true] {
        let cfg = CpuExecConfig {
            n_threads: 1,
            with_prediction,
            cht_params: ChtParams::paper_arm(),
            seed: 5,
        };
        // Warm any lazily initialised process state (thread registry,
        // observability switches) so both measured runs start equal.
        let _ = run_cpu(&robot, &env, &short, &cfg);
        let (a_short, cdqs_short) =
            allocations_of(|| run_cpu(&robot, &env, &short, &cfg).cdqs_executed);
        let (a_long, cdqs_long) =
            allocations_of(|| run_cpu(&robot, &env, &long, &cfg).cdqs_executed);
        assert!(
            cdqs_long > 5 * cdqs_short,
            "the long run must do far more work: {cdqs_long} vs {cdqs_short} CDQs"
        );
        assert!(
            a_long <= a_short + GROWTH_SLACK,
            "prediction={with_prediction}: {a_long} allocations for 400 motions vs \
             {a_short} for 40"
        );
    }
}
