//! The untraced closed-loop load generators behind the end-to-end metrics.
//!
//! Work is dealt in whole passes over the workload's scenes: a pass that
//! has started is always finished, and no new pass starts once the
//! measuring time is up, so every count is a whole number of passes and
//! repeats exactly for a seed.

use crate::inputs::{Inputs, Scene};
use crate::report::Sample;
use copred_core::ChtParams;
use copred_service::{Request, Response, SchedMode, ServiceClient};
use copred_swexec::{run_cpu, CpuExecConfig};
use std::io;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Mismatch messages kept per run; later ones are only counted.
const KEPT_MISMATCHES: usize = 10;

/// Hands out scene indices pass after pass until the deadline, never
/// stopping inside a pass.
struct Dispenser {
    scenes: usize,
    start: Instant,
    measure: Duration,
    /// `(next item, item count once the last pass is fixed)`.
    state: Mutex<(usize, Option<usize>)>,
}

impl Dispenser {
    fn new(scenes: usize, measure: Duration) -> Self {
        Dispenser {
            scenes,
            start: Instant::now(),
            measure,
            state: Mutex::new((0, None)),
        }
    }

    fn next(&self) -> Option<usize> {
        let mut state = self.state.lock().expect("dispenser lock");
        let (next, limit) = &mut *state;
        match *limit {
            Some(l) if *next >= l => return None,
            None if *next > 0
                && *next % self.scenes == 0
                && self.start.elapsed() >= self.measure =>
            {
                *limit = Some(*next);
                return None;
            }
            _ => {}
        }
        *next += 1;
        Some(*next - 1)
    }
}

/// What a run over the wire observed.
#[derive(Debug, Default)]
pub struct ServiceRun {
    /// Motion checks answered with a verdict.
    pub checks: u64,
    /// Operations attempted (open, check request, close).
    pub ops: u64,
    /// Operations that failed.
    pub failed: u64,
    /// CDQs the server executed for the answered checks.
    pub cdqs_executed: u64,
    /// Every check request: client-observed round trip and completion.
    pub samples: Vec<Sample>,
    /// Sessions opened, and how many warm-started.
    pub opens: u64,
    /// Opens acknowledged `warm 1`.
    pub warm_opens: u64,
    /// Wall time from the first request to the last reply.
    pub wall: Duration,
    /// The first few mismatches, described.
    pub mismatches: Vec<String>,
}

impl ServiceRun {
    fn absorb(&mut self, other: ServiceRun) {
        self.checks += other.checks;
        self.ops += other.ops;
        self.failed += other.failed;
        self.cdqs_executed += other.cdqs_executed;
        self.samples.extend(other.samples);
        self.opens += other.opens;
        self.warm_opens += other.warm_opens;
        for m in other.mismatches {
            if self.mismatches.len() < KEPT_MISMATCHES {
                self.mismatches.push(m);
            }
        }
    }

    fn mismatch(&mut self, what: String) {
        self.failed += 1;
        if self.mismatches.len() < KEPT_MISMATCHES {
            self.mismatches.push(what);
        }
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Busy-waits for `d` (a slowdown planted by the sensitivity test; zero
/// in every benchmark run).
fn spin(d: Duration) {
    if d.is_zero() {
        return;
    }
    let t = Instant::now();
    while t.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Closed-loop service load generator: `connections` clients each open a
/// session for the next scene, send its check requests one at a time,
/// waiting for each verdict, and close it. Runs whole passes until
/// `measure` has elapsed (a zero `measure` runs exactly one pass).
/// `delay` is added inside every timed round trip.
///
/// # Errors
///
/// A connection fails or breaks.
pub fn drive_service(
    addr: &str,
    inputs: &mut Inputs,
    connections: usize,
    measure: Duration,
    delay: Duration,
) -> io::Result<ServiceRun> {
    let opens: Vec<Request> = (0..inputs.scenes.len())
        .map(|i| inputs.open_request(i, SchedMode::Coord))
        .collect();
    let slots: Vec<Mutex<&mut Scene>> = inputs.scenes.iter_mut().map(Mutex::new).collect();
    let mut clients = (0..connections)
        .map(|_| ServiceClient::connect(addr))
        .collect::<io::Result<Vec<_>>>()?;
    let dispenser = Dispenser::new(slots.len(), measure);
    let outcomes: Vec<io::Result<ServiceRun>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (slots, opens, dispenser) = (&slots, &opens, &dispenser);
                s.spawn(move || serve_scenes(client, slots, opens, dispenser, delay))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut run = ServiceRun {
        wall: dispenser.start.elapsed(),
        ..ServiceRun::default()
    };
    for outcome in outcomes {
        run.absorb(outcome?);
    }
    Ok(run)
}

fn serve_scenes(
    client: &mut ServiceClient,
    slots: &[Mutex<&mut Scene>],
    opens: &[Request],
    dispenser: &Dispenser,
    delay: Duration,
) -> io::Result<ServiceRun> {
    let mut run = ServiceRun {
        samples: Vec::with_capacity(1 << 16),
        ..ServiceRun::default()
    };
    while let Some(item) = dispenser.next() {
        let i = item % slots.len();
        let mut scene = slots[i].lock().expect("scene lock");
        run.ops += 1;
        let id = match client.call(&opens[i])? {
            Response::Session { id, warm } => {
                run.opens += 1;
                run.warm_opens += u64::from(warm);
                id
            }
            other => {
                run.mismatch(format!("open of scene {i} answered {other:?}"));
                continue;
            }
        };
        let scene = &mut **scene;
        for (b, (req, truth)) in scene.batches.iter_mut().zip(&scene.truth).enumerate() {
            if let Request::CheckMotion { session, .. } = req {
                *session = id;
            }
            let t = Instant::now();
            let resp = client.call(req)?;
            spin(delay);
            run.samples.push(Sample {
                end_ns: nanos(dispenser.start.elapsed()),
                latency_ns: nanos(t.elapsed()),
                checks: truth.len() as u64,
            });
            run.ops += 1;
            match resp {
                Response::Results { results, .. } if results.len() == truth.len() => {
                    run.checks += results.len() as u64;
                    let mut wrong = None;
                    for (m, (r, &expect)) in results.iter().zip(truth).enumerate() {
                        run.cdqs_executed += r.cdqs_executed;
                        if r.colliding != expect || r.cdqs_executed > r.cdqs_total {
                            wrong.get_or_insert(format!(
                                "scene {i} batch {b} motion {m}: got {r:?}, truth colliding={expect}"
                            ));
                        }
                    }
                    if let Some(w) = wrong {
                        run.mismatch(w);
                    }
                }
                other => run.mismatch(format!("scene {i} batch {b} answered {other:?}")),
            }
        }
        run.ops += 1;
        match client.call(&Request::Close { session: id })? {
            Response::Closed => {}
            other => run.mismatch(format!("close of scene {i} answered {other:?}")),
        }
    }
    Ok(run)
}

/// What the in-process detection run observed.
#[derive(Debug, Default)]
pub struct DetectRun {
    /// Motions checked.
    pub checks: u64,
    /// `run_cpu` calls made (one per scene per pass).
    pub calls: u64,
    /// Calls whose colliding-motion count was wrong.
    pub failed: u64,
    /// CDQs executed.
    pub cdqs_executed: u64,
    /// Every call: wall time and completion.
    pub samples: Vec<Sample>,
    /// Wall time of the whole run.
    pub wall: Duration,
    /// The first few mismatches, described.
    pub mismatches: Vec<String>,
}

/// The `run_cpu` configuration of the detection workload: prediction on,
/// two threads, the arm CHT geometry.
pub fn detect_config(seed: u64, with_prediction: bool) -> CpuExecConfig {
    CpuExecConfig {
        n_threads: 2,
        with_prediction,
        cht_params: ChtParams::paper_arm(),
        seed,
    }
}

/// Checks every scene's motions with one `run_cpu` call per scene, pass
/// after pass until `measure` has elapsed, and compares each call's
/// colliding-motion count with the brute-force count (`expected`).
pub fn drive_detect(
    inputs: &Inputs,
    poses: &[Vec<Vec<copred_kinematics::Config>>],
    measure: Duration,
) -> DetectRun {
    let mut run = DetectRun {
        samples: Vec::with_capacity(1 << 14),
        ..DetectRun::default()
    };
    let start = Instant::now();
    loop {
        for (i, (scene, poses)) in inputs.scenes.iter().zip(poses).enumerate() {
            let cfg = detect_config(scene.session_seed, true);
            let t = Instant::now();
            let r = run_cpu(&inputs.robot, &scene.env, poses, &cfg);
            run.samples.push(Sample {
                end_ns: nanos(start.elapsed()),
                latency_ns: nanos(t.elapsed()),
                checks: poses.len() as u64,
            });
            run.calls += 1;
            run.checks += poses.len() as u64;
            run.cdqs_executed += r.cdqs_executed;
            let expected = scene.colliding();
            if r.colliding_motions != expected {
                run.failed += 1;
                if run.mismatches.len() < KEPT_MISMATCHES {
                    run.mismatches.push(format!(
                        "scene {i}: run_cpu found {} colliding motions, brute force {expected}",
                        r.colliding_motions
                    ));
                }
            }
        }
        if start.elapsed() >= measure {
            break;
        }
    }
    run.wall = start.elapsed();
    run
}
