//! The traced run: times calls into each layer's public functions, from
//! outside the program, and reports the per-layer metrics.
//!
//! The run is split into four stages, each over the workload's scenes in
//! order, whole scenes at a time, until its share of the time budget is
//! spent:
//!
//! 1. **wire**: every check request goes to the child over loopback, then
//!    the same request is replayed in-process layer by layer (client
//!    encode, server decode, `execute_batch`, response codec) so the
//!    round trip can be split, and the split must add up (the remainder
//!    is the server residual: sockets, threads, queue handoff).
//! 2. **geometry**: `Robot::fk`, `CoordHash::code` and
//!    `Environment::obb_collides_with_cost` over every pose and CDQ.
//! 3. **swexec**: `run_cpu` with and without prediction, and the bare
//!    `ConcurrentCht` probe and update.
//! 4. **fleet**: `Router::call` over an in-process two-backend fleet,
//!    with the backends' request, replica and WAL traffic.
//!
//! Every call is recorded as a span in memory; the spans are written out
//! once at the end.

use crate::alloc::allocations;
use crate::drive::detect_config;
use crate::inputs::{batch_motions, Inputs, Scene};
use crate::report::RunResult;
use crate::spans::Spans;
use copred_collision::{run_predicted_schedule, Schedule};
use copred_core::hash::CollisionHash;
use copred_core::{ChtParams, CoordHash, HashInput};
use copred_fleet::FleetBackend;
use copred_service::client::stat_u64;
use copred_service::session::ChtPredictor;
use copred_service::{execute_batch, Request, Response, SchedMode, ServiceClient, SessionRegistry};
use copred_swexec::{run_cpu, ConcurrentCht};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Options of the traced run.
pub struct LayerOpts {
    /// Time budget shared by the four stages.
    pub budget: Duration,
    /// Where the spans are written.
    pub spans_path: PathBuf,
}

/// The traced run's metrics and its printed report.
pub struct Traced {
    /// Per-layer metrics plus verdict accounting.
    pub result: RunResult,
    /// Report lines: stage coverage and the round-trip conservation.
    pub report: Vec<String>,
}

/// Shares of the budget given to the wire, geometry, swexec and fleet
/// stages.
const SHARES: [f64; 4] = [0.4, 0.15, 0.25, 0.2];

/// Session pool of the in-process registries (the server default).
const POOL: usize = 64;

/// Sums a running tally and records verdict failures.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 10 {
            self.notes.push(what);
        }
    }

    /// Checks wire results against a scene batch's ground truth.
    fn check_results(&mut self, resp: &Response, truth: &[bool], what: &str) {
        match resp {
            Response::Results { results, .. } if results.len() == truth.len() => {
                let ok = results
                    .iter()
                    .zip(truth)
                    .all(|(r, &t)| r.colliding == t && r.cdqs_executed <= r.cdqs_total);
                if !ok {
                    self.fail(format!(
                        "{what}: verdicts {results:?} against truth {truth:?}"
                    ));
                }
            }
            other => self.fail(format!("{what} answered {other:?}")),
        }
    }
}

/// Runs `f` over scenes in order until `share` of the budget has passed
/// (always at least one scene); returns how many scenes it covered.
fn over_scenes(
    inputs: &Inputs,
    budget: Duration,
    share: f64,
    mut f: impl FnMut(usize, &Scene) -> Result<(), String>,
) -> Result<usize, String> {
    let limit = budget.mul_f64(share);
    let start = Instant::now();
    let mut done = 0;
    for (i, scene) in inputs.scenes.iter().enumerate() {
        if done > 0 && start.elapsed() >= limit {
            break;
        }
        f(i, scene)?;
        done += 1;
    }
    Ok(done)
}

/// Accumulators of the wire stage.
#[derive(Default)]
struct Wire {
    requests: u64,
    checks: u64,
    round_trip_ns: u64,
    encode_ns: u64,
    decode_ns: u64,
    execute_ns: u64,
    resp_codec_ns: u64,
    prime_ns: u64,
    schedule_ns: u64,
    req_bytes: u64,
    resp_bytes: u64,
    execute_allocs: u64,
    coord_cdqs: u64,
    csp_cdqs: u64,
    tp: u64,
    fp: u64,
    fneg: u64,
    snapshots: u64,
    snap_encode_ns: u64,
    snap_decode_ns: u64,
}

fn wire_stage(
    inputs: &Inputs,
    addr: &str,
    budget: Duration,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<(Wire, usize, u64), String> {
    let mut client =
        ServiceClient::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let coord = SessionRegistry::new(ChtParams::paper_arm(), POOL);
    let csp = SessionRegistry::new(ChtParams::paper_arm(), POOL);
    let step = Schedule::DEFAULT_CSP_STEP;
    let mut w = Wire::default();
    let mut request_id = 0u64;
    let scenes = over_scenes(inputs, budget, SHARES[0], |i, scene| {
        let io = |e: std::io::Error| format!("scene {i}: {e}");
        tally.attempted += 1;
        let remote = match client
            .call(&inputs.open_request(i, SchedMode::Coord))
            .map_err(io)?
        {
            Response::Session { id, .. } => id,
            other => {
                tally.fail(format!("open of scene {i} answered {other:?}"));
                return Ok(());
            }
        };
        let open = |reg: &SessionRegistry, mode| {
            reg.open(&inputs.robot_name, mode, scene.session_seed)
                .map(|(s, _)| s)
                .map_err(|e| format!("in-process open: {e}"))
        };
        // The same motions run three more times in-process: whole
        // (`execute_batch`), split into prime and schedule, and in CSP
        // order. Each copy has its own session with the same seed, so
        // all of them learn exactly as a cold server session does.
        let (whole, split, plain) = (
            open(&coord, SchedMode::Coord)?,
            open(&coord, SchedMode::Coord)?,
            open(&csp, SchedMode::Csp)?,
        );
        for (b, (req, truth)) in scene.batches.iter().zip(&scene.truth).enumerate() {
            request_id += 1;
            let motions = batch_motions(req);
            let mut sent = req.clone();
            if let Request::CheckMotion { session, .. } = &mut sent {
                *session = remote;
            }
            let root = spans.open("client.round_trip", None, request_id);
            let resp = client.call(&sent).map_err(io)?;
            w.round_trip_ns += spans.close(root);
            tally.attempted += 1;
            let what = format!("scene {i} batch {b}");
            tally.check_results(&resp, truth, &what);

            let (text, ns) = spans.time("protocol.req_encode", Some(root), request_id, || {
                sent.to_text()
            });
            w.encode_ns += ns;
            let (decoded, ns) = spans.time("protocol.req_decode", Some(root), request_id, || {
                Request::from_text(&text)
            });
            w.decode_ns += ns;
            if decoded.as_ref() != Ok(&sent) {
                tally.fail(format!("{what}: request did not survive its own codec"));
            }
            let allocs0 = allocations();
            let (results, ns) = spans.time("session.execute_batch", Some(root), request_id, || {
                execute_batch(&whole, motions, step)
            });
            w.execute_allocs += allocations() - allocs0;
            w.execute_ns += ns;
            let reply = Response::Results {
                results,
                trace: None,
            };
            let (reply_text, ns) =
                spans.time("protocol.resp_encode", Some(root), request_id, || {
                    reply.to_text()
                });
            w.resp_codec_ns += ns;
            let (parsed, ns) = spans.time("protocol.resp_decode", Some(root), request_id, || {
                Response::from_text(&reply_text)
            });
            w.resp_codec_ns += ns;
            if parsed.as_ref() != Ok(&reply) {
                tally.fail(format!("{what}: response did not survive its own codec"));
            }
            w.requests += 1;
            w.checks += motions.len() as u64;
            w.req_bytes += text.len() as u64;
            w.resp_bytes += reply_text.len() as u64;

            for m in motions {
                let infos = m.to_cdq_infos();
                let mut pred = ChtPredictor::new(&split, &m.poses);
                let (_, ns) = spans.time("session.predict_prime", Some(root), request_id, || {
                    pred.prime(&infos)
                });
                w.prime_ns += ns;
                let (out, ns) = spans.time("collision.schedule", Some(root), request_id, || {
                    run_predicted_schedule(&infos, m.poses.len(), step, &mut pred)
                });
                w.schedule_ns += ns;
                w.coord_cdqs += out.cdqs_executed as u64;
            }
            w.csp_cdqs += execute_batch(&plain, motions, step)
                .iter()
                .map(|r| r.cdqs_executed)
                .sum::<u64>();
        }
        tally.attempted += 1;
        let kv = client.stats(Some(remote)).map_err(io)?;
        w.tp += stat_u64(&kv, "true_pos").unwrap_or(0);
        w.fp += stat_u64(&kv, "false_pos").unwrap_or(0);
        w.fneg += stat_u64(&kv, "false_neg").unwrap_or(0);
        tally.attempted += 1;
        client.close(remote).map_err(io)?;

        let image = whole.table_image();
        let (bytes, ns) = spans.time("store.snapshot_encode", None, i as u64, || {
            copred_store::snapshot::encode(&image)
        });
        w.snap_encode_ns += ns;
        let (back, ns) = spans.time("store.snapshot_decode", None, i as u64, || {
            copred_store::snapshot::decode(&bytes)
        });
        w.snap_decode_ns += ns;
        if back.as_ref().ok() != Some(&image) {
            tally.fail(format!(
                "scene {i}: table image did not survive the snapshot codec"
            ));
        }
        w.snapshots += 1;
        for s in [&whole, &split] {
            coord.close(s.id).map_err(|e| e.to_string())?;
        }
        csp.close(plain.id).map_err(|e| e.to_string())?;
        Ok(())
    })?;
    tally.attempted += 1;
    let server_p50_ns = stat_u64(
        &client.stats(None).map_err(|e| e.to_string())?,
        "latency_p50_ns",
    )
    .unwrap_or(0);
    Ok((w, scenes, server_p50_ns))
}

/// Accumulators of the geometry stage.
#[derive(Default)]
struct Geometry {
    poses: u64,
    cdqs: u64,
    fk_ns: u64,
    hash_ns: u64,
    narrow_ns: u64,
    obstacle_tests: u64,
}

fn geometry_stage(
    inputs: &Inputs,
    budget: Duration,
    spans: &mut Spans,
) -> Result<(Geometry, usize), String> {
    let hasher = CoordHash::paper_default(&inputs.robot);
    let mut g = Geometry::default();
    let mut sink = 0u64;
    let scenes = over_scenes(inputs, budget, SHARES[1], |i, scene| {
        let request = i as u64;
        for m in scene.motions() {
            let (poses, ns) = spans.time("kinematics.fk", None, request, || {
                m.poses
                    .iter()
                    .map(|q| inputs.robot.fk(q))
                    .collect::<Vec<_>>()
            });
            g.fk_ns += ns;
            g.poses += poses.len() as u64;
            let links: Vec<_> = m
                .poses
                .iter()
                .zip(&poses)
                .flat_map(|(q, p)| p.links.iter().map(move |l| (q, l)))
                .collect();
            let (codes, ns) = spans.time("core.hash", None, request, || {
                links
                    .iter()
                    .map(|(q, l)| {
                        hasher.code(&HashInput {
                            config: q,
                            center: l.center,
                        })
                    })
                    .fold(0u64, u64::wrapping_add)
            });
            sink = sink.wrapping_add(codes);
            g.hash_ns += ns;
            let (tests, ns) = spans.time("collision.narrow", None, request, || {
                links
                    .iter()
                    .map(|(_, l)| scene.env.obb_collides_with_cost(&l.obb).1 as u64)
                    .sum::<u64>()
            });
            g.narrow_ns += ns;
            g.obstacle_tests += tests;
            g.cdqs += links.len() as u64;
        }
        Ok(())
    })?;
    std::hint::black_box(sink);
    Ok((g, scenes))
}

/// Accumulators of the swexec stage.
#[derive(Default)]
struct Swexec {
    motions: u64,
    with_ns: u64,
    without_ns: u64,
    with_cdqs: u64,
    without_cdqs: u64,
    allocs: u64,
    cht_cdqs: u64,
    cht_ns: u64,
}

fn swexec_stage(
    inputs: &Inputs,
    budget: Duration,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<(Swexec, usize), String> {
    let hasher = CoordHash::paper_default(&inputs.robot);
    let mut s = Swexec::default();
    let scenes = over_scenes(inputs, budget, SHARES[2], |i, scene| {
        let request = i as u64;
        let poses = scene.poses();
        let expected = scene.colliding();
        for with_prediction in [true, false] {
            let cfg = detect_config(scene.session_seed, with_prediction);
            let allocs0 = allocations();
            let name = if with_prediction {
                "swexec.run_cpu"
            } else {
                "swexec.run_cpu_plain"
            };
            let (r, t) = spans.time(name, None, request, || {
                run_cpu(&inputs.robot, &scene.env, &poses, &cfg)
            });
            tally.attempted += 1;
            if r.colliding_motions != expected {
                tally.fail(format!(
                    "scene {i}: run_cpu (prediction {with_prediction}) found {} colliding motions, brute force {expected}",
                    r.colliding_motions
                ));
            }
            if with_prediction {
                s.allocs += allocations() - allocs0;
                (s.with_ns, s.with_cdqs) = (s.with_ns + t, s.with_cdqs + r.cdqs_executed);
            } else {
                (s.without_ns, s.without_cdqs) =
                    (s.without_ns + t, s.without_cdqs + r.cdqs_executed);
            }
        }
        s.motions += poses.len() as u64;

        // The bare table: one probe and one update per CDQ, in trace
        // order, on codes hashed beforehand.
        let cht = ConcurrentCht::new(ChtParams::paper_arm());
        let mut u = scene.session_seed | 1;
        for m in scene.motions() {
            let cdqs: Vec<(u64, bool, f64)> = m
                .cdqs
                .iter()
                .map(|c| {
                    u ^= u << 13;
                    u ^= u >> 7;
                    u ^= u << 17;
                    let draw = (u >> 11) as f64 / (1u64 << 53) as f64;
                    let input = HashInput {
                        config: &m.poses[c.pose_idx as usize],
                        center: c.center,
                    };
                    (hasher.code(&input), c.colliding, draw)
                })
                .collect();
            let (_, ns) = spans.time("swexec.cht", None, request, || {
                for &(code, colliding, draw) in &cdqs {
                    std::hint::black_box(cht.predict(code));
                    cht.observe(code, colliding, draw);
                }
            });
            s.cht_ns += ns;
            s.cht_cdqs += cdqs.len() as u64;
        }
        Ok(())
    })?;
    Ok((s, scenes))
}

/// Accumulators of the fleet stage.
#[derive(Default)]
struct Fleet {
    client_requests: u64,
    check_requests: u64,
    checks: u64,
    router_ns: u64,
    backend_requests: u64,
    replica_bytes: u64,
    wal_bytes: u64,
}

fn prom_value(page: &str, name: &str) -> u64 {
    page.lines()
        .find_map(|l| l.strip_prefix(name)?.trim().parse::<f64>().ok())
        .unwrap_or(0.0) as u64
}

fn fleet_stage(
    inputs: &Inputs,
    budget: Duration,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<(Fleet, usize), String> {
    let fleet = FleetBackend::start(2).map_err(|e| format!("starting in-process fleet: {e}"))?;
    let (mut router, servers) = fleet.into_router();
    let mut f = Fleet::default();
    // Replica pulls the stage makes itself to size the router's replica;
    // taken off the backends' request count again.
    let mut own_pulls = 0u64;
    let scenes = over_scenes(inputs, budget, SHARES[3], |i, scene| {
        let request = i as u64;
        let open = match inputs.open_request(i, SchedMode::Coord) {
            Request::Open {
                robot,
                link_count,
                mode,
                seed,
                ..
            } => Request::Open {
                robot,
                link_count,
                mode,
                seed,
                fp: Some(scene.fp),
            },
            other => other,
        };
        let mut call = |req: &Request,
                        spans: &mut Spans,
                        name: &'static str|
         -> Result<(Response, u64), String> {
            let (resp, ns) = spans.time(name, None, request, || router.call(req));
            Ok((resp?, ns))
        };
        tally.attempted += 1;
        f.client_requests += 1;
        let (resp, _) = call(&open, spans, "fleet.router_open")?;
        let Response::Session { id: session, .. } = resp else {
            tally.fail(format!("fleet open of scene {i} answered {resp:?}"));
            return Ok(());
        };
        for (b, (req, truth)) in scene.batches.iter().zip(&scene.truth).enumerate() {
            let mut sent = req.clone();
            if let Request::CheckMotion { session: s, .. } = &mut sent {
                *s = session;
            }
            let (resp, t) = call(&sent, spans, "fleet.router_call")?;
            tally.attempted += 1;
            tally.check_results(&resp, truth, &format!("fleet scene {i} batch {b}"));
            f.router_ns += t;
            f.client_requests += 1;
            f.check_requests += 1;
            f.checks += truth.len() as u64;
            // The router just pulled this session's table image; pulling
            // it once more gives its size.
            own_pulls += 1;
            if let (Response::Snap { payload, .. }, _) = call(
                &Request::SnapSession { session },
                spans,
                "fleet.replica_size",
            )? {
                f.replica_bytes += payload.len() as u64;
            }
        }
        tally.attempted += 1;
        f.client_requests += 1;
        let (resp, _) = call(&Request::Close { session }, spans, "fleet.router_close")?;
        if resp != Response::Closed {
            tally.fail(format!("fleet close of scene {i} answered {resp:?}"));
        }
        Ok(())
    })?;
    for server in servers.iter().flatten() {
        f.backend_requests += server
            .metrics()
            .requests
            .load(std::sync::atomic::Ordering::Relaxed);
        f.wal_bytes += prom_value(&server.render_prometheus(), "copred_store_wal_bytes_total");
    }
    f.backend_requests = f.backend_requests.saturating_sub(own_pulls);
    drop(router);
    drop(servers);
    Ok((f, scenes))
}

/// Runs the traced stages on `inputs` against the child at `addr` and
/// reports every per-layer metric.
///
/// # Errors
///
/// A connection to the child fails, or a stage cannot start.
pub fn run(inputs: &Inputs, addr: &str, opts: &LayerOpts) -> Result<Traced, String> {
    let mut spans = Spans::new();
    let mut tally = Tally::default();
    let budget = opts.budget;
    let (w, wire_scenes, server_p50_ns) = wire_stage(inputs, addr, budget, &mut spans, &mut tally)?;
    let (g, geo_scenes) = geometry_stage(inputs, budget, &mut spans)?;
    let (s, sw_scenes) = swexec_stage(inputs, budget, &mut spans, &mut tally)?;
    let (f, fleet_scenes) = fleet_stage(inputs, budget, &mut spans, &mut tally)?;

    let per = |x: u64, n: u64| x as f64 / n.max(1) as f64;
    let share = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let mut r = RunResult::default();
    r.push(
        "protocol.req_encode_ns_per_check",
        per(w.encode_ns, w.checks),
        "ns",
    );
    r.push(
        "protocol.req_decode_ns_per_check",
        per(w.decode_ns, w.checks),
        "ns",
    );
    r.push(
        "protocol.resp_codec_ns_per_check",
        per(w.resp_codec_ns, w.checks),
        "ns",
    );
    r.push(
        "protocol.req_bytes_per_check",
        per(w.req_bytes, w.checks),
        "bytes",
    );
    r.push(
        "protocol.resp_bytes_per_check",
        per(w.resp_bytes, w.checks),
        "bytes",
    );
    r.push(
        "session.execute_ns_per_check",
        per(w.execute_ns, w.checks),
        "ns",
    );
    r.push(
        "session.predict_ns_per_check",
        per(w.prime_ns, w.checks),
        "ns",
    );
    r.push(
        "session.allocs_per_check",
        per(w.execute_allocs, w.checks),
        "count",
    );
    r.push("session.precision", share(w.tp, w.tp + w.fp), "frac");
    r.push("session.recall", share(w.tp, w.tp + w.fneg), "frac");
    r.push(
        "session.cdqs_saved_vs_csp",
        1.0 - share(w.coord_cdqs, w.csp_cdqs),
        "frac",
    );
    r.push(
        "collision.schedule_ns_per_check",
        per(w.schedule_ns, w.checks),
        "ns",
    );
    r.push(
        "collision.narrow_ns_per_cdq",
        per(g.narrow_ns, g.cdqs),
        "ns",
    );
    r.push(
        "collision.obstacle_tests_per_cdq",
        per(g.obstacle_tests, g.cdqs),
        "count",
    );
    r.push("server.latency_p50_us", server_p50_ns as f64 / 1e3, "us");
    let attributed_ns = w.encode_ns + w.decode_ns + w.execute_ns + w.resp_codec_ns;
    let residual_us =
        (w.round_trip_ns as f64 - attributed_ns as f64) / w.requests.max(1) as f64 / 1e3;
    r.push("server.residual_us_per_request", residual_us, "us");
    r.push("kinematics.fk_ns_per_pose", per(g.fk_ns, g.poses), "ns");
    r.push("core.hash_ns_per_cdq", per(g.hash_ns, g.cdqs), "ns");
    r.push("swexec.cht_ns_per_cdq", per(s.cht_ns, s.cht_cdqs), "ns");
    r.push("swexec.predict_gain", share(s.without_ns, s.with_ns), "x");
    r.push(
        "swexec.cdqs_saved_frac",
        1.0 - share(s.with_cdqs, s.without_cdqs),
        "frac",
    );
    r.push(
        "swexec.allocs_per_motion",
        per(s.allocs, s.motions),
        "count",
    );
    r.push(
        "fleet.router_us_per_request",
        per(f.router_ns, f.check_requests) / 1e3,
        "us",
    );
    r.push(
        "fleet.backend_requests_per_request",
        per(f.backend_requests, f.client_requests),
        "count",
    );
    r.push(
        "fleet.replica_bytes_per_request",
        per(f.replica_bytes, f.client_requests),
        "bytes",
    );
    r.push(
        "store.snapshot_encode_us",
        per(w.snap_encode_ns, w.snapshots) / 1e3,
        "us",
    );
    r.push(
        "store.snapshot_decode_us",
        per(w.snap_decode_ns, w.snapshots) / 1e3,
        "us",
    );
    r.push(
        "store.wal_bytes_per_check",
        per(f.wal_bytes, f.checks),
        "bytes",
    );
    r.attempted = tally.attempted;
    r.failed = tally.failed;
    r.correct = tally.failed == 0;

    let mean_us = |x: u64| per(x, w.requests) / 1e3;
    let round_trip = mean_us(w.round_trip_ns);
    let layers = [
        ("client encode (Request::to_text)", w.encode_ns),
        ("server decode (Request::from_text)", w.decode_ns),
        ("execute_batch", w.execute_ns),
        ("response codec", w.resp_codec_ns),
    ];
    let mut report = vec![
        format!(
            "stages: wire {wire_scenes} scenes ({} requests), geometry {geo_scenes}, swexec {sw_scenes}, fleet {fleet_scenes} ({} requests); {} spans",
            w.requests,
            f.client_requests,
            spans.all().len()
        ),
        format!("round trip split, mean per request over {} requests:", w.requests),
    ];
    for (name, total) in layers {
        report.push(format!(
            "  {name:<36} {:>10.2} us {:>6.1}%",
            mean_us(total),
            100.0 * mean_us(total) / round_trip
        ));
    }
    let summed = mean_us(attributed_ns);
    report.push(format!(
        "  {:<36} {:>10.2} us {:>6.1}%",
        "unattributed remainder (server residual)",
        residual_us,
        100.0 * residual_us / round_trip
    ));
    report.push(format!(
        "  layers {summed:.2} us + remainder {residual_us:.2} us = {:.2} us; client-observed round trip {round_trip:.2} us",
        summed + residual_us
    ));
    report.extend(tally.notes);
    spans
        .write_tsv(&opts.spans_path)
        .map_err(|e| format!("writing spans to {}: {e}", opts.spans_path.display()))?;
    report.push(format!("spans written to {}", opts.spans_path.display()));
    Ok(Traced { result: r, report })
}
