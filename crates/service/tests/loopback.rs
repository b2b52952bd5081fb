//! End-to-end loopback tests on synthetic workloads: full verb coverage,
//! run-to-run determinism, and the paper's headline effect — the
//! predictor-ordered scheduler issues fewer CDQs than the naive order on
//! the same workload.

use copred_geometry::Vec3;
use copred_kinematics::Config;
use copred_service::client::stat_u64;
use copred_service::protocol::SchedMode;
use copred_service::{
    parse_oplog, run_loadgen, write_oplog, LoadgenConfig, Pacing, Server, ServerConfig,
    ServiceClient,
};
use copred_trace::{MotionTrace, QueryTrace, Stage, TraceCdq};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Synthetic planar workload: motions are straight-line sweeps through
/// [-1, 1]², a disc obstacle of radius 0.35 sits at the origin, and the
/// CDQ centers equal the poses — so collision history is spatially
/// coherent and a COORD predictor can learn it.
fn synthetic_traces(n_traces: usize, motions_per_trace: usize, seed: u64) -> Vec<QueryTrace> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_traces)
        .map(|_| {
            let motions = (0..motions_per_trace)
                .map(|_| {
                    let (ax, ay) = (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                    let (bx, by) = (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                    let n_poses = 8;
                    let poses: Vec<Config> = (0..n_poses)
                        .map(|i| {
                            let t = i as f64 / (n_poses - 1) as f64;
                            Config::new(vec![ax + t * (bx - ax), ay + t * (by - ay)])
                        })
                        .collect();
                    let cdqs = poses
                        .iter()
                        .enumerate()
                        .map(|(i, q)| {
                            let c = Vec3::new(q[0], q[1], 0.0);
                            TraceCdq {
                                pose_idx: i as u32,
                                link_idx: 0,
                                center: c,
                                colliding: (c.x * c.x + c.y * c.y).sqrt() < 0.35,
                                obstacle_tests: 1,
                            }
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
                robot_name: "planar-2d".to_string(),
                link_count: 1,
                motions,
            }
        })
        .collect()
}

fn loadgen_config(addr: std::net::SocketAddr, mode: SchedMode) -> LoadgenConfig {
    LoadgenConfig {
        addr: addr.to_string(),
        connections: 4,
        mode,
        seed: 11,
        pacing: Pacing::Closed,
        batch: 4,
        max_retries: 256,
        metrics_interval: None,
        fingerprints: None,
        trace_ids: true,
        stats_tsv: None,
    }
}

fn run_once(traces: &[QueryTrace], mode: SchedMode) -> copred_service::LoadgenReport {
    let server = Server::start(ServerConfig::default()).expect("start server");
    run_loadgen(&loadgen_config(server.local_addr(), mode), traces).expect("loadgen run")
}

#[test]
fn verbs_roundtrip_over_loopback() {
    let server = Server::start(ServerConfig::default()).expect("start server");
    let mut c = ServiceClient::connect(server.local_addr()).expect("connect");
    let traces = synthetic_traces(1, 3, 5);
    let motions = &traces[0].motions;

    let session = c.open("planar-2d", 1, SchedMode::Coord, 3).expect("open");
    let (results, _) = c.check_motions(session, motions, 8).expect("check batch");
    assert_eq!(results.len(), motions.len());
    for (r, m) in results.iter().zip(motions) {
        assert_eq!(r.colliding, m.cdqs.iter().any(|q| q.colliding));
        assert_eq!(r.cdqs_total as usize, m.cdqs.len());
        assert!(r.cdqs_executed <= r.cdqs_total);
    }

    let kv = c.stats(Some(session)).expect("session stats");
    assert_eq!(stat_u64(&kv, "checks"), Some(motions.len() as u64));
    assert!(kv.iter().any(|(k, v)| k == "mode" && v == "coord"));

    c.reset(session).expect("reset");
    let kv = c.stats(Some(session)).expect("stats after reset");
    assert_eq!(
        stat_u64(&kv, "cht_occupancy"),
        Some(0),
        "reset clears the table"
    );

    c.close(session).expect("close");
    assert!(c.stats(Some(session)).is_err(), "closed session is gone");

    let kv = c.stats(None).expect("global stats");
    assert_eq!(stat_u64(&kv, "sessions_open"), Some(0));
    assert_eq!(stat_u64(&kv, "sessions_closed"), Some(1));
}

#[test]
fn coord_issues_fewer_cdqs_than_naive_and_runs_are_deterministic() {
    let traces = synthetic_traces(8, 24, 42);

    let coord_a = run_once(&traces, SchedMode::Coord);
    let coord_b = run_once(&traces, SchedMode::Coord);
    let naive = run_once(&traces, SchedMode::Naive);

    // Determinism: per-session work is single-in-flight and every session
    // seed derives from the trace index, so two runs agree exactly.
    assert_eq!(
        coord_a.cdqs_issued, coord_b.cdqs_issued,
        "coord runs must replay identically"
    );
    assert_eq!(coord_a.checks, coord_b.checks);
    assert_eq!(coord_a.collisions, coord_b.collisions);

    // Same workload, same totals — only the issue order differs.
    assert_eq!(coord_a.cdqs_total, naive.cdqs_total);
    assert_eq!(
        coord_a.collisions, naive.collisions,
        "schedules never change outcomes"
    );

    // The headline: prediction saves CDQs versus the naive order.
    assert!(
        coord_a.cdqs_issued < naive.cdqs_issued,
        "coord ({}) must issue fewer CDQs than naive ({})",
        coord_a.cdqs_issued,
        naive.cdqs_issued
    );
}

#[test]
fn server_stats_match_client_side_sums_and_oplog_roundtrips() {
    let traces = synthetic_traces(4, 10, 9);
    let server = Server::start(ServerConfig::default()).expect("start server");
    let addr = server.local_addr();
    let report = run_loadgen(&loadgen_config(addr, SchedMode::Coord), &traces).expect("loadgen");

    let mut c = ServiceClient::connect(addr).expect("connect");
    let kv = c.stats(None).expect("global stats");
    assert_eq!(stat_u64(&kv, "cdqs_issued"), Some(report.cdqs_issued));
    assert_eq!(stat_u64(&kv, "cdqs_total"), Some(report.cdqs_total));
    assert_eq!(stat_u64(&kv, "checks"), Some(report.checks));
    assert!(stat_u64(&kv, "latency_p50_ns").unwrap() > 0);

    // The op-log covers every wire operation and roundtrips through TSV.
    let n_batches: usize = traces.iter().map(|t| t.motions.len().div_ceil(4)).sum();
    assert_eq!(
        report.ops.len(),
        traces.len() * 2 + n_batches,
        "open+close+batches"
    );
    let meta = copred_service::OplogMeta {
        seed: 1,
        workload: "synthetic".to_string(),
        scale: "traces=4".to_string(),
    };
    let text = write_oplog(&meta, &report.ops);
    let (back_meta, back) = parse_oplog(&text).expect("parse op-log");
    assert_eq!(back_meta, meta);
    assert_eq!(back, report.ops);
    assert!(
        back.windows(2).all(|w| w[0].start_ns <= w[1].start_ns),
        "sorted by start"
    );
    assert!(back.iter().all(|op| op.bytes > 0));
    assert!(
        back.iter()
            .all(|op| !op.tag.is_empty() && !op.request.is_empty() && !op.response.is_empty()),
        "every record carries replayable payloads"
    );
}

/// Motion blocks no well-behaved client sends: each repeats a
/// `(pose_idx, link_idx)` pair whose copies disagree on center or outcome,
/// names a link past planar-2d's single link, and lists CDQs out of pose
/// order. The first collides only through its duplicate keys.
const HOSTILE_BLOCKS: [&str; 2] = [
    "motion S1 3 6\npose -0.5 0.0\npose 0.0 0.0\npose 0.5 0.0\n\
     cdq 0 0 -0.5 0.0 0.0 0 1\ncdq 0 0 0.9 0.9 0.0 1 2\ncdq 1 9 0.0 0.0 0.0 0 1\n\
     cdq 2 0 0.5 0.0 0.0 0 1\ncdq 2 0 0.5 0.0 0.0 0 1\ncdq 1 9 0.1 0.1 0.0 1 4\n",
    "motion S2 2 4\npose 0.2 0.2\npose 0.3 0.3\n\
     cdq 1 0 0.3 0.3 0.0 0 1\ncdq 1 0 0.3 0.3 0.0 0 1\n\
     cdq 0 4 0.2 0.2 0.0 0 1\ncdq 0 4 0.7 0.7 0.0 0 1\n",
];

/// Asserts `tp + fp + tn + fn == cdqs_issued` on a session's stats.
fn assert_ledger(kv: &[(String, String)], what: &str) {
    let get = |k: &str| stat_u64(kv, k).unwrap_or_else(|| panic!("{what}: no {k}"));
    let classified = get("true_pos") + get("false_pos") + get("true_neg") + get("false_neg");
    assert_eq!(classified, get("cdqs_issued"), "{what}: ledger {kv:?}");
}

#[test]
fn hostile_cdq_keys_get_brute_force_verdicts_and_a_balanced_ledger() {
    use copred_core::ChtParams;
    use copred_service::{execute_batch, Response, SessionRegistry};

    let motions: Vec<MotionTrace> = HOSTILE_BLOCKS
        .iter()
        .map(|b| MotionTrace::from_text(b).expect("the parser accepts the block"))
        .collect();
    let params = ChtParams::paper_2d();
    let registry = SessionRegistry::new(params, 2);
    let (local, _) = registry.open("planar-2d", SchedMode::Coord, 7).unwrap();
    let server = Server::start(ServerConfig {
        cht_params: params,
        ..ServerConfig::default()
    })
    .expect("start server");
    let mut client = ServiceClient::connect(server.local_addr()).expect("connect");
    let remote = client.open("planar-2d", 1, SchedMode::Coord, 7).unwrap();
    // Repeats let the table learn the colliding duplicates, so later
    // rounds predict some CDQs colliding and defer the rest.
    for round in 0..6 {
        let in_process = execute_batch(&local, &motions, 5);
        let Response::Results { results, .. } =
            client.check_motions_once(remote, motions.clone()).unwrap()
        else {
            panic!("round {round}: the server must answer with results");
        };
        assert_eq!(results, in_process, "round {round}: loopback vs in-process");
        for (m, r) in motions.iter().zip(&results) {
            assert_eq!(
                r.colliding,
                m.colliding(),
                "round {round}: brute-force verdict"
            );
            assert!(r.cdqs_executed <= r.cdqs_total, "round {round}: {r:?}");
            assert_eq!(r.cdqs_total, m.cdqs.len() as u64);
        }
    }
    assert_ledger(&local.metrics.stat_lines("coord", 0), "in-process");
    assert_ledger(&client.stats(Some(remote)).unwrap(), "loopback");
    assert!(
        local
            .metrics
            .true_pos
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0,
        "the learned duplicates must be predicted"
    );
}
