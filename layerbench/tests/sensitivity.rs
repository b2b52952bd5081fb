//! Sensitivity self-test: a slowdown planted in the load generator's
//! timed round trip must make the benchmark's own comparison flag
//! `request_p50_us` as worse than its `BENCHMARK.json` bound allows.

use copred_layerbench::drive::drive_service;
use copred_layerbench::inputs::{Inputs, Workload};
use copred_layerbench::report::{compare, load_specs, quantile};
use copred_service::{Server, ServerConfig};
use std::collections::BTreeMap;
use std::time::Duration;

/// One closed-loop pass over loopback; returns its `request_p50_us`.
fn p50_us(addr: &str, inputs: &mut Inputs, delay: Duration) -> f64 {
    let run = drive_service(addr, inputs, 2, Duration::ZERO, delay).expect("service pass");
    assert_eq!(run.failed, 0, "verdict mismatches: {:?}", run.mismatches);
    let mut lat: Vec<u64> = run.samples.iter().map(|s| s.latency_ns).collect();
    quantile(&mut lat, 0.5).expect("latency samples") as f64 / 1e3
}

#[test]
fn planted_slowdown_is_flagged_beyond_the_bound() {
    let bench = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let specs = load_specs(&bench).expect("BENCHMARK.json parses");
    let bound = specs
        .iter()
        .find(|s| s.name == "request_p50_us")
        .and_then(|s| s.bound)
        .expect("request_p50_us has a bound");

    let server = Server::start(ServerConfig::default()).expect("server starts");
    let addr = server.local_addr().to_string();
    let mut inputs = Inputs::generate(Workload::Fleet2d, 7, false);
    let runs = |inputs: &mut Inputs, delay: Duration| -> Vec<BTreeMap<String, f64>> {
        (0..3)
            .map(|_| BTreeMap::from([("request_p50_us".to_string(), p50_us(&addr, inputs, delay))]))
            .collect()
    };
    let base = runs(&mut inputs, Duration::ZERO);
    let base_p50 = base[1]["request_p50_us"];
    // Twice the bound, so noise in either set cannot hide it.
    let delay = Duration::from_secs_f64(base_p50 * 2.0 * bound / 1e6);
    let head = runs(&mut inputs, delay);

    let finding = compare(&specs, &base, &head)
        .into_iter()
        .find(|f| f.name == "request_p50_us")
        .expect("request_p50_us compared");
    assert!(
        finding.regressed,
        "a {:.0} us slowdown on a {base_p50:.0} us median went unflagged: {finding:?}",
        delay.as_secs_f64() * 1e6
    );
    assert!(finding.worsening > bound, "{finding:?}");
}
