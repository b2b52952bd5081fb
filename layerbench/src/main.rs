//! Command-line entry point of the copred benchmark; see the library
//! documentation for the flags and what each run measures.

use copred_layerbench::alloc::CountingAlloc;
use copred_layerbench::child::Child;
use copred_layerbench::drive::{drive_detect, drive_service};
use copred_layerbench::inputs::{Inputs, Traffic, Workload};
use copred_layerbench::layers::{self, LayerOpts};
use copred_layerbench::procfs::{cpu_us, peak_rss_mb, RssSampler};
use copred_layerbench::report::{self, median, RunResult};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Backends of the fleet workload.
const FLEET_BACKENDS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Most windows a timed run is split into; its rates and latencies are
/// the medians over them.
const WINDOWS: usize = 20;
/// Fewest operations per window, so that each window's p99 rests on at
/// least ten raw samples beyond it.
const WINDOW_OPS: usize = 1000;

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server_bin: PathBuf,
    fleet_bin: PathBuf,
    out: PathBuf,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let num = |flag: &str, v: String| -> Result<u64, String> {
        v.parse()
            .map_err(|_| format!("bad number for {flag}: '{v}'"))
    };
    let workload = get("--workload")?;
    let opts = Opts {
        workload: Workload::parse(&workload).ok_or_else(|| {
            let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!(
                "unknown workload '{workload}' (valid: {})",
                names.join(", ")
            )
        })?,
        seed: num("--seed", get("--seed")?)?,
        seconds: num("--seconds", get("--seconds")?)?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
        },
        server_bin: get("--server-bin")?.into(),
        fleet_bin: get("--fleet-bin")?.into(),
        out: get("--out").unwrap_or_else(|_| ".bench_out".into()).into(),
    };
    let known = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--server-bin",
        "--fleet-bin",
        "--out",
    ];
    for pair in args.chunks(2) {
        if !known.contains(&pair[0].as_str()) {
            return Err(format!("unknown flag '{}'", pair[0]));
        }
    }
    if opts.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(opts)
}

/// Starts the child process a workload's wire traffic goes to.
fn start_child(opts: &Opts, rep: usize) -> std::io::Result<Child> {
    match opts.workload {
        Workload::Fleet2d => Child::fleet(
            &opts.fleet_bin,
            FLEET_BACKENDS,
            &opts.out.join(format!("fleet-{}-{rep}", std::process::id())),
        ),
        Workload::ServeArm | Workload::DetectArm => Child::server(&opts.server_bin),
    }
}

/// What a run prints and stores besides its result line.
struct Outcome {
    result: RunResult,
    traffic: Traffic,
    notes: Vec<String>,
}

fn run_untraced(opts: &Opts) -> Result<Outcome, String> {
    let w = opts.workload;
    let measure = Duration::from_secs(opts.seconds);
    let mut setup_s = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        drop(kept.take());
        let t = Instant::now();
        let inputs = Inputs::generate(w, opts.seed, w == Workload::DetectArm);
        let child = match w.uses_wire() {
            true => Some(start_child(opts, rep).map_err(|e| format!("starting child: {e}"))?),
            false => None,
        };
        setup_s.push(t.elapsed().as_secs_f64());
        kept = Some((inputs, child));
    }
    let (mut inputs, child) = kept.expect("at least one set-up");
    let mut traffic = Traffic::of(&inputs);
    let mut result = RunResult::default();
    let mut notes = Vec::new();
    let conflicts = inputs.truth_conflicts;
    if conflicts > 0 {
        notes.push(format!(
            "{conflicts} motions: trace verdict differs from brute-force motion_collides"
        ));
    }
    let (checks, mut samples, cdqs, cpu, rss, attempted, failed, mismatches);
    match &child {
        Some(child) => {
            let pid = child.pid();
            if w == Workload::Fleet2d {
                // Warm-up: one untimed pass fills the replicated store.
                let warm = drive_service(
                    &child.addr,
                    &mut inputs,
                    w.connections(),
                    Duration::ZERO,
                    Duration::ZERO,
                )
                .map_err(|e| format!("warm-up pass: {e}"))?;
                result.attempted += warm.ops;
                result.failed += warm.failed;
                notes.extend(warm.mismatches);
            }
            let cpu0 = cpu_us(&pid).map_err(|e| format!("child cpu: {e}"))?;
            let run = drive_service(
                &child.addr,
                &mut inputs,
                w.connections(),
                measure,
                Duration::ZERO,
            )
            .map_err(|e| format!("service run: {e}"))?;
            let cpu1 = cpu_us(&pid).map_err(|e| format!("child cpu: {e}"))?;
            traffic.warm_open_share = run.warm_opens as f64 / run.opens.max(1) as f64;
            (checks, samples, cdqs) = (run.checks, run.samples, run.cdqs_executed);
            (attempted, failed, mismatches) = (run.ops, run.failed, run.mismatches);
            cpu = cpu1 - cpu0;
            rss = peak_rss_mb(&pid).map_err(|e| format!("child memory: {e}"))?;
        }
        None => {
            let poses: Vec<_> = inputs.scenes.iter().map(|s| s.poses()).collect();
            let sampler = RssSampler::start();
            let cpu0 = cpu_us("self").map_err(|e| format!("cpu: {e}"))?;
            let run = drive_detect(&inputs, &poses, measure);
            let cpu1 = cpu_us("self").map_err(|e| format!("cpu: {e}"))?;
            rss = sampler.finish();
            (checks, samples, cdqs) = (run.checks, run.samples, run.cdqs_executed);
            (attempted, failed, mismatches) = (
                run.calls,
                run.failed + u64::from(conflicts > 0),
                run.mismatches,
            );
            cpu = cpu1 - cpu0;
        }
    }
    drop(child);
    result.attempted += attempted;
    result.failed += failed;
    notes.extend(mismatches);
    result.correct = result.failed == 0 && conflicts == 0;
    let requests = samples.len();
    let windows = report::windows(&mut samples, (requests / WINDOW_OPS).clamp(1, WINDOWS));
    let med = |f: fn(&report::Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    let per_check = |x: f64| x / checks.max(1) as f64;
    result.push("checks_per_s", med(|w| w.checks_per_s), "1/s");
    result.push("request_p50_us", med(|w| w.p50_ns as f64 / 1e3), "us");
    result.push("cdqs_per_check", per_check(cdqs as f64), "count");
    result.push("cpu_us_per_check", per_check(cpu as f64), "us");
    result.push("peak_rss_mb", rss, "MB");
    result.push("setup_s", median(&setup_s), "s");
    // Printed but not in BENCHMARK.json: the tail doubles with host
    // stalls from run to run, and the error rate of a correct program is
    // 0, which no bound can be a share of.
    let p99_us = med(|w| w.p99_ns as f64 / 1e3);
    let error_rate = result.failed as f64 / result.attempted.max(1) as f64;
    notes.push(format!("{:<40} {p99_us:>14.4} us", "request_p99_us"));
    notes.push(format!(
        "{:<40} {error_rate:>14.4} frac (failed / attempted)",
        "error_rate"
    ));
    let range = |f: fn(&report::Window) -> f64| {
        let v: Vec<f64> = windows.iter().map(f).collect();
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        format!("{lo:.1}..{hi:.1}")
    };
    notes.push(format!(
        "{requests} timed operations in {} windows (medians over windows), {checks} checks; \
         per window: checks_per_s {}, request_p50_us {}, request_p99_us {}",
        windows.len(),
        range(|w| w.checks_per_s),
        range(|w| w.p50_ns as f64 / 1e3),
        range(|w| w.p99_ns as f64 / 1e3),
    ));
    Ok(Outcome {
        result,
        traffic,
        notes,
    })
}

fn run_traced(opts: &Opts, spans_path: &Path) -> Result<Outcome, String> {
    let inputs = Inputs::generate(opts.workload, opts.seed, false);
    let child = start_child(opts, 0).map_err(|e| format!("starting child: {e}"))?;
    let traffic = Traffic::of(&inputs);
    let layer_opts = LayerOpts {
        budget: Duration::from_secs(opts.seconds),
        spans_path: spans_path.to_path_buf(),
    };
    let out = layers::run(&inputs, &child.addr, &layer_opts);
    drop(child);
    let traced = out?;
    Ok(Outcome {
        result: traced.result,
        traffic,
        notes: traced.report,
    })
}

fn compare_main(args: &[String]) -> ExitCode {
    let flag = |f: &str| {
        args.iter()
            .position(|a| a == f)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| format!("compare needs {f} <file>"))
            .and_then(|p| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}")))
    };
    let (bench, base, head) = match (flag("--bench"), flag("--base"), flag("--head")) {
        (Ok(b), Ok(x), Ok(y)) => (b, x, y),
        (b, x, y) => {
            for e in [b.err(), x.err(), y.err()].into_iter().flatten() {
                eprintln!("layerbench: {e}");
            }
            return ExitCode::from(2);
        }
    };
    let specs = match report::load_specs(&bench) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("layerbench: BENCHMARK.json: {e}");
            return ExitCode::from(2);
        }
    };
    let findings = report::compare(
        &specs,
        &report::load_results(&base),
        &report::load_results(&head),
    );
    println!(
        "{:<36} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "metric", "base", "head", "worse", "spread", "bound"
    );
    for f in &findings {
        let pct =
            |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{:.1}%", v * 100.0));
        println!(
            "{:<36} {:>14.4} {:>14.4} {:>8.1}% {:>8} {:>7}  {}",
            f.name,
            f.base_median,
            f.head_median,
            f.worsening * 100.0,
            pct(f.base_spread),
            pct(f.bound),
            if f.regressed { "REGRESSED" } else { "ok" }
        );
    }
    if findings.iter().any(|f| f.regressed) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_main(&args[1..]);
    }
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("layerbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("layerbench: {}: {e}", opts.out.display());
        return ExitCode::from(2);
    }
    // In-process fleets keep their stores under the temp dir; keep it
    // inside the output directory and remove it afterwards.
    let tmp = opts.out.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("layerbench: {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    std::env::set_var("TMPDIR", &tmp);
    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    let outcome = if opts.trace {
        run_traced(&opts, &opts.out.join(format!("{stem}.spans.tsv")))
    } else {
        run_untraced(&opts)
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("layerbench: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "workload {} (seed {}): {}",
        opts.workload.name(),
        opts.seed,
        opts.workload.why()
    );
    for (k, v) in outcome.traffic.fields() {
        println!("  traffic {k:<26} {v:.4}");
    }
    for m in &outcome.result.metrics {
        println!("  {:<40} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for n in &outcome.notes {
        println!("  {n}");
    }
    let line = match outcome.result.to_json() {
        Ok(l) => l,
        Err(e) => {
            eprintln!("layerbench: {e}");
            return ExitCode::from(1);
        }
    };
    let stored = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"why\": \"{}\", \"traffic\": {}, \"result\": {line}}}\n",
        opts.workload.name(),
        opts.seed,
        opts.workload.why(),
        outcome.traffic.to_json()
    );
    if let Err(e) = std::fs::write(opts.out.join(format!("{stem}.json")), stored) {
        eprintln!("layerbench: storing results: {e}");
    }
    println!("{line}");
    if outcome.result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
