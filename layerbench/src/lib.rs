//! The copred benchmark: end-to-end numbers from an untraced run, and
//! per-layer numbers from a separate traced run, on seed-generated
//! planning workloads.
//!
//! ```text
//! layerbench --workload <serve-arm|fleet-2d|detect-arm> --seed <n>
//!            --seconds <s> --trace <0|1>
//!            --server-bin <copred_server> --fleet-bin <copred_fleet>
//!            [--out <dir>]
//! layerbench compare --bench BENCHMARK.json --base <file> --head <file>
//! ```
//!
//! The system under test is driven from outside: the service workloads
//! talk to a `copred_server` or `copred_fleet up` child process over
//! loopback with the program's own `ServiceClient`, and `detect-arm`
//! calls `copred_swexec::run_cpu` in-process. Every verdict is checked
//! against ground truth; the last line of standard output is one JSON
//! object with the run's metrics.
//!
//! `BENCHMARK.json` gates `serve-arm` and `detect-arm`. `fleet-2d` runs
//! the same way but is not gated: two snapshot fsyncs per session close
//! tie its figures to the disk, and on a shared host they moved by a
//! third from run to run.
//!
//! Modules, in the order a run uses them:
//!
//! - [`inputs`]: workload definitions and seed-generated inputs, with the
//!   traffic-property report.
//! - [`child`]: the server child processes.
//! - [`drive`]: the untraced closed-loop load generators behind the end-to-end
//!   metrics.
//! - [`layers`]: the traced run that times each layer's public functions.
//! - [`spans`]: the in-memory span recorder the traced run writes.
//! - [`procfs`], [`alloc`]: CPU, memory and allocation accounting.
//! - [`report`]: quantiles, the result JSON, and the regression
//!   comparison against `BENCHMARK.json` bounds.

pub mod alloc;
pub mod child;
pub mod drive;
pub mod inputs;
pub mod layers;
pub mod procfs;
pub mod report;
pub mod spans;
