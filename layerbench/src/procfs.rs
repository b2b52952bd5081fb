//! CPU and memory accounting from `/proc` (hardware counters are not
//! available on every host, so none are used).

use std::fs;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/<pid>/stat` (`USER_HZ`, 100 on every Linux ABI).
const USER_HZ: u64 = 100;

/// User plus system CPU time, in microseconds, consumed so far by every
/// thread of process `pid` (`"self"` for this process), exited threads
/// included.
///
/// # Errors
///
/// The process is gone or its stat line does not parse.
pub fn cpu_us(pid: &str) -> io::Result<u64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "stat without ')'"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let field = |i: usize| -> io::Result<u64> {
        fields
            .get(i - 3)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "short stat line"))
    };
    Ok((field(14)? + field(15)?) * 1_000_000 / USER_HZ)
}

fn status_mb(pid: &str, field: &str) -> io::Result<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("no {field} line")))
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
///
/// # Errors
///
/// The process is gone or its status file has no `VmHWM` line.
pub fn peak_rss_mb(pid: &str) -> io::Result<f64> {
    status_mb(pid, "VmHWM:")
}

/// Peak resident set size of this process over a region, for regions
/// that follow a set-up whose own peak `VmHWM` would report: a
/// background thread reads `VmRSS` every [`RssSampler::EVERY`] until
/// [`RssSampler::finish`].
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<f64>,
}

impl RssSampler {
    /// Sampling period.
    pub const EVERY: Duration = Duration::from_millis(2);

    /// Returns memory the set-up freed to the OS (glibc keeps freed heap
    /// pages resident otherwise) and starts sampling.
    pub fn start() -> RssSampler {
        release_free_heap();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut peak: f64 = 0.0;
            loop {
                peak = peak.max(status_mb("self", "VmRSS:").unwrap_or(0.0));
                if flag.load(Ordering::Relaxed) {
                    return peak;
                }
                std::thread::sleep(Self::EVERY);
            }
        });
        RssSampler { stop, thread }
    }

    /// Stops sampling and returns the peak `VmRSS` seen, in MiB.
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().unwrap_or(0.0)
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` only returns free heap pages to the
    // OS; it takes no pointers and is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_has_cpu_and_memory() {
        // Busy until the kernel has charged at least one clock tick.
        let start = std::time::Instant::now();
        while cpu_us("self").unwrap() == 0 && start.elapsed() < Duration::from_secs(5) {
            std::hint::black_box(
                (0..100_000u64).fold(0u64, |a, i| a.wrapping_add(std::hint::black_box(i))),
            );
        }
        assert!(cpu_us("self").unwrap() > 0);
        assert!(peak_rss_mb("self").unwrap() > 0.0);
        let sampler = RssSampler::start();
        let held = vec![1u8; 32 << 20];
        std::thread::sleep(RssSampler::EVERY * 10);
        std::hint::black_box(&held);
        assert!(sampler.finish() >= 32.0);
    }
}
