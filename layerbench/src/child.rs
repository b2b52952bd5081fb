//! The server child processes the service workloads drive.

use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{ChildStdout, Command, Stdio};

/// A running server child. Dropping it kills the process, waits for it
/// to end, and removes its scratch directory.
pub struct Child {
    proc: std::process::Child,
    /// Kept open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// Wire address the child listens on.
    pub addr: String,
    scratch: Option<PathBuf>,
}

impl Child {
    /// Starts `copred_server` with default settings on an OS-assigned
    /// loopback port.
    ///
    /// # Errors
    ///
    /// The binary does not start or never reports its address.
    pub fn server(bin: &Path) -> io::Result<Child> {
        let mut cmd = Command::new(bin);
        cmd.arg("addr=127.0.0.1:0");
        Self::spawn(cmd, "listening on ", None)
    }

    /// Starts `copred_fleet up backends=<n>`. Its backends keep their
    /// stores under `scratch`, which is removed when the child is dropped.
    ///
    /// # Errors
    ///
    /// The binary does not start or never reports its address.
    pub fn fleet(bin: &Path, backends: usize, scratch: &Path) -> io::Result<Child> {
        std::fs::create_dir_all(scratch)?;
        let mut cmd = Command::new(bin);
        cmd.args(["up", &format!("backends={backends}")])
            .env("TMPDIR", scratch);
        Self::spawn(cmd, "fronting on ", Some(scratch.to_path_buf()))
    }

    fn spawn(mut cmd: Command, marker: &str, scratch: Option<PathBuf>) -> io::Result<Child> {
        die_with_parent(&mut cmd);
        let mut proc = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(proc.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .split_once(marker)
            .and_then(|(_, rest)| rest.split_whitespace().next())
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Child {
                proc,
                _stdout: stdout,
                addr,
                scratch,
            }),
            (read, _) => {
                let _ = proc.kill();
                let _ = proc.wait();
                if let Some(dir) = &scratch {
                    let _ = std::fs::remove_dir_all(dir);
                }
                read?;
                Err(io::Error::other(format!(
                    "child printed no address: {:?}",
                    line.trim()
                )))
            }
        }
    }

    /// The child's pid, as `/proc` names it.
    pub fn pid(&self) -> String {
        self.proc.id().to_string()
    }
}

/// Has the kernel kill the child when the thread that started it ends,
/// so a benchmark killed by a signal, which runs no `Drop`, leaves no
/// server behind.
#[cfg(target_os = "linux")]
fn die_with_parent(cmd: &mut Command) {
    use std::ffi::{c_int, c_ulong};
    use std::os::unix::process::CommandExt;
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    const PR_SET_PDEATHSIG: c_int = 1;
    const SIGKILL: c_ulong = 9;
    // SAFETY: the closure runs in the forked child before `exec`; it only
    // makes one async-signal-safe system call and touches no memory.
    unsafe {
        cmd.pre_exec(|| {
            if prctl(PR_SET_PDEATHSIG, SIGKILL) == 0 {
                Ok(())
            } else {
                Err(io::Error::last_os_error())
            }
        });
    }
}

#[cfg(not(target_os = "linux"))]
fn die_with_parent(_cmd: &mut Command) {}

impl Drop for Child {
    fn drop(&mut self) {
        let _ = self.proc.kill();
        let _ = self.proc.wait();
        if let Some(dir) = &self.scratch {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
