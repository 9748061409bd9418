//! Child processes of the program under test: spawn, time from spawn to
//! exit, and read the kernel's high-water RSS of each process.
//!
//! The peak RSS comes from `wait4(2)`, which reaps one child and returns
//! that child's own resource usage. `std::process` exposes no rusage, so
//! this module makes that one foreign call itself. Linux only.

use std::io::{self, Read};
use std::os::unix::process::ExitStatusExt;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long`s of which the first is `ru_maxrss` in kilobytes.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Reaped {
    /// Exit status.
    pub status: ExitStatus,
    /// Kernel high-water resident set size of the child, in KiB.
    pub peak_rss_kb: u64,
}

/// Waits for `child` to exit and reaps it, returning its exit status and
/// peak RSS. The `Child` must not be waited on by other means.
pub fn reap(child: &Child) -> io::Result<Reaped> {
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable locals with the
        // layouts of C `int` and 64-bit Linux `struct rusage`, and `pid`
        // names a child of this process that nothing else reaps.
        let got = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if got == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(Reaped {
        status: ExitStatus::from_raw(status),
        peak_rss_kb: u64::try_from(usage.maxrss).unwrap_or(0),
    })
}

/// A finished run of the program.
#[derive(Debug, Clone)]
pub struct Finished {
    /// Standard output.
    pub stdout: String,
    /// Standard error.
    pub stderr: String,
    /// True on exit code 0.
    pub success: bool,
    /// Time from spawn to exit.
    pub wall: Duration,
    /// Peak RSS in KiB.
    pub peak_rss_kb: u64,
}

/// Runs `program args…` to completion with captured output.
pub fn run(program: &Path, args: &[String]) -> io::Result<Finished> {
    let start = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let mut stdout = String::new();
    let mut stderr = String::new();
    if let Some(mut out) = child.stdout.take() {
        out.read_to_string(&mut stdout)?;
    }
    if let Some(mut err) = child.stderr.take() {
        err.read_to_string(&mut stderr)?;
    }
    let reaped = reap(&child)?;
    Ok(Finished {
        stdout,
        stderr,
        success: reaped.status.success(),
        wall: start.elapsed(),
        peak_rss_kb: reaped.peak_rss_kb,
    })
}

/// Spawns a long-running program (the server) with its output discarded.
pub fn spawn_quiet(program: &Path, args: &[String]) -> io::Result<Child> {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
}

/// Runs a helper tool (`git`, `rustc`) and returns its trimmed standard
/// output, or `None` if it is missing or fails.
pub fn tool_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}
