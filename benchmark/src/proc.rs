//! The daemon as a child process: spawn, typed readiness handshake,
//! read-only observation through `/proc` and `GET /stats`, and a kill
//! on every exit path so a failed run leaves no orphan behind.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use bb_server::StatsSnapshot;
use serde::{Deserialize, Serialize};

use crate::affinity::CpuSet;

/// The host's readiness line: everything the runner needs to reach and
/// observe the daemon, nothing scraped from prose.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ready {
    /// COPS listener, `ip:port`.
    pub addr: String,
    /// Telemetry listener, `ip:port`.
    pub stats_addr: String,
    /// The daemon's process id.
    pub pid: u32,
    /// Flows resident after recovery (zero on a fresh start).
    pub recovered_flows: u64,
    /// Journal records replayed during recovery.
    pub replayed_records: u64,
}

/// A running `bbmark-host`. Dropping it kills and reaps the child.
pub struct Host {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// The handshake the daemon printed.
    pub ready: Ready,
}

/// Path of the host binary: it is built beside this one.
fn host_binary() -> io::Result<PathBuf> {
    let mut path = std::env::current_exe()?;
    path.set_file_name("bbmark-host");
    if !path.exists() {
        // Integration tests run from `deps/`, one level below.
        path.pop();
        path.pop();
        path.push("bbmark-host");
    }
    Ok(path)
}

impl Host {
    /// Spawns the daemon for a workload, confined to `cores` when
    /// given, and waits for its handshake.
    ///
    /// # Errors
    ///
    /// Spawn failures, or a child that exits or prints anything but a
    /// [`Ready`] line.
    pub fn spawn(
        workload: &str,
        smoke: bool,
        data_dir: Option<&Path>,
        cores: Option<&CpuSet>,
    ) -> io::Result<Host> {
        let mut cmd = Command::new(host_binary()?);
        cmd.arg("--workload").arg(workload);
        if smoke {
            cmd.arg("--smoke");
        }
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        if let Some(mask) = cores.copied() {
            // SAFETY: the closure runs in the forked child before exec
            // and makes one async-signal-safe syscall.
            unsafe {
                cmd.pre_exec(move || crate::affinity::set(&mask));
            }
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let parsed = stdout.read_line(&mut line).and_then(|_| {
            serde::json::from_str::<Ready>(&line)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e}: {line:?}")))
        });
        match parsed {
            Ok(ready) => Ok(Host {
                child,
                stdout,
                ready,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// The telemetry endpoint.
    fn stats_addr(&self) -> SocketAddr {
        self.ready.stats_addr.parse().expect("handshake address")
    }

    /// `GET /stats`.
    ///
    /// # Errors
    ///
    /// As [`bb_server::fetch_stats`].
    pub fn stats(&self) -> io::Result<StatsSnapshot> {
        bb_server::fetch_stats(&self.stats_addr())
    }

    /// The daemon's CPU and scheduler counters right now.
    ///
    /// # Errors
    ///
    /// `/proc` read or parse failures.
    pub fn usage(&self) -> io::Result<Usage> {
        Usage::of(self.ready.pid)
    }

    /// Kills the daemon without warning (the `restart` phase's crash).
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Closes stdin, waits for the clean shutdown, and returns the
    /// `ServerReport` JSON line.
    ///
    /// # Errors
    ///
    /// A daemon that does not exit cleanly within ten seconds.
    pub fn shutdown(mut self) -> io::Result<serde::json::Value> {
        drop(self.child.stdin.take());
        let mut line = String::new();
        self.stdout.read_line(&mut line)?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(status) = self.child.try_wait()? {
                if !status.success() {
                    return Err(io::Error::other(format!("daemon exited with {status}")));
                }
                break;
            }
            if Instant::now() >= deadline {
                return Err(io::Error::other("daemon did not shut down"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        serde::json::parse(&line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

impl Drop for Host {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Cumulative resource counters of one process, from `/proc/<pid>`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User CPU time, microseconds.
    pub utime_us: f64,
    /// System CPU time, microseconds.
    pub stime_us: f64,
    /// Voluntary plus involuntary context switches, all threads.
    pub ctx_switches: u64,
    /// Resident set size, bytes.
    pub rss_bytes: u64,
}

/// Kernel clock ticks per second (`USER_HZ`); 100 on every Linux ABI.
const TICKS_PER_S: f64 = 100.0;

impl Usage {
    /// Reads the counters of `pid`.
    ///
    /// # Errors
    ///
    /// `/proc` read or parse failures.
    pub fn of(pid: u32) -> io::Result<Usage> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
        // Fields after the parenthesised command name, which may itself
        // contain spaces: state is field 3, utime 14, stime 15.
        let rest = stat.rsplit_once(')').ok_or_else(|| bad("stat"))?.1;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> io::Result<f64> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .map(|t| t / TICKS_PER_S * 1e6)
                .ok_or_else(|| bad("stat field"))
        };
        let mut usage = Usage {
            utime_us: tick(11)?,
            stime_us: tick(12)?,
            ..Usage::default()
        };
        let field = |text: &str, key: &str| -> Option<u64> {
            text.lines()
                .find(|l| l.starts_with(key))?
                .split_whitespace()
                .nth(1)?
                .parse()
                .ok()
        };
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
        usage.rss_bytes = field(&status, "VmRSS:").ok_or_else(|| bad("VmRSS"))? * 1024;
        // Context switches are per thread; the process total is the sum.
        for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
            let Ok(text) = std::fs::read_to_string(task?.path().join("status")) else {
                continue; // the thread exited between readdir and read
            };
            usage.ctx_switches += field(&text, "voluntary_ctxt_switches:").unwrap_or(0)
                + field(&text, "nonvoluntary_ctxt_switches:").unwrap_or(0);
        }
        Ok(usage)
    }
}

/// 1-minute load average, from `/proc/loadavg`.
#[must_use]
pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Cores kept busy by everything on the machine, averaged over the
/// next `over`: the growth of the non-idle columns of `/proc/stat`'s
/// `cpu` line. Unlike the 1-minute load average it forgets the
/// previous run within the sampling time.
#[must_use]
pub fn busy_cores(over: std::time::Duration) -> f64 {
    let sample = || -> Option<(f64, f64)> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<f64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal ...
        let idle = fields.get(3)? + fields.get(4)?;
        Some((fields.iter().take(8).sum::<f64>() - idle, idle))
    };
    let Some((busy0, _)) = sample() else {
        return 0.0;
    };
    std::thread::sleep(over);
    let Some((busy1, _)) = sample() else {
        return 0.0;
    };
    (busy1 - busy0) / TICKS_PER_S / over.as_secs_f64()
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`
/// (longest mount-point prefix wins).
#[must_use]
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point).then_some((point.len(), kind))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind.to_string())
}
