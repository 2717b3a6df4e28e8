//! The server under test as a child process, and what `/proc` says about it
//! and about the host.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdin, Command, Stdio};

use cxm_server::{serve, ServerConfig};

/// Clock ticks per second of `/proc` CPU times (Linux's fixed `USER_HZ`).
const TICKS_PER_SECOND: f64 = 100.0;

/// The child side: serve with the library's defaults, print the bound
/// address, and drain once standard input closes (the parent closed it, or
/// the parent is gone).
pub fn run_server_child() -> io::Result<()> {
    let handle = serve(ServerConfig::default())?;
    let mut stdout = io::stdout();
    writeln!(stdout, "{}", handle.local_addr())?;
    stdout.flush()?;
    let mut sink = Vec::new();
    io::stdin().read_to_end(&mut sink)?;
    handle.shutdown();
    handle.join();
    Ok(())
}

/// A running server process. Dropping it kills the process and waits for
/// it, so no exit path of the benchmark leaves it behind.
#[derive(Debug)]
pub struct ServerProcess {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: String,
    pub pid: u32,
}

impl ServerProcess {
    /// Start this executable in server mode and wait for its address.
    pub fn spawn() -> io::Result<ServerProcess> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let pid = child.id();
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut process = ServerProcess { child, stdin, addr: String::new(), pid };
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        if line.trim().is_empty() {
            return Err(io::Error::other("the server exited before printing its address"));
        }
        process.addr = line.trim().to_string();
        Ok(process)
    }

    /// Close the server's standard input and wait for its graceful drain.
    pub fn stop(mut self) -> io::Result<()> {
        drop(self.stdin.take());
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("the server exited with {status}")))
        }
    }

    /// User + system CPU time of the whole process, in ms.
    pub fn cpu_ms(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid))?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the line, i.e. 12 and 13 after the name.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> io::Result<f64> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| io::Error::other("malformed /proc/<pid>/stat"))
        };
        Ok((ticks(11)? + ticks(12)?) * 1000.0 / TICKS_PER_SECOND)
    }

    /// A numeric field of `/proc/<pid>/status` (`VmHWM` is in kB).
    pub fn status_field(&self, key: &str) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
            .ok_or_else(|| io::Error::other(format!("no {key} in /proc/<pid>/status")))
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        drop(self.stdin.take());
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Steal ticks of the whole host so far (column 8 of the `cpu` line of
/// `/proc/stat`); 0 where the file is unreadable.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
