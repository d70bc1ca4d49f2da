//! The serving tier under test, run as a child process.
//!
//! The benchmark re-executes itself with `--tier serve|cluster`; the child
//! calls `hec_serve::server::start(ServeConfig::default())` or
//! `hec_cluster::start(ClusterConfig::from_env(3, 0))`, prints its address
//! and serves until its stdin closes. Running the tier in its own process
//! keeps its CPU time and peak RSS apart from the load generator's, and
//! makes its set-up pay for its own calibration captures.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// Which tier to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One `hec-serve` server.
    Serve,
    /// A 3-replica `hec-cluster` behind its router.
    Cluster,
}

impl Kind {
    /// The `--tier` argument spelling.
    pub fn arg(self) -> &'static str {
        match self {
            Kind::Serve => "serve",
            Kind::Cluster => "cluster",
        }
    }
}

/// A running tier child.
pub struct Tier {
    child: Child,
    stdin: Option<ChildStdin>,
    /// The tier's HTTP address (the router for a cluster).
    pub addr: SocketAddr,
}

impl Tier {
    /// Spawns the tier and waits until it has bound its socket.
    pub fn spawn(kind: Kind) -> std::io::Result<Tier> {
        let exe = std::env::current_exe()?;
        let mut child = Command::new(exe)
            .args(["--tier", kind.arg()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line))
            .unwrap_or(Ok(0));
        let addr = match (read, line.trim().strip_prefix("addr ").map(str::parse::<SocketAddr>)) {
            (Ok(n), Some(Ok(addr))) if n > 0 => addr,
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(std::io::Error::other(format!(
                    "tier did not report an address: {line:?}"
                )));
            }
        };
        Ok(Tier { child, stdin, addr })
    }

    /// The child's pid, for `/proc` readings.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Stops the tier: closing its stdin asks for a graceful shutdown;
    /// after a grace period the child is killed. Always waits for exit.
    pub fn stop(mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The child side: starts the tier, reports its address on stdout, and
/// serves until stdin reaches end of file (the parent closed it or died).
pub fn serve_child(kind: Kind) -> std::io::Result<()> {
    let (addr, join): (SocketAddr, Box<dyn FnOnce()>) = match kind {
        Kind::Serve => {
            let s = hec_serve::server::start(hec_serve::server::ServeConfig::default())?;
            (s.addr(), Box::new(move || s.join()))
        }
        Kind::Cluster => {
            let c = hec_cluster::start(hec_cluster::ClusterConfig::from_env(3, 0))?;
            (c.addr(), Box::new(move || c.join()))
        }
    };
    println!("addr {addr}");
    std::io::Write::flush(&mut std::io::stdout())?;
    let watcher = std::thread::spawn(move || {
        let mut sink = Vec::new();
        let _ = std::io::stdin().read_to_end(&mut sink);
        // `/shutdown` stops a server, or a router together with its
        // replicas, after draining in-flight requests.
        let _ = crate::http::get(addr, "/shutdown");
    });
    join();
    watcher.join().map_err(|_| std::io::Error::other("stdin watcher panicked"))
}
