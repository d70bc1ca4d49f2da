//! `repro serve` under file-descriptor exhaustion, driven as a subprocess:
//! with more pending connections than free fds, the reactor must idle
//! instead of spinning on a readable listener, and recover once the
//! connections go away.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use hec_serve::client;

/// Kills the server if the test fails before stopping it.
struct Reap(Child);

impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// utime + stime of `pid`, in clock ticks (`/proc/<pid>/stat` fields 14
/// and 15, counted after the parenthesised command name).
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("stat readable");
    let after_comm = &stat[stat.rfind(')').expect("comm field") + 2..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

#[test]
fn fd_exhaustion_does_not_spin_the_reactor_and_recovers() {
    let child = Command::new("sh")
        .args(["-c", "ulimit -n 40; exec \"$0\" serve", env!("CARGO_BIN_EXE_repro")])
        .env("HEC_SERVE_WORKERS", "2")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("sh runs");
    let mut server = Reap(child);
    // Kept open to the end: the server logs its stop to stdout.
    let mut stdout = BufReader::new(server.0.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line.trim().strip_prefix("listening on ").expect("listening line").to_string();

    // 80 idle connections: the server accepts until its fds run out, and
    // the rest wait in the listen backlog, keeping the listener readable.
    let held: Vec<TcpStream> =
        (0..80).map(|_| TcpStream::connect(&addr).expect("connect")).collect();
    std::thread::sleep(Duration::from_millis(300));
    let before = cpu_ticks(server.0.id());
    std::thread::sleep(Duration::from_secs(2));
    let used = cpu_ticks(server.0.id()) - before;
    assert!(used < 40, "reactor used {used} CPU ticks in 2 s with its fds exhausted");

    drop(held);
    let healthz = format!("http://{addr}/healthz");
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        match client::http_get(&healthz) {
            Ok(r) => break r.status,
            Err(e) if Instant::now() > deadline => panic!("no /healthz answer after release: {e}"),
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    assert_eq!(status, 200);
    assert_eq!(client::http_post(&format!("http://{addr}/shutdown"), "").unwrap().status, 200);
    assert!(server.0.wait().unwrap().success());
}
