//! `perfbench` — the repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_cold --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Prints a table and, as its last line, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when any output
//! was wrong, 2 on a usage error.

use perfbench::tier::{self, Kind};
use perfbench::workloads::{self, Opts, WORKLOADS};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut secs = 15u64;
    let mut trace = false;
    let mut corrupt = false;
    let mut i = 0;
    while i < args.len() {
        let val = || args.get(i + 1).cloned().unwrap_or_else(|| usage("missing value"));
        match args[i].as_str() {
            "--tier" => {
                let kind = match val().as_str() {
                    "serve" => Kind::Serve,
                    "cluster" => Kind::Cluster,
                    other => usage(&format!("unknown tier {other}")),
                };
                if let Err(e) = tier::serve_child(kind) {
                    eprintln!("perfbench tier: {e}");
                    std::process::exit(1);
                }
                return;
            }
            "--workload" => workload = Some(val()),
            "--seed" => seed = val().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => secs = val().parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => {
                trace = match val().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--corrupt-expected" => {
                corrupt = true;
                i += 1;
                continue;
            }
            other => usage(&format!("unknown argument {other}")),
        }
        i += 2;
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    let o = Opts { seed, secs: secs.max(1), corrupt };
    let report = if trace {
        perfbench::trace::run(&workload, &o)
    } else {
        match workload.as_str() {
            "miniapps" => Ok(workloads::miniapps(&o)),
            "serve_cold" => workloads::serving(Kind::Serve, &o),
            _ => workloads::serving(Kind::Cluster, &o),
        }
    };
    match report {
        Ok(r) => {
            print!("{}", r.render());
            if !r.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(1);
        }
    }
}
