//! `perfbench`: one untraced end-to-end run of one workload. Prints
//! notes, then the result as the last line; exits non-zero when a check
//! fails. Run through `perfbench/run.py`, which builds it first.

use perfbench::args::{print_result, Args};
use perfbench::stats;
use perfbench::workloads::{self, Config};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        root: args.root.clone(),
        server_bin: args.server_bin.clone(),
    };
    println!("machine: {}", stats::machine());
    println!(
        "workload {} seed {} seconds {}",
        args.workload, args.seed, args.seconds
    );
    let outcome = match args.workload.as_str() {
        "find_q1" => workloads::find_q1(&cfg),
        "bank_64" => workloads::bank_64(&cfg),
        "serve_paced" => workloads::serve_paced(&cfg),
        "serve_durable" => workloads::serve_durable(&cfg),
        _ => unreachable!("Args::parse accepts only known workloads"),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for line in &outcome.notes {
        println!("{line}");
    }
    let metrics = workloads::metrics(&outcome);
    for (name, value, unit) in &metrics {
        println!("{name:>24} {value:>16.6} {unit}");
    }
    if let Some((p99, n)) = workloads::latency_p99(&outcome) {
        println!("extra match_latency_p99_ms {p99} ms over {n} matches");
    }
    let correct = outcome.failed == 0;
    print_result(correct, outcome.attempted.max(1), outcome.failed, &metrics);
    if !correct {
        std::process::exit(1);
    }
}
