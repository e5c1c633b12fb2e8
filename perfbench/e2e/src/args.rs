//! Command line shared by the end-to-end and traced runs.

use std::path::PathBuf;

/// The workloads, in report order.
pub const WORKLOADS: [&str; 4] = ["find_q1", "bank_64", "serve_paced", "serve_durable"];

/// Parsed arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time in seconds.
    pub seconds: f64,
    /// Repository root.
    pub root: PathBuf,
    /// The `ses-server` executable.
    pub server_bin: PathBuf,
    /// Where the traced run writes its span file.
    pub spans: Option<PathBuf>,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --root DIR
    /// --server-bin PATH [--spans FILE]`.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut it = argv.into_iter();
        let (mut workload, mut seed, mut seconds) = (None, None, None);
        let (mut root, mut server_bin, mut spans) = (PathBuf::from("."), None, None);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed: not a number")?),
                "--seconds" => {
                    seconds = Some(value()?.parse().map_err(|_| "--seconds: not a number")?)
                }
                "--root" => root = PathBuf::from(value()?),
                "--server-bin" => server_bin = Some(PathBuf::from(value()?)),
                "--spans" => spans = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        let workload: String = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload `{workload}`; one of {}",
                WORKLOADS.join(", ")
            ));
        }
        let seconds: f64 = seconds.unwrap_or(10.0);
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            root,
            server_bin: server_bin.ok_or("--server-bin is required")?,
            spans,
        })
    }
}

/// Prints the final result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
}
