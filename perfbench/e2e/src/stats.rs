//! Order statistics and small process/machine readers shared by the
//! end-to-end and traced runs.

use std::time::Duration;

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; `None` when `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which the kernel
/// ABI fixes at 100 per second on every architecture it exports.
const USER_HZ: f64 = 100.0;

/// CPU time (user + system, all threads) a process has used so far,
/// read from `/proc/<pid>/stat`.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // The command name is parenthesised and may hold spaces; fields
    // after it are space separated, utime and stime being the 12th and
    // 13th of them.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("{path}: unexpected format"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: missing field {i}"))
    };
    Ok((field(11)? + field(12)?) / USER_HZ)
}

/// Peak resident set size (`VmHWM`) of a process in MB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM"))
}

/// The CPU model and the number of usable processors, for the record.
pub fn machine() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!("{model}, {cpus} cpu(s)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), None);
    }
}
