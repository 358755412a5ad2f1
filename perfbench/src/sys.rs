//! Linux process facts: peak resident memory and hypervisor steal time.

use std::fs;

/// Peak resident memory (`VmHWM`) of a process in MiB, or `None` if it cannot be read.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = fs::read_to_string(path).ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Resets this process's peak resident memory to its current resident memory, so the peak
/// measured afterwards excludes what reference-answer computation briefly allocated.
pub fn reset_peak_rss() -> Result<(), String> {
    fs::write("/proc/self/clear_refs", "5")
        .map_err(|error| format!("cannot reset peak RSS through /proc/self/clear_refs: {error}"))
}

/// Host CPU time counters from `/proc/stat`, to report how much CPU time the hypervisor gave
/// to other guests (steal) while the benchmark measured.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

impl CpuTimes {
    pub fn now() -> Option<CpuTimes> {
        let stat = fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .map_while(|field| field.parse().ok())
            .collect();
        Some(CpuTimes {
            steal: *fields.get(7)?,
            total: fields.iter().take(8).sum(),
        })
    }
}

/// Prints the share of CPU time stolen by the hypervisor since `before`: a noisy host shows up
/// here rather than as an unexplained slowdown.
pub fn print_steal(before: Option<CpuTimes>) {
    if let (Some(before), Some(after)) = (before, CpuTimes::now()) {
        let total = after.total.saturating_sub(before.total).max(1);
        println!(
            "host: {:.2}% of CPU time stolen by the hypervisor while measuring",
            100.0 * after.steal.saturating_sub(before.steal) as f64 / total as f64
        );
    }
}
