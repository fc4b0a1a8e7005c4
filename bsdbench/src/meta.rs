//! What a run records about the box it ran on, so noise can be told
//! apart from the program: core count, commit, CPU steal, memory.

use std::fs;
use std::path::Path;

/// Cores the benchmark may use; every client and job count follows it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; "unknown" outside a git checkout.
pub fn git_sha() -> String {
    let git = Path::new(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(sha) = fs::read_to_string(git.join(reference)) {
        return sha.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Aggregate CPU time counters from `/proc/stat`, in clock ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

impl CpuTimes {
    /// The counters now; zero where `/proc/stat` is unavailable.
    pub fn now() -> CpuTimes {
        fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().map(CpuTimes::parse))
            .unwrap_or_default()
    }

    fn parse(line: &str) -> CpuTimes {
        // cpu user nice system idle iowait irq softirq steal guest guest_nice;
        // guest time is already counted in user, so the total stops at steal.
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTimes {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
        }
    }

    /// The share of CPU time stolen by the hypervisor between `self`
    /// and `later`.
    pub fn steal_share(&self, later: &CpuTimes) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// Returns the allocator's free memory to the kernel, then resets the
/// process's peak resident set size to its current size (Linux
/// `clear_refs` mode 5). [`peak_rss_mb`] then reports the peak of what
/// runs next: live data plus its own working set, not what earlier
/// work left cached in the allocator. Where the kernel does not allow
/// the reset, the peak stays the process-lifetime one.
pub fn reset_peak_rss() {
    trim_heap();
    let _ = fs::write("/proc/self/clear_refs", "5");
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim takes no pointers and only releases
    // free memory; it is safe to call from any thread at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// The process's peak resident set size in MB (`VmHWM`), or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_is_a_share_of_elapsed_ticks() {
        let before = CpuTimes::parse("cpu  100 0 50 800 10 0 0 40 0 0");
        let after = CpuTimes::parse("cpu  200 0 100 1500 10 0 0 140 7 0");
        assert_eq!(before.total, 1000);
        assert_eq!(before.steal_share(&after), 100.0 / 950.0);
        assert_eq!(after.steal_share(&after), 0.0);
    }
}
