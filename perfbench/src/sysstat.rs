//! Process counters from `/proc/self`: CPU time, context switches and
//! peak resident memory.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/self/stat` (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// A point-in-time reading of the process counters.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ProcStat {
    /// User CPU seconds, all threads.
    pub user_s: f64,
    /// System CPU seconds, all threads.
    pub sys_s: f64,
    /// Voluntary context switches of the main thread and every live thread.
    pub vol_csw: u64,
    /// Involuntary context switches, counted the same way.
    pub invol_csw: u64,
}

impl ProcStat {
    /// Reads the counters now (zeros where `/proc` is unreadable).
    pub fn now() -> ProcStat {
        let mut s = ProcStat::default();
        if let Ok(stat) = fs::read_to_string("/proc/self/stat") {
            (s.user_s, s.sys_s) = parse_cpu(&stat).unwrap_or_default();
        }
        // Per-thread switch counts; the process-level status file only
        // counts the main thread.
        if let Ok(tasks) = fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                if let Ok(status) = fs::read_to_string(task.path().join("status")) {
                    s.vol_csw += status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0);
                    s.invol_csw +=
                        status_field(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0);
                }
            }
        }
        s
    }

    /// The counter increments since `earlier`. Threads that ended in
    /// between take their switch counts with them, so switch deltas cover
    /// threads alive at both readings.
    pub fn since(&self, earlier: &ProcStat) -> ProcStat {
        ProcStat {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            vol_csw: self.vol_csw.saturating_sub(earlier.vol_csw),
            invol_csw: self.invol_csw.saturating_sub(earlier.invol_csw),
        }
    }
}

/// Peak resident set size of the process so far (`VmHWM`), in MiB.
pub fn rss_peak_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Resident set size of the process now (`VmRSS`), in MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

fn status_mib(key: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, key))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// `utime` and `stime` (fields 14 and 15) of a `/proc/<pid>/stat` line, in
/// seconds. The command name in field 2 may hold spaces, so fields are
/// counted after its closing parenthesis.
fn parse_cpu(stat: &str) -> Option<(f64, f64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / USER_HZ, stime / USER_HZ))
}

/// The number after `key` in a `/proc/<pid>/status` text.
fn status_field(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_in_the_name() {
        let stat = "42 (perf bench) R 1 2 3 4 5 6 7 8 9 10 250 37 0 0";
        assert_eq!(parse_cpu(stat), Some((2.5, 0.37)));
    }

    #[test]
    fn parses_status_fields() {
        let status = "Name:\tx\nVmHWM:\t   2048 kB\nvoluntary_ctxt_switches:\t12\n";
        assert_eq!(status_field(status, "VmHWM:"), Some(2048));
        assert_eq!(status_field(status, "voluntary_ctxt_switches:"), Some(12));
        assert_eq!(status_field(status, "Missing:"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(rss_peak_mib() >= rss_mib() && rss_mib() > 0.0);
        let a = ProcStat::now();
        let b = ProcStat::now().since(&a);
        assert!(b.user_s >= 0.0 && b.sys_s >= 0.0);
    }
}
