//! What `/proc` says about a node process: CPU time and resident memory,
//! read from outside, with no edit to the program.

use std::fs;

/// Kernel clock ticks per second as `/proc/<pid>/stat` reports them.
/// Linux fixes `USER_HZ` at 100 for every architecture it exposes to
/// user space, so this is a constant and not a `sysconf` call.
pub const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) is in parentheses and may itself contain
/// spaces or parentheses, so fields are counted from the *last* `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `kB` line such as `VmHWM:` from the text of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// One reading of a live process.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// `utime + stime`, clock ticks since the process started.
    pub cpu_ticks: u64,
    /// Peak resident set (`VmHWM`), kB.
    pub hwm_kb: u64,
    /// Resident set now (`VmRSS`), kB.
    pub rss_kb: u64,
}

impl ProcSample {
    /// CPU milliseconds between `earlier` and this reading.
    pub fn cpu_ms_since(&self, earlier: &ProcSample) -> f64 {
        self.cpu_ticks.saturating_sub(earlier.cpu_ticks) as f64 * 1000.0 / TICKS_PER_S
    }
}

/// Reads `pid` (or this process for `"self"`); `None` once it is gone.
pub fn sample(pid: &str) -> Option<ProcSample> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    Some(ProcSample {
        cpu_ticks: parse_cpu_ticks(&stat)?,
        hwm_kb: parse_status_kb(&status, "VmHWM")?,
        rss_kb: parse_status_kb(&status, "VmRSS")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_are_fields_14_and_15_even_with_an_awkward_name() {
        let stat = "4242 (adore perf) x) S 1 4242 4242 0 -1 4194304 1330 0 0 0 \
                    639 12 0 0 20 0 9 0 123456 250000000 3000 18446744073709551615 1 1 0";
        assert_eq!(parse_cpu_ticks(stat), Some(651));
        assert_eq!(parse_cpu_ticks("no parenthesis here"), None);
        assert_eq!(parse_cpu_ticks("1 (x) S 1 2 3"), None);
    }

    #[test]
    fn status_lines_parse_in_kb() {
        let status =
            "Name:\tadore-perf\nVmPeak:\t  300000 kB\nVmHWM:\t   14212 kB\nVmRSS:\t   13100 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(14212));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(13100));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn cpu_delta_converts_ticks_to_ms() {
        let a = ProcSample {
            cpu_ticks: 100,
            ..ProcSample::default()
        };
        let b = ProcSample {
            cpu_ticks: 739,
            ..ProcSample::default()
        };
        assert_eq!(b.cpu_ms_since(&a), 6390.0);
        assert_eq!(a.cpu_ms_since(&b), 0.0);
    }

    #[test]
    fn this_process_can_be_sampled() {
        let s = sample("self").expect("/proc/self is readable");
        assert!(s.hwm_kb >= s.rss_kb && s.rss_kb > 0);
    }
}
