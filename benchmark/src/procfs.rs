//! Readers for the process's own CPU time and peak memory (Linux
//! `/proc`). Both cover every thread of the process.

use std::fs;

/// `USER_HZ`: the unit of the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. It is 100 on every Linux ABI.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds consumed by this process so far.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_cpu_ticks(&stat).expect("utime/stime in /proc/self/stat") / TICKS_PER_SECOND
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&status).expect("VmHWM in /proc/self/status") / 1024.0
}

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name (field 2) may contain spaces and parentheses, so the
/// numbered fields are counted from the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime is field 14.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64)
}

fn parse_vm_hwm_kib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (a b) c) R 1 2 3 4 5 6 7 8 9 10 700 50 0 0 20 0 2 0 100 1 2";
        assert_eq!(parse_cpu_ticks(stat), Some(750.0));
        assert_eq!(parse_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048.0));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn live_readers_return_plausible_values() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.1);
    }
}
