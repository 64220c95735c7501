//! CPU time and peak memory of the server process, read from `/proc`.

use std::fs;

/// Kernel clock ticks per second (`USER_HZ`), fixed at 100 on Linux.
const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` in milliseconds from the text of `/proc/<pid>/stat`.
/// The command name may hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_cpu_ms(stat: &str) -> Option<f64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_whitespace();
    // After the name come state (field 3) ... utime (14), stime (15).
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 1000.0 / TICKS_PER_S)
}

/// A `kB` field (`VmHWM:`) of `/proc/<pid>/status`, in MiB.
pub fn parse_status_mib(status: &str, key: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: f64 = line[key.len()..]
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// CPU milliseconds a live process has used so far.
pub fn cpu_ms(pid: u32) -> Option<f64> {
    parse_cpu_ms(&fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Peak resident set (`VmHWM`) of a live process, in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    parse_status_mib(
        &fs::read_to_string(format!("/proc/{pid}/status")).ok()?,
        "VmHWM:",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_survives_a_hostile_command_name() {
        let stat = "4242 (sdb (serve) x) S 1 4242 4242 0 -1 4194304 901 0 0 0 \
                    150 25 0 0 20 0 5 0 12345 1000000 500 18446744073709551615";
        assert_eq!(parse_cpu_ms(stat), Some(1750.0));
        assert_eq!(parse_cpu_ms("4242 (sdb) S 1"), None);
        assert_eq!(parse_cpu_ms("no parenthesis"), None);
    }

    #[test]
    fn status_fields_convert_to_mib() {
        let status = "Name:\tsdb\nVmPeak:\t  900000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_status_mib(status, "VmHWM:"), Some(20.0));
        assert_eq!(parse_status_mib(status, "VmRSS:"), Some(1.0));
        assert_eq!(parse_status_mib(status, "VmSwap:"), None);
    }

    #[test]
    fn this_process_is_readable() {
        let pid = std::process::id();
        assert!(cpu_ms(pid).is_some());
        assert!(peak_rss_mib(pid).unwrap() > 0.0);
    }
}
