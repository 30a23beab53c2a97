//! CPU time and peak memory of a process, read from `/proc`. The served
//! workloads charge the `df-serve` child, the in-process ones the
//! benchmark itself — in both cases the process running program code.

use std::fs;

/// `/proc/<pid>/stat` counts CPU time in USER_HZ ticks, which Linux
/// fixes at 100 per second on every ABI it exports `/proc` to.
const TICKS_PER_SEC: f64 = 100.0;

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// User + system CPU seconds consumed so far by `pid` (all threads,
/// exited ones included), or by this process for `None`.
pub fn cpu_seconds(pid: Option<u32>) -> Result<f64, String> {
    let path = proc_path(pid, "stat");
    let stat = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_cpu_ticks(&stat)
        .map(|ticks| ticks as f64 / TICKS_PER_SEC)
        .ok_or_else(|| format!("{path}: unexpected format"))
}

/// utime + stime from one `/proc/<pid>/stat` line. The command name
/// (field 2) may contain spaces and parentheses, so fields are counted
/// from the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command: state is field 3, utime field 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set (`VmHWM`) of `pid` in MiB, or of this process for
/// `None`.
pub fn peak_rss_mib(pid: Option<u32>) -> Result<f64, String> {
    let path = proc_path(pid, "status");
    let status = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_vm_hwm_kib(&status)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let line = "1234 (df serve) x) S 1 1234 1234 0 -1 4194304 500 0 0 0 \
                    250 50 0 0 20 0 5 0 100 1000000 200 18446744073709551615";
        assert_eq!(parse_cpu_ticks(line), Some(300));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn this_process_is_readable() {
        assert!(cpu_seconds(None).is_ok());
        assert!(peak_rss_mib(None).expect("VmHWM") > 0.0);
    }
}
