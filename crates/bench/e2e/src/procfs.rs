//! Process figures read from `/proc`: peak resident set and CPU time.

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (USER_HZ,
/// 100 on every Linux target the benchmark runs on).
const TICKS_PER_S: f64 = 100.0;

fn proc_dir(pid: Option<u32>) -> String {
    match pid {
        Some(p) => format!("/proc/{p}"),
        None => "/proc/self".to_owned(),
    }
}

/// Peak resident set (`VmHWM`) of a process, MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let status = std::fs::read_to_string(format!("{}/status", proc_dir(pid))).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU time a process has used, seconds.
pub fn cpu_s(pid: Option<u32>) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("{}/stat", proc_dir(pid))).ok()?;
    // Fields after the parenthesized command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

/// Usable cores.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mib(None).is_some_and(|m| m > 0.0));
        assert!(cpu_s(None).is_some_and(|s| s >= 0.0));
        assert!(cores() >= 1);
    }
}
