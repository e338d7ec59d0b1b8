//! Process counters from `/proc/self`: I/O totals and peak resident set.

/// The `/proc/self/io` counters the benchmark uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounters {
    /// Bytes passed to `read`-family calls, page cache hits included.
    pub rchar: u64,
    /// Bytes passed to `write`-family calls.
    pub wchar: u64,
    /// Number of `read`-family system calls.
    pub syscr: u64,
}

impl IoCounters {
    /// Counter growth since `earlier` (saturating at zero).
    pub fn since(&self, earlier: &IoCounters) -> IoCounters {
        IoCounters {
            rchar: self.rchar.saturating_sub(earlier.rchar),
            wchar: self.wchar.saturating_sub(earlier.wchar),
            syscr: self.syscr.saturating_sub(earlier.syscr),
        }
    }
}

/// Parses the text of `/proc/<pid>/io`; `None` if a needed field is
/// missing or malformed.
pub fn parse_io(text: &str) -> Option<IoCounters> {
    let field = |name: &str| -> Option<u64> {
        text.lines().find_map(|line| {
            let (key, value) = line.split_once(':')?;
            (key.trim() == name).then(|| value.trim().parse().ok()).flatten()
        })
    };
    Some(IoCounters { rchar: field("rchar")?, wchar: field("wchar")?, syscr: field("syscr")? })
}

/// Reads this process's I/O counters.
///
/// # Errors
///
/// Fails when `/proc/self/io` is unreadable or malformed.
pub fn read_io() -> std::io::Result<IoCounters> {
    let text = std::fs::read_to_string("/proc/self/io")?;
    parse_io(&text).ok_or_else(|| std::io::Error::other("malformed /proc/self/io"))
}

/// Parses the peak resident set size (`VmHWM`, in KiB) out of the text
/// of `/proc/<pid>/status`.
pub fn parse_peak_rss_kib(status: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix("VmHWM:")?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// This process's peak resident set size in MiB.
///
/// # Errors
///
/// Fails when `/proc/self/status` is unreadable or lacks `VmHWM`.
pub fn peak_rss_mib() -> std::io::Result<f64> {
    let text = std::fs::read_to_string("/proc/self/status")?;
    let kib = parse_peak_rss_kib(&text)
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc/self/status"))?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const IO: &str = "rchar: 3980\nwchar: 120\nsyscr: 9\nsyscw: 2\nread_bytes: 0\n\
                      write_bytes: 4096\ncancelled_write_bytes: 0\n";

    #[test]
    fn parses_proc_io() {
        let io = parse_io(IO).expect("well-formed");
        assert_eq!(io, IoCounters { rchar: 3980, wchar: 120, syscr: 9 });
    }

    #[test]
    fn rejects_incomplete_or_malformed_io() {
        assert_eq!(parse_io("rchar: 1\nwchar: 2\n"), None);
        assert_eq!(parse_io("rchar: x\nwchar: 2\nsyscr: 3\n"), None);
        // Only whole field names match: `read_bytes` is not `rchar`.
        assert_eq!(parse_io("read_bytes: 5\nwchar: 2\nsyscr: 3\n"), None);
    }

    #[test]
    fn deltas_saturate() {
        let a = IoCounters { rchar: 10, wchar: 5, syscr: 2 };
        let b = IoCounters { rchar: 25, wchar: 5, syscr: 1 };
        assert_eq!(b.since(&a), IoCounters { rchar: 15, wchar: 0, syscr: 0 });
    }

    #[test]
    fn parses_peak_rss() {
        let status = "Name:\tbench\nVmPeak:\t  20000 kB\nVmHWM:\t    1576 kB\nVmRSS:\t 1500 kB\n";
        assert_eq!(parse_peak_rss_kib(status), Some(1576));
        assert_eq!(parse_peak_rss_kib("VmRSS:\t 1500 kB\n"), None);
    }

    #[test]
    fn reads_own_counters() {
        let before = read_io().expect("procfs");
        std::fs::read_to_string("/proc/self/status").expect("procfs");
        let after = read_io().expect("procfs");
        assert!(after.since(&before).syscr >= 1);
        assert!(peak_rss_mib().expect("procfs") > 0.0);
    }
}
