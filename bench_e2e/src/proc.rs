//! What the operating system says about this process, and a CPU canary.
//!
//! Linux only: everything is read from `/proc/self`. A missing file or
//! field reads as 0, which the correctness gate turns into a failed run
//! where the number matters (`write_amp`, `rss_mb`).

use std::hint::black_box;
use std::time::Instant;

fn field_after<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
}

/// Bytes this process has passed to `write`-family calls so far (`wchar`).
pub fn bytes_written() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|io| field_after(&io, "wchar:")?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| field_after(&status, "VmHWM:")?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// User plus system CPU time of this process so far, in seconds.
pub fn cpu_seconds() -> f64 {
    /// `USER_HZ`: the unit of `/proc/<pid>/stat` times, 100 on every Linux
    /// port regardless of the kernel's tick rate.
    const TICKS_PER_SECOND: f64 = 100.0;
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // The command name (field 2) may hold spaces; count from its ')'.
            let rest = &stat[stat.rfind(')')? + 1..];
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / TICKS_PER_SECOND)
        })
        .unwrap_or(0.0)
}

/// Times a fixed pure-CPU loop, in milliseconds (best of three). It touches
/// no memory and no file, so it moves only when the machine's CPU speed or
/// contention does.
pub fn canary_ms() -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..black_box(20_000_000u32) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_live_on_linux() {
        assert!(peak_rss_mib() > 0.0);
        let before = bytes_written();
        let path = std::env::temp_dir().join(format!("bench-e2e-proc-{}", std::process::id()));
        std::fs::write(&path, vec![7u8; 1 << 16]).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(bytes_written() >= before + (1 << 16));
        assert!(canary_ms() > 0.0);
        assert!(cpu_seconds() > 0.0);
    }

    #[test]
    fn field_parsing() {
        assert_eq!(field_after("rchar: 1\nwchar: 42\n", "wchar:"), Some("42"));
        assert_eq!(field_after("VmHWM:\t  1234 kB\n", "VmHWM:"), Some("1234"));
        assert_eq!(field_after("x: 1\n", "wchar:"), None);
    }
}
