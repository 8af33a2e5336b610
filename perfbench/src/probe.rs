//! Process-level probes: environment hygiene, peak RSS and bytes written.

/// Environment variables that silently change the kernel a universe gets:
/// `Universe::new` reads the chain and page-cache switches, every manager
/// reads the thread count and cutoff, and the `jedd-sync` scheduler reads
/// the `JEDD_SCHED*` family.
const KERNEL_ENV: [&str; 5] = [
    "JEDD_THREADS",
    "JEDD_PAR_CUTOFF",
    "JEDD_CHAIN",
    "JEDD_PAGE_CACHE",
    "JEDD_PAGE_DIR",
];

/// Removes every kernel-switching variable from this process's environment
/// and returns the names it removed. Call before any manager exists, while
/// the process has one thread.
pub fn clear_kernel_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| KERNEL_ENV.contains(&k.as_str()) || k.starts_with("JEDD_SCHED"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS by
/// writing `5` to `/proc/self/clear_refs`. Returns whether it worked.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size since start or the last reset, MiB.
pub fn peak_rss_mib() -> Option<f64> {
    proc_field("/proc/self/status", "VmHWM").map(|kib| kib as f64 / 1024.0)
}

/// Bytes this process has passed to `write`-family system calls
/// (`wchar` of `/proc/self/io`).
pub fn bytes_written() -> Option<u64> {
    proc_field("/proc/self/io", "wchar")
}
