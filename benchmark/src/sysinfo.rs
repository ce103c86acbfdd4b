//! What the host tells us: memory high-water mark, I/O counters, and the
//! facts a result file is stamped with so a number can be traced to a
//! machine and a commit.

use std::path::Path;

fn proc_field(file: &str, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(file).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim_start_matches(':')
                .split_whitespace()
                .next()?
                .parse()
                .ok()
        })
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// `(syscw, wchar)` of this process so far: write syscalls and bytes passed
/// to them (`/proc/self/io`).
pub fn proc_io() -> (u64, u64) {
    (
        proc_field("/proc/self/io", "syscw").unwrap_or(0),
        proc_field("/proc/self/io", "wchar").unwrap_or(0),
    )
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix
/// in `/proc/mounts`).
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// The commit of the checkout the benchmark runs in, or "unknown" when it is
/// not a git repository (the acceptance driver's checkouts are not).
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Total size of the files in `dir` whose name starts with `prefix`.
pub fn files_size(dir: &Path, prefix: &str) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
