//! Facts about the host and the checkout, recorded in every output.

use crate::json::Json;
use std::path::Path;

/// Usable CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` when the benchmark runs in a
/// git checkout; `unknown` otherwise (an exported tree has no history).
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `path` (`ext4`, `overlay`,
/// `tmpfs`, ...), from the longest matching mount point in
/// `/proc/self/mountinfo`; `unknown` off Linux.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // Fields: id parent major:minor root mount-point options ... - type source super
        let mut fields = line.split(' ');
        let Some(mount) = fields.nth(4) else { continue };
        let Some(fs) = line.split(" - ").nth(1).and_then(|t| t.split(' ').next()) else {
            continue;
        };
        let mount = mount.replace("\\040", " ");
        if path.starts_with(&mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fs.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Peak resident set (`VmHWM`) of this process in MiB; 0 off Linux.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The header every output carries.
pub fn header(workload: &str, seed: u64, seconds: u64, trace: bool, work_dir: &Path) -> Json {
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("seed".into(), Json::Num(seed as f64)),
        ("seconds".into(), Json::Num(seconds as f64)),
        ("trace".into(), Json::Bool(trace)),
        ("nproc".into(), Json::Num(nproc() as f64)),
        ("commit".into(), Json::Str(commit())),
        ("work_dir_fs".into(), Json::Str(fs_type(work_dir))),
    ])
}
