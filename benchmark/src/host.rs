//! What the host looked like when a run started; recorded with every result
//! so two result sets can be told apart when their numbers disagree.

use crate::api::gemm_kernel_name;
use crate::json::Json;
use std::path::Path;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// `VmHWM` of this process in MiB: the most resident memory it ever held.
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Filesystem type of the mount that holds `dir` (longest mount-point prefix).
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    read("/proc/mounts")
        .lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let (_dev, mount, ty) = (it.next()?, it.next()?, it.next()?);
            dir.starts_with(mount).then(|| (mount.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, ty)| ty)
}

/// The checkout's commit, read from `.git` without running git; a checkout
/// that is not a repository (the driver's) reads "unknown".
fn git_commit() -> String {
    let head = read(".git/HEAD");
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => {
            let direct = read(&format!(".git/{r}"));
            if !direct.trim().is_empty() {
                return direct.trim().to_string();
            }
            read(".git/packed-refs")
                .lines()
                .find_map(|l| l.strip_suffix(r).map(|sha| sha.trim().to_string()))
                .unwrap_or_else(|| "unknown".into())
        }
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

pub fn record(scratch: &Path, seed: u64) -> Json {
    let load1 = read("/proc/loadavg").split_whitespace().next().and_then(|v| v.parse().ok());
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("loadavg_1m", load1.map_or(Json::Null, Json::Num)),
        ("tensor.kernel", Json::text(gemm_kernel_name())),
        ("scratch_fs", Json::Str(fs_type(scratch))),
        ("git_commit", Json::Str(git_commit())),
        ("seed", Json::Num(seed as f64)),
    ])
}
