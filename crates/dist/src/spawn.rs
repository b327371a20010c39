//! Locating and launching worker processes.
//!
//! Workers are children of the coordinator process running the `swt`
//! binary's `dist-worker` mode. The binary is found, in order, from the
//! `SWT_DIST_WORKER_EXE` environment variable, an explicit
//! [`crate::DistConfig::worker_exe`] override, or next to the current
//! executable — which covers both `swt dist-run` (the worker is the same
//! binary) and test/bench binaries (cargo puts package bins in the same
//! target directory, one level above `deps/`).

use std::io;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

/// Environment variable overriding worker-binary discovery.
pub const WORKER_EXE_ENV: &str = "SWT_DIST_WORKER_EXE";

fn exe_name() -> String {
    format!("swt{}", std::env::consts::EXE_SUFFIX)
}

/// Resolve the worker executable path.
pub fn find_worker_exe(overridden: Option<&PathBuf>) -> io::Result<PathBuf> {
    if let Some(path) = std::env::var_os(WORKER_EXE_ENV) {
        return Ok(PathBuf::from(path));
    }
    if let Some(path) = overridden {
        return Ok(path.clone());
    }
    let exe = std::env::current_exe()?;
    let mut dir = exe
        .parent()
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "current exe has no parent dir"))?
        .to_path_buf();
    // Test and bench binaries live in target/{profile}/deps/; the package
    // binary lands one level up.
    loop {
        let candidate = dir.join(exe_name());
        if candidate.is_file() {
            return Ok(candidate);
        }
        if !dir.pop() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "worker binary `{}` not found near {} — build it with \
                     `cargo build -p swt` or set {WORKER_EXE_ENV}",
                    exe_name(),
                    exe.display()
                ),
            ));
        }
    }
}

/// Spawn one worker child connecting back to `addr`; the coordinator names
/// its slot in the handshake.
///
/// stdin is closed (workers take everything from the socket); stdout/stderr
/// are inherited so worker logs (and crash messages) surface in the
/// coordinator's terminal.
pub fn spawn_worker(exe: &PathBuf, addr: &str) -> io::Result<Child> {
    Command::new(exe).args(["dist-worker", "--connect", addr]).stdin(Stdio::null()).spawn()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_override_wins_when_env_is_unset() -> io::Result<()> {
        if std::env::var_os(WORKER_EXE_ENV).is_some() {
            return Ok(()); // environment pins the answer; nothing to test
        }
        let path = PathBuf::from("/nonexistent/swt");
        assert_eq!(find_worker_exe(Some(&path))?, path);
        Ok(())
    }
}
