//! What is stamped into every output: the numbers mean nothing without
//! the commit, the dependencies the program was built against, the compiler,
//! the core count, the kernel and the file system the WAL sat on.

use std::path::Path;
use std::process::Command;

/// The benchmark crate's directory (`perf/`), fixed when it was built. The
/// binary is always built inside the checkout it measures.
pub fn perf_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Which dependencies this binary was built against: `offline-standins`
/// when built with `--config perf/offline/config.toml`, which says so
/// through the environment of the compiler; else the published crates.
/// Numbers and pins of one build say nothing about the other.
pub fn deps() -> &'static str {
    option_env!("SKYNET_PERF_DEPS").unwrap_or("published")
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let output = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// The file-system type of the mount `path` lives on, from `/proc/mounts`
/// (the longest mount point that prefixes the path wins).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs.to_string())
}

/// One line per stamp, for the head of every human-readable output.
pub fn stamps(seed: u64, wal_root: &Path) -> Vec<(String, String)> {
    let unknown = || "unknown".to_string();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| unknown(), |s| s.trim().to_string());
    vec![
        (
            "commit".to_string(),
            command_line("git", &["rev-parse", "HEAD"], perf_dir()).unwrap_or_else(unknown),
        ),
        ("deps".to_string(), deps().to_string()),
        (
            "rustc".to_string(),
            command_line("rustc", &["-V"], perf_dir()).unwrap_or_else(unknown),
        ),
        (
            "nproc".to_string(),
            std::thread::available_parallelism().map_or_else(|_| unknown(), |n| n.to_string()),
        ),
        ("kernel".to_string(), kernel),
        ("wal_fs".to_string(), fs_type(wal_root)),
        ("seed".to_string(), seed.to_string()),
    ]
}
