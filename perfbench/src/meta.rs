//! Machine and provenance metadata carried by every record: core count,
//! pool width, SIMD level, the environment knobs that move them, and the
//! git revision of the measured tree.

use std::path::{Path, PathBuf};

use crate::report::json_str;

/// The repository root: this package's parent directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// `(key, JSON value)` pairs describing the machine and the tree.
pub fn fields() -> Vec<(&'static str, String)> {
    let env = |k: &str| std::env::var(k).map_or("null".to_string(), |v| json_str(&v));
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "fnr_par_threads",
            fnr_par::current_num_threads().to_string(),
        ),
        ("simd_active", json_str(fnr_tensor::simd::active())),
        ("FNR_SIMD", env("FNR_SIMD")),
        ("FNR_THREADS", env("FNR_THREADS")),
        ("git_rev", json_str(&git_rev(&repo_root()))),
    ]
}

/// Renders `fields` plus `extra` as one JSON object.
pub fn record(extra: &[(&str, String)]) -> String {
    let all: Vec<String> = fields()
        .iter()
        .map(|(k, v)| (*k, v.clone()))
        .chain(extra.iter().map(|(k, v)| (*k, v.clone())))
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", all.join(", "))
}

/// The revision `HEAD` names, following one level of `ref:` through loose
/// refs or `packed-refs`; `"none"` outside a git checkout.
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "none".to_string();
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(name))
        .or_else(|| {
            let packed = read(git.join("packed-refs"))?;
            packed.lines().find_map(|l| {
                let (hash, r) = l.split_once(' ')?;
                (r == name).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// System-wide CPU jiffies from `/proc/stat`: `(steal, total)`.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of all CPU time the hypervisor took from this machine between
/// two [`cpu_jiffies`] readings, %. Wall-clock figures of a run with a
/// high share are slowed by the host, not by the program.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Peak resident memory of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh directory under the package's ignored `traces/` directory.
    fn scratch(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn git_rev_outside_a_checkout_is_none() {
        let dir = scratch("norev");
        assert_eq!(git_rev(&dir), "none");
        std::fs::create_dir_all(dir.join(".git/refs/heads")).unwrap();
        std::fs::write(dir.join(".git/HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(dir.join(".git/refs/heads/main"), "abc123\n").unwrap();
        assert_eq!(git_rev(&dir), "abc123");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn steal_share_is_a_percentage_of_the_interval() {
        assert_eq!(steal_pct((10, 1000), (30, 1200)), 10.0);
        assert_eq!(steal_pct((10, 1000), (10, 1000)), 0.0);
        let (steal, total) = cpu_jiffies();
        assert!(total > 0 && steal <= total);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
