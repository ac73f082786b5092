//! What a result is stamped with (commit, host, kernel, blocking plan,
//! caches), the timed-phase peak-RSS probe, and the scratch directory.

use std::path::{Path, PathBuf};
use std::process::Command;

use multicore_matmul::exec::blocking::{active_plan, CacheLevels};
use multicore_matmul::exec::kernel;

/// Logical CPUs this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit under test: `git rev-parse HEAD` when the current
/// directory is the top of a git checkout, else `"unknown"`. Git is kept
/// from searching parent directories, so an exported tree never reports
/// the commit of some repository around it.
pub fn commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let from_git = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty());
    from_git.unwrap_or_else(|| "unknown".to_string())
}

/// The stamp line every result carries, as one JSON object.
pub fn stamp(workload: &str, seed: u64, why: &str, extra: &[(String, String)]) -> String {
    let caches = CacheLevels::detect_host();
    let plan = active_plan::<f64>();
    let mut fields = vec![
        ("workload".to_string(), json_str(workload)),
        ("seed".to_string(), seed.to_string()),
        ("commit".to_string(), json_str(&commit())),
        ("nproc".to_string(), nproc().to_string()),
        ("kernel".to_string(), json_str(kernel::variant().name())),
        ("plan".to_string(), json_str(&plan.to_string())),
        ("l2_bytes".to_string(), caches.l2_bytes.to_string()),
        ("llc_bytes".to_string(), caches.shared_bytes.to_string()),
        ("why".to_string(), json_str(why)),
    ];
    fields.extend(extra.iter().cloned());
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}:{v}", json_str(k))).collect();
    format!("{{{}}}", body.join(","))
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Reset the kernel's resident-set high-water mark to the current RSS,
/// so [`peak_rss_mib`] covers only what follows. Returns whether the
/// reset took (`/proc/self/clear_refs` accepts `5` on Linux ≥ 4.0).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` of this process in MiB (0 when `/proc` is unreadable).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A per-process scratch directory under `.bench_work/` in the current
/// directory, removed with everything in it on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Create `.bench_work/<pid>` (and its parent).
    pub fn create() -> std::io::Result<WorkDir> {
        let dir = Path::new(".bench_work").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// `name` inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still uses it).
        let _ = std::fs::remove_dir(".bench_work");
    }
}
