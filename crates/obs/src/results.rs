//! The shared results writer: one code path for every machine-readable
//! artifact the benches and fault campaigns leave behind.
//!
//! Every writer in the workspace that persists a results file
//! (`results/BENCH_live.json`, `results/BENCH_netmesis.json`,
//! counterexample artifacts) goes through [`write_json_report`], so the
//! repo-root trajectory files share one format: pretty-printed JSON
//! with a trailing newline, parent directories created on demand. A
//! tool that trends the perf/robustness numbers can parse every file
//! the same way. (Closed-loop throughput and exact percentiles are not
//! written here: `benchmark/run.sh` measures them and keeps its own
//! result sets under `benchmark/results/`.)

use serde::Serialize;
use std::path::Path;

/// Serializes `report` as pretty JSON (plus trailing newline) to
/// `path`, creating parent directories as needed.
///
/// # Errors
///
/// An [`std::io::Error`] if serialization fails (reported as
/// `InvalidData`) or the file cannot be written.
pub fn write_json_report<T: Serialize + ?Sized>(
    path: &Path,
    report: &T,
) -> std::io::Result<()> {
    let body = serde_json::to_string_pretty(report).map_err(|e| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    })?;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, format!("{body}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Probe {
        name: String,
        runs: u64,
    }

    #[test]
    fn writes_pretty_json_with_trailing_newline_and_creates_dirs() {
        let dir = std::env::temp_dir().join(format!(
            "adore-results-writer-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("report.json");
        let probe = Probe {
            name: "bench".into(),
            runs: 3,
        };
        write_json_report(&path, &probe).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'));
        assert!(text.contains('\n'), "pretty form is multi-line");
        let back: Probe = serde_json::from_str(&text).unwrap();
        assert_eq!(back, probe);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
