//! Run results: the metric table, the run's set-up record, and the one
//! JSON line the benchmark ends with.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Metrics in insertion order: `(name, value, unit)`.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not a finite number: {value}");
        assert!(!self.0.iter().any(|(n, _, _)| *n == name), "metric {name} reported twice");
        self.0.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|&(_, v, _)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }
}

/// Everything that identifies a run, so two runs can be compared and a
/// claim re-checked on another seed.
#[derive(Debug, Default)]
pub struct RunSetup {
    pub fields: Vec<(&'static str, String)>,
}

impl RunSetup {
    pub fn num(&mut self, key: &'static str, v: impl std::fmt::Display) {
        self.fields.push((key, v.to_string()));
    }

    pub fn text(&mut self, key: &'static str, v: &str) {
        self.fields.push((key, format!("\"{v}\"")));
    }

    pub fn json(&self) -> String {
        let body: Vec<String> = self.fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", body.join(","))
    }
}

/// The final line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    s.push_str("}}");
    s
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Jiffies of all CPUs since boot as `(total, steal)`, from `/proc/stat`.
/// Steal is time a virtual CPU was runnable but the host ran something
/// else: a run with much of it measured a busy host, not the program.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .map(|l| l.split_whitespace().filter_map(|f| f.parse().ok()).collect())
        .unwrap_or_default();
    (fields.iter().take(8).sum(), fields.get(7).copied().unwrap_or(0))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A temporary directory inside the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> std::io::Result<WorkDir> {
        let dir = PathBuf::from(".bench_work").join(format!("{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either (fails harmlessly when other
        // runs still use it).
        let _ = std::fs::remove_dir(".bench_work");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.put("p50_ms", 1.25, "ms");
        m.put("qps", 1000.5, "1/s");
        assert_eq!(
            result_json(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"qps\": {\"value\": 1000.5, \"unit\": \"1/s\"}}}"
        );
        assert_eq!(m.get("qps"), Some(1000.5));
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
