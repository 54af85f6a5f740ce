//! The lcrs benchmark: arrival-to-answer latency on three workloads, and a
//! traced per-layer breakdown of the same calls.
//!
//! ```text
//! perfbench --workload <serve-mixed|shard-batch|live-churn> --seed <n>
//!           --seconds <s> --trace <0|1> [--rate <arrivals/s>]
//! ```
//!
//! With `--trace 0` the run sets the system up three times (the median
//! is `setup_s`), measures for `--seconds`, checks every answer,
//! and reports the end-to-end metrics. With `--trace 1` it records spans
//! around its calls into each layer and reports the per-layer metrics
//! instead. The last line of standard output is one JSON object; the
//! run's set-up record, its metrics and (traced) its spans are also
//! written under `.bench_out/`. See README.md for the workloads and the
//! layer-to-metric table.

mod check;
mod live_churn;
mod report;
mod serve_mixed;
mod shard_batch;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use lcrs_engine::{BatchExecutor, Query, RangeIndex};
use lcrs_extmem::IoDelta;
use lcrs_workloads::{points2, points3, Dist2, Dist3};

use report::{Metrics, RunSetup, WorkDir};
use trace::{SpanId, Tracer};

/// Page size of every device in every workload.
pub const PAGE: usize = 1024;

/// The end-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 5] =
    [("setup_s", "s"), ("qps", "1/s"), ("p50_ms", "ms"), ("p99_ms", "ms"), ("peak_rss_mb", "MiB")];

/// The structures the planner routes at least 1% of queries to, in slot
/// order (`serve-mixed`: dynamic, kdtree, tradeoff-hybrid, scan;
/// `shard-batch`: rtree, knn, tradeoff-shallow, scan). Queries routed to any
/// other structure show up in `struct.other.share`.
pub const STRUCTURES: [&str; 7] =
    ["kdtree", "rtree", "dynamic", "knn", "tradeoff-hybrid", "tradeoff-shallow", "scan"];

/// The per-layer metrics, reported by every traced run. A metric of a
/// layer a workload bypasses reads 0 on that workload.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("setup.build_s", "s"),
        ("setup.calibrate_s", "s"),
        ("setup.persist_s", "s"),
        ("setup.reopen_s", "s"),
        ("serve.windows", "count"),
        ("serve.queries_per_window", "count"),
        ("serve.wait_p50_ms", "ms"),
        ("serve.wait_p99_ms", "ms"),
        ("serve.window_exec_p50_ms", "ms"),
        ("serve.window_exec_p99_ms", "ms"),
        ("serve.self_us_per_call", "us"),
        ("serve.backlog_end", "count"),
        ("plan.us_per_query", "us"),
        ("plan.capable_slots_per_query", "count"),
        ("exec.self_us_per_query", "us"),
        ("exec.groups_per_call", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for s in STRUCTURES {
        v.push((format!("struct.{s}.share"), "ratio"));
        v.push((format!("struct.{s}.us_per_query"), "us"));
        v.push((format!("struct.{s}.reads_per_query"), "count"));
    }
    v.push(("struct.other.share".to_string(), "ratio"));
    v.extend(
        [
            ("page.reads_per_query", "count"),
            ("page.hits_per_query", "count"),
            ("page.hit_ratio", "ratio"),
            ("page.writes_per_mutation", "count"),
            ("shard.fanout_mean", "count"),
            ("shard.route_us_per_query", "us"),
            ("shard.busy_max_ms", "ms"),
            ("shard.busy_mean_ms", "ms"),
            ("shard.gather_ms_per_batch", "ms"),
            ("live.checkpoint_p50_ms", "ms"),
            ("live.checkpoint_p99_ms", "ms"),
            ("live.merge_begin_ms", "ms"),
            ("live.merge_commit_ms", "ms"),
            ("live.merges", "count"),
            ("live.parts_end", "count"),
            ("live.reads_per_query", "count"),
            ("live.write_p50_ms", "ms"),
            ("live.write_p99_ms", "ms"),
            ("trace.overhead_frac", "ratio"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    v
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Offered arrival rate of `serve-mixed` (arrivals per second).
    pub rate: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false, rate: 300.0 };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            "--rate" => args.rate = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.rate > 0.0) {
        return Err("--seconds and --rate must be positive".into());
    }
    Ok(args)
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub setup: RunSetup,
    /// Further figures printed with the run but not part of the JSON line.
    pub detail: Vec<(&'static str, f64, &'static str)>,
}

/// The fixed datasets of `serve-mixed` and `shard-batch` (the exp_planner
/// fixture): clustered 2D points inside the k-NN lift budget, uniform 3D.
pub fn datasets() -> (Vec<(i64, i64)>, Vec<(i64, i64, i64)>) {
    (points2(Dist2::Clustered, 16384, 1000, 61), points3(Dist3::Uniform, 6144, 1 << 16, 62))
}

/// Set-up rounds of an untraced run; `setup_s` is their median, and each
/// round serves one segment of the run's requests.
pub const SETUP_ROUNDS: usize = 3;

/// Nanoseconds from `a` to `b`.
pub fn ns(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.saturating_duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

/// The page layer's counts, per query and per mutation.
pub fn page_metrics(m: &mut Metrics, io: IoDelta, queries: f64, mutations: f64) {
    let (reads, hits) = (io.reads as f64, io.cache_hits as f64);
    m.put("page.reads_per_query", stats::ratio(reads, queries), "count");
    m.put("page.hits_per_query", stats::ratio(hits, queries), "count");
    m.put("page.hit_ratio", stats::ratio(hits, hits + reads), "ratio");
    m.put("page.writes_per_mutation", stats::ratio(io.writes as f64, mutations), "count");
}

/// Structure groups replayed through the batch executor, tallied by
/// structure: queries, time and page reads.
#[derive(Default)]
pub struct StructTally {
    per: BTreeMap<&'static str, (u64, u64, u64)>,
}

impl StructTally {
    /// Replay one routed group; returns its wall time and page counts.
    pub fn replay(
        &mut self,
        index: &dyn RangeIndex,
        sub: &[Query],
        tr: &mut Tracer,
        parent: SpanId,
        request: u64,
    ) -> (u64, IoDelta) {
        let t0 = Instant::now();
        let rep = BatchExecutor::new(index).keep_answers(true).run_batched(sub);
        let t1 = Instant::now();
        tr.record(index.name(), t0, t1, parent, request);
        let e = self.per.entry(index.name()).or_default();
        e.0 += sub.len() as u64;
        e.1 += ns(t0, t1);
        e.2 += rep.total.reads;
        (ns(t0, t1), rep.total)
    }

    pub fn put(&self, m: &mut Metrics) {
        let total: u64 = self.per.values().map(|e| e.0).sum();
        for s in STRUCTURES {
            let (q, t, r) = self.per.get(s).copied().unwrap_or_default();
            let q_f = q as f64;
            m.put(format!("struct.{s}.share"), stats::ratio(q_f, total as f64), "ratio");
            m.put(format!("struct.{s}.us_per_query"), stats::ratio(t as f64 / 1e3, q_f), "us");
            m.put(format!("struct.{s}.reads_per_query"), stats::ratio(r as f64, q_f), "count");
        }
        let other: u64 =
            self.per.iter().filter(|(s, _)| !STRUCTURES.contains(s)).map(|(_, e)| e.0).sum();
        m.put("struct.other.share", stats::ratio(other as f64, total as f64), "ratio");
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::new(&args.workload).map_err(|e| format!("work directory: {e}"))?;
    let mut tr = Tracer::new(args.trace);
    let mut out = match args.workload.as_str() {
        "serve-mixed" => serve_mixed::run(args, &work, &mut tr)?,
        "shard-batch" => shard_batch::run(args, &work, &mut tr)?,
        "live-churn" => live_churn::run(args, &work, &mut tr)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    if args.trace {
        // Layers a workload bypasses read 0.
        let mut full = Metrics::default();
        for (name, unit) in per_layer() {
            full.put(name.clone(), out.metrics.get(&name).unwrap_or(0.0), unit);
        }
        for (name, _, _) in out.metrics.iter() {
            assert!(full.get(name).is_some(), "{name} is not a declared per-layer metric");
        }
        out.metrics = full;
        let path = format!(".bench_out/spans-{}-seed{}.jsonl", args.workload, args.seed);
        std::fs::create_dir_all(".bench_out").map_err(|e| e.to_string())?;
        tr.write_jsonl(Path::new(&path)).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("{} spans written to {path}", tr.spans().len());
        // Self time per span name, as a share of all self time.
        let layers = trace::by_name(tr.spans());
        let all: u64 = layers.values().map(|l| l.self_ns).sum();
        for (name, l) in &layers {
            println!(
                "# span {name}: {} spans, {:.3} ms total, {:.3} ms self ({:.1}% of self time)",
                l.count,
                l.total_ns as f64 / 1e6,
                l.self_ns as f64 / 1e6,
                100.0 * stats::ratio(l.self_ns as f64, all as f64)
            );
        }
    } else {
        out.metrics.put("peak_rss_mb", report::peak_rss_mb(), "MiB");
        let names: Vec<&str> = out.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, declared, "an untraced run reports exactly the end-to-end metrics");
    }
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cpu0 = report::cpu_jiffies();
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let mut setup = RunSetup::default();
    setup.text("workload", &args.workload);
    setup.num("seed", args.seed);
    setup.num("seconds", args.seconds);
    setup.num("trace", u8::from(args.trace));
    setup.num("nproc", report::nproc());
    let cpu1 = report::cpu_jiffies();
    let steal = stats::ratio((cpu1.1 - cpu0.1) as f64, (cpu1.0 - cpu0.0) as f64);
    setup.num("host_steal_frac", format!("{steal:.4}"));
    setup.num("page_bytes", PAGE);
    setup.fields.extend(out.setup.fields);
    let record = setup.json();
    println!("# run {record}");
    for (name, value, unit) in out.metrics.iter() {
        println!("# {name} = {value} {unit}");
    }
    for (name, value, unit) in &out.detail {
        println!("# {name} = {value} {unit}");
    }
    let line = report::result_json(out.correct, out.attempted, out.failed, &out.metrics);
    let saved = format!(
        ".bench_out/{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = std::fs::create_dir_all(".bench_out").and_then(|()| {
        std::fs::write(&saved, format!("{{\"run\": {record}, \"result\": {line}}}\n"))
    }) {
        eprintln!("perfbench: {saved}: {e}");
    }
    println!("{line}");
    if !out.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json and the code name the same metrics.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(&path) else {
            return; // outside a checkout of the repository
        };
        let names_in = |section: &str| -> Vec<String> {
            let start = text.find(&format!("\"{section}\"")).expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in("end_to_end"), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names_in("per_layer"), layers);
    }
}
