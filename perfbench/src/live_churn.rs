//! `live-churn`: one closed-loop client replaying an insert/delete/query
//! trace against a durable live index (every mutation checkpointed), with
//! background merges begun and committed on a fixed op-count schedule.

use std::collections::BTreeMap;
use std::time::Instant;

use lcrs_engine::{LiveIndex, RangeIndex};
use lcrs_extmem::{DeviceConfig, IoStats};
use lcrs_workloads::{live_trace, points2, Dist2, TraceMix, TraceOp};

use crate::check::{set_digest, Digest};
use crate::report::{Metrics, RunSetup, WorkDir};
use crate::stats::{median, ratio, Summary};
use crate::trace::Tracer;
use crate::{ns, page_metrics, Args, Outcome, PAGE, SETUP_ROUNDS};

pub const PRELOAD: usize = 16384;
pub const DELTA_CAP: usize = 64;
pub const CACHE_PAGES: usize = 32;
const RANGE: i64 = 1 << 20;
const SLOPE: i64 = 8;
/// Preloaded points carry tags from here up; trace inserts count from 0.
const PRELOAD_TAG: u64 = 1 << 40;
/// Background merges: begin every 61 ops, commit 9 ops later (exp_live).
const MERGE_EVERY: usize = 61;
const MERGE_COMMIT_AT: usize = 9;

/// Trace operations per second of `--seconds`: a run replays a fixed
/// amount of work (about that long on a 2-core container), so a slow
/// stretch of the host cannot change how large the index grows. Split over
/// three set-up rounds, each round still has over 1000 queries (ten beyond
/// its p99).
pub const OPS_PER_SECOND: f64 = 1080.0;

/// The preloaded points (fixed) and the trace of `len` ops for one set-up
/// round (seeded by the run's seed and the round).
pub fn inputs(seed: u64, round: usize, len: usize) -> (Vec<(i64, i64)>, Vec<TraceOp>) {
    let preload = points2(Dist2::Uniform, PRELOAD, RANGE, 5);
    let trace_seed = seed.wrapping_mul(31).wrapping_add(7 + 1009 * round as u64);
    (preload, live_trace(TraceMix::default(), len, RANGE, SLOPE, trace_seed))
}

fn set_up(
    preload: &[(i64, i64)],
    work: &WorkDir,
    round: usize,
    tr: &mut Tracer,
) -> Result<(LiveIndex, [f64; 2]), String> {
    let t0 = Instant::now();
    let mut live =
        LiveIndex::new(DeviceConfig::new(PAGE, CACHE_PAGES), Default::default(), Some(DELTA_CAP));
    for (i, &(x, y)) in preload.iter().enumerate() {
        live.insert(x, y, PRELOAD_TAG + i as u64).map_err(|e| e.to_string())?;
    }
    let t1 = Instant::now();
    live.save_to_dir(work.path().join(format!("live{round}"))).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let root = tr.record("setup", t0, t2, None, round as u64);
    tr.record("setup.build", t0, t1, root, round as u64);
    tr.record("setup.persist", t1, t2, root, round as u64);
    Ok((live, [(t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64()]))
}

/// The host-side model every query is checked against.
fn model_below(model: &BTreeMap<u64, (i64, i64)>, m: i64, c: i64, inclusive: bool) -> Digest {
    let ids: Vec<u64> = model
        .iter()
        .filter(|(_, &(x, y))| {
            let rhs = m as i128 * x as i128 + c as i128;
            if inclusive {
                y as i128 <= rhs
            } else {
                (y as i128) < rhs
            }
        })
        .map(|(&t, _)| t)
        .collect();
    set_digest(&ids)
}

#[derive(Default)]
struct Pass {
    ops: usize,
    /// Time spent in operations and merge calls.
    busy_ns: u64,
    query_ns: Vec<f64>,
    write_ns: Vec<f64>,
    checkpoint_ns: Vec<f64>,
    merge_begin_ns: Vec<f64>,
    merge_commit_ns: Vec<f64>,
    queries: u64,
    query_reads: u64,
    mutations: u64,
    io: IoStats,
    failed: u64,
    mismatches: u64,
    merges: u64,
    parts_end: usize,
}

/// Replay the trace ops. With tracing on, every mutation is followed by an explicit, separately
/// timed `checkpoint` — the cost each mutation's own checkpoint pays.
fn closed_loop(
    live: &mut LiveIndex,
    preload: &[(i64, i64)],
    trace: &[TraceOp],
    tr: &mut Tracer,
) -> Pass {
    let mut model: BTreeMap<u64, (i64, i64)> =
        preload.iter().enumerate().map(|(i, &p)| (PRELOAD_TAG + i as u64, p)).collect();
    let mut pass = Pass::default();
    let io0 = live.device().stats();
    for (i, op) in trace.iter().enumerate() {
        let req = i as u64;
        if i % MERGE_EVERY == 0 {
            let span = tr.open("live.merge_begin", None, req);
            let t0 = Instant::now();
            live.begin_merge();
            let t1 = Instant::now();
            tr.close(span);
            pass.merge_begin_ns.push(ns(t0, t1) as f64);
            pass.busy_ns += ns(t0, t1);
        }
        if i % MERGE_EVERY == MERGE_COMMIT_AT {
            let span = tr.open("live.merge_commit", None, req);
            let t0 = Instant::now();
            let committed = live.commit_merge();
            let t1 = Instant::now();
            tr.close(span);
            pass.busy_ns += ns(t0, t1);
            match committed {
                Ok(true) => pass.merge_commit_ns.push(ns(t0, t1) as f64),
                Ok(false) => {}
                Err(e) => {
                    eprintln!("op {i}: merge commit failed: {e}");
                    pass.failed += 1;
                }
            }
        }
        match *op {
            TraceOp::Insert { x, y, tag } => {
                let span = tr.open("live.insert", None, req);
                let t0 = Instant::now();
                let r = live.insert(x, y, tag);
                let t1 = Instant::now();
                tr.close(span);
                pass.write_ns.push(ns(t0, t1) as f64);
                pass.busy_ns += ns(t0, t1);
                match r {
                    Ok(()) => {
                        model.insert(tag, (x, y));
                    }
                    Err(_) => pass.failed += 1,
                }
                pass.mutations += 1;
            }
            TraceOp::Delete { tag } => {
                let span = tr.open("live.remove", None, req);
                let t0 = Instant::now();
                let r = live.remove(tag);
                let t1 = Instant::now();
                tr.close(span);
                pass.write_ns.push(ns(t0, t1) as f64);
                pass.busy_ns += ns(t0, t1);
                match r {
                    Ok(hit) => {
                        pass.mismatches += u64::from(!hit);
                        model.remove(&tag);
                    }
                    Err(_) => pass.failed += 1,
                }
                pass.mutations += 1;
            }
            TraceOp::Query { m, c, inclusive } => {
                let before = live.device().stats();
                let span = tr.open("live.query", None, req);
                let t0 = Instant::now();
                let ids = live.query_below(m, c, inclusive);
                let t1 = Instant::now();
                tr.close(span);
                pass.query_reads += live.device().stats().reads - before.reads;
                pass.query_ns.push(ns(t0, t1) as f64);
                pass.busy_ns += ns(t0, t1);
                pass.queries += 1;
                if set_digest(&ids) != model_below(&model, m, c, inclusive) {
                    pass.mismatches += 1;
                }
            }
        }
        if tr.enabled() && !matches!(op, TraceOp::Query { .. }) {
            let span = tr.open("live.checkpoint", None, req);
            let t0 = Instant::now();
            let wrote = live.checkpoint();
            let t1 = Instant::now();
            tr.close(span);
            match wrote {
                Ok(true) => pass.checkpoint_ns.push(ns(t0, t1) as f64),
                Ok(false) => {}
                Err(_) => pass.failed += 1,
            }
        }
        pass.ops += 1;
    }
    if let Err(e) = live.commit_merge() {
        eprintln!("final merge commit failed: {e}");
        pass.failed += 1;
    }
    let io1 = live.device().stats();
    pass.io = IoStats {
        reads: io1.reads - io0.reads,
        writes: io1.writes - io0.writes,
        cache_hits: io1.cache_hits - io0.cache_hits,
    };
    pass.merges = live.merge_epoch();
    pass.parts_end = live.core().num_parts();
    pass
}

/// An untraced run: one trace segment per set-up round, each replayed on
/// the index that round set up, so the run samples the host at three
/// moments and reports the median segment (see `serve_mixed::untraced`).
fn untraced(
    args: &Args,
    work: &WorkDir,
    ops: usize,
    mut run_setup: RunSetup,
) -> Result<Outcome, String> {
    let mut off = Tracer::new(false);
    let (mut setup_secs, mut p50s, mut p99s, mut rates) = (vec![], vec![], vec![], vec![]);
    let (mut writes, mut samples) = (Vec::new(), Vec::new());
    let (mut done, mut failed, mut mismatches) = (0, 0, 0);
    for round in 0..SETUP_ROUNDS {
        let (preload, trace) = inputs(args.seed, round, ops / SETUP_ROUNDS);
        let (mut live, times) = set_up(&preload, work, round, &mut off)?;
        setup_secs.push(times.iter().sum::<f64>());
        let pass = closed_loop(&mut live, &preload, &trace, &mut off);
        let q = Summary::of(pass.query_ns.iter().map(|v| v / 1e6).collect());
        p50s.push(q.p50);
        p99s.push(q.p99);
        samples.push(q.n.to_string());
        rates.push(pass.ops as f64 / (pass.busy_ns as f64 / 1e9));
        writes.extend(pass.write_ns.iter().map(|v| v / 1e6));
        done += pass.ops;
        failed += pass.failed;
        mismatches += pass.mismatches;
    }
    let w = Summary::of(writes);
    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_secs), "s");
    m.put("qps", median(&rates), "1/s");
    m.put("p50_ms", median(&p50s), "ms");
    m.put("p99_ms", median(&p99s), "ms");
    run_setup.num("setup_rounds", SETUP_ROUNDS);
    run_setup.num("ops", done);
    run_setup.text("query_samples_per_segment", &samples.join(" "));
    run_setup.num("write_samples", w.n);
    Ok(Outcome {
        correct: mismatches == 0,
        attempted: done as u64,
        failed,
        metrics: m,
        setup: run_setup,
        detail: vec![
            ("write_p50_ms", w.p50, "ms"),
            ("write_p99_ms", w.p99, "ms"),
            ("failed_frac", ratio(failed as f64, done as f64), "ratio"),
            ("mismatches", mismatches as f64, "count"),
        ],
    })
}

pub fn run(args: &Args, work: &WorkDir, tr: &mut Tracer) -> Result<Outcome, String> {
    let ops = ((args.seconds * OPS_PER_SECOND) as usize).max(2 * SETUP_ROUNDS);
    let mut run_setup = RunSetup::default();
    run_setup.num("preload_points", PRELOAD);
    run_setup.num("delta_cap", DELTA_CAP);
    run_setup.num("cache_pages", CACHE_PAGES);
    run_setup.text("backend", "memory levels, fsync checkpoints");
    if !tr.enabled() {
        return untraced(args, work, ops, run_setup);
    }
    let (preload, trace) = inputs(args.seed, 0, ops / 2);
    let (mut live, times) = set_up(&preload, work, 0, tr)?;
    let mut m = Metrics::default();

    // Traced run: half the trace untraced, then a fresh index, set up the
    // same way, replays the same ops traced.
    let mut off = Tracer::new(false);
    let plain = closed_loop(&mut live, &preload, &trace, &mut off);
    drop(live);
    let (mut live, _) = set_up(&preload, work, 1, &mut off)?;
    let traced = closed_loop(&mut live, &preload, &trace, tr);
    // Every page touch and write must repeat exactly. Whether a touch hits
    // the shared 32-page cache can differ by a few: the background merge
    // worker reads through the same cache while the client runs.
    let touches = |io: &IoStats| io.reads + io.cache_hits;
    let same_pages =
        touches(&plain.io) == touches(&traced.io) && plain.io.writes == traced.io.writes;
    if !same_pages {
        eprintln!("tracing changed page counts: untraced {:?}, traced {:?}", plain.io, traced.io);
    }
    let w = Summary::of(plain.write_ns.iter().map(|v| v / 1e6).collect());
    let cp = Summary::of(traced.checkpoint_ns.iter().map(|v| v / 1e6).collect());

    m.put("setup.build_s", times[0], "s");
    m.put("setup.persist_s", times[1], "s");
    page_metrics(
        &mut m,
        lcrs_extmem::IoDelta {
            reads: traced.io.reads,
            writes: traced.io.writes,
            cache_hits: traced.io.cache_hits,
        },
        traced.queries as f64,
        traced.mutations as f64,
    );
    m.put("live.checkpoint_p50_ms", cp.p50, "ms");
    m.put("live.checkpoint_p99_ms", cp.p99, "ms");
    m.put("live.merge_begin_ms", median(&traced.merge_begin_ns) / 1e6, "ms");
    m.put("live.merge_commit_ms", median(&traced.merge_commit_ns) / 1e6, "ms");
    m.put("live.merges", traced.merges as f64, "count");
    m.put("live.parts_end", traced.parts_end as f64, "count");
    m.put("live.reads_per_query", ratio(traced.query_reads as f64, traced.queries as f64), "count");
    m.put("live.write_p50_ms", w.p50, "ms");
    m.put("live.write_p99_ms", w.p99, "ms");
    m.put("trace.overhead_frac", traced.busy_ns as f64 / plain.busy_ns as f64 - 1.0, "ratio");

    run_setup.num("traced_ops", traced.ops);
    run_setup.num("checkpoint_samples", cp.n);
    run_setup.num("untraced_page_reads", plain.io.reads);
    run_setup.num("traced_page_reads", traced.io.reads);
    run_setup.num("untraced_page_hits", plain.io.cache_hits);
    run_setup.num("traced_page_hits", traced.io.cache_hits);
    Ok(Outcome {
        correct: plain.mismatches + traced.mismatches == 0 && same_pages,
        attempted: (plain.ops + traced.ops) as u64,
        failed: plain.failed + traced.failed,
        metrics: m,
        setup: run_setup,
        detail: vec![],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        let (p, t) = inputs(3, 0, 500);
        let (p2, t2) = inputs(3, 0, 500);
        assert_eq!((p.clone(), t.clone()), (p2, t2));
        assert_ne!(t, inputs(4, 0, 500).1);
        assert_ne!(t, inputs(3, 1, 500).1, "each set-up round replays its own trace");
        assert_eq!(p, inputs(4, 0, 500).0, "the preload is a fixed fixture");
        // Trace tags never collide with preloaded ones.
        assert!(t.iter().all(|op| match *op {
            TraceOp::Insert { tag, .. } | TraceOp::Delete { tag } => tag < PRELOAD_TAG,
            TraceOp::Query { .. } => true,
        }));
    }
}
