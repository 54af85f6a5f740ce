//! `shard-batch`: one closed-loop client sending 64-query batches through
//! scatter-gather over eight geometric shards, each a full fifteen-slot
//! index set built in memory with a cache that holds its whole device.

use std::time::Instant;

use lcrs_bench::{brute_answer, full_index_set, mixed_oracle, mixed_probes};
use lcrs_engine::{PlanReport, Query, ShardConfig, ShardedIndexSet};
use lcrs_extmem::{DeviceConfig, IoDelta};
use lcrs_workloads::{halfplane_batch, BatchShape};

use crate::check::{answer_digest, Digest};
use crate::report::{Metrics, RunSetup};
use crate::stats::{median, ratio, Rng, Summary};
use crate::trace::Tracer;
use crate::{datasets, ns, page_metrics, Args, Outcome, StructTally, PAGE, SETUP_ROUNDS};

pub const SHARDS: usize = 8;
pub const BATCH: usize = 64;
/// Per-device cache: more pages than any shard device holds.
pub const SHARD_CACHE_PAGES: usize = 1 << 20;
/// Mixed-oracle legs (halfplane, halfspace, k-NN): 31 batches of 64.
const MIXED: (usize, usize, usize) = (1184, 480, 320);
/// Halfplane sweep: 12 batches of 64.
const SWEEP: usize = 768;
const SWEEP_SLOPE: i64 = 40;
const PROBE_SEED: u64 = 81;
/// Passes over the batch pool per second of `--seconds`: a run sends every
/// batch equally often (13 times in 10 s, about that long on a 2-core
/// container), whatever the host's speed.
const CYCLES_PER_SECOND: f64 = 1.3;

/// The run's query pool, already cut into batches: the mixed oracle's
/// interleave, then a sorted halfplane sweep. The generators' seeds
/// (`1000 + 8·seed` up to 6 more) never meet the probe seed or another
/// run's.
pub fn batches(pts2: &[(i64, i64)], pts3: &[(i64, i64, i64)], seed: u64) -> Vec<Vec<Query>> {
    let tseed = 1000 + 8 * seed;
    let mut pool = mixed_oracle(pts2, pts3, MIXED, tseed);
    pool.extend(
        halfplane_batch(pts2, BatchShape::SortedSweep, SWEEP, SWEEP_SLOPE, tseed + 6)
            .into_iter()
            .map(|(m, c)| Query::Halfplane { m, c, inclusive: false }),
    );
    pool.chunks(BATCH).map(<[Query]>::to_vec).collect()
}

/// The order the client sends batches in: every batch once per cycle, each
/// cycle a fresh seeded shuffle.
pub fn schedule(batches: usize, len: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x5a4d);
    let mut out = Vec::with_capacity(len);
    let mut cycle: Vec<usize> = (0..batches).collect();
    while out.len() < len {
        rng.shuffle(&mut cycle);
        out.extend_from_slice(&cycle[..(len - out.len()).min(batches)]);
    }
    out
}

fn set_up(
    pts2: &[(i64, i64)],
    pts3: &[(i64, i64, i64)],
    round: usize,
    tr: &mut Tracer,
) -> (ShardedIndexSet, [f64; 2]) {
    let t0 = Instant::now();
    let cfg = ShardConfig { shards: SHARDS, device: DeviceConfig::new(PAGE, SHARD_CACHE_PAGES) };
    let mut sharded = ShardedIndexSet::build(pts2, pts3, &cfg, full_index_set);
    let t1 = Instant::now();
    sharded.calibrate(&mixed_probes(pts2, pts3, PROBE_SEED));
    sharded.freeze();
    let t2 = Instant::now();
    let root = tr.record("setup", t0, t2, None, round as u64);
    tr.record("setup.build", t0, t1, root, round as u64);
    tr.record("setup.calibrate", t1, t2, root, round as u64);
    (sharded, [(t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64()])
}

#[derive(Default)]
struct Pass {
    walls_ns: Vec<u64>,
    queries: u64,
    io: IoDelta,
    per_shard_io: Vec<Vec<(usize, IoDelta)>>,
    fanout: u64,
    failed: u64,
    mismatches: u64,
}

/// Send the batches of `order` back to back.
fn closed_loop(
    sharded: &ShardedIndexSet,
    batches: &[Vec<Query>],
    expected: &[Vec<Digest>],
    order: &[usize],
    tr: &mut Tracer,
) -> Pass {
    let mut pass = Pass::default();
    for (k, &b) in order.iter().enumerate() {
        let queries = &batches[b];
        let span = tr.open("shard.batch", None, k as u64);
        let t0 = Instant::now();
        let rep = sharded.execute_parallel(queries, 1, true);
        let t1 = Instant::now();
        tr.close(span);
        pass.walls_ns.push(ns(t0, t1));

        let answers = rep.answers.as_ref().expect("answers kept");
        for (qi, q) in queries.iter().enumerate() {
            if answer_digest(q, &answers[qi]) != expected[b][qi] {
                pass.mismatches += 1;
            }
        }
        pass.failed += rep.unsupported() as u64;
        pass.queries += queries.len() as u64;
        pass.io += rep.total;
        pass.fanout += rep.fanout.iter().sum::<usize>() as u64;
        pass.per_shard_io.push(rep.per_shard.iter().map(|r| (r.shard, r.io)).collect());
    }
    pass
}

/// An untraced run: the batch order is cut into one segment per set-up
/// round, each sent to the system that round set up; `p50_ms` and `qps`
/// are the median segment's (see `serve_mixed::untraced`). A segment has
/// about 190 batches, too few for a p99, so `p99_ms` pools all segments.
fn untraced(
    (pts2, pts3): (&[(i64, i64)], &[(i64, i64, i64)]),
    batches: &[Vec<Query>],
    expected: &[Vec<Digest>],
    order: &[usize],
    mut run_setup: RunSetup,
) -> Result<Outcome, String> {
    let mut off = Tracer::new(false);
    let (mut setup_secs, mut p50s, mut rates, mut walls) = (vec![], vec![], vec![], vec![]);
    let (mut queries, mut failed, mut mismatches) = (0, 0, 0);
    for (round, part) in order.chunks(order.len().div_ceil(SETUP_ROUNDS)).enumerate() {
        let (sharded, times) = set_up(pts2, pts3, round, &mut off);
        setup_secs.push(times.iter().sum::<f64>());
        let pass = closed_loop(&sharded, batches, expected, part, &mut off);
        let ms: Vec<f64> = pass.walls_ns.iter().map(|&w| w as f64 / 1e6).collect();
        p50s.push(Summary::of(ms.clone()).p50);
        rates.push(pass.queries as f64 / (pass.walls_ns.iter().sum::<u64>() as f64 / 1e9));
        walls.extend(ms);
        queries += pass.queries;
        failed += pass.failed;
        mismatches += pass.mismatches;
    }
    let s = Summary::of(walls);
    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_secs), "s");
    m.put("qps", median(&rates), "1/s");
    m.put("p50_ms", median(&p50s), "ms");
    m.put("p99_ms", s.p99, "ms");
    run_setup.num("setup_rounds", SETUP_ROUNDS);
    run_setup.num("latency_samples", s.n);
    run_setup.num("p99_samples_beyond", crate::stats::beyond(s.n, 99.0));
    run_setup.num("tail_percentile", s.tail_p.unwrap_or(0.0));
    Ok(Outcome {
        correct: mismatches == 0,
        attempted: queries,
        failed,
        metrics: m,
        setup: run_setup,
        detail: vec![
            ("tail_ms", s.tail, "ms"),
            ("failed_frac", ratio(failed as f64, queries as f64), "ratio"),
            ("mismatches", mismatches as f64, "count"),
        ],
    })
}

/// One shard's share of a replayed batch, timed on its own thread.
struct ShardRun {
    shard: usize,
    sub: Vec<Query>,
    start: Instant,
    planned: Instant,
    end: Instant,
    plan: lcrs_engine::Plan,
    report: PlanReport,
}

pub fn run(
    args: &Args,
    _work: &crate::report::WorkDir,
    tr: &mut Tracer,
) -> Result<Outcome, String> {
    let (pts2, pts3) = datasets();
    let batches = batches(&pts2, &pts3, args.seed);
    let expected: Vec<Vec<Digest>> = batches
        .iter()
        .map(|b| b.iter().map(|q| answer_digest(q, &brute_answer(q, &pts2, &pts3))).collect())
        .collect();
    // A fixed amount of work per run: whole cycles over the batch pool.
    let cycles = ((args.seconds * CYCLES_PER_SECOND).round() as usize).max(2);
    let order = schedule(batches.len(), cycles * batches.len(), args.seed);

    let mut run_setup = RunSetup::default();
    run_setup.num("points2", pts2.len());
    run_setup.num("points3", pts3.len());
    run_setup.num("shards", SHARDS);
    run_setup.num("cache_pages", SHARD_CACHE_PAGES);
    run_setup.text("backend", "memory");
    run_setup.num("batch_queries", BATCH);
    run_setup.num("pool_batches", batches.len());
    if !tr.enabled() {
        return untraced((&pts2, &pts3), &batches, &expected, &order, run_setup);
    }
    let (sharded, times) = set_up(&pts2, &pts3, 0, tr);
    let mut m = Metrics::default();

    // Traced run: half the batches untraced, the same ones traced, and
    // each traced batch then replayed layer by layer: routing, one thread
    // per shard (plan + execute), and each structure group through the
    // batch executor.
    let half = &order[..cycles / 2 * batches.len()];
    let mut off = Tracer::new(false);
    let plain = closed_loop(&sharded, &batches, &expected, half, &mut off);
    let traced = closed_loop(&sharded, &batches, &expected, half, tr);
    let same_pages = plain.io == traced.io;
    if !same_pages {
        eprintln!("tracing changed page counts: untraced {:?}, traced {:?}", plain.io, traced.io);
    }

    let mut structs = StructTally::default();
    let (mut route_ns, mut plan_ns, mut exec_self_ns, mut groups, mut exec_calls) =
        (0u64, 0u64, 0i64, 0usize, 0usize);
    let (mut busy_max, mut busy_mean, mut gather) = (Vec::new(), Vec::new(), Vec::new());
    let mut capable = 0usize;
    let mut replay_ok = true;
    for (k, &b) in half.iter().enumerate() {
        let queries = &batches[b];
        let req = k as u64;
        let root = tr.open("replay.batch", None, req);
        let t0 = Instant::now();
        let routes: Vec<Vec<usize>> =
            queries.iter().map(|q| sharded.shards_intersecting(q)).collect();
        let t1 = Instant::now();
        tr.record("shard.route", t0, t1, root, req);
        route_ns += ns(t0, t1);
        let mut subs: Vec<Vec<Query>> = vec![Vec::new(); SHARDS];
        for (qi, route) in routes.iter().enumerate() {
            for &s in route {
                subs[s].push(queries[qi]);
            }
        }
        let runs: Vec<ShardRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = subs
                .iter()
                .enumerate()
                .filter(|(_, sub)| !sub.is_empty())
                .map(|(shard, sub)| {
                    let set = sharded.shard_set(shard);
                    scope.spawn(move || {
                        let start = Instant::now();
                        let plan = set.plan(sub);
                        let planned = Instant::now();
                        let report = set.execute_plan(sub, &plan, true);
                        let end = Instant::now();
                        ShardRun { shard, sub: sub.clone(), start, planned, end, plan, report }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("shard replay panicked")).collect()
        });
        let mut busy = Vec::new();
        for r in &runs {
            let shard_span = tr.record("shard.busy", r.start, r.end, root, req);
            tr.record("plan", r.start, r.planned, shard_span, req);
            tr.record("exec", r.planned, r.end, shard_span, req);
            busy.push(ns(r.start, r.end) as f64);
            plan_ns += ns(r.start, r.planned);
            groups += r.report.per_index.len();
            exec_calls += 1;
            let served = traced.per_shard_io[k].iter().find(|(s, _)| *s == r.shard);
            replay_ok &= served.map(|(_, io)| *io) == Some(r.report.total);
            let set = sharded.shard_set(r.shard);
            capable += r
                .sub
                .iter()
                .map(|q| (0..set.len()).filter(|&s| set.structure(s).supports(q)).count())
                .sum::<usize>();
            let mut struct_ns = 0;
            for g in &r.report.per_index {
                let sub: Vec<Query> = r
                    .sub
                    .iter()
                    .zip(&r.plan.assignments)
                    .filter(|(_, a)| **a == Some(g.slot))
                    .map(|(q, _)| *q)
                    .collect();
                let took = structs.replay(set.structure(g.slot), &sub, tr, root, req);
                replay_ok &= took.1 == g.io;
                struct_ns += took.0;
            }
            exec_self_ns += ns(r.planned, r.end) as i64 - struct_ns as i64;
        }
        tr.close(root);
        let slowest = busy.iter().copied().fold(0.0, f64::max);
        busy_max.push(slowest / 1e6);
        busy_mean.push(crate::stats::mean(&busy) / 1e6);
        gather.push((traced.walls_ns[k] as f64 - slowest) / 1e6);
    }
    if !replay_ok {
        eprintln!("a per-shard replay did not reproduce the served page counts");
    }
    let queries = traced.queries as f64;
    let sub_queries: f64 = traced.fanout as f64;
    let walls = |p: &Pass| p.walls_ns.iter().sum::<u64>() as f64;

    m.put("setup.build_s", times[0], "s");
    m.put("setup.calibrate_s", times[1], "s");
    m.put("plan.us_per_query", plan_ns as f64 / 1e3 / sub_queries, "us");
    m.put("plan.capable_slots_per_query", capable as f64 / sub_queries, "count");
    m.put("exec.self_us_per_query", exec_self_ns as f64 / 1e3 / sub_queries, "us");
    m.put("exec.groups_per_call", groups as f64 / exec_calls as f64, "count");
    structs.put(&mut m);
    page_metrics(&mut m, traced.io, queries, 0.0);
    m.put("shard.fanout_mean", sub_queries / queries, "count");
    m.put("shard.route_us_per_query", route_ns as f64 / 1e3 / queries, "us");
    m.put("shard.busy_max_ms", crate::stats::mean(&busy_max), "ms");
    m.put("shard.busy_mean_ms", crate::stats::mean(&busy_mean), "ms");
    m.put("shard.gather_ms_per_batch", crate::stats::mean(&gather), "ms");
    m.put("trace.overhead_frac", walls(&traced) / walls(&plain) - 1.0, "ratio");

    run_setup.num("traced_batches", half.len());
    run_setup.num("untraced_page_reads", plain.io.reads);
    run_setup.num("traced_page_reads", traced.io.reads);
    run_setup.num("untraced_page_hits", plain.io.cache_hits);
    run_setup.num("traced_page_hits", traced.io.cache_hits);
    Ok(Outcome {
        correct: plain.mismatches + traced.mismatches == 0 && same_pages && replay_ok,
        attempted: plain.queries + traced.queries,
        failed: plain.failed + traced.failed,
        metrics: m,
        setup: run_setup,
        detail: vec![],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrs_workloads::{points2, points3, Dist2, Dist3};

    #[test]
    fn generators_are_deterministic_per_seed() {
        let pts2 = points2(Dist2::Clustered, 400, 1000, 61);
        let pts3 = points3(Dist3::Uniform, 300, 1 << 16, 62);
        let a = batches(&pts2, &pts3, 7);
        assert_eq!(a, batches(&pts2, &pts3, 7));
        assert_ne!(a, batches(&pts2, &pts3, 8));
        assert!(a.iter().all(|b| b.len() == BATCH));
        assert_eq!(a.len(), (MIXED.0 + MIXED.1 + MIXED.2 + SWEEP) / BATCH);

        let s = schedule(43, 100, 3);
        assert_eq!(s, schedule(43, 100, 3));
        assert_ne!(s, schedule(43, 100, 4));
        // Every batch is sent once per cycle.
        let mut first: Vec<usize> = s[..43].to_vec();
        first.sort_unstable();
        assert_eq!(first, (0..43).collect::<Vec<_>>());
    }
}
