//! `serve-mixed`: an open loop of six-class traffic through the windowed
//! query server, over a calibrated fifteen-slot index set reopened from a
//! snapshot catalog (pread, 32-page cache per structure).

use std::time::{Duration, Instant};

use lcrs_bench::{brute_answer, full_index_set, lifted_oracle, lifted_probes};
use lcrs_engine::{
    Arrival, IndexSet, Query, QueryServer, ServeConfig, ServeStatus, SnapshotCatalog, WindowPolicy,
};
use lcrs_extmem::{Device, DeviceConfig, IoDelta};

use crate::check::{answer_digest, Digest};
use crate::report::{Metrics, RunSetup, WorkDir};
use crate::stats::{
    backlog_at_last_due, due_batch_end, median, open_loop_latencies, open_loop_waits, ratio, Call,
    Rng, Summary,
};
use crate::trace::Tracer;
use crate::{datasets, ns, page_metrics, Args, Outcome, StructTally, PAGE, SETUP_ROUNDS};

/// Per-structure page cache of the reopened set: far smaller than the data.
pub const CACHE_PAGES: usize = 32;
const TENANTS: usize = 4;
/// The query pool: the exp_planner six-class mix, scaled to 3000 queries so
/// a 10 s run at 300 arrivals/s asks each pool query exactly once.
const POOL: (usize, usize, usize, usize, usize, usize) = (1080, 480, 360, 432, 432, 216);
/// The pool is a fixed fixture like the datasets: its service times are
/// multimodal (kd-tree, dynamic, hybrid and scan routes differ tenfold),
/// so a per-seed pool moved the median by up to 60% between seeds.
const POOL_SEED: u64 = 71;
/// Calibration probes use a seed no traffic seed reaches.
const PROBE_SEED: u64 = 81;

/// One arrival of the open loop: due time (ns after the phase starts),
/// the pool query it asks, and its tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Due {
    pub due_ns: u64,
    pub query: usize,
    pub tenant: u32,
}

/// The seeded arrival process: one arrival every `1/rate` seconds for
/// `seconds`, for one of four tenants each, asking the pool's queries in a
/// seeded order (every query once per pass over the pool). A fixed rate,
/// not Poisson: with Poisson bursts the p99 measured which bursts a seed
/// drew (its spread over ten seeds was 25%), not the server.
pub fn arrivals(pool_len: usize, rate: f64, seconds: f64, seed: u64) -> Vec<Due> {
    let mut rng = Rng::new(seed ^ 0x0a77_10a1);
    let n = (rate * seconds).round().max(1.0) as usize;
    let gap_ns = 1e9 / rate;
    let mut order: Vec<usize> = (0..pool_len).collect();
    (0..n)
        .map(|i| {
            if i % pool_len == 0 {
                rng.shuffle(&mut order);
            }
            let due_ns = ((i + 1) as f64 * gap_ns) as u64;
            Due { due_ns, query: order[i % pool_len], tenant: rng.below(TENANTS) as u32 }
        })
        .collect()
}

pub fn pool(pts2: &[(i64, i64)], pts3: &[(i64, i64, i64)]) -> Vec<Query> {
    lifted_oracle(pts2, pts3, POOL, POOL_SEED)
}

struct Setup {
    server: QueryServer,
    times: [f64; 4],
}

/// Build, calibrate, persist and reopen: the system is then ready to serve.
fn set_up(
    pts2: &[(i64, i64)],
    pts3: &[(i64, i64, i64)],
    work: &WorkDir,
    round: usize,
    tr: &mut Tracer,
) -> Result<Setup, String> {
    let dir = work.path().join(format!("catalog{round}"));
    let t0 = Instant::now();
    let dev2 = Device::new(DeviceConfig::new(PAGE, CACHE_PAGES));
    let dev3 = Device::new(DeviceConfig::new(PAGE, CACHE_PAGES));
    let mut set = full_index_set(&dev2, &dev3, pts2, pts3);
    let t1 = Instant::now();
    set.calibrate(&lifted_probes(pts2, pts3, PROBE_SEED));
    let t2 = Instant::now();
    dev2.freeze();
    dev3.freeze();
    let mut cat = SnapshotCatalog::create(&dir).map_err(|e| e.to_string())?;
    for slot in 0..set.len() {
        cat.add(&format!("s{slot}"), set.structure(slot)).map_err(|e| e.to_string())?;
    }
    set.save_calibration_to_catalog(&cat).map_err(|e| e.to_string())?;
    drop((set, dev2, dev3, cat));
    let t3 = Instant::now();
    let cat = SnapshotCatalog::open(&dir).map_err(|e| e.to_string())?;
    let set = IndexSet::from_catalog(&cat, CACHE_PAGES).map_err(|e| e.to_string())?;
    let server = QueryServer::new(set, ServeConfig { policy: WindowPolicy::default(), workers: 1 });
    let t4 = Instant::now();
    let root = tr.record("setup", t0, t4, None, round as u64);
    for (name, a, b) in [
        ("setup.build", t0, t1),
        ("setup.calibrate", t1, t2),
        ("setup.persist", t2, t3),
        ("setup.reopen", t3, t4),
    ] {
        tr.record(name, a, b, root, round as u64);
    }
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Ok(Setup { server, times: [secs(t0, t1), secs(t1, t2), secs(t2, t3), secs(t3, t4)] })
}

/// What one pass over an arrival schedule observed.
#[derive(Default)]
struct Pass {
    calls: Vec<Call>,
    /// Per executed window: its measured execution wall and the pool
    /// indices it answered, in window order.
    window_walls: Vec<u64>,
    window_io: Vec<IoDelta>,
    window_members: Vec<Vec<usize>>,
    io: IoDelta,
    failed: u64,
    mismatches: u64,
}

/// Sleep until shortly before `t`, then spin: a client woken late would
/// count its lateness as latency, one spinning all the time would burn the
/// CPU the server needs.
fn wait_until(t: Instant) {
    let now = Instant::now();
    if t > now + SPIN {
        std::thread::sleep(t - now - SPIN);
    }
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

const SPIN: Duration = Duration::from_millis(1);

/// An untraced run: the arrivals are cut into one segment per set-up
/// round, and each round sets the system up and then serves its segment.
/// The run thus samples the host at three moments about 20 s apart, and
/// reports the median segment: host noise here drifts over seconds to
/// tens of seconds, more than a 10 s window can average out.
fn untraced(
    args: &Args,
    work: &WorkDir,
    (pts2, pts3): (&[(i64, i64)], &[(i64, i64, i64)]),
    pool: &[Query],
    expected: &[Digest],
    mut run_setup: RunSetup,
) -> Result<Outcome, String> {
    let due = arrivals(pool.len(), args.rate, args.seconds, args.seed);
    let mut off = Tracer::new(false);
    let (mut setup_secs, mut p50s, mut p99s, mut samples) = (vec![], vec![], vec![], vec![]);
    let (mut span_ns, mut calls, mut backlog, mut failed, mut mismatches) = (0, 0, 0, 0, 0);
    for (round, part) in due.chunks(due.len().div_ceil(SETUP_ROUNDS)).enumerate() {
        if round > 0 {
            // The previous round's system is gone; drop its 2 GB catalog.
            let _ = std::fs::remove_dir_all(work.path().join(format!("catalog{}", round - 1)));
        }
        let Setup { mut server, times } = set_up(pts2, pts3, work, round, &mut off)?;
        setup_secs.push(times.iter().sum::<f64>());
        let base = part[0].due_ns;
        let part: Vec<Due> = part.iter().map(|d| Due { due_ns: d.due_ns - base, ..*d }).collect();
        let pass = serve_pass(&mut server, &part, pool, expected, None, &mut off);
        let due_ns: Vec<u64> = part.iter().map(|d| d.due_ns).collect();
        let lat = open_loop_latencies(&due_ns, &pass.calls);
        let s = Summary::of(lat.iter().map(|&l| l as f64 / 1e6).collect());
        p50s.push(s.p50);
        p99s.push(s.p99);
        samples.push(s.n.to_string());
        span_ns += pass.calls.last().expect("at least one call").return_ns;
        calls += pass.calls.len();
        backlog = backlog.max(backlog_at_last_due(&due_ns, &lat));
        failed += pass.failed;
        mismatches += pass.mismatches;
    }
    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_secs), "s");
    m.put("qps", due.len() as f64 / (span_ns as f64 / 1e9), "1/s");
    m.put("p50_ms", median(&p50s), "ms");
    m.put("p99_ms", median(&p99s), "ms");
    run_setup.num("setup_rounds", SETUP_ROUNDS);
    run_setup.text("latency_samples_per_segment", &samples.join(" "));
    run_setup.num("calls", calls);
    run_setup.num("backlog_end", backlog);
    let fmt = |v: &[f64]| v.iter().map(|x| format!("{x:.3}")).collect::<Vec<_>>().join(" ");
    run_setup.text("segment_p50_ms", &fmt(&p50s));
    run_setup.text("segment_p99_ms", &fmt(&p99s));
    Ok(Outcome {
        correct: mismatches == 0,
        attempted: due.len() as u64,
        failed,
        metrics: m,
        setup: run_setup,
        detail: vec![
            ("failed_frac", ratio(failed as f64, due.len() as f64), "ratio"),
            ("mismatches", mismatches as f64, "count"),
        ],
    })
}

/// Drive the open loop: at each call the client hands the server every
/// arrival due by then (or, replaying, exactly the arrivals a previous
/// pass handed over together, as soon as the last of them is due).
fn serve_pass(
    server: &mut QueryServer,
    due: &[Due],
    pool: &[Query],
    expected: &[Digest],
    replay: Option<&[Call]>,
    tr: &mut Tracer,
) -> Pass {
    let due_ns: Vec<u64> = due.iter().map(|d| d.due_ns).collect();
    let mut pass = Pass::default();
    let mut batch: Vec<Arrival> = Vec::new();
    let start = Instant::now() + Duration::from_millis(2);
    let mut i = 0;
    while i < due.len() {
        let planned = replay.map(|calls| calls[pass.calls.len()].end);
        wait_until(start + Duration::from_nanos(due_ns[planned.map_or(i, |e| e - 1)]));
        let call_start = Instant::now();
        let end = planned.unwrap_or_else(|| due_batch_end(&due_ns, i, ns(start, call_start)));
        batch.clear();
        batch.extend(due[i..end].iter().map(|d| Arrival {
            at_ns: d.due_ns,
            tenant: d.tenant,
            query: pool[d.query],
        }));
        let span = tr.open("serve.call", None, i as u64);
        let rep = server.run_trace(&batch, true);
        tr.close(span);
        let returned = Instant::now();
        pass.calls.push(Call {
            first: i,
            end,
            start_ns: ns(start, call_start),
            return_ns: ns(start, returned),
        });

        // Outside the call: check every answer, tally failures.
        let answers = rep.answers.as_ref().expect("answers kept");
        for (j, o) in rep.outcomes.iter().enumerate() {
            let d = &due[i + j];
            match o.status {
                ServeStatus::Ok => {
                    if answer_digest(&pool[d.query], &answers[j]) != expected[d.query] {
                        pass.mismatches += 1;
                    }
                }
                ServeStatus::Unsupported | ServeStatus::Rejected(_) => pass.failed += 1,
            }
        }
        let first_window = rep.windows.first().map_or(0, |w| w.seq);
        for w in &rep.windows {
            pass.window_walls.push(w.wall_ns);
            pass.window_io.push(w.io);
            pass.window_members.push(Vec::new());
        }
        let base = pass.window_members.len() - rep.windows.len();
        for (j, o) in rep.outcomes.iter().enumerate() {
            if let Some(seq) = o.window {
                pass.window_members[base + (seq - first_window) as usize].push(due[i + j].query);
            }
        }
        pass.io += rep.total;
        i = end;
    }
    pass
}

pub fn run(args: &Args, work: &WorkDir, tr: &mut Tracer) -> Result<Outcome, String> {
    let (pts2, pts3) = datasets();
    let pool = pool(&pts2, &pts3);
    let expected: Vec<Digest> =
        pool.iter().map(|q| answer_digest(q, &brute_answer(q, &pts2, &pts3))).collect();
    let mut run_setup = RunSetup::default();
    run_setup.num("points2", pts2.len());
    run_setup.num("points3", pts3.len());
    run_setup.num("cache_pages", CACHE_PAGES);
    run_setup.text("backend", "pread");
    run_setup.num("offered_rate", args.rate);
    run_setup.num("tenants", TENANTS);
    run_setup.num("pool_queries", pool.len());
    if !tr.enabled() {
        return untraced(args, work, (&pts2, &pts3), &pool, &expected, run_setup);
    }
    let Setup { mut server, times } = set_up(&pts2, &pts3, work, 0, tr)?;
    let mut m = Metrics::default();

    // Traced run: an untraced pass fixes the call composition, a traced
    // pass replays it, and the layers below the server are replayed per
    // window afterwards.
    let due = arrivals(pool.len(), args.rate, args.seconds / 2.0, args.seed);
    let due_ns: Vec<u64> = due.iter().map(|d| d.due_ns).collect();
    let mut off = Tracer::new(false);
    let plain = serve_pass(&mut server, &due, &pool, &expected, None, &mut off);
    let traced = serve_pass(&mut server, &due, &pool, &expected, Some(&plain.calls), tr);
    let same_pages = plain.io == traced.io;
    if !same_pages {
        eprintln!("tracing changed page counts: untraced {:?}, traced {:?}", plain.io, traced.io);
    }
    let call_ns = |p: &Pass| p.calls.iter().map(|c| c.return_ns - c.start_ns).sum::<u64>() as f64;

    let set = server.index_set();
    let mut structs = StructTally::default();
    let (mut plan_ns, mut exec_self_ns, mut groups, mut capable) = (0u64, 0i64, 0usize, 0usize);
    let mut replay_ok = true;
    for (w, members) in traced.window_members.iter().enumerate() {
        let queries: Vec<Query> = members.iter().map(|&p| pool[p]).collect();
        capable += queries
            .iter()
            .map(|q| (0..set.len()).filter(|&s| set.structure(s).supports(q)).count())
            .sum::<usize>();
        let root = tr.open("replay.window", None, w as u64);
        let t0 = Instant::now();
        let plan = set.plan(&queries);
        let t1 = Instant::now();
        let rep = set.execute_plan(&queries, &plan, true);
        let t2 = Instant::now();
        tr.record("plan", t0, t1, root, w as u64);
        tr.record("exec", t1, t2, root, w as u64);
        replay_ok &= rep.total == traced.window_io[w];
        plan_ns += ns(t0, t1);
        groups += rep.per_index.len();
        let mut struct_ns = 0;
        for r in &rep.per_index {
            let sub: Vec<Query> = queries
                .iter()
                .zip(&plan.assignments)
                .filter(|(_, a)| **a == Some(r.slot))
                .map(|(q, _)| *q)
                .collect();
            let took = structs.replay(set.structure(r.slot), &sub, tr, root, w as u64);
            replay_ok &= took.1 == r.io;
            struct_ns += took.0;
        }
        tr.close(root);
        exec_self_ns += ns(t1, t2) as i64 - struct_ns as i64;
    }
    if !replay_ok {
        eprintln!("a per-window replay did not reproduce the served page counts");
    }
    let queries = due.len() as f64;
    let windows = traced.window_walls.len() as f64;
    let waits = open_loop_waits(&due_ns, &traced.calls);
    let lat = open_loop_latencies(&due_ns, &traced.calls);
    let wait = Summary::of(waits.iter().map(|&w| w as f64 / 1e6).collect());
    let exec = Summary::of(traced.window_walls.iter().map(|&w| w as f64 / 1e6).collect());
    let serve_self_ns =
        call_ns(&traced) - traced.window_walls.iter().sum::<u64>() as f64 - plan_ns as f64;

    m.put("setup.build_s", times[0], "s");
    m.put("setup.calibrate_s", times[1], "s");
    m.put("setup.persist_s", times[2], "s");
    m.put("setup.reopen_s", times[3], "s");
    m.put("serve.windows", windows, "count");
    m.put("serve.queries_per_window", queries / windows, "count");
    m.put("serve.wait_p50_ms", wait.p50, "ms");
    m.put("serve.wait_p99_ms", wait.p99, "ms");
    m.put("serve.window_exec_p50_ms", exec.p50, "ms");
    m.put("serve.window_exec_p99_ms", exec.p99, "ms");
    m.put("serve.self_us_per_call", serve_self_ns / 1e3 / traced.calls.len() as f64, "us");
    m.put("serve.backlog_end", backlog_at_last_due(&due_ns, &lat) as f64, "count");
    m.put("plan.us_per_query", plan_ns as f64 / 1e3 / queries, "us");
    m.put("plan.capable_slots_per_query", capable as f64 / queries, "count");
    m.put("exec.self_us_per_query", exec_self_ns as f64 / 1e3 / queries, "us");
    m.put("exec.groups_per_call", groups as f64 / windows, "count");
    structs.put(&mut m);
    page_metrics(&mut m, traced.io, queries, 0.0);
    m.put("trace.overhead_frac", call_ns(&traced) / call_ns(&plain) - 1.0, "ratio");

    run_setup.num("traced_arrivals", due.len());
    run_setup.num("traced_calls", traced.calls.len());
    run_setup.num("wait_samples", wait.n);
    run_setup.num("window_samples", exec.n);
    run_setup.num("untraced_page_reads", plain.io.reads);
    run_setup.num("traced_page_reads", traced.io.reads);
    run_setup.num("untraced_page_hits", plain.io.cache_hits);
    run_setup.num("traced_page_hits", traced.io.cache_hits);
    Ok(Outcome {
        correct: plain.mismatches + traced.mismatches == 0 && same_pages && replay_ok,
        attempted: 2 * due.len() as u64,
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
        let a = arrivals(2000, 600.0, 2.0, 5);
        assert_eq!(a, arrivals(2000, 600.0, 2.0, 5));
        assert_ne!(a, arrivals(2000, 600.0, 2.0, 6));
        assert_eq!(a.len(), 1200);
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.iter().all(|d| d.query < 2000 && d.tenant < TENANTS as u32));
        // About `rate` arrivals per second.
        let span_s = a.last().unwrap().due_ns as f64 / 1e9;
        assert!((span_s - 2.0).abs() < 0.2, "arrivals span {span_s} s");

        // Each pass over the pool asks every query once, in a new order.
        let a = arrivals(1000, 600.0, 2.0, 5);
        for pass in a.chunks(1000) {
            let mut asked: Vec<usize> = pass.iter().map(|d| d.query).collect();
            asked.sort_unstable();
            asked.dedup();
            assert_eq!(asked.len(), pass.len());
        }
        assert_ne!(
            a[..200].iter().map(|d| d.query).collect::<Vec<_>>(),
            (0..200).collect::<Vec<_>>()
        );
        let pts2 = points2(Dist2::Clustered, 300, 1000, 61);
        let pts3 = points3(Dist3::Uniform, 200, 1 << 16, 62);
        assert_eq!(pool(&pts2, &pts3), pool(&pts2, &pts3));
    }
}
