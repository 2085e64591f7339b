//! Per-layer metrics of a traced run, each measured from outside the
//! fleet in one of three ways: timing the driver's calls into a
//! layer's public functions (as spans), reading `/proc`, or taking
//! deltas of the router's and replicas' own `stats` counters across
//! the traced pass.

use crate::fleet::{num, Conn, Fleet, FleetSample};
use crate::mix::{mix64, Mix, Req, Workload, COLD_MIX};
use crate::span::{Span, Tracer};
use crate::stats::{median, quantile, ratio, sorted};
use crate::{judge, Args, Oracle, Phases};
use gt_analysis::Json;
use gt_serve::executor::{CostClass, Scheduler};
use gt_serve::workload::{self, AlgoSpec, EvalOutcome};
use gt_serve::{Request, Response, ShardedCache};
use gt_tree::split::{node_mode, split_children, sub_evaluate, Aggregator};
use gt_tree::{GenSpec, SubtreeSpec, Value};
use std::hint::black_box;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// Residual share above which the layer sum is flagged (the ROADMAP's
/// target for a ledger that explains end-to-end latency).
const LEDGER_FLAG_PCT: f64 = 15.0;
/// The work-stealing width whose search overhead is reported.
const PAR_K: u32 = 2;

pub struct LayerReport {
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

/// Δ of a numeric stats field between two samples.
fn delta(before: &Json, after: &Json, path: &[&str]) -> f64 {
    num(after, path) - num(before, path)
}

/// Σ over replicas of Δ `path`.
fn replica_delta(pass: &Phases, path: &[&str]) -> f64 {
    pass.before
        .replicas
        .iter()
        .zip(&pass.after.replicas)
        .map(|(b, a)| delta(b, a, path))
        .sum()
}

/// Σ over replicas and I/O loops of Δ `io_loops[*].<field>`.
fn io_loop_delta(pass: &Phases, field: &str) -> f64 {
    let sum = |s: &FleetSample| -> f64 {
        s.replicas
            .iter()
            .filter_map(|r| r.get("io_loops")?.as_array())
            .flatten()
            .map(|l| num(l, &[field]))
            .sum()
    };
    sum(&pass.after) - sum(&pass.before)
}

/// Queue wait from the replicas' per-algorithm stage histograms
/// (cumulative, power-of-two buckets): the count-weighted median of
/// the per-algorithm p50s and the largest per-algorithm p99.
fn queue_wait(sample: &FleetSample) -> (f64, f64) {
    let mut p50s: Vec<(f64, f64)> = Vec::new();
    let mut p99 = 0.0f64;
    for r in &sample.replicas {
        let Some(Json::Object(stages)) = r.get("stages") else {
            continue;
        };
        for (_, st) in stages {
            let count = num(st, &["queue_wait", "count"]);
            if count > 0.0 {
                p50s.push((num(st, &["queue_wait", "p50_us"]), count));
                p99 = p99.max(num(st, &["queue_wait", "p99_us"]));
            }
        }
    }
    p50s.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = p50s.iter().map(|p| p.1).sum();
    let mut acc = 0.0;
    let p50 = p50s
        .iter()
        .find(|(_, c)| {
            acc += c;
            acc >= total / 2.0
        })
        .map_or(0.0, |p| p.0);
    (p50, p99)
}

/// Nanoseconds one `Instant::now()` pair costs, subtracted from
/// per-call timings.
fn clock_pair_ns() -> f64 {
    let n = 20_000;
    let t = Instant::now();
    for _ in 0..n {
        black_box(Instant::now());
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

fn evaluate(req: &Req, grant: u32) -> Result<(EvalOutcome, f64), String> {
    let spec = GenSpec::parse(&req.spec)?;
    let algo = AlgoSpec::parse(req.algo)?;
    let t = Instant::now();
    let out = workload::evaluate_with_grant(&spec, &algo, &AtomicBool::new(false), grant)
        .map_err(|e| format!("evaluate {req:?}: {e:?}"))?;
    Ok((out, t.elapsed().as_nanos() as f64 / 1e3))
}

/// `n` fresh requests of the workload's stream, past every id the load
/// phases used.
fn fresh(mix: &Mix, from: u64, n: u64) -> Vec<Req> {
    (from..from + n).map(|i| mix.request(i)).collect()
}

/// Alternate `a` and `b` round trips `n` times each; p50 of each, µs.
fn paired_p50(
    tr: &mut Tracer,
    epoch: Instant,
    a: (&'static str, &mut Conn, &str),
    b: (&'static str, &mut Conn, &str),
    n: usize,
) -> Result<(f64, f64), String> {
    let (na, ca, la) = a;
    let (nb, cb, lb) = b;
    for _ in 0..n {
        tr.probe(na, 0, epoch, || ca.call_raw(la).map(|_| ())).0?;
        tr.probe(nb, 0, epoch, || cb.call_raw(lb).map(|_| ())).0?;
    }
    Ok((median(&tr.durations_us(na)), median(&tr.durations_us(nb))))
}

pub fn measure(
    args: &Args,
    nproc: usize,
    fleet: &Fleet,
    mix: &Mix,
    untraced: &Phases,
    traced: &Phases,
    oracle: &Oracle,
) -> Result<LayerReport, String> {
    let workload = mix.workload;
    let epoch = traced.latency_phase().epoch;
    let mut tr = Tracer::new(true);
    for ph in traced.all() {
        let shift = ph.epoch.saturating_duration_since(epoch).as_nanos() as u64;
        tr.spans.extend(ph.spans.iter().map(|s| Span {
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            ..*s
        }));
    }
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut lines = Vec::new();
    let mut next_id = traced.next_id + 1_000_000;

    // --- client / transport floor -----------------------------------
    let ping = "{\"op\":\"ping\"}\n";
    let mut rep = Conn::open(&fleet.replicas[0].addr)?;
    let mut rtr = Conn::open(&fleet.router.addr)?;
    let (ping_router, ping_replica) = paired_p50(
        &mut tr,
        epoch,
        ("ping.router", &mut rtr, ping),
        ("ping.replica", &mut rep, ping),
        2000,
    )?;
    let gen_late_p99 = match &traced.open {
        Some(open) => quantile(
            &sorted(
                open.sent
                    .iter()
                    .map(|s| s.sent_ns.saturating_sub(s.due_ns) as f64 / 1e3)
                    .collect(),
            ),
            0.99,
        ),
        None => 0.0,
    };
    m.push(("client.ping_replica_p50_us".into(), ping_replica, "us"));
    m.push(("client.ping_router_p50_us".into(), ping_router, "us"));
    m.push(("client.gen_late_p99_us".into(), gen_late_p99, "us"));

    // --- router hop: one warm key, routed minus direct ---------------
    let key = match workload {
        Workload::HotCached => mix.keyspace()[0].clone(),
        _ => {
            next_id += 1;
            mix.request(next_id)
        }
    };
    let key_line = key.line(next_id);
    rtr.call_raw(&key_line)?;
    rep.call_raw(&key_line)?;
    let hop_n = if workload == Workload::SplitLarge {
        300
    } else {
        1000
    };
    let (routed, direct) = paired_p50(
        &mut tr,
        epoch,
        ("eval.routed", &mut rtr, &key_line),
        ("eval.direct", &mut rep, &key_line),
        hop_n,
    )?;
    let hop = routed - direct;
    let rb = &traced.before.router;
    let ra = &traced.after.router;
    let routed_reqs = delta(rb, ra, &["requests"]);
    let router_cpu = traced.after.procs[0].cpu_us - traced.before.procs[0].cpu_us;
    m.push(("router.hop_p50_us".into(), hop, "us"));
    m.push((
        "router.route_p50_us".into(),
        num(ra, &["route_latency", "p50_us"]),
        "us",
    ));
    m.push((
        "router.cpu_us_per_req".into(),
        ratio(router_cpu, routed_reqs),
        "us",
    ));
    m.push((
        "router.threads".into(),
        traced.after.procs[0].threads as f64,
        "count",
    ));
    m.push((
        "router.rss_mb".into(),
        traced.after.procs[0].hwm_kb as f64 / 1024.0,
        "MB",
    ));
    m.push((
        "router.retries_per_kreq".into(),
        ratio(delta(rb, ra, &["retries"]) * 1000.0, routed_reqs),
        "1/kreq",
    ));

    // --- split -------------------------------------------------------
    m.push((
        "split.subevals_per_eval".into(),
        ratio(delta(rb, ra, &["subevals_dispatched"]), routed_reqs),
        "count",
    ));
    m.push((
        "split.skipped_per_eval".into(),
        ratio(delta(rb, ra, &["subevals_skipped_on_cutoff"]), routed_reqs),
        "count",
    ));
    m.push((
        "split.discarded_per_eval".into(),
        ratio(
            delta(rb, ra, &["subevals_discarded_on_cutoff"]),
            routed_reqs,
        ),
        "count",
    ));
    // Fleet leaves (each reply's `work.leaves`, summed over its
    // sub-evaluations when split) over one replica's leaves for the
    // same spec and algorithm, on the first correct replies.
    let ratio_n = if workload == Workload::SplitLarge {
        60
    } else {
        200
    };
    let mut ids: Vec<u64> = traced.closed.got.keys().copied().collect();
    ids.sort_unstable();
    let (mut fleet_leaves, mut one_leaves) = (0.0, 0.0);
    for id in ids.into_iter().take(ratio_n) {
        let g = traced.closed.got[&id];
        let req = mix.request(id);
        if g.reply.ok && g.reply.value == Some(oracle.value(&req)) {
            fleet_leaves += g.reply.leaves.unwrap_or(0) as f64;
            one_leaves += evaluate(&req, 1)?.0.work as f64;
        }
    }
    m.push((
        "split.leaves_ratio".into(),
        ratio(fleet_leaves, one_leaves),
        "ratio",
    ));
    let plan_n = if workload == Workload::SplitLarge {
        40
    } else {
        200
    };
    let mut plan_us = Vec::new();
    for req in fresh(mix, next_id, plan_n) {
        let spec = GenSpec::parse(&req.spec)?;
        let whole = SubtreeSpec::whole(spec.clone());
        let source = spec.build()?;
        let values: Vec<Value> = split_children(&source, &whole)
            .iter()
            .map(|c| sub_evaluate(c).map(|s| s.value))
            .collect::<Result<_, _>>()?;
        tr.probe("split.plan", 0, epoch, || {
            let children = split_children(&source, &whole);
            let mut agg = Aggregator::new(
                node_mode(&spec, 0),
                children.len() as u32,
                whole.alpha,
                whole.beta,
            );
            for v in &values {
                if agg.absorb(black_box(*v)) {
                    break;
                }
            }
            black_box(agg.value())
        });
        plan_us.push(tr.spans.last().map_or(0.0, |s| s.dur_ns() as f64 / 1e3));
    }
    next_id += plan_n;
    m.push(("split.plan_us".into(), median(&plan_us), "us"));

    // --- replica: direct evals minus the in-driver engine run --------
    // hot_cached keys are sent once untimed first, so the timed call
    // takes the cached path its real traffic takes.
    let sample_n = match workload {
        Workload::HotCached => 500,
        Workload::ColdMixed => 300,
        Workload::SplitLarge => 40,
    };
    let mut overhead = Vec::new();
    let mut engine_term = Vec::new();
    for (k, req) in fresh(mix, next_id, sample_n).into_iter().enumerate() {
        let line = req.line(next_id + k as u64);
        if workload == Workload::HotCached {
            rep.call_raw(&line)?;
        }
        let (reply, parent) = tr.probe("eval.direct_sample", 0, epoch, || {
            rep.call_raw(&line).map(|l| l.to_string())
        });
        let direct_us = tr.spans.last().map_or(0.0, |s| s.dur_ns() as f64 / 1e3);
        let cached = Response::parse(&reply?)?.cached();
        let engine_us = if cached {
            0.0
        } else {
            let (res, _) = tr.probe("engine.evaluate", parent, epoch, || evaluate(&req, 1));
            res?.1
        };
        overhead.push(direct_us - engine_us);
        engine_term.push(engine_us);
    }
    let replica_overhead = median(&overhead) - ping_replica;
    let replicas_cpu: f64 = traced.after.procs[1..]
        .iter()
        .map(|p| p.cpu_us)
        .sum::<f64>()
        - traced.before.procs[1..]
            .iter()
            .map(|p| p.cpu_us)
            .sum::<f64>();
    let mut traced_correct = 0;
    for ph in traced.all() {
        traced_correct += judge(ph, mix, oracle).tally.correct;
    }
    let io_work = io_loop_delta(traced, "work_us");
    let io_wait = io_loop_delta(traced, "wait_us");
    m.push(("replica.overhead_p50_us".into(), replica_overhead, "us"));
    m.push((
        "replica.cpu_us_per_req".into(),
        ratio(replicas_cpu, traced_correct as f64),
        "us",
    ));
    m.push((
        "replica.threads".into(),
        traced.after.procs[1..]
            .iter()
            .map(|p| p.threads as f64)
            .sum(),
        "count",
    ));
    m.push((
        "replica.rss_mb".into(),
        traced.after.procs[1..]
            .iter()
            .map(|p| p.hwm_kb as f64 / 1024.0)
            .sum(),
        "MB",
    ));
    m.push((
        "io.busy_share".into(),
        ratio(io_work, io_work + io_wait),
        "ratio",
    ));

    // --- protocol: the run's own lines through the parsers -----------
    let req_lines: Vec<&str> = traced
        .all()
        .flat_map(|p| p.request_lines.iter())
        .map(|l| l.trim_end())
        .collect();
    let reply_lines: Vec<&str> = traced
        .all()
        .flat_map(|p| p.reply_lines.iter())
        .map(String::as_str)
        .collect();
    let per_parse_ns = |tr: &mut Tracer,
                        name: &'static str,
                        lines: &[&str],
                        parse: &dyn Fn(&str) -> bool|
     -> f64 {
        let mut runs = 0u64;
        let t = Instant::now();
        tr.probe(name, 0, epoch, || {
            while t.elapsed() < Duration::from_millis(50) {
                for l in lines {
                    black_box(parse(black_box(l)));
                }
                runs += 1;
            }
        });
        t.elapsed().as_nanos() as f64 / (runs * lines.len().max(1) as u64) as f64
    };
    let request_parse_ns = per_parse_ns(&mut tr, "protocol.request_parse", &req_lines, &|l| {
        Request::parse(l).is_ok()
    });
    let reply_parse_ns = per_parse_ns(&mut tr, "protocol.reply_parse", &reply_lines, &|l| {
        Response::parse(l).is_ok()
    });
    m.push(("protocol.request_parse_ns".into(), request_parse_ns, "ns"));
    m.push(("protocol.reply_parse_ns".into(), reply_parse_ns, "ns"));

    // --- cache and single flight --------------------------------------
    let received = replica_delta(traced, &["received"]);
    let hits = replica_delta(traced, &["cache_hits"]);
    let misses = replica_delta(traced, &["cache_misses"]);
    m.push((
        "cache.hit_share".into(),
        ratio(hits, hits + misses),
        "ratio",
    ));
    m.push((
        "cache.evictions_per_req".into(),
        ratio(replica_delta(traced, &["cache", "evictions"]), received),
        "count",
    ));
    m.push((
        "singleflight.coalesced_share".into(),
        ratio(replica_delta(traced, &["coalesced_hits"]), received),
        "ratio",
    ));
    let keys: Vec<String> = traced
        .all()
        .flat_map(|p| p.sent.iter())
        .take(20_000)
        .map(|s| {
            let r = mix.request(s.id);
            workload::validate(&r.spec, r.algo).map(|v| v.cache_key)
        })
        .collect::<Result<_, _>>()?;
    let capacity = num(&traced.after.replicas[0], &["cache", "capacity"]) as usize;
    let shards = num(&traced.after.replicas[0], &["cache", "shards"]) as usize;
    let clock = clock_pair_ns();
    let cache: ShardedCache<String, EvalOutcome> =
        ShardedCache::new(capacity.max(1), shards.max(1));
    let (mut get_ns, mut insert_ns, mut inserts) = (0.0, 0.0, 0u64);
    tr.probe("cache.replay", 0, epoch, || {
        for k in &keys {
            let t = Instant::now();
            let hit = black_box(cache.get(k)).is_some();
            get_ns += t.elapsed().as_nanos() as f64 - clock;
            if !hit {
                let t = Instant::now();
                cache.insert(k.clone(), EvalOutcome::default());
                insert_ns += t.elapsed().as_nanos() as f64 - clock;
                inserts += 1;
            }
        }
    });
    m.push((
        "cache.get_ns".into(),
        ratio(get_ns, keys.len() as f64),
        "ns",
    ));
    m.push((
        "cache.insert_ns".into(),
        ratio(insert_ns, inserts as f64),
        "ns",
    ));

    // --- executor -----------------------------------------------------
    let (qw50, qw99) = queue_wait(&traced.after);
    let defaults = gt_serve::Config::default();
    m.push(("executor.queue_wait_p50_us".into(), qw50, "us"));
    m.push(("executor.queue_wait_p99_us".into(), qw99, "us"));
    m.push((
        "executor.batch_mean_size".into(),
        ratio(
            replica_delta(traced, &["batch_jobs"]),
            replica_delta(traced, &["batches"]),
        ),
        "count",
    ));
    m.push((
        "executor.par_grant_share".into(),
        ratio(
            replica_delta(traced, &["par_grants"]),
            replica_delta(traced, &["evaluated"]),
        ),
        "ratio",
    ));
    let jobs: Vec<(&'static str, CostClass)> = traced
        .all()
        .flat_map(|p| p.sent.iter())
        .take(20_000)
        .map(|s| {
            let r = mix.request(s.id);
            (
                r.algo,
                CostClass::classify(r.cost(), defaults.small_cost_max),
            )
        })
        .collect();
    let mut sched: Scheduler<usize> = Scheduler::new(defaults.queue_depth);
    let t = Instant::now();
    tr.probe("executor.sched_replay", 0, epoch, || {
        for (i, (algo, class)) in jobs.iter().enumerate() {
            if sched.push(algo, *class, i).is_err() || sched.len() >= 8 {
                while !black_box(sched.pop_batch(defaults.batch_max)).is_empty() {}
            }
        }
        while !sched.pop_batch(defaults.batch_max).is_empty() {}
    });
    m.push((
        "executor.sched_ns".into(),
        ratio(t.elapsed().as_nanos() as f64, jobs.len() as f64),
        "ns",
    ));

    // --- engines: in-driver runs on the cold_mixed families ------------
    let engines_parent = tr.probe("engines", 0, epoch, || ()).1;
    for (k, (_, algo, family)) in COLD_MIX.iter().enumerate() {
        let n = if algo.starts_with("round") || *algo == "ybw" {
            20
        } else {
            100
        };
        let (mut times, mut total_us, mut leaves) = (Vec::new(), 0.0, 0.0);
        for i in 0..n {
            let req = Req {
                spec: format!(
                    "{family},seed={}",
                    mix64(args.seed ^ mix64(k as u64 + 1)) ^ i
                ),
                algo,
            };
            let ((out, us), _) = {
                let (r, id) = tr.probe(algo, engines_parent, epoch, || evaluate(&req, 1));
                (r?, id)
            };
            times.push(us);
            total_us += us;
            leaves += out.work as f64;
        }
        let name = algo.split(':').next().unwrap_or(algo);
        m.push((format!("engine.{name}.eval_p50_us"), median(&times), "us"));
        m.push((
            format!("engine.{name}.ns_per_leaf"),
            ratio(total_us * 1e3, leaves),
            "ns",
        ));
    }
    // Work and time of the work-stealing engine kept apart: leaves at K
    // workers over leaves at 1 is search overhead, whatever the cores.
    let (mut l1, mut lk, mut steals, mut t1, mut tk) = (0.0, 0.0, 0.0, Vec::new(), Vec::new());
    for i in 0..60u64 {
        let req = Req {
            spec: format!("minmax:d=4,n=8,seed={}", mix64(args.seed ^ 0x5eed) ^ i),
            algo: "par-alphabeta",
        };
        let (one, us1) = evaluate(&req, 1)?;
        let (many, usk) = evaluate(&req, PAR_K)?;
        if one.value != many.value {
            return Err(format!(
                "par-alphabeta at {PAR_K} workers disagrees on {req:?}"
            ));
        }
        l1 += one.work as f64;
        lk += many.work as f64;
        steals += many.steals as f64;
        t1.push(us1);
        tk.push(usk);
    }
    m.push(("engine.par.search_overhead".into(), ratio(lk, l1), "ratio"));
    m.push(("engine.par.steals_per_eval".into(), steals / 60.0, "count"));
    let (t1, tk) = (median(&t1), median(&tk));
    lines.push(if nproc >= PAR_K as usize {
        format!(
            "# par-alphabeta: leaves K={PAR_K}/K=1 {:.3}; time p50 K=1 {t1:.1} us, K={PAR_K} {tk:.1} us (speedup {:.2}x on {nproc} cpus)",
            ratio(lk, l1),
            t1 / tk
        )
    } else {
        format!(
            "# par-alphabeta: leaves K={PAR_K}/K=1 {:.3}; time p50 K=1 {t1:.1} us, K={PAR_K} {tk:.1} us (no speedup reported: nproc {nproc} < K)",
            ratio(lk, l1)
        )
    });

    // --- ledger and tracing overhead ----------------------------------
    let p50 = |pass: &Phases| median(&judge(pass.latency_phase(), mix, oracle).latencies_us);
    let e2e_p50 = p50(untraced);
    let traced_p50 = p50(traced);
    let engine_p50 = median(&engine_term);
    let sum = ping_router + hop + replica_overhead + engine_p50;
    let residual_pct = (e2e_p50 - sum) / e2e_p50 * 100.0;
    let flag = workload != Workload::SplitLarge && residual_pct.abs() > LEDGER_FLAG_PCT;
    lines.push(format!(
        "# ledger {}: ping_router {ping_router:.1} + router_hop {hop:.1} + replica_overhead {replica_overhead:.1} + engine {engine_p50:.1} = {sum:.1} us vs latency_p50 {e2e_p50:.1} us; residual {residual_pct:.1}%{}",
        workload.name(),
        if flag { " FLAGGED (above 15%)" } else { "" }
    ));
    let overhead_pct = (traced_p50 - e2e_p50) / e2e_p50 * 100.0;
    lines.push(format!(
        "# tracing overhead: latency_p50 traced {traced_p50:.1} us vs untraced {e2e_p50:.1} us ({overhead_pct:+.1}%)"
    ));
    m.push(("ledger.residual_pct".into(), residual_pct, "%"));
    m.push(("trace.overhead_p50_pct".into(), overhead_pct, "%"));

    let path = args
        .out
        .join(format!("spans-{}-{}.jsonl", workload.name(), args.seed));
    tr.write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    lines.push(format!(
        "# spans: {} written to {}",
        tr.spans.len(),
        path.display()
    ));
    Ok(LayerReport { metrics: m, lines })
}
