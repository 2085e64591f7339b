//! fleetbench — the fleet benchmark.
//!
//! Spawns one `gtree route` in front of two `gtree serve` replicas as
//! separate processes, drives them with one of three workloads from
//! this process (at most two threads and two connections), checks
//! every reply against a sequential reference, and prints the metrics
//! named in `BENCHMARK.json`, each with its unit, as the last line of
//! standard output.  `--trace 0` prints the end-to-end metrics of an
//! untraced run; `--trace 1` runs the same phases untraced and then
//! traced, probes each layer from outside, and prints the per-layer
//! metrics.  See `fleetbench/README.md`.

mod drive;
mod fleet;
mod layers;
mod mix;
mod span;
mod stats;

use drive::{Phase, Reply};
use fleet::{Conn, Fleet, FleetSample};
use gt_analysis::Json;
use gt_tree::Value;
use mix::{Mix, Req, Workload};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Fleets spawned per run; `setup_s` is the median of their set-up
/// times, and the last one is measured.
const SETUPS: usize = 5;
/// The set-up round trip: a tiny deterministic eval.
const READY_SPEC: &str = "worst:d=2,n=6";

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub gtree: PathBuf,
    pub replica_flags: Vec<String>,
    pub router_flags: Vec<String>,
    /// Open-loop rates, about half of each workload's saturation.
    pub hot_rps: f64,
    pub cold_rps: f64,
    /// Closed-loop requests in flight per connection.
    pub depth: usize,
    /// The router's `--split-cost`, read from `router_flags`.
    pub split_cost: u64,
    pub out: PathBuf,
}

const USAGE: &str = "usage: fleetbench --gtree PATH --replica-flags FLAGS --router-flags FLAGS \
--hot-rps R --cold-rps R --depth N --workload hot_cached|cold_mixed|split_large \
--seed N --seconds S --trace 0|1 [--smoke] [--out DIR]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kv: HashMap<&str, &str> = HashMap::new();
    let mut smoke = false;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--smoke" {
            smoke = true;
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(flag, value);
        i += 2;
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let num = |k: &str| -> Result<f64, String> {
        get(k)?
            .parse::<f64>()
            .map_err(|e| format!("bad {k}: {e}"))
            .and_then(|v| {
                if v.is_finite() && v > 0.0 {
                    Ok(v)
                } else {
                    Err(format!("{k} must be positive"))
                }
            })
    };
    for k in kv.keys() {
        if ![
            "--gtree",
            "--replica-flags",
            "--router-flags",
            "--hot-rps",
            "--cold-rps",
            "--depth",
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--out",
        ]
        .contains(k)
        {
            return Err(format!("unknown flag {k}"));
        }
    }
    let router_flags: Vec<String> = get("--router-flags")?
        .split_whitespace()
        .map(str::to_string)
        .collect();
    let split_cost = router_flags
        .iter()
        .position(|f| f == "--split-cost")
        .and_then(|p| router_flags.get(p + 1))
        .and_then(|v| v.parse().ok())
        .ok_or("--router-flags must set --split-cost")?;
    Ok(Args {
        workload: Workload::parse(get("--workload")?)?,
        seed: get("--seed")?
            .parse()
            .map_err(|e| format!("bad --seed: {e}"))?,
        seconds: num("--seconds")?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace is 0 or 1, not {other}")),
        },
        smoke,
        gtree: PathBuf::from(get("--gtree")?),
        replica_flags: get("--replica-flags")?
            .split_whitespace()
            .map(str::to_string)
            .collect(),
        router_flags,
        hot_rps: num("--hot-rps")?,
        cold_rps: num("--cold-rps")?,
        depth: num("--depth")? as usize,
        split_cost,
        out: PathBuf::from(kv.get("--out").copied().unwrap_or("fleetbench/out")),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleetbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("fleetbench: {e}");
        std::process::exit(1);
    }
}

/// The host every result is recorded with.
struct Host {
    nproc: usize,
    cpu_model: String,
    kernel: String,
}

/// (steal, total) CPU ticks from the first line of `/proc/stat`.
/// Steal is time the hypervisor gave this VM's CPUs to someone else:
/// a run that saw much of it measured a slower host.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

impl Host {
    fn detect() -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpuinfo
                .lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map_or("unknown".into(), |(_, m)| m.trim().to_string()),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or("unknown".into(), |k| k.trim().to_string()),
        }
    }
}

/// Sequential reference values, computed once per distinct request.
pub struct Oracle {
    split_cost: u64,
    values: HashMap<Req, Value>,
}

impl Oracle {
    fn new(split_cost: u64) -> Oracle {
        Oracle {
            split_cost,
            values: HashMap::new(),
        }
    }

    /// Compute the references for `reqs` not yet known, on two threads.
    fn prepare(&mut self, reqs: impl IntoIterator<Item = Req>) -> Result<(), String> {
        let todo: Vec<Req> = reqs
            .into_iter()
            .filter(|r| !self.values.contains_key(r))
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        let (a, b) = todo.split_at(todo.len() / 2);
        let cost = self.split_cost;
        let solve = |part: &[Req]| -> Result<Vec<(Req, Value)>, String> {
            part.iter()
                .map(|r| Ok((r.clone(), mix::reference(r, cost)?)))
                .collect()
        };
        let (ra, rb) = std::thread::scope(|s| {
            let h = s.spawn(|| solve(a));
            let rb = solve(b);
            (h.join().expect("oracle thread panicked"), rb)
        });
        self.values.extend(ra?);
        self.values.extend(rb?);
        Ok(())
    }

    fn value(&self, req: &Req) -> Value {
        self.values[req]
    }
}

/// How the requests of one phase ended.
#[derive(Default, Debug, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub correct: u64,
    pub wrong: u64,
    pub non_ok: u64,
    pub timeouts: u64,
    pub unanswered: u64,
    pub transport: u64,
}

impl Tally {
    fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.correct += o.correct;
        self.wrong += o.wrong;
        self.non_ok += o.non_ok;
        self.timeouts += o.timeouts;
        self.unanswered += o.unanswered;
        self.transport += o.transport;
    }

    fn failed(&self) -> u64 {
        self.attempted - self.correct
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("sent", Json::from(self.attempted)),
            ("succeeded", Json::from(self.correct)),
            ("failed", Json::from(self.failed())),
            ("wrong_value", Json::from(self.wrong)),
            ("non_ok", Json::from(self.non_ok)),
            ("timeout", Json::from(self.timeouts)),
            ("transport_error", Json::from(self.transport)),
            ("unanswered", Json::from(self.unanswered)),
        ])
    }
}

/// One phase after the oracle: per-request latency from the due time
/// (`INFINITY` for any failure) and the tally.
pub struct Judged {
    pub latencies_us: Vec<f64>,
    /// Correct replies received inside the measured window.
    pub in_window: u64,
    pub tally: Tally,
}

fn judge(phase: &Phase, mix: &Mix, oracle: &Oracle) -> Judged {
    let window_ns = phase.window.as_nanos() as u64;
    let mut tally = Tally {
        attempted: phase.sent.len() as u64,
        transport: phase.transport_errors,
        ..Tally::default()
    };
    let mut latencies_us = Vec::with_capacity(phase.sent.len());
    let mut in_window = 0;
    for s in &phase.sent {
        let lat = match phase.got.get(&s.id) {
            None => {
                tally.unanswered += 1;
                f64::INFINITY
            }
            Some(g) if !g.reply.ok => {
                tally.non_ok += 1;
                if g.reply.status == 408 {
                    tally.timeouts += 1;
                }
                f64::INFINITY
            }
            Some(g) if g.reply.value != Some(oracle.value(&mix.request(s.id))) => {
                tally.wrong += 1;
                f64::INFINITY
            }
            Some(g) => {
                tally.correct += 1;
                if g.recv_ns < window_ns {
                    in_window += 1;
                }
                g.recv_ns.saturating_sub(s.due_ns) as f64 / 1e3
            }
        };
        latencies_us.push(lat);
    }
    Judged {
        latencies_us,
        in_window,
        tally,
    }
}

/// The load phases of one pass over a workload.
pub struct Phases {
    /// Open loop at the workload's fixed rate (`hot_cached`,
    /// `cold_mixed` only).
    pub open: Option<Phase>,
    /// Closed loop: 2 connections × `depth`, or for `split_large` one
    /// connection with one request in flight.
    pub closed: Phase,
    /// Fleet CPU (utime + stime, all processes) spent in the closed
    /// loop, µs.
    pub closed_cpu_us: f64,
    /// Σ replica leaves when the latency phase ended.
    pub latency_leaves: f64,
    /// Fleet `stats` and `/proc` before and after the pass.
    pub before: FleetSample,
    pub after: FleetSample,
    /// First stream id not used by this pass.
    pub next_id: u64,
}

impl Phases {
    pub fn all(&self) -> impl Iterator<Item = &Phase> {
        self.open.iter().chain(std::iter::once(&self.closed))
    }

    /// The phase `latency_*` metrics read.
    pub fn latency_phase(&self) -> &Phase {
        self.open.as_ref().unwrap_or(&self.closed)
    }
}

fn fleet_cpu_us(fleet: &Fleet) -> Result<f64, String> {
    fleet
        .procs()
        .map(|p| fleet::proc_sample(p.pid()).map(|s| s.cpu_us))
        .sum()
}

fn run_phases(
    args: &Args,
    fleet: &Fleet,
    mix: &Mix,
    first: u64,
    trace: bool,
) -> Result<Phases, String> {
    let router = &fleet.router.addr;
    let before = FleetSample::take(fleet)?;
    let (open, open_leaves, closed_first, closed_window) = match mix.workload {
        Workload::SplitLarge => (None, None, first, args.seconds),
        w => {
            let rate = if w == Workload::HotCached {
                args.hot_rps
            } else {
                args.cold_rps
            };
            let half = Duration::from_secs_f64(args.seconds / 2.0);
            let open = drive::open_loop(router, mix, first, rate, half, trace)?;
            let next = first + open.sent.len() as u64;
            let leaves = FleetSample::take(fleet)?.leaves();
            (Some(open), Some(leaves), next, args.seconds / 2.0)
        }
    };
    let (conns, depth) = match mix.workload {
        Workload::SplitLarge => (1, 1),
        _ => (2, args.depth),
    };
    let cpu0 = fleet_cpu_us(fleet)?;
    let closed = drive::closed_loop(
        router,
        mix,
        closed_first,
        conns,
        depth,
        Duration::from_secs_f64(closed_window),
        trace,
    )?;
    let closed_cpu_us = fleet_cpu_us(fleet)? - cpu0;
    let after = FleetSample::take(fleet)?;
    let latency_leaves = open_leaves.unwrap_or_else(|| after.leaves());
    let next_id = closed
        .sent
        .iter()
        .map(|s| s.id + 1)
        .max()
        .unwrap_or(closed_first);
    Ok(Phases {
        open,
        closed,
        closed_cpu_us,
        latency_leaves,
        before,
        after,
        next_id,
    })
}

/// What the set-up eval and warm-up pass sent and got back.
type SetupReplies = Vec<(Req, Reply)>;

/// Spawn the fleet until it routes and answers, plus the `hot_cached`
/// warm-up pass.  Returns the fleet, its set-up time, and the warm-up
/// replies for the oracle.
fn set_up(args: &Args, mix: &Mix, ready: &Req) -> Result<(Fleet, f64, SetupReplies), String> {
    let t = Instant::now();
    let fleet = Fleet::spawn(&args.gtree, &args.replica_flags, &args.router_flags)?;
    fleet.wait_routable(Duration::from_secs(10))?;
    let mut conn = Conn::open(&fleet.router.addr)?;
    let mut replies = Vec::new();
    for (k, req) in std::iter::once(ready).chain(mix.keyspace()).enumerate() {
        let line = conn.call_raw(&req.line(k as u64))?;
        let (_, reply) = drive::parse_reply(line.as_bytes())
            .ok_or_else(|| format!("set-up reply without id: {line}"))?;
        replies.push((req.clone(), reply));
    }
    Ok((fleet, t.elapsed().as_secs_f64(), replies))
}

fn metric(name: &str, value: f64, unit: &str) -> (String, Json) {
    // A failed request is an infinite latency; JSON has no infinity, so
    // a p99 past the failure share reads as a value no run can reach.
    let value = if value.is_finite() { value } else { 1e12 };
    (
        name.to_string(),
        Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
    )
}

fn run(args: &Args) -> Result<(), String> {
    let t0 = Instant::now();
    let ticks0 = cpu_ticks();
    let progress =
        |what: &str| eprintln!("fleetbench: {what} at {:.2} s", t0.elapsed().as_secs_f64());
    let host = Host::detect();
    let mix = Mix::new(args.workload, args.seed);
    let mut oracle = Oracle::new(args.split_cost);
    let ready = Req {
        spec: READY_SPEC.into(),
        algo: "seq-solve",
    };

    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        // Kill and reap the previous fleet before timing the next.
        drop(kept.take());
        let (fleet, secs, warm) = set_up(args, &mix, &ready)?;
        setup_s.push(secs);
        kept = Some((fleet, warm));
    }
    let (fleet, warm) = kept.expect("at least one set-up");
    progress("set-up done");

    let untraced = run_phases(args, &fleet, &mix, 0, false)?;
    let traced = if args.trace {
        Some(run_phases(args, &fleet, &mix, untraced.next_id, true)?)
    } else {
        None
    };
    progress("load phases done");
    let census: Vec<u64> = fleet
        .procs()
        .map(|p| fleet::proc_sample(p.pid()).map(|s| s.threads))
        .collect::<Result<_, _>>()?;

    // Per-layer probes run on the idle fleet, before it is stopped.
    let passes: Vec<&Phases> = std::iter::once(&untraced).chain(traced.as_ref()).collect();
    let mut sent_reqs: Vec<Req> = warm.iter().map(|(r, _)| r.clone()).collect();
    for p in &passes {
        for ph in p.all() {
            sent_reqs.extend(ph.sent.iter().map(|s| mix.request(s.id)));
        }
    }
    oracle.prepare(sent_reqs)?;
    progress("oracle done");
    let layer_metrics = match &traced {
        Some(t) => Some(layers::measure(
            args, host.nproc, &fleet, &mix, &untraced, t, &oracle,
        )?),
        None => None,
    };
    progress("layer probes done");
    fleet.stop();
    progress("fleet stopped");

    let warm_wrong = warm
        .iter()
        .filter(|(r, reply)| !reply.ok || reply.value != Some(oracle.value(r)))
        .count() as u64;
    let mut tally = Tally::default();
    for p in &passes {
        for ph in p.all() {
            tally.add(&judge(ph, &mix, &oracle).tally);
        }
    }

    let ticks1 = cpu_ticks();
    let report = Json::obj([
        ("workload", Json::from(args.workload.name())),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("traced", Json::from(args.trace)),
        (
            "host",
            Json::obj([
                ("nproc", Json::from(host.nproc)),
                ("cpu_model", Json::from(host.cpu_model.as_str())),
                ("kernel", Json::from(host.kernel.as_str())),
                (
                    "steal_share",
                    Json::from(stats::ratio(
                        (ticks1.0 - ticks0.0) as f64,
                        (ticks1.1 - ticks0.1) as f64,
                    )),
                ),
            ]),
        ),
        (
            "fleet",
            Json::obj([
                ("replicas", Json::from(fleet::REPLICAS)),
                ("replica_flags", Json::from(args.replica_flags.join(" "))),
                ("router_flags", Json::from(args.router_flags.join(" "))),
                ("hot_rps", Json::from(args.hot_rps)),
                ("cold_rps", Json::from(args.cold_rps)),
                ("closed_depth", Json::from(args.depth)),
            ]),
        ),
        (
            "thread_census",
            Json::obj([
                ("router", Json::from(census[0])),
                (
                    "replicas",
                    Json::Array(census[1..].iter().map(|t| Json::from(*t)).collect()),
                ),
                ("driver_max", Json::from(2u64)),
            ]),
        ),
        (
            "replica_received",
            Json::Array(
                untraced
                    .after
                    .replicas
                    .iter()
                    .map(|r| Json::from(fleet::num(r, &["received"])))
                    .collect(),
            ),
        ),
        ("requests", tally.to_json()),
        (
            "failed_share",
            Json::from(stats::ratio(tally.failed() as f64, tally.attempted as f64)),
        ),
        ("setup_wrong_value", Json::from(warm_wrong)),
    ]);
    println!("{}", Json::obj([("report", report)]).render());

    let correct = tally.wrong == 0 && warm_wrong == 0;
    let metrics: Vec<(String, Json)> = match layer_metrics {
        Some(layer) => {
            for line in &layer.lines {
                println!("{line}");
            }
            let failed_share = stats::ratio(tally.failed() as f64, tally.attempted as f64);
            layer
                .metrics
                .into_iter()
                .map(|(n, v, u)| metric(&n, v, u))
                .chain(std::iter::once(metric(
                    "failed_share",
                    failed_share,
                    "ratio",
                )))
                .collect()
        }
        None => e2e_metrics(args, &untraced, &tally, &mix, &oracle, &warm, &setup_s)?,
    };
    let attempted = tally.attempted;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::from(correct)),
            ("attempted", Json::from(attempted)),
            ("failed", Json::from(tally.failed())),
            ("metrics", Json::Object(metrics)),
        ])
        .render()
    );
    Ok(())
}

/// The end-to-end metrics of one untraced pass.
fn e2e_metrics(
    args: &Args,
    pass: &Phases,
    tally: &Tally,
    mix: &Mix,
    oracle: &Oracle,
    warm: &[(Req, Reply)],
    setup_s: &[f64],
) -> Result<Vec<(String, Json)>, String> {
    let closed = judge(&pass.closed, mix, oracle);
    let lat = judge(pass.latency_phase(), mix, oracle);
    let sorted = stats::sorted(lat.latencies_us.clone());
    let p99 = match stats::p99(&sorted) {
        Ok(v) => Some(v),
        Err(e) if args.smoke => {
            println!("# smoke: {e}");
            None
        }
        Err(e) => return Err(e),
    };
    // S(T) per answer, from the fleet's start to the end of the
    // latency phase: the set-up eval and warm-up pass did engine work
    // for the answers that follow, so they count on both sides.  The
    // open loop's request count is fixed by its rate and window, so on
    // `hot_cached` the figure does not move with throughput.
    let warm_ok = warm
        .iter()
        .filter(|(r, reply)| reply.ok && reply.value == Some(oracle.value(r)))
        .count() as f64;
    let answers = warm_ok + lat.tally.correct as f64;
    let mut m = vec![
        metric(
            "throughput_rps",
            closed.in_window as f64 / pass.closed.window.as_secs_f64(),
            "req/s",
        ),
        metric("latency_p50_us", stats::quantile(&sorted, 0.5), "us"),
    ];
    if let Some(p99) = p99 {
        m.push(metric("latency_p99_us", p99, "us"));
    }
    m.extend([
        metric(
            "ok_share",
            stats::ratio(tally.correct as f64, tally.attempted as f64),
            "ratio",
        ),
        metric(
            "cpu_us_per_req",
            stats::ratio(pass.closed_cpu_us, closed.tally.correct as f64),
            "us",
        ),
        metric(
            "leaves_per_eval",
            stats::ratio(pass.latency_leaves, answers),
            "leaves",
        ),
        metric("peak_rss_mb", pass.after.peak_rss_mb(), "MB"),
        metric("setup_s", stats::median(setup_s), "s"),
    ]);
    if let Some(open) = &pass.open {
        let late: Vec<f64> = open
            .sent
            .iter()
            .map(|s| s.sent_ns.saturating_sub(s.due_ns) as f64 / 1e3)
            .collect();
        let late = stats::sorted(late);
        println!(
            "# open loop: {} sent at {} req/s; generator lateness p50 {:.1} us, p99 {:.1} us",
            open.sent.len(),
            (open.sent.len() as f64 / open.window.as_secs_f64()).round(),
            stats::quantile(&late, 0.5),
            stats::quantile(&late, 0.99)
        );
    }
    Ok(m)
}
