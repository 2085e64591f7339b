//! The fleet under test: one `gtree route` in front of two
//! `gtree serve` replicas, each a separate process on an ephemeral
//! loopback port, plus the outside views of it the benchmark reads —
//! `/proc` per process and each tier's own `stats` verb.

use gt_analysis::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// Replicas behind the router.
pub const REPLICAS: usize = 2;
/// One spawned fleet process.
pub struct Proc {
    child: Child,
    /// Held open so the process never writes into a closed pipe.
    _stderr: BufReader<ChildStderr>,
    pub addr: String,
}

impl Proc {
    fn spawn(gtree: &Path, args: &[String]) -> Result<Proc, String> {
        let mut child = Command::new(gtree)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", gtree.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let read = stderr.read_line(&mut line);
        let addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Proc {
                child,
                _stderr: stderr,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "{} {args:?} did not start: {line:?}",
                    gtree.display()
                ))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask for a graceful drain, then wait; kill if it overstays.
    fn stop(&mut self) {
        if let Ok(mut c) = connect(&self.addr) {
            let _ = c.write_all(b"{\"op\":\"shutdown\"}\n");
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.kill();
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The router and its replicas.  Dropping a fleet kills and reaps
/// every process still running, so no exit path leaves one behind.
pub struct Fleet {
    pub router: Proc,
    pub replicas: Vec<Proc>,
}

impl Fleet {
    /// Spawn the replicas, then the router pointing at them.
    pub fn spawn(
        gtree: &Path,
        replica_flags: &[String],
        router_flags: &[String],
    ) -> Result<Fleet, String> {
        let mut replicas = Vec::new();
        for _ in 0..REPLICAS {
            let mut args = vec!["serve".to_string(), "--addr".into(), "127.0.0.1:0".into()];
            args.extend(replica_flags.iter().cloned());
            replicas.push(Proc::spawn(gtree, &args)?);
        }
        let mut args = vec!["route".to_string(), "--addr".into(), "127.0.0.1:0".into()];
        for r in &replicas {
            args.push("--replica".into());
            args.push(r.addr.clone());
        }
        args.extend(router_flags.iter().cloned());
        let router = Proc::spawn(gtree, &args)?;
        Ok(Fleet { router, replicas })
    }

    /// Every process, router first.
    pub fn procs(&self) -> impl Iterator<Item = &Proc> {
        std::iter::once(&self.router).chain(self.replicas.iter())
    }

    /// Block until the router reports every replica routable.
    pub fn wait_routable(&self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        let mut conn = Conn::open(&self.router.addr)?;
        loop {
            let health = conn.call("{\"op\":\"health\"}\n")?;
            let routable = health.get("routable").and_then(Json::as_u64);
            if routable == Some(REPLICAS as u64) {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "fleet not routable in {timeout:?}: {}",
                    health.render()
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Graceful shutdown of every process, router first.
    pub fn stop(mut self) {
        self.router.stop();
        for r in &mut self.replicas {
            r.stop();
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.router.kill();
        for r in &mut self.replicas {
            r.kill();
        }
    }
}

/// A loopback connection with `TCP_NODELAY`.
pub fn connect(addr: &str) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true)
        .map_err(|e| format!("nodelay {addr}: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(20)))
        .map_err(|e| format!("read timeout {addr}: {e}"))?;
    Ok(s)
}

/// A one-request-at-a-time NDJSON connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let writer = connect(addr)?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer,
            reader,
            line: String::new(),
        })
    }

    /// Send one line and return the raw reply line.
    pub fn call_raw(&mut self, line: &str) -> Result<&str, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Send one line and parse the reply.
    pub fn call(&mut self, line: &str) -> Result<Json, String> {
        Json::parse(self.call_raw(line)?)
    }

    /// The `stats` object of a router or replica.
    pub fn stats(&mut self) -> Result<Json, String> {
        let reply = self.call("{\"op\":\"stats\"}\n")?;
        reply
            .get("stats")
            .cloned()
            .ok_or_else(|| format!("no stats in {}", reply.render()))
    }
}

/// What `/proc` says about one process.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// utime + stime, in microseconds.
    pub cpu_us: f64,
    pub threads: u64,
    /// Peak resident set (VmHWM), in kB.
    pub hwm_kb: u64,
}

extern "C" {
    fn sysconf(name: i32) -> i64;
}

const SC_CLK_TCK: i32 = 2;

pub fn proc_sample(pid: u32) -> Result<ProcSample, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let after = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // SAFETY: sysconf reads a process-wide constant; no memory is shared.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    let cpu_us = (ticks(11) + ticks(12)) as f64 * 1e6 / hz;
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    let field = |name: &str| {
        status
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    Ok(ProcSample {
        cpu_us,
        threads: field("Threads:"),
        hwm_kb: field("VmHWM:"),
    })
}

/// `/proc` samples and `stats` objects for the whole fleet at one
/// instant: router first, then the replicas.
pub struct FleetSample {
    pub procs: Vec<ProcSample>,
    pub router: Json,
    pub replicas: Vec<Json>,
}

impl FleetSample {
    pub fn take(fleet: &Fleet) -> Result<FleetSample, String> {
        let procs = fleet
            .procs()
            .map(|p| proc_sample(p.pid()))
            .collect::<Result<Vec<_>, _>>()?;
        let router = Conn::open(&fleet.router.addr)?.stats()?;
        let replicas = fleet
            .replicas
            .iter()
            .map(|r| Conn::open(&r.addr)?.stats())
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FleetSample {
            procs,
            router,
            replicas,
        })
    }

    pub fn cpu_us(&self) -> f64 {
        self.procs.iter().map(|p| p.cpu_us).sum()
    }

    pub fn peak_rss_mb(&self) -> f64 {
        self.procs.iter().map(|p| p.hwm_kb as f64 / 1024.0).sum()
    }

    /// Σ over replicas of `stats.stages.*.work.leaves`.
    pub fn leaves(&self) -> f64 {
        self.replicas
            .iter()
            .filter_map(|r| match r.get("stages") {
                Some(Json::Object(stages)) => Some(stages),
                _ => None,
            })
            .flatten()
            .filter_map(|(_, st)| st.get("work")?.get("leaves")?.as_f64())
            .sum()
    }
}

/// A numeric field along `path` (0 when absent).
pub fn num(v: &Json, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}
