//! Load phases: an open loop that sends on a fixed schedule and times
//! each request from its due time, and a pipelined closed loop.  Each
//! uses at most two connections and two threads (the caller's and one
//! scoped helper).

use crate::fleet::connect;
use crate::mix::Mix;
use crate::span::{Span, Tracer};
use gt_serve::io::Poller;
use gt_serve::Response;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long a phase waits for stragglers after its window closes
/// before counting them unanswered.
const DRAIN: Duration = Duration::from_secs(5);
/// Request and reply lines kept per phase for the protocol replay.
const LINE_SAMPLE: usize = 2000;

/// The fields of one reply the benchmark uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reply {
    pub ok: bool,
    pub status: u64,
    pub value: Option<i64>,
    pub leaves: Option<u64>,
}

/// One request as sent: its id (the stream index), when it was due
/// and when it left, in ns from the phase epoch.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    pub id: u64,
    pub due_ns: u64,
    pub sent_ns: u64,
}

/// One reply as received.
#[derive(Debug, Clone, Copy)]
pub struct Got {
    pub recv_ns: u64,
    pub reply: Reply,
}

/// Everything one phase saw.
pub struct Phase {
    /// Time zero of every `_ns` field and span of the phase.
    pub epoch: Instant,
    /// The measured window, from the epoch.
    pub window: Duration,
    pub sent: Vec<Sent>,
    pub got: HashMap<u64, Got>,
    /// Reply lines with no parseable id, or connections that failed.
    pub transport_errors: u64,
    pub request_lines: Vec<String>,
    pub reply_lines: Vec<String>,
    pub spans: Vec<Span>,
}

impl Phase {
    fn new(epoch: Instant, window: Duration) -> Phase {
        Phase {
            epoch,
            window,
            sent: Vec::new(),
            got: HashMap::new(),
            transport_errors: 0,
            request_lines: Vec::new(),
            reply_lines: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn absorb(&mut self, mut part: Part) {
        self.sent.append(&mut part.sent);
        self.got.extend(part.got.drain());
        self.transport_errors += part.transport_errors;
        keep_sample(&mut self.request_lines, part.request_lines);
        keep_sample(&mut self.reply_lines, part.reply_lines);
        self.spans.append(&mut part.tracer.spans);
    }
}

fn keep_sample(into: &mut Vec<String>, from: Vec<String>) {
    let room = LINE_SAMPLE.saturating_sub(into.len());
    into.extend(from.into_iter().take(room));
}

/// One thread's share of a phase.
struct Part {
    sent: Vec<Sent>,
    got: HashMap<u64, Got>,
    transport_errors: u64,
    request_lines: Vec<String>,
    reply_lines: Vec<String>,
    tracer: Tracer,
}

impl Part {
    fn new(trace: bool) -> Part {
        Part {
            sent: Vec::new(),
            got: HashMap::new(),
            transport_errors: 0,
            request_lines: Vec::new(),
            reply_lines: Vec::new(),
            tracer: Tracer::new(trace),
        }
    }

    /// Record one reply line received at `recv_ns`, and its request
    /// span from `due(id)` to arrival; returns the reply's id.
    fn on_line(&mut self, line: &[u8], recv_ns: u64, due: impl Fn(&Part, u64) -> u64) {
        let Some((id, reply)) = parse_reply(line) else {
            self.transport_errors += 1;
            return;
        };
        self.got.insert(id, Got { recv_ns, reply });
        if self.reply_lines.len() < LINE_SAMPLE {
            self.reply_lines
                .push(String::from_utf8_lossy(line).into_owned());
        }
        if self.tracer.enabled {
            let start = due(self, id);
            self.tracer
                .record("request", Span::request_id(id), 0, id, start, recv_ns);
        }
    }
}

fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Drop this thread's timer slack from the default 50 µs to 1 ns, so a
/// sleep until a request's due time wakes on time.
fn precise_sleep() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes plain integers and changes only
    // the calling thread's timer slack; no memory is passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

fn sleep_until(epoch: Instant, due_ns: u64) {
    loop {
        let now = ns_since(epoch);
        if now >= due_ns {
            return;
        }
        std::thread::sleep(Duration::from_nanos(due_ns - now));
    }
}

/// Write all of `buf` to a socket that may be nonblocking.
fn write_all_nb(mut w: &TcpStream, buf: &[u8]) -> std::io::Result<()> {
    let mut off = 0;
    while off < buf.len() {
        match w.write(&buf[off..]) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => off += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(20))
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Open loop: `rate` requests per second for `window`, ids `first..`,
/// alternating over two connections to `addr`.  One thread sends on
/// the schedule and never waits for replies; the caller's thread reads
/// both connections.  Latency is later taken from each request's due
/// time, so a stalled sender or server shows as latency, and the
/// sender's lateness is kept per request.
pub fn open_loop(
    addr: &str,
    mix: &Mix,
    first: u64,
    rate: f64,
    window: Duration,
    trace: bool,
) -> Result<Phase, String> {
    let conns = [connect(addr)?, connect(addr)?];
    let writers = [
        conns[0].try_clone().map_err(|e| e.to_string())?,
        conns[1].try_clone().map_err(|e| e.to_string())?,
    ];
    let n = (rate * window.as_secs_f64()).round() as u64;
    let period_ns = 1e9 / rate;
    let due = move |id: u64| ((id - first) as f64 * period_ns) as u64;
    let poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
    for (token, c) in conns.iter().enumerate() {
        c.set_nonblocking(true).map_err(|e| e.to_string())?;
        poller
            .add(c.as_raw_fd(), token as u64, true, false)
            .map_err(|e| format!("poller add: {e}"))?;
    }
    let sent_count = AtomicU64::new(0);
    let sender_done = AtomicBool::new(false);
    let epoch = Instant::now() + Duration::from_millis(2);
    let mut phase = Phase::new(epoch, window);
    let sender_part = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            precise_sleep();
            let mut part = Part::new(trace);
            for j in 0..n {
                let id = first + j;
                let due_ns = due(id);
                sleep_until(epoch, due_ns);
                let line = mix.request(id).line(id);
                let sent_ns = ns_since(epoch);
                part.sent.push(Sent {
                    id,
                    due_ns,
                    sent_ns,
                });
                sent_count.fetch_add(1, Ordering::Release);
                if write_all_nb(&writers[(j % 2) as usize], line.as_bytes()).is_err() {
                    part.transport_errors += 1;
                }
                if part.tracer.enabled {
                    let end = ns_since(epoch);
                    part.tracer.record(
                        "send",
                        Span::request_id(id) + 1,
                        Span::request_id(id),
                        id,
                        sent_ns,
                        end,
                    );
                }
                if part.request_lines.len() < LINE_SAMPLE {
                    part.request_lines.push(line);
                }
            }
            sender_done.store(true, Ordering::Release);
            part
        });
        let mut part = Part::new(trace);
        let mut carry: [Vec<u8>; 2] = [Vec::new(), Vec::new()];
        let mut open = [true, true];
        let mut events = Vec::new();
        let mut buf = vec![0u8; 64 * 1024];
        let hard_stop = window + DRAIN;
        loop {
            let done = sender_done.load(Ordering::Acquire);
            let sent = sent_count.load(Ordering::Acquire);
            if (done && part.got.len() as u64 + part.transport_errors >= sent)
                || epoch.elapsed() > hard_stop
                || !open.iter().any(|o| *o)
            {
                break;
            }
            events.clear();
            if poller.wait(&mut events, 2).is_err() {
                continue;
            }
            for ev in &events {
                let c = ev.token as usize;
                loop {
                    match (&conns[c]).read(&mut buf) {
                        Ok(0) => {
                            open[c] = false;
                            let _ = poller.delete(conns[c].as_raw_fd());
                            break;
                        }
                        Ok(k) => {
                            let recv_ns = ns_since(epoch);
                            carry[c].extend_from_slice(&buf[..k]);
                            let mut start = 0;
                            while let Some(nl) = carry[c][start..].iter().position(|b| *b == b'\n')
                            {
                                part.on_line(&carry[c][start..start + nl], recv_ns, |_, id| {
                                    due(id)
                                });
                                start += nl + 1;
                            }
                            carry[c].drain(..start);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => {
                            open[c] = false;
                            let _ = poller.delete(conns[c].as_raw_fd());
                            break;
                        }
                    }
                }
            }
        }
        phase.absorb(part);
        sender.join().expect("sender thread panicked")
    });
    phase.absorb(sender_part);
    Ok(phase)
}

/// Closed loop: `conns` connections to `addr`, each keeping `depth`
/// requests in flight and sending the next as each reply lands, until
/// `window` closes; then drain.  Connection `t` sends ids
/// `first + t, first + t + conns, ...`.
pub fn closed_loop(
    addr: &str,
    mix: &Mix,
    first: u64,
    conns: usize,
    depth: usize,
    window: Duration,
    trace: bool,
) -> Result<Phase, String> {
    assert!((1..=2).contains(&conns), "at most two connections");
    let streams = (0..conns)
        .map(|_| connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let epoch = Instant::now();
    let stride = conns as u64;
    let run = |t: usize, stream: &TcpStream| -> Part {
        let mut part = Part::new(trace);
        let mut writer = stream;
        let mut reader = BufReader::new(stream);
        let first = first + t as u64;
        let send = |part: &mut Part, writer: &mut &TcpStream| -> bool {
            let id = first + part.sent.len() as u64 * stride;
            let line = mix.request(id).line(id);
            let sent_ns = ns_since(epoch);
            part.sent.push(Sent {
                id,
                due_ns: sent_ns,
                sent_ns,
            });
            let ok = writer.write_all(line.as_bytes()).is_ok();
            if part.tracer.enabled {
                let end = ns_since(epoch);
                let root = Span::request_id(id);
                part.tracer.record("send", root + 1, root, id, sent_ns, end);
            }
            if part.request_lines.len() < LINE_SAMPLE {
                part.request_lines.push(line);
            }
            ok
        };
        let mut inflight = 0;
        for _ in 0..depth {
            if !send(&mut part, &mut writer) {
                part.transport_errors += 1;
                return part;
            }
            inflight += 1;
        }
        let mut line = Vec::new();
        while inflight > 0 {
            line.clear();
            match reader.read_until(b'\n', &mut line) {
                Ok(0) | Err(_) => {
                    part.transport_errors += 1;
                    break;
                }
                Ok(_) => {}
            }
            let recv_ns = ns_since(epoch);
            inflight -= 1;
            part.on_line(line.trim_ascii_end(), recv_ns, |p, id| {
                let k = (id.wrapping_sub(first) / stride) as usize;
                p.sent.get(k).map_or(recv_ns, |s| s.sent_ns)
            });
            if epoch.elapsed() < window {
                if !send(&mut part, &mut writer) {
                    part.transport_errors += 1;
                    break;
                }
                inflight += 1;
            }
        }
        part
    };
    let mut phase = Phase::new(epoch, window);
    let parts: Vec<Part> = std::thread::scope(|s| {
        let helper = (conns == 2).then(|| s.spawn(|| run(1, &streams[1])));
        let mine = run(0, &streams[0]);
        let mut parts = vec![mine];
        if let Some(h) = helper {
            parts.push(h.join().expect("closed-loop thread panicked"));
        }
        parts
    });
    for p in parts {
        phase.absorb(p);
    }
    Ok(phase)
}

/// The id and the fields the benchmark uses of one reply line, read
/// with the protocol's own client-side parser; `None` when the line does
/// not parse or carries no numeric id.
pub fn parse_reply(line: &[u8]) -> Option<(u64, Reply)> {
    let r = Response::parse(std::str::from_utf8(line).ok()?).ok()?;
    let id = r.id.as_deref()?.parse().ok()?;
    Some((
        id,
        Reply {
            ok: r.ok,
            status: r.status,
            value: if r.ok { r.value() } else { None },
            leaves: r.leaves(),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_parse_to_the_fields_the_benchmark_uses() {
        let ok = br#"{"ok":true,"id":"17","value":-42,"work":{"value":-42,"leaves":6359,"steps":0},"cached":false,"coalesced":false,"latency_us":512}"#;
        let (id, r) = parse_reply(ok).unwrap();
        assert_eq!(
            (id, r.ok, r.value, r.leaves),
            (17, true, Some(-42), Some(6359))
        );
        let shed = br#"{"ok":false,"id":"20","status":429,"code":"busy","error":"queue full","retry_after_ms":3}"#;
        let (_, r) = parse_reply(shed).unwrap();
        assert_eq!((r.ok, r.status, r.value), (false, 429, None));
        assert!(parse_reply(b"{\"ok\":true}").is_none());
        assert!(parse_reply(b"not json").is_none());
    }
}
