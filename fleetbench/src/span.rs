//! The driver's own spans: name, start, end, parent, and the request
//! they belong to.  They are kept in memory during a traced run and
//! written out once it ends; an untraced run records nothing.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// The request id every span of one request shares (0 for layer
    /// probes that are not requests).
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// The span id of request `req`'s root span; its children take the
    /// next few ids.
    pub fn request_id(req: u64) -> u64 {
        (req + 1) * 4
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span ids for probe spans start above any request's ids.
const PROBE_IDS: u64 = 1 << 62;

pub struct Tracer {
    pub enabled: bool,
    pub spans: Vec<Span>,
    next_probe: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            spans: Vec::new(),
            next_probe: PROBE_IDS,
        }
    }

    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u64,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                id,
                parent,
                req,
                start_ns,
                end_ns,
            });
        }
    }

    /// Time `f` as a probe span named `name` under `parent`; returns
    /// its result and the span id.
    pub fn probe<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        epoch: Instant,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = epoch.elapsed().as_nanos() as u64;
        self.next_probe += 1;
        let id = self.next_probe;
        self.spans.push(Span {
            name,
            id,
            parent,
            req: 0,
            start_ns: start,
            end_ns: end,
        });
        (out, id)
    }

    /// Durations in µs of the spans named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
