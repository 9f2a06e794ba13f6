//! Output plumbing: a tiny JSON object writer, coarse spans exported as
//! Perfetto (Chrome trace-event) JSON, and the process peak RSS.

use std::fmt::Write as _;
use std::time::{SystemTime, UNIX_EPOCH};

use coaxial_gateway::json::escape;

/// Builds one flat JSON object, keys in insertion order.
#[derive(Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    fn key(&mut self, k: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        let _ = write!(self.body, "\"{}\":", escape(k));
    }

    pub fn num(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        // `{v:?}` round-trips every digit; JSON has no NaN/inf.
        if v.is_finite() {
            let _ = write!(self.body, "{v:?}");
        } else {
            self.body.push_str("null");
        }
        self
    }

    pub fn int(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.body, "{v}");
        self
    }

    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        let _ = write!(self.body, "{v}");
        self
    }

    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        let _ = write!(self.body, "\"{}\"", escape(v));
        self
    }

    /// Insert pre-rendered JSON (an array or object) under `k`.
    pub fn raw(mut self, k: &str, json: &str) -> Self {
        self.key(k);
        self.body.push_str(json);
        self
    }

    /// Append every field of `other`.
    pub fn merge(mut self, other: Obj) -> Self {
        if !other.body.is_empty() {
            if !self.body.is_empty() {
                self.body.push(',');
            }
            self.body.push_str(&other.body);
        }
        self
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// `[a,b,...]` from pre-rendered JSON items.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let items: Vec<String> = items.into_iter().collect();
    format!("[{}]", items.join(","))
}

/// Microseconds since the Unix epoch: a clock every process agrees on, so
/// spans from child processes line up with the parent's.
pub fn epoch_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
}

/// One coarse span: workload, pass, run, prefill/loop, or serve request.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
}

impl Span {
    pub fn to_json(&self) -> String {
        Obj::default()
            .int("id", self.id)
            .int("parent", self.parent)
            .str("name", &self.name)
            .int("start_us", self.start_us)
            .int("end_us", self.end_us)
            .finish()
    }
}

/// Collects spans in memory; ids are unique within one recorder. Child
/// processes get disjoint id ranges (`base`), so merged spans never clash.
pub struct Spans {
    next: u64,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(base: u64) -> Self {
        Self { next: base + 1, spans: Vec::new() }
    }

    /// Record a finished span and return its id (a parent for later spans).
    pub fn add(&mut self, parent: u64, name: impl Into<String>, start_us: u64, end_us: u64) -> u64 {
        let id = self.next;
        self.next += 1;
        self.spans.push(Span { id, parent, name: name.into(), start_us, end_us });
        id
    }

    /// Perfetto-loadable trace: one complete ("X") event per span, one
    /// track per nesting depth so children draw under their parents.
    pub fn to_perfetto(&self) -> String {
        let depth_of = |s: &Span| {
            let (mut d, mut parent) = (0u64, s.parent);
            while let Some(p) = self.spans.iter().find(|p| p.id == parent) {
                d += 1;
                parent = p.parent;
            }
            d
        };
        let events = self.spans.iter().map(|s| {
            let args = Obj::default().int("id", s.id).int("parent", s.parent).finish();
            Obj::default()
                .str("name", &s.name)
                .str("ph", "X")
                .int("ts", s.start_us)
                .int("dur", s.end_us.saturating_sub(s.start_us))
                .int("pid", 1)
                .int("tid", depth_of(s))
                .raw("args", &args)
                .finish()
        });
        format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":{}}}\n", array(events))
    }
}

/// Peak resident set (`VmHWM`) of this process in MB; 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
