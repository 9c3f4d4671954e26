//! In-memory span recorder and the small statistics and JSON helpers the
//! workloads share.
//!
//! Spans are recorded around calls from the benchmark into a layer's
//! public functions — never inside the program — and written out once
//! the run ends. When tracing is off, nothing is recorded.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Records spans when `on`; a no-op recorder otherwise.
pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span (if recording) and returns its id.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.ns(Instant::now());
        }
    }

    /// Times `f`, recording it as a span named `name` under `parent`
    /// when tracing is on. Returns the result and the elapsed seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        if self.on {
            let (start_ns, end_ns) = (self.ns(t0), self.ns(t1));
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                request,
            });
        }
        (out, t1.duration_since(t0).as_secs_f64())
    }

    /// Per span name: (spans, total seconds, self seconds). A span's
    /// self time is its duration minus the time its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 * 1e-9;
            e.2 += dur.saturating_sub(c) as f64 * 1e-9;
        }
        out
    }

    /// The spans as JSON lines: name, start, end, parent, request.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.request
            );
        }
        s
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of `xs`; 0 when empty.
pub fn pct(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Minimal JSON value for the result and detail lines.
pub enum J {
    Num(f64),
    Int(i64),
    Bool(bool),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl Default for J {
    fn default() -> J {
        J::obj()
    }
}

impl J {
    pub fn obj() -> J {
        J::Obj(Vec::new())
    }

    /// Appends `key: value` to an object (panics on non-objects: a bug).
    pub fn put(&mut self, key: impl Into<String>, value: J) -> &mut J {
        match self {
            J::Obj(kv) => kv.push((key.into(), value)),
            _ => panic!("J::put on a non-object"),
        }
        self
    }

    pub fn render(&self, out: &mut String) {
        match self {
            J::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            J::Num(_) => out.push_str("null"),
            J::Int(i) => {
                let _ = write!(out, "{i}");
            }
            J::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            J::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            J::Arr(xs) => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    x.render(out);
                }
                out.push(']');
            }
            J::Obj(kv) => {
                out.push('{');
                for (i, (k, v)) in kv.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    J::Str(k.clone()).render(out);
                    out.push(':');
                    v.render(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for J {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.render(&mut s);
        f.write_str(&s)
    }
}

/// Content digest of generated inputs (strings by content, not interner
/// id): the same seed must give the same digest, another seed another.
pub struct Digest(std::collections::hash_map::DefaultHasher);

impl Digest {
    pub fn new() -> Digest {
        Digest(std::collections::hash_map::DefaultHasher::new())
    }

    pub fn row(&mut self, relation: &str, values: impl Iterator<Item = dynamite_instance::Value>) {
        use std::hash::Hash;
        relation.hash(&mut self.0);
        for v in values {
            v.to_stable_bits().hash(&mut self.0);
        }
    }

    pub fn db(&mut self, db: &dynamite_instance::Database) {
        for (name, rel) in db.iter() {
            for row in rel.iter() {
                self.row(name, row.iter());
            }
        }
    }

    pub fn hex(&self) -> String {
        use std::hash::Hasher;
        format!("{:016x}", self.0.finish())
    }
}
