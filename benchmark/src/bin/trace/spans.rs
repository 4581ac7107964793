//! Spans kept in memory and written out when the run ends.
//!
//! A span is `{name, request_id, parent, start_ns, end_ns}`; spans of
//! one request share its id, `parent` is the index of the span at the
//! next-outer depth (or -1), and a layer's self time is its span minus
//! the part its children cover. The layers are timed from outside —
//! the benchmark's own files call each layer's public functions — so
//! one request is *replayed* once per depth and a child span starts
//! after its parent ended; `start_ns`/`end_ns` are when the replay ran.

use smartstore_benchmark::clock;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Span {
    name: u16,
    request: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    /// While off, [`Tracer::time`] still runs and times its closure
    /// but keeps no span (replays that only keep state in step).
    enabled: bool,
    names: Vec<&'static str>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: clock::now(),
            enabled: true,
            names: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn name_index(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    /// Records a span measured elsewhere (the socket exchange).
    pub fn record(
        &mut self,
        name: &'static str,
        request: u32,
        parent: u32,
        start: Instant,
        duration_ns: u64,
    ) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let name = self.name_index(name);
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns + duration_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Times `f` as a span; returns its result, the span's index and
    /// its duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: u32,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> (R, u32, u64) {
        let start = clock::now();
        let out = f();
        let ns = clock::ns_since(start);
        let id = self.record(name, request, parent, start, ns);
        (out, id, ns)
    }

    /// `{"fields": [...], "names": [...], "spans": [[name, request_id,
    /// parent, start_ns, end_ns], ...]}` — `name` indexes `names`.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"fields\":[\"name\",\"request_id\",\"parent\",\"start_ns\",\"end_ns\"],\"names\":["
        )?;
        for (i, n) in self.names.iter().enumerate() {
            write!(out, "{}\"{n}\"", if i > 0 { "," } else { "" })?;
        }
        write!(out, "],\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            write!(
                out,
                "{}\n[{},{},{},{},{}]",
                if i > 0 { "," } else { "" },
                s.name,
                s.request,
                parent,
                s.start_ns,
                s.end_ns
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}
