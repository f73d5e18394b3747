//! In-memory span recorder for the traced run.
//!
//! Every span carries its name, start, end, parent span and iteration
//! id. Spans stay in memory until the run ends; [`take`] hands them to
//! the accounting in `main.rs`, which also writes them out as JSONL.
//! With recording off, [`span`] is a plain call and records nothing,
//! which is what the untraced iterations of the overhead comparison use.

use std::cell::RefCell;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub iteration: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Recorder {
    epoch: Instant,
    enabled: bool,
    iteration: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        enabled: false,
        iteration: 0,
        spans: Vec::new(),
        stack: Vec::new(),
    });
}

/// Turn recording on or off for the spans that follow.
pub fn set_enabled(on: bool) {
    RECORDER.with(|r| r.borrow_mut().enabled = on);
}

/// Tag the spans that follow with iteration `id`.
pub fn set_iteration(id: u64) {
    RECORDER.with(|r| r.borrow_mut().iteration = id);
}

/// Run `f` inside a span called `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return None;
        }
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        let index = r.spans.len();
        let span = Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: r.stack.last().copied(),
            iteration: r.iteration,
        };
        r.spans.push(span);
        r.stack.push(index);
        Some(index)
    });
    let out = f();
    if let Some(index) = index {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let end_ns = r.epoch.elapsed().as_nanos() as u64;
            r.spans[index].end_ns = end_ns;
            r.stack.pop();
        });
    }
    out
}

/// Remove and return every span recorded so far.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Self time of each span: its duration minus the durations of its
/// direct children (children never outlive their parent here, since
/// spans are strictly nested on one thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Spans as JSON lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"iteration\":{}}}\n",
            s.name, s.start_ns, s.end_ns, s.iteration
        ));
    }
    out
}
