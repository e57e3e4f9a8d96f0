//! The span recorder of the traced run.
//!
//! A span is one timed call into a layer: a name, start and end (ns since
//! the recorder's epoch), the span that was open on the same thread when it
//! started (its parent; 0 for none), the request it belongs to, plus an
//! optional tag (e.g. the query plan's strategy) and a byte size (e.g. the
//! text a parse call read).  Spans are kept in memory while recording is on
//! and written out as JSON lines when the benchmark ends.
//!
//! [`span`] returns a guard whose [`Span::end`] gives the elapsed time
//! whether or not recording is on, so the untraced run times its
//! operations through the same calls and pays only for two clock reads.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Record {
    pub name: &'static str,
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u32,
    pub parent: u32,
    pub request: u64,
    pub bytes: u64,
}

impl Record {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

// `ENABLED` gates recording only; the records themselves are published
// through the mutex.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static RECORDS: Mutex<Vec<Record>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn since_epoch(at: Instant) -> u64 {
    at.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Turns recording on or off.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the request id stamped on spans this thread opens from now on.
pub fn set_request(request: u64) {
    REQUEST.with(|r| r.set(request));
}

/// An open span; see the module docs.
#[must_use = "a span measures until `end` is called"]
pub struct Span {
    name: &'static str,
    tag: &'static str,
    start: Instant,
    id: u32,
    parent: u32,
    bytes: u64,
    ended: bool,
}

/// Opens a span named `name` on this thread.
pub fn span(name: &'static str) -> Span {
    let start = Instant::now();
    let (id, parent) = if enabled() {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied().unwrap_or(0);
            open.push(id);
            parent
        });
        (id, parent)
    } else {
        (0, 0)
    };
    Span {
        name,
        tag: "",
        start,
        id,
        parent,
        bytes: 0,
        ended: false,
    }
}

impl Span {
    pub fn tag(&mut self, tag: &'static str) {
        self.tag = tag;
    }

    pub fn bytes(&mut self, bytes: u64) {
        self.bytes = bytes;
    }

    /// Closes the span (recording it when it was opened with recording on)
    /// and returns its duration.
    pub fn end(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        let end = Instant::now();
        self.ended = true;
        if self.id != 0 {
            OPEN.with(|open| {
                let mut open = open.borrow_mut();
                if let Some(pos) = open.iter().rposition(|&id| id == self.id) {
                    open.truncate(pos);
                }
            });
            let record = Record {
                name: self.name,
                tag: self.tag,
                start_ns: since_epoch(self.start),
                end_ns: since_epoch(end),
                id: self.id,
                parent: self.parent,
                request: REQUEST.with(Cell::get),
                bytes: self.bytes,
            };
            RECORDS
                .lock()
                .expect("span recorder poisoned by a panicking thread")
                .push(record);
        }
        end - self.start
    }
}

impl Drop for Span {
    // A span left open by an early return (`?`) still closes, so the open
    // stack never holds a dead parent.
    fn drop(&mut self) {
        if !self.ended {
            self.close();
        }
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A copy of every span recorded so far.
pub fn records() -> Vec<Record> {
    RECORDS
        .lock()
        .expect("span recorder poisoned by a panicking thread")
        .clone()
}

/// Writes every recorded span to `path` as JSON lines.
pub fn write_jsonl(path: &Path) -> std::io::Result<usize> {
    let records = records();
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for r in &records {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"request\":{},\"bytes\":{}}}",
            r.name, r.tag, r.start_ns, r.end_ns, r.id, r.parent, r.request, r.bytes
        )?;
    }
    out.flush()?;
    Ok(records.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent() {
        set_enabled(true);
        set_request(7);
        let outer = span("outer");
        let mut inner = span("inner");
        inner.tag("t");
        let inner_ms = ms(inner.end());
        let outer_ms = ms(outer.end());
        set_enabled(false);
        assert!(outer_ms >= inner_ms);
        let spans = records();
        let outer = spans.iter().find(|r| r.name == "outer").unwrap();
        let inner = spans.iter().find(|r| r.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.tag, "t");
        assert_eq!(outer.request, 7);
        // Recording off: the guard still times, but nothing is kept.
        let before = records().len();
        let _ = span("untraced").end();
        assert_eq!(records().len(), before);
    }
}
