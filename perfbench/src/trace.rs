//! The benchmark's own in-memory spans, recorded around the calls it makes
//! into each layer's public functions.
//!
//! These are deliberately not `puf_telemetry` names: the program's
//! telemetry registry is checked by its lint, and the benchmark must not
//! widen it. A span holds its name, start, end, parent span (the span open
//! on the same thread when it began), the session it belongs to, and a
//! unit count (challenges, rows, events) for per-unit figures.
//!
//! Recording is off unless [`set_enabled`] turned it on; off, a span is
//! one relaxed atomic load around the call.

use puf_core::Challenge;
use puf_protocol::{Channel, Delivery, ProtocolError, Responder};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique id, in opening order.
    pub id: u32,
    /// Layer call name, e.g. `service.tick`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// The span open on the same thread when this one began.
    pub parent: Option<u32>,
    /// Session uid the work belongs to (0 when none).
    pub session: u64,
    /// Work units the call covered (challenges, rows, events…).
    pub units: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(0);
/// Spans in fixed-size chunks, so recording never copies what it holds.
static SPANS: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());
const CHUNK: usize = 1 << 16;

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Nanoseconds since the recorder's origin.
pub fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

/// Turns span recording on or off.
pub fn set_enabled(on: bool) {
    origin();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<Span> {
    let chunks = std::mem::take(&mut *SPANS.lock().expect("span buffer lock"));
    chunks.into_iter().flatten().collect()
}

/// Runs `f` inside a span named `name` covering `units` units of work.
pub fn span<T>(name: &'static str, session: u64, units: u64, f: impl FnOnce() -> T) -> T {
    span_counted(name, session, || (f(), units))
}

/// Runs `f` inside a span named `name`; `f` also returns the units of
/// work it covered.
pub fn span_counted<T>(name: &'static str, session: u64, f: impl FnOnce() -> (T, u64)) -> T {
    if !enabled() {
        return f().0;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    let start_ns = now_ns();
    let (out, units) = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    let mut chunks = SPANS.lock().expect("span buffer lock");
    if chunks.last().is_none_or(|c| c.len() == CHUNK) {
        chunks.push(Vec::with_capacity(CHUNK));
    }
    if let Some(chunk) = chunks.last_mut() {
        chunk.push(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            session,
            units,
        });
    }
    out
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self time: duration minus the part covered by child spans.
    pub self_ns: u64,
    /// Summed unit counts.
    pub units: u64,
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Totals per span name. Self time subtracts the union of a span's
/// children, so children that overlap (on other threads) are counted once.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns() - covered.min(s.dur_ns());
        t.units += s.units;
    }
    out
}

/// Share of `[lo, hi)` covered by root spans (spans with no parent).
pub fn root_coverage(spans: &[Span], lo: u64, hi: u64) -> f64 {
    let mut roots: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    covered_ns(&mut roots, lo, hi) as f64 / hi.saturating_sub(lo).max(1) as f64
}

/// A device-side [`Responder`] wrapped in spans named `name`, one unit
/// per challenge answered.
#[derive(Debug)]
pub struct TracedResponder<R> {
    /// The wrapped device.
    pub inner: R,
    /// The session it answers for.
    pub session: u64,
    /// Span name.
    pub name: &'static str,
}

impl<R: Responder> Responder for TracedResponder<R> {
    fn respond(&mut self, challenges: &[Challenge]) -> Vec<bool> {
        let inner = &mut self.inner;
        span(self.name, self.session, challenges.len() as u64, || {
            inner.respond(challenges)
        })
    }

    fn try_respond(&mut self, challenges: &[Challenge]) -> Result<Vec<bool>, ProtocolError> {
        let inner = &mut self.inner;
        span(self.name, self.session, challenges.len() as u64, || {
            inner.try_respond(challenges)
        })
    }
}

/// A transport [`Channel`] wrapped in `faults.transmit` spans. The span's
/// unit count is 1 for a delivered frame and 0 otherwise.
#[derive(Debug)]
pub struct TracedChannel<C> {
    /// The wrapped channel.
    pub inner: C,
    /// The session it carries.
    pub session: u64,
}

impl<C: Channel> Channel for TracedChannel<C> {
    fn transmit(&mut self, response: Vec<bool>) -> Delivery {
        let inner = &mut self.inner;
        span_counted("faults.transmit", self.session, || {
            let d = inner.transmit(response);
            let delivered = u64::from(matches!(d, Delivery::Delivered(_)));
            (d, delivered)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u32, name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            session: 0,
            units: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // tick [0,100) ⊃ respond [10,30) ⊃ inner [12,20); transmit [40,50).
        let spans = [
            s(0, "tick", 0, 100, None),
            s(1, "respond", 10, 30, Some(0)),
            s(2, "inner", 12, 20, Some(1)),
            s(3, "transmit", 40, 50, Some(0)),
        ];
        let t = totals(&spans);
        assert_eq!(t["tick"].total_ns, 100);
        assert_eq!(t["tick"].self_ns, 70);
        assert_eq!(t["respond"].self_ns, 12);
        assert_eq!(t["inner"].self_ns, 8);
        assert_eq!(t["transmit"].self_ns, 10);
        let self_sum: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(self_sum, 100, "self times partition the root span");
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two worker spans under one parent overlap on [30,60).
        let spans = [
            s(0, "fanout", 0, 100, None),
            s(1, "work", 10, 60, Some(0)),
            s(2, "work", 30, 90, Some(0)),
        ];
        assert_eq!(totals(&spans)["fanout"].self_ns, 20);
        assert!((root_coverage(&spans, 0, 200) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn recording_nests_by_thread_stack() {
        set_enabled(true);
        let before = take();
        drop(before);
        span("outer", 7, 0, || span("inner", 7, 3, || ()));
        set_enabled(false);
        span("ignored", 0, 0, || ());
        let spans: Vec<Span> = take().into_iter().filter(|s| s.session == 7).collect();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.units, 3);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
