//! The span recorder behind the traced run.
//!
//! A span is one call from the benchmark into a layer's public function:
//! name, start, end, the span that caused it, and the request it belongs
//! to. Spans are kept in memory and written out when the run ends. When
//! the tracer is disabled every method runs its closure and records
//! nothing, so an untraced run pays one relaxed load per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: u64,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Where a span sits: its own id and the request it serves. Handed to
/// worker threads so their spans attach to the caller's span.
#[derive(Debug, Clone, Copy)]
pub struct SpanCtx {
    id: u64,
    request: u64,
}

/// Per-layer totals derived from the spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static STACK: RefCell<Vec<SpanCtx>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Pops the span on drop, so a panicking call still closes its span.
struct Open<'t> {
    tracer: &'t Tracer,
    ctx: SpanCtx,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let span = Span {
            id: self.ctx.id,
            parent: self.parent,
            name: self.name,
            request: self.ctx.request,
            thread: THREAD.with(|t| *t),
            start_ns: self.start_ns,
            end_ns,
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(enabled),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &'static str, parent: Option<SpanCtx>, request: u64) -> Open<'_> {
        let ctx = SpanCtx {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            request: parent.map_or(request, |p| p.request),
        };
        STACK.with(|s| s.borrow_mut().push(ctx));
        Open {
            tracer: self,
            ctx,
            parent: parent.map(|p| p.id),
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Runs `f` as the root span of request `request`.
    pub fn request<R>(&self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled() {
            return f();
        }
        let _open = self.open(name, None, request);
        f()
    }

    /// Runs `f` as a child of the innermost open span on this thread.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled() {
            return f();
        }
        let parent = self.current();
        let _open = self.open(name, parent, 0);
        f()
    }

    /// The innermost open span on this thread.
    pub fn current(&self) -> Option<SpanCtx> {
        if !self.enabled() {
            return None;
        }
        STACK.with(|s| s.borrow().last().copied())
    }

    /// Runs `f` on this (worker) thread as if `parent` were open here.
    pub fn adopt<R>(&self, parent: Option<SpanCtx>, f: impl FnOnce() -> R) -> R {
        let Some(parent) = parent.filter(|_| self.enabled()) else {
            return f();
        };
        STACK.with(|s| s.borrow_mut().push(parent));
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                STACK.with(|s| {
                    s.borrow_mut().pop();
                });
            }
        }
        let _restore = Restore;
        f()
    }

    /// Adds `v` to counter `key` (traced runs only).
    pub fn add(&self, key: &'static str, v: f64) {
        if self.enabled() {
            if let Ok(mut c) = self.counters.lock() {
                *c.entry(key).or_insert(0.0) += v;
            }
        }
    }

    /// Raises counter `key` to at least `v` (traced runs only).
    pub fn max(&self, key: &'static str, v: f64) {
        if self.enabled() {
            if let Ok(mut c) = self.counters.lock() {
                let e = c.entry(key).or_insert(v);
                *e = e.max(v);
            }
        }
    }

    pub fn counters(&self) -> BTreeMap<&'static str, f64> {
        self.counters.lock().map(|c| c.clone()).unwrap_or_default()
    }

    /// Moves the recorded spans out of the tracer.
    pub fn take_spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .map(|mut s| std::mem::take(&mut *s))
            .unwrap_or_default()
    }

    /// Calls, busy time and self time per span name. Self time is a
    /// span's duration minus the part of it its children cover.
    pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for s in spans {
            let busy = s.end_ns.saturating_sub(s.start_ns);
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.busy_ns += busy;
            t.self_ns += busy.saturating_sub(covered);
        }
        out
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(covered_ns(&[(0, 10), (5, 20), (30, 40)], 0, 35), 25);
        let spans = vec![
            Span {
                id: 1,
                parent: None,
                name: "root",
                request: 1,
                thread: 0,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                parent: Some(1),
                name: "child",
                request: 1,
                thread: 0,
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                id: 3,
                parent: Some(1),
                name: "child",
                request: 1,
                thread: 1,
                start_ns: 30,
                end_ns: 60,
            },
        ];
        let layers = Tracer::layers(&spans);
        assert_eq!(layers["root"].self_ns, 50);
        assert_eq!(layers["child"].calls, 2);
        assert_eq!(layers["child"].busy_ns, 60);
    }

    #[test]
    fn nested_spans_link_to_their_parent_and_request() {
        let t = Tracer::new(true);
        t.request("req", 7, || t.span("inner", || ()));
        let spans = t.take_spans();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "req").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.request, 7);
        let off = Tracer::new(false);
        off.request("req", 1, || off.span("inner", || ()));
        assert!(off.take_spans().is_empty());
    }
}
