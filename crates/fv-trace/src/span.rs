//! Span guards, the thread-local span stack, and the global collector.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Whether finished spans are appended to the global collector
/// (needed for Chrome-trace export).
static SPANS_ENABLED: AtomicBool = AtomicBool::new(false);
/// Whether span durations are recorded into `span.<name>.us`
/// histograms in the metrics registry.
static TIMING_ENABLED: AtomicBool = AtomicBool::new(false);
/// Monotonic span-id source, shared by all threads.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
/// Small integer thread-id source (`std::thread::ThreadId` has no
/// stable numeric form).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// The trace epoch: all span start times are microseconds since this
/// instant. Set once, the first time any span becomes active.
fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Finished spans awaiting [`take_spans`].
fn collector() -> &'static Mutex<Vec<SpanRecord>> {
    static COLLECTOR: OnceLock<Mutex<Vec<SpanRecord>>> = OnceLock::new();
    COLLECTOR.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    /// Ids of the currently-open spans on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// This thread's small integer id, assigned on first use.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Enables or disables collection of full span records.
pub fn set_spans_enabled(on: bool) {
    if on {
        epoch();
    }
    SPANS_ENABLED.store(on, Ordering::Relaxed);
}

/// Returns whether span records are being collected.
pub fn spans_enabled() -> bool {
    SPANS_ENABLED.load(Ordering::Relaxed)
}

/// Enables or disables span-duration histograms (`span.<name>.us`).
pub fn set_timing_enabled(on: bool) {
    if on {
        epoch();
    }
    TIMING_ENABLED.store(on, Ordering::Relaxed);
}

/// Returns whether span-duration histograms are being recorded.
pub fn timing_enabled() -> bool {
    TIMING_ENABLED.load(Ordering::Relaxed)
}

/// Drains and returns every span finished since the last call.
/// Records appear in completion order (inner spans before the outer
/// spans that contain them).
pub fn take_spans() -> Vec<SpanRecord> {
    std::mem::take(&mut *collector().lock().unwrap())
}

/// A typed span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Boolean.
    Bool(bool),
    /// Owned string.
    Str(String),
}

macro_rules! attr_from {
    ($($t:ty => $variant:ident as $cast:ty),* $(,)?) => {$(
        impl From<$t> for AttrValue {
            fn from(v: $t) -> AttrValue {
                AttrValue::$variant(v as $cast)
            }
        }
    )*};
}

attr_from! {
    u64 => U64 as u64,
    u32 => U64 as u64,
    usize => U64 as u64,
    i64 => I64 as i64,
    i32 => I64 as i64,
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> AttrValue {
        AttrValue::Bool(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> AttrValue {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> AttrValue {
        AttrValue::Str(v)
    }
}

/// One finished span, as drained by [`take_spans`].
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Process-unique span id.
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Span name (static, dotted: `sat.solve`, `serve.job`).
    pub name: &'static str,
    /// Small integer id of the recording thread.
    pub tid: u64,
    /// Start time, microseconds since the trace epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Typed attributes, in the order they were attached.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRecord {
    /// The string attribute `key`, if the span has one.
    pub fn str_attr(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find_map(|(k, v)| match v {
            AttrValue::Str(s) if *k == key => Some(s.as_str()),
            _ => None,
        })
    }
}

/// The live half of an active span guard.
struct ActiveSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
    attrs: Vec<(&'static str, AttrValue)>,
    /// Whether a full record goes to the collector on drop (captured
    /// at entry so enable flips mid-span cannot unbalance the stack).
    collect: bool,
}

/// RAII guard for one span. Created by [`crate::span!`]; the span
/// closes when the guard drops. Guards on one thread must drop in
/// LIFO order (the natural order for scope-bound `let` bindings).
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// Opens a span named `name`. Inert (one relaxed atomic load)
    /// unless span collection or timing is enabled.
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        let collect = SPANS_ENABLED.load(Ordering::Relaxed);
        if !collect && !TIMING_ENABLED.load(Ordering::Relaxed) {
            return SpanGuard { active: None };
        }
        SpanGuard::enter_active(name, collect)
    }

    #[inline(never)]
    fn enter_active(name: &'static str, collect: bool) -> SpanGuard {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.last().copied();
            stack.push(id);
            parent
        });
        SpanGuard {
            active: Some(ActiveSpan {
                id,
                parent,
                name,
                start: Instant::now(),
                attrs: Vec::new(),
                collect,
            }),
        }
    }

    /// Attaches one typed attribute. A no-op on an inert guard.
    #[inline]
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(active) = self.active.as_mut() {
            active.attrs.push((key, value.into()));
        }
    }

    /// Returns whether this guard is actually recording (tracing was
    /// enabled when it was created).
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let dur_us = active.start.elapsed().as_micros() as u64;
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // LIFO discipline: the innermost open span is this one.
            // Be tolerant of misuse (out-of-order drops) rather than
            // panicking inside a destructor.
            if stack.last() == Some(&active.id) {
                stack.pop();
            } else if let Some(pos) = stack.iter().rposition(|&id| id == active.id) {
                stack.remove(pos);
            }
        });
        if TIMING_ENABLED.load(Ordering::Relaxed) {
            crate::metrics::observe_span_us(active.name, dur_us);
        }
        if active.collect {
            let start_us = active
                .start
                .duration_since(*epoch())
                .as_micros()
                .min(u128::from(u64::MAX)) as u64;
            let record = SpanRecord {
                id: active.id,
                parent: active.parent,
                name: active.name,
                tid: TID.with(|t| *t),
                start_us,
                dur_us,
                attrs: active.attrs,
            };
            collector().lock().unwrap().push(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Span tests share process-global state, so they run under one
    /// lock to avoid interleaving with each other.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _serial = serial();
        set_spans_enabled(false);
        set_timing_enabled(false);
        let _ = take_spans();
        {
            let mut g = crate::span!("quiet", n = 3u64);
            assert!(!g.is_active());
            g.attr("late", "ignored");
        }
        assert!(take_spans().is_empty());
    }

    #[test]
    fn timed_spans_land_in_the_snapshot_under_their_name() {
        let _serial = serial();
        set_timing_enabled(true);
        for _ in 0..3 {
            let _timed = crate::span!("test.span.timed");
        }
        set_timing_enabled(false);
        let snap = crate::metrics::snapshot();
        let hist = &snap.histograms["span.test.span.timed.us"];
        assert_eq!(hist.count, 3);
        assert_eq!(hist.buckets.iter().sum::<u64>(), 3);
    }

    #[test]
    fn nesting_links_parents_within_a_thread() {
        let _serial = serial();
        set_spans_enabled(true);
        let _ = take_spans();
        {
            let _outer = crate::span!("outer", depth = 0u64);
            {
                let _inner = crate::span!("inner", kind = "leaf");
            }
            let _sibling = crate::span!("sibling");
        }
        set_spans_enabled(false);
        let spans = take_spans();
        assert_eq!(spans.len(), 3);
        // Completion order: inner, sibling, outer.
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let sibling = spans.iter().find(|s| s.name == "sibling").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(sibling.parent, Some(outer.id));
        assert_eq!(inner.attrs, vec![("kind", AttrValue::Str("leaf".into()))]);
        assert!(outer.dur_us >= inner.dur_us);
        assert!(outer.start_us <= inner.start_us);
    }

    #[test]
    fn parallel_threads_get_independent_stacks() {
        let _serial = serial();
        set_spans_enabled(true);
        let _ = take_spans();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let _root = crate::span!("root");
                    let _leaf = crate::span!("leaf");
                });
            }
        });
        set_spans_enabled(false);
        let spans = take_spans();
        assert_eq!(spans.len(), 8);
        for leaf in spans.iter().filter(|s| s.name == "leaf") {
            let root = spans
                .iter()
                .find(|s| Some(s.id) == leaf.parent)
                .expect("leaf has a parent");
            assert_eq!(root.name, "root");
            assert_eq!(root.tid, leaf.tid, "parent links stay on-thread");
        }
    }
}
