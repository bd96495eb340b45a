//! In-memory spans around the benchmark's calls into each layer.
//!
//! Every call the benchmark makes into a layer's public API goes through
//! [`Tracer::span`], which always returns the call's host seconds (the
//! untraced run needs them for end-to-end metrics). With tracing on, the
//! tracer also keeps a span — name, start, end, parent — plus numeric
//! attributes read from what the call returned (counters, reports).
//! Per-layer metrics are derived from those spans alone. Spans stay in
//! memory until the run ends and never enter the program's own `Trace`.
//!
//! Host seconds are CPU seconds of the whole process ([`cpu_s`]). On a
//! shared host, wall-clock also counts the time the machine runs someone
//! else: back-to-back runs of the same inputs differed by up to 40% in
//! wall-clock where their CPU seconds agreed within a few percent. Start
//! and end stay on the wall clock, so a trace still reads as a timeline.

use spinfer_obs::json::Value;
use std::cell::RefCell;
use std::time::Instant;

/// CPU seconds this process has run, summed over all its threads,
/// finished ones included (`CLOCK_PROCESS_CPUTIME_ID`, Linux).
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` has the layout of `struct timespec` on 64-bit Linux
    // and stays live and writable for the whole call, which writes only
    // into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock exists on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// One recorded layer call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Wall-clock start and end, from the tracer's creation.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Host CPU seconds of the call.
    pub cpu_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    /// Host (CPU) seconds of the call.
    pub fn secs(&self) -> f64 {
        self.cpu_s
    }

    /// The named attribute; a missing one is a bug in the recording site.
    pub fn attr(&self, key: &str) -> f64 {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("span {} has no attribute {key}", self.name))
    }
}

/// Span recorder; a disabled tracer only times calls.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Times `f`; see [`Self::span_with`].
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.span_with(name, f, |_| Vec::new())
    }

    /// Times `f` and returns its result with its host seconds. When
    /// tracing, records a span under the innermost open span carrying
    /// the attributes `attrs` reads from the result.
    pub fn span_with<T>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> T,
        attrs: impl FnOnce(&T) -> Vec<(&'static str, f64)>,
    ) -> (T, f64) {
        if !self.enabled {
            let c0 = cpu_s();
            let out = f();
            return (out, cpu_s() - c0);
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                cpu_s: 0.0,
                parent: self.open.borrow().last().copied(),
                attrs: Vec::new(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let start = self.epoch.elapsed();
        let c0 = cpu_s();
        let out = f();
        let cpu = cpu_s() - c0;
        let end = self.epoch.elapsed();
        self.open.borrow_mut().pop();
        let attrs = attrs(&out);
        let mut spans = self.spans.borrow_mut();
        let span = &mut spans[idx];
        span.start_ns = start.as_nanos() as u64;
        span.end_ns = end.as_nanos() as u64;
        span.cpu_s = cpu;
        span.attrs = attrs;
        (out, cpu)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Spans named `name`, in recording order.
pub fn named<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
    spans.iter().filter(move |s| s.name == name)
}

/// The last span named `name`; its absence is a bug in the recording site.
pub fn last<'a>(spans: &'a [Span], name: &str) -> &'a Span {
    spans
        .iter()
        .rev()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no span named {name}"))
}

/// Spans as a JSON array, written once when the run ends.
pub fn to_json(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .map(|s| {
                let attrs = s
                    .attrs
                    .iter()
                    .fold(Value::obj(), |o, &(k, v)| o.set(k, Value::Num(v)));
                Value::obj()
                    .set("name", Value::Str(s.name.to_string()))
                    .set("start_ns", Value::Num(s.start_ns as f64))
                    .set("end_ns", Value::Num(s.end_ns as f64))
                    .set("cpu_s", Value::Num(s.cpu_s))
                    .set(
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    )
                    .set("attrs", attrs)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_attrs() {
        let tr = Tracer::new(true);
        let (v, _) = tr.span("outer", || {
            tr.span_with("inner", || 7u32, |&x| vec![("x", f64::from(x))])
                .0
        });
        assert_eq!(v, 7);
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].attr("x"), 7.0);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let tr = Tracer::new(false);
        let (x, secs) = tr.span("call", || {
            (0..2_000_000u64).map(std::hint::black_box).sum::<u64>()
        });
        assert!(x > 0 && secs > 0.0);
        assert!(tr.into_spans().is_empty());
    }
}
