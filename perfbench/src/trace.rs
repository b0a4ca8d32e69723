//! Span recording around the benchmark's calls into the program's layers.
//!
//! Spans are kept in memory on the recording thread and written out once,
//! as Chrome trace-event JSON, when the run ends. With tracing off a span
//! costs one thread-local flag read. A span's *self time* is its duration
//! minus the part of it covered by its child spans.
//!
//! The sensitivity self-check injects a fixed wait into one named span
//! (`--inject-wait <span>=<ms>`); the wait runs inside the span whether or
//! not tracing is on, so it lands in both the end-to-end and the per-layer
//! figures.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

#[derive(Default)]
struct Recorder {
    enabled: bool,
    epoch: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
    inject: Option<(String, Duration)>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Starts (or stops) recording on this thread; starting clears old spans.
pub fn set_enabled(enabled: bool) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.enabled = enabled;
        r.epoch = Some(Instant::now());
        r.spans.clear();
        r.open.clear();
    });
}

/// Makes every span named `name` wait `wait` before running its body.
pub fn set_injected_wait(name: &str, wait: Duration) {
    RECORDER.with(|r| r.borrow_mut().inject = Some((name.to_owned(), wait)));
}

/// Runs `f` inside a span named `name` (a `layer.function` label).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let (id, wait) = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let wait = match &r.inject {
            Some((n, w)) if n == name => Some(*w),
            _ => None,
        };
        if !r.enabled {
            return (None, wait);
        }
        let start = r.epoch.expect("epoch set with the flag").elapsed();
        let parent = r.open.last().copied();
        r.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        let id = r.spans.len() - 1;
        r.open.push(id);
        (Some(id), wait)
    });
    if let Some(wait) = wait {
        std::thread::sleep(wait);
    }
    let out = f();
    if let Some(id) = id {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let end = r.epoch.expect("epoch set with the flag").elapsed();
            r.spans[id].end = end;
            r.open.pop();
        });
    }
    out
}

/// Per-name totals of a finished recording.
#[derive(Default, Debug, Clone, Copy)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed durations.
    pub total: Duration,
    /// Summed self times.
    pub self_time: Duration,
}

/// What a finished recording adds up to.
pub struct Summary {
    /// Totals by span name.
    pub by_name: BTreeMap<&'static str, NameTotals>,
    /// Summed durations of the root spans (wall time covered by layers).
    pub root_total: Duration,
    /// The Chrome trace-event JSON document.
    pub chrome_json: String,
}

impl Summary {
    /// Self time of `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |t| t.self_time.as_secs_f64())
    }
}

/// Stops recording and summarizes the spans recorded since
/// [`set_enabled`]`(true)`.
pub fn finish() -> Summary {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.enabled = false;
        let spans = std::mem::take(&mut r.spans);
        let mut child_time = vec![Duration::ZERO; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        let mut root_total = Duration::ZERO;
        let mut json = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end - s.start;
            let self_time = dur.saturating_sub(child_time[i]);
            let t = by_name.entry(s.name).or_default();
            t.count += 1;
            t.total += dur;
            t.self_time += self_time;
            if s.parent.is_none() {
                root_total += dur;
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            if i > 0 {
                json.push(',');
            }
            let _ = write!(
                json,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"self_us\":{:.3}}}}}",
                s.name,
                layer,
                s.start.as_secs_f64() * 1e6,
                dur.as_secs_f64() * 1e6,
                self_time.as_secs_f64() * 1e6,
            );
        }
        json.push_str("]}\n");
        Summary {
            by_name,
            root_total,
            chrome_json: json,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        set_enabled(true);
        span("a.outer", || {
            std::thread::sleep(Duration::from_millis(5));
            span("b.inner", || std::thread::sleep(Duration::from_millis(10)));
        });
        let s = finish();
        let outer = s.by_name["a.outer"];
        let inner = s.by_name["b.inner"];
        assert!(outer.total >= inner.total + Duration::from_millis(5));
        assert!(outer.self_time < outer.total - Duration::from_millis(9));
        assert_eq!(s.root_total, outer.total);
        assert!(s.chrome_json.contains("\"name\":\"b.inner\""));
    }

    #[test]
    fn disabled_records_nothing_but_still_injects() {
        set_enabled(false);
        set_injected_wait("c.slow", Duration::from_millis(20));
        let t = Instant::now();
        span("c.slow", || ());
        assert!(t.elapsed() >= Duration::from_millis(20));
        RECORDER.with(|r| r.borrow_mut().inject = None);
        assert!(finish().by_name.is_empty());
    }
}
