//! In-memory span recorder.
//!
//! The benchmark wraps every call it makes into a layer's public
//! functions in [`span`]. With recording off (the end-to-end runs) a
//! span is a thread-local flag test and a direct call; with it on,
//! each span records its name, on-CPU start and end, the span that
//! was open around it, and the pass it belongs to. Everything runs on
//! one thread, so spans nest strictly and a parent's children never
//! overlap.

use std::cell::RefCell;

use vr_obs::Json;

use crate::clock;

/// One recorded span. Times are on-CPU nanoseconds ([`clock::now`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `"campaign.key"`.
    pub name: &'static str,
    /// The pass (set-up, warm-up or timed pass) the span belongs to.
    pub pass: u32,
    /// Start, on-CPU ns.
    pub start: u64,
    /// End, on-CPU ns.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in ns.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

#[derive(Default)]
struct Recorder {
    on: bool,
    pass: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::default();
}

/// Turns recording on or off for the spans that follow, and names the
/// pass they belong to.
pub fn record(on: bool, pass: u32) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = on;
        r.pass = pass;
    });
}

/// Runs `f` inside a span named `name` (recorded only while recording
/// is on).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let id = r.spans.len();
        let (pass, parent) = (r.pass, r.open.last().copied());
        r.spans.push(Span { name, pass, start: clock::now().cpu, end: 0, parent });
        r.open.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = id {
        let end = clock::now().cpu;
        REC.with(|r| {
            let mut r = r.borrow_mut();
            r.spans[id].end = end;
            r.open.pop();
        });
    }
    out
}

/// Every span recorded so far, in start order.
pub fn spans() -> Vec<Span> {
    REC.with(|r| r.borrow().spans.clone())
}

/// Self time of each span: its duration minus the time its children
/// cover. Children of one parent run one after another on one thread,
/// so the time they cover is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration());
        }
    }
    own
}

/// Self time (ns) and span count per name prefix over the spans of one
/// pass. `prefix` matches a whole dotted component chain:
/// `"core.run"` matches `core.run` and `core.run.VR`, never
/// `core.runner`.
pub fn layer_time(spans: &[Span], own: &[u64], pass: u32, prefix: &str) -> (u64, u64) {
    spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.pass == pass && has_prefix(s.name, prefix))
        .fold((0, 0), |(ns, n), (_, &o)| (ns + o, n + 1))
}

fn has_prefix(name: &str, prefix: &str) -> bool {
    name.strip_prefix(prefix).is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
}

/// The spans as a JSON array (what the trace file holds).
pub fn to_json(spans: &[Span], own: &[u64]) -> Json {
    Json::Arr(
        spans
            .iter()
            .zip(own)
            .map(|(s, &o)| {
                Json::Obj(vec![
                    ("name".into(), Json::from(s.name)),
                    ("pass".into(), Json::U64(u64::from(s.pass))),
                    ("start_ns".into(), Json::U64(s.start)),
                    ("end_ns".into(), Json::U64(s.end)),
                    ("parent".into(), s.parent.map_or(Json::Null, Json::from)),
                    ("self_ns".into(), Json::U64(o)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, pass: 0, start, end, parent }
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        // pass [0,100) ⊃ campaign.run [10,80) ⊃ key [20,30), load [40,70) ⊃ key [50,55)
        let spans = vec![
            s("pass", 0, 100, None),
            s("campaign.run", 10, 80, Some(0)),
            s("campaign.key", 20, 30, Some(1)),
            s("campaign.load", 40, 70, Some(1)),
            s("campaign.key", 50, 55, Some(3)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![30, 30, 10, 25, 5]);
        // Self times partition the root span exactly.
        assert_eq!(own.iter().sum::<u64>(), spans[0].duration());
        assert_eq!(layer_time(&spans, &own, 0, "campaign.key"), (15, 2));
        assert_eq!(layer_time(&spans, &own, 0, "campaign"), (70, 4));
    }

    #[test]
    fn prefixes_match_whole_components() {
        assert!(has_prefix("core.run.VR", "core.run"));
        assert!(has_prefix("core.run", "core.run"));
        assert!(!has_prefix("core.runner", "core.run"));
        assert!(!has_prefix("core.new", "core.run"));
    }

    #[test]
    fn recorder_nests_spans_and_skips_them_when_off() {
        record(true, 7);
        let v = span("outer", || span("inner", || 41) + 1);
        record(false, 8);
        span("ignored", || ());
        let got = spans();
        assert_eq!(v, 42);
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].name, got[0].parent, got[0].pass), ("outer", None, 7));
        assert_eq!((got[1].name, got[1].parent), ("inner", Some(0)));
        assert!(got[0].start <= got[1].start && got[1].end <= got[0].end);
    }
}
