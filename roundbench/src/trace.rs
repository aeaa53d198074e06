//! In-memory spans recorded around calls into the program's layers.
//!
//! Every span carries a name, start and end (ns since the sink's epoch),
//! its parent span and the `(run, round)` it belongs to. A run is one
//! engine (one benchmark pass or one sweep trial); a round is one
//! `step_round` of it. Spans stay in memory until the benchmark ends and
//! are then written out as JSONL ([`SpanSink::write_jsonl`]).
//!
//! Phase boundaries are inferred from the first transport call of each
//! phase ([`RoundTrace::enter`]): the engine calls its transport in a fixed
//! order — recipients, uploads, server calls, broadcasts, drains, comm —
//! so the gaps between those calls are the engine's phases.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fedms_sim::CommStats;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the sink.
    pub id: u64,
    /// Layer-qualified name, e.g. `phase.train` or `transport.upload`.
    pub name: &'static str,
    /// Start, ns since the sink's epoch.
    pub start: u64,
    /// End, ns since the sink's epoch.
    pub end: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The engine this span belongs to.
    pub run: u32,
    /// The round of that engine.
    pub round: u32,
}

impl Span {
    /// Duration in ms.
    pub fn ms(&self) -> f64 {
        (self.end - self.start) as f64 / 1e6
    }
}

/// Counters observed at the transport boundary during one round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundCounters {
    /// First-copy deliveries: uploads that reached a server plus downlink
    /// deliveries that were not fault-injected duplicates.
    pub first_copies: u64,
    /// The round's communication counters, as the engine took them.
    pub comm: CommStats,
}

/// Thread-safe span store shared by every traced engine of a run.
#[derive(Debug)]
pub struct SpanSink {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    rounds: Mutex<Vec<RoundCounters>>,
}

impl Default for SpanSink {
    fn default() -> Self {
        SpanSink {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            rounds: Mutex::new(Vec::new()),
        }
    }
}

impl SpanSink {
    /// Nanoseconds since the sink was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span sink poisoned by a panicking thread").push(span);
    }

    /// Records a root-level span for `(run, round)` around `f`.
    pub fn time<T>(&self, name: &'static str, run: u32, round: u32, f: impl FnOnce() -> T) -> T {
        let (id, start) = (self.id(), self.now());
        let out = f();
        self.push(Span { id, name, start, end: self.now(), parent: None, run, round });
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned by a panicking thread").clone()
    }

    /// Every round's transport counters, in completion order.
    pub fn rounds(&self) -> Vec<RoundCounters> {
        self.rounds.lock().expect("span sink poisoned by a panicking thread").clone()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{},\"round\":{}}}",
                s.id, s.name, s.start, s.end, s.run, s.round
            )?;
        }
        out.flush()
    }
}

/// The engine phases in the order `step_round` runs them. `Pre` (threat
/// view and cohort draw) and `Post` (commit) are not recorded as spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Before the transport learns the round's recipients.
    Pre,
    /// Local training of the active clients.
    Train,
    /// Sparse upload.
    Upload,
    /// Per-server aggregation.
    Aggregate,
    /// Dissemination, including the B̂ estimator when it runs.
    Disseminate,
    /// Client-side filtering and the commit of the filtered models.
    Filter,
    /// After the engine took the round's comm counters.
    Post,
}

impl Stage {
    fn span_name(self) -> Option<&'static str> {
        match self {
            Stage::Train => Some("phase.train"),
            Stage::Upload => Some("phase.upload"),
            Stage::Aggregate => Some("phase.aggregate"),
            Stage::Disseminate => Some("phase.disseminate"),
            Stage::Filter => Some("phase.filter"),
            Stage::Pre | Stage::Post => None,
        }
    }
}

#[derive(Debug)]
struct RoundState {
    round: u32,
    round_span: u64,
    round_start: u64,
    stage: Stage,
    /// The open phase span: `(id, start)`.
    phase: Option<(u64, u64)>,
    counters: RoundCounters,
}

/// The tracing context of one engine: which round and phase it is in.
/// Shared by that engine's transport, rule and attack decorators.
#[derive(Debug)]
pub struct RoundTrace {
    sink: Arc<SpanSink>,
    run: u32,
    state: Mutex<RoundState>,
}

impl RoundTrace {
    /// A context for engine `run`, recording into `sink`.
    pub fn new(sink: Arc<SpanSink>, run: u32) -> Arc<Self> {
        Arc::new(RoundTrace {
            sink,
            run,
            state: Mutex::new(RoundState {
                round: 0,
                round_span: 0,
                round_start: 0,
                stage: Stage::Post,
                phase: None,
                counters: RoundCounters::default(),
            }),
        })
    }

    /// The sink this context records into.
    pub fn sink(&self) -> &Arc<SpanSink> {
        &self.sink
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RoundState> {
        self.state.lock().expect("round trace poisoned by a panicking thread")
    }

    /// Opens round `round`; call right before `step_round`.
    pub fn begin_round(&self, round: usize) {
        let (id, now) = (self.sink.id(), self.sink.now());
        let mut st = self.lock();
        st.round = round as u32;
        st.round_span = id;
        st.round_start = now;
        st.stage = Stage::Pre;
        st.phase = None;
        st.counters = RoundCounters::default();
    }

    /// Closes the round opened by [`RoundTrace::begin_round`]; call right
    /// after `step_round` returns.
    pub fn end_round(&self) {
        let now = self.sink.now();
        let mut st = self.lock();
        self.close_phase(&mut st, now);
        st.stage = Stage::Post;
        self.sink.push(Span {
            id: st.round_span,
            name: "round",
            start: st.round_start,
            end: now,
            parent: None,
            run: self.run,
            round: st.round,
        });
        self.sink
            .rounds
            .lock()
            .expect("span sink poisoned by a panicking thread")
            .push(st.counters);
    }

    fn close_phase(&self, st: &mut RoundState, now: u64) {
        if let (Some((id, start)), Some(name)) = (st.phase.take(), st.stage.span_name()) {
            self.sink.push(Span {
                id,
                name,
                start,
                end: now,
                parent: Some(st.round_span),
                run: self.run,
                round: st.round,
            });
        }
    }

    /// Moves the round forward to `stage` (never backward): closes the
    /// open phase span and opens the next one.
    pub fn enter(&self, stage: Stage) {
        let now = self.sink.now();
        let mut st = self.lock();
        if stage <= st.stage {
            return;
        }
        self.close_phase(&mut st, now);
        st.stage = stage;
        if stage.span_name().is_some() {
            st.phase = Some((self.sink.id(), now));
        }
    }

    /// Records a span named `name` around `f`, as a child of the open
    /// phase (or of the round, between phases).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (parent, round) = {
            let st = self.lock();
            (st.phase.map_or(st.round_span, |(id, _)| id), st.round)
        };
        let (id, start) = (self.sink.id(), self.sink.now());
        let out = f();
        self.sink.push(Span {
            id,
            name,
            start,
            end: self.sink.now(),
            parent: Some(parent),
            run: self.run,
            round,
        });
        out
    }

    /// Adds first-copy deliveries to the round's counters.
    pub fn count_first_copies(&self, n: u64) {
        self.lock().counters.first_copies += n;
    }

    /// Records the comm counters the engine took for the round.
    pub fn record_comm(&self, comm: CommStats) {
        self.lock().counters.comm = comm;
    }
}

/// Self time per span name: each span's duration minus the part of its
/// interval covered by its children (overlapping children, such as
/// parallel filter calls, are merged first). Sorted by name.
pub fn self_times_ms(spans: &[Span]) -> Vec<(&'static str, f64, usize)> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut totals: std::collections::BTreeMap<&'static str, (f64, usize)> =
        std::collections::BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start), b.min(s.end));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        let entry = totals.entry(s.name).or_default();
        entry.0 += (s.end - s.start).saturating_sub(covered) as f64 / 1e6;
        entry.1 += 1;
    }
    totals.into_iter().map(|(name, (ms, n))| (name, ms, n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, start: u64, end: u64, parent: Option<u64>) -> Span {
        Span { id, name, start, end, parent, run: 0, round: 0 }
    }

    #[test]
    fn self_time_subtracts_merged_children() {
        let spans = [
            span(1, "round", 0, 100, None),
            span(2, "phase.filter", 10, 90, Some(1)),
            // Two overlapping children cover 20..60 = 40 of the phase.
            span(3, "agg.filter", 20, 50, Some(2)),
            span(4, "agg.filter", 30, 60, Some(2)),
        ];
        let t = self_times_ms(&spans);
        let get = |n: &str| t.iter().find(|(name, _, _)| *name == n).unwrap().1;
        assert_eq!(get("round"), 20.0 / 1e6);
        assert_eq!(get("phase.filter"), 40.0 / 1e6);
        assert_eq!(get("agg.filter"), 60.0 / 1e6);
    }

    #[test]
    fn phases_only_move_forward() {
        let sink = Arc::new(SpanSink::default());
        let trace = RoundTrace::new(sink.clone(), 7);
        trace.begin_round(3);
        trace.enter(Stage::Train);
        trace.enter(Stage::Upload);
        trace.enter(Stage::Train); // ignored: a later call of an earlier kind
        trace.span("transport.upload", || ());
        trace.enter(Stage::Post);
        trace.end_round();
        let names: Vec<_> = sink.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["phase.train", "transport.upload", "phase.upload", "round"]);
        let spans = sink.spans();
        let upload_phase = spans.iter().find(|s| s.name == "phase.upload").unwrap();
        assert_eq!(spans[1].parent, Some(upload_phase.id));
        assert!(spans.iter().all(|s| s.run == 7 && s.round == 3));
        assert_eq!(sink.rounds().len(), 1);
    }
}
