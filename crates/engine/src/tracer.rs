//! Structured protocol tracing: typed events, pluggable sinks, and a
//! zero-cost-when-disabled front end.
//!
//! The simulator's controllers emit [`TraceEvent`]s describing the
//! protocol-level life of every request — issue, state transitions with
//! from→to states, message sends/receives, MSHR merges and stalls,
//! writebacks, completions. Emission goes through [`Tracer::emit`], which
//! takes a *closure*: when tracing is disabled (the production case) the
//! closure never runs and the whole call collapses to one branch on a
//! bool, keeping instrumentation off the hot path.
//!
//! Three sinks cover the debugging spectrum:
//!
//! * a bounded ring ([`Tracer::ring`], built on
//!   [`TraceBuffer`]) retaining recent history
//!   for invariant-failure dumps;
//! * [`JsonlSink`] — one JSON object per line, the machine-readable full
//!   trace CI and scripts diff;
//! * [`ChromeTraceSink`] — the Chrome `trace_event` array format, loadable
//!   into `chrome://tracing` / Perfetto with one cycle mapped to one
//!   microsecond.

use std::fmt;
use std::io::{self, Write};

use crate::cycle::Cycle;
use crate::json::Json;
use crate::trace::TraceBuffer;

/// The simulated component an event concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// A core / its private L1 controller.
    L1,
    /// The shared LLC + directory controller.
    Llc,
    /// The memory controller.
    Mem,
}

impl Unit {
    /// Short stable name used in serialized traces.
    pub fn name(self) -> &'static str {
        match self {
            Unit::L1 => "L1",
            Unit::Llc => "LLC",
            Unit::Mem => "Mem",
        }
    }
}

/// What happened (the typed event model).
///
/// Component names, states, and message classes are `&'static str` so
/// building an event allocates nothing; producers pass the display names
/// of their typed enums.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A core presented a request to its L1.
    Issue {
        /// Request class (`"Load"`, `"Store"`, `"Load_WP"`).
        class: &'static str,
    },
    /// A controller moved a line between states.
    Transition {
        /// Which controller.
        unit: Unit,
        /// State before.
        from: &'static str,
        /// State after.
        to: &'static str,
    },
    /// A message left a controller.
    MsgSend {
        /// Message class (Table III name).
        msg: &'static str,
        /// Sender.
        from: Unit,
        /// Receiver.
        to: Unit,
    },
    /// A message arrived at a controller.
    MsgRecv {
        /// Message class (Table III name).
        msg: &'static str,
        /// Receiver.
        unit: Unit,
    },
    /// A request merged into an already-outstanding miss on its block.
    MshrMerge,
    /// A request stalled because every MSHR was occupied.
    MshrStall,
    /// A writeback arrived at the LLC.
    Writeback {
        /// Whether the data was dirty (an M-line writeback).
        dirty: bool,
    },
    /// A request completed.
    Complete {
        /// Request class as accounted in the latency histograms.
        class: &'static str,
        /// Which component supplied the data.
        served_from: &'static str,
        /// End-to-end latency in cycles.
        latency: u64,
    },
}

impl TraceKind {
    /// Short stable name of the event kind.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::Issue { .. } => "issue",
            TraceKind::Transition { .. } => "transition",
            TraceKind::MsgSend { .. } => "send",
            TraceKind::MsgRecv { .. } => "recv",
            TraceKind::MshrMerge => "mshr_merge",
            TraceKind::MshrStall => "mshr_stall",
            TraceKind::Writeback { .. } => "writeback",
            TraceKind::Complete { .. } => "complete",
        }
    }
}

/// One timestamped protocol event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened.
    pub at: Cycle,
    /// The core involved, if core-specific.
    pub core: Option<usize>,
    /// The block address concerned (0 when not address-specific).
    pub addr: u64,
    /// The request id this event serves, if tied to one.
    pub req: Option<u64>,
    /// What happened.
    pub kind: TraceKind,
}

impl TraceEvent {
    /// Serializes as the JSONL object emitted by [`JsonlSink`].
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("t".to_string(), Json::from(self.at.get())),
            ("ev".to_string(), Json::from(self.kind.name())),
        ];
        if let Some(core) = self.core {
            members.push(("core".to_string(), Json::from(core)));
        }
        if self.addr != 0 {
            members.push(("addr".to_string(), Json::Str(format!("{:#x}", self.addr))));
        }
        if let Some(req) = self.req {
            members.push(("req".to_string(), Json::from(req)));
        }
        match self.kind {
            TraceKind::Issue { class } => {
                members.push(("class".to_string(), Json::from(class)));
            }
            TraceKind::Transition { unit, from, to } => {
                members.push(("unit".to_string(), Json::from(unit.name())));
                members.push(("from".to_string(), Json::from(from)));
                members.push(("to".to_string(), Json::from(to)));
            }
            TraceKind::MsgSend { msg, from, to } => {
                members.push(("msg".to_string(), Json::from(msg)));
                members.push(("src".to_string(), Json::from(from.name())));
                members.push(("dst".to_string(), Json::from(to.name())));
            }
            TraceKind::MsgRecv { msg, unit } => {
                members.push(("msg".to_string(), Json::from(msg)));
                members.push(("unit".to_string(), Json::from(unit.name())));
            }
            TraceKind::MshrMerge | TraceKind::MshrStall => {}
            TraceKind::Writeback { dirty } => {
                members.push(("dirty".to_string(), Json::from(dirty)));
            }
            TraceKind::Complete {
                class,
                served_from,
                latency,
            } => {
                members.push(("class".to_string(), Json::from(class)));
                members.push(("served_from".to_string(), Json::from(served_from)));
                members.push(("latency".to_string(), Json::from(latency)));
            }
        }
        Json::Object(members)
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(core) = self.core {
            write!(f, "core{core} ")?;
        }
        if self.addr != 0 {
            write!(f, "{:#x} ", self.addr)?;
        }
        match self.kind {
            TraceKind::Issue { class } => write!(f, "issue {class}"),
            TraceKind::Transition { unit, from, to } => {
                write!(f, "{} {from}->{to}", unit.name())
            }
            TraceKind::MsgSend { msg, from, to } => {
                write!(f, "send {msg} {}->{}", from.name(), to.name())
            }
            TraceKind::MsgRecv { msg, unit } => write!(f, "recv {msg} @{}", unit.name()),
            TraceKind::MshrMerge => write!(f, "mshr merge"),
            TraceKind::MshrStall => write!(f, "mshr stall"),
            TraceKind::Writeback { dirty } => {
                write!(f, "writeback {}", if dirty { "dirty" } else { "clean" })
            }
            TraceKind::Complete {
                class,
                served_from,
                latency,
            } => write!(f, "complete {class} from {served_from} in {latency}cy"),
        }
    }
}

/// A destination for trace events.
pub trait TraceSink: Send {
    /// Records one event.
    fn record(&mut self, ev: &TraceEvent);

    /// Flushes and finalizes the sink's output (e.g. closes the Chrome
    /// trace's JSON array). Called once; further records are undefined.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the underlying writer.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Writes one JSON object per event, newline-delimited (JSONL).
pub struct JsonlSink<W: Write + Send> {
    out: W,
    buf: String,
}

impl<W: Write + Send> JsonlSink<W> {
    /// A sink writing to `out` (wrap files in a `BufWriter`).
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            buf: String::with_capacity(256),
        }
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&mut self, ev: &TraceEvent) {
        self.buf.clear();
        ev.to_json().write(&mut self.buf);
        self.buf.push('\n');
        // Trace I/O errors must not abort a simulation mid-protocol;
        // finish() surfaces them.
        let _ = self.out.write_all(self.buf.as_bytes());
    }

    fn finish(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Writes the Chrome `trace_event` JSON array format.
///
/// One simulated cycle is mapped to one microsecond of trace time.
/// Completions become duration (`"X"`) events spanning issue→done; all
/// other events are instants (`"i"`). The `tid` is the core number
/// (LLC = 1000, memory = 1001) so per-core lanes line up in the viewer.
pub struct ChromeTraceSink<W: Write + Send> {
    out: W,
    buf: String,
    first: bool,
}

/// The `tid` lane used for LLC-scoped events.
pub const CHROME_TID_LLC: u64 = 1000;
/// The `tid` lane used for memory-scoped events.
pub const CHROME_TID_MEM: u64 = 1001;

impl<W: Write + Send> ChromeTraceSink<W> {
    /// A sink writing to `out` (wrap files in a `BufWriter`).
    pub fn new(mut out: W) -> Self {
        let _ = out.write_all(b"[");
        ChromeTraceSink {
            out,
            buf: String::with_capacity(256),
            first: true,
        }
    }

    fn tid(ev: &TraceEvent) -> u64 {
        match ev.kind {
            TraceKind::MsgRecv {
                unit: Unit::Llc, ..
            }
            | TraceKind::Transition {
                unit: Unit::Llc, ..
            }
            | TraceKind::Writeback { .. } => CHROME_TID_LLC,
            TraceKind::MsgRecv {
                unit: Unit::Mem, ..
            }
            | TraceKind::Transition {
                unit: Unit::Mem, ..
            } => CHROME_TID_MEM,
            _ => ev.core.map_or(CHROME_TID_LLC, |c| c as u64),
        }
    }
}

impl<W: Write + Send> TraceSink for ChromeTraceSink<W> {
    fn record(&mut self, ev: &TraceEvent) {
        let name = match ev.kind {
            TraceKind::Issue { class } => Json::from(class),
            TraceKind::Transition { from, to, .. } => Json::Str(format!("{from}->{to}")),
            TraceKind::MsgSend { msg, .. } | TraceKind::MsgRecv { msg, .. } => Json::from(msg),
            TraceKind::MshrMerge => Json::from("MSHR_merge"),
            TraceKind::MshrStall => Json::from("MSHR_stall"),
            TraceKind::Writeback { dirty } => {
                Json::from(if dirty { "WB_dirty" } else { "WB_clean" })
            }
            TraceKind::Complete { class, .. } => Json::from(class),
        };
        let (ph, ts, dur) = match ev.kind {
            TraceKind::Complete { latency, .. } => {
                ("X", ev.at.get().saturating_sub(latency), Some(latency))
            }
            _ => ("i", ev.at.get(), None),
        };
        let mut obj = vec![
            ("name".to_string(), name),
            ("ph".to_string(), Json::from(ph)),
            ("ts".to_string(), Json::from(ts)),
            ("pid".to_string(), Json::from(0u64)),
            ("tid".to_string(), Json::from(Self::tid(ev))),
        ];
        if ph == "i" {
            // Instant events need a scope; "t" (thread) keeps them in-lane.
            obj.insert(2, ("s".to_string(), Json::from("t")));
        }
        if let Some(d) = dur {
            obj.push(("dur".to_string(), Json::from(d)));
        }
        obj.push(("args".to_string(), ev.to_json()));
        self.buf.clear();
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        Json::Object(obj).write(&mut self.buf);
        self.buf.push('\n');
        let _ = self.out.write_all(self.buf.as_bytes());
    }

    fn finish(&mut self) -> io::Result<()> {
        self.out.write_all(b"]\n")?;
        self.out.flush()
    }
}

/// The tracing front end controllers hold.
///
/// Disabled by default and zero-cost there: [`Tracer::emit`] is one branch
/// on a bool and the event-building closure never runs. Enabled tracers
/// fan each event to an optional bounded ring plus any number of writer
/// sinks, up to an event budget (`limit`), after which tracing turns
/// itself off rather than producing unbounded output.
pub struct Tracer {
    enabled: bool,
    remaining: u64,
    emitted: u64,
    ring: Option<TraceBuffer<TraceEvent>>,
    sinks: Vec<Box<dyn TraceSink>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled)
            .field("emitted", &self.emitted)
            .field("sinks", &self.sinks.len())
            .field("ring", &self.ring.is_some())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    /// The production tracer: nothing is recorded, emit is one branch.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            remaining: u64::MAX,
            emitted: 0,
            ring: None,
            sinks: Vec::new(),
        }
    }

    /// An enabled tracer with no sinks yet (attach with
    /// [`Tracer::with_ring`] / [`Tracer::with_sink`]).
    pub fn enabled() -> Self {
        Tracer {
            enabled: true,
            ..Tracer::disabled()
        }
    }

    /// Attaches a bounded ring retaining the `capacity` most recent events
    /// (for invariant-failure dumps).
    #[must_use]
    pub fn with_ring(mut self, capacity: usize) -> Self {
        self.ring = Some(TraceBuffer::new(capacity));
        self
    }

    /// Attaches a writer sink.
    #[must_use]
    pub fn with_sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Caps the number of events emitted; the tracer disables itself when
    /// the budget is exhausted (`u64::MAX` = unlimited, the default).
    #[must_use]
    pub fn with_limit(mut self, limit: u64) -> Self {
        self.remaining = limit;
        if limit == 0 {
            self.enabled = false;
        }
        self
    }

    /// Whether events are currently recorded.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of events emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// The bounded ring of recent events, if one is attached.
    pub fn ring(&self) -> Option<&TraceBuffer<TraceEvent>> {
        self.ring.as_ref()
    }

    /// Emits one event. The closure only runs when tracing is enabled —
    /// callers can build events (format states, compute classes) for free
    /// in the disabled case.
    #[inline(always)]
    pub fn emit<F: FnOnce() -> TraceEvent>(&mut self, build: F) {
        if !self.enabled {
            return;
        }
        self.dispatch(build());
    }

    #[cold]
    fn dispatch(&mut self, ev: TraceEvent) {
        self.emitted += 1;
        if let Some(ring) = &mut self.ring {
            ring.push(ev.at, || ev);
        }
        for sink in &mut self.sinks {
            sink.record(&ev);
        }
        self.remaining -= 1;
        if self.remaining == 0 {
            self.enabled = false;
        }
    }

    /// Finalizes every sink (flushes files, closes the Chrome array) and
    /// disables the tracer. Idempotent.
    ///
    /// # Errors
    ///
    /// Returns the first sink error encountered (all sinks are still
    /// finished).
    pub fn finish(&mut self) -> io::Result<()> {
        self.enabled = false;
        let mut result = Ok(());
        for sink in &mut self.sinks {
            let r = sink.finish();
            if result.is_ok() {
                result = r;
            }
        }
        self.sinks.clear();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// A writer into shared memory for sink tests.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn ev(at: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at: Cycle(at),
            core: Some(0),
            addr: 0x40,
            req: Some(7),
            kind,
        }
    }

    #[test]
    fn disabled_tracer_never_builds_events() {
        let mut t = Tracer::disabled();
        t.emit(|| panic!("closure must not run when disabled"));
        assert_eq!(t.emitted(), 0);
    }

    #[test]
    fn ring_keeps_recent_events() {
        let mut t = Tracer::enabled().with_ring(2);
        for i in 0..5 {
            t.emit(|| ev(i, TraceKind::MshrMerge));
        }
        let ring = t.ring().unwrap();
        assert_eq!(ring.len(), 2);
        let ats: Vec<u64> = ring.iter().map(|(c, _)| c.get()).collect();
        assert_eq!(ats, vec![3, 4]);
        assert_eq!(t.emitted(), 5);
    }

    #[test]
    fn limit_disables_tracing() {
        let mut t = Tracer::enabled().with_ring(16).with_limit(3);
        for i in 0..10 {
            t.emit(|| ev(i, TraceKind::MshrStall));
        }
        assert_eq!(t.emitted(), 3, "budget caps emission");
        assert!(!t.is_enabled());
    }

    #[test]
    fn jsonl_sink_emits_one_valid_object_per_line() {
        let buf = SharedBuf::default();
        let mut t = Tracer::enabled().with_sink(Box::new(JsonlSink::new(buf.clone())));
        t.emit(|| ev(1, TraceKind::Issue { class: "Load" }));
        t.emit(|| {
            ev(
                2,
                TraceKind::Transition {
                    unit: Unit::L1,
                    from: "I",
                    to: "S",
                },
            )
        });
        t.emit(|| {
            ev(
                19,
                TraceKind::Complete {
                    class: "GETS",
                    served_from: "Llc",
                    latency: 17,
                },
            )
        });
        t.finish().unwrap();
        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            let v = Json::parse(line).expect("every line is valid JSON");
            assert!(v.get("t").is_some());
            assert!(v.get("ev").is_some());
        }
        let complete = Json::parse(lines[2]).unwrap();
        assert_eq!(complete.get("ev").and_then(Json::as_str), Some("complete"));
        assert_eq!(complete.get("latency").and_then(Json::as_u64), Some(17));
    }

    #[test]
    fn chrome_sink_is_a_valid_json_array() {
        let buf = SharedBuf::default();
        let mut t = Tracer::enabled().with_sink(Box::new(ChromeTraceSink::new(buf.clone())));
        t.emit(|| ev(1, TraceKind::Issue { class: "Store" }));
        t.emit(|| {
            ev(
                5,
                TraceKind::MsgSend {
                    msg: "GETX",
                    from: Unit::L1,
                    to: Unit::Llc,
                },
            )
        });
        t.emit(|| {
            ev(
                40,
                TraceKind::Complete {
                    class: "GETX",
                    served_from: "Memory",
                    latency: 39,
                },
            )
        });
        t.finish().unwrap();
        let doc = Json::parse(&buf.contents()).expect("chrome trace is valid JSON");
        let events = doc.as_array().expect("top level is an array");
        assert_eq!(events.len(), 3);
        let complete = &events[2];
        assert_eq!(complete.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(complete.get("dur").and_then(Json::as_u64), Some(39));
        assert_eq!(complete.get("ts").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn chrome_sink_transition_names_are_from_to() {
        let buf = SharedBuf::default();
        let mut t = Tracer::enabled().with_sink(Box::new(ChromeTraceSink::new(buf.clone())));
        t.emit(|| {
            ev(
                3,
                TraceKind::Transition {
                    unit: Unit::Llc,
                    from: "S",
                    to: "M",
                },
            )
        });
        t.finish().unwrap();
        let doc = Json::parse(&buf.contents()).unwrap();
        let first = &doc.as_array().unwrap()[0];
        assert_eq!(first.get("name").and_then(Json::as_str), Some("S->M"));
        assert_eq!(
            first.get("tid").and_then(Json::as_u64),
            Some(CHROME_TID_LLC)
        );
    }

    #[test]
    fn finish_is_idempotent_and_disables() {
        let mut t = Tracer::enabled().with_ring(4);
        t.emit(|| ev(1, TraceKind::MshrMerge));
        t.finish().unwrap();
        assert!(!t.is_enabled());
        t.finish().unwrap();
        t.emit(|| panic!("disabled after finish"));
    }

    #[test]
    fn event_display_is_human_readable() {
        let e = ev(
            9,
            TraceKind::Transition {
                unit: Unit::L1,
                from: "E",
                to: "M",
            },
        );
        assert_eq!(e.to_string(), "core0 0x40 L1 E->M");
    }
}
