//! Deterministic event-driven simulation kernel.
//!
//! This crate is the substrate every other crate in the SwiftDir
//! reproduction builds on. It provides:
//!
//! * [`Cycle`] — a newtype for simulated time measured in CPU clock cycles.
//! * [`EventQueue`] — a priority queue of `(Cycle, E)` pairs with a
//!   deterministic tie-break, the heart of the discrete-event simulator.
//! * [`fxhash`] — a dependency-free FxHash-style hasher and map aliases
//!   for the simulator's address-keyed hot-path maps.
//! * [`stats`] — the exact-bucket latency histogram (with CDF extraction,
//!   used to regenerate the paper's Figure 6) and the JSON rendering of the
//!   run snapshot's counters and histograms.
//! * [`rng`] — a small, explicitly-seeded SplitMix64/xoshiro random stream
//!   plus the Zipf sampler workload generators use, so every simulation is
//!   bit-reproducible regardless of platform or dependency versions.
//! * [`trace`] — a bounded ring of timestamped records, the storage behind
//!   the tracer's recent-history dumps.
//! * [`tracer`] — the structured protocol tracer: typed [`TraceEvent`]s,
//!   pluggable sinks (bounded ring, JSONL, Chrome `trace_event`), and a
//!   closure-deferred emit path that costs one branch when disabled.
//! * [`json`] — a dependency-free JSON model, writer, and parser used for
//!   every machine-readable artifact the simulator produces.
//! * [`progress`] — campaign-level telemetry: shared atomic counters,
//!   scoped phase timers, memory gauges with high-water marks, and the
//!   `"swiftdir.progress.v1"` heartbeat sampler long-running campaigns
//!   stream to a JSONL sink.
//!
//! # Example
//!
//! ```
//! use sim_engine::{Cycle, EventQueue};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(Cycle(5), "b");
//! q.schedule(Cycle(3), "a");
//! let (t, e) = q.pop().expect("queue is non-empty");
//! assert_eq!((t, e), (Cycle(3), "a"));
//! ```

pub mod cycle;
pub mod fxhash;
pub mod json;
pub mod mesh;
pub mod progress;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod tracer;

pub use cycle::Cycle;
pub use fxhash::{map_heap_bytes, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use json::{Json, JsonError};
pub use mesh::{MeshEndpoint, MeshTopology};
pub use progress::{
    CampaignCounters, Gauge, GaugeSnapshot, MemGauge, PhaseSpan, ProgressRecord, ProgressSampler,
    WorkerSlot, WorkerSnapshot, PROGRESS_SCHEMA, PROGRESS_SCHEMA_PREFIX,
};
pub use queue::{Chooser, EventQueue, FifoChooser, Pending, PopOrigin, QueueMark};
pub use rng::{DetRng, LinkJitter, Zipf};
pub use stats::{Histogram, HistogramMark};
pub use trace::TraceBuffer;
pub use tracer::{ChromeTraceSink, JsonlSink, TraceEvent, TraceKind, TraceSink, Tracer, Unit};
