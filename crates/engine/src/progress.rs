//! Campaign-level progress telemetry: heartbeat records, shared atomic
//! counters, scoped phase timers, and memory gauges with high-water
//! tracking.
//!
//! A long-running campaign (a fuzz soak, an exhaustive explore, a bench
//! sweep) is a black box until it returns. This module gives the
//! campaign driver a passive observation channel:
//!
//! * [`CampaignCounters`] — a bag of atomics the campaign and its
//!   workers update as they go: campaign units done/total, simulator
//!   events, explorer schedules/steps, per-worker attribution slots,
//!   named phase nanosecond accumulators, and [`Gauge`]s for memory
//!   occupancy (current value plus high-water mark).
//! * [`PhaseSpan`] — an RAII guard from [`CampaignCounters::span`] that
//!   adds its scope's wall time to one named phase on drop.
//! * [`ProgressRecord`] — one `"swiftdir.progress.v1"` heartbeat,
//!   convertible to/from the in-tree [`Json`] so records round-trip
//!   through the same parser every other artifact uses.
//! * [`ProgressSampler`] — owns the counters plus a JSONL sink and an
//!   emission interval. Any thread may call [`ProgressSampler::tick`]
//!   after finishing a unit of work; the sampler emits at most one
//!   record per interval (an atomic gate plus `try_lock`, so ticking
//!   never blocks a worker).
//!
//! Everything here is strictly **passive**: counters are only ever read
//! and accumulated, never fed back into simulation decisions, so a
//! campaign's digests and reports are bit-identical with sampling on or
//! off. The policy side (environment variables, file naming, which
//! campaigns publish) lives in `swiftdir-core`; this module is
//! mechanism only.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::json::Json;

/// Schema tag stamped into every heartbeat record.
pub const PROGRESS_SCHEMA: &str = "swiftdir.progress.v1";

/// Prefix shared by all progress schema versions; readers accept any
/// `swiftdir.progress.*` tag and ignore fields they do not know
/// (forward compatibility for v2).
pub const PROGRESS_SCHEMA_PREFIX: &str = "swiftdir.progress.";

/// An occupancy gauge: the current value plus the largest value ever
/// set (the high-water mark). Both are plain atomics; setting the
/// gauge is a store plus a `fetch_max`.
#[derive(Debug, Default)]
pub struct Gauge {
    current: AtomicU64,
    high: AtomicU64,
}

impl Gauge {
    /// Records a new current value, raising the high-water mark if it
    /// is the largest seen so far.
    pub fn set(&self, v: u64) {
        self.current.store(v, Ordering::Relaxed);
        self.high.fetch_max(v, Ordering::Relaxed);
    }

    /// The most recently set value.
    pub fn current(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    /// The largest value ever set.
    pub fn high_water(&self) -> u64 {
        self.high.load(Ordering::Relaxed)
    }
}

/// The fixed set of memory gauges every campaign record carries.
/// Campaigns update the ones that apply (a fuzz run has no seen table;
/// an untraced explore has an empty trace ring) and leave the rest 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemGauge {
    /// Explorer seen-table entries (visited state digests).
    SeenEntries,
    /// Approximate heap bytes of the seen table.
    SeenBytes,
    /// Approximate heap bytes pinned by the undo log (live frames plus
    /// the recycle pool).
    UndoBytes,
    /// Approximate heap bytes of transient-state slabs (MSHR tables,
    /// in-flight install/writeback maps).
    SlabBytes,
    /// Trace-ring occupancy (records currently retained).
    TraceRing,
}

impl MemGauge {
    /// Every gauge, in record order.
    pub const ALL: [MemGauge; 5] = [
        MemGauge::SeenEntries,
        MemGauge::SeenBytes,
        MemGauge::UndoBytes,
        MemGauge::SlabBytes,
        MemGauge::TraceRing,
    ];

    /// The JSON key for this gauge.
    pub fn name(self) -> &'static str {
        match self {
            MemGauge::SeenEntries => "seen_entries",
            MemGauge::SeenBytes => "seen_bytes",
            MemGauge::UndoBytes => "undo_bytes",
            MemGauge::SlabBytes => "slab_bytes",
            MemGauge::TraceRing => "trace_ring",
        }
    }
}

/// One worker's attribution slot. The experiment driver marks the slot
/// busy while a work item runs and counts claims (work-stealing grabs
/// from the shared queue) and completions.
#[derive(Debug, Default)]
pub struct WorkerSlot {
    busy: AtomicBool,
    claimed: AtomicU64,
    done: AtomicU64,
    busy_ns: AtomicU64,
}

impl WorkerSlot {
    /// Marks the slot busy and counts one claimed work item.
    pub fn claim(&self) {
        self.claimed.fetch_add(1, Ordering::Relaxed);
        self.busy.store(true, Ordering::Relaxed);
    }

    /// Marks the slot idle, counts one completed item, and adds the
    /// item's wall time to the slot's busy total.
    pub fn finish(&self, busy: Duration) {
        self.done.fetch_add(1, Ordering::Relaxed);
        self.busy_ns
            .fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
        self.busy.store(false, Ordering::Relaxed);
    }

    /// Whether the slot is currently running an item.
    pub fn is_busy(&self) -> bool {
        self.busy.load(Ordering::Relaxed)
    }

    /// Work items claimed so far (the steal count: every claim pulls
    /// from the single shared work queue).
    pub fn claimed(&self) -> u64 {
        self.claimed.load(Ordering::Relaxed)
    }

    /// Work items completed so far.
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    /// Total wall seconds spent inside work items.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 / 1e9
    }
}

/// Shared, thread-safe counters for one campaign. Constructed by the
/// campaign driver (which fixes the campaign name, the worker-slot
/// count, and the phase names up front) and handed to workers behind an
/// `Arc<ProgressSampler>`.
#[derive(Debug)]
pub struct CampaignCounters {
    campaign: String,
    started: Instant,
    total: AtomicU64,
    done: AtomicU64,
    events: AtomicU64,
    schedules: AtomicU64,
    steps: AtomicU64,
    workers: Vec<WorkerSlot>,
    phase_names: Vec<&'static str>,
    phase_ns: Vec<AtomicU64>,
    gauges: [Gauge; MemGauge::ALL.len()],
}

impl CampaignCounters {
    /// Counters for campaign `campaign` with `workers` attribution
    /// slots (clamped to at least one) and the given phase names. The
    /// wall clock starts now.
    pub fn new(campaign: impl Into<String>, workers: usize, phases: &[&'static str]) -> Self {
        let workers = workers.max(1);
        CampaignCounters {
            campaign: campaign.into(),
            started: Instant::now(),
            total: AtomicU64::new(0),
            done: AtomicU64::new(0),
            events: AtomicU64::new(0),
            schedules: AtomicU64::new(0),
            steps: AtomicU64::new(0),
            workers: (0..workers).map(|_| WorkerSlot::default()).collect(),
            phase_names: phases.to_vec(),
            phase_ns: phases.iter().map(|_| AtomicU64::new(0)).collect(),
            gauges: Default::default(),
        }
    }

    /// The campaign name records are stamped with.
    pub fn campaign(&self) -> &str {
        &self.campaign
    }

    /// Wall seconds since construction.
    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Nanoseconds since construction (the sampler's time base).
    fn elapsed_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Adds `n` planned campaign units (a campaign may announce its
    /// legs incrementally).
    pub fn add_total(&self, n: u64) {
        self.total.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts `n` completed campaign units.
    pub fn add_done(&self, n: u64) {
        self.done.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts `n` simulator events.
    pub fn add_events(&self, n: u64) {
        self.events.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts `n` completed explorer schedules.
    pub fn add_schedules(&self, n: u64) {
        self.schedules.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts `n` explorer steps.
    pub fn add_steps(&self, n: u64) {
        self.steps.fetch_add(n, Ordering::Relaxed);
    }

    /// Completed campaign units so far.
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    /// Planned campaign units so far.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Simulator events counted so far.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// The attribution slot for worker `i` (wrapped into range, so a
    /// caller with more threads than slots still lands on a valid
    /// slot).
    pub fn worker(&self, i: usize) -> &WorkerSlot {
        &self.workers[i % self.workers.len()]
    }

    /// All worker slots.
    pub fn workers(&self) -> &[WorkerSlot] {
        &self.workers
    }

    /// A scoped timer for phase `name`: its wall time is added to the
    /// phase's accumulator when the guard drops. Unknown names produce
    /// a no-op guard, so callers need not share the constructor's phase
    /// list. Spans on one thread must not overlap (see DESIGN.md §12
    /// for the scoping rules that keep phase sums bounded).
    pub fn span(&self, name: &str) -> PhaseSpan<'_> {
        let slot = self
            .phase_names
            .iter()
            .position(|&n| n == name)
            .map(|i| &self.phase_ns[i]);
        PhaseSpan {
            slot,
            start: Instant::now(),
        }
    }

    /// The gauge for `g`.
    pub fn gauge(&self, g: MemGauge) -> &Gauge {
        let i = MemGauge::ALL
            .iter()
            .position(|&m| m == g)
            .expect("MemGauge::ALL covers every variant");
        &self.gauges[i]
    }

    /// A consistent point-in-time heartbeat of every counter. `seq` and
    /// `is_final` are supplied by the sampler.
    pub fn snapshot(&self, seq: u64, is_final: bool) -> ProgressRecord {
        let elapsed_s = self.elapsed_s();
        let done = self.done();
        let total = self.total();
        let events = self.events();
        let schedules = self.schedules.load(Ordering::Relaxed);
        let rate = |n: u64| {
            if elapsed_s > 0.0 {
                n as f64 / elapsed_s
            } else {
                0.0
            }
        };
        let eta_s = if done > 0 && total > done {
            Some(elapsed_s * (total - done) as f64 / done as f64)
        } else if total > 0 && done >= total {
            Some(0.0)
        } else {
            None
        };
        ProgressRecord {
            schema: PROGRESS_SCHEMA.to_string(),
            campaign: self.campaign.clone(),
            seq,
            is_final,
            resumed: false,
            elapsed_s,
            done,
            total,
            fraction: if total > 0 {
                done as f64 / total as f64
            } else {
                0.0
            },
            eta_s,
            units_per_s: rate(done),
            events,
            events_per_s: rate(events),
            schedules,
            schedules_per_s: rate(schedules),
            steps: self.steps.load(Ordering::Relaxed),
            queue_depth: total.saturating_sub(done),
            workers: self
                .workers
                .iter()
                .enumerate()
                .map(|(id, w)| WorkerSnapshot {
                    id,
                    busy: w.is_busy(),
                    claimed: w.claimed(),
                    done: w.done(),
                    busy_s: w.busy_s(),
                })
                .collect(),
            phases: self
                .phase_names
                .iter()
                .zip(&self.phase_ns)
                .map(|(&n, ns)| (n.to_string(), ns.load(Ordering::Relaxed) as f64 / 1e9))
                .collect(),
            memory: MemGauge::ALL
                .iter()
                .map(|&g| {
                    let gauge = self.gauge(g);
                    (
                        g.name().to_string(),
                        GaugeSnapshot {
                            current: gauge.current(),
                            high: gauge.high_water(),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// RAII phase timer from [`CampaignCounters::span`]; adds its scope's
/// wall time to the phase accumulator when dropped.
#[derive(Debug)]
pub struct PhaseSpan<'a> {
    slot: Option<&'a AtomicU64>,
    start: Instant,
}

impl Drop for PhaseSpan<'_> {
    fn drop(&mut self) {
        if let Some(slot) = self.slot {
            slot.fetch_add(self.start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

/// One gauge reading inside a [`ProgressRecord`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeSnapshot {
    /// Value at sampling time.
    pub current: u64,
    /// High-water mark over the campaign so far.
    pub high: u64,
}

/// One worker's attribution inside a [`ProgressRecord`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSnapshot {
    /// Slot index.
    pub id: usize,
    /// Whether the worker was running an item at sampling time.
    pub busy: bool,
    /// Items claimed from the shared queue (the steal count).
    pub claimed: u64,
    /// Items completed.
    pub done: u64,
    /// Wall seconds spent inside items.
    pub busy_s: f64,
}

/// One `"swiftdir.progress.v1"` heartbeat. See DESIGN.md §12 for the
/// field-by-field schema.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressRecord {
    /// Schema tag (`"swiftdir.progress.v1"`).
    pub schema: String,
    /// Campaign name (`"fuzz"`, `"explore"`, `"bench"`, …).
    pub campaign: String,
    /// Emission sequence number, strictly increasing per campaign.
    pub seq: u64,
    /// Whether this is the campaign's final record.
    pub is_final: bool,
    /// Whether this is the first record after a checkpoint resume. The
    /// resumed process pre-seeds `done`/`events` from the checkpoint
    /// (so they stay monotone across the gap) but restarts the wall
    /// clock — stream validators exempt `elapsed_s` from its
    /// never-backwards rule exactly at a resumed record.
    pub resumed: bool,
    /// Wall seconds since the campaign started.
    pub elapsed_s: f64,
    /// Campaign units completed (fuzz: seeds; explore: trees).
    pub done: u64,
    /// Campaign units planned so far.
    pub total: u64,
    /// `done / total` (0 while `total` is unknown).
    pub fraction: f64,
    /// Estimated seconds to completion, if computable.
    pub eta_s: Option<f64>,
    /// Campaign units per second (cumulative average).
    pub units_per_s: f64,
    /// Simulator events so far.
    pub events: u64,
    /// Events per second (cumulative average).
    pub events_per_s: f64,
    /// Explorer schedules completed so far.
    pub schedules: u64,
    /// Schedules per second (cumulative average).
    pub schedules_per_s: f64,
    /// Explorer steps so far.
    pub steps: u64,
    /// Campaign units not yet completed (the shared work queue depth).
    pub queue_depth: u64,
    /// Per-worker attribution.
    pub workers: Vec<WorkerSnapshot>,
    /// Per-phase wall seconds, in declaration order.
    pub phases: Vec<(String, f64)>,
    /// Memory gauges, in [`MemGauge::ALL`] order.
    pub memory: Vec<(String, GaugeSnapshot)>,
}

impl ProgressRecord {
    /// Sum of all phase seconds. Per-thread spans never overlap, so
    /// this is bounded by `elapsed_s * (workers + 1)` (workers plus the
    /// campaign driver thread), and by `elapsed_s` alone on one thread.
    pub fn phase_sum_s(&self) -> f64 {
        self.phases.iter().map(|(_, s)| s).sum()
    }

    /// Number of workers busy at sampling time.
    pub fn busy_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.busy).count()
    }

    /// The record as a JSON object (one heartbeat line when written
    /// compactly).
    pub fn to_json(&self) -> Json {
        let eta = match self.eta_s {
            Some(s) => Json::Float(s),
            None => Json::Null,
        };
        let mut j = Json::object([
            ("schema", Json::from(self.schema.as_str())),
            ("campaign", Json::from(self.campaign.as_str())),
            ("seq", Json::Uint(self.seq)),
            ("final", Json::Bool(self.is_final)),
            ("elapsed_s", Json::Float(self.elapsed_s)),
            ("done", Json::Uint(self.done)),
            ("total", Json::Uint(self.total)),
            ("fraction", Json::Float(self.fraction)),
            ("eta_s", eta),
            ("units_per_s", Json::Float(self.units_per_s)),
            ("events", Json::Uint(self.events)),
            ("events_per_s", Json::Float(self.events_per_s)),
            ("schedules", Json::Uint(self.schedules)),
            ("schedules_per_s", Json::Float(self.schedules_per_s)),
            ("steps", Json::Uint(self.steps)),
            ("queue_depth", Json::Uint(self.queue_depth)),
            (
                "workers",
                Json::array(self.workers.iter().map(|w| {
                    Json::object([
                        ("id", Json::Uint(w.id as u64)),
                        ("busy", Json::Bool(w.busy)),
                        ("claimed", Json::Uint(w.claimed)),
                        ("done", Json::Uint(w.done)),
                        ("busy_s", Json::Float(w.busy_s)),
                    ])
                })),
            ),
            (
                "phases",
                Json::object(
                    self.phases
                        .iter()
                        .map(|(n, s)| (n.as_str(), Json::Float(*s))),
                ),
            ),
            (
                "memory",
                Json::object(self.memory.iter().map(|(n, g)| {
                    (
                        n.as_str(),
                        Json::object([
                            ("current", Json::Uint(g.current)),
                            ("high", Json::Uint(g.high)),
                        ]),
                    )
                })),
            ),
        ]);
        // `resumed` is emitted only when set: the common (fresh-run) case
        // stays byte-identical to older streams, and tolerant parsers
        // default the missing key to false.
        if self.resumed {
            if let Json::Object(members) = &mut j {
                members.push(("resumed".to_string(), Json::Bool(true)));
            }
        }
        j
    }

    /// Parses a heartbeat from its JSON form. Tolerant by design:
    /// unknown fields are ignored and missing fields default, so a v1
    /// reader keeps working on a v2 stream. Only the schema tag is
    /// mandatory and must start with `"swiftdir.progress."`.
    ///
    /// # Errors
    ///
    /// Returns a message when the value is not an object or carries a
    /// foreign schema tag.
    pub fn parse(j: &Json) -> Result<ProgressRecord, String> {
        if j.as_object().is_none() {
            return Err("progress record is not a JSON object".to_string());
        }
        let schema = j
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("progress record has no schema tag")?;
        if !schema.starts_with(PROGRESS_SCHEMA_PREFIX) {
            return Err(format!("foreign schema tag {schema:?}"));
        }
        let u = |k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
        let f = |k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let workers = j
            .get("workers")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|w| WorkerSnapshot {
                id: w.get("id").and_then(Json::as_u64).unwrap_or(0) as usize,
                busy: matches!(w.get("busy"), Some(Json::Bool(true))),
                claimed: w.get("claimed").and_then(Json::as_u64).unwrap_or(0),
                done: w.get("done").and_then(Json::as_u64).unwrap_or(0),
                busy_s: w.get("busy_s").and_then(Json::as_f64).unwrap_or(0.0),
            })
            .collect();
        let phases = j
            .get("phases")
            .and_then(Json::as_object)
            .unwrap_or(&[])
            .iter()
            .map(|(n, s)| (n.clone(), s.as_f64().unwrap_or(0.0)))
            .collect();
        let memory = j
            .get("memory")
            .and_then(Json::as_object)
            .unwrap_or(&[])
            .iter()
            .map(|(n, g)| {
                (
                    n.clone(),
                    GaugeSnapshot {
                        current: g.get("current").and_then(Json::as_u64).unwrap_or(0),
                        high: g.get("high").and_then(Json::as_u64).unwrap_or(0),
                    },
                )
            })
            .collect();
        Ok(ProgressRecord {
            schema: schema.to_string(),
            campaign: j
                .get("campaign")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            seq: u("seq"),
            is_final: matches!(j.get("final"), Some(Json::Bool(true))),
            resumed: matches!(j.get("resumed"), Some(Json::Bool(true))),
            elapsed_s: f("elapsed_s"),
            done: u("done"),
            total: u("total"),
            fraction: f("fraction"),
            eta_s: j.get("eta_s").and_then(Json::as_f64),
            units_per_s: f("units_per_s"),
            events: u("events"),
            events_per_s: f("events_per_s"),
            schedules: u("schedules"),
            schedules_per_s: f("schedules_per_s"),
            steps: u("steps"),
            queue_depth: u("queue_depth"),
            workers,
            phases,
            memory,
        })
    }

    /// Parses one JSONL heartbeat line.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON or a foreign schema.
    pub fn parse_line(line: &str) -> Result<ProgressRecord, String> {
        let j = Json::parse(line).map_err(|e| e.to_string())?;
        Self::parse(&j)
    }
}

struct SamplerSink {
    out: Box<dyn Write + Send>,
    seq: u64,
    finished: bool,
    broken: bool,
}

impl SamplerSink {
    fn emit(&mut self, rec: &ProgressRecord, extra: &[(String, Json)]) {
        if self.broken {
            return;
        }
        let mut j = rec.to_json();
        if let Json::Object(members) = &mut j {
            members.extend(extra.iter().cloned());
        }
        let mut line = String::new();
        j.write(&mut line);
        line.push('\n');
        // Flush per record so `swiftdir-report --follow` sees heartbeats
        // live; records are rare (one per interval), so this is cheap.
        if self.out.write_all(line.as_bytes()).is_err() || self.out.flush().is_err() {
            eprintln!("swiftdir: progress sink write failed; heartbeats disabled");
            self.broken = true;
        }
        self.seq += 1;
    }
}

impl std::fmt::Debug for SamplerSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SamplerSink")
            .field("seq", &self.seq)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

/// Interval-gated heartbeat emitter. Owns the [`CampaignCounters`] and
/// the JSONL sink; campaign code shares it behind an `Arc` and workers
/// call [`ProgressSampler::tick`] whenever convenient — emission is
/// rate-limited to one record per interval and never blocks (the gate
/// is an atomic load; the sink is taken with `try_lock`).
#[derive(Debug)]
pub struct ProgressSampler {
    counters: CampaignCounters,
    interval_ns: u64,
    last_emit_ns: AtomicU64,
    // Set by `resumed()`; the first record emitted (heartbeat or final)
    // swaps it off and carries `"resumed": true`.
    resume_mark: AtomicBool,
    sink: Mutex<SamplerSink>,
}

impl ProgressSampler {
    /// A sampler emitting to `sink` at most once per `interval`
    /// (`interval` zero means every tick emits). The first record is
    /// emitted on the first tick at or after one interval.
    pub fn new(
        counters: CampaignCounters,
        sink: Box<dyn Write + Send>,
        interval: Duration,
    ) -> Self {
        ProgressSampler {
            counters,
            interval_ns: interval.as_nanos() as u64,
            last_emit_ns: AtomicU64::new(0),
            resume_mark: AtomicBool::new(false),
            sink: Mutex::new(SamplerSink {
                out: sink,
                seq: 0,
                finished: false,
                broken: false,
            }),
        }
    }

    /// A sampler continuing a checkpointed campaign's heartbeat stream.
    /// Sequence numbers start at `start_seq` (one past the killed
    /// stream's last durable record, so `seq` stays strictly increasing
    /// across the gap) and the first record emitted carries
    /// `"resumed": true` — the marker `swiftdir-report --follow` renders
    /// and `--check-progress` uses to exempt the wall-clock restart.
    /// The caller pre-seeds `counters` with the checkpoint's completed
    /// totals so `done`/`events` stay monotone too.
    pub fn resumed(
        counters: CampaignCounters,
        sink: Box<dyn Write + Send>,
        interval: Duration,
        start_seq: u64,
    ) -> Self {
        let s = Self::new(counters, sink, interval);
        s.sink.lock().expect("progress sink poisoned").seq = start_seq;
        s.resume_mark.store(true, Ordering::Relaxed);
        s
    }

    /// The campaign's shared counters.
    pub fn counters(&self) -> &CampaignCounters {
        &self.counters
    }

    /// The emission interval.
    pub fn interval(&self) -> Duration {
        Duration::from_nanos(self.interval_ns)
    }

    /// Emits a heartbeat if one is due. Safe and cheap to call from any
    /// worker after any unit of work: off the emission path this is one
    /// atomic load and a comparison, and a contended sink is simply
    /// skipped (the next tick will catch up).
    pub fn tick(&self) {
        let now = self.counters.elapsed_ns();
        if now.saturating_sub(self.last_emit_ns.load(Ordering::Relaxed)) < self.interval_ns {
            return;
        }
        let Ok(mut sink) = self.sink.try_lock() else {
            return;
        };
        if sink.finished {
            return;
        }
        // Re-check under the lock: another worker may have just emitted.
        let now = self.counters.elapsed_ns();
        if now.saturating_sub(self.last_emit_ns.load(Ordering::Relaxed)) < self.interval_ns {
            return;
        }
        self.last_emit_ns.store(now, Ordering::Relaxed);
        let mut rec = self.counters.snapshot(sink.seq, false);
        rec.resumed = self.resume_mark.swap(false, Ordering::Relaxed);
        sink.emit(&rec, &[]);
    }

    /// Emits the campaign's final record (with `"final": true`)
    /// unconditionally and closes the stream: later ticks are no-ops.
    pub fn finish(&self) {
        self.finish_with_extra(Vec::new());
    }

    /// Like [`ProgressSampler::finish`], but appends `extra` members to
    /// the final record — the hook campaign drivers use to fold
    /// campaign-specific payloads (e.g. the explorer's depth profile)
    /// into the heartbeat stream.
    pub fn finish_with_extra(&self, extra: Vec<(String, Json)>) {
        let mut sink = self.sink.lock().expect("progress sink poisoned");
        if sink.finished {
            return;
        }
        let mut rec = self.counters.snapshot(sink.seq, true);
        rec.resumed = self.resume_mark.swap(false, Ordering::Relaxed);
        sink.emit(&rec, &extra);
        sink.finished = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A `Write` handing every byte to a shared buffer, so tests can
    /// read back what the sampler emitted.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<StdMutex<Vec<u8>>>);

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn sample_counters() -> CampaignCounters {
        let c = CampaignCounters::new("test", 2, &["generate", "run", "check"]);
        c.add_total(10);
        c.add_done(4);
        c.add_events(1000);
        c.add_schedules(7);
        c.add_steps(70);
        c.worker(0).claim();
        c.worker(0).finish(Duration::from_millis(5));
        c.worker(1).claim();
        c.gauge(MemGauge::SeenEntries).set(42);
        c.gauge(MemGauge::SeenEntries).set(17);
        c
    }

    #[test]
    fn gauge_tracks_high_water() {
        let g = Gauge::default();
        g.set(5);
        g.set(9);
        g.set(3);
        assert_eq!(g.current(), 3);
        assert_eq!(g.high_water(), 9);
    }

    #[test]
    fn phase_spans_accumulate_and_unknown_names_are_noops() {
        let c = CampaignCounters::new("t", 1, &["run"]);
        {
            let _s = c.span("run");
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = c.span("no-such-phase");
        let rec = c.snapshot(0, false);
        let run = rec.phases.iter().find(|(n, _)| n == "run").unwrap().1;
        assert!(run >= 0.002, "span must record its scope: {run}");
        assert_eq!(rec.phases.len(), 1);
    }

    #[test]
    fn snapshot_reflects_counters() {
        let rec = sample_counters().snapshot(3, false);
        assert_eq!(rec.schema, PROGRESS_SCHEMA);
        assert_eq!(rec.campaign, "test");
        assert_eq!((rec.seq, rec.done, rec.total), (3, 4, 10));
        assert!((rec.fraction - 0.4).abs() < 1e-12);
        assert_eq!(rec.queue_depth, 6);
        assert!(rec.eta_s.is_some());
        assert_eq!(rec.workers.len(), 2);
        assert!(!rec.workers[0].busy && rec.workers[1].busy);
        assert_eq!(rec.workers[0].done, 1);
        assert_eq!(rec.busy_workers(), 1);
        let seen = &rec
            .memory
            .iter()
            .find(|(n, _)| n == "seen_entries")
            .unwrap()
            .1;
        assert_eq!((seen.current, seen.high), (17, 42));
    }

    #[test]
    fn record_round_trips_through_json() {
        let rec = sample_counters().snapshot(5, true);
        let text = {
            let mut s = String::new();
            rec.to_json().write(&mut s);
            s
        };
        let back = ProgressRecord::parse_line(&text).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn parse_tolerates_unknown_and_missing_fields() {
        // A sparse v2-flavoured record: new fields, missing optionals.
        let text = r#"{"schema":"swiftdir.progress.v2","campaign":"fuzz",
            "done":3,"novel_field":{"x":1},"workers":[{"id":0,"new":true}]}"#;
        let rec = ProgressRecord::parse_line(text).unwrap();
        assert_eq!(rec.schema, "swiftdir.progress.v2");
        assert_eq!(rec.done, 3);
        assert_eq!(rec.total, 0);
        assert_eq!(rec.workers.len(), 1);
        assert!(rec.eta_s.is_none());

        assert!(ProgressRecord::parse_line(r#"{"schema":"swiftdir.run.v1"}"#).is_err());
        assert!(ProgressRecord::parse_line("[]").is_err());
        assert!(ProgressRecord::parse_line("{}").is_err());
    }

    #[test]
    fn sampler_rate_limits_and_finishes_once() {
        let buf = SharedBuf::default();
        let s = ProgressSampler::new(
            CampaignCounters::new("t", 1, &[]),
            Box::new(buf.clone()),
            Duration::from_secs(3600),
        );
        s.counters().add_total(2);
        s.tick(); // within the first interval: nothing emitted
        s.tick();
        assert!(buf.text().is_empty());
        s.counters().add_done(2);
        s.finish();
        s.finish(); // idempotent
        s.tick(); // after finish: no-op
        let text = buf.text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1);
        let rec = ProgressRecord::parse_line(lines[0]).unwrap();
        assert!(rec.is_final);
        assert_eq!(rec.done, 2);
        assert_eq!(rec.eta_s, Some(0.0));
    }

    #[test]
    fn zero_interval_emits_every_tick_and_is_monotone() {
        let buf = SharedBuf::default();
        let s = ProgressSampler::new(
            CampaignCounters::new("t", 1, &[]),
            Box::new(buf.clone()),
            Duration::ZERO,
        );
        s.counters().add_total(5);
        for i in 0..5 {
            s.counters().add_done(1);
            s.counters().add_events(10 * (i + 1));
            s.tick();
        }
        s.finish_with_extra(vec![("depth_profile".to_string(), Json::array([]))]);
        let text = buf.text();
        let recs: Vec<ProgressRecord> = text
            .lines()
            .map(|l| ProgressRecord::parse_line(l).unwrap())
            .collect();
        assert_eq!(recs.len(), 6);
        for pair in recs.windows(2) {
            assert!(pair[1].seq > pair[0].seq, "seq strictly increases");
            assert!(pair[1].done >= pair[0].done, "done is monotone");
            assert!(pair[1].events >= pair[0].events, "events are monotone");
        }
        assert!(recs.last().unwrap().is_final);
        // The extra member is visible to a raw JSON reader and ignored
        // by the tolerant record parser.
        let last_line = text.lines().last().unwrap();
        let j = Json::parse(last_line).unwrap();
        assert!(j.get("depth_profile").is_some());
    }
}
