//! Deterministic protocol stress fuzzer.
//!
//! [`run_fuzz`] drives a deliberately hostile configuration of the
//! coherence hierarchy — many cores hammering a handful of blocks
//! through an undersized L1 (forced evictions), an undersized LLC
//! (forced recalls), tiny MSHRs (retry pressure), and randomized
//! per-link latency jitter (message-race reordering) — while the
//! [`Checker`] audits the global invariants after **every** simulated
//! event and a golden memory model cross-checks every load's value.
//!
//! Everything is seeded: the same [`FuzzConfig`] always produces the
//! same access stream, the same event interleaving, and the same
//! [`FuzzReport::digest`], so any failure is replayable from its seed
//! alone. Failures shrink at two levels: [`minimize`] reduces the
//! scenario knobs (ops/blocks/cores), and [`minimize_stream`]
//! delta-debugs the concrete access stream itself, emitting a
//! [`StreamFile`] that [`replay`] reproduces op-for-op — the repro
//! survives changes to the stream *generator*, which a bare seed does
//! not.

use sim_engine::{DetRng, MemGauge, ProgressSampler, Tracer};
use swiftdir_cache::CacheGeometry;
use swiftdir_coherence::{
    AccessKind, Checker, Completion, Hierarchy, HierarchyConfig, L1State, ProtocolKind,
};
use swiftdir_mmu::PhysAddr;

use crate::stream::{issue_stream, AccessOp, StreamFile};

/// Steps (queue events) without a single completion before the watchdog
/// declares the protocol deadlocked. The worst honest case (a recall
/// chain across every block) resolves in a few hundred events. A poll
/// group of stalled retries is one step, so a polling livelock runs up to
/// its group size times more retries before it is flagged.
const WATCHDOG_EVENTS: u64 = 200_000;

/// Absolute step budget per run, against runaway livelock (steps count
/// as for [`WATCHDOG_EVENTS`]).
const MAX_EVENTS: u64 = 5_000_000;

/// Phase names a fuzz campaign's telemetry attributes wall time to:
/// `generate` (stream derivation, hierarchy construction, issue), `run`
/// (the event loop, including the per-event invariant audit — see
/// DESIGN.md §12 for why the audit is not timed separately), and
/// `check` (the final quiescence audit).
pub const FUZZ_PHASES: [&str; 3] = ["generate", "run", "check"];

/// Events between telemetry flushes inside a fuzz run: the campaign
/// event counter, slab/trace-ring gauges, and a sampler tick. Rare
/// enough (one per 4096 events) that the enabled path stays well under
/// the ≤2% sampler-overhead gate.
const FUZZ_TELEMETRY_EVERY: u64 = 4096;

/// One fuzz scenario: everything needed to reproduce a run bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FuzzConfig {
    /// Seed for the access stream and the link jitter.
    pub seed: u64,
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Cores hammering the block set.
    pub cores: usize,
    /// Distinct blocks contended over (block `i` lives at `i * 64`).
    pub blocks: usize,
    /// Total accesses issued across all cores.
    pub ops: usize,
    /// Maximum extra per-hop latency injected by [`sim_engine::LinkJitter`]
    /// (0 disables jitter).
    pub jitter_max: u64,
    /// Probability an access is a store.
    pub store_fraction: f64,
    /// Probability a non-store access is a write-protected load.
    pub wp_fraction: f64,
    /// Address-sharded directory banks (power of two). The shrunken LLC
    /// scales with the bank count so every bank keeps the full recall
    /// pressure of the classic single-bank scenario.
    pub banks: usize,
}

impl FuzzConfig {
    /// The default adversarial scenario for `seed`: 4 cores, 8 blocks,
    /// 400 operations, jitter up to 6 cycles, 45% stores, 30% of loads
    /// write-protected.
    pub fn new(seed: u64, protocol: ProtocolKind) -> Self {
        FuzzConfig {
            seed,
            protocol,
            cores: 4,
            blocks: 8,
            ops: 400,
            jitter_max: 6,
            store_fraction: 0.45,
            wp_fraction: 0.3,
            banks: 1,
        }
    }

    /// The shrunken hierarchy this scenario runs on: a 4-line 2-way L1
    /// (constant eviction pressure), a 4-line 2-way LLC bank (constant
    /// recall pressure once `blocks` exceeds its ways), and 4 MSHRs.
    pub fn hierarchy_config(&self) -> HierarchyConfig {
        let mut cfg = HierarchyConfig::table_v(self.cores, self.protocol);
        cfg.l1_geometry = CacheGeometry::new(256, 1, 64);
        // One classic 256-byte 2-way shrunken bank *per* directory bank,
        // so sharding multiplies the contention domains instead of
        // diluting per-bank recall pressure.
        cfg.llc_bank_geometry = CacheGeometry::new(256 * self.banks as u64, 2, 64);
        cfg.l1_mshrs = 4;
        cfg.with_banks(self.banks)
    }

    /// The concrete access stream this scenario's seed generates.
    pub fn stream(&self) -> Vec<AccessOp> {
        let mut rng = DetRng::new(self.seed);
        let mut at = 0u64;
        let mut ops = Vec::with_capacity(self.ops);
        for _ in 0..self.ops {
            at += rng.below(24);
            let core = rng.below(self.cores as u64) as usize;
            let addr = rng.below(self.blocks as u64) * 64;
            let op = if rng.chance(self.store_fraction) {
                AccessOp::store(at, core, addr)
            } else if rng.chance(self.wp_fraction) {
                AccessOp::wp_load(at, core, addr)
            } else {
                AccessOp::load(at, core, addr)
            };
            ops.push(op);
        }
        ops
    }

    /// This scenario as a self-contained replayable [`StreamFile`].
    pub fn stream_file(&self) -> StreamFile {
        StreamFile {
            protocol: self.protocol,
            cores: self.cores,
            jitter_max: self.jitter_max,
            jitter_seed: self.seed ^ 0x9e37_79b9_7f4a_7c15,
            ops: self.stream(),
        }
    }
}

/// A deliberate mid-run corruption, for validating that the audit stack
/// (structured protocol errors, the [`Checker`]'s invariants, the golden
/// data model) actually catches bugs — and that [`minimize_stream`]
/// preserves them while shrinking.
///
/// After `after_completions` requests have completed, the target core's
/// L1 line for `addr` is forced to Modified with `value` — a rogue
/// write the protocol never sanctioned. The count is read between steps,
/// so a poll group whose members complete several requests can carry it
/// past `after_completions` before the fault lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlantedFault {
    /// Completions to wait for before corrupting.
    pub after_completions: usize,
    /// Core whose L1 is corrupted.
    pub core: usize,
    /// Block address to corrupt.
    pub addr: u64,
    /// The bogus data value planted.
    pub value: u64,
}

/// How a fuzz run failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzFailureKind {
    /// The hierarchy itself detected an illegal transition
    /// (a structured [`swiftdir_coherence::ProtocolError`]).
    Protocol,
    /// The external [`Checker`] caught an invariant or data-value
    /// violation the protocol machinery did not.
    Invariant,
    /// The no-progress watchdog tripped, or transient state survived
    /// quiescence.
    Deadlock,
}

impl std::fmt::Display for FuzzFailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FuzzFailureKind::Protocol => "protocol error",
            FuzzFailureKind::Invariant => "invariant violation",
            FuzzFailureKind::Deadlock => "deadlock",
        })
    }
}

/// A failed run's diagnosis, including the offending block's recent
/// protocol history when available.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Failure classification.
    pub kind: FuzzFailureKind,
    /// Human-readable detail (violation message plus traced history).
    pub detail: String,
}

impl std::fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

/// The outcome of one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// The scenario that produced this report.
    pub config: FuzzConfig,
    /// Completions observed (equals `config.ops` on a clean run).
    pub completions: usize,
    /// Steps taken: queue events delivered, each followed by a
    /// [`Checker`] pass. A poll group of stalled requests is one step, so
    /// this is at most `stats.dispatched`.
    pub events: u64,
    /// FNV-1a digest over the completion stream; bit-identical across
    /// repeated runs of the same config.
    pub digest: u64,
    /// Install retries the run provoked (grant waiting on a way held by
    /// in-flight transients).
    pub install_retries: u64,
    /// Installs that exhausted their retries and parked until the set
    /// drained.
    pub install_stalls: u64,
    /// The hierarchy's full statistics (transition matrices, event
    /// counts) — the coverage gate unions these across seeds.
    pub stats: swiftdir_coherence::HierarchyStats,
    /// `None` on a clean run.
    pub failure: Option<FuzzFailure>,
}

impl FuzzReport {
    /// Whether the run completed with no violation of any kind.
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

/// Runs one seeded fuzz scenario to quiescence, auditing invariants
/// after every event.
///
/// # Example
///
/// ```
/// use swiftdir_coherence::ProtocolKind;
/// use swiftdir_core::fuzz::{run_fuzz, FuzzConfig};
///
/// let mut cfg = FuzzConfig::new(7, ProtocolKind::SwiftDir);
/// cfg.ops = 60;
/// let report = run_fuzz(&cfg);
/// assert!(report.ok(), "{}", report.failure.unwrap());
/// assert_eq!(report.completions, 60);
/// ```
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    run_fuzz_observed(cfg, None)
}

/// [`run_fuzz`] with optional campaign telemetry: phase spans, event
/// deltas, occupancy gauges, and heartbeat ticks land in the sampler as
/// the run progresses. Strictly passive — the report is bit-identical
/// with or without a sampler.
pub(crate) fn run_fuzz_observed(
    cfg: &FuzzConfig,
    progress: Option<&ProgressSampler>,
) -> FuzzReport {
    let file = {
        let _generate = progress.map(|p| p.counters().span("generate"));
        cfg.stream_file()
    };
    run_ops(cfg, &file, None, progress)
}

/// Replays a [`StreamFile`] op-for-op on the standard shrunken fuzz
/// hierarchy, with the same full auditing as [`run_fuzz`].
pub fn replay(file: &StreamFile) -> FuzzReport {
    replay_with_fault(file, None)
}

/// Flushes a fuzz run's periodic telemetry: the campaign event delta
/// plus slab and trace-ring occupancy gauges, then a sampler tick.
fn flush_fuzz_telemetry(p: &ProgressSampler, h: &Hierarchy, event_delta: u64) {
    let c = p.counters();
    c.add_events(event_delta);
    c.gauge(MemGauge::SlabBytes).set(h.transient_bytes());
    if let Some(ring) = h.tracer().ring() {
        c.gauge(MemGauge::TraceRing).set(ring.len() as u64);
    }
    p.tick();
}

/// [`replay`], optionally corrupting the hierarchy mid-run per `fault`.
pub fn replay_with_fault(file: &StreamFile, fault: Option<&PlantedFault>) -> FuzzReport {
    let cfg = FuzzConfig {
        seed: file.jitter_seed ^ 0x9e37_79b9_7f4a_7c15,
        protocol: file.protocol,
        cores: file.cores,
        blocks: 0,
        ops: file.ops.len(),
        jitter_max: file.jitter_max,
        store_fraction: 0.0,
        wp_fraction: 0.0,
        banks: 1,
    };
    run_ops(&cfg, file, fault, None)
}

/// The shared fuzz/replay core: issue the stream up front, step to
/// quiescence with the [`Checker`] auditing every event. With a
/// sampler, `generate`/`run`/`check` phase spans and periodic telemetry
/// flushes are recorded around the existing control flow; nothing the
/// simulation computes depends on them.
fn run_ops(
    cfg: &FuzzConfig,
    file: &StreamFile,
    fault: Option<&PlantedFault>,
    progress: Option<&ProgressSampler>,
) -> FuzzReport {
    let generate_span = progress.map(|p| p.counters().span("generate"));
    let mut h = Hierarchy::new(cfg.hierarchy_config());
    h.set_tracer(Tracer::enabled().with_ring(512));
    if file.jitter_max > 0 {
        h.set_jitter(file.jitter_seed, file.jitter_max);
    }

    // Issue the whole access stream up front at randomized times; the
    // event queue serializes it against the protocol traffic.
    issue_stream(&mut h, &file.ops);
    drop(generate_span);

    let run_span = progress.map(|p| p.counters().span("run"));
    let mut fault = fault.copied();
    let mut checker = Checker::new();
    // The hierarchy's completion list is never drained mid-run: it is
    // the serialization-order log, and each event's completions are its
    // tail since the pre-step length.
    let mut events = 0u64;
    let mut last_progress = 0u64;
    let mut failure = loop {
        let mark = h.completions_len();
        match h.try_step() {
            Err(e) => {
                break Some(FuzzFailure {
                    kind: FuzzFailureKind::Protocol,
                    detail: e.to_string(),
                });
            }
            Ok(None) => break None,
            Ok(Some(_)) => {}
        }
        events += 1;
        if let Some(p) = progress {
            if events.is_multiple_of(FUZZ_TELEMETRY_EVERY) {
                flush_fuzz_telemetry(p, &h, FUZZ_TELEMETRY_EVERY);
            }
        }
        let done = h.completions_since(mark);
        if !done.is_empty() {
            last_progress = events;
        }
        if let Err(v) = checker.after_event(&h, done) {
            break Some(FuzzFailure {
                kind: FuzzFailureKind::Invariant,
                detail: v.to_string(),
            });
        }
        if let Some(f) = fault {
            if h.completions_len() >= f.after_completions {
                h.test_force_l1_state(f.core, PhysAddr(f.addr), L1State::M, f.value);
                fault = None;
            }
        }
        if events - last_progress > WATCHDOG_EVENTS || events > MAX_EVENTS {
            break Some(FuzzFailure {
                kind: FuzzFailureKind::Deadlock,
                detail: format!(
                    "no completion in {} events at cycle {}\n{}",
                    events - last_progress,
                    h.now().get(),
                    h.debug_stuck()
                ),
            });
        }
    };
    drop(run_span);

    let log = h.completions_since(0);
    let check_span = progress.map(|p| p.counters().span("check"));
    if failure.is_none() {
        if let Err(v) = checker.check_quiescent(&h) {
            failure = Some(FuzzFailure {
                kind: FuzzFailureKind::Deadlock,
                detail: v.to_string(),
            });
        } else if log.len() != file.ops.len() {
            failure = Some(FuzzFailure {
                kind: FuzzFailureKind::Deadlock,
                detail: format!(
                    "issued {} requests but saw {} completions",
                    file.ops.len(),
                    log.len()
                ),
            });
        }
    }
    drop(check_span);
    if let Some(p) = progress {
        flush_fuzz_telemetry(p, &h, events % FUZZ_TELEMETRY_EVERY);
    }

    FuzzReport {
        config: *cfg,
        completions: log.len(),
        events,
        digest: digest(log),
        install_retries: h.stats().protocol.install_retries(),
        install_stalls: h.stats().protocol.install_stalls(),
        stats: h.stats().clone(),
        failure,
    }
}

/// FNV-1a over the completion stream in serialization order.
fn digest(log: &[Completion]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for c in log {
        mix(c.req);
        mix(c.core as u64);
        mix(c.block.0);
        mix(match c.class.kind {
            AccessKind::Load => 0,
            AccessKind::Store => 1,
        });
        mix(c.value);
        mix(c.done_at.get());
    }
    hash
}

/// The result of shrinking a failing scenario with [`minimize_outcome`].
#[derive(Debug, Clone, PartialEq)]
pub enum MinimizeOutcome {
    /// The input config does not fail; nothing to shrink.
    Clean(FuzzConfig),
    /// Shrinking finished; `config` still fails with `kind`.
    Minimized {
        config: FuzzConfig,
        kind: FuzzFailureKind,
    },
    /// The failure the caller asked for (`expected`) no longer
    /// reproduces on a fresh run — either the config is clean or it
    /// now fails with a *different* kind. Callers that previously
    /// unwrapped a failure out of the shrunk config would panic here;
    /// report this outcome instead.
    StoppedReproducing {
        config: FuzzConfig,
        expected: FuzzFailureKind,
        observed: Option<FuzzFailureKind>,
    },
}

impl MinimizeOutcome {
    /// The best config found, whatever the outcome.
    pub fn config(&self) -> FuzzConfig {
        match self {
            MinimizeOutcome::Clean(c) => *c,
            MinimizeOutcome::Minimized { config, .. } => *config,
            MinimizeOutcome::StoppedReproducing { config, .. } => *config,
        }
    }
}

/// Shrinks a failing scenario while it keeps failing **with the same
/// failure kind**: first the operation count, then the block set, then
/// the core count.
///
/// `expected` is the failure kind the caller observed earlier (e.g. in
/// a campaign report or a checkpoint record). If the fresh baseline run
/// does not reproduce that kind — possible under jitter configs, where
/// a shrunk stream reshuffles delivery timing — the function returns
/// [`MinimizeOutcome::StoppedReproducing`] instead of shrinking toward
/// an unrelated bug (or toward nothing, which is what used to panic
/// workers that unwrapped the failure out of the result).
///
/// Shrinking re-derives the access stream from the seed, so a smaller
/// scenario exercises a different (shorter) schedule — the reduction is
/// greedy and heuristic, not a strict subsequence, which is the usual
/// trade for seed-replayable fuzzing. Candidates that fail with a
/// *different* kind are rejected, mirroring `minimize_stream`.
pub fn minimize_outcome(cfg: &FuzzConfig, expected: Option<FuzzFailureKind>) -> MinimizeOutcome {
    let baseline = run_fuzz(cfg).failure;
    let kind = match (baseline.map(|f| f.kind), expected) {
        (None, None) => return MinimizeOutcome::Clean(*cfg),
        (None, Some(expected)) => {
            return MinimizeOutcome::StoppedReproducing {
                config: *cfg,
                expected,
                observed: None,
            }
        }
        (Some(observed), Some(expected)) if observed != expected => {
            return MinimizeOutcome::StoppedReproducing {
                config: *cfg,
                expected,
                observed: Some(observed),
            }
        }
        (Some(kind), _) => kind,
    };

    let still_fails = |cand: &FuzzConfig| run_fuzz(cand).failure.is_some_and(|f| f.kind == kind);
    let mut best = *cfg;
    loop {
        let mut improved = false;
        while best.ops > 4 {
            let cand = FuzzConfig {
                ops: best.ops / 2,
                ..best
            };
            if !still_fails(&cand) {
                break;
            }
            best = cand;
            improved = true;
        }
        while best.blocks > 1 {
            let cand = FuzzConfig {
                blocks: best.blocks - 1,
                ..best
            };
            if !still_fails(&cand) {
                break;
            }
            best = cand;
            improved = true;
        }
        while best.cores > 2 {
            let cand = FuzzConfig {
                cores: best.cores - 1,
                ..best
            };
            if !still_fails(&cand) {
                break;
            }
            best = cand;
            improved = true;
        }
        if !improved {
            return MinimizeOutcome::Minimized { config: best, kind };
        }
    }
}

/// Compatibility wrapper over [`minimize_outcome`]: shrinks against
/// whatever failure kind the baseline run exhibits (no expectation),
/// returning the input unchanged if it does not fail.
pub fn minimize(cfg: &FuzzConfig) -> FuzzConfig {
    minimize_outcome(cfg, None).config()
}

/// Delta-debugs a failing stream down to a (locally) minimal repro.
///
/// Unlike [`minimize`], which re-derives ever-shorter streams from the
/// seed, this shrinks the **concrete op list**: the result is a strict
/// subsequence of the input that [`replay`] (with the same `fault`, if
/// any) still drives to a failure of the same kind. Removal proceeds by
/// halving chunk sizes down to single ops, repeating until a fixpoint;
/// finally jitter is dropped if the failure survives without it.
///
/// Returns the input unchanged if it does not fail.
pub fn minimize_stream(file: &StreamFile, fault: Option<&PlantedFault>) -> StreamFile {
    let Some(baseline) = replay_with_fault(file, fault).failure else {
        return file.clone();
    };
    let still_fails = |cand: &StreamFile| {
        replay_with_fault(cand, fault)
            .failure
            .is_some_and(|f| f.kind == baseline.kind)
    };

    let mut best = file.clone();
    let mut chunk = (best.ops.len() / 2).max(1);
    loop {
        let mut improved = false;
        let mut start = 0;
        while start < best.ops.len() {
            let end = (start + chunk).min(best.ops.len());
            let mut cand = best.clone();
            cand.ops.drain(start..end);
            if still_fails(&cand) {
                best = cand;
                improved = true;
                // The ops after `start` shifted down; retry in place.
            } else {
                start = end;
            }
        }
        if chunk == 1 && !improved {
            break;
        }
        if !improved {
            chunk = (chunk / 2).max(1);
        }
    }

    if best.jitter_max > 0 {
        let mut cand = best.clone();
        cand.jitter_max = 0;
        if still_fails(&cand) {
            best = cand;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::ExperimentSet;

    #[test]
    fn clean_run_all_protocols() {
        for protocol in [
            ProtocolKind::Msi,
            ProtocolKind::Mesi,
            ProtocolKind::SMesi,
            ProtocolKind::SwiftDir,
        ] {
            let mut cfg = FuzzConfig::new(42, protocol);
            cfg.ops = 120;
            let report = run_fuzz(&cfg);
            assert!(
                report.ok(),
                "{protocol:?} seed 42 failed: {}",
                report.failure.unwrap()
            );
            assert_eq!(report.completions, 120);
        }
    }

    #[test]
    fn sharded_fuzz_is_clean_and_deterministic() {
        // The full audit stack (SWMR, directory superset, golden values)
        // holds with the directory sharded over four banks, under jitter,
        // with eight cores hammering blocks that span every bank.
        for protocol in [ProtocolKind::Mesi, ProtocolKind::SwiftDir] {
            let mut cfg = FuzzConfig::new(11, protocol);
            cfg.cores = 8;
            cfg.blocks = 16;
            cfg.ops = 200;
            cfg.banks = 4;
            let a = run_fuzz(&cfg);
            assert!(a.ok(), "{protocol:?}: {}", a.failure.unwrap());
            assert_eq!(a.completions, 200);
            let b = run_fuzz(&cfg);
            assert_eq!(a.digest, b.digest, "{protocol:?}");
            assert_eq!(a.events, b.events, "{protocol:?}");
        }
    }

    #[test]
    fn repeated_seed_is_bit_identical() {
        let mut cfg = FuzzConfig::new(1234, ProtocolKind::SwiftDir);
        cfg.ops = 150;
        let a = run_fuzz(&cfg);
        let b = run_fuzz(&cfg);
        assert!(a.ok() && b.ok());
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn distinct_seeds_explore_distinct_schedules() {
        let a = run_fuzz(&FuzzConfig::new(1, ProtocolKind::Mesi));
        let b = run_fuzz(&FuzzConfig::new(2, ProtocolKind::Mesi));
        assert!(a.ok() && b.ok());
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn fuzz_fan_out_is_thread_count_invariant() {
        let configs: Vec<FuzzConfig> = ProtocolKind::ALL
            .into_iter()
            .flat_map(|p| {
                (0..3u64).map(move |seed| {
                    let mut c = FuzzConfig::new(seed, p);
                    c.ops = 60;
                    c
                })
            })
            .collect();
        let one = ExperimentSet::new(configs.clone()).threads(1).run(run_fuzz);
        let four = ExperimentSet::new(configs.clone()).threads(4).run(run_fuzz);
        assert_eq!(one.len(), configs.len());
        for (a, b) in one.iter().zip(&four) {
            assert!(a.ok(), "{:?}: {}", a.config, a.failure.as_ref().unwrap());
            assert_eq!(a.digest, b.digest, "{:?}", a.config);
            assert_eq!(a.events, b.events, "{:?}", a.config);
            assert_eq!(a.stats, b.stats, "{:?}", a.config);
        }
    }

    #[test]
    fn minimize_returns_clean_config_unchanged() {
        let mut cfg = FuzzConfig::new(5, ProtocolKind::Mesi);
        cfg.ops = 40;
        assert_eq!(minimize(&cfg), cfg);
    }

    #[test]
    fn stream_file_replay_is_bit_identical_to_run_fuzz() {
        for protocol in ProtocolKind::ALL {
            let mut cfg = FuzzConfig::new(77, protocol);
            cfg.ops = 120;
            let direct = run_fuzz(&cfg);
            let replayed = replay(&cfg.stream_file());
            assert!(direct.ok(), "{}", direct.failure.unwrap());
            assert!(replayed.ok(), "{}", replayed.failure.unwrap());
            assert_eq!(direct.digest, replayed.digest, "{protocol:?}");
            assert_eq!(direct.events, replayed.events, "{protocol:?}");
        }
    }

    #[test]
    fn planted_fault_is_caught_by_the_audit_stack() {
        let mut cfg = FuzzConfig::new(9, ProtocolKind::SwiftDir);
        cfg.ops = 120;
        let fault = PlantedFault {
            after_completions: 30,
            core: 1,
            addr: 0x40,
            value: 0xdead_beef,
        };
        let report = replay_with_fault(&cfg.stream_file(), Some(&fault));
        let failure = report
            .failure
            .expect("a rogue Modified line must be caught");
        assert_eq!(failure.kind, FuzzFailureKind::Invariant, "{failure}");
    }

    #[test]
    fn minimized_stream_replays_to_the_same_failure() {
        let mut cfg = FuzzConfig::new(9, ProtocolKind::SwiftDir);
        cfg.ops = 120;
        let fault = PlantedFault {
            after_completions: 30,
            core: 1,
            addr: 0x40,
            value: 0xdead_beef,
        };
        let file = cfg.stream_file();
        let original = replay_with_fault(&file, Some(&fault))
            .failure
            .expect("fails");

        let small = minimize_stream(&file, Some(&fault));
        assert!(
            small.ops.len() < file.ops.len(),
            "minimizer failed to shrink {} ops",
            file.ops.len()
        );
        // The emitted repro must survive a text round-trip and still
        // reproduce the same failure, deterministically.
        let text = small.to_text();
        let parsed = StreamFile::parse(&text).expect("repro parses");
        assert_eq!(parsed, small);
        let a = replay_with_fault(&parsed, Some(&fault))
            .failure
            .expect("still fails");
        let b = replay_with_fault(&parsed, Some(&fault))
            .failure
            .expect("still fails");
        assert_eq!(a.kind, original.kind);
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.detail, b.detail, "repro must be deterministic");
    }

    #[test]
    fn minimize_stream_returns_clean_stream_unchanged() {
        let mut cfg = FuzzConfig::new(5, ProtocolKind::Mesi);
        cfg.ops = 30;
        let file = cfg.stream_file();
        assert_eq!(minimize_stream(&file, None), file);
    }
}
