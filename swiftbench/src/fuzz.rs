//! The `fuzz_grid` workload: seeded fuzz scenarios on the shrunken fuzz
//! hierarchy, jitter on, the `Checker` after every event.

use std::time::Instant;

use sim_engine::Tracer;
use swiftdir_coherence::{AccessKind, Checker, Completion, Hierarchy, ProtocolKind};
use swiftdir_core::{issue_stream, run_fuzz, FuzzConfig};

use crate::counts::Counts;
use crate::replay;
use crate::spans::{Acc, SpanLog};
use crate::stats::Fnv;
use crate::unit::{ratio, run_pass, timed, Metric, Pass, UnitResult};

const WORKLOAD: &str = "fuzz_grid";

/// Seeds per protocol on the default 4-core, 1-bank scenario.
const SEEDS: u64 = 64;

/// Seeds per protocol of the 8-core / 4-bank slice, which runs the bank
/// and mesh code.
const BANKED_SEEDS: u64 = 8;

/// Units whose dispatch times feed the event-queue replay.
const QUEUE_RECORDED_UNITS: usize = 32;

/// `run_fuzz`'s no-progress watchdog and absolute event budget.
const WATCHDOG_EVENTS: u64 = 200_000;
const MAX_EVENTS: u64 = 5_000_000;

/// The grid: every protocol × `SEEDS` default scenarios, then every
/// protocol × `BANKED_SEEDS` banked ones (or a small slice of both).
pub fn units(seed: u64, slice: bool) -> Vec<FuzzConfig> {
    let (seeds, banked) = if slice { (4, 2) } else { (SEEDS, BANKED_SEEDS) };
    let base = seed.wrapping_mul(1 << 20);
    let plain = ProtocolKind::ALL
        .into_iter()
        .flat_map(move |p| (0..seeds).map(move |s| FuzzConfig::new(base + s, p)));
    let sharded = ProtocolKind::ALL.into_iter().flat_map(move |p| {
        (0..banked).map(move |s| FuzzConfig {
            cores: 8,
            banks: 4,
            ..FuzzConfig::new(base + (1 << 19) + s, p)
        })
    });
    plain.chain(sharded).collect()
}

/// One untraced scenario through the library's `run_fuzz`. Set-up is the
/// scenario's stream generation, which the output check uses.
fn run_unit(cfg: &FuzzConfig) -> UnitResult {
    let (file, setup_s) = timed(|| cfg.stream_file());
    let (report, run_s) = timed(|| run_fuzz(cfg));
    let failure = match &report.failure {
        Some(f) => Some(f.to_string()),
        None => (report.completions != file.ops.len()).then(|| {
            format!(
                "{} completions for {} ops",
                report.completions,
                file.ops.len()
            )
        }),
    };
    UnitResult {
        digest: report.digest,
        failure,
        setup_s,
        run_s,
    }
}

/// Generates every scenario's stream once; returns the host seconds.
pub fn setup(units: &[FuzzConfig]) -> f64 {
    units.iter().map(|c| timed(|| c.stream_file()).1).sum()
}

pub fn pass(units: &[FuzzConfig], workers: usize) -> Pass {
    run_pass(units, workers, run_unit)
}

/// FNV-1a over the completion stream, as `run_fuzz` digests it.
fn completion_digest(log: &[Completion]) -> u64 {
    let mut f = Fnv::new();
    for c in log {
        f.mix(c.req);
        f.mix(c.core as u64);
        f.mix(c.block.0);
        f.mix(match c.class.kind {
            AccessKind::Load => 0,
            AccessKind::Store => 1,
        });
        f.mix(c.value);
        f.mix(c.done_at.get());
    }
    f.0
}

/// One scenario through the benchmark's own copy of the fuzz loop, with
/// the same ring tracer and jitter as `run_fuzz`, timing `issue_stream`,
/// each `try_step` + `drain_completions`, each `Checker::after_event`
/// and `check_quiescent`. Its digest must equal `run_fuzz`'s.
fn traced_unit(
    cfg: &FuzzConfig,
    i: usize,
    log: &mut SpanLog,
    counts: &mut Counts,
    times: Option<&mut Vec<u64>>,
) -> UnitResult {
    let epoch = log.epoch();
    let ns = |at: Instant| at.duration_since(epoch).as_nanos() as u64;
    let unit = log.open("unit", WORKLOAD, i);
    let generate = log.open("core.fuzz.generate", WORKLOAD, i);
    let file = cfg.stream_file();
    log.close(generate);
    let run = log.open("core.fuzz.run", WORKLOAD, i);
    let mut h = Hierarchy::new(cfg.hierarchy_config());
    h.set_tracer(Tracer::enabled().with_ring(512));
    if file.jitter_max > 0 {
        h.set_jitter(file.jitter_seed, file.jitter_max);
    }
    log.time("coherence.issue", WORKLOAD, i, || {
        issue_stream(&mut h, &file.ops)
    });

    let mut checker = Checker::new();
    let mut completions: Vec<Completion> = Vec::with_capacity(file.ops.len());
    let (mut step, mut check) = (Acc::default(), Acc::default());
    let (mut events, mut last_progress) = (0u64, 0u64);
    let mut recorded = times;
    let mut failure = loop {
        let t0 = Instant::now();
        let stepped = h.try_step();
        let done = match stepped {
            Err(e) => break Some(format!("protocol error: {e}")),
            Ok(None) => break None,
            Ok(Some(at)) => {
                if let Some(v) = recorded.as_mut() {
                    v.push(at.get());
                }
                h.drain_completions()
            }
        };
        let t1 = Instant::now();
        let audit = checker.after_event(&h, &done);
        let t2 = Instant::now();
        step.add(ns(t0), ns(t1));
        check.add(ns(t1), ns(t2));
        events += 1;
        if !done.is_empty() {
            last_progress = events;
        }
        completions.extend(done);
        if let Err(v) = audit {
            break Some(format!("invariant violation: {v}"));
        }
        if events - last_progress > WATCHDOG_EVENTS || events > MAX_EVENTS {
            break Some(format!(
                "no completion in {} events",
                events - last_progress
            ));
        }
    };
    log.aggregate("coherence.step", WORKLOAD, i, step);
    log.aggregate("coherence.check", WORKLOAD, i, check);
    let quiescent = log.time("coherence.check_quiescent", WORKLOAD, i, || {
        checker.check_quiescent(&h)
    });
    log.close(run);
    log.close(unit);
    if failure.is_none() {
        if let Err(v) = quiescent {
            failure = Some(format!("deadlock: {v}"));
        } else if completions.len() != file.ops.len() {
            failure = Some(format!(
                "{} completions for {} ops",
                completions.len(),
                file.ops.len()
            ));
        }
    }

    counts.add(h.stats());
    UnitResult {
        digest: completion_digest(&completions),
        failure,
        setup_s: log.span(generate).dur_ns as f64 / 1e9,
        run_s: log.span(run).dur_ns as f64 / 1e9,
    }
}

/// The traced pass over `units`, and its per-layer metrics.
pub fn traced(units: &[FuzzConfig], log: &mut SpanLog) -> (Vec<UnitResult>, Vec<Metric>) {
    let mut counts = Counts::default();
    let mut queue_inputs: Vec<Vec<u64>> = Vec::new();
    let mut results = Vec::with_capacity(units.len());
    for (i, cfg) in units.iter().enumerate() {
        let mut times = (i < QUEUE_RECORDED_UNITS).then(Vec::new);
        let depth = log.depth();
        let r = crate::unit::guarded(|| traced_unit(cfg, i, log, &mut counts, times.as_mut()))
            .unwrap_or_else(|e| {
                log.unwind_to(depth);
                UnitResult::failed(e)
            });
        queue_inputs.extend(times);
        results.push(r);
    }
    let queue = replay::replay_queue(&queue_inputs);

    let n = units.len().max(1) as f64;
    let ops: usize = units.iter().map(|c| c.ops).sum();
    let per = |name: &'static str| {
        let (d, c) = log.total(WORKLOAD, name);
        (d as f64, c as f64)
    };
    let (issue_ns, _) = per("coherence.issue");
    let (step_ns, steps) = per("coherence.step");
    let (check_ns, checks) = per("coherence.check");
    let (quiescent_ns, _) = per("coherence.check_quiescent");
    let (generate_ns, _) = per("core.fuzz.generate");
    let mut m = vec![
        Metric::new("coherence.issue_ns", ratio(issue_ns, ops as f64), "ns")
            .note("issue_stream, per op issued"),
        Metric::new("coherence.step_ns", ratio(step_ns, steps), "ns")
            .note("try_step + drain_completions, per event"),
        Metric::new("coherence.check_ns", ratio(check_ns, checks), "ns")
            .note("Checker::after_event, per event"),
        Metric::new("coherence.check_quiescent_us", quiescent_ns / n / 1e3, "us")
            .note("Checker::check_quiescent, per seed"),
        Metric::new("core.fuzz.generate_us", generate_ns / n / 1e3, "us")
            .note("FuzzConfig::stream_file, per seed"),
        Metric::new("engine.queue.ns_per_op", queue.median(), "ns").note(format!(
            "replay of try_step event times, schedule + pop: {}",
            queue.describe()
        )),
    ];
    m.extend(counts.metrics());
    (results, m)
}
