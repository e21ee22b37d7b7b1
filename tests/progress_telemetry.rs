//! Campaign-telemetry integration: heartbeat streams written by real
//! fuzz and explore campaigns must round-trip through the in-tree
//! parser, satisfy the stream invariants (`swiftdir.progress.v1`
//! schema, strictly increasing `seq`, monotone `done`/`events`, one
//! final record in last position), and reconcile with the reports the
//! campaign returned — the same bar the CI smoke leg holds the bins to.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use swiftdir::coherence::ProtocolKind;
use swiftdir::core::{
    contended_stream, explore_campaign, run_fuzz_campaign_resumable, ExploreConfig, FuzzConfig,
    EXPLORE_PHASES, FUZZ_PHASES,
};
use swiftdir::engine::{CampaignCounters, ProgressRecord, ProgressSampler, PROGRESS_SCHEMA};
use swiftdir_bench::progress_view::check_progress_text;

/// An in-memory heartbeat sink capturing what a `--progress FILE` run
/// would write.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).expect("heartbeats are UTF-8")
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

fn sampler_into(
    buf: &SharedBuf,
    campaign: &str,
    workers: usize,
    phases: &[&'static str],
) -> Arc<ProgressSampler> {
    Arc::new(ProgressSampler::new(
        CampaignCounters::new(campaign, workers, phases),
        Box::new(buf.clone()),
        // Zero interval: every tick emits, exercising the stream
        // invariants as hard as possible.
        Duration::ZERO,
    ))
}

#[test]
fn fuzz_campaign_heartbeats_reconcile_with_reports() {
    let grid: Vec<FuzzConfig> = ProtocolKind::ALL
        .into_iter()
        .flat_map(|p| {
            (0..3u64).map(move |seed| {
                let mut cfg = FuzzConfig::new(seed, p);
                cfg.ops = 60;
                cfg
            })
        })
        .collect();

    let buf = SharedBuf::default();
    let sampler = sampler_into(&buf, "fuzz", 2, &FUZZ_PHASES);
    let out = run_fuzz_campaign_resumable(&grid, Some(2), Some(&sampler), None, Vec::new(), None)
        .unwrap();
    sampler.finish();

    let check = check_progress_text(&buf.text()).unwrap_or_else(|e| panic!("{e:#?}"));
    let last = &check.final_record;
    assert_eq!(last.schema, PROGRESS_SCHEMA);
    assert_eq!(last.campaign, "fuzz");

    // The final record must agree with what the campaign returned.
    assert_eq!(last.total, grid.len() as u64);
    assert_eq!(last.done, grid.len() as u64);
    assert_eq!(last.fraction, 1.0);
    assert_eq!(last.queue_depth, 0);
    let total_events: u64 = out.reports.iter().flatten().map(|r| r.events).sum();
    assert_eq!(out.reports.iter().flatten().count(), grid.len());
    assert_eq!(last.events, total_events, "event total diverged");

    // Worker attribution covers every seed exactly once.
    assert_eq!(last.workers.len(), 2);
    let claimed: u64 = last.workers.iter().map(|w| w.claimed).sum();
    let done: u64 = last.workers.iter().map(|w| w.done).sum();
    assert_eq!(claimed, grid.len() as u64);
    assert_eq!(done, grid.len() as u64);
    assert!(last.workers.iter().all(|w| !w.busy));

    // Phase accounting: spans exist for the declared phases only, the
    // run phase dominates, and the sum respects the wall-clock bound.
    let names: Vec<&str> = last.phases.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, FUZZ_PHASES.to_vec());
    let run_s = last.phases[1].1;
    assert!(run_s > 0.0, "run phase never timed");
    assert!(last.phase_sum_s() <= last.elapsed_s * 3.0 + 1e-6);
}

#[test]
fn explore_campaign_heartbeats_reconcile_with_reports() {
    let ecfg = ExploreConfig::default();
    let cfg = swiftdir::core::diff::tiny_config(2, ProtocolKind::SwiftDir);
    let buf = SharedBuf::default();
    let sampler = sampler_into(&buf, "explore", 2, &EXPLORE_PHASES);

    let trees = 3u64;
    sampler.counters().add_total(trees);
    let mut schedules = 0u64;
    let mut steps = 0u64;
    for seed in 0..trees {
        let stream = contended_stream(seed, 2, 2, 4, 0.3);
        let (report, profile) = explore_campaign(&cfg, &stream, &ecfg, 2, Some(&sampler));
        assert!(
            report.error.is_none(),
            "exploration failed: {:?}",
            report.error
        );
        let profiled_nodes: u64 = profile.depths.iter().map(|s| s.nodes).sum();
        assert!(profiled_nodes > 0, "depth profile not collected");
        schedules += report.schedules;
        steps += report.steps;
        sampler.counters().add_done(1);
        sampler.tick();
    }
    sampler.finish();

    let check = check_progress_text(&buf.text()).unwrap_or_else(|e| panic!("{e:#?}"));
    let last = &check.final_record;
    assert_eq!(last.campaign, "explore");
    assert_eq!((last.done, last.total), (trees, trees));
    assert_eq!(last.schedules, schedules, "schedule total diverged");
    assert_eq!(last.steps, steps, "step total diverged");

    // Memory gauges were exercised: the undo walker pins undo frames
    // and fills the seen table, and high-water marks dominate.
    let gauge = |name: &str| {
        last.memory
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("gauge {name} missing"))
            .1
    };
    assert!(gauge("seen_entries").high > 0, "seen table never sampled");
    assert!(gauge("undo_bytes").high > 0, "undo log never sampled");
    // The byte gauge must account for the swiss-table footprint of the
    // entries it reports: at the flush that set the entry high-water
    // mark, capacity >= len, so the byte high-water mark must dominate
    // the control-overhead-inclusive estimate for that many entries.
    let entry = std::mem::size_of::<(u64, bool)>();
    assert!(
        gauge("seen_bytes").high
            >= swiftdir::engine::map_heap_bytes(gauge("seen_entries").high as usize, entry),
        "seen_bytes undercounts the seen table ({} bytes for {} entries)",
        gauge("seen_bytes").high,
        gauge("seen_entries").high
    );
    for (name, g) in &last.memory {
        assert!(g.high >= g.current, "gauge {name} high < current");
    }
}

#[test]
fn heartbeats_round_trip_and_are_monotone() {
    let grid: Vec<FuzzConfig> = (0..6u64)
        .map(|seed| {
            let mut cfg = FuzzConfig::new(seed, ProtocolKind::Mesi);
            cfg.ops = 60;
            cfg
        })
        .collect();
    let buf = SharedBuf::default();
    let sampler = sampler_into(&buf, "fuzz", 1, &FUZZ_PHASES);
    run_fuzz_campaign_resumable(&grid, Some(1), Some(&sampler), None, Vec::new(), None).unwrap();
    sampler.finish();

    let text = buf.text();
    let records: Vec<ProgressRecord> = text
        .lines()
        .map(|l| ProgressRecord::parse_line(l).expect("heartbeat line must parse"))
        .collect();
    assert!(
        records.len() >= 2,
        "zero-interval campaign should emit several records"
    );

    // Round-trip: parse(to_json(rec)) is the identity on every record.
    for rec in &records {
        let mut line = String::new();
        rec.to_json().write(&mut line);
        assert_eq!(&ProgressRecord::parse_line(&line).unwrap(), rec);
    }

    // Monotonicity in `done` and `seq`, final record last.
    for pair in records.windows(2) {
        assert!(pair[1].seq > pair[0].seq, "seq must strictly increase");
        assert!(pair[1].done >= pair[0].done, "done must be monotone");
        assert!(!pair[0].is_final, "final record must be last");
    }
    assert!(records.last().unwrap().is_final);
}
