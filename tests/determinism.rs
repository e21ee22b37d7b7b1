//! End-to-end determinism: the same configuration must produce
//! bit-identical [`RunStats`] on every run, whether the points execute
//! serially or fanned over the experiment driver's worker threads.
//!
//! This is the property the whole reproduction rests on — every figure is
//! a ratio of runs, so any nondeterminism (hash-order leakage, event-queue
//! tie-break changes, thread-schedule dependence) would silently corrupt
//! results rather than fail loudly. Here it fails loudly.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use swiftdir::coherence::ProtocolKind;
use swiftdir::core::{
    contended_stream, explore_campaign, explore_parallel_profiled, run_fuzz,
    run_fuzz_campaign_resumable, ExperimentSet, ExploreConfig, FuzzConfig, FuzzReport, RunStats,
    System, SystemConfig, TraceConfig, EXPLORE_PHASES, FUZZ_PHASES,
};
use swiftdir::cpu::CpuModel;
use swiftdir::engine::{CampaignCounters, ProgressSampler};
use swiftdir::workloads::{SpecBenchmark, SynthStream, WorkloadRegions};

/// An in-memory heartbeat sink (`Box<dyn Write + Send>` over shared
/// bytes), so samplers in tests need no filesystem.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A sampler emitting on every tick (zero interval) into a fresh buffer.
fn test_sampler(campaign: &str, workers: usize, phases: &[&'static str]) -> Arc<ProgressSampler> {
    Arc::new(ProgressSampler::new(
        CampaignCounters::new(campaign, workers, phases),
        Box::new(SharedBuf::default()),
        Duration::from_millis(1),
    ))
}

const INSTRUCTIONS: u64 = 8_000;

fn run_point(bench: SpecBenchmark, protocol: ProtocolKind, model: CpuModel) -> RunStats {
    run_point_traced(bench, protocol, model, TraceConfig::default())
}

fn run_point_traced(
    bench: SpecBenchmark,
    protocol: ProtocolKind,
    model: CpuModel,
    trace: TraceConfig,
) -> RunStats {
    let mut sys = System::with_trace(
        SystemConfig::builder()
            .cores(1)
            .protocol(protocol)
            .cpu_model(model)
            .build(),
        trace,
    );
    let pid = sys.spawn_process();
    let params = bench.params(INSTRUCTIONS);
    let regions = WorkloadRegions::map(&mut sys, pid, &params);
    let stream = SynthStream::new(params, regions, bench.seed());
    sys.run_thread_stream(pid, 0, stream);
    sys.run_to_completion()
}

fn points() -> Vec<(SpecBenchmark, ProtocolKind)> {
    // A small but protocol-diverse grid: 4 benchmarks x all protocols.
    SpecBenchmark::ALL
        .into_iter()
        .take(4)
        .flat_map(|b| ProtocolKind::ALL.into_iter().map(move |p| (b, p)))
        .collect()
}

#[test]
fn same_seed_same_stats_across_repeated_serial_runs() {
    let first: Vec<RunStats> = points()
        .iter()
        .map(|&(b, p)| run_point(b, p, CpuModel::DerivO3))
        .collect();
    let second: Vec<RunStats> = points()
        .iter()
        .map(|&(b, p)| run_point(b, p, CpuModel::DerivO3))
        .collect();
    assert_eq!(first, second, "two serial sweeps diverged");
}

#[test]
fn parallel_driver_matches_serial_run() {
    let serial = ExperimentSet::new(points())
        .threads(1)
        .run(|&(b, p)| run_point(b, p, CpuModel::DerivO3));
    // More workers than the host has cores is fine — oversubscription
    // must not change results, only the schedule.
    let parallel = ExperimentSet::new(points())
        .threads(4)
        .run(|&(b, p)| run_point(b, p, CpuModel::DerivO3));
    assert_eq!(serial, parallel, "thread schedule leaked into stats");
}

#[test]
fn in_order_model_is_deterministic_too() {
    let serial = ExperimentSet::new(points())
        .threads(1)
        .run(|&(b, p)| run_point(b, p, CpuModel::TimingSimple));
    let parallel = ExperimentSet::new(points())
        .threads(3)
        .run(|&(b, p)| run_point(b, p, CpuModel::TimingSimple));
    assert_eq!(serial, parallel);
}

#[test]
fn tracing_never_changes_run_stats() {
    // Observability must be pure measurement: the same point run with a
    // disabled tracer (the default), with a plain `System::new`, and
    // with full file tracing must produce bit-identical RunStats.
    let dir = std::env::temp_dir().join("swiftdir_determinism_trace");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for &(b, p) in points().iter().take(4) {
        let plain = run_point(b, p, CpuModel::DerivO3);
        let traced = run_point_traced(
            b,
            p,
            CpuModel::DerivO3,
            TraceConfig::to_path(dir.join("point")),
        );
        assert_eq!(plain, traced, "tracing perturbed {b:?}/{p:?}");
        // The snapshot is a pure function of the stats, so it agrees too.
        assert_eq!(plain.snapshot(), traced.snapshot());
    }
}

#[test]
fn driver_preserves_input_order_under_contention() {
    // Workloads of very different lengths: late-finishing early points
    // must still land in their input slots.
    let mut grid: Vec<(SpecBenchmark, ProtocolKind)> = points();
    grid.reverse();
    let expected: Vec<f64> = grid
        .iter()
        .map(|&(b, p)| run_point(b, p, CpuModel::DerivO3).ipc())
        .collect();
    let got = ExperimentSet::new(grid)
        .threads(8)
        .run(|&(b, p)| run_point(b, p, CpuModel::DerivO3).ipc());
    assert_eq!(expected, got);
}

#[test]
fn sharded_fuzz_fan_out_is_thread_count_invariant() {
    // The fuzz fan-out invariance holds with the directory sharded too:
    // 8-core/4-bank adversarial scenarios produce identical digests,
    // event counts, and statistics at 1 and 4 campaign workers.
    let grid: Vec<FuzzConfig> = [ProtocolKind::Mesi, ProtocolKind::SwiftDir]
        .into_iter()
        .flat_map(|p| {
            (0..4u64).map(move |seed| {
                let mut cfg = FuzzConfig::new(seed, p);
                cfg.cores = 8;
                cfg.blocks = 16;
                cfg.ops = 100;
                cfg.banks = 4;
                cfg
            })
        })
        .collect();
    let one = ExperimentSet::new(grid.clone()).threads(1).run(run_fuzz);
    let four = ExperimentSet::new(grid).threads(4).run(run_fuzz);
    for (a, b) in one.iter().zip(&four) {
        assert!(a.ok(), "sharded fuzz {:?} failed", a.config);
        assert_eq!(a.digest, b.digest, "digest diverged for {:?}", a.config);
        assert_eq!(a.stats, b.stats, "stats diverged for {:?}", a.config);
    }
}

#[test]
fn fuzz_fan_out_digests_are_thread_count_invariant() {
    // The fuzz fan-out must be a pure reordering of work: the digest,
    // event count, and full hierarchy statistics of every seed are
    // bit-identical whether the grid runs on one worker or four.
    let grid: Vec<FuzzConfig> = ProtocolKind::ALL
        .into_iter()
        .flat_map(|p| {
            (0..6u64).map(move |seed| {
                let mut cfg = FuzzConfig::new(seed, p);
                cfg.ops = 80;
                cfg
            })
        })
        .collect();
    let one = ExperimentSet::new(grid.clone()).threads(1).run(run_fuzz);
    let four = ExperimentSet::new(grid).threads(4).run(run_fuzz);
    assert_eq!(one.len(), four.len());
    for (a, b) in one.iter().zip(&four) {
        assert!(a.ok(), "fuzz {:?} failed", a.config);
        assert_eq!(a.digest, b.digest, "digest diverged for {:?}", a.config);
        assert_eq!(
            a.events, b.events,
            "event count diverged for {:?}",
            a.config
        );
        assert_eq!(a.stats, b.stats, "stats diverged for {:?}", a.config);
    }
}

/// Every report of a fuzz campaign run without a checkpoint writer,
/// which keeps them all.
fn fuzz_reports(
    grid: &[FuzzConfig],
    threads: usize,
    sampler: Option<&Arc<ProgressSampler>>,
) -> Vec<FuzzReport> {
    run_fuzz_campaign_resumable(grid, Some(threads), sampler, None, Vec::new(), None)
        .unwrap()
        .reports
        .into_iter()
        .map(|r| r.expect("a campaign without a writer keeps every report"))
        .collect()
}

#[test]
fn progress_sampling_never_changes_fuzz_digests() {
    // Campaign telemetry must be strictly passive: the same fuzz grid
    // with no sampler, with a 1 ms sampler on one thread, and with a
    // 1 ms sampler on four threads produces bit-identical digests,
    // event counts, and statistics.
    let grid: Vec<FuzzConfig> = ProtocolKind::ALL
        .into_iter()
        .flat_map(|p| {
            (0..4u64).map(move |seed| {
                let mut cfg = FuzzConfig::new(seed, p);
                cfg.ops = 80;
                cfg
            })
        })
        .collect();
    let bare = fuzz_reports(&grid, 1, None);
    let sampled_1 = {
        let s = test_sampler("fuzz", 1, &FUZZ_PHASES);
        let r = fuzz_reports(&grid, 1, Some(&s));
        s.finish();
        r
    };
    let sampled_4 = {
        let s = test_sampler("fuzz", 4, &FUZZ_PHASES);
        let r = fuzz_reports(&grid, 4, Some(&s));
        s.finish();
        r
    };
    for ((a, b), c) in bare.iter().zip(&sampled_1).zip(&sampled_4) {
        assert!(a.ok(), "fuzz {:?} failed", a.config);
        assert_eq!(
            (a.digest, a.events, &a.stats),
            (b.digest, b.events, &b.stats),
            "1-thread sampling perturbed {:?}",
            a.config
        );
        assert_eq!(
            (a.digest, a.events, &a.stats),
            (c.digest, c.events, &c.stats),
            "4-thread sampling perturbed {:?}",
            a.config
        );
    }
}

#[test]
fn progress_sampling_never_changes_explore_reports() {
    // Same passivity bar for the explorer: whole reports (schedules,
    // outcomes, coverage, latency histograms) are bit-identical with
    // sampling off, on at 1 ms / 1 thread, and on at 1 ms / 4 threads.
    let ecfg = ExploreConfig::default();
    for protocol in [ProtocolKind::SwiftDir, ProtocolKind::Mesi] {
        let cfg = swiftdir::core::diff::tiny_config(2, protocol);
        for seed in 0..2 {
            let stream = contended_stream(seed, 2, 2, 4, 0.3);
            let (bare, bare_profile) = explore_campaign(&cfg, &stream, &ecfg, 1, None);
            assert!(bare.error.is_none(), "exploration failed: {:?}", bare.error);
            for threads in [1usize, 4] {
                let s = test_sampler("explore", threads, &EXPLORE_PHASES);
                let (sampled, profile) = explore_campaign(&cfg, &stream, &ecfg, threads, Some(&s));
                s.finish();
                assert_eq!(
                    bare, sampled,
                    "sampling at {threads} thread(s) perturbed {protocol:?} seed {seed}"
                );
                assert_eq!(
                    bare_profile, profile,
                    "sampling at {threads} thread(s) perturbed the depth profile"
                );
            }
        }
    }
}

#[test]
fn explorer_coverage_report_is_thread_count_invariant() {
    // Parallel exploration splits the DFS at the root frontier and
    // merges per-branch reports in canonical order, so the whole report
    // — schedules, outcomes, coverage, latency histograms — must be
    // bit-identical at any worker count.
    let ecfg = ExploreConfig::default();
    for protocol in [ProtocolKind::SwiftDir, ProtocolKind::SMesi] {
        let cfg = swiftdir::core::diff::tiny_config(2, protocol);
        for seed in 0..2 {
            let stream = contended_stream(seed, 2, 2, 4, 0.3);
            let (one, _) = explore_parallel_profiled(&cfg, &stream, &ecfg, 1);
            let (four, _) = explore_parallel_profiled(&cfg, &stream, &ecfg, 4);
            assert!(one.error.is_none(), "exploration failed: {:?}", one.error);
            assert_eq!(
                one, four,
                "explorer report diverged for {protocol:?} seed {seed}"
            );
        }
    }
}
