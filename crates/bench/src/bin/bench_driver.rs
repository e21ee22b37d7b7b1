//! Performance harness for the simulator itself.
//!
//! Measures four things and writes them to `BENCH_driver.json` in the
//! current directory:
//!
//! 1. **Single-simulation throughput** — wall time of one Figure-7-style
//!    run (first SPEC profile, MESI, DerivO3, 60 k instructions), the
//!    number the hot-path work (calendar event queue, slab-allocated
//!    transaction state, geometry shift/mask, TLB index) moves.
//! 2. **Sweep wall-clock** — the full 23 × 3 Figure-7 grid through
//!    [`ExperimentSet`], serial (`threads(1)`) vs parallel, the number
//!    the experiment driver moves. Per-point results must be identical
//!    between the two runs; the harness asserts it.
//! 3. **Fuzz throughput** — the CI smoke grid (4 protocols × 25 seeds)
//!    serial vs parallel, asserting the per-seed digests and statistics
//!    are bit-identical across thread counts.
//! 4. **Explorer throughput** — coverage-gate-shaped explorations via
//!    `explore_campaign`, serial vs parallel, asserting the merged
//!    reports are bit-identical across thread counts.
//! 5. **Many-core scale-out** — a 64-core machine with the directory
//!    sharded into 8 address-interleaved banks, run to quiescence
//!    serially, recording its simulated events/s.
//!
//! The parallel legs use `SWIFTDIR_THREADS` when set, else the host's
//! `std::thread::available_parallelism()`; the host core count is
//! recorded under `"host_cores"` so committed numbers carry their
//! hardware context (the CI gates pin `SWIFTDIR_THREADS=4`).
//!
//! `bench_driver --check` instead re-measures the single-run figure and
//! compares it against the committed `BENCH_driver.json`, failing on a
//! >10% regression — the CI bench smoke step.
//!
//! `bench_driver --progress FILE|-` (or `SWIFTDIR_PROGRESS`) streams
//! `swiftdir.progress.v1` heartbeats for the parallel legs — the
//! Figure-7 sweep, the fuzz grid, and the explorer workload — so a
//! long bench run can be followed with `swiftdir-report --follow`.
//!
//! Reference numbers from the commit that introduced this harness are
//! embedded under `"baseline"` so a regression shows up as a ratio
//! without digging through git history. They were measured on a 1-core
//! container; re-baseline when moving to different hardware.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use sim_engine::{CampaignCounters, Cycle, Json, ProgressSampler};
use swiftdir_coherence::{CoreRequest, Hierarchy, HierarchyConfig, ProtocolKind};
use swiftdir_core::{
    driver, explore, explore_campaign, explore_parallel_profiled, run_fuzz,
    run_fuzz_campaign_resumable, DriverReport, ExperimentSet, ExploreConfig, ExploreMode,
    FuzzConfig, ProgressConfig, RunStats, System, SystemConfig, EXPLORE_PHASES, FUZZ_PHASES,
};
use swiftdir_cpu::CpuModel;
use swiftdir_mmu::PhysAddr;
use swiftdir_workloads::{SpecBenchmark, SynthStream, WorkloadRegions};

const INSTRUCTIONS: u64 = 60_000;

/// Pre-optimization numbers measured on the reference container (1 CPU):
/// ms per single run (best of 5 × 40-run averages) and seconds for the
/// serial 69-point sweep.
const BASELINE_SINGLE_MS: f64 = 45.1;
const BASELINE_SWEEP_SERIAL_S: f64 = 6.571;

/// `--check` fails when the fresh single-run time exceeds the committed
/// one by more than this factor.
const CHECK_TOLERANCE: f64 = 1.10;

fn single_run(bench: SpecBenchmark, protocol: ProtocolKind) -> RunStats {
    let mut sys = System::new(
        SystemConfig::builder()
            .cores(1)
            .protocol(protocol)
            .cpu_model(CpuModel::DerivO3)
            .build(),
    );
    let pid = sys.spawn_process();
    let params = bench.params(INSTRUCTIONS);
    let regions = WorkloadRegions::map(&mut sys, pid, &params);
    let stream = SynthStream::new(params, regions, bench.seed());
    sys.run_thread_stream(pid, 0, stream);
    sys.run_to_completion()
}

fn sweep_points() -> Vec<(SpecBenchmark, ProtocolKind)> {
    let protocols = [
        ProtocolKind::Mesi,
        ProtocolKind::SwiftDir,
        ProtocolKind::SMesi,
    ];
    SpecBenchmark::ALL
        .into_iter()
        .flat_map(|b| protocols.into_iter().map(move |p| (b, p)))
        .collect()
}

fn time_sweep(
    threads: usize,
    progress: Option<&Arc<ProgressSampler>>,
) -> (DriverReport, Vec<RunStats>) {
    let points = sweep_points();
    if let Some(p) = progress {
        p.counters().add_total(points.len() as u64);
    }
    let mut set = ExperimentSet::new(points).threads(threads);
    if let Some(p) = progress {
        set = set.progress(Arc::clone(p));
    }
    let progress = progress.map(Arc::as_ref);
    let (stats, report) = set.run_with_report(move |&(b, p)| {
        let stats = single_run(b, p);
        if let Some(p) = progress {
            p.counters().add_done(1);
        }
        stats
    });
    (report, stats)
}

/// Best-of-batches single-run milliseconds.
fn measure_single_run(batches: usize, runs_per_batch: usize) -> f64 {
    let bench = SpecBenchmark::ALL[0];
    for _ in 0..3 {
        single_run(bench, ProtocolKind::Mesi); // warm-up
    }
    let mut best_ms = f64::INFINITY;
    for _ in 0..batches {
        let start = Instant::now();
        for _ in 0..runs_per_batch {
            single_run(bench, ProtocolKind::Mesi);
        }
        let ms = start.elapsed().as_secs_f64() * 1000.0 / runs_per_batch as f64;
        best_ms = best_ms.min(ms);
    }
    best_ms
}

/// The host's physical parallelism, independent of `SWIFTDIR_THREADS` —
/// recorded in the report so committed numbers carry their context.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CI smoke fuzz grid: every protocol × 25 seeds × 150 ops.
fn fuzz_grid() -> Vec<FuzzConfig> {
    ProtocolKind::ALL
        .into_iter()
        .flat_map(|p| {
            (0..25u64).map(move |seed| {
                let mut cfg = FuzzConfig::new(seed, p);
                cfg.ops = 150;
                cfg
            })
        })
        .collect()
}

/// The scale-out leg's machine: 64 cores over 8 directory banks.
const SCALE_CORES: usize = 64;
const SCALE_BANKS: usize = 8;
const SCALE_ROUNDS: u64 = 1000;

/// A contended 64-core workload spanning every directory bank:
/// bank-strided blocks with cross-core sharing and a store/WP-load mix.
fn scale_drive(h: &mut Hierarchy) {
    let mut t = Cycle(0);
    let stride = h.config().bank_geometry().size_bytes() / 8;
    for round in 0..SCALE_ROUNDS {
        for core in 0..SCALE_CORES {
            let addr = PhysAddr(0x10_0000 + (round % 64) * stride + (core as u64 % 4) * 64);
            let req = match (round + core as u64) % 4 {
                0 => CoreRequest::store(addr),
                1 => CoreRequest::load(addr).write_protected(),
                _ => CoreRequest::load(addr),
            };
            h.issue(t, core, req);
            t += Cycle(3);
        }
    }
}

fn scale_hierarchy() -> Hierarchy {
    Hierarchy::new(
        HierarchyConfig::table_v(SCALE_CORES, ProtocolKind::SwiftDir).with_banks(SCALE_BANKS),
    )
}

/// Runs the 64-core/8-bank leg to quiescence; returns `(serial_s, events)`.
fn measure_scale() -> (f64, u64) {
    let mut h = scale_hierarchy();
    scale_drive(&mut h);
    let start = Instant::now();
    h.run_until_idle();
    let serial_s = start.elapsed().as_secs_f64();
    (serial_s, h.stats().dispatched)
}

/// Coverage-gate-shaped exploration workload: per protocol, the four
/// contended streams the `--coverage` gate walks.
fn explore_workload() -> Vec<(ProtocolKind, Vec<swiftdir_core::AccessOp>)> {
    ProtocolKind::ALL
        .into_iter()
        .flat_map(|p| {
            (0..4u64).map(move |seed| (p, swiftdir_core::contended_stream(seed, 2, 2, 5, 0.3)))
        })
        .collect()
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--check") {
        return check_committed();
    }

    let mut pcfg = ProgressConfig::from_env();
    let mut cli = std::env::args().skip(1);
    while let Some(flag) = cli.next() {
        if flag == "--progress" {
            match cli.next() {
                Some(v) => pcfg.sink = ProgressConfig::parse_sink(&v),
                None => {
                    eprintln!("bench_driver: --progress expects a value (FILE or -)");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    // One campaign spans all parallel legs; both campaigns' phase names
    // are declared (a span for an undeclared name is a no-op).
    let all_phases: Vec<&'static str> = FUZZ_PHASES
        .iter()
        .chain(EXPLORE_PHASES.iter())
        .copied()
        .collect();
    let sampler = match pcfg.build(CampaignCounters::new(
        "bench",
        driver::default_threads(),
        &all_phases,
    )) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_driver: cannot open progress sink: {e}");
            return ExitCode::FAILURE;
        }
    };

    let threads = driver::default_threads();
    println!(
        "bench_driver: host has {} core(s), parallel legs use {threads} thread(s)\n",
        host_cores()
    );

    // --- single-simulation throughput: best of `reps` batches ----------
    let bench = SpecBenchmark::ALL[0];
    // One run's dispatched-event count (deterministic across repeats)
    // gives the event-throughput denominator.
    let events_per_run = single_run(bench, ProtocolKind::Mesi).hierarchy.dispatched;
    let best_ms = measure_single_run(5, 20);
    let events_per_sec = events_per_run as f64 / (best_ms / 1000.0);
    println!(
        "single run ({} x {INSTRUCTIONS} instr): {best_ms:.1} ms/run \
         (baseline {BASELINE_SINGLE_MS} ms, ratio {:.2}x)",
        bench.name(),
        BASELINE_SINGLE_MS / best_ms,
    );
    println!(
        "event throughput: {events_per_run} events/run, {:.0} k events/s",
        events_per_sec / 1000.0
    );

    // --- sweep: serial vs parallel -------------------------------------
    let (serial_report, serial_stats) = time_sweep(1, None);
    let serial_s = serial_report.total_wall_s;
    println!("fig7 sweep, serial   (69 runs): {serial_s:.3} s");
    let (parallel_report, parallel_stats) = time_sweep(threads, sampler.as_ref());
    let parallel_s = parallel_report.total_wall_s;
    println!("fig7 sweep, {threads:>2} thread(s)        : {parallel_s:.3} s");
    assert_eq!(
        serial_stats, parallel_stats,
        "serial and parallel sweeps must produce identical per-run stats"
    );
    println!("per-run stats identical across schedules: ok");
    let speedup = serial_s / parallel_s;
    println!(
        "sweep speedup {speedup:.2}x on {threads} thread(s) \
         (baseline serial {BASELINE_SWEEP_SERIAL_S} s)"
    );
    if let Some(slow) = serial_report.slowest() {
        let (b, p) = sweep_points()[slow.index];
        println!(
            "slowest point: {} / {p:?} at {:.1} ms",
            b.name(),
            slow.wall_s * 1000.0
        );
    }

    // --- fuzz fan-out: serial vs parallel, digests must agree ----------
    let grid = fuzz_grid();
    let start = Instant::now();
    let fuzz_serial = ExperimentSet::new(grid.clone()).threads(1).run(run_fuzz);
    let fuzz_serial_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let fuzz_parallel = run_fuzz_campaign_resumable(
        &grid,
        Some(threads),
        sampler.as_ref(),
        None,
        Vec::new(),
        None,
    )
    .expect("a campaign without a checkpoint does no I/O")
    .reports;
    let fuzz_parallel_s = start.elapsed().as_secs_f64();
    for (a, b) in fuzz_serial.iter().zip(&fuzz_parallel) {
        assert!(a.ok(), "fuzz {:?} failed in the bench harness", a.config);
        let b = b
            .as_ref()
            .expect("every fresh report is kept without a checkpoint");
        assert_eq!(
            (a.digest, a.events, &a.stats),
            (b.digest, b.events, &b.stats),
            "fuzz fan-out diverged across thread counts for {:?}",
            a.config
        );
    }
    let fuzz_seeds_per_s = grid.len() as f64 / fuzz_parallel_s;
    println!(
        "\nfuzz grid ({} seeds): serial {fuzz_serial_s:.3} s, {threads} thread(s) \
         {fuzz_parallel_s:.3} s ({:.2}x), {fuzz_seeds_per_s:.1} seeds/s; digests identical: ok",
        grid.len(),
        fuzz_serial_s / fuzz_parallel_s
    );

    // --- explorer fan-out: serial vs parallel, reports must agree ------
    let workload = explore_workload();
    let ecfg = ExploreConfig::default();
    let mut explore_schedules = 0u64;
    let start = Instant::now();
    let explore_serial: Vec<_> = workload
        .iter()
        .map(|(p, stream)| explore(&swiftdir_core::diff::tiny_config(2, *p), stream, &ecfg))
        .collect();
    let explore_serial_s = start.elapsed().as_secs_f64();
    if let Some(p) = sampler.as_ref() {
        p.counters().add_total(workload.len() as u64);
    }
    let start = Instant::now();
    let explore_parallel: Vec<_> = workload
        .iter()
        .map(|(p, stream)| {
            let (report, _profile) = explore_campaign(
                &swiftdir_core::diff::tiny_config(2, *p),
                stream,
                &ecfg,
                threads,
                sampler.as_ref(),
            );
            if let Some(s) = sampler.as_ref() {
                s.counters().add_done(1);
                s.tick();
            }
            report
        })
        .collect();
    let explore_parallel_s = start.elapsed().as_secs_f64();
    for (a, b) in explore_serial.iter().zip(&explore_parallel) {
        assert!(a.error.is_none(), "exploration failed: {:?}", a.error);
        assert_eq!(a, b, "explorer fan-out diverged across thread counts");
        explore_schedules += a.schedules;
    }
    let explore_schedules_per_s = explore_schedules as f64 / explore_parallel_s;
    println!(
        "explore workload ({} trees, {explore_schedules} schedules): serial \
         {explore_serial_s:.3} s, {threads} thread(s) {explore_parallel_s:.3} s ({:.2}x), \
         {explore_schedules_per_s:.0} schedules/s; reports identical: ok",
        workload.len(),
        explore_serial_s / explore_parallel_s
    );

    // --- many-core scale-out: sharded banks ----------------------------
    let (scale_serial_s, scale_events) = measure_scale();
    let scale_events_per_sec = scale_events as f64 / scale_serial_s;
    println!(
        "scale-out ({SCALE_CORES} cores / {SCALE_BANKS} banks, {scale_events} events): \
         serial {scale_serial_s:.3} s ({:.0} k events/s)",
        scale_events_per_sec / 1000.0
    );

    // --- undo vs fork walker: differential oracle + speedup -------------
    let fork_ecfg = ExploreConfig {
        mode: ExploreMode::Fork,
        ..ecfg
    };
    let start = Instant::now();
    let explore_fork: Vec<_> = workload
        .iter()
        .map(|(p, stream)| explore(&swiftdir_core::diff::tiny_config(2, *p), stream, &fork_ecfg))
        .collect();
    let explore_fork_s = start.elapsed().as_secs_f64();
    for (a, b) in explore_serial.iter().zip(&explore_fork) {
        assert_eq!(a, b, "undo and fork walkers diverged");
    }
    let undo_vs_fork_speedup = explore_fork_s / explore_serial_s;
    println!(
        "fork-walker oracle: {explore_fork_s:.3} s serial — undo walker is \
         {undo_vs_fork_speedup:.2}x faster; reports bit-identical: ok"
    );

    // --- report ---------------------------------------------------------
    let json = Json::object([
        ("instructions_per_run", Json::Uint(INSTRUCTIONS)),
        ("host_cores", Json::Uint(host_cores() as u64)),
        (
            "baseline",
            Json::object([
                ("single_run_ms", Json::Float(BASELINE_SINGLE_MS)),
                ("sweep_serial_s", Json::Float(BASELINE_SWEEP_SERIAL_S)),
            ]),
        ),
        (
            "current",
            Json::object([
                ("single_run_ms", Json::Float(best_ms)),
                (
                    "single_run_speedup",
                    Json::Float(BASELINE_SINGLE_MS / best_ms),
                ),
                ("events_per_run", Json::Uint(events_per_run)),
                ("events_per_sec", Json::Float(events_per_sec)),
                ("sweep_serial_s", Json::Float(serial_s)),
                ("sweep_parallel_s", Json::Float(parallel_s)),
                ("sweep_threads", Json::Uint(threads as u64)),
                ("sweep_speedup", Json::Float(speedup)),
                ("serial_parallel_stats_identical", Json::Bool(true)),
            ]),
        ),
        (
            "fuzz",
            Json::object([
                ("seeds", Json::Uint(grid.len() as u64)),
                ("serial_s", Json::Float(fuzz_serial_s)),
                ("parallel_s", Json::Float(fuzz_parallel_s)),
                ("threads", Json::Uint(threads as u64)),
                ("speedup", Json::Float(fuzz_serial_s / fuzz_parallel_s)),
                ("seeds_per_s", Json::Float(fuzz_seeds_per_s)),
                ("digests_identical", Json::Bool(true)),
            ]),
        ),
        (
            "explore",
            Json::object([
                ("trees", Json::Uint(workload.len() as u64)),
                ("schedules", Json::Uint(explore_schedules)),
                ("serial_s", Json::Float(explore_serial_s)),
                ("parallel_s", Json::Float(explore_parallel_s)),
                ("threads", Json::Uint(threads as u64)),
                (
                    "speedup",
                    Json::Float(explore_serial_s / explore_parallel_s),
                ),
                ("schedules_per_s", Json::Float(explore_schedules_per_s)),
                ("fork_serial_s", Json::Float(explore_fork_s)),
                ("undo_vs_fork_speedup", Json::Float(undo_vs_fork_speedup)),
                ("reports_identical", Json::Bool(true)),
            ]),
        ),
        (
            "scale",
            Json::object([
                ("cores", Json::Uint(SCALE_CORES as u64)),
                ("banks", Json::Uint(SCALE_BANKS as u64)),
                ("events", Json::Uint(scale_events)),
                ("serial_s", Json::Float(scale_serial_s)),
                ("events_per_sec", Json::Float(scale_events_per_sec)),
            ]),
        ),
        ("sweep_serial", serial_report.to_json()),
        ("sweep_parallel", parallel_report.to_json()),
    ]);
    std::fs::write("BENCH_driver.json", json.to_pretty()).expect("write BENCH_driver.json");
    println!("\nwrote BENCH_driver.json");
    if let Some(s) = &sampler {
        s.finish();
    }
    ExitCode::SUCCESS
}

/// `--check`: quick measurements against the committed
/// `BENCH_driver.json`; fails on a >10% regression of either the
/// single-run time or the explorer's schedule throughput. The CI bench
/// smoke.
fn check_committed() -> ExitCode {
    let text = match std::fs::read_to_string("BENCH_driver.json") {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_driver --check: cannot read BENCH_driver.json: {e}");
            return ExitCode::FAILURE;
        }
    };
    let committed = match Json::parse(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("bench_driver --check: BENCH_driver.json: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(committed_ms) = committed
        .get("current")
        .and_then(|c| c.get("single_run_ms"))
        .and_then(Json::as_f64)
    else {
        eprintln!("bench_driver --check: no current.single_run_ms in BENCH_driver.json");
        return ExitCode::FAILURE;
    };

    let measured_ms = measure_single_run(3, 10);
    let limit = committed_ms * CHECK_TOLERANCE;
    println!(
        "bench_driver --check: measured {measured_ms:.1} ms/run vs committed \
         {committed_ms:.1} ms (limit {limit:.1} ms)"
    );
    if measured_ms > limit {
        eprintln!(
            "bench_driver --check: FAIL — single_run_ms regressed >{:.0}% \
             (measured {measured_ms:.1} ms > {limit:.1} ms); rerun scripts/bench_driver.sh \
             and commit the refreshed BENCH_driver.json if intentional",
            (CHECK_TOLERANCE - 1.0) * 100.0
        );
        return ExitCode::FAILURE;
    }

    // Explorer throughput gate: re-walk the bench workload and compare
    // schedules/s against the committed figure.
    let Some(committed_sched_s) = committed
        .get("explore")
        .and_then(|c| c.get("schedules_per_s"))
        .and_then(Json::as_f64)
    else {
        eprintln!("bench_driver --check: no explore.schedules_per_s in BENCH_driver.json");
        return ExitCode::FAILURE;
    };
    let threads = driver::default_threads();
    let ecfg = ExploreConfig::default();
    let mut schedules = 0u64;
    let start = Instant::now();
    for (p, stream) in explore_workload() {
        let (r, _) = explore_parallel_profiled(
            &swiftdir_core::diff::tiny_config(2, p),
            &stream,
            &ecfg,
            threads,
        );
        assert!(r.error.is_none(), "exploration failed: {:?}", r.error);
        schedules += r.schedules;
    }
    let measured_sched_s = schedules as f64 / start.elapsed().as_secs_f64();
    let floor = committed_sched_s / CHECK_TOLERANCE;
    println!(
        "bench_driver --check: measured {measured_sched_s:.0} schedules/s vs committed \
         {committed_sched_s:.0} (floor {floor:.0})"
    );
    if measured_sched_s < floor {
        eprintln!(
            "bench_driver --check: FAIL — explore.schedules_per_s regressed >{:.0}% \
             (measured {measured_sched_s:.0} < {floor:.0}); rerun scripts/bench_driver.sh \
             and commit the refreshed BENCH_driver.json if intentional",
            (CHECK_TOLERANCE - 1.0) * 100.0
        );
        return ExitCode::FAILURE;
    }

    // Scale-out gate: the 64-core/8-bank leg must keep its event
    // throughput within tolerance.
    let Some(committed_eps) = committed
        .get("scale")
        .and_then(|c| c.get("events_per_sec"))
        .and_then(Json::as_f64)
    else {
        eprintln!("bench_driver --check: no scale.events_per_sec in BENCH_driver.json");
        return ExitCode::FAILURE;
    };
    let (scale_serial_s, scale_events) = measure_scale();
    let measured_eps = scale_events as f64 / scale_serial_s;
    let eps_floor = committed_eps / CHECK_TOLERANCE;
    println!(
        "bench_driver --check: scale-out {measured_eps:.0} events/s vs committed \
         {committed_eps:.0} (floor {eps_floor:.0})"
    );
    if measured_eps < eps_floor {
        eprintln!(
            "bench_driver --check: FAIL — scale.events_per_sec regressed >{:.0}% \
             (measured {measured_eps:.0} < {eps_floor:.0}); rerun scripts/bench_driver.sh \
             and commit the refreshed BENCH_driver.json if intentional",
            (CHECK_TOLERANCE - 1.0) * 100.0
        );
        return ExitCode::FAILURE;
    }
    println!("bench_driver --check: ok");
    ExitCode::SUCCESS
}
