//! Host-time harness for the simulator: the one place its wall-clock
//! cost is measured and gated.
//!
//! A full run measures these legs and writes `BENCH_driver.json` in the
//! current directory:
//!
//! 1. **Single run** — one Figure-7-style point (first SPEC profile,
//!    MESI, DerivO3, 60 k instructions, tracing off), the number the
//!    hot-path work moves; and the same point fully traced into a scratch
//!    directory (`trace.single_run_*`, `trace.ns_per_event`).
//! 2. **Fig. 7 sweep** — the 23 × 3 grid through [`ExperimentSet`],
//!    serial vs parallel with per-point stats asserted identical, and
//!    serial again with tracing capped at [`GRID_TRACE_LIMIT`] events
//!    per run (`trace.sweep_*`).
//! 3. **Fuzz** — the CI smoke grid (4 protocols × 25 seeds), serial vs
//!    parallel with per-seed digests asserted identical, and the
//!    campaign sampler's overhead (`sampler.*`).
//! 4. **Explorer** — coverage-gate-shaped trees, serial vs parallel with
//!    reports asserted identical (at one thread every task root is
//!    undo-restored, in parallel it is replayed from the root).
//! 5. **Scale-out** — a 64-core machine with the directory sharded into
//!    8 address-interleaved banks, run to quiescence serially.
//!
//! `bench_driver --check` re-measures the gated numbers against the
//! reference constants below ([`SINGLE_RUN`], [`SCALE`], [`EXPLORE`],
//! [`SAMPLER`]) and reads no file. It prints every gate's verdict and
//! fails if any gate fails — the CI perf gate. Two estimators:
//!
//! - **Absolute gates** time their units (the single run, the scale-out
//!   leg, each explore tree) in round-robin passes and keep each unit's
//!   best time. A best only improves as passes are added, so the check
//!   stops as soon as every absolute gate passes, or when
//!   [`CHECK_BUDGET`] runs out.
//! - **The sampler gate** is a ratio, which can move either way as
//!   passes are added: every fuzz seed runs as its own campaign with the
//!   sampler off and on back to back, for a fixed [`SAMPLER_PASSES`],
//!   and the gate compares the summed per-seed bests.
//!
//! A full run uses the same estimators over the whole budget.
//!
//! The parallel legs use `SWIFTDIR_THREADS` when set, else the host's
//! `std::thread::available_parallelism()`; the host core count is
//! recorded under `"host_cores"` so committed numbers carry their
//! hardware context (the CI gate pins `SWIFTDIR_THREADS=4`).
//!
//! `bench_driver --smoke BASE` runs one traced Fig. 7 point (first SPEC
//! profile, SwiftDir) writing `BASE.{jsonl,chrome.json,metrics.json}`
//! for `swiftdir-report`; no timing.
//!
//! `bench_driver --progress FILE|-` (or `SWIFTDIR_PROGRESS`) streams
//! `swiftdir.progress.v1` heartbeats for the parallel legs — the
//! Figure-7 sweep, the fuzz grid, and the explorer workload — so a
//! long bench run can be followed with `swiftdir-report --follow`.

use std::ops::Range;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sim_engine::{CampaignCounters, Cycle, Json, ProgressSampler};
use swiftdir_coherence::{CoreRequest, Hierarchy, HierarchyConfig, ProtocolKind};
use swiftdir_core::{
    driver, explore_campaign, run_fuzz, run_fuzz_campaign_resumable, AccessOp, DriverReport,
    ExperimentSet, ExploreConfig, FuzzConfig, ProgressConfig, RunStats, System, SystemConfig,
    TraceConfig, EXPLORE_PHASES, FUZZ_PHASES,
};
use swiftdir_cpu::CpuModel;
use swiftdir_mmu::PhysAddr;
use swiftdir_workloads::{SpecBenchmark, SynthStream, WorkloadRegions};

const INSTRUCTIONS: u64 = 60_000;

/// Wall-clock budget for the absolute gates' passes.
const CHECK_BUDGET: Duration = Duration::from_secs(60);

/// Passes of the sampler gate; a ratio gate cannot stop early.
const SAMPLER_PASSES: usize = 10;

/// Per-run event cap for the traced Fig. 7 sweep (bounds disk usage; the
/// traced single run is uncapped).
const GRID_TRACE_LIMIT: u64 = 50_000;

/// Scratch directory for the traced legs' files, removed after them.
const TRACE_SCRATCH: &str = "target/bench_driver_traces";

#[derive(Clone, Copy, Debug)]
enum Better {
    Lower,
    Higher,
}

/// A gated number: the measured value may be worse than `reference` by
/// at most `factor`.
#[derive(Clone, Copy, Debug)]
struct Gate {
    name: &'static str,
    better: Better,
    reference: f64,
    factor: f64,
}

impl Gate {
    fn limit(&self) -> f64 {
        match self.better {
            Better::Lower => self.reference * self.factor,
            Better::Higher => self.reference / self.factor,
        }
    }

    fn passes(&self, value: f64) -> bool {
        match self.better {
            Better::Lower => value <= self.limit(),
            Better::Higher => value >= self.limit(),
        }
    }

    /// The gated number from timed units' `(best seconds, work)`:
    /// milliseconds per work item when lower is better, work items per
    /// second when higher is.
    fn value(&self, units: &[(f64, u64)]) -> f64 {
        let secs: f64 = units.iter().map(|u| u.0).sum();
        let work = units.iter().map(|u| u.1).sum::<u64>() as f64;
        match self.better {
            Better::Lower => secs * 1e3 / work,
            Better::Higher => work / secs,
        }
    }
}

/// Milliseconds per single run. Tracing is off, so this is also the
/// disabled-tracing path's budget.
const SINGLE_RUN: Gate = Gate {
    name: "current.single_run_ms",
    better: Better::Lower,
    reference: 34.72144575,
    factor: 1.02,
};

/// Simulated events per second of the 64-core/8-bank leg.
const SCALE: Gate = Gate {
    name: "scale.events_per_sec",
    better: Better::Higher,
    reference: 6642926.63463235,
    factor: 1.10,
};

/// Schedules per second over the explore workload's trees.
const EXPLORE: Gate = Gate {
    name: "explore.schedules_per_s",
    better: Better::Higher,
    reference: 8303.50104549825,
    factor: 1.10,
};

/// Fuzz-grid time with a heartbeat sampler attached over time without.
const SAMPLER: Gate = Gate {
    name: "sampler.overhead",
    better: Better::Lower,
    reference: 1.0,
    factor: 1.02,
};

/// Round-robin passes over `units`, keeping each unit's best
/// `(seconds, work)`, where `time(u)` runs unit `u` once and `work`
/// counts what one run does (runs, events or schedules). After each
/// pass, stops when `settled(best)` holds or `more()` does not. Returns
/// the bests and the number of passes.
fn best_of_passes(
    units: usize,
    mut time: impl FnMut(usize) -> (f64, u64),
    mut more: impl FnMut() -> bool,
    settled: impl Fn(&[(f64, u64)]) -> bool,
) -> (Vec<(f64, u64)>, usize) {
    let mut best = vec![(f64::INFINITY, 0); units];
    let mut passes = 0;
    loop {
        for (u, b) in best.iter_mut().enumerate() {
            let sample = time(u);
            if sample.0 < b.0 {
                *b = sample;
            }
        }
        passes += 1;
        if settled(&best) || !more() {
            return (best, passes);
        }
    }
}

/// Per-seed best seconds with the sampler off (`[0]`) and on (`[1]`):
/// in each of `passes` passes every seed runs off and on back to back,
/// alternating which goes first from seed to seed and pass to pass.
fn interleaved_bests(
    seeds: usize,
    passes: usize,
    mut time: impl FnMut(usize, bool) -> f64,
) -> [Vec<f64>; 2] {
    let (mut off_best, mut on_best) = (vec![f64::INFINITY; seeds], vec![f64::INFINITY; seeds]);
    for pass in 0..passes {
        for (seed, (off, on)) in off_best.iter_mut().zip(&mut on_best).enumerate() {
            let on_first = (pass + seed) % 2 == 1;
            for sampled in [on_first, !on_first] {
                let b = if sampled { &mut *on } else { &mut *off };
                *b = b.min(time(seed, sampled));
            }
        }
    }
    [off_best, on_best]
}

/// The sampler gate's number: summed per-seed bests, on over off.
fn ratio_of_sums(best: &[Vec<f64>; 2]) -> f64 {
    best[1].iter().sum::<f64>() / best[0].iter().sum::<f64>()
}

/// Names of the gates whose values fail, in order.
fn failing(verdicts: &[(Gate, f64)]) -> Vec<&'static str> {
    verdicts
        .iter()
        .filter(|(g, v)| !g.passes(*v))
        .map(|(g, _)| g.name)
        .collect()
}

fn print_verdict(gate: &Gate, value: f64) {
    println!(
        "  {:<24} {value:>16.3}  limit {:>16.3} (reference {})  {}",
        gate.name,
        gate.limit(),
        gate.reference,
        if gate.passes(value) { "ok" } else { "FAIL" }
    );
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

fn single_run(bench: SpecBenchmark, protocol: ProtocolKind, trace: TraceConfig) -> RunStats {
    let mut sys = System::with_trace(
        SystemConfig::builder()
            .cores(1)
            .protocol(protocol)
            .cpu_model(CpuModel::DerivO3)
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
    trace: &TraceConfig,
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
        let stats = single_run(b, p, trace.clone());
        if let Some(p) = progress {
            p.counters().add_done(1);
        }
        stats
    });
    (report, stats)
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

/// The sampler gate's per-seed bests: each seed of the fuzz grid is one
/// serial campaign, with no sampler or with one heartbeat sampler (the
/// default 500 ms interval) shared by every sampled campaign.
fn measure_sampler() -> [Vec<f64>; 2] {
    let grid = fuzz_grid();
    let sampler = Arc::new(ProgressSampler::new(
        CampaignCounters::new("fuzz", 1, &FUZZ_PHASES),
        Box::new(std::io::sink()),
        Duration::from_millis(500),
    ));
    interleaved_bests(grid.len(), SAMPLER_PASSES, |seed, on| {
        let (secs, out) = timed(|| {
            run_fuzz_campaign_resumable(
                &grid[seed..=seed],
                Some(1),
                on.then_some(&sampler),
                None,
                Vec::new(),
                None,
            )
            .expect("a campaign without a checkpoint does no I/O")
        });
        assert_eq!(out.failures(), 0, "fuzz seed {seed} failed");
        secs
    })
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

/// Runs the 64-core/8-bank leg to quiescence; returns its seconds
/// (setup excluded) and dispatched events.
fn measure_scale() -> (f64, u64) {
    let mut h = Hierarchy::new(
        HierarchyConfig::table_v(SCALE_CORES, ProtocolKind::SwiftDir).with_banks(SCALE_BANKS),
    );
    scale_drive(&mut h);
    let (secs, done) = timed(|| h.run_until_idle());
    done.expect("scale-out leg hit a protocol error");
    (secs, h.stats().dispatched)
}

/// Coverage-gate-shaped exploration workload: per protocol, the four
/// contended streams the `--coverage` gate walks.
fn explore_workload() -> Vec<(ProtocolKind, Vec<AccessOp>)> {
    ProtocolKind::ALL
        .into_iter()
        .flat_map(|p| {
            (0..4u64).map(move |seed| (p, swiftdir_core::contended_stream(seed, 2, 2, 5, 0.3)))
        })
        .collect()
}

/// The absolute gates and the timed units each reads: unit 0 is the
/// single run, unit 1 the scale-out leg, then one unit per explore tree.
fn absolute_legs(trees: usize) -> [(Gate, Range<usize>); 3] {
    [(SINGLE_RUN, 0..1), (SCALE, 1..2), (EXPLORE, 2..2 + trees)]
}

/// Runs timed unit `u` (see [`absolute_legs`]); the unit after the last
/// explore tree is the single run fully traced, which no gate reads.
fn time_unit(u: usize, workload: &[(ProtocolKind, Vec<AccessOp>)], threads: usize) -> (f64, u64) {
    let bench = SpecBenchmark::ALL[0];
    match u {
        0 => (
            timed(|| single_run(bench, ProtocolKind::Mesi, TraceConfig::default())).0,
            1,
        ),
        1 => measure_scale(),
        u if u - 2 < workload.len() => {
            let (p, stream) = &workload[u - 2];
            let cfg = swiftdir_core::diff::tiny_config(2, *p);
            let (secs, (report, _)) =
                timed(|| explore_campaign(&cfg, stream, &ExploreConfig::default(), threads, None));
            assert!(
                report.error.is_none(),
                "exploration failed: {:?}",
                report.error
            );
            (secs, report.schedules)
        }
        _ => {
            let trace = TraceConfig::to_path(format!("{TRACE_SCRATCH}/single"));
            let (secs, _) = timed(|| single_run(bench, ProtocolKind::Mesi, trace));
            (secs, 1)
        }
    }
}

/// `--smoke BASE`: one traced Fig. 7 point for CI to feed into
/// `swiftdir-report`. No timing, no assertions.
fn smoke(base: &str) {
    if let Some(dir) = std::path::Path::new(base).parent() {
        std::fs::create_dir_all(dir).expect("create smoke output dir");
    }
    let stats = single_run(
        SpecBenchmark::ALL[0],
        ProtocolKind::SwiftDir,
        TraceConfig::to_path(base),
    );
    println!(
        "smoke: traced fig7 point ({} instr, {} events) -> {base}.metrics.json",
        stats.instructions(),
        stats.hierarchy.dispatched
    );
}

/// `--check`: every gate against its reference constant.
fn check() -> ExitCode {
    let threads = driver::default_threads();
    let workload = explore_workload();
    let legs = absolute_legs(workload.len());
    let start = Instant::now();
    let deadline = start + CHECK_BUDGET;
    let (best, passes) = best_of_passes(
        2 + workload.len(),
        |u| time_unit(u, &workload, threads),
        || Instant::now() < deadline,
        |b| legs.iter().all(|(g, r)| g.passes(g.value(&b[r.clone()]))),
    );
    let mut verdicts: Vec<(Gate, f64)> = legs
        .iter()
        .map(|(g, r)| (*g, g.value(&best[r.clone()])))
        .collect();
    verdicts.push((SAMPLER, ratio_of_sums(&measure_sampler())));
    println!(
        "bench_driver --check: absolute gates best of {passes} pass(es), sampler gate best of \
         {SAMPLER_PASSES}; {:.1} s",
        start.elapsed().as_secs_f64()
    );
    for (gate, value) in &verdicts {
        print_verdict(gate, *value);
    }
    let failed = failing(&verdicts);
    if failed.is_empty() {
        println!("bench_driver --check: ok");
        ExitCode::SUCCESS
    } else {
        eprintln!("bench_driver --check: FAIL — {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--check") {
        return check();
    }
    if args.first().map(String::as_str) == Some("--smoke") {
        smoke(args.get(1).map_or("trace/fig7", String::as_str));
        return ExitCode::SUCCESS;
    }

    let mut pcfg = ProgressConfig::from_env();
    let mut cli = args.into_iter();
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

    // --- absolute gates' units plus the traced single run, whole budget -
    let bench = SpecBenchmark::ALL[0];
    // One run's dispatched-event count (deterministic across repeats)
    // gives the event-throughput denominator.
    let events_per_run = single_run(bench, ProtocolKind::Mesi, TraceConfig::default())
        .hierarchy
        .dispatched;
    let workload = explore_workload();
    let legs = absolute_legs(workload.len());
    let traced_unit = 2 + workload.len();
    std::fs::create_dir_all(TRACE_SCRATCH).expect("create trace scratch dir");
    let deadline = Instant::now() + CHECK_BUDGET;
    let (best, passes) = best_of_passes(
        traced_unit + 1,
        |u| time_unit(u, &workload, threads),
        || Instant::now() < deadline,
        |_| false,
    );
    println!("absolute gates, best of {passes} passes:");
    for (gate, units) in &legs {
        print_verdict(gate, gate.value(&best[units.clone()]));
    }
    let best_ms = SINGLE_RUN.value(&best[0..1]);
    let events_per_sec = events_per_run as f64 / (best_ms / 1000.0);
    let traced_ms = best[traced_unit].0 * 1000.0;
    let trace_overhead = traced_ms / best_ms;
    let ns_per_event = (traced_ms - best_ms) * 1e6 / events_per_run as f64;
    println!(
        "single run ({} x {INSTRUCTIONS} instr): {best_ms:.1} ms/run, {events_per_run} events, \
         {:.0} k events/s; traced {traced_ms:.1} ms ({trace_overhead:.2}x, \
         {ns_per_event:.0} ns/event)",
        bench.name(),
        events_per_sec / 1000.0
    );

    // --- sweep: serial vs parallel, then serial traced -----------------
    let untraced = TraceConfig::default();
    let (serial_report, serial_stats) = time_sweep(1, None, &untraced);
    let serial_s = serial_report.total_wall_s;
    println!("\nfig7 sweep, serial   (69 runs): {serial_s:.3} s");
    let (parallel_report, parallel_stats) = time_sweep(threads, sampler.as_ref(), &untraced);
    let parallel_s = parallel_report.total_wall_s;
    println!("fig7 sweep, {threads:>2} thread(s)        : {parallel_s:.3} s");
    assert_eq!(
        serial_stats, parallel_stats,
        "serial and parallel sweeps must produce identical per-run stats"
    );
    println!("per-run stats identical across schedules: ok");
    let speedup = serial_s / parallel_s;
    println!("sweep speedup {speedup:.2}x on {threads} thread(s)");
    if let Some(slow) = serial_report.slowest() {
        let (b, p) = sweep_points()[slow.index];
        println!(
            "slowest point: {} / {p:?} at {:.1} ms",
            b.name(),
            slow.wall_s * 1000.0
        );
    }
    let mut grid_trace = TraceConfig::to_path(format!("{TRACE_SCRATCH}/grid"));
    grid_trace.limit = Some(GRID_TRACE_LIMIT);
    let traced_sweep_s = time_sweep(1, None, &grid_trace).0.total_wall_s;
    let _ = std::fs::remove_dir_all(TRACE_SCRATCH);
    println!(
        "fig7 sweep, serial traced: {traced_sweep_s:.3} s ({:.2}x, capped at \
         {GRID_TRACE_LIMIT} events/run)",
        traced_sweep_s / serial_s
    );

    // --- fuzz fan-out: serial vs parallel, digests must agree ----------
    let grid = fuzz_grid();
    let (fuzz_serial_s, fuzz_serial) =
        timed(|| ExperimentSet::new(grid.clone()).threads(1).run(run_fuzz));
    let (fuzz_parallel_s, fuzz_parallel) = timed(|| {
        run_fuzz_campaign_resumable(
            &grid,
            Some(threads),
            sampler.as_ref(),
            None,
            Vec::new(),
            None,
        )
        .expect("a campaign without a checkpoint does no I/O")
        .reports
    });
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
    let sampler_best = measure_sampler();
    let sampler_off_s: f64 = sampler_best[0].iter().sum();
    let sampler_on_s: f64 = sampler_best[1].iter().sum();
    let sampler_overhead = ratio_of_sums(&sampler_best);
    println!(
        "fuzz grid, per-seed bests of {SAMPLER_PASSES}: sampler off {sampler_off_s:.3} s, \
         on {sampler_on_s:.3} s ({sampler_overhead:.3}x)"
    );
    print_verdict(&SAMPLER, sampler_overhead);

    // --- explorer: serial vs parallel, reports agree -----------------------
    let explore_all = |ecfg: &ExploreConfig, threads, progress: Option<&Arc<ProgressSampler>>| {
        timed(|| -> Vec<_> {
            workload
                .iter()
                .map(|(p, stream)| {
                    let cfg = swiftdir_core::diff::tiny_config(2, *p);
                    let (report, _) = explore_campaign(&cfg, stream, ecfg, threads, progress);
                    if let Some(s) = progress {
                        s.counters().add_done(1);
                        s.tick();
                    }
                    report
                })
                .collect()
        })
    };
    let ecfg = ExploreConfig::default();
    let (explore_serial_s, explore_serial) = explore_all(&ecfg, 1, None);
    if let Some(p) = sampler.as_ref() {
        p.counters().add_total(workload.len() as u64);
    }
    let (explore_parallel_s, explore_parallel) = explore_all(&ecfg, threads, sampler.as_ref());
    let mut explore_schedules = 0u64;
    for (a, b) in explore_serial.iter().zip(&explore_parallel) {
        assert!(a.error.is_none(), "exploration failed: {:?}", a.error);
        assert_eq!(a, b, "explorer fan-out diverged across thread counts");
        explore_schedules += a.schedules;
    }
    let explore_schedules_per_s = EXPLORE.value(&best[legs[2].1.clone()]);
    println!(
        "\nexplore workload ({} trees, {explore_schedules} schedules): serial \
         {explore_serial_s:.3} s, {threads} thread(s) {explore_parallel_s:.3} s ({:.2}x); \
         reports identical: ok",
        workload.len(),
        explore_serial_s / explore_parallel_s
    );

    // --- report ---------------------------------------------------------
    let (scale_s, scale_events) = best[1];
    let json = Json::object([
        ("instructions_per_run", Json::Uint(INSTRUCTIONS)),
        ("host_cores", Json::Uint(host_cores() as u64)),
        ("gate_passes", Json::Uint(passes as u64)),
        (
            "current",
            Json::object([
                ("single_run_ms", Json::Float(best_ms)),
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
            "trace",
            Json::object([
                ("single_run_on_ms", Json::Float(traced_ms)),
                ("single_run_overhead", Json::Float(trace_overhead)),
                ("ns_per_event", Json::Float(ns_per_event)),
                ("grid_trace_limit", Json::Uint(GRID_TRACE_LIMIT)),
                ("sweep_serial_on_s", Json::Float(traced_sweep_s)),
                ("sweep_overhead", Json::Float(traced_sweep_s / serial_s)),
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
            "sampler",
            Json::object([
                ("passes", Json::Uint(SAMPLER_PASSES as u64)),
                ("off_s", Json::Float(sampler_off_s)),
                ("on_s", Json::Float(sampler_on_s)),
                ("overhead", Json::Float(sampler_overhead)),
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
                ("reports_identical", Json::Bool(true)),
            ]),
        ),
        (
            "scale",
            Json::object([
                ("cores", Json::Uint(SCALE_CORES as u64)),
                ("banks", Json::Uint(SCALE_BANKS as u64)),
                ("events", Json::Uint(scale_events)),
                ("serial_s", Json::Float(scale_s)),
                ("events_per_sec", Json::Float(SCALE.value(&best[1..2]))),
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays `samples[pass][unit]` seconds (work 1) through
    /// [`best_of_passes`]; the budget ends when the list does.
    fn replay(
        samples: &[Vec<f64>],
        settled: impl Fn(&[(f64, u64)]) -> bool,
    ) -> (Vec<(f64, u64)>, usize) {
        let calls = std::cell::Cell::new(0);
        let units = samples[0].len();
        best_of_passes(
            units,
            |u| {
                let t = samples[calls.get() / units][u];
                calls.set(calls.get() + 1);
                (t, 1)
            },
            || calls.get() / units < samples.len(),
            settled,
        )
    }

    #[test]
    fn bounds_hold_in_both_directions_and_at_the_limit() {
        let lower = Gate {
            name: "lower",
            better: Better::Lower,
            reference: 10.0,
            factor: 1.25,
        };
        assert!(lower.passes(12.5), "exactly at the limit passes");
        assert!(lower.passes(9.0));
        assert!(!lower.passes(12.6));
        let higher = Gate {
            name: "higher",
            better: Better::Higher,
            reference: 10.0,
            factor: 1.25,
        };
        assert!(higher.passes(8.0), "exactly at the limit passes");
        assert!(higher.passes(11.0));
        assert!(!higher.passes(7.9));
    }

    #[test]
    fn early_exit_gives_the_whole_lists_verdict_and_bests() {
        // Two units whose mean must reach 2 ms: the third pass settles
        // it, and later passes improve neither unit.
        let gate = Gate {
            name: "ms",
            better: Better::Lower,
            reference: 2.0,
            factor: 1.0,
        };
        let samples = vec![
            vec![0.004, 0.001],
            vec![0.0035, 0.002],
            vec![0.0009, 0.0011],
            vec![0.002, 0.003],
            vec![0.0009, 0.0015],
        ];
        let (early, early_passes) = replay(&samples, |b| gate.passes(gate.value(b)));
        let (full, full_passes) = replay(&samples, |_| false);
        assert_eq!((early_passes, full_passes), (3, samples.len()));
        assert_eq!(early, full);
        assert!(gate.passes(gate.value(&early)) && gate.passes(gate.value(&full)));
        // A gate that never settles runs the whole budget to the same verdict.
        let strict = Gate {
            reference: 0.5,
            ..gate
        };
        let (never, passes) = replay(&samples, |b| strict.passes(strict.value(b)));
        assert!(!strict.passes(strict.value(&full)));
        assert_eq!((never, passes), (full, samples.len()));
    }

    #[test]
    fn a_failing_gate_does_not_hide_a_later_one() {
        let verdicts = [
            (SINGLE_RUN, SINGLE_RUN.limit() * 1.5),
            (SCALE, SCALE.limit() * 2.0),
            (EXPLORE, EXPLORE.limit() / 2.0),
            (SAMPLER, 1.05),
        ];
        assert_eq!(
            failing(&verdicts),
            [
                "current.single_run_ms",
                "explore.schedules_per_s",
                "sampler.overhead"
            ]
        );
        assert!(failing(&[(SAMPLER, SAMPLER.limit())]).is_empty());
    }

    #[test]
    fn the_ratio_gate_compares_sums_of_per_seed_bests() {
        // Per (pass, seed): (off, on). The best whole passes would read
        // 3.0 / 3.0; the per-seed bests read 3.0 / 2.9.
        let samples = [
            [(1.0, 1.1), (2.0, 2.4)],
            [(1.2, 1.0), (3.0, 2.0)],
            [(0.9, 1.3), (2.2, 2.1)],
        ];
        let mut order = Vec::new();
        let best = interleaved_bests(2, samples.len(), |seed, on| {
            let pass = order.len() / 4;
            order.push((seed, on));
            let (off_t, on_t) = samples[pass][seed];
            if on {
                on_t
            } else {
                off_t
            }
        });
        assert_eq!(best, [vec![0.9, 2.0], vec![1.0, 2.0]]);
        assert!((ratio_of_sums(&best) - 3.0 / 2.9).abs() < 1e-12);
        // Off and on run back to back, and which goes first alternates.
        let on_first: Vec<bool> = order
            .chunks(2)
            .map(|pair| {
                assert!(pair[0].0 == pair[1].0 && pair[0].1 != pair[1].1);
                pair[0].1
            })
            .collect();
        assert_eq!(on_first, [false, true, true, false, false, true]);
    }
}
