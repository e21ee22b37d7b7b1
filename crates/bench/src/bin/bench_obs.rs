//! Observability-overhead harness.
//!
//! Measures what tracing costs — and, just as important, what it costs
//! when it is **off** — and writes `BENCH_obs.json`:
//!
//! 1. **Disabled-path single run** — the same Figure-7-style point as
//!    `bench_driver` (first SPEC profile, MESI, DerivO3), tracing off.
//!    When `BENCH_driver.json` is present (the normal case:
//!    `scripts/bench_obs.sh` runs the driver harness first), the harness
//!    asserts this time is within 2% of the driver's number — the
//!    instrumentation must stay off the hot path.
//! 2. **Traced single run** — the same point with full (uncapped)
//!    tracing into a scratch directory; reports the per-event cost.
//! 3. **Fig7 grid** — the 23 × 3 sweep, serial, tracing off and then
//!    tracing on (capped at [`GRID_TRACE_LIMIT`] events per run so the
//!    sweep cannot fill the disk; the cap is recorded in the output).
//! 4. **Campaign sampler** — the CI fuzz grid with and without a
//!    `swiftdir.progress.v1` heartbeat sampler attached; the sampler is
//!    the *other* always-on observability path and gets the same ≤2%
//!    budget as disabled tracing.
//!
//! `bench_obs --check` re-measures the cheap gates — the disabled-path
//! single run against the committed `BENCH_driver.json`, and the fuzz
//! grid with the sampler on vs off — and exits non-zero when either
//! exceeds its budget. This is the CI observability-overhead leg.
//!
//! Scratch trace and heartbeat files go under
//! `target/bench_obs_traces/` and are removed afterwards.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sim_engine::{CampaignCounters, Json, ProgressSampler};
use swiftdir_coherence::ProtocolKind;
use swiftdir_core::{
    driver, run_fuzz_campaign_resumable, ExperimentSet, FuzzConfig, RunStats, System, SystemConfig,
    TraceConfig, FUZZ_PHASES,
};
use swiftdir_cpu::CpuModel;
use swiftdir_workloads::{SpecBenchmark, SynthStream, WorkloadRegions};

const INSTRUCTIONS: u64 = 60_000;

/// Allowed disabled-path regression over `BENCH_driver.json`'s
/// single-run time.
const MAX_DISABLED_OVERHEAD: f64 = 1.02;

/// Allowed fuzz-grid slowdown with a campaign sampler attached
/// (heartbeats at the default 500 ms interval to a scratch file).
const MAX_SAMPLER_OVERHEAD: f64 = 1.02;

/// Per-run event cap for the traced grid sweep (bounds disk usage; the
/// traced *single* run is uncapped).
const GRID_TRACE_LIMIT: u64 = 50_000;

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

fn scratch_dir() -> PathBuf {
    let dir = PathBuf::from("target/bench_obs_traces");
    std::fs::create_dir_all(&dir).expect("create trace scratch dir");
    dir
}

fn clear_scratch() {
    let _ = std::fs::remove_dir_all("target/bench_obs_traces");
}

/// Best-of-batches single-run milliseconds under `trace`.
fn time_single(batches: usize, runs: usize, trace: &TraceConfig) -> f64 {
    let bench = SpecBenchmark::ALL[0];
    let mut best_ms = f64::INFINITY;
    for _ in 0..batches {
        let start = Instant::now();
        for _ in 0..runs {
            single_run(bench, ProtocolKind::Mesi, trace.clone());
        }
        let ms = start.elapsed().as_secs_f64() * 1000.0 / runs as f64;
        best_ms = best_ms.min(ms);
        if trace.is_enabled() {
            clear_scratch();
            scratch_dir();
        }
    }
    best_ms
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

/// Serial fig7 sweep under `trace`; returns wall seconds.
fn time_sweep(trace: &TraceConfig) -> f64 {
    let (_, report) = ExperimentSet::new(sweep_points())
        .threads(1)
        .run_with_report(|&(b, p)| single_run(b, p, trace.clone()));
    report.total_wall_s
}

/// The CI smoke fuzz grid (mirrors `bench_driver`'s).
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

/// Best-of-batches wall seconds for the serial fuzz grid, with or
/// without a heartbeat sampler attached (default interval, scratch
/// file sink). Asserts the campaign stays clean either way.
fn time_fuzz_grid(batches: usize, with_sampler: bool) -> f64 {
    let grid = fuzz_grid();
    let mut best = f64::INFINITY;
    for i in 0..batches {
        let sampler = if with_sampler {
            let path = scratch_dir().join(format!("heartbeats-{i}.jsonl"));
            let out = std::fs::File::create(&path).expect("create heartbeat scratch file");
            Some(Arc::new(ProgressSampler::new(
                CampaignCounters::new("fuzz", 1, &FUZZ_PHASES),
                Box::new(out),
                Duration::from_millis(500),
            )))
        } else {
            None
        };
        let start = Instant::now();
        let out =
            run_fuzz_campaign_resumable(&grid, Some(1), sampler.as_ref(), None, Vec::new(), None)
                .expect("a campaign without a checkpoint does no I/O");
        let s = start.elapsed().as_secs_f64();
        if let Some(sam) = &sampler {
            sam.finish();
        }
        assert_eq!(out.failures(), 0, "fuzz grid failed in the obs harness");
        best = best.min(s);
    }
    if with_sampler {
        clear_scratch();
    }
    best
}

/// The driver harness's current single-run ms, if `BENCH_driver.json`
/// exists next to the working directory.
fn driver_single_ms() -> Option<f64> {
    let text = std::fs::read_to_string("BENCH_driver.json").ok()?;
    let json = Json::parse(&text).ok()?;
    json.get("current")?.get("single_run_ms")?.as_f64()
}

/// `bench_obs --smoke <base>`: runs ONE traced fig7 point (first SPEC
/// profile, SwiftDir) writing `<base>.{jsonl,chrome.json,metrics.json}`,
/// for CI to feed into `swiftdir-report`. No timing, no assertions.
fn smoke(base: &str) {
    if let Some(dir) = std::path::Path::new(base).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create smoke output dir");
        }
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--smoke") {
        let base = args.get(1).map_or("trace/fig7", String::as_str);
        smoke(base);
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) == Some("--check") {
        return check_gates();
    }
    println!(
        "bench_obs: {} worker thread(s) available\n",
        driver::default_threads()
    );
    let bench = SpecBenchmark::ALL[0];
    for _ in 0..3 {
        single_run(bench, ProtocolKind::Mesi, TraceConfig::default()); // warm-up
    }
    let events_per_run = single_run(bench, ProtocolKind::Mesi, TraceConfig::default())
        .hierarchy
        .dispatched;

    // --- single run, tracing off vs on ---------------------------------
    let off_ms = time_single(5, 20, &TraceConfig::default());
    println!("single run, tracing off: {off_ms:.1} ms");

    let traced = TraceConfig::to_path(scratch_dir().join("single"));
    let on_ms = time_single(3, 5, &traced);
    clear_scratch();
    let single_overhead = on_ms / off_ms;
    let ns_per_event = (on_ms - off_ms) * 1e6 / events_per_run as f64;
    println!(
        "single run, tracing on : {on_ms:.1} ms ({single_overhead:.2}x, \
         {events_per_run} events/run, {ns_per_event:.0} ns/event)"
    );

    // --- fig7 grid, tracing off vs capped-on ---------------------------
    let grid_off_s = time_sweep(&TraceConfig::default());
    println!("fig7 grid, tracing off : {grid_off_s:.3} s");
    let mut grid_trace = TraceConfig::to_path(scratch_dir().join("grid"));
    grid_trace.limit = Some(GRID_TRACE_LIMIT);
    let grid_on_s = time_sweep(&grid_trace);
    clear_scratch();
    println!(
        "fig7 grid, tracing on  : {grid_on_s:.3} s \
         (capped at {GRID_TRACE_LIMIT} events/run)"
    );

    // --- fuzz grid, sampler off vs on ----------------------------------
    let sampler_off_s = time_fuzz_grid(3, false);
    let sampler_on_s = time_fuzz_grid(3, true);
    let sampler_overhead = sampler_on_s / sampler_off_s;
    println!(
        "fuzz grid, sampler off : {sampler_off_s:.3} s\n\
         fuzz grid, sampler on  : {sampler_on_s:.3} s ({sampler_overhead:.3}x, \
         budget {MAX_SAMPLER_OVERHEAD}x)"
    );

    // --- disabled-path budget vs the driver harness --------------------
    let driver_ms = driver_single_ms();
    match driver_ms {
        Some(d) => {
            let ratio = off_ms / d;
            println!(
                "\ndisabled path vs BENCH_driver.json: {off_ms:.1} ms vs {d:.1} ms \
                 ({ratio:.3}x, budget {MAX_DISABLED_OVERHEAD}x)"
            );
            assert!(
                ratio <= MAX_DISABLED_OVERHEAD,
                "tracing-disabled single run regressed {ratio:.3}x over \
                 BENCH_driver.json (budget {MAX_DISABLED_OVERHEAD}x)"
            );
            println!("disabled-path budget: ok");
        }
        None => println!("\nBENCH_driver.json not found; skipping the disabled-path budget check"),
    }

    let json = Json::object([
        ("instructions_per_run", Json::Uint(INSTRUCTIONS)),
        ("events_per_run", Json::Uint(events_per_run)),
        ("grid_trace_limit", Json::Uint(GRID_TRACE_LIMIT)),
        ("max_disabled_overhead", Json::Float(MAX_DISABLED_OVERHEAD)),
        (
            "single_run",
            Json::object([
                ("off_ms", Json::Float(off_ms)),
                ("on_ms", Json::Float(on_ms)),
                ("overhead", Json::Float(single_overhead)),
                ("ns_per_event", Json::Float(ns_per_event)),
            ]),
        ),
        (
            "fig7_grid_serial",
            Json::object([
                ("off_s", Json::Float(grid_off_s)),
                ("on_s", Json::Float(grid_on_s)),
                ("overhead", Json::Float(grid_on_s / grid_off_s)),
            ]),
        ),
        (
            "sampler_fuzz_grid",
            Json::object([
                ("off_s", Json::Float(sampler_off_s)),
                ("on_s", Json::Float(sampler_on_s)),
                ("overhead", Json::Float(sampler_overhead)),
                ("max_overhead", Json::Float(MAX_SAMPLER_OVERHEAD)),
            ]),
        ),
        (
            "driver_single_run_ms",
            driver_ms.map_or(Json::Null, Json::Float),
        ),
        (
            "disabled_path_within_budget",
            match driver_ms {
                Some(d) => Json::Bool(off_ms / d <= MAX_DISABLED_OVERHEAD),
                None => Json::Null,
            },
        ),
    ]);
    std::fs::write("BENCH_obs.json", json.to_pretty()).expect("write BENCH_obs.json");
    println!("\nwrote BENCH_obs.json");
    ExitCode::SUCCESS
}

/// `--check`: the CI observability-overhead gates. Re-measures the
/// cheap figures — the tracing-disabled single run against the
/// committed `BENCH_driver.json` (when present), and the fuzz grid
/// with a heartbeat sampler on vs off — and fails on a budget breach.
fn check_gates() -> ExitCode {
    let bench = SpecBenchmark::ALL[0];
    for _ in 0..3 {
        single_run(bench, ProtocolKind::Mesi, TraceConfig::default()); // warm-up
    }

    let mut ok = true;
    match driver_single_ms() {
        Some(d) => {
            let off_ms = time_single(3, 10, &TraceConfig::default());
            let ratio = off_ms / d;
            println!(
                "bench_obs --check: disabled path {off_ms:.1} ms vs BENCH_driver.json \
                 {d:.1} ms ({ratio:.3}x, budget {MAX_DISABLED_OVERHEAD}x)"
            );
            if ratio > MAX_DISABLED_OVERHEAD {
                eprintln!(
                    "bench_obs --check: FAIL — tracing-disabled single run regressed \
                     {ratio:.3}x over BENCH_driver.json (budget {MAX_DISABLED_OVERHEAD}x)"
                );
                ok = false;
            }
        }
        None => println!(
            "bench_obs --check: BENCH_driver.json not found; skipping the disabled-path gate"
        ),
    }

    // Warm-up plus best-of-5 on both sides: the grid only takes ~0.1 s,
    // so single-shot timings carry several percent of scheduler noise —
    // more than the margin this gate polices.
    time_fuzz_grid(1, false);
    let off_s = time_fuzz_grid(5, false);
    let on_s = time_fuzz_grid(5, true);
    let overhead = on_s / off_s;
    println!(
        "bench_obs --check: fuzz grid sampler off {off_s:.3} s, on {on_s:.3} s \
         ({overhead:.3}x, budget {MAX_SAMPLER_OVERHEAD}x)"
    );
    if overhead > MAX_SAMPLER_OVERHEAD {
        eprintln!(
            "bench_obs --check: FAIL — campaign sampler costs {overhead:.3}x on the \
             fuzz grid (budget {MAX_SAMPLER_OVERHEAD}x)"
        );
        ok = false;
    }

    if ok {
        println!("bench_obs --check: ok");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
