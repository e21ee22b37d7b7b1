//! `swiftdir-explore`: bounded-exhaustive schedule exploration,
//! differential cross-protocol checking, and the Table I–III
//! transition-coverage gate.
//!
//! ```text
//! swiftdir-explore [--smoke] [--coverage] [--diff] [--oracle]
//!                  [--depth-profile] [--protocol NAME]
//!                  [--cores N] [--blocks N] [--ops N] [--streams N]
//!                  [--depth N] [--window N] [--seeds N]
//!                  [--progress FILE|-] [--checkpoint FILE] [--resume FILE]
//! ```
//!
//! * default — explore `--streams` contended streams per protocol with
//!   the given scenario shape, printing schedules explored, states
//!   pruned, sleep-set skips, and transition coverage. Any protocol
//!   error, invariant violation, or budget truncation fails the run.
//! * `--diff` — additionally run the differential layer: architectural
//!   equivalence of all four protocols on well-separated streams, and
//!   SwiftDir≡MESI schedule-tree isomorphism on WP-free streams.
//! * `--oracle` — additionally run the walker oracle: the undo-log
//!   backtracking explorer and the fork-based explorer must produce
//!   whole-report-identical results on every stream.
//! * `--smoke` — the CI configuration: exhaustive 2-core × 2-block
//!   exploration for every protocol plus the differential layer and
//!   the walker oracle.
//! * `--coverage` — the CI coverage gate: union the transition matrices
//!   from exploration and a `--seeds`-sized fuzz sweep, then require
//!   exact Table I–III coverage per protocol — every legal (state,
//!   event) pair observed, nothing outside the legal set — printing any
//!   uncovered or illegal pairs.
//! * `--depth-profile` — print each protocol's per-depth walk profile
//!   after its summary line: a JSON array of `{depth, nodes, backtracks,
//!   undo_bytes}` objects, the same form the final heartbeat carries as
//!   `depth_profile`. The profile is collected on every exploration run
//!   regardless; this flag only controls the printout.
//! * `--progress FILE|-` — stream `swiftdir.progress.v1` heartbeats
//!   (JSONL, one campaign unit per explored tree) to `FILE` (`-` =
//!   stdout) during the exploration suite; the final record folds in
//!   the campaign-wide depth profile. `SWIFTDIR_PROGRESS` /
//!   `SWIFTDIR_PROGRESS_INTERVAL_MS` set the same knobs from the
//!   environment. Telemetry is passive: reports are bit-identical with
//!   it on or off.
//! * `--checkpoint FILE` / `--resume FILE` — journal every completed
//!   schedule tree to a `swiftdir.ckpt.v1` file, and resume a killed
//!   exploration from its last durable record. Resume granularity is
//!   the tree (a tree killed mid-walk is deterministically re-walked),
//!   so the finished campaign's digest set is bit-identical to an
//!   uninterrupted run. On resume, coverage soundness is still checked
//!   over the freshly walked trees (a subset can only observe a subset
//!   of legal transitions); pruning, sleep-set and depth-profile
//!   figures cover fresh trees only.
//!
//! The exploration suite's trees fan over worker threads at one thread
//! each, and every run, checkpointed or not, ends the suite with one
//! line: units (fresh and resumed) and the campaign's `digest_set`.
//! Exits non-zero on any failure.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use sim_engine::{CampaignCounters, ProgressSampler};
use swiftdir_coherence::{CoverageSpec, ObservedCoverage, ProtocolKind};
use swiftdir_core::diff::{
    architectural_diff, contended_stream, explored_equivalence, tiny_config, well_separated_stream,
};
use swiftdir_core::driver;
use swiftdir_core::explore::{
    check_max_depth, explore_parallel_profiled, DepthProfile, ExploreConfig, ExploreMode,
    EXPLORE_PHASES,
};
use swiftdir_core::fuzz::{run_fuzz, FuzzConfig};
use swiftdir_core::{
    explore_grid_digest, run_explore_campaign_resumable, CheckpointWriter, CkptHeader,
    ExperimentSet, ExploreUnit, ProgressConfig,
};

struct Args {
    smoke: bool,
    coverage: bool,
    diff: bool,
    oracle: bool,
    depth_profile: bool,
    protocols: Vec<ProtocolKind>,
    cores: usize,
    blocks: usize,
    ops: usize,
    streams: u64,
    depth: usize,
    window: u64,
    seeds: u64,
    progress: Option<String>,
    checkpoint: Option<String>,
    resume: Option<String>,
}

impl Args {
    /// The exploration budgets every suite runs with.
    fn explore_config(&self) -> ExploreConfig {
        ExploreConfig {
            window: self.window,
            max_depth: self.depth,
            ..ExploreConfig::default()
        }
    }

    /// The suite's (protocol × stream) grid of schedule trees, protocol
    /// major.
    fn grid(&self) -> Vec<ExploreUnit> {
        self.protocols
            .iter()
            .flat_map(|&protocol| {
                let cfg = tiny_config(self.cores, protocol);
                (0..self.streams).map(move |seed| ExploreUnit {
                    cfg,
                    stream: contended_stream(seed, self.cores, self.blocks, self.ops, 0.3),
                })
            })
            .collect()
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        coverage: false,
        diff: false,
        oracle: false,
        depth_profile: false,
        protocols: ProtocolKind::ALL.to_vec(),
        cores: 2,
        blocks: 2,
        ops: 6,
        streams: 8,
        depth: 4096,
        window: 48,
        seeds: 500,
        progress: None,
        checkpoint: None,
        resume: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--smoke" => {
                args.smoke = true;
                args.ops = 5;
                args.streams = 5;
            }
            "--coverage" => args.coverage = true,
            "--diff" => args.diff = true,
            "--oracle" => args.oracle = true,
            "--depth-profile" => args.depth_profile = true,
            "--cores" => args.cores = value("--cores")?.parse().map_err(|e| format!("{e}"))?,
            "--blocks" => args.blocks = value("--blocks")?.parse().map_err(|e| format!("{e}"))?,
            "--ops" => args.ops = value("--ops")?.parse().map_err(|e| format!("{e}"))?,
            "--streams" => {
                args.streams = value("--streams")?.parse().map_err(|e| format!("{e}"))?
            }
            "--depth" => {
                args.depth =
                    check_max_depth(value("--depth")?.parse().map_err(|e| format!("{e}"))?)?
            }
            "--window" => args.window = value("--window")?.parse().map_err(|e| format!("{e}"))?,
            "--seeds" => args.seeds = value("--seeds")?.parse().map_err(|e| format!("{e}"))?,
            "--progress" => args.progress = Some(value("--progress")?),
            "--checkpoint" => args.checkpoint = Some(value("--checkpoint")?),
            "--resume" => args.resume = Some(value("--resume")?),
            "--protocol" => {
                let name = value("--protocol")?;
                args.protocols = vec![match name.to_ascii_lowercase().as_str() {
                    "msi" => ProtocolKind::Msi,
                    "mesi" => ProtocolKind::Mesi,
                    "smesi" | "s-mesi" => ProtocolKind::SMesi,
                    "swiftdir" => ProtocolKind::SwiftDir,
                    other => return Err(format!("unknown protocol {other:?}")),
                }];
            }
            other => return Err(format!("unknown flag {other:?} (see --help in the doc)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("swiftdir-explore: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut failed = false;
    if args.coverage {
        failed |= !coverage_gate(&args);
    } else {
        let mut pcfg = ProgressConfig::from_env();
        if let Some(v) = &args.progress {
            pcfg.sink = ProgressConfig::parse_sink(v);
        }
        let counters = CampaignCounters::new("explore", driver::default_threads(), &EXPLORE_PHASES);
        let sampler = match if args.resume.is_some() {
            // Continue the killed run's heartbeat stream (repair the
            // torn tail, append, mark the first record resumed).
            pcfg.build_resumed(counters)
        } else {
            pcfg.build(counters)
        } {
            Ok(s) => s,
            Err(e) => {
                eprintln!("swiftdir-explore: cannot open progress sink: {e}");
                return ExitCode::FAILURE;
            }
        };
        failed |= !explore_suite(&args, sampler.as_ref());
        if args.diff || args.smoke {
            failed |= !differential_suite(&args);
        }
        if args.oracle || args.smoke {
            failed |= !oracle_suite(&args);
        }
    }

    if failed {
        eprintln!("swiftdir-explore: FAILED");
        ExitCode::FAILURE
    } else {
        println!("swiftdir-explore: OK");
        ExitCode::SUCCESS
    }
}

/// Per-protocol bounded-exhaustive exploration over seeded contended
/// streams, one campaign unit per schedule tree. Returns false on any
/// error, truncation, or illegal transition.
///
/// With `--checkpoint` / `--resume`, every completed tree is journaled
/// before it is acknowledged and previously journaled trees are
/// skipped. Pruning, sleep-set, coverage and depth-profile figures then
/// cover the freshly walked trees only: a subset of trees can only show
/// a subset of the legal transitions, so coverage soundness (nothing
/// illegal) stays checkable while completeness is the coverage gate's
/// job. The final line's digest set is the value a kill/resume sequence
/// must reproduce bit for bit.
fn explore_suite(args: &Args, sampler: Option<&Arc<ProgressSampler>>) -> bool {
    let ecfg = args.explore_config();
    let grid = args.grid();
    let path = args.resume.as_deref().or(args.checkpoint.as_deref());
    let (mut writer, resumed_units) = match path {
        None => (None, Vec::new()),
        Some(path) => {
            let header = CkptHeader {
                kind: "explore".to_string(),
                campaign: "explore".to_string(),
                config_digest: explore_grid_digest(&grid, &ecfg),
                total: grid.len() as u64,
            };
            let opened = if args.resume.is_some() {
                CheckpointWriter::resume(Path::new(path), &header)
            } else {
                CheckpointWriter::create(Path::new(path), &header).map(|w| (w, Vec::new()))
            };
            match opened {
                Ok((w, units)) => (Some(w), units),
                Err(e) => {
                    eprintln!("swiftdir-explore: checkpoint {path}: {e}");
                    return false;
                }
            }
        }
    };
    let outcome = match run_explore_campaign_resumable(
        &grid,
        &ecfg,
        None,
        sampler,
        writer.as_mut(),
        resumed_units,
        None,
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("swiftdir-explore: checkpoint {}: {e}", path.unwrap_or("-"));
            return false;
        }
    };

    // No cancel token: every unit completed, so `units` is the grid.
    let mut ok = true;
    let mut campaign_profile = DepthProfile::default();
    for (pi, &protocol) in args.protocols.iter().enumerate() {
        let (mut schedules, mut steps, mut pruned, mut skipped) = (0u64, 0u64, 0u64, 0u64);
        let mut coverage = ObservedCoverage::new();
        let mut profile = DepthProfile::default();
        for seed in 0..args.streams {
            let idx = pi * args.streams as usize + seed as usize;
            let unit = &outcome.units[idx];
            schedules += unit.schedules;
            steps += unit.steps;
            let Some((report, p)) = &outcome.reports[idx] else {
                if let Some(f) = &unit.failure {
                    eprintln!("FAIL {protocol:?} stream {seed}: {f}");
                    ok = false;
                }
                continue;
            };
            profile.merge(p);
            if let Some(e) = &report.error {
                eprintln!("FAIL {protocol:?} stream {seed}: {e}");
                ok = false;
            }
            if report.truncated {
                eprintln!(
                    "FAIL {protocol:?} stream {seed}: truncated (not exhaustive); \
                     raise --depth or shrink the scenario"
                );
                ok = false;
            }
            pruned += report.pruned;
            skipped += report.sleep_skipped;
            coverage.merge(&report.coverage);
        }
        let report = CoverageSpec::for_protocol(protocol).check(&coverage);
        let [(l1c, l1t), (llcc, llct), (evc, evt)] = report.covered();
        println!(
            "{protocol:?}: {} streams, {schedules} schedules, {steps} steps, \
             {pruned} pruned, {skipped} sleep-skipped; coverage L1 {l1c}/{l1t}, \
             LLC {llcc}/{llct}, events {evc}/{evt}",
            args.streams
        );
        if !report.is_sound() {
            eprintln!("FAIL {protocol:?}: exploration observed illegal transitions\n{report}");
            ok = false;
        }
        if args.depth_profile {
            println!("{}", profile.to_json().to_pretty());
        }
        campaign_profile.merge(&profile);
    }
    if let Some(s) = sampler {
        // Fold the campaign-wide depth profile into the final heartbeat
        // so `--depth-profile` data rides every stream.
        s.finish_with_extra(vec![(
            "depth_profile".to_string(),
            campaign_profile.to_json(),
        )]);
    }
    println!(
        "swiftdir-explore: {} units ({} fresh, {} resumed), digest_set {:#018x}",
        outcome.units.len(),
        outcome.fresh,
        outcome.resumed,
        outcome.digest_set_fnv()
    );
    ok
}

/// The walker oracle: the snapshot-free undo-log explorer and the
/// fork-based explorer must produce whole-report-identical results on
/// every stream of the suite, for every protocol.
fn oracle_suite(args: &Args) -> bool {
    let undo_ecfg = args.explore_config();
    let fork_ecfg = ExploreConfig {
        mode: ExploreMode::Fork,
        ..undo_ecfg
    };
    let threads = driver::default_threads();
    let mut ok = true;
    let mut schedules = 0u64;
    for (i, u) in args.grid().iter().enumerate() {
        let (undo, _) = explore_parallel_profiled(&u.cfg, &u.stream, &undo_ecfg, threads);
        let (fork, _) = explore_parallel_profiled(&u.cfg, &u.stream, &fork_ecfg, threads);
        if undo != fork {
            eprintln!(
                "FAIL oracle {:?} stream {}: undo-log and fork walkers \
                 diverged (undo {} schedules / {} steps, fork {} schedules / {} steps)",
                u.cfg.protocol,
                i as u64 % args.streams,
                undo.schedules,
                undo.steps,
                fork.schedules,
                fork.steps
            );
            ok = false;
            continue;
        }
        schedules += undo.schedules;
    }
    if ok {
        println!(
            "oracle: undo-log and fork walkers identical on {} protocols x {} streams \
             ({schedules} schedules)",
            args.protocols.len(),
            args.streams
        );
    }
    ok
}

/// The differential layer: architectural equivalence across all
/// protocols on well-separated streams, and SwiftDir≡MESI schedule-tree
/// isomorphism on WP-free contended streams.
fn differential_suite(args: &Args) -> bool {
    let mut ok = true;
    let cores = args.cores.max(3);
    for seed in 0..6 {
        let stream = well_separated_stream(seed, cores, 6, 60, 0.3);
        if let Err(e) = architectural_diff(&stream, cores, &ProtocolKind::ALL) {
            eprintln!("FAIL differential (separated stream {seed}): {e}");
            ok = false;
        }
    }
    let ecfg = args.explore_config();
    let mut schedules = 0u64;
    for seed in 0..4 {
        let stream = contended_stream(seed, 2, 2, 5, 0.0);
        match explored_equivalence(&stream, 2, &ecfg) {
            Ok((mesi, _)) => schedules += mesi.schedules,
            Err(e) => {
                eprintln!("FAIL differential (explored stream {seed}): {e}");
                ok = false;
            }
        }
    }
    if ok {
        println!(
            "differential: 6 separated streams x 4 protocols agree; \
             SwiftDir==MESI on 4 explored trees ({schedules} schedules)"
        );
    }
    ok
}

/// The CI coverage gate: explorer coverage plus a fuzz sweep must cover
/// every legal Table I–III transition per protocol, and nothing else.
fn coverage_gate(args: &Args) -> bool {
    let ecfg = args.explore_config();
    let mut ok = true;
    for &protocol in &args.protocols {
        let mut observed = ObservedCoverage::new();
        // Explorer contribution: every transition reachable in the tiny
        // scenario, across all schedules.
        let cfg = tiny_config(2, protocol);
        for seed in 0..4 {
            let stream = contended_stream(seed, 2, 2, 5, 0.3);
            let (report, _) =
                explore_parallel_profiled(&cfg, &stream, &ecfg, driver::default_threads());
            if let Some(e) = &report.error {
                eprintln!("FAIL {protocol:?} explorer stream {seed}: {e}");
                ok = false;
            }
            observed.merge(&report.coverage);
        }
        // Fuzz contribution: eviction/recall/jitter pressure the tiny
        // exhaustive scenario cannot reach. The hot variant hammers two
        // blocks to hit upgrade races. The whole sweep fans over worker
        // threads; reports return in seed order, so the coverage union
        // and the failure output are thread-count-independent.
        let sweep: Vec<FuzzConfig> = (0..args.seeds)
            .flat_map(|seed| {
                let mut cfg = FuzzConfig::new(seed, protocol);
                cfg.ops = 300;
                let mut hot = FuzzConfig::new(seed ^ 0xdead_beef, protocol);
                hot.ops = 300;
                hot.blocks = 2;
                hot.store_fraction = 0.6;
                [cfg, hot]
            })
            .collect();
        let reports = ExperimentSet::new(sweep.clone()).run(run_fuzz);
        for (cfg, report) in sweep.iter().zip(reports) {
            if let Some(f) = report.failure {
                let hot = if cfg.blocks == 2 { " hot" } else { "" };
                eprintln!("FAIL {protocol:?} fuzz{hot} seed {}: {f}", cfg.seed);
                ok = false;
            }
            observed.add(&report.stats);
        }
        let report = CoverageSpec::for_protocol(protocol).check(&observed);
        println!("{report}");
        if !report.is_clean() {
            ok = false;
        }
    }
    ok
}
