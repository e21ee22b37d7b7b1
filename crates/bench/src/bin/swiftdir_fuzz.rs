//! `swiftdir-fuzz`: deterministic protocol stress fuzzing.
//!
//! Drives seeded adversarial access streams (see `swiftdir_core::fuzz`)
//! against the coherence hierarchy while every global invariant — SWMR,
//! directory-superset sharer tracking, transient-occupancy bounds, and
//! the golden data-value model — is audited after every simulated event.
//!
//! ```text
//! swiftdir-fuzz [--seeds N] [--seed X] [--protocol NAME] [--ops N]
//!               [--jitter N] [--cores N] [--banks N] [--smoke]
//!               [--minimize] [--replay FILE]
//!               [--progress FILE|-] [--checkpoint FILE] [--resume FILE]
//! ```
//!
//! * `--seeds N` — fuzz seeds `0..N` (default 100) per protocol.
//! * `--seed X` — fuzz exactly one seed.
//! * `--protocol NAME` — limit to `msi|mesi|smesi|swiftdir` (default all).
//! * `--ops N` / `--jitter N` — override the per-run operation count and
//!   maximum per-hop jitter.
//! * `--cores N` / `--banks N` — override the core count (default 4) and
//!   shard the directory into `N` address-interleaved banks (default 1,
//!   power of two); `--banks` scales the block set so every bank stays
//!   contended.
//! * `--smoke` — the CI configuration: 25 seeds, 150 ops each.
//! * `--minimize` — shrink every failing scenario, fresh or resumed from
//!   a journal: first the scenario knobs, then the concrete access stream
//!   (delta-debugging), and write the minimal repro to
//!   `swiftdir-fuzz-min-<proto>-<seed>.stream`.
//! * `--replay FILE` — replay a `.stream` repro written by `--minimize`
//!   (or by hand) instead of fuzzing; exits non-zero if it still fails.
//! * `--progress FILE|-` — stream `swiftdir.progress.v1` heartbeats
//!   (JSONL) to `FILE` (`-` = stdout) while the campaign runs; follow
//!   live with `swiftdir-report --follow FILE`. `SWIFTDIR_PROGRESS` /
//!   `SWIFTDIR_PROGRESS_INTERVAL_MS` set the same knobs from the
//!   environment. Telemetry is passive: reports and digests are
//!   bit-identical with it on or off.
//! * `--checkpoint FILE` — journal every completed seed to `FILE`
//!   (`swiftdir.ckpt.v1`): a campaign killed at any instant loses only
//!   in-flight seeds.
//! * `--resume FILE` — continue a checkpointed campaign: seeds already
//!   journaled are skipped, a torn trailing record (the write the kill
//!   interrupted) is repaired, and the finished campaign's digest set
//!   is bit-identical to an uninterrupted run at any thread count. A
//!   missing `FILE` degrades to a fresh `--checkpoint` run. With
//!   `--progress FILE`, the heartbeat stream is repaired and continued
//!   too (the first new record carries `"resumed": true`).
//!
//! Every run, checkpointed or not, ends with one summary line: units
//! (fresh and resumed), events, failures, and the campaign's
//! `digest_set`. Exits non-zero if any seed fails. Every failure line
//! carries the exact `FuzzConfig` needed to replay it bit-for-bit, and
//! `--minimize` additionally leaves a generator-independent op-for-op
//! repro on disk.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use sim_engine::{CampaignCounters, ProgressSampler};
use swiftdir_coherence::ProtocolKind;
use swiftdir_core::fuzz::{minimize, minimize_stream, replay, run_fuzz, FuzzConfig, FUZZ_PHASES};
use swiftdir_core::stream::StreamFile;
use swiftdir_core::{
    default_threads, fuzz_grid_digest, run_fuzz_campaign_resumable, CheckpointWriter, CkptHeader,
    ProgressConfig,
};

const ALL_PROTOCOLS: [ProtocolKind; 4] = [
    ProtocolKind::Msi,
    ProtocolKind::Mesi,
    ProtocolKind::SMesi,
    ProtocolKind::SwiftDir,
];

struct Args {
    seeds: u64,
    one_seed: Option<u64>,
    protocols: Vec<ProtocolKind>,
    ops: Option<usize>,
    jitter: Option<u64>,
    cores: Option<usize>,
    banks: Option<usize>,
    do_minimize: bool,
    replay_file: Option<String>,
    progress: Option<String>,
    checkpoint: Option<String>,
    resume: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 100,
        one_seed: None,
        protocols: ALL_PROTOCOLS.to_vec(),
        ops: None,
        jitter: None,
        cores: None,
        banks: None,
        do_minimize: false,
        replay_file: None,
        progress: None,
        checkpoint: None,
        resume: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--seeds" => args.seeds = value("--seeds")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.one_seed = Some(value("--seed")?.parse().map_err(|e| format!("{e}"))?),
            "--ops" => args.ops = Some(value("--ops")?.parse().map_err(|e| format!("{e}"))?),
            "--jitter" => {
                args.jitter = Some(value("--jitter")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--cores" => args.cores = Some(value("--cores")?.parse().map_err(|e| format!("{e}"))?),
            "--banks" => {
                let banks: usize = value("--banks")?.parse().map_err(|e| format!("{e}"))?;
                if !banks.is_power_of_two() {
                    return Err(format!("--banks must be a power of two, got {banks}"));
                }
                args.banks = Some(banks);
            }
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
            "--smoke" => {
                args.seeds = 25;
                args.ops = Some(150);
            }
            "--minimize" => args.do_minimize = true,
            "--replay" => args.replay_file = Some(value("--replay")?),
            "--progress" => args.progress = Some(value("--progress")?),
            "--checkpoint" => args.checkpoint = Some(value("--checkpoint")?),
            "--resume" => args.resume = Some(value("--resume")?),
            other => return Err(format!("unknown flag {other:?} (see --help in the doc)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("swiftdir-fuzz: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = &args.replay_file {
        return replay_file(path);
    }

    let seeds: Vec<u64> = match args.one_seed {
        Some(s) => vec![s],
        None => (0..args.seeds).collect(),
    };

    // The (protocol, seed) grid is embarrassingly parallel: fan it over
    // the driver's pool (`SWIFTDIR_THREADS` / host parallelism). Units
    // are sorted back into grid order, so the output — including the
    // failure lines — is independent of the thread count.
    let grid: Vec<FuzzConfig> = args
        .protocols
        .iter()
        .flat_map(|&protocol| {
            seeds.iter().map(move |&seed| {
                let mut cfg = FuzzConfig::new(seed, protocol);
                if let Some(ops) = args.ops {
                    cfg.ops = ops;
                }
                if let Some(j) = args.jitter {
                    cfg.jitter_max = j;
                }
                if let Some(c) = args.cores {
                    cfg.cores = c;
                }
                if let Some(b) = args.banks {
                    cfg.banks = b;
                    // Spread the contended block set over every bank.
                    cfg.blocks = cfg.blocks.max(2 * b);
                }
                cfg
            })
        })
        .collect();

    let mut pcfg = ProgressConfig::from_env();
    if let Some(v) = &args.progress {
        pcfg.sink = ProgressConfig::parse_sink(v);
    }
    let counters = CampaignCounters::new("fuzz", default_threads(), &FUZZ_PHASES);
    let sampler = match if args.resume.is_some() {
        // Continue the killed run's heartbeat stream (repair the torn
        // tail, append, mark the first record resumed).
        pcfg.build_resumed(counters)
    } else {
        pcfg.build(counters)
    } {
        Ok(s) => s,
        Err(e) => {
            eprintln!("swiftdir-fuzz: cannot open progress sink: {e}");
            return ExitCode::FAILURE;
        }
    };

    campaign(&args, &grid, sampler.as_ref())
}

/// The campaign: fans the grid over the driver and prints every
/// failure, then a final line with the digest set. With `--checkpoint`
/// / `--resume`, every completed seed is journaled before it is
/// acknowledged and previously journaled seeds are skipped; the digest
/// set is the value a kill/resume sequence must reproduce bit for bit.
fn campaign(args: &Args, grid: &[FuzzConfig], sampler: Option<&Arc<ProgressSampler>>) -> ExitCode {
    let path = args.resume.as_deref().or(args.checkpoint.as_deref());
    let (mut writer, resumed_units) = match path {
        None => (None, Vec::new()),
        Some(path) => {
            let header = CkptHeader {
                kind: "fuzz".to_string(),
                campaign: "fuzz".to_string(),
                config_digest: fuzz_grid_digest(grid),
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
                    eprintln!("swiftdir-fuzz: checkpoint {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    let outcome = match run_fuzz_campaign_resumable(
        grid,
        None,
        sampler,
        writer.as_mut(),
        resumed_units,
        None,
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("swiftdir-fuzz: checkpoint {}: {e}", path.unwrap_or("-"));
            return ExitCode::FAILURE;
        }
    };
    if let Some(s) = sampler {
        s.finish();
    }

    let mut failures = 0u64;
    let mut events = 0u64;
    for unit in &outcome.units {
        events += unit.events;
        let Some(journaled) = &unit.failure else {
            continue;
        };
        failures += 1;
        let cfg = &grid[unit.index as usize];
        let (protocol, seed) = (cfg.protocol, cfg.seed);
        // A fresh failure prints in full, traced history included; a
        // resumed one only has its journaled first line.
        let fresh = outcome.reports[unit.index as usize].as_ref();
        match fresh.and_then(|r| r.failure.as_ref()) {
            Some(failure) => eprintln!("FAIL {protocol:?} seed {seed}: {failure}"),
            None => eprintln!("FAIL {protocol:?} seed {seed}: {journaled}"),
        }
        eprintln!("  replay: {cfg:?}");
        if args.do_minimize {
            let small = minimize(cfg);
            eprintln!("  minimized: {small:?}");
            if let Some(f) = run_fuzz(&small).failure {
                eprintln!("  minimized failure: {f}");
            }
            // Delta-debug the concrete access stream and leave a
            // generator-independent repro on disk.
            let stream = minimize_stream(&small.stream_file(), None);
            let path = format!(
                "swiftdir-fuzz-min-{}-{seed}.stream",
                format!("{protocol:?}").to_ascii_lowercase()
            );
            match std::fs::write(&path, stream.to_text()) {
                Ok(()) => eprintln!(
                    "  minimal repro: {} ops -> {path} (replay with --replay {path})",
                    stream.ops.len()
                ),
                Err(e) => eprintln!("  could not write {path}: {e}"),
            }
        }
    }
    println!(
        "swiftdir-fuzz: {} units ({} fresh, {} resumed), {events} events, \
         {failures} failures, digest_set {:#018x}",
        outcome.units.len(),
        outcome.fresh,
        outcome.resumed,
        outcome.digest_set_fnv()
    );
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Replays a `.stream` repro file; exit status mirrors the outcome.
fn replay_file(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("swiftdir-fuzz: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let file = match StreamFile::parse(&text) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("swiftdir-fuzz: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = replay(&file);
    println!(
        "swiftdir-fuzz: replayed {} ops ({:?}, {} cores), {} events, digest {:#018x}",
        file.ops.len(),
        file.protocol,
        file.cores,
        report.events,
        report.digest
    );
    match report.failure {
        None => {
            println!("swiftdir-fuzz: replay clean");
            ExitCode::SUCCESS
        }
        Some(f) => {
            eprintln!("FAIL replay of {path}: {f}");
            ExitCode::FAILURE
        }
    }
}
