//! The `explore_trees` workload: exhaustive undo-mode exploration of
//! contended 2-core / 2-block streams under every protocol.

use sim_engine::DetRng;
use swiftdir_coherence::{HierarchyConfig, ProtocolKind};
use swiftdir_core::diff::tiny_config;
use swiftdir_core::{
    contended_stream, explore_parallel_profiled, run_stream, AccessOp, DepthProfile, ExploreConfig,
    ExploreReport,
};

use crate::spans::SpanLog;
use crate::stats::Fnv;
use crate::unit::{ratio, run_pass, timed, Metric, Pass, UnitResult};

const WORKLOAD: &str = "explore_trees";

/// Contended streams shaped like `bench_driver`'s explore leg: 2 cores,
/// 2 blocks, 5 ops, 30 % write-protected loads.
const CORES: usize = 2;
const BLOCKS: usize = 2;
const OPS: usize = 5;
const WP_FRACTION: f64 = 0.3;

/// The stream seeds explored under every protocol. Tree size is heavy
/// tailed in the stream seed (0 to 16 s at one thread for 5 ops); these
/// ten give trees of 50–210 ms at one thread under every protocol, so no
/// single tree dominates a pass, and 40 trees leave ten beyond the p75
/// tail.
const STREAM_SEEDS: [u64; 10] = [17, 21, 27, 30, 35, 38, 46, 49, 57, 58];

/// Bytes an address shift moves a stream by: a multiple of every set
/// count of the tiny hierarchy, so blocks keep their L1 and LLC sets.
const SHIFT_STRIDE: u64 = 4096;

/// One exploration tree: a contended stream relabelled by the seed.
#[derive(Debug, Clone, Copy)]
pub struct Tree {
    protocol: ProtocolKind,
    stream_seed: u64,
    swap_cores: bool,
    swap_blocks: bool,
    shift: u64,
}

/// Every protocol × [`STREAM_SEEDS`] (or one stream per protocol).
///
/// The seed relabels each stream: it may swap the two cores, swap the two
/// blocks and shift every address. Relabelled streams are different
/// inputs whose trees are isomorphic to the original's, so every seed
/// explores the same amount of work; seed 0 leaves the streams as
/// generated.
pub fn units(seed: u64, slice: bool) -> Vec<Tree> {
    let streams = if slice {
        &STREAM_SEEDS[..1]
    } else {
        &STREAM_SEEDS[..]
    };
    let mut rng = DetRng::new(seed);
    let mut trees = Vec::new();
    for protocol in ProtocolKind::ALL {
        for &stream_seed in streams {
            let relabel = seed != 0;
            trees.push(Tree {
                protocol,
                stream_seed,
                swap_cores: relabel && rng.chance(0.5),
                swap_blocks: relabel && rng.chance(0.5),
                shift: if relabel {
                    rng.below(256) * SHIFT_STRIDE
                } else {
                    0
                },
            });
        }
    }
    trees
}

impl Tree {
    /// The tree's configuration and stream, checked by running the stream
    /// once under the FIFO schedule: a stream that cannot complete there
    /// is a broken input, not an exploration failure.
    fn inputs(&self) -> Result<(HierarchyConfig, Vec<AccessOp>), String> {
        let (cfg, stream) = self.generate();
        let fifo = run_stream(&cfg, &stream).map_err(|e| format!("FIFO schedule: {e}"))?;
        if fifo.completions.len() != stream.len() {
            return Err(format!(
                "FIFO schedule: {} completions for {} ops",
                fifo.completions.len(),
                stream.len()
            ));
        }
        Ok((cfg, stream))
    }

    fn generate(&self) -> (HierarchyConfig, Vec<AccessOp>) {
        let mut stream = contended_stream(self.stream_seed, CORES, BLOCKS, OPS, WP_FRACTION);
        for op in &mut stream {
            if self.swap_cores {
                op.core = CORES - 1 - op.core;
            }
            if self.swap_blocks {
                op.addr ^= 64;
            }
            op.addr += self.shift;
        }
        (tiny_config(CORES, self.protocol), stream)
    }
}

/// Builds every tree's inputs once; returns the host seconds it took.
pub fn setup(trees: &[Tree]) -> f64 {
    trees.iter().map(|t| timed(|| t.inputs()).1).sum()
}

/// Digest over the tree's schedule count, outcome set and timing set.
fn report_digest(r: &ExploreReport) -> u64 {
    let mut f = Fnv::new();
    f.mix(r.schedules);
    for &o in &r.outcomes {
        f.mix(o);
    }
    for &t in &r.timings {
        f.mix(t);
    }
    f.0
}

/// The output check: a clean, exhaustive walk.
fn check(r: &ExploreReport) -> Option<String> {
    if let Some(e) = &r.error {
        return Some(format!("exploration error: {e}"));
    }
    r.truncated
        .then(|| "exploration truncated by a budget".to_string())
}

/// Trees run one after another, each fanned over `workers` threads by the
/// explorer's own split-depth decomposition.
pub fn pass(trees: &[Tree], workers: usize) -> Pass {
    run_pass(trees, 1, |tree| {
        let (inputs, setup_s) = timed(|| tree.inputs());
        let (cfg, stream) = match inputs {
            Ok(v) => v,
            Err(e) => return UnitResult::failed(e),
        };
        let ((report, _), run_s) =
            timed(|| explore_parallel_profiled(&cfg, &stream, &ExploreConfig::default(), workers));
        UnitResult {
            digest: report_digest(&report),
            failure: check(&report),
            setup_s,
            run_s,
        }
    })
}

/// The traced pass: one span per tree around `explore_parallel_profiled`
/// at one thread, and the walk counters of its report and depth profile.
pub fn traced(trees: &[Tree], log: &mut SpanLog) -> (Vec<UnitResult>, Vec<Metric>) {
    let mut units = Vec::with_capacity(trees.len());
    let (mut steps, mut schedules, mut pruned, mut sleep_skipped, mut tasks) = (0, 0, 0, 0, 0);
    let mut profile = DepthProfile::default();
    for (i, tree) in trees.iter().enumerate() {
        let unit = log.open("unit", WORKLOAD, i);
        let setup = log.open("core.explore.setup", WORKLOAD, i);
        let inputs = tree.inputs();
        log.close(setup);
        let walk = log.open("core.explore.tree", WORKLOAD, i);
        let walked = inputs.and_then(|(cfg, stream)| {
            crate::unit::guarded(|| {
                explore_parallel_profiled(&cfg, &stream, &ExploreConfig::default(), 1)
            })
        });
        log.close(walk);
        log.close(unit);
        let (report, depths) = match walked {
            Ok(v) => v,
            Err(e) => {
                units.push(UnitResult::failed(e));
                continue;
            }
        };
        steps += report.steps;
        schedules += report.schedules;
        pruned += report.pruned;
        sleep_skipped += report.sleep_skipped;
        tasks += report.tasks;
        profile.merge(&depths);
        units.push(UnitResult {
            digest: report_digest(&report),
            failure: check(&report),
            setup_s: log.span(setup).dur_ns as f64 / 1e9,
            run_s: log.span(walk).dur_ns as f64 / 1e9,
        });
    }
    let n = trees.len().max(1) as f64;
    let (walk_ns, _) = log.total(WORKLOAD, "core.explore.tree");
    let backtracks: u64 = profile.depths.iter().map(|d| d.backtracks).sum();
    let undo_bytes: u64 = profile.depths.iter().map(|d| d.undo_bytes).sum();
    let m = vec![
        Metric::new(
            "core.explore.ns_per_step",
            ratio(walk_ns as f64, steps as f64),
            "ns",
        )
        .note("explore_parallel_profiled span / ExploreReport::steps"),
        Metric::new(
            "core.explore.useful_frac",
            ratio(
                schedules as f64,
                (schedules + pruned + sleep_skipped) as f64,
            ),
            "ratio",
        )
        .note("schedules / (schedules + pruned + sleep_skipped)"),
        Metric::new("core.explore.steps", steps as f64 / n, "count").note("per tree"),
        Metric::new("core.explore.backtracks", backtracks as f64 / n, "count").note("per tree"),
        Metric::new("core.explore.undo_bytes", undo_bytes as f64 / n, "bytes").note("per tree"),
        Metric::new("core.explore.tasks", tasks as f64 / n, "count").note("per tree"),
    ];
    (units, m)
}
