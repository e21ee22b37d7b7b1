//! Resumable, cancellable campaign execution over work-unit grids.
//!
//! [`run_fuzz_campaign_resumable`] and [`run_explore_campaign_resumable`]
//! are the only fuzz/explore campaign runners, and the checkpoint is an
//! option, not a second path. Both run one body on the driver's work
//! pool: workers claim grid indices by atomic counter exactly as
//! [`ExperimentSet`](crate::ExperimentSet) does, and finished results
//! flow back over a *bounded* channel to a collector on the calling
//! thread, which journals each one to a [`CheckpointWriter`] (if any)
//! before acknowledging it. The bound is the backpressure policy: when
//! the journal (disk) is slower than the workers, senders block on the
//! channel instead of buffering unbounded reports in memory.
//!
//! Determinism under resume: every work unit is self-contained and
//! seeded, so *which process* runs it — and at what thread count, in
//! what order, before or after a `kill -9` — cannot change its digest.
//! The campaign's final digest set ([`digest_set_fnv`]) folds `(index,
//! digest)` pairs in index order, so any partition of the grid into
//! resumed-from-journal and freshly-run units reproduces the
//! uninterrupted value bit for bit.
//!
//! Cancellation ([`CancelToken`]) is cooperative and unit-granular:
//! workers re-check the token before each claim, so a cancelled
//! campaign finishes (and journals) the units already in flight and
//! stops claiming new ones — exactly the state a resume picks up from.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sim_engine::{FxHashSet, ProgressSampler};
use swiftdir_coherence::HierarchyConfig;

use crate::ckpt::{digest_set_fnv, CheckpointWriter, Fnv, UnitRecord};
use crate::driver::{self, observed};
use crate::explore::{explore_campaign, DepthProfile, ExploreConfig, ExploreReport};
use crate::fuzz::{run_fuzz_observed, FuzzConfig, FuzzReport};
use crate::stream::AccessOp;

/// A shared, clonable cancellation flag. Tripping it stops campaign
/// workers from claiming further units; in-flight units finish and are
/// journaled (the state a resume continues from).
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the flag; idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// The result of a (possibly resumed, possibly cancelled) campaign.
#[derive(Debug)]
pub struct CampaignOutcome<R> {
    /// Freshly computed reports in grid order; `None` for units skipped
    /// via the checkpoint or never claimed before cancellation. Without
    /// a checkpoint writer every fresh report is kept. With one, the
    /// fuzz runner drops *clean* fresh reports (a [`FuzzReport`] retains
    /// full hierarchy statistics, ~100 KB — a million-seed soak must not
    /// hold them all), so a journaled fuzz entry is `Some` exactly for
    /// fresh **failing** units; everything a clean unit contributes
    /// survives in its [`UnitRecord`]. The explore runner keeps every
    /// fresh report (grids are small and the coverage gate unions their
    /// transition matrices).
    pub reports: Vec<Option<R>>,
    /// Every *completed* unit — resumed and fresh — sorted by index.
    pub units: Vec<UnitRecord>,
    /// Units replayed from the checkpoint journal.
    pub resumed: usize,
    /// Units run in this invocation.
    pub fresh: usize,
    /// Whether the cancel token was tripped.
    pub cancelled: bool,
}

impl<R> CampaignOutcome<R> {
    /// True when every grid unit has a completed record.
    pub fn complete(&self) -> bool {
        self.units.len() == self.reports.len()
    }

    /// Completed units whose record carries a failure.
    pub fn failures(&self) -> usize {
        self.units.iter().filter(|u| u.failure.is_some()).count()
    }

    /// The campaign's final digest set (see [`digest_set_fnv`]); only
    /// meaningful once [`CampaignOutcome::complete`].
    pub fn digest_set_fnv(&self) -> u64 {
        digest_set_fnv(&self.units)
    }
}

/// Runs a fuzz grid as a campaign: units already present in
/// `resumed_units` (loaded from a [`Checkpoint`](crate::ckpt::Checkpoint))
/// are skipped, every freshly finished unit is journaled through
/// `writer` (if any) before the campaign acknowledges it, and `cancel`
/// stops the claim loop between units.
///
/// With a sampler attached, each worker publishes per-seed progress
/// (done counts, event deltas, [`FUZZ_PHASES`](crate::FUZZ_PHASES)
/// spans, slab/trace-ring gauges) and heartbeats stream at the
/// sampler's interval; a resumed campaign's sampler is pre-seeded with
/// the resumed units' done/event counts, so its heartbeat stream
/// continues monotonically from where the killed run stopped.
/// Telemetry is strictly passive: reports are bit-identical to a
/// samplerless run at every thread count.
pub fn run_fuzz_campaign_resumable(
    grid: &[FuzzConfig],
    threads: Option<usize>,
    progress: Option<&Arc<ProgressSampler>>,
    writer: Option<&mut CheckpointWriter>,
    resumed_units: Vec<UnitRecord>,
    cancel: Option<&CancelToken>,
) -> io::Result<CampaignOutcome<FuzzReport>> {
    let keep_clean = writer.is_none();
    let pr = progress.map(Arc::as_ref);
    run_campaign(
        grid.len(),
        threads,
        progress,
        writer,
        resumed_units,
        cancel,
        |idx| {
            let report = run_fuzz_observed(&grid[idx], pr);
            let unit = UnitRecord {
                index: idx as u64,
                digest: report.digest,
                events: report.events,
                completions: report.completions as u64,
                failure: report.failure.as_ref().map(|f| {
                    format!(
                        "{}: {}",
                        f.kind,
                        f.detail.lines().next().unwrap_or_default()
                    )
                }),
                ..UnitRecord::default()
            };
            (unit, Some(report).filter(|r| keep_clean || !r.ok()))
        },
    )
}

/// One explore work unit: a hierarchy configuration plus the concrete
/// access stream whose schedule tree gets walked exhaustively.
#[derive(Debug, Clone)]
pub struct ExploreUnit {
    pub cfg: HierarchyConfig,
    pub stream: Vec<AccessOp>,
}

/// FNV fingerprint of an explore grid: the exploration budgets plus
/// every unit's protocol, core count, and concrete op list.
pub fn explore_grid_digest(units: &[ExploreUnit], ecfg: &ExploreConfig) -> u64 {
    let mut f = Fnv::new();
    f.mix(units.len() as u64);
    f.mix(ecfg.window);
    f.mix(ecfg.max_depth as u64);
    f.mix(ecfg.max_schedules);
    f.mix(ecfg.max_states as u64);
    f.mix(ecfg.sleep_sets as u64);
    f.mix(ecfg.split_depth.map_or(u64::MAX, |d| d as u64));
    f.mix(ecfg.max_tasks as u64);
    for u in units {
        f.mix(u.cfg.protocol as u64);
        f.mix(u.cfg.cores as u64);
        f.mix(u.stream.len() as u64);
        for op in &u.stream {
            f.mix(op.at);
            f.mix(op.core as u64);
            f.mix(op.addr);
            f.mix(matches!(op.kind, swiftdir_coherence::AccessKind::Store) as u64);
            f.mix(op.wp as u64);
        }
    }
    f.0
}

/// The explore analogue of [`run_fuzz_campaign_resumable`]: each unit's
/// schedule tree is walked with the unit-internal decomposition at one
/// thread (the report is thread-count invariant by construction, so
/// this loses nothing), and units fan over the worker pool. Each fresh
/// report comes with its tree's [`DepthProfile`]. Completed trees are
/// journaled with their [`ExploreReport::digest`], schedule/step
/// counters, and boundary-task ledger.
///
/// Resume granularity is the *tree*: a unit killed mid-walk is re-run
/// from scratch on resume (its walk is deterministic, so the re-run
/// journals the identical record).
pub fn run_explore_campaign_resumable(
    grid: &[ExploreUnit],
    ecfg: &ExploreConfig,
    threads: Option<usize>,
    progress: Option<&Arc<ProgressSampler>>,
    writer: Option<&mut CheckpointWriter>,
    resumed_units: Vec<UnitRecord>,
    cancel: Option<&CancelToken>,
) -> io::Result<CampaignOutcome<(ExploreReport, DepthProfile)>> {
    run_campaign(
        grid.len(),
        threads,
        progress,
        writer,
        resumed_units,
        cancel,
        |idx| {
            let u = &grid[idx];
            let (report, profile) = explore_campaign(&u.cfg, &u.stream, ecfg, 1, progress);
            let unit = UnitRecord {
                index: idx as u64,
                digest: report.digest(),
                schedules: report.schedules,
                steps: report.steps,
                tasks: report.tasks,
                failure: report
                    .error
                    .as_ref()
                    .map(|e| e.detail.lines().next().unwrap_or_default().to_string()),
                ..UnitRecord::default()
            };
            (unit, Some((report, profile)))
        },
    )
}

/// The one campaign body. `unit(index)` runs a grid unit on a pool
/// worker and returns its journal record plus the report to retain (if
/// any); that closure is all that distinguishes one campaign kind from
/// another.
fn run_campaign<R: Send>(
    len: usize,
    threads: Option<usize>,
    progress: Option<&Arc<ProgressSampler>>,
    mut writer: Option<&mut CheckpointWriter>,
    resumed_units: Vec<UnitRecord>,
    cancel: Option<&CancelToken>,
    unit: impl Fn(usize) -> (UnitRecord, Option<R>) + Sync,
) -> io::Result<CampaignOutcome<R>> {
    // Units outside the grid would mean a mismatched journal; the
    // config-digest check upstream prevents that, but stay defensive.
    let mut units: Vec<UnitRecord> = resumed_units
        .into_iter()
        .filter(|u| (u.index as usize) < len)
        .collect();
    let resumed = units.len();
    let pr = progress.map(Arc::as_ref);
    if let Some(p) = pr {
        // Continue the resumed units' counts; a field a kind does not
        // journal is zero and adds nothing.
        let c = p.counters();
        c.add_total(len as u64);
        c.add_done(resumed as u64);
        c.add_events(units.iter().map(|u| u.events).sum());
        c.add_schedules(units.iter().map(|u| u.schedules).sum());
        c.add_steps(units.iter().map(|u| u.steps).sum());
    }
    let done: FxHashSet<u64> = units.iter().map(|u| u.index).collect();
    let pending: Vec<usize> = (0..len).filter(|&i| !done.contains(&(i as u64))).collect();
    let workers = threads
        .unwrap_or_else(driver::default_threads)
        .min(pending.len().max(1));

    let mut reports: Vec<Option<R>> = Vec::with_capacity(len);
    reports.resize_with(len, || None);
    let cancelled = driver::pool(
        pending.len(),
        workers,
        cancel,
        |w, i| {
            let out = observed(pr, w, || unit(pending[i]));
            if let Some(p) = pr {
                p.counters().add_done(1);
            }
            out
        },
        |i, (record, report)| -> io::Result<()> {
            if let Some(w) = writer.as_deref_mut() {
                w.record(&record)?;
            }
            units.push(record);
            reports[pending[i]] = report;
            Ok(())
        },
    )?;

    units.sort_by_key(|u| u.index);
    Ok(CampaignOutcome {
        reports,
        fresh: units.len() - resumed,
        units,
        resumed,
        cancelled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{contended_stream, tiny_config};
    use crate::{explore_parallel_profiled, run_fuzz, ExperimentSet};
    use swiftdir_coherence::ProtocolKind;

    fn grid(n: u64) -> Vec<FuzzConfig> {
        (0..n)
            .map(|seed| {
                let mut cfg = FuzzConfig::new(seed, ProtocolKind::SwiftDir);
                cfg.ops = 40;
                cfg
            })
            .collect()
    }

    #[test]
    fn uninterrupted_campaign_completes_and_digests() {
        let g = grid(6);
        let out = run_fuzz_campaign_resumable(&g, Some(2), None, None, Vec::new(), None).unwrap();
        assert!(out.complete() && !out.cancelled);
        assert_eq!((out.fresh, out.resumed), (6, 0));
        let serial =
            run_fuzz_campaign_resumable(&g, Some(1), None, None, Vec::new(), None).unwrap();
        assert_eq!(out.digest_set_fnv(), serial.digest_set_fnv());
    }

    #[test]
    fn resume_of_complete_campaign_runs_nothing() {
        let g = grid(4);
        let first = run_fuzz_campaign_resumable(&g, Some(1), None, None, Vec::new(), None).unwrap();
        let again = run_fuzz_campaign_resumable(&g, Some(4), None, None, first.units.clone(), None)
            .unwrap();
        assert_eq!(again.fresh, 0, "resume of a complete journal re-ran work");
        assert_eq!(again.resumed, 4);
        assert!(again.reports.iter().all(Option::is_none));
        assert_eq!(again.digest_set_fnv(), first.digest_set_fnv());
    }

    #[test]
    fn pre_cancelled_campaign_claims_nothing() {
        let token = CancelToken::new();
        token.cancel();
        let g = grid(4);
        let out =
            run_fuzz_campaign_resumable(&g, Some(2), None, None, Vec::new(), Some(&token)).unwrap();
        assert!(out.cancelled && !out.complete());
        assert_eq!(out.fresh, 0);
    }

    #[test]
    fn partial_resume_matches_uninterrupted_digest_set() {
        let g = grid(8);
        let full = run_fuzz_campaign_resumable(&g, Some(1), None, None, Vec::new(), None).unwrap();
        // Pretend a kill preserved an arbitrary subset of the journal.
        for keep in [0usize, 1, 3, 7] {
            let partial: Vec<UnitRecord> = full.units.iter().take(keep).cloned().collect();
            for threads in [1, 4] {
                let resumed = run_fuzz_campaign_resumable(
                    &g,
                    Some(threads),
                    None,
                    None,
                    partial.clone(),
                    None,
                )
                .unwrap();
                assert!(resumed.complete());
                assert_eq!(resumed.fresh, 8 - keep);
                assert_eq!(
                    resumed.digest_set_fnv(),
                    full.digest_set_fnv(),
                    "keep={keep} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn fuzz_campaign_without_writer_keeps_every_report() {
        let g = grid(6);
        let want = ExperimentSet::new(g.clone()).threads(1).run(run_fuzz);
        for threads in [1, 4] {
            let out = run_fuzz_campaign_resumable(&g, Some(threads), None, None, Vec::new(), None)
                .unwrap();
            assert_eq!(out.reports.len(), want.len());
            for (got, want) in out.reports.iter().zip(&want) {
                let got = got.as_ref().expect("no writer: every fresh report is kept");
                assert_eq!(
                    (got.digest, got.events, &got.stats),
                    (want.digest, want.events, &want.stats),
                    "threads={threads} {:?}",
                    want.config
                );
            }
        }
    }

    #[test]
    fn fuzz_campaign_with_writer_keeps_only_failing_reports() {
        let g = grid(4);
        let dir = std::env::temp_dir().join(format!("swiftdir-campaign-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("keep.ckpt");
        let header = crate::CkptHeader {
            kind: "fuzz".to_string(),
            campaign: "fuzz".to_string(),
            config_digest: crate::fuzz_grid_digest(&g),
            total: g.len() as u64,
        };
        let mut w = CheckpointWriter::create(&path, &header).unwrap();
        let out =
            run_fuzz_campaign_resumable(&g, Some(2), None, Some(&mut w), Vec::new(), None).unwrap();
        assert!(out.complete());
        for (report, unit) in out.reports.iter().zip(&out.units) {
            assert_eq!(
                report.is_some(),
                unit.failure.is_some(),
                "unit {}",
                unit.index
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explore_campaign_units_carry_their_depth_profiles() {
        let ecfg = ExploreConfig::default();
        let grid: Vec<ExploreUnit> = [ProtocolKind::Mesi, ProtocolKind::SwiftDir]
            .into_iter()
            .flat_map(|p| {
                (0..2u64).map(move |seed| ExploreUnit {
                    cfg: tiny_config(2, p),
                    stream: contended_stream(seed, 2, 2, 4, 0.3),
                })
            })
            .collect();
        let out =
            run_explore_campaign_resumable(&grid, &ecfg, Some(2), None, None, Vec::new(), None)
                .unwrap();
        assert!(out.complete());
        for (u, got) in grid.iter().zip(&out.reports) {
            let (report, profile) = got.as_ref().expect("explore keeps every fresh report");
            let (want_report, want_profile) =
                explore_parallel_profiled(&u.cfg, &u.stream, &ecfg, 1);
            assert_eq!(report, &want_report);
            assert_eq!(profile, &want_profile);
        }
    }
}
