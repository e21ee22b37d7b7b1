//! The parallel experiment driver.
//!
//! Every figure in the paper is a sweep: the same simulation run over a
//! grid of (workload, protocol, architecture) points. The points are
//! independent — each builds its own [`System`](crate::System) — so the
//! sweep is embarrassingly parallel, and this module fans it over a
//! scoped thread pool with plain `std` primitives (no extra dependencies).
//!
//! Determinism is preserved by construction: each point's simulation is
//! seeded and self-contained, threads only pick *which* point to run next
//! (work stealing via an atomic index), and results are written into a
//! slot pre-assigned by input position. The output `Vec` is therefore in
//! input order and bit-identical to a serial run, whatever the schedule.
//!
//! One pool (`pool`) does all of this: the sweeps here and the journaled
//! campaigns of [`campaign`](crate::campaign) both claim work by atomic
//! index and hand results to a collector on the calling thread.
//!
//! The worker count comes from, in priority order: an explicit
//! [`ExperimentSet::threads`] call, the `SWIFTDIR_THREADS` environment
//! variable, then [`std::thread::available_parallelism`].
//!
//! # Example
//!
//! ```
//! use swiftdir_core::ExperimentSet;
//!
//! let squares = ExperimentSet::new(vec![1u64, 2, 3, 4])
//!     .threads(2)
//!     .run(|&n| n * n);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, Once};
use std::time::Instant;

use sim_engine::{Json, ProgressSampler};

use crate::campaign::CancelToken;

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "SWIFTDIR_THREADS";

/// Environment variable overriding the default directory-bank count
/// picked up by [`SystemConfig`](crate::SystemConfig)'s builder.
pub const BANKS_ENV: &str = "SWIFTDIR_BANKS";

/// Wall-clock accounting of one sweep point (one configuration run by
/// [`ExperimentSet::run_with_report`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PointTiming {
    /// Input position of the point.
    pub index: usize,
    /// Wall-clock seconds the point's closure took.
    pub wall_s: f64,
}

/// Wall-clock accounting of a whole sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct DriverReport {
    /// Per-point timings, in input order.
    pub points: Vec<PointTiming>,
    /// End-to-end wall-clock seconds of the sweep.
    pub total_wall_s: f64,
    /// Worker threads used.
    pub threads: usize,
}

impl DriverReport {
    /// Sum of per-point wall seconds (CPU-side work; exceeds
    /// [`DriverReport::total_wall_s`] when workers run in parallel).
    pub fn points_wall_s(&self) -> f64 {
        self.points.iter().map(|p| p.wall_s).sum()
    }

    /// The slowest point, if any.
    pub fn slowest(&self) -> Option<&PointTiming> {
        self.points
            .iter()
            .max_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
    }

    /// The report as a JSON value (for driver output files).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("threads", Json::Uint(self.threads as u64)),
            ("total_wall_s", Json::Float(self.total_wall_s)),
            ("points_wall_s", Json::Float(self.points_wall_s())),
            (
                "points",
                Json::array(self.points.iter().map(|p| {
                    Json::object([
                        ("index", Json::Uint(p.index as u64)),
                        ("wall_s", Json::Float(p.wall_s)),
                    ])
                })),
            ),
        ])
    }
}

/// A set of independent experiment configurations to fan over worker
/// threads.
#[derive(Debug)]
pub struct ExperimentSet<C> {
    configs: Vec<C>,
    threads: Option<usize>,
    progress: Option<Arc<ProgressSampler>>,
}

/// Worker count from the environment / host, used when
/// [`ExperimentSet::threads`] was not called: `SWIFTDIR_THREADS` if set
/// and a positive integer, else the host's available parallelism, else
/// one. An unusable `SWIFTDIR_THREADS` value warns to stderr (once per
/// process) and falls back to the host default rather than being
/// silently ignored.
pub fn default_threads() -> usize {
    static WARNED: Once = Once::new();
    match std::env::var(THREADS_ENV) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => return n,
            _ => WARNED.call_once(|| {
                eprintln!(
                    "swiftdir: invalid {THREADS_ENV}={v:?} (want a positive integer); \
                     falling back to host parallelism"
                );
            }),
        },
        Err(std::env::VarError::NotPresent) => {}
        Err(std::env::VarError::NotUnicode(v)) => WARNED.call_once(|| {
            eprintln!(
                "swiftdir: invalid {THREADS_ENV}={v:?} (not unicode); \
                 falling back to host parallelism"
            );
        }),
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Default directory-bank count for a freshly built
/// [`SystemConfig`](crate::SystemConfig): `SWIFTDIR_BANKS` when set to
/// a positive power of two, else 1 (the monolithic pre-sharded LLC).
/// An unusable value warns to stderr (once per process) and falls back
/// rather than being silently ignored; explicit
/// [`banks`](crate::SystemConfigBuilder::banks) calls always win.
pub fn default_banks() -> usize {
    static WARNED: Once = Once::new();
    match std::env::var(BANKS_ENV) {
        Ok(v) => parse_banks(&v).unwrap_or_else(|| {
            WARNED.call_once(|| {
                eprintln!(
                    "swiftdir: invalid {BANKS_ENV}={v:?} (want a positive power of two); \
                     falling back to a single bank"
                );
            });
            1
        }),
        Err(_) => 1,
    }
}

/// `SWIFTDIR_BANKS` value parser: positive powers of two only.
fn parse_banks(v: &str) -> Option<usize> {
    match v.trim().parse::<usize>() {
        Ok(n) if n.is_power_of_two() => Some(n),
        _ => None,
    }
}

impl<C> ExperimentSet<C> {
    /// A set over `configs`, one experiment per element.
    pub fn new(configs: Vec<C>) -> Self {
        ExperimentSet {
            configs,
            threads: None,
            progress: None,
        }
    }

    /// Pins the worker count (overrides `SWIFTDIR_THREADS` and the host
    /// default). `threads(1)` forces a serial run on the calling thread.
    pub fn threads(mut self, n: usize) -> Self {
        assert!(n > 0, "at least one worker thread is required");
        self.threads = Some(n);
        self
    }

    /// Attaches a campaign telemetry sampler: every worker updates its
    /// attribution slot (busy flag, claim/steal count, completions,
    /// busy wall time) around each work item and ticks the sampler
    /// afterwards. Purely observational — which thread runs which point
    /// and what each point computes are untouched, so results stay
    /// bit-identical with or without a sampler.
    pub fn progress(mut self, sampler: Arc<ProgressSampler>) -> Self {
        self.progress = Some(sampler);
        self
    }

    /// Worker count for this set: the pinned or default count, clamped
    /// to the number of configurations.
    fn workers(&self) -> usize {
        self.threads
            .unwrap_or_else(default_threads)
            .min(self.configs.len().max(1))
    }

    /// Runs `f` once per configuration and returns the results **in input
    /// order**, regardless of which thread ran which point or in what
    /// order they finished.
    ///
    /// `f` must be safe to call from multiple threads at once; each call
    /// gets a distinct configuration. Panics in `f` propagate: this call
    /// panics rather than returning partial results.
    pub fn run<R, F>(self, f: F) -> Vec<R>
    where
        C: Sync,
        R: Send,
        F: Fn(&C) -> R + Sync,
    {
        let workers = self.workers();
        let (configs, progress) = (self.configs, self.progress.as_deref());
        in_input_order(configs.len(), workers, |w, i| {
            observed(progress, w, || f(&configs[i]))
        })
    }

    /// Like [`ExperimentSet::run`], but hands each worker **ownership**
    /// of its configuration instead of a shared reference — for
    /// configurations that are `Send` but not `Sync` (e.g. whole
    /// simulator instances carrying tracer sinks). Results are in input
    /// order, exactly as for [`ExperimentSet::run`].
    pub fn run_owned<R, F>(self, f: F) -> Vec<R>
    where
        C: Send,
        R: Send,
        F: Fn(C) -> R + Sync,
    {
        let workers = self.workers();
        let progress = self.progress.as_deref();
        // Each config sits behind its own mutex so a worker can *take*
        // it; the pool's claim index guarantees a slot is claimed once.
        let inputs: Vec<Mutex<Option<C>>> = self
            .configs
            .into_iter()
            .map(|c| Mutex::new(Some(c)))
            .collect();
        in_input_order(inputs.len(), workers, |w, i| {
            let config = inputs[i]
                .lock()
                .expect("a worker panicked")
                .take()
                .expect("each config is claimed exactly once");
            observed(progress, w, || f(config))
        })
    }

    /// Like [`ExperimentSet::run`], but also reports wall-clock timing:
    /// per-point seconds (in input order) plus the sweep total, for
    /// driver output and throughput accounting. The results themselves
    /// are identical to a plain `run` — timing never influences them.
    pub fn run_with_report<R, F>(self, f: F) -> (Vec<R>, DriverReport)
    where
        C: Sync,
        R: Send,
        F: Fn(&C) -> R + Sync,
    {
        let threads = self.workers();
        let start = Instant::now();
        let timed = self.run(|c| {
            let t0 = Instant::now();
            let r = f(c);
            (r, t0.elapsed().as_secs_f64())
        });
        let total_wall_s = start.elapsed().as_secs_f64();
        let mut results = Vec::with_capacity(timed.len());
        let mut points = Vec::with_capacity(timed.len());
        for (index, (r, wall_s)) in timed.into_iter().enumerate() {
            results.push(r);
            points.push(PointTiming { index, wall_s });
        }
        (
            results,
            DriverReport {
                points,
                total_wall_s,
                threads,
            },
        )
    }
}

/// Runs `run(worker, i)` for every `i in 0..count` on [`pool`] and
/// returns the results in index order.
fn in_input_order<R, F>(count: usize, workers: usize, run: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, usize) -> R + Sync,
{
    let mut slots: Vec<Option<R>> = Vec::with_capacity(count);
    slots.resize_with(count, || None);
    let Ok(_) = pool(count, workers, None, run, |i, r| {
        slots[i] = Some(r);
        Ok::<(), Infallible>(())
    });
    slots
        .into_iter()
        .map(|r| r.expect("every slot was filled"))
        .collect()
}

/// The work pool every sweep and campaign runs on.
///
/// Workers claim indices `0..count` by atomic counter (re-checking
/// `cancel` before every claim), run `run(worker, index)`, and send
/// `(index, result)` over a channel bounded at `2 × workers`; `collect`
/// consumes them on the calling thread in completion order. A full
/// channel blocks the senders — that is the backpressure policy: at
/// most `2 × workers` uncollected results exist at any instant. With
/// `workers <= 1` everything runs on the calling thread.
///
/// Returns whether the token was tripped. A `collect` error stops
/// further claims and surfaces after the in-flight results drain. A
/// panicking worker panics the call once the others have stopped.
pub(crate) fn pool<R, E, F, G>(
    count: usize,
    workers: usize,
    cancel: Option<&CancelToken>,
    run: F,
    mut collect: G,
) -> Result<bool, E>
where
    R: Send,
    F: Fn(usize, usize) -> R + Sync,
    G: FnMut(usize, R) -> Result<(), E>,
{
    let is_cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
    if workers <= 1 {
        for i in 0..count {
            if is_cancelled() {
                return Ok(true);
            }
            collect(i, run(0, i))?;
        }
        return Ok(is_cancelled());
    }

    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let (tx, rx) = mpsc::sync_channel::<(usize, R)>(workers * 2);
    let mut first_err = None;
    std::thread::scope(|scope| {
        for w in 0..workers {
            let tx = tx.clone();
            let (next, abort, run, is_cancelled) = (&next, &abort, &run, &is_cancelled);
            scope.spawn(move || loop {
                if abort.load(Ordering::Relaxed) || is_cancelled() {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count || tx.send((i, run(w, i))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, r) in rx {
            if first_err.is_some() {
                // Keep draining so blocked senders can exit; nothing
                // more is collected after the first failure.
                continue;
            }
            if let Err(e) = collect(i, r) {
                abort.store(true, Ordering::Relaxed);
                first_err = Some(e);
            }
        }
    });
    match first_err {
        Some(e) => Err(e),
        None => Ok(is_cancelled()),
    }
}

/// Runs one work item under worker `w`'s attribution slot (claim,
/// busy-time accounting, completion count) and ticks the sampler
/// afterwards. With no sampler this is exactly the bare call.
pub(crate) fn observed<R>(
    progress: Option<&ProgressSampler>,
    w: usize,
    work: impl FnOnce() -> R,
) -> R {
    let Some(p) = progress else {
        return work();
    };
    let slot = p.counters().worker(w);
    slot.claim();
    let t0 = Instant::now();
    let r = work();
    slot.finish(t0.elapsed());
    p.tick();
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banks_env_values_parse_as_positive_powers_of_two() {
        // Tested through the parser, not the process environment —
        // mutating env vars races with the parallel test harness.
        assert_eq!(parse_banks("1"), Some(1));
        assert_eq!(parse_banks(" 8 "), Some(8));
        assert_eq!(parse_banks("64"), Some(64));
        for bad in ["0", "6", "-2", "eight", ""] {
            assert_eq!(parse_banks(bad), None, "{bad:?} must be rejected");
        }
    }

    #[test]
    fn results_are_in_input_order() {
        let out = ExperimentSet::new((0..100u64).collect::<Vec<_>>())
            .threads(8)
            .run(|&i| i * 10);
        assert_eq!(out, (0..100).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn run_owned_results_are_in_input_order() {
        for threads in [1, 8] {
            // Boxed configs: owned, moved into the worker that runs them.
            let configs: Vec<Box<u64>> = (0..100u64).map(Box::new).collect();
            let out = ExperimentSet::new(configs)
                .threads(threads)
                .run_owned(|b| *b * 10);
            assert_eq!(
                out,
                (0..100).map(|i| i * 10).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn a_panicking_worker_panics_the_call() {
        ExperimentSet::new((0..16u64).collect::<Vec<_>>())
            .threads(4)
            .run(|&n| assert_ne!(n, 7, "worker panic"));
    }

    #[test]
    fn serial_matches_parallel() {
        let work = |&(a, b): &(u64, u64)| -> u64 {
            // A deterministic but nontrivial function of the config.
            (0..1000).fold(a, |acc, i| acc.wrapping_mul(31).wrapping_add(b ^ i))
        };
        let configs: Vec<(u64, u64)> = (0..16).map(|i| (i, i * 7 + 1)).collect();
        let serial = ExperimentSet::new(configs.clone()).threads(1).run(work);
        let parallel = ExperimentSet::new(configs).threads(4).run(work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn more_workers_than_configs_is_fine() {
        let out = ExperimentSet::new(vec![1, 2]).threads(64).run(|&n| n + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn empty_set_returns_empty() {
        let out: Vec<u32> = ExperimentSet::new(Vec::<u32>::new()).run(|&n| n);
        assert!(out.is_empty());
    }

    #[test]
    fn threads_one_runs_on_calling_thread() {
        let caller = std::thread::current().id();
        let ids = ExperimentSet::new(vec![(); 4])
            .threads(1)
            .run(|_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == caller));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        ExperimentSet::new(vec![1]).threads(0);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn progress_attribution_counts_every_item_and_preserves_results() {
        use sim_engine::CampaignCounters;
        use std::time::Duration;

        for threads in [1, 4] {
            let sampler = Arc::new(ProgressSampler::new(
                CampaignCounters::new("driver-test", threads, &[]),
                Box::new(std::io::sink()),
                Duration::ZERO,
            ));
            let out = ExperimentSet::new((0..20u64).collect::<Vec<_>>())
                .threads(threads)
                .progress(Arc::clone(&sampler))
                .run(|&n| n * 3);
            assert_eq!(out, (0..20).map(|n| n * 3).collect::<Vec<_>>());
            let c = sampler.counters();
            let claimed: u64 = c.workers().iter().map(|w| w.claimed()).sum();
            let done: u64 = c.workers().iter().map(|w| w.done()).sum();
            assert_eq!(claimed, 20, "threads={threads}");
            assert_eq!(done, 20, "threads={threads}");
            assert!(c.workers().iter().all(|w| !w.is_busy()));
        }
    }

    #[test]
    fn run_with_report_times_every_point() {
        let (out, report) = ExperimentSet::new(vec![1u64, 2, 3])
            .threads(2)
            .run_with_report(|&n| n * n);
        assert_eq!(out, vec![1, 4, 9]);
        assert_eq!(report.threads, 2);
        assert_eq!(report.points.len(), 3);
        assert_eq!(
            report.points.iter().map(|p| p.index).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(report.points.iter().all(|p| p.wall_s >= 0.0));
        assert!(report.total_wall_s >= 0.0);
        assert!(report.slowest().is_some());
        let json = report.to_json();
        assert_eq!(json.get("threads").and_then(|j| j.as_u64()), Some(2));
        assert_eq!(
            json.get("points")
                .and_then(|j| j.as_array())
                .map(<[_]>::len),
            Some(3)
        );
    }
}
