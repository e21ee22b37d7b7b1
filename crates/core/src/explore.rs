//! Bounded-exhaustive schedule exploration with invariant checking.
//!
//! [`explore`] walks the tree of event schedules a concrete access
//! stream can produce: at every step the hierarchy exposes its frontier
//! of deliverable messages ([`Hierarchy::frontier_choices`], per-link
//! FIFO heads within a time window), the explorer dispatches one choice,
//! runs the [`Checker`], and recurses. Two reductions keep the walk
//! tractable:
//!
//! * **state-hash pruning** — [`Hierarchy::state_digest`] is a
//!   time-shift-invariant digest of the architectural *and* timing
//!   future of the machine; a revisited digest means every schedule
//!   suffix from here was already walked, so the subtree is cut. The
//!   walker reads the incrementally maintained digest
//!   ([`Hierarchy::state_digest_cached`]), which is bit-identical to a
//!   full rescan but only rehashes cache sets the last step dirtied.
//! * **sleep sets** — after exploring choice `a` at a node, sibling
//!   subtrees need not re-deliver `a` first unless an intervening
//!   dispatch is dependent on it (same block, same core, shared DRAM
//!   timing, or an LLC set collision). This is the classic partial-order
//!   sleep-set reduction keyed on per-block independence; it is
//!   conservative but heuristic (independence is judged from static
//!   event attributes), so it can be disabled per run — the
//!   `sleep_set_reduction_preserves_outcomes` test cross-checks the two
//!   modes against each other.
//!
//! # Backtracking, and replay from the root
//!
//! The walker owns **one** hierarchy for the whole walk: each step
//! records a compact undo frame ([`Hierarchy::enable_undo`]) and the
//! walker rewinds it in place ([`Hierarchy::undo_to`]) when the subtree
//! is done, so interior nodes never copy the machine. The one other way
//! to reach a node is to rebuild it: [`replay_schedule`] re-runs a
//! node's path (the seqs an [`ExploreError::schedule`] records) on a
//! fresh hierarchy, the stateless model checker's way of restoring a
//! state.
//!
//! # Decomposition and parallelism
//!
//! The walk is decomposed at a frontier depth
//! ([`ExploreConfig::split_depth`]) — by default derived from the
//! root's measured branching factor ([`adaptive_split_depth`]), so wide
//! frontiers split shallow and narrow ones split deep instead of
//! serializing behind a fixed boundary: a *spine* walker explores every
//! node above the boundary, and each boundary node roots an independent
//! *task* with a private digest table, private budgets, and the exact
//! sleep set the serial walk would hand it. Tasks are fanned over
//! worker threads by work stealing ([`ExperimentSet::run_owned`]), and
//! each worker rebuilds its task's root with [`replay_schedule`]; when
//! `threads == 1` they run inline on the spine's own hierarchy, which
//! reaches each task root by rewinding through the undo log. Task
//! reports merge **in spine emission order**, so the report is
//! bit-identical for every thread count — [`explore`] *is*
//! [`explore_parallel_profiled`] with one thread. That equality is also
//! the walker oracle: at one thread every task root is undo-restored,
//! at more it is root-replayed, so an undo fault that changes any later
//! behavior splits the two reports (`swiftdir-explore --oracle`).
//! Cross-task revisits are only pruned within a task, never across
//! tasks; the pure serial single-table walk remains available via
//! `split_depth: Some(usize::MAX)` (it prunes more, so its `timings`
//! set can be a subset).
//!
//! Every leaf (drained queue) contributes its architectural outcome
//! (completion values + final golden memory), its timing outcome, its
//! per-request latency, and its transition-coverage matrices to the
//! [`ExploreReport`].

use std::collections::BTreeMap;
use std::sync::Arc;

use sim_engine::{Cycle, FxHashMap, FxHashSet, Json, MemGauge, ProgressSampler};
use swiftdir_coherence::{
    Checker, Choice, Completion, Hierarchy, HierarchyConfig, ObservedCoverage, ProtocolError,
    RequestId,
};

use crate::driver::ExperimentSet;
use crate::stream::{issue_stream, AccessOp};

/// Phase names an explore campaign's telemetry attributes wall time to:
/// `spine` (the serial above-boundary walk — which includes inline
/// boundary tasks on a single thread, see DESIGN.md §12), `tasks`
/// (deferred boundary subtrees on the worker pool), and `merge`
/// (folding per-walker reports and profiles).
pub const EXPLORE_PHASES: [&str; 3] = ["spine", "tasks", "merge"];

/// Nodes between a walker's telemetry flushes (step/schedule deltas,
/// seen-table / undo-log / slab gauges, one sampler tick).
const EXPLORE_TELEMETRY_EVERY: u64 = 1024;

/// The deepest a walk goes, and the largest `max_depth` a command line
/// may ask for. A walk past `SHALLOW_LEVELS` reserves
/// stack for every level left to its depth bound: 0.5 GiB at this limit.
pub const MAX_DEPTH_LIMIT: usize = 1 << 15;

/// `depth` as a `max_depth`, or a message when it exceeds
/// [`MAX_DEPTH_LIMIT`].
///
/// # Errors
///
/// Returns the message when `depth` is out of range.
pub fn check_max_depth(depth: u64) -> Result<usize, String> {
    match usize::try_from(depth) {
        Ok(d) if d <= MAX_DEPTH_LIMIT => Ok(d),
        _ => Err(format!(
            "max_depth {depth} is above the limit of {MAX_DEPTH_LIMIT}"
        )),
    }
}

/// Budgets and feature toggles for one exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Frontier time window: only events within `window` cycles of the
    /// earliest deliverable one are offered as choices. Larger windows
    /// model laggier networks (more reorderings) at exponential cost.
    pub window: u64,
    /// Maximum schedule length before the path is abandoned as
    /// runaway (a livelock guard, not a correctness bound). A walk
    /// stops at [`MAX_DEPTH_LIMIT`] whatever this says; parsed values
    /// go through [`check_max_depth`].
    pub max_depth: usize,
    /// Stop after this many complete schedules (per task).
    pub max_schedules: u64,
    /// Stop when a state-digest table reaches this size (per task).
    pub max_states: usize,
    /// Enable the sleep-set partial-order reduction.
    pub sleep_sets: bool,
    /// Frontier depth at which subtrees become independent tasks (the
    /// work-stealing grain). `None` (the default) derives the depth
    /// from the root's measured branching factor — see
    /// [`adaptive_split_depth`]. `Some(usize::MAX)` disables
    /// decomposition: one walker, one digest table — the pure serial
    /// semantics.
    pub split_depth: Option<usize>,
    /// Spine nodes become at most this many parallel tasks; boundary
    /// nodes past the cap are explored inline by the spine
    /// (deterministically — the cutoff depends only on spine DFS
    /// order), bounding the queued tasks regardless of frontier
    /// breadth. Cap hits are counted in
    /// [`ExploreReport::task_cap_hits`] and warned about — never
    /// silent.
    pub max_tasks: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            window: 48,
            max_depth: 4096,
            max_schedules: 250_000,
            max_states: 1 << 21,
            sleep_sets: true,
            split_depth: None,
            max_tasks: 4096,
        }
    }
}

/// Picks the decomposition depth from the root node's branching factor:
/// the shallowest frontier depth whose expected boundary-node count
/// (`branching^depth`) reaches `SPLIT_TARGET_TASKS` (64), clamped to
/// `MAX_ADAPTIVE_SPLIT_DEPTH` (6). Wide frontiers split shallow (depth 1
/// already yields enough tasks); narrow frontiers split deeper instead
/// of silently serializing behind a fixed depth-2 boundary. A root with
/// at most one choice keeps the historical depth of 2 — deeper
/// frontiers usually widen once the first events deliver.
///
/// The depth depends only on the root state (never on the thread
/// count), so the decomposition — and therefore the merged report — is
/// identical for every worker count.
pub fn adaptive_split_depth(branching: usize) -> usize {
    const SPLIT_TARGET_TASKS: u64 = 64;
    const MAX_ADAPTIVE_SPLIT_DEPTH: usize = 6;
    if branching <= 1 {
        return 2;
    }
    let mut width = 1u64;
    for depth in 1..=MAX_ADAPTIVE_SPLIT_DEPTH {
        width = width.saturating_mul(branching as u64);
        if width >= SPLIT_TARGET_TASKS {
            return depth;
        }
    }
    MAX_ADAPTIVE_SPLIT_DEPTH
}

/// A violation (protocol error, invariant breach, or stuck leaf) found
/// on one explored schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreError {
    /// Human-readable description.
    pub detail: String,
    /// The schedule that produced it, as the event-seq choices taken
    /// from the root (re-run it on a fresh hierarchy with
    /// [`replay_schedule`]).
    pub schedule: Vec<u64>,
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} on schedule {:?}", self.detail, self.schedule)
    }
}

/// Why [`replay_schedule`] could not rebuild a node.
#[derive(Debug, Clone)]
pub enum ReplayError {
    /// The queue drained before step `step` of the schedule.
    Quiesced {
        /// Index of the first seq left over.
        step: usize,
    },
    /// `seq` (step `step`) is not the head of any link, so no explored
    /// schedule could deliver it next.
    NotOnFrontier {
        /// Index of the seq in the schedule.
        step: usize,
        /// The event sequence number asked for.
        seq: u64,
    },
    /// Delivering `seq` (step `step`) was an illegal protocol event.
    Protocol {
        /// Index of the seq in the schedule.
        step: usize,
        /// The event sequence number delivered.
        seq: u64,
        /// What the hierarchy reported.
        error: Box<ProtocolError>,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Quiesced { step } => {
                write!(f, "the queue drained before schedule step {step}")
            }
            ReplayError::NotOnFrontier { step, seq } => {
                write!(f, "schedule step {step}: seq {seq} is not on the frontier")
            }
            ReplayError::Protocol { step, seq, error } => {
                write!(f, "schedule step {step}: seq {seq}: {error}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Rebuilds the node `schedule` leads to: a fresh hierarchy from `cfg`
/// with `stream` issued, then each seq delivered in order with
/// [`Hierarchy::try_step_choice`]. A schedule is the path an
/// [`ExploreError`] records and a deferred task starts from. Each seq
/// must be the head of a link (a choice of
/// [`Hierarchy::frontier_choices`] at any window), so a replay never
/// delivers an event its link's FIFO order forbids.
///
/// # Errors
///
/// The first step that cannot be taken: the queue drained, the seq is
/// not on the frontier, or its delivery was a protocol error.
pub fn replay_schedule(
    cfg: &HierarchyConfig,
    stream: &[AccessOp],
    schedule: &[u64],
) -> Result<Hierarchy, ReplayError> {
    let mut h = Hierarchy::new(*cfg);
    issue_stream(&mut h, stream);
    let (mut keys, mut heads) = (Vec::new(), Vec::new());
    for (step, &seq) in schedule.iter().enumerate() {
        if h.is_idle() {
            return Err(ReplayError::Quiesced { step });
        }
        h.frontier_choices_into(Cycle::MAX, &mut keys, &mut heads);
        if !heads.iter().any(|c| c.seq == seq) {
            return Err(ReplayError::NotOnFrontier { step, seq });
        }
        match h.try_step_choice(seq) {
            Ok(Some(_)) => {}
            Ok(None) => return Err(ReplayError::NotOnFrontier { step, seq }),
            Err(error) => return Err(ReplayError::Protocol { step, seq, error }),
        }
    }
    Ok(h)
}

/// The result of one bounded-exhaustive exploration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExploreReport {
    /// Complete schedules walked to quiescence.
    pub schedules: u64,
    /// Events dispatched across all schedules (tree edges).
    pub steps: u64,
    /// Subtrees cut because their state digest was already visited.
    pub pruned: u64,
    /// Choices skipped by the sleep-set reduction.
    pub sleep_skipped: u64,
    /// Boundary subtrees handed off as decomposition tasks (the
    /// explorer's boundary-task ledger; identical at every thread
    /// count).
    pub tasks: u64,
    /// Boundary subtrees past [`ExploreConfig::max_tasks`] that ran
    /// inline on the spine instead of fanning out. Non-zero means the
    /// tail of the walk was serialized — reported loudly, never silent.
    pub task_cap_hits: u64,
    /// Longest schedule seen.
    pub deepest: usize,
    /// Whether any budget (`max_depth`, `max_schedules`, `max_states`)
    /// truncated the walk — a truncated report is not exhaustive.
    pub truncated: bool,
    /// Sorted distinct architectural outcomes (completion values and
    /// final memory image, timing excluded).
    pub outcomes: Vec<u64>,
    /// Sorted distinct full outcomes (architectural outcome plus every
    /// completion's issue/finish cycles).
    pub timings: Vec<u64>,
    /// Union of Tables I–III transition coverage over all schedules.
    pub coverage: ObservedCoverage,
    /// Per-request completion-latency multisets across schedules
    /// (latency → number of schedules finishing the request in it).
    pub latencies: FxHashMap<RequestId, BTreeMap<u64, u64>>,
    /// The first violation found in canonical (spine, then task
    /// emission) order, if any.
    pub error: Option<ExploreError>,
}

impl ExploreReport {
    /// True when the walk finished every schedule without violation or
    /// budget truncation.
    pub fn exhaustive_and_clean(&self) -> bool {
        self.error.is_none() && !self.truncated
    }

    /// The latency multiset of `req` flattened to a sorted list of
    /// `(latency, count)` pairs (empty if the request never completed).
    pub fn latency_multiset(&self, req: RequestId) -> Vec<(u64, u64)> {
        self.latencies
            .get(&req)
            .map(|m| m.iter().map(|(&l, &n)| (l, n)).collect())
            .unwrap_or_default()
    }

    /// FNV-1a digest of the report's deterministic content: counters,
    /// outcome and timing sets, the latency multisets in request order,
    /// and the error rendering. Two walks of the same tree (any thread
    /// count, any process) produce the same digest — the unit identity
    /// checkpointed campaigns compare across kills and resumes.
    pub fn digest(&self) -> u64 {
        let mut f = crate::ckpt::Fnv::new();
        for v in [
            self.schedules,
            self.steps,
            self.pruned,
            self.sleep_skipped,
            self.tasks,
            self.task_cap_hits,
            self.deepest as u64,
            self.truncated as u64,
        ] {
            f.mix(v);
        }
        for o in &self.outcomes {
            f.mix(*o);
        }
        for t in &self.timings {
            f.mix(*t);
        }
        let mut reqs: Vec<RequestId> = self.latencies.keys().copied().collect();
        reqs.sort_unstable();
        for req in reqs {
            f.mix(req);
            for (&lat, &n) in &self.latencies[&req] {
                f.mix(lat);
                f.mix(n);
            }
        }
        if let Some(e) = &self.error {
            for b in e.detail.bytes() {
                f.mix(u64::from(b));
            }
            for s in &e.schedule {
                f.mix(*s);
            }
        }
        f.0
    }
}

/// Per-depth walk counters (tree shape and undo cost), summed over the
/// spine and every task.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DepthStats {
    /// Nodes entered at this depth (leaves included).
    pub nodes: u64,
    /// Subtrees rewound through the undo log back to a parent at this
    /// depth's step.
    pub backtracks: u64,
    /// Total approximate bytes the rewound undo frames pinned.
    pub undo_bytes: u64,
}

/// Depth-indexed [`DepthStats`] for one exploration; index = schedule
/// depth from the root.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DepthProfile {
    /// One entry per depth reached, root first.
    pub depths: Vec<DepthStats>,
}

impl DepthProfile {
    fn at(&mut self, depth: usize) -> &mut DepthStats {
        if self.depths.len() <= depth {
            self.depths.resize(depth + 1, DepthStats::default());
        }
        &mut self.depths[depth]
    }

    /// Element-wise sum of `other` into `self`.
    pub fn merge(&mut self, other: &DepthProfile) {
        for (d, s) in other.depths.iter().enumerate() {
            let slot = self.at(d);
            slot.nodes += s.nodes;
            slot.backtracks += s.backtracks;
            slot.undo_bytes += s.undo_bytes;
        }
    }

    /// The profile as a JSON array (one `{depth, nodes, backtracks,
    /// undo_bytes}` object per depth) — the form campaign drivers fold
    /// into the final progress heartbeat via
    /// [`ProgressSampler::finish_with_extra`].
    pub fn to_json(&self) -> Json {
        Json::array(self.depths.iter().enumerate().map(|(d, s)| {
            Json::object([
                ("depth", Json::Uint(d as u64)),
                ("nodes", Json::Uint(s.nodes)),
                ("backtracks", Json::Uint(s.backtracks)),
                ("undo_bytes", Json::Uint(s.undo_bytes)),
            ])
        }))
    }
}

/// Explores every schedule of `stream` on a fresh hierarchy built from
/// `cfg`, within `ecfg`'s budgets. Link jitter must be disabled (the
/// explorer *is* the network nondeterminism).
///
/// This *is* [`explore_parallel_profiled`] with one worker: the walk is
/// decomposed identically, so the report is bit-identical at every
/// thread count.
pub fn explore(cfg: &HierarchyConfig, stream: &[AccessOp], ecfg: &ExploreConfig) -> ExploreReport {
    explore_parallel_profiled(cfg, stream, ecfg, 1).0
}

/// [`explore`] with the boundary tasks fanned over `threads` workers,
/// also returning the merged per-depth walk profile (node counts,
/// backtracks, undo bytes).
pub fn explore_parallel_profiled(
    cfg: &HierarchyConfig,
    stream: &[AccessOp],
    ecfg: &ExploreConfig,
    threads: usize,
) -> (ExploreReport, DepthProfile) {
    explore_campaign(cfg, stream, ecfg, threads, None)
}

/// The explore driver every `explore*` entry point funnels through:
/// [`explore_parallel_profiled`] with an optional campaign telemetry
/// sampler.
///
/// With a sampler attached, the walkers publish step/schedule deltas
/// and memory gauges (seen-table entries/bytes, undo-log bytes,
/// transient-slab bytes) every `EXPLORE_TELEMETRY_EVERY` (1024) nodes, wall
/// time is attributed to the [`EXPLORE_PHASES`] spans, the worker pool
/// reports per-slot attribution, and heartbeats stream at the
/// sampler's interval. Strictly passive: the report and profile are
/// bit-identical to a samplerless run at every thread count.
pub fn explore_campaign(
    cfg: &HierarchyConfig,
    stream: &[AccessOp],
    ecfg: &ExploreConfig,
    threads: usize,
    progress: Option<&Arc<ProgressSampler>>,
) -> (ExploreReport, DepthProfile) {
    let expected = stream.len();
    let mut root = Hierarchy::new(*cfg);
    issue_stream(&mut root, stream);
    root.enable_undo();

    // Resolve the decomposition depth before the walk: fixed if the
    // config pins one, else derived from the root's branching factor.
    // Both depend only on the root state, never on `threads`.
    let split_depth = ecfg
        .split_depth
        .unwrap_or_else(|| adaptive_split_depth(root.frontier_choices(Cycle(ecfg.window)).len()));

    let mut spine = Walker::new(*ecfg, expected);
    spine.split_depth = split_depth;
    spine.progress = progress.map(Arc::clone);
    if split_depth != usize::MAX {
        spine.boundary = if threads > 1 {
            Boundary::Defer(Vec::new())
        } else {
            Boundary::Inline(Vec::new())
        };
    }
    {
        let _spine_span = progress.map(|p| p.counters().span("spine"));
        spine.dfs(&mut root, &[], 0);
        // Final gauge sample while the hierarchy is still in scope, so
        // short walks (< EXPLORE_TELEMETRY_EVERY nodes) still publish
        // their memory footprint.
        spine.flush_telemetry(&root);
    }

    let boundary = std::mem::replace(&mut spine.boundary, Boundary::Off);
    let (spine_report, spine_profile) = spine.finish();
    let task_results: Vec<(ExploreReport, DepthProfile)> = match boundary {
        Boundary::Off => Vec::new(),
        Boundary::Inline(results) => results,
        Boundary::Defer(tasks) => {
            let mut set = ExperimentSet::new(tasks).threads(threads);
            if let Some(p) = progress {
                set = set.progress(Arc::clone(p));
            }
            set.run_owned(|t| run_task(t, cfg, stream, ecfg))
        }
    };

    let _merge_span = progress.map(|p| p.counters().span("merge"));
    let mut profile = spine_profile;
    let mut reports = vec![spine_report];
    for (r, p) in task_results {
        profile.merge(&p);
        reports.push(r);
    }
    let merged = merge_reports(reports);
    if merged.task_cap_hits > 0 {
        // No silent caps: the tail of this walk was serialized onto the
        // spine. Surface it on stderr here and in the report; campaign
        // drivers fold `task_cap_hits` into the final heartbeat.
        eprintln!(
            "swiftdir explore: warning: task emission truncated at the {}-task cap \
             ({} boundary subtrees ran inline on the spine; split depth {split_depth})",
            ecfg.max_tasks, merged.task_cap_hits
        );
    }
    (merged, profile)
}

/// An independent subtree rooted at a decomposition-boundary node,
/// ready to run on any worker thread: the path to its root, which the
/// worker replays, and the walker state the spine had there.
struct Task {
    checker: Checker,
    sleep: Vec<Choice>,
    trace: Vec<u64>,
    depth: usize,
    progress: Option<Arc<ProgressSampler>>,
}

/// Rebuilds one deferred [`Task`]'s root by replaying its path from
/// the root, then walks it to completion on the calling thread. A root
/// that does not replay is the task's error, so it cannot go unseen.
fn run_task(
    t: Task,
    cfg: &HierarchyConfig,
    stream: &[AccessOp],
    ecfg: &ExploreConfig,
) -> (ExploreReport, DepthProfile) {
    // Worker threads hold no other span, so the whole task is `tasks`
    // time (inline tasks, by contrast, stay inside the spine's span).
    let _task_span = t.progress.as_ref().map(|p| p.counters().span("tasks"));
    let mut w = Walker::task(*ecfg, stream.len(), t.trace, &t.checker, t.depth);
    w.progress = t.progress.clone();
    match replay_schedule(cfg, stream, &w.trace) {
        Ok(mut h) => {
            h.enable_undo();
            w.dfs(&mut h, &t.sleep, t.depth);
            w.flush_telemetry(&h);
        }
        Err(e) => w.fail(format!("task root did not replay: {e}")),
    }
    w.finish()
}

/// Folds per-walker reports (spine first, then tasks in canonical
/// emission order) into one.
fn merge_reports(reports: Vec<ExploreReport>) -> ExploreReport {
    let mut merged = ExploreReport::default();
    let mut outcomes: Vec<u64> = Vec::new();
    let mut timings: Vec<u64> = Vec::new();
    for r in reports {
        merged.schedules += r.schedules;
        merged.steps += r.steps;
        merged.pruned += r.pruned;
        merged.sleep_skipped += r.sleep_skipped;
        merged.tasks += r.tasks;
        merged.task_cap_hits += r.task_cap_hits;
        merged.deepest = merged.deepest.max(r.deepest);
        merged.truncated |= r.truncated;
        outcomes.extend(r.outcomes);
        timings.extend(r.timings);
        merged.coverage.merge(&r.coverage);
        for (req, m) in r.latencies {
            let slot = merged.latencies.entry(req).or_default();
            for (lat, n) in m {
                *slot.entry(lat).or_insert(0) += n;
            }
        }
        if merged.error.is_none() {
            merged.error = r.error;
        }
    }
    outcomes.sort_unstable();
    outcomes.dedup();
    timings.sort_unstable();
    timings.dedup();
    merged.outcomes = outcomes;
    merged.timings = timings;
    merged
}

/// What the spine does when the walk reaches `split_depth`.
enum Boundary {
    /// No decomposition: keep walking (task walkers, and
    /// `split_depth: usize::MAX`).
    Off,
    /// Run the boundary subtree immediately on this thread (with private
    /// walker state) and bank its result.
    Inline(Vec<(ExploreReport, DepthProfile)>),
    /// Queue the subtree for the worker pool, which replays its root.
    Defer(Vec<Task>),
}

/// Schedule depth a walk may reach on the stack it was called on before
/// it moves to a deeper one (see [`Walker::dfs_on_deep_stack`]). An
/// unoptimized build spends about 3–6 KiB of stack per level.
const SHALLOW_LEVELS: usize = 128;

/// Stack reserved per level of schedule depth on a deep walker thread:
/// room to spare over the unoptimized build's frames.
const WALK_STACK_PER_LEVEL: usize = 16 << 10;

struct Walker {
    ecfg: ExploreConfig,
    expected: usize,
    seen: FxHashMap<u64, bool>,
    outcomes: FxHashSet<u64>,
    timings: FxHashSet<u64>,
    report: ExploreReport,
    profile: DepthProfile,
    trace: Vec<u64>,
    /// Depth-indexed checker states: `checkers[d]` audits the node at
    /// depth `d`. Stepping copies parent into child with
    /// [`Checker::assign_from`] (no per-step allocation once warm), so
    /// the undo walker never needs to rewind a checker.
    checkers: Vec<Checker>,
    boundary: Boundary,
    /// The resolved decomposition depth this walker splits at (only
    /// meaningful while `boundary` is active; task walkers never
    /// split). Set by [`explore_campaign`] — fixed or adaptive.
    split_depth: usize,
    tasks_emitted: usize,
    /// Recycled choice buffers: [`Walker::visit`] pops one for its
    /// frontier (filled via [`Hierarchy::frontier_choices_into`]), one for
    /// its `barred` set and one for each child's sleep set, and returns
    /// them after the subtree — steady-state walking allocates nothing.
    choice_pool: Vec<Vec<Choice>>,
    /// Link-key scratch for [`Hierarchy::frontier_choices_into`].
    choice_keys: Vec<(u8, u64, u64)>,
    /// Campaign telemetry sink; strictly passive (never influences the
    /// walk). `None` keeps the whole telemetry path to one branch.
    progress: Option<Arc<ProgressSampler>>,
    /// Nodes visited since the last telemetry flush.
    nodes_since_flush: u64,
    /// Step/schedule totals already published to the sampler, so each
    /// flush only reports the delta.
    flushed_steps: u64,
    flushed_schedules: u64,
    /// Whether this walk has moved to a thread whose stack fits
    /// `max_depth` (see [`Walker::dfs_on_deep_stack`]).
    deep_stack: bool,
}

impl Walker {
    fn new(ecfg: ExploreConfig, expected: usize) -> Self {
        Walker {
            ecfg: ExploreConfig {
                max_depth: ecfg.max_depth.min(MAX_DEPTH_LIMIT),
                ..ecfg
            },
            expected,
            seen: FxHashMap::default(),
            outcomes: FxHashSet::default(),
            timings: FxHashSet::default(),
            report: ExploreReport::default(),
            profile: DepthProfile::default(),
            trace: Vec::new(),
            checkers: vec![Checker::new()],
            boundary: Boundary::Off,
            split_depth: ecfg.split_depth.unwrap_or(usize::MAX),
            tasks_emitted: 0,
            choice_pool: Vec::new(),
            choice_keys: Vec::new(),
            progress: None,
            nodes_since_flush: 0,
            flushed_steps: 0,
            flushed_schedules: 0,
            deep_stack: false,
        }
    }

    /// A walker for one boundary subtree: path prefix `trace`, checker
    /// state `checker` at `depth`, fresh digest table and budgets.
    fn task(
        ecfg: ExploreConfig,
        expected: usize,
        trace: Vec<u64>,
        checker: &Checker,
        depth: usize,
    ) -> Self {
        let mut w = Walker::new(ecfg, expected);
        w.trace = trace;
        while w.checkers.len() <= depth {
            w.checkers.push(Checker::new());
        }
        w.checkers[depth].assign_from(checker);
        w
    }

    /// Sorts the accumulated outcome sets into the final report.
    fn finish(mut self) -> (ExploreReport, DepthProfile) {
        if let Some(p) = self.progress.take() {
            // Residual step/schedule deltas since the last in-walk flush.
            let counters = p.counters();
            counters.add_steps(self.report.steps - self.flushed_steps);
            counters.add_schedules(self.report.schedules - self.flushed_schedules);
            p.tick();
        }
        self.report.outcomes = self.outcomes.into_iter().collect();
        self.report.outcomes.sort_unstable();
        self.report.timings = self.timings.into_iter().collect();
        self.report.timings.sort_unstable();
        (self.report, self.profile)
    }

    /// Publishes step/schedule deltas and memory gauges to the campaign
    /// sampler. Called every [`EXPLORE_TELEMETRY_EVERY`] nodes from
    /// [`Walker::dfs`]; reads walker and hierarchy state only.
    fn flush_telemetry(&mut self, h: &Hierarchy) {
        let Some(p) = self.progress.as_ref() else {
            return;
        };
        let counters = p.counters();
        counters.add_steps(self.report.steps - self.flushed_steps);
        counters.add_schedules(self.report.schedules - self.flushed_schedules);
        self.flushed_steps = self.report.steps;
        self.flushed_schedules = self.report.schedules;
        counters
            .gauge(MemGauge::SeenEntries)
            .set(self.seen.len() as u64);
        // The swiss-table footprint: allocated buckets (usable capacity
        // is only 7/8 of them) plus per-bucket control bytes — not the
        // bare `capacity * entry` figure, which undercounts.
        let seen_bytes =
            sim_engine::map_heap_bytes(self.seen.capacity(), std::mem::size_of::<(u64, bool)>());
        counters.gauge(MemGauge::SeenBytes).set(seen_bytes);
        counters.gauge(MemGauge::UndoBytes).set(h.undo_log_bytes());
        counters.gauge(MemGauge::SlabBytes).set(h.transient_bytes());
        p.tick();
    }

    /// Walks the subtree under `h`; returns false to abort this
    /// walker's exploration (violation found or hard budget hit). `h`
    /// is rewound to its entry state either way, so the spine survives
    /// task failures.
    fn dfs(&mut self, h: &mut Hierarchy, sleep: &[Choice], depth: usize) -> bool {
        if depth == SHALLOW_LEVELS && !self.deep_stack {
            return self.dfs_on_deep_stack(h, sleep, depth);
        }
        self.report.deepest = self.report.deepest.max(depth);
        self.profile.at(depth).nodes += 1;
        if self.progress.is_some() {
            self.nodes_since_flush += 1;
            if self.nodes_since_flush >= EXPLORE_TELEMETRY_EVERY {
                self.nodes_since_flush = 0;
                self.flush_telemetry(h);
            }
        }

        // Node order: leaf, depth bound, digest and prune, task hand-off,
        // then the frontier — a pruned or handed-off node never builds one.
        if h.is_idle() {
            return self.leaf(h, depth);
        }
        if depth >= self.ecfg.max_depth {
            self.report.truncated = true;
            return true;
        }
        // State-hash pruning. A visit is "full" when its sleep set is
        // empty: every schedule suffix from the state gets walked. Only
        // full visits may prune later ones — a node first reached with a
        // non-empty sleep set explored fewer behaviors than a revisit
        // with a smaller one might need.
        let digest = h.state_digest_cached();
        let full = sleep.is_empty() || !self.ecfg.sleep_sets;
        match self.seen.get(&digest) {
            Some(&true) => {
                self.report.pruned += 1;
                self.report.coverage.add(h.stats());
                return true;
            }
            Some(&false) if full => {
                self.seen.insert(digest, true);
            }
            Some(&false) => {}
            None => {
                self.seen.insert(digest, full);
            }
        }
        if self.seen.len() >= self.ecfg.max_states {
            self.report.truncated = true;
            return false;
        }

        // Decomposition boundary: this node roots an independent task
        // (private digest table and budgets). The spine always carries
        // on afterwards — a failing task cannot abort it, exactly as a
        // deferred task's failure is invisible until the merge. Nodes
        // past the task cap fall through to the inline walk below, and
        // every such hit is counted — the cap is never silent.
        if depth == self.split_depth && !matches!(self.boundary, Boundary::Off) {
            if self.tasks_emitted < self.ecfg.max_tasks {
                self.tasks_emitted += 1;
                self.report.tasks += 1;
                self.hand_off(h, sleep, depth);
                return true;
            }
            self.report.task_cap_hits += 1;
        }

        let mut choices = self.choice_pool.pop().unwrap_or_default();
        h.frontier_choices_into(Cycle(self.ecfg.window), &mut self.choice_keys, &mut choices);
        // A link's oldest event can be due later than a younger one on
        // the same link, so a non-empty queue may still offer no choice
        // inside the window: such a node ends its schedule as a leaf,
        // which reports the missing completions.
        let ok = if choices.is_empty() {
            self.leaf(h, depth)
        } else {
            self.visit(h, sleep, depth, &choices)
        };
        self.recycle(choices);
        ok
    }

    /// Walks the subtree at `depth` on a new thread whose stack fits the
    /// levels left down to `max_depth`. The walk recurses a few frames
    /// per level, so past [`SHALLOW_LEVELS`] it leaves the caller's stack
    /// (a test thread has 2 MiB): a runaway schedule then ends at the
    /// depth bound in a truncated report instead of a stack overflow.
    /// If no such thread can be made, the path ends here, truncated.
    /// Benchmark trees stay far shallower and never spawn.
    fn dfs_on_deep_stack(&mut self, h: &mut Hierarchy, sleep: &[Choice], depth: usize) -> bool {
        let levels = self.ecfg.max_depth.saturating_sub(depth);
        let stack = levels
            .saturating_mul(WALK_STACK_PER_LEVEL)
            .saturating_add(1 << 20);
        self.deep_stack = true;
        let ok = std::thread::scope(|s| {
            let walker = std::thread::Builder::new()
                .stack_size(stack)
                .spawn_scoped(s, || self.dfs(h, sleep, depth));
            walker.map(|w| {
                w.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
        });
        self.deep_stack = false;
        ok.unwrap_or_else(|_| {
            self.report.truncated = true;
            true
        })
    }

    /// Returns a choice buffer to the pool.
    fn recycle(&mut self, mut buf: Vec<Choice>) {
        buf.clear();
        self.choice_pool.push(buf);
    }

    /// Walks each child of a non-leaf node whose frontier is `choices`.
    fn visit(
        &mut self,
        h: &mut Hierarchy,
        sleep: &[Choice],
        depth: usize,
        choices: &[Choice],
    ) -> bool {
        // `barred` grows as siblings are explored: after walking the
        // subtree that delivers `a` first, later siblings only need to
        // consider `a` after some dependent event (sleep-set reduction).
        let mut barred = self.choice_pool.pop().unwrap_or_default();
        barred.extend_from_slice(sleep);
        let mut child_sleep = self.choice_pool.pop().unwrap_or_default();
        let mut ok = true;
        for choice in choices {
            if self.ecfg.sleep_sets && barred.iter().any(|s| s.seq == choice.seq) {
                self.report.sleep_skipped += 1;
                continue;
            }
            child_sleep.clear();
            if self.ecfg.sleep_sets {
                child_sleep.extend(barred.iter().filter(|s| independent(s, choice)));
            }

            if !self.step_into(h, choice, &child_sleep, depth) {
                ok = false;
                break;
            }
            if self.report.schedules >= self.ecfg.max_schedules {
                self.report.truncated = true;
                ok = false;
                break;
            }
            barred.push(*choice);
        }
        self.recycle(barred);
        self.recycle(child_sleep);
        ok
    }

    /// Packages the node under `h` as a task: deferred to the worker
    /// pool (which replays the node from the root) or run inline right
    /// here (the sub-walker borrows `h` and rewinds it).
    fn hand_off(&mut self, h: &mut Hierarchy, sleep: &[Choice], depth: usize) {
        match &mut self.boundary {
            Boundary::Off => unreachable!("hand_off gated on an active boundary"),
            Boundary::Defer(tasks) => {
                tasks.push(Task {
                    checker: self.checkers[depth].clone(),
                    sleep: sleep.to_vec(),
                    trace: self.trace.clone(),
                    depth,
                    progress: self.progress.clone(),
                });
            }
            Boundary::Inline(results) => {
                let mut w = Walker::task(
                    self.ecfg,
                    self.expected,
                    self.trace.clone(),
                    &self.checkers[depth],
                    depth,
                );
                w.progress = self.progress.clone();
                w.dfs(h, sleep, depth);
                results.push(w.finish());
            }
        }
    }

    /// Dispatches `choice` under `h`, audits the event, walks the child
    /// subtree (at `depth + 1`) with `child_sleep`, and rewinds `h` to
    /// the parent state through the undo log. Returns false to abort
    /// this walker.
    fn step_into(
        &mut self,
        h: &mut Hierarchy,
        choice: &Choice,
        child_sleep: &[Choice],
        depth: usize,
    ) -> bool {
        self.trace.push(choice.seq);
        let umark = h.undo_mark();
        let cmark = h.completions_len();
        let ok = match h.try_step_choice(choice.seq) {
            Err(e) => {
                self.fail(format!("protocol error: {e}"));
                false
            }
            Ok(None) => {
                self.fail(format!("frontier choice seq {} vanished", choice.seq));
                false
            }
            Ok(Some(_)) => {
                self.report.steps += 1;
                while self.checkers.len() <= depth + 1 {
                    self.checkers.push(Checker::new());
                }
                let (parents, children) = self.checkers.split_at_mut(depth + 1);
                let checker = &mut children[0];
                checker.assign_from(&parents[depth]);
                match checker.after_event(h, h.completions_since(cmark)) {
                    Err(v) => {
                        self.fail(format!("invariant violation: {v}"));
                        false
                    }
                    Ok(_) => self.dfs(h, child_sleep, depth + 1),
                }
            }
        };
        if h.undo_mark() > umark {
            let p = self.profile.at(depth + 1);
            p.backtracks += 1;
            p.undo_bytes += h.undo_frame_bytes();
            // Rewind even failed dispatches: the frame was recorded
            // before the handler ran, so a partially applied erroring
            // step unwinds cleanly and the spine can keep using `h`.
            h.undo_to(umark);
        }
        self.trace.pop();
        ok
    }

    /// Handles a drained-queue leaf: audits quiescence, records the
    /// outcome digests, latencies, and coverage. The hierarchy's own
    /// (never drained) completion list is the schedule's full history.
    fn leaf(&mut self, h: &Hierarchy, depth: usize) -> bool {
        let completions = h.completions_since(0);
        if completions.len() != self.expected {
            self.fail(format!(
                "schedule quiesced with {} of {} completions",
                completions.len(),
                self.expected
            ));
            return false;
        }
        if let Err(v) = self.checkers[depth].check_quiescent(h) {
            self.fail(format!("quiescence violation: {v}"));
            return false;
        }
        let checker = &self.checkers[depth];
        self.report.schedules += 1;
        self.report.coverage.add(h.stats());

        let mut ordered: Vec<&Completion> = completions.iter().collect();
        ordered.sort_unstable_by_key(|c| c.req);
        let mut arch = Fnv::new();
        for c in &ordered {
            arch.mix(c.req);
            arch.mix(c.core as u64);
            arch.mix(c.block.0);
            arch.mix(matches!(c.class.kind, swiftdir_coherence::AccessKind::Store) as u64);
            arch.mix(c.value);
        }
        let mut blocks: Vec<u64> = ordered.iter().map(|c| c.block.0).collect();
        blocks.sort_unstable();
        blocks.dedup();
        for b in blocks {
            arch.mix(b);
            arch.mix(checker.golden(b));
        }
        let mut timing = Fnv::new();
        timing.mix(arch.0);
        for c in &ordered {
            timing.mix(c.issued_at.get());
            timing.mix(c.done_at.get());
        }
        self.outcomes.insert(arch.0);
        self.timings.insert(timing.0);
        for c in &ordered {
            *self
                .report
                .latencies
                .entry(c.req)
                .or_default()
                .entry(c.latency().get())
                .or_insert(0) += 1;
        }
        true
    }

    fn fail(&mut self, detail: String) {
        if self.report.error.is_none() {
            self.report.error = Some(ExploreError {
                detail,
                schedule: self.trace.clone(),
            });
        }
    }
}

/// Static independence judgment for the sleep-set reduction.
///
/// Two deliverable events commute only when dispatching them in either
/// order provably yields the same machine state:
///
/// * different blocks — else they race on the same line;
/// * not both DRAM-touching — the controller's banks serialize FCFS,
///   and any two LLC-side dispatches (ToLlc/MemDone, which are exactly
///   the DRAM-touching kinds) may also emit responses onto the same
///   LLC→L1 FIFO link, whose send order is part of the state;
/// * different cores — same-core events share the L1 array, the MSHRs,
///   and every outgoing link of that core;
/// * **equal delivery times** — the explorer's clock semantics clamp
///   skipped events forward when a later event is chosen first, so
///   events at different effective times do not commute even when
///   their state footprints are disjoint. This also keeps sleep-set
///   entries fresh: an entry only survives past dispatches at its own
///   timestamp, so its recorded delivery time can never go stale.
fn independent(a: &Choice, b: &Choice) -> bool {
    a.block != b.block
        && !(a.touches_dram && b.touches_dram)
        && !matches!((a.core, b.core), (Some(x), Some(y)) if x == y)
        && a.at == b.at
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::AccessOp;
    use swiftdir_cache::CacheGeometry;
    use swiftdir_coherence::ProtocolKind;

    fn tiny(protocol: ProtocolKind, cores: usize) -> HierarchyConfig {
        let mut cfg = HierarchyConfig::table_v(cores, protocol);
        cfg.l1_geometry = CacheGeometry::new(256, 1, 64);
        cfg.llc_bank_geometry = CacheGeometry::new(256, 2, 64);
        cfg.l1_mshrs = 4;
        cfg
    }

    fn contended() -> Vec<AccessOp> {
        vec![
            AccessOp::store(0, 0, 0x0),
            AccessOp::load(2, 1, 0x0),
            AccessOp::store(4, 1, 0x40),
            AccessOp::load(6, 0, 0x40),
        ]
    }

    #[test]
    fn single_schedule_without_contention() {
        // One op, one core: the tree is a path.
        let cfg = tiny(ProtocolKind::Mesi, 1);
        let stream = vec![AccessOp::load(0, 0, 0x0)];
        let report = explore(&cfg, &stream, &ExploreConfig::default());
        assert!(report.exhaustive_and_clean(), "{:?}", report.error);
        assert_eq!(report.schedules, 1);
        assert_eq!(report.outcomes.len(), 1);
    }

    #[test]
    fn contended_stream_explores_many_schedules_all_clean() {
        for protocol in ProtocolKind::ALL {
            let cfg = tiny(protocol, 2);
            let report = explore(&cfg, &contended(), &ExploreConfig::default());
            assert!(
                report.exhaustive_and_clean(),
                "{protocol:?}: {:?}",
                report.error
            );
            assert!(report.schedules > 1, "{protocol:?} found no interleavings");
            // Stores and loads race, but serialized values must always
            // come from the golden set — a handful of outcomes at most.
            assert!(report.outcomes.len() <= 4, "{protocol:?}");
        }
    }

    #[test]
    fn undo_restored_and_replayed_task_roots_agree_at_every_split_depth() {
        // The walker oracle: at one thread the spine reaches every task
        // root by rewinding its undo log, at two each worker replays the
        // root's path on a fresh hierarchy. The reports must be equal —
        // schedules, steps, prunes, outcomes, timings, coverage,
        // latencies, everything — wherever the split puts the roots.
        for protocol in ProtocolKind::ALL {
            let cfg = tiny(protocol, 2);
            let deepest = explore(&cfg, &contended(), &ExploreConfig::default()).deepest;
            let mut tasks = 0;
            for d in 1..=deepest {
                let ecfg = ExploreConfig {
                    split_depth: Some(d),
                    ..ExploreConfig::default()
                };
                let undo = explore_parallel_profiled(&cfg, &contended(), &ecfg, 1).0;
                let replay = explore_parallel_profiled(&cfg, &contended(), &ecfg, 2).0;
                assert!(
                    undo.exhaustive_and_clean(),
                    "{protocol:?} split {d}: {:?}",
                    undo.error
                );
                assert_eq!(undo, replay, "{protocol:?} split {d}: walks diverged");
                tasks += undo.tasks;
            }
            assert!(tasks > 0, "{protocol:?}: no split emitted a task");
        }
    }

    /// Undo-walks the first two choices of every node under `h` (at most
    /// `budget` steps), checking that each node `path` reaches replays
    /// from the root to the same digest, stats and completions.
    fn replay_matches_walk(
        cfg: &HierarchyConfig,
        h: &mut Hierarchy,
        path: &mut Vec<u64>,
        budget: &mut usize,
    ) {
        let replayed = replay_schedule(cfg, &contended(), path).expect("a walked path replays");
        assert_eq!(replayed.state_digest(), h.state_digest(), "{path:?}");
        assert_eq!(replayed.stats(), h.stats(), "{path:?}");
        assert_eq!(replayed.completions_len(), h.completions_len(), "{path:?}");
        for choice in h.frontier_choices(Cycle(48)).into_iter().take(2) {
            if *budget == 0 {
                return;
            }
            *budget -= 1;
            let mark = h.undo_mark();
            h.try_step_choice(choice.seq)
                .expect("protocol error")
                .expect("frontier choice is deliverable");
            path.push(choice.seq);
            replay_matches_walk(cfg, h, path, budget);
            path.pop();
            h.undo_to(mark);
        }
    }

    #[test]
    fn replayed_nodes_match_the_undo_walker() {
        for protocol in ProtocolKind::ALL {
            let cfg = tiny(protocol, 2);
            let mut h = Hierarchy::new(cfg);
            issue_stream(&mut h, &contended());
            h.enable_undo();
            let mut budget = 400;
            replay_matches_walk(&cfg, &mut h, &mut Vec::new(), &mut budget);
            assert_eq!(budget, 0, "{protocol:?}: the walk ended early");
        }
    }

    #[test]
    fn replaying_a_seq_off_the_frontier_is_an_error() {
        let cfg = tiny(ProtocolKind::SwiftDir, 2);
        let root = replay_schedule(&cfg, &contended(), &[]).expect("the root replays");
        let heads: Vec<u64> = root
            .frontier_choices(Cycle::MAX)
            .iter()
            .map(|c| c.seq)
            .collect();
        // Each core's first access heads its link; the next one issued
        // is pending behind it.
        let behind = heads.iter().max().expect("accesses are pending") + 1;
        assert!(!heads.contains(&behind));
        for (schedule, step, seq) in [
            (vec![behind], 0, behind),
            (vec![heads[0], u64::MAX], 1, u64::MAX),
        ] {
            match replay_schedule(&cfg, &contended(), &schedule) {
                Err(ReplayError::NotOnFrontier { step: s, seq: q }) => {
                    assert_eq!((s, q), (step, seq), "{schedule:?}")
                }
                other => panic!("{schedule:?}: expected NotOnFrontier, got {other:?}"),
            }
        }
    }

    #[test]
    fn replaying_past_quiescence_is_an_error() {
        let cfg = tiny(ProtocolKind::Mesi, 2);
        let mut h = replay_schedule(&cfg, &contended(), &[]).expect("the root replays");
        let mut path = Vec::new();
        while let Some(c) = h.frontier_choices(Cycle(48)).first().copied() {
            h.try_step_choice(c.seq)
                .expect("protocol error")
                .expect("frontier choice is deliverable");
            path.push(c.seq);
        }
        assert!(h.is_idle());
        let end = replay_schedule(&cfg, &contended(), &path).expect("the full run replays");
        assert_eq!(end.completions_len(), contended().len());
        path.push(path[0]);
        match replay_schedule(&cfg, &contended(), &path) {
            Err(ReplayError::Quiesced { step }) => assert_eq!(step, path.len() - 1),
            other => panic!("expected Quiesced, got {other:?}"),
        }
    }

    #[test]
    fn pruning_fires_on_contended_streams() {
        let cfg = tiny(ProtocolKind::SwiftDir, 2);
        let report = explore(&cfg, &contended(), &ExploreConfig::default());
        assert!(report.pruned > 0, "state-hash pruning never fired");
    }

    #[test]
    fn sleep_set_reduction_preserves_outcomes() {
        // The reduction may only cut *redundant* schedules: outcome and
        // timing sets must match the unreduced walk exactly.
        for protocol in [ProtocolKind::SwiftDir, ProtocolKind::SMesi] {
            let cfg = tiny(protocol, 2);
            let with = explore(&cfg, &contended(), &ExploreConfig::default());
            let without = explore(
                &cfg,
                &contended(),
                &ExploreConfig {
                    sleep_sets: false,
                    ..ExploreConfig::default()
                },
            );
            assert!(with.exhaustive_and_clean() && without.exhaustive_and_clean());
            assert_eq!(with.outcomes, without.outcomes, "{protocol:?}");
            assert_eq!(with.timings, without.timings, "{protocol:?}");
            assert!(
                with.sleep_skipped > 0,
                "{protocol:?}: reduction never fired"
            );
        }
    }

    #[test]
    fn wider_window_explores_at_least_as_much() {
        let cfg = tiny(ProtocolKind::Mesi, 2);
        let narrow = explore(
            &cfg,
            &contended(),
            &ExploreConfig {
                window: 0,
                ..ExploreConfig::default()
            },
        );
        let wide = explore(&cfg, &contended(), &ExploreConfig::default());
        assert!(narrow.exhaustive_and_clean() && wide.exhaustive_and_clean());
        assert!(wide.timings.len() >= narrow.timings.len());
    }

    #[test]
    fn parallel_exploration_is_thread_count_invariant() {
        // The decomposed walk must produce a bit-identical report for
        // every worker count — the thread schedule only decides which
        // task runs where, never what any task computes.
        for protocol in [ProtocolKind::SwiftDir, ProtocolKind::Mesi] {
            let cfg = tiny(protocol, 2);
            let ecfg = ExploreConfig::default();
            let one = explore_parallel_profiled(&cfg, &contended(), &ecfg, 1).0;
            let four = explore_parallel_profiled(&cfg, &contended(), &ecfg, 4).0;
            assert_eq!(one, four, "{protocol:?}");
            assert!(one.exhaustive_and_clean(), "{protocol:?}: {:?}", one.error);
        }
    }

    #[test]
    fn parallel_exploration_preserves_serial_outcomes() {
        // `explore` *is* the one-thread decomposed walk, so the parallel
        // report must equal it bit for bit — the historical timing-set
        // superset divergence is gone by construction.
        for protocol in ProtocolKind::ALL {
            let cfg = tiny(protocol, 2);
            let ecfg = ExploreConfig::default();
            let serial = explore(&cfg, &contended(), &ecfg);
            let parallel = explore_parallel_profiled(&cfg, &contended(), &ecfg, 4).0;
            assert!(serial.exhaustive_and_clean(), "{protocol:?}");
            assert_eq!(serial, parallel, "{protocol:?}");
        }
    }

    #[test]
    fn pure_serial_walk_matches_decomposed_outcomes() {
        // `split_depth: MAX` is the old single-table serial semantics:
        // it prunes across would-be task boundaries, so it may fold
        // timing variants the decomposed walk keeps — but architectural
        // outcomes must match exactly and its timings must be a subset.
        for protocol in [ProtocolKind::SwiftDir, ProtocolKind::Mesi] {
            let cfg = tiny(protocol, 2);
            let pure = explore(
                &cfg,
                &contended(),
                &ExploreConfig {
                    split_depth: Some(usize::MAX),
                    ..ExploreConfig::default()
                },
            );
            let decomposed = explore(&cfg, &contended(), &ExploreConfig::default());
            assert!(pure.exhaustive_and_clean() && decomposed.exhaustive_and_clean());
            assert_eq!(pure.outcomes, decomposed.outcomes, "{protocol:?}");
            assert!(
                pure.timings.iter().all(|t| decomposed.timings.contains(t)),
                "{protocol:?}: single-table walk found a timing the decomposed walk lost"
            );
        }
    }

    #[test]
    fn depth_profile_counts_nodes_and_backtracks() {
        let cfg = tiny(ProtocolKind::SwiftDir, 2);
        let (report, profile) =
            explore_parallel_profiled(&cfg, &contended(), &ExploreConfig::default(), 1);
        assert!(report.exhaustive_and_clean());
        assert_eq!(profile.depths[0].nodes, 1, "exactly one root");
        let nodes: u64 = profile.depths.iter().map(|d| d.nodes).sum();
        let backtracks: u64 = profile.depths.iter().map(|d| d.backtracks).sum();
        assert_eq!(
            backtracks, report.steps,
            "every dispatched step is eventually rewound"
        );
        assert!(nodes > report.steps, "prunes and leaves add extra nodes");
        assert!(
            profile.depths.iter().map(|d| d.undo_bytes).sum::<u64>() > 0,
            "undo frames never reported their cost"
        );
        // The JSON form has one object per depth, root first.
        let json = profile.to_json();
        let depths = json.as_array().expect("one object per depth");
        assert_eq!(depths.len(), profile.depths.len());
        assert_eq!(depths[0].get("depth").and_then(Json::as_u64), Some(0));
        assert_eq!(depths[0].get("nodes").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn adaptive_split_depth_tracks_branching() {
        // Degenerate roots keep the historical fixed depth.
        assert_eq!(adaptive_split_depth(0), 2);
        assert_eq!(adaptive_split_depth(1), 2);
        // Narrow frontiers split deep (b^d >= 64, clamped to 6) …
        assert_eq!(adaptive_split_depth(2), 6);
        assert_eq!(adaptive_split_depth(3), 4);
        assert_eq!(adaptive_split_depth(4), 3);
        assert_eq!(adaptive_split_depth(8), 2);
        // … and wide frontiers split at the first level.
        assert_eq!(adaptive_split_depth(64), 1);
        assert_eq!(adaptive_split_depth(10_000), 1);
    }

    #[test]
    fn adaptive_split_preserves_fixed_depth_outcomes() {
        // The default (adaptive) decomposition explores the same
        // behaviors as the historical fixed depth-2 boundary.
        for protocol in [ProtocolKind::SwiftDir, ProtocolKind::Mesi] {
            let cfg = tiny(protocol, 2);
            let adaptive = explore(&cfg, &contended(), &ExploreConfig::default());
            let fixed = explore(
                &cfg,
                &contended(),
                &ExploreConfig {
                    split_depth: Some(2),
                    ..ExploreConfig::default()
                },
            );
            assert!(adaptive.exhaustive_and_clean(), "{protocol:?}");
            assert_eq!(adaptive.outcomes, fixed.outcomes, "{protocol:?}");
        }
    }

    #[test]
    fn task_cap_hits_are_counted_and_thread_invariant() {
        // Starve the task budget: emission past the cap must be counted
        // (no silent serialization), stay bit-identical across thread
        // counts, and still explore the same architectural outcomes.
        let cfg = tiny(ProtocolKind::SwiftDir, 2);
        let ecfg = ExploreConfig {
            split_depth: Some(2),
            max_tasks: 1,
            ..ExploreConfig::default()
        };
        let one = explore_parallel_profiled(&cfg, &contended(), &ecfg, 1).0;
        let four = explore_parallel_profiled(&cfg, &contended(), &ecfg, 4).0;
        assert_eq!(one, four, "capped walk diverged across thread counts");
        assert_eq!(one.tasks, 1);
        assert!(one.task_cap_hits > 0, "cap never hit — widen the stream");
        let free = explore(&cfg, &contended(), &ExploreConfig::default());
        assert_eq!(one.outcomes, free.outcomes);
        assert_eq!(free.task_cap_hits, 0, "default cap should not truncate");
        assert!(free.tasks > 1, "decomposition emitted no parallel tasks");
    }

    #[test]
    fn budget_truncation_is_reported() {
        let cfg = tiny(ProtocolKind::SwiftDir, 2);
        let report = explore(
            &cfg,
            &contended(),
            &ExploreConfig {
                max_schedules: 1,
                ..ExploreConfig::default()
            },
        );
        assert!(report.truncated);
        assert!(!report.exhaustive_and_clean());
    }
}
