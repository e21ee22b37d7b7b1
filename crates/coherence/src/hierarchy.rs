//! The two-level coherent cache hierarchy: per-core L1 controllers, a
//! shared LLC with integrated directory, and DRAM behind it.
//!
//! The state machine follows gem5's `MESI_Two_Level` shape, simplified to
//! a blocking directory: a line with a transaction in flight stalls new
//! requests (they queue and replay on unblock). Sharer tracking is
//! *conservative* — a core may stay listed after silently dropping a clean
//! line, and an `Inv` to a non-holder is simply acknowledged — which keeps
//! every race benign while preserving the single-writer invariant.

use std::collections::VecDeque;
use std::fmt;

use sim_engine::tracer::{TraceEvent, TraceKind, Tracer, Unit};
use sim_engine::{
    Cycle, EventQueue, FxHashMap, HistogramMark, LinkJitter, MeshEndpoint, MeshTopology, PopOrigin,
    QueueMark,
};
use swiftdir_cache::{CacheArray, CacheGeometry};
use swiftdir_mem::{MemUndo, MemoryController};
use swiftdir_mmu::PhysAddr;

use crate::config::HierarchyConfig;
use crate::metrics::{ProtocolMetrics, RequestClass};
use crate::msg::{CoherenceEvent, EventCounts, Msg};
use crate::protocol::{InitialGrant, ProtocolKind};
use crate::slab::{BlockMap, MshrTable};
use crate::state::{L1State, LlcState};

/// Identifier of one core-issued memory request.
pub type RequestId = u64;

/// Load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data load.
    Load,
    /// Data store.
    Store,
}

/// A memory request as issued by a core (after address translation: the
/// physical address and the PTE's write-protection bit travel together,
/// which is SwiftDir's transport for the WP signal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreRequest {
    /// Physical address (any byte within the target block).
    pub addr: PhysAddr,
    /// Load or store.
    pub kind: AccessKind,
    /// The MMU-provided write-protection bit.
    pub write_protected: bool,
}

impl CoreRequest {
    /// A load request.
    pub fn load(addr: PhysAddr) -> Self {
        CoreRequest {
            addr,
            kind: AccessKind::Load,
            write_protected: false,
        }
    }

    /// A store request.
    pub fn store(addr: PhysAddr) -> Self {
        CoreRequest {
            addr,
            kind: AccessKind::Store,
            write_protected: false,
        }
    }

    /// Marks the request as targeting write-protected data.
    #[must_use]
    pub fn write_protected(mut self) -> Self {
        self.write_protected = true;
        self
    }
}

/// Which component ultimately supplied the data / permission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServedFrom {
    /// Local L1 hit.
    L1,
    /// Served directly from the LLC.
    Llc,
    /// LLC missed; DRAM supplied the block.
    Memory,
    /// A remote L1 (owner) supplied the block.
    RemoteL1,
}

impl ServedFrom {
    /// Stable display name (tracer/report label).
    pub fn name(self) -> &'static str {
        match self {
            ServedFrom::L1 => "L1",
            ServedFrom::Llc => "LLC",
            ServedFrom::Memory => "Memory",
            ServedFrom::RemoteL1 => "RemoteL1",
        }
    }
}

/// Classification of a completed access, sufficient to reproduce the
/// paper's latency taxonomy (e.g. Figure 6's `Load(L1I&L2S)` and
/// `Load_WP(L1I&L2S)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessClass {
    /// Load or store.
    pub kind: AccessKind,
    /// L1 state when the request arrived (stable).
    pub l1_before: L1State,
    /// LLC directory state when the request reached it (`None` for L1 hits).
    pub llc_before: Option<LlcState>,
    /// The request's write-protection bit.
    pub write_protected: bool,
}

/// A finished memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The request's id (as returned by [`Hierarchy::issue`]).
    pub req: RequestId,
    /// The issuing core.
    pub core: usize,
    /// The block the access targeted (block-aligned).
    pub block: PhysAddr,
    /// When the request entered the L1.
    pub issued_at: Cycle,
    /// When the data/permission reached the core.
    pub done_at: Cycle,
    /// Access classification.
    pub class: AccessClass,
    /// Who supplied the data.
    pub served_from: ServedFrom,
    /// The value the access observed (loads) or wrote (stores), in the
    /// modelled one-word-per-block data image. Stores write a value
    /// derived from their request id; loads report the block's current
    /// contents, which the invariant checker audits against a golden
    /// memory model.
    pub value: u64,
}

impl Completion {
    /// End-to-end latency in cycles.
    pub fn latency(&self) -> Cycle {
        self.done_at.saturating_since(self.issued_at)
    }
}

/// Aggregate statistics of a hierarchy run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Message counts by Table III event class.
    pub events: EventCounts,
    /// L1 load/store hits.
    pub l1_hits: u64,
    /// L1 misses (primary, excluding MSHR merges).
    pub l1_misses: u64,
    /// Requests that found their block's MSHR already allocated.
    pub mshr_merges: u64,
    /// LLC recalls (inclusion-victim invalidations).
    pub recalls: u64,
    /// Silent E→M upgrades performed in L1s.
    pub silent_upgrades: u64,
    /// Simulated events dispatched (the denominator of event throughput
    /// in driver reports). A poll group is one queue event but counts
    /// each member, so this is the count of one event per request retry.
    pub dispatched: u64,
    /// Retries scheduled for requests stalled on a full MSHR file, one per
    /// stall. Each is dispatched once it delivers (as a poll group member
    /// or, under a chooser, a plain request), so at quiescence this is the
    /// share of `dispatched` spent re-polling.
    pub mshr_polls: u64,
    /// Poll groups delivered from the event queue, each carrying one or
    /// more of the `mshr_polls` retries (see `Hierarchy::l1_poll`): the
    /// queue operations the retries cost.
    pub poll_events: u64,
    /// Transition-count matrices and per-class latency histograms.
    pub protocol: ProtocolMetrics,
}

impl HierarchyStats {
    /// Count of one event class.
    pub fn event(&self, e: CoherenceEvent) -> u64 {
        self.events.get(e)
    }
}

// ---------------------------------------------------------------------------
// internal structures
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingReq {
    id: RequestId,
    block: PhysAddr,
    kind: AccessKind,
    wp: bool,
    issued_at: Cycle,
    l1_before: L1State,
}

#[derive(Debug, Clone, Copy, Hash)]
pub(crate) struct L1Line {
    pub(crate) state: L1State,
    pub(crate) data: u64,
}

/// A granted line that has arrived at the L1 but not yet landed in the
/// array (every way of its set was mid-transaction). The entry is the
/// single source of truth for the grant: a racing `Inv` or forward
/// between the grant and the eventual install updates or cancels it here,
/// so the install can never resurrect a state the protocol has since
/// revoked.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingInstall {
    pub(crate) state: L1State,
    pub(crate) data: u64,
}

/// An evicted E/M line awaiting the LLC's writeback ack.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WbEntry {
    pub(crate) state: L1State,
    pub(crate) data: u64,
}

/// One L1 controller's private state.
#[derive(Debug)]
pub(crate) struct L1 {
    pub(crate) array: CacheArray<L1Line>,
    /// Blocks with an outstanding L1 transaction → queued requests
    /// (index 0 is the primary that created the transaction). Slab slots:
    /// capacity is the architectural MSHR count, and request vectors are
    /// recycled across transactions.
    pub(crate) pending: MshrTable<PendingReq>,
    /// Evicted E/M lines awaiting the LLC's writeback ack; they still
    /// answer forwarded requests from here.
    pub(crate) wb_buffer: BlockMap<WbEntry>,
    /// Granted lines waiting for an eligible way (see [`PendingInstall`]).
    pub(crate) installing: BlockMap<PendingInstall>,
    /// Blocks whose install exhausted its retry budget; woken when a way
    /// in their set becomes eligible.
    pub(crate) stalled_installs: Vec<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum LlcTxn {
    /// Waiting for DRAM data.
    Fetch {
        requester: usize,
        req: RequestId,
        for_store: bool,
        grant_shared: bool,
    },
    /// Data sent; waiting for `Unblock`.
    AwaitUnblockS { requester: usize },
    /// Exclusive data sent; waiting for `Exclusive_Unblock`.
    AwaitUnblockE { requester: usize, final_m: bool },
    /// `Fwd_GETS` sent to the owner; waiting for the owner's writeback and
    /// the requester's `Unblock`.
    FwdLoad {
        requester: usize,
        wb_done: bool,
        unblock_done: bool,
    },
    /// `Fwd_GETX` sent to the owner; waiting for the owner's ack/writeback
    /// and the requester's `Exclusive_Unblock`.
    FwdStore {
        requester: usize,
        wb_done: bool,
        unblock_done: bool,
    },
    /// Invalidating sharers before granting ownership. `pending` is a
    /// bitmask of cores whose acks are outstanding.
    Invalidating {
        requester: usize,
        req: RequestId,
        pending: u64,
        /// Send data with the grant (GETX) vs a bare ack (Upgrade).
        with_data: bool,
        llc_was: LlcState,
    },
    /// Recalling all private copies so the line can be evicted.
    Recall { pending: u64 },
}

#[derive(Debug, Clone, Hash)]
pub(crate) struct LlcLine {
    pub(crate) state: LlcState,
    pub(crate) sharers: u64,
    pub(crate) owner: Option<usize>,
    /// LLC data differs from memory (writeback needed on eviction).
    pub(crate) dirty: bool,
    pub(crate) txn: Option<LlcTxn>,
    /// Requests stalled on this line while a transaction is in flight.
    pub(crate) waiters: VecDeque<Msg>,
    /// The block's (modelled) contents as last known to the LLC.
    pub(crate) data: u64,
}

impl LlcLine {
    fn fresh() -> Self {
        LlcLine {
            state: LlcState::I,
            sharers: 0,
            owner: None,
            dirty: false,
            txn: None,
            waiters: VecDeque::new(),
            data: 0,
        }
    }

    fn has_copies(&self) -> bool {
        self.sharers != 0 || self.owner.is_some()
    }
}

/// One address-sharded LLC/directory bank: a slice of the aggregate LLC
/// array plus that slice's set stalls, DRAM channel, and golden memory
/// image. Banks share nothing: an LLC-side event touches only the bank
/// that owns its block.
#[derive(Debug)]
pub(crate) struct LlcBank {
    pub(crate) array: CacheArray<LlcLine>,
    /// Requests stalled because their LLC set had no eligible victim,
    /// keyed by bank-local set index.
    pub(crate) set_stalls: FxHashMap<u64, VecDeque<Msg>>,
    /// This bank's DRAM channel.
    pub(crate) mem: MemoryController,
    /// Golden DRAM image for this bank's blocks (absent = 0).
    pub(crate) mem_image: FxHashMap<u64, u64>,
}

#[derive(Debug, Clone)]
pub(crate) enum Event {
    /// A core request arrives at its L1.
    CoreReq { core: usize, req: PendingReq },
    /// A poll group: requests that found their core's MSHRs full, retrying
    /// together (see [`Hierarchy::l1_poll`]). `req`, of `core`, is the
    /// first member; `group` is the slot in `Hierarchy::polls` holding the
    /// rest with their cores.
    MshrPoll {
        core: usize,
        req: PendingReq,
        group: u32,
    },
    /// A message arrives at the LLC.
    ToLlc(Msg),
    /// A message arrives at core `core`'s L1 from `src` (`None` = the LLC,
    /// `Some(owner)` for L1→L1 `DataFromOwner` hops). The source names the
    /// network link the message rides, which the schedule explorer uses to
    /// keep per-link FIFO order when enumerating delivery choices.
    ToL1 {
        core: usize,
        src: Option<usize>,
        msg: Msg,
    },
    /// DRAM data for `addr` arrives back at the LLC.
    MemDone { addr: PhysAddr },
    /// Retry an L1 data insertion that found no eligible victim.
    L1InsertRetry {
        core: usize,
        block: PhysAddr,
        attempt: u32,
    },
}

/// What kind of simulator event a schedule [`Choice`] would deliver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChoiceKind {
    /// A core request arriving at its L1 (per-core program order).
    CoreReq,
    /// An L1→LLC message.
    ToLlc,
    /// A message arriving at an L1 (from the LLC or a remote owner).
    ToL1,
    /// DRAM data returning to the LLC.
    MemDone,
    /// An L1 install retry timer firing.
    InstallRetry,
}

/// One deliverable next event, as exposed to schedule exploration by
/// [`Hierarchy::frontier_choices`].
///
/// Only per-link FIFO heads are offered: a message can never overtake an
/// earlier message on the same source→destination link, which is the
/// ordering the protocol itself relies on (e.g. a `WbAck` must not pass a
/// crossing forward). Everything else — cross-link interleaving, and
/// delaying an earlier message past a later one on a different link — is a
/// legal network behavior the explorer may pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Choice {
    /// Stable identity; pass to [`Hierarchy::try_step_choice`]. Remains
    /// valid across steps until this event is delivered.
    pub seq: u64,
    /// Effective delivery time if chosen next (never before `now`).
    pub at: Cycle,
    /// The block the event concerns.
    pub block: PhysAddr,
    /// The core involved (destination L1, issuing core, ...), if any.
    pub core: Option<usize>,
    /// Event category.
    pub kind: ChoiceKind,
    /// Table III message name for `ToLlc`/`ToL1` choices.
    pub msg: Option<&'static str>,
    /// Whether dispatching this event may touch the shared DRAM timing
    /// state (used by partial-order reduction: two choices on different
    /// blocks are only independent when at most one of them can).
    pub touches_dram: bool,
}

/// Opaque position in the hierarchy's undo log, returned by
/// [`Hierarchy::undo_mark`] and consumed by [`Hierarchy::undo_to`].
/// Marks are a stack discipline: taking a mark, stepping, and undoing to
/// the mark restores the hierarchy bit-exactly; marks taken earlier remain
/// valid after an undo, marks taken later do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct UndoMark(usize);

/// Which controller's transient buffers one undo frame snapshots.
///
/// Every event dispatches into exactly one side of the hierarchy: core
/// requests, L1-bound messages, and install retries mutate one core's L1
/// transient state (MSHRs, writeback/installing buffers, stall list) and
/// never the LLC's; LLC-bound messages and DRAM completions mutate the
/// LLC's stall queues, the DRAM timing model, and the golden memory image
/// and never an L1's. (The cache *arrays* on both sides are covered
/// separately by their own mutation journals, because an LLC-side recall
/// or an L1-side drain may touch lines outside the event's own set.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameSide {
    /// Frame predates any step (pool default); restores nothing extra.
    None,
    /// The event dispatched into core `n`'s L1 controller.
    L1(usize),
    /// The event dispatched into the LLC / memory controller.
    Llc,
}

/// One statistics update made while an undo frame is open, reversed LIFO
/// on undo. A step makes a handful of updates, so journaling them is far
/// cheaper than copying the transition matrices (944 B) and event counts
/// (152 B) into every frame, let alone the latency histograms.
#[derive(Debug, Clone, Copy)]
enum StatRecord {
    Event(CoherenceEvent),
    L1(L1State, L1State),
    Llc(LlcState, LlcState),
    InstallRetry,
    InstallStall,
    Latency(RequestClass, u64, HistogramMark),
}

/// Everything needed to reverse one [`Hierarchy::try_step_choice`]: the
/// queue rewind point plus pre-dispatch copies of the small mutable state
/// the dispatched side may touch. Frames are pooled and refilled so
/// steady-state stepping performs no heap allocation.
#[derive(Debug)]
struct UndoFrame {
    qmark: QueueMark,
    popped_origin: PopOrigin,
    popped_seq: u64,
    /// The delivered event, returned to the queue on undo.
    popped: Option<Event>,
    completions_len: usize,
    next_req: RequestId,
    /// Flat copies of the scalar counters.
    l1_hits: u64,
    l1_misses: u64,
    mshr_merges: u64,
    recalls: u64,
    silent_upgrades: u64,
    dispatched: u64,
    mshr_polls: u64,
    poll_events: u64,
    /// Event counts, transition counts, install counters and latency
    /// records updated during this step.
    journal: Vec<StatRecord>,
    side: FrameSide,
    // L1-side buffers (valid when `side == L1(_)`); kept allocated across
    // frame reuse via `copy_from`/`clone_from`.
    l1_pending: MshrTable<PendingReq>,
    l1_wb: BlockMap<WbEntry>,
    l1_installing: BlockMap<PendingInstall>,
    l1_stalled: Vec<u64>,
    // LLC-side buffers (valid when `side == Llc`; they snapshot the one
    // bank the event dispatched into, recorded in `llc_bank`).
    llc_bank: usize,
    llc_set_stalls: FxHashMap<u64, VecDeque<Msg>>,
    mem_undo: MemUndo,
    mem_image: FxHashMap<u64, u64>,
    /// Per-array journal watermarks at frame creation; rollback targets.
    /// `llc_mark` watermarks `llc_bank`'s array (only that bank's lines
    /// can change under an LLC-side event).
    l1_marks: Vec<usize>,
    llc_mark: usize,
    /// Approximate heap bytes of the frame and its side copies, fixed at
    /// creation (see [`UndoFrame::bytes`] for the total).
    copy_bytes: u64,
}

impl UndoFrame {
    /// Approximate heap bytes this frame pins (depth profiling): the
    /// frame, its side copies, and the statistics journal so far.
    fn bytes(&self) -> u64 {
        self.copy_bytes + (self.journal.len() * std::mem::size_of::<StatRecord>()) as u64
    }
}

impl Default for UndoFrame {
    fn default() -> Self {
        UndoFrame {
            qmark: QueueMark::default(),
            popped_origin: PopOrigin::default(),
            popped_seq: 0,
            popped: None,
            completions_len: 0,
            next_req: 0,
            l1_hits: 0,
            l1_misses: 0,
            mshr_merges: 0,
            recalls: 0,
            silent_upgrades: 0,
            dispatched: 0,
            mshr_polls: 0,
            poll_events: 0,
            journal: Vec::new(),
            side: FrameSide::None,
            l1_pending: MshrTable::new(0),
            l1_wb: BlockMap::new(),
            l1_installing: BlockMap::new(),
            l1_stalled: Vec::new(),
            llc_bank: 0,
            llc_set_stalls: FxHashMap::default(),
            mem_undo: MemUndo::default(),
            mem_image: FxHashMap::default(),
            l1_marks: Vec::new(),
            llc_mark: 0,
            copy_bytes: 0,
        }
    }
}

/// The hierarchy's step-reversal log: one [`UndoFrame`] per dispatched
/// event since [`Hierarchy::enable_undo`]. Popped frames return to a free
/// pool so their buffers (MSHR copies, latency journals, ...) are reused.
// Frames are boxed on purpose: an `UndoFrame` embeds whole-table copies
// (MSHRs, block maps, stall state), so keeping it behind a pointer makes
// push/pop and pool recycling a pointer move instead of a bulk memcpy.
#[allow(clippy::vec_box)]
#[derive(Debug, Default)]
struct UndoLog {
    enabled: bool,
    frames: Vec<Box<UndoFrame>>,
    pool: Vec<Box<UndoFrame>>,
}

/// How many times an L1 install is re-scheduled before it escalates to a
/// blocking stall (woken by the next state change in its set).
const INSTALL_RETRY_LIMIT: u32 = 3;

/// Delay between L1 install retry attempts.
const INSTALL_RETRY_DELAY: u64 = 8;

/// Delay between a stalled core request's polls for a free MSHR.
const MSHR_POLL_DELAY: u64 = 4;

/// The poll group scheduled last, while stalled requests may still join
/// it (see [`Hierarchy::l1_poll_later`]).
#[derive(Debug, Clone, Copy)]
struct PollTail {
    /// The queue's schedule count right after the group was scheduled.
    scheduled: u64,
    at: Cycle,
    group: u32,
}

/// One pending poll group's slot: the members after the first (which
/// rides in the event) and what [`Hierarchy::poll_dormant`] needs to
/// prove that every member would stall again.
#[derive(Debug, Default)]
struct PollGroup {
    /// The members after the first, with their cores, in retry order.
    rest: Vec<(usize, PendingReq)>,
    /// The change log's epoch when the group was armed: every member
    /// stalled at or after it.
    stamp: u64,
    /// One bit per member core.
    cores: u64,
    /// A one-word Bloom filter of the members' blocks.
    blocks: u64,
    /// Some member's block is in its L1 array, so its retry refreshes
    /// the line's recency (which decides later victims): the group
    /// retries in full.
    touches_lru: bool,
}

impl PollGroup {
    fn arm(&mut self, stamp: u64, core: usize, block: u64, present: bool) {
        self.stamp = stamp;
        self.cores = 1 << core;
        self.blocks = block_bit(block);
        self.touches_lru = present;
    }

    fn add(&mut self, core: usize, block: u64, present: bool) {
        self.cores |= 1 << core;
        self.blocks |= block_bit(block);
        self.touches_lru |= present;
    }
}

/// `block`'s bit in a [`PollGroup`]'s block filter.
fn block_bit(block: u64) -> u64 {
    1 << (block.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 58)
}

/// Entries kept by [`ChangeLog`]. A poll group armed more changes ago
/// than this retries in full.
const CHANGE_LOG_LEN: usize = 64;

/// The most recent L1 changes that can decide whether a stalled request
/// stalls again: MSHR inserts and frees, installing-buffer and array
/// state changes, installs, and forced states. Fixed-size; see
/// [`Hierarchy::poll_dormant`].
#[derive(Debug)]
struct ChangeLog {
    /// `(core, block)` of change `e` at slot `e % CHANGE_LOG_LEN`.
    ring: Box<[(usize, u64); CHANGE_LOG_LEN]>,
    /// Changes recorded so far: the epoch of the next one.
    epoch: u64,
}

impl ChangeLog {
    fn new() -> Self {
        ChangeLog {
            ring: Box::new([(0, 0); CHANGE_LOG_LEN]),
            epoch: 0,
        }
    }

    #[inline]
    fn record(&mut self, core: usize, block: u64) {
        self.ring[self.epoch as usize % CHANGE_LOG_LEN] = (core, block);
        self.epoch += 1;
    }

    /// Whether no change since epoch `stamp` may concern one of
    /// `group`'s members; false once the log has wrapped past `stamp`.
    fn untouched(&self, group: &PollGroup) -> bool {
        if self.epoch - group.stamp > CHANGE_LOG_LEN as u64 {
            return false;
        }
        (group.stamp..self.epoch).all(|e| {
            let (core, block) = self.ring[e as usize % CHANGE_LOG_LEN];
            group.cores & (1 << core) == 0 || group.blocks & block_bit(block) == 0
        })
    }
}

/// The trace record of `req`, on `core`, stalling on a full MSHR file.
fn mshr_stall(at: Cycle, core: usize, req: &PendingReq) -> TraceEvent {
    TraceEvent {
        at,
        core: Some(core),
        addr: req.block.0,
        req: Some(req.id),
        kind: TraceKind::MshrStall,
    }
}

/// The value a store writes into the modelled data image: unique per
/// request and never the `0` that uninitialized memory reads as.
fn store_value(id: RequestId) -> u64 {
    id.wrapping_add(1)
}

/// A protocol state the FSM has no legal transition for.
///
/// The stress fuzzer steers the hierarchy into adversarial interleavings;
/// when a controller receives a message its state machine cannot accept,
/// the error carries the offending event plus the per-block history from
/// the tracer ring (when one is attached) so the failure is diagnosable
/// from the report alone.
#[derive(Debug, Clone)]
pub struct ProtocolError {
    /// When the illegal event was processed.
    pub at: Cycle,
    /// The block involved.
    pub addr: PhysAddr,
    /// The core involved, if the event targeted an L1.
    pub core: Option<usize>,
    /// What went wrong.
    pub detail: String,
    /// Per-block event history harvested from the tracer ring (empty when
    /// no ring is attached).
    pub history: Vec<String>,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "protocol error at cycle {}: {} (block {:#x}",
            self.at.get(),
            self.detail,
            self.addr.0
        )?;
        match self.core {
            Some(c) => write!(f, ", core {c})")?,
            None => write!(f, ")")?,
        }
        if self.history.is_empty() {
            write!(f, "\n  (attach a ring tracer for per-block history)")?;
        } else {
            write!(f, "\n  history of block {:#x}:", self.addr.0)?;
            for h in &self.history {
                write!(f, "\n    {h}")?;
            }
        }
        Ok(())
    }
}

impl std::error::Error for ProtocolError {}

pub(crate) type PResult = Result<(), Box<ProtocolError>>;

/// One canonicalized pending event in [`Hierarchy::state_digest`]:
/// `(relative time, link key, rank within link, payload hash)`.
type FrontierItem = (u64, (u8, u64, u64), u64, u64);

/// Reused buffers for [`Hierarchy::state_digest_cached`]: every sort a
/// digest needs happens in these, so a warm digest allocates nothing.
#[derive(Debug, Default)]
struct DigestScratch {
    /// Per-L1 array content digests.
    l1: Vec<u64>,
    /// Per-bank array content digests.
    banks: Vec<u64>,
    /// Pending events; the rank slot holds the sequence number until
    /// ranks are assigned.
    items: Vec<FrontierItem>,
    /// Sorted keys of one map (MSHR blocks, stalled sets).
    keys: Vec<u64>,
    /// `(block, state, data)` of one L1 side buffer.
    entries: Vec<(u64, L1State, u64)>,
    /// One bank's DRAM image.
    image: Vec<(u64, u64)>,
}

/// The coherent two-level hierarchy.
///
/// Cores [`issue`](Hierarchy::issue) timed requests; the hierarchy is
/// advanced either to a deadline with
/// [`try_tick_into`](Hierarchy::try_tick_into) (for co-simulation with
/// CPU models) or to quiescence with
/// [`run_until_idle`](Hierarchy::run_until_idle). Completed requests are
/// returned as [`Completion`]s carrying latency and classification.
#[derive(Debug)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    queue: EventQueue<Event>,
    pub(crate) l1s: Vec<L1>,
    /// Address-sharded LLC/directory banks (`cfg.banks` of them; bank
    /// `cfg.bank_of(addr)` owns block `addr`).
    pub(crate) banks: Vec<LlcBank>,
    next_req: RequestId,
    completions: Vec<Completion>,
    /// Scratch buffer for [`EventQueue::pop_batch`]; kept on the struct so
    /// its allocation is reused across ticks.
    batch: Vec<Event>,
    /// Scratch for draining a closed MSHR transaction's queued requests;
    /// reused so transaction completion never allocates.
    finish_scratch: Vec<PendingReq>,
    stats: HierarchyStats,
    /// Structured protocol tracer (disabled by default: one branch per
    /// would-be event).
    tracer: Tracer,
    /// Optional per-hop latency jitter (fuzzing only; `None` keeps the
    /// calibrated fixed latencies).
    jitter: Option<LinkJitter>,
    /// The 2D mesh placement implied by the configuration.
    mesh: MeshTopology,
    /// Step-reversal log (inactive until [`enable_undo`](Self::enable_undo)).
    undo: UndoLog,
    /// Scratch for [`state_digest_cached`](Self::state_digest_cached).
    digest: DigestScratch,
    /// One slot per pending poll group; `poll_free` lists the idle slots.
    polls: Vec<PollGroup>,
    poll_free: Vec<u32>,
    poll_tail: Option<PollTail>,
    /// Recent L1 changes, read when a poll group is delivered.
    changes: ChangeLog,
    /// Set once [`try_step_choice`](Self::try_step_choice) has run: from
    /// then on a stalled request retries as a plain `CoreReq`.
    chooser: bool,
}

impl Hierarchy {
    /// Builds an idle hierarchy from `cfg`.
    pub fn new(cfg: HierarchyConfig) -> Self {
        let l1s = (0..cfg.cores)
            .map(|_| L1 {
                array: CacheArray::new(cfg.l1_geometry, cfg.replacement),
                pending: MshrTable::new(cfg.l1_mshrs),
                wb_buffer: BlockMap::new(),
                installing: BlockMap::new(),
                stalled_installs: Vec::new(),
            })
            .collect();
        let bank_geom = cfg.bank_geometry();
        let banks = (0..cfg.banks)
            .map(|_| LlcBank {
                array: CacheArray::new(bank_geom, cfg.replacement),
                set_stalls: FxHashMap::default(),
                mem: MemoryController::new(cfg.dram),
                mem_image: FxHashMap::default(),
            })
            .collect();
        Hierarchy {
            queue: EventQueue::new(),
            l1s,
            banks,
            next_req: 0,
            completions: Vec::new(),
            batch: Vec::new(),
            finish_scratch: Vec::new(),
            stats: HierarchyStats::default(),
            tracer: Tracer::disabled(),
            jitter: None,
            undo: UndoLog::default(),
            digest: DigestScratch::default(),
            polls: Vec::new(),
            poll_free: Vec::new(),
            poll_tail: None,
            changes: ChangeLog::new(),
            chooser: false,
            mesh: MeshTopology::new(cfg.cores, cfg.banks, cfg.mesh_hop_latency),
            cfg,
        }
    }

    /// Enables randomized per-hop latency jitter of up to `max_extra`
    /// cycles, seeded by `seed`. Each source→destination link stays FIFO
    /// (see [`LinkJitter`]); cross-link interleavings vary. Intended for
    /// the stress fuzzer — jitter invalidates the calibrated Figure-6
    /// latency anchors, so benchmarks leave it off.
    pub fn set_jitter(&mut self, seed: u64, max_extra: u64) {
        self.jitter = if max_extra == 0 {
            None
        } else {
            Some(LinkJitter::new(seed, max_extra))
        };
    }

    /// Replaces the tracer (pass an enabled [`Tracer`] with sinks attached
    /// to record a run; the default is disabled).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The tracer in force.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Finalizes the tracer's sinks (flushes files, closes the Chrome
    /// array) and disables further tracing.
    ///
    /// # Errors
    ///
    /// Propagates the first sink I/O failure.
    pub fn finish_trace(&mut self) -> std::io::Result<()> {
        self.tracer.finish()
    }

    /// The configuration in force.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// The protocol in force.
    pub fn protocol(&self) -> ProtocolKind {
        self.cfg.protocol
    }

    /// Issues a request from `core` at absolute time `at`; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn issue(&mut self, at: Cycle, core: usize, req: CoreRequest) -> RequestId {
        self.issue_translated(at, 0, core, req)
    }

    /// Issues a request whose address translation takes `translation`
    /// cycles before it reaches the L1. The completion's latency is
    /// measured from `at` (translation is on the access's critical path),
    /// but the request only arrives at the L1 at `at + translation`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn issue_translated(
        &mut self,
        at: Cycle,
        translation: u64,
        core: usize,
        req: CoreRequest,
    ) -> RequestId {
        assert!(core < self.cfg.cores, "core {core} out of range");
        let id = self.next_req;
        self.next_req += 1;
        let block = PhysAddr(self.cfg.l1_geometry.block_base(req.addr.0));
        self.stats.events.bump(match req.kind {
            AccessKind::Load => CoherenceEvent::Load,
            AccessKind::Store => CoherenceEvent::Store,
        });
        let pending = PendingReq {
            id,
            block,
            kind: req.kind,
            wp: req.write_protected,
            issued_at: at,
            l1_before: L1State::I, // filled in at L1 arrival
        };
        self.tracer.emit(|| TraceEvent {
            at,
            core: Some(core),
            addr: block.0,
            req: Some(id),
            kind: TraceKind::Issue {
                class: match (req.kind, req.write_protected) {
                    (AccessKind::Load, true) => "Load_WP",
                    (AccessKind::Load, false) => "Load",
                    (AccessKind::Store, _) => "Store",
                },
            },
        });
        self.queue.schedule(
            at + Cycle(translation),
            Event::CoreReq { core, req: pending },
        );
        id
    }

    /// Current simulated time (timestamp of the last processed event).
    pub fn now(&self) -> Cycle {
        self.queue.now()
    }

    /// Whether no event is pending (the hierarchy has quiesced).
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Timestamp of the next internal event, if any.
    pub fn next_event_time(&self) -> Option<Cycle> {
        self.queue.peek_time()
    }

    /// Processes all events with timestamp ≤ `upto`, appending the
    /// window's completions to `out` (the buffer keeps its capacity
    /// across batches — the simulation main loop calls this once per
    /// distinct event time).
    ///
    /// Events are drained one timestamp at a time via
    /// [`EventQueue::pop_batch`]: one heap operation per distinct cycle
    /// instead of a peek/pop pair per event, with dispatch order identical
    /// to the one-at-a-time loop.
    ///
    /// # Errors
    ///
    /// The first illegal protocol event encountered; completions from
    /// the partial window stay queued internally.
    pub fn try_tick_into(
        &mut self,
        upto: Cycle,
        out: &mut Vec<Completion>,
    ) -> Result<(), Box<ProtocolError>> {
        let mut batch = std::mem::take(&mut self.batch);
        let mut failure = None;
        'ticks: while let Some(now) = self.queue.pop_batch(upto, &mut batch) {
            for ev in batch.drain(..) {
                if let Err(e) = self.dispatch(now, ev) {
                    failure = Some(e);
                    break 'ticks;
                }
            }
        }
        batch.clear();
        self.batch = batch;
        match failure {
            Some(e) => Err(e),
            None => {
                out.append(&mut self.completions);
                Ok(())
            }
        }
    }

    /// Processes the single next queue event, if any; returns its
    /// timestamp. This is the fuzzer's stepping primitive: invariants are
    /// checked between every two queue events, not just at tick
    /// granularity. A poll group is one queue event, so its members'
    /// retries run back to back and are checked together.
    ///
    /// # Errors
    ///
    /// The [`ProtocolError`] if the event was illegal in the current state.
    pub fn try_step(&mut self) -> Result<Option<Cycle>, Box<ProtocolError>> {
        match self.queue.pop() {
            Some((now, ev)) => {
                self.dispatch(now, ev)?;
                Ok(Some(now))
            }
            None => Ok(None),
        }
    }

    /// Drains completions produced so far (used with
    /// [`try_step`](Hierarchy::try_step), which does not return them).
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Runs until no events remain; returns all completions.
    ///
    /// # Errors
    ///
    /// The first illegal protocol event, or a synthesized error when the
    /// hierarchy fails to quiesce within its fuel budget (livelock).
    pub fn run_until_idle(&mut self) -> Result<Vec<Completion>, Box<ProtocolError>> {
        // Counts queue events: a poll group spends one unit however many
        // stalled retries it carries.
        let mut fuel: u64 = 500_000_000;
        let mut batch = std::mem::take(&mut self.batch);
        let mut failure = None;
        'ticks: while let Some(now) = self.queue.pop_batch(Cycle::MAX, &mut batch) {
            for ev in batch.drain(..) {
                match self.dispatch(now, ev) {
                    Err(e) => {
                        failure = Some(e);
                        break 'ticks;
                    }
                    Ok(()) => {
                        fuel -= 1;
                        if fuel == 0 {
                            failure = Some(self.protocol_error(
                                now,
                                PhysAddr(0),
                                None,
                                "hierarchy failed to quiesce: livelock suspected".to_string(),
                            ));
                            break 'ticks;
                        }
                    }
                }
            }
        }
        batch.clear();
        self.batch = batch;
        match failure {
            Some(e) => Err(e),
            None => Ok(std::mem::take(&mut self.completions)),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Describes any state that should not exist at quiescence — L1
    /// transactions still pending, LLC lines mid-transaction, queued
    /// waiters — for debugging lost requests. Empty string when clean.
    pub fn debug_stuck(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (c, l1) in self.l1s.iter().enumerate() {
            for (block, reqs) in l1.pending.iter() {
                let state = l1.array.peek(block).map_or(L1State::I, |l| l.state);
                let _ = writeln!(
                    out,
                    "L1[{c}] pending block {block:#x} state {state} ({} reqs)",
                    reqs.len()
                );
            }
            for (block, entry) in l1.wb_buffer.iter() {
                let _ = writeln!(out, "L1[{c}] wb_buffer {block:#x} {}", entry.state);
            }
            for (block, ins) in l1.installing.iter() {
                let _ = writeln!(out, "L1[{c}] installing {block:#x} {}", ins.state);
            }
            for &block in &l1.stalled_installs {
                let _ = writeln!(out, "L1[{c}] install stalled {block:#x}");
            }
        }
        for (b, bank) in self.banks.iter().enumerate() {
            for (addr, line) in bank.array.iter() {
                if line.txn.is_some() || !line.waiters.is_empty() {
                    let _ = writeln!(
                        out,
                        "LLC[{b}] {addr:#x} state {} txn {:?} waiters {:?} sharers {:#b} owner {:?}",
                        line.state, line.txn, line.waiters, line.sharers, line.owner
                    );
                }
            }
            for (set, stalls) in &bank.set_stalls {
                if !stalls.is_empty() {
                    let _ = writeln!(out, "LLC[{b}] set {set} stalls: {stalls:?}");
                }
            }
        }
        out
    }

    /// DRAM statistics, summed over every bank's channel.
    pub fn mem_stats(&self) -> swiftdir_mem::MemStats {
        let mut total = self.banks[0].mem.stats();
        for bank in &self.banks[1..] {
            total.merge(&bank.mem.stats());
        }
        total
    }

    /// The stable L1 state of `addr` on `core` (probe; no recency update).
    pub fn l1_state(&self, core: usize, addr: PhysAddr) -> L1State {
        let block = self.cfg.l1_geometry.block_base(addr.0);
        self.l1s[core]
            .array
            .peek(block)
            .map_or(L1State::I, |l| l.state)
    }

    /// The LLC directory state of `addr` (probe, routed to its bank).
    pub fn llc_state(&self, addr: PhysAddr) -> LlcState {
        self.llc_peek(self.cfg.l1_geometry.block_base(addr.0))
            .map_or(LlcState::I, |l| l.state)
    }

    /// The directory line holding `block`, if any (bank-routed probe).
    pub(crate) fn llc_peek(&self, block: u64) -> Option<&LlcLine> {
        self.banks[self.cfg.bank_of(block)].array.peek(block)
    }

    /// Golden-image contents of `block` (0 when never written back).
    pub(crate) fn mem_image_get(&self, block: u64) -> u64 {
        self.banks[self.cfg.bank_of(block)]
            .mem_image
            .get(&block)
            .copied()
            .unwrap_or(0)
    }

    /// The per-block event history recorded in the tracer ring, rendered
    /// for diagnostics (empty when no ring is attached).
    pub fn history_for(&self, addr: PhysAddr) -> Vec<String> {
        self.tracer
            .ring()
            .map(|ring| {
                ring.iter()
                    .filter(|(_, e)| e.addr == addr.0)
                    .map(|(_, e)| e.to_json().to_string())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Overwrites `addr`'s stable L1 state on `core` — a test-only hook
    /// for planting invariant violations the checker must catch.
    #[doc(hidden)]
    pub fn test_force_l1_state(&mut self, core: usize, addr: PhysAddr, state: L1State, data: u64) {
        let block = self.cfg.l1_geometry.block_base(addr.0);
        self.l1s[core].array.insert(block, L1Line { state, data });
        self.changes.record(core, block);
    }

    // -- schedule exploration ----------------------------------------------

    /// The network link a pending event rides, for FIFO filtering. Events
    /// on the same key must deliver in send order; events on different
    /// keys may interleave freely (matching [`LinkJitter`]'s channels).
    fn link_key(&self, ev: &Event) -> (u8, u64, u64) {
        let enc = |c: Option<usize>| c.map_or(u64::MAX, |c| c as u64);
        match ev {
            // Per-core program order into the L1.
            Event::CoreReq { core, .. } | Event::MshrPoll { core, .. } => (0, *core as u64, 0),
            // Every L1→LLC message names its sending core; distinct
            // destination banks are distinct physical links (the third
            // component stays 0 on single-bank configurations).
            Event::ToLlc(msg) => (1, enc(msg.core()), self.cfg.bank_of(msg.addr().0) as u64),
            // Distinct (source, destination) pairs are distinct links.
            Event::ToL1 { core, src, .. } => (2, enc(*src), *core as u64),
            // DRAM responses are per-block FIFO; different blocks may
            // complete in any order (bank parallelism).
            Event::MemDone { addr } => (3, addr.0, 0),
            // Retry timers are per (core, block).
            Event::L1InsertRetry { core, block, .. } => (4, *core as u64, block.0),
        }
    }

    fn describe_choice(&self, seq: u64, at: Cycle, ev: &Event) -> Choice {
        let (block, core, kind, msg, touches_dram) = match ev {
            Event::CoreReq { core, req } | Event::MshrPoll { core, req, .. } => {
                (req.block, Some(*core), ChoiceKind::CoreReq, None, false)
            }
            Event::ToLlc(m) => (
                m.addr(),
                m.core(),
                ChoiceKind::ToLlc,
                Some(m.event().name()),
                // Request/writeback handling at the LLC may issue a DRAM
                // access (fetch or writeback) on the shared controller.
                true,
            ),
            Event::ToL1 { core, msg: m, .. } => (
                m.addr(),
                Some(*core),
                ChoiceKind::ToL1,
                Some(m.event().name()),
                false,
            ),
            Event::MemDone { addr } => (*addr, None, ChoiceKind::MemDone, None, true),
            Event::L1InsertRetry { core, block, .. } => {
                (*block, Some(*core), ChoiceKind::InstallRetry, None, false)
            }
        };
        Choice {
            seq,
            at,
            block,
            core,
            kind,
            msg,
            touches_dram,
        }
    }

    /// Every event the simulator could legally deliver next, within
    /// `window` cycles of the earliest pending one.
    ///
    /// For each link (see [`Choice`]) only the earliest-sent message is
    /// offered; links whose head lies beyond the window contribute no
    /// choice. Choosing an event with a later timestamp advances the clock
    /// there, and the skipped events deliver at the (later) current time —
    /// the physical reading is that their messages spent longer on the
    /// wire. `window == 0` restricts exploration to reordering events that
    /// are tied for earliest delivery.
    pub fn frontier_choices(&self, window: Cycle) -> Vec<Choice> {
        let mut keys = Vec::new();
        let mut out = Vec::new();
        self.frontier_choices_into(window, &mut keys, &mut out);
        out
    }

    /// Buffer-reusing variant of
    /// [`frontier_choices`](Hierarchy::frontier_choices): fills `out` with
    /// the same choices, using `keys` as link-key scratch. A single pass
    /// over the pending events via [`EventQueue::for_each_pending`] — no
    /// full-frontier vector is materialized or sorted, and callers that
    /// step repeatedly (the schedule explorer) reuse both buffers'
    /// allocations across steps.
    pub fn frontier_choices_into(
        &self,
        window: Cycle,
        keys: &mut Vec<(u8, u64, u64)>,
        out: &mut Vec<Choice>,
    ) {
        keys.clear();
        out.clear();
        let mut earliest = Cycle::MAX;
        self.queue.for_each_pending(|p| {
            earliest = earliest.min(p.at);
            let key = self.link_key(p.event);
            // `keys` runs parallel to `out`; link counts are small (a few
            // per core), so a linear scan beats hashing here.
            match keys.iter().position(|k| *k == key) {
                Some(i) => {
                    if p.seq < out[i].seq {
                        out[i] = self.describe_choice(p.seq, p.at, p.event);
                    }
                }
                None => {
                    keys.push(key);
                    out.push(self.describe_choice(p.seq, p.at, p.event));
                }
            }
        });
        let horizon = earliest.saturating_add(window);
        out.retain(|c| c.at <= horizon);
        out.sort_by_key(|c| (c.at, c.seq));
    }

    /// Delivers the pending event identified by `seq` (from
    /// [`frontier_choices`](Hierarchy::frontier_choices)) and dispatches
    /// it. Returns its delivery timestamp, or `Ok(None)` if no pending
    /// event has that identity.
    ///
    /// From the first call on, requests stalled on a full MSHR file retry
    /// one by one instead of in poll groups, so each stays its own choice.
    /// Starting to choose while FIFO stepping has left poll groups pending
    /// is unsupported.
    ///
    /// # Errors
    ///
    /// The [`ProtocolError`] if the event was illegal in the current state.
    pub fn try_step_choice(&mut self, seq: u64) -> Result<Option<Cycle>, Box<ProtocolError>> {
        // The queue mark captures pre-pop scalars, so it must be taken
        // before `pop_seq`; it is free (three words), so an unmatched-seq
        // miss wastes nothing.
        let qmark = self.undo.enabled.then(|| self.queue.mark());
        debug_assert!(
            self.chooser || self.poll_free.len() == self.polls.len(),
            "choosing with poll groups pending"
        );
        self.chooser = true;
        self.poll_tail = None;
        match self.queue.pop_seq_traced(seq) {
            Some((now, origin, ev)) => {
                if let Some(qmark) = qmark {
                    self.push_undo_frame(qmark, origin, seq, &ev);
                }
                self.dispatch(now, ev)?;
                Ok(Some(now))
            }
            None => Ok(None),
        }
    }

    // -- undo log -----------------------------------------------------------

    /// Arms the step-reversal log: every subsequent
    /// [`try_step_choice`](Self::try_step_choice) records an undo frame,
    /// and [`undo_to`](Self::undo_to) rewinds dispatched steps in place —
    /// the backbone of the explorer's snapshot-free depth-first search.
    ///
    /// Also switches every cache array into journaling mode (their line
    /// mutations are rolled back per-set rather than copied wholesale).
    /// Undo only reverses *stepping*; interleaving [`issue`](Self::issue),
    /// [`try_tick_into`](Self::try_tick_into), or [`run_until_idle`](Self::run_until_idle)
    /// with marked steps is unsupported. The tracer is not rewound —
    /// exploration runs with tracing disabled.
    pub fn enable_undo(&mut self) {
        self.undo.enabled = true;
        self.undo.frames.clear();
        for l1 in &mut self.l1s {
            l1.array.enable_journal();
        }
        for bank in &mut self.banks {
            bank.array.enable_journal();
        }
    }

    /// The current undo-log position. Stepping pushes frames past it;
    /// [`undo_to`](Self::undo_to) pops back down to it.
    pub fn undo_mark(&self) -> UndoMark {
        UndoMark(self.undo.frames.len())
    }

    /// Rewinds every step taken since `mark`, newest first, restoring the
    /// hierarchy — queue, caches, transient buffers, DRAM timing, stats,
    /// completions — to its exact state when the mark was taken.
    ///
    /// # Panics
    ///
    /// Panics if `mark` lies above the current log (i.e. it was taken on a
    /// branch already undone).
    pub fn undo_to(&mut self, mark: UndoMark) {
        assert!(
            mark.0 <= self.undo.frames.len(),
            "undo_to: mark {} above log top {}",
            mark.0,
            self.undo.frames.len()
        );
        while self.undo.frames.len() > mark.0 {
            let mut frame = self.undo.frames.pop().expect("len checked");
            self.restore_frame(&mut frame);
            self.undo.pool.push(frame);
        }
    }

    /// Approximate heap bytes pinned by the most recent undo frame (0 when
    /// none) — the per-step cost the depth profiler reports.
    pub fn undo_frame_bytes(&self) -> u64 {
        self.undo.frames.last().map_or(0, |f| f.bytes())
    }

    /// Approximate heap bytes pinned by the whole undo log: every live
    /// frame plus the recycle pool (pooled frames keep their buffers,
    /// sized by their last use). Memory-accounting telemetry samples
    /// this; it is `O(frames)` and touches nothing.
    pub fn undo_log_bytes(&self) -> u64 {
        let sum = |frames: &[Box<UndoFrame>]| frames.iter().map(|f| f.bytes()).sum::<u64>();
        sum(&self.undo.frames) + sum(&self.undo.pool)
    }

    /// Approximate heap bytes of the transient-state slabs across the
    /// hierarchy: per-core MSHR tables, in-flight install and writeback
    /// maps, and install-stall lists. A passive read for occupancy
    /// telemetry (high-water tracking happens at the sampling site).
    pub fn transient_bytes(&self) -> u64 {
        self.l1s
            .iter()
            .map(|l1| {
                l1.pending.approx_bytes()
                    + l1.wb_buffer.approx_bytes()
                    + l1.installing.approx_bytes()
                    + (l1.stalled_installs.len() * std::mem::size_of::<u64>()) as u64
            })
            .sum()
    }

    /// Number of undrained completions (pair with
    /// [`completions_since`](Self::completions_since) for drain-free reads:
    /// the undo log truncates the completion list on rewind, so undo-mode
    /// traversal must never [`drain_completions`](Self::drain_completions)).
    pub fn completions_len(&self) -> usize {
        self.completions.len()
    }

    /// The completions recorded since the list was `len` long.
    pub fn completions_since(&self, len: usize) -> &[Completion] {
        &self.completions[len..]
    }

    /// Captures the pre-dispatch state of everything `ev`'s handler may
    /// mutate. `qmark` was taken before the queue pop; `origin`/`seq`/`ev`
    /// identify the popped event so the rewind can reinsert it losslessly.
    fn push_undo_frame(&mut self, qmark: QueueMark, origin: PopOrigin, seq: u64, ev: &Event) {
        let mut f = self.undo.pool.pop().unwrap_or_default();
        f.qmark = qmark;
        f.popped_origin = origin;
        f.popped_seq = seq;
        f.popped = Some(ev.clone());
        f.completions_len = self.completions.len();
        f.next_req = self.next_req;
        f.l1_hits = self.stats.l1_hits;
        f.l1_misses = self.stats.l1_misses;
        f.mshr_merges = self.stats.mshr_merges;
        f.recalls = self.stats.recalls;
        f.silent_upgrades = self.stats.silent_upgrades;
        f.dispatched = self.stats.dispatched;
        f.mshr_polls = self.stats.mshr_polls;
        f.poll_events = self.stats.poll_events;
        f.journal.clear();
        f.l1_marks.clear();
        for l1 in &self.l1s {
            f.l1_marks.push(l1.array.journal_mark());
        }
        let side_bytes;
        f.side = match ev {
            Event::CoreReq { core, .. }
            | Event::MshrPoll { core, .. }
            | Event::ToL1 { core, .. }
            | Event::L1InsertRetry { core, .. } => {
                let l1 = &self.l1s[*core];
                f.l1_pending.copy_from(&l1.pending);
                f.l1_wb.copy_from(&l1.wb_buffer);
                f.l1_installing.copy_from(&l1.installing);
                f.l1_stalled.clone_from(&l1.stalled_installs);
                side_bytes = f.l1_pending.approx_bytes()
                    + f.l1_wb.approx_bytes()
                    + f.l1_installing.approx_bytes()
                    + (f.l1_stalled.len() * std::mem::size_of::<u64>()) as u64;
                // An L1-side event never touches a bank array, so no bank
                // watermark is needed; `llc_bank`/`llc_mark` stay stale
                // and unused for this frame.
                FrameSide::L1(*core)
            }
            Event::ToLlc(_) | Event::MemDone { .. } => {
                let addr = match ev {
                    Event::ToLlc(msg) => msg.addr(),
                    Event::MemDone { addr } => *addr,
                    _ => unreachable!("matched above"),
                };
                let b = self.cfg.bank_of(addr.0);
                let bank = &mut self.banks[b];
                f.llc_bank = b;
                f.llc_mark = bank.array.journal_mark();
                f.llc_set_stalls.clone_from(&bank.set_stalls);
                bank.mem.save_into(&mut f.mem_undo);
                f.mem_image.clone_from(&bank.mem_image);
                side_bytes = f.mem_undo.approx_bytes()
                    + (bank.set_stalls.len() + bank.mem_image.len()) as u64 * 16;
                FrameSide::Llc
            }
        };
        f.copy_bytes = std::mem::size_of::<UndoFrame>() as u64 + side_bytes;
        self.undo.frames.push(f);
    }

    /// Reverses one recorded step. The array journals roll back the line
    /// mutations (on *both* sides — an L1 drain or LLC recall may touch
    /// sets beyond the event's own); everything else restores from the
    /// frame's flat copies.
    fn restore_frame(&mut self, f: &mut UndoFrame) {
        let ev = f.popped.take().expect("undo frame holds its event");
        self.queue
            .restore_mark(f.qmark, f.popped_origin, f.popped_seq, ev);
        self.completions.truncate(f.completions_len);
        self.next_req = f.next_req;
        self.stats.l1_hits = f.l1_hits;
        self.stats.l1_misses = f.l1_misses;
        self.stats.mshr_merges = f.mshr_merges;
        self.stats.recalls = f.recalls;
        self.stats.silent_upgrades = f.silent_upgrades;
        self.stats.dispatched = f.dispatched;
        self.stats.mshr_polls = f.mshr_polls;
        self.stats.poll_events = f.poll_events;
        let m = &mut self.stats.protocol;
        for r in f.journal.drain(..).rev() {
            match r {
                StatRecord::Event(e) => self.stats.events.unbump(e),
                StatRecord::L1(from, to) => m.unrecord_l1(from, to),
                StatRecord::Llc(from, to) => m.unrecord_llc(from, to),
                StatRecord::InstallRetry => m.unrecord_install_retry(),
                StatRecord::InstallStall => m.unrecord_install_stall(),
                StatRecord::Latency(class, cycles, mark) => m.unrecord_latency(class, cycles, mark),
            }
        }
        for (l1, &mark) in self.l1s.iter_mut().zip(&f.l1_marks) {
            l1.array.journal_rollback(mark);
        }
        match f.side {
            FrameSide::None => unreachable!("restored a frame that was never filled"),
            FrameSide::L1(core) => {
                let l1 = &mut self.l1s[core];
                l1.pending.copy_from(&f.l1_pending);
                l1.wb_buffer.copy_from(&f.l1_wb);
                l1.installing.copy_from(&f.l1_installing);
                l1.stalled_installs.clone_from(&f.l1_stalled);
            }
            FrameSide::Llc => {
                let bank = &mut self.banks[f.llc_bank];
                bank.array.journal_rollback(f.llc_mark);
                bank.set_stalls.clone_from(&f.llc_set_stalls);
                bank.mem.restore(&f.mem_undo);
                bank.mem_image.clone_from(&f.mem_image);
            }
        }
    }

    /// A canonical digest of the hierarchy's *behavioral* state, for
    /// pruning revisited states during schedule exploration.
    ///
    /// Two states digest identically exactly when their future evolution is
    /// the same modulo a global time shift: all pending-event and
    /// bank-ready times are hashed relative to `now`, request issue times
    /// relative to `now` (so remaining *latencies* are preserved), cache
    /// recency as per-set ranks rather than absolute ticks, and in-flight
    /// messages by per-link send order rather than raw sequence numbers.
    /// Accumulated statistics, undrained completions, and tracer state are
    /// excluded — they record the past, not the future. Jitter must be
    /// disabled (exploration owns delivery-order variation; the jitter
    /// rng's internal state is deliberately not hashed).
    pub fn state_digest(&self) -> u64 {
        let mut scratch = DigestScratch::default();
        for l1 in &self.l1s {
            scratch.l1.push(l1.array.content_digest_uncached());
        }
        for bank in &self.banks {
            scratch.banks.push(bank.array.content_digest_uncached());
        }
        self.state_digest_with(&mut scratch)
    }

    /// [`state_digest`](Self::state_digest) with the cache-array portions
    /// served from each array's incrementally maintained rolling digest:
    /// only sets mutated since the last call are rehashed, killing the
    /// per-leaf full-state scan in the schedule explorer. Bit-identical to
    /// `state_digest` (the rolling digest re-derives exactly the rescan's
    /// per-set hashes; the cache is behaviorally invisible). Every buffer
    /// is reused, so a warm call allocates nothing.
    pub fn state_digest_cached(&mut self) -> u64 {
        let mut scratch = std::mem::take(&mut self.digest);
        scratch.l1.clear();
        for l1 in &mut self.l1s {
            scratch.l1.push(l1.array.content_digest());
        }
        scratch.banks.clear();
        for bank in &mut self.banks {
            scratch.banks.push(bank.array.content_digest());
        }
        let digest = self.state_digest_with(&mut scratch);
        self.digest = scratch;
        digest
    }

    /// Digest core: everything outside the cache arrays is hashed here;
    /// the arrays' content digests (`s.l1`, `s.banks`) are mixed in as
    /// opaque words so the cached and uncached entry points share every
    /// byte of this logic. Unordered maps are hashed in key order, sorted
    /// in `s`'s buffers.
    fn state_digest_with(&self, s: &mut DigestScratch) -> u64 {
        use std::hash::{Hash, Hasher};
        debug_assert!(
            self.jitter.is_none(),
            "state_digest is only meaningful with jitter disabled"
        );
        let now = self.queue.now();
        let rel = |t: Cycle| t.get().wrapping_sub(now.get());
        let mut h = sim_engine::FxHasher::default();

        // Pending events, canonicalized: (relative time, link, rank-in-link).
        // Sorted on (link, seq), each link's events sit in send order, so
        // an event's rank is its offset in its link's run.
        s.items.clear();
        self.queue.for_each_pending(|p| {
            let key = self.link_key(p.event);
            s.items
                .push((rel(p.at), key, p.seq, self.event_digest(p.event, now)));
        });
        s.items.sort_unstable_by_key(|&(_, key, seq, _)| (key, seq));
        for link in s.items.chunk_by_mut(|a, b| a.1 == b.1) {
            for (rank, item) in link.iter_mut().enumerate() {
                item.2 = rank as u64;
            }
        }
        s.items.sort_unstable();
        s.items.hash(&mut h);

        for (l1, digest) in self.l1s.iter().zip(&s.l1) {
            0xA11C_A5E5u64.hash(&mut h);
            digest.hash(&mut h);
            s.keys.clear();
            s.keys.extend(l1.pending.iter().map(|(b, _)| b));
            s.keys.sort_unstable();
            for &block in &s.keys {
                block.hash(&mut h);
                for r in l1.pending.get(block).unwrap_or_default() {
                    (r.id, r.block.0, r.kind, r.wp, rel(r.issued_at), r.l1_before).hash(&mut h);
                }
            }
            s.entries.clear();
            s.entries
                .extend(l1.wb_buffer.iter().map(|(b, e)| (b, e.state, e.data)));
            s.entries.sort_unstable_by_key(|e| e.0);
            for e in &s.entries {
                e.hash(&mut h);
            }
            s.entries.clear();
            s.entries
                .extend(l1.installing.iter().map(|(b, e)| (b, e.state, e.data)));
            s.entries.sort_unstable_by_key(|e| e.0);
            for e in &s.entries {
                e.hash(&mut h);
            }
            // Wake order is behavioral: hash in place.
            l1.stalled_installs.hash(&mut h);
        }

        // LLC lines — directory state, transactions, and waiter queues —
        // hash through `LlcLine: Hash` inside the array content digests,
        // one section per bank (single-bank streams match the pre-sharded
        // layout byte for byte).
        for (bank, digest) in self.banks.iter().zip(&s.banks) {
            0x11C0_FFEEu64.hash(&mut h);
            digest.hash(&mut h);
            s.keys.clear();
            s.keys.extend(
                bank.set_stalls
                    .iter()
                    .filter(|(_, q)| !q.is_empty())
                    .map(|(&set, _)| set),
            );
            s.keys.sort_unstable();
            for set in &s.keys {
                set.hash(&mut h);
                for m in &bank.set_stalls[set] {
                    m.hash(&mut h);
                }
            }

            bank.mem.digest_into(now, &mut |x| x.hash(&mut h));
            s.image.clear();
            s.image.extend(bank.mem_image.iter().map(|(&b, &v)| (b, v)));
            s.image.sort_unstable();
            s.image.hash(&mut h);
        }
        self.next_req.hash(&mut h);
        h.finish()
    }

    /// Hash of one pending event's payload, times relative to `now`. A
    /// poll group hashes as the request it retries, then the rest of its
    /// members.
    fn event_digest(&self, ev: &Event, now: Cycle) -> u64 {
        use std::hash::{Hash, Hasher};
        let rel = |t: Cycle| t.get().wrapping_sub(now.get());
        let mut h = sim_engine::FxHasher::default();
        match ev {
            Event::CoreReq { core, req } | Event::MshrPoll { core, req, .. } => {
                (0u8, *core, req.id, req.block.0).hash(&mut h);
                (req.kind, req.wp, rel(req.issued_at), req.l1_before).hash(&mut h);
                if let Event::MshrPoll { group, .. } = ev {
                    for (c, r) in &self.polls[*group as usize].rest {
                        (*c, r.id, r.block.0, r.kind, r.wp).hash(&mut h);
                        (rel(r.issued_at), r.l1_before).hash(&mut h);
                    }
                }
            }
            Event::ToLlc(msg) => (1u8, msg).hash(&mut h),
            Event::ToL1 { core, src, msg } => (2u8, *core, *src, msg).hash(&mut h),
            Event::MemDone { addr } => (3u8, addr.0).hash(&mut h),
            Event::L1InsertRetry {
                core,
                block,
                attempt,
            } => (4u8, *core, block.0, *attempt).hash(&mut h),
        }
        h.finish()
    }

    /// Test-only: names the first behavioral component where `self` and
    /// `other` differ (empty string when none) — undo-debugging aid.
    #[cfg(test)]
    fn debug_divergence(&self, other: &Hierarchy) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.queue.now() != other.queue.now() {
            let _ = writeln!(
                out,
                "now: {:?} vs {:?}",
                self.queue.now(),
                other.queue.now()
            );
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        self.queue
            .for_each_pending(|p| a.push((p.at, p.seq, format!("{:?}", p.event))));
        other
            .queue
            .for_each_pending(|p| b.push((p.at, p.seq, format!("{:?}", p.event))));
        a.sort();
        b.sort();
        if a != b {
            let _ = writeln!(out, "pending: {a:#?} vs {b:#?}");
        }
        for (i, (x, y)) in self.l1s.iter().zip(&other.l1s).enumerate() {
            if x.array.content_digest_uncached() != y.array.content_digest_uncached() {
                let _ = writeln!(out, "l1[{i}].array: {:?}\n vs {:?}", x.array, y.array);
            }
            let fmt = |l: &L1| {
                format!(
                    "pending {:?} wb {:?} ins {:?} stalled {:?}",
                    l.pending.iter().collect::<Vec<_>>(),
                    l.wb_buffer.iter().collect::<Vec<_>>(),
                    l.installing.iter().collect::<Vec<_>>(),
                    l.stalled_installs
                )
            };
            if fmt(x) != fmt(y) {
                let _ = writeln!(out, "l1[{i}] transients: {} vs {}", fmt(x), fmt(y));
            }
        }
        for (i, (x, y)) in self.banks.iter().zip(&other.banks).enumerate() {
            if x.array.content_digest_uncached() != y.array.content_digest_uncached() {
                let _ = writeln!(out, "llc[{i}] array: {:?}\n vs {:?}", x.array, y.array);
            }
            if format!("{:?}", x.set_stalls) != format!("{:?}", y.set_stalls) {
                let _ = writeln!(
                    out,
                    "llc[{i}] set_stalls: {:?} vs {:?}",
                    x.set_stalls, y.set_stalls
                );
            }
            let memd = |b: &LlcBank, now: Cycle| {
                let mut v = Vec::new();
                b.mem.digest_into(now, &mut |x| v.push(x));
                v
            };
            let (ma, mb) = (memd(x, self.queue.now()), memd(y, other.queue.now()));
            if ma != mb {
                let _ = writeln!(out, "llc[{i}] mem: {ma:?} vs {mb:?}");
            }
            if x.mem_image != y.mem_image {
                let _ = writeln!(
                    out,
                    "llc[{i}] mem_image: {:?} vs {:?}",
                    x.mem_image, y.mem_image
                );
            }
        }
        if self.next_req != other.next_req {
            let _ = writeln!(out, "next_req: {} vs {}", self.next_req, other.next_req);
        }
        out
    }

    // -- dispatch plumbing -------------------------------------------------

    fn protocol_error(
        &self,
        at: Cycle,
        addr: PhysAddr,
        core: Option<usize>,
        detail: String,
    ) -> Box<ProtocolError> {
        Box::new(ProtocolError {
            at,
            addr,
            core,
            detail,
            history: self.history_for(addr),
        })
    }

    /// Per-bank array geometry (set-stall keys are bank-local indices).
    #[inline]
    fn bank_geom(&self) -> CacheGeometry {
        self.cfg.bank_geometry()
    }

    fn count(&mut self, e: CoherenceEvent) {
        self.journal(StatRecord::Event(e));
        self.stats.events.bump(e);
    }

    /// Records a statistics update in the open undo frame, if any (frames
    /// exist only while the undo log is armed).
    #[inline]
    fn journal(&mut self, r: StatRecord) {
        if !self.undo.frames.is_empty() {
            self.journal_push(r);
        }
    }

    /// The push behind [`journal`](Self::journal), kept out of line so
    /// the handlers stay as small as they are without an undo log.
    #[cold]
    #[inline(never)]
    fn journal_push(&mut self, r: StatRecord) {
        if let Some(frame) = self.undo.frames.last_mut() {
            frame.journal.push(r);
        }
    }

    fn lat(&self) -> crate::config::LatencyConfig {
        self.cfg.latency
    }

    /// Records an L1 state change in the transition matrix and the trace.
    #[inline]
    fn l1_transition(
        &mut self,
        now: Cycle,
        core: usize,
        addr: PhysAddr,
        from: L1State,
        to: L1State,
    ) {
        if from != to {
            self.journal(StatRecord::L1(from, to));
        }
        self.changes.record(core, addr.0);
        self.stats.protocol.record_l1(from, to);
        self.tracer.emit(|| TraceEvent {
            at: now,
            core: Some(core),
            addr: addr.0,
            req: None,
            kind: TraceKind::Transition {
                unit: Unit::L1,
                from: from.name(),
                to: to.name(),
            },
        });
    }

    /// Records an LLC directory state change.
    #[inline]
    fn llc_transition(&mut self, now: Cycle, addr: PhysAddr, from: LlcState, to: LlcState) {
        if from != to {
            self.journal(StatRecord::Llc(from, to));
        }
        self.stats.protocol.record_llc(from, to);
        self.tracer.emit(|| TraceEvent {
            at: now,
            core: None,
            addr: addr.0,
            req: None,
            kind: TraceKind::Transition {
                unit: Unit::Llc,
                from: from.name(),
                to: to.name(),
            },
        });
    }

    /// Delivery time over the `src → dst` mesh route: the nominal
    /// point-to-point latency, plus the route's hop latency (zero on the
    /// default crossbar configuration), plus jitter with a FIFO clamp
    /// when enabled. Jitter channels are per (src, dst) endpoint pair;
    /// [`MeshTopology::link_code`] keeps single-bank channel keys
    /// bit-compatible with the pre-sharded hierarchy.
    fn link_deliver(
        &mut self,
        now: Cycle,
        src: MeshEndpoint,
        dst: MeshEndpoint,
        delay: u64,
    ) -> Cycle {
        let base = delay + self.mesh.route_extra(src, dst);
        match &mut self.jitter {
            Some(j) => j.delay(
                (MeshTopology::link_code(src), MeshTopology::link_code(dst)),
                now,
                base,
            ),
            None => now + Cycle(base),
        }
    }

    /// Sends `msg` to its block's directory bank. The sender is the core
    /// the message names (every L1→LLC message carries one).
    fn send_to_llc(&mut self, now: Cycle, delay: u64, msg: Msg) {
        self.count(msg.event());
        self.tracer.emit(|| TraceEvent {
            at: now,
            core: msg.core(),
            addr: msg.addr().0,
            req: msg.req(),
            kind: TraceKind::MsgSend {
                msg: msg.event().name(),
                from: Unit::L1,
                to: Unit::Llc,
            },
        });
        let bank = MeshEndpoint::Bank(self.cfg.bank_of(msg.addr().0));
        let src = msg.core().map_or(bank, MeshEndpoint::Core);
        let at = self.link_deliver(now, src, bank, delay);
        self.queue.schedule(at, Event::ToLlc(msg));
    }

    /// Sends `msg` to `core`'s L1 from `src` (`None` = the block's
    /// directory bank; `Some(owner)` for L1→L1 `DataFromOwner` hops).
    fn send_to_l1(&mut self, now: Cycle, delay: u64, src: Option<usize>, core: usize, msg: Msg) {
        self.count(msg.event());
        self.tracer.emit(|| TraceEvent {
            at: now,
            core: Some(core),
            addr: msg.addr().0,
            req: msg.req(),
            kind: TraceKind::MsgSend {
                msg: msg.event().name(),
                from: if matches!(msg, Msg::DataFromOwner { .. }) {
                    Unit::L1
                } else {
                    Unit::Llc
                },
                to: Unit::L1,
            },
        });
        let from = src.map_or(
            MeshEndpoint::Bank(self.cfg.bank_of(msg.addr().0)),
            MeshEndpoint::Core,
        );
        let at = self.link_deliver(now, from, MeshEndpoint::Core(core), delay);
        self.queue.schedule(at, Event::ToL1 { core, src, msg });
    }

    fn dispatch(&mut self, now: Cycle, ev: Event) -> PResult {
        self.stats.dispatched += 1;
        match ev {
            Event::CoreReq { core, req } => self.l1_access(now, core, req),
            Event::MshrPoll { core, req, group } => self.l1_poll(now, core, req, group),
            Event::ToLlc(msg) => {
                self.tracer.emit(|| TraceEvent {
                    at: now,
                    core: msg.core(),
                    addr: msg.addr().0,
                    req: msg.req(),
                    kind: TraceKind::MsgRecv {
                        msg: msg.event().name(),
                        unit: Unit::Llc,
                    },
                });
                // Directory state changes are scattered across the handler
                // and its continuations; diffing the line's state around the
                // event captures each exactly once (victim evictions of
                // *other* addresses are recorded at their eviction sites).
                let addr = msg.addr();
                let prev = self.banks[self.cfg.bank_of(addr.0)]
                    .array
                    .peek(addr.0)
                    .map(|l| l.state);
                self.llc_handle(now, msg)?;
                if let Some(prev) = prev {
                    let new = self.banks[self.cfg.bank_of(addr.0)]
                        .array
                        .peek(addr.0)
                        .map_or(LlcState::I, |l| l.state);
                    self.llc_transition(now, addr, prev, new);
                }
                Ok(())
            }
            Event::ToL1 { core, msg, .. } => {
                self.tracer.emit(|| TraceEvent {
                    at: now,
                    core: Some(core),
                    addr: msg.addr().0,
                    req: msg.req(),
                    kind: TraceKind::MsgRecv {
                        msg: msg.event().name(),
                        unit: Unit::L1,
                    },
                });
                self.l1_handle(now, core, msg)
            }
            Event::MemDone { addr } => self.llc_mem_done(now, addr),
            Event::L1InsertRetry {
                core,
                block,
                attempt,
            } => self.l1_install_line(now, core, block, attempt),
        }
    }

    fn complete(
        &mut self,
        now: Cycle,
        core: usize,
        req: &PendingReq,
        llc_before: Option<LlcState>,
        served_from: ServedFrom,
    ) {
        // Apply the access to the modelled data image at its serialization
        // point (this event): stores write their unique value, loads read
        // the block's current contents. A grant whose install is still
        // waiting for a way lives in the installing buffer.
        let block = req.block.0;
        let value = match req.kind {
            AccessKind::Store => {
                let v = store_value(req.id);
                if let Some(ins) = self.l1s[core].installing.get_mut(block) {
                    ins.data = v;
                } else if let Some(line) = self.l1s[core].array.get_mut(block) {
                    line.data = v;
                }
                v
            }
            AccessKind::Load => self.l1s[core]
                .installing
                .get(block)
                .map(|ins| ins.data)
                .or_else(|| self.l1s[core].array.peek(block).map(|l| l.data))
                .unwrap_or(0),
        };
        let latency = now.saturating_since(req.issued_at);
        let class = RequestClass::classify(
            req.kind,
            req.l1_before,
            req.wp,
            self.cfg.protocol == ProtocolKind::SwiftDir,
            served_from,
        );
        if !self.undo.frames.is_empty() {
            let mark = self.stats.protocol.latency_mark(class);
            self.journal_push(StatRecord::Latency(class, latency.get(), mark));
        }
        self.stats.protocol.record_latency(class, latency.get());
        self.tracer.emit(|| TraceEvent {
            at: now,
            core: Some(core),
            addr: req.block.0,
            req: Some(req.id),
            kind: TraceKind::Complete {
                class: class.name(),
                served_from: served_from.name(),
                latency: latency.get(),
            },
        });
        self.completions.push(Completion {
            req: req.id,
            core,
            block: req.block,
            issued_at: req.issued_at,
            done_at: now,
            class: AccessClass {
                kind: req.kind,
                l1_before: req.l1_before,
                llc_before,
                write_protected: req.wp,
            },
            served_from,
            value,
        });
    }

    // -----------------------------------------------------------------------
    // L1 controller
    // -----------------------------------------------------------------------

    /// True (and the request rescheduled) when `core` has no free MSHR
    /// for a new transaction. Both misses and S/E→M upgrades occupy an
    /// MSHR entry; requests merging into an existing entry never stall.
    /// `present` says whether the request's block is in the L1 array.
    fn l1_mshr_full(&mut self, now: Cycle, core: usize, req: PendingReq, present: bool) -> bool {
        if !self.l1s[core].pending.is_full() {
            return false;
        }
        self.tracer.emit(|| mshr_stall(now, core, &req));
        self.stats.mshr_polls += 1;
        self.l1_poll_later(now, core, req, present);
        true
    }

    /// Schedules a stalled request's retry. Outside a chooser it joins the
    /// poll group scheduled last if nothing has been scheduled since and
    /// that group is for the same retry cycle, whichever cores its members
    /// are on: the request's own retry would have taken the next sequence
    /// number, so no event could deliver between the two. Otherwise it
    /// starts a new group, stamped with the change log's epoch. Under a
    /// chooser it retries as a plain `CoreReq`, so every stalled request
    /// stays its own frontier choice.
    fn l1_poll_later(&mut self, now: Cycle, core: usize, req: PendingReq, present: bool) {
        let at = now + Cycle(MSHR_POLL_DELAY);
        if self.chooser {
            self.queue.schedule(at, Event::CoreReq { core, req });
            return;
        }
        if let Some(t) = self.joinable_tail(at) {
            let g = &mut self.polls[t.group as usize];
            g.rest.push((core, req));
            g.add(core, req.block.0, present);
            return;
        }
        let group = self.poll_free.pop().unwrap_or_else(|| {
            self.polls.push(PollGroup::default());
            (self.polls.len() - 1) as u32
        });
        self.polls[group as usize].arm(self.changes.epoch, core, req.block.0, present);
        self.arm_poll(at, core, req, group);
    }

    /// The poll group scheduled last, if a retry due `at` may join it.
    fn joinable_tail(&self, at: Cycle) -> Option<PollTail> {
        self.poll_tail
            .filter(|t| t.scheduled == self.queue.scheduled_count() && t.at == at)
    }

    /// Schedules poll group `group`, first member `req` of `core`, for
    /// `at`, as the group later stalls may join.
    fn arm_poll(&mut self, at: Cycle, core: usize, req: PendingReq, group: u32) {
        self.queue
            .schedule(at, Event::MshrPoll { core, req, group });
        self.poll_tail = Some(PollTail {
            scheduled: self.queue.scheduled_count(),
            at,
            group,
        });
    }

    /// Delivers a poll group. A dormant group (see
    /// [`poll_dormant`](Self::poll_dormant)) re-arms whole through
    /// [`l1_repoll`](Self::l1_repoll). Otherwise the members run
    /// [`l1_access`](Self::l1_access) in retry order, each counting as one
    /// dispatched event, and those that stall again regroup (see
    /// [`l1_poll_later`](Self::l1_poll_later)). The group's slot stays
    /// taken until the members have run, so they never rejoin it; its
    /// `poll_tail` is stale by then, since a retry scheduled now is for a
    /// later cycle.
    fn l1_poll(&mut self, now: Cycle, core: usize, req: PendingReq, group: u32) -> PResult {
        self.stats.poll_events += 1;
        if self.poll_dormant(group) {
            self.l1_repoll(now, core, req, group);
            return Ok(());
        }
        let mut rest = std::mem::take(&mut self.polls[group as usize].rest);
        let mut result = self.l1_access(now, core, req);
        for &(c, m) in &rest {
            if result.is_err() {
                break;
            }
            self.stats.dispatched += 1;
            result = self.l1_access(now, c, m);
        }
        rest.clear();
        self.polls[group as usize].rest = rest;
        self.poll_free.push(group);
        result
    }

    /// Whether every member of `group` would stall again, with no effect
    /// beyond the stall's own. A member stalled in
    /// [`l1_access`](Self::l1_access) because its block had no MSHR entry,
    /// no installing entry that serves it and no array line that serves
    /// it, and its core's MSHR file was full. Every change to the first
    /// three is recorded in the change log, so if none since the group's
    /// stamp can concern a member and every member core's file is still
    /// full, each member meets the same state and stalls again. A
    /// stalling member changes nothing a later member reads but the
    /// recency of an array-resident line, so a group holding one is never
    /// dormant.
    fn poll_dormant(&self, group: u32) -> bool {
        let g = &self.polls[group as usize];
        if g.touches_lru {
            return false;
        }
        let mut cores = g.cores;
        while cores != 0 {
            if !self.l1s[cores.trailing_zeros() as usize].pending.is_full() {
                return false;
            }
            cores &= cores - 1;
        }
        self.changes.untouched(g)
    }

    /// Re-arms a dormant poll group with exactly the effects of its
    /// members stalling again in order: each counts one dispatched event
    /// and one poll and traces one `MshrStall`, and the retries join the
    /// tail group or start a new one under
    /// [`l1_poll_later`](Self::l1_poll_later)'s rule. The first member's
    /// stall decides where all go: once it joins or starts a group,
    /// nothing is scheduled before the others join it. Re-arming in
    /// place keeps the slot and refreshes its stamp.
    fn l1_repoll(&mut self, now: Cycle, core: usize, req: PendingReq, group: u32) {
        let n = self.polls[group as usize].rest.len();
        self.stats.dispatched += n as u64;
        self.stats.mshr_polls += n as u64 + 1;
        if self.tracer.is_enabled() {
            self.tracer.emit(|| mshr_stall(now, core, &req));
            for i in 0..n {
                let (c, r) = self.polls[group as usize].rest[i];
                self.tracer.emit(|| mshr_stall(now, c, &r));
            }
        }
        let at = now + Cycle(MSHR_POLL_DELAY);
        if let Some(t) = self.joinable_tail(at) {
            let mut g = std::mem::take(&mut self.polls[group as usize]);
            let into = &mut self.polls[t.group as usize];
            into.rest.push((core, req));
            into.rest.append(&mut g.rest);
            into.cores |= g.cores;
            into.blocks |= g.blocks;
            self.polls[group as usize].rest = g.rest;
            self.poll_free.push(group);
            return;
        }
        self.polls[group as usize].stamp = self.changes.epoch;
        self.arm_poll(at, core, req, group);
    }

    fn l1_access(&mut self, now: Cycle, core: usize, mut req: PendingReq) -> PResult {
        let block = req.block.0;
        let lat = self.lat();

        // Merge into an outstanding transaction on the same block.
        if let Some(waiters) = self.l1s[core].pending.get_mut(block) {
            waiters.push(req);
            self.stats.mshr_merges += 1;
            self.tracer.emit(|| TraceEvent {
                at: now,
                core: Some(core),
                addr: block,
                req: Some(req.id),
                kind: TraceKind::MshrMerge,
            });
            return Ok(());
        }

        // A granted line still waiting for a way serves accesses from the
        // installing buffer: it holds valid data in its granted state.
        if let Some(ins) = self.l1s[core].installing.get_mut(block) {
            let hit = match (req.kind, ins.state) {
                (AccessKind::Load, s) if s.load_hits() => true,
                (AccessKind::Store, L1State::M) => true,
                (AccessKind::Store, L1State::E) if self.cfg.protocol.silent_upgrade() => {
                    ins.state = L1State::M;
                    self.stats.silent_upgrades += 1;
                    self.l1_transition(now, core, req.block, L1State::E, L1State::M);
                    true
                }
                _ => false,
            };
            if hit {
                req.l1_before = self.l1s[core]
                    .installing
                    .get(block)
                    .expect("installing entry")
                    .state;
                self.stats.l1_hits += 1;
                let done = now + Cycle(lat.l1_lookup);
                self.complete(done, core, &req, None, ServedFrom::L1);
                return Ok(());
            }
            // A store against an installing S/E line falls through to the
            // miss path: with no array line there is no SM_A to park it in,
            // so it re-requests with data (GETX).
        }

        let line = self.l1s[core].array.get(block).map(|l| l.state);
        let state = line.unwrap_or(L1State::I);
        req.l1_before = if state.is_stable() { state } else { L1State::I };

        match (req.kind, state) {
            // ---- hits ----
            (AccessKind::Load, s) if s.load_hits() => {
                self.stats.l1_hits += 1;
                let done = now + Cycle(lat.l1_lookup);
                self.complete(done, core, &req, None, ServedFrom::L1);
            }
            (AccessKind::Store, L1State::M) => {
                self.stats.l1_hits += 1;
                let done = now + Cycle(lat.l1_lookup);
                self.complete(done, core, &req, None, ServedFrom::L1);
            }
            (AccessKind::Store, L1State::E) => {
                if self.cfg.protocol.silent_upgrade() {
                    // MESI / SwiftDir: silent E→M in the L1 (paper Fig. 3a /
                    // Fig. 4d). No coherence traffic at all.
                    self.stats.l1_hits += 1;
                    self.stats.silent_upgrades += 1;
                    self.l1s[core]
                        .array
                        .get_mut(block)
                        .expect("line present")
                        .state = L1State::M;
                    self.l1_transition(now, core, req.block, L1State::E, L1State::M);
                    let done = now + Cycle(lat.l1_lookup);
                    self.complete(done, core, &req, None, ServedFrom::L1);
                } else {
                    // S-MESI: explicit Upgrade/ACK round trip (paper Fig. 2,
                    // Fig. 3b). The store waits in EM_A. Upgrades occupy an
                    // MSHR just like misses do.
                    if self.l1_mshr_full(now, core, req, true) {
                        return Ok(());
                    }
                    self.l1s[core]
                        .array
                        .get_mut(block)
                        .expect("line present")
                        .state = L1State::EmA;
                    self.l1_transition(now, core, req.block, L1State::E, L1State::EmA);
                    self.l1s[core].pending.insert(block, req);
                    self.send_to_llc(
                        now,
                        lat.l1_lookup + lat.l1_to_llc,
                        Msg::Upgrade {
                            core,
                            addr: req.block,
                            req: req.id,
                        },
                    );
                }
            }
            (AccessKind::Store, L1State::S) => {
                if self.l1_mshr_full(now, core, req, true) {
                    return Ok(());
                }
                self.l1s[core]
                    .array
                    .get_mut(block)
                    .expect("line present")
                    .state = L1State::SmA;
                self.l1_transition(now, core, req.block, L1State::S, L1State::SmA);
                self.l1s[core].pending.insert(block, req);
                self.send_to_llc(
                    now,
                    lat.l1_lookup + lat.l1_to_llc,
                    Msg::Upgrade {
                        core,
                        addr: req.block,
                        req: req.id,
                    },
                );
            }
            // ---- misses ----
            (_, L1State::I) => {
                if self.l1_mshr_full(now, core, req, line.is_some()) {
                    return Ok(());
                }
                self.stats.l1_misses += 1;
                // The MSHR holds the miss transient (Table I's IS^D/IM^D);
                // the array only learns the line at install.
                let transient = match req.kind {
                    AccessKind::Load => L1State::IsD,
                    AccessKind::Store => L1State::ImD,
                };
                self.l1_transition(now, core, req.block, L1State::I, transient);
                self.l1s[core].pending.insert(block, req);
                let msg = match req.kind {
                    AccessKind::Load => {
                        if req.wp && self.cfg.protocol == ProtocolKind::SwiftDir {
                            // The WP bit rode along with the translation;
                            // SwiftDir turns the miss into GETS_WP (§IV-C1).
                            Msg::GetsWp {
                                core,
                                addr: req.block,
                                req: req.id,
                            }
                        } else {
                            Msg::Gets {
                                core,
                                addr: req.block,
                                req: req.id,
                            }
                        }
                    }
                    AccessKind::Store => Msg::Getx {
                        core,
                        addr: req.block,
                        req: req.id,
                    },
                };
                self.send_to_llc(now, lat.l1_lookup + lat.l1_to_llc, msg);
            }
            (_, other) => {
                return Err(self.protocol_error(
                    now,
                    req.block,
                    Some(core),
                    format!("L1 access reached unexpected state {other} without pending entry"),
                ));
            }
        }
        Ok(())
    }

    /// Installs a line that arrived at the L1, evicting if necessary.
    ///
    /// The granted state and data sit in the `installing` buffer until a way
    /// frees up; `attempt` counts retries when every way is mid-transaction.
    /// After [`INSTALL_RETRY_LIMIT`] failed attempts the install parks in
    /// `stalled_installs` and is re-woken when the set drains, instead of
    /// polling forever (the fixed-interval retry could livelock against a
    /// same-period writer).
    fn l1_install_line(
        &mut self,
        now: Cycle,
        core: usize,
        block: PhysAddr,
        attempt: u32,
    ) -> PResult {
        let lat = self.lat();
        let Some(ins) = self.l1s[core].installing.get(block.0).copied() else {
            // The grant was cancelled (e.g. an Inv consumed the installing
            // entry before a way freed up); nothing to do.
            return Ok(());
        };
        // A transient for this very block still in the array (e.g. IM_D after
        // a lost upgrade) is replaced in place — no way is needed.
        let have_line = self.l1s[core].array.peek(block.0).is_some();
        if !have_line && !self.l1s[core].array.set_has_free_way(block.0) {
            let victim = self.l1s[core]
                .array
                .choose_victim(block.0, |l| l.state.is_stable() && l.state != L1State::I);
            match victim {
                Some(vaddr) => {
                    let vline = self.l1s[core]
                        .array
                        .invalidate(vaddr)
                        .expect("victim exists");
                    let vaddr = PhysAddr(vaddr);
                    match vline.state {
                        L1State::S => {
                            // Fire-and-forget eviction notice.
                            self.l1_transition(now, core, vaddr, L1State::S, L1State::I);
                            self.send_to_llc(
                                now,
                                lat.l1_to_llc,
                                Msg::WbDataClean { core, addr: vaddr },
                            );
                        }
                        L1State::E => {
                            self.l1s[core].wb_buffer.insert(
                                vaddr.0,
                                WbEntry {
                                    state: L1State::EiA,
                                    data: vline.data,
                                },
                            );
                            self.l1_transition(now, core, vaddr, L1State::E, L1State::EiA);
                            self.send_to_llc(
                                now,
                                lat.l1_to_llc,
                                Msg::WbDataClean { core, addr: vaddr },
                            );
                        }
                        L1State::M => {
                            self.l1s[core].wb_buffer.insert(
                                vaddr.0,
                                WbEntry {
                                    state: L1State::MiA,
                                    data: vline.data,
                                },
                            );
                            self.l1_transition(now, core, vaddr, L1State::M, L1State::MiA);
                            self.send_to_llc(
                                now,
                                lat.l1_to_llc,
                                Msg::WbDataDirty {
                                    core,
                                    addr: vaddr,
                                    data: vline.data,
                                },
                            );
                        }
                        other => {
                            return Err(self.protocol_error(
                                now,
                                block,
                                Some(core),
                                format!("stable victim had state {other}"),
                            ));
                        }
                    }
                }
                None if attempt < INSTALL_RETRY_LIMIT => {
                    // Every way is mid-transaction; retry shortly.
                    self.journal(StatRecord::InstallRetry);
                    self.stats.protocol.record_install_retry();
                    self.queue.schedule(
                        now + Cycle(INSTALL_RETRY_DELAY),
                        Event::L1InsertRetry {
                            core,
                            block,
                            attempt: attempt + 1,
                        },
                    );
                    return Ok(());
                }
                None => {
                    // Retries exhausted: park until something in this set
                    // completes or invalidates, then re-wake.
                    self.journal(StatRecord::InstallStall);
                    self.stats.protocol.record_install_stall();
                    if !self.l1s[core].stalled_installs.contains(&block.0) {
                        self.l1s[core].stalled_installs.push(block.0);
                    }
                    return Ok(());
                }
            }
        }
        // The line leaves its miss transient (or a raced transient still in
        // the array, e.g. IM_D after a lost upgrade) for its granted state.
        let from = self.l1s[core].array.peek(block.0).map_or(
            if ins.state == L1State::M {
                L1State::ImD
            } else {
                L1State::IsD
            },
            |l| l.state,
        );
        let evicted = self.l1s[core].array.insert(
            block.0,
            L1Line {
                state: ins.state,
                data: ins.data,
            },
        );
        debug_assert!(evicted.is_none(), "free way was ensured above");
        self.l1s[core].installing.remove(block.0);
        self.l1_transition(now, core, block, from, ins.state);
        // The installed line is a stable eviction candidate: any install
        // parked on this set can now make room for itself.
        self.l1_drain_stalls(now, core, block);
        Ok(())
    }

    /// Re-wakes parked installs whose set may have gained a way after
    /// `freed_addr`'s line left `core`'s array.
    fn l1_drain_stalls(&mut self, now: Cycle, core: usize, freed_addr: PhysAddr) {
        if self.l1s[core].stalled_installs.is_empty() {
            return;
        }
        let set = self.cfg.l1_geometry.index_of(freed_addr.0);
        let mut i = 0;
        while i < self.l1s[core].stalled_installs.len() {
            let block = self.l1s[core].stalled_installs[i];
            if self.cfg.l1_geometry.index_of(block) == set {
                self.l1s[core].stalled_installs.swap_remove(i);
                self.queue.schedule(
                    now,
                    Event::L1InsertRetry {
                        core,
                        block: PhysAddr(block),
                        attempt: 1,
                    },
                );
            } else {
                i += 1;
            }
        }
    }

    /// Completes the primary request on `block` and replays merged ones.
    fn l1_finish_pending(
        &mut self,
        now: Cycle,
        core: usize,
        block: PhysAddr,
        llc_before: Option<LlcState>,
        served_from: ServedFrom,
    ) {
        // Drain into the reusable scratch: closing a transaction performs
        // no allocation (the slot's vector and the scratch are recycled).
        let mut waiters = std::mem::take(&mut self.finish_scratch);
        waiters.clear();
        if self.l1s[core].pending.take_into(block.0, &mut waiters) {
            self.changes.record(core, block.0);
            if let Some((&primary, merged)) = waiters.split_first() {
                self.complete(now, core, &primary, llc_before, served_from);
                for &merged in merged {
                    // Replay through the L1: typically an immediate hit now;
                    // a merged store behind a load grant re-issues an
                    // upgrade.
                    self.queue
                        .schedule(now, Event::CoreReq { core, req: merged });
                }
            }
        }
        self.finish_scratch = waiters;
    }

    fn l1_handle(&mut self, now: Cycle, core: usize, msg: Msg) -> PResult {
        let lat = self.lat();
        let block = msg.addr();
        match msg {
            Msg::Data {
                addr,
                llc_was,
                source,
                data,
                ..
            } => {
                // Load data without exclusivity: line becomes S (this is the
                // only grant SwiftDir allows for WP data — I→S, Fig. 4a).
                self.l1s[core].installing.insert(
                    addr.0,
                    PendingInstall {
                        state: L1State::S,
                        data,
                    },
                );
                self.changes.record(core, addr.0);
                self.l1_install_line(now, core, addr, 0)?;
                self.send_to_l1_unblock(now, core, addr, false);
                self.l1_finish_pending(now, core, addr, Some(llc_was), source);
            }
            Msg::DataExclusive {
                addr,
                for_store,
                llc_was,
                source,
                data,
                ..
            } => {
                let state = if for_store { L1State::M } else { L1State::E };
                self.l1s[core]
                    .installing
                    .insert(addr.0, PendingInstall { state, data });
                self.changes.record(core, addr.0);
                self.l1_install_line(now, core, addr, 0)?;
                self.send_to_l1_unblock(now, core, addr, true);
                self.l1_finish_pending(now, core, addr, Some(llc_was), source);
            }
            Msg::DataFromOwner {
                addr,
                for_store,
                llc_was,
                data,
                ..
            } => {
                let state = if for_store { L1State::M } else { L1State::S };
                self.l1s[core]
                    .installing
                    .insert(addr.0, PendingInstall { state, data });
                self.changes.record(core, addr.0);
                self.l1_install_line(now, core, addr, 0)?;
                self.send_to_l1_unblock(now, core, addr, for_store);
                self.l1_finish_pending(now, core, addr, Some(llc_was), ServedFrom::RemoteL1);
            }
            Msg::UpgradeAck { addr, llc_was, .. } => {
                // EM_A or SM_A → M (paper Fig. 2 steps 3a/4).
                if let Some(line) = self.l1s[core].array.get_mut(addr.0) {
                    debug_assert!(
                        matches!(line.state, L1State::EmA | L1State::SmA),
                        "UpgradeAck in state {}",
                        line.state
                    );
                    let from = line.state;
                    line.state = L1State::M;
                    self.l1_transition(now, core, addr, from, L1State::M);
                    // The line is stable (and evictable) again.
                    self.l1_drain_stalls(now, core, addr);
                } else if let Some(ins) = self.l1s[core].installing.get_mut(addr.0) {
                    // The directory acked a store against a grant still
                    // parked in the installing buffer (the owner bit was set
                    // by our Exclusive_Unblock, so the LLC rightly skips the
                    // data transfer). Upgrade the parked copy in place; the
                    // completion below stamps the store's value into it.
                    let from = ins.state;
                    ins.state = L1State::M;
                    self.l1_transition(now, core, addr, from, L1State::M);
                }
                self.l1_finish_pending(now, core, addr, Some(llc_was), ServedFrom::Llc);
            }
            Msg::FwdGets {
                requester,
                addr,
                req,
                llc_was,
            } => {
                // We are the owner: supply the data (paper Fig. 1a / 4e).
                let here = self.l1s[core].array.get(addr.0).map(|l| (l.state, l.data));
                match here {
                    Some((L1State::EmA, data)) => {
                        // Our upgrade raced a remote load and lost: hand the
                        // (clean) data over, demote to S, and let the
                        // in-flight Upgrade be re-evaluated by the LLC as an
                        // upgrade-from-S.
                        self.l1s[core].array.get_mut(addr.0).expect("line").state = L1State::SmA;
                        self.l1_transition(now, core, addr, L1State::EmA, L1State::SmA);
                        self.send_to_l1(
                            now,
                            lat.owner_lookup + lat.owner_to_requester,
                            Some(core),
                            requester,
                            Msg::DataFromOwner {
                                addr,
                                req,
                                for_store: false,
                                llc_was,
                                data,
                            },
                        );
                        self.send_to_llc(
                            now,
                            lat.owner_lookup + lat.l1_to_llc,
                            Msg::WbDataClean { core, addr },
                        );
                    }
                    Some((L1State::M, data)) => {
                        self.l1s[core].array.get_mut(addr.0).expect("line").state = L1State::S;
                        self.l1_transition(now, core, addr, L1State::M, L1State::S);
                        self.send_to_l1(
                            now,
                            lat.owner_lookup + lat.owner_to_requester,
                            Some(core),
                            requester,
                            Msg::DataFromOwner {
                                addr,
                                req,
                                for_store: false,
                                llc_was,
                                data,
                            },
                        );
                        self.send_to_llc(
                            now,
                            lat.owner_lookup + lat.l1_to_llc,
                            Msg::WbDataDirty { core, addr, data },
                        );
                    }
                    Some((L1State::E, data)) => {
                        self.l1s[core].array.get_mut(addr.0).expect("line").state = L1State::S;
                        self.l1_transition(now, core, addr, L1State::E, L1State::S);
                        self.send_to_l1(
                            now,
                            lat.owner_lookup + lat.owner_to_requester,
                            Some(core),
                            requester,
                            Msg::DataFromOwner {
                                addr,
                                req,
                                for_store: false,
                                llc_was,
                                data,
                            },
                        );
                        self.send_to_llc(
                            now,
                            lat.owner_lookup + lat.l1_to_llc,
                            Msg::WbDataClean { core, addr },
                        );
                    }
                    _ => {
                        if let Some(ins) = self.l1s[core].installing.get(addr.0).copied() {
                            // The granted line is still in the installing
                            // buffer (no way freed yet); it is the owner copy
                            // all the same. Demote it in place.
                            let was_m = ins.state == L1State::M;
                            self.l1s[core]
                                .installing
                                .get_mut(addr.0)
                                .expect("entry")
                                .state = L1State::S;
                            self.l1_transition(now, core, addr, ins.state, L1State::S);
                            self.send_to_l1(
                                now,
                                lat.owner_lookup + lat.owner_to_requester,
                                Some(core),
                                requester,
                                Msg::DataFromOwner {
                                    addr,
                                    req,
                                    for_store: false,
                                    llc_was,
                                    data: ins.data,
                                },
                            );
                            if was_m {
                                self.send_to_llc(
                                    now,
                                    lat.owner_lookup + lat.l1_to_llc,
                                    Msg::WbDataDirty {
                                        core,
                                        addr,
                                        data: ins.data,
                                    },
                                );
                            } else {
                                self.send_to_llc(
                                    now,
                                    lat.owner_lookup + lat.l1_to_llc,
                                    Msg::WbDataClean { core, addr },
                                );
                            }
                        } else if let Some(entry) = self.l1s[core].wb_buffer.get(addr.0).copied() {
                            // Owner is mid-eviction: the wb_buffer still has
                            // the data; the eviction WB doubles as the LLC's
                            // signal.
                            self.send_to_l1(
                                now,
                                lat.owner_lookup + lat.owner_to_requester,
                                Some(core),
                                requester,
                                Msg::DataFromOwner {
                                    addr,
                                    req,
                                    for_store: false,
                                    llc_was,
                                    data: entry.data,
                                },
                            );
                        } else {
                            // The blocking directory never forwards to a core
                            // with no trace of the line.
                            return Err(self.protocol_error(
                                now,
                                addr,
                                Some(core),
                                format!("Fwd_GETS reached core {core} which holds no copy"),
                            ));
                        }
                    }
                }
            }
            Msg::FwdGetx {
                requester,
                addr,
                req,
                llc_was,
            } => {
                let here = self.l1s[core].array.get(addr.0).map(|l| (l.state, l.data));
                match here {
                    Some((from @ (L1State::EmA | L1State::SmA), data)) => {
                        // Our upgrade raced a remote store and lost: give the
                        // line away and fall back to needing data — the LLC
                        // will answer our in-flight Upgrade with
                        // Data_Exclusive once the winner is done.
                        self.l1s[core].array.get_mut(addr.0).expect("line").state = L1State::ImD;
                        self.l1_transition(now, core, addr, from, L1State::ImD);
                        self.send_to_l1(
                            now,
                            lat.owner_lookup + lat.owner_to_requester,
                            Some(core),
                            requester,
                            Msg::DataFromOwner {
                                addr,
                                req,
                                for_store: true,
                                llc_was,
                                data,
                            },
                        );
                        self.send_to_llc(
                            now,
                            lat.owner_lookup + lat.l1_to_llc,
                            Msg::InvAck {
                                core,
                                addr,
                                dirty: false,
                                data: 0,
                            },
                        );
                    }
                    Some((from @ (L1State::M | L1State::E), data)) => {
                        let dirty = from == L1State::M;
                        self.l1s[core].array.invalidate(addr.0);
                        self.l1_transition(now, core, addr, from, L1State::I);
                        self.l1_drain_stalls(now, core, addr);
                        self.send_to_l1(
                            now,
                            lat.owner_lookup + lat.owner_to_requester,
                            Some(core),
                            requester,
                            Msg::DataFromOwner {
                                addr,
                                req,
                                for_store: true,
                                llc_was,
                                data,
                            },
                        );
                        self.send_to_llc(
                            now,
                            lat.owner_lookup + lat.l1_to_llc,
                            Msg::InvAck {
                                core,
                                addr,
                                dirty,
                                data: if dirty { data } else { 0 },
                            },
                        );
                    }
                    _ => {
                        if let Some(ins) = self.l1s[core].installing.remove(addr.0) {
                            // The granted line never reached the array; hand
                            // it straight to the winner and drop the grant.
                            self.l1s[core].stalled_installs.retain(|&b| b != addr.0);
                            let dirty = ins.state == L1State::M;
                            self.l1_transition(now, core, addr, ins.state, L1State::I);
                            self.send_to_l1(
                                now,
                                lat.owner_lookup + lat.owner_to_requester,
                                Some(core),
                                requester,
                                Msg::DataFromOwner {
                                    addr,
                                    req,
                                    for_store: true,
                                    llc_was,
                                    data: ins.data,
                                },
                            );
                            self.send_to_llc(
                                now,
                                lat.owner_lookup + lat.l1_to_llc,
                                Msg::InvAck {
                                    core,
                                    addr,
                                    dirty,
                                    data: if dirty { ins.data } else { 0 },
                                },
                            );
                        } else if let Some(entry) = self.l1s[core].wb_buffer.get(addr.0).copied() {
                            self.send_to_l1(
                                now,
                                lat.owner_lookup + lat.owner_to_requester,
                                Some(core),
                                requester,
                                Msg::DataFromOwner {
                                    addr,
                                    req,
                                    for_store: true,
                                    llc_was,
                                    data: entry.data,
                                },
                            );
                        } else {
                            return Err(self.protocol_error(
                                now,
                                addr,
                                Some(core),
                                format!("Fwd_GETX reached core {core} which holds no copy"),
                            ));
                        }
                    }
                }
            }
            Msg::Inv { addr } => {
                // Invalidate whatever we have; ack regardless (conservative
                // sharer lists make Inv-to-non-holder normal).
                let prev = self.l1s[core].array.peek(addr.0).map(|l| (l.state, l.data));
                match prev {
                    Some((from @ (L1State::SmA | L1State::EmA), _)) => {
                        // Upgrade race lost: our Upgrade will be treated as a
                        // GETX by the LLC; we now need data, not just an ack.
                        self.l1s[core].array.invalidate(addr.0);
                        self.l1_transition(now, core, addr, from, L1State::I);
                        self.l1_drain_stalls(now, core, addr);
                        self.send_to_llc(
                            now,
                            lat.l1_to_llc,
                            Msg::InvAck {
                                core,
                                addr,
                                dirty: false,
                                data: 0,
                            },
                        );
                    }
                    Some((from, data)) => {
                        let dirty = from == L1State::M;
                        self.l1s[core].array.invalidate(addr.0);
                        self.l1_transition(now, core, addr, from, L1State::I);
                        self.l1_drain_stalls(now, core, addr);
                        self.send_to_llc(
                            now,
                            lat.l1_to_llc,
                            Msg::InvAck {
                                core,
                                addr,
                                dirty,
                                data: if dirty { data } else { 0 },
                            },
                        );
                    }
                    None => {
                        if let Some(ins) = self.l1s[core].installing.remove(addr.0) {
                            // The invalidation raced the install: cancel the
                            // buffered grant and surrender its data.
                            self.l1s[core].stalled_installs.retain(|&b| b != addr.0);
                            let dirty = ins.state == L1State::M;
                            self.l1_transition(now, core, addr, ins.state, L1State::I);
                            self.send_to_llc(
                                now,
                                lat.l1_to_llc,
                                Msg::InvAck {
                                    core,
                                    addr,
                                    dirty,
                                    data: if dirty { ins.data } else { 0 },
                                },
                            );
                        } else if let Some(entry) = self.l1s[core].wb_buffer.remove(addr.0) {
                            // The Inv crossed our eviction: the WbData is
                            // already ahead of this ack on the L1→LLC link,
                            // so fold the eviction into the invalidation —
                            // close the handshake locally and let the LLC
                            // treat the writeback as the ack.
                            self.l1_transition(now, core, addr, entry.state, L1State::I);
                            self.send_to_llc(
                                now,
                                lat.l1_to_llc,
                                Msg::InvAck {
                                    core,
                                    addr,
                                    dirty: false,
                                    data: 0,
                                },
                            );
                        } else {
                            self.send_to_llc(
                                now,
                                lat.l1_to_llc,
                                Msg::InvAck {
                                    core,
                                    addr,
                                    dirty: false,
                                    data: 0,
                                },
                            );
                        }
                    }
                }
            }
            Msg::WbAck { addr } => {
                if let Some(entry) = self.l1s[core].wb_buffer.remove(addr.0) {
                    // The eviction handshake closes: EI_A/MI_A → I.
                    self.l1_transition(now, core, addr, entry.state, L1State::I);
                }
            }
            other => {
                return Err(self.protocol_error(
                    now,
                    block,
                    Some(core),
                    format!("L1 received unexpected message {other:?}"),
                ));
            }
        }
        Ok(())
    }

    /// Acknowledges a writeback. The delay matches every other LLC→L1
    /// message (`llc_lookup + llc_to_l1`) so that messages to one core are
    /// delivered in LLC processing order — a WbAck must never overtake a
    /// forward sent earlier, or the owner would drop its wb_buffer entry
    /// before answering the forward.
    fn send_wb_ack(&mut self, now: Cycle, core: usize, addr: PhysAddr) {
        let lat = self.lat();
        self.send_to_l1(
            now,
            lat.llc_lookup + lat.llc_to_l1,
            None,
            core,
            Msg::WbAck { addr },
        );
    }

    fn send_to_l1_unblock(&mut self, now: Cycle, core: usize, addr: PhysAddr, exclusive: bool) {
        let lat = self.lat();
        let msg = if exclusive {
            Msg::ExclusiveUnblock { core, addr }
        } else {
            Msg::Unblock { core, addr }
        };
        self.send_to_llc(now, lat.l1_to_llc, msg);
    }

    // -----------------------------------------------------------------------
    // LLC / directory controller
    // -----------------------------------------------------------------------

    fn llc_handle(&mut self, now: Cycle, msg: Msg) -> PResult {
        match msg {
            Msg::Gets { .. } | Msg::GetsWp { .. } | Msg::Getx { .. } | Msg::Upgrade { .. } => {
                self.llc_request(now, msg)
            }
            Msg::WbDataClean { core, addr } => {
                self.llc_writeback(now, core, addr, false, 0);
                Ok(())
            }
            Msg::WbDataDirty { core, addr, data } => {
                self.llc_writeback(now, core, addr, true, data);
                Ok(())
            }
            Msg::InvAck {
                core,
                addr,
                dirty,
                data,
            } => {
                self.llc_inv_ack(now, core, addr, dirty, data);
                Ok(())
            }
            Msg::Unblock { core, addr } => self.llc_unblock(now, core, addr, false),
            Msg::ExclusiveUnblock { core, addr } => self.llc_unblock(now, core, addr, true),
            other => Err(self.protocol_error(
                now,
                other.addr(),
                None,
                format!("LLC received unexpected message {other:?}"),
            )),
        }
    }

    /// Handles the four request messages; may stall them on blocked lines
    /// or full sets.
    fn llc_request(&mut self, now: Cycle, msg: Msg) -> PResult {
        let addr = msg.addr();
        let lat = self.lat();

        // Stall on a blocked line.
        if let Some(line) = self.banks[self.cfg.bank_of(addr.0)].array.get_mut(addr.0) {
            if line.txn.is_some() {
                line.waiters.push_back(msg);
                return Ok(());
            }
        }

        let (core, req, is_store, is_upgrade, wp) = match msg {
            Msg::Gets { core, addr: _, req } => (core, req, false, false, false),
            Msg::GetsWp { core, addr: _, req } => (core, req, false, false, true),
            Msg::Getx { core, addr: _, req } => (core, req, true, false, false),
            Msg::Upgrade { core, addr: _, req } => (core, req, true, true, false),
            other => {
                return Err(self.protocol_error(
                    now,
                    addr,
                    None,
                    format!("non-request message {other:?} routed to llc_request"),
                ));
            }
        };

        let present = self.banks[self.cfg.bank_of(addr.0)]
            .array
            .get(addr.0)
            .is_some();
        if !present {
            // Allocate (possibly evicting/recalling) and fetch from memory.
            if !self.llc_make_room(now, addr, msg) {
                return Ok(()); // stalled on the set; will be replayed
            }
            let grant_shared = match self.cfg.protocol.initial_load_grant(wp) {
                InitialGrant::Shared => true,
                InitialGrant::Exclusive => false,
            } && !is_store;
            let mut line = LlcLine::fresh();
            line.txn = Some(LlcTxn::Fetch {
                requester: core,
                req,
                for_store: is_store,
                grant_shared,
            });
            let inserted = self.banks[self.cfg.bank_of(addr.0)]
                .array
                .insert(addr.0, line);
            debug_assert!(inserted.is_none(), "room was made above");
            self.count(CoherenceEvent::Fetch);
            let done = self.banks[self.cfg.bank_of(addr.0)].mem.access(
                now + Cycle(lat.llc_lookup),
                addr,
                false,
            );
            self.queue.schedule(done, Event::MemDone { addr });
            return Ok(());
        }

        let line = self.banks[self.cfg.bank_of(addr.0)]
            .array
            .get_mut(addr.0)
            .expect("present");
        let llc_was = line.state;
        let data = line.data;
        match (line.state, is_store) {
            // ---------------- loads ----------------
            (LlcState::S, false) => {
                // When no core caches the block, this is an "initial load"
                // in the paper's sense: the MESI family grants exclusivity
                // (the line re-enters E), except SwiftDir for WP data and
                // MSI, which grant S. With copies outstanding the LLC
                // serves it shared directly (paper Fig. 1b / 4b).
                let exclusive = !line.has_copies()
                    && self.cfg.protocol.initial_load_grant(wp) == InitialGrant::Exclusive;
                if exclusive {
                    line.txn = Some(LlcTxn::AwaitUnblockE {
                        requester: core,
                        final_m: false,
                    });
                    self.send_to_l1(
                        now,
                        lat.llc_lookup + lat.llc_to_l1,
                        None,
                        core,
                        Msg::DataExclusive {
                            addr,
                            req,
                            for_store: false,
                            llc_was,
                            source: ServedFrom::Llc,
                            data,
                        },
                    );
                } else {
                    line.txn = Some(LlcTxn::AwaitUnblockS { requester: core });
                    self.send_to_l1(
                        now,
                        lat.llc_lookup + lat.llc_to_l1,
                        None,
                        core,
                        Msg::Data {
                            addr,
                            req,
                            llc_was,
                            source: ServedFrom::Llc,
                            data,
                        },
                    );
                }
            }
            (LlcState::E, false) if self.cfg.protocol.llc_serves_e_directly() => {
                // S-MESI: E-state LLC data are guaranteed current; serve
                // directly and degrade to S (paper §II-C).
                line.txn = Some(LlcTxn::AwaitUnblockS { requester: core });
                self.send_to_l1(
                    now,
                    lat.llc_lookup + lat.llc_to_l1,
                    None,
                    core,
                    Msg::Data {
                        addr,
                        req,
                        llc_was,
                        source: ServedFrom::Llc,
                        data,
                    },
                );
            }
            (LlcState::E, false) | (LlcState::M, false) => {
                // Forward to the owner (paper Fig. 1a).
                let Some(owner) = line.owner else {
                    return Err(self.protocol_error(
                        now,
                        addr,
                        None,
                        format!("{llc_was} line has no owner to forward a load to"),
                    ));
                };
                let line = self.banks[self.cfg.bank_of(addr.0)]
                    .array
                    .get_mut(addr.0)
                    .expect("present");
                line.txn = Some(LlcTxn::FwdLoad {
                    requester: core,
                    wb_done: false,
                    unblock_done: false,
                });
                self.send_to_l1(
                    now,
                    lat.llc_lookup + lat.fwd_to_owner,
                    None,
                    owner,
                    Msg::FwdGets {
                        requester: core,
                        addr,
                        req,
                        llc_was,
                    },
                );
            }
            // ---------------- stores ----------------
            (LlcState::S, true) => {
                let mut pending = line.sharers & !(1u64 << core);
                if let Some(o) = line.owner {
                    if o != core {
                        pending |= 1 << o;
                    }
                }
                // An Upgrade from a core that lost its copy to a racing
                // invalidation degenerates to a GETX: it needs data again.
                let needs_data = !is_upgrade || line.sharers & (1 << core) == 0;
                if pending == 0 {
                    self.llc_grant_ownership(now, addr, core, req, needs_data, llc_was);
                } else {
                    let line = self.banks[self.cfg.bank_of(addr.0)]
                        .array
                        .get_mut(addr.0)
                        .expect("present");
                    line.txn = Some(LlcTxn::Invalidating {
                        requester: core,
                        req,
                        pending,
                        with_data: needs_data,
                        llc_was,
                    });
                    for c in bits(pending) {
                        self.send_to_l1(
                            now,
                            lat.llc_lookup + lat.llc_to_l1,
                            None,
                            c,
                            Msg::Inv { addr },
                        );
                    }
                }
            }
            (LlcState::E, true) | (LlcState::M, true) => {
                let Some(owner) = line.owner else {
                    return Err(self.protocol_error(
                        now,
                        addr,
                        None,
                        format!("{llc_was} line has no owner to forward a store to"),
                    ));
                };
                let line = self.banks[self.cfg.bank_of(addr.0)]
                    .array
                    .get_mut(addr.0)
                    .expect("present");
                if owner == core {
                    // S-MESI E→M upgrade by the owner itself (paper Fig. 2):
                    // flip the directory state and ack — no invalidations.
                    line.state = LlcState::M;
                    self.send_to_l1(
                        now,
                        lat.llc_lookup + lat.llc_to_l1,
                        None,
                        core,
                        Msg::UpgradeAck { addr, req, llc_was },
                    );
                } else {
                    line.txn = Some(LlcTxn::FwdStore {
                        requester: core,
                        wb_done: false,
                        unblock_done: false,
                    });
                    self.send_to_l1(
                        now,
                        lat.llc_lookup + lat.fwd_to_owner,
                        None,
                        owner,
                        Msg::FwdGetx {
                            requester: core,
                            addr,
                            req,
                            llc_was,
                        },
                    );
                }
            }
            (LlcState::I, _) => {
                return Err(self.protocol_error(
                    now,
                    addr,
                    None,
                    "present LLC line cannot be I".to_string(),
                ));
            }
        }
        Ok(())
    }

    /// Grants M to `core`, with data (GETX) or a bare ack (Upgrade).
    fn llc_grant_ownership(
        &mut self,
        now: Cycle,
        addr: PhysAddr,
        core: usize,
        req: RequestId,
        with_data: bool,
        llc_was: LlcState,
    ) {
        let lat = self.lat();
        let line = self.banks[self.cfg.bank_of(addr.0)]
            .array
            .get_mut(addr.0)
            .expect("present");
        if with_data {
            let data = line.data;
            line.txn = Some(LlcTxn::AwaitUnblockE {
                requester: core,
                final_m: true,
            });
            self.send_to_l1(
                now,
                lat.llc_lookup + lat.llc_to_l1,
                None,
                core,
                Msg::DataExclusive {
                    addr,
                    req,
                    for_store: true,
                    llc_was,
                    source: ServedFrom::Llc,
                    data,
                },
            );
        } else {
            line.state = LlcState::M;
            line.owner = Some(core);
            line.sharers = 0;
            line.txn = None;
            self.send_to_l1(
                now,
                lat.llc_lookup + lat.llc_to_l1,
                None,
                core,
                Msg::UpgradeAck { addr, req, llc_was },
            );
            self.llc_replay_waiters(now, addr);
        }
    }

    /// Ensures a free way exists in `addr`'s LLC set, possibly starting a
    /// recall. Returns false if `msg` was stalled.
    fn llc_make_room(&mut self, now: Cycle, addr: PhysAddr, msg: Msg) -> bool {
        if self.banks[self.cfg.bank_of(addr.0)]
            .array
            .set_has_free_way(addr.0)
        {
            return true;
        }
        let lat = self.lat();
        // Prefer victims with no private copies.
        if let Some(vaddr) = self.banks[self.cfg.bank_of(addr.0)]
            .array
            .choose_victim(addr.0, |l| l.txn.is_none() && !l.has_copies())
        {
            let vline = self.banks[self.cfg.bank_of(addr.0)]
                .array
                .invalidate(vaddr)
                .expect("victim exists");
            self.llc_transition(now, PhysAddr(vaddr), vline.state, LlcState::I);
            if vline.dirty {
                // Writeback to memory, fire-and-forget.
                self.banks[self.cfg.bank_of(addr.0)]
                    .mem_image
                    .insert(vaddr, vline.data);
                self.banks[self.cfg.bank_of(addr.0)]
                    .mem
                    .access(now, PhysAddr(vaddr), true);
            }
            self.llc_replay_set_stalls(now, PhysAddr(vaddr));
            return true;
        }
        // Recall a line with copies.
        if let Some(vaddr) = self.banks[self.cfg.bank_of(addr.0)]
            .array
            .choose_victim(addr.0, |l| l.txn.is_none())
        {
            self.stats.recalls += 1;
            let vline = self.banks[self.cfg.bank_of(addr.0)]
                .array
                .get_mut(vaddr)
                .expect("victim exists");
            let mut pending = vline.sharers;
            if let Some(o) = vline.owner {
                pending |= 1 << o;
            }
            debug_assert!(pending != 0, "recall victim has copies");
            vline.txn = Some(LlcTxn::Recall { pending });
            for c in bits(pending) {
                self.send_to_l1(
                    now,
                    lat.llc_lookup + lat.llc_to_l1,
                    None,
                    c,
                    Msg::Inv {
                        addr: PhysAddr(vaddr),
                    },
                );
            }
        }
        // Stall the request on the set either way.
        let set = self.bank_geom().index_of(addr.0);
        self.banks[self.cfg.bank_of(addr.0)]
            .set_stalls
            .entry(set)
            .or_default()
            .push_back(msg);
        false
    }

    /// DRAM returned data for `addr`: respond per the pending fetch.
    fn llc_mem_done(&mut self, now: Cycle, addr: PhysAddr) -> PResult {
        self.count(CoherenceEvent::MemData);
        let lat = self.lat();
        let data = self.banks[self.cfg.bank_of(addr.0)]
            .mem_image
            .get(&addr.0)
            .copied()
            .unwrap_or(0);
        let Some(line) = self.banks[self.cfg.bank_of(addr.0)].array.get_mut(addr.0) else {
            return Err(self.protocol_error(
                now,
                addr,
                None,
                "MemDone for a line absent from the LLC".to_string(),
            ));
        };
        let Some(LlcTxn::Fetch {
            requester,
            req,
            for_store,
            grant_shared,
        }) = line.txn
        else {
            let txn = line.txn;
            return Err(self.protocol_error(
                now,
                addr,
                None,
                format!("MemDone without Fetch txn (found {txn:?})"),
            ));
        };
        line.data = data;
        if grant_shared {
            line.txn = Some(LlcTxn::AwaitUnblockS { requester });
            self.send_to_l1(
                now,
                lat.llc_to_l1,
                None,
                requester,
                Msg::Data {
                    addr,
                    req,
                    llc_was: LlcState::I,
                    source: ServedFrom::Memory,
                    data,
                },
            );
        } else {
            line.txn = Some(LlcTxn::AwaitUnblockE {
                requester,
                final_m: for_store,
            });
            self.send_to_l1(
                now,
                lat.llc_to_l1,
                None,
                requester,
                Msg::DataExclusive {
                    addr,
                    req,
                    for_store,
                    llc_was: LlcState::I,
                    source: ServedFrom::Memory,
                    data,
                },
            );
        }
        Ok(())
    }

    /// A writeback (clean or dirty) arrived from `core`.
    fn llc_writeback(&mut self, now: Cycle, core: usize, addr: PhysAddr, dirty: bool, data: u64) {
        self.tracer.emit(|| TraceEvent {
            at: now,
            core: Some(core),
            addr: addr.0,
            req: None,
            kind: TraceKind::Writeback { dirty },
        });
        let Some(line) = self.banks[self.cfg.bank_of(addr.0)].array.get_mut(addr.0) else {
            // Line already evicted from the LLC (recall completed on acks
            // while this WB crossed): just ack so the L1 can drop it.
            if dirty {
                self.banks[self.cfg.bank_of(addr.0)]
                    .mem_image
                    .insert(addr.0, data);
                self.banks[self.cfg.bank_of(addr.0)]
                    .mem
                    .access(now, addr, true);
            }
            self.send_wb_ack(now, core, addr);
            return;
        };

        let is_owner = line.owner == Some(core);
        if dirty {
            line.dirty = true;
            line.data = data;
        }

        match line.txn {
            Some(LlcTxn::FwdLoad {
                requester,
                unblock_done,
                ..
            }) if is_owner => {
                // The owner's WB (fwd-triggered demotion, or a crossing
                // eviction) satisfies the transaction's WB requirement.
                // Conservatively keep the owner listed as a sharer. Ack
                // clean WBs too: a crossing eviction parked an EI_A entry
                // that only this ack can release.
                line.sharers |= 1 << core;
                line.owner = None;
                if unblock_done {
                    line.state = LlcState::S;
                    line.sharers |= 1 << requester;
                    line.txn = None;
                    self.send_wb_ack(now, core, addr);
                    self.llc_replay_waiters(now, addr);
                } else {
                    line.txn = Some(LlcTxn::FwdLoad {
                        requester,
                        wb_done: true,
                        unblock_done: false,
                    });
                    self.send_wb_ack(now, core, addr);
                }
                return;
            }
            Some(LlcTxn::FwdStore {
                requester,
                unblock_done,
                ..
            }) if is_owner => {
                line.owner = None;
                if unblock_done {
                    line.state = LlcState::M;
                    line.owner = Some(requester);
                    line.sharers = 0;
                    line.txn = None;
                    self.send_wb_ack(now, core, addr);
                    self.llc_replay_waiters(now, addr);
                } else {
                    line.txn = Some(LlcTxn::FwdStore {
                        requester,
                        wb_done: true,
                        unblock_done: false,
                    });
                    self.send_wb_ack(now, core, addr);
                }
                return;
            }
            Some(LlcTxn::Recall { pending }) if pending & (1 << core) != 0 => {
                // Eviction WB doubles as the recall ack.
                line.sharers &= !(1 << core);
                if line.owner == Some(core) {
                    line.owner = None;
                }
                self.send_wb_ack(now, core, addr);
                self.llc_recall_ack(now, addr, core);
                return;
            }
            Some(LlcTxn::Invalidating { .. }) => {
                // A sharer evicted while we were invalidating: treat the WB
                // as its ack (handled by llc_inv_ack's shared logic).
                if dirty {
                    self.send_wb_ack(now, core, addr);
                }
                self.llc_inv_ack(now, core, addr, dirty, data);
                return;
            }
            _ => {}
        }

        // Plain eviction handling on an unblocked (or unrelated-txn) line.
        line.sharers &= !(1 << core);
        if is_owner {
            line.owner = None;
            // E/M line returns to shared-clean (dirty flag remembers data).
            line.state = LlcState::S;
            self.send_wb_ack(now, core, addr);
        } else if dirty {
            // A dirty WB whose owner bit was already cleared (e.g. by a
            // crossing invalidation): the data was absorbed above; close
            // the evictor's handshake so its MI_A entry does not leak.
            self.send_wb_ack(now, core, addr);
        }
        // S evictions are fire-and-forget: no ack.
    }

    /// An invalidation ack (explicit, or synthesized from a crossing WB).
    fn llc_inv_ack(&mut self, now: Cycle, core: usize, addr: PhysAddr, dirty: bool, data: u64) {
        let Some(line) = self.banks[self.cfg.bank_of(addr.0)].array.get_mut(addr.0) else {
            return; // late ack for an already-recalled line
        };
        if dirty {
            line.dirty = true;
            line.data = data;
        }
        line.sharers &= !(1 << core);
        if line.owner == Some(core) {
            line.owner = None;
        }
        match line.txn {
            Some(LlcTxn::Invalidating {
                requester,
                req,
                pending,
                with_data,
                llc_was,
            }) => {
                let pending = pending & !(1 << core);
                if pending == 0 {
                    line.txn = None;
                    self.llc_grant_ownership(now, addr, requester, req, with_data, llc_was);
                } else {
                    line.txn = Some(LlcTxn::Invalidating {
                        requester,
                        req,
                        pending,
                        with_data,
                        llc_was,
                    });
                }
            }
            Some(LlcTxn::Recall { .. }) => self.llc_recall_ack(now, addr, core),
            Some(LlcTxn::FwdStore {
                requester,
                unblock_done,
                ..
            }) if line.owner.is_none() => {
                // Owner's InvAck for a forwarded store.
                if unblock_done {
                    line.state = LlcState::M;
                    line.owner = Some(requester);
                    line.sharers = 0;
                    line.txn = None;
                    self.llc_replay_waiters(now, addr);
                } else {
                    line.txn = Some(LlcTxn::FwdStore {
                        requester,
                        wb_done: true,
                        unblock_done: false,
                    });
                }
            }
            _ => {
                // Ack with no matching txn: a stale ack from a conservative
                // sharer listing. The sharer-bit clearing above suffices.
            }
        }
    }

    fn llc_recall_ack(&mut self, now: Cycle, addr: PhysAddr, core: usize) {
        let line = self.banks[self.cfg.bank_of(addr.0)]
            .array
            .get_mut(addr.0)
            .expect("recalling line present");
        let Some(LlcTxn::Recall { pending }) = line.txn else {
            return;
        };
        let pending = pending & !(1 << core);
        if pending != 0 {
            line.txn = Some(LlcTxn::Recall { pending });
            return;
        }
        // All copies invalidated: evict the line.
        let dirty = line.dirty;
        let data = line.data;
        let waiters: Vec<Msg> = line.waiters.drain(..).collect();
        self.banks[self.cfg.bank_of(addr.0)]
            .array
            .invalidate(addr.0);
        if dirty {
            self.banks[self.cfg.bank_of(addr.0)]
                .mem_image
                .insert(addr.0, data);
            self.banks[self.cfg.bank_of(addr.0)]
                .mem
                .access(now, addr, true);
        }
        for w in waiters {
            self.queue.schedule(now, Event::ToLlc(w));
        }
        self.llc_replay_set_stalls(now, addr);
    }

    /// An `Unblock` / `Exclusive_Unblock` from the requester.
    fn llc_unblock(&mut self, now: Cycle, core: usize, addr: PhysAddr, exclusive: bool) -> PResult {
        let Some(line) = self.banks[self.cfg.bank_of(addr.0)].array.get_mut(addr.0) else {
            return Err(self.protocol_error(
                now,
                addr,
                Some(core),
                "Unblock for a line absent from the LLC".to_string(),
            ));
        };
        match line.txn {
            Some(LlcTxn::AwaitUnblockS { requester }) => {
                debug_assert_eq!(core, requester);
                debug_assert!(!exclusive);
                line.state = LlcState::S;
                line.sharers |= 1 << core;
                line.txn = None;
            }
            Some(LlcTxn::AwaitUnblockE { requester, final_m }) => {
                debug_assert_eq!(core, requester);
                line.state = if final_m { LlcState::M } else { LlcState::E };
                line.owner = Some(core);
                line.sharers = 0;
                line.txn = None;
            }
            Some(LlcTxn::FwdLoad {
                requester, wb_done, ..
            }) => {
                debug_assert_eq!(core, requester);
                if wb_done {
                    line.state = LlcState::S;
                    line.sharers |= 1 << requester;
                    line.txn = None;
                } else {
                    line.txn = Some(LlcTxn::FwdLoad {
                        requester,
                        wb_done: false,
                        unblock_done: true,
                    });
                    return Ok(());
                }
            }
            Some(LlcTxn::FwdStore {
                requester, wb_done, ..
            }) => {
                debug_assert_eq!(core, requester);
                if wb_done {
                    line.state = LlcState::M;
                    line.owner = Some(requester);
                    line.sharers = 0;
                    line.txn = None;
                } else {
                    line.txn = Some(LlcTxn::FwdStore {
                        requester,
                        wb_done: false,
                        unblock_done: true,
                    });
                    return Ok(());
                }
            }
            other => {
                return Err(self.protocol_error(
                    now,
                    addr,
                    Some(core),
                    format!("Unblock with txn {other:?}"),
                ));
            }
        }
        self.llc_replay_waiters(now, addr);
        Ok(())
    }

    /// Replays requests stalled on `addr`'s (now unblocked) line, plus any
    /// requests stalled on the set (they may have been waiting for *any*
    /// transaction in the set to finish so a victim becomes eligible).
    fn llc_replay_waiters(&mut self, now: Cycle, addr: PhysAddr) {
        if let Some(line) = self.banks[self.cfg.bank_of(addr.0)].array.get_mut(addr.0) {
            let waiters: Vec<Msg> = line.waiters.drain(..).collect();
            for w in waiters {
                self.queue.schedule(now, Event::ToLlc(w));
            }
        }
        self.llc_replay_set_stalls(now, addr);
    }

    /// Replays requests stalled on `addr`'s set (a way was freed).
    fn llc_replay_set_stalls(&mut self, now: Cycle, addr: PhysAddr) {
        let set = self.bank_geom().index_of(addr.0);
        if let Some(stalls) = self.banks[self.cfg.bank_of(addr.0)].set_stalls.remove(&set) {
            for msg in stalls {
                self.queue.schedule(now, Event::ToLlc(msg));
            }
        }
    }
}

/// Iterates over the set bit indices of a mask.
fn bits(mask: u64) -> impl Iterator<Item = usize> {
    (0..64).filter(move |i| mask & (1u64 << i) != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier(protocol: ProtocolKind, cores: usize) -> Hierarchy {
        Hierarchy::new(HierarchyConfig::table_v(cores, protocol))
    }

    fn one(completions: Vec<Completion>) -> Completion {
        assert_eq!(completions.len(), 1, "expected one completion");
        completions[0]
    }

    const A: PhysAddr = PhysAddr(0x10_0040);

    #[test]
    fn cold_load_comes_from_memory() {
        let mut h = hier(ProtocolKind::Mesi, 1);
        h.issue(Cycle(0), 0, CoreRequest::load(A));
        let c = one(h.run_until_idle().expect("protocol error"));
        assert_eq!(c.served_from, ServedFrom::Memory);
        assert_eq!(c.class.l1_before, L1State::I);
        assert_eq!(c.class.llc_before, Some(LlcState::I));
        assert!(c.latency() > Cycle(50), "DRAM latency dominates: {c:?}");
        assert_eq!(h.l1_state(0, A), L1State::E, "MESI initial load is E");
        assert_eq!(h.llc_state(A), LlcState::E);
    }

    #[test]
    fn swiftdir_wp_load_is_shared_everywhere() {
        let mut h = hier(ProtocolKind::SwiftDir, 2);
        h.issue(Cycle(0), 0, CoreRequest::load(A).write_protected());
        one(h.run_until_idle().expect("protocol error"));
        assert_eq!(h.l1_state(0, A), L1State::S, "SwiftDir I→S for WP data");
        assert_eq!(h.llc_state(A), LlcState::S);
        assert_eq!(h.stats().event(CoherenceEvent::GetsWp), 1);
        assert_eq!(h.stats().event(CoherenceEvent::Gets), 0);
    }

    #[test]
    fn swiftdir_non_wp_load_still_exclusive() {
        let mut h = hier(ProtocolKind::SwiftDir, 2);
        h.issue(Cycle(0), 0, CoreRequest::load(A));
        one(h.run_until_idle().expect("protocol error"));
        assert_eq!(h.l1_state(0, A), L1State::E);
        assert_eq!(h.stats().event(CoherenceEvent::Gets), 1);
    }

    #[test]
    fn msi_never_grants_exclusive() {
        let mut h = hier(ProtocolKind::Msi, 1);
        h.issue(Cycle(0), 0, CoreRequest::load(A));
        one(h.run_until_idle().expect("protocol error"));
        assert_eq!(h.l1_state(0, A), L1State::S);
    }

    #[test]
    fn l1_hit_is_one_cycle() {
        let mut h = hier(ProtocolKind::Mesi, 1);
        h.issue(Cycle(0), 0, CoreRequest::load(A));
        h.run_until_idle().expect("protocol error");
        h.issue(Cycle(1000), 0, CoreRequest::load(A));
        let c = one(h.run_until_idle().expect("protocol error"));
        assert_eq!(c.served_from, ServedFrom::L1);
        assert_eq!(c.latency(), Cycle(1));
    }

    #[test]
    fn remote_load_of_s_data_served_from_llc_at_17_cycles() {
        let mut h = hier(ProtocolKind::SwiftDir, 2);
        h.issue(Cycle(0), 0, CoreRequest::load(A).write_protected());
        h.run_until_idle().expect("protocol error");
        // Core 1 reads the same (now S) block: LLC serves directly.
        h.issue(Cycle(1000), 1, CoreRequest::load(A).write_protected());
        let c = one(h.run_until_idle().expect("protocol error"));
        assert_eq!(c.served_from, ServedFrom::Llc);
        assert_eq!(c.class.llc_before, Some(LlcState::S));
        assert_eq!(c.latency(), Cycle(17), "the Figure 6 anchor");
    }

    #[test]
    fn remote_load_of_e_data_forwarded_with_26_cycle_gap() {
        let mut h = hier(ProtocolKind::Mesi, 2);
        h.issue(Cycle(0), 0, CoreRequest::load(A));
        h.run_until_idle().expect("protocol error");
        assert_eq!(h.l1_state(0, A), L1State::E);
        h.issue(Cycle(1000), 1, CoreRequest::load(A));
        let c = one(h.run_until_idle().expect("protocol error"));
        assert_eq!(c.served_from, ServedFrom::RemoteL1);
        assert_eq!(c.class.llc_before, Some(LlcState::E));
        assert_eq!(c.latency(), Cycle(17 + 26), "S latency + the E/S gap");
        // Both copies end shared; LLC is S.
        assert_eq!(h.l1_state(0, A), L1State::S);
        assert_eq!(h.l1_state(1, A), L1State::S);
        assert_eq!(h.llc_state(A), LlcState::S);
    }

    #[test]
    fn smesi_serves_e_data_from_llc() {
        let mut h = hier(ProtocolKind::SMesi, 2);
        h.issue(Cycle(0), 0, CoreRequest::load(A));
        h.run_until_idle().expect("protocol error");
        assert_eq!(h.l1_state(0, A), L1State::E);
        h.issue(Cycle(1000), 1, CoreRequest::load(A));
        let c = one(h.run_until_idle().expect("protocol error"));
        assert_eq!(c.served_from, ServedFrom::Llc, "S-MESI: E served from LLC");
        assert_eq!(c.latency(), Cycle(17));
    }

    #[test]
    fn silent_upgrade_in_mesi_and_swiftdir() {
        for p in [ProtocolKind::Mesi, ProtocolKind::SwiftDir] {
            let mut h = hier(p, 1);
            h.issue(Cycle(0), 0, CoreRequest::load(A));
            h.run_until_idle().expect("protocol error");
            let upgrades_before = h.stats().event(CoherenceEvent::Upgrade);
            h.issue(Cycle(1000), 0, CoreRequest::store(A));
            let c = one(h.run_until_idle().expect("protocol error"));
            assert_eq!(c.latency(), Cycle(1), "{p}: silent upgrade is an L1 hit");
            assert_eq!(h.l1_state(0, A), L1State::M);
            assert_eq!(h.llc_state(A), LlcState::E, "{p}: LLC not notified");
            assert_eq!(h.stats().event(CoherenceEvent::Upgrade), upgrades_before);
            assert_eq!(h.stats().silent_upgrades, 1);
        }
    }

    #[test]
    fn smesi_upgrade_round_trip() {
        let mut h = hier(ProtocolKind::SMesi, 1);
        h.issue(Cycle(0), 0, CoreRequest::load(A));
        h.run_until_idle().expect("protocol error");
        h.issue(Cycle(1000), 0, CoreRequest::store(A));
        let c = one(h.run_until_idle().expect("protocol error"));
        // Upgrade/ACK round trip: 1 (L1) + 7 + 2 + 7 = 17 cycles.
        assert_eq!(c.latency(), Cycle(17), "S-MESI store pays the round trip");
        assert_eq!(h.l1_state(0, A), L1State::M);
        assert_eq!(h.llc_state(A), LlcState::M, "LLC tracks M explicitly");
        assert_eq!(h.stats().event(CoherenceEvent::Upgrade), 1);
        assert_eq!(h.stats().silent_upgrades, 0);
    }

    #[test]
    fn store_to_shared_invalidates_other_sharers() {
        let mut h = hier(ProtocolKind::Mesi, 2);
        h.issue(Cycle(0), 0, CoreRequest::load(A));
        h.run_until_idle().expect("protocol error");
        h.issue(Cycle(1000), 1, CoreRequest::load(A));
        h.run_until_idle().expect("protocol error");
        assert_eq!(h.l1_state(0, A), L1State::S);
        assert_eq!(h.l1_state(1, A), L1State::S);
        // Core 0 stores: core 1 must be invalidated.
        h.issue(Cycle(2000), 0, CoreRequest::store(A));
        one(h.run_until_idle().expect("protocol error"));
        assert_eq!(h.l1_state(0, A), L1State::M);
        assert_eq!(h.l1_state(1, A), L1State::I);
        assert_eq!(h.llc_state(A), LlcState::M);
        assert!(h.stats().event(CoherenceEvent::Inv) >= 1);
    }

    #[test]
    fn store_miss_to_modified_line_transfers_ownership() {
        let mut h = hier(ProtocolKind::Mesi, 2);
        h.issue(Cycle(0), 0, CoreRequest::store(A));
        h.run_until_idle().expect("protocol error");
        assert_eq!(h.l1_state(0, A), L1State::M);
        h.issue(Cycle(1000), 1, CoreRequest::store(A));
        let c = one(h.run_until_idle().expect("protocol error"));
        assert_eq!(c.served_from, ServedFrom::RemoteL1);
        assert_eq!(h.l1_state(0, A), L1State::I);
        assert_eq!(h.l1_state(1, A), L1State::M);
        assert_eq!(h.llc_state(A), LlcState::M);
    }

    #[test]
    fn load_from_modified_line_gets_dirty_data() {
        let mut h = hier(ProtocolKind::Mesi, 2);
        h.issue(Cycle(0), 0, CoreRequest::store(A));
        h.run_until_idle().expect("protocol error");
        h.issue(Cycle(1000), 1, CoreRequest::load(A));
        let c = one(h.run_until_idle().expect("protocol error"));
        assert_eq!(c.served_from, ServedFrom::RemoteL1);
        assert_eq!(c.class.llc_before, Some(LlcState::M));
        assert_eq!(h.l1_state(0, A), L1State::S);
        assert_eq!(h.l1_state(1, A), L1State::S);
        assert_eq!(h.llc_state(A), LlcState::S);
    }

    #[test]
    fn mshr_merging_same_block() {
        let mut h = hier(ProtocolKind::Mesi, 1);
        h.issue(Cycle(0), 0, CoreRequest::load(A));
        h.issue(Cycle(1), 0, CoreRequest::load(PhysAddr(A.0 + 8)));
        let done = h.run_until_idle().expect("protocol error");
        assert_eq!(done.len(), 2);
        assert_eq!(h.stats().l1_misses, 1, "second load merged");
        assert_eq!(h.stats().mshr_merges, 1);
    }

    #[test]
    fn store_merged_behind_load_upgrades_afterwards() {
        let mut h = hier(ProtocolKind::Mesi, 1);
        h.issue(Cycle(0), 0, CoreRequest::load(A));
        h.issue(Cycle(1), 0, CoreRequest::store(A));
        let done = h.run_until_idle().expect("protocol error");
        assert_eq!(done.len(), 2);
        assert_eq!(h.l1_state(0, A), L1State::M, "store completed after load");
    }

    #[test]
    fn l1_eviction_writes_back_dirty_data() {
        let mut h = hier(ProtocolKind::Mesi, 1);
        h.issue(Cycle(0), 0, CoreRequest::store(A));
        h.run_until_idle().expect("protocol error");
        // Fill the set: L1 is 4-way; 5 conflicting blocks evict A.
        let set_stride = 128 * 64; // sets * block
        for i in 1..=4u64 {
            h.issue(
                Cycle(1000 * i),
                0,
                CoreRequest::load(PhysAddr(A.0 + i * set_stride)),
            );
            h.run_until_idle().expect("protocol error");
        }
        assert_eq!(h.l1_state(0, A), L1State::I, "A was evicted");
        assert!(h.stats().event(CoherenceEvent::WbDataDirty) >= 1);
        // After the dirty WB the LLC serves the block directly.
        h.issue(Cycle(100_000), 0, CoreRequest::load(A));
        let c = one(h.run_until_idle().expect("protocol error"));
        assert_eq!(c.served_from, ServedFrom::Llc);
        assert_eq!(c.class.llc_before, Some(LlcState::S));
    }

    #[test]
    fn concurrent_cross_core_traffic_quiesces() {
        // Stress determinism/forward-progress: many cores hammer few blocks.
        let mut h = hier(ProtocolKind::Mesi, 4);
        let mut t = Cycle(0);
        let mut n = 0;
        for round in 0..50u64 {
            for core in 0..4usize {
                let addr = PhysAddr(0x4_0000 + (round % 8) * 64);
                let req = if (round + core as u64).is_multiple_of(3) {
                    CoreRequest::store(addr)
                } else {
                    CoreRequest::load(addr)
                };
                h.issue(t, core, req);
                n += 1;
                t += Cycle(3);
            }
        }
        let done = h.run_until_idle().expect("protocol error");
        assert_eq!(done.len(), n);
    }

    #[test]
    fn all_protocols_quiesce_under_stress() {
        for p in ProtocolKind::ALL {
            let mut h = hier(p, 4);
            let mut t = Cycle(0);
            let mut n = 0;
            for round in 0..120u64 {
                for core in 0..4usize {
                    let addr = PhysAddr(0x8_0000 + (round % 16) * 64);
                    let req = match (round + core as u64) % 4 {
                        0 => CoreRequest::store(addr),
                        1 => CoreRequest::load(addr).write_protected(),
                        _ => CoreRequest::load(addr),
                    };
                    h.issue(t, core, req);
                    n += 1;
                    t += Cycle(7);
                }
            }
            let done = h.run_until_idle().expect("protocol error");
            assert_eq!(done.len(), n, "{p}: all requests must complete");
        }
    }

    /// Drives a cross-core mix of loads/stores/WP-loads and returns the
    /// quiesced hierarchy plus the number of issued requests.
    fn stress(protocol: ProtocolKind, rounds: u64) -> (Hierarchy, usize) {
        let mut h = hier(protocol, 4);
        let mut t = Cycle(0);
        let mut n = 0;
        for round in 0..rounds {
            for core in 0..4usize {
                let addr = PhysAddr(0x8_0000 + (round % 16) * 64);
                let req = match (round + core as u64) % 4 {
                    0 => CoreRequest::store(addr),
                    1 => CoreRequest::load(addr).write_protected(),
                    _ => CoreRequest::load(addr),
                };
                h.issue(t, core, req);
                n += 1;
                t += Cycle(7);
            }
        }
        let done = h.run_until_idle().expect("protocol error");
        assert_eq!(done.len(), n);
        (h, n)
    }

    #[test]
    fn transition_matrix_reconciles_with_event_counts() {
        for p in ProtocolKind::ALL {
            let (h, n) = stress(p, 120);
            let s = h.stats();
            // Every data grant installs a line out of a miss transient.
            let data_msgs = s.event(CoherenceEvent::Data)
                + s.event(CoherenceEvent::DataExclusive)
                + s.event(CoherenceEvent::DataFromOwner);
            assert_eq!(
                s.protocol.l1_installs(),
                data_msgs,
                "{p}: installs = data grants"
            );
            // Silent upgrades are exactly the L1 E→M edge.
            assert_eq!(
                s.protocol.l1_transitions(L1State::E, L1State::M),
                s.silent_upgrades,
                "{p}: E→M = silent upgrades"
            );
            // Every completion lands in exactly one latency histogram.
            let latency_total: u64 = crate::metrics::RequestClass::ALL
                .into_iter()
                .map(|c| s.protocol.latency(c).count())
                .sum();
            assert_eq!(
                latency_total, n as u64,
                "{p}: one latency sample per request"
            );
            // The upgrade round trips of S-MESI land in the Upgrade class.
            if p == ProtocolKind::SMesi {
                assert!(
                    s.protocol
                        .latency(crate::metrics::RequestClass::Upgrade)
                        .count()
                        > 0,
                    "S-MESI stress must exercise upgrades"
                );
            }
            assert!(s.dispatched > n as u64, "{p}: misses multiply events");
        }
    }

    #[test]
    fn swiftdir_wp_loads_populate_the_gets_wp_histogram() {
        let (h, _) = stress(ProtocolKind::SwiftDir, 120);
        let wp = h
            .stats()
            .protocol
            .latency(crate::metrics::RequestClass::GetsWp);
        assert!(wp.count() > 0);
        assert_eq!(
            wp.count(),
            h.stats().event(CoherenceEvent::GetsWp),
            "one GETS_WP completion per GETS_WP request"
        );
    }

    #[test]
    fn tracing_does_not_change_stats_and_fills_the_ring() {
        let (plain, _) = stress(ProtocolKind::SwiftDir, 60);
        let mut traced = hier(ProtocolKind::SwiftDir, 4);
        traced.set_tracer(Tracer::enabled().with_ring(256));
        let mut t = Cycle(0);
        for round in 0..60u64 {
            for core in 0..4usize {
                let addr = PhysAddr(0x8_0000 + (round % 16) * 64);
                let req = match (round + core as u64) % 4 {
                    0 => CoreRequest::store(addr),
                    1 => CoreRequest::load(addr).write_protected(),
                    _ => CoreRequest::load(addr),
                };
                traced.issue(t, core, req);
                t += Cycle(7);
            }
        }
        traced.run_until_idle().expect("protocol error");
        assert_eq!(
            plain.stats(),
            traced.stats(),
            "tracing must not perturb the simulation"
        );
        assert!(traced.tracer().emitted() > 0);
        let ring = traced.tracer().ring().expect("ring attached");
        assert!(!ring.is_empty());
        assert_eq!(ring.len(), 256, "long run saturates the bounded ring");
    }

    /// A contended multi-core setup with requests issued but not yet run,
    /// for step-level exploration tests.
    fn primed(protocol: ProtocolKind, cores: usize) -> Hierarchy {
        let mut h = hier(protocol, cores);
        for i in 0..6u64 {
            let core = (i % cores as u64) as usize;
            let addr = PhysAddr(0xA_0000 + (i % 2) * 64);
            let req = match i % 3 {
                0 => CoreRequest::store(addr),
                1 => CoreRequest::load(addr).write_protected(),
                _ => CoreRequest::load(addr),
            };
            h.issue(Cycle(i), core, req);
        }
        h
    }

    /// `primed(protocol, 2)` with the seqs of `path` delivered in order:
    /// the node `path` leads to, rebuilt from the root.
    fn replayed(protocol: ProtocolKind, path: &[u64]) -> Hierarchy {
        let mut h = primed(protocol, 2);
        for &seq in path {
            h.try_step_choice(seq)
                .expect("legal step")
                .expect("recorded seq is pending");
        }
        h
    }

    /// DFS over the first few frontier choices, asserting at every node
    /// that stepping + undoing restores digest, stats, and completions
    /// bit-exactly, that the rewound machine matches the node replayed
    /// from the root along `path`, and that the cached digest tracks
    /// the rescan.
    fn walk_and_unwind(h: &mut Hierarchy, path: &mut Vec<u64>, depth: usize) {
        if depth == 0 {
            return;
        }
        let reference = replayed(h.protocol(), path);
        let choices = h.frontier_choices(Cycle(8));
        for c in choices.into_iter().take(3) {
            let digest = h.state_digest();
            assert_eq!(h.state_digest_cached(), digest, "cached == rescan");
            let stats = h.stats().clone();
            let completions = h.completions_len();
            let mark = h.undo_mark();
            if h.try_step_choice(c.seq).expect("legal step").is_none() {
                continue;
            }
            assert!(h.undo_frame_bytes() > 0, "step recorded a frame");
            path.push(c.seq);
            walk_and_unwind(h, path, depth - 1);
            path.pop();
            h.undo_to(mark);
            let div = h.debug_divergence(&reference);
            assert!(div.is_empty(), "undo diverged after {c:?}:\n{div}");
            assert_eq!(h.state_digest(), digest, "undo restores the digest");
            assert_eq!(h.state_digest_cached(), digest, "cache tracks rollback");
            assert_eq!(*h.stats(), stats, "undo restores stats + histograms");
            assert_eq!(h.completions_len(), completions);
        }
    }

    #[test]
    fn undo_restores_state_digest_and_stats_exactly() {
        for p in ProtocolKind::ALL {
            let mut h = primed(p, 2);
            h.enable_undo();
            walk_and_unwind(&mut h, &mut Vec::new(), 4);
        }
    }

    #[test]
    fn undo_unwinds_a_full_run_to_the_root() {
        let mut h = primed(ProtocolKind::SwiftDir, 2);
        h.enable_undo();
        let root_digest = h.state_digest();
        let root = h.undo_mark();
        let mut steps = 0u32;
        loop {
            let choices = h.frontier_choices(Cycle(8));
            let Some(c) = choices.first() else { break };
            h.try_step_choice(c.seq).expect("legal step");
            steps += 1;
            assert!(steps < 10_000, "runaway run");
        }
        assert!(steps > 20, "setup must produce a real run ({steps} steps)");
        assert!(h.completions_len() > 0, "the run completed requests");
        h.undo_to(root);
        let reference = primed(ProtocolKind::SwiftDir, 2);
        let div = h.debug_divergence(&reference);
        assert!(div.is_empty(), "undo diverged from the root:\n{div}");
        assert_eq!(h.state_digest(), root_digest);
        assert_eq!(h.stats(), reference.stats());
        assert_eq!(h.completions_len(), 0);
    }

    #[test]
    fn single_writer_invariant_probe() {
        // After any store completes with the system idle, no other core may
        // hold the block in a readable state.
        let mut h = hier(ProtocolKind::SwiftDir, 4);
        for i in 0..20u64 {
            let addr = PhysAddr(0x9_0000 + (i % 4) * 64);
            let core = (i % 4) as usize;
            h.issue(Cycle(i * 500), core, CoreRequest::store(addr));
            h.run_until_idle().expect("protocol error");
            let holders: Vec<usize> = (0..4)
                .filter(|&c| h.l1_state(c, addr).load_hits())
                .collect();
            assert_eq!(holders, vec![core], "store {i}: single writer");
            assert_eq!(h.l1_state(core, addr), L1State::M);
        }
    }
}
