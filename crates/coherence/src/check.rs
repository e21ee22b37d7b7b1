//! Global coherence-invariant checking for stress testing.
//!
//! The [`Checker`] audits a [`Hierarchy`] from the outside after every
//! simulator event. It validates the structural invariants every
//! directory protocol must keep — single-writer-multiple-reader, the
//! directory's sharer tracking being a superset of the actual holders,
//! transient-state occupancy bounds — plus *data-value consistency*: a
//! golden memory model is replayed from the stream of [`Completion`]s
//! (stores write a unique value derived from their request id, loads
//! report what they observed), and any load that observes a value other
//! than the last serialized store to its block is flagged.
//!
//! The checker deliberately knows nothing about the hierarchy's internal
//! scheduling; it only reads controller state between events. That makes
//! it usable both from the fuzzer (after every [`Hierarchy::try_step`])
//! and from ordinary tests (after a run, via
//! [`Checker::check_quiescent`]).

use sim_engine::FxHashMap;
use swiftdir_mmu::PhysAddr;

use crate::hierarchy::{AccessKind, Completion, Hierarchy, LlcTxn, ProtocolError};
use crate::state::{L1State, LlcState};

/// An invariant violation, with the same diagnostic payload as a
/// [`ProtocolError`]: when the hierarchy has a ring tracer attached, the
/// offending block's recent event history rides along.
pub type Violation = ProtocolError;

/// One core's view of a block, as collected from the L1 arrays and
/// installing buffers.
#[derive(Debug, Clone)]
struct Holder {
    block: u64,
    core: usize,
    state: L1State,
    data: u64,
}

/// Audits global invariants over a [`Hierarchy`].
///
/// # Example
///
/// ```
/// use sim_engine::Cycle;
/// use swiftdir_coherence::check::Checker;
/// use swiftdir_coherence::{CoreRequest, Hierarchy, HierarchyConfig, ProtocolKind};
/// use swiftdir_mmu::PhysAddr;
///
/// let mut h = Hierarchy::new(HierarchyConfig::table_v(2, ProtocolKind::Mesi));
/// let mut checker = Checker::new();
/// h.issue(Cycle(0), 0, CoreRequest::store(PhysAddr(0x80)));
/// h.issue(Cycle(40), 1, CoreRequest::load(PhysAddr(0x80)));
/// while let Some(_) = h.try_step().expect("no protocol error") {
///     let done = h.drain_completions();
///     checker.after_event(&h, &done).expect("invariants hold");
/// }
/// checker.check_quiescent(&h).expect("quiescent state consistent");
/// ```
#[derive(Debug, Default, Clone)]
pub struct Checker {
    /// Golden memory model: the last store value serialized per block
    /// (absent = 0, the value uninitialized memory reads as).
    golden: FxHashMap<u64, u64>,
    /// Scratch for [`check_structure`](Self::check_structure): every L1
    /// copy of every block, refilled per audit (its allocation is reused).
    holders: Vec<Holder>,
}

impl Checker {
    /// A checker with an all-zero golden memory.
    pub fn new() -> Self {
        Checker::default()
    }

    /// The golden value of `block` (0 when never stored to).
    pub fn golden(&self, block: u64) -> u64 {
        self.golden.get(&block).copied().unwrap_or(0)
    }

    /// Forgets the golden memory, keeping every buffer's allocation: one
    /// checker can audit scenario after scenario without reallocating.
    pub fn reset(&mut self) {
        self.golden.clear();
    }

    /// Overwrites this checker's golden memory with `src`'s, reusing the
    /// map's allocation. Equivalent to `*self = src.clone()` without the
    /// fresh allocation — the undo-log walker calls this once per DFS step.
    pub fn assign_from(&mut self, src: &Checker) {
        self.golden.clone_from(&src.golden);
    }

    /// Audits the hierarchy after one simulator event. `completions` are
    /// the completions that event produced, in serialization order.
    ///
    /// # Errors
    ///
    /// The first violated invariant.
    pub fn after_event(
        &mut self,
        h: &Hierarchy,
        completions: &[Completion],
    ) -> Result<(), Box<Violation>> {
        self.replay_completions(h, completions)?;
        self.check_structure(h)
    }

    /// Replays completions into the golden model, flagging loads that
    /// observed a value other than the last serialized store.
    fn replay_completions(
        &mut self,
        h: &Hierarchy,
        completions: &[Completion],
    ) -> Result<(), Box<Violation>> {
        for c in completions {
            // Completions carry the full (word-per-block) address already.
            let block = block_of(h, c);
            match c.class.kind {
                AccessKind::Store => {
                    self.golden.insert(block, c.value);
                }
                AccessKind::Load => {
                    let want = self.golden(block);
                    if c.value != want {
                        return Err(violation(
                            h,
                            PhysAddr(block),
                            Some(c.core),
                            format!(
                                "load {} observed value {:#x}, golden model says {:#x}",
                                c.req, c.value, want
                            ),
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// The structural invariants: SWMR, directory-superset, transient
    /// bounds, and shared-data agreement. One pass over each L1 fills the
    /// reused `holders` scratch; sorting it by (block, core) groups every
    /// block's copies for the per-block rules, so a steady-state audit
    /// allocates nothing.
    fn check_structure(&mut self, h: &Hierarchy) -> Result<(), Box<Violation>> {
        let silent_e = h.config().protocol.silent_upgrade();

        // Collect every core's view of every block.
        let holders = &mut self.holders;
        holders.clear();
        for (core, l1) in h.l1s.iter().enumerate() {
            for (block, line) in l1.array.iter() {
                match line.state {
                    L1State::IsD | L1State::MiA | L1State::EiA => {
                        return Err(violation(
                            h,
                            PhysAddr(block),
                            Some(core),
                            format!("L1 array holds buffer-only state {}", line.state),
                        ));
                    }
                    // An upgrade transient in the array must have a
                    // transaction backing it, or it can never leave.
                    L1State::SmA | L1State::EmA | L1State::ImD if !l1.pending.contains(block) => {
                        return Err(violation(
                            h,
                            PhysAddr(block),
                            Some(core),
                            format!("array transient {} has no pending transaction", line.state),
                        ));
                    }
                    _ => {}
                }
                holders.push(Holder {
                    block,
                    core,
                    state: line.state,
                    data: line.data,
                });
            }
            for (block, ins) in l1.installing.iter() {
                if !matches!(ins.state, L1State::S | L1State::E | L1State::M) {
                    return Err(violation(
                        h,
                        PhysAddr(block),
                        Some(core),
                        format!("installing buffer holds non-stable grant {}", ins.state),
                    ));
                }
                holders.push(Holder {
                    block,
                    core,
                    state: ins.state,
                    data: ins.data,
                });
            }
            for (block, entry) in l1.wb_buffer.iter() {
                if !matches!(entry.state, L1State::MiA | L1State::EiA) {
                    return Err(violation(
                        h,
                        PhysAddr(block),
                        Some(core),
                        format!("wb_buffer holds non-eviction state {}", entry.state),
                    ));
                }
            }
            if l1.pending.len() > l1.pending.capacity() {
                return Err(violation(
                    h,
                    PhysAddr(0),
                    Some(core),
                    format!(
                        "MSHR occupancy {} exceeds capacity {}",
                        l1.pending.len(),
                        l1.pending.capacity()
                    ),
                ));
            }
        }
        holders.sort_unstable_by_key(|x| (x.block, x.core));

        for hs in holders.chunk_by(|a, b| a.block == b.block) {
            let block = hs[0].block;
            // --- single writer, multiple readers --------------------------
            let mut exclusive = hs
                .iter()
                .filter(|x| x.state == L1State::M || (silent_e && x.state == L1State::E));
            if let Some(x) = exclusive.next() {
                if let Some(y) = exclusive.next() {
                    return Err(violation(
                        h,
                        PhysAddr(block),
                        Some(y.core),
                        format!(
                            "SWMR violated: cores {} and {} both hold the block exclusively ({} / {})",
                            x.core, y.core, x.state, y.state
                        ),
                    ));
                }
                if let Some(other) = hs.iter().find(|o| o.core != x.core && readable(o.state)) {
                    return Err(violation(
                        h,
                        PhysAddr(block),
                        Some(other.core),
                        format!(
                            "SWMR violated: core {} holds {} while core {} can still read it as {}",
                            x.core, x.state, other.core, other.state
                        ),
                    ));
                }
            }

            // --- directory sharer tracking ⊇ actual holders ---------------
            let Some(line) = h.llc_peek(block) else {
                if let Some(x) = hs.iter().find(|x| readable(x.state)) {
                    return Err(violation(
                        h,
                        PhysAddr(block),
                        Some(x.core),
                        format!(
                            "directory lost the block: core {} holds {} but the LLC has no line",
                            x.core, x.state
                        ),
                    ));
                }
                continue;
            };
            for x in hs.iter().filter(|x| readable(x.state)) {
                let tracked = line.sharers & (1 << x.core) != 0
                    || line.owner == Some(x.core)
                    || txn_requester(line.txn) == Some(x.core);
                if !tracked {
                    return Err(violation(
                        h,
                        PhysAddr(block),
                        Some(x.core),
                        format!(
                            "directory under-tracks: core {} holds {} but is neither sharer, \
                             owner, nor the in-flight requester",
                            x.core, x.state
                        ),
                    ));
                }
            }

            // --- shared data agreement ------------------------------------
            if line.state == LlcState::S && line.txn.is_none() {
                for x in hs {
                    match x.state {
                        L1State::S | L1State::SmA if x.data != line.data => {
                            return Err(violation(
                                h,
                                PhysAddr(block),
                                Some(x.core),
                                format!(
                                    "shared-data mismatch: core {} caches {:#x}, LLC has {:#x}",
                                    x.core, x.data, line.data
                                ),
                            ));
                        }
                        // Under explicit-upgrade protocols (S-MESI) an E
                        // copy legitimately coexists with LLC-S sharers —
                        // the holder must still announce the E→M upgrade —
                        // but its clean data must agree.
                        L1State::E if !silent_e && x.data != line.data => {
                            return Err(violation(
                                h,
                                PhysAddr(block),
                                Some(x.core),
                                format!(
                                    "clean-E data mismatch: core {} caches {:#x}, LLC has {:#x}",
                                    x.core, x.data, line.data
                                ),
                            ));
                        }
                        L1State::E if !silent_e => {}
                        L1State::E | L1State::M => {
                            return Err(violation(
                                h,
                                PhysAddr(block),
                                Some(x.core),
                                format!(
                                    "LLC believes the block is shared-clean but core {} holds {}",
                                    x.core, x.state
                                ),
                            ));
                        }
                        _ => {}
                    }
                }
            }
        }
        Ok(())
    }

    /// Quiescence audit: with no events left, every transient structure
    /// must be empty and every reachable copy of every block must agree
    /// with the golden model.
    ///
    /// # Errors
    ///
    /// The first residual transient or final-value mismatch.
    pub fn check_quiescent(&mut self, h: &Hierarchy) -> Result<(), Box<Violation>> {
        let stuck = h.debug_stuck();
        if !stuck.is_empty() {
            return Err(violation(
                h,
                PhysAddr(0),
                None,
                format!("residual transient state at quiescence:\n{stuck}"),
            ));
        }
        self.check_structure(h)?;

        for (&block, &want) in &self.golden {
            let got = self.final_value(h, block);
            if got != want {
                return Err(violation(
                    h,
                    PhysAddr(block),
                    None,
                    format!("final value {got:#x} does not match golden {want:#x}"),
                ));
            }
        }
        Ok(())
    }

    /// The block's value as the next reader would observe it: an owning
    /// L1 copy first, then the LLC, then the written-back DRAM image.
    fn final_value(&self, h: &Hierarchy, block: u64) -> u64 {
        for l1 in &h.l1s {
            if let Some(line) = l1.array.peek(block) {
                if matches!(line.state, L1State::M | L1State::E) {
                    return line.data;
                }
            }
        }
        if let Some(line) = h.llc_peek(block) {
            return line.data;
        }
        h.mem_image_get(block)
    }
}

/// States under which a core can still read the block without any
/// further coherence traffic.
fn readable(s: L1State) -> bool {
    s.load_hits()
}

/// The core a directory transaction is being performed for, if any: a
/// granted-but-not-yet-unblocked requester legitimately holds the line
/// before its sharer/owner bit is set.
fn txn_requester(txn: Option<LlcTxn>) -> Option<usize> {
    match txn? {
        LlcTxn::Fetch { requester, .. }
        | LlcTxn::AwaitUnblockS { requester }
        | LlcTxn::AwaitUnblockE { requester, .. }
        | LlcTxn::FwdLoad { requester, .. }
        | LlcTxn::FwdStore { requester, .. }
        | LlcTxn::Invalidating { requester, .. } => Some(requester),
        LlcTxn::Recall { .. } => None,
    }
}

/// The completion's block address.
fn block_of(_h: &Hierarchy, c: &Completion) -> u64 {
    c.block.0
}

fn violation(h: &Hierarchy, addr: PhysAddr, core: Option<usize>, detail: String) -> Box<Violation> {
    Box::new(ProtocolError {
        at: h.now(),
        addr,
        core,
        detail,
        history: h.history_for(addr),
    })
}
