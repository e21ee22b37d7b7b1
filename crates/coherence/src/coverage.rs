//! Tables I–III transition-coverage specification and gating.
//!
//! Each protocol admits a different slice of the paper's state machines:
//! MSI never touches the E states, only S-MESI uses the `EM_A` upgrade
//! transient, only SwiftDir issues `GETS_WP`. [`CoverageSpec`] encodes,
//! per [`ProtocolKind`], exactly which L1 (Table I) and LLC (Table II)
//! transitions and which Table III event classes are legal, and
//! [`CoverageSpec::check`] diffs an observed [`ObservedCoverage`] union
//! against that spec in both directions:
//!
//! * **soundness** — every observed transition/event is legal (an
//!   illegal observation means the simulator wandered off the paper's
//!   tables);
//! * **completeness** — every legal transition/event was observed (an
//!   uncovered entry means the test corpus failed to exercise part of
//!   the protocol).
//!
//! The `swiftdir-explore --coverage` gate requires both.

use std::fmt;

use crate::hierarchy::HierarchyStats;
use crate::msg::{CoherenceEvent, EventCounts};
use crate::protocol::ProtocolKind;
use crate::state::{L1State, LlcState};

/// A union of transition matrices and event counts accumulated across
/// any number of runs (fuzz seeds, explored schedules, protocols ran
/// separately and merged).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObservedCoverage {
    /// `l1[from][to]`, indexed per [`L1State::index`].
    l1: [[u64; L1State::COUNT]; L1State::COUNT],
    /// `llc[from][to]`, indexed per [`LlcState::index`].
    llc: [[u64; LlcState::COUNT]; LlcState::COUNT],
    events: EventCounts,
}

impl ObservedCoverage {
    /// An empty union.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one run's statistics into the union.
    pub fn add(&mut self, stats: &HierarchyStats) {
        for from in L1State::ALL {
            for to in L1State::ALL {
                self.l1[from.index()][to.index()] += stats.protocol.l1_transitions(from, to);
            }
        }
        for from in LlcState::ALL {
            for to in LlcState::ALL {
                self.llc[from.index()][to.index()] += stats.protocol.llc_transitions(from, to);
            }
        }
        self.events.merge(&stats.events);
    }

    /// Count of one L1 transition in the union.
    pub fn l1(&self, from: L1State, to: L1State) -> u64 {
        self.l1[from.index()][to.index()]
    }

    /// Count of one LLC transition in the union.
    pub fn llc(&self, from: LlcState, to: LlcState) -> u64 {
        self.llc[from.index()][to.index()]
    }

    /// Count of one event class in the union.
    pub fn event(&self, ev: CoherenceEvent) -> u64 {
        self.events.get(ev)
    }

    /// Folds another union into this one.
    pub fn merge(&mut self, other: &ObservedCoverage) {
        for (row, other_row) in self.l1.iter_mut().zip(&other.l1) {
            for (n, m) in row.iter_mut().zip(other_row) {
                *n += m;
            }
        }
        for (row, other_row) in self.llc.iter_mut().zip(&other.llc) {
            for (n, m) in row.iter_mut().zip(other_row) {
                *n += m;
            }
        }
        self.events.merge(&other.events);
    }
}

/// The set of Table I–III transitions and events a protocol may legally
/// produce under this simulator's controller.
#[derive(Debug, Clone)]
pub struct CoverageSpec {
    /// The protocol the spec describes.
    pub protocol: ProtocolKind,
    l1: Vec<(L1State, L1State)>,
    llc: Vec<(LlcState, LlcState)>,
    events: Vec<CoherenceEvent>,
}

impl CoverageSpec {
    /// The legal transition/event sets for `protocol`.
    pub fn for_protocol(protocol: ProtocolKind) -> Self {
        use CoherenceEvent as Ev;
        use L1State::{EiA, EmA, ImD, IsD, MiA, SmA, E, I, M, S};

        let has_e = protocol != ProtocolKind::Msi;
        let silent = protocol.silent_upgrade() && has_e;
        let smesi = protocol == ProtocolKind::SMesi;

        // ---- Table I: L1 transitions --------------------------------
        // Shared by all four protocols: the MSI skeleton.
        let mut l1 = vec![
            (I, IsD), // load miss enters the MSHR transient
            (I, ImD), // store miss
            (IsD, S), // shared grant installs
            (ImD, M), // exclusive-for-store grant installs
            (S, SmA), // store hit on shared: Upgrade round trip
            (S, I),   // eviction notice / Inv / lost install race
            (SmA, M), // Upgrade_ACK
            (SmA, I), // upgrade raced an invalidation and lost
            // A store merged behind a shared grant that parked in the
            // installing buffer re-requests with GETX; if the S install
            // lands in the array before Data_Exclusive arrives, the
            // exclusive install replaces the line in place.
            (S, M),
            (M, S),   // Fwd_GETS demotes the dirty owner
            (M, MiA), // dirty eviction awaits WB_ACK
            (M, I),   // Fwd_GETX / Inv / recall
            (MiA, I), // WB_ACK closes the eviction handshake
        ];
        if has_e {
            l1.extend([
                (IsD, E), // initial load granted exclusively
                (E, EiA), // clean-exclusive eviction awaits WB_ACK
                (E, I),   // Fwd_GETX / Inv / recall
                (EiA, I), // WB_ACK closes the eviction handshake
                // Silent upgrade (MESI/SwiftDir), or S-MESI's directory-
                // acked store against an E grant still parked in the
                // installing buffer (the owner bit was already set, so
                // the LLC answers the GETX with a bare Upgrade_ACK).
                (E, M),
            ]);
        }
        if silent {
            // Only silently-upgrading protocols leave a stale-E owner
            // for the directory to forward loads to.
            l1.push((E, S));
        }
        if smesi {
            // Note: `EM_A → SM_A` (the Fwd_GETS-races-Upgrade_ACK demote)
            // exists in the controller but is unreachable under ordered
            // links: S-MESI only forwards GETS for M lines, the line only
            // becomes M after the Upgrade_ACK is queued, and the LLC→owner
            // link is FIFO — the forward can never overtake the ack.
            l1.extend([
                (E, EmA),   // explicit E→M upgrade request (paper Fig. 2)
                (EmA, M),   // Upgrade_ACK
                (EmA, ImD), // upgrade raced a remote store; needs data
                (EmA, I),   // upgrade raced an invalidation
            ]);
        }

        // ---- Table II: LLC transitions ------------------------------
        let mut llc = vec![
            (LlcState::I, LlcState::M), // store-miss fetch granted M
            (LlcState::S, LlcState::M), // GETX/Upgrade over shared copies
            (LlcState::S, LlcState::I), // eviction / recall
            (LlcState::M, LlcState::S), // GETS demotes the owner
            (LlcState::M, LlcState::I), // eviction / recall
        ];
        if protocol.initial_load_grant(false) == crate::protocol::InitialGrant::Shared
            || protocol == ProtocolKind::SwiftDir
        {
            // MSI grants every initial load S; SwiftDir does for WP loads.
            llc.push((LlcState::I, LlcState::S));
        }
        if has_e {
            llc.extend([
                (LlcState::I, LlcState::E), // load-miss fetch granted E
                (LlcState::S, LlcState::E), // copyless shared line re-granted E
                (LlcState::E, LlcState::S), // GETS demotes / owner evicts
                (LlcState::E, LlcState::M), // store over the E line
                (LlcState::E, LlcState::I), // recall of the exclusive copy
            ]);
        }

        // ---- Table III: event classes -------------------------------
        let mut events: Vec<Ev> = Ev::ALL.to_vec();
        if protocol != ProtocolKind::SwiftDir {
            events.retain(|e| *e != Ev::GetsWp);
        }

        CoverageSpec {
            protocol,
            l1,
            llc,
            events,
        }
    }

    /// Whether the L1 transition `from → to` is legal.
    pub fn l1_legal(&self, from: L1State, to: L1State) -> bool {
        self.l1.contains(&(from, to))
    }

    /// Whether the LLC transition `from → to` is legal.
    pub fn llc_legal(&self, from: LlcState, to: LlcState) -> bool {
        self.llc.contains(&(from, to))
    }

    /// Whether the event class is legal.
    pub fn event_legal(&self, ev: CoherenceEvent) -> bool {
        self.events.contains(&ev)
    }

    /// Number of legal L1 transitions.
    pub fn l1_len(&self) -> usize {
        self.l1.len()
    }

    /// Diffs `observed` against the spec in both directions. Uncovered
    /// entries follow the spec's order; illegal cells are listed in state
    /// order ([`L1State::ALL`], [`LlcState::ALL`]).
    pub fn check(&self, observed: &ObservedCoverage) -> CoverageReport {
        let mut r = CoverageReport {
            protocol: self.protocol,
            l1_legal: self.l1.len(),
            llc_legal: self.llc.len(),
            events_legal: self.events.len(),
            ..CoverageReport::default()
        };
        for &(from, to) in &self.l1 {
            if observed.l1(from, to) == 0 {
                r.uncovered_l1.push((from, to));
            }
        }
        for from in L1State::ALL {
            for to in L1State::ALL {
                let n = observed.l1(from, to);
                if n > 0 && !self.l1_legal(from, to) {
                    r.illegal_l1.push((from, to, n));
                }
            }
        }
        for &(from, to) in &self.llc {
            if observed.llc(from, to) == 0 {
                r.uncovered_llc.push((from, to));
            }
        }
        for from in LlcState::ALL {
            for to in LlcState::ALL {
                let n = observed.llc(from, to);
                if n > 0 && !self.llc_legal(from, to) {
                    r.illegal_llc.push((from, to, n));
                }
            }
        }
        for &ev in &self.events {
            if observed.event(ev) == 0 {
                r.uncovered_events.push(ev);
            }
        }
        // `EventCounts::iter` yields non-zero classes in declaration
        // order, so the report is deterministic without sorting.
        for (ev, n) in observed.events.iter() {
            if !self.event_legal(ev) {
                r.illegal_events.push((ev, n));
            }
        }
        r
    }

    /// Convenience: checks a single run's statistics.
    pub fn check_stats(&self, stats: &HierarchyStats) -> CoverageReport {
        let mut obs = ObservedCoverage::new();
        obs.add(stats);
        self.check(&obs)
    }
}

/// The two-directional diff of observed coverage against a
/// [`CoverageSpec`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageReport {
    /// The protocol checked.
    pub protocol: ProtocolKind,
    /// Legal L1 transitions never observed.
    pub uncovered_l1: Vec<(L1State, L1State)>,
    /// Observed L1 transitions outside the spec, with counts.
    pub illegal_l1: Vec<(L1State, L1State, u64)>,
    /// Legal LLC transitions never observed.
    pub uncovered_llc: Vec<(LlcState, LlcState)>,
    /// Observed LLC transitions outside the spec, with counts.
    pub illegal_llc: Vec<(LlcState, LlcState, u64)>,
    /// Legal event classes never observed.
    pub uncovered_events: Vec<CoherenceEvent>,
    /// Observed event classes outside the spec, with counts.
    pub illegal_events: Vec<(CoherenceEvent, u64)>,
    /// Size of the legal L1 transition set.
    pub l1_legal: usize,
    /// Size of the legal LLC transition set.
    pub llc_legal: usize,
    /// Size of the legal event-class set.
    pub events_legal: usize,
}

impl CoverageReport {
    /// No observed transition or event fell outside the spec.
    pub fn is_sound(&self) -> bool {
        self.illegal_l1.is_empty() && self.illegal_llc.is_empty() && self.illegal_events.is_empty()
    }

    /// Every legal transition and event was observed at least once.
    pub fn is_complete(&self) -> bool {
        self.uncovered_l1.is_empty()
            && self.uncovered_llc.is_empty()
            && self.uncovered_events.is_empty()
    }

    /// Sound **and** complete.
    pub fn is_clean(&self) -> bool {
        self.is_sound() && self.is_complete()
    }

    /// Covered / legal counts as `(l1, llc, events)` pairs.
    pub fn covered(&self) -> [(usize, usize); 3] {
        [
            (self.l1_legal - self.uncovered_l1.len(), self.l1_legal),
            (self.llc_legal - self.uncovered_llc.len(), self.llc_legal),
            (
                self.events_legal - self.uncovered_events.len(),
                self.events_legal,
            ),
        ]
    }
}

impl fmt::Display for CoverageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [(l1c, l1t), (llcc, llct), (evc, evt)] = self.covered();
        writeln!(
            f,
            "{:?} coverage: L1 {l1c}/{l1t}, LLC {llcc}/{llct}, events {evc}/{evt} — {}",
            self.protocol,
            if self.is_clean() {
                "clean"
            } else if self.is_sound() {
                "incomplete"
            } else {
                "UNSOUND"
            }
        )?;
        for (from, to) in &self.uncovered_l1 {
            writeln!(f, "  uncovered L1  {:>4} -> {}", from.name(), to.name())?;
        }
        for (from, to) in &self.uncovered_llc {
            writeln!(f, "  uncovered LLC {:>4} -> {}", from.name(), to.name())?;
        }
        for ev in &self.uncovered_events {
            writeln!(f, "  uncovered event {}", ev.name())?;
        }
        for (from, to, n) in &self.illegal_l1 {
            writeln!(
                f,
                "  ILLEGAL L1  {:>4} -> {} ({n} times)",
                from.name(),
                to.name()
            )?;
        }
        for (from, to, n) in &self.illegal_llc {
            writeln!(
                f,
                "  ILLEGAL LLC {:>4} -> {} ({n} times)",
                from.name(),
                to.name()
            )?;
        }
        for (ev, n) in &self.illegal_events {
            writeln!(f, "  ILLEGAL event {} ({n} times)", ev.name())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msi_spec_excludes_e_machinery() {
        let spec = CoverageSpec::for_protocol(ProtocolKind::Msi);
        assert!(!spec.l1_legal(L1State::IsD, L1State::E));
        assert!(!spec.l1_legal(L1State::E, L1State::M));
        assert!(!spec.l1_legal(L1State::E, L1State::EmA));
        assert!(!spec.llc_legal(LlcState::I, LlcState::E));
        assert!(spec.llc_legal(LlcState::I, LlcState::S));
        assert!(!spec.event_legal(CoherenceEvent::GetsWp));
    }

    #[test]
    fn only_swiftdir_admits_gets_wp() {
        for p in ProtocolKind::ALL {
            let spec = CoverageSpec::for_protocol(p);
            assert_eq!(
                spec.event_legal(CoherenceEvent::GetsWp),
                p == ProtocolKind::SwiftDir,
                "{p:?}"
            );
        }
    }

    #[test]
    fn ema_transient_is_smesi_only() {
        for p in ProtocolKind::ALL {
            let spec = CoverageSpec::for_protocol(p);
            assert_eq!(
                spec.l1_legal(L1State::E, L1State::EmA),
                p == ProtocolKind::SMesi,
                "{p:?}"
            );
        }
    }

    #[test]
    fn swiftdir_is_the_only_e_protocol_granting_initial_shared() {
        for p in [ProtocolKind::Mesi, ProtocolKind::SMesi] {
            assert!(!CoverageSpec::for_protocol(p).llc_legal(LlcState::I, LlcState::S));
        }
        assert!(
            CoverageSpec::for_protocol(ProtocolKind::SwiftDir).llc_legal(LlcState::I, LlcState::S)
        );
    }

    #[test]
    fn empty_observation_is_sound_but_incomplete() {
        let spec = CoverageSpec::for_protocol(ProtocolKind::SwiftDir);
        let report = spec.check(&ObservedCoverage::new());
        assert!(report.is_sound());
        assert!(!report.is_complete());
        assert_eq!(report.uncovered_l1.len(), spec.l1_len());
    }

    #[test]
    fn union_is_independent_of_fold_order() {
        let (mut a, mut b) = (HierarchyStats::default(), HierarchyStats::default());
        a.protocol.record_l1(L1State::I, L1State::IsD);
        b.protocol.record_l1(L1State::IsD, L1State::S);
        b.protocol.record_llc(LlcState::I, LlcState::S);
        let (mut ab, mut ba) = (ObservedCoverage::new(), ObservedCoverage::new());
        ab.add(&a);
        ab.add(&b);
        ba.add(&b);
        ba.add(&a);
        assert_eq!(ab, ba);
        let mut merged = ObservedCoverage::new();
        merged.merge(&ba);
        merged.merge(&ab);
        assert_eq!(merged.l1(L1State::IsD, L1State::S), 2);
        assert_eq!(merged.llc(LlcState::I, LlcState::S), 2);
    }

    #[test]
    fn illegal_cells_are_listed_in_state_order() {
        let spec = CoverageSpec::for_protocol(ProtocolKind::Msi);
        let mut stats = HierarchyStats::default();
        stats.protocol.record_l1(L1State::IsD, L1State::E);
        stats.protocol.record_l1(L1State::E, L1State::M);
        let report = spec.check_stats(&stats);
        assert_eq!(
            report.illegal_l1,
            vec![(L1State::E, L1State::M, 1), (L1State::IsD, L1State::E, 1)]
        );
    }

    #[test]
    fn illegal_observation_is_flagged() {
        let spec = CoverageSpec::for_protocol(ProtocolKind::Msi);
        let mut stats = HierarchyStats::default();
        stats.protocol.record_l1(L1State::IsD, L1State::E);
        let report = spec.check_stats(&stats);
        assert!(!report.is_sound());
        assert_eq!(report.illegal_l1, vec![(L1State::IsD, L1State::E, 1)]);
    }
}
