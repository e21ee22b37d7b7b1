//! Integration tests reproducing the paper's protocol figures step by
//! step: Figure 1 (E vs S request handling), Figures 2–3 (the E→M
//! transition in MESI vs S-MESI), Figure 4 (all five SwiftDir scenarios),
//! and Table IV (the qualitative feature matrix).

use sim_engine::Cycle;
use swiftdir::coherence::{CoreRequest, Hierarchy, HierarchyConfig, ServedFrom};
use swiftdir::prelude::*;

const X: PhysAddr = PhysAddr(0x4_0000);

fn hier(p: ProtocolKind) -> Hierarchy {
    Hierarchy::new(HierarchyConfig::table_v(4, p))
}

// --- Figure 1: handling of coherence requests for E- and S-state data ----

#[test]
fn figure1a_e_state_request_forwarded_to_owner() {
    let mut h = hier(ProtocolKind::Mesi);
    // Core B (1) loads X: exclusive.
    h.issue(Cycle(0), 1, CoreRequest::load(X));
    h.run_until_idle().expect("protocol error");
    assert_eq!(h.llc_state(X), LlcState::E);
    // Core A (0) requests X: the directory forwards to core B (steps 1-3).
    h.issue(Cycle(1000), 0, CoreRequest::load(X));
    let done = h.run_until_idle().expect("protocol error");
    assert_eq!(done[0].served_from, ServedFrom::RemoteL1);
    assert!(h.stats().event(CoherenceEvent::FwdGets) >= 1);
    assert!(h.stats().event(CoherenceEvent::DataFromOwner) >= 1);
}

#[test]
fn figure1b_s_state_request_served_by_llc() {
    let mut h = hier(ProtocolKind::Mesi);
    // Cores B and C load X so it is S everywhere.
    h.issue(Cycle(0), 1, CoreRequest::load(X));
    h.run_until_idle().expect("protocol error");
    h.issue(Cycle(1000), 2, CoreRequest::load(X));
    h.run_until_idle().expect("protocol error");
    assert_eq!(h.llc_state(X), LlcState::S);
    let fwd_before = h.stats().event(CoherenceEvent::FwdGets);
    // Core A requests X: LLC answers directly (steps 1-2).
    h.issue(Cycle(2000), 0, CoreRequest::load(X));
    let done = h.run_until_idle().expect("protocol error");
    assert_eq!(done[0].served_from, ServedFrom::Llc);
    assert_eq!(h.stats().event(CoherenceEvent::FwdGets), fwd_before);
}

// --- Figures 2-3: the E→M transition -------------------------------------

#[test]
fn figure3a_mesi_silent_upgrade_no_traffic() {
    let mut h = hier(ProtocolKind::Mesi);
    h.issue(Cycle(0), 0, CoreRequest::load(X));
    h.run_until_idle().expect("protocol error");
    let events_before: u64 = CoherenceEvent::ALL
        .iter()
        .map(|&e| h.stats().event(e))
        .sum();
    h.issue(Cycle(1000), 0, CoreRequest::store(X));
    let done = h.run_until_idle().expect("protocol error");
    let events_after: u64 = CoherenceEvent::ALL
        .iter()
        .map(|&e| h.stats().event(e))
        .sum();
    // Only the Store core-event itself; zero coherence messages.
    assert_eq!(events_after - events_before, 1, "silent upgrade is silent");
    assert_eq!(done[0].latency(), Cycle(1));
    assert_eq!(
        h.llc_state(X),
        LlcState::E,
        "LLC state stays E (stale view)"
    );
}

#[test]
fn figure2_smesi_explicit_upgrade_handshake() {
    let mut h = hier(ProtocolKind::SMesi);
    h.issue(Cycle(0), 0, CoreRequest::load(X));
    h.run_until_idle().expect("protocol error");
    h.issue(Cycle(1000), 0, CoreRequest::store(X));
    let done = h.run_until_idle().expect("protocol error");
    // Steps 2a/3a of Fig. 2: Upgrade then ACK; the LLC moves E→M (3b).
    assert_eq!(h.stats().event(CoherenceEvent::Upgrade), 1);
    assert_eq!(h.llc_state(X), LlcState::M, "M synchronized to the LLC");
    assert_eq!(done[0].latency(), Cycle(17), "a full L1↔LLC round trip");
}

// --- Figure 4: the five SwiftDir scenarios --------------------------------

#[test]
fn figure4a_initial_load_of_wp_data_is_i_to_s() {
    let mut h = hier(ProtocolKind::SwiftDir);
    h.issue(Cycle(0), 0, CoreRequest::load(X).write_protected());
    let done = h.run_until_idle().expect("protocol error");
    assert_eq!(h.stats().event(CoherenceEvent::GetsWp), 1);
    assert_eq!(h.stats().event(CoherenceEvent::Fetch), 1, "memory fetch");
    assert_eq!(h.stats().event(CoherenceEvent::DataExclusive), 0);
    assert_eq!(h.l1_state(0, X), L1State::S, "no exclusivity attached");
    assert_eq!(h.llc_state(X), LlcState::S);
    assert_eq!(done[0].served_from, ServedFrom::Memory);
}

#[test]
fn figure4b_remote_load_after_initial_wp_load_served_from_llc() {
    let mut h = hier(ProtocolKind::SwiftDir);
    h.issue(Cycle(0), 0, CoreRequest::load(X).write_protected());
    h.run_until_idle().expect("protocol error");
    let before_b_state = h.l1_state(0, X);
    h.issue(Cycle(1000), 1, CoreRequest::load(X).write_protected());
    let done = h.run_until_idle().expect("protocol error");
    assert_eq!(done[0].served_from, ServedFrom::Llc);
    assert_eq!(done[0].latency(), Cycle(17));
    // "neither state transition on ... Core B's L1 nor communication".
    assert_eq!(h.l1_state(0, X), before_b_state);
    assert_eq!(h.stats().event(CoherenceEvent::FwdGets), 0);
}

#[test]
fn figure4c_initial_load_of_non_wp_data_is_exclusive() {
    let mut h = hier(ProtocolKind::SwiftDir);
    h.issue(Cycle(0), 0, CoreRequest::load(X));
    h.run_until_idle().expect("protocol error");
    assert_eq!(h.stats().event(CoherenceEvent::Gets), 1);
    assert_eq!(h.stats().event(CoherenceEvent::DataExclusive), 1);
    assert_eq!(h.stats().event(CoherenceEvent::ExclusiveUnblock), 1);
    assert_eq!(h.l1_state(0, X), L1State::E);
}

#[test]
fn figure4d_store_after_initial_non_wp_load_is_silent() {
    let mut h = hier(ProtocolKind::SwiftDir);
    h.issue(Cycle(0), 0, CoreRequest::load(X));
    h.run_until_idle().expect("protocol error");
    h.issue(Cycle(1000), 0, CoreRequest::store(X));
    let done = h.run_until_idle().expect("protocol error");
    assert_eq!(done[0].latency(), Cycle(1), "silent upgrade preserved");
    assert_eq!(h.l1_state(0, X), L1State::M);
    assert_eq!(h.stats().event(CoherenceEvent::Upgrade), 0);
}

#[test]
fn figure4e_remote_load_after_non_wp_load_forwarded() {
    let mut h = hier(ProtocolKind::SwiftDir);
    h.issue(Cycle(0), 1, CoreRequest::load(X));
    h.run_until_idle().expect("protocol error");
    h.issue(Cycle(1000), 0, CoreRequest::load(X));
    let done = h.run_until_idle().expect("protocol error");
    assert_eq!(done[0].served_from, ServedFrom::RemoteL1);
    assert!(h.stats().event(CoherenceEvent::FwdGets) >= 1);
    assert!(h.stats().event(CoherenceEvent::WbDataClean) >= 1);
    // Everyone converges to S.
    assert_eq!(h.l1_state(0, X), L1State::S);
    assert_eq!(h.l1_state(1, X), L1State::S);
    assert_eq!(h.llc_state(X), LlcState::S);
}

// --- Table IV: feature matrix ---------------------------------------------

/// Measures the two Table IV features for one protocol:
/// (E-state shared data served from the LLC, silent E→M on the L1).
fn table4_row(p: ProtocolKind) -> (bool, bool) {
    // Feature 1: remote load of initially-loaded *shared* (WP) data —
    // does it avoid owner forwarding?
    let mut h = hier(p);
    h.issue(Cycle(0), 1, CoreRequest::load(X).write_protected());
    h.run_until_idle().expect("protocol error");
    h.issue(Cycle(1000), 0, CoreRequest::load(X).write_protected());
    let done = h.run_until_idle().expect("protocol error");
    let shared_from_llc = done[0].served_from != ServedFrom::RemoteL1;

    // Feature 2: store to an exclusively-held unshared line — silent?
    let mut h = hier(p);
    h.issue(Cycle(0), 0, CoreRequest::load(X));
    h.run_until_idle().expect("protocol error");
    h.issue(Cycle(1000), 0, CoreRequest::store(X));
    let done = h.run_until_idle().expect("protocol error");
    let silent = done[0].latency() == Cycle(1);
    (shared_from_llc, silent)
}

#[test]
fn table4_feature_matrix() {
    assert_eq!(table4_row(ProtocolKind::Mesi), (false, true), "MESI");
    assert_eq!(table4_row(ProtocolKind::SMesi), (true, false), "S-MESI");
    assert_eq!(
        table4_row(ProtocolKind::SwiftDir),
        (true, true),
        "SwiftDir handles both efficiently"
    );
}
