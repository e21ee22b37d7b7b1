//! Regressions pinned from protocol stress fuzzing, plus direct tests
//! of the invariant checker itself.
//!
//! Every fuzzer-found bug keeps its exact failing `FuzzConfig` here so
//! the scenario replays bit-for-bit on every CI run:
//!
//! * **MSHR overflow through the upgrade path** — S→SmA and E→EmA
//!   upgrades allocated MSHR entries without the capacity check the
//!   miss path has, so a core could exceed its MSHR capacity
//!   (seed 42, MSI).
//! * **Lost store through a parked upgrade grant** — a GETX acked as an
//!   upgrade (the directory already counted the requester as owner via
//!   its still-installing E grant) completed the store without ever
//!   applying M state or the store's value to the parked line; a recall
//!   racing behind the ack then cancelled the grant with a clean InvAck
//!   and the store vanished (seed 423, S-MESI).
//!
//! The checker tests plant deliberate violations with
//! `test_force_l1_state` and assert the checker refuses them — guarding
//! against the checker silently going blind.

use sim_engine::Cycle;
use swiftdir::cache::CacheGeometry;
use swiftdir::coherence::{
    Checker, CoreRequest, Hierarchy, HierarchyConfig, L1State, ProtocolKind,
};
use swiftdir::core::fuzz::{
    minimize_outcome, run_fuzz, FuzzConfig, FuzzFailureKind, MinimizeOutcome,
};
use swiftdir::mmu::PhysAddr;

// ---------------------------------------------------------------------------
// Pinned fuzzer-found regressions
// ---------------------------------------------------------------------------

/// Seed 42 under MSI drove a core to 5 in-flight transactions against 4
/// MSHRs by issuing a store-upgrade while every MSHR held a miss.
#[test]
fn pinned_mshr_overflow_via_upgrade_path() {
    let mut cfg = FuzzConfig::new(42, ProtocolKind::Msi);
    cfg.ops = 120;
    let report = run_fuzz(&cfg);
    assert!(report.ok(), "{}", report.failure.unwrap());
    assert_eq!(report.completions, 120);
}

/// Seed 423 under S-MESI lost a store: its GETX was acked as an upgrade
/// against a grant still parked in the installing buffer, and a recall
/// racing behind the ack threw the parked line away clean.
#[test]
fn pinned_lost_store_through_parked_upgrade_grant() {
    let cfg = FuzzConfig::new(423, ProtocolKind::SMesi);
    let report = run_fuzz(&cfg);
    assert!(report.ok(), "{}", report.failure.unwrap());
    assert_eq!(report.completions, cfg.ops);
}

/// Under S-MESI an E copy legitimately coexists with LLC-S sharers (the
/// holder still has to announce its E→M upgrade); the checker once
/// flagged this as a violation. Seed 42 reproduces the constellation.
#[test]
fn pinned_smesi_e_alongside_llc_sharers_is_legal() {
    let mut cfg = FuzzConfig::new(42, ProtocolKind::SMesi);
    cfg.ops = 120;
    let report = run_fuzz(&cfg);
    assert!(report.ok(), "{}", report.failure.unwrap());
}

/// A spread of seeds across all four protocols stays clean, and
/// repeating a seed reproduces the identical completion digest.
#[test]
fn fuzz_seed_spread_is_clean_and_deterministic() {
    for protocol in [
        ProtocolKind::Msi,
        ProtocolKind::Mesi,
        ProtocolKind::SMesi,
        ProtocolKind::SwiftDir,
    ] {
        for seed in [0, 7, 181, 423, 499] {
            let mut cfg = FuzzConfig::new(seed, protocol);
            cfg.ops = 200;
            let first = run_fuzz(&cfg);
            assert!(
                first.ok(),
                "{protocol:?} seed {seed}: {}",
                first.failure.unwrap()
            );
            let second = run_fuzz(&cfg);
            assert_eq!(first.digest, second.digest, "{protocol:?} seed {seed}");
            assert_eq!(first.events, second.events, "{protocol:?} seed {seed}");
        }
    }
}

// ---------------------------------------------------------------------------
// Install retry / stall escalation
// ---------------------------------------------------------------------------

/// Deterministically drives a grant into a set whose every way is held
/// by in-flight upgrade transients: the install must retry a bounded
/// number of times, escalate to a parked stall, and be re-woken when
/// the set drains — completing every request.
#[test]
fn install_retries_escalate_to_stall_and_rewake() {
    let mut cfg = HierarchyConfig::table_v(4, ProtocolKind::Mesi);
    // One set, two ways: blocks A and B fill it completely.
    cfg.l1_geometry = CacheGeometry::new(128, 2, 64);
    // Widen the upgrade-invalidation window far past the retry budget
    // (3 retries x 8 cycles) so the parked-stall path must engage.
    cfg.latency.llc_to_l1 = 30;
    let mut h = Hierarchy::new(cfg);

    let a = PhysAddr(0);
    let b = PhysAddr(64);
    let c = PhysAddr(128);
    // Warm A and B shared between cores 0 and 1, and C into the LLC
    // via cores 2 and 3 (their L1 sets don't matter).
    h.issue(Cycle(0), 1, CoreRequest::load(a));
    h.issue(Cycle(300), 0, CoreRequest::load(a));
    h.issue(Cycle(600), 1, CoreRequest::load(b));
    h.issue(Cycle(900), 0, CoreRequest::load(b));
    h.issue(Cycle(1200), 2, CoreRequest::load(c));
    h.issue(Cycle(1500), 3, CoreRequest::load(c));
    h.run_until_idle().expect("protocol error");

    // Both of core 0's ways go SmA (upgrades wait on core 1's InvAcks)
    // while C's grant arrives and finds no stable victim.
    h.issue(Cycle(3000), 0, CoreRequest::store(a));
    h.issue(Cycle(3000), 0, CoreRequest::store(b));
    h.issue(Cycle(3000), 0, CoreRequest::load(c));
    let done = h.run_until_idle().expect("protocol error");
    assert_eq!(done.len(), 3, "all three racing requests complete");

    let metrics = &h.stats().protocol;
    assert!(
        metrics.install_retries() >= 1,
        "the blocked install must have retried"
    );
    assert!(
        metrics.install_stalls() >= 1,
        "retries must have escalated to a parked stall"
    );

    // The hierarchy quiesced consistently despite the contention.
    Checker::new().check_quiescent(&h).expect("quiescent audit");
}

// ---------------------------------------------------------------------------
// The checker catches planted violations
// ---------------------------------------------------------------------------

/// Two cores forced into M for the same block: the checker must flag
/// the SWMR violation rather than silently passing.
#[test]
fn checker_flags_planted_swmr_violation() {
    let mut h = Hierarchy::new(HierarchyConfig::table_v(2, ProtocolKind::Mesi));
    h.test_force_l1_state(0, PhysAddr(0x40), L1State::M, 1);
    h.test_force_l1_state(1, PhysAddr(0x40), L1State::M, 2);
    let err = Checker::new()
        .after_event(&h, &[])
        .expect_err("two M copies must be rejected");
    assert!(
        err.detail.contains("SWMR"),
        "unexpected detail: {}",
        err.detail
    );
}

/// A readable L1 copy with no LLC directory line behind it: the checker
/// must flag the directory as having lost the block.
#[test]
fn checker_flags_planted_directory_loss() {
    let mut h = Hierarchy::new(HierarchyConfig::table_v(2, ProtocolKind::Mesi));
    h.test_force_l1_state(0, PhysAddr(0x40), L1State::S, 0);
    let err = Checker::new()
        .after_event(&h, &[])
        .expect_err("untracked copy must be rejected");
    assert!(
        err.detail.contains("directory lost"),
        "unexpected detail: {}",
        err.detail
    );
}

/// Runs `checker.after_event` on `h` with no completions and returns the
/// violation's detail, failing the test if the audit passes.
fn planted_violation(h: &Hierarchy, what: &str) -> String {
    Checker::new().after_event(h, &[]).expect_err(what).detail
}

/// A hierarchy where core 0 has loaded block 0x40 under MSI: the LLC
/// line is shared-clean with core 0 as its one tracked sharer.
fn msi_shared_block() -> Hierarchy {
    let mut h = Hierarchy::new(HierarchyConfig::table_v(2, ProtocolKind::Msi));
    h.issue(Cycle(0), 0, CoreRequest::load(PhysAddr(0x40)));
    h.run_until_idle().expect("protocol error");
    Checker::new()
        .after_event(&h, &[])
        .expect("a plain load leaves a consistent hierarchy");
    h
}

/// A transient that only lives in the installing or writeback buffers
/// (here `IS_D`) planted in the L1 array must be rejected.
#[test]
fn checker_flags_planted_buffer_only_state_in_array() {
    let mut h = Hierarchy::new(HierarchyConfig::table_v(2, ProtocolKind::Mesi));
    h.test_force_l1_state(0, PhysAddr(0x40), L1State::IsD, 0);
    let detail = planted_violation(&h, "IS_D in the array must be rejected");
    assert!(
        detail.contains("buffer-only state"),
        "unexpected detail: {detail}"
    );
}

/// An upgrade transient in the array with no MSHR entry behind it can
/// never leave; the checker must say so.
#[test]
fn checker_flags_planted_array_transient_without_mshr() {
    let mut h = Hierarchy::new(HierarchyConfig::table_v(2, ProtocolKind::Mesi));
    h.test_force_l1_state(0, PhysAddr(0x40), L1State::SmA, 0);
    let detail = planted_violation(&h, "an orphaned SM_A must be rejected");
    assert!(
        detail.contains("has no pending transaction"),
        "unexpected detail: {detail}"
    );
}

/// One core in M while another can still read the block as S: the
/// reader half of SWMR.
#[test]
fn checker_flags_planted_reader_beside_exclusive_copy() {
    let mut h = Hierarchy::new(HierarchyConfig::table_v(2, ProtocolKind::Mesi));
    h.test_force_l1_state(0, PhysAddr(0x40), L1State::M, 1);
    h.test_force_l1_state(1, PhysAddr(0x40), L1State::S, 1);
    let detail = planted_violation(&h, "S beside M must be rejected");
    assert!(
        detail.contains("can still read it"),
        "unexpected detail: {detail}"
    );
}

/// A readable copy on a core the directory line neither lists as
/// sharer nor owner (nor serves in flight) is under-tracked.
#[test]
fn checker_flags_planted_directory_under_tracking() {
    let mut h = msi_shared_block();
    h.test_force_l1_state(1, PhysAddr(0x40), L1State::S, 0);
    let detail = planted_violation(&h, "an untracked sharer must be rejected");
    assert!(
        detail.contains("directory under-tracks"),
        "unexpected detail: {detail}"
    );
}

/// A tracked S copy whose data disagrees with the shared-clean LLC line.
#[test]
fn checker_flags_planted_shared_data_mismatch() {
    let mut h = msi_shared_block();
    h.test_force_l1_state(0, PhysAddr(0x40), L1State::S, 7);
    let detail = planted_violation(&h, "stale shared data must be rejected");
    assert!(
        detail.contains("shared-data mismatch"),
        "unexpected detail: {detail}"
    );
}

// ---------------------------------------------------------------------------
// Minimizer outcomes on non-reproducing inputs
// ---------------------------------------------------------------------------

/// Regression: asking the minimizer to shrink a failure that does not
/// reproduce used to leave callers holding a "shrunk" config they then
/// unwrapped a failure out of — a panic in the fuzz bin's FAIL path.
/// The structured outcome must report `StoppedReproducing` instead,
/// carrying both the expected kind and what (if anything) was observed.
#[test]
fn minimize_on_a_clean_config_reports_stopped_reproducing() {
    // Seed 0 under SwiftDir at default scenario parameters is clean
    // (covered by `fuzz_seed_spread_is_clean_and_deterministic`).
    let cfg = FuzzConfig::new(0, ProtocolKind::SwiftDir);
    assert!(
        run_fuzz(&cfg).failure.is_none(),
        "fixture seed must be clean"
    );

    let out = minimize_outcome(&cfg, Some(FuzzFailureKind::Deadlock));
    match out {
        MinimizeOutcome::StoppedReproducing {
            config,
            expected,
            observed,
        } => {
            assert_eq!(expected, FuzzFailureKind::Deadlock);
            assert_eq!(observed, None, "clean config observed a failure");
            // The input comes back untouched — no bogus "shrinking".
            assert_eq!(config, cfg);
        }
        other => panic!("expected StoppedReproducing, got {other:?}"),
    }
}

/// Without an expected kind, a clean config is simply `Clean` — the
/// caller asked "shrink whatever fails here" and nothing does.
#[test]
fn minimize_without_expectation_reports_clean() {
    let cfg = FuzzConfig::new(0, ProtocolKind::SwiftDir);
    match minimize_outcome(&cfg, None) {
        MinimizeOutcome::Clean(c) => assert_eq!(c, cfg),
        other => panic!("expected Clean, got {other:?}"),
    }
    // And the panic-prone accessor path stays total: `config()` is
    // defined for every outcome.
    assert_eq!(minimize_outcome(&cfg, None).config(), cfg);
}
