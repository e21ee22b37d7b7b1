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
    AccessKind, Checker, CoherenceEvent, Completion, CoreRequest, Hierarchy, HierarchyConfig,
    L1State, ProtocolKind,
};
use swiftdir::core::diff::tiny_config;
use swiftdir::core::explore::{check_max_depth, explore, ExploreConfig, MAX_DEPTH_LIMIT};
use swiftdir::core::fuzz::{
    minimize_outcome, run_fuzz, FuzzConfig, FuzzFailureKind, MinimizeOutcome,
};
use swiftdir::core::{AccessOp, RunStats, System, SystemConfig};
use swiftdir::cpu::CpuModel;
use swiftdir::mmu::PhysAddr;
use swiftdir::workloads::ParsecBenchmark;

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

// ---------------------------------------------------------------------------
// MSHR saturation: retry timing pinned to values recorded when every
// retry was its own queue event
// ---------------------------------------------------------------------------

/// What an MSHR-saturated run produced: the completion stream's digest
/// and every `HierarchyStats` scalar.
#[derive(Debug, PartialEq, Eq)]
struct SaturationPin {
    digest: u64,
    l1_hits: u64,
    l1_misses: u64,
    mshr_merges: u64,
    recalls: u64,
    silent_upgrades: u64,
    dispatched: u64,
}

/// FNV-1a over the completion stream in serialization order.
fn completion_digest(done: &[Completion]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for c in done {
        mix(c.req);
        mix(c.core as u64);
        mix(c.block.0);
        mix(c.issued_at.get());
        mix(c.done_at.get());
        mix(c.class.l1_before as u64);
        mix(c.class.llc_before.map_or(u64::MAX, |s| s as u64));
        mix(c.served_from as u64);
        mix(c.value);
    }
    hash
}

/// Two cores with two MSHRs each and a two-set, two-way L1.
fn saturated(protocol: ProtocolKind) -> Hierarchy {
    let mut cfg = HierarchyConfig::table_v(2, protocol);
    cfg.l1_geometry = CacheGeometry::new(256, 2, 64);
    cfg.l1_mshrs = 2;
    Hierarchy::new(cfg)
}

/// Set 0 of core 0's L1: blocks A and B, shared with core 1, and C.
const A: PhysAddr = PhysAddr(0);
const B: PhysAddr = PhysAddr(128);
const C: PhysAddr = PhysAddr(256);

fn warm(h: &mut Hierarchy) {
    h.issue(Cycle(0), 1, CoreRequest::load(A));
    h.issue(Cycle(0), 1, CoreRequest::load(B));
    h.issue(Cycle(400), 0, CoreRequest::load(A));
    h.issue(Cycle(400), 0, CoreRequest::load(B));
    h.run_until_idle().expect("protocol error");
}

/// Core 0's misses to C and D fill its MSHRs, so its store to A (an
/// upgrade) and the misses behind it poll as one group. B is touched
/// after A first stalls; C's install must then evict B, not A, because
/// A's polls keep refreshing its recency. Core 1 saturates in the same
/// cycles, and D's completion frees an entry between polls.
fn saturation_scenario(h: &mut Hierarchy, t: u64) {
    // Set 1 misses (D, E, F, G) go to DRAM.
    let (d, e, f, g) = (PhysAddr(64), PhysAddr(192), PhysAddr(320), PhysAddr(448));
    let x = |i: u64| PhysAddr(0x1000 + 64 * i);
    h.issue(Cycle(t), 0, CoreRequest::load(C));
    h.issue(Cycle(t), 0, CoreRequest::load(d));
    h.issue(Cycle(t), 1, CoreRequest::load(x(0)));
    h.issue(Cycle(t), 1, CoreRequest::load(x(1)));
    h.issue(Cycle(t + 1), 0, CoreRequest::store(A));
    h.issue(Cycle(t + 1), 1, CoreRequest::store(x(2)));
    h.issue(Cycle(t + 1), 0, CoreRequest::load(e));
    h.issue(Cycle(t + 1), 0, CoreRequest::load(f));
    h.issue(Cycle(t + 1), 1, CoreRequest::load(x(3)));
    h.issue(Cycle(t + 1), 1, CoreRequest::load(x(4)));
    h.issue(Cycle(t + 2), 0, CoreRequest::store(g));
    // A merge into D's open transaction, a hit on B after A first
    // stalled, and a store to C once its grant has landed.
    h.issue(Cycle(t + 3), 0, CoreRequest::load(d));
    h.issue(Cycle(t + 30), 0, CoreRequest::load(B));
    h.issue(Cycle(t + 100), 0, CoreRequest::store(C));
}

/// Runs the saturation scenario under `protocol`, stepping event by
/// event (`stepped`, as the fuzzer does) or in timestamp batches.
fn saturation_pin(protocol: ProtocolKind, stepped: bool) -> (SaturationPin, Vec<Completion>) {
    let mut h = saturated(protocol);
    warm(&mut h);
    saturation_scenario(&mut h, 2000);
    let done = if stepped {
        while h.try_step().expect("protocol error").is_some() {}
        h.drain_completions()
    } else {
        h.run_until_idle().expect("protocol error")
    };
    Checker::new().check_quiescent(&h).expect("quiescent audit");
    let s = h.stats();
    assert!(
        s.mshr_polls > 0 && s.mshr_polls < s.dispatched,
        "{} polls of {} dispatched",
        s.mshr_polls,
        s.dispatched
    );
    let pin = SaturationPin {
        digest: completion_digest(&done),
        l1_hits: s.l1_hits,
        l1_misses: s.l1_misses,
        mshr_merges: s.mshr_merges,
        recalls: s.recalls,
        silent_upgrades: s.silent_upgrades,
        dispatched: s.dispatched,
    };
    (pin, done)
}

/// Both cores run out of MSHRs and retry every four cycles: a group of
/// stalled misses, a store to an S line whose upgrade waits while its
/// set picks a victim for C, frees landing between retries, cross-core
/// retries in the same cycles, a merge and a silent upgrade. The
/// completion stream and every stats scalar are pinned per protocol,
/// in batch and in single-step mode.
#[test]
fn mshr_saturation_timing_is_pinned() {
    let pin = |digest, l1_hits, silent_upgrades, dispatched| SaturationPin {
        digest,
        l1_hits,
        l1_misses: 14,
        mshr_merges: 1,
        recalls: 0,
        silent_upgrades,
        dispatched,
    };
    let expected = [
        (ProtocolKind::Msi, pin(0x1bf3_499f_76ff_7295, 2, 0, 372)),
        (ProtocolKind::Mesi, pin(0xff09_514f_7701_94bd, 3, 1, 342)),
        (ProtocolKind::SMesi, pin(0x960d_0a7f_52e9_1fa2, 2, 0, 375)),
        (
            ProtocolKind::SwiftDir,
            pin(0xff09_514f_7701_94bd, 3, 1, 342),
        ),
    ];
    for (protocol, want) in expected {
        for stepped in [false, true] {
            let (got, done) = saturation_pin(protocol, stepped);
            assert_eq!(got, want, "{protocol:?} (stepped: {stepped})");
            // The store to A kept polling as an upgrade, so A stayed the
            // more recently used way and C's install evicted B, not A.
            let store_a = done
                .iter()
                .find(|c| c.block == A && c.class.kind == AccessKind::Store)
                .expect("store to A completes");
            assert_eq!(store_a.class.l1_before, L1State::S, "{protocol:?}");
        }
    }
}

/// FNV-1a over a sorted outcome or timing set.
fn set_digest(set: &[u64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in set {
        for b in v.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// With one MSHR per core, core 0's second load polls every four
/// cycles; each poll stays one frontier choice, so the explored tree
/// (schedules, steps, outcome and timing sets, the whole report) is
/// pinned. The window stays
/// below the poll period: from 4 cycles up the walker may pick the
/// next poll forever (see `runaway_mshr_polls_truncate_at_max_depth`).
#[test]
fn explored_mshr_polls_are_pinned() {
    let stream = [
        AccessOp::load(0, 0, 0),
        AccessOp::load(0, 0, 64),
        AccessOp::store(2, 1, 0),
    ];
    const OUTCOMES: u64 = 0xec2b_d65b_c56f_9367;
    let expected = [
        (
            ProtocolKind::Msi,
            0x29ca_b3a2_00b5_a68c,
            0x1491_408c_1611_9a8c,
        ),
        (
            ProtocolKind::Mesi,
            0x1c6d_6fe3_de7d_3729,
            0x6940_14f5_08ef_891d,
        ),
        (
            ProtocolKind::SMesi,
            0x1c6d_6fe3_de7d_3729,
            0x6940_14f5_08ef_891d,
        ),
        (
            ProtocolKind::SwiftDir,
            0x1c6d_6fe3_de7d_3729,
            0x6940_14f5_08ef_891d,
        ),
    ];
    for (protocol, report, timings) in expected {
        let mut cfg = tiny_config(2, protocol);
        cfg.l1_mshrs = 1;
        let ecfg = ExploreConfig {
            window: 3,
            ..ExploreConfig::default()
        };
        let tree = explore(&cfg, &stream, &ecfg);
        assert!(
            tree.exhaustive_and_clean(),
            "{protocol:?}: {:?}",
            tree.error
        );
        assert_eq!(
            (
                tree.schedules,
                tree.steps,
                tree.outcomes.len(),
                tree.timings.len()
            ),
            (8, 3397, 2, 5),
            "{protocol:?}"
        );
        assert_eq!(set_digest(&tree.outcomes), OUTCOMES, "{protocol:?}");
        assert_eq!(set_digest(&tree.timings), timings, "{protocol:?}");
        assert_eq!(tree.digest(), report, "{protocol:?}");
    }
}

/// A rogue write lands, between two cycles, on a block whose store is
/// still polling for an MSHR: core 0's upgrade of A. Its next poll must
/// see the forced M line and hit, exactly as when every retry was its
/// own queue event; the rest of the run (completions, stats, and the
/// outcome the corrupted line leads to) is pinned per protocol.
#[test]
fn fault_on_a_polling_member_is_pinned() {
    // (a protocol error, completion digest, completions, L1 hits and
    // misses, dispatched)
    let expected = [
        (
            ProtocolKind::Msi,
            (false, 0xdbad_35e7_ea71_6106, 14, 3, 14, 346),
        ),
        (
            ProtocolKind::Mesi,
            (false, 0x5c0f_ab01_ac26_9662, 14, 4, 14, 317),
        ),
        (
            ProtocolKind::SMesi,
            (false, 0x53f8_1eee_69c9_72e9, 14, 3, 14, 351),
        ),
        (
            ProtocolKind::SwiftDir,
            (false, 0x5c0f_ab01_ac26_9662, 14, 4, 14, 317),
        ),
    ];
    for (protocol, want) in expected {
        let mut h = saturated(protocol);
        warm(&mut h);
        saturation_scenario(&mut h, 2000);
        // The store to A first stalls at 2001 and polls at 2005 and 2009.
        while h.next_event_time().is_some_and(|t| t < Cycle(2010)) {
            h.try_step().expect("protocol error");
        }
        assert_eq!(h.l1_state(0, A), L1State::S, "{protocol:?}");
        h.test_force_l1_state(0, A, L1State::M, 0xbad);
        let failed = loop {
            match h.try_step() {
                Ok(Some(_)) => {}
                Ok(None) => break false,
                Err(_) => break true,
            }
        };
        let done = h.drain_completions();
        let store_a = done
            .iter()
            .find(|c| c.block == A && c.class.kind == AccessKind::Store)
            .expect("store to A completes");
        assert_eq!(
            (store_a.class.l1_before, store_a.done_at),
            (L1State::M, Cycle(2014)),
            "{protocol:?}"
        );
        let s = h.stats();
        let got = (
            failed,
            completion_digest(&done),
            done.len(),
            s.l1_hits,
            s.l1_misses,
            s.dispatched,
        );
        assert_eq!(got, want, "{protocol:?}");
    }
}

// ---------------------------------------------------------------------------
// MSHR-full retries: hard cases for skipping a retry that must stall again
// ---------------------------------------------------------------------------

/// Every `HierarchyStats` scalar of one run, plus its completion digest
/// and whether it ended in a protocol error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StallPin {
    failed: bool,
    digest: u64,
    l1_hits: u64,
    l1_misses: u64,
    mshr_merges: u64,
    recalls: u64,
    silent_upgrades: u64,
    dispatched: u64,
    mshr_polls: u64,
}

/// One step of a stall scenario on the two-core, two-set L1 of
/// [`saturated`], warmed by [`warm`].
#[derive(Debug, Clone, Copy)]
enum StallOp {
    /// `(cycle, core, request)`, issued when the script reaches it.
    Issue(u64, usize, CoreRequest),
    /// Deliver every event before this cycle.
    At(u64),
    /// Deliver every event before the cycle, then overwrite a line:
    /// `(cycle, core, block, state)`.
    Force(u64, usize, PhysAddr, L1State),
}

/// Runs `script` on a warmed two-core hierarchy with `mshrs` MSHRs per
/// core, stepping event by event (`stepped`, as the fuzzer does) or in
/// timestamp batches, and pins the result.
fn stall_pin(protocol: ProtocolKind, mshrs: usize, script: &[StallOp], stepped: bool) -> StallPin {
    let mut cfg = *saturated(protocol).config();
    cfg.l1_mshrs = mshrs;
    let mut h = Hierarchy::new(cfg);
    warm(&mut h);
    let mut done = Vec::new();
    let mut failed = false;
    let advance = |h: &mut Hierarchy, before: u64, done: &mut Vec<Completion>| {
        if stepped {
            while h.next_event_time().is_some_and(|t| t < Cycle(before)) {
                h.try_step().expect("protocol error");
            }
        } else {
            h.try_tick_into(Cycle(before - 1), done)
                .expect("protocol error");
        }
    };
    for &op in script {
        match op {
            StallOp::Issue(at, core, req) => {
                h.issue(Cycle(at), core, req);
            }
            StallOp::At(before) => advance(&mut h, before, &mut done),
            StallOp::Force(before, core, block, state) => {
                advance(&mut h, before, &mut done);
                h.test_force_l1_state(core, block, state, 0xbad);
            }
        }
    }
    if stepped {
        loop {
            match h.try_step() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        done.extend(h.drain_completions());
    } else {
        match h.run_until_idle() {
            Ok(rest) => done.extend(rest),
            Err(_) => failed = true,
        }
    }
    let s = h.stats();
    StallPin {
        failed,
        digest: completion_digest(&done),
        l1_hits: s.l1_hits,
        l1_misses: s.l1_misses,
        mshr_merges: s.mshr_merges,
        recalls: s.recalls,
        silent_upgrades: s.silent_upgrades,
        dispatched: s.dispatched,
        mshr_polls: s.mshr_polls,
    }
}

/// Asserts `script` pins to `expected` under every protocol, batched
/// and stepped.
fn assert_stall_pins(
    name: &str,
    mshrs: usize,
    script: &[StallOp],
    expected: [(ProtocolKind, StallPin); 4],
) {
    for (protocol, want) in expected {
        for stepped in [false, true] {
            let got = stall_pin(protocol, mshrs, script, stepped);
            assert_eq!(got, want, "{name}: {protocol:?} (stepped: {stepped})");
        }
    }
}

fn ld(at: u64, core: usize, block: u64) -> StallOp {
    StallOp::Issue(at, core, CoreRequest::load(PhysAddr(block)))
}

fn st(at: u64, core: usize, block: u64) -> StallOp {
    StallOp::Issue(at, core, CoreRequest::store(PhysAddr(block)))
}

/// Builds a [`StallPin`] from its fields in declaration order.
#[allow(clippy::too_many_arguments)]
const fn sp(
    failed: bool,
    digest: u64,
    l1_hits: u64,
    l1_misses: u64,
    mshr_merges: u64,
    recalls: u64,
    silent_upgrades: u64,
    dispatched: u64,
    mshr_polls: u64,
) -> StallPin {
    StallPin {
        failed,
        digest,
        l1_hits,
        l1_misses,
        mshr_merges,
        recalls,
        silent_upgrades,
        dispatched,
        mshr_polls,
    }
}

/// (a) Core 0's store to Z finds Z's S grant parked in the installing
/// buffer (both ways of its set hold upgrades in SM_A) and its three
/// MSHRs full, so it polls as a miss. An `Inv` then frees a way, Z's
/// install lands without any MSHR freeing, and the store keeps polling,
/// now as an upgrade of an S line.
fn installing_store_script() -> Vec<StallOp> {
    vec![
        StallOp::Issue(2000, 0, CoreRequest::load(PhysAddr(256)).write_protected()),
        st(2059, 1, 0),
        st(2060, 0, 0),
        st(2060, 0, 128),
        ld(2074, 0, 64),
        st(2074, 0, 256),
    ]
}

/// (b) Core 0's load of 0xc0 polls from 2001; at 2073 a grant frees an
/// MSHR in the cycle its group retries, and a new request for 0x140 at
/// 2073 is ordered before the group (`refill_first`, issued once the
/// grant is in flight but before the group is re-armed) or after it.
fn same_cycle_refill_script(refill_first: bool) -> Vec<StallOp> {
    vec![
        ld(2000, 0, 256),
        ld(2000, 0, 64),
        ld(2001, 0, 192),
        StallOp::At(if refill_first { 2067 } else { 2070 }),
        ld(2073, 0, 320),
    ]
}

/// (c) Both cores fill their MSHRs and stall in the same cycle, so one
/// group carries a member of each; core 0 frees an entry at 2073 while
/// core 1's stay busy until 2114.
fn two_core_group_script() -> Vec<StallOp> {
    vec![
        ld(2000, 0, 256),
        ld(2000, 0, 64),
        ld(2000, 1, 0x1100),
        ld(2000, 1, 0x1140),
        ld(2001, 0, 192),
        ld(2001, 1, 0x11c0),
    ]
}

/// (d) A rogue S line lands between polls on the block of a polling
/// load that no MSHR change would have woken; its next poll hits.
fn fault_on_stalled_miss_script() -> Vec<StallOp> {
    vec![
        ld(2000, 0, 256),
        ld(2000, 0, 64),
        ld(2001, 0, 192),
        st(2002, 0, 0x1c0),
        StallOp::Force(2010, 0, PhysAddr(192), L1State::S),
    ]
}

/// (e) One group holds two misses and, last, a store to A that polls as
/// an upgrade. B is touched after A first stalls; when C's grant needs a
/// victim in A and B's set, A's polls have kept it the more recent way,
/// so B is evicted.
fn polling_upgrade_recency_script() -> Vec<StallOp> {
    vec![
        ld(2000, 0, 64),
        ld(2000, 0, 192),
        ld(2001, 0, 256),
        ld(2001, 0, 320),
        st(2001, 0, 0),
        ld(2010, 0, 128),
    ]
}

/// (a) [`installing_store_script`]: the completion digest and every
/// stats scalar per protocol, batched and stepped, as recorded when
/// each member of a delivered retry group ran its own L1 access.
#[test]
fn installing_store_polls_until_its_install_lands() {
    assert_stall_pins(
        "installing_store_polls_until_its_install_lands",
        3,
        &installing_store_script(),
        [
            (
                ProtocolKind::Msi,
                sp(false, 0x9f88_2270_197e_0e86, 0, 6, 0, 0, 0, 56, 5),
            ),
            (
                ProtocolKind::Mesi,
                sp(false, 0x3401_120c_1b96_5880, 1, 6, 0, 0, 1, 55, 0),
            ),
            (
                ProtocolKind::SMesi,
                sp(false, 0x0383_76d7_3b37_19fd, 0, 6, 0, 0, 0, 57, 5),
            ),
            (
                ProtocolKind::SwiftDir,
                sp(false, 0x9f88_2270_197e_0e86, 0, 6, 0, 0, 0, 62, 5),
            ),
        ],
    );
}

/// (b) [`same_cycle_refill_script`], refill first: the completion digest
/// and every stats scalar per protocol, batched and stepped, as recorded when
/// each member of a delivered retry group ran its own L1 access.
#[test]
fn same_cycle_refill_before_a_group_is_pinned() {
    assert_stall_pins(
        "same_cycle_refill_before_a_group_is_pinned",
        2,
        &same_cycle_refill_script(true),
        [
            (
                ProtocolKind::Msi,
                sp(false, 0xe82e_438d_9083_2cd4, 0, 8, 0, 0, 0, 72, 32),
            ),
            (
                ProtocolKind::Mesi,
                sp(false, 0xe82e_438d_9083_2cd4, 0, 8, 0, 0, 0, 79, 32),
            ),
            (
                ProtocolKind::SMesi,
                sp(false, 0xe82e_438d_9083_2cd4, 0, 8, 0, 0, 0, 73, 32),
            ),
            (
                ProtocolKind::SwiftDir,
                sp(false, 0xe82e_438d_9083_2cd4, 0, 8, 0, 0, 0, 79, 32),
            ),
        ],
    );
}

/// (b) [`same_cycle_refill_script`], group first: the completion digest
/// and every stats scalar per protocol, batched and stepped, as recorded when
/// each member of a delivered retry group ran its own L1 access.
#[test]
fn same_cycle_refill_after_a_group_is_pinned() {
    assert_stall_pins(
        "same_cycle_refill_after_a_group_is_pinned",
        2,
        &same_cycle_refill_script(false),
        [
            (
                ProtocolKind::Msi,
                sp(false, 0x8243_abcb_ee56_52e4, 0, 8, 0, 0, 0, 72, 32),
            ),
            (
                ProtocolKind::Mesi,
                sp(false, 0x8243_abcb_ee56_52e4, 0, 8, 0, 0, 0, 79, 32),
            ),
            (
                ProtocolKind::SMesi,
                sp(false, 0x8243_abcb_ee56_52e4, 0, 8, 0, 0, 0, 73, 32),
            ),
            (
                ProtocolKind::SwiftDir,
                sp(false, 0x8243_abcb_ee56_52e4, 0, 8, 0, 0, 0, 79, 32),
            ),
        ],
    );
}

/// (c) [`two_core_group_script`]: the completion digest and every
/// stats scalar per protocol, batched and stepped, as recorded when
/// each member of a delivered retry group ran its own L1 access.
#[test]
fn two_core_group_with_one_core_freeing_is_pinned() {
    assert_stall_pins(
        "two_core_group_with_one_core_freeing_is_pinned",
        2,
        &two_core_group_script(),
        [
            (
                ProtocolKind::Msi,
                sp(false, 0x9967_3fa4_0e97_f9ee, 0, 10, 0, 0, 0, 97, 47),
            ),
            (
                ProtocolKind::Mesi,
                sp(false, 0x9967_3fa4_0e97_f9ee, 0, 10, 0, 0, 0, 103, 47),
            ),
            (
                ProtocolKind::SMesi,
                sp(false, 0x9967_3fa4_0e97_f9ee, 0, 10, 0, 0, 0, 98, 47),
            ),
            (
                ProtocolKind::SwiftDir,
                sp(false, 0x9967_3fa4_0e97_f9ee, 0, 10, 0, 0, 0, 103, 47),
            ),
        ],
    );
}

/// (d) [`fault_on_stalled_miss_script`]: the completion digest and every
/// stats scalar per protocol, batched and stepped, as recorded when
/// each member of a delivered retry group ran its own L1 access.
#[test]
fn fault_on_a_stalled_miss_is_pinned() {
    assert_stall_pins(
        "fault_on_a_stalled_miss_is_pinned",
        2,
        &fault_on_stalled_miss_script(),
        [
            (
                ProtocolKind::Msi,
                sp(false, 0x5dc3_634d_4bde_d55f, 1, 7, 0, 0, 0, 58, 21),
            ),
            (
                ProtocolKind::Mesi,
                sp(false, 0x5dc3_634d_4bde_d55f, 1, 7, 0, 0, 0, 64, 21),
            ),
            (
                ProtocolKind::SMesi,
                sp(false, 0x5dc3_634d_4bde_d55f, 1, 7, 0, 0, 0, 58, 21),
            ),
            (
                ProtocolKind::SwiftDir,
                sp(false, 0x5dc3_634d_4bde_d55f, 1, 7, 0, 0, 0, 64, 21),
            ),
        ],
    );
}

/// (e) [`polling_upgrade_recency_script`]: the completion digest and every
/// stats scalar per protocol, batched and stepped, as recorded when
/// each member of a delivered retry group ran its own L1 access.
#[test]
fn polling_upgrade_recency_picks_the_victim() {
    assert_stall_pins(
        "polling_upgrade_recency_picks_the_victim",
        2,
        &polling_upgrade_recency_script(),
        [
            (
                ProtocolKind::Msi,
                sp(false, 0x2a11_ce6e_76ef_11e2, 1, 8, 0, 0, 0, 142, 96),
            ),
            (
                ProtocolKind::Mesi,
                sp(false, 0x2a11_ce6e_76ef_11e2, 1, 8, 0, 0, 0, 149, 96),
            ),
            (
                ProtocolKind::SMesi,
                sp(false, 0x2a11_ce6e_76ef_11e2, 1, 8, 0, 0, 0, 143, 96),
            ),
            (
                ProtocolKind::SwiftDir,
                sp(false, 0x2a11_ce6e_76ef_11e2, 1, 8, 0, 0, 0, 149, 96),
            ),
        ],
    );
}

/// FNV-1a over a whole [`RunStats`]: per-thread retirement, every
/// hierarchy scalar and event count, both transition matrices, the
/// install counters and the DRAM counters.
fn run_stats_digest(s: &RunStats) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for t in &s.threads {
        mix(t.core as u64);
        mix(t.cpu.instructions);
        mix(t.cpu.started_at.get());
        mix(t.cpu.finished_at.get());
        mix(t.cpu.mem_ops);
    }
    let h = &s.hierarchy;
    for e in CoherenceEvent::ALL {
        mix(h.event(e));
    }
    for v in [
        h.l1_hits,
        h.l1_misses,
        h.mshr_merges,
        h.recalls,
        h.silent_upgrades,
        h.dispatched,
        h.mshr_polls,
        h.protocol.install_retries(),
        h.protocol.install_stalls(),
    ] {
        mix(v);
    }
    for (from, to, n) in h.protocol.l1_nonzero() {
        mix(from as u64);
        mix(to as u64);
        mix(n);
    }
    for (from, to, n) in h.protocol.llc_nonzero() {
        mix(from as u64);
        mix(to as u64);
        mix(n);
    }
    let m = &s.memory;
    for v in [m.reads, m.writes, m.row_hits, m.row_closed, m.row_conflicts] {
        mix(v);
    }
    hash
}

/// One 4-core Figure 8 point at `instructions` per thread.
fn parsec_point(bench: ParsecBenchmark, protocol: ProtocolKind, instructions: u64) -> RunStats {
    let cfg = SystemConfig::builder()
        .cores(4)
        .protocol(protocol)
        .cpu_model(CpuModel::DerivO3)
        .build();
    let mut sys = System::new(cfg);
    let pid = sys.spawn_process();
    for t in bench.build_threads(&mut sys, pid, instructions) {
        sys.run_thread_stream(pid, t.core, t.stream);
    }
    sys.run_to_completion()
}

/// (f) A 4-core Streamcluster point at 1,500 instructions per thread:
/// MSHR-full retries from every core, with the cores woken by their
/// completions. The whole `RunStats` is pinned per protocol, as recorded
/// when every core ran after every event timestamp and each retry ran its
/// own L1 access.
#[test]
fn parsec_point_run_stats_are_pinned() {
    let expected = [
        (ProtocolKind::Mesi, 0xf55b_bd48_f42b_666a, 95_392),
        (ProtocolKind::SwiftDir, 0xc4f0_46af_5418_4cab, 82_888),
        (ProtocolKind::SMesi, 0xce81_6762_198a_9f94, 63_164),
    ];
    for (protocol, digest, polls) in expected {
        let s = parsec_point(ParsecBenchmark::Streamcluster, protocol, 1_500);
        assert_eq!(s.instructions(), 6_000, "{protocol:?}");
        assert_eq!(s.hierarchy.mshr_polls, polls, "{protocol:?}");
        assert_eq!(run_stats_digest(&s), digest, "{protocol:?}");
    }
}

/// With one MSHR per core and a frontier window of a poll period or
/// more, the walker can deliver core 0's 4-cycle retry ahead of the
/// reply that would free its MSHR again and again, so the tree has no
/// bottom. The runaway guard must end such schedules at `max_depth` and
/// report the walk truncated, on a test thread's 2 MiB stack. The depth
/// is 1024 rather than the default 4096 to keep the walk short; an
/// unoptimized walk 1024 levels deep needs more than 2 MiB of stack.
#[test]
fn runaway_mshr_polls_truncate_at_max_depth() {
    let stream = [
        AccessOp::load(0, 0, 0),
        AccessOp::load(0, 0, 64),
        AccessOp::store(2, 1, 0),
    ];
    let mut cfg = tiny_config(2, ProtocolKind::Mesi);
    cfg.l1_mshrs = 1;
    for window in [4, 8] {
        let ecfg = ExploreConfig {
            window,
            max_depth: 1024,
            max_states: 12_000,
            sleep_sets: false,
            ..ExploreConfig::default()
        };
        let report = explore(&cfg, &stream, &ecfg);
        assert_eq!(report.error, None, "window {window}");
        assert!(report.truncated, "window {window}");
        assert_eq!(report.deepest, 1024, "window {window}");
    }
}

/// `swiftdir-explore --depth` goes through `check_max_depth`: a walk
/// reserves stack for every level left to its depth bound, so a bound
/// above `MAX_DEPTH_LIMIT` is refused with a message naming `max_depth`.
#[test]
fn oversized_max_depth_is_rejected() {
    assert_eq!(check_max_depth(MAX_DEPTH_LIMIT as u64), Ok(MAX_DEPTH_LIMIT));
    for depth in [MAX_DEPTH_LIMIT as u64 + 1, 1_000_000, u64::MAX] {
        let err = check_max_depth(depth).unwrap_err();
        assert!(err.contains("max_depth"), "{depth}: {err}");
    }
}
