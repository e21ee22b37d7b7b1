//! Randomized tests of the coherence protocol invariants, driven by
//! deterministic multi-core request sequences under all four protocols.
//!
//! Invariants checked after quiescing:
//! * every issued request completes (no lost/deadlocked transactions);
//! * single-writer-or-multiple-readers (SWMR): an M line on one core means
//!   no other core can read the block;
//! * L1/LLC directory agreement: a core holding E/M is the line's single
//!   holder; the LLC never claims I while a core holds data;
//! * determinism: the same request sequence produces identical statistics.
//!
//! The generator is seeded with `sim_engine::DetRng`, so every run explores
//! the same sequences: failures reproduce without a shrinking framework.
//! Sequences that proptest shrank to in earlier revisions are pinned as
//! explicit regression tests at the bottom.

use sim_engine::{Cycle, DetRng};
use swiftdir::coherence::{
    CoreRequest, Hierarchy, HierarchyConfig, L1State, LlcState, ProtocolKind,
};
use swiftdir::mmu::PhysAddr;

#[derive(Debug, Clone, Copy)]
struct Op {
    core: usize,
    block: u64,
    store: bool,
    wp: bool,
    gap: u64,
}

/// Draws one op; mirrors the constraint that WP data is never stored to in
/// practice (CoW redirects), keeping the generator faithful.
fn random_op(rng: &mut DetRng, cores: usize, blocks: u64) -> Op {
    let store = rng.chance(0.5);
    let wp = rng.chance(0.5);
    Op {
        core: rng.below(cores as u64) as usize,
        block: rng.below(blocks),
        store: store && !wp,
        wp: wp && !store,
        gap: rng.below(32),
    }
}

fn random_ops(rng: &mut DetRng, cores: usize, blocks: u64, max_len: u64) -> Vec<Op> {
    let len = rng.range(1, max_len);
    (0..len).map(|_| random_op(rng, cores, blocks)).collect()
}

fn run_ops(protocol: ProtocolKind, ops: &[Op]) -> (Hierarchy, usize) {
    let mut h = Hierarchy::new(HierarchyConfig::table_v(4, protocol));
    let mut t = Cycle(0);
    for op in ops {
        let addr = PhysAddr(0x10_0000 + op.block * 64);
        let mut req = if op.store {
            CoreRequest::store(addr)
        } else {
            CoreRequest::load(addr)
        };
        if op.wp {
            req = req.write_protected();
        }
        h.issue(t, op.core, req);
        t += Cycle(op.gap);
    }
    let completions = h.run_until_idle().expect("protocol error");
    (h, completions.len())
}

fn check_invariants(h: &Hierarchy, protocol: ProtocolKind, blocks: u64) {
    for b in 0..blocks {
        let addr = PhysAddr(0x10_0000 + b * 64);
        let states: Vec<L1State> = (0..4).map(|c| h.l1_state(c, addr)).collect();
        let writers = states.iter().filter(|s| **s == L1State::M).count();
        let readers = states.iter().filter(|s| s.load_hits()).count();
        // SWMR: a writer excludes all other readable copies.
        if writers > 0 {
            assert_eq!(writers, 1, "block {b}: multiple writers: {states:?}");
            assert_eq!(readers, 1, "block {b}: writer plus readers: {states:?}");
        }
        // E is exclusive — except under S-MESI, where the LLC serves
        // E-state lines directly (paper §II-C): the old owner keeps an
        // *advisory* E while new sharers hold S. That is safe only because
        // S-MESI has no silent upgrade — every write still asks the LLC,
        // which knows the real sharer set.
        if protocol != ProtocolKind::SMesi {
            let exclusives = states.iter().filter(|s| **s == L1State::E).count();
            if exclusives > 0 {
                assert_eq!(readers, 1, "block {b}: E not exclusive: {states:?}");
            }
        }
        // Inclusion-ish agreement: cores hold data ⇒ LLC knows the block.
        if readers > 0 {
            assert_ne!(
                h.llc_state(addr),
                LlcState::I,
                "block {b}: L1 data without an LLC line"
            );
        }
        // Quiesced lines are stable.
        for (c, s) in states.iter().enumerate() {
            assert!(s.is_stable(), "block {b} core {c}: transient {s} at rest");
        }
    }
}

const CASES: u64 = 48;

#[test]
fn all_requests_complete_and_swmr_holds() {
    let mut rng = DetRng::new(0x5317_d1f0);
    for case in 0..CASES {
        let ops = random_ops(&mut rng, 4, 12, 120);
        for protocol in ProtocolKind::ALL {
            let (h, completed) = run_ops(protocol, &ops);
            assert_eq!(
                completed,
                ops.len(),
                "case {case} {protocol}: all requests complete"
            );
            check_invariants(&h, protocol, 12);
        }
    }
}

#[test]
fn simulation_is_deterministic() {
    let mut rng = DetRng::new(0xdead_beef);
    for _ in 0..CASES {
        let ops = random_ops(&mut rng, 4, 8, 60);
        let (h1, _) = run_ops(ProtocolKind::SwiftDir, &ops);
        let (h2, _) = run_ops(ProtocolKind::SwiftDir, &ops);
        assert_eq!(h1.now(), h2.now());
        for e in swiftdir::coherence::CoherenceEvent::ALL {
            assert_eq!(h1.stats().event(e), h2.stats().event(e));
        }
    }
}

#[test]
fn wp_loads_never_create_exclusive_lines_under_swiftdir() {
    let mut rng = DetRng::new(0x77aa_10ad);
    for _ in 0..CASES {
        // Re-tag every op as a WP load: after quiescing, no L1 line for
        // these blocks may be E or M anywhere.
        let wp_ops: Vec<Op> = random_ops(&mut rng, 2, 6, 80)
            .iter()
            .map(|o| Op {
                store: false,
                wp: true,
                ..*o
            })
            .collect();
        let (h, _) = run_ops(ProtocolKind::SwiftDir, &wp_ops);
        for b in 0..6u64 {
            let addr = PhysAddr(0x10_0000 + b * 64);
            for c in 0..4 {
                let s = h.l1_state(c, addr);
                assert!(
                    s == L1State::I || s == L1State::S,
                    "WP block {b} on core {c} reached {s}"
                );
            }
            let llc = h.llc_state(addr);
            assert!(
                llc == LlcState::I || llc == LlcState::S,
                "WP block {b} at LLC reached {llc}"
            );
        }
    }
}

#[test]
fn mixed_wp_and_private_traffic_quiesces_with_small_caches() {
    let mut rng = DetRng::new(0x0bad_cafe);
    for case in 0..CASES {
        let ops = random_ops(&mut rng, 4, 64, 200);
        // A tiny LLC forces recalls and evictions to actually trigger.
        let mut cfg = HierarchyConfig::table_v(4, ProtocolKind::SwiftDir);
        cfg.llc_bank_geometry = swiftdir::cache::CacheGeometry::new(8 * 1024, 2, 64);
        cfg.l1_geometry = swiftdir::cache::CacheGeometry::new(1024, 2, 64);
        let mut h = Hierarchy::new(cfg);
        let mut t = Cycle(0);
        for op in &ops {
            let addr = PhysAddr(0x10_0000 + op.block * 64);
            let mut req = if op.store {
                CoreRequest::store(addr)
            } else {
                CoreRequest::load(addr)
            };
            if op.wp {
                req = req.write_protected();
            }
            h.issue(t, op.core, req);
            t += Cycle(op.gap);
        }
        let completions = h.run_until_idle().expect("protocol error");
        assert_eq!(completions.len(), ops.len(), "case {case}: all complete");
    }
}

// ---------------------------------------------------------------------------
// Pinned regression cases (shrunk by proptest in earlier revisions; kept as
// explicit sequences so they run on every `cargo test` forever).
// ---------------------------------------------------------------------------

fn op(core: usize, block: u64, store: bool, wp: bool, gap: u64) -> Op {
    Op {
        core,
        block,
        store,
        wp,
        gap,
    }
}

/// Two same-cycle loads of one block under S-MESI: the second must be served
/// from the LLC after the first's unblock, not lost in the blocked line.
#[test]
fn regression_smesi_back_to_back_loads_same_block() {
    let ops = [op(1, 9, false, false, 0), op(0, 9, false, false, 0)];
    let (h, completed) = run_ops(ProtocolKind::SMesi, &ops);
    assert_eq!(completed, ops.len());
    check_invariants(&h, ProtocolKind::SMesi, 12);
}

/// S-MESI store chain through an advisory-E line: a GETX forwarded to an
/// owner that already gave the line away must still complete.
#[test]
fn regression_smesi_store_races_through_advisory_e() {
    let ops = [
        op(0, 0, false, false, 0),
        op(0, 0, false, false, 0),
        op(0, 5, false, false, 0),
        op(1, 4, false, false, 0),
        op(2, 4, true, false, 0),
        op(1, 4, true, false, 0),
    ];
    let (h, completed) = run_ops(ProtocolKind::SMesi, &ops);
    assert_eq!(completed, ops.len());
    check_invariants(&h, ProtocolKind::SMesi, 12);
}

/// The long mixed WP/store sequence that once deadlocked the small-cache
/// configuration (recall/eviction interleaving); all protocols must drain it.
#[test]
fn regression_mixed_wp_traffic_57_ops() {
    #[rustfmt::skip]
    let ops = [
        op(3, 50, false, false, 20), op(3, 34, false, false, 15),
        op(0, 5, false, true, 3),    op(2, 59, true, false, 6),
        op(3, 47, false, false, 17), op(1, 5, false, false, 12),
        op(2, 31, false, true, 17),  op(2, 3, false, false, 3),
        op(0, 23, false, false, 15), op(1, 43, false, true, 14),
        op(3, 8, false, false, 24),  op(1, 47, false, false, 29),
        op(1, 8, false, true, 26),   op(1, 18, true, false, 0),
        op(2, 16, true, false, 31),  op(1, 10, false, false, 10),
        op(0, 41, false, false, 13), op(3, 3, false, false, 23),
        op(0, 19, false, true, 28),  op(1, 2, false, false, 4),
        op(0, 41, false, false, 2),  op(1, 58, false, false, 24),
        op(0, 52, false, true, 19),  op(2, 12, false, false, 13),
        op(3, 53, false, false, 3),  op(1, 32, false, false, 5),
        op(1, 10, false, false, 1),  op(3, 18, true, false, 23),
        op(1, 14, false, false, 3),  op(3, 4, false, false, 8),
        op(1, 38, false, false, 27), op(1, 21, false, true, 12),
        op(2, 63, true, false, 12),  op(0, 7, true, false, 16),
        op(3, 12, false, true, 6),   op(0, 3, true, false, 0),
        op(1, 57, false, true, 3),   op(3, 38, true, false, 19),
        op(3, 0, false, false, 27),  op(1, 13, false, false, 2),
        op(1, 14, false, false, 20), op(0, 20, false, false, 8),
        op(3, 56, true, false, 10),  op(3, 26, false, true, 15),
        op(1, 52, true, false, 27),  op(3, 51, false, false, 1),
        op(3, 15, false, true, 19),  op(2, 16, false, false, 22),
        op(1, 58, false, true, 2),   op(2, 54, false, false, 11),
        op(1, 10, false, false, 24), op(0, 3, false, false, 26),
        op(0, 40, false, false, 12), op(0, 63, true, false, 25),
        op(1, 33, false, false, 26), op(1, 11, false, true, 2),
    ];
    for protocol in ProtocolKind::ALL {
        let (h, completed) = run_ops(protocol, &ops);
        assert_eq!(completed, ops.len(), "{protocol}");
        check_invariants(&h, protocol, 64);
    }
}

// -- differential cross-protocol regressions -------------------------------
//
// The same access stream must be architecturally indistinguishable across
// protocols: identical per-access values and identical final memory
// images. Streams come from `well_separated_stream`, which serializes
// same-block conflicts so the winner is protocol-independent. On WP-free
// streams, SwiftDir must additionally be MESI cycle-for-cycle.

#[test]
fn differential_architectural_equivalence_fixed_corpus() {
    use swiftdir::core::diff::{architectural_diff, well_separated_stream};
    for seed in 0..12u64 {
        let stream = well_separated_stream(seed, 4, 6, 80, 0.3);
        architectural_diff(&stream, 4, &ProtocolKind::ALL)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn differential_cycle_identity_fixed_corpus() {
    use swiftdir::core::diff::{swiftdir_mesi_cycle_identity, well_separated_stream};
    for seed in 0..12u64 {
        let stream = well_separated_stream(seed, 4, 6, 80, 0.0);
        swiftdir_mesi_cycle_identity(&stream, 4).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn differential_explored_tree_isomorphism() {
    use swiftdir::core::diff::{contended_stream, explored_equivalence};
    use swiftdir::core::explore::ExploreConfig;
    for seed in [5u64, 11] {
        let stream = contended_stream(seed, 2, 2, 5, 0.0);
        let (mesi, swift) = explored_equivalence(&stream, 2, &ExploreConfig::default())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(mesi.schedules, swift.schedules);
        assert!(mesi.schedules >= 1, "seed {seed} explored nothing");
    }
}
