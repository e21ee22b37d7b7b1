//! Security integration tests: the E/S timing channel exists under MESI
//! and is closed by SwiftDir (and the baselines S-MESI and MSI), via both
//! the covert channel and the side channel of paper §II-B.

use swiftdir::core::{CovertChannel, SideChannel};
use swiftdir::prelude::*;

#[test]
fn covert_channel_accuracy_by_protocol() {
    let bits = 40;
    let mesi = CovertChannel::new(ProtocolKind::Mesi).transmit_random(bits, 11);
    assert!(
        mesi.accuracy() >= 0.975,
        "MESI channel is near-perfect: {}",
        mesi.accuracy()
    );
    for p in [
        ProtocolKind::SwiftDir,
        ProtocolKind::SMesi,
        ProtocolKind::Msi,
    ] {
        let out = CovertChannel::new(p).transmit_random(bits, 11);
        assert!(
            !out.leaks(),
            "{p} must close the covert channel (accuracy {})",
            out.accuracy()
        );
    }
}

#[test]
fn swiftdir_probe_latencies_are_indistinguishable() {
    // The defense is constant-time service, not noise: every receiver
    // probe must observe exactly the same latency.
    let out = CovertChannel::new(ProtocolKind::SwiftDir).transmit_random(32, 23);
    let first = out.latencies[0];
    assert!(
        out.latencies.iter().all(|&l| l == first),
        "latencies vary: {:?}",
        out.latencies
    );
}

#[test]
fn mesi_probe_latencies_split_into_two_clusters() {
    let out = CovertChannel::new(ProtocolKind::Mesi).transmit_random(32, 23);
    let distinct: std::collections::BTreeSet<u64> = out.latencies.iter().map(|c| c.get()).collect();
    assert_eq!(distinct.len(), 2, "E and S latencies: {distinct:?}");
    let gap = distinct.iter().max().unwrap() - distinct.iter().min().unwrap();
    assert_eq!(gap, 26, "the calibrated E/S gap");
}

#[test]
fn side_channel_detects_victim_accesses_only_under_mesi() {
    let mesi = SideChannel::new(ProtocolKind::Mesi).run_random(32, 5);
    assert!(mesi.accuracy() >= 0.975, "MESI: {}", mesi.accuracy());
    for p in [ProtocolKind::SwiftDir, ProtocolKind::SMesi] {
        let out = SideChannel::new(p).run_random(32, 5);
        assert!(!out.leaks(), "{p}: accuracy {}", out.accuracy());
    }
}

#[test]
fn channel_is_deterministic_across_runs() {
    let a = CovertChannel::new(ProtocolKind::Mesi).transmit_random(16, 99);
    let b = CovertChannel::new(ProtocolKind::Mesi).transmit_random(16, 99);
    assert_eq!(a.latencies, b.latencies, "simulation is reproducible");
    assert_eq!(a.decoded, b.decoded);
}

// -- Fig. 6 invariant, quantified over every schedule ----------------------
//
// SwiftDir's security argument is that `GETS_WP` is *indistinguishable*
// from a plain shared `GETS` fill: same grant (Shared), same latency, on
// every possible message interleaving — not just the deterministic one.
// The bounded-exhaustive explorer lets us state that as an exact
// property: explore all schedules and compare completion-latency
// multisets per request.

#[test]
fn gets_wp_fill_latency_matches_plain_shared_fill_on_every_schedule() {
    use swiftdir::coherence::CoherenceEvent;
    use swiftdir::core::diff::{contended_stream, strip_wp, tiny_config};
    use swiftdir::core::explore::{explore, ExploreConfig};

    // All loads write-protected: under SwiftDir every load is a GETS_WP
    // granting Shared. MSI grants Shared for every plain load, so the
    // stripped stream under MSI is the reference "plain shared fill"
    // machine. The paper's invariant says the two must be
    // timing-identical on every schedule.
    let ecfg = ExploreConfig::default();
    let mut wp_issued = 0u64;
    for seed in 0..4u64 {
        let wp_stream = contended_stream(seed, 2, 2, 5, 1.0);
        let plain = strip_wp(&wp_stream);
        let swift = explore(&tiny_config(2, ProtocolKind::SwiftDir), &wp_stream, &ecfg);
        let msi = explore(&tiny_config(2, ProtocolKind::Msi), &plain, &ecfg);
        assert!(
            swift.exhaustive_and_clean(),
            "seed {seed}: {:?}",
            swift.error
        );
        assert!(msi.exhaustive_and_clean(), "seed {seed}: {:?}", msi.error);
        wp_issued += swift.coverage.event(CoherenceEvent::GetsWp);

        assert_eq!(
            swift.schedules, msi.schedules,
            "seed {seed}: schedule trees differ"
        );
        assert_eq!(
            swift.timings, msi.timings,
            "seed {seed}: some schedule is timing-distinguishable"
        );
        // Request ids are sequential in issue order, so compare each
        // access's completion-latency distribution across all schedules.
        for req in 0..wp_stream.len() as u64 {
            assert_eq!(
                swift.latency_multiset(req),
                msi.latency_multiset(req),
                "seed {seed}: request {req} has a distinguishable latency distribution"
            );
        }
    }
    assert!(wp_issued > 0, "the corpus never exercised GETS_WP");
}

#[test]
fn gets_wp_is_timing_identical_per_bank_on_a_sharded_many_core_machine() {
    // Sharding the directory must not open a per-bank timing channel: on
    // a 64-core machine with 8 address-interleaved banks, probe one
    // S-state line owned by each bank and compare a WP load against a
    // plain load from a distant core. The latencies must be equal bank
    // by bank — both on the default zero-cost crossbar and with a
    // nonzero mesh hop latency, where the NoC adds the same
    // placement-dependent cycles to both request kinds.
    use swiftdir::coherence::{CoreRequest, Hierarchy, HierarchyConfig};
    use swiftdir::engine::Cycle;
    use swiftdir::mmu::PhysAddr;

    for hop in [0u64, 2] {
        let cfg = HierarchyConfig::table_v(64, ProtocolKind::SwiftDir)
            .with_banks(8)
            .with_mesh_hop_latency(hop);
        let geom = cfg.bank_geometry();
        let group = geom.block_bytes() * geom.num_sets();
        for bank in 0..8u64 {
            let addr = PhysAddr(bank * group);
            assert_eq!(cfg.bank_of(addr.0), bank as usize, "probe address owner");
            let probe = |wp: bool| {
                let mut h = Hierarchy::new(cfg);
                // Core 0's WP load installs the line Shared in its bank.
                h.issue(Cycle(0), 0, CoreRequest::load(addr).write_protected());
                h.run_until_idle().expect("protocol error");
                let req = if wp {
                    CoreRequest::load(addr).write_protected()
                } else {
                    CoreRequest::load(addr)
                };
                let id = h.issue(h.now(), 63, req);
                let done = h.run_until_idle().expect("protocol error");
                done.iter()
                    .find(|c| c.req == id)
                    .expect("probe completed")
                    .latency()
            };
            assert_eq!(
                probe(true),
                probe(false),
                "bank {bank}, hop latency {hop}: the WP bit is timing-visible"
            );
        }
    }
}

#[test]
fn gets_wp_on_a_shared_line_matches_plain_gets() {
    use swiftdir::core::diff::tiny_config;
    use swiftdir::core::explore::{explore, ExploreConfig};
    use swiftdir::core::AccessOp;

    // Pre-shared scenario, entirely within SwiftDir: core 0's WP load
    // installs the block Shared; core 1 then loads it. Whether core 1's
    // load is write-protected must be invisible in its latency, on
    // every schedule.
    let cfg = tiny_config(2, ProtocolKind::SwiftDir);
    let ecfg = ExploreConfig::default();
    let probe_wp = [
        AccessOp::wp_load(0, 0, 0x40),
        AccessOp::wp_load(60, 1, 0x40),
    ];
    let probe_plain = [AccessOp::wp_load(0, 0, 0x40), AccessOp::load(60, 1, 0x40)];
    let a = explore(&cfg, &probe_wp, &ecfg);
    let b = explore(&cfg, &probe_plain, &ecfg);
    assert!(a.exhaustive_and_clean(), "{:?}", a.error);
    assert!(b.exhaustive_and_clean(), "{:?}", b.error);
    assert_eq!(a.schedules, b.schedules);
    assert_eq!(
        a.latency_multiset(1),
        b.latency_multiset(1),
        "probe latency distinguishes GETS_WP from GETS on a shared line"
    );
}
