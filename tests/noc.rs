//! Mesh-NoC and directory-bank integration tests: per-link FIFO order
//! under jitter, the bank mapping as a partition of the block space,
//! hop-latency accounting, bank-count invariance of protocol outcomes,
//! and reproducibility of a jittered sharded machine.

use swiftdir::coherence::{CoreRequest, Hierarchy, HierarchyConfig, ProtocolKind};
use swiftdir::engine::{Cycle, LinkJitter, MeshEndpoint, MeshTopology};
use swiftdir::mmu::PhysAddr;

/// A SwiftDir machine with `cores` cores sharded over `banks` directory
/// banks.
fn sharded(cores: usize, banks: usize) -> Hierarchy {
    Hierarchy::new(HierarchyConfig::table_v(cores, ProtocolKind::SwiftDir).with_banks(banks))
}

/// A 64-core SwiftDir machine sharded over 8 directory banks.
fn sharded_64() -> Hierarchy {
    sharded(64, 8)
}

/// A contended workload touching every bank from every core: strided
/// blocks with cross-core sharing and a store/WP-load mix.
fn drive(h: &mut Hierarchy, cores: usize, rounds: u64) -> usize {
    let mut t = Cycle(0);
    let mut n = 0;
    let stride = h.config().bank_geometry().size_bytes() / 8;
    for round in 0..rounds {
        for core in 0..cores {
            let addr = PhysAddr(0x8_0000 + (round % 32) * stride + (core as u64 % 4) * 64);
            let req = match (round + core as u64) % 4 {
                0 => CoreRequest::store(addr),
                1 => CoreRequest::load(addr).write_protected(),
                _ => CoreRequest::load(addr),
            };
            h.issue(t, core, req);
            n += 1;
            t += Cycle(3);
        }
    }
    n
}

#[test]
fn mesh_links_preserve_fifo_order_under_jitter() {
    // Messages on one core→bank mesh link must deliver in send order no
    // matter what per-hop jitter draws — the FIFO clamp is per link, and
    // distinct links (other banks, the reverse direction) are
    // independent streams that must not interfere with it.
    let mesh = MeshTopology::new(64, 8, 1);
    let mut jitter = LinkJitter::new(0xfeed, 9);
    let links: Vec<(u64, u64)> = (0..8)
        .map(|b| {
            (
                MeshTopology::link_code(MeshEndpoint::Core(5)),
                MeshTopology::link_code(MeshEndpoint::Bank(b)),
            )
        })
        .collect();
    let mut last = vec![Cycle(0); links.len()];
    for step in 0..200u64 {
        for (i, &link) in links.iter().enumerate() {
            let base = 7 + mesh.route_extra(MeshEndpoint::Core(5), MeshEndpoint::Bank(i));
            let at = jitter.delay(link, Cycle(step * 2), base);
            assert!(
                at >= last[i],
                "link {i} reordered: sent at {} delivered {at} after a \
                 message delivered {}",
                step * 2,
                last[i]
            );
            last[i] = at;
        }
    }
}

#[test]
fn bank_mapping_partitions_the_block_space() {
    // Every block belongs to exactly one bank, every bank owns at least
    // one set-group, and a bank's share of blocks reaches every set of
    // its (1/banks-sized) array: the sharding loses no capacity.
    let cfg = HierarchyConfig::table_v(64, ProtocolKind::SwiftDir).with_banks(8);
    let geom = cfg.bank_geometry();
    assert_eq!(
        geom.size_bytes() * 8,
        cfg.llc_bank_geometry.size_bytes(),
        "banks split the aggregate LLC capacity exactly"
    );
    let group = geom.block_bytes() * geom.num_sets();
    let mut owned = [0u64; 8];
    for g in 0..64u64 {
        let base = g * group;
        let bank = cfg.bank_of(base);
        owned[bank] += 1;
        // A set-group never straddles banks.
        assert_eq!(cfg.bank_of(base + group - 64), bank);
    }
    assert!(
        owned.iter().all(|&n| n == 8),
        "set-groups must round-robin evenly over banks: {owned:?}"
    );
}

#[test]
fn mesh_hop_latency_slows_remote_banks_only() {
    // With a nonzero per-hop cost, an access to a bank placed further
    // from the issuing core pays more NoC cycles than one placed nearer;
    // with the default zero hop cost the two are identical (the
    // calibrated crossbar anchors).
    let probe = |hop: u64, addr: u64| {
        let mut h = Hierarchy::new(
            HierarchyConfig::table_v(64, ProtocolKind::SwiftDir)
                .with_banks(8)
                .with_mesh_hop_latency(hop),
        );
        h.issue(Cycle(0), 0, CoreRequest::load(PhysAddr(addr)));
        let done = h.run_until_idle();
        assert_eq!(done.len(), 1);
        done[0].latency().get()
    };
    let group = HierarchyConfig::table_v(64, ProtocolKind::SwiftDir)
        .with_banks(8)
        .bank_geometry();
    let far_addr = 7 * group.block_bytes() * group.num_sets(); // bank 7
    assert_eq!(
        probe(0, 0),
        probe(0, far_addr),
        "zero hop cost models the calibrated crossbar"
    );
    assert!(
        probe(2, far_addr) > probe(2, 0),
        "a further bank must cost more NoC hops"
    );
}

#[test]
fn sharding_is_transparent_modulo_dram_channels() {
    // Set-group interleaving gives every bank the same set population
    // its slice had in the aggregate array, and the default mesh is a
    // zero-cost crossbar — so with accesses spaced far enough apart
    // that each quiesces before the next, the *protocol* outcome of
    // every access (classification, data source, observed value) is
    // independent of the bank count. Only DRAM latencies may differ:
    // eight banks mean eight independent DRAM channels with their own
    // row-buffer state, which is exactly the modeled scale-out.
    let strip = |h: &mut Hierarchy| {
        let mut t = Cycle(0);
        // Three 8-bank set-groups per step, so consecutive accesses
        // rotate through banks; identical addresses in both configs.
        let stride = 3 * 16 * 1024;
        for round in 0..24u64 {
            let addr = PhysAddr(0x8_0000 + (round % 12) * stride);
            let req = if round % 3 == 0 {
                CoreRequest::store(addr)
            } else {
                CoreRequest::load(addr)
            };
            h.issue(t, 0, req);
            t += Cycle(2_000); // far beyond any DRAM round trip
        }
        h.run_until_idle()
            .into_iter()
            .map(|c| (c.req, c.core, c.block, c.class, c.served_from, c.value))
            .collect::<Vec<_>>()
    };
    let one = strip(&mut sharded(1, 1));
    let eight = strip(&mut sharded(1, 8));
    assert_eq!(one, eight, "bank count changed a protocol outcome");
}

#[test]
fn sharded_hierarchy_is_deterministic_under_jitter() {
    // Same seed, same sharded machine, jittered links: completions must
    // be bit-identical across runs (per-link FIFO + deterministic RNG).
    let run = || {
        let mut h = sharded_64();
        h.set_jitter(0xabcd, 6);
        drive(&mut h, 64, 12);
        h.run_until_idle()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "jittered sharded run is not reproducible");
    assert!(!a.is_empty());
}
