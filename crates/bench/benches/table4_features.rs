//! Table IV — measured feature matrix: whether each protocol (i) serves
//! requests to E-state shared data from the LLC and (ii) performs silent
//! E→M upgrades for unshared data, plus the message cost of each case.

use sim_engine::Cycle;
use swiftdir_coherence::{
    CoherenceEvent, CoreRequest, Hierarchy, HierarchyConfig, ProtocolKind, ServedFrom,
};
use swiftdir_core::ExperimentSet;
use swiftdir_mmu::PhysAddr;

const X: PhysAddr = PhysAddr(0x20_0000);

fn shared_from_llc(p: ProtocolKind) -> (bool, u64) {
    let mut h = Hierarchy::new(HierarchyConfig::table_v(2, p));
    h.issue(Cycle(0), 1, CoreRequest::load(X).write_protected());
    h.run_until_idle().expect("protocol error");
    h.issue(Cycle(1000), 0, CoreRequest::load(X).write_protected());
    let done = h.run_until_idle().expect("protocol error");
    (
        done[0].served_from != ServedFrom::RemoteL1,
        done[0].latency().get(),
    )
}

fn silent_upgrade(p: ProtocolKind) -> (bool, u64, u64) {
    let mut h = Hierarchy::new(HierarchyConfig::table_v(2, p));
    h.issue(Cycle(0), 0, CoreRequest::load(X));
    h.run_until_idle().expect("protocol error");
    let upgrades_before = h.stats().event(CoherenceEvent::Upgrade);
    h.issue(Cycle(1000), 0, CoreRequest::store(X));
    let done = h.run_until_idle().expect("protocol error");
    let upgrades = h.stats().event(CoherenceEvent::Upgrade) - upgrades_before;
    (upgrades == 0, done[0].latency().get(), upgrades)
}

fn main() {
    println!("Table IV — measured: efficient handling of shared and unshared data\n");
    println!(
        "{:<10} {:>22} {:>24}",
        "protocol", "shared E from LLC", "silent E->M on L1"
    );
    let protocols = [
        ProtocolKind::Mesi,
        ProtocolKind::SMesi,
        ProtocolKind::SwiftDir,
    ];
    let rows =
        ExperimentSet::new(protocols.to_vec()).run(|&p| (shared_from_llc(p), silent_upgrade(p)));
    for (p, ((llc, shared_lat), (silent, store_lat, upgrades))) in protocols.into_iter().zip(rows) {
        println!(
            "{:<10} {:>12} ({:>3}cyc) {:>12} ({:>2}cyc, {} upgrades)",
            p.to_string(),
            if llc { "yes" } else { "NO" },
            shared_lat,
            if silent { "yes" } else { "NO" },
            store_lat,
            upgrades,
        );
    }
    println!(
        "\nShape check (paper Table IV): MESI = (x, ok), S-MESI = (ok, x), \
         SwiftDir = (ok, ok)."
    );
}
