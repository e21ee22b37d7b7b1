//! Coherence counters summed over the units of a traced pass.

use swiftdir_coherence::{CoherenceEvent, HierarchyStats};

use crate::unit::{ratio, Metric};

/// The coherence events the per-layer metrics count.
const COUNTED_EVENTS: [(CoherenceEvent, &str); 6] = [
    (CoherenceEvent::Gets, "gets"),
    (CoherenceEvent::GetsWp, "gets_wp"),
    (CoherenceEvent::Getx, "getx"),
    (CoherenceEvent::Upgrade, "upgrade"),
    (CoherenceEvent::FwdGets, "fwd_gets"),
    (CoherenceEvent::Inv, "inv"),
];

/// `HierarchyStats` fields summed over units.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub units: u64,
    pub dispatched: u64,
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub mshr_merges: u64,
    pub l1_installs: u64,
    pub install_stalls: u64,
    pub recalls: u64,
    pub silent_upgrades: u64,
    pub events: [u64; 6],
}

impl Counts {
    /// Adds one unit's statistics.
    pub fn add(&mut self, s: &HierarchyStats) {
        self.units += 1;
        self.dispatched += s.dispatched;
        self.l1_hits += s.l1_hits;
        self.l1_misses += s.l1_misses;
        self.mshr_merges += s.mshr_merges;
        self.l1_installs += s.protocol.l1_installs();
        self.install_stalls += s.protocol.install_stalls();
        self.recalls += s.recalls;
        self.silent_upgrades += s.silent_upgrades;
        for (slot, (e, _)) in self.events.iter_mut().zip(COUNTED_EVENTS) {
            *slot += s.event(e);
        }
    }

    /// L1 lookups: hits, primary misses and MSHR merges.
    pub fn l1_lookups(&self) -> u64 {
        self.l1_hits + self.l1_misses + self.mshr_merges
    }

    /// The coherence counters fig8_parsec and fuzz_grid report, per unit
    /// where they are counts.
    pub fn metrics(&self) -> Vec<Metric> {
        let n = self.units.max(1) as f64;
        let mut m = vec![
            Metric::new(
                "coherence.mshr_merge_ratio",
                ratio(self.mshr_merges as f64, self.l1_lookups() as f64),
                "ratio",
            )
            .note("MSHR merges per L1 lookup"),
            Metric::new(
                "coherence.install_stall_ratio",
                ratio(self.install_stalls as f64, self.l1_installs as f64),
                "ratio",
            )
            .note("install stalls per L1 install"),
        ];
        for ((_, name), &count) in COUNTED_EVENTS.iter().zip(&self.events) {
            m.push(
                Metric::new(
                    format!("coherence.events.{name}"),
                    count as f64 / n,
                    "count",
                )
                .note("per unit"),
            );
        }
        m.push(Metric::new("coherence.recalls", self.recalls as f64 / n, "count").note("per unit"));
        m.push(
            Metric::new(
                "coherence.silent_upgrades",
                self.silent_upgrades as f64 / n,
                "count",
            )
            .note("per unit"),
        );
        m.push(
            Metric::new(
                "engine.events_per_unit",
                self.dispatched as f64 / n,
                "count",
            )
            .note("dispatched simulator events per unit"),
        );
        m
    }
}
