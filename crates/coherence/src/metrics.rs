//! Always-on protocol metrics: the full MESI transition-count matrix and
//! per-request-class latency histograms.
//!
//! Unlike the [`tracer`](sim_engine::tracer) (off by default, per-event),
//! these are plain array increments cheap enough to keep on in production
//! runs. They live inside
//! [`HierarchyStats`](crate::hierarchy::HierarchyStats) so they are cloned
//! into every run's results and covered by the determinism suite.

use sim_engine::stats::counter_json;
use sim_engine::{Histogram, Json};

use crate::hierarchy::{AccessKind, ServedFrom};
use crate::state::{L1State, LlcState};

/// How a completed request is accounted in the latency histograms: the
/// coherence request it turned into, or a plain L1 hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestClass {
    /// Served by the local L1 (includes silent-upgrade stores).
    Hit,
    /// Load miss → `GETS`.
    Gets,
    /// Load miss on write-protected data → `GETS_WP` (SwiftDir).
    GetsWp,
    /// Store miss → `GETX`.
    Getx,
    /// Store to a held S/E line → `Upgrade` (even when a lost race
    /// degenerates it to a data grant: the core asked for an upgrade).
    Upgrade,
}

impl RequestClass {
    /// Every class, in [`RequestClass::index`] order.
    pub const ALL: [RequestClass; Self::COUNT] = [
        RequestClass::Hit,
        RequestClass::Gets,
        RequestClass::GetsWp,
        RequestClass::Getx,
        RequestClass::Upgrade,
    ];

    /// Number of request classes.
    pub const COUNT: usize = 5;

    /// Dense index into [`RequestClass::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable display name (metrics key / tracer label).
    pub fn name(self) -> &'static str {
        match self {
            RequestClass::Hit => "Hit",
            RequestClass::Gets => "GETS",
            RequestClass::GetsWp => "GETS_WP",
            RequestClass::Getx => "GETX",
            RequestClass::Upgrade => "Upgrade",
        }
    }

    /// Classifies a completed request from its issue-time facts.
    ///
    /// `swiftdir` says whether the protocol turns WP load misses into
    /// `GETS_WP`; other protocols issue a plain `GETS` for them.
    pub fn classify(
        kind: AccessKind,
        l1_before: L1State,
        write_protected: bool,
        swiftdir: bool,
        served_from: ServedFrom,
    ) -> RequestClass {
        if served_from == ServedFrom::L1 {
            return RequestClass::Hit;
        }
        match kind {
            AccessKind::Load => {
                if write_protected && swiftdir {
                    RequestClass::GetsWp
                } else {
                    RequestClass::Gets
                }
            }
            AccessKind::Store => {
                if matches!(l1_before, L1State::S | L1State::E) {
                    RequestClass::Upgrade
                } else {
                    RequestClass::Getx
                }
            }
        }
    }
}

impl std::fmt::Display for RequestClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Exact-bucket cap for the latency histograms. Coherence latencies are
/// tens to hundreds of cycles; 4096 covers heavy DRAM queueing with room
/// to spare (larger samples still count via the overflow bucket).
pub const LATENCY_CAP: usize = 4096;

/// The transition-count matrices and latency histograms the hierarchy
/// maintains unconditionally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolMetrics {
    /// `l1[from][to]`: L1 state-machine transition counts, including
    /// transients (indices per [`L1State::index`]).
    l1: [[u64; L1State::COUNT]; L1State::COUNT],
    /// `llc[from][to]`: LLC directory transition counts.
    llc: [[u64; LlcState::COUNT]; LlcState::COUNT],
    /// Per-class end-to-end latency (indices per [`RequestClass::index`]).
    latency: [Histogram; RequestClass::COUNT],
    /// L1 data installs re-scheduled because every way of the target set
    /// was mid-transaction.
    install_retries: u64,
    /// Install retries that exhausted their budget and escalated to a
    /// blocking stall (woken when a way in the set frees up).
    install_stalls: u64,
}

impl Default for ProtocolMetrics {
    fn default() -> Self {
        ProtocolMetrics {
            l1: [[0; L1State::COUNT]; L1State::COUNT],
            llc: [[0; LlcState::COUNT]; LlcState::COUNT],
            latency: std::array::from_fn(|_| Histogram::new(LATENCY_CAP)),
            install_retries: 0,
            install_stalls: 0,
        }
    }
}

impl ProtocolMetrics {
    /// Counts one L1 transition (self-transitions are not recorded).
    #[inline]
    pub fn record_l1(&mut self, from: L1State, to: L1State) {
        if from != to {
            self.l1[from.index()][to.index()] += 1;
        }
    }

    /// Counts one LLC directory transition (self-transitions are not
    /// recorded).
    #[inline]
    pub fn record_llc(&mut self, from: LlcState, to: LlcState) {
        if from != to {
            self.llc[from.index()][to.index()] += 1;
        }
    }

    /// Records one completed request's end-to-end latency.
    #[inline]
    pub fn record_latency(&mut self, class: RequestClass, cycles: u64) {
        self.latency[class.index()].record(cycles);
    }

    /// Count of L1 `from → to` transitions.
    pub fn l1_transitions(&self, from: L1State, to: L1State) -> u64 {
        self.l1[from.index()][to.index()]
    }

    /// Count of LLC `from → to` transitions.
    pub fn llc_transitions(&self, from: LlcState, to: LlcState) -> u64 {
        self.llc[from.index()][to.index()]
    }

    /// Total L1 transitions of any kind.
    pub fn l1_total(&self) -> u64 {
        self.l1.iter().flatten().sum()
    }

    /// Total LLC transitions of any kind.
    pub fn llc_total(&self) -> u64 {
        self.llc.iter().flatten().sum()
    }

    /// L1 data installs: transitions out of the miss transients
    /// (`IS_D`/`IM_D`) into a stable valid state. Each `Data`,
    /// `Data_Exclusive`, or `Data_From_Owner` message produces exactly one,
    /// which is the reconciliation the observability tests check against
    /// `HierarchyStats::events`.
    pub fn l1_installs(&self) -> u64 {
        [L1State::IsD, L1State::ImD]
            .into_iter()
            .map(|from| {
                [L1State::S, L1State::E, L1State::M]
                    .into_iter()
                    .map(|to| self.l1_transitions(from, to))
                    .sum::<u64>()
            })
            .sum()
    }

    /// The latency histogram of one request class.
    pub fn latency(&self, class: RequestClass) -> &Histogram {
        &self.latency[class.index()]
    }

    /// Counts one rescheduled L1 install attempt.
    #[inline]
    pub fn record_install_retry(&mut self) {
        self.install_retries += 1;
    }

    /// Counts one install-retry escalation to a blocking stall.
    #[inline]
    pub fn record_install_stall(&mut self) {
        self.install_stalls += 1;
    }

    /// L1 installs re-scheduled because no way was evictable.
    pub fn install_retries(&self) -> u64 {
        self.install_retries
    }

    /// Install retries that escalated to a blocking stall.
    pub fn install_stalls(&self) -> u64 {
        self.install_stalls
    }

    /// Reverses one [`record_l1`](Self::record_l1) of a real transition
    /// (undo-log replay).
    pub(crate) fn unrecord_l1(&mut self, from: L1State, to: L1State) {
        self.l1[from.index()][to.index()] -= 1;
    }

    /// Reverses one [`record_llc`](Self::record_llc) of a real transition.
    pub(crate) fn unrecord_llc(&mut self, from: LlcState, to: LlcState) {
        self.llc[from.index()][to.index()] -= 1;
    }

    /// Reverses one [`record_install_retry`](Self::record_install_retry).
    pub(crate) fn unrecord_install_retry(&mut self) {
        self.install_retries -= 1;
    }

    /// Reverses one [`record_install_stall`](Self::record_install_stall).
    pub(crate) fn unrecord_install_stall(&mut self) {
        self.install_stalls -= 1;
    }

    /// Pre-record mark for one class's latency histogram; pair with
    /// [`unrecord_latency`](Self::unrecord_latency).
    pub fn latency_mark(&self, class: RequestClass) -> sim_engine::HistogramMark {
        self.latency[class.index()].mark()
    }

    /// Reverses one [`record_latency`](Self::record_latency) (LIFO order
    /// only; see [`Histogram::unrecord`]).
    pub fn unrecord_latency(
        &mut self,
        class: RequestClass,
        cycles: u64,
        mark: sim_engine::HistogramMark,
    ) {
        self.latency[class.index()].unrecord(cycles, mark);
    }

    /// Iterates over non-zero L1 matrix cells as `(from, to, count)`.
    pub fn l1_nonzero(&self) -> impl Iterator<Item = (L1State, L1State, u64)> + '_ {
        L1State::ALL.into_iter().flat_map(move |from| {
            L1State::ALL.into_iter().filter_map(move |to| {
                let n = self.l1_transitions(from, to);
                (n > 0).then_some((from, to, n))
            })
        })
    }

    /// Iterates over non-zero LLC matrix cells as `(from, to, count)`.
    pub fn llc_nonzero(&self) -> impl Iterator<Item = (LlcState, LlcState, u64)> + '_ {
        LlcState::ALL.into_iter().flat_map(move |from| {
            LlcState::ALL.into_iter().filter_map(move |to| {
                let n = self.llc_transitions(from, to);
                (n > 0).then_some((from, to, n))
            })
        })
    }

    /// The run-snapshot metrics under `prefix`, as `(name, value)` pairs:
    /// non-zero matrix cells as counters
    /// (`{prefix}transitions.{l1,llc}.{from}->{to}`), one latency histogram
    /// per class (`{prefix}latency.{class}`, always present so reports have
    /// a stable shape) and the `{prefix}install_{retries,stalls}` counters.
    pub fn snapshot_entries<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (String, Json)> + 'a {
        let l1 = self.l1_nonzero().map(move |(from, to, n)| {
            let name = format!("{prefix}transitions.l1.{}->{}", from.name(), to.name());
            (name, counter_json(n))
        });
        let llc = self.llc_nonzero().map(move |(from, to, n)| {
            let name = format!("{prefix}transitions.llc.{}->{}", from.name(), to.name());
            (name, counter_json(n))
        });
        let latency = RequestClass::ALL.into_iter().map(move |class| {
            (
                format!("{prefix}latency.{}", class.name()),
                self.latency(class).to_json(),
            )
        });
        let installs = [
            ("install_retries", self.install_retries),
            ("install_stalls", self.install_stalls),
        ]
        .map(|(name, n)| (format!("{prefix}{name}"), counter_json(n)));
        l1.chain(llc).chain(latency).chain(installs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_figure7_request_mix() {
        use AccessKind::{Load, Store};
        use RequestClass as C;
        let classify = |kind, before, wp, swiftdir, from| {
            RequestClass::classify(kind, before, wp, swiftdir, from)
        };
        assert_eq!(
            classify(Load, L1State::S, false, true, ServedFrom::L1),
            C::Hit
        );
        assert_eq!(
            classify(Load, L1State::I, false, true, ServedFrom::Memory),
            C::Gets
        );
        assert_eq!(
            classify(Load, L1State::I, true, true, ServedFrom::Llc),
            C::GetsWp
        );
        assert_eq!(
            classify(Load, L1State::I, true, false, ServedFrom::Llc),
            C::Gets,
            "non-SwiftDir protocols ignore the WP bit"
        );
        assert_eq!(
            classify(Store, L1State::I, false, true, ServedFrom::RemoteL1),
            C::Getx
        );
        assert_eq!(
            classify(Store, L1State::S, false, false, ServedFrom::Llc),
            C::Upgrade
        );
        assert_eq!(
            classify(Store, L1State::E, false, false, ServedFrom::Llc),
            C::Upgrade,
            "S-MESI explicit E->M is an upgrade"
        );
    }

    #[test]
    fn matrices_count_and_skip_self_transitions() {
        let mut m = ProtocolMetrics::default();
        m.record_l1(L1State::I, L1State::IsD);
        m.record_l1(L1State::IsD, L1State::E);
        m.record_l1(L1State::E, L1State::E); // self: ignored
        m.record_llc(LlcState::I, LlcState::E);
        m.record_llc(LlcState::S, LlcState::S); // self: ignored
        assert_eq!(m.l1_transitions(L1State::I, L1State::IsD), 1);
        assert_eq!(m.l1_total(), 2);
        assert_eq!(m.llc_total(), 1);
        assert_eq!(m.l1_installs(), 1);
    }
}
