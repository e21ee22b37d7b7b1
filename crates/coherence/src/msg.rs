//! Coherence messages (paper Table III).

use std::fmt;

use swiftdir_mmu::PhysAddr;

use crate::hierarchy::{RequestId, ServedFrom};
use crate::state::LlcState;

/// A coherence message in flight between controllers.
///
/// `GETS_WP` is the only request SwiftDir introduces (Table III): a `GETS`
/// carrying the MMU's write-protection bit as an argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Msg {
    // ---- L1 → LLC requests ------------------------------------------------
    /// L1 load miss.
    Gets {
        /// Requesting core.
        core: usize,
        /// Block base address.
        addr: PhysAddr,
        /// The core request this serves.
        req: RequestId,
    },
    /// L1 load miss on write-protected data (SwiftDir only).
    GetsWp {
        /// Requesting core.
        core: usize,
        /// Block base address.
        addr: PhysAddr,
        /// The core request this serves.
        req: RequestId,
    },
    /// L1 store miss (needs ownership and data).
    Getx {
        /// Requesting core.
        core: usize,
        /// Block base address.
        addr: PhysAddr,
        /// The core request this serves.
        req: RequestId,
    },
    /// Ownership upgrade for a line the L1 already holds (S→M always;
    /// E→M under S-MESI's revoked silent upgrade).
    Upgrade {
        /// Requesting core.
        core: usize,
        /// Block base address.
        addr: PhysAddr,
        /// The core request this serves.
        req: RequestId,
    },
    /// Clean writeback / eviction notice for an E or S line.
    WbDataClean {
        /// Evicting core.
        core: usize,
        /// Block base address.
        addr: PhysAddr,
    },
    /// Dirty writeback of an M line.
    WbDataDirty {
        /// Evicting core.
        core: usize,
        /// Block base address.
        addr: PhysAddr,
        /// The block's (modelled) contents.
        data: u64,
    },
    /// Requester signals it received `Data`; LLC may unblock the line.
    Unblock {
        /// Requesting core.
        core: usize,
        /// Block base address.
        addr: PhysAddr,
    },
    /// Requester signals it received `Data_Exclusive`.
    ExclusiveUnblock {
        /// Requesting core.
        core: usize,
        /// Block base address.
        addr: PhysAddr,
    },
    /// Sharer acknowledges an invalidation.
    InvAck {
        /// Acknowledging core.
        core: usize,
        /// Block base address.
        addr: PhysAddr,
        /// Whether the invalidated line was dirty (M); carries data.
        dirty: bool,
        /// The block's contents when `dirty` (ignored otherwise).
        data: u64,
    },

    // ---- LLC → L1 ----------------------------------------------------------
    /// LLC sends data without exclusivity (line becomes S).
    Data {
        /// Block base address.
        addr: PhysAddr,
        /// The request this responds to.
        req: RequestId,
        /// LLC directory state when the request was handled.
        llc_was: LlcState,
        /// Where the data came from.
        source: ServedFrom,
        /// The block's (modelled) contents.
        data: u64,
    },
    /// LLC sends data with exclusivity (line becomes E, or M for stores).
    DataExclusive {
        /// Block base address.
        addr: PhysAddr,
        /// The request this responds to.
        req: RequestId,
        /// Whether the grant answers a store (line enters M, not E).
        for_store: bool,
        /// LLC directory state when the request was handled.
        llc_was: LlcState,
        /// Where the data came from.
        source: ServedFrom,
        /// The block's (modelled) contents.
        data: u64,
    },
    /// LLC forwards a load request to the owning core.
    FwdGets {
        /// Core that should supply the data.
        requester: usize,
        /// Block base address.
        addr: PhysAddr,
        /// The forwarded request id.
        req: RequestId,
        /// LLC directory state when the request was handled.
        llc_was: LlcState,
    },
    /// LLC forwards a store request to the owning core (owner invalidates).
    FwdGetx {
        /// Core that should receive ownership and data.
        requester: usize,
        /// Block base address.
        addr: PhysAddr,
        /// The forwarded request id.
        req: RequestId,
        /// LLC directory state when the request was handled.
        llc_was: LlcState,
    },
    /// LLC tells a sharer to invalidate.
    Inv {
        /// Block base address.
        addr: PhysAddr,
    },
    /// LLC acknowledges an `Upgrade` (ownership granted).
    UpgradeAck {
        /// Block base address.
        addr: PhysAddr,
        /// The request this responds to.
        req: RequestId,
        /// LLC directory state when the request was handled.
        llc_was: LlcState,
    },
    /// LLC acknowledges a dirty/clean writeback (the L1 may drop the line).
    WbAck {
        /// Block base address.
        addr: PhysAddr,
    },

    // ---- L1 → L1 -----------------------------------------------------------
    /// Owner supplies data to a remote requester (three-hop load).
    DataFromOwner {
        /// Block base address.
        addr: PhysAddr,
        /// The request this responds to.
        req: RequestId,
        /// Whether the line transfers ownership for a store.
        for_store: bool,
        /// LLC directory state when the request was forwarded.
        llc_was: LlcState,
        /// The block's (modelled) contents.
        data: u64,
    },
}

impl Msg {
    /// The block address this message concerns.
    pub fn addr(&self) -> PhysAddr {
        match *self {
            Msg::Gets { addr, .. }
            | Msg::GetsWp { addr, .. }
            | Msg::Getx { addr, .. }
            | Msg::Upgrade { addr, .. }
            | Msg::WbDataClean { addr, .. }
            | Msg::WbDataDirty { addr, .. }
            | Msg::Unblock { addr, .. }
            | Msg::ExclusiveUnblock { addr, .. }
            | Msg::InvAck { addr, .. }
            | Msg::Data { addr, .. }
            | Msg::DataExclusive { addr, .. }
            | Msg::FwdGets { addr, .. }
            | Msg::FwdGetx { addr, .. }
            | Msg::Inv { addr }
            | Msg::UpgradeAck { addr, .. }
            | Msg::WbAck { addr }
            | Msg::DataFromOwner { addr, .. } => addr,
        }
    }

    /// The core a request-side message names (requester, evicting, or
    /// acknowledging core); `None` for LLC-originated messages.
    pub fn core(&self) -> Option<usize> {
        match *self {
            Msg::Gets { core, .. }
            | Msg::GetsWp { core, .. }
            | Msg::Getx { core, .. }
            | Msg::Upgrade { core, .. }
            | Msg::WbDataClean { core, .. }
            | Msg::WbDataDirty { core, .. }
            | Msg::Unblock { core, .. }
            | Msg::ExclusiveUnblock { core, .. }
            | Msg::InvAck { core, .. } => Some(core),
            Msg::FwdGets { requester, .. } | Msg::FwdGetx { requester, .. } => Some(requester),
            _ => None,
        }
    }

    /// The core request this message serves, if it names one.
    pub fn req(&self) -> Option<RequestId> {
        match *self {
            Msg::Gets { req, .. }
            | Msg::GetsWp { req, .. }
            | Msg::Getx { req, .. }
            | Msg::Upgrade { req, .. }
            | Msg::Data { req, .. }
            | Msg::DataExclusive { req, .. }
            | Msg::FwdGets { req, .. }
            | Msg::FwdGetx { req, .. }
            | Msg::UpgradeAck { req, .. }
            | Msg::DataFromOwner { req, .. } => Some(req),
            _ => None,
        }
    }

    /// The Table III event class of this message, for statistics.
    pub fn event(&self) -> CoherenceEvent {
        match self {
            Msg::Gets { .. } => CoherenceEvent::Gets,
            Msg::GetsWp { .. } => CoherenceEvent::GetsWp,
            Msg::Getx { .. } => CoherenceEvent::Getx,
            Msg::Upgrade { .. } => CoherenceEvent::Upgrade,
            Msg::WbDataClean { .. } => CoherenceEvent::WbDataClean,
            Msg::WbDataDirty { .. } => CoherenceEvent::WbDataDirty,
            Msg::Unblock { .. } => CoherenceEvent::Unblock,
            Msg::ExclusiveUnblock { .. } => CoherenceEvent::ExclusiveUnblock,
            Msg::InvAck { .. } => CoherenceEvent::Ack,
            Msg::Data { .. } => CoherenceEvent::Data,
            Msg::DataExclusive { .. } => CoherenceEvent::DataExclusive,
            Msg::FwdGets { .. } => CoherenceEvent::FwdGets,
            Msg::FwdGetx { .. } => CoherenceEvent::FwdGetx,
            Msg::Inv { .. } => CoherenceEvent::Inv,
            Msg::UpgradeAck { .. } => CoherenceEvent::Ack,
            Msg::WbAck { .. } => CoherenceEvent::Ack,
            Msg::DataFromOwner { .. } => CoherenceEvent::DataFromOwner,
        }
    }
}

/// Table III's coherence event classes, used as statistics keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CoherenceEvent {
    /// Core load presented to the L1.
    Load,
    /// Core store presented to the L1.
    Store,
    /// `GETS`: L1 loads data from LLC.
    Gets,
    /// `GETS_WP`: L1 reads write-protected data from LLC (SwiftDir).
    GetsWp,
    /// `GETX`: L1 fetches data with ownership.
    Getx,
    /// `Upgrade`: L1 asks for write permission.
    Upgrade,
    /// `WB_Data_Clean`: clean writeback.
    WbDataClean,
    /// Dirty writeback.
    WbDataDirty,
    /// `Unblock`.
    Unblock,
    /// `Exclusive_Unblock`.
    ExclusiveUnblock,
    /// `Data`: LLC→L1 data without exclusivity.
    Data,
    /// `Data_Exclusive`.
    DataExclusive,
    /// `Fwd_GETS`: LLC forwards a load to the owner.
    FwdGets,
    /// Forwarded store.
    FwdGetx,
    /// Invalidation command.
    Inv,
    /// `Data_From_Owner`: L1→L1 transfer.
    DataFromOwner,
    /// Generic acknowledgement (`ACK`).
    Ack,
    /// `Fetch`: LLC reads from memory.
    Fetch,
    /// `Mem_Data`: memory returns data to LLC.
    MemData,
}

impl CoherenceEvent {
    /// All event classes, for iterating stats tables.
    pub const ALL: [CoherenceEvent; 19] = [
        CoherenceEvent::Load,
        CoherenceEvent::Store,
        CoherenceEvent::Gets,
        CoherenceEvent::GetsWp,
        CoherenceEvent::Getx,
        CoherenceEvent::Upgrade,
        CoherenceEvent::WbDataClean,
        CoherenceEvent::WbDataDirty,
        CoherenceEvent::Unblock,
        CoherenceEvent::ExclusiveUnblock,
        CoherenceEvent::Data,
        CoherenceEvent::DataExclusive,
        CoherenceEvent::FwdGets,
        CoherenceEvent::FwdGetx,
        CoherenceEvent::Inv,
        CoherenceEvent::DataFromOwner,
        CoherenceEvent::Ack,
        CoherenceEvent::Fetch,
        CoherenceEvent::MemData,
    ];

    /// The Table III display name as a static string (tracer/metrics key).
    pub fn name(self) -> &'static str {
        match self {
            CoherenceEvent::Load => "Load",
            CoherenceEvent::Store => "Store",
            CoherenceEvent::Gets => "GETS",
            CoherenceEvent::GetsWp => "GETS_WP",
            CoherenceEvent::Getx => "GETX",
            CoherenceEvent::Upgrade => "Upgrade",
            CoherenceEvent::WbDataClean => "WB_Data_Clean",
            CoherenceEvent::WbDataDirty => "WB_Data_Dirty",
            CoherenceEvent::Unblock => "Unblock",
            CoherenceEvent::ExclusiveUnblock => "Exclusive_Unblock",
            CoherenceEvent::Data => "Data",
            CoherenceEvent::DataExclusive => "Data_Exclusive",
            CoherenceEvent::FwdGets => "Fwd_GETS",
            CoherenceEvent::FwdGetx => "Fwd_GETX",
            CoherenceEvent::Inv => "Inv",
            CoherenceEvent::DataFromOwner => "Data_From_Owner",
            CoherenceEvent::Ack => "ACK",
            CoherenceEvent::Fetch => "Fetch",
            CoherenceEvent::MemData => "Mem_Data",
        }
    }
}

impl fmt::Display for CoherenceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Flat per-event-class counters.
///
/// This replaces a `CoherenceEvent → u64` hash map on the per-message hot
/// path: counting an event is a single indexed add (the enum discriminant
/// is the index), and merging two counter sets is a fixed-width loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventCounts([u64; CoherenceEvent::ALL.len()]);

impl Default for EventCounts {
    fn default() -> Self {
        EventCounts([0; CoherenceEvent::ALL.len()])
    }
}

impl EventCounts {
    /// Counts one occurrence of `e`.
    #[inline]
    pub fn bump(&mut self, e: CoherenceEvent) {
        self.0[e as usize] += 1;
    }

    /// Reverses one [`bump`](Self::bump) of `e` (undo-log replay).
    pub(crate) fn unbump(&mut self, e: CoherenceEvent) {
        self.0[e as usize] -= 1;
    }

    /// Adds `n` occurrences of `e`.
    #[inline]
    pub fn add(&mut self, e: CoherenceEvent, n: u64) {
        self.0[e as usize] += n;
    }

    /// Count of `e`.
    #[inline]
    pub fn get(&self, e: CoherenceEvent) -> u64 {
        self.0[e as usize]
    }

    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: &EventCounts) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a += b;
        }
    }

    /// The event classes with a non-zero count, in [`CoherenceEvent::ALL`]
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (CoherenceEvent, u64)> + '_ {
        CoherenceEvent::ALL
            .iter()
            .map(move |&e| (e, self.0[e as usize]))
            .filter(|&(_, n)| n > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_extraction() {
        let m = Msg::Gets {
            core: 1,
            addr: PhysAddr(0x40),
            req: 0,
        };
        assert_eq!(m.addr(), PhysAddr(0x40));
        let m = Msg::Inv {
            addr: PhysAddr(0x80),
        };
        assert_eq!(m.addr(), PhysAddr(0x80));
    }

    #[test]
    fn event_classification() {
        let wp = Msg::GetsWp {
            core: 0,
            addr: PhysAddr(0),
            req: 0,
        };
        assert_eq!(wp.event(), CoherenceEvent::GetsWp);
        assert_eq!(wp.event().to_string(), "GETS_WP");
        let ack = Msg::WbAck { addr: PhysAddr(0) };
        assert_eq!(ack.event(), CoherenceEvent::Ack);
    }

    #[test]
    fn all_events_have_unique_names() {
        let names: std::collections::HashSet<String> =
            CoherenceEvent::ALL.iter().map(|e| e.to_string()).collect();
        assert_eq!(names.len(), CoherenceEvent::ALL.len());
    }
}
