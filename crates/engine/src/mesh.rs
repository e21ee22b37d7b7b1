//! 2D mesh network-on-chip placement and hop-latency model.
//!
//! Tiles are laid out row-major on the smallest square grid that holds
//! every endpoint: cores first (tile `0..cores`), then directory banks
//! (tile `cores..cores+banks`). A message between two endpoints pays the
//! Manhattan hop count between their tiles times the per-hop latency —
//! XY-routed meshes deliver over exactly that many links, and the model
//! only needs delivery *time*, not per-router occupancy.
//!
//! With `hop_latency == 0` the mesh is a zero-cost crossbar and the
//! calibrated point-to-point latencies (`LatencyConfig` in the
//! coherence crate) stand unchanged; a nonzero hop latency adds a
//! deterministic, placement-dependent extra on top of them.

/// One endpoint on the mesh: a core's L1 or a directory bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MeshEndpoint {
    /// Core `n`'s private L1.
    Core(usize),
    /// Address-sharded LLC/directory bank `n`.
    Bank(usize),
}

/// A 2D mesh placement of `cores + banks` tiles.
///
/// `Copy` on purpose: the struct is three words and is consulted on
/// every message send, so callers keep it by value next to the latency
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshTopology {
    cores: usize,
    side: usize,
    hop_latency: u64,
}

impl MeshTopology {
    /// Places `cores` L1 tiles and `banks` directory-bank tiles on the
    /// smallest square mesh that holds them all.
    pub fn new(cores: usize, banks: usize, hop_latency: u64) -> Self {
        let tiles = cores + banks;
        let mut side = 1usize;
        while side * side < tiles {
            side += 1;
        }
        MeshTopology {
            cores,
            side,
            hop_latency,
        }
    }

    /// Grid side length (the mesh is `side × side`).
    pub fn side(&self) -> usize {
        self.side
    }

    /// Per-hop link latency in cycles.
    pub fn hop_latency(&self) -> u64 {
        self.hop_latency
    }

    /// Row-major tile index of an endpoint.
    fn tile(&self, e: MeshEndpoint) -> usize {
        match e {
            MeshEndpoint::Core(c) => c,
            MeshEndpoint::Bank(b) => self.cores + b,
        }
    }

    /// `(x, y)` coordinates of an endpoint's tile.
    pub fn coords(&self, e: MeshEndpoint) -> (usize, usize) {
        let t = self.tile(e);
        (t % self.side, t / self.side)
    }

    /// Manhattan hop count between two endpoints (0 when co-located).
    pub fn hops(&self, src: MeshEndpoint, dst: MeshEndpoint) -> u64 {
        let (sx, sy) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        (sx.abs_diff(dx) + sy.abs_diff(dy)) as u64
    }

    /// Extra delivery latency over the `src → dst` route.
    #[inline]
    pub fn route_extra(&self, src: MeshEndpoint, dst: MeshEndpoint) -> u64 {
        if self.hop_latency == 0 {
            return 0; // zero-cost crossbar: skip the coordinate math
        }
        self.hops(src, dst) * self.hop_latency
    }

    /// Stable per-link jitter channel key for an endpoint. Core `c`
    /// encodes as `c + 1` and bank `b` as `b << 32`, so bank 0 keeps the
    /// legacy "the LLC" encoding (`0`) from the pre-sharded hierarchy
    /// and single-bank runs keep their jitter streams bit-identical.
    pub fn link_code(e: MeshEndpoint) -> u64 {
        match e {
            MeshEndpoint::Core(c) => c as u64 + 1,
            MeshEndpoint::Bank(b) => (b as u64) << 32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_row_major_on_the_smallest_square() {
        let m = MeshTopology::new(4, 2, 1);
        assert_eq!(m.side(), 3); // 6 tiles -> 3x3
        assert_eq!(m.coords(MeshEndpoint::Core(0)), (0, 0));
        assert_eq!(m.coords(MeshEndpoint::Core(2)), (2, 0));
        assert_eq!(m.coords(MeshEndpoint::Bank(0)), (1, 1));
        assert_eq!(m.coords(MeshEndpoint::Bank(1)), (2, 1));
    }

    #[test]
    fn hops_are_manhattan_and_symmetric() {
        let m = MeshTopology::new(64, 8, 2);
        assert_eq!(m.side(), 9); // 72 tiles -> 9x9
        for (a, b) in [
            (MeshEndpoint::Core(0), MeshEndpoint::Bank(7)),
            (MeshEndpoint::Core(63), MeshEndpoint::Bank(0)),
            (MeshEndpoint::Core(5), MeshEndpoint::Core(50)),
        ] {
            assert_eq!(m.hops(a, b), m.hops(b, a));
            assert_eq!(m.route_extra(a, b), m.hops(a, b) * 2);
        }
        assert_eq!(m.hops(MeshEndpoint::Core(3), MeshEndpoint::Core(3)), 0);
    }

    #[test]
    fn zero_hop_latency_is_a_free_crossbar() {
        let m = MeshTopology::new(8, 4, 0);
        assert_eq!(
            m.route_extra(MeshEndpoint::Core(7), MeshEndpoint::Bank(3)),
            0
        );
    }

    #[test]
    fn bank_zero_keeps_the_legacy_link_code() {
        assert_eq!(MeshTopology::link_code(MeshEndpoint::Bank(0)), 0);
        assert_eq!(MeshTopology::link_code(MeshEndpoint::Core(0)), 1);
        assert_ne!(
            MeshTopology::link_code(MeshEndpoint::Bank(1)),
            MeshTopology::link_code(MeshEndpoint::Core(1))
        );
    }
}
