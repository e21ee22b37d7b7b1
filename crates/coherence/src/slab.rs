//! Flat, allocation-recycling containers for the per-block hot path.
//!
//! The L1 controllers track a handful of in-flight blocks at a time
//! (bounded by the MSHR count plus a few transient buffers). Hash maps are
//! the wrong tool at that scale: every lookup hashes a key and chases a
//! bucket, every transaction allocates and frees a `Vec`, and the map's
//! control words evict useful cache lines. The containers here replace
//! them with small flat arrays — lookups are a short linear scan over a
//! dense `u64` key column, and [`MshrTable`] recycles its per-slot request
//! vectors so steady-state transaction turnover performs no heap
//! allocation at all.

/// Key marking a free [`MshrTable`] slot (no real block is all-ones: block
/// addresses are block-aligned physical addresses).
const FREE: u64 = u64::MAX;

/// A fixed-capacity MSHR table: one slot per outstanding transaction,
/// keyed by block address.
///
/// Capacity is the architectural MSHR count, so occupancy checks are
/// structural (`is_full`) rather than a map-length comparison, and slot
/// request vectors live for the table's lifetime — a completed
/// transaction's vector is cleared and reused by the next one.
#[derive(Debug)]
pub(crate) struct MshrTable<V> {
    blocks: Vec<u64>,
    reqs: Vec<Vec<V>>,
    used: usize,
}

impl<V> MshrTable<V> {
    pub(crate) fn new(capacity: usize) -> Self {
        MshrTable {
            blocks: vec![FREE; capacity],
            reqs: (0..capacity).map(|_| Vec::new()).collect(),
            used: 0,
        }
    }

    /// Architectural capacity (slot count).
    pub(crate) fn capacity(&self) -> usize {
        self.blocks.len()
    }

    /// Number of occupied slots (outstanding transactions).
    pub(crate) fn len(&self) -> usize {
        self.used
    }

    /// Whether every slot is occupied.
    pub(crate) fn is_full(&self) -> bool {
        self.used == self.blocks.len()
    }

    /// Overwrites `self` with `src`'s contents, reusing every per-slot
    /// request buffer's allocation (undo frames call this in a loop).
    pub(crate) fn copy_from(&mut self, src: &Self)
    where
        V: Clone,
    {
        self.blocks.clone_from(&src.blocks);
        self.used = src.used;
        if self.reqs.len() != src.reqs.len() {
            self.reqs.resize_with(src.reqs.len(), Vec::new);
        }
        for (dst, s) in self.reqs.iter_mut().zip(&src.reqs) {
            dst.clone_from(s);
        }
    }

    /// Approximate heap footprint of live contents, for undo-cost
    /// profiling.
    pub(crate) fn approx_bytes(&self) -> u64 {
        (self.blocks.len() * std::mem::size_of::<u64>()
            + self
                .reqs
                .iter()
                .map(|r| r.len() * std::mem::size_of::<V>())
                .sum::<usize>()) as u64
    }

    fn pos(&self, block: u64) -> Option<usize> {
        debug_assert_ne!(block, FREE);
        self.blocks.iter().position(|&b| b == block)
    }

    /// Whether `block` has an outstanding transaction.
    pub(crate) fn contains(&self, block: u64) -> bool {
        self.pos(block).is_some()
    }

    /// The queued requests of `block`'s transaction, if one is open.
    pub(crate) fn get(&self, block: u64) -> Option<&[V]> {
        self.pos(block).map(|i| self.reqs[i].as_slice())
    }

    /// The queued requests of `block`'s transaction, if one is open.
    pub(crate) fn get_mut(&mut self, block: u64) -> Option<&mut Vec<V>> {
        self.pos(block).map(|i| &mut self.reqs[i])
    }

    /// Opens a transaction on `block` with `primary` as its first request.
    ///
    /// # Panics
    ///
    /// Panics if the table is full or `block` already has a slot — callers
    /// gate on [`is_full`](Self::is_full) / merge via
    /// [`get_mut`](Self::get_mut) first.
    pub(crate) fn insert(&mut self, block: u64, primary: V) {
        debug_assert!(!self.contains(block), "duplicate MSHR allocation");
        let i = self
            .blocks
            .iter()
            .position(|&b| b == FREE)
            .expect("MSHR table full");
        self.blocks[i] = block;
        debug_assert!(self.reqs[i].is_empty());
        self.reqs[i].push(primary);
        self.used += 1;
    }

    /// Closes `block`'s transaction, draining its queued requests into
    /// `out` (appended in queue order). The slot's vector stays allocated
    /// for reuse. Returns whether a transaction existed.
    pub(crate) fn take_into(&mut self, block: u64, out: &mut Vec<V>) -> bool {
        match self.pos(block) {
            Some(i) => {
                self.blocks[i] = FREE;
                out.append(&mut self.reqs[i]);
                self.used -= 1;
                true
            }
            None => false,
        }
    }

    /// Occupied slots as `(block, queued requests)`, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &[V])> {
        self.blocks
            .iter()
            .zip(&self.reqs)
            .filter(|(&b, _)| b != FREE)
            .map(|(&b, r)| (b, r.as_slice()))
    }
}

/// A small block-keyed map backed by a flat vector.
///
/// Used for the transient side buffers (writeback buffer, installing
/// buffer) that hold at most a few entries: a linear scan over a dense
/// key/value vector beats hashing at this size, and the vector's
/// allocation is reused across the run.
#[derive(Debug, Default)]
pub(crate) struct BlockMap<V> {
    entries: Vec<(u64, V)>,
}

impl<V> BlockMap<V> {
    pub(crate) fn new() -> Self {
        BlockMap {
            entries: Vec::new(),
        }
    }

    pub(crate) fn get(&self, block: u64) -> Option<&V> {
        self.entries
            .iter()
            .find(|(b, _)| *b == block)
            .map(|(_, v)| v)
    }

    pub(crate) fn get_mut(&mut self, block: u64) -> Option<&mut V> {
        self.entries
            .iter_mut()
            .find(|(b, _)| *b == block)
            .map(|(_, v)| v)
    }

    /// Inserts or replaces `block`'s entry.
    pub(crate) fn insert(&mut self, block: u64, value: V) {
        match self.get_mut(block) {
            Some(slot) => *slot = value,
            None => self.entries.push((block, value)),
        }
    }

    /// Removes and returns `block`'s entry. Order of the remaining
    /// entries is preserved (iteration order stays insertion order, which
    /// keeps diagnostics and digests deterministic).
    pub(crate) fn remove(&mut self, block: u64) -> Option<V> {
        let i = self.entries.iter().position(|(b, _)| *b == block)?;
        Some(self.entries.remove(i).1)
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.entries.iter().map(|(b, v)| (*b, v))
    }

    /// Overwrites `self` with `src`'s contents, reusing the entry vector's
    /// allocation.
    pub(crate) fn copy_from(&mut self, src: &Self)
    where
        V: Clone,
    {
        self.entries.clone_from(&src.entries);
    }

    /// Approximate heap footprint, for undo-cost profiling.
    pub(crate) fn approx_bytes(&self) -> u64 {
        (self.entries.len() * std::mem::size_of::<(u64, V)>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mshr_slots_recycle_their_vectors() {
        let mut t: MshrTable<u32> = MshrTable::new(2);
        assert_eq!(t.capacity(), 2);
        t.insert(0x40, 1);
        t.get_mut(0x40).unwrap().push(2);
        t.insert(0x80, 3);
        assert!(t.is_full());
        assert!(t.contains(0x40));
        let mut out = Vec::new();
        assert!(t.take_into(0x40, &mut out));
        assert_eq!(out, vec![1, 2]);
        assert_eq!(t.len(), 1);
        assert!(!t.take_into(0x40, &mut out), "already closed");
        // The freed slot is reusable.
        t.insert(0xC0, 4);
        assert!(t.is_full());
        let entries: Vec<(u64, &[u32])> = t.iter().collect();
        assert_eq!(entries.len(), 2);
    }

    #[test]
    #[should_panic(expected = "MSHR table full")]
    fn mshr_overflow_panics() {
        let mut t: MshrTable<u32> = MshrTable::new(1);
        t.insert(0x40, 1);
        t.insert(0x80, 2);
    }

    #[test]
    fn block_map_basics() {
        let mut m: BlockMap<&str> = BlockMap::new();
        assert!(m.get(0x40).is_none());
        m.insert(0x40, "a");
        m.insert(0x80, "b");
        m.insert(0x40, "a2");
        assert_eq!(m.get(0x40), Some(&"a2"));
        *m.get_mut(0x80).unwrap() = "b2";
        assert_eq!(m.remove(0x80), Some("b2"));
        assert_eq!(m.remove(0x80), None);
        assert_eq!(m.iter().count(), 1);
    }
}
