//! A set-associative cache array generic over per-line state.

use std::hash::{Hash, Hasher};

use sim_engine::FxHasher;

use crate::geometry::CacheGeometry;
use crate::replacement::{choose_victim, ReplacementPolicy};

/// A line pushed out by [`CacheArray::insert`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictedLine<S> {
    /// Block base address of the evicted line.
    pub addr: u64,
    /// Its state at eviction (the coherence controller decides whether a
    /// writeback is needed).
    pub state: S,
}

#[derive(Debug, Clone)]
struct Line<S> {
    tag: u64,
    state: S,
    last_use: u64,
    inserted: u64,
}

/// One journaled mutation record: a full snapshot of a set (plus the
/// array-global tick and replacement RNG) taken just before the mutation.
/// Restoring entries in reverse order rewinds the array exactly.
#[derive(Debug, Clone)]
struct SetSave<S> {
    index: usize,
    tick: u64,
    rng_state: u64,
    lines: Vec<Line<S>>,
}

/// An undo journal of pre-mutation set snapshots; see
/// [`CacheArray::enable_journal`]. Entries past `live` are retired but keep
/// their line buffers allocated for reuse.
#[derive(Debug, Clone)]
struct Journal<S> {
    entries: Vec<SetSave<S>>,
    live: usize,
}

impl<S> Default for Journal<S> {
    fn default() -> Self {
        Journal {
            entries: Vec::new(),
            live: 0,
        }
    }
}

/// A set-associative array mapping block addresses to caller-defined line
/// state `S` (coherence states, metadata, ...).
///
/// Addresses are raw `u64`s; callers pass physical or virtual addresses as
/// their indexing scheme requires. All operations work on the *block*
/// containing the given address.
///
/// # Example
///
/// ```
/// use swiftdir_cache::{CacheArray, CacheGeometry, ReplacementPolicy};
///
/// let mut c: CacheArray<u32> = CacheArray::new(
///     CacheGeometry::new(1024, 2, 64),
///     ReplacementPolicy::Lru,
/// );
/// c.insert(0x00, 1);
/// c.insert(0x40, 2);
/// assert_eq!(c.get(0x44), Some(&2), "same block as 0x40");
/// ```
#[derive(Debug, Clone)]
pub struct CacheArray<S> {
    geom: CacheGeometry,
    policy: ReplacementPolicy,
    sets: Vec<Vec<Line<S>>>,
    tick: u64,
    rng_state: u64,
    /// Per-set content hashes (valid only where `dirty` is clear) and the
    /// XOR of all *clean* sets' hashes. Empty sets hash to 0, so the XOR
    /// over clean hashes equals the XOR over clean non-empty sets.
    set_hashes: Vec<u64>,
    dirty: Vec<bool>,
    dirty_list: Vec<u32>,
    rolling: u64,
    /// When present, every mutation snapshots its set first; see
    /// [`enable_journal`](Self::enable_journal). Boxed so the common
    /// non-journaling array pays one pointer.
    journal: Option<Box<Journal<S>>>,
}

impl<S> CacheArray<S> {
    /// An empty array with the given geometry and policy.
    pub fn new(geom: CacheGeometry, policy: ReplacementPolicy) -> Self {
        let num_sets = geom.num_sets() as usize;
        let sets = (0..num_sets).map(|_| Vec::new()).collect();
        CacheArray {
            geom,
            policy,
            sets,
            tick: 0,
            rng_state: 0x9E37_79B9_7F4A_7C15,
            set_hashes: vec![0; num_sets],
            dirty: vec![false; num_sets],
            dirty_list: Vec::new(),
            rolling: 0,
            journal: None,
        }
    }

    /// Marks a set's cached content hash stale, removing its contribution
    /// from the rolling XOR until [`content_digest`](Self::content_digest)
    /// recomputes it.
    #[inline]
    fn mark_dirty(&mut self, index: usize) {
        if !self.dirty[index] {
            self.dirty[index] = true;
            self.rolling ^= self.set_hashes[index];
            self.dirty_list.push(index as u32);
        }
    }

    /// Snapshots `index`'s set (and the global tick/RNG) into the journal,
    /// if journaling is on. Called before every mutation.
    #[inline]
    fn journal_save(&mut self, index: usize)
    where
        S: Clone,
    {
        let Some(journal) = self.journal.as_deref_mut() else {
            return;
        };
        if journal.live == journal.entries.len() {
            journal.entries.push(SetSave {
                index: 0,
                tick: 0,
                rng_state: 0,
                lines: Vec::new(),
            });
        }
        let save = &mut journal.entries[journal.live];
        journal.live += 1;
        save.index = index;
        save.tick = self.tick;
        save.rng_state = self.rng_state;
        save.lines.clone_from(&self.sets[index]);
    }

    /// The geometry in use.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// Looks up the block containing `addr`, refreshing recency on hit.
    pub fn get(&mut self, addr: u64) -> Option<&S>
    where
        S: Clone,
    {
        let index = self.geom.index_of(addr) as usize;
        self.journal_save(index);
        self.tick += 1;
        let tick = self.tick;
        let tag = self.geom.tag_of(addr);
        let pos = self.sets[index].iter().position(|l| l.tag == tag)?;
        self.mark_dirty(index);
        let l = &mut self.sets[index][pos];
        l.last_use = tick;
        Some(&l.state)
    }

    /// Mutable lookup, refreshing recency on hit.
    pub fn get_mut(&mut self, addr: u64) -> Option<&mut S>
    where
        S: Clone,
    {
        let index = self.geom.index_of(addr) as usize;
        self.journal_save(index);
        self.tick += 1;
        let tick = self.tick;
        let tag = self.geom.tag_of(addr);
        let pos = self.sets[index].iter().position(|l| l.tag == tag)?;
        self.mark_dirty(index);
        let l = &mut self.sets[index][pos];
        l.last_use = tick;
        Some(&mut l.state)
    }

    /// Looks up without touching recency (for probes/assertions).
    pub fn peek(&self, addr: u64) -> Option<&S> {
        let tag = self.geom.tag_of(addr);
        let set = &self.sets[self.geom.index_of(addr) as usize];
        set.iter().find(|l| l.tag == tag).map(|l| &l.state)
    }

    /// Inserts (or replaces) the block containing `addr`, returning the
    /// victim when the set was full.
    pub fn insert(&mut self, addr: u64, state: S) -> Option<EvictedLine<S>>
    where
        S: Clone,
    {
        let index = self.geom.index_of(addr);
        self.journal_save(index as usize);
        self.mark_dirty(index as usize);
        self.tick += 1;
        let tick = self.tick;
        let tag = self.geom.tag_of(addr);
        let assoc = self.geom.associativity() as usize;
        let set = &mut self.sets[index as usize];

        if let Some(line) = set.iter_mut().find(|l| l.tag == tag) {
            line.state = state;
            line.last_use = tick;
            return None;
        }

        let mut evicted = None;
        if set.len() == assoc {
            let meta: Vec<(u64, u64)> = set.iter().map(|l| (l.last_use, l.inserted)).collect();
            let victim = choose_victim(self.policy, &meta, &mut self.rng_state);
            let line = set.swap_remove(victim);
            evicted = Some(EvictedLine {
                addr: self.geom.address_of(line.tag, index),
                state: line.state,
            });
        }
        set.push(Line {
            tag,
            state,
            last_use: tick,
            inserted: tick,
        });
        evicted
    }

    /// Removes the block containing `addr`, returning its state.
    pub fn invalidate(&mut self, addr: u64) -> Option<S>
    where
        S: Clone,
    {
        let index = self.geom.index_of(addr) as usize;
        let tag = self.geom.tag_of(addr);
        let pos = self.sets[index].iter().position(|l| l.tag == tag)?;
        self.journal_save(index);
        self.mark_dirty(index);
        Some(self.sets[index].swap_remove(pos).state)
    }

    /// Whether the set for `addr` still has a free way (an insert would not
    /// evict).
    pub fn set_has_free_way(&self, addr: u64) -> bool {
        self.sets[self.geom.index_of(addr) as usize].len() < self.geom.associativity() as usize
    }

    /// Chooses a victim in `addr`'s set according to the replacement policy,
    /// considering only lines for which `eligible` returns true (coherence
    /// controllers pass "is in a stable state"). Returns the victim's block
    /// address without removing it, or `None` if no line is eligible.
    pub fn choose_victim<F: Fn(&S) -> bool>(&mut self, addr: u64, eligible: F) -> Option<u64>
    where
        S: Clone,
    {
        let index = self.geom.index_of(addr);
        // Journal the RNG draw (set contents are untouched, but the
        // replacement RNG advances and must rewind with everything else).
        self.journal_save(index as usize);
        let set = &self.sets[index as usize];
        let candidates: Vec<(usize, (u64, u64))> = set
            .iter()
            .enumerate()
            .filter(|(_, l)| eligible(&l.state))
            .map(|(i, l)| (i, (l.last_use, l.inserted)))
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let meta: Vec<(u64, u64)> = candidates.iter().map(|&(_, m)| m).collect();
        let pick = choose_victim(self.policy, &meta, &mut self.rng_state);
        let way = candidates[pick].0;
        Some(self.geom.address_of(set[way].tag, index))
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Canonical view for state hashing: `(block_addr, lru_rank, fifo_rank,
    /// &state)` for every resident line, sorted by address. Ranks are the
    /// per-set orders of `last_use` / insertion time — the only recency
    /// information replacement decisions depend on — so two arrays that
    /// behave identically going forward yield identical views even when
    /// their absolute access-tick histories differ.
    pub fn canonical_lines(&self) -> Vec<(u64, u64, u64, &S)> {
        let mut out = Vec::with_capacity(self.len());
        for (index, set) in self.sets.iter().enumerate() {
            let mut lru: Vec<u64> = set.iter().map(|l| l.last_use).collect();
            lru.sort_unstable();
            let mut fifo: Vec<u64> = set.iter().map(|l| l.inserted).collect();
            fifo.sort_unstable();
            for l in set {
                let lru_rank = lru.iter().position(|&t| t == l.last_use).expect("own tick") as u64;
                let fifo_rank = fifo
                    .iter()
                    .position(|&t| t == l.inserted)
                    .expect("own tick") as u64;
                out.push((
                    self.geom.address_of(l.tag, index as u64),
                    lru_rank,
                    fifo_rank,
                    &l.state,
                ));
            }
        }
        out.sort_by_key(|&(a, ..)| a);
        out
    }

    /// Iterates over `(block_address, state)` for all resident lines.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &S)> {
        self.sets.iter().enumerate().flat_map(move |(index, set)| {
            set.iter()
                .map(move |l| (self.geom.address_of(l.tag, index as u64), &l.state))
        })
    }

    /// Turns on undo journaling and clears any inherited journal: from here
    /// on, every mutation ([`get`](Self::get)/[`get_mut`](Self::get_mut)
    /// recency refreshes, inserts, invalidates, and
    /// [`choose_victim`](Self::choose_victim) RNG draws) first snapshots the
    /// touched set, so [`journal_rollback`](Self::journal_rollback) can
    /// rewind the array to any earlier [`journal_mark`](Self::journal_mark).
    pub fn enable_journal(&mut self)
    where
        S: Clone,
    {
        match &mut self.journal {
            Some(j) => {
                j.live = 0;
                j.entries.clear();
            }
            None => self.journal = Some(Box::default()),
        }
    }

    /// The current journal position; pass to
    /// [`journal_rollback`](Self::journal_rollback) to rewind to this point.
    ///
    /// # Panics
    ///
    /// Panics if journaling is not enabled.
    pub fn journal_mark(&self) -> usize {
        self.journal.as_ref().expect("journaling enabled").live
    }

    /// Rewinds the array to the state it had when `mark` was taken,
    /// restoring journaled sets in reverse order. Restored sets are left
    /// dirty in the digest cache.
    pub fn journal_rollback(&mut self, mark: usize)
    where
        S: Clone,
    {
        let mut journal = self.journal.take().expect("journaling enabled");
        debug_assert!(mark <= journal.live, "rollback past the journal head");
        while journal.live > mark {
            journal.live -= 1;
            let save = &journal.entries[journal.live];
            self.mark_dirty(save.index);
            self.sets[save.index].clone_from(&save.lines);
            self.tick = save.tick;
            self.rng_state = save.rng_state;
        }
        self.journal = Some(journal);
    }

    /// Approximate heap footprint of journal entries past `mark`, for
    /// profiling undo cost.
    pub fn journal_bytes_since(&self, mark: usize) -> u64 {
        let journal = self.journal.as_ref().expect("journaling enabled");
        journal.entries[mark..journal.live]
            .iter()
            .map(|s| {
                (std::mem::size_of::<SetSave<S>>() + s.lines.len() * std::mem::size_of::<Line<S>>())
                    as u64
            })
            .sum()
    }
}

impl<S: Hash> CacheArray<S> {
    /// Content hash of one set: the set index, then every resident line in
    /// ascending-tag order as `(block_addr, lru_rank, fifo_rank, state)`.
    /// Ranks are per-set recency orders, exactly as in
    /// [`canonical_lines`](Self::canonical_lines), so the hash is invariant
    /// under global tick relabeling. Empty sets hash to 0 so they can be
    /// skipped entirely.
    fn set_hash(geom: &CacheGeometry, index: usize, set: &[Line<S>]) -> u64 {
        if set.is_empty() {
            return 0;
        }
        let mut h = FxHasher::default();
        (index as u64).hash(&mut h);
        // Selection by ascending tag; O(n²) in the associativity, which is
        // small. Ticks are unique array-wide, so count-based ranks equal the
        // position-based ranks `canonical_lines` computes.
        let mut prev: Option<u64> = None;
        for _ in 0..set.len() {
            let l = set
                .iter()
                .filter(|l| prev.is_none_or(|p| l.tag > p))
                .min_by_key(|l| l.tag)
                .expect("lines remain");
            prev = Some(l.tag);
            let lru_rank = set.iter().filter(|o| o.last_use < l.last_use).count() as u64;
            let fifo_rank = set.iter().filter(|o| o.inserted < l.inserted).count() as u64;
            geom.address_of(l.tag, index as u64).hash(&mut h);
            lru_rank.hash(&mut h);
            fifo_rank.hash(&mut h);
            l.state.hash(&mut h);
        }
        h.finish()
    }

    /// XOR of all sets' content hashes, maintained incrementally: only sets
    /// dirtied since the previous call are rehashed. Bit-identical to
    /// [`content_digest_uncached`](Self::content_digest_uncached).
    pub fn content_digest(&mut self) -> u64 {
        while let Some(i) = self.dirty_list.pop() {
            let i = i as usize;
            let h = Self::set_hash(&self.geom, i, &self.sets[i]);
            self.set_hashes[i] = h;
            self.rolling ^= h;
            self.dirty[i] = false;
        }
        self.rolling
    }

    /// Reference implementation of [`content_digest`](Self::content_digest):
    /// a full rescan of every set, ignoring the cache.
    pub fn content_digest_uncached(&self) -> u64 {
        let mut acc = 0;
        for (index, set) in self.sets.iter().enumerate() {
            acc ^= Self::set_hash(&self.geom, index, set);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheArray<u32> {
        // 2 sets x 2 ways x 64B blocks.
        CacheArray::new(CacheGeometry::new(256, 2, 64), ReplacementPolicy::Lru)
    }

    #[test]
    fn hit_after_insert() {
        let mut c = tiny();
        assert!(c.insert(0x100, 7).is_none());
        assert_eq!(c.get(0x100), Some(&7));
        assert_eq!(c.get(0x13f), Some(&7), "same 64B block");
        assert_eq!(c.get(0x140), None, "next block");
    }

    #[test]
    fn reinsert_updates_state_without_eviction() {
        let mut c = tiny();
        c.insert(0x100, 1);
        assert!(c.insert(0x100, 2).is_none());
        assert_eq!(c.peek(0x100), Some(&2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_in_full_set() {
        let mut c = tiny();
        // Set stride = 2 sets * 64B = 128; same set every 0x80? No:
        // index_of uses bits 6 (1 index bit). Blocks 0x000, 0x080, 0x100 share set 0.
        c.insert(0x000, 1);
        c.insert(0x080, 2);
        c.get(0x000); // make 0x080 LRU
        let ev = c.insert(0x100, 3).expect("set was full");
        assert_eq!(ev.addr, 0x080);
        assert_eq!(ev.state, 2);
        assert!(c.peek(0x000).is_some());
        assert!(c.peek(0x100).is_some());
    }

    #[test]
    fn eviction_address_reconstruction() {
        let mut c = tiny();
        c.insert(0xA000, 1);
        c.insert(0xB000, 2);
        let ev = c.insert(0xC000, 3).unwrap();
        assert!(ev.addr == 0xA000 || ev.addr == 0xB000);
        assert_eq!(ev.addr % 64, 0, "block-aligned");
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        c.insert(0x40, 9);
        assert_eq!(c.invalidate(0x40), Some(9));
        assert_eq!(c.invalidate(0x40), None);
        assert!(c.is_empty());
    }

    #[test]
    fn peek_does_not_refresh_lru() {
        let mut c = tiny();
        c.insert(0x000, 1);
        c.insert(0x080, 2);
        c.peek(0x000); // not a use
                       // 0x000 is still LRU, so it gets evicted.
        let ev = c.insert(0x100, 3).unwrap();
        assert_eq!(ev.addr, 0x000);
    }

    #[test]
    fn iter_lists_all_lines() {
        let mut c = tiny();
        c.insert(0x000, 1);
        c.insert(0x040, 2);
        let mut got: Vec<(u64, u32)> = c.iter().map(|(a, &s)| (a, s)).collect();
        got.sort();
        assert_eq!(got, vec![(0x000, 1), (0x040, 2)]);
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = tiny();
        c.insert(0x000, 1);
        c.insert(0x040, 2); // other set
        c.insert(0x080, 3);
        c.insert(0x100, 4); // evicts within set 0 only
        assert!(c.peek(0x040).is_some(), "set 1 untouched");
    }

    #[test]
    fn free_way_detection() {
        let mut c = tiny();
        assert!(c.set_has_free_way(0x000));
        c.insert(0x000, 1);
        c.insert(0x080, 2);
        assert!(!c.set_has_free_way(0x000));
        assert!(c.set_has_free_way(0x040), "other set unaffected");
    }

    #[test]
    fn choose_victim_respects_filter_and_policy() {
        let mut c = tiny();
        c.insert(0x000, 1);
        c.insert(0x080, 2);
        c.get(0x080); // 0x000 becomes LRU
        assert_eq!(c.choose_victim(0x000, |_| true), Some(0x000));
        // If the LRU line is ineligible (e.g. transient), the next one goes.
        assert_eq!(c.choose_victim(0x000, |&s| s != 1), Some(0x080));
        assert_eq!(c.choose_victim(0x000, |_| false), None);
        // choose_victim does not remove.
        assert_eq!(c.len(), 2);
    }

    /// Canonical lines plus tick, rng state and content digest.
    type Fingerprint = (Vec<(u64, u64, u64, u32)>, u64, u64, u64);

    /// Structural equality witness: same lines, same recency ranks, same
    /// tick/rng — compared through the canonical view plus scalars.
    fn fingerprint(c: &CacheArray<u32>) -> Fingerprint {
        (
            c.canonical_lines()
                .into_iter()
                .map(|(a, l, f, &s)| (a, l, f, s))
                .collect(),
            c.tick,
            c.rng_state,
            c.content_digest_uncached(),
        )
    }

    #[test]
    fn journal_rollback_restores_exactly() {
        let mut c = tiny();
        c.insert(0x000, 1);
        c.insert(0x080, 2);
        c.get(0x000);
        c.enable_journal();
        let before = fingerprint(&c);
        let mark = c.journal_mark();
        // A burst of mutations across both sets, including an eviction.
        c.get(0x080);
        c.insert(0x100, 3); // evicts in set 0
        c.insert(0x040, 4); // set 1
        c.choose_victim(0x000, |_| true);
        c.invalidate(0x040);
        c.get(0x1234); // miss: only the tick moved
        assert_ne!(fingerprint(&c), before);
        assert!(c.journal_bytes_since(mark) > 0);
        c.journal_rollback(mark);
        assert_eq!(fingerprint(&c), before);
    }

    #[test]
    fn journal_supports_nested_marks() {
        let mut c = tiny();
        c.enable_journal();
        c.insert(0x000, 1);
        let outer = c.journal_mark();
        let after_outer = fingerprint(&c);
        c.insert(0x080, 2);
        let inner = c.journal_mark();
        let after_inner = fingerprint(&c);
        c.insert(0x100, 3);
        c.journal_rollback(inner);
        assert_eq!(fingerprint(&c), after_inner);
        c.journal_rollback(outer);
        assert_eq!(fingerprint(&c), after_outer);
    }

    #[test]
    fn incremental_digest_matches_full_rescan() {
        let mut c = tiny();
        assert_eq!(c.content_digest(), c.content_digest_uncached());
        c.insert(0x000, 1);
        c.insert(0x040, 2);
        assert_eq!(c.content_digest(), c.content_digest_uncached());
        c.get(0x000); // recency-only change must still be visible
        let d1 = c.content_digest();
        assert_eq!(d1, c.content_digest_uncached());
        c.insert(0x080, 3);
        c.insert(0x100, 4); // eviction
        c.invalidate(0x040);
        assert_eq!(c.content_digest(), c.content_digest_uncached());
        // Rollback leaves dirty sets behind; the digest must still agree.
        c.enable_journal();
        let m = c.journal_mark();
        let before = c.content_digest();
        c.insert(0x0c0, 9);
        assert_ne!(c.content_digest(), before);
        c.journal_rollback(m);
        assert_eq!(c.content_digest(), before);
        assert_eq!(c.content_digest(), c.content_digest_uncached());
    }

    #[test]
    fn digest_depends_on_recency_ranks_not_ticks() {
        // Two arrays with different absolute tick histories but identical
        // ranks digest identically.
        let mut a = tiny();
        a.insert(0x000, 1);
        a.insert(0x080, 2);
        let mut b = tiny();
        b.get(0x999); // burn ticks on misses
        b.get(0x999);
        b.get(0x999);
        b.insert(0x000, 1);
        b.insert(0x080, 2);
        assert_eq!(a.content_digest_uncached(), b.content_digest_uncached());
        a.get(0x000);
        assert_ne!(
            a.content_digest_uncached(),
            b.content_digest_uncached(),
            "rank change must show up"
        );
    }

    #[test]
    fn fifo_policy_ignores_recency() {
        let mut c: CacheArray<u32> =
            CacheArray::new(CacheGeometry::new(256, 2, 64), ReplacementPolicy::Fifo);
        c.insert(0x000, 1);
        c.insert(0x080, 2);
        c.get(0x000); // recency refresh must NOT save 0x000 under FIFO
        let ev = c.insert(0x100, 3).unwrap();
        assert_eq!(ev.addr, 0x000);
    }
}
