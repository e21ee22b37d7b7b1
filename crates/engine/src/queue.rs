//! The discrete-event scheduler queue.
//!
//! Internally the queue is a hybrid of three structures, picked per event at
//! schedule time:
//!
//! * a **calendar wheel** of [`WHEEL`] one-cycle buckets for the dense
//!   near-term horizon (`now < t < now + WHEEL`) — O(1) insert, O(1) pop
//!   plus a bitmap scan, no sift traffic;
//! * a **binary heap** fallback for far-future events (`t >= now + WHEEL`)
//!   and for everything once a chooser has deviated from FIFO order;
//! * a **ready lane** (`VecDeque`) for zero-latency events due exactly at
//!   `now`.
//!
//! All three agree on the observable contract: events deliver in effective
//! `(time, seq)` order, where `seq` is the global scheduling sequence
//! number. The wheel preserves this for free — every bucket holds exactly
//! one timestamp (two distinct times inside a window of length `WHEEL`
//! never collide modulo `WHEEL`) and appends within a bucket are seq-
//! ascending because `seq` is globally monotonic.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::cycle::Cycle;

/// Number of one-cycle calendar buckets. Events scheduled within this many
/// cycles of `now` take the wheel fast path; farther ones fall back to the
/// binary heap. 256 covers every point-to-point latency in the calibrated
/// hierarchy (max ~22 cycles) plus DRAM turnarounds with a wide margin.
pub const WHEEL: usize = 256;
const WHEEL_WORDS: usize = WHEEL / 64;

/// An event scheduled for a particular cycle.
///
/// Ordering is by time first, then by insertion sequence number, so two
/// events scheduled for the same cycle are delivered in the order they were
/// scheduled. This tie-break is what makes the whole simulator deterministic.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: Cycle,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is on top.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A pending event visible through [`EventQueue::frontier`].
///
/// `at` is the *effective* delivery time: events whose scheduled time has
/// already passed (because a chooser jumped the clock over them) deliver at
/// `now`. `seq` is a stable identity — it names the same event across
/// repeated frontier calls until that event is delivered.
#[derive(Debug)]
pub struct Pending<'a, E> {
    /// Effective delivery time if this event is chosen next.
    pub at: Cycle,
    /// Stable identity of the event (its scheduling sequence number).
    pub seq: u64,
    /// The event payload.
    pub event: &'a E,
}

// Manual impls: the derive would demand `E: Copy`, but the field is only a
// reference.
impl<E> Clone for Pending<'_, E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<E> Copy for Pending<'_, E> {}

/// A scheduling policy plugged into [`EventQueue::pop_with`].
///
/// The deterministic simulator is the trivial chooser ([`FifoChooser`]):
/// always deliver the frontier head, which is exactly what [`EventQueue::pop`]
/// does without ever materializing the frontier. Exploration tools implement
/// this trait (or drive [`EventQueue::frontier`] + [`EventQueue::pop_seq`]
/// directly) to enumerate alternative delivery orders.
pub trait Chooser<E> {
    /// Given the deliverable frontier (never empty, sorted by effective
    /// `(time, seq)`), return the `seq` of the event to deliver next.
    fn choose(&mut self, frontier: &[Pending<'_, E>]) -> u64;
}

/// The trivial chooser: always delivers the earliest `(time, seq)` event,
/// i.e. the exact order [`EventQueue::pop`] produces.
#[derive(Debug, Default, Clone, Copy)]
pub struct FifoChooser;

impl<E> Chooser<E> for FifoChooser {
    fn choose(&mut self, frontier: &[Pending<'_, E>]) -> u64 {
        frontier[0].seq
    }
}

/// A deterministic priority queue of timed events.
///
/// The queue is generic over the event payload `E`; the simulator's main
/// loop pops events in `(time, insertion order)` order and dispatches them
/// to the owning component.
///
/// # Example
///
/// ```
/// use sim_engine::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.schedule(Cycle(10), "late");
/// q.schedule(Cycle(1), "early");
/// q.schedule(Cycle(1), "early-but-second");
///
/// assert_eq!(q.pop(), Some((Cycle(1), "early")));
/// assert_eq!(q.pop(), Some((Cycle(1), "early-but-second")));
/// assert_eq!(q.pop(), Some((Cycle(10), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Far-future events (`t >= now + WHEEL` at schedule time) and, after a
    /// chooser deviated from FIFO order, everything with `t > now`.
    heap: BinaryHeap<Scheduled<E>>,
    /// Calendar buckets for the near-term horizon. Invariant (ordered
    /// regime): every entry's time lies in `[now, now + WHEEL)`, so bucket
    /// `t % WHEEL` holds exactly one timestamp and its entries are in
    /// ascending seq order. The wheel is empty in the disordered regime.
    buckets: Vec<VecDeque<Scheduled<E>>>,
    /// Occupancy bitmap over `buckets`: bit i set iff bucket i is non-empty.
    occ: [u64; WHEEL_WORDS],
    /// Number of events currently in the wheel.
    wheel_len: usize,
    /// Events due exactly at `now`, scheduled while the clock already stood
    /// at `now` (zero-latency replies, replays). They bypass the timer
    /// structures: a push and pop here are O(1).
    ///
    /// Ordering stays correct because `now` only reaches a time T after
    /// every earlier schedule call completed, so any heap or wheel entry at
    /// time T carries a smaller sequence number than anything that enters
    /// `ready` while the clock stands at T — timer-first at equal times is
    /// exactly `(time, seq)` order. Each entry keeps its sequence number so
    /// frontier views can name it.
    ready: VecDeque<(u64, E)>,
    next_seq: u64,
    now: Cycle,
    /// Set when [`pop_seq`](Self::pop_seq) delivered an event out of FIFO
    /// order while others were pending. From then on the raw `(time, seq)`
    /// order no longer matches effective delivery order
    /// (`(max(time, now), seq)`), so `pop`/`pop_batch` take a careful scan
    /// path until the queue drains. Entering this regime spills the wheel
    /// into the heap and routes new timer events there, so the careful path
    /// only ever scans heap + ready. Never set on the deterministic path.
    disordered: bool,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`Cycle::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            buckets: (0..WHEEL).map(|_| VecDeque::new()).collect(),
            occ: [0; WHEEL_WORDS],
            wheel_len: 0,
            ready: VecDeque::new(),
            next_seq: 0,
            now: Cycle::ZERO,
            disordered: false,
        }
    }

    /// The current simulated time: the timestamp of the most recently
    /// popped event (or zero before any pop).
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Schedules `event` for absolute time `at`.
    ///
    /// Events scheduled in the past are delivered at the current time
    /// instead; this keeps component code simple (a zero-latency response
    /// is just `schedule(now, ..)`).
    pub fn schedule(&mut self, at: Cycle, event: E) {
        let time = at.max(self.now);
        self.next_seq += 1;
        let seq = self.next_seq;
        if time == self.now {
            // Same-cycle event: FIFO push preserves seq order within the
            // cycle without touching the heap or wheel.
            self.ready.push_back((seq, event));
        } else if !self.disordered && time.get() - self.now.get() < WHEEL as u64 {
            let idx = (time.get() % WHEEL as u64) as usize;
            debug_assert!(self.buckets[idx].back().is_none_or(|s| s.time == time));
            self.buckets[idx].push_back(Scheduled { time, seq, event });
            self.occ[idx / 64] |= 1u64 << (idx % 64);
            self.wheel_len += 1;
        } else {
            self.heap.push(Scheduled { time, seq, event });
        }
    }

    /// Schedules `event` to fire `delay` cycles from now.
    pub fn schedule_after(&mut self, delay: Cycle, event: E) {
        self.schedule(self.now.saturating_add(delay), event);
    }

    /// Index of the first occupied bucket at or after `start` in circular
    /// order, via the occupancy bitmap (at most `2 * WHEEL_WORDS` word ops).
    fn next_occupied(&self, start: usize) -> Option<usize> {
        let (sw, sb) = (start / 64, start % 64);
        // [start, WHEEL)
        let mut word = self.occ[sw] & (!0u64 << sb);
        let mut wi = sw;
        loop {
            if word != 0 {
                return Some(wi * 64 + word.trailing_zeros() as usize);
            }
            wi += 1;
            if wi == WHEEL_WORDS {
                break;
            }
            word = self.occ[wi];
        }
        // wrap: [0, start)
        for wi in 0..=sw {
            let mut word = self.occ[wi];
            if wi == sw {
                word &= !(!0u64 << sb);
            }
            if word != 0 {
                return Some(wi * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }

    /// The wheel's minimum pending event as `(bucket, time, seq)`.
    ///
    /// Scanning buckets circularly from `now % WHEEL` visits wheel
    /// timestamps in ascending order (all lie in `[now, now + WHEEL)`), and
    /// each bucket's front is its smallest seq.
    fn min_wheel(&self) -> Option<(usize, Cycle, u64)> {
        if self.wheel_len == 0 {
            return None;
        }
        let idx = self
            .next_occupied((self.now.get() % WHEEL as u64) as usize)
            .expect("wheel_len > 0 implies an occupied bucket");
        let front = self.buckets[idx].front().expect("occupied bucket");
        Some((idx, front.time, front.seq))
    }

    /// Pops the front of an occupied bucket, maintaining the bitmap.
    fn pop_bucket(&mut self, idx: usize) -> Scheduled<E> {
        let s = self.buckets[idx].pop_front().expect("occupied bucket");
        if self.buckets[idx].is_empty() {
            self.occ[idx / 64] &= !(1u64 << (idx % 64));
        }
        self.wheel_len -= 1;
        s
    }

    /// Moves every wheel entry into the heap. Used when entering the
    /// disordered regime, where the careful scan paths only consult
    /// heap + ready.
    fn spill_wheel(&mut self) {
        if self.wheel_len == 0 {
            return;
        }
        for bucket in &mut self.buckets {
            for s in bucket.drain(..) {
                self.heap.push(s);
            }
        }
        self.occ = [0; WHEEL_WORDS];
        self.wheel_len = 0;
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the simulation has drained.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        if self.disordered {
            return self.pop_careful();
        }
        // In the ordered regime every pending timer event has time >= now,
        // so the minimum of the three candidate (time, seq) pairs is the
        // next event in effective order. Seqs are unique, which also
        // resolves the timer-vs-ready tie at `now` correctly (timer entries
        // at `now` were scheduled earlier and carry smaller seqs).
        let ready_c = self.ready.front().map(|(seq, _)| (self.now, *seq));
        let heap_c = self.heap.peek().map(|s| (s.time, s.seq));
        let wheel_c = self.min_wheel().map(|(_, t, seq)| (t, seq));
        let (time, seq) = [ready_c, heap_c, wheel_c].into_iter().flatten().min()?;
        debug_assert!(time >= self.now, "event queue time went backwards");
        let event = if ready_c == Some((time, seq)) {
            self.ready.pop_front().expect("ready candidate present").1
        } else if heap_c == Some((time, seq)) {
            self.heap.pop().expect("heap candidate present").event
        } else {
            let (idx, ..) = self.min_wheel().expect("wheel candidate present");
            self.pop_bucket(idx).event
        };
        self.now = time;
        Some((time, event))
    }

    /// Pop for the disordered regime: select the minimum by effective
    /// `(max(time, now), seq)` with a full scan. Only reachable after a
    /// chooser deviated from FIFO order, where queues are small. The wheel
    /// is always empty here (spilled on entry to the regime).
    fn pop_careful(&mut self) -> Option<(Cycle, E)> {
        debug_assert_eq!(self.wheel_len, 0, "wheel must be spilled when disordered");
        let ready_best = self.ready.front().map(|(seq, _)| (self.now, *seq));
        let heap_best = self
            .heap
            .iter()
            .map(|s| (s.time.max(self.now), s.seq))
            .min();
        let (at, seq) = match (ready_best, heap_best) {
            (None, None) => return None,
            (Some(r), None) => r,
            (None, Some(h)) => h,
            (Some(r), Some(h)) => r.min(h),
        };
        let event = self.remove_seq(seq).expect("selected seq present");
        self.now = at;
        if self.is_empty() {
            self.disordered = false;
        }
        Some((at, event))
    }

    /// Drains every event due at the next timestamp (if it is ≤ `upto`)
    /// into `out`, preserving `(time, seq)` order, and advances the clock
    /// there. Returns that timestamp, or `None` if the next event is after
    /// `upto` (or the queue is empty). One call replaces a
    /// peek-compare-pop cycle per event, which is what the hierarchy's
    /// event loop runs hottest on. The caller-provided buffer is reused
    /// across calls — the queue never allocates here.
    ///
    /// Events scheduled *while the batch is processed* land in a fresh
    /// batch — the caller re-calls until `None`, which is exactly the order
    /// a one-at-a-time pop loop would produce, since in-flight schedules
    /// always carry larger sequence numbers than the drained batch.
    pub fn pop_batch(&mut self, upto: Cycle, out: &mut Vec<E>) -> Option<Cycle> {
        if self.disordered {
            // Careful path: deliver one event per call (still one
            // timestamp, just a smaller batch). Correctness over batching.
            if self.peek_time()? > upto {
                return None;
            }
            let (t, e) = self.pop_careful()?;
            out.push(e);
            return Some(t);
        }
        let t = self.peek_time()?;
        if t > upto {
            return None;
        }
        self.now = t;
        // Merge heap entries and the wheel bucket at `t` by seq; both are
        // internally seq-sorted at a fixed timestamp.
        let idx = (t.get() % WHEEL as u64) as usize;
        loop {
            let h = self.heap.peek().filter(|s| s.time == t).map(|s| s.seq);
            let w = self.buckets[idx]
                .front()
                .filter(|s| s.time == t)
                .map(|s| s.seq);
            match (h, w) {
                (None, None) => break,
                (Some(_), None) => out.push(self.heap.pop().expect("peeked").event),
                (None, Some(_)) => out.push(self.pop_bucket(idx).event),
                (Some(hs), Some(ws)) => {
                    if hs < ws {
                        out.push(self.heap.pop().expect("peeked").event);
                    } else {
                        out.push(self.pop_bucket(idx).event);
                    }
                }
            }
        }
        // `ready` events are due at the old `now`; they are part of this
        // batch only when the clock did not move (t == old now), which is
        // the only case where `ready` can be non-empty here.
        out.extend(self.ready.drain(..).map(|(_, e)| e));
        Some(t)
    }

    /// Returns the timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Cycle> {
        if self.disordered {
            let ready_best = self.ready.front().map(|_| self.now);
            let heap_best = self.heap.iter().map(|s| s.time.max(self.now)).min();
            return match (ready_best, heap_best) {
                (None, None) => None,
                (r, h) => r.into_iter().chain(h).min(),
            };
        }
        if !self.ready.is_empty() {
            // Ready events are due now; a timer event can tie but not beat.
            return Some(self.now);
        }
        let heap_t = self.heap.peek().map(|s| s.time);
        let wheel_t = self.min_wheel().map(|(_, t, _)| t);
        heap_t.into_iter().chain(wheel_t).min()
    }

    /// Visits every pending event, in no particular order, without
    /// allocating. `at` on each [`Pending`] is the effective delivery time
    /// `max(scheduled, now)`. This is the allocation-free primitive behind
    /// [`frontier`](Self::frontier); callers that build their own
    /// per-link/per-key summaries (the hierarchy's frontier choices, the
    /// state digest) iterate directly instead of materializing a sorted
    /// vector per step.
    pub fn for_each_pending<'a, F: FnMut(Pending<'a, E>)>(&'a self, mut f: F) {
        for (seq, event) in &self.ready {
            f(Pending {
                at: self.now,
                seq: *seq,
                event,
            });
        }
        for s in &self.heap {
            f(Pending {
                at: s.time.max(self.now),
                seq: s.seq,
                event: &s.event,
            });
        }
        if self.wheel_len > 0 {
            for bucket in &self.buckets {
                for s in bucket {
                    f(Pending {
                        at: s.time.max(self.now),
                        seq: s.seq,
                        event: &s.event,
                    });
                }
            }
        }
    }

    /// Buffer-reusing variant of [`frontier`](Self::frontier): clears `out`
    /// and fills it with the deliverable frontier, sorted by effective
    /// `(time, seq)`. Reusing one buffer across calls within a borrow scope
    /// avoids the per-step allocation of `frontier`.
    pub fn frontier_into<'a>(&'a self, window: Cycle, out: &mut Vec<Pending<'a, E>>) {
        out.clear();
        self.for_each_pending(|p| out.push(p));
        out.sort_by_key(|p| (p.at, p.seq));
        if let Some(first) = out.first() {
            let horizon = first.at.saturating_add(window);
            out.retain(|p| p.at <= horizon);
        }
    }

    /// The deliverable frontier: every pending event whose effective
    /// delivery time falls within `window` cycles of the earliest one,
    /// sorted by effective `(time, seq)` — the order [`pop`](Self::pop)
    /// would deliver them. `window == 0` lists only the events tied for
    /// earliest; a wider window exposes later messages that a scheduler
    /// could deliver *first* (modeling extra network delay on the earlier
    /// ones).
    pub fn frontier(&self, window: Cycle) -> Vec<Pending<'_, E>> {
        let mut v = Vec::new();
        self.frontier_into(window, &mut v);
        v
    }

    /// Delivers the pending event identified by `seq` (from a
    /// [`frontier`](Self::frontier) view), advancing the clock to its
    /// effective delivery time. Events the clock jumps over stay pending
    /// and deliver at the (later) current time — the physical reading is
    /// that their messages sat on the wire a little longer.
    ///
    /// Returns `None` if no pending event has that seq.
    pub fn pop_seq(&mut self, seq: u64) -> Option<(Cycle, E)> {
        self.pop_seq_traced(seq).map(|(at, _, e)| (at, e))
    }

    /// [`pop_seq`](Self::pop_seq) that additionally reports where the event
    /// was stored ([`PopOrigin`]), which [`restore_mark`](Self::restore_mark)
    /// needs to reinsert it losslessly: the *original* scheduled time must
    /// be restored (not the effective pop time), because an enclosing undo
    /// may later rewind the clock below this pop's `now`, where the two
    /// diverge.
    pub fn pop_seq_traced(&mut self, seq: u64) -> Option<(Cycle, PopOrigin, E)> {
        // Effective time must be computed before removal.
        let (at, origin) = if self.ready.iter().any(|(s, _)| *s == seq) {
            (self.now, PopOrigin::Ready)
        } else if let Some(s) = self.heap.iter().find(|s| s.seq == seq) {
            (s.time.max(self.now), PopOrigin::Timer(s.time))
        } else if let Some(t) = self
            .buckets
            .iter()
            .flatten()
            .find(|s| s.seq == seq)
            .map(|s| s.time)
        {
            (t.max(self.now), PopOrigin::Timer(t))
        } else {
            return None;
        };
        // A chooser is steering delivery: abandon the wheel fast path so
        // the careful scan paths only ever face heap + ready.
        self.spill_wheel();
        let event = self.remove_seq(seq).expect("checked present");
        self.now = at;
        // Any deviation from strict FIFO order leaves the raw order
        // untrustworthy; flag it unless the queue is now empty.
        self.disordered = !self.is_empty();
        Some((at, origin, event))
    }

    /// Removes the event with the given seq from the ready lane or the
    /// heap. The wheel is spilled before this runs (disordered regime).
    fn remove_seq(&mut self, seq: u64) -> Option<E> {
        if let Some(pos) = self.ready.iter().position(|(s, _)| *s == seq) {
            return self.ready.remove(pos).map(|(_, e)| e);
        }
        let mut items = std::mem::take(&mut self.heap).into_vec();
        let pos = items.iter().position(|s| s.seq == seq);
        let found = pos.map(|p| items.swap_remove(p).event);
        self.heap = BinaryHeap::from(items);
        found
    }

    /// Pops the next event selected by `chooser` from the frontier within
    /// `window`. With [`FifoChooser`] this is equivalent to
    /// [`pop`](Self::pop) (modulo the frontier materialization cost).
    pub fn pop_with<C: Chooser<E>>(
        &mut self,
        window: Cycle,
        chooser: &mut C,
    ) -> Option<(Cycle, E)> {
        let seq = {
            let f = self.frontier(window);
            if f.is_empty() {
                return None;
            }
            chooser.choose(&f)
        };
        self.pop_seq(seq)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.wheel_len + self.ready.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.wheel_len == 0 && self.ready.is_empty()
    }

    /// Total number of events ever scheduled (for stats / fuel limits).
    pub fn scheduled_count(&self) -> u64 {
        self.next_seq
    }

    /// Captures the queue's scalar state before a [`pop_seq`](Self::pop_seq)
    /// so [`restore_mark`](Self::restore_mark) can rewind it. The mark pins
    /// the clock, the sequence counter (every event scheduled after the mark
    /// has a larger seq), and the ordering regime.
    pub fn mark(&self) -> QueueMark {
        QueueMark {
            now: self.now,
            next_seq: self.next_seq,
            disordered: self.disordered,
        }
    }

    /// Rewinds the queue to `mark`, undoing one `pop_seq` step: every event
    /// scheduled after the mark (seq > `mark.next_seq`) is dropped, the
    /// popped event is reinserted per its [`PopOrigin`] — a ready-lane
    /// event returns to the ready lane at its seq-sorted position, a timer
    /// event re-enters the heap at its *original scheduled time* — and the
    /// clock, sequence counter, and ordering flag are restored.
    ///
    /// One structural liberty is taken, behaviorally invisible: timer
    /// events (including wheel entries that `pop_seq` spilled) live in the
    /// heap afterwards. The wheel is a pure optimization — every consumer
    /// agrees on effective `(time, seq)` order regardless of which
    /// structure holds an event. Restoring the *original* time (not the
    /// effective pop time) matters under nesting: an enclosing undo may
    /// rewind the clock below this mark's `now`, where
    /// `max(effective, t) != max(scheduled, t)`.
    pub fn restore_mark(&mut self, mark: QueueMark, origin: PopOrigin, popped_seq: u64, event: E) {
        // Drop everything scheduled after the mark. Ready and wheel buckets
        // are seq-ascending, so post-mark entries sit at the back.
        while self
            .ready
            .back()
            .is_some_and(|(seq, _)| *seq > mark.next_seq)
        {
            self.ready.pop_back();
        }
        if self.heap.iter().any(|s| s.seq > mark.next_seq) {
            let mut items = std::mem::take(&mut self.heap).into_vec();
            items.retain(|s| s.seq <= mark.next_seq);
            self.heap = BinaryHeap::from(items);
        }
        if self.wheel_len > 0 {
            for idx in 0..WHEEL {
                while self.buckets[idx]
                    .back()
                    .is_some_and(|s| s.seq > mark.next_seq)
                {
                    self.buckets[idx].pop_back();
                    self.wheel_len -= 1;
                }
                if self.buckets[idx].is_empty() {
                    self.occ[idx / 64] &= !(1u64 << (idx % 64));
                }
            }
        }
        match origin {
            PopOrigin::Ready => {
                // Back into the ready lane at its seq slot, so the batch
                // paths (which drain ready last, in seq order) are
                // untouched. Its conceptual due-time is the clock value at
                // its scheduling moment, which any restorable mark's `now`
                // already meets or exceeds.
                let pos = self
                    .ready
                    .iter()
                    .position(|(seq, _)| *seq > popped_seq)
                    .unwrap_or(self.ready.len());
                self.ready.insert(pos, (popped_seq, event));
            }
            PopOrigin::Timer(time) => {
                debug_assert!(
                    mark.disordered || time >= mark.now,
                    "ordered-regime timer event predates the mark"
                );
                self.heap.push(Scheduled {
                    time,
                    seq: popped_seq,
                    event,
                });
            }
        }
        self.now = mark.now;
        self.next_seq = mark.next_seq;
        self.disordered = mark.disordered;
    }
}

/// Scalar queue state captured by [`EventQueue::mark`]; see
/// [`EventQueue::restore_mark`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QueueMark {
    now: Cycle,
    next_seq: u64,
    disordered: bool,
}

/// Where a popped event was stored, as reported by
/// [`EventQueue::pop_seq_traced`] and consumed by
/// [`EventQueue::restore_mark`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PopOrigin {
    /// The ready lane (due at the clock value of its scheduling moment).
    #[default]
    Ready,
    /// A timer structure (wheel or heap), with its original scheduled time.
    Timer(Cycle),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(30), 3);
        q.schedule(Cycle(10), 1);
        q.schedule(Cycle(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_within_same_cycle() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycle(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(10), ());
        q.schedule(Cycle(4), ());
        let (t1, _) = q.pop().unwrap();
        assert_eq!(t1, Cycle(4));
        assert_eq!(q.now(), Cycle(4));
        // Scheduling in the past clamps to `now`.
        q.schedule(Cycle(1), ());
        let (t2, _) = q.pop().unwrap();
        assert_eq!(t2, Cycle(4));
        let (t3, _) = q.pop().unwrap();
        assert_eq!(t3, Cycle(10));
        assert!(q.is_empty());
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(100), "a");
        q.pop();
        q.schedule_after(Cycle(5), "b");
        assert_eq!(q.pop(), Some((Cycle(105), "b")));
    }

    #[test]
    fn len_and_counts() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Cycle(1), ());
        q.schedule(Cycle(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_count(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_count(), 2);
    }

    #[test]
    fn pop_batch_drains_one_timestamp_in_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(5), 1);
        q.schedule(Cycle(5), 2);
        q.schedule(Cycle(9), 3);
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(Cycle(100), &mut batch), Some(Cycle(5)));
        assert_eq!(batch, vec![1, 2], "same-cycle events only, seq order");
        assert_eq!(q.now(), Cycle(5));
        batch.clear();
        assert_eq!(q.pop_batch(Cycle(7), &mut batch), None, "9 > 7: untouched");
        assert_eq!(q.pop_batch(Cycle(9), &mut batch), Some(Cycle(9)));
        assert_eq!(batch, vec![3]);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_batch_includes_same_cycle_ready_events_after_heap_events() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(4), 1);
        q.schedule(Cycle(4), 2);
        let (t, first) = q.pop().unwrap();
        assert_eq!((t, first), (Cycle(4), 1));
        // Scheduled while the clock stands at 4: goes to the ready queue,
        // and must drain *after* the remaining timer event at 4.
        q.schedule(Cycle(4), 3);
        q.schedule(Cycle(0), 4); // past: clamps to now=4
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(Cycle::MAX, &mut batch), Some(Cycle(4)));
        assert_eq!(batch, vec![2, 3, 4]);
    }

    #[test]
    fn same_cycle_schedule_pop_interleave_keeps_fifo() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(7), 0);
        q.pop();
        // A zero-latency cascade: each pop schedules the next at `now`.
        q.schedule(Cycle(7), 1);
        q.schedule(Cycle(7), 2);
        assert_eq!(q.pop(), Some((Cycle(7), 1)));
        q.schedule(Cycle(7), 3);
        assert_eq!(q.pop(), Some((Cycle(7), 2)));
        assert_eq!(q.pop(), Some((Cycle(7), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ready_events_do_not_starve_later_heap_events() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(3), "a");
        q.schedule(Cycle(10), "z");
        q.pop(); // now = 3
        q.schedule(Cycle(3), "b");
        assert_eq!(q.peek_time(), Some(Cycle(3)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((Cycle(3), "b")));
        assert_eq!(q.pop(), Some((Cycle(10), "z")));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(7), ());
        assert_eq!(q.peek_time(), Some(Cycle(7)));
        assert_eq!(q.now(), Cycle::ZERO);
    }

    #[test]
    fn frontier_orders_by_effective_time_then_seq() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(10), "a"); // seq 1
        q.schedule(Cycle(12), "b"); // seq 2
        q.schedule(Cycle(40), "c"); // seq 3
        let f = q.frontier(Cycle(5));
        assert_eq!(f.len(), 2, "c is outside the 5-cycle window");
        assert_eq!((f[0].at, f[0].seq, *f[0].event), (Cycle(10), 1, "a"));
        assert_eq!((f[1].at, f[1].seq, *f[1].event), (Cycle(12), 2, "b"));
        // Window 0 exposes only the earliest timestamp.
        assert_eq!(q.frontier(Cycle(0)).len(), 1);
        // Window wide enough shows everything.
        assert_eq!(q.frontier(Cycle(100)).len(), 3);
    }

    #[test]
    fn frontier_includes_ready_events_in_seq_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(4), "heap@4"); // seq 1
        q.schedule(Cycle(4), "heap@4b"); // seq 2
        q.pop(); // delivers seq 1, now = 4
        q.schedule(Cycle(4), "ready"); // seq 3 → ready
        q.schedule(Cycle(6), "later"); // seq 4
        let f = q.frontier(Cycle(10));
        let seqs: Vec<u64> = f.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "timer@now before ready before later");
    }

    #[test]
    fn pop_seq_delivers_later_event_first_and_delays_the_rest() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(10), "a"); // seq 1
        q.schedule(Cycle(12), "b"); // seq 2
                                    // Deliver b first: the clock jumps to 12 and a is now late.
        assert_eq!(q.pop_seq(2), Some((Cycle(12), "b")));
        assert_eq!(q.now(), Cycle(12));
        // a delivers at the current time, not in the past.
        assert_eq!(q.pop(), Some((Cycle(12), "a")));
        assert!(q.is_empty());
    }

    #[test]
    fn pop_seq_unknown_seq_is_none_and_lossless() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(10), "a");
        assert_eq!(q.pop_seq(99), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((Cycle(10), "a")));
    }

    #[test]
    fn disordered_pops_follow_effective_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(10), 1); // seq 1
        q.schedule(Cycle(11), 2); // seq 2
        q.schedule(Cycle(12), 3); // seq 3
        q.schedule(Cycle(20), 4); // seq 4
                                  // Jump over 1 and 2.
        assert_eq!(q.pop_seq(3), Some((Cycle(12), 3)));
        // 1 and 2 are both effectively due at 12 now: seq order breaks the tie.
        assert_eq!(q.pop(), Some((Cycle(12), 1)));
        assert_eq!(q.pop(), Some((Cycle(12), 2)));
        assert_eq!(q.pop(), Some((Cycle(20), 4)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn disordered_pop_batch_still_drains_everything_in_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(10), 1);
        q.schedule(Cycle(11), 2);
        q.schedule(Cycle(30), 3);
        assert_eq!(q.pop_seq(2), Some((Cycle(11), 2)));
        let mut out = Vec::new();
        let mut times = Vec::new();
        while let Some(t) = q.pop_batch(Cycle::MAX, &mut out) {
            times.push(t);
        }
        assert_eq!(out, vec![1, 3]);
        assert_eq!(times, vec![Cycle(11), Cycle(30)]);
    }

    #[test]
    fn pop_with_fifo_chooser_matches_pop() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        for (t, e) in [(9u64, 1), (3, 2), (3, 3), (15, 4)] {
            a.schedule(Cycle(t), e);
            b.schedule(Cycle(t), e);
        }
        let mut chooser = FifoChooser;
        loop {
            let x = a.pop();
            let y = b.pop_with(Cycle(64), &mut chooser);
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn ready_events_survive_a_clock_jump() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(5), "x"); // seq 1
        q.pop(); // now = 5
        q.schedule(Cycle(5), "ready"); // seq 2 → ready at now=5
        q.schedule(Cycle(9), "heap"); // seq 3
                                      // Jump to the heap event, leaving the ready event stale.
        assert_eq!(q.pop_seq(3), Some((Cycle(9), "heap")));
        // The stale ready event delivers at the current time.
        assert_eq!(q.pop(), Some((Cycle(9), "ready")));
        assert!(q.is_empty());
    }

    // ---- calendar wheel specifics ----

    /// Reference model: a flat vector popped by linear scan over effective
    /// `(max(time, now), seq)`. This is the semantics every fast path must
    /// reproduce exactly.
    struct NaiveQueue<E> {
        items: Vec<(Cycle, u64, E)>,
        next_seq: u64,
        now: Cycle,
    }

    impl<E> NaiveQueue<E> {
        fn new() -> Self {
            NaiveQueue {
                items: Vec::new(),
                next_seq: 0,
                now: Cycle::ZERO,
            }
        }

        fn schedule(&mut self, at: Cycle, event: E) {
            self.next_seq += 1;
            self.items.push((at.max(self.now), self.next_seq, event));
        }

        fn pop(&mut self) -> Option<(Cycle, E)> {
            let pos = (0..self.items.len())
                .min_by_key(|&i| (self.items[i].0.max(self.now), self.items[i].1))?;
            let (t, _, e) = self.items.remove(pos);
            self.now = t.max(self.now);
            Some((self.now, e))
        }

        fn pop_seq(&mut self, seq: u64) -> Option<(Cycle, E)> {
            let pos = self.items.iter().position(|&(_, s, _)| s == seq)?;
            let (t, _, e) = self.items.remove(pos);
            self.now = t.max(self.now);
            Some((self.now, e))
        }
    }

    /// A tiny deterministic PRNG (xorshift64*) so the recorded workload is
    /// identical on every run.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    #[test]
    fn same_cycle_fifo_order_in_wheel_buckets() {
        let mut q = EventQueue::new();
        // All land in one wheel bucket (delta < WHEEL, same timestamp).
        for i in 0..50 {
            q.schedule(Cycle(17), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn heap_wheel_boundary_crossing_preserves_order() {
        let mut q = EventQueue::new();
        let w = WHEEL as u64;
        // Far event: goes to the heap (delta == WHEEL).
        q.schedule(Cycle(w), "far"); // seq 1
                                     // Near events: wheel (delta < WHEEL).
        q.schedule(Cycle(w - 1), "near-late"); // seq 2
        q.schedule(Cycle(3), "near-early"); // seq 3
        assert_eq!(q.pop(), Some((Cycle(3), "near-early")));
        // now = 3: time w is within the wheel horizon now, so a second
        // event at the same timestamp as the heap-resident "far" lands in
        // the wheel. The heap entry has the smaller seq and must win.
        q.schedule(Cycle(w), "far-twin"); // seq 4 → wheel
        assert_eq!(q.pop(), Some((Cycle(w - 1), "near-late")));
        assert_eq!(q.pop(), Some((Cycle(w), "far")));
        assert_eq!(q.pop(), Some((Cycle(w), "far-twin")));
        assert!(q.is_empty());
    }

    #[test]
    fn heap_wheel_tie_merges_by_seq_in_pop_batch() {
        let mut q = EventQueue::new();
        let w = WHEEL as u64;
        q.schedule(Cycle(w + 5), 1); // heap
        q.schedule(Cycle(2), 0); // wheel
        q.pop(); // now = 2
        q.schedule(Cycle(w + 5), 2); // wheel (delta < WHEEL now)
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(Cycle::MAX, &mut batch), Some(Cycle(w + 5)));
        assert_eq!(batch, vec![1, 2], "heap seq 1 before wheel seq 3");
    }

    #[test]
    fn wheel_wraparound_keeps_time_order() {
        let mut q = EventQueue::new();
        let w = WHEEL as u64;
        // Advance the clock deep into the second wheel revolution so bucket
        // indices wrap modulo WHEEL.
        q.schedule(Cycle(w + 10), "start");
        q.pop(); // now = w + 10
        q.schedule(Cycle(w + 20), "a"); // bucket (w+20) % W = 20
        q.schedule(Cycle(2 * w - 1), "b"); // bucket (2w-1) % W = W-1
        q.schedule(Cycle(w + 11), "c"); // bucket 11
        assert_eq!(q.pop(), Some((Cycle(w + 11), "c")));
        assert_eq!(q.pop(), Some((Cycle(w + 20), "a")));
        assert_eq!(q.pop(), Some((Cycle(2 * w - 1), "b")));
    }

    #[test]
    fn pop_seq_on_wheel_entry_spills_and_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(10), 1); // seq 1 → wheel
        q.schedule(Cycle(12), 2); // seq 2 → wheel
        q.schedule(Cycle(500), 3); // seq 3 → heap
        assert_eq!(q.pop_seq(2), Some((Cycle(12), 2)));
        // Remaining wheel entry was spilled; effective order still holds.
        assert_eq!(q.pop(), Some((Cycle(12), 1)));
        assert_eq!(q.pop(), Some((Cycle(500), 3)));
        assert!(q.is_empty());
        // The queue leaves the disordered regime once drained: new events
        // take the fast path again.
        q.schedule(Cycle(600), 4);
        assert_eq!(q.pop(), Some((Cycle(600), 4)));
    }

    #[test]
    fn frontier_sees_wheel_heap_and_ready_entries() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(5), "wheel"); // seq 1
        q.schedule(Cycle(5000), "heap"); // seq 2
        q.schedule(Cycle(1), "first"); // seq 3
        q.pop(); // now = 1
        q.schedule(Cycle(1), "ready"); // seq 4
        let f = q.frontier(Cycle::MAX);
        let seqs: Vec<u64> = f.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, vec![4, 1, 2], "ready@1, wheel@5, heap@5000");
    }

    #[test]
    fn frontier_into_reuses_buffer_and_matches_frontier() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(10), "a");
        q.schedule(Cycle(12), "b");
        q.schedule(Cycle(900), "c");
        let mut buf = Vec::with_capacity(8);
        q.frontier_into(Cycle(5), &mut buf);
        let fresh = q.frontier(Cycle(5));
        assert_eq!(buf.len(), fresh.len());
        for (x, y) in buf.iter().zip(&fresh) {
            assert_eq!((x.at, x.seq, x.event), (y.at, y.seq, y.event));
        }
        // Second call reuses the same allocation.
        let cap = buf.capacity();
        q.frontier_into(Cycle::MAX, &mut buf);
        assert_eq!(buf.capacity(), cap);
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn restore_mark_rewinds_a_pop_seq_exactly() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(10), 1); // seq 1 → wheel
        q.schedule(Cycle(12), 2); // seq 2 → wheel
        q.schedule(Cycle(500), 3); // seq 3 → heap
        let mark = q.mark();
        let (at, origin, ev) = q.pop_seq_traced(2).unwrap();
        assert_eq!(
            (at, origin, ev),
            (Cycle(12), PopOrigin::Timer(Cycle(12)), 2)
        );
        // The step schedules follow-on events; all must vanish on restore.
        q.schedule(Cycle(12), 20);
        q.schedule(Cycle(40), 21);
        q.schedule(Cycle(900), 22);
        q.restore_mark(mark, origin, 2, ev);
        assert_eq!(q.now(), Cycle::ZERO);
        assert_eq!(q.scheduled_count(), 3);
        assert_eq!(q.len(), 3);
        // Replay FIFO order: identical to a queue that never deviated.
        assert_eq!(q.pop(), Some((Cycle(10), 1)));
        assert_eq!(q.pop(), Some((Cycle(12), 2)));
        assert_eq!(q.pop(), Some((Cycle(500), 3)));
        assert!(q.is_empty());
    }

    #[test]
    fn restore_mark_reinserts_ready_events_in_seq_position() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(5), 0); // seq 1
        q.pop(); // now = 5
        q.schedule(Cycle(5), 10); // seq 2 → ready
        q.schedule(Cycle(5), 11); // seq 3 → ready
        q.schedule(Cycle(5), 12); // seq 4 → ready
        let mark = q.mark();
        let (at, origin, ev) = q.pop_seq_traced(3).unwrap();
        assert_eq!((at, origin, ev), (Cycle(5), PopOrigin::Ready, 11));
        q.restore_mark(mark, origin, 3, ev);
        // The middle ready event is back in its seq slot: batch drain order
        // is untouched.
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(Cycle::MAX, &mut batch), Some(Cycle(5)));
        assert_eq!(batch, vec![10, 11, 12]);
    }

    #[test]
    fn repeated_pop_restore_cycles_match_reference_replay() {
        // Fuzz: interleave pop_seq jumps with restores and check the final
        // drain matches a naive queue fed the same surviving schedule set.
        let mut rng = Rng(0xD1_CE0F_5EED);
        let mut fast: EventQueue<u64> = EventQueue::new();
        let mut slow: NaiveQueue<u64> = NaiveQueue::new();
        let mut payload = 0u64;
        for _ in 0..1500 {
            match rng.next() % 8 {
                0..=4 => {
                    let delta = rng.next() % (WHEEL as u64 + 40);
                    let at = fast.now().saturating_add(Cycle(delta));
                    payload += 1;
                    fast.schedule(at, payload);
                    slow.schedule(at, payload);
                }
                5 => {
                    assert_eq!(fast.pop(), slow.pop());
                }
                _ => {
                    // Jump to a random pending seq, then immediately undo it
                    // on the fast queue only — the slow queue never saw it.
                    if fast.scheduled_count() > 0 {
                        let seq = rng.next() % fast.scheduled_count() + 1;
                        let mark = fast.mark();
                        if let Some((_at, origin, ev)) = fast.pop_seq_traced(seq) {
                            fast.restore_mark(mark, origin, seq, ev);
                        }
                    }
                }
            }
        }
        loop {
            let (x, y) = (fast.pop(), slow.pop());
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn nested_restores_preserve_pending_times() {
        // DFS with a mark *stack*: descend several pop_seq steps deep
        // (scheduling follow-ons along the way), then unwind. Each parent
        // must see its exact pending snapshot — effective times included —
        // after the child subtree is undone. Immediate pop→restore cycles
        // cannot catch restores that become stale when an enclosing undo
        // rewinds the clock further, which is exactly the exploration
        // walker's access pattern.
        fn snapshot(q: &EventQueue<u64>) -> (Cycle, Vec<(Cycle, u64, u64)>) {
            let mut pending = Vec::new();
            q.for_each_pending(|p| pending.push((p.at, p.seq, *p.event)));
            pending.sort_unstable();
            (q.now(), pending)
        }
        fn dfs(q: &mut EventQueue<u64>, rng: &mut Rng, payload: &mut u64, depth: u32) {
            if depth == 0 || q.scheduled_count() == 0 {
                return;
            }
            let mut seqs = Vec::new();
            q.for_each_pending(|p| seqs.push(p.seq));
            seqs.sort_unstable();
            // Up to three children per node, chosen pseudo-randomly.
            for _ in 0..3 {
                let seq = seqs[(rng.next() % seqs.len() as u64) as usize];
                let before = snapshot(q);
                let mark = q.mark();
                let Some((_, origin, ev)) = q.pop_seq_traced(seq) else {
                    continue;
                };
                // The step schedules follow-on events at mixed horizons
                // (ready, wheel, heap) that the restore must drop.
                for _ in 0..rng.next() % 3 {
                    let delta = [0, 1, 3, WHEEL as u64 + 9][(rng.next() % 4) as usize];
                    *payload += 1;
                    q.schedule(q.now().saturating_add(Cycle(delta)), *payload);
                }
                dfs(q, rng, payload, depth - 1);
                q.restore_mark(mark, origin, seq, ev);
                assert_eq!(snapshot(q), before, "undo at depth {depth} diverged");
            }
        }
        let mut rng = Rng(0xBACC_7AC3_5EED);
        for round in 0..40 {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut payload = round * 1000;
            // Seed a mixed pending set: some near (wheel), some far (heap),
            // and advance the clock so a ready lane can form.
            for _ in 0..6 {
                let delta = rng.next() % (WHEEL as u64 + 20);
                payload += 1;
                q.schedule(Cycle(delta), payload);
            }
            q.pop();
            for _ in 0..2 {
                payload += 1;
                q.schedule(q.now(), payload); // ready lane
            }
            dfs(&mut q, &mut rng, &mut payload, 4);
        }
    }

    #[test]
    fn recorded_stream_matches_reference_model() {
        // A recorded mixed workload: schedules clustered near `now` (wheel),
        // occasional far schedules (heap), zero-latency replies (ready),
        // FIFO pops, and occasional out-of-order pop_seq jumps. The hybrid
        // queue must produce the exact event order of the naive reference.
        let mut rng = Rng(0x5EED_CAFE_F00D_0001);
        let mut fast: EventQueue<u64> = EventQueue::new();
        let mut slow: NaiveQueue<u64> = NaiveQueue::new();
        let mut payload = 0u64;
        for step in 0..4000 {
            let r = rng.next();
            match r % 10 {
                // 60%: schedule near-term (exercises the wheel, including
                // the exact WHEEL-1 / WHEEL boundary).
                0..=5 => {
                    let delta = rng.next() % (WHEEL as u64 + 2);
                    let at = fast.now().saturating_add(Cycle(delta));
                    payload += 1;
                    fast.schedule(at, payload);
                    slow.schedule(at, payload);
                }
                // 10%: schedule far (heap).
                6 => {
                    let at = fast
                        .now()
                        .saturating_add(Cycle(WHEEL as u64 + rng.next() % 1000));
                    payload += 1;
                    fast.schedule(at, payload);
                    slow.schedule(at, payload);
                }
                // 20%: FIFO pop.
                7 | 8 => {
                    assert_eq!(fast.pop(), slow.pop(), "step {step}");
                }
                // 10%: out-of-order jump to a random pending seq.
                _ => {
                    if fast.scheduled_count() > 0 {
                        let seq = rng.next() % fast.scheduled_count() + 1;
                        assert_eq!(fast.pop_seq(seq), slow.pop_seq(seq), "step {step}");
                    }
                }
            }
        }
        // Drain both completely.
        loop {
            let (x, y) = (fast.pop(), slow.pop());
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }
}
