//! Deterministic discrete-event core.
//!
//! The [`EventQueue`] trait states the scheduling contract; the engine runs
//! on one implementation of it, [`SlabEventQueue`], a slab-backed binary
//! heap whose sift operations move compact `(time, seq, slot)` keys while
//! payloads stay parked in a free-list slab.
//!
//! [`CalendarQueue`] (Brown 1988) implements the same contract and drains
//! any schedule in the same order, but the engine does not use it: it wins
//! its schedule/pop kernel and loses end to end (equal `wall_s` and +3.5 %
//! peak RSS on the 1024-node anchor, +18 % `wall_s` on the 64-node sharded
//! workload). It is kept only because the benchmark harness times it.
//!
//! Determinism: events order by `(time, seq)` where `seq` increments on
//! every insertion, so ties in time break by insertion order and a
//! simulation remains a pure function of its configuration and seed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Virtual time in nanoseconds.
pub type SimTime = u64;

/// A deterministic event scheduler: ties in time break by insertion order
/// (FIFO), past-dated events clamp to `now`.
pub trait EventQueue<E> {
    /// Current virtual time (the timestamp of the last popped event).
    fn now(&self) -> SimTime;

    /// Schedules `event` at absolute time `at` (clamped to now for
    /// past-dated events).
    fn schedule_at(&mut self, at: SimTime, event: E);

    /// Schedules `event` at `at` under an explicit tie-break priority:
    /// events at equal times pop in ascending `prio` order instead of
    /// insertion order. Callers that need an ordering independent of
    /// *when* an event was inserted (the sharded engine derives `prio`
    /// from stable simulation state) use this; `prio` values should be
    /// unique per timestamp, since equal `(at, prio)` keys fall back to
    /// an insertion-dependent tie-break.
    fn schedule_keyed(&mut self, at: SimTime, prio: u64, event: E);

    /// Schedules `event` `delay` nanoseconds from now.
    fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule_at(self.now().saturating_add(delay), event);
    }

    /// Pops the next event, advancing virtual time.
    fn pop(&mut self) -> Option<(SimTime, E)>;

    /// Timestamp of the next event without popping it (and without
    /// advancing virtual time). Takes `&mut self` so implementations may
    /// reposition internal cursors; repeated calls are idempotent.
    fn peek_time(&mut self) -> Option<SimTime>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// True if no events remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Parks a payload in the free-list slab layout both queues share,
/// returning its slot (new or recycled).
fn park_payload<E>(slab: &mut Vec<Option<E>>, free: &mut Vec<u32>, event: E) -> u32 {
    match free.pop() {
        Some(s) => {
            debug_assert!(slab[s as usize].is_none());
            slab[s as usize] = Some(event);
            s
        }
        None => {
            let s = u32::try_from(slab.len()).expect("event slab overflow");
            slab.push(Some(event));
            s
        }
    }
}

// ---------------------------------------------------------------------------
// Slab-backed binary heap
// ---------------------------------------------------------------------------

/// The slab-backed binary-heap scheduler: the simulator's event queue.
///
/// Event payloads are parked in a free-list slab and never move after
/// insertion, while the binary heap orders only compact
/// `(SimTime, seq, slot)` keys (24 bytes, `Copy`). Heap sift operations
/// therefore compare and move small integer triples instead of full event
/// payloads. The slab
/// slot index participates in the key only as an inert third component (a
/// given `seq` is unique, so it never actually decides an ordering).
#[derive(Debug)]
pub struct SlabEventQueue<E> {
    /// Min-heap over `(time, seq, slot)`; payloads live in `slab`.
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Parked payloads, addressed by the key's slot component.
    slab: Vec<Option<E>>,
    /// Reusable slab slots.
    free: Vec<u32>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for SlabEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> SlabEventQueue<E> {
    /// Creates an empty queue at time 0.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
            now: 0,
        }
    }
}

impl<E> EventQueue<E> for SlabEventQueue<E> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn schedule_at(&mut self, at: SimTime, event: E) {
        let prio = self.seq;
        self.seq += 1;
        self.schedule_keyed(at, prio, event);
    }

    fn schedule_keyed(&mut self, at: SimTime, prio: u64, event: E) {
        let at = at.max(self.now);
        let slot = park_payload(&mut self.slab, &mut self.free, event);
        self.heap.push(Reverse((at, prio, slot)));
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((at, _, slot)) = self.heap.pop()?;
        let event = self.slab[slot as usize]
            .take()
            .expect("heap key without parked payload");
        self.free.push(slot);
        self.now = at;
        Some((at, event))
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse((t, _, _))| t)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

// ---------------------------------------------------------------------------
// Calendar queue
// ---------------------------------------------------------------------------

/// A deterministic calendar queue.
///
/// Not used by the engine; kept for the benchmark row that times it
/// (`sim.calendar_queue_ns`). See the module docs for why.
///
/// Events hash into `(t / width) mod buckets` time buckets; a pop scans
/// the current "day" forward. Each bucket keeps its keys sorted in
/// *descending* `(time, seq)` order so the bucket minimum is `Vec::pop`
/// away. The bucket count and width resize automatically to track the
/// event population (target ≈ one event per bucket per day), giving
/// amortized O(1) schedule/pop for large, time-dense event populations.
///
/// Payloads live in the same free-list slab layout as
/// [`SlabEventQueue`]; only `(time, seq, slot)` keys move through the
/// calendar. Ordering is by `(time, seq)` exactly like the heap queue, so
/// both drain any schedule in the same order.
#[derive(Debug)]
pub struct CalendarQueue<E> {
    /// `buckets[i]` holds keys sorted descending; `last()` is the minimum.
    buckets: Vec<Vec<(SimTime, u64, u32)>>,
    /// Power-of-two bucket count minus one.
    mask: usize,
    /// Bucket time width, ns (≥ 1).
    width: SimTime,
    /// Bucket the next pop starts scanning from.
    cur: usize,
    /// Exclusive upper time bound of `cur` within the current day.
    bucket_top: SimTime,
    slab: Vec<Option<E>>,
    free: Vec<u32>,
    len: usize,
    seq: u64,
    now: SimTime,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    const MIN_BUCKETS: usize = 4;

    /// Creates an empty queue at time 0.
    pub fn new() -> Self {
        let width = 1;
        Self {
            buckets: (0..Self::MIN_BUCKETS).map(|_| Vec::new()).collect(),
            mask: Self::MIN_BUCKETS - 1,
            width,
            cur: 0,
            bucket_top: width,
            slab: Vec::new(),
            free: Vec::new(),
            len: 0,
            seq: 0,
            now: 0,
        }
    }

    #[inline]
    fn bucket_of(&self, t: SimTime) -> usize {
        ((t / self.width) as usize) & self.mask
    }

    fn insert_key(&mut self, key: (SimTime, u64, u32)) {
        let b = self.bucket_of(key.0);
        let bucket = &mut self.buckets[b];
        // Descending order: everything greater than `key` stays in front.
        let pos = bucket.partition_point(|&e| e > key);
        bucket.insert(pos, key);
    }

    /// Re-buckets every pending key for a new size/width (O(n), amortized
    /// away by the doubling/halving triggers).
    fn resize(&mut self) {
        let target = self.len.next_power_of_two().max(Self::MIN_BUCKETS);
        let keys: Vec<(SimTime, u64, u32)> =
            self.buckets.iter_mut().flat_map(std::mem::take).collect();
        let (mut min_t, mut max_t) = (SimTime::MAX, 0);
        for &(t, _, _) in &keys {
            min_t = min_t.min(t);
            max_t = max_t.max(t);
        }
        // Width ≈ the average inter-event gap, so a day holds the whole
        // population at about one event per bucket.
        self.width = if keys.len() >= 2 {
            ((max_t - min_t) / keys.len() as u64).max(1)
        } else {
            self.width.max(1)
        };
        if self.buckets.len() != target {
            self.buckets = (0..target).map(|_| Vec::new()).collect();
            self.mask = target - 1;
        }
        for key in keys {
            self.insert_key(key);
        }
        self.align_to(if self.len == 0 { self.now } else { min_t });
    }

    /// Points the scan cursor at the bucket containing `t`.
    fn align_to(&mut self, t: SimTime) {
        self.cur = self.bucket_of(t);
        self.bucket_top = (t / self.width + 1) * self.width;
    }

    /// Locates the global minimum by comparing every bucket's minimum
    /// (used when a full day's scan comes up empty — far-future events).
    fn seek_global_min(&mut self) {
        let mut best: Option<(SimTime, u64, u32)> = None;
        for bucket in &self.buckets {
            if let Some(&key) = bucket.last() {
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        let (t, _, _) = best.expect("seek on non-empty queue");
        self.align_to(t);
    }

    /// Positions the scan cursor on the bucket holding the global minimum
    /// key and returns that key without removing it. Idempotent: repeated
    /// calls re-find the same key at the (already aligned) cursor.
    fn position_min(&mut self) -> Option<(SimTime, u64, u32)> {
        if self.len == 0 {
            return None;
        }
        let mut scanned = 0;
        loop {
            if let Some(&key) = self.buckets[self.cur].last() {
                if key.0 < self.bucket_top {
                    return Some(key);
                }
            }
            self.cur = (self.cur + 1) & self.mask;
            self.bucket_top += self.width;
            scanned += 1;
            if scanned > self.mask {
                // A full day without a hit: every event lives in a later
                // year. Jump straight to the earliest one.
                self.seek_global_min();
                scanned = 0;
            }
        }
    }
}

impl<E> EventQueue<E> for CalendarQueue<E> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn schedule_at(&mut self, at: SimTime, event: E) {
        let prio = self.seq;
        self.seq += 1;
        self.schedule_keyed(at, prio, event);
    }

    fn schedule_keyed(&mut self, at: SimTime, prio: u64, event: E) {
        let at = at.max(self.now);
        let slot = park_payload(&mut self.slab, &mut self.free, event);
        self.insert_key((at, prio, slot));
        self.len += 1;
        // The scan cursor may sit far ahead of `now` (aligned to a
        // far-future minimum); a new event earlier than the cursor's
        // window would then never be scanned. Pull the cursor back —
        // re-scanning forward is always safe.
        if at < self.bucket_top.saturating_sub(self.width) {
            self.align_to(at);
        }
        if self.len > 2 * self.buckets.len() {
            self.resize();
        }
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, _, slot) = self.position_min()?;
        self.buckets[self.cur].pop();
        let event = self.slab[slot as usize]
            .take()
            .expect("calendar key without parked payload");
        self.free.push(slot);
        self.len -= 1;
        self.now = at;
        if self.buckets.len() > Self::MIN_BUCKETS && self.len < self.buckets.len() / 2 {
            self.resize();
        }
        Some((at, event))
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.position_min().map(|(t, _, _)| t)
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Converts seconds to [`SimTime`] nanoseconds (non-negative).
pub fn secs_to_ns(seconds: f64) -> SimTime {
    (seconds.max(0.0) * 1e9).round() as SimTime
}

/// Converts [`SimTime`] nanoseconds to seconds.
pub fn ns_to_secs(ns: SimTime) -> f64 {
    ns as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs every queue-semantics check against one implementation.
    fn check_queue_semantics<Q: EventQueue<i64> + Default>() {
        // Pops in time order.
        let mut q = Q::default();
        q.schedule_at(30, 3);
        q.schedule_at(10, 1);
        q.schedule_at(20, 2);
        let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);

        // Ties break by insertion order.
        let mut q = Q::default();
        q.schedule_at(5, 1);
        q.schedule_at(5, 2);
        q.schedule_at(5, 3);
        let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);

        // FIFO survives slot reuse.
        let mut q = Q::default();
        for i in 0..8 {
            q.schedule_at(1, i);
        }
        for expect in 0..8 {
            assert_eq!(q.pop().unwrap().1, expect);
        }
        for i in 100..108 {
            q.schedule_at(50, i);
        }
        let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (100..108).collect::<Vec<_>>());

        // `now` advances with pops; schedule_in is relative.
        let mut q = Q::default();
        q.schedule_at(100, 0);
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 100);
        q.schedule_in(50, 0);
        assert_eq!(q.pop().unwrap().0, 150);

        // Past events clamp to now and queue FIFO behind concurrent ones.
        let mut q = Q::default();
        q.schedule_at(100, 0);
        q.pop();
        q.schedule_at(100, 1);
        q.schedule_at(5, 2);
        assert_eq!(q.pop().unwrap(), (100, 1));
        assert_eq!(q.pop().unwrap(), (100, 2));

        // len / is_empty.
        let mut q = Q::default();
        assert!(q.is_empty());
        q.schedule_at(1, 0);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn slab_heap_semantics() {
        check_queue_semantics::<SlabEventQueue<i64>>();
    }

    #[test]
    fn calendar_semantics() {
        check_queue_semantics::<CalendarQueue<i64>>();
    }

    /// Keyed scheduling orders equal-time events by priority, not by
    /// insertion order, and `peek_time` observes without consuming.
    fn check_keyed_semantics<Q: EventQueue<i64> + Default>() {
        // Reverse-priority insertion still pops in ascending prio order.
        let mut q = Q::default();
        q.schedule_keyed(10, 30, 3);
        q.schedule_keyed(10, 10, 1);
        q.schedule_keyed(10, 20, 2);
        q.schedule_keyed(5, 99, 0);
        let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);

        // peek_time is idempotent and pop confirms it.
        let mut q = Q::default();
        assert_eq!(q.peek_time(), None);
        q.schedule_keyed(70, 1, 7);
        q.schedule_keyed(40, 1, 4);
        assert_eq!(q.peek_time(), Some(40));
        assert_eq!(q.peek_time(), Some(40));
        assert_eq!(q.now(), 0, "peek must not advance time");
        assert_eq!(q.pop().unwrap(), (40, 4));
        assert_eq!(q.peek_time(), Some(70));
        // Scheduling an earlier event after a peek is still observed.
        q.schedule_keyed(50, 1, 5);
        assert_eq!(q.peek_time(), Some(50));
        assert_eq!(q.pop().unwrap(), (50, 5));
        assert_eq!(q.pop().unwrap(), (70, 7));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn slab_heap_keyed_semantics() {
        check_keyed_semantics::<SlabEventQueue<i64>>();
    }

    #[test]
    fn calendar_keyed_semantics() {
        check_keyed_semantics::<CalendarQueue<i64>>();
    }

    #[test]
    fn keyed_order_identical_across_implementations() {
        let mut lcg: u64 = 0xBADC0FFEE;
        let mut step = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let inserts: Vec<(SimTime, u64)> = (0..400).map(|_| (step() % 64, step())).collect();
        let drain = |q: &mut dyn EventQueue<u64>| -> Vec<(SimTime, u64)> {
            for (i, &(at, prio)) in inserts.iter().enumerate() {
                q.schedule_keyed(at, prio, i as u64);
            }
            std::iter::from_fn(|| q.pop()).collect()
        };
        let mut heap = SlabEventQueue::new();
        let mut cal = CalendarQueue::new();
        assert_eq!(drain(&mut heap), drain(&mut cal));
    }

    /// Property-style: a deterministic pseudo-random interleaving of
    /// schedules and pops must drain in nondecreasing time order with FIFO
    /// ties, exercising slab reuse (and calendar resizing) throughout.
    fn check_random_interleaving<Q: EventQueue<u64> + Default>(spread: u64) {
        let mut lcg: u64 = 0x2545F4914F6CDD1D;
        let mut step = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let mut q = Q::default();
        let mut drained: Vec<(SimTime, u64)> = Vec::new();
        for round in 0u64..2000 {
            let at = q.now() + step() % spread;
            q.schedule_at(at, round);
            if round % 2 == 1 {
                if let Some(ev) = q.pop() {
                    drained.push(ev);
                }
            }
        }
        while let Some(ev) = q.pop() {
            drained.push(ev);
        }
        assert_eq!(drained.len(), 2000);
        for pair in drained.windows(2) {
            let ((t0, s0), (t1, s1)) = (pair[0], pair[1]);
            assert!(t0 <= t1, "time went backwards: {t0} -> {t1}");
            if t0 == t1 {
                assert!(s0 < s1, "FIFO violated at t={t0}: {s0} before {s1}");
            }
        }
        let mut ids: Vec<u64> = drained.iter().map(|&(_, s)| s).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..2000).collect::<Vec<_>>());
    }

    #[test]
    fn slab_heap_drains_any_multiset_in_order() {
        check_random_interleaving::<SlabEventQueue<u64>>(50);
    }

    #[test]
    fn calendar_drains_any_multiset_in_order() {
        // Narrow and wide spreads stress dense buckets and year-skips.
        check_random_interleaving::<CalendarQueue<u64>>(50);
        check_random_interleaving::<CalendarQueue<u64>>(5_000_000);
    }

    #[test]
    fn calendar_event_behind_far_future_cursor() {
        // Regression: a shrink-resize aligns the cursor to a far-future
        // minimum; scheduling a new event earlier than that minimum (but
        // ≥ now) must pull the cursor back, not orphan the event.
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        // Grow the population so a later drain shrinks with a wide width.
        for i in 0..32 {
            q.schedule_at(i * 7, i as u32);
        }
        q.schedule_at(98_000_000, 100);
        q.schedule_at(105_000_000, 101);
        q.schedule_at(252_000_000, 102);
        // Drain the near events; the shrink leaves the cursor aligned to
        // the 98e6 minimum with a multi-million-ns bucket width.
        for i in 0..32 {
            assert_eq!(q.pop().unwrap().1, i as u32);
        }
        // New near-term event, far behind the cursor's window.
        q.schedule_at(q.now() + 50, 200);
        assert_eq!(q.pop().unwrap().1, 200, "near event must come first");
        assert_eq!(q.pop().unwrap().1, 100);
        assert_eq!(q.pop().unwrap().1, 101);
        assert_eq!(q.pop().unwrap().1, 102);
    }

    #[test]
    fn calendar_handles_far_future_gaps() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        // Cluster of near events, then a lone event years of buckets away.
        for i in 0..16 {
            q.schedule_at(i, i as u32);
        }
        q.schedule_at(1_000_000_000, 99);
        for i in 0..16 {
            assert_eq!(q.pop().unwrap().1, i as u32);
        }
        assert_eq!(q.pop().unwrap(), (1_000_000_000, 99));
        assert!(q.pop().is_none());
        // And the queue stays usable afterwards.
        q.schedule_in(5, 7);
        assert_eq!(q.pop().unwrap(), (1_000_000_005, 7));
    }

    #[test]
    fn identical_drain_order_across_implementations() {
        let mut lcg: u64 = 0xDEADBEEFCAFE;
        let mut step = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let schedule: Vec<u64> = (0..500).map(|_| step() % 1000).collect();
        let drain = |q: &mut dyn EventQueue<u64>| -> Vec<(SimTime, u64)> {
            for (i, &dt) in schedule.iter().enumerate() {
                q.schedule_in(dt, i as u64);
                if i % 3 == 0 {
                    q.pop();
                }
            }
            std::iter::from_fn(|| q.pop()).collect()
        };
        let mut heap = SlabEventQueue::new();
        let mut cal = CalendarQueue::new();
        assert_eq!(drain(&mut heap), drain(&mut cal));
    }

    #[test]
    fn time_conversions_roundtrip() {
        assert_eq!(secs_to_ns(1.5), 1_500_000_000);
        assert_eq!(secs_to_ns(-1.0), 0);
        assert!((ns_to_secs(secs_to_ns(0.1308)) - 0.1308).abs() < 1e-9);
    }

    #[test]
    fn slab_reuses_slots() {
        let mut q = SlabEventQueue::new();
        for i in 0..100 {
            q.schedule_at(i, i);
            q.pop();
        }
        // Steady-state schedule/pop churn must not grow the slab.
        assert!(q.slab.len() <= 2, "slab grew to {}", q.slab.len());
    }
}
