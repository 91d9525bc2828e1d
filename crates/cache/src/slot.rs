//! The slot cache: the WRITE/READ state machine of the paper's Fig 4.
//!
//! A cache manages a fixed number of fixed-size slots (device or host
//! buffers — the cache itself stores only slot *indices*; buffer payloads
//! live with the caller, addressed by [`SlotIdx`]). Each slot is either
//! empty, being written by exactly one loader, or readable by any number of
//! concurrent readers. Eviction is LRU over readable slots with zero
//! readers.
//!
//! The cache is a synchronous state machine with explicit waiter tokens: it
//! never blocks or spawns threads. The threaded runtime wraps it in a mutex
//! and parks threads on the returned tokens; the discrete-event simulator
//! schedules wake events for them. One policy implementation, two engines.

use std::collections::VecDeque;

use crate::lru::LruList;
use crate::stats::CacheStats;

/// Identifier of a data-set item (the `i` of `ℓ(i)`).
pub type ItemId = u64;

/// Index of a slot within a cache (also indexes the caller's payload array).
pub type SlotIdx = usize;

/// Outcome of a cache request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The item is resident; the caller now holds a read lease on the slot
    /// and must call [`SlotCache::release`] when done.
    Hit(SlotIdx),
    /// Another job is writing this item; the caller's waiter token was
    /// parked and will be returned by `publish`/`abort` — retry then.
    Pending,
    /// The item missed; the slot was reserved in WRITE state. The caller
    /// must fill the payload and call [`SlotCache::publish`] (or
    /// [`SlotCache::abort`] on failure).
    MustLoad(SlotIdx),
    /// No evictable slot exists right now; the waiter token was parked and
    /// will be returned by a future `release`/`abort` — retry then.
    Busy,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum SlotState<W> {
    Empty,
    Writing { item: ItemId, waiters: Vec<W> },
    Ready { item: ItemId, readers: u32 },
}

const NO_SLOT: u32 = u32::MAX;

/// The multi-reader / single-writer slot cache.
///
/// `W` is the caller's waiter token type (a thread parker, a simulator job
/// id, …). Tokens returned from mutating calls must be woken by the caller;
/// woken jobs simply retry `get`.
#[derive(Debug)]
pub struct SlotCache<W> {
    states: Vec<SlotState<W>>,
    /// Item → slot index, indexed by item id (`NO_SLOT` = absent). Grows
    /// on demand, so out-of-range items stay correct, just slower to insert.
    map: Vec<u32>,
    /// Readable slots with zero readers, LRU-ordered; plus explicit free list.
    lru: LruList,
    free: Vec<SlotIdx>,
    capacity_waiters: VecDeque<W>,
    stats: CacheStats,
}

impl<W> SlotCache<W> {
    /// Creates a cache with `slots` empty slots whose item ids are expected
    /// to be dense in `0..items`: the item → slot table is a flat array, so
    /// no lookup hashes. Items ≥ `items` remain correct (the table grows on
    /// demand).
    pub fn with_item_space(slots: usize, items: usize) -> Self {
        Self {
            states: (0..slots).map(|_| SlotState::Empty).collect(),
            map: vec![NO_SLOT; items],
            lru: LruList::new(slots),
            free: (0..slots).rev().collect(),
            capacity_waiters: VecDeque::new(),
            stats: CacheStats::default(),
        }
    }

    #[inline]
    fn slot_of(&self, item: ItemId) -> Option<SlotIdx> {
        match self.map.get(item as usize) {
            Some(&s) if s != NO_SLOT => Some(s as SlotIdx),
            _ => None,
        }
    }

    #[inline]
    fn map_insert(&mut self, item: ItemId, slot: SlotIdx) {
        let i = item as usize;
        if i >= self.map.len() {
            self.map.resize(i + 1, NO_SLOT);
        }
        self.map[i] = u32::try_from(slot).expect("slot index fits u32");
    }

    #[inline]
    fn map_remove(&mut self, item: ItemId) {
        if let Some(s) = self.map.get_mut(item as usize) {
            *s = NO_SLOT;
        }
    }

    /// All mapped `(item, slot)` entries, in item order.
    fn entries(&self) -> impl Iterator<Item = (ItemId, SlotIdx)> + '_ {
        self.map
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s != NO_SLOT)
            .map(|(i, &s)| (i as ItemId, s as SlotIdx))
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.states.len()
    }

    /// Number of slots currently holding (or loading) an item.
    pub fn occupied(&self) -> usize {
        self.capacity() - self.free.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of waiters currently parked for capacity (diagnostics).
    pub fn parked_capacity_waiters(&self) -> usize {
        self.capacity_waiters.len()
    }

    /// Number of slots currently evictable (READ state, zero readers).
    pub fn evictable(&self) -> usize {
        self.lru.len()
    }

    /// Pops one parked capacity waiter, if an evictable or free slot exists
    /// to satisfy it. Callers use this after operations that create
    /// capacity without an accompanying `release` (e.g. `publish`, whose
    /// slot becomes evictable the moment its readers drain).
    pub fn pop_capacity_waiter(&mut self) -> Option<W> {
        if self.lru.is_empty() && self.free.is_empty() {
            return None;
        }
        self.capacity_waiters.pop_front()
    }

    /// Whether `item` is resident in READ state (used when serving remote
    /// peers: in-flight writes don't count). Does not touch LRU order.
    pub fn contains_ready(&self, item: ItemId) -> bool {
        matches!(
            self.slot_of(item).map(|s| &self.states[s]),
            Some(SlotState::Ready { .. })
        )
    }

    /// The slot `item` is being written into, if its load is in flight
    /// (WRITE state). Callers key per-fill state by this slot: it stays
    /// the item's from `MustLoad` until `publish` or `abort`, and a WRITE
    /// slot is never evicted.
    #[inline]
    pub fn filling(&self, item: ItemId) -> Option<SlotIdx> {
        let slot = self.slot_of(item)?;
        matches!(self.states[slot], SlotState::Writing { .. }).then_some(slot)
    }

    /// Takes a read lease on `item` only if it is already resident in READ
    /// state; never reserves a slot, parks a waiter, or counts a miss.
    ///
    /// Used when serving a remote peer's distributed-cache fetch: a miss
    /// must answer "not here" without side effects (the protocol is best
    /// effort — the requester falls back to loading locally).
    pub fn try_read(&mut self, item: ItemId) -> Option<SlotIdx> {
        let slot = self.slot_of(item)?;
        match &mut self.states[slot] {
            SlotState::Ready { readers, .. } => {
                if *readers == 0 {
                    self.lru.remove(slot);
                }
                *readers += 1;
                Some(slot)
            }
            _ => None,
        }
    }

    /// Requests `item` for reading.
    ///
    /// `waiter` supplies this job's token, consumed only when the result is
    /// [`Lookup::Pending`] or [`Lookup::Busy`].
    pub fn get(&mut self, item: ItemId, waiter: impl FnOnce() -> W) -> Lookup {
        if let Some(slot) = self.slot_of(item) {
            match &mut self.states[slot] {
                SlotState::Ready { readers, .. } => {
                    if *readers == 0 {
                        self.lru.remove(slot);
                    }
                    *readers += 1;
                    self.stats.hits += 1;
                    return Lookup::Hit(slot);
                }
                SlotState::Writing { waiters, .. } => {
                    waiters.push(waiter());
                    self.stats.hits_pending += 1;
                    return Lookup::Pending;
                }
                SlotState::Empty => unreachable!("mapped slot cannot be empty"),
            }
        }
        // Miss: find a slot — prefer free slots, then evict LRU.
        let slot = if let Some(s) = self.free.pop() {
            s
        } else if let Some(s) = self.lru.pop_back() {
            let old = match &self.states[s] {
                SlotState::Ready { item, readers } => {
                    debug_assert_eq!(*readers, 0, "evicting a slot with readers");
                    *item
                }
                _ => unreachable!("LRU slot not in Ready state"),
            };
            self.map_remove(old);
            self.stats.evictions += 1;
            s
        } else {
            self.capacity_waiters.push_back(waiter());
            self.stats.capacity_stalls += 1;
            return Lookup::Busy;
        };
        self.states[slot] = SlotState::Writing {
            item,
            waiters: Vec::new(),
        };
        self.map_insert(item, slot);
        self.stats.misses += 1;
        Lookup::MustLoad(slot)
    }

    /// Completes a load: transitions the slot WRITE → READ (zero readers)
    /// and returns the parked waiters, which must be woken to retry `get`.
    ///
    /// The publishing job does *not* hold a read lease afterwards; it should
    /// re-`get` (which will hit) if it needs the data — or use
    /// [`SlotCache::publish_and_read`] to do both atomically.
    pub fn publish(&mut self, slot: SlotIdx) -> Vec<W> {
        let state = std::mem::replace(&mut self.states[slot], SlotState::Empty);
        match state {
            SlotState::Writing { item, waiters } => {
                self.states[slot] = SlotState::Ready { item, readers: 0 };
                self.lru.push_front(slot);
                waiters
            }
            _ => panic!("publish on slot not in WRITE state"),
        }
    }

    /// Completes a load and immediately takes a read lease for the loader.
    pub fn publish_and_read(&mut self, slot: SlotIdx) -> Vec<W> {
        let waiters = self.publish(slot);
        match &mut self.states[slot] {
            SlotState::Ready { readers, .. } => {
                self.lru.remove(slot);
                *readers = 1;
            }
            _ => unreachable!(),
        }
        waiters
    }

    /// Aborts a load (e.g. storage failure): frees the slot and returns
    /// both the write-waiters and at most one capacity waiter to retry.
    pub fn abort(&mut self, slot: SlotIdx) -> Vec<W> {
        let state = std::mem::replace(&mut self.states[slot], SlotState::Empty);
        match state {
            SlotState::Writing { item, mut waiters } => {
                self.map_remove(item);
                self.free.push(slot);
                self.stats.aborts += 1;
                if let Some(w) = self.capacity_waiters.pop_front() {
                    waiters.push(w);
                }
                waiters
            }
            _ => panic!("abort on slot not in WRITE state"),
        }
    }

    /// Releases a read lease. When the last reader leaves, the slot becomes
    /// evictable and at most one capacity waiter is returned for retry.
    pub fn release(&mut self, slot: SlotIdx) -> Option<W> {
        match &mut self.states[slot] {
            SlotState::Ready { readers, .. } => {
                assert!(*readers > 0, "release without readers on slot {slot}");
                *readers -= 1;
                if *readers == 0 {
                    self.lru.push_front(slot);
                    return self.capacity_waiters.pop_front();
                }
                None
            }
            _ => panic!("release on slot not in READ state"),
        }
    }

    /// Current reader count of a slot (0 for non-READ states).
    pub fn readers(&self, slot: SlotIdx) -> u32 {
        match &self.states[slot] {
            SlotState::Ready { readers, .. } => *readers,
            _ => 0,
        }
    }

    /// Items resident in READ state (for diagnostics / tests).
    pub fn resident_items(&self) -> Vec<ItemId> {
        self.entries()
            .filter(|&(_, s)| matches!(self.states[s], SlotState::Ready { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// Internal consistency check, used by property tests: every mapped item
    /// points at a slot holding it; LRU contains exactly the evictable
    /// slots; free slots are Empty.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (item, slot) in self.entries() {
            match &self.states[slot] {
                SlotState::Writing { item: it, .. } | SlotState::Ready { item: it, .. } => {
                    if *it != item {
                        return Err(format!(
                            "map says slot {slot} holds {item}, state says {it}"
                        ));
                    }
                }
                SlotState::Empty => return Err(format!("mapped slot {slot} is empty")),
            }
        }
        for slot in 0..self.capacity() {
            let evictable = matches!(self.states[slot], SlotState::Ready { readers: 0, .. });
            if evictable != self.lru.contains(slot) {
                return Err(format!(
                    "slot {slot}: evictable={evictable} but lru={}",
                    self.lru.contains(slot)
                ));
            }
            if self.free.contains(&slot) && !matches!(self.states[slot], SlotState::Empty) {
                return Err(format!("free slot {slot} is not empty"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Cache = SlotCache<u32>;

    /// A cache whose item table starts smaller than the ids the tests use,
    /// so growth on demand is exercised too.
    fn cache(slots: usize) -> Cache {
        Cache::with_item_space(slots, 4)
    }

    fn must_load(c: &mut Cache, item: ItemId) -> SlotIdx {
        match c.get(item, || unreachable!()) {
            Lookup::MustLoad(s) => s,
            other => panic!("expected MustLoad, got {other:?}"),
        }
    }

    fn load_and_publish(c: &mut Cache, item: ItemId) -> SlotIdx {
        let s = must_load(c, item);
        assert!(c.publish(s).is_empty());
        s
    }

    #[test]
    fn miss_then_hit() {
        let mut c = cache(2);
        let s = load_and_publish(&mut c, 7);
        match c.get(7, || unreachable!()) {
            Lookup::Hit(hit) => assert_eq!(hit, s),
            other => panic!("{other:?}"),
        }
        c.release(s);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        c.check_invariants().unwrap();
    }

    #[test]
    fn pending_waiters_returned_on_publish() {
        let mut c = cache(1);
        let s = must_load(&mut c, 1);
        assert_eq!(c.get(1, || 100), Lookup::Pending);
        assert_eq!(c.get(1, || 101), Lookup::Pending);
        let waiters = c.publish(s);
        assert_eq!(waiters, vec![100, 101]);
        // Waiters retry and hit.
        assert!(matches!(c.get(1, || unreachable!()), Lookup::Hit(_)));
        c.check_invariants().unwrap();
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = cache(2);
        load_and_publish(&mut c, 1);
        load_and_publish(&mut c, 2);
        // Touch 1 so 2 becomes LRU.
        if let Lookup::Hit(s) = c.get(1, || unreachable!()) {
            c.release(s);
        } else {
            panic!();
        }
        must_load(&mut c, 3); // must evict item 2
        assert!(c.contains_ready(1));
        assert!(!c.contains_ready(2));
        assert_eq!(c.stats().evictions, 1);
        c.check_invariants().unwrap();
    }

    #[test]
    fn readers_pin_slots_against_eviction() {
        let mut c = cache(1);
        let s = load_and_publish(&mut c, 1);
        let held = match c.get(1, || unreachable!()) {
            Lookup::Hit(h) => h,
            other => panic!("{other:?}"),
        };
        // Slot is pinned by the reader: a different item must stall.
        assert_eq!(c.get(2, || 55), Lookup::Busy);
        assert_eq!(c.stats().capacity_stalls, 1);
        // Releasing hands back the capacity waiter.
        assert_eq!(c.release(held), Some(55));
        assert_eq!(c.readers(s), 0); // publish itself never takes a lease
        c.check_invariants().unwrap();
    }

    #[test]
    fn publish_and_read_holds_lease() {
        let mut c = cache(1);
        let s = must_load(&mut c, 1);
        assert!(c.publish_and_read(s).is_empty());
        assert_eq!(c.readers(s), 1);
        // Pinned: other items stall.
        assert_eq!(c.get(2, || 9), Lookup::Busy);
        assert_eq!(c.release(s), Some(9));
        c.check_invariants().unwrap();
    }

    #[test]
    fn abort_frees_slot_and_wakes() {
        let mut c = cache(1);
        let s = must_load(&mut c, 1);
        assert_eq!(c.get(1, || 7), Lookup::Pending);
        assert_eq!(c.get(2, || 8), Lookup::Busy);
        let woken = c.abort(s);
        assert_eq!(woken, vec![7, 8]);
        assert!(!c.contains_ready(1));
        assert_eq!(c.stats().aborts, 1);
        // Slot is reusable.
        assert!(matches!(c.get(2, || unreachable!()), Lookup::MustLoad(_)));
        c.check_invariants().unwrap();
    }

    #[test]
    fn multiple_readers_counted() {
        let mut c = cache(1);
        let s = load_and_publish(&mut c, 1);
        for expected in 1..=3 {
            assert!(matches!(c.get(1, || unreachable!()), Lookup::Hit(_)));
            assert_eq!(c.readers(s), expected);
        }
        for expected in (0..3).rev() {
            c.release(s);
            assert_eq!(c.readers(s), expected);
        }
        c.check_invariants().unwrap();
    }

    #[test]
    fn zero_capacity_always_busy() {
        let mut c = cache(0);
        assert_eq!(c.get(1, || 1), Lookup::Busy);
    }

    #[test]
    #[should_panic(expected = "release without readers")]
    fn release_without_lease_panics() {
        let mut c = cache(1);
        let s = load_and_publish(&mut c, 1);
        c.release(s);
    }

    #[test]
    fn resident_items_sorted() {
        let mut c = cache(3);
        load_and_publish(&mut c, 5);
        load_and_publish(&mut c, 2);
        load_and_publish(&mut c, 9);
        assert_eq!(c.resident_items(), vec![2, 5, 9]);
    }

    #[test]
    fn try_read_takes_lease_only_when_ready() {
        let mut c = cache(2);
        // Absent item: no side effects at all.
        assert_eq!(c.try_read(1), None);
        assert_eq!(c.stats().misses, 0);
        assert_eq!(c.occupied(), 0);
        // Writing item: not served.
        let s = must_load(&mut c, 1);
        assert_eq!(c.try_read(1), None);
        c.publish(s);
        // Ready item: lease taken and pins against eviction.
        let got = c.try_read(1).unwrap();
        assert_eq!(got, s);
        assert_eq!(c.readers(s), 1);
        c.release(s);
        c.check_invariants().unwrap();
    }

    #[test]
    fn filling_names_the_slot_only_while_its_load_is_in_flight() {
        let mut c = cache(2);
        // Empty: nothing mapped, nothing filling.
        assert_eq!(c.filling(1), None);
        // WRITE: the reserved slot.
        let s = must_load(&mut c, 1);
        assert_eq!(c.filling(1), Some(s));
        assert_eq!(c.filling(2), None);
        // READ: resident, no longer filling — with or without readers.
        c.publish(s);
        assert_eq!(c.filling(1), None);
        assert!(matches!(c.get(1, || unreachable!()), Lookup::Hit(_)));
        assert_eq!(c.filling(1), None);
        c.release(s);
        // Aborted: the slot is free and the item unmapped.
        let t = must_load(&mut c, 2);
        assert_eq!(c.filling(2), Some(t));
        c.abort(t);
        assert_eq!(c.filling(2), None);
        // Out of the item table's range: absent, no growth.
        assert_eq!(c.filling(1 << 40), None);
        c.check_invariants().unwrap();
    }

    #[test]
    fn occupied_tracks_usage() {
        let mut c = cache(3);
        assert_eq!(c.occupied(), 0);
        load_and_publish(&mut c, 1);
        assert_eq!(c.occupied(), 1);
        let s = must_load(&mut c, 2);
        assert_eq!(c.occupied(), 2);
        c.abort(s);
        assert_eq!(c.occupied(), 1);
    }
}
