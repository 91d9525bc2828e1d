//! The pop-newest / steal-oldest task deque policy as plain data.
//!
//! Both engines run this one type. The threaded pool keeps one per worker
//! behind a lock; the discrete-event simulator drives it single-threaded
//! and deterministically. Keeping the policy in one shape in both engines
//! is what makes simulator results explanatory for the real runtime.

use std::collections::VecDeque;

use crate::block::Block;

/// A double-ended task queue of [`Block`]s.
///
/// * Owners `push`/`pop` at the back — depth-first descent into the
///   quadrant tree, so the local worker always handles the smallest,
///   most-local piece next (best cache affinity).
/// * Thieves `steal` from the front — the oldest entry is the highest-level
///   (largest) block, maximizing work transferred per steal (§4.2: "the
///   task stolen is always at the 'highest' level").
#[derive(Debug, Clone, Default)]
pub struct TaskDeque {
    items: VecDeque<Block>,
}

impl TaskDeque {
    /// Creates an empty deque.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes a block at the owner end.
    pub fn push(&mut self, block: Block) {
        self.items.push_back(block);
    }

    /// Pops the newest block (owner side).
    pub fn pop(&mut self) -> Option<Block> {
        self.items.pop_back()
    }

    /// Steals the oldest block (thief side).
    pub fn steal(&mut self) -> Option<Block> {
        self.items.pop_front()
    }

    /// Number of queued blocks.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if no blocks are queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total pairs across queued blocks (for balance diagnostics).
    pub fn pending_pairs(&self) -> u64 {
        self.items.iter().map(Block::count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(n: u64) -> Block {
        Block::root(n)
    }

    #[test]
    fn owner_pops_lifo() {
        let mut d = TaskDeque::new();
        d.push(blk(2));
        d.push(blk(3));
        d.push(blk(4));
        assert_eq!(d.pop(), Some(blk(4)));
        assert_eq!(d.pop(), Some(blk(3)));
        assert_eq!(d.pop(), Some(blk(2)));
        assert_eq!(d.pop(), None);
    }

    #[test]
    fn thief_steals_fifo() {
        let mut d = TaskDeque::new();
        d.push(blk(2));
        d.push(blk(3));
        assert_eq!(d.steal(), Some(blk(2)));
        assert_eq!(d.steal(), Some(blk(3)));
        assert_eq!(d.steal(), None);
    }

    #[test]
    fn owner_and_thief_interleave_at_opposite_ends() {
        let mut d = TaskDeque::new();
        d.push(blk(2));
        d.push(blk(3));
        d.push(blk(4));
        assert_eq!(d.pop(), Some(blk(4))); // owner: depth-first
        assert_eq!(d.steal(), Some(blk(2))); // thief: oldest
        assert_eq!(d.pop(), Some(blk(3)));
        assert_eq!(d.steal(), None);
    }

    #[test]
    fn thief_gets_shallowest_block_in_divide_and_conquer() {
        // Simulate depth-first splitting: the owner pushes children of the
        // root, descends into the last child, and pushes its children. The
        // front of the deque (the steal end) then holds a depth-1 block —
        // the "highest level" task in the paper's wording — while the back
        // holds the small depth-2 blocks the owner works on next.
        let mut d = TaskDeque::new();
        let root = blk(64);
        let level1 = root.split();
        for &c in &level1 {
            d.push(c);
        }
        let deepest = d.pop().unwrap();
        let level2 = deepest.split();
        for &c in &level2 {
            d.push(c);
        }
        let stolen = d.steal().unwrap();
        assert!(level1.contains(&stolen), "thief must get a depth-1 block");
        // The owner's next pop is a depth-2 block (smaller than the steal).
        let popped = d.pop().unwrap();
        assert!(level2.contains(&popped));
        assert!(popped.count() < stolen.count());
    }

    #[test]
    fn pending_pairs_sums() {
        let mut d = TaskDeque::new();
        d.push(blk(4)); // 6 pairs
        d.push(blk(3)); // 3 pairs
        assert_eq!(d.pending_pairs(), 9);
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
    }
}
