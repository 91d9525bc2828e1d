//! Quadrant decomposition of the all-pairs triangle (the paper's Fig 5).

/// One pair of item indices with `left < right`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pair {
    /// The smaller item index (`i`).
    pub left: u64,
    /// The larger item index (`j`).
    pub right: u64,
}

impl Pair {
    /// Creates a pair, normalizing order. Panics if `a == b`.
    pub fn new(a: u64, b: u64) -> Self {
        assert_ne!(a, b, "a pair needs two distinct items");
        if a < b {
            Self { left: a, right: b }
        } else {
            Self { left: b, right: a }
        }
    }
}

/// A rectangular region `[row_lo, row_hi) × [col_lo, col_hi)` of the pair
/// matrix; only cells with `row < col` (the strict upper triangle) count as
/// work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Block {
    /// Inclusive start row.
    pub row_lo: u64,
    /// Exclusive end row.
    pub row_hi: u64,
    /// Inclusive start column.
    pub col_lo: u64,
    /// Exclusive end column.
    pub col_hi: u64,
}

impl Block {
    /// The root block covering all pairs of `n` items.
    pub fn root(n: u64) -> Self {
        Self {
            row_lo: 0,
            row_hi: n,
            col_lo: 0,
            col_hi: n,
        }
    }

    /// Number of valid pairs (upper-triangle cells) in this block.
    pub fn count(&self) -> u64 {
        // Σ_{i ∈ [row_lo, row_hi)} max(0, col_hi − max(col_lo, i+1)),
        // computed in closed form because blocks can span millions of rows.
        let (a, b) = (self.col_lo, self.col_hi);
        if a >= b || self.row_lo >= self.row_hi {
            return 0;
        }
        // Rows split into two regimes at i+1 <= a, i.e. i <= a−1:
        //   i ≤ a−1          → contributes (b − a)
        //   a−1 < i < b−1    → contributes (b − i − 1)
        //   i ≥ b−1          → contributes 0
        let r0 = self.row_lo;
        let r1 = self.row_hi;
        // Regime 1: i in [r0, min(r1, a))
        let full_rows = r1.min(a).saturating_sub(r0);
        let mut total = full_rows * (b - a);
        // Regime 2: i in [max(r0, a), min(r1, b.saturating_sub(1)))
        let lo = r0.max(a);
        let hi = r1.min(b.saturating_sub(1));
        if lo < hi {
            // Σ_{i=lo}^{hi-1} (b − 1 − i) — arithmetic series.
            let first = b - 1 - lo; // largest term
            let last = b - hi; // smallest term
            let terms = hi - lo;
            total += (first + last) * terms / 2;
        }
        total
    }

    /// Width and height.
    fn dims(&self) -> (u64, u64) {
        (
            self.row_hi.saturating_sub(self.row_lo),
            self.col_hi.saturating_sub(self.col_lo),
        )
    }

    /// Splits into up to four non-empty quadrants. Blocks with a single cell
    /// (or a single row/column that cannot be split) return an empty vector,
    /// meaning the block is a leaf at the finest granularity.
    pub fn split(&self) -> Vec<Block> {
        let (rows, cols) = self.dims();
        if rows <= 1 && cols <= 1 {
            return Vec::new();
        }
        let row_mid = self.row_lo + rows / 2;
        let col_mid = self.col_lo + cols / 2;
        let mut out = Vec::with_capacity(4);
        let candidates = [
            Block {
                row_lo: self.row_lo,
                row_hi: row_mid.max(self.row_lo + 1),
                col_lo: self.col_lo,
                col_hi: col_mid.max(self.col_lo + 1),
            },
            Block {
                row_lo: self.row_lo,
                row_hi: row_mid.max(self.row_lo + 1),
                col_lo: col_mid.max(self.col_lo + 1),
                col_hi: self.col_hi,
            },
            Block {
                row_lo: row_mid.max(self.row_lo + 1),
                row_hi: self.row_hi,
                col_lo: self.col_lo,
                col_hi: col_mid.max(self.col_lo + 1),
            },
            Block {
                row_lo: row_mid.max(self.row_lo + 1),
                row_hi: self.row_hi,
                col_lo: col_mid.max(self.col_lo + 1),
                col_hi: self.col_hi,
            },
        ];
        for c in candidates {
            if c.row_lo < c.row_hi && c.col_lo < c.col_hi && c.count() > 0 {
                out.push(c);
            }
        }
        // Degenerate guard: if splitting produced just ourselves (possible
        // for 1×k slivers when mids collapse), force progress by slicing
        // the longer axis.
        if out.len() == 1 && out[0] == *self {
            out.clear();
            if cols > 1 {
                let mid = self.col_lo + cols / 2;
                for c in [
                    Block {
                        col_hi: mid,
                        ..*self
                    },
                    Block {
                        col_lo: mid,
                        ..*self
                    },
                ] {
                    if c.count() > 0 {
                        out.push(c);
                    }
                }
            } else {
                let mid = self.row_lo + rows / 2;
                for c in [
                    Block {
                        row_hi: mid,
                        ..*self
                    },
                    Block {
                        row_lo: mid,
                        ..*self
                    },
                ] {
                    if c.count() > 0 {
                        out.push(c);
                    }
                }
            }
        }
        out
    }

    /// Iterates the valid pairs of this block in row-major order.
    pub fn pairs(&self) -> impl Iterator<Item = Pair> + '_ {
        let b = *self;
        (b.row_lo..b.row_hi).flat_map(move |i| {
            let start = b.col_lo.max(i + 1);
            (start..b.col_hi).map(move |j| Pair { left: i, right: j })
        })
    }

    /// The distinct items this block touches (for prefetch planning).
    pub fn items(&self) -> Vec<u64> {
        let mut v: Vec<u64> = (self.row_lo..self.row_hi)
            .chain(self.col_lo..self.col_hi)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn root_counts_n_choose_2() {
        for n in [0u64, 1, 2, 3, 8, 100, 4980] {
            assert_eq!(Block::root(n).count(), n * n.saturating_sub(1) / 2, "n={n}");
        }
    }

    #[test]
    fn pair_normalizes() {
        assert_eq!(Pair::new(5, 2), Pair { left: 2, right: 5 });
    }

    #[test]
    #[should_panic]
    fn pair_rejects_equal() {
        let _ = Pair::new(3, 3);
    }

    #[test]
    fn count_matches_enumeration() {
        // All sub-blocks of a small matrix.
        let n = 9u64;
        for r0 in 0..n {
            for r1 in r0..=n {
                for c0 in 0..n {
                    for c1 in c0..=n {
                        let b = Block {
                            row_lo: r0,
                            row_hi: r1,
                            col_lo: c0,
                            col_hi: c1,
                        };
                        assert_eq!(b.count(), b.pairs().count() as u64, "block {b:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn split_partitions_pairs_exactly() {
        fn check(b: Block, seen: &mut HashSet<Pair>) {
            let children = b.split();
            if children.is_empty() {
                for p in b.pairs() {
                    assert!(seen.insert(p), "pair {p:?} produced twice");
                }
                return;
            }
            let child_total: u64 = children.iter().map(Block::count).sum();
            assert_eq!(
                child_total,
                b.count(),
                "split of {b:?} lost/duplicated work"
            );
            for c in children {
                check(c, seen);
            }
        }
        let n = 16u64;
        let mut seen = HashSet::new();
        check(Block::root(n), &mut seen);
        assert_eq!(seen.len() as u64, n * (n - 1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                assert!(seen.contains(&Pair { left: i, right: j }));
            }
        }
    }

    #[test]
    fn split_always_progresses() {
        // Every non-leaf block's children are strictly smaller.
        fn check(b: Block, depth: usize) {
            assert!(depth < 64, "split recursion too deep at {b:?}");
            for c in b.split() {
                assert!(c.count() < b.count() || c != b, "no progress on {b:?}");
                check(c, depth + 1);
            }
        }
        check(Block::root(33), 0);
    }

    #[test]
    fn fig5_example_8x8() {
        // The paper's Fig 5 splits an 8×8 triangle; first level quadrants:
        let root = Block::root(8);
        let children = root.split();
        // Top-left (rows 0-4 × cols 0-4): triangle of 4 → 6 pairs.
        // Top-right (rows 0-4 × cols 4-8): full 4×4 rect → 16 pairs.
        // Bottom-left (rows 4-8 × cols 0-4): empty (below diagonal) → absent.
        // Bottom-right (rows 4-8 × cols 4-8): triangle of 4 → 6 pairs.
        assert_eq!(children.len(), 3);
        let counts: Vec<u64> = children.iter().map(Block::count).collect();
        assert_eq!(counts.iter().sum::<u64>(), 28);
        assert!(counts.contains(&16));
        assert_eq!(counts.iter().filter(|&&c| c == 6).count(), 2);
    }

    #[test]
    fn empty_blocks() {
        let below = Block {
            row_lo: 4,
            row_hi: 8,
            col_lo: 0,
            col_hi: 4,
        };
        assert_eq!(below.count(), 0);
        assert_eq!(below.pairs().count(), 0);
        let empty = Block {
            row_lo: 3,
            row_hi: 3,
            col_lo: 0,
            col_hi: 9,
        };
        assert_eq!(empty.count(), 0);
    }

    #[test]
    fn items_deduplicated() {
        let b = Block {
            row_lo: 0,
            row_hi: 3,
            col_lo: 2,
            col_hi: 5,
        };
        assert_eq!(b.items(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn single_cell_is_leaf() {
        let b = Block {
            row_lo: 2,
            row_hi: 3,
            col_lo: 7,
            col_hi: 8,
        };
        assert_eq!(b.count(), 1);
        assert!(b.split().is_empty());
        assert_eq!(
            b.pairs().collect::<Vec<_>>(),
            vec![Pair { left: 2, right: 7 }]
        );
    }
}
