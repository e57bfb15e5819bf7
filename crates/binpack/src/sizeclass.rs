//! Sorted size-class arena, the index structure behind the subset-sum first
//! fit kernel.
//!
//! Subset-sum first fit repeatedly asks for "the largest remaining item of
//! size at most `free`, earliest input position among equals". The arena
//! answers that without a tree:
//!
//! 1. **Sort once.** The fitting items' `u32` positions are stable-sorted by
//!    size with an LSD radix sort. Input order is the tie-break, so a stable
//!    sort already puts the earliest position first within each size.
//! 2. **Size classes.** Each run of equal sizes is a class with a head
//!    cursor into the sorted positions; taking from a class advances its
//!    cursor.
//! 3. **Predecessor query.** A coarse bucket table over `size >> shift` maps
//!    `free` to the short range of classes sharing its bucket, which gives
//!    the largest class with size at most `free`. A 64-ary bitset over class
//!    indices ([`LiveSet`]) then finds the largest non-empty class at or
//!    below it; a class's bit is cleared when its cursor reaches its end.
//!
//! Every table is sized by the item or class count, never by the capacity:
//! the bucket table has at most one slot per class, so a capacity of
//! `u64::MAX / 2` allocates nothing extra. The transient footprint is one
//! `u32` per item for the sorted positions (two while the sort runs) plus
//! 20 bytes per class (size, cursor, end, bucket slot) and one bit per class
//! per bitset level — at most 24 B/item when every size is distinct, and
//! about 7 B/item on HTML_18mil sizes, where a 1.125M-file shard has
//! 177k distinct sizes.

use crate::item::Item;

/// Bits per radix-sort digit: a 2048-entry histogram stays in L1.
const RADIX_BITS: u32 = 11;
const RADIX: usize = 1 << RADIX_BITS;

/// Items of size at most some capacity, grouped into size classes, with the
/// largest-fitting-item query of subset-sum first fit.
#[derive(Debug)]
pub(crate) struct SizeClasses {
    /// Item positions, sorted by size ascending, input order among equals.
    order: Vec<u32>,
    /// Size of each class, strictly ascending.
    sizes: Vec<u64>,
    /// Per class: `[head, end)` of its not-yet-taken positions in `order`.
    cursors: Vec<(u32, u32)>,
    /// Bucket of a size is `size >> shift`.
    shift: u32,
    /// `bucket_first[b]` is the number of classes whose bucket is below `b`;
    /// one slot per bucket plus a final one equal to the class count.
    bucket_first: Vec<u32>,
    /// Classes whose cursor has not reached its end.
    live: LiveSet,
}

impl SizeClasses {
    /// Index every item of `items` whose size is at most `capacity`.
    /// Positions must fit in `u32` (the caller's arena bound).
    pub(crate) fn new(items: &[Item], capacity: u64) -> Self {
        let order = sort_fitting_by_size(items, capacity);
        let mut sizes: Vec<u64> = Vec::new();
        let mut cursors: Vec<(u32, u32)> = Vec::new();
        for (k, &pos) in order.iter().enumerate() {
            let size = items[pos as usize].size;
            match cursors.last_mut() {
                Some(last) if sizes.last() == Some(&size) => last.1 += 1,
                _ => {
                    let k = crate::fast::index_u32(k);
                    sizes.push(size);
                    cursors.push((k, k + 1));
                }
            }
        }
        let classes = sizes.len();
        let largest = sizes.last().copied().unwrap_or(0);
        // Keep `largest >> shift` below the class count, so there are at
        // most as many buckets as classes (two when one class is u64::MAX).
        let shift = (u64::BITS - largest.leading_zeros())
            .saturating_sub(classes.max(1).ilog2())
            .min(u64::BITS - 1);
        let buckets = (largest >> shift) as usize + 1;
        let mut bucket_first = Vec::with_capacity(buckets + 1);
        let mut c = 0;
        for b in 0..=buckets {
            while c < classes && ((sizes[c] >> shift) as usize) < b {
                c += 1;
            }
            bucket_first.push(crate::fast::index_u32(c));
        }
        SizeClasses {
            order,
            sizes,
            cursors,
            shift,
            bucket_first,
            live: LiveSet::full(classes),
        }
    }

    /// Index of the largest class with size at most `free`, empty or not.
    fn last_class_at_most(&self, free: u64) -> Option<usize> {
        let &largest = self.sizes.last()?;
        if free >= largest {
            return Some(self.sizes.len() - 1);
        }
        // free < largest, so its bucket is a real one and has a successor
        // slot. Classes before `lo` all have smaller buckets, hence fit.
        let b = (free >> self.shift) as usize;
        let lo = self.bucket_first[b] as usize;
        let hi = self.bucket_first[b + 1] as usize;
        let fit = lo + self.sizes[lo..hi].partition_point(|&s| s <= free);
        fit.checked_sub(1)
    }

    /// Remove and return `(position, size)` of the largest remaining item of
    /// size at most `free`, earliest position among equal sizes; `None`
    /// when no remaining item fits.
    pub(crate) fn take_largest_at_most(&mut self, free: u64) -> Option<(usize, u64)> {
        let class = self.live.last_at_most(self.last_class_at_most(free)?)?;
        let cursor = &mut self.cursors[class];
        let pos = self.order[cursor.0 as usize];
        cursor.0 += 1;
        if cursor.0 == cursor.1 {
            self.live.clear(class);
        }
        Some((pos as usize, self.sizes[class]))
    }

    /// True when every indexed item has been taken.
    pub(crate) fn is_empty(&self) -> bool {
        self.live.is_empty()
    }
}

/// Positions of the items with size at most `capacity`, stable-sorted by
/// size ascending: an LSD radix sort over the significant bits of the
/// largest fitting size. All digit histograms come from one sequential pass,
/// and a digit on which every item agrees is skipped.
fn sort_fitting_by_size(items: &[Item], capacity: u64) -> Vec<u32> {
    let mut order: Vec<u32> = Vec::with_capacity(items.len());
    let mut largest = 0u64;
    for (pos, item) in items.iter().enumerate() {
        if item.size <= capacity {
            order.push(crate::fast::index_u32(pos));
            largest = largest.max(item.size);
        }
    }
    let digits = (u64::BITS - largest.leading_zeros()).div_ceil(RADIX_BITS);
    let mut histograms = vec![[0u32; RADIX]; digits as usize];
    for &pos in &order {
        let size = items[pos as usize].size;
        for (d, hist) in histograms.iter_mut().enumerate() {
            hist[digit(size, d)] += 1;
        }
    }
    let n = order.len();
    let mut scratch: Vec<u32> = Vec::new();
    for (d, hist) in histograms.iter().enumerate() {
        if hist.iter().any(|&count| count as usize == n) {
            continue;
        }
        let mut next = [0u32; RADIX];
        let mut sum = 0u32;
        for (slot, &count) in next.iter_mut().zip(hist) {
            *slot = sum;
            sum += count;
        }
        scratch.resize(n, 0);
        for &pos in &order {
            let slot = &mut next[digit(items[pos as usize].size, d)];
            scratch[*slot as usize] = pos;
            *slot += 1;
        }
        std::mem::swap(&mut order, &mut scratch);
    }
    order
}

/// The `d`-th radix digit of `size`, least significant first.
#[inline]
fn digit(size: u64, d: usize) -> usize {
    ((size >> (d as u32 * RADIX_BITS)) as usize) & (RADIX - 1) // lint:allow(RL006, d < 64 / RADIX_BITS and the digit is masked)
}

/// A set of indices `0..n` as a 64-ary bitset hierarchy: bit `i` of level
/// `l + 1` is set while word `i` of level `l` is non-zero. The top level is
/// one word, so "largest member at or below `i`" and removal each touch one
/// word per level — ⌈log64 n⌉ levels, three up to 262,144 classes.
#[derive(Debug)]
struct LiveSet {
    levels: Vec<Vec<u64>>,
}

impl LiveSet {
    /// The set holding every index in `0..n`.
    fn full(n: usize) -> Self {
        let mut levels = Vec::new();
        let mut bits = n;
        loop {
            let mut words = vec![u64::MAX; bits / 64];
            if !bits.is_multiple_of(64) || words.is_empty() {
                words.push((1u64 << (bits % 64)) - 1);
            }
            bits = words.len();
            levels.push(words);
            if bits == 1 {
                return LiveSet { levels };
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.levels.last().is_none_or(|top| top[0] == 0)
    }

    /// Remove index `i`, clearing parent bits whose word empties.
    fn clear(&mut self, mut i: usize) {
        for words in &mut self.levels {
            let word = &mut words[i / 64];
            *word &= !(1u64 << (i % 64));
            if *word != 0 {
                return;
            }
            i /= 64;
        }
    }

    /// The largest member at or below `i`.
    fn last_at_most(&self, mut i: usize) -> Option<usize> {
        // Climb until some level has a set bit at or below the current
        // index, then descend along the highest set bit of each word.
        let mut level = 0;
        loop {
            let w = i / 64;
            let below = self.levels[level][w] & (u64::MAX >> (63 - i % 64));
            if below != 0 {
                i = w * 64 + highest_bit(below);
                break;
            }
            if w == 0 {
                return None;
            }
            i = w - 1;
            level += 1;
        }
        while level > 0 {
            level -= 1;
            i = i * 64 + highest_bit(self.levels[level][i]);
        }
        Some(i)
    }
}

#[inline]
fn highest_bit(word: u64) -> usize {
    (63 - word.leading_zeros()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radix_sort_is_stable_and_drops_oversize() {
        let sizes = [5, 3, 5, 9000, 0, 3, 1 << 40, 5];
        let items = Item::from_sizes(&sizes);
        let order = sort_fitting_by_size(&items, 1 << 40);
        assert_eq!(order, vec![4, 1, 5, 0, 2, 7, 3, 6]);
        let order = sort_fitting_by_size(&items, 10);
        assert_eq!(order, vec![4, 1, 5, 0, 2, 7]);
    }

    #[test]
    fn largest_fitting_earliest_first() {
        let items = Item::from_sizes(&[4, 7, 4, 2, 7, 1]);
        let mut classes = SizeClasses::new(&items, 10);
        assert_eq!(classes.take_largest_at_most(10), Some((1, 7)));
        assert_eq!(classes.take_largest_at_most(6), Some((0, 4)));
        assert_eq!(classes.take_largest_at_most(10), Some((4, 7)));
        assert_eq!(classes.take_largest_at_most(3), Some((3, 2)));
        assert_eq!(classes.take_largest_at_most(0), None);
        assert_eq!(classes.take_largest_at_most(3), Some((5, 1)));
        assert_eq!(classes.take_largest_at_most(3), None);
        assert_eq!(classes.take_largest_at_most(4), Some((2, 4)));
        assert!(classes.is_empty());
    }

    #[test]
    fn huge_sizes_use_few_buckets() {
        let items = Item::from_sizes(&[u64::MAX, 1, u64::MAX / 2]);
        let mut classes = SizeClasses::new(&items, u64::MAX);
        assert!(classes.bucket_first.len() <= 4);
        assert_eq!(
            classes.take_largest_at_most(u64::MAX - 1),
            Some((2, u64::MAX / 2))
        );
        assert_eq!(classes.take_largest_at_most(u64::MAX), Some((0, u64::MAX)));
        assert_eq!(classes.take_largest_at_most(u64::MAX / 2), Some((1, 1)));
        assert!(classes.is_empty());
    }

    #[test]
    fn live_set_predecessor_across_levels() {
        let n = 64 * 64 * 3 + 5;
        let mut set = LiveSet::full(n);
        assert_eq!(set.levels.len(), 3);
        assert_eq!(set.last_at_most(n - 1), Some(n - 1));
        for i in 1..n - 1 {
            set.clear(i);
        }
        assert_eq!(set.last_at_most(n - 2), Some(0));
        set.clear(0);
        assert_eq!(set.last_at_most(n - 2), None);
        assert_eq!(set.last_at_most(n - 1), Some(n - 1));
        set.clear(n - 1);
        assert!(set.is_empty());
    }

    #[test]
    fn empty_arena() {
        let mut classes = SizeClasses::new(&Item::from_sizes(&[50]), 10);
        assert!(classes.is_empty());
        assert_eq!(classes.take_largest_at_most(10), None);
    }
}
