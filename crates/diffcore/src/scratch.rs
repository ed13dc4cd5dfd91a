//! Reusable per-thread scratch buffers for the diff hot path.
//!
//! Every `diff_tokens` call used to allocate (and immediately drop) a
//! family of short-lived vectors: the gap DP tables, Hirschberg score
//! rows, and the per-token metadata arenas HtmlDiff builds before
//! comparing. None of those allocations outlive one diff, so a
//! snapshot service diffing thousands of revisions pays the
//! allocator once per diff per buffer for memory whose size barely
//! changes between calls.
//!
//! [`DiffScratch`] is a pool of typed buffers. Callers *take* a buffer
//! (popping a recycled one or allocating fresh), use it as an ordinary
//! `Vec`, and *give* it back when done; returned buffers are cleared but
//! keep their capacity for the next diff. The pool is deliberately a
//! stack of independent buffers rather than a single bump arena guarded
//! by one `RefCell` borrow: the weighted-LCS machinery nests (an outer
//! gap DP's score closure can run an inner sentence LCS), so two live
//! buffers of the same kind must be able to coexist. Take/give touches
//! the thread-local pool only momentarily, never across user code.
//!
//! Discipline rules (see DESIGN.md §4e):
//!
//! - A taken buffer is owned: forgetting to give it back merely drops
//!   it (no leak, no poisoning), it is never aliased.
//! - Buffers above [`MAX_RETAINED_BUF_BYTES`] are dropped on return so a
//!   single pathological diff cannot pin its peak memory forever.
//! - The pool retains at most [`MAX_POOLED_BUFS`] buffers per type.
//! - [`retained_bytes`] reports the calling thread's pooled capacity;
//!   HtmlDiff publishes it as the `diff.scratch.bytes` gauge.
//!
//! The default pool is thread-local — snapshot service threads each get
//! their own, so no locking and no cross-thread nondeterminism. A caller that wants explicit control (tests, or an
//! engine embedding with its own threading) can hold a [`DiffScratch`]
//! directly; the free functions are conveniences over the thread-local
//! instance.

use std::cell::RefCell;

/// Returned buffers larger than this are dropped instead of pooled, so
/// one huge diff cannot pin its peak memory for the thread's lifetime.
/// 4 MiB covers the outer DP table of a ~700×700-token page pair and
/// every Hirschberg row/banded table the fallback produces.
pub const MAX_RETAINED_BUF_BYTES: usize = 1 << 22;

/// Maximum recycled buffers kept per element type.
pub const MAX_POOLED_BUFS: usize = 16;

/// A pool of recycled diff buffers. See the module docs.
#[derive(Debug, Default)]
pub struct DiffScratch {
    u64_bufs: Vec<Vec<u64>>,
    u32_bufs: Vec<Vec<u32>>,
    pair_bufs: Vec<Vec<(usize, usize)>>,
}

impl DiffScratch {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a cleared `Vec<u64>` buffer (DP tables, score rows).
    pub fn take_u64(&mut self) -> Vec<u64> {
        self.u64_bufs.pop().unwrap_or_default()
    }

    /// Returns a `u64` buffer to the pool.
    pub fn give_u64(&mut self, mut buf: Vec<u64>) {
        buf.clear();
        if Self::retain(buf.capacity(), 8, self.u64_bufs.len()) {
            self.u64_bufs.push(buf);
        }
    }

    /// Takes a cleared `Vec<u32>` buffer (token metadata arenas).
    pub fn take_u32(&mut self) -> Vec<u32> {
        self.u32_bufs.pop().unwrap_or_default()
    }

    /// Returns a `u32` buffer to the pool.
    pub fn give_u32(&mut self, mut buf: Vec<u32>) {
        buf.clear();
        if Self::retain(buf.capacity(), 4, self.u32_bufs.len()) {
            self.u32_bufs.push(buf);
        }
    }

    /// Takes a cleared index-pair buffer (alignments under assembly).
    pub fn take_pairs(&mut self) -> Vec<(usize, usize)> {
        self.pair_bufs.pop().unwrap_or_default()
    }

    /// Returns an index-pair buffer to the pool.
    pub fn give_pairs(&mut self, mut buf: Vec<(usize, usize)>) {
        buf.clear();
        let elem = std::mem::size_of::<(usize, usize)>();
        if Self::retain(buf.capacity(), elem, self.pair_bufs.len()) {
            self.pair_bufs.push(buf);
        }
    }

    fn retain(capacity: usize, elem_bytes: usize, pooled: usize) -> bool {
        capacity > 0
            && capacity.saturating_mul(elem_bytes) <= MAX_RETAINED_BUF_BYTES
            && pooled < MAX_POOLED_BUFS
    }

    /// Total capacity (in bytes) currently held by pooled buffers.
    pub fn retained_bytes(&self) -> usize {
        let u64s: usize = self.u64_bufs.iter().map(|b| b.capacity() * 8).sum();
        let u32s: usize = self.u32_bufs.iter().map(|b| b.capacity() * 4).sum();
        let elem = std::mem::size_of::<(usize, usize)>();
        let pairs: usize = self.pair_bufs.iter().map(|b| b.capacity() * elem).sum();
        u64s + u32s + pairs
    }
}

thread_local! {
    static SCRATCH: RefCell<DiffScratch> = RefCell::new(DiffScratch::new());
}

/// Takes a `u64` buffer from the calling thread's pool.
pub fn take_u64_buf() -> Vec<u64> {
    SCRATCH.with(|s| s.borrow_mut().take_u64())
}

/// Returns a `u64` buffer to the calling thread's pool.
pub fn give_u64_buf(buf: Vec<u64>) {
    SCRATCH.with(|s| s.borrow_mut().give_u64(buf));
}

/// Takes a `u32` buffer from the calling thread's pool.
pub fn take_u32_buf() -> Vec<u32> {
    SCRATCH.with(|s| s.borrow_mut().take_u32())
}

/// Returns a `u32` buffer to the calling thread's pool.
pub fn give_u32_buf(buf: Vec<u32>) {
    SCRATCH.with(|s| s.borrow_mut().give_u32(buf));
}

/// Takes an index-pair buffer from the calling thread's pool.
pub fn take_pairs_buf() -> Vec<(usize, usize)> {
    SCRATCH.with(|s| s.borrow_mut().take_pairs())
}

/// Returns an index-pair buffer to the calling thread's pool.
pub fn give_pairs_buf(buf: Vec<(usize, usize)>) {
    SCRATCH.with(|s| s.borrow_mut().give_pairs(buf));
}

/// Pooled capacity (bytes) on the calling thread — the
/// `diff.scratch.bytes` gauge source.
pub fn retained_bytes() -> usize {
    SCRATCH.with(|s| s.borrow().retained_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_recycle_capacity() {
        let mut pool = DiffScratch::new();
        let mut buf = pool.take_u64();
        buf.extend(0..1000);
        let cap = buf.capacity();
        pool.give_u64(buf);
        let again = pool.take_u64();
        assert!(again.is_empty());
        assert_eq!(again.capacity(), cap);
    }

    #[test]
    fn oversized_buffers_are_dropped() {
        let mut pool = DiffScratch::new();
        let buf = vec![0u64; MAX_RETAINED_BUF_BYTES / 8 + 1];
        pool.give_u64(buf);
        assert_eq!(pool.retained_bytes(), 0);
    }

    #[test]
    fn pool_size_is_capped() {
        let mut pool = DiffScratch::new();
        for _ in 0..MAX_POOLED_BUFS + 5 {
            pool.give_u32(vec![1, 2, 3]);
        }
        assert_eq!(pool.u32_bufs.len(), MAX_POOLED_BUFS);
    }

    #[test]
    fn retained_bytes_counts_all_pools() {
        let mut pool = DiffScratch::new();
        pool.give_u64(Vec::with_capacity(8));
        pool.give_u32(Vec::with_capacity(8));
        pool.give_pairs(Vec::with_capacity(8));
        let elem = std::mem::size_of::<(usize, usize)>();
        assert_eq!(pool.retained_bytes(), 8 * 8 + 8 * 4 + 8 * elem);
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let mut pool = DiffScratch::new();
        pool.give_u64(Vec::new());
        assert!(pool.u64_bufs.is_empty());
    }

    #[test]
    fn thread_local_roundtrip() {
        let mut buf = take_u64_buf();
        buf.extend(0..100);
        give_u64_buf(buf);
        assert!(retained_bytes() >= 100 * 8);
        // Nested takes coexist: two live buffers of the same kind.
        let a = take_u64_buf();
        let b = take_u64_buf();
        give_u64_buf(a);
        give_u64_buf(b);
    }
}
