//! Temp-buffer pool bounding the recursion's workspace.
//!
//! Every level of the Strassen–Winograd recursion needs two quadrant
//! temporaries (`X`, `Y`), and every leaf product stages its operands
//! and result for the block kernels. Allocating those on demand would
//! churn the allocator `O(7^d)` times; this free-list recycles buffers
//! across the recursion's sequential products instead, so the live
//! workspace stays at the analytic bound (two temps per *live* level
//! along one root-to-leaf path plus one leaf staging set, geometric in
//! the level area: `≤ (2/3)·S²q²` elements plus `3ℓ²q²`) and the pool's
//! high-water mark is reported as evidence.

use mmc_exec::Element;

/// A grow-only free list of `Vec<T>` scratch buffers.
pub struct BufferPool<T> {
    free: Vec<Vec<T>>,
    allocated_bytes: u64,
}

impl<T: Element> BufferPool<T> {
    /// An empty pool.
    pub fn new() -> BufferPool<T> {
        BufferPool { free: Vec::new(), allocated_bytes: 0 }
    }

    /// Take a buffer of exactly `len` elements with unspecified contents
    /// (callers overwrite every element). Reuses a free buffer when one
    /// is available, growing it if needed.
    pub fn take(&mut self, len: usize) -> Vec<T> {
        match self.free.pop() {
            Some(mut v) => {
                if v.capacity() < len {
                    self.allocated_bytes +=
                        ((len - v.capacity()) * std::mem::size_of::<T>()) as u64;
                }
                v.resize(len, T::ZERO);
                v
            }
            None => {
                self.allocated_bytes += (len * std::mem::size_of::<T>()) as u64;
                vec![T::ZERO; len]
            }
        }
    }

    /// Take a buffer of `len` elements guaranteed to be all zero.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<T> {
        let mut v = self.take(len);
        v.fill(T::ZERO);
        v
    }

    /// Return a buffer for reuse.
    pub fn put(&mut self, v: Vec<T>) {
        self.free.push(v);
    }

    /// High-water mark of bytes ever allocated through the pool — the
    /// recursion's reported workspace bound.
    pub fn peak_bytes(&self) -> u64 {
        self.allocated_bytes
    }
}

impl<T: Element> Default for BufferPool<T> {
    fn default() -> Self {
        BufferPool::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuses_buffers_and_tracks_peak() {
        let mut pool: BufferPool<f64> = BufferPool::new();
        let a = pool.take(100);
        assert_eq!(a.len(), 100);
        assert_eq!(pool.peak_bytes(), 800);
        pool.put(a);
        // Smaller request reuses the same allocation: no growth.
        let b = pool.take(50);
        assert_eq!(b.len(), 50);
        assert_eq!(pool.peak_bytes(), 800);
        pool.put(b);
        // Larger request grows by the delta only.
        let c = pool.take(120);
        assert_eq!(c.len(), 120);
        assert_eq!(pool.peak_bytes(), 800 + 20 * 8);
        pool.put(c);
        // Two live buffers cost two allocations.
        let d = pool.take(10);
        let e = pool.take(10);
        assert_eq!(d.len() + e.len(), 20);
        assert_eq!(pool.peak_bytes(), 800 + 20 * 8 + 80);
    }

    #[test]
    fn take_zeroed_clears_recycled_contents() {
        let mut pool: BufferPool<f64> = BufferPool::new();
        let mut a = pool.take(4);
        a.fill(7.0);
        pool.put(a);
        assert!(pool.take_zeroed(4).iter().all(|&v| v == 0.0));
    }
}
