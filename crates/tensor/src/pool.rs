//! A reusable buffer pool for transient parameter vectors.
//!
//! Large-cohort rounds materialize many short-lived tensors of the same
//! length (the `P` global-model views each client filters, scratch copies
//! on the transport drain path). Allocating and freeing those through the
//! global allocator every round is both slow and fragmenting; a
//! [`BufferPool`] instead recycles the backing `Vec<f32>` storage across
//! uses and keeps high-water statistics so the memory footprint of a round
//! is observable ([`PoolStats::high_water_bytes`] is stamped into bench
//! reports and asserted by the scale tests).
//!
//! The pool is a free list behind a [`Mutex`]: `fetch` hands out a
//! recycled buffer (or allocates a fresh one), `release` returns it. The
//! free list never grows past the most buffers ever lent at once, so
//! releasing storage the pool never lent (a plain clone handed back in
//! place of a pooled copy) cannot grow it without bound. It is
//! deliberately value-transparent — a pooled tensor is bit-identical to a
//! freshly allocated one — so pooling can never affect simulation results.

use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::Tensor;

/// Running counters describing pool traffic.
///
/// Byte figures count `f32` payload (4 bytes per element) of buffers
/// *checked out* of the pool; `high_water_bytes` is the maximum ever
/// outstanding at once and approximates the peak transient tensor memory
/// of the pooled code path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolStats {
    /// Buffers served by recycling a previously released allocation.
    pub reused: u64,
    /// Buffers served by a fresh heap allocation.
    pub allocated: u64,
    /// Buffers handed back via [`BufferPool::release`].
    pub released: u64,
    /// Payload bytes currently checked out.
    pub outstanding_bytes: u64,
    /// Maximum payload bytes ever checked out simultaneously.
    pub high_water_bytes: u64,
}

#[derive(Debug, Default)]
struct PoolInner {
    free: Vec<Vec<f32>>,
    /// Buffers currently lent out.
    lent: usize,
    /// The most buffers ever lent at once: the bound on `free`.
    max_lent: usize,
    stats: PoolStats,
}

impl PoolInner {
    /// Lends a buffer with room for `len` elements: recycled when the free
    /// list has one, freshly allocated otherwise.
    fn lend(&mut self, len: usize) -> Vec<f32> {
        let buf = match self.free.pop() {
            Some(b) => {
                self.stats.reused += 1;
                b
            }
            None => {
                self.stats.allocated += 1;
                Vec::with_capacity(len)
            }
        };
        self.lent += 1;
        self.max_lent = self.max_lent.max(self.lent);
        self.stats.outstanding_bytes += 4 * len as u64;
        self.stats.high_water_bytes = self.stats.high_water_bytes.max(self.stats.outstanding_bytes);
        buf
    }
}

/// A thread-safe free list of `Vec<f32>` buffers.
///
/// # Example
///
/// ```
/// use fedms_tensor::pool::BufferPool;
///
/// let pool = BufferPool::new();
/// let a = pool.fetch(&[1.0, 2.0]);
/// pool.release(a);
/// let b = pool.fetch(&[3.0, 4.0, 5.0]); // reuses the freed storage
/// assert_eq!(b, &[3.0, 4.0, 5.0]);
/// assert_eq!(pool.stats().reused, 1);
/// ```
#[derive(Debug, Default)]
pub struct BufferPool {
    inner: Mutex<PoolInner>,
}

impl BufferPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// Returns a buffer holding a copy of `data`, recycling freed storage
    /// when available.
    pub fn fetch(&self, data: &[f32]) -> Vec<f32> {
        let mut buf = self.inner.lock().expect("buffer pool poisoned").lend(data.len());
        buf.clear();
        buf.extend_from_slice(data);
        buf
    }

    /// Returns a buffer to the free list for later reuse, or drops it when
    /// the free list already holds as many buffers as were ever lent at
    /// once.
    pub fn release(&self, buf: Vec<f32>) {
        let mut inner = self.inner.lock().expect("buffer pool poisoned");
        inner.stats.released += 1;
        inner.stats.outstanding_bytes =
            inner.stats.outstanding_bytes.saturating_sub(4 * buf.len() as u64);
        inner.lent = inner.lent.saturating_sub(1);
        if inner.free.len() < inner.max_lent {
            inner.free.push(buf);
        }
    }

    /// Copies `src` into a pooled rank-preserving tensor.
    pub fn fetch_tensor(&self, src: &Tensor) -> Tensor {
        Tensor::from_vec(self.fetch(src.as_slice()), src.dims())
            .expect("pooled buffer length matches source tensor")
    }

    /// Recycles a tensor's backing storage.
    pub fn release_tensor(&self, t: Tensor) {
        self.release(t.into_vec());
    }

    /// A snapshot of the traffic counters.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().expect("buffer pool poisoned").stats
    }

    /// Buffers currently on the free list.
    pub fn free_len(&self) -> usize {
        self.inner.lock().expect("buffer pool poisoned").free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_copies_and_release_recycles() {
        let pool = BufferPool::new();
        let a = pool.fetch(&[1.0, 2.0, 3.0]);
        assert_eq!(a, &[1.0, 2.0, 3.0]);
        pool.release(a);
        assert_eq!(pool.free_len(), 1);
        let b = pool.fetch(&[4.0]);
        assert_eq!(b, &[4.0]);
        let s = pool.stats();
        assert_eq!(s.allocated, 1);
        assert_eq!(s.reused, 1);
        assert_eq!(s.released, 1);
    }

    #[test]
    fn high_water_tracks_peak_outstanding() {
        let pool = BufferPool::new();
        let a = pool.fetch(&[0.0; 10]); // 40 bytes out
        let b = pool.fetch(&[0.0; 5]); // 60 bytes out — the peak
        pool.release(a);
        pool.release(b);
        let c = pool.fetch(&[0.0; 3]);
        let s = pool.stats();
        assert_eq!(s.high_water_bytes, 60);
        assert_eq!(s.outstanding_bytes, 12);
        pool.release(c);
        assert_eq!(pool.stats().outstanding_bytes, 0);
    }

    #[test]
    fn tensor_round_trip_is_value_transparent() {
        let pool = BufferPool::new();
        let src = Tensor::from_vec(vec![1.5, -2.5, 0.0, 3.25], &[2, 2]).unwrap();
        let pooled = pool.fetch_tensor(&src);
        assert_eq!(pooled, src);
        assert_eq!(pooled.dims(), &[2, 2]);
        pool.release_tensor(pooled);
        let again = pool.fetch_tensor(&src);
        assert_eq!(again, src);
        assert_eq!(pool.stats().reused, 1);
    }

    #[test]
    fn releasing_never_fetched_buffers_keeps_the_free_list_empty() {
        let pool = BufferPool::new();
        for _ in 0..100 {
            pool.release(vec![0.0; 8]);
        }
        assert_eq!(pool.free_len(), 0);
        assert_eq!(pool.stats().released, 100);
        // The bound follows the most buffers ever lent at once.
        let (a, b) = (pool.fetch(&[1.0]), pool.fetch(&[2.0]));
        pool.release(a);
        pool.release(b);
        pool.release(vec![3.0]);
        assert_eq!(pool.free_len(), 2);
    }

    #[test]
    fn pool_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BufferPool>();
    }
}
