//! Thread-local buffer pool for [`Matrix`](crate::Matrix) storage.
//!
//! The data-plane profile of the ML pipelines is dominated by
//! short-lived `Vec<f64>` buffers: every GEMM allocates its output,
//! the eigensolver symmetrizes its input into a scratch matrix, PCA
//! covariance chains produce a temporary per reduction step. Those
//! allocations are all the same few sizes per workload, so a small
//! recycling pool turns them into pops from a free list.
//!
//! Design constraints (DESIGN.md §5.10):
//!
//! * **Thread-local, lock-free.** Each worker thread owns its pool;
//!   no synchronization on the allocation path. A buffer released on
//!   one thread and reacquired on another simply misses the pool —
//!   correctness never depends on a hit.
//! * **Size-bucketed.** Buffers are binned by the next power of two of
//!   their capacity; an acquire may be served by any buffer whose
//!   capacity covers the request (it is truncated/zeroed to length).
//! * **Zero-filled on reuse.** [`acquire`] returns a buffer of exactly
//!   `n` zeros, bit-identical to `vec![0.0; n]` — kernels keep their
//!   results byte-for-byte regardless of whether the pool hit.
//! * **Bounded.** At most `PER_BUCKET` buffers per bucket and
//!   `MAX_RETAINED_BYTES` held overall; releases beyond the caps
//!   fall through to the normal allocator.
//!
//! No `unsafe`: the pool trades only `Vec` values.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Buffers retained per size bucket. The working set of a blocked GEMM
/// or a reduction cascade cycles through a handful of buffers per size.
const PER_BUCKET: usize = 4;

/// Total bytes the pool may retain per thread (32 MiB — a few
/// paper-scale ds-array blocks).
const MAX_RETAINED_BYTES: usize = 32 << 20;

/// Power-of-two capacity buckets up to 2^BUCKETS elements.
const BUCKETS: usize = 28;

struct Pool {
    buckets: Vec<Vec<Vec<f64>>>,
    retained_elems: usize,
    hits: u64,
    misses: u64,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool {
        buckets: (0..BUCKETS).map(|_| Vec::new()).collect(),
        retained_elems: 0,
        hits: 0,
        misses: 0,
    });
}

/// Bucket index for a capacity: ceil(log2(cap)).
fn bucket_of(cap: usize) -> usize {
    (usize::BITS - cap.saturating_sub(1).leading_zeros()) as usize
}

// Process-wide pool counters. The per-thread counters above die with
// their worker thread, which made the pool invisible to observability:
// a driver reading `stats()` only ever saw its own (empty) pool. These
// aggregate across every thread with relaxed `fetch_add`s so a
// metrics registry can report true hit/miss/bytes-reused totals.
static GLOBAL_HITS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_MISSES: AtomicU64 = AtomicU64::new(0);
static GLOBAL_REUSED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Process-wide pool counters, aggregated across all threads (alive
/// and dead): `(hits, misses, bytes_reused)`.
pub fn global_stats() -> (u64, u64, u64) {
    (
        GLOBAL_HITS.load(Ordering::Relaxed),
        GLOBAL_MISSES.load(Ordering::Relaxed),
        GLOBAL_REUSED_BYTES.load(Ordering::Relaxed),
    )
}

/// Counts one pool resolution; a hit adds the `bytes` it served to the
/// reused total.
fn observe(hit: bool, bytes: u64) {
    if hit {
        GLOBAL_HITS.fetch_add(1, Ordering::Relaxed);
        GLOBAL_REUSED_BYTES.fetch_add(bytes, Ordering::Relaxed);
    } else {
        GLOBAL_MISSES.fetch_add(1, Ordering::Relaxed);
    }
}

/// Pops a pooled buffer whose capacity covers `n`, if any.
fn acquire_raw(n: usize) -> Option<Vec<f64>> {
    let b = bucket_of(n);
    if b >= BUCKETS {
        return None;
    }
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        // Same bucket first (capacity in [n, 2n)), then the next
        // one up; anything larger would waste too much capacity.
        for bi in [b, b + 1] {
            if bi >= BUCKETS {
                break;
            }
            if let Some(buf) = p.buckets[bi].pop() {
                p.retained_elems -= buf.capacity();
                p.hits += 1;
                observe(true, (buf.capacity() * std::mem::size_of::<f64>()) as u64);
                return Some(buf);
            }
        }
        p.misses += 1;
        observe(false, 0);
        None
    })
}

/// Gets an `n`-element zero-filled buffer, reusing a pooled allocation
/// when one of sufficient capacity is available. The result is
/// indistinguishable from `vec![0.0; n]`.
pub fn acquire(n: usize) -> Vec<f64> {
    if n == 0 {
        return Vec::new();
    }
    match acquire_raw(n) {
        Some(mut buf) => {
            buf.clear();
            buf.resize(n, 0.0);
            buf
        }
        None => vec![0.0; n],
    }
}

/// Gets an **empty** buffer with capacity for at least `n` elements —
/// for callers that fill by `extend` and would only waste the
/// zero-fill of [`acquire`].
pub fn acquire_capacity(n: usize) -> Vec<f64> {
    if n == 0 {
        return Vec::new();
    }
    match acquire_raw(n) {
        Some(mut buf) => {
            buf.clear();
            buf
        }
        None => Vec::with_capacity(n),
    }
}

/// Gets an `n`-element buffer **without** the zero-fill of
/// [`acquire`], for callers that provably write every element before
/// reading any (GEMM-style pure-assignment outputs, im2col gathers).
///
/// On a pool hit the buffer may carry stale values from its previous
/// life — that is the point: skipping the memset is the win. Only the
/// tail past the recycled length is zeroed (a `resize` grow), and a
/// pool miss falls back to `vec![0.0; n]`, so an *incorrect* caller
/// (one that reads before writing) observes stale data, not
/// uninitialized memory — still safe Rust, just wrong values, which
/// the parity tests would catch.
pub fn acquire_full_overwrite(n: usize) -> Vec<f64> {
    if n == 0 {
        return Vec::new();
    }
    match acquire_raw(n) {
        Some(mut buf) => {
            if buf.len() >= n {
                buf.truncate(n);
            } else {
                buf.resize(n, 0.0);
            }
            buf
        }
        None => vec![0.0; n],
    }
}

/// Returns a buffer to the pool for reuse. Buffers beyond the per-
/// bucket or total-retained caps are dropped (freed normally).
pub fn release(buf: Vec<f64>) {
    let cap = buf.capacity();
    if cap == 0 {
        return;
    }
    let b = bucket_of(cap);
    if b >= BUCKETS {
        return;
    }
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.buckets[b].len() < PER_BUCKET
            && (p.retained_elems + cap) * std::mem::size_of::<f64>() <= MAX_RETAINED_BYTES
        {
            p.retained_elems += cap;
            p.buckets[b].push(buf);
        }
    });
}

/// Pool counters for the calling thread: `(hits, misses, retained_bytes)`.
pub fn stats() -> (u64, u64, usize) {
    POOL.with(|p| {
        let p = p.borrow();
        (
            p.hits,
            p.misses,
            p.retained_elems * std::mem::size_of::<f64>(),
        )
    })
}

/// Drops every buffer retained by the calling thread's pool and zeroes
/// its counters (used by benchmarks to compare pooled vs fresh-alloc).
pub fn clear() {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        for b in p.buckets.iter_mut() {
            b.clear();
        }
        p.retained_elems = 0;
        p.hits = 0;
        p.misses = 0;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_is_zero_filled_after_reuse() {
        clear();
        let mut v = acquire(100);
        v.iter_mut().for_each(|x| *x = 7.5);
        release(v);
        let v2 = acquire(100);
        assert_eq!(v2, vec![0.0; 100]);
        assert_eq!(v2.len(), 100);
        clear();
    }

    #[test]
    fn reuse_hits_the_pool() {
        clear();
        let v = acquire(64);
        let cap = v.capacity();
        release(v);
        let (h0, _, retained) = stats();
        assert!(retained >= cap * 8 - 64);
        let _v2 = acquire(64);
        let (h1, _, _) = stats();
        assert_eq!(h1, h0 + 1);
        clear();
    }

    #[test]
    fn oversized_request_from_smaller_pool_misses() {
        clear();
        release(acquire(16));
        let v = acquire(1 << 20); // far larger than anything pooled
        assert_eq!(v.len(), 1 << 20);
        clear();
    }

    #[test]
    fn caps_bound_retention() {
        clear();
        for _ in 0..3 * PER_BUCKET {
            release(vec![0.0; 1000]);
        }
        POOL.with(|p| {
            let p = p.borrow();
            assert!(p.buckets[bucket_of(1000)].len() <= PER_BUCKET);
        });
        clear();
    }

    #[test]
    fn acquire_capacity_is_empty_with_room() {
        clear();
        release(vec![0.0; 128]);
        let v = acquire_capacity(100);
        assert!(v.is_empty());
        assert!(v.capacity() >= 100);
        let (h, _, _) = stats();
        assert_eq!(h, 1);
        clear();
    }

    #[test]
    fn full_overwrite_skips_zero_fill_but_sizes_exactly() {
        clear();
        let mut v = acquire(100);
        v.iter_mut().for_each(|x| *x = 7.5);
        release(v);
        // Hit with a longer recycled buffer: stale prefix survives
        // (that is the contract — the caller overwrites everything).
        let v2 = acquire_full_overwrite(60);
        assert_eq!(v2.len(), 60);
        assert!(v2.iter().all(|&x| x == 7.5), "stale data should remain");
        release(v2);
        // Hit with a shorter recycled buffer: only the tail is zeroed.
        let v3 = acquire_full_overwrite(100);
        assert_eq!(v3.len(), 100);
        assert!(v3[..60].iter().all(|&x| x == 7.5));
        assert!(v3[60..].iter().all(|&x| x == 0.0));
        clear();
        // Miss: indistinguishable from a fresh zeroed alloc.
        let v4 = acquire_full_overwrite(32);
        assert_eq!(v4, vec![0.0; 32]);
        clear();
    }

    #[test]
    fn zero_len_is_a_noop() {
        clear();
        assert!(acquire(0).is_empty());
        release(Vec::new());
        let (_, _, retained) = stats();
        assert_eq!(retained, 0);
    }

    #[test]
    fn global_counters_aggregate_and_survive_clear() {
        clear();
        let (h0, m0, b0) = global_stats();
        release(acquire(256)); // miss, then pooled
        let _v = acquire(256); // hit
        let (h1, m1, b1) = global_stats();
        assert!(h1 > h0, "expected a global hit");
        assert!(m1 > m0, "expected a global miss");
        assert!(b1 >= b0 + 256 * 8, "expected reused bytes to grow");
        clear();
        // `clear` resets thread-local counters, never the process-wide
        // aggregate (it is a monotonic counter for the registry).
        let (h2, m2, _) = global_stats();
        assert!(h2 >= h1 && m2 >= m1);
    }

    #[test]
    fn bucket_of_is_ceil_log2() {
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(5), 3);
        assert_eq!(bucket_of(1024), 10);
    }
}
