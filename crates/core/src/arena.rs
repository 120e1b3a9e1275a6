//! The paged generational store backing the runtime's task, data and
//! record tables.
//!
//! The scheduler's tables are dense: ids are handed out sequentially
//! and every lookup is an index, never a hash (see [`crate::runtime`]).
//! There is **one layout** — fixed-size pages — and retirement is the
//! policy ([`crate::RuntimeConfig::stream`]): a default runtime never
//! calls [`Store::retire`], so every entry stays resident and
//! `trace()`/`finish()` are complete; a streaming runtime retires
//! entries as they die, because a table that keeps every completed
//! task's entry, record and datum is what makes 1M-task DAGs expensive
//! (*Runtime vs Scheduler: Analyzing Dask's Overheads*, arXiv
//! 2010.11105: unbounded bookkeeping is how centralized runtimes die
//! long before the hardware does).
//!
//! * Ids stay **monotonic and are never reused** — an id *is* its
//!   generation. A slot, once retired, can only ever be observed as
//!   retired, so a stale handle read is a loud, named error
//!   (`"stale handle: …"`), never a silent wrong read. This is the
//!   generational-arena guarantee without packing generation bits into
//!   the id (which would break every trace/sim consumer of raw ids).
//! * Entries live in fixed-size **pages** (`Box`ed, [`PAGE`] slots).
//!   Retiring an entry drops its payload immediately; when every slot
//!   of a page is retired the page frame itself is released to a small
//!   pool (bumping its generation) or freed — so the table backbone,
//!   not just the payloads, stays bounded on long streams.
//! * A plain doubling `Vec<T>` used to back the non-streaming tables
//!   on the guess that it was free. Measured, it was the slower path:
//!   growing a paged table never moves an entry, every `Vec` doubling
//!   re-copies the whole table. On the 172k-task `sched_fine`
//!   benchmark workload (ten alternating pairs, 2-vCPU host) the paged
//!   tables, retiring nothing, took the pass from 0.39 s to 0.30 s and
//!   peak RSS from 212 to 152 MiB, with the ~1k-task `af_*` pipelines
//!   unchanged — so the second layout went.
//!
//! Peak-liveness accounting (`live` / `peak_live` / `retired`) is what
//! `tests/tests/streaming_scale.rs` gates on: a bounded resident set
//! under a 250k-task stream shows up here as `peak_live ≪ len`.

/// Slots per page (power of two; index math is shift + mask).
pub const PAGE: usize = 1 << PAGE_SHIFT;
const PAGE_SHIFT: usize = 10;

/// Retired page frames kept for reuse instead of returning to the
/// allocator; steady-state streams recycle pages at the rate they fill
/// them, so a small pool absorbs the churn.
const PAGE_POOL: usize = 4;

struct Page<T> {
    slots: Vec<Option<T>>,
    /// Live (present) entries in this page.
    live: u32,
    /// Reuse count of this page frame — reported in stale-handle
    /// panics so "the slot was reclaimed" is auditable.
    generation: u64,
}

/// Liveness snapshot of one store (see [`Store::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Total entries ever allocated.
    pub allocated: u64,
    /// Entries currently resident.
    pub live: u64,
    /// High-water mark of `live`.
    pub peak_live: u64,
    /// Entries reclaimed so far.
    pub retired: u64,
}

/// A dense id-indexed paged table: entries retire individually, pages
/// are dropped (or pooled) once fully retired. Indexing a retired slot
/// panics with a named `"stale handle"` error, a never-allocated id
/// with `"never allocated"`.
pub struct Store<T> {
    pages: Vec<Option<Box<Page<T>>>>,
    /// Total slots ever allocated (monotone; the next id).
    len: usize,
    live: usize,
    peak_live: usize,
    retired: u64,
    // Boxed so frames move between `pages` and the pool as a pointer
    // swap instead of copying a PAGE-slot array.
    #[allow(clippy::vec_box)]
    pool: Vec<Box<Page<T>>>,
    /// Generation to stamp on the next (re)used page frame.
    next_gen: u64,
    /// Entity name for panic messages ("task" / "data" / "record").
    label: &'static str,
}

impl<T> Store<T> {
    pub fn new(label: &'static str) -> Self {
        Store {
            pages: Vec::new(),
            len: 0,
            live: 0,
            peak_live: 0,
            retired: 0,
            pool: Vec::new(),
            next_gen: 1,
            label,
        }
    }

    /// Total entries ever allocated (the next sequential id). Retiring
    /// never shrinks this — ids are monotone.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends an entry at the next sequential id.
    pub fn push(&mut self, value: T) {
        let pi = self.len >> PAGE_SHIFT;
        if pi == self.pages.len() {
            let mut page = self.pool.pop().unwrap_or_else(|| {
                Box::new(Page {
                    slots: Vec::with_capacity(PAGE),
                    live: 0,
                    generation: 0,
                })
            });
            page.slots.clear();
            page.generation = self.next_gen;
            self.next_gen += 1;
            self.pages.push(Some(page));
        }
        let page = self.pages[pi].as_deref_mut().expect("tail page present");
        page.slots.push(Some(value));
        page.live += 1;
        self.len += 1;
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
    }

    #[inline]
    fn page_of(&self, i: usize) -> Option<&Page<T>> {
        self.pages.get(i >> PAGE_SHIFT).and_then(Option::as_deref)
    }

    /// Shared access; panics with the named stale-handle error when the
    /// slot was retired or never allocated.
    #[inline]
    pub fn get(&self, i: usize) -> &T {
        match self.get_opt(i) {
            Some(v) => v,
            None => stale(
                self.label,
                i,
                self.len,
                self.page_of(i).map(|p| p.generation),
            ),
        }
    }

    /// Mutable access; same panic contract as [`Store::get`]. One page
    /// walk: the miss arms only read fields disjoint from the returned
    /// borrow (`label`, `len`, the page's `generation`).
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        let Some(page) = self
            .pages
            .get_mut(i >> PAGE_SHIFT)
            .and_then(Option::as_deref_mut)
        else {
            stale(self.label, i, self.len, None)
        };
        match page.slots.get_mut(i & (PAGE - 1)).and_then(Option::as_mut) {
            Some(v) => v,
            None => stale(self.label, i, self.len, Some(page.generation)),
        }
    }

    /// Non-panicking shared access: `None` for retired slots. The
    /// runtime's internal sweeps use this where a concurrently retired
    /// entry is expected, not an error.
    #[inline]
    pub fn get_opt(&self, i: usize) -> Option<&T> {
        self.page_of(i)
            .and_then(|p| p.slots.get(i & (PAGE - 1)))
            .and_then(Option::as_ref)
    }

    /// Non-panicking mutable access: `None` for retired slots.
    #[inline]
    pub fn get_opt_mut(&mut self, i: usize) -> Option<&mut T> {
        self.pages
            .get_mut(i >> PAGE_SHIFT)
            .and_then(Option::as_deref_mut)
            .and_then(|p| p.slots.get_mut(i & (PAGE - 1)))
            .and_then(Option::as_mut)
    }

    /// Reclaims entry `i`, returning its value; `None` when already
    /// retired (idempotent). Whether anything ever retires is the
    /// caller's policy — a runtime without
    /// [`crate::RuntimeConfig::stream`] never calls this.
    pub fn retire(&mut self, i: usize) -> Option<T> {
        let pi = i >> PAGE_SHIFT;
        let page = self.pages.get_mut(pi).and_then(Option::as_deref_mut)?;
        let v = page.slots.get_mut(i & (PAGE - 1)).and_then(Option::take)?;
        page.live -= 1;
        self.live -= 1;
        self.retired += 1;
        // Release the frame once every slot is retired — but never the
        // tail page, which is still receiving pushes.
        if page.live == 0 && page.slots.len() == PAGE {
            let frame = self.pages[pi].take().expect("page present above");
            if self.pool.len() < PAGE_POOL {
                self.pool.push(frame);
            }
        }
        Some(v)
    }

    /// Liveness snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            allocated: self.len as u64,
            live: self.live as u64,
            peak_live: self.peak_live as u64,
            retired: self.retired,
        }
    }

    /// Iterates live entries in id order.
    pub fn iter_live(&self) -> impl Iterator<Item = (usize, &T)> {
        self.pages.iter().enumerate().flat_map(|(pi, page)| {
            page.iter().flat_map(move |pg| {
                pg.slots
                    .iter()
                    .enumerate()
                    .filter_map(move |(si, s)| s.as_ref().map(|t| (pi * PAGE + si, t)))
            })
        })
    }
}

impl<T> std::ops::Index<usize> for Store<T> {
    type Output = T;
    #[inline]
    fn index(&self, i: usize) -> &T {
        self.get(i)
    }
}

impl<T> std::ops::IndexMut<usize> for Store<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        self.get_mut(i)
    }
}

/// The miss path of [`Store::get`] / [`Store::get_mut`]. `generation`
/// is the page frame's reuse count when the page is still resident.
#[cold]
#[inline(never)]
fn stale(label: &str, i: usize, len: usize, generation: Option<u64>) -> ! {
    if i >= len {
        panic!("unknown {label} id {i} (never allocated)");
    }
    let gen = generation.map_or_else(|| "page reclaimed".into(), |g| g.to_string());
    panic!(
        "stale handle: {label} {i} was retired by the streaming runtime \
         (slot generation: {gen}); its entry was reclaimed after its last \
         consumer — read results via wait/peek before release, or keep \
         the handle live by not consuming/releasing it"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paged_store_retires_and_reports_liveness() {
        let mut s: Store<String> = Store::new("task");
        let n = PAGE * 3 + 17;
        for i in 0..n {
            s.push(format!("t{i}"));
        }
        assert_eq!(s.len(), n);
        assert_eq!(s[PAGE + 3], format!("t{}", PAGE + 3));
        assert_eq!(
            s.retire(PAGE + 3).as_deref(),
            Some(format!("t{}", PAGE + 3)).as_deref()
        );
        assert_eq!(s.retire(PAGE + 3), None); // idempotent
        let st = s.stats();
        assert_eq!(st.allocated, n as u64);
        assert_eq!(st.live, n as u64 - 1);
        assert_eq!(st.retired, 1);
        assert_eq!(st.peak_live, n as u64);
    }

    #[test]
    fn fully_retired_pages_are_dropped_and_ids_stay_monotone() {
        let mut s: Store<Vec<u8>> = Store::new("data");
        for _ in 0..PAGE * 2 {
            s.push(vec![0u8; 64]);
        }
        for i in 0..PAGE {
            assert!(s.retire(i).is_some());
        }
        // Page 0 is gone; its ids read as stale, later ids still live.
        assert!(s.get_opt(0).is_none());
        assert!(s.get_opt(PAGE).is_some());
        // New pushes continue the id sequence — no reuse of 0..PAGE.
        s.push(vec![1]);
        assert_eq!(s.len(), PAGE * 2 + 1);
        assert_eq!(s.stats().live, PAGE as u64 + 1);
    }

    #[test]
    #[should_panic(expected = "stale handle")]
    fn stale_read_panics_with_named_error() {
        let mut s: Store<u32> = Store::new("data");
        s.push(5);
        s.retire(0);
        let _ = s[0];
    }

    #[test]
    #[should_panic(expected = "never allocated")]
    fn out_of_range_read_names_the_id() {
        let s: Store<u32> = Store::new("data");
        let _ = s[3];
    }

    #[test]
    fn iter_live_skips_retired() {
        let mut s: Store<usize> = Store::new("record");
        for i in 0..10 {
            s.push(i);
        }
        s.retire(2);
        s.retire(7);
        let ids: Vec<usize> = s.iter_live().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![0, 1, 3, 4, 5, 6, 8, 9]);
    }

    #[test]
    fn iter_live_walks_across_a_fully_retired_middle_page() {
        let mut s: Store<usize> = Store::new("record");
        for i in 0..PAGE * 3 {
            s.push(i);
        }
        for i in PAGE..PAGE * 2 {
            s.retire(i);
        }
        let ids: Vec<usize> = s.iter_live().map(|(i, _)| i).collect();
        let want: Vec<usize> = (0..PAGE).chain(PAGE * 2..PAGE * 3).collect();
        assert_eq!(ids, want);
        assert!(s.iter_live().all(|(i, v)| i == *v));
    }

    #[test]
    #[should_panic(expected = "stale handle")]
    fn stale_write_panics_with_named_error() {
        let mut s: Store<u32> = Store::new("data");
        s.push(5);
        s.push(6);
        s.retire(0);
        s[0] = 7;
    }

    #[test]
    #[should_panic(expected = "stale handle")]
    fn get_mut_on_a_reclaimed_page_is_stale_not_unknown() {
        let mut s: Store<u32> = Store::new("task");
        for i in 0..PAGE as u32 + 1 {
            s.push(i);
        }
        for i in 0..PAGE {
            s.retire(i);
        }
        s.get_mut(3);
    }

    #[test]
    #[should_panic(expected = "never allocated")]
    fn out_of_range_write_names_the_id() {
        let mut s: Store<u32> = Store::new("data");
        s.push(1);
        s[3] = 0;
    }
}
