//! The paged, push-only store backing the runtime's tables: one store
//! each for the task rows, the data entries, the flat input list every
//! task's inputs are a range of, and the dependent edges (the private
//! `tables` module holds the row types and builds the exported records
//! from them).
//!
//! The scheduler's tables are dense: ids are handed out sequentially
//! and every lookup is an index, never a hash (see [`crate::runtime`]).
//! Nothing is ever removed — an entry lives as long as its runtime — so
//! an id always names the same entry, and `trace()`/`finish()` are
//! complete by construction (DESIGN §5.14).
//!
//! * Entries live in fixed-size **pages** of [`PAGE`] slots, each its
//!   own heap allocation; growing the table appends a page and never
//!   moves an entry.
//! * A plain doubling `Vec<T>` used to back the tables on the guess
//!   that it was free. Measured, it was the slower path: every `Vec`
//!   doubling re-copies the whole table. On the 172k-task `sched_fine`
//!   benchmark workload (ten alternating pairs, 2-vCPU host) the paged
//!   tables took the pass from 0.39 s to 0.30 s and peak RSS from 212
//!   to 152 MiB, with the ~1k-task `af_*` pipelines unchanged — so the
//!   doubling layout went.

/// Slots per page (power of two; index math is shift + mask).
pub const PAGE: usize = 1 << PAGE_SHIFT;
const PAGE_SHIFT: usize = 10;

/// A dense id-indexed paged table. Indexing an id that was never
/// pushed panics with a named `"never allocated"` error.
pub struct Store<T> {
    /// Every page but the last holds exactly [`PAGE`] entries; each is
    /// allocated at that capacity, so a push never reallocates one.
    pages: Vec<Vec<T>>,
    /// Entries pushed so far (the next sequential id).
    len: usize,
    /// Entity name for panic messages ("task" / "data" / "input" /
    /// "edge").
    label: &'static str,
}

impl<T> Store<T> {
    pub fn new(label: &'static str) -> Self {
        Store {
            pages: Vec::new(),
            len: 0,
            label,
        }
    }

    /// Entries pushed so far (the next sequential id).
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
        if self.len & (PAGE - 1) == 0 {
            self.pages.push(Vec::with_capacity(PAGE));
        }
        self.pages
            .last_mut()
            .expect("a page was just ensured")
            .push(value);
        self.len += 1;
    }

    /// Shared access; panics with the named error for an id never
    /// pushed.
    #[inline]
    pub fn get(&self, i: usize) -> &T {
        match self
            .pages
            .get(i >> PAGE_SHIFT)
            .and_then(|p| p.get(i & (PAGE - 1)))
        {
            Some(v) => v,
            None => never_allocated(self.label, i),
        }
    }

    /// Mutable access; same panic contract as [`Store::get`].
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        match self
            .pages
            .get_mut(i >> PAGE_SHIFT)
            .and_then(|p| p.get_mut(i & (PAGE - 1)))
        {
            Some(v) => v,
            None => never_allocated(self.label, i),
        }
    }

    /// Iterates every entry in id order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.pages.iter().flatten()
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

/// The miss path of [`Store::get`] / [`Store::get_mut`].
#[cold]
#[inline(never)]
fn never_allocated(label: &str, i: usize) -> ! {
    panic!("unknown {label} id {i} (never allocated)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_index_across_page_boundaries() {
        let mut s: Store<String> = Store::new("task");
        let n = PAGE * 3 + 17;
        for i in 0..n {
            s.push(format!("t{i}"));
        }
        assert_eq!(s.len(), n);
        for i in [0, PAGE - 1, PAGE, PAGE + 3, 2 * PAGE, 3 * PAGE, n - 1] {
            assert_eq!(s[i], format!("t{i}"));
        }
        s[PAGE] = "edited".into();
        assert_eq!(s.get(PAGE), "edited");
        assert_eq!(s[PAGE - 1], format!("t{}", PAGE - 1));
        assert_eq!(s.iter().count(), n, "iter yields every entry once");
        assert!(s
            .iter()
            .enumerate()
            .all(|(i, v)| i == PAGE || *v == format!("t{i}")));
    }

    // No page holds id 3.
    #[test]
    #[should_panic(expected = "never allocated")]
    fn out_of_range_read_names_the_id() {
        let s: Store<u32> = Store::new("data");
        let _ = s[3];
    }

    // Id 3's page exists, but its slot was never pushed.
    #[test]
    #[should_panic(expected = "never allocated")]
    fn out_of_range_write_names_the_id() {
        let mut s: Store<u32> = Store::new("data");
        s.push(1);
        s[3] = 0;
    }
}
