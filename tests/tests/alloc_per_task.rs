//! Heap allocations and retained bytes per submitted task, counted by
//! the global allocator on the submitting thread.
//!
//! An inline runtime runs every task on the thread that submits it, so
//! a per-thread count sees the whole life of a task: submission, the
//! table rows, dispatch, the body and the commit. The counts are pinned
//! at what the design costs: the task tables (rows, the input and edge
//! stores, the data table) own no per-task heap object, so what is left
//! is the dispatch and the body — the resolved input vector, the output
//! vector and the output value's `Arc`, plus `run_many`'s reference
//! vector. A `Vec`, `String` or `Box` per task on the table path shows
//! up here as one more allocation per task.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use taskrt::{Handle, Runtime};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn note(allocs: u64, bytes: i64) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + allocs));
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counters are plain thread-local cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations made and bytes still live after `f`, on this thread.
fn measure(f: impl FnOnce()) -> (u64, i64) {
    let (a0, b0) = (ALLOCS.with(Cell::get), LIVE_BYTES.with(Cell::get));
    f();
    (ALLOCS.with(Cell::get) - a0, LIVE_BYTES.with(Cell::get) - b0)
}

/// Tasks per measurement: enough that a table page (1024 slots) is
/// amortized to well under one allocation per task.
const N: usize = 8192;

/// Submits `N` fan-in tasks in the shape of the benchmark's DAG phase:
/// each reads 1-8 of the last 64 outputs.
fn fan_in(rt: &Runtime, handles: &mut Vec<Handle<u64>>) {
    for i in 0..N {
        let base = handles.len();
        let k = 1 + i % 8;
        let ins: [Handle<u64>; 8] = std::array::from_fn(|j| handles[base - 1 - (j * 7 + i) % 64]);
        let h = rt.task("dag").run_many(&ins[..k], |xs: &[&u64]| {
            xs.iter().map(|x| **x).max().expect("at least one input") + 1
        });
        handles.push(h);
    }
}

#[test]
fn run_many_and_run1_inout_allocate_a_pinned_count_per_task() {
    let rt = Runtime::new();
    // Warm-up outside the count: intern the kinds, open the first table
    // pages, size the driver's reusable buffers.
    let mut handles: Vec<Handle<u64>> = (0..64).map(|i| rt.put(i as u64)).collect();
    handles.reserve(2 * N);
    fan_in(&rt, &mut handles);
    let mut h = rt.put(vec![0.0f64; 512]);
    for _ in 0..64 {
        h = rt
            .task("link")
            .run1_inout(h, |v: &mut Vec<f64>| v[0] += 1.0);
    }

    // run_many: the resolved inputs, `run_many`'s `&[&A]`, the output
    // vector and its `Arc`.
    let (allocs, bytes) = measure(|| fan_in(&rt, &mut handles));
    let per_task = allocs as f64 / N as f64;
    let bytes_per_task = bytes as f64 / N as f64;
    eprintln!("run_many: {per_task:.3} allocations, {bytes_per_task:.0} live bytes per task");
    assert!(
        (4.0..4.1).contains(&per_task),
        "run_many: {per_task:.3} allocations per task, pinned at 4"
    );
    // A 112 B row, ~4.5 input entries of 16 B, a 64 B data entry and
    // the output's `Arc`: 272 B measured. With a name `String` and four
    // `Vec`s per task beside two table entries, it was 551 B.
    assert!(
        bytes_per_task < 320.0,
        "run_many: {bytes_per_task:.0} retained bytes per task"
    );

    // run1_inout on an exclusively owned block: the resolved input, the
    // output vector and its `Arc` (the old `Arc` is freed by the steal).
    let (allocs, _) = measure(|| {
        for _ in 0..N {
            h = rt
                .task("link")
                .run1_inout(h, |v: &mut Vec<f64>| v[0] += 1.0);
        }
    });
    let per_task = allocs as f64 / N as f64;
    eprintln!("run1_inout: {per_task:.3} allocations per task");
    assert!(
        (3.0..3.1).contains(&per_task),
        "run1_inout: {per_task:.3} allocations per task, pinned at 3"
    );
    assert_eq!(rt.peek(h)[0], (64 + N) as f64);
}
