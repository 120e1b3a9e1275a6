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
//!
//! A CNN training epoch is counted too: its mini-batches, the SGD step
//! included, reuse one workspace and allocate nothing.
//!
//! The same allocator counts the bytes the `dist` data plane asks for:
//! a `Data` frame costs its payload once, and a decoder never reserves
//! more than the frame it reads could fill.

use linalg::Matrix;
use nnet::{Network, TrainParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use taskrt::dist::proto::{recv, send};
use taskrt::dist::{InputSpec, Msg, WireError, WireValue};
use taskrt::{Handle, Runtime};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Counts `allocs` allocations of `allocated` bytes in all, and a change
/// of `live` in the bytes held.
fn note(allocs: u64, allocated: u64, live: i64) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + allocs));
    let _ = ALLOCATED_BYTES.try_with(|c| c.set(c.get() + allocated));
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + live));
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counters are plain thread-local cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as u64, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, 0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as u64, new_size as i64 - layout.size() as i64);
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

/// Bytes `f` asked the allocator for, on this thread.
fn allocated(f: impl FnOnce()) -> u64 {
    let before = ALLOCATED_BYTES.with(Cell::get);
    f();
    ALLOCATED_BYTES.with(Cell::get) - before
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
    // A 112 B row, ~4.5 input entries of 16 B, a 56 B data entry and
    // the output's `Arc`: 264 B measured. With a name `String` and four
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

#[test]
fn a_training_epoch_allocates_nothing_per_mini_batch() {
    // The paper's CNN at the benchmark's input length, batches of 4.
    let len = 160;
    let data = |n: usize| {
        let x = Matrix::from_fn(n, len, |r, c| ((r * len + c) as f64 * 0.37).sin());
        (x, (0..n).map(|i| (i % 2) as u8).collect::<Vec<u8>>())
    };
    let ((x20, y20), (x40, y40)) = (data(20), data(40));
    let params = TrainParams {
        batch_size: 4,
        ..TrainParams::default()
    };
    let mut net = Network::afib_cnn(len, 1);
    // Warm-up outside the count: the GEMM's per-thread packing scratch.
    net.train_epoch(&x40, &y40, &params, 0);
    let (five, _) = measure(|| {
        net.train_epoch(&x20, &y20, &params, 1);
    });
    let (ten, _) = measure(|| {
        net.train_epoch(&x40, &y40, &params, 2);
    });
    eprintln!("train_epoch: {five} allocations for 5 mini-batches, {ten} for 10");
    // The workspace and the shuffled order are per call; a mini-batch
    // (forward, backward, SGD step) allocates nothing.
    assert_eq!(ten, five, "train_epoch allocates per mini-batch");
}

#[test]
fn a_data_frame_costs_its_payload_once_end_to_end() {
    let payload = 1 << 20;
    let block = Matrix::from_fn(128, 1024, |r, c| (r * 1024 + c) as f64 / 3.0);
    assert_eq!(8 * block.rows() * block.cols(), payload);
    let msg = Msg::Data {
        data: 7,
        value: Arc::new(WireValue::Matrix(block)),
    };
    let (mut tx, mut rx) = std::os::unix::net::UnixStream::pair().unwrap();
    let total = std::thread::scope(|s| {
        let sender = s.spawn(|| allocated(|| send(&mut tx, &msg).unwrap()));
        let mut got = None;
        let receiver = allocated(|| got = Some(recv(&mut rx).unwrap()));
        assert_eq!(got.unwrap(), msg);
        let sender = sender.join().unwrap();
        eprintln!("1 MiB Data frame: sender {sender} B, receiver {receiver} B allocated");
        sender + receiver
    });
    // Encoding the whole frame, reading it whole and decoding it cost
    // three payloads; streamed, only the decoded matrix is left.
    assert!(
        total as usize <= payload + (128 << 10),
        "a 1 MiB Data frame allocated {total} B"
    );
}

#[test]
fn decoders_reserve_no_more_than_the_bytes_left_can_fill() {
    // A `Run` announcing as many inputs as its body has bytes: each
    // takes 16 on the wire and 32 in memory.
    let mut run = vec![4u8]; // the `Run` tag
    for field in [7u64, 1, 0, 1] {
        // task, attempt, an empty kind, out
        run.extend_from_slice(&field.to_le_bytes());
    }
    let n = 1u64 << 20;
    run.extend_from_slice(&n.to_le_bytes());
    run.resize(run.len() + n as usize, 0);
    let mut decoded = None;
    let bytes = allocated(|| decoded = Some(Msg::decode(&run)));
    assert!(matches!(decoded, Some(Err(WireError::Truncated))));
    assert_eq!(std::mem::size_of::<InputSpec>(), 32);
    assert!(
        bytes <= 2 * run.len() as u64 + 4096,
        "a {} B Run reserved {bytes} B",
        run.len()
    );
    // The same body as a frame, decoded off a reader by `recv`.
    let frame = [&(run.len() as u32).to_le_bytes()[..], &run].concat();
    let bytes = allocated(|| decoded = Some(recv(&mut frame.as_slice())));
    assert!(matches!(decoded, Some(Err(WireError::Truncated))));
    assert!(
        bytes <= 2 * run.len() as u64 + 4096,
        "a {} B Run frame reserved {bytes} B",
        run.len()
    );

    // A list announcing one element per byte left, the first of them a
    // bad tag.
    let mut list = vec![9u8]; // the `List` tag
    list.extend_from_slice(&n.to_le_bytes());
    list.resize(list.len() + n as usize, 0xff);
    let bytes = allocated(|| decoded = Some(WireValue::decode(&list).map(|_| Msg::Shutdown)));
    assert!(matches!(decoded, Some(Err(WireError::BadTag(0xff)))));
    assert!(
        bytes <= list.len() as u64 + 4096,
        "a {} B list reserved {bytes} B",
        list.len()
    );
}
