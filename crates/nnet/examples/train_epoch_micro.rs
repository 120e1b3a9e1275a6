//! Times `Network::train_epoch` and a zero-gradient optimiser step at
//! the shape the benchmark's `cnn_train` tasks run (80 rows x 160
//! features, mini-batch 4, `afib_cnn(160)`), on inputs with random
//! signs — a smooth input hides branch mispredictions in the
//! pooling / ReLU selects. The network is re-initialised every 7 epochs,
//! as a fold does, so no momentum velocity has time to underflow.
//!
//! `cargo run --release -p nnet --example train_epoch_micro`

use linalg::Matrix;
use nnet::{Network, TrainParams};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

const ROWS: usize = 80;
const LEN: usize = 160;
const BATCH: usize = 4;

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() {
    let mut rng = StdRng::seed_from_u64(1);
    let data: Vec<f64> = (0..ROWS * LEN)
        .map(|_| rng.random::<f64>() * 2.0 - 1.0)
        .collect();
    let x = Matrix::from_vec(ROWS, LEN, data);
    let y: Vec<u8> = (0..ROWS)
        .map(|_| u8::from(rng.random::<f64>() < 0.5))
        .collect();
    let params = TrainParams {
        lr: 0.03,
        momentum: 0.9,
        batch_size: BATCH,
        seed: 1,
    };

    let mut per_batch = Vec::new();
    for rep in 0..60 {
        let mut net = Network::afib_cnn(LEN, rep);
        for epoch in 0..7 {
            let t0 = Instant::now();
            std::hint::black_box(net.train_epoch(&x, &y, &params, epoch));
            per_batch.push(t0.elapsed().as_secs_f64() * 1e6 / (ROWS / BATCH) as f64);
        }
    }
    let best = per_batch.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "train_epoch {ROWS}x{LEN} batch {BATCH}: {best:.1} us/batch best, {:.1} median of {} epochs",
        median(&mut per_batch),
        per_batch.len()
    );

    // A parameter whose gradient is exactly zero (a dead-ReLU filter)
    // only ever sees its velocity decay.
    let mut net = Network::afib_cnn(LEN, 0);
    net.train_epoch(&x, &y, &params, 0);
    let zero = vec![0.0f32; net.n_params()];
    let mut step_us = |steps: usize| {
        let t0 = Instant::now();
        for _ in 0..steps {
            net.apply_gradients(std::hint::black_box(&zero), 0.03, 0.9, BATCH);
        }
        t0.elapsed().as_secs_f64() * 1e6 / steps as f64
    };
    let first = step_us(100);
    step_us(1900);
    let late = step_us(100);
    println!(
        "zero-gradient step: {first:.2} us over steps 0..100, {late:.2} us over steps 2000..2100 ({:.1}x)",
        late / first
    );
}
