//! Criterion micro-benchmarks of the numeric and runtime kernels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dislib::svm::{fit_svc, SvcParams};
use linalg::fft::{fft_inplace, Complex};
use linalg::stft::{spectrogram, SpectrogramConfig, SpectrogramPlan};
use linalg::{eigh, Kernel, Matrix};
use nnet::{Conv1d, Network, TrainParams};
use std::hint::black_box;
use taskrt::sim::{simulate, ClusterSpec, SimOptions};
use taskrt::Runtime;

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft");
    for &n in &[256usize, 1024, 4096] {
        let buf: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.01).sin(), 0.0))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut x = buf.clone();
                fft_inplace(&mut x);
                black_box(x[0].re)
            })
        });
    }
    group.finish();
}

fn bench_spectrogram(c: &mut Criterion) {
    let sig: Vec<f64> = (0..3000).map(|i| (i as f64 * 0.05).sin()).collect();
    let cfg = SpectrogramConfig {
        nperseg: 128,
        noverlap: 32,
        fs: 300.0,
    };
    c.bench_function("spectrogram_3000", |b| {
        b.iter(|| black_box(spectrogram(black_box(&sig), &cfg)))
    });
    // The dataset-sweep shape: one plan reused across every signal.
    c.bench_function("spectrogram_3000_plan_reuse", |b| {
        let mut plan = SpectrogramPlan::new(&cfg);
        b.iter(|| black_box(plan.compute(black_box(&sig))))
    });
}

fn bench_conv(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    // The perf binary's CNN-realistic per-sample shape.
    let (in_ch, out_ch, len, k) = (16usize, 32usize, 256usize, 7usize);
    let mut rng = StdRng::seed_from_u64(11);
    let mut conv = Conv1d::new(in_ch, out_ch, k, 1, &mut rng);
    let x: Vec<f32> = (0..in_ch * len)
        .map(|_| rng.random::<f32>() * 2.0 - 1.0)
        .collect();
    let dout: Vec<f32> = (0..out_ch * conv.out_len(len))
        .map(|_| rng.random::<f32>() * 2.0 - 1.0)
        .collect();
    let mut group = c.benchmark_group("conv1d_16x32_len256_k7");
    group.bench_function("forward_im2col", |b| {
        b.iter(|| black_box(conv.forward(black_box(&x), len)))
    });
    group.bench_function("backward_im2col", |b| {
        b.iter(|| black_box(conv.backward(black_box(&x), len, black_box(&dout))))
    });
    group.finish();

    // One `cnn_train` task of the end-to-end benchmark: an epoch of the
    // paper's CNN over an 80-row shard of 160 PCA scores, batch 4.
    let xs = Matrix::from_fn(80, 160, |_, _| rng.random::<f64>() * 2.0 - 1.0);
    let ys: Vec<u8> = (0..80).map(|i| (i % 2) as u8).collect();
    let tp = TrainParams {
        lr: 0.03,
        momentum: 0.9,
        batch_size: 4,
        seed: 1,
    };
    let net0 = Network::afib_cnn(160, 1);
    c.bench_function("cnn_train_epoch_80x160_batch4", |b| {
        b.iter(|| {
            let mut net = net0.clone();
            black_box(net.train_epoch(black_box(&xs), &ys, &tp, 0))
        })
    });
}

fn bench_eigh(c: &mut Criterion) {
    let mut group = c.benchmark_group("eigh");
    for &n in &[16usize, 64, 128] {
        let a = Matrix::from_fn(n, n, |r, col| {
            let v = ((r * col) as f64 * 0.01).sin();
            if r == col {
                v + 2.0
            } else {
                v
            }
        });
        let sym = Matrix::from_fn(n, n, |r, col| 0.5 * (a.get(r, col) + a.get(col, r)));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(eigh(black_box(&sym))))
        });
    }
    group.finish();
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    // 32/128 fit in L1/L2; 320/512 exceed the KC=256 panel and exercise
    // the cache-blocked register-tiled path end to end.
    group.sample_size(10);
    for &n in &[32usize, 128, 320, 512] {
        let a = Matrix::from_fn(n, n, |r, col| (r + col) as f64 * 0.25);
        let b_ = Matrix::from_fn(n, n, |r, col| (r as f64 - col as f64) * 0.5);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(a.matmul(black_box(&b_))))
        });
    }
    group.finish();
}

fn bench_sgemm_packed(c: &mut Criterion) {
    // The f32 kernel floor: the packed, runtime-FMA-dispatched entry
    // point against the scalar oracle, at a size inside one KC=256
    // depth panel and one spanning several.
    let mut group = c.benchmark_group("sgemm_packed");
    group.sample_size(10);
    for &n in &[128usize, 512] {
        let a: Vec<f32> = (0..n * n).map(|i| ((i as f32) * 1e-3).sin()).collect();
        let b_: Vec<f32> = (0..n * n).map(|i| ((i as f32) * 2e-3).cos()).collect();
        let mut out = vec![0.0f32; n * n];
        group.bench_with_input(BenchmarkId::new("packed", n), &n, |b, _| {
            b.iter(|| {
                out.fill(0.0);
                linalg::sgemm_nn(n, n, n, &a, &b_, &mut out);
                black_box(out[0])
            })
        });
        let mut out = vec![0.0f32; n * n];
        group.bench_with_input(BenchmarkId::new("scalar", n), &n, |b, _| {
            b.iter(|| {
                out.fill(0.0);
                linalg::sgemm_nn_scalar(n, n, n, &a, &b_, &mut out);
                black_box(out[0])
            })
        });
    }
    group.finish();
}

fn bench_scheduler_throughput(c: &mut Criterion) {
    // Pure scheduler overhead: a 2000-node no-op DAG with random
    // dependencies (the shape of the `perf` binary's acceptance
    // workload) driven end to end through submit + barrier.
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use taskrt::runtime::AnyArc;
    use taskrt::DataId;

    let n = 2000usize;
    let mut rng = StdRng::seed_from_u64(42);
    let dag: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            if i == 0 {
                return Vec::new();
            }
            let ndeps = (rng.next_u64() % 9) as usize;
            let window = i.min(64);
            let mut deps: Vec<usize> = (0..ndeps)
                .map(|_| i - 1 - (rng.next_u64() as usize % window))
                .collect();
            deps.sort_unstable();
            deps.dedup();
            deps
        })
        .collect();
    let unit = std::sync::Arc::new(0u8);
    let drive = |rt: &Runtime| {
        let mut outs: Vec<DataId> = Vec::with_capacity(dag.len());
        for deps in &dag {
            let inputs: Vec<DataId> = deps.iter().map(|&j| outs[j]).collect();
            let u = unit.clone();
            let ids = rt.submit_raw(
                "noop".to_string(),
                0,
                0,
                inputs,
                1,
                Box::new(move |_ctx, _ins| vec![(u.clone() as AnyArc, 1)]),
            );
            outs.push(ids[0]);
        }
        rt.barrier();
    };
    let mut group = c.benchmark_group("scheduler_2000_noop");
    group.bench_function("inline", |b| b.iter(|| drive(&Runtime::new())));
    group.bench_function("threaded_4", |b| b.iter(|| drive(&Runtime::threaded(4))));
    group.finish();
}

fn bench_smo(c: &mut Criterion) {
    // Deterministic small blob set.
    let n = 80;
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let cls = (i % 2) as f64 * 2.0 - 1.0;
            vec![
                cls * 2.0 + (i as f64 * 0.7).sin() * 0.5,
                (i as f64 * 0.3).cos() * 0.5,
            ]
        })
        .collect();
    let x = Matrix::from_rows(&rows);
    let y: Vec<u8> = (0..n).map(|i| (i % 2) as u8).collect();
    let params = SvcParams {
        kernel: Kernel::Rbf { gamma: 0.5 },
        ..Default::default()
    };
    c.bench_function("smo_fit_80x2", |b| {
        b.iter(|| black_box(fit_svc(&x, &y, &params)))
    });
}

fn bench_runtime_submission(c: &mut Criterion) {
    c.bench_function("taskrt_submit_exec_1000_inline", |b| {
        b.iter(|| {
            let rt = Runtime::new();
            let x = rt.put(1.0f64);
            let mut h = x;
            for _ in 0..1000 {
                h = rt.task("inc").run1(h, |v| v + 1.0);
            }
            black_box(*rt.peek(h))
        })
    });
}

fn bench_threaded_vs_inline(c: &mut Criterion) {
    // A genuinely parallel workload: independent gram computations.
    let work = |rt: &Runtime| {
        let blocks: Vec<_> = (0..16)
            .map(|i| {
                rt.put(Matrix::from_fn(48, 48, move |r, q| {
                    ((r + q + i) % 7) as f64
                }))
            })
            .collect();
        let grams: Vec<_> = blocks
            .iter()
            .map(|&b| rt.task("gram").run1(b, |m: &Matrix| m.t_matmul(m)))
            .collect();
        let total = rt.task("sum").run_many(&grams, |gs: &[&Matrix]| {
            gs.iter().map(|g| g.fro_norm()).sum::<f64>()
        });
        *rt.peek(total)
    };
    let mut group = c.benchmark_group("runtime_modes");
    group.bench_function("inline", |b| b.iter(|| black_box(work(&Runtime::new()))));
    group.bench_function("threaded_4", |b| {
        b.iter(|| black_box(work(&Runtime::threaded(4))))
    });
    group.finish();
}

fn bench_dataplane_inout(c: &mut Criterion) {
    // The zero-copy data-plane comparison at criterion-friendly scale:
    // a chain of elementwise ds-array ops run once through the
    // clone-based task API and once through the INOUT (in-place) one.
    use dsarray::DsArray;

    let (rows, cols, rb, cb) = (256usize, 192usize, 64usize, 64usize);
    let x = Matrix::from_fn(rows, cols, |r, q| ((r * cols + q) as f64 * 1e-3).sin());
    let v: Vec<f64> = (0..cols).map(|q| 1.0 + (q % 5) as f64 * 0.5).collect();

    let mut group = c.benchmark_group("dsarray_elementwise_256x192");
    group.bench_function("clone", |b| {
        b.iter(|| {
            let rt = Runtime::new();
            let a = DsArray::from_matrix(&rt, &x, rb, cb);
            let a = a.map_blocks(&rt, "dp_scale", |m: &Matrix| {
                let mut m = m.clone();
                m.scale(1.0009);
                m
            });
            let vh = rt.put(v.clone());
            let a = a.sub_row_vector(&rt, vh);
            let a = a.div_row_vector(&rt, vh);
            black_box(a.collect(&rt).fro_norm())
        })
    });
    group.bench_function("inout", |b| {
        b.iter(|| {
            let rt = Runtime::new();
            let a = DsArray::from_matrix(&rt, &x, rb, cb);
            let a = a.map_blocks_inplace(&rt, "dp_scale", |m: &mut Matrix| m.scale(1.0009));
            let vh = rt.put(v.clone());
            let a = a.sub_row_vector_inplace(&rt, vh);
            let a = a.div_row_vector_inplace(&rt, vh);
            black_box(a.collect(&rt).fro_norm())
        })
    });
    group.finish();
}

fn bench_pool_covariance(c: &mut Criterion) {
    // PCA covariance temporaries: X^T X allocates an output matrix per
    // call. With a warmed pool the buffer is recycled across calls;
    // clearing the pool each iteration forces a fresh allocation.
    let n = 256usize;
    let x = Matrix::from_fn(n, n, |r, q| ((r + 3 * q) % 11) as f64 * 0.125);

    let mut group = c.benchmark_group("covariance_t_matmul_256");
    group.sample_size(20);
    group.bench_function("pool_fresh", |b| {
        b.iter(|| {
            linalg::pool::clear();
            let g = x.t_matmul(&x);
            black_box(g.fro_norm())
        })
    });
    group.bench_function("pool_warm", |b| {
        linalg::pool::clear();
        b.iter(|| {
            let g = x.t_matmul(&x);
            let norm = g.fro_norm();
            g.into_pool();
            black_box(norm)
        })
    });
    group.finish();
}

fn bench_des_replay(c: &mut Criterion) {
    // Record a moderately wide DAG once, then benchmark simulation.
    let rt = Runtime::new();
    let src = rt.put(0u64);
    let mids: Vec<_> = (0..200)
        .map(|_| rt.task("work").run1(src, |v| v + 1))
        .collect();
    let _sink = rt
        .task("join")
        .run_many(&mids, |xs| xs.iter().copied().sum::<u64>());
    let trace = rt.finish();
    let cluster = ClusterSpec::marenostrum4(4);
    c.bench_function("des_replay_202_tasks", |b| {
        b.iter(|| black_box(simulate(&trace, &cluster, &SimOptions::default())))
    });
}

criterion_group!(
    benches,
    bench_fft,
    bench_spectrogram,
    bench_conv,
    bench_eigh,
    bench_gemm,
    bench_sgemm_packed,
    bench_scheduler_throughput,
    bench_smo,
    bench_runtime_submission,
    bench_threaded_vs_inline,
    bench_dataplane_inout,
    bench_pool_covariance,
    bench_des_replay
);
criterion_main!(benches);
