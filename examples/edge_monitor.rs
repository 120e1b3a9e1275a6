//! Edge monitoring: the paper's motivating scenario (Fig. 1) end to
//! end — train an AF detector "in the cloud", then run continuous
//! windowed inference over a live wearable ECG stream "at the edge".
//!
//! The stream alternates Normal and AF episodes; the monitor slides a
//! 6-second window, extracts the same STFT features used in training,
//! and raises an alert when consecutive windows vote AF.
//!
//! Run: `cargo run -p apps --example edge_monitor --release`

use apps::banner;
use ecg::features::stft_features;
use ecg::synth::{generate, Class, EcgConfig};
use ecg::{Dataset, DatasetSpec, Scale};
use linalg::stft::SpectrogramConfig;
use linalg::Matrix;
use nnet::{Network, TrainParams};
use taskrt::Runtime;

/// Window length in seconds for streaming inference.
const WINDOW_S: f64 = 6.0;

fn window_features(win: &[f64], stft: &SpectrogramConfig) -> Vec<f64> {
    stft_features(win, stft, Some(50.0))
}

fn main() {
    banner("1. cloud: train the CNN on windowed training data");
    let mut spec = DatasetSpec::at_scale(Scale::Small);
    spec.n_normal = 90;
    spec.n_af = 14;
    spec.ecg.min_duration_s = WINDOW_S + 1.0;
    let recordings = Dataset::build_recordings(&spec);

    // Train on fixed-length windows cut from the recordings so the edge
    // model sees exactly the representation it will get on-device.
    let stft = SpectrogramConfig {
        nperseg: 128,
        noverlap: 32,
        fs: spec.ecg.fs,
    };
    let wlen = (WINDOW_S * spec.ecg.fs) as usize;
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for rec in &recordings {
        for start in (0..rec.samples.len().saturating_sub(wlen)).step_by(wlen / 2) {
            rows.push(window_features(&rec.samples[start..start + wlen], &stft));
            labels.push(rec.class.label());
        }
    }
    let x = Matrix::from_rows(&rows);
    println!("{} training windows x {} features", x.rows(), x.cols());

    // Standardize features (stored for the edge device).
    let means = x.col_means();
    let stds = x.col_stds(&means);
    let mut xn = x.clone();
    for r in 0..xn.rows() {
        for (c, v) in xn.row_mut(r).iter_mut().enumerate() {
            *v = (*v - means[c]) / stds[c].max(1e-9);
        }
    }

    let rt = Runtime::new();
    let net0 = Network::afib_cnn(xn.cols(), 1);
    let tp = TrainParams {
        lr: 0.03,
        momentum: 0.9,
        batch_size: 4,
        seed: 1,
    };
    let trained = nnet::train_data_parallel(
        &rt,
        net0,
        &xn,
        &labels,
        &nnet::ParallelConfig {
            epochs: 14,
            workers: 4,
            gpus_per_task: 1,
            train: tp,
        },
    );
    let cloud_model = (*rt.wait(trained)).clone();
    let (c, t) = cloud_model.evaluate(&xn, &labels);
    println!(
        "training-set accuracy after 14 distributed epochs: {:.1} %",
        c as f64 / t as f64 * 100.0
    );

    // Ship the trained weights to the "edge device" as a binary blob
    // (the deployment arrow of the paper's Fig. 1).
    std::fs::create_dir_all("out").ok();
    cloud_model
        .save_weights("out/af_model.bin")
        .expect("save model");
    let mut model = Network::afib_cnn(xn.cols(), 999); // fresh device-side net
    model.load_weights("out/af_model.bin").expect("load model");
    println!(
        "deployed out/af_model.bin ({} parameters, {} KB) to the edge",
        model.n_params(),
        (model.n_params() * 4 + 8) / 1024
    );

    banner("2. edge: stream a patient's day (Normal -> AF episode -> Normal)");
    let ecg_cfg = EcgConfig {
        min_duration_s: 30.0,
        max_duration_s: 30.0,
        ..spec.ecg
    };
    let segments = [
        (Class::Normal, 901u64),
        (Class::Af, 902),
        (Class::Normal, 903),
    ];
    let mut stream = Vec::new();
    let mut truth_spans = Vec::new();
    for (class, seed) in segments {
        let rec = generate(&ecg_cfg, class, seed);
        truth_spans.push((stream.len(), stream.len() + rec.samples.len(), class));
        stream.extend(rec.samples);
    }
    println!("stream length: {:.0} s", stream.len() as f64 / ecg_cfg.fs);

    banner("3. sliding-window inference with a 2-window alarm filter");
    let hop = wlen / 2;
    let mut alarms: Vec<(f64, f64)> = Vec::new();
    let mut run_start: Option<usize> = None;
    let mut consecutive = 0;
    let mut detections = Vec::new();
    for start in (0..stream.len() - wlen).step_by(hop) {
        let mut feats = window_features(&stream[start..start + wlen], &stft);
        for (c, v) in feats.iter_mut().enumerate() {
            *v = (*v - means[c]) / stds[c].max(1e-9);
        }
        let is_af = model.predict_one(&feats) == 1;
        detections.push((start, is_af));
        if is_af {
            consecutive += 1;
            if consecutive == 2 {
                run_start = Some(start - hop);
            }
        } else {
            if let Some(s) = run_start.take() {
                alarms.push((s as f64 / ecg_cfg.fs, start as f64 / ecg_cfg.fs));
            }
            consecutive = 0;
        }
    }
    if let Some(s) = run_start {
        alarms.push((s as f64 / ecg_cfg.fs, stream.len() as f64 / ecg_cfg.fs));
    }

    println!("ground truth:");
    for (s, e, class) in &truth_spans {
        println!(
            "  {:>6.1}-{:>6.1} s  {:?}",
            *s as f64 / ecg_cfg.fs,
            *e as f64 / ecg_cfg.fs,
            class
        );
    }
    println!("alarms raised:");
    if alarms.is_empty() {
        println!("  (none)");
    }
    for (s, e) in &alarms {
        println!("  {s:>6.1}-{e:>6.1} s  AF suspected");
    }

    // Window-level agreement against ground truth.
    let mut correct = 0;
    for &(start, is_af) in &detections {
        let mid = start + wlen / 2;
        let truth = truth_spans
            .iter()
            .find(|(s, e, _)| mid >= *s && mid < *e)
            .map(|(_, _, c)| *c == Class::Af)
            .unwrap_or(false);
        if truth == is_af {
            correct += 1;
        }
    }
    let agreement = correct as f64 / detections.len() as f64;
    println!(
        "window-level agreement: {:.1} % over {} windows",
        agreement * 100.0,
        detections.len()
    );
    assert!(agreement >= 0.8, "the edge model misreads the stream");
}
