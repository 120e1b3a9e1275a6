//! The sequential [`Network`] container, SGD training, and the paper's
//! CNN architecture.
//!
//! A network runs whole mini-batches through its layers in a private
//! workspace of channels-last buffers (`[sample][len][channel]`, see
//! [`crate::layers`]); a data row is one `[len][channel]` sample — for
//! the paper's one-channel network, the plain feature vector.

use crate::layers::{softmax, softmax_ce, Conv1d, Dense, Layer, Shape};
use linalg::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use taskrt::Payload;

/// SGD training hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainParams {
    /// Learning rate.
    pub lr: f32,
    /// SGD momentum (EDDL's default optimizer is SGD with momentum).
    pub momentum: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Shuffle seed (per epoch the seed is advanced deterministically).
    pub seed: u64,
}

impl Default for TrainParams {
    fn default() -> Self {
        Self {
            lr: 0.01,
            momentum: 0.9,
            batch_size: 16,
            seed: 0,
        }
    }
}

/// Rows per forward pass when no mini-batch size is given (`predict`):
/// enough columns to fill the GEMM's register tiles, small enough that
/// the workspace of the paper's CNN stays within L2.
const EVAL_BATCH: usize = 16;

/// The buffers a batched forward/backward pass works in. Built once
/// per `train_epoch` / `predict` call for the largest batch it will see
/// and reused by every mini-batch, so the passes themselves allocate
/// nothing. All batches are laid out
/// channels-last, `[sample][len][channel]` (see [`crate::layers`]), so
/// sample `s` of any of them is the sub-slice `[s * size..][..size]`.
struct Workspace {
    /// `shapes[i]`: per-sample input shape of layer `i`; the last
    /// entry is the shape of the logits.
    shapes: Vec<Shape>,
    /// `acts[i]`: input batch of layer `i` (`acts[0]` is the data).
    acts: Vec<Vec<f32>>,
    /// `kept[i]`: what layer `i`'s forward pass leaves for its backward
    /// pass (a convolution's patch matrix; empty otherwise).
    kept: Vec<Vec<f32>>,
    /// Output-gradient / input-gradient ping-pong pair.
    grads: [Vec<f32>; 2],
    /// Layer-local backward scratch.
    scratch: Vec<f32>,
    /// One sample's class probabilities.
    head: Vec<f32>,
}

impl Workspace {
    /// Class probabilities of sample `s` of the batch the last forward
    /// pass ran.
    fn probs(&mut self, s: usize) -> &[f32] {
        let k = self.head.len();
        let logits = self.acts.last().expect("logits batch");
        softmax(&logits[s * k..][..k], &mut self.head);
        &self.head
    }
}

/// The momentum update `momentum * v - step`, flushed to a signed zero
/// below the normal range. Where the gradient is exactly 0 (a dead-ReLU
/// filter) `v` only decays; it would reach the subnormals after ~800
/// steps and stick at the smallest one (`0.9 * 1.4e-45` rounds back to
/// itself), and subnormal arithmetic then costs 30-40x on the whole step,
/// for good. A select, not a branch; no bit changes where no subnormal
/// would have existed.
fn momentum_step(momentum: f32, v: f32, step: f32) -> f32 {
    let v = momentum * v - step;
    if v.abs() < f32::MIN_POSITIVE {
        0.0f32.copysign(v)
    } else {
        v
    }
}

/// A feed-forward network of [`Layer`]s.
#[derive(Debug, Clone)]
pub struct Network {
    /// Layers in order.
    pub layers: Vec<Layer>,
    /// Input shape (channels, length).
    pub input: Shape,
}

impl Payload for Network {
    fn approx_bytes(&self) -> usize {
        self.n_params() * std::mem::size_of::<f32>() + std::mem::size_of::<Self>()
    }
}

impl Network {
    /// Builds a network, validating layer shape compatibility.
    pub fn new(input: Shape, layers: Vec<Layer>) -> Self {
        let mut s = input;
        for l in &layers {
            s = l.out_shape(s);
        }
        Self { layers, input }
    }

    /// The paper's AF architecture (§III-D): two 1-D convolutional
    /// layers with 32 filters, a dense layer with 32 neurons, and a
    /// binary softmax head. Strided convolutions + pooling keep the
    /// flattened size manageable for arbitrary input lengths.
    pub fn afib_cnn(in_len: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let c1 = Conv1d::new(1, 32, 7, 3, &mut rng);
        let l1 = c1.out_len(in_len);
        let p1 = 2usize;
        let c2 = Conv1d::new(32, 32, 5, 2, &mut rng);
        let l2 = c2.out_len(l1 / p1);
        let p2 = 2usize;
        let flat = 32 * (l2 / p2);
        let d1 = Dense::new(flat, 32, &mut rng);
        let d2 = Dense::new(32, 2, &mut rng);
        Self::new(
            Shape { ch: 1, len: in_len },
            vec![
                Layer::Conv1d(c1),
                Layer::Relu,
                Layer::MaxPool1d(p1),
                Layer::Conv1d(c2),
                Layer::Relu,
                Layer::MaxPool1d(p2),
                Layer::Dense(d1),
                Layer::Relu,
                Layer::Dense(d2),
            ],
        )
    }

    /// Total trainable parameter count.
    pub fn n_params(&self) -> usize {
        self.layers
            .iter()
            .flat_map(|l| l.params())
            .map(<[f32]>::len)
            .sum()
    }

    /// Flattened copy of all parameters (for merging / assertions).
    pub fn get_weights(&self) -> Vec<f32> {
        self.layers
            .iter()
            .flat_map(|l| l.params())
            .flat_map(|p| p.iter().copied())
            .collect()
    }

    /// Overwrites all parameters from a flat buffer (inverse of
    /// [`Self::get_weights`]).
    ///
    /// # Panics
    /// Panics on size mismatch.
    fn set_weights(&mut self, w: &[f32]) {
        let mut off = 0;
        for (p, _, _) in self
            .layers
            .iter_mut()
            .filter_map(Layer::params_mut)
            .flatten()
        {
            p.copy_from_slice(&w[off..off + p.len()]);
            off += p.len();
        }
        assert_eq!(off, w.len(), "weight buffer size mismatch");
    }

    /// Saves the flat weight vector to a little-endian binary file with
    /// a minimal header — the artifact a trained model ships to the edge
    /// device in the paper's Fig. 1 pipeline.
    pub fn save_weights(&self, path: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let w = self.get_weights();
        let mut bytes = Vec::with_capacity(8 + w.len() * 4);
        bytes.extend_from_slice(&(w.len() as u64).to_le_bytes());
        for v in w {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        std::fs::write(path, bytes)
    }

    /// Loads weights saved by [`Self::save_weights`] into this network.
    ///
    /// # Errors
    /// Fails if the file is malformed or sized for a different
    /// architecture.
    pub fn load_weights(&mut self, path: &str) -> std::io::Result<()> {
        let bytes = std::fs::read(path)?;
        if bytes.len() < 8 {
            return Err(std::io::Error::other("weight file too short"));
        }
        let n = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")) as usize;
        if n != self.n_params() || bytes.len() != 8 + n * 4 {
            return Err(std::io::Error::other(format!(
                "weight count mismatch: file has {n}, network needs {}",
                self.n_params()
            )));
        }
        let w: Vec<f32> = bytes[8..]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        self.set_weights(&w);
        Ok(())
    }

    /// A workspace for batches of up to `max_bsz` samples.
    fn workspace(&self, max_bsz: usize) -> Workspace {
        let mut shapes = vec![self.input];
        for l in &self.layers {
            shapes.push(l.out_shape(shapes[shapes.len() - 1]));
        }
        let acts: Vec<Vec<f32>> = shapes
            .iter()
            .map(|s| vec![0.0; max_bsz * s.size()])
            .collect();
        let widest = acts.iter().map(Vec::len).max().unwrap_or(0);
        let n_out = shapes[shapes.len() - 1].size();
        Workspace {
            shapes,
            acts,
            kept: vec![Vec::new(); self.layers.len()],
            grads: [vec![0.0; widest], vec![0.0; widest]],
            scratch: Vec::new(),
            head: vec![0.0; n_out],
        }
    }

    /// Loads `rows` (each a `[len][channel]` sample; f64 features are
    /// converted to f32) as one batch into `ws` and runs every layer
    /// over it; returns the batch size.
    fn forward_batch<'a>(
        &self,
        ws: &mut Workspace,
        rows: impl ExactSizeIterator<Item = &'a [f64]>,
    ) -> usize {
        let bsz = rows.len();
        let n_in = self.input.size();
        for (row, dst) in rows.zip(ws.acts[0].chunks_exact_mut(n_in)) {
            assert_eq!(row.len(), n_in, "input length mismatch");
            for (a, &v) in dst.iter_mut().zip(row) {
                *a = v as f32;
            }
        }
        for (i, l) in self.layers.iter().enumerate() {
            let (si, so) = (ws.shapes[i], ws.shapes[i + 1]);
            let (lo, hi) = ws.acts.split_at_mut(i + 1);
            let (x, out) = (&lo[i][..bsz * si.size()], &mut hi[0][..bsz * so.size()]);
            l.forward_batch(x, si, &mut ws.kept[i], out);
        }
        bsz
    }

    /// Backpropagates the `bsz`-sample batch [`Self::forward_batch`]
    /// just ran against its `targets`, accumulating parameter
    /// gradients; returns the summed loss. The first layer is not asked
    /// for its input gradient — nothing consumes the gradient w.r.t.
    /// the data.
    fn backward_batch(
        &mut self,
        ws: &mut Workspace,
        bsz: usize,
        targets: impl Iterator<Item = u8>,
    ) -> f32 {
        let k = ws.head.len();
        let [mut g, mut dx] = ws.grads.each_mut();
        let mut loss = 0.0;
        let logits = ws.acts[self.layers.len()].chunks_exact(k);
        for ((t, logits), gs) in targets.zip(logits).zip(g.chunks_exact_mut(k)) {
            loss += softmax_ce(logits, t as usize, gs);
        }
        for (i, l) in self.layers.iter_mut().enumerate().rev() {
            let (si, so) = (ws.shapes[i], ws.shapes[i + 1]);
            let x = &ws.acts[i][..bsz * si.size()];
            let dout = &g[..bsz * so.size()];
            let dxi = (i > 0).then(|| &mut dx[..bsz * si.size()]);
            l.backward_batch(x, si, &ws.kept[i], dout, &mut ws.scratch, dxi);
            std::mem::swap(&mut g, &mut dx);
        }
        loss
    }

    /// One forward + backward pass over the rows `idx` of `(x, y)` as a
    /// single batch; returns the summed loss.
    fn backprop_batch(&mut self, ws: &mut Workspace, x: &Matrix, y: &[u8], idx: &[usize]) -> f32 {
        let bsz = self.forward_batch(ws, idx.iter().map(|&i| x.row(i)));
        self.backward_batch(ws, bsz, idx.iter().map(|&i| y[i]))
    }

    /// Logits for one `[len][channel]` sample row (f64 features are
    /// converted to f32).
    pub fn forward(&self, row: &[f64]) -> Vec<f32> {
        let mut ws = self.workspace(1);
        self.forward_batch(&mut ws, std::iter::once(row));
        ws.acts.pop().expect("logits batch")
    }

    /// Class probabilities for one sample.
    pub fn predict_probs(&self, row: &[f64]) -> Vec<f32> {
        let mut ws = self.workspace(1);
        self.forward_batch(&mut ws, std::iter::once(row));
        ws.probs(0).to_vec()
    }

    /// Hard 0/1 label for one sample.
    pub fn predict_one(&self, row: &[f64]) -> u8 {
        let p = self.predict_probs(row);
        u8::from(p[1] > p[0])
    }

    /// Hard labels for every row of `x`.
    pub fn predict(&self, x: &Matrix) -> Vec<u8> {
        let mut ws = self.workspace(EVAL_BATCH.min(x.rows()));
        let mut labels = Vec::with_capacity(x.rows());
        for r0 in (0..x.rows()).step_by(EVAL_BATCH) {
            let r1 = (r0 + EVAL_BATCH).min(x.rows());
            let bsz = self.forward_batch(&mut ws, (r0..r1).map(|r| x.row(r)));
            for s in 0..bsz {
                let p = ws.probs(s);
                labels.push(u8::from(p[1] > p[0]));
            }
        }
        labels
    }

    /// `(correct, total)` over a labeled set.
    pub fn evaluate(&self, x: &Matrix, y: &[u8]) -> (u64, u64) {
        let pred = self.predict(x);
        let correct = pred.iter().zip(y).filter(|(p, t)| p == t).count() as u64;
        (correct, y.len() as u64)
    }

    /// Applies accumulated gradients (scaled by `1/batch`) with
    /// momentum, then clears them.
    fn sgd_step(&mut self, lr: f32, momentum: f32, batch: usize) {
        let scale = lr / batch.max(1) as f32;
        for (p, g, v) in self
            .layers
            .iter_mut()
            .filter_map(Layer::params_mut)
            .flatten()
        {
            for ((pv, gv), vv) in p.iter_mut().zip(g.iter_mut()).zip(v.iter_mut()) {
                *vv = momentum_step(momentum, *vv, scale * *gv);
                *pv += *vv;
                *gv = 0.0;
            }
        }
    }

    /// One SGD epoch over `(x, y)`; returns the mean loss. Each
    /// mini-batch is one batched forward/backward pass through a
    /// workspace built once per call.
    pub fn train_epoch(&mut self, x: &Matrix, y: &[u8], params: &TrainParams, epoch: u64) -> f32 {
        assert_eq!(x.rows(), y.len());
        let mut order: Vec<usize> = (0..x.rows()).collect();
        let mut rng = StdRng::seed_from_u64(params.seed.wrapping_add(epoch.wrapping_mul(0x9E37)));
        order.shuffle(&mut rng);
        let batch = params.batch_size.max(1);
        let mut ws = self.workspace(batch.min(x.rows()));
        let mut total_loss = 0.0f32;
        for chunk in order.chunks(batch) {
            total_loss += self.backprop_batch(&mut ws, x, y, chunk);
            self.sgd_step(params.lr, params.momentum, chunk.len());
        }
        total_loss / x.rows().max(1) as f32
    }
}

/// Averages the weights of several equally-shaped networks — the
/// paper's per-epoch merge: "the weights of the neural network in each
/// worker are retrieved and they are merged and used in the next epoch".
pub fn average_networks(nets: &[&Network]) -> Network {
    assert!(!nets.is_empty(), "cannot average zero networks");
    let mut out = nets[0].clone();
    let k = nets.len() as f32;
    for (li, layer) in out.layers.iter_mut().enumerate() {
        let Some(sets) = layer.params_mut() else {
            continue;
        };
        // Net by net, then `/ k`: `((w0 + w1) + w2) + ..` per weight.
        for (pi, (acc, _, _)) in sets.into_iter().enumerate() {
            for net in &nets[1..] {
                let p = net.layers[li].params()[pi];
                assert_eq!(
                    p.len(),
                    acc.len(),
                    "cannot average differently-shaped networks"
                );
                for (a, b) in acc.iter_mut().zip(p) {
                    *a += b;
                }
            }
            for a in acc.iter_mut() {
                *a /= k;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    /// Tiny separable 1-D "signals": class 1 has high energy in the
    /// second half, class 0 in the first half.
    fn toy_data(n: usize, len: usize, seed: u64) -> (Matrix, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let cls = (i % 2) as u8;
            let row: Vec<f64> = (0..len)
                .map(|t| {
                    let active = if cls == 1 { t >= len / 2 } else { t < len / 2 };
                    let base = if active { 1.0 } else { 0.0 };
                    base + (rng.random::<f64>() - 0.5) * 0.2
                })
                .collect();
            rows.push(row);
            y.push(cls);
        }
        (Matrix::from_rows(&rows), y)
    }

    /// Accumulates the gradients of the rows `idx` as batches of at most
    /// [`EVAL_BATCH`] without stepping; returns them flattened (aligned
    /// with [`Network::get_weights`]) with the summed loss.
    fn compute_gradients(
        net: &mut Network,
        x: &Matrix,
        y: &[u8],
        idx: &[usize],
    ) -> (Vec<f32>, f32) {
        let mut ws = net.workspace(EVAL_BATCH.min(idx.len()));
        let mut loss = 0.0;
        for chunk in idx.chunks(EVAL_BATCH) {
            loss += net.backprop_batch(&mut ws, x, y, chunk);
        }
        let mut flat = Vec::with_capacity(net.n_params());
        for (_, g, _) in net
            .layers
            .iter_mut()
            .filter_map(Layer::params_mut)
            .flatten()
        {
            flat.extend_from_slice(g);
        }
        (flat, loss)
    }

    #[test]
    fn afib_cnn_builds_and_predicts() {
        let net = Network::afib_cnn(120, 0);
        assert!(net.n_params() > 1000);
        let x = vec![0.1f64; 120];
        let p = net.predict_probs(&x);
        assert_eq!(p.len(), 2);
        assert!((p[0] + p[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn training_reduces_loss_and_learns() {
        let (x, y) = toy_data(60, 64, 3);
        let mut net = Network::afib_cnn(64, 1);
        let params = TrainParams {
            lr: 0.05,
            momentum: 0.9,
            batch_size: 8,
            seed: 2,
        };
        let first = net.train_epoch(&x, &y, &params, 0);
        let mut last = first;
        for e in 1..8 {
            last = net.train_epoch(&x, &y, &params, e);
        }
        assert!(last < first, "loss did not decrease: {first} -> {last}");
        let (c, t) = net.evaluate(&x, &y);
        assert!(c as f64 / t as f64 > 0.9, "acc={}", c as f64 / t as f64);
    }

    #[test]
    fn weights_roundtrip() {
        let net = Network::afib_cnn(64, 5);
        let w = net.get_weights();
        assert_eq!(w.len(), net.n_params());
        let mut other = Network::afib_cnn(64, 6);
        assert_ne!(other.get_weights(), w);
        other.set_weights(&w);
        assert_eq!(other.get_weights(), w);
    }

    #[test]
    fn averaging_two_copies_is_identity() {
        let net = Network::afib_cnn(64, 7);
        let avg = average_networks(&[&net, &net]);
        assert_eq!(avg.get_weights(), net.get_weights());
    }

    #[test]
    fn averaging_moves_halfway() {
        let a = Network::afib_cnn(64, 8);
        let b = Network::afib_cnn(64, 9);
        let avg = average_networks(&[&a, &b]);
        let (wa, wb, wm) = (a.get_weights(), b.get_weights(), avg.get_weights());
        for i in [0usize, 10, 100] {
            assert!((wm[i] - 0.5 * (wa[i] + wb[i])).abs() < 1e-6);
        }
    }

    #[test]
    fn weights_file_roundtrip() {
        let net = Network::afib_cnn(64, 11);
        let path = "/tmp/taskml_weights_test.bin";
        net.save_weights(path).unwrap();
        let mut other = Network::afib_cnn(64, 12);
        assert_ne!(other.get_weights(), net.get_weights());
        other.load_weights(path).unwrap();
        assert_eq!(other.get_weights(), net.get_weights());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn weights_file_rejects_wrong_architecture() {
        let net = Network::afib_cnn(64, 11);
        let path = "/tmp/taskml_weights_mismatch.bin";
        net.save_weights(path).unwrap();
        let mut other = Network::afib_cnn(128, 0);
        assert!(other.load_weights(path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn deterministic_training() {
        let (x, y) = toy_data(20, 64, 4);
        let mut a = Network::afib_cnn(64, 1);
        let mut b = Network::afib_cnn(64, 1);
        let p = TrainParams::default();
        // 20 rows at the default batch of 16: a full and a ragged batch.
        let la = a.train_epoch(&x, &y, &p, 0);
        let lb = b.train_epoch(&x, &y, &p, 0);
        assert_eq!(la.to_bits(), lb.to_bits());
        let bits = |n: &Network| {
            n.get_weights()
                .iter()
                .map(|w| w.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&a), bits(&b));
        assert_ne!(bits(&a), bits(&Network::afib_cnn(64, 1)));
    }

    #[test]
    fn zero_gradient_steps_flush_velocities_instead_of_going_subnormal() {
        // A dead-ReLU filter's gradient is exactly 0, so its velocity
        // only decays: 0.9^n reaches the subnormals near step 800 and
        // would stick at the smallest one.
        let (x, y) = toy_data(8, 64, 4);
        let mut net = Network::afib_cnn(64, 1);
        net.train_epoch(&x, &y, &TrainParams::default(), 0);
        let velocities = |n: &mut Network| -> Vec<f32> {
            let sets = n.layers.iter_mut().filter_map(Layer::params_mut);
            sets.flatten().flat_map(|(_, _, v)| v.to_vec()).collect()
        };
        assert!(velocities(&mut net).iter().any(|&v| v != 0.0));
        (0..1000).for_each(|_| net.sgd_step(0.01, 0.9, 8));
        let settled = net.get_weights();
        (0..1000).for_each(|_| net.sgd_step(0.01, 0.9, 8));
        assert!(velocities(&mut net).iter().all(|&v| v == 0.0));
        let bits = |w: Vec<f32>| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(net.get_weights()), bits(settled));
    }

    #[test]
    fn averaging_sums_net_by_net_then_divides() {
        let nets: Vec<Network> = (0..4).map(|s| Network::afib_cnn(64, 20 + s)).collect();
        let refs: Vec<&Network> = nets.iter().collect();
        let w: Vec<Vec<f32>> = nets.iter().map(Network::get_weights).collect();
        let want: Vec<u32> = (0..w[0].len())
            .map(|i| ((((w[0][i] + w[1][i]) + w[2][i]) + w[3][i]) / 4.0).to_bits())
            .collect();
        let got = average_networks(&refs).get_weights();
        assert_eq!(got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// One batch of B samples must give the logits of, and
        /// accumulate the gradients of, B batches of one — on random
        /// conv/pool/dense shapes including `len % pool != 0` and
        /// `stride > kernel`. Forward is exact (no GEMM depth grows
        /// with the batch); the conv weight gradient sums over
        /// `B * out_len` in one GEMM instead of B, hence 1e-5.
        #[test]
        fn prop_batch_equals_per_sample_accumulation(
            in_ch in 1usize..3,
            out_ch in 1usize..5,
            kernel in 1usize..5,
            stride in 1usize..7,
            pool in 1usize..4,
            extra in 0usize..9,
            bsz in 2usize..7,
            seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            // Long enough that the pooled map still fits the second kernel.
            let k2 = 1 + (seed % 2) as usize;
            let in_len = kernel + stride * (2 * pool - 1) + extra;
            let c1 = Conv1d::new(in_ch, out_ch, kernel, stride, &mut rng);
            let pooled = c1.out_len(in_len) / pool;
            let c2 = Conv1d::new(out_ch, 3, k2, 1, &mut rng);
            let flat = 3 * c2.out_len(pooled);
            let net = Network::new(
                Shape { ch: in_ch, len: in_len },
                vec![
                    Layer::Conv1d(c1),
                    Layer::Relu,
                    Layer::MaxPool1d(pool),
                    Layer::Conv1d(c2),
                    Layer::Relu,
                    Layer::Dense(Dense::new(flat, 4, &mut rng)),
                    Layer::Relu,
                    Layer::Dense(Dense::new(4, 2, &mut rng)),
                ],
            );
            let rows: Vec<Vec<f64>> = (0..bsz)
                .map(|_| (0..in_ch * in_len).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect())
                .collect();
            let x = Matrix::from_rows(&rows);
            let y: Vec<u8> = (0..bsz).map(|i| ((i as u64 + seed) % 2) as u8).collect();

            let mut ws = net.workspace(bsz);
            net.forward_batch(&mut ws, rows.iter().map(Vec::as_slice));
            let logits = ws.acts[net.layers.len()].chunks_exact(2);
            for (row, logits) in rows.iter().zip(logits) {
                proptest::prop_assert_eq!(logits.to_vec(), net.forward(row));
            }

            let idx: Vec<usize> = (0..bsz).collect();
            let (batched, loss) = compute_gradients(&mut net.clone(), &x, &y, &idx);
            let mut summed = vec![0.0f32; batched.len()];
            let mut loss1 = 0.0f32;
            for i in idx {
                let (g, l) = compute_gradients(&mut net.clone(), &x, &y, &[i]);
                summed.iter_mut().zip(g).for_each(|(a, b)| *a += b);
                loss1 += l;
            }
            proptest::prop_assert!((loss - loss1).abs() < 1e-5 * loss1.max(1.0));
            for (p, q) in batched.iter().zip(&summed) {
                proptest::prop_assert!((p - q).abs() < 1e-5 * q.abs().max(1.0), "{} vs {}", p, q);
            }
        }
    }

    #[test]
    #[should_panic(expected = "input length mismatch")]
    fn wrong_input_length_panics() {
        let net = Network::afib_cnn(64, 0);
        let _ = net.forward(&vec![0.0; 32]);
    }
}
