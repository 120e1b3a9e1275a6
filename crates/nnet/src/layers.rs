//! Neural-network layers with forward and backward passes.
//!
//! Activations are flat `Vec<f32>` buffers interpreted as
//! `(channels, length)` feature maps (dense layers treat them as flat
//! vectors). Every layer implements `forward` and a `backward` that
//! consumes the gradient w.r.t. its output and produces the gradient
//! w.r.t. its input, accumulating parameter gradients internally.

use linalg::{sgemm_nn, sgemm_nt, sgemm_tn};
use rand::rngs::StdRng;
use rand::RngExt;
#[cfg(test)]
use rand::SeedableRng;
use std::cell::RefCell;

thread_local! {
    /// im2col patch-matrix scratch (`cols`, `dcols`), reused across
    /// layers, samples, and mini-batches on the same thread so an
    /// epoch's worth of convolutions performs O(1) buffer allocations.
    static IM2COL_SCRATCH: RefCell<(Vec<f32>, Vec<f32>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Shape of an activation buffer: `channels x length`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Channel count.
    pub ch: usize,
    /// Samples per channel.
    pub len: usize,
}

impl Shape {
    /// Buffer size.
    pub fn size(&self) -> usize {
        self.ch * self.len
    }
}

/// 1-D valid convolution with stride.
#[derive(Debug, Clone)]
pub struct Conv1d {
    /// Input channels.
    pub in_ch: usize,
    /// Output channels (filters).
    pub out_ch: usize,
    /// Kernel width.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Weights, layout `[out][in][k]`.
    pub w: Vec<f32>,
    /// Biases, one per output channel.
    pub b: Vec<f32>,
    /// Weight gradient accumulator.
    pub gw: Vec<f32>,
    /// Bias gradient accumulator.
    pub gb: Vec<f32>,
    /// Momentum velocity for weights.
    pub vw: Vec<f32>,
    /// Momentum velocity for biases.
    pub vb: Vec<f32>,
}

impl Conv1d {
    /// He-initialized convolution.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        rng: &mut StdRng,
    ) -> Self {
        assert!(kernel >= 1 && stride >= 1);
        let fan_in = (in_ch * kernel) as f32;
        let scale = (2.0 / fan_in).sqrt();
        let w: Vec<f32> = (0..out_ch * in_ch * kernel)
            .map(|_| (rng.random::<f32>() * 2.0 - 1.0) * scale)
            .collect();
        let n = w.len();
        Self {
            in_ch,
            out_ch,
            kernel,
            stride,
            w,
            b: vec![0.0; out_ch],
            gw: vec![0.0; n],
            gb: vec![0.0; out_ch],
            vw: vec![0.0; n],
            vb: vec![0.0; out_ch],
        }
    }

    /// Output length for a given input length.
    pub fn out_len(&self, in_len: usize) -> usize {
        assert!(in_len >= self.kernel, "input shorter than kernel");
        (in_len - self.kernel) / self.stride + 1
    }

    /// Gathers the receptive fields into the `(in_ch*kernel) x ol` patch
    /// matrix: `cols[(i*kernel + k) * ol + t] = x[i*in_len + t*stride + k]`.
    /// Row order matches the weight layout `[out][in][k]`, so a plain
    /// row-major GEMM against `w` computes the convolution with the same
    /// per-element summation order as the scalar loops.
    fn im2col(&self, x: &[f32], in_len: usize, ol: usize, cols: &mut Vec<f32>) {
        let ick = self.in_ch * self.kernel;
        // Every patch row is fully overwritten below, so zero-filling
        // the recycled scratch would be pure memset waste (the same
        // full-overwrite contract as `linalg::pool::acquire_full_overwrite`);
        // only growth past the recycled length takes zeros.
        let need = ick * ol;
        if cols.len() >= need {
            cols.truncate(need);
        } else {
            cols.resize(need, 0.0);
        }
        for i in 0..self.in_ch {
            for k in 0..self.kernel {
                let row = &mut cols[(i * self.kernel + k) * ol..(i * self.kernel + k + 1) * ol];
                let xbase = i * in_len + k;
                if self.stride == 1 {
                    row.copy_from_slice(&x[xbase..xbase + ol]);
                } else {
                    for (t, r) in row.iter_mut().enumerate() {
                        *r = x[xbase + t * self.stride];
                    }
                }
            }
        }
    }

    /// Forward pass, lowered to im2col + GEMM (the EDDL lowering):
    /// `out[out_ch x ol] = w[out_ch x ick] * cols[ick x ol] + b`.
    /// With the scalar GEMM (`LINALG_FORCE_SCALAR`) this is bitwise
    /// identical to the 4-deep scalar loops (the test-only
    /// `forward_naive` oracle) — the patch-matrix row order and the
    /// blocked GEMM's ascending-`k` accumulation reproduce their
    /// summation order exactly (asserted by
    /// `im2col_with_scalar_gemm_bitwise_matches_naive`). The default
    /// SIMD GEMM reassociates the per-element sums and matches to
    /// ≤1e-4 relative instead.
    pub fn forward(&self, x: &[f32], in_len: usize) -> Vec<f32> {
        let ol = self.out_len(in_len);
        let ick = self.in_ch * self.kernel;
        let mut out = vec![0.0f32; self.out_ch * ol];
        for (orow, &bias) in out.chunks_mut(ol).zip(&self.b) {
            orow.fill(bias);
        }
        IM2COL_SCRATCH.with(|s| {
            let cols = &mut s.borrow_mut().0;
            self.im2col(x, in_len, ol, cols);
            sgemm_nn(self.out_ch, ick, ol, &self.w, cols, &mut out);
        });
        out
    }

    /// Backward pass, lowered to two GEMMs plus a col2im scatter:
    /// `gw += dout * cols^T`, `dcols = w^T * dout`, `dx = col2im(dcols)`.
    /// Matches the scalar loops (test-only `backward_naive` oracle) to
    /// f32 rounding (the gradient GEMMs reassociate the sums).
    pub fn backward(&mut self, x: &[f32], in_len: usize, dout: &[f32]) -> Vec<f32> {
        let ol = self.out_len(in_len);
        let ick = self.in_ch * self.kernel;
        let mut dx = vec![0.0f32; self.in_ch * in_len];
        for (gb, orow) in self.gb.iter_mut().zip(dout.chunks(ol)) {
            *gb += orow.iter().sum::<f32>();
        }
        IM2COL_SCRATCH.with(|s| {
            let (cols, dcols) = &mut *s.borrow_mut();
            self.im2col(x, in_len, ol, cols);
            sgemm_nt(self.out_ch, ol, ick, dout, cols, &mut self.gw);
            dcols.clear();
            dcols.resize(ick * ol, 0.0);
            sgemm_tn(ick, self.out_ch, ol, &self.w, dout, dcols);
            for i in 0..self.in_ch {
                for k in 0..self.kernel {
                    let row = &dcols[(i * self.kernel + k) * ol..(i * self.kernel + k + 1) * ol];
                    let xbase = i * in_len + k;
                    for (t, &v) in row.iter().enumerate() {
                        dx[xbase + t * self.stride] += v;
                    }
                }
            }
        });
        dx
    }
}

/// Fully connected layer.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Input size.
    pub n_in: usize,
    /// Output size.
    pub n_out: usize,
    /// Weights, layout `[out][in]`.
    pub w: Vec<f32>,
    /// Biases.
    pub b: Vec<f32>,
    /// Weight gradients.
    pub gw: Vec<f32>,
    /// Bias gradients.
    pub gb: Vec<f32>,
    /// Momentum velocity for weights.
    pub vw: Vec<f32>,
    /// Momentum velocity for biases.
    pub vb: Vec<f32>,
}

impl Dense {
    /// He-initialized dense layer.
    pub fn new(n_in: usize, n_out: usize, rng: &mut StdRng) -> Self {
        let scale = (2.0 / n_in as f32).sqrt();
        let w: Vec<f32> = (0..n_in * n_out)
            .map(|_| (rng.random::<f32>() * 2.0 - 1.0) * scale)
            .collect();
        let n = w.len();
        Self {
            n_in,
            n_out,
            w,
            b: vec![0.0; n_out],
            gw: vec![0.0; n],
            gb: vec![0.0; n_out],
            vw: vec![0.0; n],
            vb: vec![0.0; n_out],
        }
    }

    fn forward(&self, x: &[f32]) -> Vec<f32> {
        debug_assert_eq!(x.len(), self.n_in);
        (0..self.n_out)
            .map(|o| {
                let row = &self.w[o * self.n_in..(o + 1) * self.n_in];
                self.b[o] + row.iter().zip(x).map(|(w, v)| w * v).sum::<f32>()
            })
            .collect()
    }

    fn backward(&mut self, x: &[f32], dout: &[f32]) -> Vec<f32> {
        let mut dx = vec![0.0f32; self.n_in];
        for (o, &g) in dout.iter().enumerate().take(self.n_out) {
            self.gb[o] += g;
            let row = &self.w[o * self.n_in..(o + 1) * self.n_in];
            let grow = &mut self.gw[o * self.n_in..(o + 1) * self.n_in];
            for i in 0..self.n_in {
                grow[i] += g * x[i];
                dx[i] += g * row[i];
            }
        }
        dx
    }
}

/// A network layer.
#[derive(Debug, Clone)]
pub enum Layer {
    /// 1-D convolution.
    Conv1d(Conv1d),
    /// Element-wise rectified linear unit.
    Relu,
    /// Non-overlapping 1-D max pooling with the given window.
    MaxPool1d(usize),
    /// Fully connected layer over the flattened input.
    Dense(Dense),
}

impl Layer {
    /// Output shape for a given input shape.
    pub fn out_shape(&self, s: Shape) -> Shape {
        match self {
            Layer::Conv1d(c) => {
                assert_eq!(s.ch, c.in_ch, "channel mismatch");
                Shape {
                    ch: c.out_ch,
                    len: c.out_len(s.len),
                }
            }
            Layer::Relu => s,
            Layer::MaxPool1d(p) => Shape {
                ch: s.ch,
                len: s.len / p,
            },
            Layer::Dense(d) => {
                assert_eq!(s.size(), d.n_in, "dense input mismatch");
                Shape {
                    ch: 1,
                    len: d.n_out,
                }
            }
        }
    }

    /// Forward pass.
    pub fn forward(&self, x: &[f32], s: Shape) -> Vec<f32> {
        match self {
            Layer::Conv1d(c) => c.forward(x, s.len),
            Layer::Relu => x.iter().map(|&v| v.max(0.0)).collect(),
            Layer::MaxPool1d(p) => {
                let ol = s.len / p;
                let mut out = vec![0.0f32; s.ch * ol];
                for c in 0..s.ch {
                    for t in 0..ol {
                        let base = c * s.len + t * p;
                        let m = x[base..base + p].iter().cloned().fold(f32::MIN, f32::max);
                        out[c * ol + t] = m;
                    }
                }
                out
            }
            Layer::Dense(d) => d.forward(x),
        }
    }

    /// Backward pass: given the layer input and the output gradient,
    /// returns the input gradient and accumulates parameter gradients.
    pub fn backward(&mut self, x: &[f32], s: Shape, dout: &[f32]) -> Vec<f32> {
        match self {
            Layer::Conv1d(c) => c.backward(x, s.len, dout),
            Layer::Relu => x
                .iter()
                .zip(dout)
                .map(|(&v, &g)| if v > 0.0 { g } else { 0.0 })
                .collect(),
            Layer::MaxPool1d(p) => {
                let ol = s.len / *p;
                let mut dx = vec![0.0f32; x.len()];
                for c in 0..s.ch {
                    for t in 0..ol {
                        let base = c * s.len + t * *p;
                        let (arg, _) = x[base..base + *p]
                            .iter()
                            .enumerate()
                            .max_by(|a, b| a.1.total_cmp(b.1))
                            .expect("non-empty pool window");
                        dx[base + arg] += dout[c * ol + t];
                    }
                }
                dx
            }
            Layer::Dense(d) => d.backward(x, dout),
        }
    }

    /// Visits `(params, grads, velocities)` buffers of this layer, if
    /// any.
    #[allow(clippy::type_complexity)]
    pub fn params_mut(&mut self) -> Option<(Vec<&mut [f32]>, Vec<&mut [f32]>, Vec<&mut [f32]>)> {
        match self {
            Layer::Conv1d(c) => Some((
                vec![&mut c.w, &mut c.b],
                vec![&mut c.gw, &mut c.gb],
                vec![&mut c.vw, &mut c.vb],
            )),
            Layer::Dense(d) => Some((
                vec![&mut d.w, &mut d.b],
                vec![&mut d.gw, &mut d.gb],
                vec![&mut d.vw, &mut d.vb],
            )),
            _ => None,
        }
    }

    /// Read-only parameter buffers.
    pub fn params(&self) -> Vec<&[f32]> {
        match self {
            Layer::Conv1d(c) => vec![&c.w, &c.b],
            Layer::Dense(d) => vec![&d.w, &d.b],
            _ => vec![],
        }
    }
}

/// Softmax of logits.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let m = logits.iter().cloned().fold(f32::MIN, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&v| (v - m).exp()).collect();
    let s: f32 = exps.iter().sum();
    exps.iter().map(|&e| e / s).collect()
}

/// Cross-entropy loss and gradient w.r.t. logits for a one-hot target.
pub fn softmax_ce(logits: &[f32], target: usize) -> (f32, Vec<f32>) {
    let p = softmax(logits);
    let loss = -(p[target].max(1e-12)).ln();
    let mut grad = p;
    grad[target] -= 1.0;
    (loss, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    impl Conv1d {
        /// The 4-deep scalar-loop forward pass: the oracle the
        /// im2col + GEMM lowering is checked against.
        fn forward_naive(&self, x: &[f32], in_len: usize) -> Vec<f32> {
            let ol = self.out_len(in_len);
            let mut out = vec![0.0f32; self.out_ch * ol];
            for o in 0..self.out_ch {
                for t in 0..ol {
                    let mut acc = self.b[o];
                    let base_t = t * self.stride;
                    for i in 0..self.in_ch {
                        let wbase = (o * self.in_ch + i) * self.kernel;
                        let xbase = i * in_len + base_t;
                        for k in 0..self.kernel {
                            acc += self.w[wbase + k] * x[xbase + k];
                        }
                    }
                    out[o * ol + t] = acc;
                }
            }
            out
        }

        /// The scalar-loop backward pass (oracle; see `forward_naive`).
        fn backward_naive(&mut self, x: &[f32], in_len: usize, dout: &[f32]) -> Vec<f32> {
            let ol = self.out_len(in_len);
            let mut dx = vec![0.0f32; self.in_ch * in_len];
            for o in 0..self.out_ch {
                for t in 0..ol {
                    let g = dout[o * ol + t];
                    if g == 0.0 {
                        continue;
                    }
                    self.gb[o] += g;
                    let base_t = t * self.stride;
                    for i in 0..self.in_ch {
                        let wbase = (o * self.in_ch + i) * self.kernel;
                        let xbase = i * in_len + base_t;
                        for k in 0..self.kernel {
                            self.gw[wbase + k] += g * x[xbase + k];
                            dx[xbase + k] += g * self.w[wbase + k];
                        }
                    }
                }
            }
            dx
        }
    }

    #[test]
    fn conv_known_values() {
        let mut c = Conv1d::new(1, 1, 2, 1, &mut rng());
        c.w = vec![1.0, -1.0];
        c.b = vec![0.5];
        let out = c.forward(&[1.0, 3.0, 2.0, 0.0], 4);
        assert_eq!(out, vec![1.0 - 3.0 + 0.5, 3.0 - 2.0 + 0.5, 2.0 - 0.0 + 0.5]);
    }

    #[test]
    fn conv_stride_reduces_length() {
        let c = Conv1d::new(1, 4, 3, 2, &mut rng());
        assert_eq!(c.out_len(11), 5);
        let out = c.forward(&[1.0; 11], 11);
        assert_eq!(out.len(), 4 * 5);
    }

    #[test]
    fn maxpool_forward_backward() {
        let l = Layer::MaxPool1d(2);
        let s = Shape { ch: 1, len: 4 };
        let x = vec![1.0, 5.0, 2.0, 0.5];
        assert_eq!(l.forward(&x, s), vec![5.0, 2.0]);
        let mut l = l;
        let dx = l.backward(&x, s, &[1.0, 2.0]);
        assert_eq!(dx, vec![0.0, 1.0, 2.0, 0.0]);
    }

    #[test]
    fn relu_gates_gradient() {
        let mut l = Layer::Relu;
        let s = Shape { ch: 1, len: 3 };
        let x = vec![-1.0, 0.5, 2.0];
        assert_eq!(l.forward(&x, s), vec![0.0, 0.5, 2.0]);
        assert_eq!(l.backward(&x, s, &[1.0, 1.0, 1.0]), vec![0.0, 1.0, 1.0]);
    }

    #[test]
    fn softmax_is_distribution() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn ce_gradient_direction() {
        let (loss, g) = softmax_ce(&[0.0, 0.0], 1);
        assert!(loss > 0.0);
        assert!(g[1] < 0.0 && g[0] > 0.0);
    }

    /// Finite-difference check of the conv gradient.
    #[test]
    fn conv_gradient_check() {
        let mut c = Conv1d::new(2, 3, 3, 1, &mut rng());
        let in_len = 6;
        let x: Vec<f32> = (0..2 * in_len).map(|i| (i as f32 * 0.37).sin()).collect();
        // Loss = sum of outputs (gradient of ones).
        let out = c.forward(&x, in_len);
        let dout = vec![1.0f32; out.len()];
        let _ = c.backward(&x, in_len, &dout);
        let analytic = c.gw.clone();
        let eps = 1e-3;
        for widx in [0usize, 5, 10, c.w.len() - 1] {
            let orig = c.w[widx];
            c.w[widx] = orig + eps;
            let lp: f32 = c.forward(&x, in_len).iter().sum();
            c.w[widx] = orig - eps;
            let lm: f32 = c.forward(&x, in_len).iter().sum();
            c.w[widx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic[widx]).abs() < 1e-2 * numeric.abs().max(1.0),
                "widx {widx}: numeric {numeric} vs analytic {}",
                analytic[widx]
            );
        }
    }

    /// Finite-difference check of the dense gradient.
    #[test]
    fn dense_gradient_check() {
        let mut d = Dense::new(4, 3, &mut rng());
        let x = vec![0.5, -1.0, 2.0, 0.1];
        let out = d.forward(&x);
        let dout = vec![1.0f32; out.len()];
        let _ = d.backward(&x, &dout);
        let analytic = d.gw.clone();
        let eps = 1e-3;
        for widx in [0usize, 3, 7, 11] {
            let orig = d.w[widx];
            d.w[widx] = orig + eps;
            let lp: f32 = d.forward(&x).iter().sum();
            d.w[widx] = orig - eps;
            let lm: f32 = d.forward(&x).iter().sum();
            d.w[widx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((numeric - analytic[widx]).abs() < 1e-2);
        }
    }

    /// Random conv layer + input for the im2col parity tests.
    fn random_conv(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        in_len: usize,
        seed: u64,
    ) -> (Conv1d, Vec<f32>) {
        let mut r = StdRng::seed_from_u64(seed);
        let c = Conv1d::new(in_ch, out_ch, kernel, stride, &mut r);
        let x: Vec<f32> = (0..in_ch * in_len)
            .map(|_| r.random::<f32>() * 2.0 - 1.0)
            .collect();
        (c, x)
    }

    #[test]
    fn im2col_forward_matches_naive() {
        // The dispatched GEMM may take the SIMD path, which
        // reassociates sums: compare to 1e-4 relative, the kernel's
        // documented parity bound.
        let (c, x) = random_conv(3, 5, 4, 2, 33, 7);
        let got = c.forward(&x, 33);
        let want = c.forward_naive(&x, 33);
        for (p, q) in got.iter().zip(&want) {
            assert!((p - q).abs() <= 1e-4 * q.abs().max(1.0), "{p} vs {q}");
        }
    }

    #[test]
    fn im2col_with_scalar_gemm_bitwise_matches_naive() {
        // Pinned to the scalar GEMM oracle: the im2col row order plus
        // ascending-k accumulation reproduce the naive loops exactly.
        let (c, x) = random_conv(3, 5, 4, 2, 33, 7);
        let ol = c.out_len(33);
        let ick = c.in_ch * c.kernel;
        let mut out = vec![0.0f32; c.out_ch * ol];
        for (orow, &bias) in out.chunks_mut(ol).zip(&c.b) {
            orow.fill(bias);
        }
        let mut cols = Vec::new();
        c.im2col(&x, 33, ol, &mut cols);
        linalg::sgemm_nn_scalar(c.out_ch, ick, ol, &c.w, &cols, &mut out);
        assert_eq!(out, c.forward_naive(&x, 33));
    }

    #[test]
    fn im2col_scratch_reuse_is_clean_across_shrinking_shapes() {
        // A big layer leaves a long dirty scratch; a smaller one must
        // still produce exact patches (truncate, not stale tail).
        let (big, xb) = random_conv(4, 3, 5, 1, 40, 3);
        let _ = big.forward(&xb, 40);
        let (small, xs) = random_conv(2, 3, 3, 2, 15, 4);
        let got = small.forward(&xs, 15);
        let want = small.forward_naive(&xs, 15);
        for (p, q) in got.iter().zip(&want) {
            assert!((p - q).abs() <= 1e-4 * q.abs().max(1.0), "{p} vs {q}");
        }
    }

    #[test]
    fn im2col_backward_matches_naive() {
        let (c, x) = random_conv(2, 4, 5, 1, 24, 11);
        let mut a = c.clone();
        let mut b = c;
        let ol = a.out_len(24);
        let dout: Vec<f32> = (0..4 * ol).map(|i| ((i as f32) * 0.31).sin()).collect();
        let dxa = a.backward(&x, 24, &dout);
        let dxb = b.backward_naive(&x, 24, &dout);
        for (p, q) in dxa.iter().zip(&dxb) {
            assert!((p - q).abs() < 1e-5, "dx {p} vs {q}");
        }
        for (p, q) in a.gw.iter().zip(&b.gw) {
            assert!((p - q).abs() < 1e-4 * q.abs().max(1.0), "gw {p} vs {q}");
        }
        for (p, q) in a.gb.iter().zip(&b.gb) {
            assert!((p - q).abs() < 1e-4 * q.abs().max(1.0), "gb {p} vs {q}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// im2col conv must match the scalar loops on random shapes
        /// (forward and both gradient passes) to 1e-5.
        #[test]
        fn prop_im2col_matches_naive(
            in_ch in 1usize..4,
            out_ch in 1usize..5,
            kernel in 1usize..6,
            stride in 1usize..4,
            extra in 0usize..20,
            seed in 0u64..1000,
        ) {
            let in_len = kernel + extra;
            let (c, x) = random_conv(in_ch, out_ch, kernel, stride, in_len, seed);
            let fwd = c.forward(&x, in_len);
            let fwd_naive = c.forward_naive(&x, in_len);
            for (p, q) in fwd.iter().zip(&fwd_naive) {
                proptest::prop_assert!((p - q).abs() < 1e-5 * q.abs().max(1.0));
            }

            let mut a = c.clone();
            let mut b = c;
            let ol = a.out_len(in_len);
            let dout: Vec<f32> = (0..out_ch * ol)
                .map(|i| ((i as f32 + seed as f32) * 0.7).cos())
                .collect();
            let dxa = a.backward(&x, in_len, &dout);
            let dxb = b.backward_naive(&x, in_len, &dout);
            for (p, q) in dxa.iter().zip(&dxb) {
                proptest::prop_assert!((p - q).abs() < 1e-5 * q.abs().max(1.0));
            }
            for (p, q) in a.gw.iter().zip(&b.gw) {
                proptest::prop_assert!((p - q).abs() < 1e-5 * q.abs().max(1.0));
            }
            for (p, q) in a.gb.iter().zip(&b.gb) {
                proptest::prop_assert!((p - q).abs() < 1e-5 * q.abs().max(1.0));
            }
        }
    }

    #[test]
    fn shapes_chain() {
        let mut r = rng();
        let conv = Layer::Conv1d(Conv1d::new(1, 8, 5, 1, &mut r));
        let s = conv.out_shape(Shape { ch: 1, len: 100 });
        assert_eq!(s, Shape { ch: 8, len: 96 });
        let pool = Layer::MaxPool1d(2);
        assert_eq!(pool.out_shape(s), Shape { ch: 8, len: 48 });
    }
}
