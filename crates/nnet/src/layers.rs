//! Neural-network layers with forward and backward passes.
//!
//! The unit of compute is the **mini-batch**. An activation buffer
//! holds `bsz` feature maps of `channels x length` laid out
//! `[channel][sample][len]`, so a convolution lowers to *one* im2col
//! and *one* GEMM per mini-batch and direction (the GEMM's `N` / `K`
//! dimension is `bsz * out_len`, not `out_len`), and the pooling and
//! ReLU sweeps walk `bsz * channels` contiguous rows. Every kernel
//! writes into caller-provided buffers — the network's `Workspace`
//! owns them for a whole epoch — and the patch matrix a convolution
//! builds in `forward_batch` is the one its `backward_batch` consumes.
//!
//! The per-sample `forward` / `backward` methods are batch-of-one
//! calls into the same kernels (`[channel][1][len]` is the plain
//! `(channels, length)` feature map) that allocate their result.

use linalg::{sgemm_nn, sgemm_nt, sgemm_tn};
use rand::rngs::StdRng;
use rand::RngExt;
#[cfg(test)]
use rand::SeedableRng;

/// Shape of one sample's activation: `channels x length`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Channel count.
    pub ch: usize,
    /// Samples per channel.
    pub len: usize,
}

impl Shape {
    /// Buffer size of one sample.
    pub fn size(&self) -> usize {
        self.ch * self.len
    }
}

/// Copies sample `s` of a `[ch][bsz][len]` buffer into the contiguous
/// `[ch][len]` row `out`.
pub(crate) fn gather_sample(buf: &[f32], sh: Shape, bsz: usize, s: usize, out: &mut [f32]) {
    for (c, o) in out[..sh.size()].chunks_exact_mut(sh.len).enumerate() {
        o.copy_from_slice(&buf[(c * bsz + s) * sh.len..][..sh.len]);
    }
}

/// Inverse of [`gather_sample`]: writes the `[ch][len]` row into sample
/// `s` of a `[ch][bsz][len]` buffer.
pub(crate) fn scatter_sample(row: &[f32], sh: Shape, bsz: usize, s: usize, buf: &mut [f32]) {
    for (c, r) in row[..sh.size()].chunks_exact(sh.len).enumerate() {
        buf[(c * bsz + s) * sh.len..][..sh.len].copy_from_slice(r);
    }
}

/// Dot product with eight independent partial sums (fixed order, so
/// deterministic), which lets the compiler keep one vector accumulator
/// instead of a serial chain of scalar adds.
fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let (ca, cb) = (a.chunks_exact(8), b.chunks_exact(8));
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (qa, qb) in ca.zip(cb) {
        for (s, (x, y)) in acc.iter_mut().zip(qa.iter().zip(qb)) {
            *s += x * y;
        }
    }
    let mut s = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for (x, y) in ra.iter().zip(rb) {
        s += x * y;
    }
    s
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

    /// Gathers the receptive fields of a `[in_ch][bsz][in_len]` batch
    /// into the `(in_ch*kernel) x (bsz*ol)` patch matrix:
    /// `cols[(i*kernel + k) * bsz*ol + s*ol + t] = x[(i*bsz + s)*in_len + t*stride + k]`.
    /// Row order matches the weight layout `[out][in][k]`, so a plain
    /// row-major GEMM against `w` computes the convolution with the same
    /// per-element summation order as the scalar loops. Every element of
    /// `cols` is overwritten.
    fn im2col(&self, x: &[f32], bsz: usize, in_len: usize, cols: &mut [f32]) {
        let ol = self.out_len(in_len);
        for (ik, row) in cols.chunks_exact_mut(bsz * ol).enumerate() {
            let (i, k) = (ik / self.kernel, ik % self.kernel);
            for (s, seg) in row.chunks_exact_mut(ol).enumerate() {
                let xs = &x[(i * bsz + s) * in_len + k..];
                if self.stride == 1 {
                    seg.copy_from_slice(&xs[..ol]);
                } else {
                    for (r, &v) in seg.iter_mut().zip(xs.iter().step_by(self.stride)) {
                        *r = v;
                    }
                }
            }
        }
    }

    /// Batched forward pass, lowered to one im2col + one GEMM (the EDDL
    /// lowering): `out[out_ch x bsz*ol] = w[out_ch x ick] * cols + b`,
    /// which *is* the `[out_ch][bsz][ol]` output batch. `cols` is
    /// resized to the patch matrix and left holding it for
    /// [`Self::backward_batch`].
    ///
    /// With the scalar GEMM (`LINALG_FORCE_SCALAR`) a batch of one is
    /// bitwise identical to the 4-deep scalar loops (asserted by
    /// `im2col_with_scalar_gemm_bitwise_matches_naive`); the default
    /// SIMD GEMM reassociates the sums and matches to ≤1e-4 relative.
    /// Either way the GEMM's depth is `ick` whatever the batch, so a
    /// sample's outputs do not depend on which batch it rides in.
    pub(crate) fn forward_batch(
        &self,
        x: &[f32],
        bsz: usize,
        in_len: usize,
        cols: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        let n = bsz * self.out_len(in_len);
        let ick = self.in_ch * self.kernel;
        cols.resize(ick * n, 0.0);
        self.im2col(x, bsz, in_len, cols);
        for (orow, &bias) in out.chunks_exact_mut(n).zip(&self.b) {
            orow.fill(bias);
        }
        sgemm_nn(self.out_ch, ick, n, &self.w, cols, out);
    }

    /// Batched backward pass over the patch matrix `cols` that
    /// [`Self::forward_batch`] left behind: `gw += dout * cols^T`, and,
    /// unless `dx` is `None` (a network's first layer: nothing consumes
    /// the gradient w.r.t. the data), `dcols = w^T * dout` followed by
    /// the col2im scatter into `dx` (`[in_ch][bsz][in_len]`). Matches
    /// the scalar loops (test-only `backward_naive`) to f32 rounding.
    pub(crate) fn backward_batch(
        &mut self,
        cols: &[f32],
        bsz: usize,
        in_len: usize,
        dout: &[f32],
        dcols: &mut Vec<f32>,
        dx: Option<&mut [f32]>,
    ) {
        let ol = self.out_len(in_len);
        let n = bsz * ol;
        let ick = self.in_ch * self.kernel;
        for (gb, orow) in self.gb.iter_mut().zip(dout.chunks_exact(n)) {
            *gb += orow.iter().sum::<f32>();
        }
        sgemm_nt(self.out_ch, n, ick, dout, cols, &mut self.gw);
        let Some(dx) = dx else { return };
        dcols.clear();
        dcols.resize(ick * n, 0.0);
        sgemm_tn(ick, self.out_ch, n, &self.w, dout, dcols);
        dx.fill(0.0);
        for (ik, row) in dcols.chunks_exact(n).enumerate() {
            let (i, k) = (ik / self.kernel, ik % self.kernel);
            for (s, seg) in row.chunks_exact(ol).enumerate() {
                let xs = &mut dx[(i * bsz + s) * in_len + k..];
                for (d, &v) in xs.iter_mut().step_by(self.stride).zip(seg) {
                    *d += v;
                }
            }
        }
    }

    /// Forward pass of one `[in_ch][in_len]` sample.
    pub fn forward(&self, x: &[f32], in_len: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; self.out_ch * self.out_len(in_len)];
        self.forward_batch(x, 1, in_len, &mut Vec::new(), &mut out);
        out
    }

    /// Backward pass of one sample: accumulates `gw` / `gb` and returns
    /// the gradient w.r.t. `x`.
    pub fn backward(&mut self, x: &[f32], in_len: usize, dout: &[f32]) -> Vec<f32> {
        let mut cols = vec![0.0f32; self.in_ch * self.kernel * self.out_len(in_len)];
        self.im2col(x, 1, in_len, &mut cols);
        let mut dx = vec![0.0f32; self.in_ch * in_len];
        self.backward_batch(&cols, 1, in_len, dout, &mut Vec::new(), Some(&mut dx));
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

    /// Batched forward pass over a `[sh.ch][bsz][sh.len]` input with
    /// `sh.size() == n_in`: each sample is flattened into `flat`
    /// (`[sample][n_in]`, kept for [`Self::backward_batch`]) and
    /// multiplied through; `out` is `[sample][n_out]`, which is the
    /// batch layout of a one-channel activation.
    fn forward_batch(
        &self,
        x: &[f32],
        sh: Shape,
        bsz: usize,
        flat: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        debug_assert_eq!(sh.size(), self.n_in);
        flat.resize(bsz * self.n_in, 0.0);
        let rows = flat.chunks_exact_mut(self.n_in);
        for (s, (xs, os)) in rows.zip(out.chunks_exact_mut(self.n_out)).enumerate() {
            gather_sample(x, sh, bsz, s, xs);
            for ((o, wrow), &bias) in os
                .iter_mut()
                .zip(self.w.chunks_exact(self.n_in))
                .zip(&self.b)
            {
                *o = bias + dot(wrow, xs);
            }
        }
    }

    /// Batched backward pass over the flattened inputs `flat` kept by
    /// [`Self::forward_batch`]; `row` is an `n_in`-sized scratch for one
    /// sample's input gradient before it is scattered into `dx`.
    fn backward_batch(
        &mut self,
        flat: &[f32],
        sh: Shape,
        bsz: usize,
        dout: &[f32],
        row: &mut Vec<f32>,
        mut dx: Option<&mut [f32]>,
    ) {
        let n_in = self.n_in;
        row.resize(n_in, 0.0);
        let samples = flat.chunks_exact(n_in).zip(dout.chunks_exact(self.n_out));
        for (s, (xs, gs)) in samples.enumerate() {
            row.fill(0.0);
            for (o, &g) in gs.iter().enumerate() {
                self.gb[o] += g;
                let wrow = &self.w[o * n_in..(o + 1) * n_in];
                let grow = &mut self.gw[o * n_in..(o + 1) * n_in];
                for (((gw, d), &xv), &wv) in grow.iter_mut().zip(row.iter_mut()).zip(xs).zip(wrow) {
                    *gw += g * xv;
                    *d += g * wv;
                }
            }
            if let Some(dx) = dx.as_deref_mut() {
                scatter_sample(row, sh, bsz, s, dx);
            }
        }
    }
}

/// Non-overlapping max pooling of every `len`-long row of `x` with
/// window `p`; a ragged tail (`len % p`) is dropped. Inlined into each
/// call site so that a literal `p` (the pair pooling of the paper's
/// network) unrolls the window loops — 9x on the pass at `p = 2`.
#[inline(always)]
fn max_pool(x: &[f32], len: usize, p: usize, out: &mut [f32]) {
    for (xrow, orow) in x.chunks_exact(len).zip(out.chunks_exact_mut(len / p)) {
        for (o, win) in orow.iter_mut().zip(xrow.chunks_exact(p)) {
            let mut m = f32::MIN;
            for &v in win {
                if v > m {
                    m = v;
                }
            }
            *o = m;
        }
    }
}

/// Routes each window's output gradient to the **last** maximum of the
/// window (post-ReLU windows are often all zero); everything else,
/// including a ragged tail, gets zero.
#[inline(always)]
fn max_pool_backward(x: &[f32], len: usize, p: usize, dout: &[f32], dx: &mut [f32]) {
    let rows = x.chunks_exact(len).zip(dx.chunks_exact_mut(len));
    for ((xrow, drow), grow) in rows.zip(dout.chunks_exact(len / p)) {
        drow[len - len % p..].fill(0.0);
        let wins = xrow.chunks_exact(p).zip(drow.chunks_exact_mut(p));
        for ((xw, dw), &g) in wins.zip(grow) {
            let (mut arg, mut m) = (0, xw[0]);
            for (j, &v) in xw.iter().enumerate() {
                if v >= m {
                    (arg, m) = (j, v);
                }
            }
            for (j, d) in dw.iter_mut().enumerate() {
                *d = if j == arg { g } else { 0.0 };
            }
        }
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
            Layer::MaxPool1d(p) => {
                assert!(s.len >= *p, "input shorter than pool window");
                Shape {
                    ch: s.ch,
                    len: s.len / p,
                }
            }
            Layer::Dense(d) => {
                assert_eq!(s.size(), d.n_in, "dense input mismatch");
                Shape {
                    ch: 1,
                    len: d.n_out,
                }
            }
        }
    }

    /// Batched forward pass: `x` is `[s.ch][bsz][s.len]`, `out` the
    /// same layout at [`Self::out_shape`]. `kept` receives what the
    /// layer's backward pass needs beyond `x` (the conv patch matrix,
    /// the dense layer's flattened inputs; untouched otherwise).
    pub(crate) fn forward_batch(
        &self,
        x: &[f32],
        s: Shape,
        bsz: usize,
        kept: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        match self {
            Layer::Conv1d(c) => c.forward_batch(x, bsz, s.len, kept, out),
            Layer::Relu => {
                for (o, &v) in out.iter_mut().zip(x) {
                    *o = v.max(0.0);
                }
            }
            Layer::MaxPool1d(2) => max_pool(x, s.len, 2, out),
            Layer::MaxPool1d(p) => max_pool(x, s.len, *p, out),
            Layer::Dense(d) => d.forward_batch(x, s, bsz, kept, out),
        }
    }

    /// Batched backward pass: given the layer input `x`, what
    /// [`Self::forward_batch`] `kept`, and the output gradient, writes
    /// the input gradient into `dx` (skipped when `None`) and
    /// accumulates parameter gradients. `scratch` is reused freely.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn backward_batch(
        &mut self,
        x: &[f32],
        s: Shape,
        bsz: usize,
        kept: &[f32],
        dout: &[f32],
        scratch: &mut Vec<f32>,
        dx: Option<&mut [f32]>,
    ) {
        match self {
            Layer::Conv1d(c) => c.backward_batch(kept, bsz, s.len, dout, scratch, dx),
            Layer::Dense(d) => d.backward_batch(kept, s, bsz, dout, scratch, dx),
            Layer::Relu => {
                let Some(dx) = dx else { return };
                for ((d, &v), &g) in dx.iter_mut().zip(x).zip(dout) {
                    *d = if v > 0.0 { g } else { 0.0 };
                }
            }
            Layer::MaxPool1d(p) => {
                let Some(dx) = dx else { return };
                match *p {
                    2 => max_pool_backward(x, s.len, 2, dout, dx),
                    p => max_pool_backward(x, s.len, p, dout, dx),
                }
            }
        }
    }

    /// Forward pass of one sample.
    pub fn forward(&self, x: &[f32], s: Shape) -> Vec<f32> {
        let mut out = vec![0.0f32; self.out_shape(s).size()];
        self.forward_batch(x, s, 1, &mut Vec::new(), &mut out);
        out
    }

    /// Backward pass of one sample: given the layer input and the
    /// output gradient, returns the input gradient and accumulates
    /// parameter gradients.
    pub fn backward(&mut self, x: &[f32], s: Shape, dout: &[f32]) -> Vec<f32> {
        if let Layer::Conv1d(c) = self {
            return c.backward(x, s.len, dout);
        }
        let mut dx = vec![0.0f32; s.size()];
        // What a dense layer keeps is its flattened input, and one
        // flattened sample is `x` itself.
        self.backward_batch(x, s, 1, x, dout, &mut Vec::new(), Some(&mut dx));
        dx
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

/// Softmax of `logits` into `out` (same length).
pub fn softmax(logits: &[f32], out: &mut [f32]) {
    let m = logits.iter().cloned().fold(f32::MIN, f32::max);
    for (e, &v) in out.iter_mut().zip(logits) {
        *e = (v - m).exp();
    }
    let s: f32 = out.iter().sum();
    for e in out.iter_mut() {
        *e /= s;
    }
}

/// Cross-entropy loss for a one-hot target; the gradient w.r.t. the
/// logits is written into `grad`.
pub fn softmax_ce(logits: &[f32], target: usize, grad: &mut [f32]) -> f32 {
    softmax(logits, grad);
    let loss = -(grad[target].max(1e-12)).ln();
    grad[target] -= 1.0;
    loss
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
        let mut p = [0.0f32; 3];
        softmax(&[1.0, 2.0, 3.0], &mut p);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn ce_gradient_direction() {
        let mut g = [0.0f32; 2];
        let loss = softmax_ce(&[0.0, 0.0], 1, &mut g);
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
        let sh = Shape { ch: 1, len: 4 };
        let forward = |d: &Dense| {
            let mut out = vec![0.0f32; d.n_out];
            d.forward_batch(&x, sh, 1, &mut Vec::new(), &mut out);
            out
        };
        let dout = vec![1.0f32; forward(&d).len()];
        d.backward_batch(&x, sh, 1, &dout, &mut Vec::new(), None);
        let analytic = d.gw.clone();
        let eps = 1e-3;
        for widx in [0usize, 3, 7, 11] {
            let orig = d.w[widx];
            d.w[widx] = orig + eps;
            let lp: f32 = forward(&d).iter().sum();
            d.w[widx] = orig - eps;
            let lm: f32 = forward(&d).iter().sum();
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
        // Pinned to the scalar GEMM oracle: the batch-of-one im2col
        // row order plus ascending-k accumulation reproduce the naive
        // loops exactly.
        let (c, x) = random_conv(3, 5, 4, 2, 33, 7);
        let ol = c.out_len(33);
        let ick = c.in_ch * c.kernel;
        let mut out = vec![0.0f32; c.out_ch * ol];
        for (orow, &bias) in out.chunks_mut(ol).zip(&c.b) {
            orow.fill(bias);
        }
        let mut cols = vec![0.0f32; ick * ol];
        c.im2col(&x, 1, 33, &mut cols);
        linalg::sgemm_nn_scalar(c.out_ch, ick, ol, &c.w, &cols, &mut out);
        assert_eq!(out, c.forward_naive(&x, 33));
    }

    /// `[ch][len]` samples interleaved into one `[ch][bsz][len]` batch.
    fn batch_of(samples: &[Vec<f32>], sh: Shape) -> Vec<f32> {
        let mut buf = vec![0.0f32; samples.len() * sh.size()];
        for (s, x) in samples.iter().enumerate() {
            scatter_sample(x, sh, samples.len(), s, &mut buf);
        }
        buf
    }

    #[test]
    fn conv_batch_forward_is_bitwise_the_per_sample_forward() {
        // The GEMM depth is `in_ch * kernel` whatever the batch, so a
        // sample's outputs do not depend on its batch mates.
        let (c, _) = random_conv(3, 5, 4, 2, 33, 7);
        let sh = Shape { ch: 3, len: 33 };
        let samples: Vec<Vec<f32>> = (0..5).map(|s| random_conv(3, 5, 4, 2, 33, s).1).collect();
        let so = Shape {
            ch: 5,
            len: c.out_len(33),
        };
        let mut out = vec![0.0f32; 5 * so.size()];
        c.forward_batch(&batch_of(&samples, sh), 5, 33, &mut Vec::new(), &mut out);
        for (s, x) in samples.iter().enumerate() {
            let mut got = vec![0.0f32; so.size()];
            gather_sample(&out, so, 5, s, &mut got);
            assert_eq!(got, c.forward(x, 33), "sample {s}");
        }
    }

    #[test]
    fn maxpool_backward_last_maximum_of_a_window_wins() {
        // Post-ReLU windows are often all zero: the tie goes to the
        // last position, per window, per row of the batch; the ragged
        // tail (len % pool) gets no gradient.
        let mut l = Layer::MaxPool1d(3);
        let s = Shape { ch: 1, len: 7 };
        let x = vec![0.0, 0.0, 0.0, 2.0, 2.0, 1.0, 9.0];
        assert_eq!(l.forward(&x, s), vec![0.0, 2.0]);
        let dx = l.backward(&x, s, &[5.0, 7.0]);
        assert_eq!(dx, vec![0.0, 0.0, 5.0, 0.0, 7.0, 0.0, 0.0]);
        // Two samples of one channel: rows are independent.
        let xb = [x.clone(), vec![1.0, 1.0, 0.0, 0.0, 3.0, 3.0, 0.0]].concat();
        let mut dxb = vec![1.0f32; 14];
        l.backward_batch(
            &xb,
            s,
            2,
            &[],
            &[5.0, 7.0, 1.0, 2.0],
            &mut Vec::new(),
            Some(&mut dxb),
        );
        assert_eq!(dxb[..7], dx[..]);
        assert_eq!(dxb[7..], [0.0, 1.0, 0.0, 0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn im2col_scratch_reuse_is_clean_across_shrinking_shapes() {
        // A reused patch buffer (the workspace's, when the last
        // mini-batch of an epoch is short) is long and dirty; a smaller
        // problem must still see exact patches (truncate, not stale tail).
        let mut cols = Vec::new();
        let (big, xb) = random_conv(4, 3, 5, 1, 40, 3);
        let mut out = vec![0.0f32; 3 * big.out_len(40)];
        big.forward_batch(&xb, 1, 40, &mut cols, &mut out);
        let (small, xs) = random_conv(2, 3, 3, 2, 15, 4);
        let mut got = vec![0.0f32; 3 * small.out_len(15)];
        small.forward_batch(&xs, 1, 15, &mut cols, &mut got);
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
