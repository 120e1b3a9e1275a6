//! Neural-network layers with forward and backward passes.
//!
//! The unit of compute is the **mini-batch**, laid out channels-last:
//! an activation buffer holds `bsz` feature maps of `channels x length`
//! as `[sample][len][channel]`. A receptive field of a convolution is
//! then one *contiguous* run of `kernel * in_ch` floats, so the patch
//! matrix is a stack of row copies, every pass of a convolution or a
//! dense layer is one GEMM whose product already *is* the next buffer
//! in this layout, a flattened sample (`[len][channel]`) is a plain
//! sub-slice, and the bias, pooling and scatter sweeps run over
//! contiguous `channel`-wide rows the compiler vectorises. For one
//! channel (the network's input, a dense layer's output) the layout is
//! the plain `[sample][len]`.
//!
//! Every kernel writes into caller-provided buffers — the network's
//! `Workspace` owns them for a whole epoch — and the patch matrix a
//! convolution builds in `forward_batch` is the one its
//! `backward_batch` consumes.
//!
//! The per-sample `forward` / `backward` methods are batch-of-one
//! calls into the same kernels that allocate their result.

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

/// `out[r] = bias` for every `bias.len()`-wide row of `out`: the
/// accumulating GEMM that follows then computes `x * w^T + bias`.
fn fill_rows(out: &mut [f32], bias: &[f32]) {
    for row in out.chunks_exact_mut(bias.len()) {
        row.copy_from_slice(bias);
    }
}

/// `acc[j] += Σ_r rows[r][j]` over the `acc.len()`-wide rows of `rows`
/// (a bias gradient), row by row so the sweep is a vector add.
fn add_column_sums(rows: &[f32], acc: &mut [f32]) {
    for row in rows.chunks_exact(acc.len()) {
        for (a, &v) in acc.iter_mut().zip(row) {
            *a += v;
        }
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
    /// Weights, layout `[out][k][in]`: row `o` is filter `o` in the
    /// order a channels-last receptive field is stored, i.e. the
    /// `out_ch x (kernel * in_ch)` right operand of the forward GEMM.
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

    /// Resizes `patches` to the `(bsz * ol) x (kernel * in_ch)` patch
    /// matrix of a `[bsz][in_len][in_ch]` batch and overwrites every
    /// element: row `s * ol + t` is the receptive field of output
    /// position `t` of sample `s`, one contiguous run of `x`.
    fn copy_patches(&self, x: &[f32], in_len: usize, patches: &mut Vec<f32>) {
        let ick = self.kernel * self.in_ch;
        let (ol, hop) = (self.out_len(in_len), self.stride * self.in_ch);
        let samples = x.chunks_exact(in_len * self.in_ch);
        patches.resize(samples.len() * ol * ick, 0.0);
        for (xs, ps) in samples.zip(patches.chunks_exact_mut(ol * ick)) {
            for (t, row) in ps.chunks_exact_mut(ick).enumerate() {
                row.copy_from_slice(&xs[t * hop..][..ick]);
            }
        }
    }

    /// Batched forward pass over a `[bsz][in_len][in_ch]` batch: one
    /// patch copy + one GEMM, `out[(bsz*ol) x out_ch] = patches * w^T +
    /// b` (`sgemm_nt`), which *is* the `[bsz][ol][out_ch]` output
    /// batch. `patches` is left holding the patch matrix for
    /// [`Self::backward_batch`].
    ///
    /// The GEMM's depth is `kernel * in_ch` whatever the batch, so a
    /// sample's outputs do not depend on which batch it rides in. The
    /// packed GEMM reassociates the sums (≤1e-4 relative of the scalar
    /// loops); the scalar one (`LINALG_FORCE_SCALAR`) sums each output
    /// in `sgemm_nt_scalar`'s documented order — four interleaved
    /// partial sums over the receptive field, then the bias — which
    /// `im2col_with_scalar_gemm_bitwise_matches_naive` pins bit for bit.
    pub(crate) fn forward_batch(
        &self,
        x: &[f32],
        in_len: usize,
        patches: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        self.copy_patches(x, in_len, patches);
        let ick = self.kernel * self.in_ch;
        fill_rows(out, &self.b);
        sgemm_nt(patches.len() / ick, ick, self.out_ch, patches, &self.w, out);
    }

    /// Batched backward pass over the patch matrix that
    /// [`Self::forward_batch`] left behind, `dout` being
    /// `[bsz][ol][out_ch]`: `gb +=` column sums of `dout`,
    /// `gw += dout^T * patches` (`sgemm_tn`), and, unless `dx` is
    /// `None` (a network's first layer: nothing consumes the gradient
    /// w.r.t. the data), `dpatches = dout * w` (`sgemm_nn`) followed by
    /// adding each of its rows onto the contiguous run of `dx`
    /// (`[bsz][in_len][in_ch]`) it was copied from. Matches the scalar
    /// loops (test-only `backward_naive`) to f32 rounding.
    pub(crate) fn backward_batch(
        &mut self,
        patches: &[f32],
        in_len: usize,
        dout: &[f32],
        dpatches: &mut Vec<f32>,
        dx: Option<&mut [f32]>,
    ) {
        let ick = self.kernel * self.in_ch;
        let rows = patches.len() / ick;
        add_column_sums(dout, &mut self.gb);
        sgemm_tn(self.out_ch, rows, ick, dout, patches, &mut self.gw);
        let Some(dx) = dx else { return };
        dpatches.clear();
        dpatches.resize(rows * ick, 0.0);
        sgemm_nn(rows, self.out_ch, ick, dout, &self.w, dpatches);
        dx.fill(0.0);
        let (ol, hop) = (self.out_len(in_len), self.stride * self.in_ch);
        let samples = dx.chunks_exact_mut(in_len * self.in_ch);
        for (ds, ps) in samples.zip(dpatches.chunks_exact(ol * ick)) {
            for (t, row) in ps.chunks_exact(ick).enumerate() {
                for (d, &v) in ds[t * hop..][..ick].iter_mut().zip(row) {
                    *d += v;
                }
            }
        }
    }

    /// Forward pass of one `[in_len][in_ch]` sample; the result is
    /// `[out_len][out_ch]`.
    pub fn forward(&self, x: &[f32], in_len: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; self.out_ch * self.out_len(in_len)];
        self.forward_batch(&x[..in_len * self.in_ch], in_len, &mut Vec::new(), &mut out);
        out
    }

    /// Backward pass of one sample (`x` as in [`Self::forward`], `dout`
    /// `[out_len][out_ch]`): accumulates `gw` / `gb` and returns the
    /// gradient w.r.t. `x`.
    pub fn backward(&mut self, x: &[f32], in_len: usize, dout: &[f32]) -> Vec<f32> {
        let mut patches = Vec::new();
        self.copy_patches(&x[..in_len * self.in_ch], in_len, &mut patches);
        let mut dx = vec![0.0f32; self.in_ch * in_len];
        self.backward_batch(&patches, in_len, dout, &mut Vec::new(), Some(&mut dx));
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
    /// Weights, layout `[out][in]`; `in` runs over the flattened
    /// `[len][channel]` input sample.
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

    /// Batched forward pass: a channels-last batch is already the
    /// `bsz x n_in` matrix of flattened samples, so
    /// `out[bsz x n_out] = x * w^T + b` is one `sgemm_nt` (depth `n_in`
    /// whatever the batch).
    fn forward_batch(&self, x: &[f32], out: &mut [f32]) {
        fill_rows(out, &self.b);
        sgemm_nt(x.len() / self.n_in, self.n_in, self.n_out, x, &self.w, out);
    }

    /// Batched backward pass over the layer input `x`: `gb +=` column
    /// sums of `dout`, `gw += dout^T * x` (`sgemm_tn`), `dx = dout * w`
    /// (`sgemm_nn`).
    fn backward_batch(&mut self, x: &[f32], dout: &[f32], dx: Option<&mut [f32]>) {
        let bsz = x.len() / self.n_in;
        add_column_sums(dout, &mut self.gb);
        sgemm_tn(self.n_out, bsz, self.n_in, dout, x, &mut self.gw);
        let Some(dx) = dx else { return };
        dx.fill(0.0);
        sgemm_nn(bsz, self.n_out, self.n_in, dout, &self.w, dx);
    }
}

/// Non-overlapping max pooling along `len` of a `[sample][s.len][s.ch]`
/// batch with window `p`: a vertical maximum of `p` channel rows, the
/// first maximum kept (`-0.0` before `0.0` stays `-0.0`); a ragged tail
/// (`len % p`) is dropped.
fn max_pool(x: &[f32], s: Shape, p: usize, out: &mut [f32]) {
    let ch = s.ch;
    let samples = x
        .chunks_exact(s.size())
        .zip(out.chunks_exact_mut(s.len / p * ch));
    for (xs, os) in samples {
        for (win, orow) in xs.chunks_exact(p * ch).zip(os.chunks_exact_mut(ch)) {
            orow.copy_from_slice(&win[..ch]);
            for xrow in win[ch..].chunks_exact(ch) {
                for (o, &v) in orow.iter_mut().zip(xrow) {
                    *o = if v > *o { v } else { *o };
                }
            }
        }
    }
}

/// Zeroes `d[c]` wherever `beaten(other[c], own[c])`. Post-ReLU
/// activations have coin-flip signs, so the choice must not become a
/// branch: it is applied as a bit mask over equally long rows, which
/// vectorises (as a mispredicted branch the pooling backward sweep cost
/// as much as a convolution's GEMM).
fn zero_where(d: &mut [f32], other: &[f32], own: &[f32], beaten: impl Fn(f32, f32) -> bool) {
    for ((d, &o), &w) in d.iter_mut().zip(other).zip(own) {
        *d = f32::from_bits(d.to_bits() & (beaten(o, w) as u32).wrapping_sub(1));
    }
}

/// Routes each window's output gradient to the **last** maximum of the
/// window, per channel (post-ReLU windows are often all zero): row `q`
/// keeps it unless an earlier row is greater or a later one at least
/// equal. Everything else, including a ragged tail, gets zero.
fn max_pool_backward(x: &[f32], s: Shape, p: usize, dout: &[f32], dx: &mut [f32]) {
    let ch = s.ch;
    let samples = x.chunks_exact(s.size()).zip(dx.chunks_exact_mut(s.size()));
    for ((xs, ds), gs) in samples.zip(dout.chunks_exact(s.len / p * ch)) {
        ds[s.len / p * p * ch..].fill(0.0);
        let wins = xs.chunks_exact(p * ch).zip(ds.chunks_exact_mut(p * ch));
        for ((xw, dw), g) in wins.zip(gs.chunks_exact(ch)) {
            for (q, dq) in dw.chunks_exact_mut(ch).enumerate() {
                let (earlier, rest) = xw.split_at(q * ch);
                let (xq, later) = rest.split_at(ch);
                dq.copy_from_slice(g);
                for xj in earlier.chunks_exact(ch) {
                    zero_where(dq, xj, xq, |o, w| o > w);
                }
                for xj in later.chunks_exact(ch) {
                    zero_where(dq, xj, xq, |o, w| o >= w);
                }
            }
        }
    }
}

/// One parameter buffer with its gradient and momentum velocity.
type ParamMut<'a> = (&'a mut [f32], &'a mut [f32], &'a mut [f32]);

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

    /// Batched forward pass: `x` is `[sample][s.len][s.ch]` (its length
    /// gives the batch size), `out` the same layout at
    /// [`Self::out_shape`]. `kept` receives what the layer's backward
    /// pass needs beyond `x`: a convolution's patch matrix; untouched
    /// by every other layer.
    pub(crate) fn forward_batch(&self, x: &[f32], s: Shape, kept: &mut Vec<f32>, out: &mut [f32]) {
        match self {
            Layer::Conv1d(c) => c.forward_batch(x, s.len, kept, out),
            Layer::Relu => {
                for (o, &v) in out.iter_mut().zip(x) {
                    *o = v.max(0.0);
                }
            }
            Layer::MaxPool1d(p) => max_pool(x, s, *p, out),
            Layer::Dense(d) => d.forward_batch(x, out),
        }
    }

    /// Batched backward pass: given the layer input `x`, what
    /// [`Self::forward_batch`] `kept`, and the output gradient, writes
    /// the input gradient into `dx` (skipped when `None`) and
    /// accumulates parameter gradients. `scratch` is reused freely.
    pub(crate) fn backward_batch(
        &mut self,
        x: &[f32],
        s: Shape,
        kept: &[f32],
        dout: &[f32],
        scratch: &mut Vec<f32>,
        dx: Option<&mut [f32]>,
    ) {
        match self {
            Layer::Conv1d(c) => c.backward_batch(kept, s.len, dout, scratch, dx),
            Layer::Dense(d) => d.backward_batch(x, dout, dx),
            Layer::Relu => {
                let Some(dx) = dx else { return };
                for ((d, &v), &g) in dx.iter_mut().zip(x).zip(dout) {
                    *d = if v > 0.0 { g } else { 0.0 };
                }
            }
            Layer::MaxPool1d(p) => {
                let Some(dx) = dx else { return };
                max_pool_backward(x, s, *p, dout, dx);
            }
        }
    }

    /// Forward pass of one `[s.len][s.ch]` sample.
    pub fn forward(&self, x: &[f32], s: Shape) -> Vec<f32> {
        let mut out = vec![0.0f32; self.out_shape(s).size()];
        self.forward_batch(&x[..s.size()], s, &mut Vec::new(), &mut out);
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
        self.backward_batch(&x[..s.size()], s, &[], dout, &mut Vec::new(), Some(&mut dx));
        dx
    }

    /// This layer's `(params, grads, velocities)` buffers, weights
    /// first, then biases, if it has any. No allocation: the optimiser
    /// walks them once per mini-batch.
    pub fn params_mut(&mut self) -> Option<[ParamMut<'_>; 2]> {
        match self {
            Layer::Conv1d(c) => Some([
                (&mut c.w, &mut c.gw, &mut c.vw),
                (&mut c.b, &mut c.gb, &mut c.vb),
            ]),
            Layer::Dense(d) => Some([
                (&mut d.w, &mut d.gw, &mut d.vw),
                (&mut d.b, &mut d.gb, &mut d.vb),
            ]),
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

    /// `Σ prod` in the order `sgemm_nt_scalar` documents for one output
    /// element: four interleaved partial sums over the full quads,
    /// combined pairwise, then the remainder one by one.
    fn nt_order_sum(prod: &[f32]) -> f32 {
        let quads = prod.chunks_exact(4);
        let tail = quads.remainder();
        let mut acc = [0.0f32; 4];
        for q in quads {
            for (a, &v) in acc.iter_mut().zip(q) {
                *a += v;
            }
        }
        let lanes = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        tail.iter().fold(lanes, |s, &v| s + v)
    }

    impl Conv1d {
        /// The scalar-loop forward pass of one `[in_len][in_ch]`
        /// sample, indexed element by element: the oracle the patch
        /// copy + GEMM lowering is checked against. Each output sums
        /// its receptive field in [`nt_order_sum`]'s order and then
        /// adds the bias, which is what the scalar GEMM does — so under
        /// it the comparison is bitwise, under the packed one 1e-4.
        fn forward_naive(&self, x: &[f32], in_len: usize) -> Vec<f32> {
            let ol = self.out_len(in_len);
            let mut out = vec![0.0f32; ol * self.out_ch];
            for t in 0..ol {
                for o in 0..self.out_ch {
                    let mut prod = Vec::new();
                    for k in 0..self.kernel {
                        for i in 0..self.in_ch {
                            let xv = x[(t * self.stride + k) * self.in_ch + i];
                            prod.push(xv * self.w[(o * self.kernel + k) * self.in_ch + i]);
                        }
                    }
                    out[t * self.out_ch + o] = self.b[o] + nt_order_sum(&prod);
                }
            }
            out
        }

        /// The scalar-loop backward pass (oracle; see `forward_naive`):
        /// `dout` is `[out_len][out_ch]`, the result `[in_len][in_ch]`.
        fn backward_naive(&mut self, x: &[f32], in_len: usize, dout: &[f32]) -> Vec<f32> {
            let mut dx = vec![0.0f32; in_len * self.in_ch];
            for t in 0..self.out_len(in_len) {
                for o in 0..self.out_ch {
                    let g = dout[t * self.out_ch + o];
                    self.gb[o] += g;
                    for k in 0..self.kernel {
                        for i in 0..self.in_ch {
                            let xi = (t * self.stride + k) * self.in_ch + i;
                            let wi = (o * self.kernel + k) * self.in_ch + i;
                            self.gw[wi] += g * x[xi];
                            dx[xi] += g * self.w[wi];
                        }
                    }
                }
            }
            dx
        }
    }

    fn assert_close(got: &[f32], want: &[f32], tol: f32, what: &str) {
        assert_eq!(got.len(), want.len(), "{what} length");
        for (p, q) in got.iter().zip(want) {
            assert!(
                (p - q).abs() <= tol * q.abs().max(1.0),
                "{what}: {p} vs {q}"
            );
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
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
    fn conv_weights_are_out_k_in_over_a_len_ch_sample() {
        // Two input channels, kernel 2: a sample is `[len][ch]` and a
        // filter `[k][in]`, so filter and receptive field line up
        // element for element.
        let mut c = Conv1d::new(2, 1, 2, 1, &mut rng());
        c.w = vec![1.0, 10.0, 100.0, 1000.0];
        c.b = vec![0.0];
        // t = 0: (1, 2), t = 1: (3, 4), t = 2: (5, 6).
        let out = c.forward(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3);
        assert_eq!(out, vec![4321.0, 6543.0]);
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
        let forward = |d: &Dense| {
            let mut out = vec![0.0f32; d.n_out];
            d.forward_batch(&x, &mut out);
            out
        };
        let dout = vec![1.0f32; forward(&d).len()];
        d.backward_batch(&x, &dout, None);
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

    #[test]
    fn dense_batch_is_bitwise_its_samples_forward_and_their_gradient_sum() {
        // Forward: the GEMM depth is `n_in` whatever the batch. Backward:
        // one GEMM sums over the batch what B calls accumulate, 1e-5.
        let mut r = StdRng::seed_from_u64(5);
        let d = Dense::new(23, 6, &mut r);
        let bsz = 5;
        let mut draw =
            |n: usize| -> Vec<f32> { (0..n).map(|_| r.random::<f32>() * 2.0 - 1.0).collect() };
        let (x, dout) = (draw(bsz * d.n_in), draw(bsz * d.n_out));
        let mut out = vec![0.0f32; bsz * d.n_out];
        d.forward_batch(&x, &mut out);
        let (mut batched, mut summed) = (d.clone(), d.clone());
        let mut dx = vec![1.0f32; bsz * d.n_in];
        batched.backward_batch(&x, &dout, Some(&mut dx));
        for s in 0..bsz {
            let (xs, gs) = (&x[s * d.n_in..][..d.n_in], &dout[s * d.n_out..][..d.n_out]);
            let mut one = vec![0.0f32; d.n_out];
            d.forward_batch(xs, &mut one);
            assert_eq!(
                bits(&out[s * d.n_out..][..d.n_out]),
                bits(&one),
                "sample {s}"
            );
            let mut dx1 = vec![0.0f32; d.n_in];
            summed.backward_batch(xs, gs, Some(&mut dx1));
            assert_close(&dx[s * d.n_in..][..d.n_in], &dx1, 1e-5, "dx");
        }
        assert_close(&batched.gw, &summed.gw, 1e-5, "gw");
        assert_close(&batched.gb, &summed.gb, 1e-5, "gb");
    }

    /// Random conv layer + one `[in_len][in_ch]` input for the parity
    /// tests.
    fn random_conv(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        in_len: usize,
        seed: u64,
    ) -> (Conv1d, Vec<f32>) {
        let mut r = StdRng::seed_from_u64(seed);
        let mut c = Conv1d::new(in_ch, out_ch, kernel, stride, &mut r);
        c.b.iter_mut().for_each(|b| *b = r.random::<f32>() - 0.5);
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
        assert_close(&c.forward(&x, 33), &c.forward_naive(&x, 33), 1e-4, "out");
    }

    #[test]
    fn im2col_with_scalar_gemm_bitwise_matches_naive() {
        // Pinned to the scalar GEMM oracle: patch rows in `[k][in]`
        // order against `[out][k][in]` filters, summed the way
        // `sgemm_nt_scalar` documents (four partial sums, not the
        // ascending chain the `[channel][sample][len]` layout's
        // `sgemm_nn_scalar` gave), reproduce the naive loops exactly.
        let (c, x) = random_conv(3, 5, 4, 2, 33, 7);
        let ick = c.in_ch * c.kernel;
        let mut patches = Vec::new();
        c.copy_patches(&x, 33, &mut patches);
        let mut out = vec![0.0f32; c.out_ch * c.out_len(33)];
        fill_rows(&mut out, &c.b);
        linalg::sgemm_nt_scalar(c.out_len(33), ick, c.out_ch, &patches, &c.w, &mut out);
        assert_eq!(bits(&out), bits(&c.forward_naive(&x, 33)));
    }

    #[test]
    fn conv_batch_forward_is_bitwise_the_per_sample_forward() {
        // The GEMM depth is `in_ch * kernel` whatever the batch, so a
        // sample's outputs do not depend on its batch mates.
        let (c, _) = random_conv(3, 5, 4, 2, 33, 7);
        let samples: Vec<Vec<f32>> = (0..5).map(|s| random_conv(3, 5, 4, 2, 33, s).1).collect();
        let so = c.out_ch * c.out_len(33);
        let mut out = vec![0.0f32; 5 * so];
        c.forward_batch(&samples.concat(), 33, &mut Vec::new(), &mut out);
        for (s, (x, got)) in samples.iter().zip(out.chunks_exact(so)).enumerate() {
            assert_eq!(bits(got), bits(&c.forward(x, 33)), "sample {s}");
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
            &[],
            &[5.0, 7.0, 1.0, 2.0],
            &mut Vec::new(),
            Some(&mut dxb),
        );
        assert_eq!(dxb[..7], dx[..]);
        assert_eq!(dxb[7..], [0.0, 1.0, 0.0, 0.0, 0.0, 2.0, 0.0]);
    }

    /// Max pooling of a `[bsz][s.len][s.ch]` batch one channel series at
    /// a time, with the scalar loops' comparisons: the first maximum is
    /// the output, the last one gets the gradient.
    fn pool_oracle(x: &[f32], s: Shape, p: usize, dout: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let (bsz, ol) = (x.len() / s.size(), s.len / p);
        let mut out = vec![0.0f32; bsz * ol * s.ch];
        let mut dx = vec![0.0f32; x.len()];
        for smp in 0..bsz {
            for c in 0..s.ch {
                let at = |t: usize| (smp * s.len + t) * s.ch + c;
                for w in 0..ol {
                    let (mut first, mut last) = (0, 0);
                    for j in 0..p {
                        if x[at(w * p + j)] > x[at(w * p + first)] {
                            first = j;
                        }
                        if x[at(w * p + j)] >= x[at(w * p + last)] {
                            last = j;
                        }
                    }
                    let o = (smp * ol + w) * s.ch + c;
                    out[o] = x[at(w * p + first)];
                    dx[at(w * p + last)] = dout[o];
                }
            }
        }
        (out, dx)
    }

    #[test]
    fn maxpool_matches_the_per_channel_scalar_oracle() {
        // Values drawn from a handful of levels, so that ties, all-zero
        // windows (post-ReLU), all-negative windows and `-0.0` next to
        // `0.0` all occur, on 3 samples x 5 channels with a ragged tail.
        let levels = [0.0f32, 0.0, 0.0, -0.0, -0.0, 1.5, -2.0, -0.25, 3.0];
        let mut r = StdRng::seed_from_u64(11);
        for (p, len) in [(1, 4), (2, 9), (3, 11), (3, 3), (2, 2)] {
            let s = Shape { ch: 5, len };
            let x: Vec<f32> = (0..3 * s.size())
                .map(|_| levels[(r.random::<f32>() * levels.len() as f32) as usize])
                .collect();
            let dout: Vec<f32> = (0..3 * (len / p) * s.ch)
                .map(|_| r.random::<f32>() - 0.5)
                .collect();
            let (want_out, want_dx) = pool_oracle(&x, s, p, &dout);
            let mut l = Layer::MaxPool1d(p);
            let mut out = vec![7.0f32; want_out.len()];
            l.forward_batch(&x, s, &mut Vec::new(), &mut out);
            assert_eq!(bits(&out), bits(&want_out), "forward p={p} len={len}");
            let mut dx = vec![7.0f32; x.len()];
            l.backward_batch(&x, s, &[], &dout, &mut Vec::new(), Some(&mut dx));
            assert_eq!(bits(&dx), bits(&want_dx), "backward p={p} len={len}");
        }
    }

    #[test]
    fn im2col_scratch_reuse_is_clean_across_shrinking_shapes() {
        // A reused patch buffer (the workspace's, when the last
        // mini-batch of an epoch is short) is long and dirty; a smaller
        // problem must still see exact patches (truncate, not stale tail).
        let mut patches = Vec::new();
        let (big, xb) = random_conv(4, 3, 5, 1, 40, 3);
        let mut out = vec![0.0f32; 3 * big.out_len(40)];
        big.forward_batch(&xb, 40, &mut patches, &mut out);
        let (small, xs) = random_conv(2, 3, 3, 2, 15, 4);
        let mut got = vec![0.0f32; 3 * small.out_len(15)];
        small.forward_batch(&xs, 15, &mut patches, &mut got);
        assert_close(&got, &small.forward_naive(&xs, 15), 1e-4, "out");
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
        assert_close(&dxa, &dxb, 1e-5, "dx");
        assert_close(&a.gw, &b.gw, 1e-4, "gw");
        assert_close(&a.gb, &b.gb, 1e-4, "gb");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The channels-last batch kernels must match the scalar loops
        /// sample by sample — forward, `gw`, `gb` and `dx`, to 1e-5 —
        /// on random shapes including `stride > kernel` (input columns
        /// no patch covers), through a reused patch buffer that comes
        /// in longer than needed and dirty.
        #[test]
        fn prop_im2col_matches_naive(
            in_ch in 1usize..5,
            out_ch in 1usize..5,
            kernel in 1usize..6,
            stride in 1usize..8,
            extra in 0usize..20,
            bsz in 1usize..7,
            seed in 0u64..1000,
        ) {
            let in_len = kernel + extra;
            let (c, _) = random_conv(in_ch, out_ch, kernel, stride, in_len, seed);
            let samples: Vec<Vec<f32>> = (0..bsz as u64)
                .map(|s| random_conv(in_ch, out_ch, kernel, stride, in_len, seed + 1 + s).1)
                .collect();
            let so = out_ch * c.out_len(in_len);
            let dout: Vec<f32> = (0..bsz * so)
                .map(|i| ((i as f32 + seed as f32) * 0.7).cos())
                .collect();

            let mut a = c.clone();
            let mut patches = vec![f32::NAN; bsz * so * in_ch * kernel + 13];
            let mut out = vec![0.0f32; bsz * so];
            a.forward_batch(&samples.concat(), in_len, &mut patches, &mut out);
            let mut dx = vec![f32::NAN; bsz * in_ch * in_len];
            let mut scratch = vec![f32::NAN; 7];
            a.backward_batch(&patches, in_len, &dout, &mut scratch, Some(&mut dx));

            let mut b = c;
            let sx = in_ch * in_len;
            for (s, x) in samples.iter().enumerate() {
                let fwd = b.forward_naive(x, in_len);
                for (p, q) in out[s * so..][..so].iter().zip(&fwd) {
                    proptest::prop_assert!((p - q).abs() < 1e-5 * q.abs().max(1.0));
                }
                let dxs = b.backward_naive(x, in_len, &dout[s * so..][..so]);
                for (p, q) in dx[s * sx..][..sx].iter().zip(&dxs) {
                    proptest::prop_assert!((p - q).abs() < 1e-5 * q.abs().max(1.0));
                }
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
