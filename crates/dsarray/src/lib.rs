//! # dsarray — a blocked, task-distributed 2-D array (dislib `ds-array`)
//!
//! The paper's dislib library stores datasets as **ds-arrays**: 2-D
//! arrays partitioned into regular blocks "that can be operated as a
//! regular Python object", where every block operation is a PyCOMPSs
//! task (§II-B). This crate is the Rust equivalent built on
//! [`taskrt`]: a [`DsArray`] holds a grid of [`Handle<Matrix>`] blocks,
//! and each method submits the same task pattern dislib would —
//! the parallelism available to an estimator is therefore bounded by the
//! number of row blocks, exactly the property the paper's evaluation
//! leans on ("the maximum amount of parallelism of the fitting process is
//! thus limited by the number of row blocks").
//!
//! ```
//! use taskrt::Runtime;
//! use linalg::Matrix;
//! use dsarray::DsArray;
//!
//! let rt = Runtime::new();
//! let x = Matrix::from_fn(100, 8, |r, c| (r * 8 + c) as f64);
//! let ds = DsArray::from_matrix(&rt, &x, 25, 4); // 4x2 block grid
//! assert_eq!(ds.n_row_blocks(), 4);
//! let back = ds.collect(&rt);
//! assert_eq!(back, x);
//! ```

use linalg::Matrix;
use std::sync::Arc;
use taskrt::{Handle, RetryPolicy, Runtime};

/// Pairwise tree reduction over a list of handles — the cascade pattern
/// dislib uses for every reduction phase (CSVM merges "two by two").
///
/// Returns the single reduced handle. Submits `len - 1` tasks named
/// `name`.
///
/// Merge tasks are pure (`Fn`, borrowed inputs), so each declares a
/// three-attempt [`RetryPolicy`]: a transient fault in one merge
/// re-runs just that merge instead of failing the whole reduction — COMPSs' task resubmission, scoped to
/// the pattern where a single lost task would waste the widest subtree.
///
/// # Panics
/// Panics on an empty input.
pub fn tree_reduce<T>(
    rt: &Runtime,
    name: &str,
    items: &[Handle<T>],
    f: impl Fn(&T, &T) -> T + Send + Sync + 'static,
) -> Handle<T>
where
    T: taskrt::Payload,
{
    assert!(!items.is_empty(), "tree_reduce on empty input");
    let f = Arc::new(f);
    let mut level: Vec<Handle<T>> = items.to_vec();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut it = level.chunks(2);
        for pair in &mut it {
            if pair.len() == 2 {
                let f = f.clone();
                next.push(rt.task(name).retry(RetryPolicy::new(3)).run2(
                    pair[0],
                    pair[1],
                    move |a, b| f(a, b),
                ));
            } else {
                next.push(pair[0]);
            }
        }
        level = next;
    }
    level[0]
}

/// In-place variant of [`tree_reduce`]: the left operand of every merge
/// is passed with PyCOMPSs `direction=INOUT` semantics
/// ([`taskrt::TaskBuilder::run2_inout`]), so interior reduction nodes
/// mutate their left input instead of cloning it. With single-consumer
/// intermediates (always true inside the cascade) every merge steals its
/// accumulator and the reduction allocates nothing beyond the leaves.
///
/// Unlike [`tree_reduce`], merges here stay on the default
/// one-attempt policy: a retryable task gives up the
/// INOUT buffer steal (the runtime must keep inputs alive for re-runs),
/// which would forfeit exactly the zero-copy property this variant
/// exists for. Callers that prefer resilience over allocation can use
/// [`tree_reduce`].
///
/// # Panics
/// Panics on an empty input.
pub fn tree_reduce_inout<T>(
    rt: &Runtime,
    name: &str,
    items: &[Handle<T>],
    f: impl Fn(&mut T, &T) + Send + Sync + 'static,
) -> Handle<T>
where
    T: taskrt::Payload + Clone,
{
    assert!(!items.is_empty(), "tree_reduce on empty input");
    let f = Arc::new(f);
    let mut level: Vec<Handle<T>> = items.to_vec();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            if pair.len() == 2 {
                let f = f.clone();
                next.push(
                    rt.task(name)
                        .run2_inout(pair[0], pair[1], move |a, b| f(a, b)),
                );
            } else {
                next.push(pair[0]);
            }
        }
        level = next;
    }
    level[0]
}

/// A dense 2-D array partitioned into a regular grid of blocks, each a
/// [`Matrix`] living in the task runtime's data store.
#[derive(Clone)]
pub struct DsArray {
    rows: usize,
    cols: usize,
    rb_size: usize,
    cb_size: usize,
    /// `grid[rb][cb]` — row-major grid of block handles.
    grid: Vec<Vec<Handle<Matrix>>>,
}

impl DsArray {
    /// Partitions `m` into `rb_size x cb_size` blocks, one `ds_load`
    /// task per block (the paper: loading PhysioNet data into ds-arrays
    /// generated 631 tasks with 500×500 blocks).
    ///
    /// # Panics
    /// Panics if `m` is empty or the block sizes are zero.
    pub fn from_matrix(rt: &Runtime, m: &Matrix, rb_size: usize, cb_size: usize) -> Self {
        assert!(
            m.rows() > 0 && m.cols() > 0,
            "cannot distribute an empty matrix"
        );
        assert!(rb_size > 0 && cb_size > 0, "block sizes must be positive");
        let (rows, cols) = m.shape();
        let src = rt.put(m.clone());
        let n_rb = rows.div_ceil(rb_size);
        let n_cb = cols.div_ceil(cb_size);
        let mut grid = Vec::with_capacity(n_rb);
        for rb in 0..n_rb {
            let mut row = Vec::with_capacity(n_cb);
            let (r0, r1) = (rb * rb_size, ((rb + 1) * rb_size).min(rows));
            for cb in 0..n_cb {
                let (c0, c1) = (cb * cb_size, ((cb + 1) * cb_size).min(cols));
                row.push(rt.task("ds_load").run1(src, move |m: &Matrix| {
                    m.slice_rows(r0, r1).slice_cols(c0, c1)
                }));
            }
            grid.push(row);
        }
        DsArray {
            rows,
            cols,
            rb_size,
            cb_size,
            grid,
        }
    }

    /// Consuming variant of [`DsArray::from_matrix`]: takes ownership of
    /// `m`, partitions it **driver-side** (no `ds_load` tasks, no
    /// retained full copy in the data store), and recycles the source
    /// buffer through the [`linalg::pool`] once the blocks are cut.
    /// Block contents are identical to `from_matrix`'s.
    ///
    /// # Panics
    /// Panics if `m` is empty or the block sizes are zero.
    pub fn from_matrix_owned(rt: &Runtime, m: Matrix, rb_size: usize, cb_size: usize) -> Self {
        assert!(
            m.rows() > 0 && m.cols() > 0,
            "cannot distribute an empty matrix"
        );
        assert!(rb_size > 0 && cb_size > 0, "block sizes must be positive");
        let (rows, cols) = m.shape();
        let n_rb = rows.div_ceil(rb_size);
        let n_cb = cols.div_ceil(cb_size);
        let mut grid = Vec::with_capacity(n_rb);
        for rb in 0..n_rb {
            let mut row = Vec::with_capacity(n_cb);
            let (r0, r1) = (rb * rb_size, ((rb + 1) * rb_size).min(rows));
            for cb in 0..n_cb {
                let (c0, c1) = (cb * cb_size, ((cb + 1) * cb_size).min(cols));
                let block = if n_cb == 1 {
                    m.slice_rows(r0, r1)
                } else {
                    m.slice_rows(r0, r1).slice_cols(c0, c1)
                };
                row.push(rt.put(block));
            }
            grid.push(row);
        }
        m.into_pool();
        DsArray {
            rows,
            cols,
            rb_size,
            cb_size,
            grid,
        }
    }

    /// Builds a ds-array from pre-existing row-band handles (each a
    /// `rows_i x cols` matrix with a single column block).
    fn from_row_bands(bands: Vec<Handle<Matrix>>, band_rows: &[usize], cols: usize) -> Self {
        assert_eq!(bands.len(), band_rows.len());
        let rows = band_rows.iter().sum();
        let rb_size = band_rows.iter().copied().max().unwrap_or(1);
        DsArray {
            rows,
            cols,
            rb_size,
            cb_size: cols,
            grid: bands.into_iter().map(|b| vec![b]).collect(),
        }
    }

    /// Total shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of row blocks — the parallelism bound of dislib estimators.
    pub fn n_row_blocks(&self) -> usize {
        self.grid.len()
    }

    /// Number of column blocks.
    pub fn n_col_blocks(&self) -> usize {
        self.grid.first().map_or(0, Vec::len)
    }

    /// Number of rows in row block `rb`.
    fn rows_in_band(&self, rb: usize) -> usize {
        let r0 = rb * self.rb_size;
        (self.rows - r0).min(self.rb_size)
    }

    /// Raw block handle.
    pub fn block(&self, rb: usize, cb: usize) -> Handle<Matrix> {
        self.grid[rb][cb]
    }

    /// The full row band `rb` as a single matrix handle; a
    /// `ds_merge_band` task hstacks the band's blocks (no-op pass-through
    /// when the array has a single column block).
    fn row_band(&self, rt: &Runtime, rb: usize) -> Handle<Matrix> {
        if self.n_col_blocks() == 1 {
            return self.grid[rb][0];
        }
        rt.task("ds_merge_band").run_many(&self.grid[rb], |blocks| {
            let rows = blocks[0].rows();
            let cols: usize = blocks.iter().map(|b| b.cols()).sum();
            let mut out = Matrix::zeros(rows, cols);
            let mut c0 = 0;
            for b in blocks {
                for r in 0..rows {
                    out.row_mut(r)[c0..c0 + b.cols()].copy_from_slice(b.row(r));
                }
                c0 += b.cols();
            }
            out
        })
    }

    /// All row bands, each its blocks hstacked by one `ds_merge_band`
    /// task (or the block itself when there is one column block).
    pub fn row_bands(&self, rt: &Runtime) -> Vec<Handle<Matrix>> {
        (0..self.n_row_blocks())
            .map(|rb| self.row_band(rt, rb))
            .collect()
    }

    /// Gathers the whole array back into one local matrix (synchronizes).
    ///
    /// One `ds_gather` task copies every block straight into a single
    /// preallocated `rows x cols` matrix — the tree of `vstack`
    /// intermediates (each copying the full prefix again) is gone, so
    /// gathering moves each element exactly once.
    pub fn collect(&self, rt: &Runtime) -> Matrix {
        let blocks: Vec<Handle<Matrix>> = self.grid.iter().flatten().copied().collect();
        let (rows, cols) = (self.rows, self.cols);
        let (rb_size, cb_size) = (self.rb_size, self.cb_size);
        let n_cb = self.n_col_blocks();
        let gathered = rt.task("ds_gather").run_many(&blocks, move |bs| {
            let mut out = Matrix::from_pool(rows, cols);
            for (i, b) in bs.iter().enumerate() {
                let (r0, c0) = ((i / n_cb) * rb_size, (i % n_cb) * cb_size);
                for r in 0..b.rows() {
                    out.row_mut(r0 + r)[c0..c0 + b.cols()].copy_from_slice(b.row(r));
                }
            }
            out
        });
        (*rt.wait(gathered)).clone()
    }

    /// Applies `f` block-wise, producing a new ds-array with the same
    /// partitioning. `f` must preserve block shape.
    pub fn map_blocks(
        &self,
        rt: &Runtime,
        name: &str,
        f: impl Fn(&Matrix) -> Matrix + Send + Sync + 'static,
    ) -> DsArray {
        let f = Arc::new(f);
        let grid = self
            .grid
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&b| {
                        let f = f.clone();
                        rt.task(name).run1(b, move |m| {
                            let out = f(m);
                            assert_eq!(out.shape(), m.shape(), "map_blocks must preserve shape");
                            out
                        })
                    })
                    .collect()
            })
            .collect();
        DsArray { grid, ..*self }
    }

    /// Per-column sums via one partial task per block followed by a tree
    /// reduction (dislib's first PCA map-reduce phase).
    pub fn col_sums(&self, rt: &Runtime) -> Handle<Vec<f64>> {
        // Partial sums per block, padded into full-width vectors so the
        // reduction is uniform.
        let cols = self.cols;
        let cb_size = self.cb_size;
        let mut partials = Vec::new();
        for row in &self.grid {
            for (cb, &b) in row.iter().enumerate() {
                let c0 = cb * cb_size;
                // Pure partial producers retry on transient faults; the
                // INOUT reduction below keeps its steal (see
                // `tree_reduce_inout`).
                partials.push(rt.task("ds_colsum").retry(RetryPolicy::new(3)).run1(
                    b,
                    move |m: &Matrix| {
                        let mut v = vec![0.0; cols];
                        for r in 0..m.rows() {
                            for (j, &x) in m.row(r).iter().enumerate() {
                                v[c0 + j] += x;
                            }
                        }
                        v
                    },
                ));
            }
        }
        tree_reduce_inout(rt, "ds_colsum_reduce", &partials, |a, b| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        })
    }

    /// Gram matrix `X^T X` via one `ds_gram` task per row band plus a
    /// tree reduction (dislib's second PCA map-reduce phase; the result
    /// is unpartitioned, as in the paper).
    pub fn gram(&self, rt: &Runtime) -> Handle<Matrix> {
        let bands = self.row_bands(rt);
        let partials: Vec<Handle<Matrix>> = bands
            .into_iter()
            .map(|band| {
                rt.task("ds_gram")
                    .retry(RetryPolicy::new(3))
                    .run1(band, |m: &Matrix| m.t_matmul(m))
            })
            .collect();
        tree_reduce_inout(rt, "ds_gram_reduce", &partials, |a, b| a.add_assign(b))
    }

    /// Multiplies every row band by a replicated dense matrix `w`
    /// (`cols x k`), producing a new single-column-block ds-array — the
    /// projection step of PCA (`X @ components`).
    pub fn matmul_dense(&self, rt: &Runtime, w: Handle<Matrix>) -> DsArray {
        let bands = self.row_bands(rt);
        let new_bands: Vec<Handle<Matrix>> = bands
            .into_iter()
            .map(|band| {
                rt.task("ds_matmul")
                    .run2(band, w, |m: &Matrix, w: &Matrix| m.matmul(w))
            })
            .collect();
        let band_rows: Vec<usize> = (0..self.n_row_blocks())
            .map(|rb| self.rows_in_band(rb))
            .collect();
        // Column count of the result is unknown until w resolves; carry
        // it lazily by peeking — acceptable because `w` is usually tiny
        // and resolved. To stay non-blocking we read the cols from the
        // first produced band at collect time; here we record `k` as the
        // declared width of `w` if available.
        let k = rt.peek(w).cols();
        DsArray::from_row_bands(new_bands, &band_rows, k)
    }

    /// Subtracts a row vector from every row (column centering), block
    /// aligned — used by PCA and StandardScaler.
    pub fn sub_row_vector(&self, rt: &Runtime, v: Handle<Vec<f64>>) -> DsArray {
        let grid = self.row_vector_op(rt, "ds_center", v, false, center);
        DsArray { grid, ..*self }
    }

    /// Divides every column by the matching entry of `v` (unit-variance
    /// scaling); entries `<= eps` divide by 1 instead (constant columns).
    /// Consuming: the block parameter is INOUT, so scaling a
    /// freshly-produced array (the scaler's pipeline shape) mutates
    /// blocks in place instead of cloning each one.
    pub fn div_row_vector_inplace(self, rt: &Runtime, v: Handle<Vec<f64>>) -> DsArray {
        let grid = self.row_vector_op(rt, "ds_scale", v, true, unit_scale);
        DsArray { grid, ..self }
    }

    /// One `name` task per block applying `op(x, v[column of x])` to
    /// every element: INOUT on the block when `inplace`, on a clone of
    /// it otherwise. (A `Handle` the driver still holds does not block
    /// an INOUT steal, so an op whose caller reads the array again
    /// cannot use the consuming form.)
    fn row_vector_op(
        &self,
        rt: &Runtime,
        name: &str,
        v: Handle<Vec<f64>>,
        inplace: bool,
        op: impl Fn(&mut f64, f64) + Copy + Send + 'static,
    ) -> Vec<Vec<Handle<Matrix>>> {
        let cb_size = self.cb_size;
        self.grid
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(cb, &b)| {
                        let c0 = cb * cb_size;
                        let apply = move |m: &mut Matrix, v: &Vec<f64>| {
                            for r in 0..m.rows() {
                                for (j, x) in m.row_mut(r).iter_mut().enumerate() {
                                    op(x, v[c0 + j]);
                                }
                            }
                        };
                        if inplace {
                            rt.task(name).run2_inout(b, v, apply)
                        } else {
                            rt.task(name).run2(b, v, move |m: &Matrix, v: &Vec<f64>| {
                                let mut out = m.clone();
                                apply(&mut out, v);
                                out
                            })
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

/// Column centering: `x - mean`.
fn center(x: &mut f64, mean: f64) {
    *x -= mean;
}

/// Unit-variance scaling: `x / s`, leaving constant columns (`s <= eps`)
/// as they are.
fn unit_scale(x: &mut f64, s: f64) {
    if s > f64::EPSILON {
        *x /= s;
    }
}

/// Labels (or any per-row `u8` annotation) partitioned to match the row
/// bands of a [`DsArray`].
#[derive(Clone)]
pub struct DsLabels {
    parts: Vec<Handle<Vec<u8>>>,
    len: usize,
}

impl DsLabels {
    /// Partitions `y` into chunks of `rb_size` aligned with a ds-array's
    /// row bands.
    pub fn from_slice(rt: &Runtime, y: &[u8], rb_size: usize) -> Self {
        assert!(rb_size > 0);
        let parts = y.chunks(rb_size).map(|c| rt.put(c.to_vec())).collect();
        DsLabels {
            parts,
            len: y.len(),
        }
    }

    /// Number of partitions.
    pub fn n_parts(&self) -> usize {
        self.parts.len()
    }

    /// Handle of partition `i`.
    pub fn part(&self, i: usize) -> Handle<Vec<u8>> {
        self.parts[i]
    }

    /// Total number of labels.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no labels.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_matrix(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| (r * cols + c) as f64 * 0.5 - 3.0)
    }

    #[test]
    fn partition_collect_roundtrip() {
        let rt = Runtime::new();
        let m = demo_matrix(23, 7); // ragged blocks
        let ds = DsArray::from_matrix(&rt, &m, 5, 3);
        assert_eq!(ds.n_row_blocks(), 5);
        assert_eq!(ds.n_col_blocks(), 3);
        assert_eq!(ds.collect(&rt), m);
    }

    #[test]
    fn load_task_count_matches_grid() {
        let rt = Runtime::new();
        let m = demo_matrix(20, 20);
        let _ds = DsArray::from_matrix(&rt, &m, 5, 5);
        let hist = rt.trace().task_histogram();
        assert_eq!(hist["ds_load"], 16);
    }

    #[test]
    fn row_band_equals_slice() {
        let rt = Runtime::new();
        let m = demo_matrix(10, 6);
        let ds = DsArray::from_matrix(&rt, &m, 4, 2);
        let band = ds.row_band(&rt, 1);
        assert_eq!(*rt.peek(band), m.slice_rows(4, 8));
        // Last ragged band.
        let band = ds.row_band(&rt, 2);
        assert_eq!(*rt.peek(band), m.slice_rows(8, 10));
    }

    #[test]
    fn gram_matches_dense() {
        let rt = Runtime::new();
        let m = demo_matrix(12, 5);
        let ds = DsArray::from_matrix(&rt, &m, 5, 2);
        let g = ds.gram(&rt);
        let expect = m.t_matmul(&m);
        assert!(rt.peek(g).max_abs_diff(&expect) < 1e-9);
    }

    #[test]
    fn col_sums_match_dense() {
        let rt = Runtime::new();
        let m = demo_matrix(9, 4);
        let ds = DsArray::from_matrix(&rt, &m, 2, 3);
        let s = ds.col_sums(&rt);
        let expect: Vec<f64> = (0..4).map(|c| m.col(c).iter().sum()).collect();
        let got = rt.peek(s);
        for (a, b) in got.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn matmul_dense_matches() {
        let rt = Runtime::new();
        let m = demo_matrix(8, 4);
        let w = Matrix::from_fn(4, 2, |r, c| (r + c) as f64);
        let ds = DsArray::from_matrix(&rt, &m, 3, 4);
        let wh = rt.put(w.clone());
        let prod = ds.matmul_dense(&rt, wh);
        assert_eq!(prod.shape(), (8, 2));
        assert!(prod.collect(&rt).max_abs_diff(&m.matmul(&w)) < 1e-9);
    }

    #[test]
    fn center_and_scale() {
        let rt = Runtime::new();
        let m = demo_matrix(6, 3);
        let ds = DsArray::from_matrix(&rt, &m, 2, 2);
        let means = rt.put(m.col_means());
        let centered = ds.sub_row_vector(&rt, means);
        let cm = centered.collect(&rt);
        for c in 0..3 {
            let mean: f64 = cm.col(c).iter().sum::<f64>() / 6.0;
            assert!(mean.abs() < 1e-9);
        }
        let stds = rt.put(cm.col_stds(&cm.col_means()));
        let scaled = centered.div_row_vector_inplace(&rt, stds);
        let sm = scaled.collect(&rt);
        for c in 0..3 {
            let col = sm.col(c);
            let mean: f64 = col.iter().sum::<f64>() / 6.0;
            let var: f64 = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / 6.0;
            assert!((var - 1.0).abs() < 1e-9, "var={var}");
        }
    }

    #[test]
    fn map_blocks_applies_everywhere() {
        let rt = Runtime::new();
        let m = demo_matrix(6, 6);
        let ds = DsArray::from_matrix(&rt, &m, 2, 2);
        let doubled = ds.map_blocks(&rt, "dbl", |b| {
            let mut out = b.clone();
            out.scale(2.0);
            out
        });
        let mut expect = m.clone();
        expect.scale(2.0);
        assert_eq!(doubled.collect(&rt), expect);
    }

    #[test]
    fn tree_reduce_sums_and_task_count() {
        let rt = Runtime::new();
        let items: Vec<Handle<f64>> = (1..=9).map(|i| rt.put(i as f64)).collect();
        let total = tree_reduce(&rt, "add", &items, |a, b| a + b);
        assert_eq!(*rt.peek(total), 45.0);
        assert_eq!(rt.trace().task_histogram()["add"], 8); // n-1 tasks
    }

    #[test]
    fn tree_reduce_single_item_is_noop() {
        let rt = Runtime::new();
        let one = rt.put(5.0f64);
        let r = tree_reduce(&rt, "add", &[one], |a, b| a + b);
        assert_eq!(*rt.peek(r), 5.0);
        assert_eq!(rt.task_count(), 0);
    }

    #[test]
    fn labels_partition_alignment() {
        let rt = Runtime::new();
        let y: Vec<u8> = (0..11).map(|i| (i % 2) as u8).collect();
        let dl = DsLabels::from_slice(&rt, &y, 4);
        assert_eq!(dl.n_parts(), 3);
        assert_eq!(dl.len(), 11);
        assert_eq!(*rt.peek(dl.part(1)), vec![0, 1, 0, 1]);
    }

    #[test]
    fn collect_round_trips_a_ragged_block_grid() {
        // 3x2 blocks over 10x4: four row bands, the last one row tall.
        let rt = Runtime::new();
        let m = demo_matrix(10, 4);
        let ds = DsArray::from_matrix(&rt, &m, 3, 2);
        assert_eq!(ds.collect(&rt), m);
    }

    #[test]
    fn rows_in_band_ragged() {
        let rt = Runtime::new();
        let m = demo_matrix(10, 2);
        let ds = DsArray::from_matrix(&rt, &m, 4, 2);
        assert_eq!(ds.rows_in_band(0), 4);
        assert_eq!(ds.rows_in_band(2), 2);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn from_matrix_rejects_empty() {
        let rt = Runtime::new();
        let _ = DsArray::from_matrix(&rt, &Matrix::zeros(0, 0), 2, 2);
    }

    #[test]
    fn from_matrix_owned_matches_from_matrix() {
        let rt = Runtime::new();
        let m = demo_matrix(23, 7);
        let a = DsArray::from_matrix(&rt, &m, 5, 3);
        let b = DsArray::from_matrix_owned(&rt, m.clone(), 5, 3);
        assert_eq!(a.shape(), b.shape());
        assert_eq!(a.n_row_blocks(), b.n_row_blocks());
        for rb in 0..a.n_row_blocks() {
            for cb in 0..a.n_col_blocks() {
                assert_eq!(*rt.peek(a.block(rb, cb)), *rt.peek(b.block(rb, cb)));
            }
        }
        assert_eq!(b.collect(&rt), m);
        // Driver-side partitioning submits no ds_load tasks.
        let hist = rt.trace().task_histogram();
        assert_eq!(hist["ds_load"], 15); // only from_matrix's 5x3 grid
    }

    #[test]
    fn tree_reduce_inout_matches_and_steals() {
        let rt = Runtime::new();
        let items: Vec<Handle<f64>> = (1..=9).map(|i| rt.put(i as f64)).collect();
        let total = tree_reduce_inout(&rt, "add", &items, |a, b| *a += b);
        assert_eq!(*rt.peek(total), 45.0);
        assert_eq!(rt.trace().task_histogram()["add"], 8);
        // Interior accumulators are single-consumer, so the cascade's
        // non-leaf merges all steal.
        assert!(rt.stats().inout_steals > 0);
    }

    /// `m` with `x - mean[c]`, then `x / std[c]` (constant columns
    /// kept), then `f`, applied to every element on the driver: the
    /// reference the block-wise ops must match bit for bit.
    fn dense_center_scale(m: &Matrix, mean: &[f64], std: &[f64], f: fn(f64) -> f64) -> Matrix {
        Matrix::from_fn(m.rows(), m.cols(), |r, c| {
            let mut x = m.row(r)[c];
            center(&mut x, mean[c]);
            unit_scale(&mut x, std[c]);
            f(x)
        })
    }

    #[test]
    fn inplace_ops_match_clone_based() {
        let rt = Runtime::new();
        let m = demo_matrix(11, 5);
        let (mean, std) = (m.col_means(), m.col_stds(&m.col_means()));
        let reference = dense_center_scale(&m, &mean, &std, |x| 2.0 * x);
        let (means, stds) = (rt.put(mean), rt.put(std));

        let inplace = DsArray::from_matrix_owned(&rt, m, 4, 2)
            .sub_row_vector(&rt, means)
            .div_row_vector_inplace(&rt, stds)
            .map_blocks(&rt, "dbl", |b| {
                let mut out = b.clone();
                out.scale(2.0);
                out
            })
            .collect(&rt);

        assert_eq!(inplace, reference);
    }

    #[test]
    fn inplace_pipeline_steals_every_block_version() {
        // from_matrix_owned blocks have no other consumer, so a chain
        // of in-place ops should steal at every link.
        let rt = Runtime::new();
        let m = demo_matrix(12, 6);
        let v = rt.put(vec![2.0; 6]);
        let w = rt.put(vec![0.5; 6]);
        let ds = DsArray::from_matrix_owned(&rt, m.clone(), 4, 3)
            .div_row_vector_inplace(&rt, v)
            .div_row_vector_inplace(&rt, w);
        // Halved, then doubled: exact in binary.
        assert_eq!(ds.collect(&rt), m);
        let st = rt.stats();
        assert_eq!(st.inout_copies, 0, "single-consumer chain must not copy");
        assert_eq!(st.inout_steals, 12); // 6 blocks x 2 in-place ops
        assert!(st.inout_steal_rate() > 0.99);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Random chains of ds-array ops, INOUT and clone-based, on any
        /// block grid: the same bits as the ops applied to the dense
        /// matrix on the driver.
        #[test]
        fn prop_inplace_chain_matches_clone_chain(
            rows in 1usize..18,
            cols in 1usize..9,
            rb in 1usize..6,
            cb in 1usize..4,
            ops in proptest::collection::vec(0u8..4, 1..6),
        ) {
            let rt = Runtime::new();
            let mut m = Matrix::from_fn(rows, cols, |r, c| ((r * 13 + c * 7) as f64 * 0.31).sin());
            let vs: Vec<f64> = (0..cols).map(|c| 0.5 + c as f64).collect();
            let zeros = vec![0.0; cols];
            let ones = vec![1.0; cols];
            let v = rt.put(vs.clone());

            let mut a = DsArray::from_matrix_owned(&rt, m.clone(), rb, cb);
            for &op in &ops {
                let f: fn(f64) -> f64 = match op {
                    0 => |x| x * 1.25,
                    3 => |x| x * x,
                    _ => |x| x,
                };
                match op {
                    1 => {
                        a = a.sub_row_vector(&rt, v);
                        m = dense_center_scale(&m, &vs, &ones, f);
                    }
                    2 => {
                        a = a.div_row_vector_inplace(&rt, v);
                        m = dense_center_scale(&m, &zeros, &vs, f);
                    }
                    _ => {
                        a = a.map_blocks(&rt, "elementwise", move |x| {
                            let mut o = x.clone();
                            for val in o.as_mut_slice() {
                                *val = f(*val);
                            }
                            o
                        });
                        m = dense_center_scale(&m, &zeros, &ones, f);
                    }
                }
            }
            proptest::prop_assert_eq!(a.collect(&rt), m);
        }
    }
}
