//! PCA as a distributed [`Plan`] over registered task kinds.
//!
//! The same covariance-method pipeline as [`crate::pca`] (paper
//! §III-B4), but expressed for the multi-process executor
//! (`taskrt::dist`): row blocks are seeded as wire payloads, every task
//! is a named kind (`dpca_*`), and the map-reduce phases become
//! explicit tree reductions in the plan. The structure per phase
//! mirrors dislib exactly — per-block column sums reduced to a mean,
//! per-block centering, per-block Gram matrices reduced and scaled to
//! the covariance, one `dpca_eigh` task, per-block projection.
//!
//! Because a [`Plan`] fixes the reduction tree, the distributed run is
//! **bit-identical** to [`Plan::run_inline`] — floating-point op order
//! never depends on worker timing. That identity (not a tolerance) is
//! what `bench --bin dist --check` and CI assert.
//!
//! The map-phase kinds (`dpca_colsum`, `dpca_gram`) carry a
//! three-attempt [`RetryPolicy`] so a flaky worker body exercises the
//! same retry rule the threaded runtime uses; reductions and
//! `dpca_eigh` stay fail-fast (one attempt), with worker *death* handled by the driver's lineage
//! re-execution instead.

use linalg::{eigh_top, Matrix};
use taskrt::dist::{KindRegistry, Plan, WireValue};
use taskrt::RetryPolicy;

/// Ids of the data a PCA plan marks as driver outputs.
#[derive(Debug, Clone, Copy)]
pub struct PcaPlanOutputs {
    /// `List[Matrix components (d x k), VecF64 explained_variance]`.
    pub eig: u64,
    /// Projection `n x k` of the (centered) input onto the components.
    pub projection: u64,
}

/// Registers the `dpca_*` kinds. Driver and workers must call this on
/// the same registry-building path (process-mode workers re-execute the
/// host binary, so that holds by construction).
pub fn register_pca_kinds(reg: &mut KindRegistry) {
    reg.register_with("dpca_colsum", RetryPolicy::new(3), |ins| {
        let m = ins[0].as_matrix();
        let mut v = vec![0.0; m.cols()];
        for r in 0..m.rows() {
            for (j, &x) in m.row(r).iter().enumerate() {
                v[j] += x;
            }
        }
        Ok(WireValue::VecF64(v))
    });
    reg.register("dpca_vecadd", |ins| {
        let a = ins[0].as_vec_f64();
        let b = ins[1].as_vec_f64();
        if a.len() != b.len() {
            return Err(format!(
                "vecadd length mismatch: {} vs {}",
                a.len(),
                b.len()
            ));
        }
        Ok(WireValue::VecF64(
            a.iter().zip(b).map(|(x, y)| x + y).collect(),
        ))
    });
    reg.register("dpca_mean", |ins| {
        let sums = ins[0].as_vec_f64();
        let n = ins[1].as_u64() as f64;
        Ok(WireValue::VecF64(sums.iter().map(|s| s / n).collect()))
    });
    reg.register("dpca_center", |ins| {
        let m = ins[0].as_matrix();
        let mean = ins[1].as_vec_f64();
        let mut out = m.clone();
        for r in 0..out.rows() {
            for (j, x) in out.row_mut(r).iter_mut().enumerate() {
                *x -= mean[j];
            }
        }
        Ok(WireValue::Matrix(out))
    });
    reg.register_with("dpca_gram", RetryPolicy::new(3), |ins| {
        let m = ins[0].as_matrix();
        Ok(WireValue::Matrix(m.t_matmul(m)))
    });
    reg.register("dpca_madd", |ins| {
        let mut out = ins[0].as_matrix().clone();
        out.add_assign(ins[1].as_matrix());
        Ok(WireValue::Matrix(out))
    });
    reg.register("dpca_scale", |ins| {
        let mut g = ins[0].as_matrix().clone();
        let n = ins[1].as_u64();
        g.scale(1.0 / (n as f64 - 1.0));
        Ok(WireValue::Matrix(g))
    });
    reg.register("dpca_eigh", |ins| {
        let cov = ins[0].as_matrix();
        let k = ins[1].as_u64() as usize;
        // Descending eigenvalue order, as in `crate::pca::Pca::fit`.
        let (values, vectors) = eigh_top(cov, |all| k.clamp(1, all.len()));
        Ok(WireValue::List(vec![
            WireValue::Matrix(vectors),
            WireValue::VecF64(values),
        ]))
    });
    reg.register("dpca_project", |ins| {
        let centered = ins[0].as_matrix();
        let comp = ins[1].as_list()[0].as_matrix();
        Ok(WireValue::Matrix(centered.matmul(comp)))
    });
    reg.register("dpca_vstack", |ins| {
        let mut out = ins[0].as_matrix().clone();
        for band in &ins[1..] {
            out = out.vstack(band.as_matrix());
        }
        Ok(WireValue::Matrix(out))
    });
}

/// Pairwise tree reduction inside a plan — fixed shape, so the combine
/// order (and therefore every floating-point bit) is part of the plan.
fn tree_reduce(plan: &mut Plan, kind: &str, mut level: Vec<u64>) -> u64 {
    assert!(!level.is_empty());
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            match pair {
                [a, b] => next.push(plan.task(kind, &[*a, *b])),
                [a] => next.push(*a),
                _ => unreachable!(),
            }
        }
        level = next;
    }
    level[0]
}

/// Builds the distributed PCA plan: fit on `x` (partitioned into
/// `block_rows`-row bands) keeping `k` components, then project `x`.
pub fn pca_plan(x: &Matrix, block_rows: usize, k: usize) -> (Plan, PcaPlanOutputs) {
    let n = x.rows();
    assert!(n >= 2, "PCA needs at least two samples");
    assert!(block_rows >= 1);
    let mut plan = Plan::new();
    let n_id = plan.put(WireValue::U64(n as u64));
    let k_id = plan.put(WireValue::U64(k as u64));
    let blocks: Vec<u64> = (0..n)
        .step_by(block_rows)
        .map(|r0| {
            let r1 = (r0 + block_rows).min(n);
            plan.put(WireValue::Matrix(x.slice_rows(r0, r1)))
        })
        .collect();

    // Phase 1: column sums → mean.
    let partial_sums: Vec<u64> = blocks
        .iter()
        .map(|&b| plan.task("dpca_colsum", &[b]))
        .collect();
    let total = tree_reduce(&mut plan, "dpca_vecadd", partial_sums);
    let mean = plan.task("dpca_mean", &[total, n_id]);

    // Center each block, phase 2: Gram → covariance.
    let centered: Vec<u64> = blocks
        .iter()
        .map(|&b| plan.task("dpca_center", &[b, mean]))
        .collect();
    let grams: Vec<u64> = centered
        .iter()
        .map(|&c| plan.task("dpca_gram", &[c]))
        .collect();
    let gram = tree_reduce(&mut plan, "dpca_madd", grams);
    let cov = plan.task("dpca_scale", &[gram, n_id]);

    // Single eigendecomposition task, then per-block projection.
    let eig = plan.task("dpca_eigh", &[cov, k_id]);
    let projected: Vec<u64> = centered
        .iter()
        .map(|&c| plan.task("dpca_project", &[c, eig]))
        .collect();
    let projection = tree_reduce(&mut plan, "dpca_vstack", projected);

    plan.mark_output(eig);
    plan.mark_output(projection);
    (plan, PcaPlanOutputs { eig, projection })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pca::{Components, Pca};
    use dsarray::DsArray;
    use std::collections::BTreeMap;
    use std::sync::Arc;
    use taskrt::Runtime;

    fn data(n: usize, d: usize) -> Matrix {
        Matrix::from_fn(n, d, |r, c| ((r * 31 + c * 17) % 101) as f64 / 7.0 - 5.0)
    }

    fn registry() -> KindRegistry {
        let mut reg = KindRegistry::new();
        register_pca_kinds(&mut reg);
        reg
    }

    #[test]
    fn inline_plan_matches_threaded_pca_numerically() {
        let x = data(96, 6);
        let k = 3;
        let (plan, outs) = pca_plan(&x, 24, k);
        let reg = registry();
        let store = plan.run_inline(&reg).unwrap();
        let eig = store[&outs.eig].as_list();
        let comp = eig[0].as_matrix();
        let ev = eig[1].as_vec_f64();
        assert_eq!(comp.shape(), (6, k));
        assert_eq!(ev.len(), k);

        let rt = Runtime::new();
        let ds = DsArray::from_matrix(&rt, &x, 24, 6);
        let pca = Pca::fit(&rt, &ds, Components::Count(k));
        let t_comp = rt.peek(pca.components);
        let t_ev = rt.peek(pca.explained_variance);
        // Same math, different reduction trees: approximate agreement
        // (up to eigenvector sign).
        for c in 0..k {
            assert!((ev[c] - t_ev[c]).abs() <= 1e-9 * t_ev[c].abs().max(1.0));
            let sign = if comp.get(0, c) * t_comp.get(0, c) < 0.0 {
                -1.0
            } else {
                1.0
            };
            for r in 0..6 {
                assert!(
                    (comp.get(r, c) - sign * t_comp.get(r, c)).abs() < 1e-8,
                    "component {c} row {r} diverged"
                );
            }
        }
        let proj = store[&outs.projection].as_matrix();
        assert_eq!(proj.shape(), (96, k));
    }

    #[test]
    fn distributed_run_is_bit_identical_to_inline() {
        use taskrt::dist::{fingerprint, DistConfig, DistRuntime};
        let x = data(64, 5);
        let (plan, _) = pca_plan(&x, 16, 2);
        let reg = Arc::new(registry());
        let inline: BTreeMap<_, _> = plan.run_inline(&reg).unwrap();
        let mut rt = DistRuntime::launch_threads(DistConfig::with_workers(3), &reg).unwrap();
        let report = rt.run(&plan, &reg).unwrap();
        assert_eq!(
            fingerprint(&report.outputs),
            fingerprint(&inline),
            "distributed PCA must match the inline oracle bit for bit"
        );
        assert_eq!(report.trace.records.len(), plan.len());
        let shutdown = rt.shutdown();
        assert_eq!(shutdown.workers_reaped, 3);
        assert!(shutdown.sock_dir_removed);
    }
}
