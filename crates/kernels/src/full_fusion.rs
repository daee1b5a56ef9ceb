//! The rejected full-graph fusion designs of Fig. 9, as kernel lowerings.
//!
//! The paper considers (and rejects) fusing the *entire* LoRA forward graph
//! into one kernel. Two variants exist, both modeled here. They compute the
//! same mathematics as the split-graph design and differ from it only in
//! forward launch structure, so only their forward lowerings live here; the
//! backward pass is the split-graph one either way:
//!
//! * **Recompute** — every output N-tile recomputes its `S` tile from `X̂`
//!   and `A`, multiplying the down-projection work (and the reads of `X`
//!   and `A`) by the number of output tile columns;
//! * **Synchronize** — only the first tile column computes `S` and
//!   publishes it through global memory guarded by a semaphore; other
//!   tiles spin. This serializes the tile wave and wastes GPU cycles,
//!   modeled as a latency factor on the fused GEMM.
//!
//! The ablation bench `ablation_fusion` shows both lose to the split-graph
//! design, reproducing the argument for splitting at the rank-`r` tensor.

use lorafusion_gpu::{KernelClass, KernelProfile};

use crate::lora::Shape;
use crate::traffic::TrafficModel;

/// Output tile width used by the full-fusion estimates.
pub const TILE_N: usize = 128;

/// Relative latency penalty of cross-tile semaphore synchronization.
///
/// Welder-style measurements put inter-block synchronization overhead at
/// tens of percent for memory-bound epilogues; 1.30 is the calibrated
/// mid-point used by the ablation.
pub const SYNC_LATENCY_FACTOR: f64 = 1.30;

/// Register/shared-memory pressure penalty on the base GEMM's efficiency
/// when the whole LoRA graph shares one kernel (suboptimal tiling).
pub const TILING_PRESSURE_FACTOR: f64 = 1.12;

/// Lowering of the *recompute* variant's forward pass: one kernel.
pub fn forward_profiles_recompute(shape: Shape, t: &TrafficModel) -> Vec<KernelProfile> {
    let Shape { m, k, n, r } = shape;
    let (mf, kf, nf, rf) = (m as f64, k as f64, n as f64, r as f64);
    let tile_cols = n.div_ceil(TILE_N) as f64;
    // Every tile column recomputes S: the down-projection FLOPs and the
    // reads of X and A are multiplied by the column count.
    let flops =
        2.0 * mf * kf * nf + tile_cols * (2.0 * mf * kf * rf + mf * kf) + 2.0 * mf * rf * nf;
    let bytes_read = ((t.read_gemm_input(m * k, n) as f64) * tile_cols) as u64
        + ((t.read_cold(k * r) as f64) * tile_cols) as u64
        + t.read_gemm_input(k * n, n)
        + t.read_cold(r * n);
    vec![KernelProfile {
        name: "full_fusion_recompute_fwd".into(),
        class: KernelClass::FusedGemm {
            m: m as u64,
            k: k as u64,
            n: n as u64,
            adapters: 1,
        },
        flops: flops * TILING_PRESSURE_FACTOR,
        bytes_read,
        bytes_written: t.write(m * n) + t.write_mask(m * k),
    }]
}

/// Lowering of the *synchronize* variant's forward pass: one kernel whose
/// cost carries the semaphore-serialization penalty.
pub fn forward_profiles_sync(shape: Shape, t: &TrafficModel) -> Vec<KernelProfile> {
    let Shape { m, k, n, r } = shape;
    let (mf, kf, nf, rf) = (m as f64, k as f64, n as f64, r as f64);
    let flops = (2.0 * mf * kf * nf + 2.0 * mf * kf * rf + mf * kf + 2.0 * mf * rf * nf)
        * TILING_PRESSURE_FACTOR
        * SYNC_LATENCY_FACTOR;
    vec![KernelProfile {
        name: "full_fusion_sync_fwd".into(),
        class: KernelClass::FusedGemm {
            m: m as u64,
            k: k as u64,
            n: n as u64,
            adapters: 1,
        },
        flops,
        // S round-trips global memory once (the semaphore-published copy),
        // and the latency factor also applies to memory time via flops
        // being the dominant term on these shapes.
        bytes_read: (t.read_gemm_input(m * k, n) as f64 * SYNC_LATENCY_FACTOR) as u64
            + t.read_gemm_input(k * n, n)
            + t.read_cold(k * r)
            + t.read_cold(r * n)
            + t.read_hot(m * r),
        bytes_written: t.write(m * n) + t.write(m * r) + t.write_mask(m * k),
    }]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lorafusion_gpu::{CostModel, DeviceKind};

    use crate::fused;

    #[test]
    fn split_graph_beats_both_full_fusion_variants() {
        // Fig. 9's design argument: splitting at S dominates.
        let t = TrafficModel::for_device(&DeviceKind::H100Sxm.spec());
        let dev = DeviceKind::H100Sxm.spec();
        let model = CostModel::default();
        for m in [2048usize, 8192, 16384] {
            let shape = Shape::new(m, 4096, 4096, 16);
            let split = model.sequence_seconds(&dev, &fused::forward_profiles(shape, &t));
            let recompute = model.sequence_seconds(&dev, &forward_profiles_recompute(shape, &t));
            let sync = model.sequence_seconds(&dev, &forward_profiles_sync(shape, &t));
            assert!(
                split < recompute,
                "m={m}: split {split} vs recompute {recompute}"
            );
            assert!(split < sync, "m={m}: split {split} vs sync {sync}");
        }
    }

    #[test]
    fn recompute_grows_with_batch_size() {
        // "Becoming expensive when batch size M is large" (Section 5.1).
        let t = TrafficModel::for_device(&DeviceKind::H100Sxm.spec());
        let dev = DeviceKind::H100Sxm.spec();
        let model = CostModel::default();
        let rel_cost = |m: usize| {
            let shape = Shape::new(m, 4096, 4096, 16);
            let re = model.sequence_seconds(&dev, &forward_profiles_recompute(shape, &t));
            let split = model.sequence_seconds(&dev, &fused::forward_profiles(shape, &t));
            re / split
        };
        assert!(rel_cost(16384) >= rel_cost(1024) * 0.99);
    }
}
