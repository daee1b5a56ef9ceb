//! FusedLoRA — the split-graph fusion design (Fig. 10), as a kernel
//! lowering.
//!
//! The graph is split exactly at the rank-`r` intermediate `S = X̂ A`,
//! which is cheap to materialize. Around that split point every
//! memory-bound operation is fused into the GEMM that already streams the
//! same full-size activation, using the prologue/epilogue hooks of
//! [`lorafusion_tensor::matmul::gemm_fused`]:
//!
//! * **K1** (`fused_lora_fwd_dropout_down`) — dropout runs inside the
//!   down-projection's `A`-panel packing: `X` is read *once* and both `X̂`
//!   (streamed out of the pack via `Prologue::emit`, kept for the backward
//!   `dA`, Fig. 10's op 4) and the tiny `S` are produced by the same GEMM.
//!   There is no standalone dropout kernel and no mask tensor — the mask is
//!   counter-based and regenerated analytically wherever it is needed.
//! * **K2** (`fused_lora_fwd_base_epilogue`) — the compute-bound base GEMM
//!   `X W`, then the LoRA term `alpha * S B` accumulated by the
//!   `Epilogue::AddScaled` tile store while each output tile is still in
//!   registers. No separate scale kernel, no separate add kernel.
//! * **K3** (`fused_lora_bwd_ds_db`) — `dS = alpha * dY Bᵀ` and
//!   `dB = alpha * Sᵀ dY` with `alpha` folded into the
//!   `Epilogue::Scaled` store of each GEMM.
//! * **K4** (`fused_lora_bwd_da`) — `dA = X̂ᵀ dS`, reading the stored `X̂`
//!   (Fig. 10's op 4: only the small `dS` plus one pass over `X̂`).
//! * **K5** (`fused_lora_bwd_dx_epilogue`) — the compute-bound `dY Wᵀ`,
//!   then the mask-routed `dS Aᵀ` contribution accumulated by
//!   `Epilogue::AddMasked`, which regenerates the dropout mask from the
//!   counter-based spec inside the tile store. No dropout-backward kernel,
//!   no accumulation kernel, no materialized mask.
//!
//! The functional K1..K5 step is
//! [`ContractionPlan::DEFAULT`](crate::contraction::ContractionPlan::DEFAULT)
//! run by [`crate::contraction::PlannedWorkspace`]; this module holds the
//! FLOP/byte lowering that the roofline cost model prices.

use lorafusion_gpu::{KernelClass, KernelProfile};

use crate::lora::Shape;
use crate::traffic::TrafficModel;

/// Kernel lowering of the fused forward pass (profiles only).
pub fn forward_profiles(shape: Shape, t: &TrafficModel) -> Vec<KernelProfile> {
    let Shape { m, k, n, r } = shape;
    let (mf, kf, nf, rf) = (m as f64, k as f64, n as f64, r as f64);
    vec![
        KernelProfile {
            name: "fused_lora_fwd_dropout_down".into(),
            class: KernelClass::FusedGemm {
                m: m as u64,
                k: k as u64,
                n: r as u64,
                adapters: 1,
            },
            flops: 2.0 * mf * kf * rf + mf * kf,
            bytes_read: t.read_cold(m * k) + t.read_cold(k * r),
            bytes_written: t.write(m * r) + t.write(m * k) + t.write_mask(m * k),
        },
        KernelProfile {
            name: "fused_lora_fwd_base_epilogue".into(),
            class: KernelClass::FusedGemm {
                m: m as u64,
                k: k as u64,
                n: n as u64,
                adapters: 1,
            },
            flops: 2.0 * mf * kf * nf + 2.0 * mf * rf * nf + mf * nf,
            // K1's working set evicted `X` from L2: the GEMM reads it cold.
            bytes_read: t.read_gemm_input(m * k, n)
                + t.read_gemm_input(k * n, n)
                + t.read_hot(m * r)
                + t.read_cold(r * n),
            bytes_written: t.write(m * n),
        },
    ]
}

/// Kernel lowering of the fused backward pass (profiles only).
pub fn backward_profiles(shape: Shape, t: &TrafficModel) -> Vec<KernelProfile> {
    let Shape { m, k, n, r } = shape;
    let (mf, kf, nf, rf) = (m as f64, k as f64, n as f64, r as f64);
    vec![
        KernelProfile {
            name: "fused_lora_bwd_ds_db".into(),
            class: KernelClass::FusedGemm {
                m: m as u64,
                k: n as u64,
                n: r as u64,
                adapters: 1,
            },
            flops: 4.0 * mf * nf * rf,
            bytes_read: t.read_cold(m * n) + t.read_cold(r * n) + t.read_cold(m * r),
            bytes_written: t.write(m * r) + t.write(r * n),
        },
        KernelProfile {
            name: "fused_lora_bwd_da".into(),
            class: KernelClass::Gemm {
                m: k as u64,
                k: m as u64,
                n: r as u64,
            },
            flops: 2.0 * mf * kf * rf,
            // Reads the stored masked input X̂ (Fig. 10's op 4).
            bytes_read: t.read_cold(m * k) + t.read_hot(m * r),
            bytes_written: t.write(k * r),
        },
        KernelProfile {
            name: "fused_lora_bwd_dx_epilogue".into(),
            class: KernelClass::FusedGemm {
                m: m as u64,
                k: n as u64,
                n: k as u64,
                adapters: 1,
            },
            flops: 2.0 * mf * kf * nf + 2.0 * mf * kf * rf + mf * kf,
            bytes_read: t.read_gemm_input(m * n, k)
                + t.read_gemm_input(k * n, k)
                + t.read_cold(m * r)
                + t.read_cold(k * r)
                + t.mask(m * k),
            bytes_written: t.write(m * k),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lorafusion_gpu::{CostModel, DeviceKind, KernelProfile};

    use crate::reference;

    fn traffic() -> TrafficModel {
        TrafficModel::for_device(&DeviceKind::H100Sxm.spec())
    }

    #[test]
    fn fused_uses_fewer_kernels_and_less_traffic() {
        let t = traffic();
        let shape = Shape::new(8192, 4096, 4096, 16);
        let fused_fwd = forward_profiles(shape, &t);
        let ref_fwd = reference::forward_profiles(shape, &t);
        assert!(fused_fwd.len() < ref_fwd.len());
        let sum = |ks: &[KernelProfile]| ks.iter().map(KernelProfile::bytes_total).sum::<u64>();
        assert!(sum(&fused_fwd) < sum(&ref_fwd));
        let fused_bwd = backward_profiles(shape, &t);
        let ref_bwd = reference::backward_profiles(shape, &t);
        assert!(fused_bwd.len() < ref_bwd.len());
        assert!(sum(&fused_bwd) < sum(&ref_bwd));
    }

    #[test]
    fn fused_is_faster_under_cost_model() {
        // Fig. 17: 1.2-1.4x module speedup on H100 shapes.
        let t = traffic();
        let dev = DeviceKind::H100Sxm.spec();
        let model = CostModel::default();
        let shape = Shape::new(8192, 4096, 4096, 16);
        let fused: Vec<_> = forward_profiles(shape, &t)
            .into_iter()
            .chain(backward_profiles(shape, &t))
            .collect();
        let unfused: Vec<_> = reference::forward_profiles(shape, &t)
            .into_iter()
            .chain(reference::backward_profiles(shape, &t))
            .collect();
        let speedup = model.sequence_seconds(&dev, &unfused) / model.sequence_seconds(&dev, &fused);
        assert!(speedup > 1.1, "fused speedup {speedup}");
        assert!(speedup < 1.6, "fused speedup {speedup} implausibly large");
    }
}
