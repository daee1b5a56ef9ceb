//! Kernel profiles and the calibrated roofline cost model.

use crate::device::DeviceSpec;

/// Access-pattern class of a kernel launch.
///
/// The class selects which efficiency curve the [`CostModel`] applies: GEMMs
/// run on tensor cores with shape-dependent utilization, while elementwise
/// kernels stream memory at a fraction of peak bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelClass {
    /// Dense tensor-core GEMM with logical shape `m x k x n`.
    Gemm {
        /// Rows of the output (token dimension for activations).
        m: u64,
        /// Contraction dimension.
        k: u64,
        /// Columns of the output.
        n: u64,
    },
    /// A GEMM whose prologue/epilogue also performs fused memory-bound work
    /// (e.g. `XW` accumulating `alpha * S B`, or dropout fused into the
    /// down-projection). Slightly lower compute efficiency than a bare GEMM
    /// because the epilogue occupies registers (Section 5.1).
    FusedGemm {
        /// Rows of the output.
        m: u64,
        /// Contraction dimension.
        k: u64,
        /// Columns of the output.
        n: u64,
        /// Number of distinct adapters routed at tile level (1 for
        /// FusedLoRA; >1 models FusedMultiLoRA's lookup-table routing).
        adapters: u32,
    },
    /// Streaming elementwise kernel touching `tensors` operands.
    Elementwise {
        /// Number of distinct full-size tensors read or written.
        tensors: u32,
    },
    /// Reduction kernel (loss, gradient norms).
    Reduction,
}

/// FLOPs and DRAM traffic of one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Stable kernel name used by breakdowns and ledgers.
    pub name: String,
    /// Access-pattern class.
    pub class: KernelClass,
    /// Floating point operations performed.
    pub flops: f64,
    /// Bytes read from DRAM.
    pub bytes_read: u64,
    /// Bytes written to DRAM.
    pub bytes_written: u64,
}

impl KernelProfile {
    /// Total DRAM traffic in bytes.
    #[inline]
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Arithmetic intensity in FLOPs per DRAM byte.
    pub fn arithmetic_intensity(&self) -> f64 {
        crate::roofline::arithmetic_intensity(self.flops, self.bytes_total())
    }
}

/// What limited a kernel's execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundedness {
    /// Tensor-core throughput bound.
    Compute,
    /// DRAM bandwidth bound.
    Memory,
    /// Dominated by fixed launch overhead.
    Launch,
}

/// Cost estimate for one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCost {
    /// Wall-clock seconds including launch overhead.
    pub seconds: f64,
    /// Limiting resource.
    pub bound: Boundedness,
}

/// Calibration knobs of the roofline model.
///
/// Defaults are calibrated so the reproduction matches the paper's measured
/// shapes: ~40%/36% LoRA fwd/bwd slowdown at n=k=4096 (Fig. 3), ~2.6x DRAM
/// traffic (Section 3.1), and 1.2-1.4x fused-kernel speedups (Fig. 17).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Peak fraction a well-tiled large GEMM achieves on tensor cores.
    pub gemm_base_efficiency: f64,
    /// Half-saturation constant for the token dimension `m`.
    pub gemm_m_half: f64,
    /// Half-saturation constant for the `k` and `n` dimensions.
    pub gemm_kn_half: f64,
    /// Fraction of peak DRAM bandwidth achieved by GEMM streaming.
    pub gemm_mem_efficiency: f64,
    /// Fraction of peak DRAM bandwidth achieved by elementwise kernels.
    pub elementwise_mem_efficiency: f64,
    /// Compute-efficiency multiplier applied to fused-epilogue GEMMs.
    pub fused_epilogue_penalty: f64,
    /// Additional multiplicative time overhead per extra adapter routed at
    /// tile level by FusedMultiLoRA (gradient accumulation and lookup).
    pub multi_adapter_overhead: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            gemm_base_efficiency: 0.80,
            gemm_m_half: 384.0,
            gemm_kn_half: 96.0,
            gemm_mem_efficiency: 0.85,
            elementwise_mem_efficiency: 0.72,
            fused_epilogue_penalty: 0.95,
            multi_adapter_overhead: 0.035,
        }
    }
}

impl CostModel {
    /// Shape-dependent tensor-core efficiency of a GEMM.
    ///
    /// Small dimensions under-fill tiles and waves; the saturating curves
    /// reproduce the paper's observation that tiny-rank GEMMs cannot reach
    /// peak compute (they are memory-bound anyway) and that fused kernels
    /// perform best "when the sequence length is regular and matches the
    /// performant sequence length" (Section 6.6).
    pub fn gemm_efficiency(&self, m: u64, k: u64, n: u64) -> f64 {
        let sat = |d: f64, half: f64| d / (d + half);
        self.gemm_base_efficiency
            * sat(m as f64, self.gemm_m_half)
            * sat(k as f64, self.gemm_kn_half)
            * sat(n as f64, self.gemm_kn_half)
    }

    /// Estimates the cost of one kernel launch on `device`.
    pub fn kernel_cost(&self, device: &DeviceSpec, profile: &KernelProfile) -> KernelCost {
        let (compute_eff, mem_eff, extra) = match profile.class {
            KernelClass::Gemm { m, k, n } => {
                (self.gemm_efficiency(m, k, n), self.gemm_mem_efficiency, 1.0)
            }
            KernelClass::FusedGemm { m, k, n, adapters } => {
                let extra = 1.0 + self.multi_adapter_overhead * adapters.saturating_sub(1) as f64;
                (
                    self.gemm_efficiency(m, k, n) * self.fused_epilogue_penalty,
                    self.gemm_mem_efficiency,
                    extra,
                )
            }
            KernelClass::Elementwise { .. } | KernelClass::Reduction => (
                self.gemm_base_efficiency,
                self.elementwise_mem_efficiency,
                1.0,
            ),
        };
        let t_compute = if profile.flops > 0.0 {
            profile.flops / (device.peak_flops() * compute_eff.max(1e-6))
        } else {
            0.0
        };
        let t_memory = profile.bytes_total() as f64 / (device.bandwidth_bytes() * mem_eff);
        let body = t_compute.max(t_memory) * extra;
        let launch = device.launch_overhead_s();
        let bound = if launch > body {
            Boundedness::Launch
        } else if t_compute >= t_memory {
            Boundedness::Compute
        } else {
            Boundedness::Memory
        };
        KernelCost {
            seconds: body + launch,
            bound,
        }
    }

    /// Total time of a sequence of kernels executed back-to-back on one
    /// stream.
    pub fn sequence_seconds(&self, device: &DeviceSpec, kernels: &[KernelProfile]) -> f64 {
        kernels
            .iter()
            .map(|k| self.kernel_cost(device, k).seconds)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceKind;

    fn h100() -> DeviceSpec {
        DeviceKind::H100Sxm.spec()
    }

    fn gemm_profile(m: u64, k: u64, n: u64) -> KernelProfile {
        let e = 2u64; // Half precision.
        KernelProfile {
            name: "gemm".into(),
            class: KernelClass::Gemm { m, k, n },
            flops: 2.0 * m as f64 * k as f64 * n as f64,
            bytes_read: (m * k + k * n) * e,
            bytes_written: m * n * e,
        }
    }

    #[test]
    fn large_gemm_is_compute_bound() {
        let cost = CostModel::default().kernel_cost(&h100(), &gemm_profile(8192, 4096, 4096));
        assert_eq!(cost.bound, Boundedness::Compute);
        // Roughly (2*8192*4096*4096) / (989e12 * ~0.7) ~ 0.4-0.6 ms.
        assert!(
            cost.seconds > 2e-4 && cost.seconds < 1e-3,
            "cost {}",
            cost.seconds
        );
    }

    #[test]
    fn low_rank_gemm_is_memory_bound() {
        // The LoRA down-projection (rank 16) from Section 3.1.
        let cost = CostModel::default().kernel_cost(&h100(), &gemm_profile(8192, 4096, 16));
        assert_eq!(cost.bound, Boundedness::Memory);
    }

    #[test]
    fn tiny_kernel_is_launch_bound() {
        let profile = KernelProfile {
            name: "tiny".into(),
            class: KernelClass::Elementwise { tensors: 2 },
            flops: 64.0,
            bytes_read: 256,
            bytes_written: 256,
        };
        let cost = CostModel::default().kernel_cost(&h100(), &profile);
        assert_eq!(cost.bound, Boundedness::Launch);
    }

    #[test]
    fn efficiency_grows_with_shape() {
        let model = CostModel::default();
        assert!(model.gemm_efficiency(8192, 4096, 4096) > model.gemm_efficiency(512, 4096, 4096));
        assert!(model.gemm_efficiency(8192, 4096, 4096) > model.gemm_efficiency(8192, 4096, 16));
        assert!(model.gemm_efficiency(8192, 4096, 4096) < model.gemm_base_efficiency);
    }

    #[test]
    fn multi_adapter_routing_costs_more() {
        let model = CostModel::default();
        let single = KernelProfile {
            name: "fused".into(),
            class: KernelClass::FusedGemm {
                m: 8192,
                k: 4096,
                n: 4096,
                adapters: 1,
            },
            flops: 2.0 * 8192.0 * 4096.0 * 4096.0,
            bytes_read: (8192 * 4096 + 4096 * 4096) * 2,
            bytes_written: 8192 * 4096 * 2,
        };
        let mut multi = single.clone();
        multi.class = KernelClass::FusedGemm {
            m: 8192,
            k: 4096,
            n: 4096,
            adapters: 4,
        };
        let t1 = model.kernel_cost(&h100(), &single).seconds;
        let t4 = model.kernel_cost(&h100(), &multi).seconds;
        assert!(t4 > t1, "multi-adapter routing must add overhead");
        assert!(t4 < t1 * 1.25, "routing overhead must stay small (Fig. 17)");
    }

    #[test]
    fn sequence_is_sum_of_kernels() {
        let model = CostModel::default();
        let dev = h100();
        let a = gemm_profile(1024, 1024, 1024);
        let b = gemm_profile(2048, 1024, 1024);
        let total = model.sequence_seconds(&dev, &[a.clone(), b.clone()]);
        let expect = model.kernel_cost(&dev, &a).seconds + model.kernel_cost(&dev, &b).seconds;
        assert!((total - expect).abs() < 1e-12);
    }
}
