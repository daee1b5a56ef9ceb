//! Device specifications for the GPUs referenced by the paper.

/// Element data types used by the performance model.
///
/// The functional executors compute in `f32` for auditability, but the
/// performance model accounts traffic at the training precision the paper
/// uses (half precision activations/weights, full-precision optimizer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 8-bit float (used only to model compact dropout-mask storage).
    F8,
    /// IEEE half precision.
    F16,
    /// bfloat16.
    BF16,
    /// IEEE single precision.
    F32,
}

impl DType {
    /// Size of one element in bytes.
    #[inline]
    pub const fn bytes(self) -> u64 {
        match self {
            DType::F8 => 1,
            DType::F16 | DType::BF16 => 2,
            DType::F32 => 4,
        }
    }
}

/// The GPU models with calibrated specs in this reproduction.
///
/// These are the devices the paper evaluates on (H100, L40S) plus the ones
/// the artifact ships pre-tuned kernel configs for (A100 SXM/PCIe, RTX3090).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// NVIDIA H100 SXM 80GB (NVLink).
    H100Sxm,
    /// NVIDIA L40S 48GB (PCIe).
    L40S,
    /// NVIDIA A100 SXM4 80GB.
    A100Sxm,
    /// NVIDIA A100 PCIe 80GB.
    A100Pcie,
    /// NVIDIA GeForce RTX 3090 24GB.
    Rtx3090,
}

impl DeviceKind {
    /// All known device kinds.
    pub const ALL: [DeviceKind; 5] = [
        DeviceKind::H100Sxm,
        DeviceKind::L40S,
        DeviceKind::A100Sxm,
        DeviceKind::A100Pcie,
        DeviceKind::Rtx3090,
    ];

    /// Returns the calibrated spec for this device kind.
    pub fn spec(self) -> DeviceSpec {
        match self {
            DeviceKind::H100Sxm => DeviceSpec {
                name: "NVIDIA H100 80GB HBM3",
                kind: self,
                peak_half_tflops: 989.4,
                mem_bandwidth_gbs: 3350.0,
                memory_gib: 80.0,
                sm_count: 132,
                l2_cache_mib: 50.0,
                launch_overhead_us: 3.0,
            },
            DeviceKind::L40S => DeviceSpec {
                name: "NVIDIA L40S 48GB",
                kind: self,
                peak_half_tflops: 362.1,
                mem_bandwidth_gbs: 864.0,
                memory_gib: 48.0,
                sm_count: 142,
                l2_cache_mib: 96.0,
                launch_overhead_us: 3.0,
            },
            DeviceKind::A100Sxm => DeviceSpec {
                name: "NVIDIA A100 SXM4 80GB",
                kind: self,
                peak_half_tflops: 312.0,
                mem_bandwidth_gbs: 2039.0,
                memory_gib: 80.0,
                sm_count: 108,
                l2_cache_mib: 40.0,
                launch_overhead_us: 3.5,
            },
            DeviceKind::A100Pcie => DeviceSpec {
                name: "NVIDIA A100 PCIe 80GB",
                kind: self,
                peak_half_tflops: 312.0,
                mem_bandwidth_gbs: 1935.0,
                memory_gib: 80.0,
                sm_count: 108,
                l2_cache_mib: 40.0,
                launch_overhead_us: 3.5,
            },
            DeviceKind::Rtx3090 => DeviceSpec {
                name: "NVIDIA GeForce RTX 3090",
                kind: self,
                peak_half_tflops: 71.0,
                mem_bandwidth_gbs: 936.0,
                memory_gib: 24.0,
                sm_count: 82,
                l2_cache_mib: 6.0,
                launch_overhead_us: 4.0,
            },
        }
    }
}

/// Calibrated hardware parameters of one GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, matching the artifact's tuning-config keys.
    pub name: &'static str,
    /// Device kind.
    pub kind: DeviceKind,
    /// Dense (no sparsity) FP16/BF16 tensor-core peak in TFLOP/s.
    pub peak_half_tflops: f64,
    /// DRAM bandwidth in GB/s.
    pub mem_bandwidth_gbs: f64,
    /// DRAM capacity in GiB.
    pub memory_gib: f64,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// L2 cache size in MiB.
    pub l2_cache_mib: f64,
    /// Fixed per-kernel launch/driver overhead in microseconds.
    pub launch_overhead_us: f64,
}

impl DeviceSpec {
    /// Peak half-precision throughput in FLOP/s.
    #[inline]
    pub fn peak_flops(&self) -> f64 {
        self.peak_half_tflops * 1e12
    }

    /// DRAM bandwidth in bytes/s.
    #[inline]
    pub fn bandwidth_bytes(&self) -> f64 {
        self.mem_bandwidth_gbs * 1e9
    }

    /// DRAM capacity in bytes.
    #[inline]
    pub fn memory_bytes(&self) -> u64 {
        (self.memory_gib * 1024.0 * 1024.0 * 1024.0) as u64
    }

    /// Launch overhead in seconds.
    #[inline]
    pub fn launch_overhead_s(&self) -> f64 {
        self.launch_overhead_us * 1e-6
    }

    /// Machine balance in FLOPs per byte (see Eq. 2 of the paper).
    #[inline]
    pub fn machine_balance(&self) -> f64 {
        self.peak_flops() / self.bandwidth_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h100_machine_balance_matches_paper() {
        // Section 3.1: machine balance "~295 for FP16 on NVIDIA H100 GPUs".
        let balance = DeviceKind::H100Sxm.spec().machine_balance();
        assert!((balance - 295.0).abs() < 5.0, "H100 balance {balance}");
    }

    #[test]
    fn specs_are_positive_and_ordered() {
        for kind in DeviceKind::ALL {
            let spec = kind.spec();
            assert!(spec.peak_half_tflops > 0.0);
            assert!(spec.mem_bandwidth_gbs > 0.0);
            assert!(spec.memory_gib > 0.0);
        }
        // H100 must dominate L40S on both axes (paper's Fig. 15 discussion).
        let h100 = DeviceKind::H100Sxm.spec();
        let l40s = DeviceKind::L40S.spec();
        assert!(h100.peak_half_tflops > l40s.peak_half_tflops);
        assert!(h100.mem_bandwidth_gbs > l40s.mem_bandwidth_gbs);
    }

    #[test]
    fn dtype_sizes() {
        assert_eq!(DType::F16.bytes(), 2);
        assert_eq!(DType::BF16.bytes(), 2);
        assert_eq!(DType::F32.bytes(), 4);
        assert_eq!(DType::F8.bytes(), 1);
    }

    #[test]
    fn memory_capacity_in_bytes() {
        let h100 = DeviceKind::H100Sxm.spec();
        assert_eq!(h100.memory_bytes(), 80 * 1024 * 1024 * 1024);
    }
}
