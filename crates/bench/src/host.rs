//! Host provenance facts recorded in every `BENCH_*.json` row.
//!
//! The four `bench_*` gates each stamp their rows with the machine's
//! core count, the detected SIMD feature set, and the dispatch path
//! actually taken, so a committed results file documents the hardware
//! it was measured on. This helper is the single source of those
//! fields — the regression gate (`lorafusion_trace::regress`) treats
//! them as provenance and never compares them, but they must stay
//! consistently named across binaries for that skip list to hold.

use lorafusion_tensor::{pool, simd};

/// One row's worth of host provenance.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// `pool::host_parallelism()` — available cores, not configured
    /// threads.
    pub host_cores: usize,
    /// CPUID-detected feature summary (`avx512+fma`, `avx2+fma` or
    /// `none`).
    pub detected_features: String,
    /// The SIMD dispatch path actually active for this process.
    pub simd_path: String,
}

/// Sample the host facts once per run.
pub fn host_info() -> HostInfo {
    HostInfo {
        host_cores: pool::host_parallelism(),
        detected_features: simd::detected_features().to_string(),
        simd_path: simd::active_path().tag().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_info_is_populated_and_stable() {
        let a = host_info();
        let b = host_info();
        assert!(a.host_cores >= 1);
        assert!(!a.detected_features.is_empty());
        assert!(!a.simd_path.is_empty());
        assert_eq!(a.host_cores, b.host_cores);
        assert_eq!(a.detected_features, b.detected_features);
        assert_eq!(a.simd_path, b.simd_path);
    }
}
