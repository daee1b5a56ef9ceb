//! Hardware-trend ablation (Section 6.4, "Performance Insights Across
//! Diverse Hardware"): the fused kernels' advantage as a function of the
//! machine balance (compute FLOPS growing faster than memory bandwidth).

use lorafusion_bench::{fmt, print_table, write_json};
use lorafusion_gpu::{CostModel, DeviceKind, DeviceSpec};
use lorafusion_kernels::{fused, reference, Shape, TrafficModel};

struct Row {
    device: String,
    machine_balance: f64,
    fused_speedup: f64,
}
lorafusion_trace::impl_to_json!(Row {
    device,
    machine_balance,
    fused_speedup
});

fn module_speedup(dev: &DeviceSpec) -> f64 {
    let cost = CostModel::default();
    let t = TrafficModel::for_device(dev);
    let shape = Shape::new(8192, 4096, 4096, 16);
    let torch = cost.sequence_seconds(dev, &reference::forward_profiles(shape, &t))
        + cost.sequence_seconds(dev, &reference::backward_profiles(shape, &t));
    let fused_t = cost.sequence_seconds(dev, &fused::forward_profiles(shape, &t))
        + cost.sequence_seconds(dev, &fused::backward_profiles(shape, &t));
    torch / fused_t
}

fn main() {
    let _report = lorafusion_bench::report::init_guard("ablation_hardware");

    let mut rows = Vec::new();
    let mut out = Vec::new();

    // Real devices first.
    for kind in DeviceKind::ALL {
        let dev = kind.spec();
        let row = Row {
            device: dev.name.to_string(),
            machine_balance: dev.machine_balance(),
            fused_speedup: module_speedup(&dev),
        };
        rows.push(vec![
            row.device.clone(),
            fmt(row.machine_balance, 0),
            fmt(row.fused_speedup, 2),
        ]);
        out.push(row);
    }

    // Hypothetical future accelerators: H100 compute grows, bandwidth
    // lags (the "memory wall" trend the paper cites).
    for factor in [1.5f64, 2.0, 3.0] {
        let mut dev = DeviceKind::H100Sxm.spec();
        dev.peak_half_tflops *= factor;
        dev.mem_bandwidth_gbs *= factor.sqrt();
        let row = Row {
            device: format!("future ({factor:.1}x FLOPS, {:.2}x BW)", factor.sqrt()),
            machine_balance: dev.machine_balance(),
            fused_speedup: module_speedup(&dev),
        };
        rows.push(vec![
            row.device.clone(),
            fmt(row.machine_balance, 0),
            fmt(row.fused_speedup, 2),
        ]);
        out.push(row);
    }

    print_table(
        "Ablation — fused-kernel advantage vs. machine balance (m=8192, k=n=4096, r=16)",
        &["device", "balance (FLOP/B)", "FusedLoRA module speedup"],
        &rows,
    );
    println!("\nSection 6.4's claim: as accelerators raise compute faster than memory");
    println!("bandwidth, the benefit of removing redundant DRAM traffic grows.");
    let first = out.first().map(|r| r.fused_speedup).unwrap_or(1.0);
    let last = out.last().map(|r| r.fused_speedup).unwrap_or(1.0);
    assert!(last > first, "speedup must grow with machine balance");
    write_json("ablation_hardware", &out);
}
