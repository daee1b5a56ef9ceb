//! Figure 4: runtime breakdown of a Torch-LoRA linear module
//! (n=k=4096, r=16, tokens=8192) into base GEMM, LoRA GEMMs and
//! elementwise operations.

use lorafusion_bench::{fmt, print_table, write_json};
use lorafusion_gpu::{CostModel, DeviceKind, KernelProfile};
use lorafusion_kernels::{reference, Shape, TrafficModel};

struct Breakdown {
    pass: &'static str,
    base_gemm_pct: f64,
    lora_gemm_pct: f64,
    elementwise_pct: f64,
    total_ms: f64,
}
lorafusion_trace::impl_to_json!(Breakdown {
    pass,
    base_gemm_pct,
    lora_gemm_pct,
    elementwise_pct,
    total_ms
});

fn classify(name: &str) -> &'static str {
    if name.contains("base_gemm") {
        "base"
    } else if name.contains("gemm") {
        "lora"
    } else {
        "elementwise"
    }
}

fn breakdown(pass: &'static str, kernels: &[KernelProfile]) -> Breakdown {
    let dev = DeviceKind::H100Sxm.spec();
    let cost = CostModel::default();
    let mut by = [0.0f64; 3];
    for k in kernels {
        let t = cost.kernel_cost(&dev, k).seconds;
        match classify(&k.name) {
            "base" => by[0] += t,
            "lora" => by[1] += t,
            _ => by[2] += t,
        }
    }
    let total: f64 = by.iter().sum();
    Breakdown {
        pass,
        base_gemm_pct: 100.0 * by[0] / total,
        lora_gemm_pct: 100.0 * by[1] / total,
        elementwise_pct: 100.0 * by[2] / total,
        total_ms: total * 1e3,
    }
}

fn main() {
    let _report = lorafusion_bench::report::init_guard("fig04");

    let dev = DeviceKind::H100Sxm.spec();
    let t = TrafficModel::for_device(&dev);
    let shape = Shape::new(8192, 4096, 4096, 16);
    let fwd = breakdown("forward", &reference::forward_profiles(shape, &t));
    let bwd = breakdown("backward", &reference::backward_profiles(shape, &t));

    let rows: Vec<Vec<String>> = [&fwd, &bwd]
        .iter()
        .map(|b| {
            vec![
                b.pass.to_string(),
                fmt(b.base_gemm_pct, 1),
                fmt(b.lora_gemm_pct, 1),
                fmt(b.elementwise_pct, 1),
                fmt(b.total_ms, 3),
            ]
        })
        .collect();
    print_table(
        "Fig. 4 — Torch-LoRA runtime breakdown (n=k=4096, r=16, tokens=8192)",
        &[
            "pass",
            "base GEMM %",
            "LoRA GEMMs %",
            "elementwise %",
            "total ms",
        ],
        &rows,
    );
    println!("\nPaper: fwd 59 / 10.8 / 30.5; bwd 60 / 20.4 / 17.5 (percent).");

    // Section 3.1's traffic claim, for the same module.
    let lora_traffic: u64 = reference::forward_profiles(shape, &t)
        .iter()
        .chain(reference::backward_profiles(shape, &t).iter())
        .map(KernelProfile::bytes_total)
        .sum();
    let frozen_traffic: u64 = lorafusion_kernels::frozen::forward_profiles(shape, &t)
        .iter()
        .chain(lorafusion_kernels::frozen::backward_profiles(shape, &t).iter())
        .map(KernelProfile::bytes_total)
        .sum();
    println!(
        "DRAM traffic inflation vs. frozen: {:.2}x (paper: ~2.64x)",
        lora_traffic as f64 / frozen_traffic as f64
    );
    write_json("fig04", &vec![fwd, bwd]);
}
