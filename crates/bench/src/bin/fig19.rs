//! Figure 19: GPU DRAM traffic (the NCU measurement) per kernel strategy
//! across representative GEMM shapes.

use lorafusion_bench::{fmt, print_table, write_json};
use lorafusion_gpu::{DeviceKind, KernelProfile};
use lorafusion_kernels::{fused, reference, Shape, TrafficModel};

struct Row {
    shape: String,
    torch_read_gb: f64,
    torch_write_gb: f64,
    fused_read_gb: f64,
    fused_write_gb: f64,
    traffic_ratio: f64,
}
lorafusion_trace::impl_to_json!(Row {
    shape,
    torch_read_gb,
    torch_write_gb,
    fused_read_gb,
    fused_write_gb,
    traffic_ratio
});

fn totals(ks: &[KernelProfile]) -> (u64, u64) {
    (
        ks.iter().map(|k| k.bytes_read).sum(),
        ks.iter().map(|k| k.bytes_written).sum(),
    )
}

fn main() {
    let _report = lorafusion_bench::report::init_guard("fig19");

    let dev = DeviceKind::H100Sxm.spec();
    let t = TrafficModel::for_device(&dev);
    let shapes = [
        (4096usize, 4096usize, 4096usize),
        (8192, 4096, 4096),
        (16384, 4096, 4096),
        (8192, 8192, 8192),
    ];

    let mut rows = Vec::new();
    let mut out = Vec::new();
    for &(m, k, n) in &shapes {
        let shape = Shape::new(m, k, n, 16);
        let torch: Vec<KernelProfile> = reference::forward_profiles(shape, &t)
            .into_iter()
            .chain(reference::backward_profiles(shape, &t))
            .collect();
        let fused_ks: Vec<KernelProfile> = fused::forward_profiles(shape, &t)
            .into_iter()
            .chain(fused::backward_profiles(shape, &t))
            .collect();
        let (tr, tw) = totals(&torch);
        let (fr, fw) = totals(&fused_ks);
        let row = Row {
            shape: format!("{m}x{k}x{n}"),
            torch_read_gb: tr as f64 / 1e9,
            torch_write_gb: tw as f64 / 1e9,
            fused_read_gb: fr as f64 / 1e9,
            fused_write_gb: fw as f64 / 1e9,
            traffic_ratio: (fr + fw) as f64 / (tr + tw) as f64,
        };
        rows.push(vec![
            row.shape.clone(),
            fmt(row.torch_read_gb, 2),
            fmt(row.torch_write_gb, 2),
            fmt(row.fused_read_gb, 2),
            fmt(row.fused_write_gb, 2),
            fmt(row.traffic_ratio, 2),
        ]);
        out.push(row);
    }
    print_table(
        "Fig. 19 — DRAM traffic, Torch LoRA vs. FusedLoRA (fwd+bwd, r=16)",
        &[
            "shape (mxkxn)",
            "torch read GB",
            "torch write GB",
            "fused read GB",
            "fused write GB",
            "fused/torch",
        ],
        &rows,
    );
    println!("\nPaper: traffic reduced to ~0.63x on 8192x4096x4096 (34-37% reduction overall).");
    write_json("fig19", &out);
}
