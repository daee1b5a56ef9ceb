//! Fig. 9 design-space ablation: full-graph fusion (recompute / sync)
//! vs. the split-graph FusedLoRA design, across batch sizes.

use lorafusion_bench::{fmt, print_table, write_json};
use lorafusion_gpu::{CostModel, DeviceKind};
use lorafusion_kernels::{full_fusion, fused, reference, Shape, TrafficModel};

struct Row {
    tokens: usize,
    torch_ms: f64,
    recompute_ms: f64,
    sync_ms: f64,
    split_ms: f64,
}
lorafusion_trace::impl_to_json!(Row {
    tokens,
    torch_ms,
    recompute_ms,
    sync_ms,
    split_ms
});

fn main() {
    let _report = lorafusion_bench::report::init_guard("ablation_fusion");

    let dev = DeviceKind::H100Sxm.spec();
    let cost = CostModel::default();
    let t = TrafficModel::for_device(&dev);

    let mut rows = Vec::new();
    let mut out = Vec::new();
    for &tokens in &[1024usize, 4096, 8192, 16384, 32768] {
        let shape = Shape::new(tokens, 4096, 4096, 16);
        let torch = cost.sequence_seconds(&dev, &reference::forward_profiles(shape, &t));
        let recompute =
            cost.sequence_seconds(&dev, &full_fusion::forward_profiles_recompute(shape, &t));
        let sync = cost.sequence_seconds(&dev, &full_fusion::forward_profiles_sync(shape, &t));
        let split = cost.sequence_seconds(&dev, &fused::forward_profiles(shape, &t));
        let row = Row {
            tokens,
            torch_ms: torch * 1e3,
            recompute_ms: recompute * 1e3,
            sync_ms: sync * 1e3,
            split_ms: split * 1e3,
        };
        rows.push(vec![
            tokens.to_string(),
            fmt(row.torch_ms, 3),
            fmt(row.recompute_ms, 3),
            fmt(row.sync_ms, 3),
            fmt(row.split_ms, 3),
        ]);
        out.push(row);
    }
    print_table(
        "Ablation — fusion design space, forward pass (n=k=4096, r=16)",
        &[
            "tokens",
            "unfused ms",
            "full-fusion recompute ms",
            "full-fusion sync ms",
            "split-graph ms",
        ],
        &rows,
    );
    println!("\nThe split-graph design (FusedLoRA) must win everywhere, and the");
    println!("recompute variant must degrade as the token count grows (Section 5.1).");
    write_json("ablation_fusion", &out);
}
