//! Figure 17: FusedLoRA / FusedMultiLoRA kernel performance vs. Torch
//! LoRA, forward and backward, across token counts.

use lorafusion_bench::{fmt, geomean, print_table, write_json};
use lorafusion_gpu::{CostModel, DeviceKind, KernelClass, KernelProfile};
use lorafusion_kernels::{fused, reference, Shape, TrafficModel};

struct Row {
    tokens: usize,
    fused_fwd_speedup: f64,
    fused_bwd_speedup: f64,
    multi_fwd_speedup: f64,
    multi_bwd_speedup: f64,
}
lorafusion_trace::impl_to_json!(Row {
    tokens,
    fused_fwd_speedup,
    fused_bwd_speedup,
    multi_fwd_speedup,
    multi_bwd_speedup
});

fn retag(mut ks: Vec<KernelProfile>, adapters: u32) -> Vec<KernelProfile> {
    for k in &mut ks {
        if let KernelClass::FusedGemm { m, k: kk, n, .. } = k.class {
            k.class = KernelClass::FusedGemm {
                m,
                k: kk,
                n,
                adapters,
            };
        }
    }
    ks
}

fn main() {
    let _report = lorafusion_bench::report::init_guard("fig17");

    let dev = DeviceKind::H100Sxm.spec();
    let cost = CostModel::default();
    let t = TrafficModel::for_device(&dev);
    let (k, n, r) = (4096usize, 4096usize, 16usize);

    let mut rows = Vec::new();
    let mut out = Vec::new();
    for &tokens in &[1024usize, 2048, 4096, 8192, 16384] {
        let shape = Shape::new(tokens, k, n, r);
        let torch_f = cost.sequence_seconds(&dev, &reference::forward_profiles(shape, &t));
        let torch_b = cost.sequence_seconds(&dev, &reference::backward_profiles(shape, &t));
        let fused_f = cost.sequence_seconds(&dev, &fused::forward_profiles(shape, &t));
        let fused_b = cost.sequence_seconds(&dev, &fused::backward_profiles(shape, &t));
        // FusedMultiLoRA with 4 adapters routed per tile.
        let multi_f = cost.sequence_seconds(&dev, &retag(fused::forward_profiles(shape, &t), 4));
        let multi_b = cost.sequence_seconds(&dev, &retag(fused::backward_profiles(shape, &t), 4));

        let row = Row {
            tokens,
            fused_fwd_speedup: torch_f / fused_f,
            fused_bwd_speedup: torch_b / fused_b,
            multi_fwd_speedup: torch_f / multi_f,
            multi_bwd_speedup: torch_b / multi_b,
        };
        rows.push(vec![
            tokens.to_string(),
            fmt(row.fused_fwd_speedup, 2),
            fmt(row.fused_bwd_speedup, 2),
            fmt(row.multi_fwd_speedup, 2),
            fmt(row.multi_bwd_speedup, 2),
        ]);
        out.push(row);
    }

    print_table(
        "Fig. 17 — kernel speedup over Torch LoRA (n=k=4096, r=16), H100",
        &[
            "tokens",
            "FusedLoRA fwd",
            "FusedLoRA bwd",
            "FusedMulti fwd",
            "FusedMulti bwd",
        ],
        &rows,
    );
    let fused_all: Vec<f64> = out
        .iter()
        .flat_map(|r| [r.fused_fwd_speedup, r.fused_bwd_speedup])
        .collect();
    let multi_all: Vec<f64> = out
        .iter()
        .flat_map(|r| [r.multi_fwd_speedup, r.multi_bwd_speedup])
        .collect();
    println!(
        "\nFusedLoRA mean {:.2}x (max {:.2}x); FusedMultiLoRA mean {:.2}x (max {:.2}x)",
        geomean(&fused_all),
        fused_all.iter().cloned().fold(0.0, f64::max),
        geomean(&multi_all),
        multi_all.iter().cloned().fold(0.0, f64::max),
    );
    println!("Paper: FusedLoRA avg 1.27x (up to 1.39x); FusedMultiLoRA avg 1.17x (up to 1.24x).");
    write_json("fig17", &out);
}
