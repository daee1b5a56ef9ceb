//! Figure 18: FusedLoRA / FusedMultiLoRA speedup per decoder linear layer
//! of each evaluated model (microbatches containing four adapters).

use lorafusion_bench::{fmt, geomean, print_table, write_json};
use lorafusion_dist::model_config::ModelPreset;
use lorafusion_gpu::{CostModel, DeviceKind, KernelClass, KernelProfile};
use lorafusion_kernels::{fused, reference, Shape, TrafficModel};

struct Row {
    model: String,
    layer: String,
    k: usize,
    n: usize,
    fused_speedup: f64,
    multi_speedup: f64,
}
lorafusion_trace::impl_to_json!(Row {
    model,
    layer,
    k,
    n,
    fused_speedup,
    multi_speedup
});

fn retag(mut ks: Vec<KernelProfile>, adapters: u32) -> Vec<KernelProfile> {
    for kp in &mut ks {
        if let KernelClass::FusedGemm { m, k, n, .. } = kp.class {
            kp.class = KernelClass::FusedGemm { m, k, n, adapters };
        }
    }
    ks
}

fn main() {
    let _report = lorafusion_bench::report::init_guard("fig18");

    let dev = DeviceKind::H100Sxm.spec();
    let cost = CostModel::default();
    let t = TrafficModel::for_device(&dev);
    let tokens = 8192usize;
    let rank = 16usize;

    let mut rows = Vec::new();
    let mut out = Vec::new();
    for preset in ModelPreset::ALL {
        let cfg = preset.config();
        for (name, k, n) in cfg.lora_linears() {
            let shape = Shape::new(tokens, k, n, rank);
            let torch = cost.sequence_seconds(&dev, &reference::forward_profiles(shape, &t))
                + cost.sequence_seconds(&dev, &reference::backward_profiles(shape, &t));
            let fused_t = cost.sequence_seconds(&dev, &fused::forward_profiles(shape, &t))
                + cost.sequence_seconds(&dev, &fused::backward_profiles(shape, &t));
            let multi_t = cost
                .sequence_seconds(&dev, &retag(fused::forward_profiles(shape, &t), 4))
                + cost.sequence_seconds(&dev, &retag(fused::backward_profiles(shape, &t), 4));
            let row = Row {
                model: cfg.name.to_string(),
                layer: name.to_string(),
                k,
                n,
                fused_speedup: torch / fused_t,
                multi_speedup: torch / multi_t,
            };
            rows.push(vec![
                row.model.clone(),
                row.layer.clone(),
                format!("{k}x{n}"),
                fmt(row.fused_speedup, 2),
                fmt(row.multi_speedup, 2),
            ]);
            out.push(row);
        }
    }
    print_table(
        "Fig. 18 — per-layer speedup over Torch LoRA (tokens=8192, 4 adapters)",
        &["model", "layer", "kxn", "FusedLoRA", "FusedMultiLoRA"],
        &rows,
    );
    let fused_all: Vec<f64> = out.iter().map(|r| r.fused_speedup).collect();
    let multi_all: Vec<f64> = out.iter().map(|r| r.multi_speedup).collect();
    println!(
        "\nMean: FusedLoRA {:.2}x (max {:.2}x), FusedMultiLoRA {:.2}x (max {:.2}x)",
        geomean(&fused_all),
        fused_all.iter().cloned().fold(0.0, f64::max),
        geomean(&multi_all),
        multi_all.iter().cloned().fold(0.0, f64::max),
    );
    println!("Paper: FusedLoRA avg 1.21x (up to 1.30x); FusedMultiLoRA avg 1.13x (up to 1.17x).");
    write_json("fig18", &out);
}
