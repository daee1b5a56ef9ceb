//! Figure 3: throughput of a frozen linear layer (n=k=4096) vs. its
//! LoRA-equipped version, across token counts and ranks, forward and
//! backward, including a torch.compile-style variant.

use lorafusion_bench::{fmt, print_table, write_json};
use lorafusion_gpu::{CostModel, DeviceKind, KernelClass, KernelProfile};
use lorafusion_kernels::{frozen, reference, Shape, TrafficModel};

struct Row {
    tokens: usize,
    variant: String,
    fwd_tokens_per_s: f64,
    bwd_tokens_per_s: f64,
    fwd_slowdown_pct: f64,
    bwd_slowdown_pct: f64,
}
lorafusion_trace::impl_to_json!(Row {
    tokens,
    variant,
    fwd_tokens_per_s,
    bwd_tokens_per_s,
    fwd_slowdown_pct,
    bwd_slowdown_pct
});

/// torch.compile fuses the trailing scale+add elementwise pair in the
/// forward pass (and nothing load-bearing in the backward), which is why
/// the paper observes "zero benefits in the forward pass and only
/// negligible improvements in the backward pass" — the memory-bound LoRA
/// GEMM round trips remain.
fn compiled_forward(shape: Shape, t: &TrafficModel) -> Vec<KernelProfile> {
    let mut ks = reference::forward_profiles(shape, t);
    // Merge the standalone scale kernel into the add: the fused kernel
    // reads Y1 (cold) and Y2 (hot) once and writes Y, saving one mn-sized
    // write/read round trip — everything else (dropout, LoRA GEMMs) stays.
    ks.remove(4);
    let (m, n) = (shape.m, shape.n);
    let add = ks.last_mut().expect("forward lowering is non-empty");
    add.name = "torch_compile_fwd_scale_add".into();
    add.class = KernelClass::Elementwise { tensors: 3 };
    add.flops = 2.0 * m as f64 * n as f64;
    add.bytes_read = t.read_cold(m * n) + t.read_hot(m * n);
    add.bytes_written = t.write(m * n);
    ks
}

fn main() {
    let _report = lorafusion_bench::report::init_guard("fig03");

    let dev = DeviceKind::H100Sxm.spec();
    let cost = CostModel::default();
    let t = TrafficModel::for_device(&dev);
    let (k, n) = (4096usize, 4096usize);

    let mut rows = Vec::new();
    let mut out = Vec::new();
    for &tokens in &[1024usize, 2048, 4096, 8192, 16384] {
        let frozen_shape = Shape::new(tokens, k, n, 0);
        let f_fwd = cost.sequence_seconds(&dev, &frozen::forward_profiles(frozen_shape, &t));
        let f_bwd = cost.sequence_seconds(&dev, &frozen::backward_profiles(frozen_shape, &t));

        let mut variants: Vec<(String, f64, f64)> = vec![("Frozen".into(), f_fwd, f_bwd)];
        for &rank in &[16usize, 32] {
            let shape = Shape::new(tokens, k, n, rank);
            let fwd = cost.sequence_seconds(&dev, &reference::forward_profiles(shape, &t));
            let bwd = cost.sequence_seconds(&dev, &reference::backward_profiles(shape, &t));
            variants.push((format!("LoRA r={rank}"), fwd, bwd));
            if rank == 16 {
                let cf = cost.sequence_seconds(&dev, &compiled_forward(shape, &t));
                variants.push((format!("LoRA r={rank} +compile"), cf, bwd * 0.99));
            }
        }

        for (name, fwd, bwd) in variants {
            let row = Row {
                tokens,
                variant: name.clone(),
                fwd_tokens_per_s: tokens as f64 / fwd,
                bwd_tokens_per_s: tokens as f64 / bwd,
                fwd_slowdown_pct: 100.0 * (1.0 - f_fwd / fwd),
                bwd_slowdown_pct: 100.0 * (1.0 - f_bwd / bwd),
            };
            rows.push(vec![
                row.tokens.to_string(),
                row.variant.clone(),
                fmt(row.fwd_tokens_per_s / 1e6, 2),
                fmt(row.bwd_tokens_per_s / 1e6, 2),
                fmt(row.fwd_slowdown_pct, 1),
                fmt(row.bwd_slowdown_pct, 1),
            ]);
            out.push(row);
        }
    }
    print_table(
        "Fig. 3 — frozen vs. LoRA linear (n=k=4096), H100",
        &[
            "tokens",
            "variant",
            "fwd Mtok/s",
            "bwd Mtok/s",
            "fwd slowdown %",
            "bwd slowdown %",
        ],
        &rows,
    );
    println!("\nPaper: ~40% fwd / ~36% bwd throughput loss, flat in tokens and rank;");
    println!("torch.compile: no forward benefit, negligible backward benefit.");
    write_json("fig03", &out);
}
