//! Kernel playground: run the LoRA executors by hand and inspect both
//! their numerics and their modeled GPU behaviour.
//!
//! ```sh
//! cargo run --release --example kernel_playground
//! ```

use lorafusion_gpu::{CostModel, DeviceKind, TrafficLedger};
use lorafusion_kernels::contraction::{ContractionPlan, PlannedWorkspace};
use lorafusion_kernels::{fused, reference, LoraConfig, LoraLayer, Shape, TrafficModel};
use lorafusion_tensor::ops::max_abs_diff;
use lorafusion_tensor::{Matrix, Pcg32};

fn main() {
    // --- Functional: prove the fusion is lossless on real numbers. ---
    let mut rng = Pcg32::seeded(2024);
    let cfg = LoraConfig {
        rank: 8,
        alpha: 2.0,
        dropout: 0.1,
        seed: 99,
    };
    let layer = LoraLayer::init_nonzero(64, 48, cfg, &mut rng);
    let x = Matrix::random_uniform(32, 64, 1.0, &mut rng);
    let dy = Matrix::random_uniform(32, 48, 1.0, &mut rng);
    let traffic = TrafficModel::for_device(&DeviceKind::H100Sxm.spec());

    // FusedLoRA is the fused executor's default contraction plan.
    let mut fused_ws = PlannedWorkspace::new(ContractionPlan::DEFAULT).unwrap();
    let r_fwd = reference::forward(&layer, &x, 0, &traffic).unwrap();
    fused_ws.forward_into(&layer, &x, 0).unwrap();
    println!(
        "forward  |fused - reference|_inf = {:.2e}",
        max_abs_diff(&fused_ws.y, &r_fwd.y).unwrap()
    );

    let r_bwd = reference::backward(&layer, &r_fwd.saved, &dy, &traffic).unwrap();
    fused_ws.backward_into(&layer, &dy).unwrap();
    println!(
        "backward |dX|: {:.2e}  |dA|: {:.2e}  |dB|: {:.2e}",
        max_abs_diff(&fused_ws.dx, &r_bwd.dx).unwrap(),
        max_abs_diff(&fused_ws.da, &r_bwd.grads.da).unwrap(),
        max_abs_diff(&fused_ws.db, &r_bwd.grads.db).unwrap(),
    );
    println!(
        "dropped activations bit-identical: {}",
        fused_ws.x_hat == r_fwd.saved.x_hat
    );

    // --- Modeled: what the same module costs on an H100. ---
    let dev = DeviceKind::H100Sxm.spec();
    let cost = CostModel::default();
    let shape = Shape::new(8192, 4096, 4096, 16);
    println!("\nmodeled H100 execution (m=8192, k=n=4096, r=16):");
    for (name, fwd, bwd) in [
        (
            "Torch LoRA",
            reference::forward_profiles(shape, &traffic),
            reference::backward_profiles(shape, &traffic),
        ),
        (
            "FusedLoRA",
            fused::forward_profiles(shape, &traffic),
            fused::backward_profiles(shape, &traffic),
        ),
    ] {
        let mut ledger = TrafficLedger::new();
        ledger.record_all(&fwd);
        ledger.record_all(&bwd);
        let t_fwd = cost.sequence_seconds(&dev, &fwd);
        let t_bwd = cost.sequence_seconds(&dev, &bwd);
        println!(
            "  {:<10} fwd {:>7.3} ms  bwd {:>7.3} ms  kernels {:>2}  DRAM {:>6.2} GB",
            name,
            t_fwd * 1e3,
            t_bwd * 1e3,
            fwd.len() + bwd.len(),
            ledger.total() as f64 / 1e9,
        );
        println!("  per-kernel traffic:");
        for (kernel, read, write) in ledger.iter() {
            println!(
                "    {:<34} read {:>7.1} MB  write {:>7.1} MB",
                kernel,
                read as f64 / 1e6,
                write as f64 / 1e6
            );
        }
    }

    // --- Roofline: why the LoRA GEMMs are memory-bound (Eq. 2). ---
    let intensity = lorafusion_gpu::lora_down_projection_intensity(8192, 4096, 16);
    println!(
        "\nEq. 2: down-projection intensity {:.1} FLOP/B vs machine balance {:.0} FLOP/B",
        intensity,
        dev.machine_balance()
    );

    // Flush the Perfetto trace when LORAFUSION_TRACE=<path> is set.
    if let Some(path) = lorafusion_trace::trace_path() {
        lorafusion_trace::metrics::sample_counters();
        match lorafusion_trace::flush() {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => eprintln!("trace flush failed: {e}"),
        }
    }
}
