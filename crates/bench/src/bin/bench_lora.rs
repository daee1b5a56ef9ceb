//! Module-level LoRA step benchmark: fused vs reference executors.
//!
//! Emits `results/BENCH_lora.json` tracking what the GEMM sweep cannot
//! see: the cost of a whole forward+backward step through a LoRA layer,
//! where the fused executor's epilogue/prologue hooks eliminate every
//! full-size elementwise pass (dropout, mask-multiply, scale, add) and
//! the reused [`Workspace`] eliminates per-step allocations. The
//! reference executor is the honest PEFT-style multi-pass baseline.
//!
//! Shapes are XSum-like fine-tuning steps: `k = n = hidden` (default
//! 1024, override with `BENCH_LORA_SIZE`), rank 16, and `m` token counts
//! of half/one/two times the hidden size, standing in for varying
//! microbatch token counts. The `fused` rows run FusedLoRA's K1..K5 step
//! (`kernels::fused`).
//!
//! Timing is the median of individually timed iterations after one
//! warm-up, like `bench_gemm`, with the two executors' iterations
//! interleaved so background-load swings cannot skew the ratio.
//! Correctness is asserted on the spot: fused `y` must be *bitwise* equal
//! to the reference `y`, gradients must agree to tolerance, and the fused
//! step must be bitwise reproducible at 1/2/4/8 threads. `scripts/ci.sh`
//! runs this binary at a small size as a regression gate with
//! `BENCH_LORA_WRITE=0` so the committed full-size trajectory stays
//! untouched. Every row also records `host_cores`, `detected_features`,
//! and the active `simd_path` so rows from different machines stay
//! comparable.

use std::time::Instant;

use lorafusion_bench::{fmt, median, print_table, report, time_median, write_json};
use lorafusion_gpu::DeviceKind;
use lorafusion_kernels::fused::Workspace;
use lorafusion_kernels::{reference, LoraConfig, LoraLayer, TrafficModel};
use lorafusion_tensor::ops::all_close;
use lorafusion_tensor::pool::with_pool;
use lorafusion_tensor::{Matrix, Pcg32, Pool};

struct Row {
    executor: String,
    shape: String,
    threads: usize,
    host_cores: usize,
    detected_features: String,
    simd_path: String,
    seconds: f64,
    speedup_vs_reference: f64,
    bitwise_equal_to_serial: bool,
}
lorafusion_trace::impl_to_json!(Row {
    executor,
    shape,
    threads,
    host_cores,
    detected_features,
    simd_path,
    seconds,
    speedup_vs_reference,
    bitwise_equal_to_serial,
});

/// Bit patterns of everything a training step observes.
struct StepBits {
    y: Vec<u32>,
    dx: Vec<u32>,
    da: Vec<u32>,
    db: Vec<u32>,
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// One fused forward+backward step through a reused workspace.
fn fused_step(ws: &mut Workspace, layer: &LoraLayer, x: &Matrix, dy: &Matrix) {
    ws.forward_into(layer, x, 0).unwrap();
    ws.backward_into(layer, dy).unwrap();
}

fn main() {
    let _report = lorafusion_bench::report::init_guard("bench_lora");

    let size: usize = std::env::var("BENCH_LORA_SIZE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1024)
        .max(8);
    let (k, n) = (size, size);
    let t = TrafficModel::for_device(&DeviceKind::H100Sxm.spec());
    let cfg = LoraConfig {
        dropout: 0.1,
        ..LoraConfig::with_rank(16.min(size))
    };

    let mut rng = Pcg32::seeded(0x10AD);
    let layer = LoraLayer::init_nonzero(k, n, cfg, &mut rng);

    let host = lorafusion_bench::host::host_info();
    let (host_cores, detected_features, simd_path) =
        (host.host_cores, host.detected_features, host.simd_path);
    let row = |executor: String, shape: &str, threads, seconds, speedup, bitwise| Row {
        executor,
        shape: shape.to_string(),
        threads,
        host_cores,
        detected_features: detected_features.clone(),
        simd_path: simd_path.clone(),
        seconds,
        speedup_vs_reference: speedup,
        bitwise_equal_to_serial: bitwise,
    };

    let mut rows: Vec<Row> = Vec::new();
    for m in [size / 2, size, size * 2] {
        let m = m.max(1);
        let shape = format!("{m}x{k}x{n} r{}", cfg.rank);
        let x = Matrix::random_uniform(m, k, 1.0, &mut rng);
        let dy = Matrix::random_uniform(m, n, 1.0, &mut rng);
        // Comparable wall time per shape: smaller steps run more reps.
        let reps = if m < size { 11 } else { 7 };

        // Serial baselines: the reference multi-pass step and the fused
        // zero-temporary step, timed under the same single-thread pool.
        // Iterations are *interleaved* (one reference step, one fused
        // step, repeat) so background-load swings hit both executors
        // equally instead of skewing whichever ran in the slower window.
        let serial = Pool::new(1);
        let (ref_seconds, fused_seconds, serial_bits) = with_pool(&serial, || {
            let mut ws = Workspace::new();
            let ref_step = |black: &mut usize| {
                let f = reference::forward(&layer, &x, 0, &t).unwrap();
                let b = reference::backward(&layer, &f.saved, &dy, &t).unwrap();
                *black = std::hint::black_box(f.y.as_slice().len() + b.dx.as_slice().len());
            };
            let mut black = 0usize;
            ref_step(&mut black);
            fused_step(&mut ws, &layer, &x, &dy);
            let mut ref_times = Vec::with_capacity(reps);
            let mut fused_times = Vec::with_capacity(reps);
            for _ in 0..reps {
                let start = Instant::now();
                ref_step(&mut black);
                ref_times.push(start.elapsed().as_secs_f64());
                let start = Instant::now();
                fused_step(&mut ws, &layer, &x, &dy);
                fused_times.push(start.elapsed().as_secs_f64());
            }
            let ref_seconds = median(ref_times);
            let fused_seconds = median(fused_times);

            // Correctness gate: the epilogue/prologue step must reproduce
            // the multi-pass forward bit-for-bit, and the gradients to
            // tolerance (backward reduction order differs in where alpha
            // is applied).
            let ref_fwd = reference::forward(&layer, &x, 0, &t).unwrap();
            let ref_bwd = reference::backward(&layer, &ref_fwd.saved, &dy, &t).unwrap();
            assert_eq!(
                ws.y.as_slice(),
                ref_fwd.y.as_slice(),
                "fused y diverged from reference at {shape}"
            );
            assert!(all_close(&ws.dx, &ref_bwd.dx, 1e-4), "dx at {shape}");
            assert!(all_close(&ws.da, &ref_bwd.grads.da, 1e-4), "da at {shape}");
            assert!(all_close(&ws.db, &ref_bwd.grads.db, 1e-4), "db at {shape}");

            let serial_bits = StepBits {
                y: bits(&ws.y),
                dx: bits(&ws.dx),
                da: bits(&ws.da),
                db: bits(&ws.db),
            };
            (ref_seconds, fused_seconds, serial_bits)
        });

        rows.push(row("reference".into(), &shape, 1, ref_seconds, 1.0, true));
        rows.push(row(
            "fused".into(),
            &shape,
            1,
            fused_seconds,
            ref_seconds / fused_seconds,
            true,
        ));

        // Determinism sweep: the fused step must be bitwise reproducible
        // at every thread count.
        for threads in [2usize, 4, 8] {
            let pool = Pool::new(threads);
            let (seconds, equal) = with_pool(&pool, || {
                let mut ws = Workspace::new();
                let seconds = time_median(3, || fused_step(&mut ws, &layer, &x, &dy));
                let equal = bits(&ws.y) == serial_bits.y
                    && bits(&ws.dx) == serial_bits.dx
                    && bits(&ws.da) == serial_bits.da
                    && bits(&ws.db) == serial_bits.db;
                (seconds, equal)
            });
            assert!(
                equal,
                "fused step diverged at {threads} threads for {shape}"
            );
            rows.push(row(
                "fused".into(),
                &shape,
                threads,
                seconds,
                ref_seconds / seconds,
                equal,
            ));
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.executor.clone(),
                r.shape.clone(),
                r.threads.to_string(),
                fmt(r.seconds * 1e3, 2),
                fmt(r.speedup_vs_reference, 2),
                r.bitwise_equal_to_serial.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("LoRA module step (hidden {size}, median of per-iteration times)"),
        &[
            "executor",
            "shape",
            "threads",
            "ms/step",
            "vs reference",
            "bitwise=serial",
        ],
        &table,
    );

    report::scalar(
        "bench_lora.best_speedup_vs_reference",
        rows.iter()
            .map(|r| r.speedup_vs_reference)
            .fold(0.0, f64::max),
    );

    let write = std::env::var("BENCH_LORA_WRITE")
        .map(|v| v != "0" && v.to_lowercase() != "false")
        .unwrap_or(true);
    if write {
        write_json("BENCH_lora", &rows);
    } else {
        println!("(BENCH_LORA_WRITE=0: skipping results/BENCH_lora.json)");
    }
}
