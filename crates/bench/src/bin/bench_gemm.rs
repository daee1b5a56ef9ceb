//! GEMM perf trajectory: layouts x shapes x thread counts.
//!
//! Emits `results/BENCH_gemm.json` so future PRs can track how the
//! register-tiled GEMM engine and the worker pool evolve. The sweep covers
//! the three transpose layouts (`nn`, `nt`, `tn`) and the paper-relevant
//! shapes: the square evaluation size (`s x s x s`, default `s = 4096`,
//! override with `BENCH_GEMM_SIZE`) plus the skinny LoRA shapes at the
//! ranks the paper's configs use (`r` in {8, 16, 64}) — the rank-`r`
//! down-projection (`s x s x r`) and the `r`-row weight-gradient
//! (`r x s x s`) — so the trajectory distinguishes square GEMMs from the
//! rank-`r` ones the schedulers actually issue.
//!
//! Timing takes the *median* of per-iteration wall times (not the mean),
//! so one cold iteration cannot skew the small `BENCH_GEMM_SIZE` runs CI
//! uses. A bitwise check asserts the determinism contract for every
//! (layout, shape, threads) cell on the spot; `scripts/ci.sh` runs this
//! binary at size 256 as a fast regression gate with `BENCH_GEMM_WRITE=0`
//! to leave the committed full-size trajectory untouched.
//!
//! The thread sweep is clamped to the host's available parallelism (via
//! the pool's confined accessor) — oversubscribed cells on small boxes
//! reported `speedup_vs_serial < 1` artifacts — and every row records
//! `host_cores`, `detected_features`, and the active `simd_path` so rows
//! from different machines stay comparable.
//!
//! `BENCH_GEMM_DIGEST=<path>` switches to the timing-free determinism
//! mode: each (layout, shape, threads) cell's output bits are reduced to
//! an FNV-1a digest and written to `<path>`, one line per cell. The file
//! is a pure function of the computed bits, so `scripts/ci.sh` runs it
//! under `LORAFUSION_SIMD=0` and under the default and diffs the two —
//! the bitwise dual-path gate. The same mode also reruns every cell on
//! every spelling of `simd::supported_paths` in process and panics on any
//! bit difference from the active path, which is the only gate that runs
//! the AVX2 kernel on an AVX-512 host (the env override reaches only the
//! widest and the scalar spelling).

use lorafusion_bench::{fmt, fnv1a, print_table, report, time_median, write_json};
use lorafusion_tensor::matmul::{gemm, Epilogue, Layout, Prologue};
use lorafusion_tensor::pool::Pool;
use lorafusion_tensor::simd::{self, SimdPath};
use lorafusion_tensor::{Matrix, Pcg32};

struct Row {
    layout: String,
    shape: String,
    threads: usize,
    host_cores: usize,
    detected_features: String,
    simd_path: String,
    seconds: f64,
    gflops: f64,
    speedup_vs_serial: f64,
    bitwise_equal_to_serial: bool,
}
lorafusion_trace::impl_to_json!(Row {
    layout,
    shape,
    threads,
    host_cores,
    detected_features,
    simd_path,
    seconds,
    gflops,
    speedup_vs_serial,
    bitwise_equal_to_serial,
});

/// Builds the operands of `C = A (x) B` for `layout` with effective
/// product shape `m x k x n`.
fn operands(layout: Layout, m: usize, k: usize, n: usize, rng: &mut Pcg32) -> (Matrix, Matrix) {
    let (ar, ac) = match layout {
        Layout::Nn | Layout::Nt => (m, k),
        Layout::Tn => (k, m),
    };
    let (br, bc) = match layout {
        Layout::Nn | Layout::Tn => (k, n),
        Layout::Nt => (n, k),
    };
    (
        Matrix::random_uniform(ar, ac, 1.0, rng),
        Matrix::random_uniform(br, bc, 1.0, rng),
    )
}

/// `C = A (x) B` on `path`: the overwrite GEMM every cell measures.
fn run_once(path: SimdPath, layout: Layout, pool: &Pool, a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, n) = c.shape();
    let k = match layout {
        Layout::Nn | Layout::Nt => a.cols(),
        Layout::Tn => a.rows(),
    };
    gemm(
        pool,
        path,
        layout,
        1.0,
        a.as_slice(),
        b.as_slice(),
        c.as_mut_slice(),
        (m, k, n),
        Prologue::none(),
        Epilogue::Overwrite,
        None,
    )
    .unwrap();
}

/// The output bits of `C = A (x) B` on `path`.
fn output_bits(
    path: SimdPath,
    layout: Layout,
    pool: &Pool,
    a: &Matrix,
    b: &Matrix,
    (m, n): (usize, usize),
) -> Vec<u32> {
    let mut c = Matrix::zeros(m, n);
    run_once(path, layout, pool, a, b, &mut c);
    c.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// One untimed warm-up, then `reps` individually timed iterations reduced
/// to their median. Every run overwrites `C` with the same product, so
/// the output left behind (which feeds the bitwise check) is the
/// warm-up's.
fn time_config(
    layout: Layout,
    pool: &Pool,
    a: &Matrix,
    b: &Matrix,
    m: usize,
    n: usize,
    reps: usize,
) -> (f64, Vec<u32>) {
    let path = simd::active_path();
    let mut c = Matrix::zeros(m, n);
    let seconds = time_median(reps, || run_once(path, layout, pool, a, b, &mut c));
    (seconds, c.as_slice().iter().map(|v| v.to_bits()).collect())
}

fn main() {
    let _report = lorafusion_bench::report::init_guard("bench_gemm");

    let size: usize = std::env::var("BENCH_GEMM_SIZE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4096)
        .max(1);
    // Effective (m, k, n) product shapes: the square evaluation size plus
    // the skinny LoRA shapes at every rank the paper's configs use — the
    // rank-r down-projection (`s x s x r`) and the r-row weight-gradient
    // (`r x s x s`).
    let mut shapes: Vec<(usize, usize, usize)> = vec![(size, size, size)];
    for r in [8usize, 16, 64] {
        let r = r.min(size);
        shapes.push((size, size, r));
        shapes.push((r, size, size));
    }
    shapes.dedup();

    // lint: allow(thread-count-dependence) — the bench deliberately sweeps
    // thread counts and mirrors the pool's own sizing to label the sweep;
    // numeric results are asserted bitwise-identical across the sweep.

    // Mirror the global pool's sizing: LORAFUSION_THREADS, else the
    // machine's available parallelism.
    let host = lorafusion_bench::host::host_info();
    let host_cores = host.host_cores;
    let default_threads = std::env::var("LORAFUSION_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(host_cores);
    // Clamp the static sweep to the hardware: oversubscribed pools on a
    // small box time slower-than-serial artifacts, not the engine. An
    // explicit LORAFUSION_THREADS above the core count is honored — the
    // user asked for it — but the default sweep never oversubscribes.
    let mut sweep: Vec<usize> = [1usize, 2, 4]
        .into_iter()
        .filter(|&t| t <= host_cores)
        .collect();
    if !sweep.contains(&default_threads) {
        sweep.push(default_threads);
    }
    let pools: Vec<Pool> = sweep.iter().map(|&t| Pool::new(t)).collect();
    let (detected_features, simd_path) = (host.detected_features, host.simd_path);
    let digest_path = std::env::var("BENCH_GEMM_DIGEST")
        .ok()
        .filter(|p| !p.is_empty());
    let mut digest_lines: Vec<String> = Vec::new();

    let square_flops = 2.0 * (size as f64).powi(3);
    let mut rows: Vec<Row> = Vec::new();
    for &(m, k, n) in &shapes {
        let flops = 2.0 * m as f64 * k as f64 * n as f64;
        // Spend comparable wall time on every shape: cheap skinny shapes
        // run more (odd, median-friendly) iterations, capped at 25.
        let reps = (3.0 * square_flops / flops).round() as usize;
        let reps = reps.clamp(3, 25) | 1;
        for &layout in &[Layout::Nn, Layout::Nt, Layout::Tn] {
            let mut rng = Pcg32::seeded(7);
            let (a, b) = operands(layout, m, k, n, &mut rng);
            if digest_path.is_some() {
                // Timing-free determinism mode: one run per cell, reduced
                // to a digest that depends only on the output bits (never
                // on timing or on the active path's name), plus one run
                // per supported spelling that must give the same bits.
                let mut serial_bits: Vec<u32> = Vec::new();
                for (pool, &threads) in pools.iter().zip(&sweep) {
                    let bits = output_bits(simd::active_path(), layout, pool, &a, &b, (m, n));
                    if threads == 1 {
                        serial_bits = bits.clone();
                    }
                    assert!(
                        bits == serial_bits,
                        "parallel GEMM diverged from serial output at {} {m}x{k}x{n} t={threads}",
                        layout.tag()
                    );
                    for &path in simd::supported_paths() {
                        assert!(
                            output_bits(path, layout, pool, &a, &b, (m, n)) == bits,
                            "the {} spelling diverged from the active path at {} {m}x{k}x{n} t={threads}",
                            path.tag(),
                            layout.tag()
                        );
                    }
                    digest_lines.push(format!(
                        "{} {m}x{k}x{n} t={threads} {:016x}",
                        layout.tag(),
                        fnv1a(&bits)
                    ));
                }
                continue;
            }
            let mut serial_seconds = 0.0;
            let mut serial_bits: Vec<u32> = Vec::new();
            for (pool, &threads) in pools.iter().zip(&sweep) {
                let (seconds, bits) = time_config(layout, pool, &a, &b, m, n, reps);
                if threads == 1 {
                    serial_seconds = seconds;
                    serial_bits = bits.clone();
                }
                rows.push(Row {
                    layout: layout.tag().to_string(),
                    shape: format!("{m}x{k}x{n}"),
                    threads,
                    host_cores,
                    detected_features: detected_features.to_string(),
                    simd_path: simd_path.to_string(),
                    seconds,
                    gflops: flops / seconds / 1e9,
                    speedup_vs_serial: serial_seconds / seconds,
                    bitwise_equal_to_serial: bits == serial_bits,
                });
            }
        }
    }

    if let Some(path) = digest_path {
        let body = digest_lines.join("\n") + "\n";
        std::fs::write(&path, body).expect("failed to write digest file");
        let spellings: Vec<&str> = simd::supported_paths().iter().map(|p| p.tag()).collect();
        println!(
            "(BENCH_GEMM_DIGEST: wrote {} cell digests to {path}; path={simd_path}; \
             bitwise-equal on {})",
            digest_lines.len(),
            spellings.join(", ")
        );
        return;
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.layout.clone(),
                r.shape.clone(),
                r.threads.to_string(),
                fmt(r.seconds * 1e3, 2),
                fmt(r.gflops, 2),
                fmt(r.speedup_vs_serial, 2),
                r.bitwise_equal_to_serial.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("GEMM sweep (base size {size}, median of per-iteration times)"),
        &[
            "layout",
            "shape",
            "threads",
            "ms/iter",
            "GFLOP/s",
            "speedup",
            "bitwise=serial",
        ],
        &table,
    );

    assert!(
        rows.iter().all(|r| r.bitwise_equal_to_serial),
        "parallel GEMM diverged from serial output"
    );
    report::scalar(
        "bench_gemm.peak_gflops",
        rows.iter().map(|r| r.gflops).fold(0.0, f64::max),
    );

    let write = std::env::var("BENCH_GEMM_WRITE")
        .map(|v| v != "0" && v.to_lowercase() != "false")
        .unwrap_or(true);
    if write {
        write_json("BENCH_gemm", &rows);
    } else {
        println!("(BENCH_GEMM_WRITE=0: skipping results/BENCH_gemm.json)");
    }
}
