//! Chunked fused linear+cross-entropy benchmark and bitwise gate.
//!
//! Emits `results/BENCH_loss.json` tracking the Liger-style fused LM-head
//! loss ([`lorafusion_kernels::loss`]): the head GEMM runs chunk-by-chunk
//! through the microkernel's row-max sink and softmax-grad pack prologue,
//! so peak live logits memory drops from `2 * tokens x vocab` (logits +
//! dlogits) to one `chunk x vocab` buffer.
//!
//! Correctness is asserted on the spot, not just recorded:
//!
//! * every chunk size in the sweep — including a ragged non-divisor of the
//!   token count — must reproduce the unfused reference *bitwise* (LSE,
//!   per-token losses, `dX`, and the `f64` mean loss);
//! * the fused path must be bitwise reproducible at 1/2/4/8 threads;
//! * the measured `peak_logits_elems` ratio must be at least
//!   `tokens / chunk` (the `vocab`-proportional memory claim);
//! * the fused RMSNorm and SwiGLU chains must match their multi-pass
//!   references bitwise;
//! * [`MemoryPlan::max_tokens_in_flight`] for Llama-3.1-8B must strictly
//!   increase when the loss lowering switches from unfused to chunked.
//!
//! `scripts/ci.sh` runs this binary at a small size with
//! `BENCH_LOSS_WRITE=0` as a regression gate and validates the emitted
//! `loss.*` counters with `trace_validate --require-counter`. Defaults:
//! 512 tokens x 256 hidden x 4096 vocab, overridable with
//! `BENCH_LOSS_TOKENS` / `BENCH_LOSS_HIDDEN` / `BENCH_LOSS_VOCAB`.
//!
//! `BENCH_LOSS_DIGEST=<path>` switches to the determinism mode, like
//! `bench_gemm`'s `BENCH_GEMM_DIGEST`: the reference and every fused
//! (chunk, threads) run of the two sweeps execute once after a warm-up,
//! the later gates are skipped, and each run writes one line to `<path>`
//! with FNV-1a digests of its per-token `lse`, per-token loss and `dX`
//! bits plus the `f64` mean-loss bits. The file
//! depends only on the computed bits, so `scripts/ci.sh` writes it under
//! `LORAFUSION_SIMD=0` and under the default and diffs the two: the
//! in-tree `exp` and the GEMM must give the same loss head on both SIMD
//! spellings.

use lorafusion_bench::{fmt, fnv1a, print_table, report, time_median, write_json};
use lorafusion_dist::memory::{LossMode, MemoryPlan};
use lorafusion_dist::model_config::ModelPreset;
use lorafusion_gpu::DeviceKind;
use lorafusion_kernels::loss::{
    self, fused_linear_ce_into, reference_linear_ce_into, LinearCeWorkspace,
};
use lorafusion_kernels::{chains, TrafficModel};
use lorafusion_tensor::pool::with_pool;
use lorafusion_tensor::{Matrix, Pcg32, Pool};

struct Row {
    kind: String,
    shape: String,
    chunk_tokens: usize,
    threads: usize,
    host_cores: usize,
    detected_features: String,
    simd_path: String,
    seconds: f64,
    peak_logits_elems: usize,
    peak_ratio_vs_unfused: f64,
    bitwise_equal_to_reference: bool,
}
lorafusion_trace::impl_to_json!(Row {
    kind,
    shape,
    chunk_tokens,
    threads,
    host_cores,
    detected_features,
    simd_path,
    seconds,
    peak_logits_elems,
    peak_ratio_vs_unfused,
    bitwise_equal_to_reference,
});

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Everything a loss evaluation observes, as bit patterns.
struct LossBits {
    lse: Vec<u32>,
    losses: Vec<u32>,
    dx: Vec<u32>,
    mean: u64,
}

impl LossBits {
    fn of(ws: &LinearCeWorkspace) -> Self {
        Self {
            lse: bits(&ws.lse),
            losses: bits(&ws.losses),
            dx: bits(ws.dx.as_slice()),
            mean: ws.mean_loss.to_bits(),
        }
    }

    fn matches(&self, other: &LossBits) -> bool {
        self.lse == other.lse
            && self.losses == other.losses
            && self.dx == other.dx
            && self.mean == other.mean
    }

    /// One digest-file line for the run `label`.
    fn digest_line(&self, label: &str) -> String {
        format!(
            "{label} lse={:016x} loss={:016x} dx={:016x} mean={:016x}",
            fnv1a(&self.lse),
            fnv1a(&self.losses),
            fnv1a(&self.dx),
            self.mean
        )
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
        .max(2)
}

fn main() {
    let _report = lorafusion_bench::report::init_guard("bench_loss");

    let tokens = env_usize("BENCH_LOSS_TOKENS", 512);
    let hidden = env_usize("BENCH_LOSS_HIDDEN", 256);
    let vocab = env_usize("BENCH_LOSS_VOCAB", 4096);
    let shape = format!("{tokens}x{hidden}x{vocab}");
    let digest_path = std::env::var("BENCH_LOSS_DIGEST")
        .ok()
        .filter(|p| !p.is_empty());
    let mut digest_lines: Vec<String> = Vec::new();
    // The digest mode needs each run's bits, not its time.
    let reps = if digest_path.is_some() {
        1
    } else if tokens * vocab > 1 << 20 {
        5
    } else {
        9
    };

    let mut rng = Pcg32::seeded(0x105E);
    let x = Matrix::random_uniform(tokens, hidden, 0.5, &mut rng);
    let w = Matrix::random_uniform(hidden, vocab, 0.5, &mut rng);
    let targets: Vec<u32> = (0..tokens).map(|_| rng.next_u32() % vocab as u32).collect();

    let host = lorafusion_bench::host::host_info();
    let (host_cores, detected_features, simd_path) =
        (host.host_cores, host.detected_features, host.simd_path);
    let row = |kind: String, chunk, threads, seconds, peak, ratio, bitwise| Row {
        kind,
        shape: shape.clone(),
        chunk_tokens: chunk,
        threads,
        host_cores,
        detected_features: detected_features.clone(),
        simd_path: simd_path.clone(),
        seconds,
        peak_logits_elems: peak,
        peak_ratio_vs_unfused: ratio,
        bitwise_equal_to_reference: bitwise,
    };
    let mut rows: Vec<Row> = Vec::new();

    // Serial reference: full logits + dlogits materialized.
    let serial = Pool::new(1);
    let (ref_seconds, ref_bits, ref_peak) = with_pool(&serial, || {
        let mut ws = LinearCeWorkspace::new();
        let seconds = time_median(reps, || {
            reference_linear_ce_into(&mut ws, &x, &w, &targets).unwrap();
        });
        let peak = ws.peak_logits_elems;
        (seconds, LossBits::of(&ws), peak)
    });
    assert_eq!(
        ref_peak,
        2 * tokens * vocab,
        "reference peak must be logits + dlogits"
    );
    digest_lines.push(ref_bits.digest_line("reference t=1"));
    rows.push(row(
        "reference".into(),
        0,
        1,
        ref_seconds,
        ref_peak,
        1.0,
        true,
    ));

    // Chunk sweep, including a ragged chunk that does not divide `tokens`
    // and a chunk larger than the batch. Every entry is gated bitwise.
    let ragged = (tokens / 3).max(1) | 1;
    let mut chunks = vec![
        32.min(tokens),
        ragged,
        loss::DEFAULT_CHUNK_TOKENS.min(tokens),
        tokens,
        tokens * 2,
    ];
    chunks.sort_unstable();
    chunks.dedup();
    for &chunk in &chunks {
        let (seconds, fused_bits, peak) = with_pool(&serial, || {
            let mut ws = LinearCeWorkspace::new();
            let seconds = time_median(reps, || {
                fused_linear_ce_into(&mut ws, &x, &w, &targets, chunk).unwrap();
            });
            let peak = ws.peak_logits_elems;
            (seconds, LossBits::of(&ws), peak)
        });
        let bitwise = fused_bits.matches(&ref_bits);
        assert!(
            bitwise,
            "fused chunk={chunk} diverged from reference bitwise"
        );
        digest_lines.push(fused_bits.digest_line(&format!("fused chunk={chunk} t=1")));
        let ratio = ref_peak as f64 / peak as f64;
        assert!(
            ratio + 1e-9 >= (tokens as f64 / chunk.min(tokens) as f64),
            "peak ratio {ratio} below tokens/chunk at chunk={chunk}"
        );
        rows.push(row("fused".into(), chunk, 1, seconds, peak, ratio, true));
    }

    // Thread sweep: the fused path must be bitwise reproducible and still
    // bitwise-equal to the serial reference at every thread count.
    for threads in [2usize, 4, 8] {
        let chunk = loss::DEFAULT_CHUNK_TOKENS.min(tokens);
        let pool = Pool::new(threads);
        let (seconds, fused_bits, peak) = with_pool(&pool, || {
            let mut ws = LinearCeWorkspace::new();
            let seconds = time_median(reps, || {
                fused_linear_ce_into(&mut ws, &x, &w, &targets, chunk).unwrap();
            });
            let peak = ws.peak_logits_elems;
            (seconds, LossBits::of(&ws), peak)
        });
        assert!(
            fused_bits.matches(&ref_bits),
            "fused loss diverged at {threads} threads"
        );
        digest_lines.push(fused_bits.digest_line(&format!("fused chunk={chunk} t={threads}")));
        rows.push(row(
            "fused".into(),
            chunk,
            threads,
            seconds,
            peak,
            ref_peak as f64 / peak as f64,
            true,
        ));
    }

    if let Some(path) = digest_path {
        let body = digest_lines.join("\n") + "\n";
        std::fs::write(&path, body).expect("failed to write digest file");
        println!(
            "(BENCH_LOSS_DIGEST: wrote {} run digests to {path}; path={simd_path})",
            digest_lines.len()
        );
        return;
    }

    // Elementwise chains: fused vs multi-pass reference, gated bitwise.
    let g = Matrix::random_uniform(tokens, hidden, 1.0, &mut rng);
    let u = Matrix::random_uniform(tokens, hidden, 1.0, &mut rng);
    let dh = Matrix::random_uniform(tokens, hidden, 1.0, &mut rng);
    let nw: Vec<f32> = (0..hidden).map(|_| 0.5 + rng.next_f32()).collect();
    with_pool(&serial, || {
        let (mut y_f, mut y_r) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        let (mut inv_f, mut inv_r) = (Vec::new(), Vec::new());
        let fused_s = time_median(reps, || {
            chains::rmsnorm_forward_fused(&g, &nw, 1e-5, &mut y_f, &mut inv_f).unwrap();
        });
        let ref_s = time_median(reps, || {
            chains::rmsnorm_forward_reference(&g, &nw, 1e-5, &mut y_r, &mut inv_r).unwrap();
        });
        let bitwise = bits(y_f.as_slice()) == bits(y_r.as_slice());
        assert!(bitwise, "fused rmsnorm diverged from multi-pass reference");
        rows.push(row("rmsnorm_reference".into(), 0, 1, ref_s, 0, 1.0, true));
        rows.push(row("rmsnorm_fused".into(), 0, 1, fused_s, 0, 1.0, bitwise));

        let (mut h_f, mut h_r) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        let (mut dg, mut du) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        let (mut dg_r, mut du_r) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        let fused_s = time_median(reps, || {
            chains::swiglu_forward_fused(&g, &u, &mut h_f).unwrap();
            chains::swiglu_backward_fused(&g, &u, &dh, &mut dg, &mut du).unwrap();
        });
        let ref_s = time_median(reps, || {
            chains::swiglu_forward_reference(&g, &u, &mut h_r).unwrap();
            chains::swiglu_backward_reference(&g, &u, &dh, &mut dg_r, &mut du_r).unwrap();
        });
        let bitwise = bits(h_f.as_slice()) == bits(h_r.as_slice())
            && bits(dg.as_slice()) == bits(dg_r.as_slice())
            && bits(du.as_slice()) == bits(du_r.as_slice());
        assert!(bitwise, "fused swiglu diverged from multi-pass reference");
        rows.push(row("swiglu_reference".into(), 0, 1, ref_s, 0, 1.0, true));
        rows.push(row("swiglu_fused".into(), 0, 1, fused_s, 0, 1.0, bitwise));
    });

    // Memory-plan gate: on the Llama-3.1-8B config (vocab 128256) the
    // chunked fused loss must raise the token capacity of an H100.
    let cfg = ModelPreset::Llama8b.config();
    let h100 = DeviceKind::H100Sxm.spec();
    let base = MemoryPlan::for_gpu(&cfg, 4, 16, 1, 1);
    let cap_unfused = base
        .with_loss(
            &cfg,
            LossMode::Unfused {
                microbatch_tokens: 16384,
            },
        )
        .max_tokens_in_flight(&h100);
    let cap_fused = base
        .with_loss(
            &cfg,
            LossMode::Chunked {
                chunk_tokens: loss::SIM_CHUNK_TOKENS as u64,
            },
        )
        .max_tokens_in_flight(&h100);
    assert!(
        cap_fused > cap_unfused,
        "fused loss must raise Llama8b token capacity: {cap_fused} vs {cap_unfused}"
    );
    rows.push(row(
        "memory_plan_llama8b".into(),
        loss::SIM_CHUNK_TOKENS,
        1,
        0.0,
        cap_fused as usize,
        cap_fused as f64 / cap_unfused as f64,
        true,
    ));

    // Simulated lowering: the fused chunked profiles must write fewer
    // DRAM bytes (dlogits is never materialized — the softmax-grad runs in
    // the pack prologue). Total *reads* can go either way: chunking
    // re-streams the `hidden x vocab` weight once per chunk, the price of
    // the `tokens/chunk` memory-footprint reduction.
    let t = TrafficModel::for_device(&h100);
    let written =
        |ps: &[lorafusion_gpu::KernelProfile]| ps.iter().map(|p| p.bytes_written).sum::<u64>();
    let (uf, ub) = loss::unfused_profiles(16384, cfg.hidden, cfg.vocab, &t);
    let (ff, fb) = loss::fused_profiles(16384, cfg.hidden, cfg.vocab, loss::SIM_CHUNK_TOKENS, &t);
    assert!(
        written(&ff) + written(&fb) < written(&uf) + written(&ub),
        "fused lowering must write fewer DRAM bytes"
    );

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.kind.clone(),
                r.chunk_tokens.to_string(),
                r.threads.to_string(),
                fmt(r.seconds * 1e3, 3),
                r.peak_logits_elems.to_string(),
                fmt(r.peak_ratio_vs_unfused, 2),
                r.bitwise_equal_to_reference.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("Chunked fused linear+CE ({shape}, median of per-iteration times)"),
        &[
            "kind",
            "chunk",
            "threads",
            "ms/step",
            "peak logits elems",
            "peak vs unfused",
            "bitwise=ref",
        ],
        &table,
    );

    report::scalar(
        "bench_loss.best_peak_ratio_vs_unfused",
        rows.iter()
            .map(|r| r.peak_ratio_vs_unfused)
            .fold(0.0, f64::max),
    );
    // Flush loss.*/chains.* counters into the trace counter tracks.
    lorafusion_trace::metrics::sample_counters();

    let write = std::env::var("BENCH_LOSS_WRITE")
        .map(|v| v != "0" && v.to_lowercase() != "false")
        .unwrap_or(true);
    if write {
        write_json("BENCH_loss", &rows);
    } else {
        println!("(BENCH_LOSS_WRITE=0: skipping results/BENCH_loss.json)");
    }
}
