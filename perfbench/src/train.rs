//! The training workloads: a small Llama-shaped stack of multi-adapter
//! blocks, trained on an Algorithm-1 schedule.
//!
//! Each block runs RMSNorm → LoRA v/o → residual → RMSNorm → LoRA gate/up
//! → SwiGLU → LoRA down → residual; the chunked fused linear+CE head
//! follows the last block. There is no token mixing (the library has no
//! attention). Every microbatch runs each projection as one FusedMultiLoRA
//! call over its adapter segments with real token counts, and each adapter
//! takes its AdamW step when the last sample of one of its global batches
//! has been through backward.
//!
//! A *pass* trains the whole schedule from the initial weights; the run
//! repeats passes until its time is up, so every pass must produce the
//! same loss trajectory bit for bit.

use std::collections::BTreeMap;

use lorafusion::AdamW;
use lorafusion_data::{Dataset, DatasetPreset, LengthDistribution};
use lorafusion_gpu::DeviceKind;
use lorafusion_kernels::loss::{self, LinearCeWorkspace};
use lorafusion_kernels::multi::{self, ForwardOutput, Saved};
use lorafusion_kernels::{
    chains, reference, AdapterWeights, KernelError, LoraConfig, LoraGrads, MultiLoraLayer, Segment,
    TrafficModel,
};
use lorafusion_sched::{schedule_jobs, AdapterJob, Microbatch, Schedule, SchedulerConfig};
use lorafusion_tensor::ops::max_abs_diff;
use lorafusion_tensor::{Matrix, Pcg32};
use lorafusion_trace::{now_ns, span};

use crate::layers::{set_tracing, SelfTimes};
use crate::passes::{check_repeat, Passes};
use crate::report::{Counters, Outcome};
use crate::stats::{median, percentile, tail_per_mille, Digest, Tally};
use crate::Run;

type Result<T> = core::result::Result<T, KernelError>;

/// Shape of one training workload.
pub struct Spec {
    /// One adapter per entry, trained on that dataset's lengths.
    presets: &'static [DatasetPreset],
    samples_per_adapter: usize,
    /// Samples per AdamW step of one adapter.
    global_batch: usize,
    hidden: usize,
    ffn: usize,
    blocks: usize,
    vocab: usize,
}

use DatasetPreset::{CnnDailyMail, Mixed, WikiSum, XSum};

/// Heterogeneous lengths (Fig. 14's mixed column): the LoRA projections
/// carry the work and the scheduler has real packing choices.
pub const HET: Spec = Spec {
    presets: &[XSum, CnnDailyMail, WikiSum, Mixed],
    samples_per_adapter: 64,
    global_batch: 16,
    hidden: 256,
    ffn: 512,
    blocks: 2,
    vocab: 512,
};

/// A large vocabulary behind one block: the chunked linear+CE head carries
/// the work, and eight short-sequence adapters step often.
pub const HEAD: Spec = Spec {
    presets: &[XSum; 8],
    samples_per_adapter: 12,
    global_batch: 4,
    hidden: 128,
    ffn: 256,
    blocks: 1,
    vocab: 8192,
};

/// Microbatch token capacity; sample lengths are scaled so the longest
/// sample a workload's presets can produce fills exactly one microbatch.
const CAPACITY: usize = 512;
const RANK: usize = 16;
/// Per-adapter padding multiple, scaled down with the lengths.
const PADDING: usize = 8;
/// Consecutive global batches of an adapter never share a microbatch at
/// two stages, which the sequential AdamW boundaries rely on.
const STAGES: usize = 2;
/// The MILP packer stops on a wall-clock timeout: on these workloads every
/// packing hit it and the MILP's selection varied between set-ups of one
/// process, so its schedule is not fixed. The greedy + merge path is.
const USE_MILP: bool = false;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
const NORM_EPS: f32 = 1e-5;
const LEARNING_RATE: f32 = 1e-3;

/// Projection slots of a block.
const V: usize = 0;
const O: usize = 1;
const GATE: usize = 2;
const UP: usize = 3;
const DOWN: usize = 4;
const PROJECTIONS: usize = 5;

#[derive(Clone)]
struct Block {
    norm1: Vec<f32>,
    norm2: Vec<f32>,
    proj: [MultiLoraLayer; PROJECTIONS],
}

#[derive(Clone)]
struct Model {
    /// Frozen token embedding, `vocab x hidden`.
    embed: Matrix,
    blocks: Vec<Block>,
    /// Frozen LM head, `hidden x vocab`.
    head: Matrix,
}

/// Everything built before the first timed microbatch.
struct Setup {
    jobs: Vec<AdapterJob>,
    /// Input token ids per adapter and sample id.
    tokens: Vec<Vec<Vec<u32>>>,
    model: Model,
    schedule: Schedule,
}

/// Largest length a distribution can produce.
fn max_len(d: &LengthDistribution) -> usize {
    match d {
        LengthDistribution::Fixed { len } => *len,
        LengthDistribution::Uniform { max, .. } | LengthDistribution::LogNormal { max, .. } => *max,
        LengthDistribution::Mixture { components } => components
            .iter()
            .map(|(_, c)| max_len(c))
            .max()
            .unwrap_or(1),
    }
}

/// Target token of input token `t` for `adapter`: an adapter-specific
/// bijection of the vocabulary (vocab is a power of two, the multiplier odd).
fn target(t: u32, adapter: usize, vocab: usize) -> u32 {
    let a = adapter as u64;
    ((t as u64 * (2 * a + 3) + 7 * a + 1) % vocab as u64) as u32
}

fn projection(k: usize, n: usize, spec: &Spec, seed: u64, rng: &mut Pcg32) -> MultiLoraLayer {
    let adapters = (0..spec.presets.len())
        .map(|a| {
            let config = LoraConfig {
                rank: RANK,
                alpha: 2.0,
                dropout: 0.1,
                seed: seed.wrapping_mul(31).wrapping_add(a as u64),
            };
            AdapterWeights::init(k, n, config, rng)
        })
        .collect();
    MultiLoraLayer {
        w: Matrix::random_gaussian(k, n, 1.0 / (k as f32).sqrt(), rng),
        adapters,
    }
}

fn setup(spec: &Spec, seed: u64, threads: usize) -> core::result::Result<Setup, String> {
    let scale_max = spec
        .presets
        .iter()
        .map(|p| max_len(&p.distribution()))
        .max()
        .unwrap_or(1);
    let (jobs, tokens) = {
        let _span = span!("perf.data.generate");
        let mut jobs = Vec::new();
        let mut tokens = Vec::new();
        for (a, &preset) in spec.presets.iter().enumerate() {
            let mut data = Dataset::from_preset(
                preset,
                spec.samples_per_adapter,
                seed.wrapping_mul(1000).wrapping_add(a as u64),
            );
            // One constant per workload keeps each preset's relative spread.
            for s in &mut data.samples {
                s.len = (s.len * CAPACITY).div_ceil(scale_max).max(1);
            }
            let mut rng = Pcg32::seeded(seed ^ (0x70CE_0000 + a as u64));
            tokens.push(
                data.samples
                    .iter()
                    .map(|s| {
                        (0..s.len)
                            .map(|_| rng.next_bounded(spec.vocab as u32))
                            .collect()
                    })
                    .collect(),
            );
            jobs.push(AdapterJob {
                adapter: a,
                samples: data.samples,
                global_batch_size: spec.global_batch,
            });
        }
        (jobs, tokens)
    };

    let mut rng = Pcg32::seeded(seed ^ 0x5EED_0F3D);
    let (h, f) = (spec.hidden, spec.ffn);
    let model = Model {
        embed: Matrix::random_gaussian(spec.vocab, h, 1.0, &mut rng),
        blocks: (0..spec.blocks)
            .map(|b| {
                let s = seed.wrapping_add(100 * b as u64);
                Block {
                    norm1: vec![1.0; h],
                    norm2: vec![1.0; h],
                    proj: [
                        projection(h, h, spec, s, &mut rng),
                        projection(h, h, spec, s + 1, &mut rng),
                        projection(h, f, spec, s + 2, &mut rng),
                        projection(h, f, spec, s + 3, &mut rng),
                        projection(f, h, spec, s + 4, &mut rng),
                    ],
                }
            })
            .collect(),
        head: Matrix::random_gaussian(h, spec.vocab, 1.0 / (h as f32).sqrt(), &mut rng),
    };

    let config = SchedulerConfig {
        capacity: CAPACITY,
        pipeline_stages: STAGES,
        padding_multiple: PADDING,
        threads,
        use_milp: USE_MILP,
        ..SchedulerConfig::default()
    };
    let schedule = {
        let _span = span!("perf.scheduler.schedule");
        schedule_jobs(&jobs, &config).map_err(|e| format!("schedule_jobs: {e}"))?
    };
    // Each adapter's entries in a microbatch must come from one global
    // batch, or its AdamW boundary would fall inside the microbatch.
    for mb in &schedule.microbatches {
        let mut seen: BTreeMap<usize, usize> = BTreeMap::new();
        for e in &mb.entries {
            if *seen.entry(e.adapter).or_insert(e.global_batch) != e.global_batch {
                return Err("a microbatch mixes two global batches of one adapter".into());
            }
        }
    }
    Ok(Setup {
        jobs,
        tokens,
        model,
        schedule,
    })
}

fn bitwise(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Largest absolute difference relative to the largest reference value.
fn rel_diff(got: &Matrix, want: &Matrix) -> Result<f64> {
    let scale = want
        .as_slice()
        .iter()
        .fold(0.0f64, |m, v| m.max(v.abs() as f64));
    Ok(max_abs_diff(got, want)? / scale.max(1e-12))
}

/// `a += b`, elementwise.
fn add_into(a: &mut Matrix, b: &Matrix) {
    for (x, y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x += y;
    }
}

/// Kernel calls with their spans, accounting and (in check mode) the
/// comparison against the references.
struct Kernels {
    traffic: TrafficModel,
    ws: LinearCeWorkspace,
    check: bool,
    mismatches: Vec<String>,
    multi_flops: f64,
    peak_logits_elems: usize,
}

impl Kernels {
    fn lora_fwd(
        &mut self,
        layer: &MultiLoraLayer,
        x: &Matrix,
        segs: &[Segment],
    ) -> Result<ForwardOutput> {
        let out = {
            let _span = span!("perf.kernels.multi.forward");
            multi::forward(layer, x, segs, &self.traffic)?
        };
        self.multi_flops += out.kernels.iter().map(|k| k.flops).sum::<f64>();
        if self.check {
            self.check_lora(layer, x, segs, &out)?;
        }
        Ok(out)
    }

    /// Forward must equal per-segment `reference::forward` bitwise; the
    /// backward on a probe gradient must agree to rounding.
    fn check_lora(
        &mut self,
        layer: &MultiLoraLayer,
        x: &Matrix,
        segs: &[Segment],
        out: &ForwardOutput,
    ) -> Result<()> {
        let mut rng = Pcg32::seeded(0xC4EC);
        let dy = Matrix::random_uniform(x.rows(), layer.n(), 1.0, &mut rng);
        let bwd = multi::backward(layer, &out.saved, &dy, &self.traffic)?;
        for seg in segs {
            let single = layer.as_single(seg.adapter)?;
            let xs = x.slice_rows(seg.start, seg.end)?;
            let want = reference::forward(&single, &xs, seg.dropout_row_offset, &self.traffic)?;
            let got = out.y.slice_rows(seg.start, seg.end)?;
            if !bitwise(got.as_slice(), want.y.as_slice()) {
                self.mismatches
                    .push(format!("multi::forward adapter {}", seg.adapter));
            }
            let dys = dy.slice_rows(seg.start, seg.end)?;
            let want_b = reference::backward(&single, &want.saved, &dys, &self.traffic)?;
            let got_dx = bwd.dx.slice_rows(seg.start, seg.end)?;
            let g = &bwd.grads[&seg.adapter];
            let worst = rel_diff(&got_dx, &want_b.dx)?
                .max(rel_diff(&g.da, &want_b.grads.da)?)
                .max(rel_diff(&g.db, &want_b.grads.db)?);
            if worst > 1e-4 {
                self.mismatches.push(format!(
                    "multi::backward adapter {} off by {worst:e}",
                    seg.adapter
                ));
            }
        }
        Ok(())
    }

    fn lora_bwd(
        &mut self,
        layer: &MultiLoraLayer,
        saved: &Saved,
        dy: &Matrix,
    ) -> Result<multi::BackwardOutput> {
        let out = {
            let _span = span!("perf.kernels.multi.backward");
            multi::backward(layer, saved, dy, &self.traffic)?
        };
        self.multi_flops += out.kernels.iter().map(|k| k.flops).sum::<f64>();
        Ok(out)
    }

    fn rmsnorm(&mut self, x: &Matrix, w: &[f32]) -> Result<(Matrix, Vec<f32>)> {
        let (mut y, mut inv) = (Matrix::zeros(0, 0), Vec::new());
        {
            let _span = span!("perf.kernels.chains.rmsnorm");
            chains::rmsnorm_forward_fused(x, w, NORM_EPS, &mut y, &mut inv)?;
        }
        if self.check {
            let (mut ry, mut rinv) = (Matrix::zeros(0, 0), Vec::new());
            chains::rmsnorm_forward_reference(x, w, NORM_EPS, &mut ry, &mut rinv)?;
            if !bitwise(y.as_slice(), ry.as_slice()) || !bitwise(&inv, &rinv) {
                self.mismatches.push("rmsnorm forward".into());
            }
        }
        Ok((y, inv))
    }

    fn rmsnorm_bwd(&mut self, x: &Matrix, w: &[f32], inv: &[f32], dy: &Matrix) -> Result<Matrix> {
        let mut dx = Matrix::zeros(0, 0);
        {
            let _span = span!("perf.kernels.chains.rmsnorm");
            chains::rmsnorm_backward_fused(x, w, inv, dy, &mut dx)?;
        }
        if self.check {
            let mut rdx = Matrix::zeros(0, 0);
            chains::rmsnorm_backward_reference(x, w, inv, dy, &mut rdx)?;
            if !bitwise(dx.as_slice(), rdx.as_slice()) {
                self.mismatches.push("rmsnorm backward".into());
            }
        }
        Ok(dx)
    }

    fn swiglu(&mut self, g: &Matrix, u: &Matrix) -> Result<Matrix> {
        let mut h = Matrix::zeros(0, 0);
        {
            let _span = span!("perf.kernels.chains.swiglu");
            chains::swiglu_forward_fused(g, u, &mut h)?;
        }
        if self.check {
            let mut rh = Matrix::zeros(0, 0);
            chains::swiglu_forward_reference(g, u, &mut rh)?;
            if !bitwise(h.as_slice(), rh.as_slice()) {
                self.mismatches.push("swiglu forward".into());
            }
        }
        Ok(h)
    }

    fn swiglu_bwd(&mut self, g: &Matrix, u: &Matrix, dh: &Matrix) -> Result<(Matrix, Matrix)> {
        let (mut dg, mut du) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        {
            let _span = span!("perf.kernels.chains.swiglu");
            chains::swiglu_backward_fused(g, u, dh, &mut dg, &mut du)?;
        }
        if self.check {
            let (mut rdg, mut rdu) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
            chains::swiglu_backward_reference(g, u, dh, &mut rdg, &mut rdu)?;
            if !bitwise(dg.as_slice(), rdg.as_slice()) || !bitwise(du.as_slice(), rdu.as_slice()) {
                self.mismatches.push("swiglu backward".into());
            }
        }
        Ok((dg, du))
    }

    /// Loss, per-token losses and `dX` of the head land in `self.ws`.
    fn head(&mut self, x: &Matrix, w: &Matrix, targets: &[u32]) -> Result<()> {
        {
            let _span = span!("perf.kernels.loss.head");
            loss::fused_linear_ce_into(&mut self.ws, x, w, targets, loss::DEFAULT_CHUNK_TOKENS)?;
        }
        self.peak_logits_elems = self.peak_logits_elems.max(self.ws.peak_logits_elems);
        if self.check {
            let mut r = LinearCeWorkspace::new();
            loss::reference_linear_ce_into(&mut r, x, w, targets)?;
            let same = bitwise(&self.ws.losses, &r.losses)
                && bitwise(&self.ws.lse, &r.lse)
                && bitwise(self.ws.dx.as_slice(), r.dx.as_slice())
                && self.ws.mean_loss.to_bits() == r.mean_loss.to_bits();
            if !same {
                self.mismatches.push("fused linear+CE".into());
            }
        }
        Ok(())
    }
}

/// Activations one block saves for its backward pass.
struct BlockActs {
    x_in: Matrix,
    inv1: Vec<f32>,
    v: Saved,
    o: Saved,
    x_mid: Matrix,
    inv2: Vec<f32>,
    g_y: Matrix,
    g: Saved,
    u_y: Matrix,
    u: Saved,
    d: Saved,
}

/// Training state of one pass.
struct Trainer<'a> {
    spec: &'a Spec,
    setup: &'a Setup,
    model: Model,
    kernels: Kernels,
    /// Gradient accumulators per projection (block-major) and adapter.
    grads: Vec<Vec<LoraGrads>>,
    /// AdamW state of `A` and `B` per projection and adapter.
    optimizers: Vec<Vec<(AdamW, AdamW)>>,
    /// Samples still to run per (adapter, global batch).
    remaining: BTreeMap<(usize, usize), usize>,
    /// Tokens each adapter has seen this pass: its dropout stream offset.
    cursor: Vec<usize>,
    /// Index of each adapter's last global batch.
    last_batch: Vec<usize>,
    optimizer_steps: u64,
    segments: u64,
    loss_digest: Digest,
    /// Loss sum and token count of each adapter's last global batch.
    last_losses: Vec<(f64, usize)>,
}

fn projections(model: &Model) -> impl Iterator<Item = &MultiLoraLayer> {
    model.blocks.iter().flat_map(|b| b.proj.iter())
}

impl<'a> Trainer<'a> {
    fn new(spec: &'a Spec, setup: &'a Setup) -> Self {
        let mut t = Self {
            spec,
            setup,
            model: setup.model.clone(),
            kernels: Kernels {
                traffic: TrafficModel::for_device(&DeviceKind::H100Sxm.spec()),
                ws: LinearCeWorkspace::new(),
                check: false,
                mismatches: Vec::new(),
                multi_flops: 0.0,
                peak_logits_elems: 0,
            },
            grads: Vec::new(),
            optimizers: Vec::new(),
            remaining: BTreeMap::new(),
            cursor: Vec::new(),
            last_batch: setup
                .jobs
                .iter()
                .map(|j| j.num_global_batches() - 1)
                .collect(),
            optimizer_steps: 0,
            segments: 0,
            loss_digest: Digest::default(),
            last_losses: Vec::new(),
        };
        t.reset();
        t
    }

    /// Back to the initial adapters and a fresh optimizer, so every pass
    /// computes the same thing. The base weights are frozen.
    fn reset(&mut self) {
        let init = &self.setup.model;
        let layers = self.model.blocks.iter_mut().flat_map(|b| b.proj.iter_mut());
        for (layer, start) in layers.zip(projections(init)) {
            layer.adapters.clone_from(&start.adapters);
        }
        let adapters = self.spec.presets.len();
        self.grads = projections(init)
            .map(|l| {
                l.adapters
                    .iter()
                    .map(|a| LoraGrads::zeros(l.k(), l.n(), a.config.rank))
                    .collect()
            })
            .collect();
        self.optimizers = projections(init)
            .map(|l| {
                l.adapters
                    .iter()
                    .map(|a| {
                        (
                            AdamW::new(a.a.rows(), a.a.cols(), LEARNING_RATE),
                            AdamW::new(a.b.rows(), a.b.cols(), LEARNING_RATE),
                        )
                    })
                    .collect()
            })
            .collect();
        self.remaining.clear();
        for job in &self.setup.jobs {
            for j in 0..job.num_global_batches() {
                self.remaining
                    .insert((job.adapter, j), job.global_batch(j).len());
            }
        }
        self.cursor = vec![0; adapters];
        self.optimizer_steps = 0;
        self.segments = 0;
        self.loss_digest = Digest::default();
        self.last_losses = vec![(0.0, 0); adapters];
    }

    /// Mean cross-entropy over each adapter's last global batch, averaged
    /// over adapters.
    fn final_loss(&self) -> f64 {
        let per: Vec<f64> = self
            .last_losses
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(s, n)| s / *n as f64)
            .collect();
        per.iter().sum::<f64>() / per.len().max(1) as f64
    }

    fn adam_step(&mut self, adapter: usize) {
        let _span = span!("perf.core.optimizer.step");
        let layers = self.model.blocks.iter_mut().flat_map(|b| b.proj.iter_mut());
        for ((layer, grads), opts) in layers.zip(&mut self.grads).zip(&mut self.optimizers) {
            let (g, w, (oa, ob)) = (
                &mut grads[adapter],
                &mut layer.adapters[adapter],
                &mut opts[adapter],
            );
            oa.step(&mut w.a, &g.da);
            ob.step(&mut w.b, &g.db);
            g.da.as_mut_slice().fill(0.0);
            g.db.as_mut_slice().fill(0.0);
        }
        self.optimizer_steps += 1;
    }

    /// Adds a backward call's adapter gradients to the accumulators of
    /// projection `index` (block-major).
    fn accumulate(&mut self, index: usize, out: &multi::BackwardOutput) -> Result<()> {
        for (&a, g) in &out.grads {
            self.grads[index][a].accumulate(g)?;
        }
        Ok(())
    }

    /// One microbatch: forward, head, backward and any AdamW steps it
    /// completes.
    fn step(&mut self, mb: &Microbatch) -> Result<()> {
        let _op = span!("perf.op");
        let spec = self.spec;
        // Adapter-contiguous order: one segment per adapter.
        let mut entries = mb.entries.clone();
        entries.sort_by_key(|e| e.adapter);
        let mut segs: Vec<Segment> = Vec::new();
        let mut batch_of: Vec<usize> = Vec::new();
        let mut row = 0;
        for e in &entries {
            match segs.last_mut() {
                Some(s) if s.adapter == e.adapter => s.end += e.sample.len,
                _ => {
                    segs.push(Segment {
                        adapter: e.adapter,
                        start: row,
                        end: row + e.sample.len,
                        dropout_row_offset: self.cursor[e.adapter],
                    });
                    batch_of.push(e.global_batch);
                }
            }
            row += e.sample.len;
        }
        let m = row;
        let h = spec.hidden;
        let mut x = Matrix::zeros(m, h);
        let mut targets = Vec::with_capacity(m);
        let mut r = 0;
        for e in &entries {
            for &t in &self.setup.tokens[e.adapter][e.sample.id as usize] {
                let src = &self.model.embed.as_slice()[t as usize * h..(t as usize + 1) * h];
                x.as_mut_slice()[r * h..(r + 1) * h].copy_from_slice(src);
                targets.push(target(t, e.adapter, spec.vocab));
                r += 1;
            }
        }
        self.segments += segs.len() as u64;

        let k = &mut self.kernels;
        let mut acts = Vec::with_capacity(self.model.blocks.len());
        for blk in &self.model.blocks {
            let (n1, inv1) = k.rmsnorm(&x, &blk.norm1)?;
            let v = k.lora_fwd(&blk.proj[V], &n1, &segs)?;
            let o = k.lora_fwd(&blk.proj[O], &v.y, &segs)?;
            let mut x_mid = x.clone();
            add_into(&mut x_mid, &o.y);
            let (n2, inv2) = k.rmsnorm(&x_mid, &blk.norm2)?;
            let g = k.lora_fwd(&blk.proj[GATE], &n2, &segs)?;
            let u = k.lora_fwd(&blk.proj[UP], &n2, &segs)?;
            let hid = k.swiglu(&g.y, &u.y)?;
            let d = k.lora_fwd(&blk.proj[DOWN], &hid, &segs)?;
            let mut x_out = x_mid.clone();
            add_into(&mut x_out, &d.y);
            acts.push(BlockActs {
                x_in: std::mem::replace(&mut x, x_out),
                inv1,
                v: v.saved,
                o: o.saved,
                x_mid,
                inv2,
                g_y: g.y,
                g: g.saved,
                u_y: u.y,
                u: u.saved,
                d: d.saved,
            });
        }
        k.head(&x, &self.model.head, &targets)?;

        let mut dx = self.kernels.ws.dx.clone();
        for b in (0..self.model.blocks.len()).rev() {
            let a = acts.pop().expect("one activation set per block");
            let base = b * PROJECTIONS;
            let blk = &self.model.blocks[b];
            let k = &mut self.kernels;
            let bd = k.lora_bwd(&blk.proj[DOWN], &a.d, &dx)?;
            let (dg, du) = k.swiglu_bwd(&a.g_y, &a.u_y, &bd.dx)?;
            let bg = k.lora_bwd(&blk.proj[GATE], &a.g, &dg)?;
            let bu = k.lora_bwd(&blk.proj[UP], &a.u, &du)?;
            let mut dn2 = bg.dx.clone();
            add_into(&mut dn2, &bu.dx);
            let dxm = k.rmsnorm_bwd(&a.x_mid, &blk.norm2, &a.inv2, &dn2)?;
            add_into(&mut dx, &dxm);
            let bo = k.lora_bwd(&blk.proj[O], &a.o, &dx)?;
            let bv = k.lora_bwd(&blk.proj[V], &a.v, &bo.dx)?;
            // The embedding is frozen: block 0's input gradient is unused.
            if b > 0 {
                let dxi = k.rmsnorm_bwd(&a.x_in, &blk.norm1, &a.inv1, &bv.dx)?;
                add_into(&mut dx, &dxi);
            }
            self.accumulate(base + DOWN, &bd)?;
            self.accumulate(base + GATE, &bg)?;
            self.accumulate(base + UP, &bu)?;
            self.accumulate(base + O, &bo)?;
            self.accumulate(base + V, &bv)?;
        }

        // Loss bookkeeping, then the AdamW boundaries this microbatch closes.
        self.loss_digest.mix(self.kernels.ws.mean_loss.to_bits());
        self.loss_digest.mix_f32s(&self.kernels.ws.losses);
        for (seg, &gb) in segs.iter().zip(&batch_of) {
            self.cursor[seg.adapter] += seg.len();
            if gb == self.last_batch[seg.adapter] {
                let sum: f64 = self.kernels.ws.losses[seg.start..seg.end]
                    .iter()
                    .map(|&l| l as f64)
                    .sum();
                let slot = &mut self.last_losses[seg.adapter];
                slot.0 += sum;
                slot.1 += seg.len();
            }
        }
        for e in &entries {
            let left = self
                .remaining
                .get_mut(&(e.adapter, e.global_batch))
                .expect("every scheduled sample belongs to a global batch");
            *left -= 1;
            if *left == 0 {
                self.adam_step(e.adapter);
            }
        }
        Ok(())
    }
}

/// Per-pass results that must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PassResult {
    loss_digest: u64,
    final_loss: f64,
    optimizer_steps: u64,
}

pub fn run(spec: &Spec, run: &Run) -> Outcome {
    let mut self_times = SelfTimes::default();
    set_tracing(run.trace);
    let before_setup = Counters::now();
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        let t = now_ns();
        let s = setup(spec, run.seed, run.threads);
        setup_s.push((now_ns() - t) as f64 / 1e9);
        built = Some(s);
    }
    let setups = Counters::now();
    let setup = match built.expect("at least one set-up") {
        Ok(s) => s,
        Err(e) => return Outcome::failed(e),
    };
    self_times.collect();
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    let per_setup = |name: &str| setups.since(&before_setup, name) / SETUPS as f64;
    metrics.insert(
        "data.generate_s",
        self_times.seconds("data.generate") / SETUPS as f64,
    );
    metrics.insert(
        "scheduler.schedule_s",
        self_times.seconds("scheduler.schedule") / SETUPS as f64,
    );
    metrics.insert("scheduler.packings", per_setup("scheduler.packings"));
    metrics.insert(
        "scheduler.milp_selected",
        per_setup("scheduler.milp_selected"),
    );
    let stats = &setup.schedule.stats;
    let timed_out = if USE_MILP {
        stats.packings - stats.milp_optimal
    } else {
        0
    };
    metrics.insert("scheduler.timed_out_packings", timed_out as f64);
    let real: Vec<&Microbatch> = setup
        .schedule
        .microbatches
        .iter()
        .filter(|m| !m.noop)
        .collect();
    metrics.insert("scheduler.microbatches", real.len() as f64);
    metrics.insert("scheduler.noops", stats.noops_inserted as f64);
    let real_tokens: usize = real.iter().map(|m| m.real_tokens()).sum();
    let padded: usize = real.iter().map(|m| m.padded_tokens(PADDING)).sum();
    metrics.insert(
        "scheduler.pad_efficiency",
        real_tokens as f64 / padded as f64,
    );
    // Packing quality: microbatches over the fewest any packing could use.
    let lower_bound = setup
        .jobs
        .iter()
        .map(|j| {
            j.samples
                .iter()
                .map(|s| s.len)
                .sum::<usize>()
                .div_ceil(PADDING)
                * PADDING
        })
        .sum::<usize>()
        .div_ceil(CAPACITY);
    metrics.insert(
        "bins_over_lb",
        real.len() as f64 / lower_bound.max(1) as f64,
    );
    metrics.insert("setup_s", median(&mut setup_s));
    let mut schedule_digest = Digest::default();
    for mb in &setup.schedule.microbatches {
        schedule_digest.mix(mb.entries.len() as u64);
        for e in &mb.entries {
            schedule_digest.mix(((e.adapter as u64) << 48) ^ e.sample.id);
        }
    }

    // Output check on the first microbatch, before anything is timed. Every
    // `B` starts at zero, so the check gives them values to cover the
    // up-projection; the first pass's reset restores them.
    set_tracing(false);
    let mut trainer = Trainer::new(spec, &setup);
    let mut rng = Pcg32::seeded(run.seed ^ 0xB0);
    for layer in trainer
        .model
        .blocks
        .iter_mut()
        .flat_map(|b| b.proj.iter_mut())
    {
        for a in &mut layer.adapters {
            a.b = Matrix::random_gaussian(a.b.rows(), a.b.cols(), 0.05, &mut rng);
        }
    }
    trainer.kernels.check = true;
    let checked = trainer.step(real[0]);
    trainer.kernels.check = false;
    let mut mismatches = std::mem::take(&mut trainer.kernels.mismatches);
    if let Err(e) = checked {
        mismatches.push(format!("check microbatch failed: {e}"));
    }
    lorafusion_trace::span::drain_all_events();

    let mut tally = Tally::default();
    let mut op_ms: Vec<f64> = Vec::new();
    // Each microbatch's time in every untraced pass.
    let mut mb_s: Vec<Vec<f64>> = vec![Vec::new(); real.len()];
    let mut first: Option<PassResult> = None;
    let mut first_counts: Option<(Counters, Counters)> = None;
    let mut multi_flops = 0.0;
    let mut passes = Passes::new(run);
    while let Some(traced) = passes.next() {
        trainer.reset();
        trainer.kernels.multi_flops = 0.0;
        set_tracing(traced);
        let before = Counters::now();
        let mut pass_s = 0.0;
        for (i, mb) in real.iter().enumerate() {
            let t = now_ns();
            let result = trainer.step(mb);
            let dt = (now_ns() - t) as f64 / 1e9;
            tally.record(&result);
            pass_s += dt;
            if traced {
                self_times.collect();
            } else {
                op_ms.push(dt * 1e3);
                mb_s[i].push(dt);
            }
        }
        let after = Counters::now();
        set_tracing(false);
        let result = PassResult {
            loss_digest: trainer.loss_digest.value(),
            final_loss: trainer.final_loss(),
            optimizer_steps: trainer.optimizer_steps,
        };
        check_repeat(&mut first, result, passes.count(), &mut mismatches);
        passes.record(traced, pass_s);
        first_counts.get_or_insert((before, after));
        if traced {
            multi_flops += trainer.kernels.multi_flops;
        }
    }
    let first = first.expect("at least one pass");

    // A microbatch's time is its median over the untraced passes, so a
    // burst of interference from the host moves one sample, not the metric.
    let loop_s: f64 = mb_s.iter_mut().map(|t| median(t)).sum();
    metrics.insert("tokens_per_s", real_tokens as f64 / loop_s);
    metrics.insert("ops_per_s", real.len() as f64 / loop_s);
    op_ms.sort_by(f64::total_cmp);
    metrics.insert("op_ms.p50", percentile(&op_ms, 500));
    metrics.insert("op_ms.p90", percentile(&op_ms, 900));
    metrics.insert("train.final_loss", first.final_loss);

    if run.trace {
        let per_pass = |layer: &str| self_times.seconds(layer) / passes.traced() as f64;
        let loop_pass_s = passes.traced_seconds() / passes.traced() as f64;
        for (metric, share, layer) in [
            (
                "kernels.multi.forward_s",
                "kernels.multi.forward.share",
                "kernels.multi.forward",
            ),
            (
                "kernels.multi.backward_s",
                "kernels.multi.backward.share",
                "kernels.multi.backward",
            ),
            (
                "kernels.chains.rmsnorm_s",
                "kernels.chains.rmsnorm.share",
                "kernels.chains.rmsnorm",
            ),
            (
                "kernels.chains.swiglu_s",
                "kernels.chains.swiglu.share",
                "kernels.chains.swiglu",
            ),
            (
                "kernels.loss.head_s",
                "kernels.loss.head.share",
                "kernels.loss.head",
            ),
            (
                "core.optimizer.step_s",
                "core.optimizer.step.share",
                "core.optimizer.step",
            ),
            ("bench.glue_s", "bench.glue.share", "op"),
        ] {
            metrics.insert(metric, per_pass(layer));
            metrics.insert(share, per_pass(layer) / loop_pass_s);
        }
        let multi_s = self_times.seconds("kernels.multi.forward")
            + self_times.seconds("kernels.multi.backward");
        metrics.insert("kernels.multi.gflops", multi_flops / multi_s / 1e9);
        metrics.insert(
            "kernels.multi.segments_per_mb",
            trainer.segments as f64 / real.len() as f64,
        );
        metrics.insert(
            "kernels.loss.peak_logits_mb",
            (trainer.kernels.peak_logits_elems * 4) as f64 / (1 << 20) as f64,
        );
        metrics.insert("core.optimizer.steps", first.optimizer_steps as f64);
        let (before, after) = first_counts.expect("a pass ran");
        after.insert_pass_deltas(&before, &mut metrics);
        metrics.insert("trace.overhead", passes.overhead());
    }

    let tail =
        tail_per_mille(op_ms.len()).map_or("none".into(), |pm| format!("p{}", pm as f64 / 10.0));
    Outcome {
        correct: mismatches.is_empty() && tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        meta: vec![
            ("passes", passes.summary()),
            ("microbatches", real.len().to_string()),
            ("tokens_per_pass", real_tokens.to_string()),
            ("timed_samples", op_ms.len().to_string()),
            ("tail_percentile", tail),
            ("error_rate", tally.error_rate().to_string()),
            ("use_milp", USE_MILP.to_string()),
            ("timed_out_packings", timed_out.to_string()),
            (
                "schedule_digest",
                format!("{:016x}", schedule_digest.value()),
            ),
            ("loss_digest", format!("{:016x}", first.loss_digest)),
            ("final_loss", first.final_loss.to_string()),
            ("mismatches", mismatches.join("; ")),
        ],
    }
}
