//! FusedMultiLoRA — tile-level routing of heterogeneous adapters (Fig. 11).
//!
//! A microbatch produced by the multi-LoRA scheduler contains contiguous
//! token *segments* belonging to different fine-tuning jobs. The frozen
//! base computation (`X W`, `dY Wᵀ`) is shared across all tokens; adapter
//! specific work (dropout seed, rank, scaling, `A`/`B` weights, gradient
//! routing) is selected per tile from a lookup table. This module models
//! that behaviour functionally per segment and lowers the whole microbatch
//! to *one* kernel launch per fusion site, with the tile-routing overhead
//! captured by [`lorafusion_gpu::KernelClass::FusedGemm`]'s `adapters`
//! field.

use std::collections::BTreeMap;

use lorafusion_gpu::{KernelClass, KernelProfile};
use lorafusion_tensor::matmul::{gemm_windows_on, Epilogue, Layout, Prologue};
use lorafusion_tensor::pool;
use lorafusion_tensor::{matmul_nn, matmul_nt, DropoutSpec, Matrix};

use crate::lora::{AdapterWeights, LoraGrads, LoraLayer};
use crate::traffic::TrafficModel;
use crate::{KernelError, Result};

/// A contiguous run of tokens belonging to one adapter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Index into [`MultiLoraLayer::adapters`].
    pub adapter: usize,
    /// First token row (inclusive).
    pub start: usize,
    /// Last token row (exclusive).
    pub end: usize,
    /// Position of this segment within the adapter's own dropout counter
    /// stream, so the realized mask equals the single-job mask.
    pub dropout_row_offset: usize,
}

impl Segment {
    /// Number of tokens in the segment.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the segment is empty.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// A base weight shared by several LoRA adapters.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiLoraLayer {
    /// Frozen pre-trained weight of shape `(k, n)`.
    pub w: Matrix,
    /// The adapters sharing `w`.
    pub adapters: Vec<AdapterWeights>,
}

impl MultiLoraLayer {
    /// Builds a multi-adapter layer from single-adapter layers sharing the
    /// same base weight.
    ///
    /// Returns an error if the base weights differ in shape.
    pub fn from_layers(layers: &[LoraLayer]) -> Result<Self> {
        let first = layers.first().ok_or(KernelError::InvalidParameter {
            name: "layers",
            reason: "at least one adapter is required",
        })?;
        for layer in layers {
            if layer.w.shape() != first.w.shape() {
                return Err(KernelError::ShapeMismatch {
                    op: "multi_lora_base",
                    lhs: first.w.shape(),
                    rhs: layer.w.shape(),
                });
            }
        }
        Ok(Self {
            w: first.w.clone(),
            adapters: layers.iter().map(|l| l.adapter.clone()).collect(),
        })
    }

    /// Input dimension `k`.
    pub fn k(&self) -> usize {
        self.w.rows()
    }

    /// Output dimension `n`.
    pub fn n(&self) -> usize {
        self.w.cols()
    }

    /// View of adapter `idx` as a single-adapter layer (for equivalence
    /// testing against FusedLoRA).
    pub fn as_single(&self, idx: usize) -> Result<LoraLayer> {
        let adapter = self
            .adapters
            .get(idx)
            .ok_or(KernelError::InvalidParameter {
                name: "idx",
                reason: "adapter index out of range",
            })?;
        Ok(LoraLayer {
            w: self.w.clone(),
            adapter: adapter.clone(),
        })
    }
}

/// Checks that `segments` are contiguous, non-empty, cover `[0, m)` and
/// reference valid adapters.
pub fn validate_segments(segments: &[Segment], m: usize, adapters: usize) -> Result<()> {
    let mut cursor = 0usize;
    for seg in segments {
        if seg.is_empty() || seg.start != cursor {
            return Err(KernelError::InvalidParameter {
                name: "segments",
                reason: "segments must be contiguous, non-empty and ordered",
            });
        }
        if seg.adapter >= adapters {
            return Err(KernelError::InvalidParameter {
                name: "segments",
                reason: "segment references an unknown adapter",
            });
        }
        cursor = seg.end;
    }
    if cursor != m {
        return Err(KernelError::InvalidParameter {
            name: "segments",
            reason: "segments must cover all token rows",
        });
    }
    Ok(())
}

/// Per-segment activations saved by the multi-adapter forward pass.
///
/// No masks are stored: each segment's dropout mask is a pure function of
/// its adapter's [`DropoutSpec`] and `dropout_row_offset`, so the backward
/// `dX` epilogue regenerates it analytically per tile.
#[derive(Debug, Clone)]
pub struct Saved {
    /// Segment layout of the microbatch.
    pub segments: Vec<Segment>,
    /// Masked input `X̂` per segment (emitted by K1 alongside `S`).
    pub x_hats: Vec<Matrix>,
    /// Low-rank intermediate per segment.
    pub s: Vec<Matrix>,
}

/// Forward result of the multi-adapter executor.
#[derive(Debug, Clone)]
pub struct ForwardOutput {
    /// Layer output for the whole microbatch.
    pub y: Matrix,
    /// Saved activations.
    pub saved: Saved,
    /// Kernel profiles (one launch per fusion site).
    pub kernels: Vec<KernelProfile>,
}

/// Backward result of the multi-adapter executor.
#[derive(Debug, Clone)]
pub struct BackwardOutput {
    /// Gradient w.r.t. the microbatch input.
    pub dx: Matrix,
    /// Accumulated adapter gradients keyed by adapter index.
    pub grads: BTreeMap<usize, LoraGrads>,
    /// Kernel profiles (one launch per fusion site).
    pub kernels: Vec<KernelProfile>,
}

fn distinct_adapters(segments: &[Segment]) -> u32 {
    let mut ids: Vec<usize> = segments.iter().map(|s| s.adapter).collect();
    ids.sort_unstable();
    ids.dedup();
    ids.len() as u32
}

/// Kernel lowering of the multi-adapter forward pass (profiles only).
pub fn forward_profiles(
    layer: &MultiLoraLayer,
    segments: &[Segment],
    t: &TrafficModel,
) -> Vec<KernelProfile> {
    let m: usize = segments.iter().map(Segment::len).sum();
    let (k, n) = (layer.k(), layer.n());
    let adapters = distinct_adapters(segments);
    let (mf, kf, nf) = (m as f64, k as f64, n as f64);

    let mut down_flops = mf * kf; // Dropout.
    let mut s_elems = 0usize;
    let mut a_elems = 0usize;
    let mut b_elems = 0usize;
    let mut up_flops = 0.0f64;
    for seg in segments {
        let r = layer.adapters[seg.adapter].config.rank;
        down_flops += 2.0 * seg.len() as f64 * kf * r as f64;
        up_flops += 2.0 * seg.len() as f64 * r as f64 * nf;
        s_elems += seg.len() * r;
        a_elems += k * r;
        b_elems += r * n;
    }

    vec![
        KernelProfile {
            name: "fused_multi_fwd_dropout_down".into(),
            class: KernelClass::FusedGemm {
                m: m as u64,
                k: k as u64,
                n: 16, // Rank-sized output; exact rank varies per tile.
                adapters,
            },
            flops: down_flops,
            bytes_read: t.read_cold(m * k) + t.read_cold(a_elems),
            bytes_written: t.write(s_elems) + t.write(m * k) + t.write_mask(m * k),
        },
        KernelProfile {
            name: "fused_multi_fwd_base_epilogue".into(),
            class: KernelClass::FusedGemm {
                m: m as u64,
                k: k as u64,
                n: n as u64,
                adapters,
            },
            flops: 2.0 * mf * kf * nf + up_flops + mf * nf,
            bytes_read: t.read_gemm_input(m * k, n)
                + t.read_gemm_input(k * n, n)
                + t.read_hot(s_elems)
                + t.read_cold(b_elems),
            bytes_written: t.write(m * n),
        },
    ]
}

/// Kernel lowering of the multi-adapter backward pass (profiles only).
pub fn backward_profiles(
    layer: &MultiLoraLayer,
    segments: &[Segment],
    t: &TrafficModel,
) -> Vec<KernelProfile> {
    let m: usize = segments.iter().map(Segment::len).sum();
    let (k, n) = (layer.k(), layer.n());
    let adapters = distinct_adapters(segments);
    let (mf, kf, nf) = (m as f64, k as f64, n as f64);

    let mut s_elems = 0usize;
    let mut a_elems = 0usize;
    let mut b_elems = 0usize;
    let mut rank_flops = 0.0f64;
    for seg in segments {
        let r = layer.adapters[seg.adapter].config.rank;
        rank_flops += 2.0 * seg.len() as f64 * nf * r as f64;
        s_elems += seg.len() * r;
        a_elems += k * r;
        b_elems += r * n;
    }

    vec![
        KernelProfile {
            name: "fused_multi_bwd_ds_db".into(),
            class: KernelClass::FusedGemm {
                m: m as u64,
                k: n as u64,
                n: 16,
                adapters,
            },
            flops: 2.0 * rank_flops,
            bytes_read: t.read_cold(m * n) + t.read_cold(b_elems) + t.read_cold(s_elems),
            // dB gradients are accumulated per adapter, which costs one
            // extra read-modify-write of each `B`-sized gradient buffer.
            bytes_written: t.write(s_elems) + 2 * t.write(b_elems),
        },
        KernelProfile {
            name: "fused_multi_bwd_da".into(),
            class: KernelClass::FusedGemm {
                m: k as u64,
                k: m as u64,
                n: 16,
                adapters,
            },
            flops: 2.0 * mf * kf * 16.0,
            // Reads the stored masked input X̂.
            bytes_read: t.read_cold(m * k) + t.read_hot(s_elems),
            bytes_written: 2 * t.write(a_elems),
        },
        KernelProfile {
            name: "fused_multi_bwd_dx_epilogue".into(),
            class: KernelClass::FusedGemm {
                m: m as u64,
                k: n as u64,
                n: k as u64,
                adapters,
            },
            flops: 2.0 * mf * kf * nf + 2.0 * mf * kf * 16.0 + mf * kf,
            bytes_read: t.read_gemm_input(m * n, k)
                + t.read_gemm_input(k * n, k)
                + t.read_cold(s_elems)
                + t.read_cold(a_elems)
                + t.mask(m * k),
            bytes_written: t.write(m * k),
        },
    ]
}

/// Shareable raw pointer into a batch tensor whose *disjoint row windows*
/// are handed to per-segment tasks. Safety rests on
/// [`validate_segments`]: segments are contiguous, ordered and
/// non-overlapping, so no two tasks ever touch the same element.
#[derive(Clone, Copy)]
struct SendPtr(*mut f32);
// SAFETY: tasks only write the disjoint row windows assigned to them by
// `validate_segments`, and the allocation outlives the pool scope.
unsafe impl Send for SendPtr {}
// SAFETY: shared references only hand out the raw pointer; every
// dereference targets a per-task disjoint window, so no data race.
unsafe impl Sync for SendPtr {}
impl SendPtr {
    fn get(self) -> *mut f32 {
        self.0
    }
}

/// Functional + profiled multi-adapter forward pass.
pub fn forward(
    layer: &MultiLoraLayer,
    x: &Matrix,
    segments: &[Segment],
    t: &TrafficModel,
) -> Result<ForwardOutput> {
    let _span = lorafusion_trace::span!("multi.forward", m = x.rows(), segments = segments.len());
    validate_segments(segments, x.rows(), layer.adapters.len())?;
    let (k, n) = (layer.k(), layer.n());

    // Shared base computation for all tokens.
    let mut y = matmul_nn(x, &layer.w)?;

    // Segment tiles are independent, so they execute concurrently on the
    // worker pool — the functional analogue of FusedMultiLoRA dispatching
    // per-tile adapter work across SMs. Each task runs fused GEMMs directly
    // on its *row windows* of `x` and `y` (a row window of a row-major
    // matrix is contiguous, so no copies): dropout happens in the K1 pack
    // with `X̂` emitted from the same read, and the up-projection lands in
    // `y` through the `AddScaled` tile store. The per-segment
    // `dropout_row_offset` positions the counter stream so each tile's mask
    // is bit-identical to the adapter's whole-batch mask. Window GEMMs run
    // inline on the worker (nested dispatch), so outputs are identical at
    // any thread count.
    let xs = x.as_slice();
    let y_ptr = SendPtr(y.as_mut_slice().as_mut_ptr());
    let current = pool::current();
    let per_segment = pool::parallel_map(current, segments.len(), |idx| -> Result<_> {
        let seg = &segments[idx];
        let _span =
            lorafusion_trace::span!("multi.segment", adapter = seg.adapter, rows = seg.len());
        let adapter = &layer.adapters[seg.adapter];
        let cfg = adapter.config;
        let spec = DropoutSpec::new(cfg.dropout, cfg.seed).with_row_offset(seg.dropout_row_offset);
        let rows = seg.len();
        let x_win = &xs[seg.start * k..seg.end * k];

        // K1 on the window: S = X̂ A with dropout applied in the pack and
        // X̂ emitted — one read of the segment's input, no mask tensor.
        let mut x_hat = Matrix::zeros(rows, k);
        let mut s = Matrix::zeros(rows, cfg.rank);
        gemm_windows_on(
            current,
            Layout::Nn,
            1.0,
            x_win,
            adapter.a.as_slice(),
            s.as_mut_slice(),
            rows,
            k,
            cfg.rank,
            Prologue {
                dropout: (!spec.is_identity()).then_some(spec),
                softmax_grad: None,
                emit: Some(x_hat.as_mut_slice()),
            },
            Epilogue::Overwrite,
        )?;

        // K2 epilogue: the segment's output rows gain alpha * S B in the
        // tile store, written straight through the disjoint row window.
        // SAFETY: `validate_segments` guarantees the windows are disjoint
        // and in-bounds, and `y` outlives the parallel map.
        let y_win =
            unsafe { std::slice::from_raw_parts_mut(y_ptr.get().add(seg.start * n), rows * n) };
        gemm_windows_on(
            current,
            Layout::Nn,
            1.0,
            s.as_slice(),
            adapter.b.as_slice(),
            y_win,
            rows,
            cfg.rank,
            n,
            Prologue::none(),
            Epilogue::AddScaled(cfg.alpha),
        )?;
        Ok((x_hat, s))
    });

    let mut x_hats = Vec::with_capacity(segments.len());
    let mut s_all = Vec::with_capacity(segments.len());
    for result in per_segment {
        let (x_hat, s) = result?;
        x_hats.push(x_hat);
        s_all.push(s);
    }

    let kernels = forward_profiles(layer, segments, t);
    Ok(ForwardOutput {
        y,
        saved: Saved {
            segments: segments.to_vec(),
            x_hats,
            s: s_all,
        },
        kernels,
    })
}

/// Functional + profiled multi-adapter backward pass.
///
/// Gradients of adapters appearing in several segments are accumulated;
/// this is the "tracks gradients across job boundaries" behaviour of the
/// runtime coordinator (Section 4).
pub fn backward(
    layer: &MultiLoraLayer,
    saved: &Saved,
    dy: &Matrix,
    t: &TrafficModel,
) -> Result<BackwardOutput> {
    let _span = lorafusion_trace::span!(
        "multi.backward",
        m = dy.rows(),
        segments = saved.segments.len()
    );
    validate_segments(&saved.segments, dy.rows(), layer.adapters.len())?;
    let (k, n) = (layer.k(), layer.n());

    // Shared base input gradient.
    let mut dx = matmul_nt(dy, &layer.w)?;
    let mut grads: BTreeMap<usize, LoraGrads> = BTreeMap::new();

    // Per-segment gradient tiles run concurrently on disjoint row windows
    // of `dy`/`dx`: alpha folds into the `Scaled` tile store of ds/db, and
    // the dx adapter term re-applies the segment's dropout mask analytically
    // in the `AddMasked` store — no mask tensors, no extra elementwise
    // passes. The cross-segment accumulation (per-adapter grads) happens
    // serially below in segment order, preserving the serial
    // floating-point order exactly.
    let dys = dy.as_slice();
    let dx_ptr = SendPtr(dx.as_mut_slice().as_mut_ptr());
    let current = pool::current();
    let per_segment = pool::parallel_map(current, saved.segments.len(), |idx| -> Result<_> {
        let seg = &saved.segments[idx];
        let _span =
            lorafusion_trace::span!("multi.segment", adapter = seg.adapter, rows = seg.len());
        let adapter = &layer.adapters[seg.adapter];
        let cfg = adapter.config;
        let r = cfg.rank;
        let spec = DropoutSpec::new(cfg.dropout, cfg.seed).with_row_offset(seg.dropout_row_offset);
        let rows = seg.len();
        let dy_win = &dys[seg.start * n..seg.end * n];
        let s = &saved.s[idx];
        let x_hat = &saved.x_hats[idx];

        // K3: ds = alpha * dY Bᵀ and db = alpha * Sᵀ dY, alpha applied in
        // the tile store.
        let mut ds = Matrix::zeros(rows, r);
        gemm_windows_on(
            current,
            Layout::Nt,
            1.0,
            dy_win,
            adapter.b.as_slice(),
            ds.as_mut_slice(),
            rows,
            n,
            r,
            Prologue::none(),
            Epilogue::Scaled(cfg.alpha),
        )?;
        let mut db = Matrix::zeros(r, n);
        gemm_windows_on(
            current,
            Layout::Tn,
            1.0,
            s.as_slice(),
            dy_win,
            db.as_mut_slice(),
            r,
            rows,
            n,
            Prologue::none(),
            Epilogue::Scaled(cfg.alpha),
        )?;

        // K4: da = X̂ᵀ ds.
        let mut da = Matrix::zeros(k, r);
        gemm_windows_on(
            current,
            Layout::Tn,
            1.0,
            x_hat.as_slice(),
            ds.as_slice(),
            da.as_mut_slice(),
            k,
            rows,
            r,
            Prologue::none(),
            Epilogue::Overwrite,
        )?;

        // K5 epilogue: the segment's dx rows gain (ds Aᵀ) ⊙ mask via the
        // masked tile store, written straight through the disjoint window.
        // SAFETY: `validate_segments` guarantees the windows are disjoint
        // and in-bounds, and `dx` outlives the parallel map.
        let dx_win =
            unsafe { std::slice::from_raw_parts_mut(dx_ptr.get().add(seg.start * k), rows * k) };
        gemm_windows_on(
            current,
            Layout::Nt,
            1.0,
            ds.as_slice(),
            adapter.a.as_slice(),
            dx_win,
            rows,
            r,
            k,
            Prologue::none(),
            if spec.is_identity() {
                Epilogue::Add
            } else {
                Epilogue::AddMasked(spec)
            },
        )?;
        Ok((da, db))
    });

    for (idx, result) in per_segment.into_iter().enumerate() {
        let seg = &saved.segments[idx];
        let cfg = layer.adapters[seg.adapter].config;
        let (da, db) = result?;
        let entry = grads
            .entry(seg.adapter)
            .or_insert_with(|| LoraGrads::zeros(layer.k(), layer.n(), cfg.rank));
        entry.accumulate(&LoraGrads { da, db })?;
    }

    let kernels = backward_profiles(layer, &saved.segments, t);
    Ok(BackwardOutput { dx, grads, kernels })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lorafusion_gpu::DeviceKind;
    use lorafusion_tensor::ops::all_close;
    use lorafusion_tensor::Pcg32;

    use crate::contraction::{ContractionPlan, PlannedWorkspace};
    use crate::lora::LoraConfig;

    fn traffic() -> TrafficModel {
        TrafficModel::for_device(&DeviceKind::H100Sxm.spec())
    }

    fn make_layer(k: usize, n: usize, ranks: &[usize], seed: u64) -> MultiLoraLayer {
        let mut rng = Pcg32::seeded(seed);
        let w = Matrix::random_gaussian(k, n, 0.2, &mut rng);
        let adapters = ranks
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                let cfg = LoraConfig {
                    seed: 1000 + i as u64,
                    ..LoraConfig::with_rank(r)
                };
                AdapterWeights::init_nonzero(k, n, cfg, &mut rng)
            })
            .collect();
        MultiLoraLayer { w, adapters }
    }

    #[test]
    fn segment_validation() {
        let seg = |a, s, e| Segment {
            adapter: a,
            start: s,
            end: e,
            dropout_row_offset: 0,
        };
        assert!(validate_segments(&[seg(0, 0, 4), seg(1, 4, 8)], 8, 2).is_ok());
        // Gap.
        assert!(validate_segments(&[seg(0, 0, 3), seg(1, 4, 8)], 8, 2).is_err());
        // Not covering.
        assert!(validate_segments(&[seg(0, 0, 4)], 8, 2).is_err());
        // Unknown adapter.
        assert!(validate_segments(&[seg(5, 0, 8)], 8, 2).is_err());
        // Empty segment.
        assert!(validate_segments(&[seg(0, 0, 0), seg(0, 0, 8)], 8, 1).is_err());
    }

    #[test]
    fn single_adapter_matches_fused_lora() {
        let layer = make_layer(24, 18, &[4], 50);
        let single = layer.as_single(0).unwrap();
        let mut rng = Pcg32::seeded(51);
        let x = Matrix::random_uniform(16, 24, 1.0, &mut rng);
        let t = traffic();
        let segs = [Segment {
            adapter: 0,
            start: 0,
            end: 16,
            dropout_row_offset: 0,
        }];
        let dy = Matrix::random_uniform(16, 18, 1.0, &mut rng);
        let multi = forward(&layer, &x, &segs, &t).unwrap();
        let multi_bwd = backward(&layer, &multi.saved, &dy, &t).unwrap();
        let mut fused = PlannedWorkspace::new(ContractionPlan::DEFAULT).unwrap();
        fused.forward_into(&single, &x, 0).unwrap();
        fused.backward_into(&single, &dy).unwrap();
        assert!(all_close(&multi.y, &fused.y, 1e-5));
        assert!(all_close(&multi_bwd.dx, &fused.dx, 1e-5));
        let g = &multi_bwd.grads[&0];
        assert!(all_close(&g.da, &fused.da, 1e-5));
        assert!(all_close(&g.db, &fused.db, 1e-5));
    }

    #[test]
    fn segments_match_independent_single_jobs() {
        // Running adapters jointly in one microbatch must produce exactly
        // what each job would have produced alone on its own tokens.
        let layer = make_layer(20, 16, &[4, 8], 60);
        let mut rng = Pcg32::seeded(61);
        let x = Matrix::random_uniform(14, 20, 1.0, &mut rng);
        let t = traffic();
        let segs = [
            Segment {
                adapter: 0,
                start: 0,
                end: 6,
                dropout_row_offset: 0,
            },
            Segment {
                adapter: 1,
                start: 6,
                end: 14,
                dropout_row_offset: 0,
            },
        ];
        let multi = forward(&layer, &x, &segs, &t).unwrap();

        for (idx, seg) in segs.iter().enumerate() {
            let single = layer.as_single(seg.adapter).unwrap();
            let x_seg = x.slice_rows(seg.start, seg.end).unwrap();
            let mut solo = PlannedWorkspace::new(ContractionPlan::DEFAULT).unwrap();
            solo.forward_into(&single, &x_seg, seg.dropout_row_offset)
                .unwrap();
            let joint = multi.y.slice_rows(seg.start, seg.end).unwrap();
            assert!(all_close(&joint, &solo.y, 1e-5), "segment {idx} diverged");
        }
    }

    #[test]
    fn gradients_accumulate_across_segments_of_same_adapter() {
        let layer = make_layer(12, 10, &[4], 70);
        let mut rng = Pcg32::seeded(71);
        let x = Matrix::random_uniform(10, 12, 1.0, &mut rng);
        let dy = Matrix::random_uniform(10, 10, 1.0, &mut rng);
        let t = traffic();
        // Same adapter split over two segments (consecutive in its stream).
        let segs = [
            Segment {
                adapter: 0,
                start: 0,
                end: 4,
                dropout_row_offset: 0,
            },
            Segment {
                adapter: 0,
                start: 4,
                end: 10,
                dropout_row_offset: 4,
            },
        ];
        let multi = forward(&layer, &x, &segs, &t).unwrap();
        let bwd = backward(&layer, &multi.saved, &dy, &t).unwrap();

        // Reference: one segment covering everything.
        let whole = [Segment {
            adapter: 0,
            start: 0,
            end: 10,
            dropout_row_offset: 0,
        }];
        let multi_whole = forward(&layer, &x, &whole, &t).unwrap();
        let bwd_whole = backward(&layer, &multi_whole.saved, &dy, &t).unwrap();

        assert!(all_close(&multi.y, &multi_whole.y, 1e-5));
        assert!(all_close(&bwd.dx, &bwd_whole.dx, 1e-5));
        assert!(all_close(&bwd.grads[&0].da, &bwd_whole.grads[&0].da, 1e-4));
        assert!(all_close(&bwd.grads[&0].db, &bwd_whole.grads[&0].db, 1e-4));
    }

    #[test]
    fn segment_offsets_reproduce_whole_batch_masks_bitwise() {
        // The counter-based dropout stream is positioned per segment via
        // `dropout_row_offset`, so a split batch must regenerate exactly the
        // masks the whole batch would have drawn. Row-local quantities
        // (x_hat, s, y, dx) are bitwise identical — each output row's GEMM
        // reduction touches only its own segment's rows. Cross-row grad
        // reductions (da, db) differ in association when split, so those
        // are only close.
        let layer = make_layer(12, 10, &[4], 110);
        let mut rng = Pcg32::seeded(111);
        let x = Matrix::random_uniform(11, 12, 1.0, &mut rng);
        let dy = Matrix::random_uniform(11, 10, 1.0, &mut rng);
        let t = traffic();
        let seg = |start, end, off| Segment {
            adapter: 0,
            start,
            end,
            dropout_row_offset: off,
        };
        let split = [seg(0, 3, 0), seg(3, 7, 3), seg(7, 11, 7)];
        let whole = [seg(0, 11, 0)];

        let fwd_split = forward(&layer, &x, &split, &t).unwrap();
        let fwd_whole = forward(&layer, &x, &whole, &t).unwrap();
        assert_eq!(fwd_split.y.as_slice(), fwd_whole.y.as_slice());
        let concat: Vec<f32> = fwd_split
            .saved
            .x_hats
            .iter()
            .flat_map(|m| m.as_slice().iter().copied())
            .collect();
        assert_eq!(concat, fwd_whole.saved.x_hats[0].as_slice());

        let bwd_split = backward(&layer, &fwd_split.saved, &dy, &t).unwrap();
        let bwd_whole = backward(&layer, &fwd_whole.saved, &dy, &t).unwrap();
        assert_eq!(bwd_split.dx.as_slice(), bwd_whole.dx.as_slice());
        assert!(all_close(
            &bwd_split.grads[&0].da,
            &bwd_whole.grads[&0].da,
            1e-4
        ));
        assert!(all_close(
            &bwd_split.grads[&0].db,
            &bwd_whole.grads[&0].db,
            1e-4
        ));
    }

    #[test]
    fn heterogeneous_ranks_are_supported() {
        let layer = make_layer(16, 12, &[2, 4, 8], 80);
        let mut rng = Pcg32::seeded(81);
        let x = Matrix::random_uniform(12, 16, 1.0, &mut rng);
        let t = traffic();
        let segs = [
            Segment {
                adapter: 2,
                start: 0,
                end: 3,
                dropout_row_offset: 0,
            },
            Segment {
                adapter: 0,
                start: 3,
                end: 8,
                dropout_row_offset: 0,
            },
            Segment {
                adapter: 1,
                start: 8,
                end: 12,
                dropout_row_offset: 0,
            },
        ];
        let fwd = forward(&layer, &x, &segs, &t).unwrap();
        let dy = Matrix::random_uniform(12, 12, 1.0, &mut rng);
        let bwd = backward(&layer, &fwd.saved, &dy, &t).unwrap();
        assert_eq!(bwd.grads.len(), 3);
        assert_eq!(bwd.grads[&0].da.shape(), (16, 2));
        assert_eq!(bwd.grads[&1].da.shape(), (16, 4));
        assert_eq!(bwd.grads[&2].da.shape(), (16, 8));
    }

    #[test]
    fn lowering_is_single_launch_per_site() {
        let layer = make_layer(16, 12, &[4, 4], 90);
        let segs = [
            Segment {
                adapter: 0,
                start: 0,
                end: 8,
                dropout_row_offset: 0,
            },
            Segment {
                adapter: 1,
                start: 8,
                end: 16,
                dropout_row_offset: 0,
            },
        ];
        let t = traffic();
        assert_eq!(forward_profiles(&layer, &segs, &t).len(), 2);
        assert_eq!(backward_profiles(&layer, &segs, &t).len(), 3);
    }
}
