//! LoRA kernel strategies.
//!
//! This crate reproduces the kernel-level contribution of the paper: the
//! observation that LoRA's runtime overhead comes from redundant DRAM
//! traffic on full-size activation tensors, and the *split-graph fusion*
//! design (FusedLoRA / FusedMultiLoRA) that removes it without hurting the
//! compute-bound base GEMM.
//!
//! Strategies exist in two forms:
//!
//! 1. **Functionally** — real `f32` arithmetic over `lorafusion-tensor`,
//!    used by the equivalence tests to prove the fusion is *lossless*
//!    (the fused forward is bitwise-equal to the unfused reference, and
//!    dropout masks are bit-identical thanks to counter-based RNG). The
//!    fused executors attach real prologue/epilogue hooks to the GEMM
//!    microkernel, so fusion is an execution property here, not just a
//!    lowering annotation;
//! 2. **As a kernel lowering** — a sequence of
//!    [`lorafusion_gpu::KernelProfile`]s with explicit FLOP and DRAM-byte
//!    accounting, timed by the roofline [`lorafusion_gpu::CostModel`].
//!
//! Strategies:
//!
//! * [`frozen`] — the frozen linear layer (no adapter), the baseline of
//!   Fig. 3;
//! * [`reference`] — "Torch LoRA": the unfused PEFT-style execution with
//!   separate dropout, projection, scale and add kernels (Fig. 4); the
//!   oracle every fused executor is tested against;
//! * [`fused`] — FusedLoRA: the split-graph design of Fig. 10, fusing
//!   dropout into the down-projection and the LoRA epilogue into the base
//!   GEMM, splitting only at the rank-`r` tensor `S`. It holds the one
//!   K1..K5 step — the zero-allocation single-adapter executor
//!   [`fused::Workspace`] and the row-window functions [`multi`] runs per
//!   segment — and the step's lowering;
//! * [`multi`] — FusedMultiLoRA: tile-level routing of heterogeneous
//!   adapters in a single launch (Fig. 11), each segment through the
//!   [`fused`] step;
//! * [`full_fusion`] — the two *rejected* designs of Fig. 9 (full fusion
//!   with recomputation, full fusion with cross-tile synchronization), as
//!   lowerings for the ablation benches;
//! * [`loss`] — chunked fused linear + cross-entropy (Liger-style): the
//!   LM-head GEMM runs chunk-by-chunk through the microkernel's row-max
//!   sink and softmax-grad pack prologue, so the `[tokens x vocab]` logits
//!   tensor is never materialized;
//! * [`chains`] — fused RMSNorm and SwiGLU elementwise chains with
//!   multi-pass references for the bitwise gates.

pub mod chains;
pub mod frozen;
pub mod full_fusion;
pub mod fused;
pub mod lora;
pub mod loss;
pub mod multi;
pub mod reference;
pub mod traffic;

pub use lora::{AdapterWeights, LoraConfig, LoraGrads, LoraLayer, Shape};
pub use multi::{MultiLoraLayer, Segment};
pub use traffic::TrafficModel;

/// Errors from kernel execution (re-exported tensor errors).
pub type KernelError = lorafusion_tensor::TensorError;

/// Result alias.
pub type Result<T> = core::result::Result<T, KernelError>;
