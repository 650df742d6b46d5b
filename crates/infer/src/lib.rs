//! Tape-free batched inference for trained AGNN models (DESIGN.md §5b5).
//!
//! Training builds an autograd tape so gradients can flow; serving never
//! needs gradients, so every tape node, `Var` handle and backward closure
//! is pure overhead there. This crate runs AGNN's one forward body
//! (`agnn_core::AgnnModules`, generic over [`agnn_autograd::Ops`]) eagerly:
//! each op is evaluated at once, through the tape's own kernel table
//! ([`agnn_autograd::graph::eval`]), over parameters resolved from a
//! [`ModelSnapshot`] exported by `agnn train --save`.
//!
//! The contract is strict: for any pair batch, [`InferenceEngine::score_batch`]
//! returns scores **bit-identical** (`f32::to_bits`) to
//! `Agnn::predict_batch` on the same trained model. That holds because both
//! run the same layer code, whose ops call the same kernels in the same
//! order with the same operands; the two coarse ops the engine computes
//! differently (`Ops::attr_sums` and `Ops::repeat_concat_matmul`) each
//! state their own argument. The
//! [`conformance`] module and the `agnn-infer` test suite enforce it.
//!
//! On top of the plain forward, [`InferenceEngine::materialize`] precomputes
//! the pre-GNN embedding of *every* node (warm nodes from their trained
//! preference rows, strict-cold ones through the eVAE generation path) into
//! an in-memory cache. Per-request work then shrinks to row gathers plus
//! the GNN/prediction layers. Caching preserves bit-identity because every
//! kernel on the embedding path is row-independent: `matmul` accumulates
//! each output row from its input row alone (k ascending), the
//! variable-segment reductions touch one node's segment at a time, and the
//! remaining ops are elementwise or row-broadcast.
//!
//! [`ModelSnapshot`]: agnn_core::ModelSnapshot

pub mod conformance;
mod eager;
mod engine;

pub use engine::{InferenceEngine, Side};
