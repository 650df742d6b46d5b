//! Dense matrix and sparse-vector kernels for the AGNN reproduction.
//!
//! This crate is the numeric substrate on which `agnn-autograd` builds its
//! reverse-mode automatic differentiation tape. It deliberately stays small:
//! a row-major `f32` [`Matrix`], the handful of kernels a recommender-model
//! training loop needs (matmul, broadcasts, reductions, gathers), seeded
//! initializers, and a [`sparse::SparseVec`] used for multi-hot attribute
//! encodings and proximity computation.
//!
//! Design notes (see DESIGN.md §5):
//! * each hot kernel has exactly one single-threaded body, checked bitwise
//!   against a scalar reference loop (see `ops` module docs); parallelism
//!   lives above the kernels, in the serve workers;
//! * [`csr::Csr`] + [`ops::spmm`] multiply multi-hot attribute rows against
//!   dense tables without densifying them;
//! * per-kernel wall-clock profiling lives in [`profile`], toggled at
//!   runtime;
//! * all randomness flows through caller-provided [`rand::Rng`]s so every
//!   experiment in the harness is reproducible from a seed;
//! * shape errors panic with the offending shapes in the message — in a
//!   training loop a silent mis-broadcast is far worse than an abort.

pub mod csr;
pub mod init;
pub mod matrix;
pub mod ops;
pub mod profile;
pub mod select;
pub mod shape;
mod simd;
pub mod sparse;
pub mod stats;

pub use csr::Csr;
pub use matrix::Matrix;
pub use shape::ShapeError;
pub use sparse::SparseVec;
