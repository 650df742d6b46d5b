//! Tape-based reverse-mode automatic differentiation.
//!
//! The paper's models (AGNN and its twelve baselines) are trained by plain
//! backprop + Adam. There is no mature pure-Rust deep-learning stack we are
//! allowed to depend on, so this crate *is* the substrate: a [`Graph`] tape
//! of matrix ops with hand-written adjoints, built through the [`Ops`]
//! trait that an eager evaluator can implement too, a [`ParamStore`] holding the
//! trainable parameters with their Adam state, an [`nn`] module with the
//! layers every model shares (Linear / MLP / Embedding), composed [`loss`]
//! functions (MSE, diagonal-Gaussian KL for the eVAE, row-L2 approximation
//! terms), and a finite-difference [`gradcheck`] used by the test-suite to
//! verify every adjoint.
//!
//! # Example
//!
//! ```
//! use agnn_autograd::{Graph, Ops, ParamStore, optim::Adam};
//! use agnn_tensor::Matrix;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut store = ParamStore::new();
//! let w = store.add("w", agnn_tensor::init::xavier_uniform(2, 1, &mut rng));
//! let mut opt = Adam::with_lr(0.1);
//! // Fit y = x * [1, -1]^T with a single linear map.
//! let x = Matrix::from_vec(4, 2, vec![1., 0., 0., 1., 1., 1., 2., 0.]);
//! let y = Matrix::col_vector(vec![1., -1., 0., 2.]);
//! for _ in 0..200 {
//!     let mut g = Graph::new();
//!     let xv = g.constant(x.clone());
//!     let wv = g.param_full(&store, w);
//!     let pred = g.matmul(xv, wv);
//!     let tv = g.constant(y.clone());
//!     let loss = agnn_autograd::loss::mse(&mut g, pred, tv);
//!     g.backward(loss);
//!     g.grads_into(&mut store);
//!     opt.step(&mut store);
//! }
//! let learned = store.value(w).as_slice().to_vec();
//! assert!((learned[0] - 1.0).abs() < 1e-2 && (learned[1] + 1.0).abs() < 1e-2);
//! ```

pub mod forward;
pub mod gradcheck;
pub mod graph;
pub mod loss;
pub mod nn;
pub mod optim;
pub mod param;

pub use forward::Ops;
pub use graph::{Graph, Op, OpView, OperandInfo, ParamBinding, TapeIssue, TapeIssueKind, Var};
pub use param::{ParamId, ParamStore, ParamTable, Registry};
