//! The computation tape: [`Graph`], [`Var`] handles, ops and their adjoints.
//!
//! Nodes are appended in construction order, which is a topological order of
//! the DAG, so `backward` is a single reverse sweep over the tape — no
//! explicit sorting. Ops are an enum rather than boxed closures (DESIGN.md
//! §5.1): cheaper, inspectable in tests, and `match`-exhaustive so a new op
//! cannot silently ship without an adjoint.

use crate::param::{ParamId, ParamStore};
use crate::Ops;
use agnn_tensor::{ops, shape, Matrix, ShapeError};
use std::rc::Rc;

/// Handle to a node on the tape. Cheap to copy; only valid for the graph
/// that created it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

impl Var {
    /// Position on the tape (stable identifier within one graph).
    pub fn index(self) -> usize {
        self.0
    }
}

/// One kernel op over operands `V`. On the tape, `V` is a [`Var`] (an
/// earlier tape position) and the op records how its node was produced;
/// an eager evaluator passes the operand matrices themselves. Some payloads
/// (scalars recorded at forward time) are not needed by the adjoints but
/// are kept for debuggability of tape dumps.
#[derive(Clone, Debug)]
pub enum Op<V = Var> {
    /// Constant or parameter leaf.
    Leaf,
    MatMul(V, V),
    Add(V, V),
    Sub(V, V),
    Mul(V, V),
    Scale(V, f32),
    AddScalar(V, f32),
    AddRowBroadcast(V, V),
    MulRowBroadcast(V, V),
    MulColBroadcast(V, V),
    Concat(Vec<V>),
    GatherRows(V, Rc<Vec<usize>>),
    SegmentMeanRows(V, usize),
    SegmentSumRows(V, usize),
    SegmentSumRowsVar(V, Rc<Vec<usize>>),
    SegmentMeanRowsVar(V, Rc<Vec<usize>>),
    RepeatRows(V, usize),
    LeakyRelu(V, f32),
    Relu(V),
    Sigmoid(V),
    Tanh(V),
    Exp(V),
    Ln(V),
    SqrtEps(V, f32),
    Square(V),
    Abs(V),
    Neg(V),
    Dropout(V, Rc<Matrix>),
    SumAll(V),
    MeanAll(V),
    SumRows(V),
    SumCols(V),
    SegmentSoftmaxCol(V, usize),
    Reshape(V, usize, usize),
}

impl Op {
    /// Stable op name used in traces, issues and audit reports.
    fn name(&self) -> &'static str {
        match self {
            Op::Leaf => "leaf",
            Op::MatMul(..) => "matmul",
            Op::Add(..) => "add",
            Op::Sub(..) => "sub",
            Op::Mul(..) => "mul",
            Op::Scale(..) => "scale",
            Op::AddScalar(..) => "add_scalar",
            Op::AddRowBroadcast(..) => "add_row_broadcast",
            Op::MulRowBroadcast(..) => "mul_row_broadcast",
            Op::MulColBroadcast(..) => "mul_col_broadcast",
            Op::Concat(..) => "concat",
            Op::GatherRows(..) => "gather_rows",
            Op::SegmentMeanRows(..) => "segment_mean_rows",
            Op::SegmentSumRows(..) => "segment_sum_rows",
            Op::SegmentSumRowsVar(..) => "segment_sum_rows_var",
            Op::SegmentMeanRowsVar(..) => "segment_mean_rows_var",
            Op::RepeatRows(..) => "repeat_rows",
            Op::LeakyRelu(..) => "leaky_relu",
            Op::Relu(..) => "relu",
            Op::Sigmoid(..) => "sigmoid",
            Op::Tanh(..) => "tanh",
            Op::Exp(..) => "exp",
            Op::Ln(..) => "ln",
            Op::SqrtEps(..) => "sqrt_eps",
            Op::Square(..) => "square",
            Op::Abs(..) => "abs",
            Op::Neg(..) => "neg",
            Op::Dropout(..) => "dropout",
            Op::SumAll(..) => "sum_all",
            Op::MeanAll(..) => "mean_all",
            Op::SumRows(..) => "sum_rows",
            Op::SumCols(..) => "sum_cols",
            Op::SegmentSoftmaxCol(..) => "segment_softmax_col",
            Op::Reshape(..) => "reshape",
        }
    }

    /// Tape positions this op reads (empty for leaves).
    fn parents(&self) -> Vec<Var> {
        match self {
            Op::Leaf => Vec::new(),
            Op::MatMul(a, b)
            | Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::AddRowBroadcast(a, b)
            | Op::MulRowBroadcast(a, b)
            | Op::MulColBroadcast(a, b) => vec![*a, *b],
            Op::Concat(parts) => parts.clone(),
            Op::Scale(a, _)
            | Op::AddScalar(a, _)
            | Op::GatherRows(a, _)
            | Op::SegmentMeanRows(a, _)
            | Op::SegmentSumRows(a, _)
            | Op::SegmentSumRowsVar(a, _)
            | Op::SegmentMeanRowsVar(a, _)
            | Op::RepeatRows(a, _)
            | Op::LeakyRelu(a, _)
            | Op::Relu(a)
            | Op::Sigmoid(a)
            | Op::Tanh(a)
            | Op::Exp(a)
            | Op::Ln(a)
            | Op::SqrtEps(a, _)
            | Op::Square(a)
            | Op::Abs(a)
            | Op::Neg(a)
            | Op::Dropout(a, _)
            | Op::SumAll(a)
            | Op::MeanAll(a)
            | Op::SumRows(a)
            | Op::SumCols(a)
            | Op::SegmentSoftmaxCol(a, _)
            | Op::Reshape(a, _, _) => vec![*a],
        }
    }
}

/// Forward kernel dispatch for a (shape-valid) op: the one table from op to
/// `agnn_tensor` kernel, used by the tape and by eager evaluators alike.
/// `value` resolves an operand to its matrix.
pub fn eval<'a, V>(op: &'a Op<V>, value: impl Fn(&'a V) -> &'a Matrix) -> Matrix {
    match op {
        Op::Leaf => unreachable!("leaves are pushed directly, not recorded"),
        Op::MatMul(a, b) => ops::matmul(value(a), value(b)),
        Op::Add(a, b) => ops::add(value(a), value(b)),
        Op::Sub(a, b) => ops::sub(value(a), value(b)),
        Op::Mul(a, b) => ops::mul(value(a), value(b)),
        Op::Scale(a, s) => ops::scale(value(a), *s),
        Op::AddScalar(a, s) => {
            let s = *s;
            ops::map(value(a), move |x| x + s)
        }
        Op::AddRowBroadcast(a, r) => ops::add_row_broadcast(value(a), value(r)),
        Op::MulRowBroadcast(a, r) => ops::mul_row_broadcast(value(a), value(r)),
        Op::MulColBroadcast(a, c) => ops::mul_col_broadcast(value(a), value(c)),
        Op::Concat(parts) => {
            let mats: Vec<&Matrix> = parts.iter().map(&value).collect();
            Matrix::hconcat(&mats)
        }
        Op::GatherRows(a, rows) => value(a).gather_rows(rows),
        Op::SegmentMeanRows(a, g) => ops::segment_mean_rows(value(a), *g),
        Op::SegmentSumRows(a, g) => ops::segment_sum_rows(value(a), *g),
        Op::SegmentSumRowsVar(a, o) => ops::segment_sum_rows_var(value(a), o),
        Op::SegmentMeanRowsVar(a, o) => ops::segment_mean_rows_var(value(a), o),
        Op::RepeatRows(a, g) => ops::repeat_rows(value(a), *g),
        Op::LeakyRelu(a, slope) => ops::leaky_relu(value(a), *slope),
        Op::Relu(a) => ops::relu(value(a)),
        Op::Sigmoid(a) => ops::sigmoid(value(a)),
        Op::Tanh(a) => ops::tanh(value(a)),
        Op::Exp(a) => ops::exp(value(a)),
        Op::Ln(a) => ops::map(value(a), f32::ln),
        Op::SqrtEps(a, eps) => {
            let eps = *eps;
            ops::map(value(a), move |x| (x + eps).sqrt())
        }
        Op::Square(a) => ops::map(value(a), |x| x * x),
        Op::Abs(a) => ops::map(value(a), f32::abs),
        Op::Neg(a) => ops::scale(value(a), -1.0),
        Op::Dropout(a, mask) => ops::mul(value(a), mask),
        Op::SumAll(a) => Matrix::from_vec(1, 1, vec![ops::sum_all(value(a))]),
        Op::MeanAll(a) => Matrix::from_vec(1, 1, vec![ops::mean_all(value(a))]),
        Op::SumRows(a) => ops::sum_rows(value(a)),
        Op::SumCols(a) => ops::sum_cols(value(a)),
        Op::SegmentSoftmaxCol(a, g) => ops::segment_softmax_col(value(a), *g),
        Op::Reshape(a, r, c) => value(a).reshape(*r, *c),
    }
}

/// What went wrong at one tape position in checked mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TapeIssueKind {
    /// An operand shape violated the op's shape rule.
    ShapeMismatch,
    /// The op produced NaN or ±inf.
    NonFinite,
}

/// One operand of an offending op, for provenance in reports.
#[derive(Clone, Debug)]
pub struct OperandInfo {
    /// Tape position of the operand.
    pub var: usize,
    /// Its op name.
    pub op: String,
    /// Its (possibly recovered) shape.
    pub shape: (usize, usize),
}

/// A violation recorded by a checked graph instead of panicking, carrying
/// enough provenance to print a readable op trace.
#[derive(Clone, Debug)]
pub struct TapeIssue {
    /// Violation class.
    pub kind: TapeIssueKind,
    /// Tape position of the offending op.
    pub var: usize,
    /// Offending op name.
    pub op: String,
    /// Its operands at the time of the violation.
    pub operands: Vec<OperandInfo>,
    /// The violated rule, human-readable.
    pub message: String,
}

impl std::fmt::Display for TapeIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "%{} = {}(", self.var, self.op)?;
        for (i, o) in self.operands.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "%{} [{}x{}]", o.var, o.shape.0, o.shape.1)?;
        }
        write!(f, "): {}", self.message)
    }
}

/// A tape leaf's connection to a [`ParamStore`] entry.
#[derive(Clone, Debug)]
pub struct ParamBinding {
    /// The bound parameter.
    pub id: ParamId,
    /// The leaf Var carrying its value (or gathered rows).
    pub var: Var,
    /// Row indices for embedding-style lookups; `None` for full bindings.
    pub rows: Option<Rc<Vec<usize>>>,
}

/// Read-only view of one tape node for analyzers.
#[derive(Clone, Debug)]
pub struct OpView {
    /// Tape position.
    pub var: Var,
    /// Op name (`"leaf"` for constants and parameters).
    pub op: &'static str,
    /// Operand positions.
    pub parents: Vec<Var>,
    /// Forward-value shape.
    pub shape: (usize, usize),
    /// Whether gradients flow through this node.
    pub requires_grad: bool,
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
    requires_grad: bool,
}

enum Binding {
    Full(ParamId, Var),
    Rows(ParamId, Rc<Vec<usize>>, Var),
}

/// A single forward pass: build ops, call [`Graph::backward`], then flush
/// parameter gradients with [`Graph::grads_into`].
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    bindings: Vec<Binding>,
    checked: bool,
    issues: Vec<TapeIssue>,
}

impl Graph {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty tape in *checked* mode: shape-rule violations and non-finite
    /// op outputs are recorded as [`TapeIssue`]s (the offending node gets a
    /// zero recovery value so construction continues and *all* violations
    /// surface), instead of panicking at the first one. A checked tape with
    /// issues must not be differentiated; audit it via `agnn-check`.
    pub fn new_checked() -> Self {
        Graph { checked: true, ..Self::default() }
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Matrix, op: Op, requires_grad: bool) -> Var {
        // NaN/Inf sentinel: debug-assertions-gated in normal mode (release
        // tapes skip the scan), always on in checked mode.
        if (cfg!(debug_assertions) || self.checked) && !value.all_finite() {
            if self.checked {
                let issue = self.make_issue(TapeIssueKind::NonFinite, &op, format!("non-finite output of {}", op.name()));
                self.issues.push(issue);
            } else {
                panic!(
                    "non-finite value entering tape at %{} = {}{}",
                    self.nodes.len(),
                    op.name(),
                    self.describe_operands(&op)
                );
            }
        }
        self.nodes.push(Node { value, grad: None, op, requires_grad });
        Var(self.nodes.len() - 1)
    }

    /// Central op constructor: applies the op's shape rule, then either
    /// evaluates the kernel (rule passed) or — in checked mode — records the
    /// violation with provenance and pushes a zero recovery node so tape
    /// construction can continue. In unchecked mode a violation panics with
    /// the offending Var ids in the message.
    fn record(&mut self, op: Op) -> Var {
        let rg = op.parents().iter().any(|&p| self.rg(p));
        match self.infer_shape(&op) {
            Ok(shape) => {
                if self.checked {
                    self.scan_masked_operands(&op);
                }
                let value = eval(&op, |&v| self.value(v));
                debug_assert_eq!(value.shape(), shape, "shape rule out of sync with kernel for {}", op.name());
                self.push(value, op, rg)
            }
            Err(e) => {
                if !self.checked {
                    panic!("{e} at %{} = {}{}", self.nodes.len(), op.name(), self.describe_operands(&op));
                }
                let (r, c) = self.recovery_shape(&op);
                let issue = self.make_issue(TapeIssueKind::ShapeMismatch, &op, e.to_string());
                self.issues.push(issue);
                self.push(Matrix::zeros(r, c), op, rg)
            }
        }
    }

    /// Checked-mode compensation for the matmul kernels' `av == 0.0` fast
    /// path: the kernel skips the other operand's whole row when a
    /// coefficient is exactly zero, so `0·NaN`/`0·∞` yield `0` where IEEE
    /// 754 would propagate NaN (see `agnn_tensor::ops::matmul_row`). The
    /// output sentinel in `push` can't flag what the kernel never computed,
    /// so checked tapes scan both matmul operands *before* eval and record
    /// the NonFinite issue against the consuming matmul.
    fn scan_masked_operands(&mut self, op: &Op) {
        let Op::MatMul(a, b) = op else { return };
        for p in [*a, *b] {
            if !self.value(p).all_finite() {
                let issue = self.make_issue(
                    TapeIssueKind::NonFinite,
                    op,
                    format!(
                        "non-finite operand %{} entering {}: the zero-skip fast path can mask it (0·NaN deviates from IEEE 754 here)",
                        p.0,
                        op.name()
                    ),
                );
                self.issues.push(issue);
            }
        }
    }

    fn make_issue(&self, kind: TapeIssueKind, op: &Op, message: String) -> TapeIssue {
        let operands = op
            .parents()
            .iter()
            .map(|&p| OperandInfo {
                var: p.0,
                op: self.nodes[p.0].op.name().to_string(),
                shape: self.nodes[p.0].value.shape(),
            })
            .collect();
        TapeIssue { kind, var: self.nodes.len(), op: op.name().to_string(), operands, message }
    }

    fn describe_operands(&self, op: &Op) -> String {
        let mut out = String::new();
        for p in op.parents() {
            let n = &self.nodes[p.0];
            out.push_str(&format!(
                "\n  operand %{} = {} [{}x{}]",
                p.0,
                n.op.name(),
                n.value.rows(),
                n.value.cols()
            ));
        }
        out
    }

    /// The op's shape rule, evaluated on current operand shapes. This is the
    /// symbolic half of every builder: it never touches matrix data.
    fn infer_shape(&self, op: &Op) -> Result<(usize, usize), ShapeError> {
        let s = |v: &Var| self.nodes[v.0].value.shape();
        match op {
            Op::Leaf => unreachable!("leaves are pushed directly, not recorded"),
            Op::MatMul(a, b) => shape::matmul(s(a), s(b)),
            Op::Add(a, b) => shape::elementwise("add", s(a), s(b)),
            Op::Sub(a, b) => shape::elementwise("sub", s(a), s(b)),
            Op::Mul(a, b) => shape::elementwise("mul", s(a), s(b)),
            Op::Dropout(a, mask) => shape::elementwise("dropout", s(a), mask.shape()),
            Op::AddRowBroadcast(a, r) => shape::row_broadcast("add_row_broadcast", s(a), s(r)),
            Op::MulRowBroadcast(a, r) => shape::row_broadcast("mul_row_broadcast", s(a), s(r)),
            Op::MulColBroadcast(a, c) => shape::col_broadcast("mul_col_broadcast", s(a), s(c)),
            Op::Concat(parts) => {
                let mut acc = s(&parts[0]);
                for p in &parts[1..] {
                    acc = shape::hconcat(acc, s(p))?;
                }
                Ok(acc)
            }
            Op::GatherRows(a, rows) => shape::gather_rows(s(a), rows),
            Op::SegmentMeanRows(a, g) => shape::segment_rows("segment_mean_rows", s(a), *g),
            Op::SegmentSumRows(a, g) => shape::segment_rows("segment_sum_rows", s(a), *g),
            Op::SegmentSumRowsVar(a, o) => shape::segment_rows_var("segment_sum_rows_var", s(a), o),
            Op::SegmentMeanRowsVar(a, o) => shape::segment_rows_var("segment_mean_rows_var", s(a), o),
            Op::RepeatRows(a, g) => shape::repeat_rows(s(a), *g),
            Op::SumAll(_) | Op::MeanAll(_) => Ok((1, 1)),
            Op::SumRows(a) => Ok((1, s(a).1)),
            Op::SumCols(a) => Ok((s(a).0, 1)),
            Op::SegmentSoftmaxCol(a, g) => shape::segment_softmax_col(s(a), *g),
            Op::Reshape(a, r, c) => shape::reshape(s(a), *r, *c),
            Op::Scale(a, _)
            | Op::AddScalar(a, _)
            | Op::LeakyRelu(a, _)
            | Op::SqrtEps(a, _)
            | Op::Relu(a)
            | Op::Sigmoid(a)
            | Op::Tanh(a)
            | Op::Exp(a)
            | Op::Ln(a)
            | Op::Square(a)
            | Op::Abs(a)
            | Op::Neg(a) => Ok(s(a)),
        }
    }

    /// Best-effort output shape for a node whose shape rule failed, so a
    /// checked tape can keep building past the violation.
    fn recovery_shape(&self, op: &Op) -> (usize, usize) {
        let s = |v: &Var| self.nodes[v.0].value.shape();
        match op {
            Op::MatMul(a, b) => (s(a).0, s(b).1),
            Op::Concat(parts) => (s(&parts[0]).0, parts.iter().map(|p| s(p).1).sum()),
            Op::GatherRows(a, rows) => (rows.len(), s(a).1),
            Op::SegmentMeanRows(a, g) | Op::SegmentSumRows(a, g) => {
                (s(a).0.checked_div(*g).unwrap_or(0), s(a).1)
            }
            Op::SegmentSumRowsVar(a, o) | Op::SegmentMeanRowsVar(a, o) => (o.len().saturating_sub(1), s(a).1),
            Op::RepeatRows(a, g) => (s(a).0 * *g, s(a).1),
            Op::SumAll(_) | Op::MeanAll(_) => (1, 1),
            Op::SumRows(a) => (1, s(a).1),
            Op::SumCols(a) => (s(a).0, 1),
            Op::Reshape(_, r, c) => (*r, *c),
            other => {
                let parents = other.parents();
                s(&parents[0])
            }
        }
    }

    fn rg(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// The accumulated gradient of `v` (after `backward`), if any flowed.
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.nodes[v.0].grad.as_ref()
    }

    /// The value of a `1 × 1` node as a scalar.
    pub fn scalar(&self, v: Var) -> f32 {
        let m = self.value(v);
        assert_eq!(m.shape(), (1, 1), "scalar: node is {:?}", m.shape());
        m.get(0, 0)
    }

    /// The accumulated gradient of `v`, panicking with `what` (e.g. a
    /// parameter name) when nothing flowed — a named failure instead of a
    /// bare `unwrap()` on a silently-dead node.
    pub fn grad_expect(&self, v: Var, what: &str) -> &Matrix {
        self.nodes[v.0].grad.as_ref().unwrap_or_else(|| {
            panic!(
                "no gradient reached {what} (%{} = {}); it is disconnected from the loss",
                v.0,
                self.nodes[v.0].op.name()
            )
        })
    }

    // --- introspection (consumed by agnn-check) -----------------------------

    /// Whether gradients flow through `v`.
    pub fn requires_grad(&self, v: Var) -> bool {
        self.rg(v)
    }

    /// Shape of the forward value of `v`.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes[v.0].value.shape()
    }

    /// Read-only view of one node: op name, operands, shape, grad flag.
    pub fn op_view(&self, v: Var) -> OpView {
        let n = &self.nodes[v.0];
        OpView {
            var: v,
            op: n.op.name(),
            parents: n.op.parents(),
            shape: n.value.shape(),
            requires_grad: n.requires_grad,
        }
    }

    /// Views of every node on the tape, in construction order.
    pub fn op_views(&self) -> Vec<OpView> {
        (0..self.nodes.len()).map(|i| self.op_view(Var(i))).collect()
    }

    /// Every parameter↔leaf binding currently on the tape.
    pub fn param_bindings(&self) -> Vec<ParamBinding> {
        self.bindings
            .iter()
            .map(|b| match b {
                Binding::Full(id, v) => ParamBinding { id: *id, var: *v, rows: None },
                Binding::Rows(id, rows, v) => ParamBinding { id: *id, var: *v, rows: Some(Rc::clone(rows)) },
            })
            .collect()
    }

    /// Violations recorded in checked mode (always empty for `Graph::new`).
    pub fn issues(&self) -> &[TapeIssue] {
        &self.issues
    }

    /// The Var at tape position `index` (inverse of [`Var::index`], used by
    /// analyzers that store plain indices).
    pub fn var_at(&self, index: usize) -> Var {
        assert!(index < self.nodes.len(), "var_at: index {index} beyond tape of {}", self.nodes.len());
        Var(index)
    }

    /// `reachable[i]` is true iff node `i` is an ancestor of `root` (or is
    /// `root` itself) through op edges — i.e. it contributed to `root`'s
    /// forward value and would receive gradient from it.
    pub fn reachable_from(&self, root: Var) -> Vec<bool> {
        let mut reachable = vec![false; self.nodes.len()];
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            if reachable[v.0] {
                continue;
            }
            reachable[v.0] = true;
            stack.extend(self.nodes[v.0].op.parents());
        }
        reachable
    }

    /// Renders the op subtree feeding `v`, up to `depth` levels, one node per
    /// line — the readable provenance trace used by audit reports.
    pub fn trace(&self, v: Var, depth: usize) -> String {
        let mut out = String::new();
        self.trace_into(v, depth, 0, &mut out);
        out
    }

    fn trace_into(&self, v: Var, depth: usize, indent: usize, out: &mut String) {
        let n = &self.nodes[v.0];
        let parents = n.op.parents();
        out.push_str(&"  ".repeat(indent));
        out.push_str(&format!("%{} = {}(", v.0, n.op.name()));
        for (i, p) in parents.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("%{}", p.0));
        }
        let (r, c) = n.value.shape();
        out.push_str(&format!(")  [{r}x{c}]\n"));
        if depth > 0 {
            for p in parents {
                self.trace_into(p, depth - 1, indent + 1, out);
            }
        }
    }

    // --- leaves -------------------------------------------------------------

    /// A leaf carrying a parameter's full value; its gradient is flushed back
    /// by [`Graph::grads_into`].
    pub fn param_full(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let v = self.push(store.value(id).clone(), Op::Leaf, true);
        self.bindings.push(Binding::Full(id, v));
        v
    }

    /// A leaf carrying selected *rows* of a parameter (embedding lookup).
    /// Gradients scatter-add back into the parameter's gradient rows, so the
    /// full table is never cloned onto the tape.
    pub fn param_rows(&mut self, store: &ParamStore, id: ParamId, rows: Rc<Vec<usize>>) -> Var {
        let gathered = store.value(id).gather_rows(&rows);
        let v = self.push(gathered, Op::Leaf, true);
        self.bindings.push(Binding::Rows(id, rows, v));
        v
    }

    /// A trainable leaf not tied to the store (used by gradcheck tests).
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf, true)
    }
}

/// The training tape: each op is recorded (and evaluated), and parameters
/// bind to the [`ParamStore`] so their gradients flow back.
impl Ops for Graph {
    type Value = Var;
    type Params = ParamStore;

    fn run(&mut self, op: Op) -> Var {
        self.record(op)
    }

    fn value<'v>(&'v self, v: &'v Var) -> &'v Matrix {
        Graph::value(self, *v)
    }

    fn constant(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf, false)
    }

    fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        self.param_full(store, id)
    }

    fn param_rows(&mut self, store: &ParamStore, id: ParamId, rows: &[usize]) -> Var {
        Graph::param_rows(self, store, id, Rc::new(rows.to_vec()))
    }

    /// Gathers the named table rows onto the tape (`T × D`, so the
    /// gradient scatters back into just those rows), then segment-sums them
    /// and their squares.
    fn attr_sums(&mut self, store: &ParamStore, table: ParamId, flat: Rc<Vec<usize>>, offsets: Rc<Vec<usize>>) -> (Var, Var) {
        let v = Graph::param_rows(self, store, table, flat);
        let sum = self.segment_sum_rows_var(v, Rc::clone(&offsets));
        let v_sq = self.square(v);
        let sum_sq = self.segment_sum_rows_var(v_sq, offsets);
        (sum, sum_sq)
    }

    /// Records the repeat (none at `g = 1`), the concat, the weight leaf and
    /// the matmul, in the order an unfused `Linear` over the concat records
    /// them, so the tape and its gradients are what they were before the op
    /// existed.
    fn repeat_concat_matmul(&mut self, store: &ParamStore, target: Var, neighbors: Var, g: usize, w: ParamId) -> Var {
        let rep = if g == 1 { target } else { self.repeat_rows(target, g) };
        let cat = self.concat(&[rep, neighbors]);
        let w = self.param_full(store, w);
        self.matmul(cat, w)
    }
}

impl Graph {
    // --- backward -----------------------------------------------------------

    fn accum(&mut self, v: Var, delta: Matrix) {
        if !self.nodes[v.0].requires_grad {
            return;
        }
        match &mut self.nodes[v.0].grad {
            // In-place accumulate: this runs once per consumer of every node
            // on the tape, so it must not allocate.
            Some(g) => ops::add_assign(g, &delta),
            slot @ None => *slot = Some(delta),
        }
    }

    /// Runs the reverse sweep from a `1 × 1` loss node, accumulating
    /// gradients on every node that requires them.
    pub fn backward(&mut self, loss: Var) {
        assert!(
            self.issues.is_empty(),
            "backward: tape has {} recorded issue(s); audit it instead of differentiating (first: {})",
            self.issues.len(),
            self.issues[0]
        );
        assert_eq!(self.value(loss).shape(), (1, 1), "backward: loss must be 1x1, got {:?}", self.value(loss).shape());
        assert!(self.rg(loss), "backward: loss does not depend on any trainable leaf");
        self.nodes[loss.0].grad = Some(Matrix::ones(1, 1));

        for i in (0..=loss.0).rev() {
            let Some(grad) = self.nodes[i].grad.clone() else { continue };
            if !self.nodes[i].requires_grad {
                continue;
            }
            let op = self.nodes[i].op.clone();
            match op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    if self.rg(a) {
                        let da = ops::matmul_nt(&grad, self.value(b));
                        self.accum(a, da);
                    }
                    if self.rg(b) {
                        let db = ops::matmul_tn(self.value(a), &grad);
                        self.accum(b, db);
                    }
                }
                Op::Add(a, b) => {
                    self.accum(a, grad.clone());
                    self.accum(b, grad);
                }
                Op::Sub(a, b) => {
                    self.accum(a, grad.clone());
                    let mut db = grad;
                    ops::scale_assign(&mut db, -1.0);
                    self.accum(b, db);
                }
                Op::Mul(a, b) => {
                    if self.rg(a) {
                        let da = ops::mul(&grad, self.value(b));
                        self.accum(a, da);
                    }
                    if self.rg(b) {
                        let db = ops::mul(&grad, self.value(a));
                        self.accum(b, db);
                    }
                }
                Op::Scale(a, s) => {
                    // The upstream grad is an owned clone; scale it in place
                    // rather than allocating a second buffer.
                    let mut da = grad;
                    ops::scale_assign(&mut da, s);
                    self.accum(a, da);
                }
                Op::AddScalar(a, _) => self.accum(a, grad),
                Op::AddRowBroadcast(a, row) => {
                    self.accum(a, grad.clone());
                    if self.rg(row) {
                        self.accum(row, ops::sum_rows(&grad));
                    }
                }
                Op::MulRowBroadcast(a, row) => {
                    if self.rg(a) {
                        let da = ops::mul_row_broadcast(&grad, self.value(row));
                        self.accum(a, da);
                    }
                    if self.rg(row) {
                        let prod = ops::mul(&grad, self.value(a));
                        self.accum(row, ops::sum_rows(&prod));
                    }
                }
                Op::MulColBroadcast(a, col) => {
                    if self.rg(a) {
                        let da = ops::mul_col_broadcast(&grad, self.value(col));
                        self.accum(a, da);
                    }
                    if self.rg(col) {
                        let prod = ops::mul(&grad, self.value(a));
                        self.accum(col, ops::sum_cols(&prod));
                    }
                }
                Op::Concat(parts) => {
                    let widths: Vec<usize> = parts.iter().map(|&p| self.value(p).cols()).collect();
                    let pieces = grad.hsplit(&widths);
                    for (part, piece) in parts.into_iter().zip(pieces) {
                        self.accum(part, piece);
                    }
                }
                Op::GatherRows(a, rows) => {
                    if self.rg(a) {
                        let mut da = Matrix::zeros(self.value(a).rows(), self.value(a).cols());
                        da.scatter_add_rows(&rows, &grad);
                        self.accum(a, da);
                    }
                }
                Op::SegmentMeanRows(a, g) => {
                    let da = ops::scale(&ops::repeat_rows(&grad, g), 1.0 / g as f32);
                    self.accum(a, da);
                }
                Op::SegmentSumRows(a, g) => {
                    self.accum(a, ops::repeat_rows(&grad, g));
                }
                Op::SegmentSumRowsVar(a, offsets) => {
                    let da = scatter_segments_var(&grad, &offsets, self.value(a).rows(), false);
                    self.accum(a, da);
                }
                Op::SegmentMeanRowsVar(a, offsets) => {
                    let da = scatter_segments_var(&grad, &offsets, self.value(a).rows(), true);
                    self.accum(a, da);
                }
                Op::RepeatRows(a, g) => {
                    self.accum(a, ops::segment_sum_rows(&grad, g));
                }
                Op::LeakyRelu(a, slope) => {
                    let x = self.value(a);
                    let da = Matrix::from_vec(
                        x.rows(),
                        x.cols(),
                        x.as_slice()
                            .iter()
                            .zip(grad.as_slice())
                            .map(|(&xv, &gv)| if xv >= 0.0 { gv } else { slope * gv })
                            .collect(),
                    );
                    self.accum(a, da);
                }
                Op::Relu(a) => {
                    let x = self.value(a);
                    let da = Matrix::from_vec(
                        x.rows(),
                        x.cols(),
                        x.as_slice()
                            .iter()
                            .zip(grad.as_slice())
                            .map(|(&xv, &gv)| if xv > 0.0 { gv } else { 0.0 })
                            .collect(),
                    );
                    self.accum(a, da);
                }
                Op::Sigmoid(a) => {
                    let y = &self.nodes[i].value;
                    let da = Matrix::from_vec(
                        y.rows(),
                        y.cols(),
                        y.as_slice()
                            .iter()
                            .zip(grad.as_slice())
                            .map(|(&yv, &gv)| gv * yv * (1.0 - yv))
                            .collect(),
                    );
                    self.accum(a, da);
                }
                Op::Tanh(a) => {
                    let y = &self.nodes[i].value;
                    let da = Matrix::from_vec(
                        y.rows(),
                        y.cols(),
                        y.as_slice()
                            .iter()
                            .zip(grad.as_slice())
                            .map(|(&yv, &gv)| gv * (1.0 - yv * yv))
                            .collect(),
                    );
                    self.accum(a, da);
                }
                Op::Exp(a) => {
                    let mut da = grad;
                    ops::mul_assign(&mut da, &self.nodes[i].value);
                    self.accum(a, da);
                }
                Op::Ln(a) => {
                    let x = self.value(a);
                    let da = Matrix::from_vec(
                        x.rows(),
                        x.cols(),
                        x.as_slice().iter().zip(grad.as_slice()).map(|(&xv, &gv)| gv / xv).collect(),
                    );
                    self.accum(a, da);
                }
                Op::SqrtEps(a, _) => {
                    let y = &self.nodes[i].value;
                    let da = Matrix::from_vec(
                        y.rows(),
                        y.cols(),
                        y.as_slice()
                            .iter()
                            .zip(grad.as_slice())
                            .map(|(&yv, &gv)| gv * 0.5 / yv.max(1e-12))
                            .collect(),
                    );
                    self.accum(a, da);
                }
                Op::Square(a) => {
                    let x = self.value(a);
                    let da = Matrix::from_vec(
                        x.rows(),
                        x.cols(),
                        x.as_slice().iter().zip(grad.as_slice()).map(|(&xv, &gv)| gv * 2.0 * xv).collect(),
                    );
                    self.accum(a, da);
                }
                Op::Abs(a) => {
                    let x = self.value(a);
                    let da = Matrix::from_vec(
                        x.rows(),
                        x.cols(),
                        x.as_slice()
                            .iter()
                            .zip(grad.as_slice())
                            .map(|(&xv, &gv)| if xv >= 0.0 { gv } else { -gv })
                            .collect(),
                    );
                    self.accum(a, da);
                }
                Op::Neg(a) => {
                    let mut da = grad;
                    ops::scale_assign(&mut da, -1.0);
                    self.accum(a, da);
                }
                Op::Dropout(a, mask) => {
                    let mut da = grad;
                    ops::mul_assign(&mut da, &mask);
                    self.accum(a, da);
                }
                Op::SumAll(a) => {
                    let (r, c) = self.value(a).shape();
                    self.accum(a, Matrix::full(r, c, grad.get(0, 0)));
                }
                Op::MeanAll(a) => {
                    let (r, c) = self.value(a).shape();
                    let n = (r * c).max(1) as f32;
                    self.accum(a, Matrix::full(r, c, grad.get(0, 0) / n));
                }
                Op::SumRows(a) => {
                    let (r, c) = self.value(a).shape();
                    let da = ops::add_row_broadcast(&Matrix::zeros(r, c), &grad);
                    self.accum(a, da);
                }
                Op::SumCols(a) => {
                    let (r, c) = self.value(a).shape();
                    let da = ops::mul_col_broadcast(&Matrix::ones(r, c), &grad);
                    self.accum(a, da);
                }
                Op::SegmentSoftmaxCol(a, g) => {
                    // For each group with outputs y and incoming grad gr:
                    // da_j = y_j * (gr_j - sum_k gr_k y_k)
                    let y = &self.nodes[i].value;
                    let rows = y.rows();
                    let mut da = Matrix::zeros(rows, 1);
                    for start in (0..rows).step_by(g) {
                        let mut dotsum = 0.0f32;
                        for j in start..start + g {
                            dotsum += grad.get(j, 0) * y.get(j, 0);
                        }
                        for j in start..start + g {
                            da.set(j, 0, y.get(j, 0) * (grad.get(j, 0) - dotsum));
                        }
                    }
                    self.accum(a, da);
                }
                Op::Reshape(a, _, _) => {
                    let (r, c) = self.value(a).shape();
                    // Zero-copy: the owned grad's buffer is moved, not cloned.
                    self.accum(a, grad.into_reshape(r, c));
                }
            }
        }
    }

    /// Flushes accumulated leaf gradients back into the parameter store
    /// (adding on top of whatever is already there, so gradients accumulate
    /// across micro-batches until the optimizer zeroes them).
    pub fn grads_into(&self, store: &mut ParamStore) {
        for binding in &self.bindings {
            match binding {
                Binding::Full(id, v) => {
                    if let Some(g) = self.grad(*v) {
                        store.accumulate_grad(*id, g);
                    }
                }
                Binding::Rows(id, rows, v) => {
                    if let Some(g) = self.grad(*v) {
                        store.accumulate_grad_rows(*id, rows, g);
                    }
                }
            }
        }
    }
}

/// Backward kernel: broadcast each grad row back over its segment.
fn scatter_segments_var(grad: &Matrix, offsets: &[usize], in_rows: usize, mean: bool) -> Matrix {
    let mut da = Matrix::zeros(in_rows, grad.cols());
    let n = offsets.len() - 1;
    for i in 0..n {
        let (lo, hi) = (offsets[i], offsets[i + 1]);
        if lo == hi {
            continue;
        }
        let scale = if mean { 1.0 / (hi - lo) as f32 } else { 1.0 };
        for r in lo..hi {
            let dst = da.row_mut(r);
            for (o, &g) in dst.iter_mut().zip(grad.row(i)) {
                *o += scale * g;
            }
        }
    }
    da
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(r: usize, c: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(r, c, v.to_vec())
    }

    #[test]
    fn eval_over_matrices_gives_what_the_tape_records() {
        let (a, b) = (m(2, 2, &[0.5, -0.0, 2.0, 0.0]), m(2, 2, &[1.5, 3.0, -1.0, 0.25]));
        let mut g = Graph::new();
        let (av, bv) = (g.constant(a.clone()), g.constant(b.clone()));
        let prod = g.matmul(av, bv);
        let gate = g.sigmoid(prod);
        let cat = g.concat(&[gate, av]);
        let direct = |op: Op<&Matrix>| eval(&op, |v| *v);
        let want_prod = direct(Op::MatMul(&a, &b));
        let want_gate = direct(Op::Sigmoid(&want_prod));
        let want_cat = direct(Op::Concat(vec![&want_gate, &a]));
        for (var, want) in [(prod, want_prod), (gate, want_gate), (cat, want_cat)] {
            let bits = |x: &Matrix| x.as_slice().iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g.value(var)), bits(&want));
        }
    }

    #[test]
    fn backward_through_matmul_chain() {
        // loss = sum(A·B); dA = 1·Bᵀ, dB = Aᵀ·1
        let mut g = Graph::new();
        let a = g.leaf(m(2, 2, &[1., 2., 3., 4.]));
        let b = g.leaf(m(2, 2, &[5., 6., 7., 8.]));
        let c = g.matmul(a, b);
        let loss = g.sum_all(c);
        g.backward(loss);
        // dA[i][k] = sum_j B[k][j] = row sums of B
        assert_eq!(g.grad(a).unwrap().as_slice(), &[11., 15., 11., 15.]);
        // dB[k][j] = sum_i A[i][k] = col sums of A
        assert_eq!(g.grad(b).unwrap().as_slice(), &[4., 4., 6., 6.]);
    }

    #[test]
    fn constants_get_no_grad() {
        let mut g = Graph::new();
        let a = g.leaf(m(1, 2, &[1., 2.]));
        let c = g.constant(m(1, 2, &[3., 4.]));
        let s = g.mul(a, c);
        let loss = g.sum_all(s);
        g.backward(loss);
        assert!(g.grad(c).is_none());
        assert_eq!(g.grad(a).unwrap().as_slice(), &[3., 4.]);
    }

    #[test]
    fn grad_accumulates_over_fanout() {
        // loss = sum(a + a) → da = 2
        let mut g = Graph::new();
        let a = g.leaf(m(1, 2, &[1., 1.]));
        let s = g.add(a, a);
        let loss = g.sum_all(s);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().as_slice(), &[2., 2.]);
    }

    #[test]
    #[should_panic(expected = "loss must be 1x1")]
    fn backward_rejects_non_scalar() {
        let mut g = Graph::new();
        let a = g.leaf(m(1, 2, &[1., 2.]));
        g.backward(a);
    }

    #[test]
    fn dropout_zero_p_is_identity() {
        let mut g = Graph::new();
        let a = g.leaf(m(1, 3, &[1., 2., 3.]));
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let d = g.dropout(a, 0.0, &mut rng);
        assert_eq!(d, a);
    }

    #[test]
    fn segment_softmax_grad_sums_to_zero() {
        // Softmax grad within a group is orthogonal to the all-ones vector.
        let mut g = Graph::new();
        let a = g.leaf(Matrix::col_vector(vec![0.2, -0.3, 1.0, 0.5]));
        let s = g.segment_softmax_col(a, 2);
        let w = g.constant(Matrix::col_vector(vec![1.0, 0.0, 0.0, 2.0]));
        let prod = g.mul(s, w);
        let loss = g.sum_all(prod);
        g.backward(loss);
        let da = g.grad(a).unwrap();
        assert!((da.get(0, 0) + da.get(1, 0)).abs() < 1e-5);
        assert!((da.get(2, 0) + da.get(3, 0)).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "matmul: inner dims")]
    fn unchecked_mismatch_panics_with_var_ids() {
        let mut g = Graph::new();
        let a = g.leaf(m(2, 3, &[0.; 6]));
        let b = g.leaf(m(2, 4, &[0.; 8]));
        g.matmul(a, b);
    }

    #[test]
    fn checked_graph_collects_all_violations_and_keeps_building() {
        let mut g = Graph::new_checked();
        let a = g.leaf(m(2, 3, &[1.; 6]));
        let b = g.leaf(m(2, 4, &[1.; 8]));
        // Violation 1: inner dims 3 vs 2. Recovery node is 2x4 zeros.
        let p = g.matmul(a, b);
        // Violation 2: elementwise on 2x4 vs 2x3.
        let q = g.add(p, a);
        // Valid op on the recovery value still records cleanly.
        let r = g.sum_all(q);
        assert_eq!(g.shape(p), (2, 4));
        assert_eq!(g.shape(r), (1, 1));
        let issues = g.issues();
        assert_eq!(issues.len(), 2);
        assert_eq!(issues[0].kind, TapeIssueKind::ShapeMismatch);
        assert_eq!(issues[0].op, "matmul");
        assert_eq!(issues[0].var, p.index());
        assert_eq!(issues[0].operands.len(), 2);
        assert_eq!(issues[0].operands[0].shape, (2, 3));
        assert_eq!(issues[1].op, "add");
        // The rendered issue reads like an op trace line.
        assert!(issues[0].to_string().contains("%2 = matmul"), "{}", issues[0]);
    }

    #[test]
    #[should_panic(expected = "recorded issue")]
    fn backward_refuses_tape_with_issues() {
        let mut g = Graph::new_checked();
        let a = g.leaf(m(2, 3, &[1.; 6]));
        let b = g.leaf(m(2, 4, &[1.; 8]));
        let p = g.matmul(a, b);
        let loss = g.sum_all(p);
        g.backward(loss);
    }

    #[test]
    fn checked_graph_records_non_finite_ops() {
        let mut g = Graph::new_checked();
        let a = g.leaf(m(1, 2, &[-1.0, 1.0]));
        let l = g.ln(a); // ln(-1) = NaN
        assert_eq!(g.issues().len(), 1);
        assert_eq!(g.issues()[0].kind, TapeIssueKind::NonFinite);
        assert_eq!(g.issues()[0].var, l.index());
    }

    #[test]
    fn checked_graph_flags_nan_operand_masked_by_matmul_zero_skip() {
        // a is all zeros, so the kernel's `av == 0.0` fast path skips every
        // row of b and the product is finite zeros — strict IEEE 754 would
        // have produced NaN (0·NaN). The output sentinel alone therefore
        // misses the poisoned operand; the operand scan must flag it at the
        // consuming matmul.
        let mut g = Graph::new_checked();
        let a = g.leaf(m(1, 2, &[0.0, 0.0]));
        let b = g.constant(m(2, 1, &[f32::NAN, 1.0]));
        let p = g.matmul(a, b);
        assert!(g.value(p).all_finite(), "zero-skip should mask the NaN in the product");
        let issues = g.issues();
        // Issue 0: the NaN constant itself entering the tape.
        // Issue 1 (the regression): the matmul consuming the poisoned operand.
        assert_eq!(issues.len(), 2, "{issues:?}");
        assert_eq!(issues[1].kind, TapeIssueKind::NonFinite);
        assert_eq!(issues[1].op, "matmul");
        assert_eq!(issues[1].var, p.index());
        assert!(issues[1].message.contains("zero-skip"), "{}", issues[1].message);
    }

    #[test]
    fn reachability_and_views_describe_the_tape() {
        let mut g = Graph::new();
        let a = g.leaf(m(1, 2, &[1., 2.]));
        let b = g.constant(m(1, 2, &[3., 4.]));
        let used = g.mul(a, b);
        let orphan = g.square(b); // computed but never feeds the loss
        let loss = g.sum_all(used);
        let reach = g.reachable_from(loss);
        assert!(reach[a.index()] && reach[b.index()] && reach[used.index()] && reach[loss.index()]);
        assert!(!reach[orphan.index()]);
        let view = g.op_view(used);
        assert_eq!(view.op, "mul");
        assert_eq!(view.parents, vec![a, b]);
        assert_eq!(view.shape, (1, 2));
        assert!(view.requires_grad);
        let trace = g.trace(loss, 3);
        assert!(trace.contains("sum_all"), "{trace}");
        assert!(trace.contains("mul"), "{trace}");
    }

    #[test]
    #[should_panic(expected = "no gradient reached user_tower.w1")]
    fn grad_expect_names_the_dead_parameter() {
        let mut g = Graph::new();
        let a = g.leaf(m(1, 2, &[1., 2.]));
        let dead = g.leaf(m(1, 2, &[0., 0.]));
        let loss = g.sum_all(a);
        g.backward(loss);
        let _ = g.grad_expect(dead, "user_tower.w1");
    }
}
