//! Static shape/flow auditor for the autograd tape.
//!
//! The autograd crate's checked mode ([`Graph::new_checked`]) records
//! [`agnn_autograd::TapeIssue`]s — shape-rule violations and non-finite op
//! outputs — with per-op provenance instead of panicking. This crate turns
//! those recordings, plus a *flow audit* of one backward pass, into an
//! [`AuditReport`]:
//!
//! * **shape-mismatch / non-finite** (error) — replayed from the tape's
//!   recorded issues, each with a rendered op trace;
//! * **dead-parameter** (error; warning when frozen) — registered in the
//!   [`ParamStore`] but no gradient reached it on any audited tape;
//! * **orphan-var** (warning) — a non-leaf node computed but unreachable
//!   from the loss, i.e. wasted forward work;
//! * **unbound-trainable-leaf** (error) — a `requires_grad` leaf with no
//!   store binding, whose gradient would be silently dropped;
//! * **disconnected-loss** (error) — the loss depends on no trainable leaf,
//!   so training would be a no-op.
//!
//! Multi-phase fits (pre-train then fine-tune) legitimately leave some
//! parameters untouched per phase, so dead-parameter verdicts are reached by
//! *unioning* per-tape observations in an [`AuditAccumulator`] and calling
//! [`AuditAccumulator::finish`] once every phase has been absorbed. The
//! training engine fires [`audit_tape`] on the first few batches of every
//! `Trainer::run` (see `agnn-train`), and the `agnn check` CLI drives a
//! model's full fit on a tiny tracer dataset to produce the final report.

use agnn_autograd::{Graph, ParamStore, TapeIssueKind, Var};
use std::collections::BTreeMap;

/// How bad an audit finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but survivable (e.g. wasted forward work).
    Warning,
    /// Training is broken or silently wrong; `agnn check` exits non-zero.
    Error,
}

/// One audit finding.
#[derive(Clone, Debug)]
pub struct AuditIssue {
    /// Rule identifier: `shape-mismatch`, `non-finite`, `dead-parameter`,
    /// `orphan-var`, `unbound-trainable-leaf`, `disconnected-loss`.
    pub rule: &'static str,
    /// Finding severity.
    pub severity: Severity,
    /// What the finding is about: a parameter name or an op like
    /// `%12 = matmul`.
    pub subject: String,
    /// Human-readable statement of the problem.
    pub message: String,
    /// Rendered op trace of the offending node's inputs, when applicable.
    pub trace: Option<String>,
}

impl std::fmt::Display for AuditIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tag = match self.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(f, "{tag}[{}] {}: {}", self.rule, self.subject, self.message)?;
        if let Some(trace) = &self.trace {
            for line in trace.lines() {
                write!(f, "\n    | {line}")?;
            }
        }
        Ok(())
    }
}

/// What one parameter did on one audited tape.
#[derive(Clone, Debug)]
pub struct ParamFlow {
    /// Registered parameter name.
    pub name: String,
    /// Whether the tape bound the parameter at all.
    pub bound: bool,
    /// Whether a gradient reached its leaf during backward.
    pub got_grad: bool,
    /// Whether the store has it frozen (optimizer skips it).
    pub frozen: bool,
}

/// The audit of a single tape: per-tape findings plus the parameter flow
/// observations an [`AuditAccumulator`] unions across tapes and phases.
#[derive(Clone, Debug, Default)]
pub struct TapeAudit {
    /// Findings local to this tape (shape, non-finite, orphans, leaves).
    pub issues: Vec<AuditIssue>,
    /// One entry per store parameter; empty when no backward pass ran.
    pub param_flow: Vec<ParamFlow>,
    /// Number of nodes on the audited tape.
    pub ops: usize,
    /// Whether gradient flow was measured (loss connected, backward ran).
    pub flow_measured: bool,
}

impl TapeAudit {
    /// True when any finding is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.issues.iter().any(|i| i.severity == Severity::Error)
    }
}

/// How deep the rendered op trace under each finding goes.
const TRACE_DEPTH: usize = 2;
/// At most this many orphan nodes are itemized per tape (the rest are
/// summarized in one finding) to keep reports readable.
const MAX_ORPHANS_LISTED: usize = 5;

/// Audits one tape. Pass `loss: Some(..)` after a successful `backward` to
/// get the flow audit (dead parameters, orphans); pass `None` when the tape
/// has recorded issues or a disconnected loss, in which case only the
/// construction-time findings are reported.
pub fn audit_tape(g: &Graph, store: &ParamStore, loss: Option<Var>) -> TapeAudit {
    let mut issues = Vec::new();

    // Construction-time issues recorded by checked mode, with provenance.
    for t in g.issues() {
        let (rule, severity) = match t.kind {
            TapeIssueKind::ShapeMismatch => ("shape-mismatch", Severity::Error),
            TapeIssueKind::NonFinite => ("non-finite", Severity::Error),
        };
        issues.push(AuditIssue {
            rule,
            severity,
            subject: format!("%{} = {}", t.var, t.op),
            message: t.to_string(),
            trace: Some(g.trace(g.var_at(t.var), TRACE_DEPTH)),
        });
    }

    let bindings = g.param_bindings();

    // A trainable leaf with no binding loses its gradient in `grads_into`.
    let bound_vars: Vec<usize> = bindings.iter().map(|b| b.var.index()).collect();
    for view in g.op_views() {
        if view.op == "leaf" && view.requires_grad && !bound_vars.contains(&view.var.index()) {
            issues.push(AuditIssue {
                rule: "unbound-trainable-leaf",
                severity: Severity::Error,
                subject: format!("%{} = leaf", view.var.index()),
                message: format!(
                    "trainable {}x{} leaf is not bound to any store parameter; its gradient is dropped by grads_into",
                    view.shape.0, view.shape.1
                ),
                trace: None,
            });
        }
    }

    let mut param_flow = Vec::new();
    let mut flow_measured = false;
    if let Some(loss) = loss {
        if !g.requires_grad(loss) {
            issues.push(AuditIssue {
                rule: "disconnected-loss",
                severity: Severity::Error,
                subject: format!("%{} = {}", loss.index(), g.op_view(loss).op),
                message: "loss depends on no trainable leaf; an optimizer step would be a no-op".to_string(),
                trace: Some(g.trace(loss, TRACE_DEPTH)),
            });
        } else {
            flow_measured = true;
            // Dead parameters: union gradient receipt over every binding of
            // the same parameter (a tape may bind rows more than once).
            for id in store.ids() {
                let mine: Vec<_> = bindings.iter().filter(|b| b.id == id).collect();
                let bound = !mine.is_empty();
                let got_grad = mine.iter().any(|b| g.grad(b.var).is_some());
                param_flow.push(ParamFlow {
                    name: store.name(id).to_string(),
                    bound,
                    got_grad,
                    frozen: store.is_frozen(id),
                });
            }

            // Orphans: computed, but the loss never consumes them.
            let reachable = g.reachable_from(loss);
            let orphans: Vec<usize> = (0..g.len())
                .filter(|&i| !reachable[i] && g.op_view(g.var_at(i)).op != "leaf")
                .collect();
            for &i in orphans.iter().take(MAX_ORPHANS_LISTED) {
                let view = g.op_view(g.var_at(i));
                issues.push(AuditIssue {
                    rule: "orphan-var",
                    severity: Severity::Warning,
                    subject: format!("%{} = {}", i, view.op),
                    message: format!(
                        "{}x{} node is unreachable from the loss; its forward work is wasted",
                        view.shape.0, view.shape.1
                    ),
                    trace: None,
                });
            }
            if orphans.len() > MAX_ORPHANS_LISTED {
                issues.push(AuditIssue {
                    rule: "orphan-var",
                    severity: Severity::Warning,
                    subject: "tape".to_string(),
                    message: format!("{} more orphan nodes not listed", orphans.len() - MAX_ORPHANS_LISTED),
                    trace: None,
                });
            }
        }
    }

    TapeAudit { issues, param_flow, ops: g.len(), flow_measured }
}

/// Unions [`TapeAudit`]s across batches and training phases, then settles
/// cross-tape verdicts (dead parameters) in [`AuditAccumulator::finish`].
#[derive(Default)]
pub struct AuditAccumulator {
    issues: Vec<AuditIssue>,
    seen: std::collections::BTreeSet<(&'static str, String)>,
    /// name → (got a gradient on some tape, frozen on some tape).
    params: BTreeMap<String, (bool, bool)>,
    tapes: usize,
    flow_tapes: usize,
    ops: usize,
}

impl AuditAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one tape's audit in. Repeated findings (same rule and subject —
    /// the same broken op audited on several batches) are kept once.
    pub fn absorb(&mut self, audit: &TapeAudit) {
        self.tapes += 1;
        self.ops += audit.ops;
        if audit.flow_measured {
            self.flow_tapes += 1;
        }
        for issue in &audit.issues {
            if self.seen.insert((issue.rule, issue.subject.clone())) {
                self.issues.push(issue.clone());
            }
        }
        for pf in &audit.param_flow {
            let entry = self.params.entry(pf.name.clone()).or_insert((false, false));
            entry.0 |= pf.got_grad;
            entry.1 |= pf.frozen;
        }
    }

    /// Number of tapes absorbed so far.
    pub fn tapes(&self) -> usize {
        self.tapes
    }

    /// Settles cross-tape verdicts and produces the report for `model`.
    pub fn finish(mut self, model: impl Into<String>) -> AuditReport {
        // Dead-parameter verdicts need at least one measured backward pass;
        // a fit whose every tape was broken already reports hard errors.
        if self.flow_tapes > 0 {
            for (name, (got_grad, frozen)) in &self.params {
                if !got_grad {
                    self.issues.push(AuditIssue {
                        rule: "dead-parameter",
                        severity: if *frozen { Severity::Warning } else { Severity::Error },
                        subject: name.clone(),
                        message: format!(
                            "registered in the store but received no gradient on any of {} audited tape(s){}",
                            self.flow_tapes,
                            if *frozen { " (frozen, so possibly intentional)" } else { "" }
                        ),
                        trace: None,
                    });
                }
            }
        }
        self.issues.sort_by_key(|i| std::cmp::Reverse(i.severity));
        AuditReport {
            model: model.into(),
            tapes_audited: self.tapes,
            ops_audited: self.ops,
            params_audited: self.params.len(),
            issues: self.issues,
        }
    }
}

/// The final audit verdict for one model.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// Model name the audit ran against.
    pub model: String,
    /// Tapes absorbed (batches × phases).
    pub tapes_audited: usize,
    /// Total op count across audited tapes.
    pub ops_audited: usize,
    /// Parameters whose gradient flow was observed.
    pub params_audited: usize,
    /// All findings, errors first.
    pub issues: Vec<AuditIssue>,
}

impl AuditReport {
    /// True when the model should fail the `agnn check` gate.
    pub fn has_errors(&self) -> bool {
        self.issues.iter().any(|i| i.severity == Severity::Error)
    }

    /// Error / warning counts.
    pub fn counts(&self) -> (usize, usize) {
        let errors = self.issues.iter().filter(|i| i.severity == Severity::Error).count();
        (errors, self.issues.len() - errors)
    }

    /// Renders the report as readable text, one finding per paragraph.
    pub fn render(&self) -> String {
        let (errors, warnings) = self.counts();
        let mut out = format!(
            "audit {}: {} error(s), {} warning(s) over {} tape(s), {} op(s), {} param(s)\n",
            self.model, errors, warnings, self.tapes_audited, self.ops_audited, self.params_audited
        );
        for issue in &self.issues {
            out.push_str(&format!("  {issue}\n"));
        }
        if self.issues.is_empty() {
            out.push_str("  clean\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_autograd::Ops;
    use agnn_tensor::Matrix;

    fn m(r: usize, c: usize, v: f32) -> Matrix {
        Matrix::from_fn(r, c, |_, _| v)
    }

    /// A seeded fixture: `w_live` feeds the loss, `w_dead` is registered but
    /// never used, `w_frozen` likewise but frozen.
    fn dead_param_fixture() -> (Graph, ParamStore, Var) {
        let mut store = ParamStore::new();
        let live = store.add("w_live", m(2, 3, 0.5));
        let _dead = store.add("w_dead", m(2, 3, 0.1));
        let frozen = store.add("w_frozen", m(2, 3, 0.2));
        store.set_frozen(frozen, true);
        let mut g = Graph::new_checked();
        let w = g.param_full(&store, live);
        let sq = g.square(w);
        let loss = g.sum_all(sq);
        g.backward(loss);
        (g, store, loss)
    }

    #[test]
    fn dead_params_are_flagged_with_frozen_downgrade() {
        let (g, store, loss) = dead_param_fixture();
        let mut acc = AuditAccumulator::new();
        acc.absorb(&audit_tape(&g, &store, Some(loss)));
        let report = acc.finish("fixture");
        assert!(report.has_errors());
        let dead: Vec<_> = report.issues.iter().filter(|i| i.rule == "dead-parameter").collect();
        assert_eq!(dead.len(), 2);
        let by_name = |n: &str| dead.iter().find(|i| i.subject == n).expect("flagged");
        assert_eq!(by_name("w_dead").severity, Severity::Error);
        assert_eq!(by_name("w_frozen").severity, Severity::Warning);
        assert!(!report.issues.iter().any(|i| i.subject == "w_live"));
    }

    #[test]
    fn union_across_phases_clears_phase_local_dead_params() {
        // Phase 1 trains only w_a; phase 2 trains only w_b. Neither phase
        // alone is conclusive — the union must come out clean.
        let mut store = ParamStore::new();
        let a = store.add("w_a", m(1, 2, 0.3));
        let b = store.add("w_b", m(1, 2, 0.7));
        let mut acc = AuditAccumulator::new();
        for id in [a, b] {
            let mut g = Graph::new_checked();
            let w = g.param_full(&store, id);
            let sq = g.square(w);
            let loss = g.sum_all(sq);
            g.backward(loss);
            acc.absorb(&audit_tape(&g, &store, Some(loss)));
        }
        let report = acc.finish("two-phase");
        assert!(!report.has_errors(), "{}", report.render());
        assert_eq!(report.tapes_audited, 2);
    }

    #[test]
    fn orphan_vars_warn_but_do_not_fail_the_gate() {
        let mut store = ParamStore::new();
        let id = store.add("w", m(2, 2, 0.4));
        let mut g = Graph::new_checked();
        let w = g.param_full(&store, id);
        let used = g.square(w);
        let _orphan = g.tanh(w); // forward work the loss never consumes
        let loss = g.sum_all(used);
        g.backward(loss);
        let audit = audit_tape(&g, &store, Some(loss));
        let orphans: Vec<_> = audit.issues.iter().filter(|i| i.rule == "orphan-var").collect();
        assert_eq!(orphans.len(), 1);
        assert_eq!(orphans[0].severity, Severity::Warning);
        assert!(orphans[0].subject.contains("tanh"), "{}", orphans[0].subject);
        let mut acc = AuditAccumulator::new();
        acc.absorb(&audit);
        assert!(!acc.finish("orphan").has_errors());
    }

    #[test]
    fn misshaped_tape_reports_all_violations_with_traces() {
        let mut store = ParamStore::new();
        let id = store.add("w", m(2, 3, 1.0));
        let mut g = Graph::new_checked();
        let w = g.param_full(&store, id);
        let bad = g.constant(m(2, 4, 1.0));
        let p = g.matmul(w, bad); // inner dims 3 vs 2
        let q = g.add(p, w); // 2x4 vs 2x3
        let _loss = g.sum_all(q);
        let audit = audit_tape(&g, &store, None);
        assert!(audit.has_errors());
        let shapes: Vec<_> = audit.issues.iter().filter(|i| i.rule == "shape-mismatch").collect();
        assert_eq!(shapes.len(), 2, "both violations reported, not just the first");
        assert!(shapes[0].trace.as_deref().unwrap_or("").contains("matmul"));
        let report = {
            let mut acc = AuditAccumulator::new();
            acc.absorb(&audit);
            acc.finish("misshaped")
        };
        assert!(report.render().contains("shape-mismatch"), "{}", report.render());
    }

    #[test]
    fn unbound_trainable_leaf_is_an_error() {
        let store = ParamStore::new();
        let mut g = Graph::new_checked();
        let stray = g.leaf(m(1, 2, 0.5));
        let sq = g.square(stray);
        let loss = g.sum_all(sq);
        g.backward(loss);
        let audit = audit_tape(&g, &store, Some(loss));
        assert!(audit.issues.iter().any(|i| i.rule == "unbound-trainable-leaf" && i.severity == Severity::Error));
    }

    #[test]
    fn disconnected_loss_is_an_error() {
        let mut store = ParamStore::new();
        store.add("w", m(1, 2, 0.5));
        let mut g = Graph::new_checked();
        let c = g.constant(m(1, 1, 3.0));
        let loss = g.sum_all(c);
        let audit = audit_tape(&g, &store, Some(loss));
        assert!(audit.issues.iter().any(|i| i.rule == "disconnected-loss"));
        assert!(!audit.flow_measured);
    }

    #[test]
    fn repeated_findings_dedup_across_batches() {
        let mut store = ParamStore::new();
        let id = store.add("w", m(2, 3, 1.0));
        let mut acc = AuditAccumulator::new();
        for _ in 0..3 {
            let mut g = Graph::new_checked();
            let w = g.param_full(&store, id);
            let bad = g.constant(m(2, 4, 1.0));
            let _p = g.matmul(w, bad);
            acc.absorb(&audit_tape(&g, &store, None));
        }
        let report = acc.finish("dedup");
        assert_eq!(report.issues.iter().filter(|i| i.rule == "shape-mismatch").count(), 1);
        assert_eq!(report.tapes_audited, 3);
    }
}
