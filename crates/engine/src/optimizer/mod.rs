//! The rule-based logical optimizer — the analogue of Catalyst's logical
//! optimization phase.
//!
//! Rules are trait objects so libraries can register their own (the
//! extension seam shown in the paper's Figure 1: *"Our library includes
//! optimization rules that make regular Spark SQL queries aware of our
//! custom indexed operations"*). The built-in pipeline:
//!
//! 1. [`ConstantFolding`] — evaluate literal subtrees.
//! 2. [`SimplifyPredicates`] — drop `TRUE` filters, collapse `FALSE`
//!    filters to empty relations.
//! 3. [`PredicatePushdown`] — move filters toward the data, including
//!    *into* table sources that support native evaluation; this is what
//!    routes an equality filter on an indexed column into a cTrie lookup.
//! 4. [`ProjectionPruning`] — narrow scans to the referenced columns (the
//!    columnar cache then touches only those columns, which is why the
//!    vanilla engine wins the paper's projection microbenchmark).

mod folding;
mod pruning;
mod pushdown;

pub(crate) use folding::fold_expr;
pub use folding::{ConstantFolding, SimplifyPredicates};
pub use pruning::ProjectionPruning;
pub use pushdown::PredicatePushdown;

use std::sync::Arc;

use crate::error::Result;
use crate::logical::LogicalPlan;

/// A logical-to-logical rewrite.
pub trait OptimizerRule: Send + Sync {
    /// Rule name (for EXPLAIN / debugging).
    fn name(&self) -> &str;
    /// Rewrite the plan (return it unchanged if not applicable).
    fn optimize(&self, plan: &LogicalPlan) -> Result<LogicalPlan>;
}

/// An ordered rule pipeline.
pub struct Optimizer {
    rules: Vec<Arc<dyn OptimizerRule>>,
}

impl Optimizer {
    /// The default pipeline plus `extra` rules appended at the end.
    pub fn with_rules(extra: Vec<Arc<dyn OptimizerRule>>) -> Self {
        let mut rules: Vec<Arc<dyn OptimizerRule>> = vec![
            Arc::new(ConstantFolding),
            Arc::new(SimplifyPredicates),
            Arc::new(PredicatePushdown),
            Arc::new(ProjectionPruning),
        ];
        rules.extend(extra);
        Optimizer { rules }
    }

    /// Run every rule once, in order.
    pub fn optimize(&self, plan: &LogicalPlan) -> Result<LogicalPlan> {
        let mut plan = plan.clone();
        for rule in &self.rules {
            plan = rule.optimize(&plan)?;
        }
        Ok(plan)
    }
}

impl Default for Optimizer {
    fn default() -> Self {
        Self::with_rules(Vec::new())
    }
}

/// Rebuild a plan node with children produced by `f` (bottom-up transform
/// helper shared by the rules).
pub(crate) fn map_children(
    plan: &LogicalPlan,
    f: &mut impl FnMut(&LogicalPlan) -> Result<LogicalPlan>,
) -> Result<LogicalPlan> {
    Ok(match plan {
        LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => plan.clone(),
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Arc::new(f(input)?),
            predicate: predicate.clone(),
        },
        LogicalPlan::Projection {
            input,
            exprs,
            schema,
        } => LogicalPlan::Projection {
            input: Arc::new(f(input)?),
            exprs: exprs.clone(),
            schema: Arc::clone(schema),
        },
        LogicalPlan::Join {
            left,
            right,
            on,
            join_type,
            schema,
        } => LogicalPlan::Join {
            left: Arc::new(f(left)?),
            right: Arc::new(f(right)?),
            on: on.clone(),
            join_type: *join_type,
            schema: Arc::clone(schema),
        },
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            agg_exprs,
            schema,
        } => LogicalPlan::Aggregate {
            input: Arc::new(f(input)?),
            group_exprs: group_exprs.clone(),
            agg_exprs: agg_exprs.clone(),
            schema: Arc::clone(schema),
        },
        LogicalPlan::Sort { input, exprs } => LogicalPlan::Sort {
            input: Arc::new(f(input)?),
            exprs: exprs.clone(),
        },
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Arc::new(f(input)?),
            n: *n,
        },
        LogicalPlan::Union { inputs, schema } => LogicalPlan::Union {
            inputs: inputs
                .iter()
                .map(|i| f(i).map(Arc::new))
                .collect::<Result<_>>()?,
            schema: Arc::clone(schema),
        },
    })
}
