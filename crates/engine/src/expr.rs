//! Logical expressions: the AST the DataFrame API and SQL front end build,
//! the analyzer resolves, and the optimizer rewrites.

use std::fmt;

use crate::types::{DataType, Value};

/// A column reference, unresolved (`name`, optional `qualifier`) until the
/// analyzer fills in `index` against the input schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRefExpr {
    /// Optional table qualifier (`person` in `person.id`).
    pub qualifier: Option<String>,
    /// Column name.
    pub name: String,
    /// Position in the operator's input schema; `None` until analyzed.
    pub index: Option<usize>,
}

impl ColumnRefExpr {
    /// Display name (`qualifier.name` or `name`).
    pub fn display_name(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{q}.{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Multiply,
    /// `/`
    Divide,
    /// `%`
    Modulo,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinaryOp {
    /// Whether the operator yields a boolean.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }

    /// Whether the operator is boolean conjunction/disjunction.
    pub fn is_logic(&self) -> bool {
        matches!(self, BinaryOp::And | BinaryOp::Or)
    }

    /// Whether the operator is arithmetic.
    pub fn is_arithmetic(&self) -> bool {
        matches!(
            self,
            BinaryOp::Plus
                | BinaryOp::Minus
                | BinaryOp::Multiply
                | BinaryOp::Divide
                | BinaryOp::Modulo
        )
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::Plus => "+",
            BinaryOp::Minus => "-",
            BinaryOp::Multiply => "*",
            BinaryOp::Divide => "/",
            BinaryOp::Modulo => "%",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
        };
        f.write_str(s)
    }
}

/// Scalar (per-row) functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarFunc {
    /// Uppercase a string.
    Upper,
    /// Lowercase a string.
    Lower,
    /// Byte length of a string.
    Length,
    /// Absolute value of a number.
    Abs,
    /// First non-null argument.
    Coalesce,
}

impl fmt::Display for ScalarFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ScalarFunc::Upper => "upper",
            ScalarFunc::Lower => "lower",
            ScalarFunc::Length => "length",
            ScalarFunc::Abs => "abs",
            ScalarFunc::Coalesce => "coalesce",
        };
        f.write_str(s)
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(expr)` / `COUNT(*)` when the argument is absent.
    Count,
    /// `SUM(expr)`
    Sum,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
    /// `AVG(expr)`
    Avg,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        };
        f.write_str(s)
    }
}

/// A logical expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference.
    Column(ColumnRefExpr),
    /// Literal scalar.
    Literal(Value),
    /// A typed placeholder for a literal of a cached plan
    /// ([`crate::sql`]'s plan cache). Rules treat it as an opaque,
    /// non-null, non-foldable constant of type `data_type`;
    /// [`crate::logical::LogicalPlan::bind_params`] replaces it with the
    /// statement's literal before physical planning.
    Param {
        /// Position in the statement's literal list.
        slot: usize,
        /// Type of every literal that may fill the slot.
        data_type: DataType,
    },
    /// `left op right`.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Boolean negation.
    Not(Box<Expr>),
    /// `expr IS NULL`.
    IsNull(Box<Expr>),
    /// `expr IS NOT NULL`.
    IsNotNull(Box<Expr>),
    /// Type conversion.
    Cast {
        /// Operand.
        expr: Box<Expr>,
        /// Target type.
        to: DataType,
    },
    /// Output renaming.
    Alias(Box<Expr>, String),
    /// Aggregate call; only valid inside `Aggregate` plans.
    Aggregate {
        /// The function.
        func: AggFunc,
        /// Argument; `None` means `COUNT(*)`.
        arg: Option<Box<Expr>>,
    },
    /// Scalar function call.
    Scalar {
        /// The function.
        func: ScalarFunc,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `expr [NOT] IN (v1, v2, ...)` with literal list entries.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// `NOT IN` when true.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern` (SQL `%`/`_` wildcards).
    Like {
        /// Tested string expression.
        expr: Box<Expr>,
        /// Pattern literal.
        pattern: String,
        /// `NOT LIKE` when true.
        negated: bool,
    },
}

impl Expr {
    /// The column's output name when this expression is projected.
    pub fn output_name(&self) -> String {
        match self {
            Expr::Column(c) => c.name.clone(),
            Expr::Literal(v) => v.to_string(),
            Expr::Param { slot, .. } => format!("?{slot}"),
            Expr::Alias(_, name) => name.clone(),
            Expr::Binary { left, op, right } => {
                format!("{} {op} {}", left.output_name(), right.output_name())
            }
            Expr::Not(e) => format!("NOT {}", e.output_name()),
            Expr::IsNull(e) => format!("{} IS NULL", e.output_name()),
            Expr::IsNotNull(e) => format!("{} IS NOT NULL", e.output_name()),
            Expr::Cast { expr, to } => format!("CAST({} AS {to})", expr.output_name()),
            Expr::Aggregate { func, arg } => match arg {
                Some(a) => format!("{func}({})", a.output_name()),
                None => format!("{func}(*)"),
            },
            Expr::Scalar { func, args } => {
                let parts: Vec<String> = args.iter().map(Expr::output_name).collect();
                format!("{func}({})", parts.join(", "))
            }
            Expr::InList { expr, negated, .. } => format!(
                "{}{} IN (...)",
                expr.output_name(),
                if *negated { " NOT" } else { "" }
            ),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => format!(
                "{}{} LIKE '{pattern}'",
                expr.output_name(),
                if *negated { " NOT" } else { "" }
            ),
        }
    }

    /// Whether the tree contains an aggregate call.
    pub fn has_aggregate(&self) -> bool {
        match self {
            Expr::Aggregate { .. } => true,
            Expr::Column(_) | Expr::Literal(_) | Expr::Param { .. } => false,
            Expr::Binary { left, right, .. } => left.has_aggregate() || right.has_aggregate(),
            Expr::Not(e) | Expr::IsNull(e) | Expr::IsNotNull(e) => e.has_aggregate(),
            Expr::Cast { expr, .. } => expr.has_aggregate(),
            Expr::Alias(e, _) => e.has_aggregate(),
            Expr::Scalar { args, .. } => args.iter().any(Expr::has_aggregate),
            Expr::InList { expr, list, .. } => {
                expr.has_aggregate() || list.iter().any(Expr::has_aggregate)
            }
            Expr::Like { expr, .. } => expr.has_aggregate(),
        }
    }

    /// Visit every leaf (column, literal, parameter) of the tree.
    pub fn for_each_leaf(&self, f: &mut impl FnMut(&Expr)) {
        match self {
            Expr::Column(_) | Expr::Literal(_) | Expr::Param { .. } => f(self),
            Expr::Binary { left, right, .. } => {
                left.for_each_leaf(f);
                right.for_each_leaf(f);
            }
            Expr::Not(e) | Expr::IsNull(e) | Expr::IsNotNull(e) => e.for_each_leaf(f),
            Expr::Cast { expr, .. } => expr.for_each_leaf(f),
            Expr::Alias(e, _) => e.for_each_leaf(f),
            Expr::Aggregate { arg, .. } => {
                if let Some(a) = arg {
                    a.for_each_leaf(f);
                }
            }
            Expr::Scalar { args, .. } => {
                for a in args {
                    a.for_each_leaf(f);
                }
            }
            Expr::InList { expr, list, .. } => {
                expr.for_each_leaf(f);
                for e in list {
                    e.for_each_leaf(f);
                }
            }
            Expr::Like { expr, .. } => expr.for_each_leaf(f),
        }
    }

    /// Collect the indices of all bound column references.
    pub fn referenced_indices(&self, out: &mut Vec<usize>) {
        self.for_each_leaf(&mut |leaf| {
            if let Expr::Column(ColumnRefExpr { index: Some(i), .. }) = leaf {
                out.push(*i);
            }
        });
    }

    /// Whether the tree contains a [`Expr::Param`] placeholder.
    pub fn has_param(&self) -> bool {
        let mut found = false;
        self.for_each_leaf(&mut |leaf| found |= matches!(leaf, Expr::Param { .. }));
        found
    }

    /// Rebuild the tree with every leaf (column, literal, parameter)
    /// replaced by `f(leaf)`.
    pub fn map_leaves(&self, f: &impl Fn(&Expr) -> Expr) -> Expr {
        match self {
            Expr::Column(_) | Expr::Literal(_) | Expr::Param { .. } => f(self),
            Expr::Binary { left, op, right } => Expr::Binary {
                left: Box::new(left.map_leaves(f)),
                op: *op,
                right: Box::new(right.map_leaves(f)),
            },
            Expr::Not(e) => Expr::Not(Box::new(e.map_leaves(f))),
            Expr::IsNull(e) => Expr::IsNull(Box::new(e.map_leaves(f))),
            Expr::IsNotNull(e) => Expr::IsNotNull(Box::new(e.map_leaves(f))),
            Expr::Cast { expr, to } => Expr::Cast {
                expr: Box::new(expr.map_leaves(f)),
                to: *to,
            },
            Expr::Alias(e, n) => Expr::Alias(Box::new(e.map_leaves(f)), n.clone()),
            Expr::Aggregate { func, arg } => Expr::Aggregate {
                func: *func,
                arg: arg.as_ref().map(|a| Box::new(a.map_leaves(f))),
            },
            Expr::Scalar { func, args } => Expr::Scalar {
                func: *func,
                args: args.iter().map(|a| a.map_leaves(f)).collect(),
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(expr.map_leaves(f)),
                list: list.iter().map(|e| e.map_leaves(f)).collect(),
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: Box::new(expr.map_leaves(f)),
                pattern: pattern.clone(),
                negated: *negated,
            },
        }
    }

    /// Rewrite every bound column index through `f` (used when an
    /// expression moves across operators during optimization).
    pub fn map_column_indices(&self, f: &impl Fn(usize) -> usize) -> Expr {
        self.map_leaves(&|leaf| match leaf {
            Expr::Column(c) => Expr::Column(ColumnRefExpr {
                index: c.index.map(f),
                ..c.clone()
            }),
            other => other.clone(),
        })
    }

    /// Replace every [`Expr::Param`] with the literal in its slot of
    /// `params`. A slot beyond `params` stays a placeholder, which physical
    /// planning rejects.
    pub fn bind_params(&self, params: &[Value]) -> Expr {
        self.map_leaves(&|leaf| match leaf {
            Expr::Param { slot, .. } => match params.get(*slot) {
                Some(v) => Expr::Literal(v.clone()),
                None => leaf.clone(),
            },
            other => other.clone(),
        })
    }

    /// Split a conjunctive predicate into its AND-ed parts.
    pub fn split_conjunction(&self) -> Vec<&Expr> {
        match self {
            Expr::Binary {
                left,
                op: BinaryOp::And,
                right,
            } => {
                let mut parts = left.split_conjunction();
                parts.extend(right.split_conjunction());
                parts
            }
            other => vec![other],
        }
    }

    /// AND together a list of predicates (`None` when empty).
    pub fn conjunction(parts: Vec<Expr>) -> Option<Expr> {
        parts.into_iter().reduce(|acc, e| Expr::Binary {
            left: Box::new(acc),
            op: BinaryOp::And,
            right: Box::new(e),
        })
    }

    // ---- builder methods ----

    /// `self = other`
    pub fn eq(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Eq, other)
    }
    /// `self <> other`
    pub fn not_eq(self, other: Expr) -> Expr {
        self.binary(BinaryOp::NotEq, other)
    }
    /// `self < other`
    pub fn lt(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Lt, other)
    }
    /// `self <= other`
    pub fn lt_eq(self, other: Expr) -> Expr {
        self.binary(BinaryOp::LtEq, other)
    }
    /// `self > other`
    pub fn gt(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Gt, other)
    }
    /// `self >= other`
    pub fn gt_eq(self, other: Expr) -> Expr {
        self.binary(BinaryOp::GtEq, other)
    }
    /// `self AND other`
    pub fn and(self, other: Expr) -> Expr {
        self.binary(BinaryOp::And, other)
    }
    /// `self OR other`
    pub fn or(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Or, other)
    }
    /// `self + other`
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Plus, other)
    }
    /// `self - other`
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Minus, other)
    }
    /// `self * other`
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Multiply, other)
    }
    /// `self / other`
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Divide, other)
    }
    /// `self % other`
    #[allow(clippy::should_implement_trait)]
    pub fn rem(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Modulo, other)
    }
    /// `NOT self`
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }
    /// `self IS NULL`
    pub fn is_null(self) -> Expr {
        Expr::IsNull(Box::new(self))
    }
    /// `self IS NOT NULL`
    pub fn is_not_null(self) -> Expr {
        Expr::IsNotNull(Box::new(self))
    }
    /// `CAST(self AS to)`
    pub fn cast(self, to: DataType) -> Expr {
        Expr::Cast {
            expr: Box::new(self),
            to,
        }
    }
    /// `self IN (list...)`
    pub fn in_list(self, list: Vec<Expr>) -> Expr {
        Expr::InList {
            expr: Box::new(self),
            list,
            negated: false,
        }
    }
    /// `self NOT IN (list...)`
    pub fn not_in_list(self, list: Vec<Expr>) -> Expr {
        Expr::InList {
            expr: Box::new(self),
            list,
            negated: true,
        }
    }
    /// `self LIKE pattern` (`%` any run, `_` any single char)
    pub fn like(self, pattern: impl Into<String>) -> Expr {
        Expr::Like {
            expr: Box::new(self),
            pattern: pattern.into(),
            negated: false,
        }
    }
    /// `self NOT LIKE pattern`
    pub fn not_like(self, pattern: impl Into<String>) -> Expr {
        Expr::Like {
            expr: Box::new(self),
            pattern: pattern.into(),
            negated: true,
        }
    }
    /// `self BETWEEN low AND high` (inclusive; plain sugar)
    pub fn between(self, low: Expr, high: Expr) -> Expr {
        self.clone().gt_eq(low).and(self.lt_eq(high))
    }
    /// `self AS name`
    pub fn alias(self, name: impl Into<String>) -> Expr {
        Expr::Alias(Box::new(self), name.into())
    }

    fn binary(self, op: BinaryOp, other: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(self),
            op,
            right: Box::new(other),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{}", c.display_name()),
            Expr::Literal(Value::Utf8(s)) => write!(f, "'{s}'"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Param { slot, .. } => write!(f, "?{slot}"),
            Expr::Binary { left, op, right } => write!(f, "({left} {op} {right})"),
            Expr::Not(e) => write!(f, "NOT {e}"),
            Expr::IsNull(e) => write!(f, "{e} IS NULL"),
            Expr::IsNotNull(e) => write!(f, "{e} IS NOT NULL"),
            Expr::Cast { expr, to } => write!(f, "CAST({expr} AS {to})"),
            Expr::Alias(e, n) => write!(f, "{e} AS {n}"),
            Expr::Aggregate { func, arg } => match arg {
                Some(a) => write!(f, "{func}({a})"),
                None => write!(f, "{func}(*)"),
            },
            Expr::Scalar { func, args } => {
                let parts: Vec<String> = args.iter().map(|a| a.to_string()).collect();
                write!(f, "{func}({})", parts.join(", "))
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let parts: Vec<String> = list.iter().map(|a| a.to_string()).collect();
                write!(
                    f,
                    "{expr}{} IN ({})",
                    if *negated { " NOT" } else { "" },
                    parts.join(", ")
                )
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                write!(
                    f,
                    "{expr}{} LIKE '{pattern}'",
                    if *negated { " NOT" } else { "" }
                )
            }
        }
    }
}

/// Reference a column by name (optionally `table.column`).
pub fn col(name: &str) -> Expr {
    match name.split_once('.') {
        Some((q, n)) => Expr::Column(ColumnRefExpr {
            qualifier: Some(q.to_string()),
            name: n.to_string(),
            index: None,
        }),
        None => Expr::Column(ColumnRefExpr {
            qualifier: None,
            name: name.to_string(),
            index: None,
        }),
    }
}

/// A literal expression.
pub fn lit(v: impl Into<Value>) -> Expr {
    Expr::Literal(v.into())
}

/// `COUNT(*)`.
pub fn count_star() -> Expr {
    Expr::Aggregate {
        func: AggFunc::Count,
        arg: None,
    }
}

/// `COUNT(expr)`.
pub fn count(e: Expr) -> Expr {
    Expr::Aggregate {
        func: AggFunc::Count,
        arg: Some(Box::new(e)),
    }
}

/// `SUM(expr)`.
pub fn sum(e: Expr) -> Expr {
    Expr::Aggregate {
        func: AggFunc::Sum,
        arg: Some(Box::new(e)),
    }
}

/// `MIN(expr)`.
pub fn min(e: Expr) -> Expr {
    Expr::Aggregate {
        func: AggFunc::Min,
        arg: Some(Box::new(e)),
    }
}

/// `MAX(expr)`.
pub fn max(e: Expr) -> Expr {
    Expr::Aggregate {
        func: AggFunc::Max,
        arg: Some(Box::new(e)),
    }
}

/// `AVG(expr)`.
pub fn avg(e: Expr) -> Expr {
    Expr::Aggregate {
        func: AggFunc::Avg,
        arg: Some(Box::new(e)),
    }
}

/// A sort key: expression plus direction.
#[derive(Debug, Clone, PartialEq)]
pub struct SortExpr {
    /// The key expression.
    pub expr: Expr,
    /// Ascending (`true`) or descending.
    pub ascending: bool,
}

impl SortExpr {
    /// Ascending sort on `expr`.
    pub fn asc(expr: Expr) -> Self {
        SortExpr {
            expr,
            ascending: true,
        }
    }

    /// Descending sort on `expr`.
    pub fn desc(expr: Expr) -> Self {
        SortExpr {
            expr,
            ascending: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn col_parses_qualifier() {
        let e = col("person.id");
        match &e {
            Expr::Column(c) => {
                assert_eq!(c.qualifier.as_deref(), Some("person"));
                assert_eq!(c.name, "id");
            }
            _ => panic!(),
        }
        assert_eq!(e.to_string(), "person.id");
    }

    #[test]
    fn builders_compose() {
        let e = col("a").eq(lit(5i64)).and(col("b").gt(lit(1.0)));
        assert_eq!(e.to_string(), "((a = 5) AND (b > 1))");
    }

    #[test]
    fn split_and_rebuild_conjunction() {
        let e = col("a")
            .eq(lit(1i64))
            .and(col("b").eq(lit(2i64)))
            .and(col("c").eq(lit(3i64)));
        let parts = e.split_conjunction();
        assert_eq!(parts.len(), 3);
        let rebuilt = Expr::conjunction(parts.into_iter().cloned().collect()).unwrap();
        assert_eq!(rebuilt, e);
    }

    #[test]
    fn has_aggregate_detects_nesting() {
        assert!(sum(col("x")).add(lit(1i64)).has_aggregate());
        assert!(!col("x").add(lit(1i64)).has_aggregate());
    }

    #[test]
    fn output_names() {
        assert_eq!(col("x").alias("y").output_name(), "y");
        assert_eq!(count_star().output_name(), "count(*)");
        assert_eq!(sum(col("v")).output_name(), "sum(v)");
    }

    #[test]
    fn map_column_indices_rewrites() {
        let mut e = col("a");
        if let Expr::Column(c) = &mut e {
            c.index = Some(3);
        }
        let mapped = e.add(col("b")).map_column_indices(&|i| i + 10);
        let mut idx = Vec::new();
        mapped.referenced_indices(&mut idx);
        assert_eq!(idx, vec![13]);
    }
}
