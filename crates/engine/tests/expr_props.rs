//! Randomized tests: the vectorized expression kernels must agree with
//! a naive scalar interpreter over random chunks, and relational-algebra
//! identities must hold end to end. Seeded generation keeps every case
//! reproducible: a failure message names the seed that replays it.

use std::sync::Arc;

use idf_engine::analyzer::resolve_expr;
use idf_engine::chunk::Chunk;
use idf_engine::expr::{col, lit, BinaryOp, Expr};
use idf_engine::physical::create_physical_expr;
use idf_engine::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        Field::new("a", DataType::Int64),
        Field::new("b", DataType::Int64),
        Field::new("s", DataType::Utf8),
        Field::new("f", DataType::Float64),
    ]))
}

/// The floats on which IEEE comparison and bit equality disagree, NULL,
/// and a few ordinary values.
const FLOATS: [Option<f64>; 7] = [
    Some(0.0),
    Some(-0.0),
    Some(f64::NAN),
    None,
    Some(1.5),
    Some(-2.0),
    Some(7.0),
];

fn float_value(f: Option<f64>) -> Value {
    f.map_or(Value::Null, Value::Float64)
}

/// A literal of `f`, NULL typed as DOUBLE so it fits any float operand.
fn float_lit(f: Option<f64>) -> Expr {
    Expr::Literal(float_value(f)).cast(DataType::Float64)
}

fn random_rows(rng: &mut StdRng) -> Vec<Vec<Value>> {
    let int = |rng: &mut StdRng| {
        if rng.gen_bool(0.2) {
            Value::Null
        } else {
            Value::Int64(rng.gen_range(-50..50i64))
        }
    };
    let s = |rng: &mut StdRng| {
        if rng.gen_bool(0.2) {
            Value::Null
        } else {
            let len = rng.gen_range(0..4usize);
            Value::Utf8(
                (0..len)
                    .map(|_| char::from(b'a' + rng.gen_range(0..3u8)))
                    .collect(),
            )
        }
    };
    let f = |rng: &mut StdRng| float_value(FLOATS[rng.gen_range(0..FLOATS.len())]);
    (0..rng.gen_range(1..60usize))
        .map(|_| vec![int(rng), int(rng), s(rng), f(rng)])
        .collect()
}

/// Naive scalar three-valued-logic interpreter for the expression subset
/// the generator produces.
fn scalar_eval(e: &Expr, row: &[Value]) -> Value {
    match e {
        Expr::Column(c) => row[c.index.expect("bound")].clone(),
        Expr::Literal(v) => v.clone(),
        Expr::Cast { expr, to } => scalar_eval(expr, row).cast(*to).unwrap_or(Value::Null),
        Expr::Not(i) => match scalar_eval(i, row) {
            Value::Boolean(b) => Value::Boolean(!b),
            _ => Value::Null,
        },
        Expr::IsNull(i) => Value::Boolean(scalar_eval(i, row).is_null()),
        Expr::IsNotNull(i) => Value::Boolean(!scalar_eval(i, row).is_null()),
        Expr::Binary { left, op, right } => {
            let l = scalar_eval(left, row);
            let r = scalar_eval(right, row);
            match op {
                BinaryOp::And | BinaryOp::Or => {
                    let lb = match &l {
                        Value::Boolean(b) => Some(*b),
                        _ => None,
                    };
                    let rb = match &r {
                        Value::Boolean(b) => Some(*b),
                        _ => None,
                    };
                    let out = if *op == BinaryOp::And {
                        match (lb, rb) {
                            (Some(false), _) | (_, Some(false)) => Some(false),
                            (Some(true), Some(true)) => Some(true),
                            _ => None,
                        }
                    } else {
                        match (lb, rb) {
                            (Some(true), _) | (_, Some(true)) => Some(true),
                            (Some(false), Some(false)) => Some(false),
                            _ => None,
                        }
                    };
                    out.map_or(Value::Null, Value::Boolean)
                }
                _ if l.is_null() || r.is_null() => Value::Null,
                BinaryOp::Eq => Value::Boolean(l == r),
                BinaryOp::NotEq => Value::Boolean(l != r),
                BinaryOp::Lt => Value::Boolean(l < r),
                BinaryOp::LtEq => Value::Boolean(l <= r),
                BinaryOp::Gt => Value::Boolean(l > r),
                BinaryOp::GtEq => Value::Boolean(l >= r),
                arith => {
                    let (Some(x), Some(y)) = (l.as_i64(), r.as_i64()) else {
                        return Value::Null;
                    };
                    let v = match arith {
                        BinaryOp::Plus => x.checked_add(y),
                        BinaryOp::Minus => x.checked_sub(y),
                        BinaryOp::Multiply => x.checked_mul(y),
                        BinaryOp::Divide => x.checked_div(y),
                        BinaryOp::Modulo => x.checked_rem(y),
                        _ => unreachable!(),
                    };
                    v.map_or(Value::Null, Value::Int64)
                }
            }
        }
        other => panic!("generator does not produce {other:?}"),
    }
}

/// Random integer-typed expression over (a, b) — arithmetic only, so
/// every nesting is well typed. `depth` bounds recursion.
fn random_int_expr(rng: &mut StdRng, depth: usize) -> Expr {
    if depth == 0 || rng.gen_bool(0.3) {
        return match rng.gen_range(0..3) {
            0 => col("a"),
            1 => col("b"),
            _ => lit(rng.gen_range(-20..20i64)),
        };
    }
    let l = random_int_expr(rng, depth - 1);
    let r = random_int_expr(rng, depth - 1);
    match rng.gen_range(0..5) {
        0 => l.add(r),
        1 => l.sub(r),
        2 => l.mul(r),
        3 => l.div(r),
        _ => l.rem(r),
    }
}

/// Random well-typed expression: integer arithmetic optionally capped by
/// a boolean combinator layer.
fn random_expr(rng: &mut StdRng) -> Expr {
    let ie = |rng: &mut StdRng| random_int_expr(rng, 3);
    match rng.gen_range(0..9) {
        0 => ie(rng),
        1 => {
            let (l, r) = (ie(rng), ie(rng));
            l.eq(r)
        }
        2 => {
            let (l, r) = (ie(rng), ie(rng));
            l.not_eq(r)
        }
        3 => {
            let (l, r) = (ie(rng), ie(rng));
            l.lt_eq(r)
        }
        4 => {
            let (a, b, c, d) = (ie(rng), ie(rng), ie(rng), ie(rng));
            a.eq(b).and(c.lt(d))
        }
        5 => {
            let (a, b, c, d) = (ie(rng), ie(rng), ie(rng), ie(rng));
            a.gt(b).or(c.gt_eq(d))
        }
        6 => {
            let (l, r) = (ie(rng), ie(rng));
            l.eq(r).not()
        }
        7 => ie(rng).is_null(),
        _ => ie(rng).is_not_null(),
    }
}

#[test]
fn kernels_agree_with_scalar_interpreter() {
    for seed in 0..96u64 {
        let mut rng = StdRng::seed_from_u64(0xe49_0000 + seed);
        let rows = random_rows(&mut rng);
        let expr = random_expr(&mut rng);
        let schema = schema();
        let chunk = Chunk::from_rows(&schema, &rows).expect("chunk");
        let bound = resolve_expr(&expr, &schema).expect("analyzable");
        let pe = create_physical_expr(&bound, &schema).expect("compile");
        let out = pe.evaluate(&chunk).expect("evaluate");
        assert_eq!(out.len(), rows.len(), "seed {seed}");
        for (i, row) in rows.iter().enumerate() {
            let expected = scalar_eval(&bound, row);
            assert_eq!(
                out.value_at(i),
                expected,
                "seed {seed}: row {i} of {} under {}",
                rows.len(),
                bound
            );
        }
    }
}

#[test]
fn filter_then_count_equals_scalar_count() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0xf117_0000 + seed);
        let rows = random_rows(&mut rng);
        let threshold = rng.gen_range(-50..50i64);
        let session = Session::new();
        let df = session.create_dataframe(schema(), rows.clone());
        let n = df
            .filter(col("a").gt(lit(threshold)))
            .expect("filter")
            .count()
            .expect("count");
        let expected = rows
            .iter()
            .filter(|r| matches!(r[0], Value::Int64(v) if v > threshold))
            .count();
        assert_eq!(n, expected, "seed {seed}, threshold {threshold}");
    }
}

#[test]
fn union_is_additive_and_sort_is_total() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x5047_0000 + seed);
        let rows = random_rows(&mut rng);
        let session = Session::new();
        let df = session.create_dataframe(schema(), rows.clone());
        let doubled = df.union(&df).expect("union");
        assert_eq!(
            doubled.count().expect("count"),
            rows.len() * 2,
            "seed {seed}"
        );
        let sorted = doubled
            .sort(vec![SortExpr::asc(col("a")), SortExpr::asc(col("s"))])
            .expect("sort")
            .collect()
            .expect("collect");
        for i in 1..sorted.len() {
            let prev = (sorted.value_at(0, i - 1), sorted.value_at(2, i - 1));
            let cur = (sorted.value_at(0, i), sorted.value_at(2, i));
            assert!(
                prev <= cur,
                "seed {seed}: row {i} out of order: {prev:?} > {cur:?}"
            );
        }
    }
}

/// A random expression whose leaves are all literals, built twice: as
/// written, and with leaf `i` read from column `c{i}` of a one-row table
/// whose row is `leaves`. Float comparisons, arithmetic and IN-lists over
/// ±0.0, NaN and NULL, combined by AND, OR and NOT.
struct LiteralTree {
    literal: Expr,
    columns: Expr,
    leaves: Vec<(DataType, Value)>,
}

impl LiteralTree {
    fn leaf(&mut self, rng: &mut StdRng, dt: DataType) -> (Expr, Expr) {
        let value = if dt == DataType::Float64 {
            float_value(FLOATS[rng.gen_range(0..FLOATS.len())])
        } else if rng.gen_bool(0.15) {
            Value::Null
        } else {
            Value::Int64([i64::MIN, -1, 0, 1, i64::MAX][rng.gen_range(0..5usize)])
        };
        let column = col(&format!("c{}", self.leaves.len()));
        self.leaves.push((dt, value.clone()));
        (Expr::Literal(value).cast(dt), column)
    }

    fn number(&mut self, rng: &mut StdRng, dt: DataType, depth: usize) -> (Expr, Expr) {
        if depth == 0 || rng.gen_bool(0.4) {
            return self.leaf(rng, dt);
        }
        let op = [
            BinaryOp::Plus,
            BinaryOp::Minus,
            BinaryOp::Multiply,
            BinaryOp::Divide,
            BinaryOp::Modulo,
        ][rng.gen_range(0..5usize)];
        let (l, lc) = self.number(rng, dt, depth - 1);
        let (r, rc) = self.number(rng, dt, depth - 1);
        (binary(l, op, r), binary(lc, op, rc))
    }

    fn predicate(&mut self, rng: &mut StdRng, depth: usize) -> (Expr, Expr) {
        let dt = if rng.gen_bool(0.75) {
            DataType::Float64
        } else {
            DataType::Int64
        };
        match rng.gen_range(0..if depth == 0 { 2 } else { 5 }) {
            0 => {
                let op = [
                    BinaryOp::Eq,
                    BinaryOp::NotEq,
                    BinaryOp::Lt,
                    BinaryOp::LtEq,
                    BinaryOp::Gt,
                    BinaryOp::GtEq,
                ][rng.gen_range(0..6usize)];
                let (l, lc) = self.number(rng, dt, 1);
                let (r, rc) = self.number(rng, dt, 1);
                (binary(l, op, r), binary(lc, op, rc))
            }
            1 => {
                let (x, xc) = self.number(rng, dt, 1);
                let (list, list_c): (Vec<Expr>, Vec<Expr>) = (0..rng.gen_range(2..5usize))
                    .map(|_| self.leaf(rng, dt))
                    .unzip();
                if rng.gen_bool(0.5) {
                    (x.in_list(list), xc.in_list(list_c))
                } else {
                    (x.not_in_list(list), xc.not_in_list(list_c))
                }
            }
            2 => {
                let (e, ec) = self.predicate(rng, depth - 1);
                (e.not(), ec.not())
            }
            op => {
                let (l, lc) = self.predicate(rng, depth - 1);
                let (r, rc) = self.predicate(rng, depth - 1);
                if op == 3 {
                    (l.and(r), lc.and(rc))
                } else {
                    (l.or(r), lc.or(rc))
                }
            }
        }
    }

    fn random(rng: &mut StdRng) -> Self {
        let mut tree = LiteralTree {
            literal: lit(true),
            columns: lit(true),
            leaves: Vec::new(),
        };
        let (literal, columns) = if rng.gen_bool(0.25) {
            tree.number(rng, DataType::Float64, 3)
        } else {
            tree.predicate(rng, 2)
        };
        tree.literal = literal;
        tree.columns = columns;
        tree
    }
}

fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
    Expr::Binary {
        left: Box::new(left),
        op,
        right: Box::new(right),
    }
}

/// The one value of a single-row, single-column query.
fn only_value(df: DataFrame) -> Value {
    let out = df.collect().expect("collect");
    assert_eq!((out.len(), out.num_columns()), (1, 1));
    out.value_at(0, 0)
}

/// Constant folding answers as execution does: a literal-only expression
/// (which the optimizer folds to one literal) and the same expression
/// over columns holding those literals (which only execution can answer)
/// give the same value, bit for bit.
#[test]
fn folding_equals_executing() {
    let session = Session::new();
    let one_row = session.create_dataframe(
        Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)])),
        vec![vec![Value::Int64(0)]],
    );
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0xf01d_0000 + seed);
        let tree = LiteralTree::random(&mut rng);
        let fields = (0..tree.leaves.len())
            .map(|i| Field::new(format!("c{i}"), tree.leaves[i].0))
            .collect();
        let leaves = session.create_dataframe(
            Arc::new(Schema::new(fields)),
            vec![tree.leaves.iter().map(|(_, v)| v.clone()).collect()],
        );
        let folded = only_value(one_row.select(vec![tree.literal.clone()]).expect("plan"));
        let executed = only_value(leaves.select(vec![tree.columns.clone()]).expect("plan"));
        assert_eq!(
            folded, executed,
            "seed {seed}: {} over {:?}",
            tree.literal, tree.leaves
        );
    }
}

/// `x IN (a, b, …)` is `x = a OR x = b OR …` row by row, and
/// `x NOT IN (…)` is its negation, under three-valued logic: over a float
/// column holding ±0.0, NaN and NULL, with literal entries (NULL among
/// them) and column entries.
#[test]
fn in_list_equals_or_of_equalities() {
    let schema = schema();
    let entry = |rng: &mut StdRng| match rng.gen_range(0..4) {
        0 => col("f"),
        _ => float_lit(FLOATS[rng.gen_range(0..FLOATS.len())]),
    };
    for seed in 0..96u64 {
        let mut rng = StdRng::seed_from_u64(0x1e_0000 + seed);
        let rows = random_rows(&mut rng);
        let chunk = Chunk::from_rows(&schema, &rows).expect("chunk");
        let tested = if rng.gen_bool(0.8) {
            col("f")
        } else {
            col("f").add(float_lit(Some(0.0)))
        };
        let list: Vec<Expr> = (0..rng.gen_range(1..5usize))
            .map(|_| entry(&mut rng))
            .collect();
        let any_equal = list
            .iter()
            .map(|e| tested.clone().eq(e.clone()))
            .reduce(Expr::or)
            .expect("a non-empty list");
        for (in_list, expected) in [
            (tested.clone().in_list(list.clone()), any_equal.clone()),
            (tested.clone().not_in_list(list.clone()), any_equal.not()),
        ] {
            let eval = |e: &Expr| {
                let bound = resolve_expr(e, &schema).expect("analyzable");
                let pe = create_physical_expr(&bound, &schema).expect("compile");
                pe.evaluate(&chunk).expect("evaluate")
            };
            let (got, want) = (eval(&in_list), eval(&expected));
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(
                    got.value_at(i),
                    want.value_at(i),
                    "seed {seed}: row {i} ({row:?}) under {in_list}"
                );
            }
        }
    }
}
