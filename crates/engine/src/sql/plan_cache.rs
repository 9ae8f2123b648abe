//! The parameterized plan cache behind [`crate::session::Session::sql`].
//!
//! A served workload repeats a handful of statement *shapes* with different
//! literals (`… WHERE id = 7`, `… WHERE id = 8`). Parsing, binding and
//! optimizing each one from scratch costs several times the index probe it
//! ends in, and yields the same plan every time. So a `SELECT` is keyed by
//! its token stream with the comparison / `IN`-list literals of its
//! `WHERE` and `ON` clauses lifted out (`normalize`); the cache holds the
//! analyzed and optimized logical plans with [`Expr::Param`] leaves in
//! their place, and a hit only binds the literals back in.
//!
//! [`Expr::Param`]: crate::expr::Expr::Param
//!
//! What is lifted is deliberately narrow — a literal is lifted only where
//! its *value* cannot change the plan's shape or schema:
//!
//! * the right operand of a comparison whose left operand ends in an
//!   identifier (`col = 7`, `t.col >= -1.5`), and the entries of
//!   `col [NOT] IN (…)`, inside a `WHERE` or `ON` clause;
//! * the literal's type class (integer / float / string) is part of the
//!   key, so `id = 5`, `id = 5.0` and `id = '5'` never share a plan;
//! * `NULL`, booleans, `LIMIT` counts, `LIKE` patterns, `BETWEEN` bounds,
//!   select-list / `GROUP BY` / `HAVING` / `ORDER BY` literals, `CAST`
//!   operands and anything inside arithmetic stay in the key.
//!
//! The cache is stamped with the catalog generation
//! ([`crate::catalog::Catalog::generation`]): the first access after any
//! registration, drop or rule change empties it, because entries pin the
//! `Arc<dyn TableSource>`s they were bound against.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::logical::LogicalPlan;
use crate::sql::lexer::Token;
use crate::types::{DataType, Value};

/// Plans the cache holds before it starts displacing the least recently
/// used. A served application has tens of statement shapes; never-repeated
/// ad-hoc statements cycle through without growing it.
pub const PLAN_CACHE_CAPACITY: usize = 256;

/// A `SELECT` split into its cache key and the literals lifted out of it.
pub(crate) struct Normalized {
    /// The statement with every lifted literal replaced by a typed slot.
    pub key: String,
    /// The lifted literals, in slot order.
    pub params: Vec<Value>,
    /// `(first token, tokens covered)` of each lifted literal (two tokens
    /// when a sign was folded in).
    sites: Vec<(usize, usize)>,
}

impl Normalized {
    /// `tokens` with each lifted literal replaced by a [`Token::Param`].
    pub fn parameterized(&self, tokens: &[Token]) -> Vec<Token> {
        let mut out = Vec::with_capacity(tokens.len());
        let mut next = 0;
        for (slot, (&(at, len), value)) in self.sites.iter().zip(&self.params).enumerate() {
            out.extend_from_slice(&tokens[next..at]);
            out.push(Token::Param {
                slot,
                data_type: value.data_type().unwrap_or(DataType::Boolean),
            });
            next = at + len;
        }
        out.extend_from_slice(&tokens[next..]);
        out
    }
}

fn is_kw(token: Option<&Token>, kw: &str) -> bool {
    matches!(token, Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
}

fn is_comparison(token: Option<&Token>) -> bool {
    matches!(
        token,
        Some(Token::Eq | Token::NotEq | Token::Lt | Token::LtEq | Token::Gt | Token::GtEq)
    )
}

fn is_arithmetic(token: Option<&Token>) -> bool {
    matches!(
        token,
        Some(Token::Plus | Token::Minus | Token::Star | Token::Slash | Token::Percent)
    )
}

/// The value of a (possibly negated) numeric or string literal token.
fn literal_value(token: &Token, negate: bool) -> Option<Value> {
    match (token, negate) {
        (Token::Int(v), false) => Some(Value::Int64(*v)),
        // The lexer only produces non-negative integers.
        (Token::Int(v), true) => Some(Value::Int64(-*v)),
        (Token::Float(v), false) => Some(Value::Float64(*v)),
        (Token::Float(v), true) => Some(Value::Float64(-*v)),
        (Token::Str(s), false) => Some(Value::Utf8(s.clone())),
        _ => None,
    }
}

/// Split a lexed statement into cache key and lifted literals. `None` for
/// anything but a `SELECT` (DML, DDL, `EXPLAIN`, … bypass the cache).
pub(crate) fn normalize(tokens: &[Token]) -> Option<Normalized> {
    if !is_kw(tokens.first(), "SELECT") {
        return None;
    }
    let mut key = String::with_capacity(tokens.len() * 8);
    let mut params: Vec<Value> = Vec::new();
    let mut sites: Vec<(usize, usize)> = Vec::new();
    // Parenthesis depth, the depth at which the enclosing WHERE/ON clause
    // began (subqueries in FROM have their own), and the depth of the
    // parentheses of the `col IN (…)` list being read.
    let mut depth = 0usize;
    let mut clause: Option<usize> = None;
    let mut in_list: Option<usize> = None;
    let mut i = 0;
    while i < tokens.len() {
        let token = &tokens[i];
        let prev = i.checked_sub(1).map(|p| &tokens[p]);
        // A literal (or `-literal`) starting here, with the token after it.
        let negate = *token == Token::Minus;
        let literal = if negate {
            tokens.get(i + 1)
        } else {
            Some(token)
        };
        let len = 1 + usize::from(negate);
        let after = tokens.get(i + len);
        let liftable = clause.is_some()
            && if in_list == Some(depth) {
                matches!(prev, Some(Token::LParen | Token::Comma))
                    && matches!(after, Some(Token::Comma | Token::RParen))
            } else {
                is_comparison(prev)
                    && matches!(i.checked_sub(2).map(|p| &tokens[p]), Some(Token::Ident(_)))
                    && !is_arithmetic(after)
            };
        if let Some(value) = literal
            .filter(|_| liftable)
            .and_then(|l| literal_value(l, negate))
        {
            key.push_str(match value {
                Value::Int64(_) => "?i ",
                Value::Float64(_) => "?f ",
                _ => "?s ",
            });
            params.push(value);
            sites.push((i, len));
            i += len;
            continue;
        }
        match token {
            Token::LParen => depth += 1,
            Token::RParen => {
                if in_list == Some(depth) {
                    in_list = None;
                }
                depth = depth.saturating_sub(1);
                if clause.is_some_and(|d| depth < d) {
                    clause = None;
                }
            }
            Token::Ident(word) if clause.is_none_or(|d| d == depth) => {
                let kw = |k: &str| word.eq_ignore_ascii_case(k);
                if kw("WHERE") || kw("ON") {
                    clause = Some(depth);
                } else if ["GROUP", "HAVING", "ORDER", "LIMIT", "JOIN", "INNER", "LEFT"]
                    .iter()
                    .any(|k| kw(k))
                {
                    clause = None;
                } else if kw("IN") && tokens.get(i + 1) == Some(&Token::LParen) {
                    // `col IN (` or `col NOT IN (`: the tested operand must
                    // end in an identifier for the entries to be lifted.
                    let tested = if is_kw(prev, "NOT") {
                        i.checked_sub(2).map(|p| &tokens[p])
                    } else {
                        prev
                    };
                    if matches!(tested, Some(Token::Ident(w)) if !w.eq_ignore_ascii_case("NOT")) {
                        in_list = Some(depth + 1);
                    }
                }
            }
            _ => {}
        }
        write_key_token(&mut key, token);
        i += 1;
    }
    Some(Normalized { key, params, sites })
}

/// Append `token` to a cache key. The rendering re-lexes to the same token
/// (strings are re-quoted, floats carry a marker), so two statements share
/// a key only if their token streams are equal slot for slot.
fn write_key_token(key: &mut String, token: &Token) {
    let symbol = match token {
        Token::Ident(s) => {
            key.push_str(s);
            " "
        }
        Token::Int(v) => {
            let _ = write!(key, "{v}");
            " "
        }
        Token::Float(v) => {
            let _ = write!(key, "f{v:?}");
            " "
        }
        Token::Str(s) => {
            key.push('\'');
            key.push_str(&s.replace('\'', "''"));
            "' "
        }
        Token::Param { slot, .. } => {
            let _ = write!(key, "?{slot}");
            " "
        }
        Token::Eq => "= ",
        Token::NotEq => "<> ",
        Token::Lt => "< ",
        Token::LtEq => "<= ",
        Token::Gt => "> ",
        Token::GtEq => ">= ",
        Token::Plus => "+ ",
        Token::Minus => "- ",
        Token::Star => "* ",
        Token::Slash => "/ ",
        Token::Percent => "% ",
        Token::LParen => "( ",
        Token::RParen => ") ",
        Token::Comma => ", ",
        Token::Dot => ". ",
        Token::Eof => "",
    };
    key.push_str(symbol);
}

/// One cached statement shape: its analyzed and optimized logical plans,
/// with [`crate::expr::Expr::Param`] leaves where the literals go.
pub(crate) struct CachedPlan {
    /// The analyzed (bound, unoptimized) plan.
    pub analyzed: Arc<LogicalPlan>,
    /// `analyzed` after the session's optimizer.
    pub optimized: Arc<LogicalPlan>,
}

struct Slot {
    key: Arc<str>,
    plan: Arc<CachedPlan>,
    /// Set on every hit, cleared as the clock hand passes.
    referenced: bool,
}

#[derive(Default)]
struct Inner {
    /// The catalog generation every resident plan was bound under.
    generation: u64,
    index: HashMap<Arc<str>, usize>,
    slots: Vec<Slot>,
    hand: usize,
}

impl Inner {
    /// Bring the cache to `generation`, emptying it if the catalog moved
    /// on. `false` when `generation` is already stale itself.
    fn advance(&mut self, generation: u64) -> bool {
        if generation > self.generation {
            idf_obs::global()
                .plan_cache_invalidations
                .add(self.slots.len() as u64);
            self.index.clear();
            self.slots.clear();
            self.hand = 0;
            self.generation = generation;
        }
        generation == self.generation
    }
}

/// A bounded map from normalized statement to [`CachedPlan`] with clock
/// (second-chance) eviction.
#[derive(Default)]
pub(crate) struct PlanCache {
    inner: Mutex<Inner>,
}

impl PlanCache {
    /// The plan cached under `key`, if it was bound under `generation`.
    /// Counts a hit or a miss.
    pub fn get(&self, key: &str, generation: u64) -> Option<Arc<CachedPlan>> {
        let mut inner = self.inner.lock();
        let found = if inner.advance(generation) {
            inner.index.get(key).copied()
        } else {
            None
        };
        match found {
            Some(at) => {
                idf_obs::global().plan_cache_hits.inc();
                let slot = &mut inner.slots[at];
                slot.referenced = true;
                Some(Arc::clone(&slot.plan))
            }
            None => {
                idf_obs::global().plan_cache_misses.inc();
                None
            }
        }
    }

    /// Like [`PlanCache::get`] without touching counters or recency
    /// (`EXPLAIN` reports what a run would find).
    pub fn peek(&self, key: &str, generation: u64) -> Option<Arc<CachedPlan>> {
        let inner = self.inner.lock();
        if inner.generation != generation {
            return None;
        }
        let at = *inner.index.get(key)?;
        Some(Arc::clone(&inner.slots[at].plan))
    }

    /// Cache `plan`, bound under catalog `generation`, as `key`. Dropped
    /// on the floor if the catalog has moved on since.
    pub fn insert(&self, key: String, generation: u64, plan: Arc<CachedPlan>) {
        let mut inner = self.inner.lock();
        if !inner.advance(generation) {
            return;
        }
        let key: Arc<str> = key.into();
        if let Some(&at) = inner.index.get(&key) {
            // Two threads missed on the same shape; keep the newer plan.
            inner.slots[at].plan = plan;
            return;
        }
        let slot = Slot {
            key: Arc::clone(&key),
            plan,
            referenced: false,
        };
        if inner.slots.len() < PLAN_CACHE_CAPACITY {
            let at = inner.slots.len();
            inner.slots.push(slot);
            inner.index.insert(key, at);
            return;
        }
        // Clock: give recently hit plans a second chance, displace the
        // first one that has not been hit since the hand last passed.
        let at = loop {
            let at = inner.hand;
            inner.hand = (at + 1) % PLAN_CACHE_CAPACITY;
            if !std::mem::take(&mut inner.slots[at].referenced) {
                break at;
            }
        };
        idf_obs::global().plan_cache_evictions.inc();
        let old = std::mem::replace(&mut inner.slots[at], slot);
        inner.index.remove(&old.key);
        inner.index.insert(key, at);
    }

    /// Plans currently resident.
    pub fn len(&self) -> usize {
        self.inner.lock().slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::lexer::lex;

    fn norm(sql: &str) -> Normalized {
        normalize(&lex(sql).unwrap()).expect("a SELECT")
    }

    #[test]
    fn lifts_comparison_and_in_list_literals_of_where_and_on() {
        let n = norm("SELECT a FROM t JOIN u ON t.x = u.y AND u.z = 3 WHERE t.id = 7 AND b IN (1, -2) AND s <> 'it''s'");
        assert_eq!(
            n.params,
            vec![
                Value::Int64(3),
                Value::Int64(7),
                Value::Int64(1),
                Value::Int64(-2),
                Value::Utf8("it's".into())
            ]
        );
        assert!(n.key.contains("id = ?i "), "{}", n.key);
        assert!(n.key.contains("IN ( ?i , ?i ) "), "{}", n.key);
        assert!(n.key.contains("<> ?s "), "{}", n.key);
        // Same shape, other literals: same key.
        let m = norm("SELECT a FROM t JOIN u ON t.x = u.y AND u.z = 9 WHERE t.id = -1 AND b IN (5, 6) AND s <> ''");
        assert_eq!(n.key, m.key);
    }

    #[test]
    fn type_class_and_list_length_are_part_of_the_key() {
        let keys: Vec<String> = [
            "SELECT a FROM t WHERE id = 5",
            "SELECT a FROM t WHERE id = 5.0",
            "SELECT a FROM t WHERE id = '5'",
            "SELECT a FROM t WHERE id = NULL",
            "SELECT a FROM t WHERE id IN (5)",
            "SELECT a FROM t WHERE id IN (5, 6)",
            "SELECT a FROM t WHERE id NOT IN (5, 6)",
        ]
        .iter()
        .map(|q| norm(q).key)
        .collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(
            norm("SELECT a FROM t WHERE id = 5").key,
            norm("SELECT a FROM t WHERE id = -5").key
        );
    }

    #[test]
    fn everything_else_stays_in_the_key() {
        for sql in [
            // select list, LIMIT, LIKE, BETWEEN, CAST, arithmetic, booleans
            "SELECT a = 5 FROM t",
            "SELECT a FROM t LIMIT 5",
            "SELECT a FROM t WHERE s LIKE 'x%'",
            "SELECT a FROM t WHERE a BETWEEN 1 AND 5",
            "SELECT a FROM t WHERE a = CAST(5 AS BIGINT)",
            "SELECT a FROM t WHERE a = 5 + 1",
            "SELECT a FROM t WHERE a = 1 * 5",
            "SELECT a FROM t WHERE a = - - 5",
            "SELECT a FROM t WHERE b = TRUE",
            // literal on the left, literal vs literal, function operand
            "SELECT a FROM t WHERE 5 = a",
            "SELECT a FROM t WHERE 1 = 1",
            "SELECT a FROM t WHERE abs(a) = 5",
            "SELECT a FROM t WHERE 5 IN (1, 2)",
            // GROUP BY / HAVING / ORDER BY
            "SELECT a, count(*) FROM t GROUP BY a HAVING count(*) > 5 ORDER BY a = 5",
        ] {
            let n = norm(sql);
            assert!(n.params.is_empty(), "{sql}: lifted {:?}", n.params);
        }
        // A subquery's WHERE is lifted; the clause ends with its parenthesis.
        let n = norm("SELECT s.a = 2 FROM (SELECT a FROM t WHERE a = 1) s");
        assert_eq!(n.params, vec![Value::Int64(1)]);
        assert!(n.key.contains("a = 2 "), "{}", n.key);
        let n = norm("SELECT s.a FROM (SELECT a FROM t WHERE a = 1) s WHERE s.a > 0 LIMIT 3");
        assert_eq!(n.params, vec![Value::Int64(1), Value::Int64(0)]);
    }

    #[test]
    fn only_selects_normalize() {
        for sql in [
            "EXPLAIN SELECT a FROM t WHERE a = 1",
            "DELETE FROM t WHERE a = 1",
            "UPDATE t SET a = 1 WHERE a = 2",
            "INSERT INTO t VALUES (1)",
            "CREATE TABLE t (a BIGINT)",
        ] {
            assert!(normalize(&lex(sql).unwrap()).is_none(), "{sql}");
        }
    }

    #[test]
    fn parameterized_tokens_replace_exactly_the_lifted_ones() {
        let tokens = lex("SELECT a FROM t WHERE a = -5 AND b IN (1, 2)").unwrap();
        let n = normalize(&tokens).unwrap();
        let out = n.parameterized(&tokens);
        // `- 5` collapsed into one token.
        assert_eq!(out.len(), tokens.len() - 1);
        let slots: Vec<usize> = out
            .iter()
            .filter_map(|t| match t {
                Token::Param { slot, .. } => Some(*slot),
                _ => None,
            })
            .collect();
        assert_eq!(slots, vec![0, 1, 2]);
        assert!(!out.contains(&Token::Minus));
        assert_eq!(out.last(), Some(&Token::Eof));
    }

    fn plan() -> Arc<CachedPlan> {
        let values = Arc::new(LogicalPlan::Values {
            schema: Arc::new(crate::schema::Schema::new(vec![])),
            rows: vec![],
        });
        Arc::new(CachedPlan {
            analyzed: Arc::clone(&values),
            optimized: values,
        })
    }

    #[test]
    fn clock_keeps_hit_plans_and_stays_at_capacity() {
        let cache = PlanCache::default();
        cache.insert("hot".into(), 0, plan());
        for i in 0..10 * PLAN_CACHE_CAPACITY {
            assert!(cache.get("hot", 0).is_some(), "hot plan evicted at {i}");
            cache.insert(format!("cold-{i}"), 0, plan());
            assert!(cache.len() <= PLAN_CACHE_CAPACITY);
        }
        assert_eq!(cache.len(), PLAN_CACHE_CAPACITY);
        assert!(cache.get("cold-0", 0).is_none());
    }

    #[test]
    fn a_newer_generation_empties_the_cache_and_stale_inserts_are_dropped() {
        let cache = PlanCache::default();
        cache.insert("q".into(), 3, plan());
        assert!(cache.get("q", 3).is_some());
        assert!(cache.peek("q", 4).is_none());
        assert!(cache.get("q", 4).is_none());
        assert_eq!(cache.len(), 0);
        // A plan bound before the catalog changed must not be resurrected.
        cache.insert("q".into(), 3, plan());
        assert_eq!(cache.len(), 0);
        assert!(cache.get("q", 3).is_none(), "stale reader sees no plan");
        cache.insert("q".into(), 4, plan());
        assert!(cache.get("q", 4).is_some());
    }
}
