//! SQL parser: recursive descent over [`Token`]s into a small AST.
//!
//! Supported grammar (enough for the paper's workloads and the SNB short
//! reads):
//!
//! ```text
//! query     := SELECT item (',' item)*
//!              FROM table_ref join*
//!              [WHERE expr] [GROUP BY expr (',' expr)*] [HAVING expr]
//!              [ORDER BY expr [ASC|DESC] (',' ...)*] [LIMIT int]
//! item      := '*' | expr [[AS] ident]
//! table_ref := ident [[AS] ident] | '(' query ')' [AS] ident
//! join      := [INNER|LEFT [OUTER]] JOIN table_ref ON expr
//! expr      := or-precedence expression with NOT, IS [NOT] NULL,
//!              comparisons, + - * / %, CAST(e AS type), literals,
//!              count/sum/min/max/avg calls, TRUE/FALSE/NULL
//! ```

use crate::error::{EngineError, Result};
use crate::expr::BinaryOp;
use crate::logical::JoinType;
use crate::sql::lexer::{lex, Token};

/// A parsed `SELECT` query.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// Select list.
    pub projection: Vec<SelectItem>,
    /// The FROM relation.
    pub from: TableRef,
    /// JOIN clauses, in order.
    pub joins: Vec<JoinClause>,
    /// WHERE predicate.
    pub selection: Option<SqlExpr>,
    /// GROUP BY expressions.
    pub group_by: Vec<SqlExpr>,
    /// HAVING predicate.
    pub having: Option<SqlExpr>,
    /// ORDER BY keys (expression, ascending).
    pub order_by: Vec<(SqlExpr, bool)>,
    /// LIMIT.
    pub limit: Option<usize>,
}

/// One select-list item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// An expression with an optional alias.
    Expr {
        /// The expression.
        expr: SqlExpr,
        /// `AS alias`.
        alias: Option<String>,
    },
}

/// A FROM-clause relation.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// A named (registered) table.
    Named {
        /// Catalog name.
        name: String,
        /// Optional alias.
        alias: Option<String>,
    },
    /// A parenthesized subquery.
    Subquery {
        /// The inner query.
        query: Box<SelectStmt>,
        /// Mandatory alias.
        alias: String,
    },
}

/// A JOIN clause.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// INNER or LEFT.
    pub join_type: JoinType,
    /// The joined relation.
    pub table: TableRef,
    /// The ON condition.
    pub on: SqlExpr,
}

/// A SQL expression (pre-binding).
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    /// Column reference, optionally qualified.
    Column {
        /// Table qualifier.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// NULL literal.
    Null,
    /// A literal lifted out of the statement by the plan cache.
    Param {
        /// Position in the statement's literal list.
        slot: usize,
        /// The lifted literal's type.
        data_type: crate::types::DataType,
    },
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<SqlExpr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<SqlExpr>,
    },
    /// `NOT expr`.
    Not(Box<SqlExpr>),
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<SqlExpr>,
        /// `IS NOT NULL` when true.
        negated: bool,
    },
    /// Function call (aggregates).
    Func {
        /// Lower-cased function name.
        name: String,
        /// Arguments (empty for `count(*)`).
        args: Vec<SqlExpr>,
        /// Whether the argument was `*`.
        star: bool,
    },
    /// `CAST(expr AS type)`.
    Cast {
        /// Operand.
        expr: Box<SqlExpr>,
        /// Type name (INT/BIGINT/DOUBLE/VARCHAR/TIMESTAMP/BOOLEAN).
        ty: String,
    },
    /// `expr [NOT] IN (e1, e2, ...)`.
    InList {
        /// Tested expression.
        expr: Box<SqlExpr>,
        /// Candidates.
        list: Vec<SqlExpr>,
        /// `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] LIKE 'pattern'`.
    Like {
        /// Tested expression.
        expr: Box<SqlExpr>,
        /// The pattern.
        pattern: String,
        /// `NOT LIKE`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<SqlExpr>,
        /// Lower bound (inclusive).
        low: Box<SqlExpr>,
        /// Upper bound (inclusive).
        high: Box<SqlExpr>,
        /// `NOT BETWEEN`.
        negated: bool,
    },
}

/// A top-level SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A plain SELECT query.
    Select(SelectStmt),
    /// `EXPLAIN [ANALYZE] <select>`: render (and for ANALYZE, execute and
    /// annotate) the query plan instead of returning its rows.
    Explain {
        /// `true` for `EXPLAIN ANALYZE`.
        analyze: bool,
        /// The query being explained.
        query: SelectStmt,
    },
    /// `CHECKPOINT [table]`: flush a durable table (or all durable tables)
    /// to a checkpoint, truncating the WAL prefix it covers.
    Checkpoint {
        /// The table to checkpoint, or `None` for every durable table.
        table: Option<String>,
    },
    /// `SCRUB [table]`: verify the on-disk checkpoint and WAL state of a
    /// durable table (or all durable tables), quarantining corrupt
    /// snapshots; returns one row per verified target.
    Scrub {
        /// The table to scrub, or `None` for every durable table.
        table: Option<String>,
    },
    /// `CREATE TABLE name (col TYPE, ...)`: atomically register a new
    /// empty appendable table. Racing creates of the same name have
    /// exactly one winner; losers get `TableAlreadyExists`.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions as `(name, type-name)` pairs; type names
        /// are the binder's CAST vocabulary (INT/BIGINT/DOUBLE/VARCHAR/
        /// TIMESTAMP/BOOLEAN and synonyms).
        columns: Vec<(String, String)>,
    },
    /// `DROP TABLE name`: deregister a table from the catalog.
    DropTable {
        /// Table name.
        name: String,
    },
    /// `INSERT INTO name VALUES (v, ...), (v, ...)`: append literal rows
    /// to an updatable table.
    Insert {
        /// Target table.
        table: String,
        /// Literal rows, one inner `Vec` per parenthesized tuple.
        rows: Vec<Vec<SqlExpr>>,
    },
    /// `UPDATE name SET col = expr, ... [WHERE expr]`: rewrite every
    /// matching row of an updatable table as a delete-old-image /
    /// insert-new-image pair (versioned append under MVCC storage).
    Update {
        /// Target table.
        table: String,
        /// `SET` assignments as `(column, value-expression)` pairs; value
        /// expressions may reference the row's current columns.
        assignments: Vec<(String, SqlExpr)>,
        /// WHERE predicate; `None` updates every row.
        selection: Option<SqlExpr>,
    },
    /// `DELETE FROM name [WHERE expr]`: remove every matching row of an
    /// updatable table (a tombstone append under MVCC storage).
    Delete {
        /// Target table.
        table: String,
        /// WHERE predicate; `None` deletes every row.
        selection: Option<SqlExpr>,
    },
    /// `COMPACT [table]`: synchronously compact a table (or all tables
    /// the compaction subsystem manages) — drop row versions hidden below
    /// tombstones and shorten MVCC chains; returns one stats row per
    /// compacted table.
    Compact {
        /// The table to compact, or `None` for every managed table.
        table: Option<String>,
    },
    /// `CREATE MATERIALIZED VIEW name AS <select>`: register a
    /// materialized view over the defining query, maintained
    /// incrementally from the append path by the views subsystem.
    CreateMaterializedView {
        /// View name.
        name: String,
        /// The defining SELECT query.
        query: SelectStmt,
    },
    /// `DROP MATERIALIZED VIEW name`: deregister a materialized view and
    /// discard its materialized state.
    DropMaterializedView {
        /// View name.
        name: String,
    },
    /// `REFRESH MATERIALIZED VIEW name`: recompute the view's
    /// materialized state from scratch at a consistent snapshot of its
    /// base tables (a repair/defrag operation; normal maintenance is
    /// incremental).
    RefreshMaterializedView {
        /// View name.
        name: String,
    },
}

/// Parse one SELECT statement from `input`.
pub fn parse(input: &str) -> Result<SelectStmt> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens: &tokens,
        pos: 0,
        depth: 0,
    };
    let stmt = p.parse_query()?;
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse one top-level statement from `input`: a SELECT query,
/// optionally prefixed by `EXPLAIN` or `EXPLAIN ANALYZE`.
pub fn parse_statement(input: &str) -> Result<Statement> {
    parse_tokens(&lex(input)?)
}

/// [`parse_statement`] over an already lexed statement; `tokens` must end
/// with [`Token::Eof`].
pub(crate) fn parse_tokens(tokens: &[Token]) -> Result<Statement> {
    if tokens.last() != Some(&Token::Eof) {
        return Err(EngineError::internal("token stream does not end in Eof"));
    }
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let stmt = if p.eat_kw("CHECKPOINT") {
        let table = match p.peek() {
            Token::Ident(_) => Some(p.ident()?),
            _ => None,
        };
        Statement::Checkpoint { table }
    } else if p.eat_kw("SCRUB") {
        let table = match p.peek() {
            Token::Ident(_) => Some(p.ident()?),
            _ => None,
        };
        Statement::Scrub { table }
    } else if p.at_kw("CREATE") {
        p.next();
        if p.eat_kw("MATERIALIZED") {
            p.expect_kw("VIEW")?;
            let name = p.ident()?;
            p.expect_kw("AS")?;
            let query = p.parse_query()?;
            Statement::CreateMaterializedView { name, query }
        } else {
            p.expect_kw("TABLE")?;
            let name = p.ident()?;
            p.expect_token(Token::LParen)?;
            let mut columns = vec![p.parse_column_def()?];
            while *p.peek() == Token::Comma {
                p.next();
                columns.push(p.parse_column_def()?);
            }
            p.expect_token(Token::RParen)?;
            Statement::CreateTable { name, columns }
        }
    } else if p.at_kw("DROP") {
        p.next();
        if p.eat_kw("MATERIALIZED") {
            p.expect_kw("VIEW")?;
            Statement::DropMaterializedView { name: p.ident()? }
        } else {
            p.expect_kw("TABLE")?;
            Statement::DropTable { name: p.ident()? }
        }
    } else if p.eat_kw("REFRESH") {
        p.expect_kw("MATERIALIZED")?;
        p.expect_kw("VIEW")?;
        Statement::RefreshMaterializedView { name: p.ident()? }
    } else if p.at_kw("INSERT") {
        p.next();
        p.expect_kw("INTO")?;
        let table = p.ident()?;
        p.expect_kw("VALUES")?;
        let mut rows = vec![p.parse_values_row()?];
        while *p.peek() == Token::Comma {
            p.next();
            rows.push(p.parse_values_row()?);
        }
        Statement::Insert { table, rows }
    } else if p.at_kw("UPDATE") {
        p.next();
        let table = p.ident()?;
        p.expect_kw("SET")?;
        let mut assignments = vec![p.parse_assignment()?];
        while *p.peek() == Token::Comma {
            p.next();
            assignments.push(p.parse_assignment()?);
        }
        let selection = if p.eat_kw("WHERE") {
            Some(p.parse_expr()?)
        } else {
            None
        };
        Statement::Update {
            table,
            assignments,
            selection,
        }
    } else if p.at_kw("DELETE") {
        p.next();
        p.expect_kw("FROM")?;
        let table = p.ident()?;
        let selection = if p.eat_kw("WHERE") {
            Some(p.parse_expr()?)
        } else {
            None
        };
        Statement::Delete { table, selection }
    } else if p.eat_kw("COMPACT") {
        let table = match p.peek() {
            Token::Ident(_) => Some(p.ident()?),
            _ => None,
        };
        Statement::Compact { table }
    } else if p.eat_kw("EXPLAIN") {
        let analyze = p.eat_kw("ANALYZE");
        if p.at_kw("EXPLAIN") {
            return Err(EngineError::Sql(
                "EXPLAIN cannot be nested: EXPLAIN takes a SELECT query".to_string(),
            ));
        }
        Statement::Explain {
            analyze,
            query: p.parse_query()?,
        }
    } else {
        Statement::Select(p.parse_query()?)
    };
    p.expect_eof()?;
    Ok(stmt)
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    /// Current nesting depth of `parse_query`/`parse_expr` recursion —
    /// bounded so adversarial inputs (`((((…`) error instead of
    /// overflowing the stack.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn next(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    /// Is the current token the keyword `kw` (case-insensitive)?
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    /// Consume the keyword `kw` if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.next();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(EngineError::Sql(format!(
                "expected {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect_token(&mut self, t: Token) -> Result<()> {
        if *self.peek() == t {
            self.next();
            Ok(())
        } else {
            Err(EngineError::Sql(format!(
                "expected {t:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if *self.peek() == Token::Eof {
            Ok(())
        } else {
            Err(EngineError::Sql(format!(
                "trailing tokens: {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Token::Ident(s) => Ok(s),
            other => Err(EngineError::Sql(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    /// Maximum recursion depth across nested subqueries and
    /// parenthesized expressions.
    const MAX_DEPTH: usize = 128;

    fn enter(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > Self::MAX_DEPTH {
            return Err(EngineError::Sql(format!(
                "query nesting exceeds the maximum depth of {}",
                Self::MAX_DEPTH
            )));
        }
        Ok(())
    }

    const RESERVED: &'static [&'static str] = &[
        "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "JOIN", "INNER", "LEFT", "OUTER",
        "ON", "AS", "AND", "OR", "NOT", "IS", "NULL", "ASC", "DESC", "BY", "SELECT", "CAST",
        "TRUE", "FALSE", "UNION", "DISTINCT", "IN", "LIKE", "BETWEEN", "EXPLAIN", "ANALYZE",
    ];

    /// An alias candidate: identifier that is not a reserved keyword.
    fn maybe_alias(&mut self) -> Option<String> {
        if self.eat_kw("AS") {
            return self.ident().ok();
        }
        if let Token::Ident(s) = self.peek() {
            if !Self::RESERVED.iter().any(|k| s.eq_ignore_ascii_case(k)) {
                let s = s.clone();
                self.next();
                return Some(s);
            }
        }
        None
    }

    fn parse_query(&mut self) -> Result<SelectStmt> {
        self.enter()?;
        let stmt = self.parse_query_inner();
        self.depth -= 1;
        stmt
    }

    fn parse_query_inner(&mut self) -> Result<SelectStmt> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let mut projection = vec![self.parse_select_item()?];
        while *self.peek() == Token::Comma {
            self.next();
            projection.push(self.parse_select_item()?);
        }
        self.expect_kw("FROM")?;
        let from = self.parse_table_ref()?;
        let mut joins = Vec::new();
        loop {
            let join_type = if self.at_kw("JOIN") || self.at_kw("INNER") {
                self.eat_kw("INNER");
                JoinType::Inner
            } else if self.at_kw("LEFT") {
                self.next();
                self.eat_kw("OUTER");
                JoinType::Left
            } else {
                break;
            };
            self.expect_kw("JOIN")?;
            let table = self.parse_table_ref()?;
            self.expect_kw("ON")?;
            let on = self.parse_expr()?;
            joins.push(JoinClause {
                join_type,
                table,
                on,
            });
        }
        let selection = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            group_by.push(self.parse_expr()?);
            while *self.peek() == Token::Comma {
                self.next();
                group_by.push(self.parse_expr()?);
            }
        }
        let having = if self.eat_kw("HAVING") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let e = self.parse_expr()?;
                let asc = if self.eat_kw("DESC") {
                    false
                } else {
                    self.eat_kw("ASC");
                    true
                };
                order_by.push((e, asc));
                if *self.peek() == Token::Comma {
                    self.next();
                } else {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.next() {
                Token::Int(n) if n >= 0 => Some(n as usize),
                other => {
                    return Err(EngineError::Sql(format!(
                        "LIMIT expects a non-negative integer, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };
        Ok(SelectStmt {
            distinct,
            projection,
            from,
            joins,
            selection,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    /// One `name TYPE` column definition in `CREATE TABLE`.
    fn parse_column_def(&mut self) -> Result<(String, String)> {
        let name = self.ident()?;
        let ty = self.ident()?;
        Ok((name, ty))
    }

    /// One `col = expr` assignment in `UPDATE ... SET`.
    fn parse_assignment(&mut self) -> Result<(String, SqlExpr)> {
        let col = self.ident()?;
        self.expect_token(Token::Eq)?;
        let value = self.parse_expr()?;
        Ok((col, value))
    }

    /// One parenthesized `(expr, ...)` tuple in `INSERT ... VALUES`.
    fn parse_values_row(&mut self) -> Result<Vec<SqlExpr>> {
        self.expect_token(Token::LParen)?;
        let mut row = vec![self.parse_expr()?];
        while *self.peek() == Token::Comma {
            self.next();
            row.push(self.parse_expr()?);
        }
        self.expect_token(Token::RParen)?;
        Ok(row)
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        if *self.peek() == Token::Star {
            self.next();
            return Ok(SelectItem::Wildcard);
        }
        let expr = self.parse_expr()?;
        let alias = self.maybe_alias();
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        if *self.peek() == Token::LParen {
            self.next();
            let query = self.parse_query()?;
            self.expect_token(Token::RParen)?;
            let alias = self.maybe_alias().ok_or_else(|| {
                EngineError::Sql("subquery in FROM requires an alias".to_string())
            })?;
            return Ok(TableRef::Subquery {
                query: Box::new(query),
                alias,
            });
        }
        let name = self.ident()?;
        let alias = self.maybe_alias();
        Ok(TableRef::Named { name, alias })
    }

    // Expression precedence: OR < AND < NOT < IS NULL < cmp < add < mul < unary
    fn parse_expr(&mut self) -> Result<SqlExpr> {
        self.enter()?;
        let expr = self.parse_or();
        self.depth -= 1;
        expr
    }

    fn parse_or(&mut self) -> Result<SqlExpr> {
        let mut left = self.parse_and()?;
        while self.eat_kw("OR") {
            let right = self.parse_and()?;
            left = SqlExpr::Binary {
                left: Box::new(left),
                op: BinaryOp::Or,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<SqlExpr> {
        let mut left = self.parse_not()?;
        while self.eat_kw("AND") {
            let right = self.parse_not()?;
            left = SqlExpr::Binary {
                left: Box::new(left),
                op: BinaryOp::And,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<SqlExpr> {
        // Collect NOTs iteratively: a long `NOT NOT NOT …` chain must not
        // recurse once per keyword. The count is still bounded — the AST
        // it builds is walked recursively downstream (binder, drop).
        let mut negations = 0usize;
        while self.eat_kw("NOT") {
            negations += 1;
        }
        if negations > Self::MAX_DEPTH {
            return Err(EngineError::Sql(format!(
                "NOT chain exceeds the maximum depth of {}",
                Self::MAX_DEPTH
            )));
        }
        let mut e = self.parse_is_null()?;
        for _ in 0..negations {
            e = SqlExpr::Not(Box::new(e));
        }
        Ok(e)
    }

    fn parse_is_null(&mut self) -> Result<SqlExpr> {
        let e = self.parse_cmp()?;
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(SqlExpr::IsNull {
                expr: Box::new(e),
                negated,
            });
        }
        // Postfix predicates: [NOT] IN / LIKE / BETWEEN.
        let negated = if self.at_kw("NOT") {
            // Only consume NOT when a postfix predicate follows.
            let next_is_postfix = matches!(
                self.tokens.get(self.pos + 1),
                Some(Token::Ident(k))
                    if k.eq_ignore_ascii_case("IN")
                        || k.eq_ignore_ascii_case("LIKE")
                        || k.eq_ignore_ascii_case("BETWEEN")
            );
            if next_is_postfix {
                self.next();
                true
            } else {
                return Ok(e);
            }
        } else {
            false
        };
        if self.eat_kw("IN") {
            self.expect_token(Token::LParen)?;
            let mut list = vec![self.parse_expr()?];
            while *self.peek() == Token::Comma {
                self.next();
                list.push(self.parse_expr()?);
            }
            self.expect_token(Token::RParen)?;
            return Ok(SqlExpr::InList {
                expr: Box::new(e),
                list,
                negated,
            });
        }
        if self.eat_kw("LIKE") {
            let Token::Str(pattern) = self.next() else {
                return Err(EngineError::Sql(
                    "LIKE expects a string pattern".to_string(),
                ));
            };
            return Ok(SqlExpr::Like {
                expr: Box::new(e),
                pattern,
                negated,
            });
        }
        if self.eat_kw("BETWEEN") {
            let low = self.parse_cmp()?;
            self.expect_kw("AND")?;
            let high = self.parse_cmp()?;
            return Ok(SqlExpr::Between {
                expr: Box::new(e),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if negated {
            return Err(EngineError::Sql(
                "expected IN, LIKE or BETWEEN after NOT".to_string(),
            ));
        }
        Ok(e)
    }

    fn parse_cmp(&mut self) -> Result<SqlExpr> {
        let left = self.parse_add()?;
        let op = match self.peek() {
            Token::Eq => BinaryOp::Eq,
            Token::NotEq => BinaryOp::NotEq,
            Token::Lt => BinaryOp::Lt,
            Token::LtEq => BinaryOp::LtEq,
            Token::Gt => BinaryOp::Gt,
            Token::GtEq => BinaryOp::GtEq,
            _ => return Ok(left),
        };
        self.next();
        let right = self.parse_add()?;
        Ok(SqlExpr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        })
    }

    fn parse_add(&mut self) -> Result<SqlExpr> {
        let mut left = self.parse_mul()?;
        loop {
            let op = match self.peek() {
                Token::Plus => BinaryOp::Plus,
                Token::Minus => BinaryOp::Minus,
                _ => return Ok(left),
            };
            self.next();
            let right = self.parse_mul()?;
            left = SqlExpr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
    }

    fn parse_mul(&mut self) -> Result<SqlExpr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Token::Star => BinaryOp::Multiply,
                Token::Slash => BinaryOp::Divide,
                Token::Percent => BinaryOp::Modulo,
                _ => return Ok(left),
            };
            self.next();
            let right = self.parse_unary()?;
            left = SqlExpr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
    }

    fn parse_unary(&mut self) -> Result<SqlExpr> {
        // Collect minus signs iteratively (a `-----x` chain must not
        // recurse once per sign), then fold them over the operand. The
        // count is bounded: over a non-literal operand each sign adds an
        // AST level, which downstream recursion has to walk.
        let mut negations = 0usize;
        while *self.peek() == Token::Minus {
            self.next();
            negations += 1;
        }
        if negations > Self::MAX_DEPTH {
            return Err(EngineError::Sql(format!(
                "unary minus chain exceeds the maximum depth of {}",
                Self::MAX_DEPTH
            )));
        }
        let mut e = self.parse_primary()?;
        for _ in 0..negations {
            // -literal folds; -expr becomes 0 - expr
            e = match e {
                SqlExpr::Int(v) => SqlExpr::Int(-v),
                SqlExpr::Float(v) => SqlExpr::Float(-v),
                e => SqlExpr::Binary {
                    left: Box::new(SqlExpr::Int(0)),
                    op: BinaryOp::Minus,
                    right: Box::new(e),
                },
            };
        }
        Ok(e)
    }

    fn parse_primary(&mut self) -> Result<SqlExpr> {
        match self.next() {
            Token::Int(v) => Ok(SqlExpr::Int(v)),
            Token::Float(v) => Ok(SqlExpr::Float(v)),
            Token::Str(s) => Ok(SqlExpr::Str(s)),
            Token::Param { slot, data_type } => Ok(SqlExpr::Param { slot, data_type }),
            Token::LParen => {
                let e = self.parse_expr()?;
                self.expect_token(Token::RParen)?;
                Ok(e)
            }
            Token::Ident(id) => {
                if id.eq_ignore_ascii_case("TRUE") {
                    return Ok(SqlExpr::Bool(true));
                }
                if id.eq_ignore_ascii_case("FALSE") {
                    return Ok(SqlExpr::Bool(false));
                }
                if id.eq_ignore_ascii_case("NULL") {
                    return Ok(SqlExpr::Null);
                }
                if id.eq_ignore_ascii_case("CAST") {
                    self.expect_token(Token::LParen)?;
                    let e = self.parse_expr()?;
                    self.expect_kw("AS")?;
                    let ty = self.ident()?;
                    self.expect_token(Token::RParen)?;
                    return Ok(SqlExpr::Cast {
                        expr: Box::new(e),
                        ty,
                    });
                }
                // Function call?
                if *self.peek() == Token::LParen {
                    self.next();
                    if *self.peek() == Token::Star {
                        self.next();
                        self.expect_token(Token::RParen)?;
                        return Ok(SqlExpr::Func {
                            name: id.to_lowercase(),
                            args: vec![],
                            star: true,
                        });
                    }
                    let mut args = Vec::new();
                    if *self.peek() != Token::RParen {
                        args.push(self.parse_expr()?);
                        while *self.peek() == Token::Comma {
                            self.next();
                            args.push(self.parse_expr()?);
                        }
                    }
                    self.expect_token(Token::RParen)?;
                    return Ok(SqlExpr::Func {
                        name: id.to_lowercase(),
                        args,
                        star: false,
                    });
                }
                // Qualified column?
                if *self.peek() == Token::Dot {
                    self.next();
                    let name = self.ident()?;
                    return Ok(SqlExpr::Column {
                        qualifier: Some(id),
                        name,
                    });
                }
                Ok(SqlExpr::Column {
                    qualifier: None,
                    name: id,
                })
            }
            other => Err(EngineError::Sql(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_select() {
        let q = parse("SELECT a, b FROM t WHERE a = 1").unwrap();
        assert_eq!(q.projection.len(), 2);
        assert!(q.selection.is_some());
        assert!(matches!(q.from, TableRef::Named { ref name, .. } if name == "t"));
    }

    #[test]
    fn parses_checkpoint() {
        assert_eq!(
            parse_statement("CHECKPOINT").unwrap(),
            Statement::Checkpoint { table: None }
        );
        assert_eq!(
            parse_statement("checkpoint person").unwrap(),
            Statement::Checkpoint {
                table: Some("person".to_string())
            }
        );
        // Trailing tokens are rejected, and `checkpoint` stays usable as a
        // plain table name in SELECT.
        assert!(parse_statement("CHECKPOINT a b").is_err());
        assert!(parse_statement("SELECT * FROM checkpoint").is_ok());
    }

    #[test]
    fn parses_scrub() {
        assert_eq!(
            parse_statement("SCRUB").unwrap(),
            Statement::Scrub { table: None }
        );
        assert_eq!(
            parse_statement("scrub person").unwrap(),
            Statement::Scrub {
                table: Some("person".to_string())
            }
        );
        // Trailing tokens are rejected, and `scrub` stays usable as a
        // plain table name in SELECT.
        assert!(parse_statement("SCRUB a b").is_err());
        assert!(parse_statement("SELECT * FROM scrub").is_ok());
    }

    #[test]
    fn parses_ddl_and_insert() {
        let s = parse_statement("CREATE TABLE t (id BIGINT, name VARCHAR)").unwrap();
        assert_eq!(
            s,
            Statement::CreateTable {
                name: "t".into(),
                columns: vec![
                    ("id".into(), "BIGINT".into()),
                    ("name".into(), "VARCHAR".into())
                ],
            }
        );
        assert_eq!(
            parse_statement("drop table t").unwrap(),
            Statement::DropTable { name: "t".into() }
        );
        let s = parse_statement("INSERT INTO t VALUES (1, 'a'), (-2, NULL)").unwrap();
        let Statement::Insert { table, rows } = s else {
            panic!()
        };
        assert_eq!(table, "t");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1][0], SqlExpr::Int(-2));
        assert_eq!(rows[1][1], SqlExpr::Null);
        // Malformed DDL errors instead of parsing as something else.
        assert!(parse_statement("CREATE TABLE t ()").is_err());
        assert!(parse_statement("CREATE TABLE t (id)").is_err());
        assert!(parse_statement("CREATE t (id BIGINT)").is_err());
        assert!(parse_statement("INSERT INTO t VALUES ()").is_err());
        assert!(parse_statement("INSERT INTO t VALUES (1,)").is_err());
        assert!(parse_statement("DROP TABLE").is_err());
        // The keywords stay usable as table names inside queries.
        assert!(parse_statement("SELECT * FROM create").is_ok());
        assert!(parse_statement("SELECT * FROM t JOIN insert ON t.a = insert.b").is_ok());
    }

    #[test]
    fn parses_update_delete_compact() {
        let s = parse_statement("UPDATE t SET v = v + 1, name = 'x' WHERE id > 3").unwrap();
        let Statement::Update {
            table,
            assignments,
            selection,
        } = s
        else {
            panic!()
        };
        assert_eq!(table, "t");
        assert_eq!(assignments.len(), 2);
        assert_eq!(assignments[0].0, "v");
        assert_eq!(assignments[1].1, SqlExpr::Str("x".into()));
        assert!(selection.is_some());
        // WHERE-less update touches every row.
        let s = parse_statement("update t set v = 0").unwrap();
        assert!(matches!(
            s,
            Statement::Update {
                selection: None,
                ..
            }
        ));
        let s = parse_statement("DELETE FROM t WHERE id = 7").unwrap();
        let Statement::Delete { table, selection } = s else {
            panic!()
        };
        assert_eq!(table, "t");
        assert!(selection.is_some());
        assert_eq!(
            parse_statement("delete from t").unwrap(),
            Statement::Delete {
                table: "t".into(),
                selection: None
            }
        );
        assert_eq!(
            parse_statement("COMPACT").unwrap(),
            Statement::Compact { table: None }
        );
        assert_eq!(
            parse_statement("compact person").unwrap(),
            Statement::Compact {
                table: Some("person".into())
            }
        );
        // Malformed DML errors instead of parsing as something else.
        assert!(parse_statement("UPDATE t").is_err());
        assert!(parse_statement("UPDATE SET v = 1").is_err());
        assert!(parse_statement("UPDATE t SET").is_err());
        assert!(parse_statement("UPDATE t SET v").is_err());
        assert!(parse_statement("UPDATE t SET v = ").is_err());
        assert!(parse_statement("UPDATE t SET v = 1,").is_err());
        assert!(parse_statement("DELETE t").is_err());
        assert!(parse_statement("DELETE FROM").is_err());
        assert!(parse_statement("DELETE FROM t WHERE").is_err());
        assert!(parse_statement("COMPACT a b").is_err());
        // The keywords stay usable as table names inside queries.
        assert!(parse_statement("SELECT * FROM update").is_ok());
        assert!(parse_statement("SELECT * FROM delete").is_ok());
        assert!(parse_statement("SELECT * FROM compact").is_ok());
        assert!(parse_statement("SELECT set FROM t").is_ok());
    }

    #[test]
    fn parses_materialized_view_ddl() {
        let s =
            parse_statement("CREATE MATERIALIZED VIEW v AS SELECT id FROM t WHERE id > 3").unwrap();
        let Statement::CreateMaterializedView { name, query } = s else {
            panic!()
        };
        assert_eq!(name, "v");
        assert_eq!(query.projection.len(), 1);
        assert!(query.selection.is_some());
        assert_eq!(
            parse_statement("drop materialized view v").unwrap(),
            Statement::DropMaterializedView { name: "v".into() }
        );
        assert_eq!(
            parse_statement("REFRESH MATERIALIZED VIEW v").unwrap(),
            Statement::RefreshMaterializedView { name: "v".into() }
        );
        // Malformed view DDL errors instead of parsing as something else.
        assert!(parse_statement("CREATE MATERIALIZED v AS SELECT 1").is_err());
        assert!(parse_statement("CREATE MATERIALIZED VIEW v SELECT 1").is_err());
        assert!(parse_statement("CREATE MATERIALIZED VIEW v AS").is_err());
        assert!(parse_statement("CREATE MATERIALIZED VIEW AS SELECT 1").is_err());
        assert!(parse_statement("DROP MATERIALIZED VIEW").is_err());
        assert!(parse_statement("REFRESH MATERIALIZED VIEW").is_err());
        assert!(parse_statement("REFRESH VIEW v").is_err());
        assert!(parse_statement("REFRESH MATERIALIZED VIEW v extra").is_err());
        // The keywords stay usable as table names inside queries.
        assert!(parse_statement("SELECT * FROM refresh").is_ok());
        assert!(parse_statement("SELECT materialized FROM view").is_ok());
    }

    #[test]
    fn parses_star_and_limit() {
        let q = parse("select * from t limit 10").unwrap();
        assert_eq!(q.projection, vec![SelectItem::Wildcard]);
        assert_eq!(q.limit, Some(10));
    }

    #[test]
    fn parses_joins() {
        let q = parse(
            "SELECT p.name FROM person p \
             JOIN knows k ON p.id = k.src \
             LEFT JOIN city c ON p.city = c.id",
        )
        .unwrap();
        assert_eq!(q.joins.len(), 2);
        assert_eq!(q.joins[0].join_type, JoinType::Inner);
        assert_eq!(q.joins[1].join_type, JoinType::Left);
        match &q.joins[0].table {
            TableRef::Named { name, alias } => {
                assert_eq!(name, "knows");
                assert_eq!(alias.as_deref(), Some("k"));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_group_order_having() {
        let q = parse(
            "SELECT city, count(*) AS n FROM person \
             GROUP BY city HAVING count(*) > 5 ORDER BY n DESC, city LIMIT 3",
        )
        .unwrap();
        assert_eq!(q.group_by.len(), 1);
        assert!(q.having.is_some());
        assert_eq!(q.order_by.len(), 2);
        assert!(!q.order_by[0].1);
        assert!(q.order_by[1].1);
    }

    #[test]
    fn parses_precedence() {
        let q = parse("SELECT * FROM t WHERE a + 1 * 2 = 3 AND NOT b OR c").unwrap();
        let Some(SqlExpr::Binary {
            op: BinaryOp::Or,
            left,
            ..
        }) = q.selection
        else {
            panic!("OR must be outermost");
        };
        assert!(matches!(
            *left,
            SqlExpr::Binary {
                op: BinaryOp::And,
                ..
            }
        ));
    }

    #[test]
    fn parses_subquery_in_from() {
        let q = parse("SELECT x FROM (SELECT a AS x FROM t) sub").unwrap();
        assert!(matches!(q.from, TableRef::Subquery { .. }));
    }

    #[test]
    fn parses_count_star_and_cast() {
        let q = parse("SELECT count(*), CAST(a AS BIGINT) FROM t").unwrap();
        let SelectItem::Expr { expr, .. } = &q.projection[0] else {
            panic!()
        };
        assert!(matches!(expr, SqlExpr::Func { star: true, .. }));
        let SelectItem::Expr { expr, .. } = &q.projection[1] else {
            panic!()
        };
        assert!(matches!(expr, SqlExpr::Cast { .. }));
    }

    #[test]
    fn parses_is_null() {
        let q = parse("SELECT * FROM t WHERE a IS NOT NULL AND b IS NULL").unwrap();
        assert!(q.selection.is_some());
    }

    #[test]
    fn rejects_trailing_tokens() {
        assert!(parse("SELECT a FROM t extra garbage ,").is_err());
        assert!(parse("SELECT FROM t").is_err());
        assert!(
            parse("SELECT a FROM (SELECT a FROM t)").is_err(),
            "subquery needs alias"
        );
    }

    #[test]
    fn parses_distinct() {
        let q = parse("SELECT DISTINCT city FROM person").unwrap();
        assert!(q.distinct);
        let q = parse("SELECT city FROM person").unwrap();
        assert!(!q.distinct);
    }

    #[test]
    fn parses_in_like_between() {
        let q = parse(
            "SELECT * FROM t WHERE a IN (1, 2, 3) AND b NOT IN (4)              AND s LIKE 'x%' AND s NOT LIKE '_y'              AND c BETWEEN 1 AND 10 AND d NOT BETWEEN 2 AND 3",
        )
        .unwrap();
        let shown = format!("{:?}", q.selection);
        assert!(shown.contains("InList"), "{shown}");
        assert!(shown.contains("Like"), "{shown}");
        assert!(shown.contains("Between"), "{shown}");
        assert!(shown.contains("negated: true"), "{shown}");
    }

    #[test]
    fn not_still_works_as_boolean_negation() {
        let q = parse("SELECT * FROM t WHERE NOT a = 1").unwrap();
        assert!(matches!(q.selection, Some(SqlExpr::Not(_))));
        // NOT before a non-postfix expression inside a conjunction
        let q = parse("SELECT * FROM t WHERE a = 1 AND NOT b = 2").unwrap();
        assert!(q.selection.is_some());
    }

    #[test]
    fn like_requires_string_pattern() {
        assert!(parse("SELECT * FROM t WHERE s LIKE 5").is_err());
        assert!(parse("SELECT * FROM t WHERE s NOT 5").is_err());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        // Parenthesized expressions.
        let q = format!("SELECT {}1{} FROM t", "(".repeat(5000), ")".repeat(5000));
        let err = parse(&q).unwrap_err();
        assert!(err.to_string().contains("maximum depth"), "got: {err}");
        // Nested subqueries.
        let mut q = "SELECT a FROM t".to_string();
        for _ in 0..5000 {
            q = format!("SELECT a FROM ({q}) s");
        }
        assert!(parse(&q).is_err());
        // Long NOT / unary-minus chains error cleanly (no per-token
        // parser frame, and no unboundedly deep AST for the binder).
        let q = format!("SELECT * FROM t WHERE {} a = 1", "NOT ".repeat(5000));
        assert!(parse(&q).is_err());
        let q = format!("SELECT {}5 FROM t", "- ".repeat(5000));
        assert!(parse(&q).is_err());
        let q = format!("SELECT * FROM t WHERE {} a = 1", "NOT ".repeat(40));
        parse(&q).unwrap();
        let q = format!("SELECT {}5 FROM t", "- ".repeat(40));
        parse(&q).unwrap();
        // Reasonable nesting still parses.
        let q = format!("SELECT {}1{} FROM t", "(".repeat(40), ")".repeat(40));
        parse(&q).unwrap();
    }

    #[test]
    fn negative_literals() {
        let q = parse("SELECT * FROM t WHERE a = -5 AND b = -1.5").unwrap();
        let sel = format!("{:?}", q.selection);
        assert!(sel.contains("Int(-5)"));
        assert!(sel.contains("Float(-1.5)"));
    }
}
