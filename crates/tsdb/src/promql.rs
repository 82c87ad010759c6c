//! A PromQL subset: what vmalert rules and Grafana metric panels need.
//!
//! Supported: instant vector selectors (`node_temp{node="x1"}`), range
//! functions (`rate`, `increase`, `delta`, `*_over_time`), vector
//! aggregation (`sum/min/max/avg/count by/without`), and vector⊗scalar
//! comparison filters for alert thresholds.

use crate::storage::Tsdb;
use omni_logql::ast::{CmpOp, GroupKind, Grouping, VectorAggOp};
use omni_logql::eval::{
    filter_grid, grid_to_instant, grid_to_matrix, step_grid, step_windows, vector_agg_grid,
    GridError, InstantVector, Matrix, SeriesGrid,
};
use omni_logql::lexer::{lex, Token};
use omni_logql::matcher::{MatchOp, Matcher, Selector};
use omni_model::{Sample, Timestamp, NANOS_PER_SEC};
use std::collections::BTreeMap;
use std::fmt;

/// Default instant-vector lookback (Prometheus uses 5 minutes).
pub const DEFAULT_LOOKBACK_NS: i64 = 5 * 60 * NANOS_PER_SEC;

/// Range function over a series window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeFn {
    /// Counter per-second rate (reset-aware).
    Rate,
    /// Counter increase over the window (reset-aware).
    Increase,
    /// Gauge difference last-first.
    Delta,
    /// Mean of samples.
    AvgOverTime,
    /// Minimum.
    MinOverTime,
    /// Maximum.
    MaxOverTime,
    /// Sum.
    SumOverTime,
    /// Sample count.
    CountOverTime,
    /// Last sample value.
    LastOverTime,
}

impl RangeFn {
    fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "rate" => RangeFn::Rate,
            "increase" => RangeFn::Increase,
            "delta" => RangeFn::Delta,
            "avg_over_time" => RangeFn::AvgOverTime,
            "min_over_time" => RangeFn::MinOverTime,
            "max_over_time" => RangeFn::MaxOverTime,
            "sum_over_time" => RangeFn::SumOverTime,
            "count_over_time" => RangeFn::CountOverTime,
            "last_over_time" => RangeFn::LastOverTime,
            _ => return None,
        })
    }

    /// Apply to one window of samples.
    pub fn apply(&self, samples: &[Sample], range_ns: i64) -> Option<f64> {
        if samples.is_empty() {
            return None;
        }
        let secs = range_ns as f64 / NANOS_PER_SEC as f64;
        Some(match self {
            RangeFn::Rate | RangeFn::Increase => {
                // Counter semantics: sum positive deltas (reset-aware).
                let mut increase = 0.0;
                for w in samples.windows(2) {
                    let d = w[1].value - w[0].value;
                    increase += if d >= 0.0 { d } else { w[1].value };
                }
                if *self == RangeFn::Rate {
                    increase / secs
                } else {
                    increase
                }
            }
            RangeFn::Delta => samples.last().unwrap().value - samples[0].value,
            RangeFn::AvgOverTime => {
                samples.iter().map(|s| s.value).sum::<f64>() / samples.len() as f64
            }
            RangeFn::MinOverTime => samples.iter().map(|s| s.value).fold(f64::INFINITY, f64::min),
            RangeFn::MaxOverTime => {
                samples.iter().map(|s| s.value).fold(f64::NEG_INFINITY, f64::max)
            }
            RangeFn::SumOverTime => samples.iter().map(|s| s.value).sum(),
            RangeFn::CountOverTime => samples.len() as f64,
            RangeFn::LastOverTime => samples.last().unwrap().value,
        })
    }
}

/// PromQL expression AST.
#[derive(Debug, Clone)]
pub enum PromExpr {
    /// Instant vector selector.
    Selector(Selector),
    /// `absent(selector)` — 1 when no series matches (alerting on
    /// vanished targets).
    Absent(Selector),
    /// `fn(selector[range])`
    RangeFn {
        /// The function.
        func: RangeFn,
        /// Series selector.
        selector: Selector,
        /// Window nanoseconds.
        range_ns: i64,
    },
    /// Vector aggregation.
    VectorAgg {
        /// Operator.
        op: VectorAggOp,
        /// Grouping clause.
        grouping: Option<Grouping>,
        /// Inner expression.
        inner: Box<PromExpr>,
    },
    /// Threshold filter.
    Filter {
        /// Inner expression.
        inner: Box<PromExpr>,
        /// Comparison.
        op: CmpOp,
        /// Scalar.
        scalar: f64,
    },
    /// Vector⊗vector arithmetic with one-to-one label matching
    /// (`errors / requests`).
    BinOp {
        /// Left side.
        lhs: Box<PromExpr>,
        /// `+ - * /`.
        op: ArithOp,
        /// Right side.
        rhs: Box<PromExpr>,
    },
}

/// Arithmetic operator for vector⊗vector expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (x/0 → dropped, like Prometheus NaN filtering).
    Div,
}

impl ArithOp {
    fn apply(&self, l: f64, r: f64) -> f64 {
        match self {
            ArithOp::Add => l + r,
            ArithOp::Sub => l - r,
            ArithOp::Mul => l * r,
            ArithOp::Div => l / r,
        }
    }
}

/// PromQL parse error.
#[derive(Debug, Clone, PartialEq)]
pub struct PromParseError(pub String);

impl fmt::Display for PromParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "promql parse error: {}", self.0)
    }
}

impl std::error::Error for PromParseError {}

/// Maximum depth of a parsed expression — aggregations nested in each
/// other plus links of an arithmetic chain — far above any real query,
/// and a guard against stack exhaustion on hostile query text.
const MAX_DEPTH: usize = 128;

/// Parse a PromQL expression.
pub fn parse_promql(input: &str) -> Result<PromExpr, PromParseError> {
    let toks = lex(input).map_err(|e| PromParseError(e.to_string()))?;
    let mut p = PromParser { toks, pos: 0 };
    let expr = p.expr(0)?;
    if p.pos != p.toks.len() {
        return Err(PromParseError(format!("trailing token {}", p.toks[p.pos])));
    }
    Ok(expr)
}

struct PromParser {
    toks: Vec<Token>,
    pos: usize,
}

impl PromParser {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, tok: &Token) -> Result<(), PromParseError> {
        match self.bump() {
            Some(t) if &t == tok => Ok(()),
            other => Err(PromParseError(format!("expected {tok}, found {other:?}"))),
        }
    }

    /// An expression at `depth`: each aggregation nests one deeper, and
    /// each link of an arithmetic chain deepens the left-leaning tree.
    fn expr(&mut self, mut depth: usize) -> Result<PromExpr, PromParseError> {
        let mut inner = self.vector_expr(depth)?;
        // Left-associative arithmetic chain (single precedence level —
        // parenthesize inside aggregations for anything fancier).
        loop {
            let aop = match self.peek() {
                Some(Token::Plus) => ArithOp::Add,
                Some(Token::Minus) => ArithOp::Sub,
                Some(Token::Star) => ArithOp::Mul,
                Some(Token::Slash) => ArithOp::Div,
                _ => break,
            };
            self.bump();
            depth += 1;
            let rhs = self.vector_expr(depth)?;
            inner = PromExpr::BinOp { lhs: Box::new(inner), op: aop, rhs: Box::new(rhs) };
        }
        let op = match self.peek() {
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::EqEq) => CmpOp::Eq,
            Some(Token::Neq) => CmpOp::Neq,
            _ => return Ok(inner),
        };
        self.bump();
        let negative = self.peek() == Some(&Token::Minus);
        if negative {
            self.bump();
        }
        match self.bump() {
            Some(Token::Number(n)) => Ok(PromExpr::Filter {
                inner: Box::new(inner),
                op,
                scalar: if negative { -n } else { n },
            }),
            other => Err(PromParseError(format!("expected scalar, found {other:?}"))),
        }
    }

    fn vector_expr(&mut self, depth: usize) -> Result<PromExpr, PromParseError> {
        if depth > MAX_DEPTH {
            return Err(PromParseError(format!("expression nests deeper than {MAX_DEPTH}")));
        }
        match self.peek() {
            Some(Token::LBrace) => Ok(PromExpr::Selector(self.selector(None)?)),
            Some(Token::Ident(name)) => {
                let name = name.clone();
                self.bump();
                if name == "absent" {
                    self.expect(&Token::LParen)?;
                    let sel_name = match self.peek() {
                        Some(Token::Ident(n)) => {
                            let n = n.clone();
                            self.bump();
                            Some(n)
                        }
                        _ => None,
                    };
                    let selector = if self.peek() == Some(&Token::LBrace) {
                        self.selector(sel_name)?
                    } else {
                        let Some(n) = sel_name else {
                            return Err(PromParseError("absent needs a selector".into()));
                        };
                        Selector::new(vec![Matcher::eq("__name__", &n)])
                    };
                    self.expect(&Token::RParen)?;
                    return Ok(PromExpr::Absent(selector));
                }
                if let Some(func) = RangeFn::from_name(&name) {
                    self.expect(&Token::LParen)?;
                    let sel_name = match self.peek() {
                        Some(Token::Ident(n)) => {
                            let n = n.clone();
                            self.bump();
                            Some(n)
                        }
                        _ => None,
                    };
                    let selector = if self.peek() == Some(&Token::LBrace) {
                        self.selector(sel_name)?
                    } else {
                        let Some(n) = sel_name else {
                            return Err(PromParseError("range function needs a selector".into()));
                        };
                        Selector::new(vec![Matcher::eq("__name__", &n)])
                    };
                    self.expect(&Token::LBracket)?;
                    let range_ns = match self.bump() {
                        Some(Token::Duration(ns)) => ns,
                        other => {
                            return Err(PromParseError(format!(
                                "expected duration, found {other:?}"
                            )))
                        }
                    };
                    self.expect(&Token::RBracket)?;
                    self.expect(&Token::RParen)?;
                    return Ok(PromExpr::RangeFn { func, selector, range_ns });
                }
                let vop = match name.as_str() {
                    "sum" => Some(VectorAggOp::Sum),
                    "min" => Some(VectorAggOp::Min),
                    "max" => Some(VectorAggOp::Max),
                    "avg" => Some(VectorAggOp::Avg),
                    "count" => Some(VectorAggOp::Count),
                    _ => None,
                };
                if let Some(op) = vop {
                    let g_before = self.grouping()?;
                    self.expect(&Token::LParen)?;
                    let inner = self.expr(depth + 1)?;
                    self.expect(&Token::RParen)?;
                    let g_after = self.grouping()?;
                    if g_before.is_some() && g_after.is_some() {
                        return Err(PromParseError("duplicate grouping".into()));
                    }
                    return Ok(PromExpr::VectorAgg {
                        op,
                        grouping: g_before.or(g_after),
                        inner: Box::new(inner),
                    });
                }
                // Bare metric name, optionally with matchers.
                if self.peek() == Some(&Token::LBrace) {
                    Ok(PromExpr::Selector(self.selector(Some(name))?))
                } else {
                    Ok(PromExpr::Selector(Selector::new(vec![Matcher::eq("__name__", &name)])))
                }
            }
            other => Err(PromParseError(format!("unexpected token {other:?}"))),
        }
    }

    fn grouping(&mut self) -> Result<Option<Grouping>, PromParseError> {
        let kind = match self.peek() {
            Some(Token::Ident(s)) if s == "by" => GroupKind::By,
            Some(Token::Ident(s)) if s == "without" => GroupKind::Without,
            _ => return Ok(None),
        };
        self.bump();
        self.expect(&Token::LParen)?;
        let mut labels = Vec::new();
        loop {
            match self.bump() {
                Some(Token::Ident(l)) => labels.push(l),
                Some(Token::RParen) if labels.is_empty() => break,
                other => return Err(PromParseError(format!("expected label, found {other:?}"))),
            }
            match self.bump() {
                Some(Token::Comma) => continue,
                Some(Token::RParen) => break,
                other => return Err(PromParseError(format!("expected , or ), found {other:?}"))),
            }
        }
        Ok(Some(Grouping { kind, labels }))
    }

    fn selector(&mut self, name: Option<String>) -> Result<Selector, PromParseError> {
        self.expect(&Token::LBrace)?;
        let mut matchers = Vec::new();
        if let Some(n) = name {
            matchers.push(Matcher::eq("__name__", &n));
        }
        if self.peek() == Some(&Token::RBrace) {
            self.bump();
            return Ok(Selector::new(matchers));
        }
        loop {
            let lname = match self.bump() {
                Some(Token::Ident(n)) => n,
                other => return Err(PromParseError(format!("expected label, found {other:?}"))),
            };
            let op = match self.bump() {
                Some(Token::Eq) => MatchOp::Eq,
                Some(Token::Neq) => MatchOp::Neq,
                Some(Token::ReMatch) => MatchOp::Re,
                Some(Token::NotRegex) => MatchOp::NotRe,
                other => return Err(PromParseError(format!("expected op, found {other:?}"))),
            };
            let value = match self.bump() {
                Some(Token::Str(s)) => s,
                other => return Err(PromParseError(format!("expected string, found {other:?}"))),
            };
            matchers.push(Matcher::new(&lname, op, &value).map_err(PromParseError)?);
            match self.bump() {
                Some(Token::Comma) => continue,
                Some(Token::RBrace) => break,
                other => return Err(PromParseError(format!("expected , or }}, found {other:?}"))),
            }
        }
        Ok(Selector::new(matchers))
    }
}

/// One row per series matching `selector`, `__name__` stripped, in
/// `query_series` order: the selector is fetched **once** for the whole
/// grid — `(first − reach, last]` — and each step's cell is `cell` of
/// that step's window `(t − reach, t]`, the windows swept forward over
/// the series' ascending samples ([`step_windows`]).
fn selector_grid(
    db: &Tsdb,
    selector: &Selector,
    steps: &[Timestamp],
    reach_ns: i64,
    cell: impl Fn(&[Sample]) -> Option<f64>,
) -> SeriesGrid {
    let Some((&first, &last)) = steps.first().zip(steps.last()) else {
        return Vec::new();
    };
    // Saturate: a sentinel `first` near `i64::MIN` must not overflow when
    // the reach is subtracted.
    db.query_series(selector, first.saturating_sub(reach_ns), last)
        .into_iter()
        .map(|(mut labels, samples)| {
            labels.remove("__name__");
            let cells =
                step_windows(&samples, |s| s.ts, steps, reach_ns).map(|w| cell(&samples[w]));
            (labels, cells.collect())
        })
        .collect()
}

/// An instant selector's rows: per step, the last sample inside the
/// lookback window.
fn instant_grid(db: &Tsdb, selector: &Selector, steps: &[Timestamp]) -> SeriesGrid {
    selector_grid(db, selector, steps, DEFAULT_LOOKBACK_NS, |w| w.last().map(|s| s.value))
}

/// Evaluate an expression over a whole step grid, series-major: every
/// selector is fetched once, every label set is built, stripped, grouped
/// and matched once per row, and only numbers are touched per step. Each
/// arm yields rows in the order its instant evaluation lists a step's
/// elements, which is what keeps order-sensitive folds above it (float
/// `sum`/`avg`) bit-identical to evaluating step by step.
fn eval_grid(db: &Tsdb, expr: &PromExpr, steps: &[Timestamp]) -> SeriesGrid {
    match expr {
        PromExpr::Selector(sel) => instant_grid(db, sel, steps),
        PromExpr::Absent(sel) => {
            let present = instant_grid(db, sel, steps);
            // Like Prometheus: the result labels are the selector's
            // equality matchers (minus the metric name).
            let mut labels = omni_model::LabelSet::new();
            for (k, v) in sel.equality_matchers() {
                if k != "__name__" {
                    labels.insert(k, v);
                }
            }
            let cells = (0..steps.len())
                .map(|si| present.iter().all(|(_, row)| row[si].is_none()).then_some(1.0));
            vec![(labels, cells.collect())]
        }
        PromExpr::RangeFn { func, selector, range_ns } => {
            let mut rows =
                selector_grid(db, selector, steps, *range_ns, |w| func.apply(w, *range_ns));
            rows.sort_by(|a, b| a.0.cmp(&b.0));
            rows
        }
        PromExpr::VectorAgg { op, grouping, inner } => {
            vector_agg_grid(*op, grouping.as_ref(), eval_grid(db, inner, steps))
        }
        PromExpr::Filter { inner, op, scalar } => {
            filter_grid(eval_grid(db, inner, steps), *op, *scalar)
        }
        PromExpr::BinOp { lhs, op, rhs } => {
            let left = eval_grid(db, lhs, steps);
            let right = eval_grid(db, rhs, steps);
            // One-to-one matching on identical label sets (sans metric
            // name, already stripped by the selector paths), decided once
            // per row. Of several right rows with the same labels the
            // last one present at a step wins, as a map insert would.
            let mut by_labels: BTreeMap<&omni_model::LabelSet, Vec<usize>> = BTreeMap::new();
            for (ri, (labels, _)) in right.iter().enumerate() {
                by_labels.entry(labels).or_default().push(ri);
            }
            let mut out = Vec::new();
            for (labels, cells) in &left {
                let Some(matches) = by_labels.get(labels) else { continue };
                let cells = cells.iter().enumerate().map(|(si, lv)| {
                    let rv = matches.iter().rev().find_map(|&ri| right[ri].1[si])?;
                    Some(op.apply((*lv)?, rv)).filter(|v| v.is_finite())
                });
                out.push((labels.clone(), cells.collect()));
            }
            out
        }
    }
}

/// Evaluate an expression at one instant against a store: a one-step
/// grid.
pub fn eval_instant(db: &Tsdb, expr: &PromExpr, at: Timestamp) -> InstantVector {
    grid_to_instant(eval_grid(db, expr, &[at]))
}

/// Evaluate over `[start, end]` at `step_ns` intervals. The grid is
/// LogQL's [`step_grid`]: a non-positive step or a grid longer than
/// Prometheus's 11 000-point resolution limit is an error before
/// anything is fetched, and it advances with checked arithmetic, so an
/// `end` near `i64::MAX` terminates.
pub fn eval_range(
    db: &Tsdb,
    expr: &PromExpr,
    start: Timestamp,
    end: Timestamp,
    step_ns: i64,
) -> Result<Matrix, GridError> {
    let steps = step_grid(start, end, step_ns)?;
    Ok(grid_to_matrix(eval_grid(db, expr, &steps), &steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::TsdbConfig;
    use omni_logql::eval::{eval_filter, eval_vector_agg};
    use omni_model::{labels, LabelSet};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn db() -> Tsdb {
        Tsdb::new(TsdbConfig { shards: 2, ..Default::default() })
    }

    #[test]
    fn bare_name_selector() {
        let d = db();
        d.ingest_sample("node_temp", labels!("node" => "x1"), NANOS_PER_SEC, 42.0);
        let e = parse_promql("node_temp").unwrap();
        let v = eval_instant(&d, &e, 2 * NANOS_PER_SEC);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].1, 42.0);
        assert_eq!(v[0].0.get("node"), Some("x1"));
        assert_eq!(v[0].0.get("__name__"), None);
    }

    #[test]
    fn name_with_matchers() {
        let d = db();
        d.ingest_sample("node_temp", labels!("node" => "x1"), 1, 42.0);
        d.ingest_sample("node_temp", labels!("node" => "x2"), 1, 50.0);
        let e = parse_promql(r#"node_temp{node="x2"}"#).unwrap();
        let v = eval_instant(&d, &e, NANOS_PER_SEC);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].1, 50.0);
    }

    #[test]
    fn rate_of_counter() {
        let d = db();
        for i in 0..=60 {
            d.ingest_sample(
                "requests_total",
                labels!("job" => "api"),
                i * NANOS_PER_SEC,
                (i * 5) as f64,
            );
        }
        let e = parse_promql("rate(requests_total[60s])").unwrap();
        let v = eval_instant(&d, &e, 60 * NANOS_PER_SEC);
        assert_eq!(v.len(), 1);
        assert!((v[0].1 - 5.0).abs() < 0.1, "rate = {}", v[0].1);
    }

    #[test]
    fn rate_survives_counter_reset() {
        let d = db();
        let values = [0.0, 10.0, 20.0, 3.0, 13.0]; // reset after 20
        for (i, v) in values.iter().enumerate() {
            d.ingest_sample("c", labels!("a" => "1"), (i as i64 + 1) * NANOS_PER_SEC, *v);
        }
        let e = parse_promql("increase(c[10s])").unwrap();
        let v = eval_instant(&d, &e, 10 * NANOS_PER_SEC);
        // 0→10→20 (+20), reset→3 (+3), 3→13 (+10) = 33
        assert_eq!(v[0].1, 33.0);
    }

    #[test]
    fn aggregation_by() {
        let d = db();
        d.ingest_sample("temp", labels!("cab" => "x1000", "node" => "n0"), 1, 40.0);
        d.ingest_sample("temp", labels!("cab" => "x1000", "node" => "n1"), 1, 50.0);
        d.ingest_sample("temp", labels!("cab" => "x1001", "node" => "n0"), 1, 60.0);
        let e = parse_promql("max by (cab) (temp)").unwrap();
        let v = eval_instant(&d, &e, NANOS_PER_SEC);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0], (labels!("cab" => "x1000"), 50.0));
        assert_eq!(v[1], (labels!("cab" => "x1001"), 60.0));
    }

    #[test]
    fn threshold_filter_alert_shape() {
        let d = db();
        d.ingest_sample("temp", labels!("node" => "hot"), 1, 92.0);
        d.ingest_sample("temp", labels!("node" => "cool"), 1, 45.0);
        let e = parse_promql("temp > 90").unwrap();
        let v = eval_instant(&d, &e, NANOS_PER_SEC);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].0.get("node"), Some("hot"));
    }

    #[test]
    fn over_time_functions() {
        let d = db();
        for (i, val) in [1.0, 5.0, 3.0].iter().enumerate() {
            d.ingest_sample("g", labels!("a" => "1"), (i as i64 + 1) * NANOS_PER_SEC, *val);
        }
        let at = 10 * NANOS_PER_SEC;
        for (q, expected) in [
            ("avg_over_time(g[10s])", 3.0),
            ("min_over_time(g[10s])", 1.0),
            ("max_over_time(g[10s])", 5.0),
            ("sum_over_time(g[10s])", 9.0),
            ("count_over_time(g[10s])", 3.0),
            ("last_over_time(g[10s])", 3.0),
            ("delta(g[10s])", 2.0),
        ] {
            let e = parse_promql(q).unwrap();
            let v = eval_instant(&d, &e, at);
            assert_eq!(v[0].1, expected, "query {q}");
        }
    }

    #[test]
    fn range_eval_produces_series() {
        let d = db();
        for i in 0..10 {
            d.ingest_sample("g", labels!("a" => "1"), i * NANOS_PER_SEC, i as f64);
        }
        let e = parse_promql("max_over_time(g[2s])").unwrap();
        let m = eval_range(&d, &e, 0, 9 * NANOS_PER_SEC, NANOS_PER_SEC).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].1.len(), 10);
    }

    #[test]
    fn a_bad_range_step_is_an_error_not_a_panic() {
        // Regression: a zero or negative step panicked in `step_grid`.
        let d = db();
        d.ingest_sample("g", labels!("a" => "1"), 1, 1.0);
        let e = parse_promql("g").unwrap();
        assert_eq!(eval_range(&d, &e, 0, 100, 0), Err(GridError::NonPositiveStep(0)));
        assert_eq!(eval_range(&d, &e, 0, 100, -5), Err(GridError::NonPositiveStep(-5)));
        assert_eq!(eval_range(&d, &e, 0, 11_000, 1), Err(GridError::TooManyPoints(11_001)));
        // 11 000 points still answer.
        let m = eval_range(&d, &e, 0, 10_999, 1).unwrap();
        assert_eq!(m[0].1.len(), 10_999, "the sample at 1ns is visible from step 1 on");
    }

    #[test]
    fn topk_over_a_nan_sample_ranks_it_after_every_number() {
        // An exposition `NaN` reaches the store as a sample like any
        // other; `topk`/`bottomk` pick it only when fewer than k numbers
        // are present, at every step, and agree with the oracle bit for
        // bit.
        let d = db();
        for i in 0..5i64 {
            let t = i * 15 * S;
            d.ingest_sample("m", labels!("i" => "a"), t, 1.0 + i as f64);
            d.ingest_sample("m", labels!("i" => "b"), t, f64::NAN);
            d.ingest_sample("m", labels!("i" => "c"), t, 10.0 - i as f64);
        }
        let m = parse_promql("m").unwrap();
        let steps = step_grid(0, 60 * S, 15 * S).unwrap();
        for (op, nan_picked) in [
            (VectorAggOp::Topk(2), false),
            (VectorAggOp::Bottomk(2), false),
            (VectorAggOp::Topk(3), true),
            (VectorAggOp::Bottomk(3), true),
        ] {
            let e = PromExpr::VectorAgg { op, grouping: None, inner: Box::new(m.clone()) };
            let got = eval_range(&d, &e, 0, 60 * S, 15 * S).unwrap();
            assert_eq!(matrix_bits(&got), matrix_bits(&stitched(&d, &e, &steps)), "{op:?}");
            let has_nan = got.iter().any(|(_, ss)| ss.iter().any(|s| s.value.is_nan()));
            assert_eq!(has_nan, nan_picked, "{op:?}: {got:?}");
            assert!(got.iter().all(|(_, ss)| ss.len() == steps.len()), "{op:?}: {got:?}");
        }
    }

    #[test]
    fn binop_divides_with_label_matching() {
        let d = db();
        for inst in ["a", "b"] {
            d.ingest_sample("errors_total", labels!("instance" => inst), NANOS_PER_SEC, 5.0);
            d.ingest_sample("requests_total", labels!("instance" => inst), NANOS_PER_SEC, 50.0);
        }
        // An instance with requests but no errors: dropped from the result.
        d.ingest_sample("requests_total", labels!("instance" => "c"), NANOS_PER_SEC, 10.0);
        let e =
            parse_promql("sum by (instance) (errors_total) / sum by (instance) (requests_total)")
                .unwrap();
        let v = eval_instant(&d, &e, 2 * NANOS_PER_SEC);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|(_, r)| *r == 0.1));
    }

    #[test]
    fn binop_division_by_zero_dropped() {
        let d = db();
        d.ingest_sample("a", labels!("x" => "1"), 1, 5.0);
        d.ingest_sample("b", labels!("x" => "1"), 1, 0.0);
        let e = parse_promql("sum by (x) (a) / sum by (x) (b)").unwrap();
        assert!(eval_instant(&d, &e, NANOS_PER_SEC).is_empty());
    }

    #[test]
    fn binop_chain_left_associative() {
        let d = db();
        d.ingest_sample("m", labels!("x" => "1"), 1, 8.0);
        let e = parse_promql("sum by (x) (m) + sum by (x) (m) - sum by (x) (m)").unwrap();
        let v = eval_instant(&d, &e, NANOS_PER_SEC);
        assert_eq!(v[0].1, 8.0);
    }

    #[test]
    fn negative_threshold_scalar() {
        let d = db();
        d.ingest_sample("g", labels!("x" => "1"), 1, -5.0);
        let e = parse_promql("g < -1").unwrap();
        let v = eval_instant(&d, &e, NANOS_PER_SEC);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn absent_fires_only_when_series_missing() {
        let d = db();
        let e = parse_promql(r#"absent(up{instance="ghost"})"#).unwrap();
        let v = eval_instant(&d, &e, NANOS_PER_SEC);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].1, 1.0);
        assert_eq!(v[0].0.get("instance"), Some("ghost"));
        d.ingest_sample("up", labels!("instance" => "ghost"), 1, 1.0);
        let v = eval_instant(&d, &e, NANOS_PER_SEC);
        assert!(v.is_empty());
    }

    #[test]
    fn parse_errors() {
        for q in ["", "rate(x)", "sum by (a", "x > ", "rate(x[5m]) trailing", "{a=}"] {
            assert!(parse_promql(q).is_err(), "should reject {q:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let nested = |levels: usize| format!("{}up{}", "sum(".repeat(levels), ")".repeat(levels));
        assert!(parse_promql(&nested(MAX_DEPTH)).is_ok());
        let err = parse_promql(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.0.contains("nests deeper"), "{err}");
        // Regression: 5 000 levels used to overflow the stack and abort.
        assert!(parse_promql(&nested(100_000)).is_err());
        // An arithmetic chain builds a tree as deep as it is long.
        let chain = |links: usize| format!("up{}", " + up".repeat(links));
        assert!(parse_promql(&chain(MAX_DEPTH)).is_ok());
        assert!(parse_promql(&chain(100_000)).is_err());
    }

    #[test]
    fn eval_range_terminates_when_the_grid_runs_off_the_end_of_time() {
        // Regression: `t += step_ns` overflowed with `end` near
        // `i64::MAX` — a debug build panicked, a release build wrapped
        // negative and never terminated. The grid is LogQL's `step_grid`
        // now, which advances with `checked_add`.
        let d = db();
        d.ingest_sample("g", labels!("a" => "1"), i64::MAX - 4, 7.0);
        let e = parse_promql("g").unwrap();
        let m = eval_range(&d, &e, i64::MAX - 5, i64::MAX, 3).unwrap();
        // Two grid points, MAX−5 and MAX−2; the sample is visible at the second.
        assert_eq!(m, vec![(labels!("a" => "1"), vec![Sample::new(i64::MAX - 2, 7.0)])]);
    }

    /// The step-major evaluator this module shipped before the grid: the
    /// parent commit's `eval_instant`, body unedited. The oracle for
    /// [`eval_grid`] — production code does not call it.
    fn reference_instant(db: &Tsdb, expr: &PromExpr, at: Timestamp) -> InstantVector {
        // The instant-vector lookup the store itself offered until nothing
        // but this oracle called it: per matching series, the latest
        // sample at or before `at` within the lookback window.
        let latest = |sel: &Selector| -> Vec<(LabelSet, Sample)> {
            db.query_series(sel, at.saturating_sub(DEFAULT_LOOKBACK_NS), at)
                .into_iter()
                .filter_map(|(labels, samples)| samples.last().map(|&s| (labels, s)))
                .collect()
        };
        match expr {
            PromExpr::Selector(sel) => latest(sel)
                .into_iter()
                .map(|(mut labels, s)| {
                    labels.remove("__name__");
                    (labels, s.value)
                })
                .collect(),
            PromExpr::Absent(sel) => {
                if latest(sel).is_empty() {
                    // Like Prometheus: the result labels are the selector's
                    // equality matchers (minus the metric name).
                    let mut labels = omni_model::LabelSet::new();
                    for (k, v) in sel.equality_matchers() {
                        if k != "__name__" {
                            labels.insert(k, v);
                        }
                    }
                    vec![(labels, 1.0)]
                } else {
                    Vec::new()
                }
            }
            PromExpr::RangeFn { func, selector, range_ns } => {
                let mut out = Vec::new();
                // Saturate: a sentinel `at` near `i64::MIN` must not overflow
                // when the range is subtracted (same class as the frontend's
                // `start - range_ns` fix).
                for (mut labels, samples) in
                    db.query_series(selector, at.saturating_sub(*range_ns), at)
                {
                    if let Some(v) = func.apply(&samples, *range_ns) {
                        labels.remove("__name__");
                        out.push((labels, v));
                    }
                }
                out.sort_by(|a, b| a.0.cmp(&b.0));
                out
            }
            PromExpr::VectorAgg { op, grouping, inner } => {
                eval_vector_agg(*op, grouping.as_ref(), reference_instant(db, inner, at))
            }
            PromExpr::Filter { inner, op, scalar } => {
                eval_filter(reference_instant(db, inner, at), *op, *scalar)
            }
            PromExpr::BinOp { lhs, op, rhs } => {
                let left = reference_instant(db, lhs, at);
                let right = reference_instant(db, rhs, at);
                // One-to-one matching on identical label sets (sans metric
                // name, already stripped by the selector paths).
                let rmap: std::collections::BTreeMap<&omni_model::LabelSet, f64> =
                    right.iter().map(|(l, v)| (l, *v)).collect();
                left.into_iter()
                    .filter_map(|(l, lv)| {
                        let rv = rmap.get(&l)?;
                        let v = op.apply(lv, *rv);
                        if v.is_finite() {
                            Some((l, v))
                        } else {
                            None
                        }
                    })
                    .collect()
            }
        }
    }

    const S: i64 = NANOS_PER_SEC;

    /// A seeded store for the oracle property: gauges with non-integer
    /// values (one scraped exactly on the 15 s grid, the rest jittered), a
    /// counter with a reset, a series that stops mid-window so its
    /// lookback expires, one that starts late, and two metric names
    /// sharing a label set (one of them touching zero). Blocks seal every
    /// 8 samples, so reads cross sealed blocks and the open head.
    fn oracle_store() -> Tsdb {
        let d = Tsdb::new(TsdbConfig { shards: 2, block_max_samples: 8, ..Default::default() });
        let mut rng = StdRng::seed_from_u64(22);
        for i in 0..=60i64 {
            let t = i * 15 * S;
            for (series, l) in [("0", "v"), ("1", "v"), ("2", "v"), ("3", "w"), ("4", "w")] {
                let jitter = if series == "0" { 0 } else { rng.gen_range(0..S) };
                let v = 40.0 + rng.gen_range(0.0..30.0) + 1.0 / 3.0;
                d.ingest_sample("m", labels!("l" => l, "i" => series), t + jitter, v);
            }
            if i <= 20 {
                d.ingest_sample("m", labels!("l" => "v", "i" => "stops"), t + 1, 0.1 * i as f64);
            }
            if i >= 30 {
                d.ingest_sample("m", labels!("l" => "w", "i" => "late"), t + 2, 99.5);
            }
            let count = if i < 25 { i * 7 } else { (i - 25) * 3 };
            d.ingest_sample("c", labels!("l" => "v"), t, count as f64 + 0.25);
            for k in ["1", "2"] {
                d.ingest_sample("a", labels!("l" => "v", "k" => k), t, rng.gen_range(0.0..9.0));
                let b = if i % 10 == 3 { 0.0 } else { rng.gen_range(1.0..9.0) };
                d.ingest_sample("b", labels!("l" => "v", "k" => k), t + 3, b);
            }
        }
        d
    }

    fn oracle_exprs() -> Vec<(String, PromExpr)> {
        let mut texts: Vec<String> = [
            "m",
            r#"m{l="v"}"#,
            r#"{l="v"}"#,
            r#"{l=~"v|w", i!="0"}"#,
            "absent(m)",
            "absent(nope)",
            r#"absent(m{i="stops"})"#,
            "sum(m)",
            "sum by (l) (m)",
            "min by (l) (m)",
            "max by (l) (m)",
            "avg by (l) (m)",
            "count by (l) (m)",
            "avg without (i) (m)",
            "sum without (l) (m)",
            r#"avg by (l) ({l="v"})"#,
            r#"sum by (k) ({l="v"})"#,
            "avg by (l) (rate(c[2m]))",
            "max by (l) (avg_over_time(m[1m]))",
            "m > 55",
            "sum by (l) (m) > 200",
            r#"count by (l) (m{i="stops"}) == 1"#,
            "a / b",
            "a - b",
            "sum by (k) (a) / sum by (k) (b)",
            "sum by (l) (a) * sum by (l) (m)",
        ]
        .map(String::from)
        .into();
        for f in [
            "rate",
            "increase",
            "delta",
            "avg_over_time",
            "min_over_time",
            "max_over_time",
            "sum_over_time",
            "count_over_time",
            "last_over_time",
        ] {
            texts.push(format!("{f}(m[1m])"));
            texts.push(format!("{f}(c[7m])"));
            texts.push(format!(r#"{f}({{l="v"}}[45s])"#));
        }
        let mut exprs: Vec<(String, PromExpr)> =
            texts.into_iter().map(|t| (t.clone(), parse_promql(&t).unwrap())).collect();
        // The parser has no `topk`; the AST does.
        let agg = |op, grouping, inner: &PromExpr| PromExpr::VectorAgg {
            op,
            grouping,
            inner: Box::new(inner.clone()),
        };
        let m = parse_promql("m").unwrap();
        let topk = agg(VectorAggOp::Topk(2), None, &m);
        let by_l = Some(Grouping { kind: GroupKind::By, labels: vec!["l".into()] });
        exprs.push(("bottomk(2, m)".into(), agg(VectorAggOp::Bottomk(2), None, &m)));
        exprs.push(("avg by (l) (topk(2, m))".into(), agg(VectorAggOp::Avg, by_l, &topk)));
        exprs.push((
            "topk(2, m) > 60".into(),
            PromExpr::Filter { inner: Box::new(topk.clone()), op: CmpOp::Gt, scalar: 60.0 },
        ));
        exprs.push(("topk(2, m)".into(), topk));
        let sums = parse_promql("sum by (l) (m)").unwrap();
        exprs.push(("topk(1, sum by (l) (m))".into(), agg(VectorAggOp::Topk(1), None, &sums)));
        exprs
    }

    fn matrix_bits(m: &Matrix) -> Vec<(LabelSet, Vec<(Timestamp, u64)>)> {
        m.iter()
            .map(|(l, ss)| (l.clone(), ss.iter().map(|s| (s.ts, s.value.to_bits())).collect()))
            .collect()
    }

    fn vector_bits(v: InstantVector) -> Vec<(LabelSet, u64)> {
        v.into_iter().map(|(l, v)| (l, v.to_bits())).collect()
    }

    /// What the parent's `eval_range` did: one instant evaluation per
    /// step, stitched into series through a `BTreeMap`.
    fn stitched(db: &Tsdb, e: &PromExpr, steps: &[Timestamp]) -> Matrix {
        let mut series: BTreeMap<LabelSet, Vec<Sample>> = BTreeMap::new();
        for &t in steps {
            for (labels, value) in reference_instant(db, e, t) {
                series.entry(labels).or_default().push(Sample::new(t, value));
            }
        }
        series.into_iter().collect()
    }

    /// The grid evaluator against its oracle, bit for bit: `eval_range`
    /// equals stitching `reference_instant` over the grid, and
    /// `eval_instant` equals `reference_instant` (order included) at
    /// every grid point.
    ///
    /// Mutations of `eval.rs` shown to fail this test (each a small edit,
    /// reverted): `<=` → `<` on `step_windows`' lower cursor (range
    /// functions on the aligned grid gain the sample at the window's open
    /// end) or on its upper cursor (a sample exactly at a step drops
    /// out); deleting the lower cursor's advance, so a window never
    /// loses a sample (`m` keeps showing `i="stops"` after its lookback
    /// expires); folding a group's members in reverse row order in
    /// `vector_agg_grid` (`sum(m)` moves in the last bits).
    #[test]
    fn grid_evaluator_equals_the_step_major_reference() {
        let d = oracle_store();
        let grids = [
            (0, 900 * S, 60 * S),          // aligned with the scrape grid
            (7 * S, 900 * S, 13 * S),      // off-grid start, step < scrape interval
            (100 * S + 1, 400 * S, 5 * S), // several steps per scrape
            (-120 * S, 1_400 * S, 97 * S), // before the first and past the last sample
            (450 * S, 450 * S, 60 * S),    // one step
            (500 * S, 499 * S, 60 * S),    // zero steps
        ];
        for (text, e) in oracle_exprs() {
            let mut non_empty = false;
            for (start, end, step) in grids {
                let steps = step_grid(start, end, step).unwrap();
                let got = eval_range(&d, &e, start, end, step).unwrap();
                assert_eq!(
                    matrix_bits(&got),
                    matrix_bits(&stitched(&d, &e, &steps)),
                    "{text} over ({start}, {end}, {step})"
                );
                non_empty |= !got.is_empty();
                for &t in &steps {
                    assert_eq!(
                        vector_bits(eval_instant(&d, &e, t)),
                        vector_bits(reference_instant(&d, &e, t)),
                        "{text} at {t}"
                    );
                }
            }
            assert!(non_empty, "{text}: the store has data for every oracle expression");
        }
    }
}
