//! LogQL parser: token stream → AST.

use crate::ast::*;
use crate::lexer::{lex, Token};
use crate::matcher::{MatchOp, Matcher, Selector};
use crate::pattern::PatternExpr;
use omni_regexlite::Regex;
use std::fmt;
use std::sync::Arc;

/// Maximum nesting of metric aggregations — far above any real query, and
/// a guard against stack exhaustion on hostile query text (the query
/// door, rule files and the lint all parse text from outside).
const MAX_DEPTH: usize = 128;

/// Parse failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Description.
    pub message: String,
}

impl ParseError {
    fn new(message: impl Into<String>) -> Self {
        Self { message: message.into() }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "logql parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete expression (log or metric query).
pub fn parse_expr(input: &str) -> Result<Expr, ParseError> {
    let toks = lex(input).map_err(|e| ParseError::new(e.to_string()))?;
    let mut p = Parser { toks, pos: 0 };
    let expr = p.expr()?;
    if p.pos != p.toks.len() {
        return Err(ParseError::new(format!("unexpected trailing token {}", p.toks[p.pos])));
    }
    Ok(expr)
}

/// Parse a log query (selector + pipeline), rejecting metric queries.
pub fn parse_log_query(input: &str) -> Result<LogQuery, ParseError> {
    match parse_expr(input)? {
        Expr::Log(q) => Ok(q),
        Expr::Metric(_) => Err(ParseError::new("expected a log query, found a metric query")),
    }
}

/// Parse a bare selector like `{app="fm"}`.
pub fn parse_selector(input: &str) -> Result<Selector, ParseError> {
    let q = parse_log_query(input)?;
    if !q.stages.is_empty() {
        return Err(ParseError::new("expected a bare selector without pipeline stages"));
    }
    Ok(q.selector)
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
}

impl Parser {
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

    fn expect(&mut self, tok: &Token) -> Result<(), ParseError> {
        match self.bump() {
            Some(t) if &t == tok => Ok(()),
            Some(t) => Err(ParseError::new(format!("expected {tok}, found {t}"))),
            None => Err(ParseError::new(format!("expected {tok}, found end of query"))),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Token::Ident(s)) => Ok(s),
            Some(t) => Err(ParseError::new(format!("expected identifier, found {t}"))),
            None => Err(ParseError::new("expected identifier, found end of query")),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Token::Str(s)) => Ok(s),
            Some(t) => Err(ParseError::new(format!("expected string, found {t}"))),
            None => Err(ParseError::new("expected string, found end of query")),
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(Token::LBrace) => {
                let q = self.log_query()?;
                Ok(Expr::Log(q))
            }
            Some(Token::Ident(_)) => {
                let m = self.metric_query(0)?;
                Ok(Expr::Metric(self.maybe_filter(m)?))
            }
            Some(t) => Err(ParseError::new(format!("unexpected token {t}"))),
            None => Err(ParseError::new("empty query")),
        }
    }

    /// `inner CMP number` threshold filter.
    fn maybe_filter(&mut self, inner: MetricQuery) -> Result<MetricQuery, ParseError> {
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
        let scalar = match self.bump() {
            Some(Token::Number(n)) => n,
            Some(t) => {
                return Err(ParseError::new(format!("expected number after {op}, found {t}")))
            }
            None => return Err(ParseError::new("expected number after comparison")),
        };
        Ok(MetricQuery::Filter { inner: Box::new(inner), op, scalar })
    }

    fn metric_query(&mut self, depth: usize) -> Result<MetricQuery, ParseError> {
        if depth > MAX_DEPTH {
            return Err(ParseError::new(format!("aggregations nest deeper than {MAX_DEPTH}")));
        }
        let name = self.ident()?;
        if let Some(op) = RangeAggOp::from_name(&name) {
            return self.range_agg(op);
        }
        let vop = match name.as_str() {
            "sum" => VectorAggOp::Sum,
            "min" => VectorAggOp::Min,
            "max" => VectorAggOp::Max,
            "avg" => VectorAggOp::Avg,
            "count" => VectorAggOp::Count,
            "topk" | "bottomk" => {
                // topk(k, inner)
                self.expect(&Token::LParen)?;
                let k = match self.bump() {
                    Some(Token::Number(n)) if n >= 1.0 => n as usize,
                    _ => return Err(ParseError::new(format!("{name} needs a positive k"))),
                };
                self.expect(&Token::Comma)?;
                let inner = self.metric_query(depth + 1)?;
                self.expect(&Token::RParen)?;
                let op =
                    if name == "topk" { VectorAggOp::Topk(k) } else { VectorAggOp::Bottomk(k) };
                let grouping = self.maybe_grouping()?;
                return Ok(MetricQuery::VectorAgg { op, grouping, inner: Box::new(inner) });
            }
            other => return Err(ParseError::new(format!("unknown function {other:?}"))),
        };
        // Prometheus allows grouping before or after the parens.
        let grouping_before = self.maybe_grouping()?;
        self.expect(&Token::LParen)?;
        let inner = self.metric_query(depth + 1)?;
        self.expect(&Token::RParen)?;
        let grouping_after = self.maybe_grouping()?;
        if grouping_before.is_some() && grouping_after.is_some() {
            return Err(ParseError::new("duplicate grouping clause"));
        }
        Ok(MetricQuery::VectorAgg {
            op: vop,
            grouping: grouping_before.or(grouping_after),
            inner: Box::new(inner),
        })
    }

    fn maybe_grouping(&mut self) -> Result<Option<Grouping>, ParseError> {
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
                Some(t) => return Err(ParseError::new(format!("expected label name, found {t}"))),
                None => return Err(ParseError::new("unterminated grouping clause")),
            }
            match self.bump() {
                Some(Token::Comma) => continue,
                Some(Token::RParen) => break,
                Some(t) => return Err(ParseError::new(format!("expected , or ), found {t}"))),
                None => return Err(ParseError::new("unterminated grouping clause")),
            }
        }
        Ok(Some(Grouping { kind, labels }))
    }

    fn range_agg(&mut self, op: RangeAggOp) -> Result<MetricQuery, ParseError> {
        self.expect(&Token::LParen)?;
        let query = self.log_query()?;
        // The range can follow the selector or the full pipeline:
        // `count_over_time({a="b"} |= "x" [5m])`.
        self.expect(&Token::LBracket)?;
        let range_ns = match self.bump() {
            Some(Token::Duration(ns)) => ns,
            Some(t) => return Err(ParseError::new(format!("expected duration, found {t}"))),
            None => return Err(ParseError::new("expected duration")),
        };
        self.expect(&Token::RBracket)?;
        self.expect(&Token::RParen)?;
        if op.needs_unwrap() && !query.stages.iter().any(|s| matches!(s, Stage::Unwrap(_))) {
            return Err(ParseError::new(format!("{op:?} requires an | unwrap stage")));
        }
        Ok(MetricQuery::RangeAgg { op, query, range_ns })
    }

    fn log_query(&mut self) -> Result<LogQuery, ParseError> {
        let selector = self.selector()?;
        let mut stages = Vec::new();
        loop {
            match self.peek() {
                Some(Token::PipeExact) => {
                    self.bump();
                    stages.push(Stage::LineContains(self.string()?));
                }
                Some(Token::Neq) => {
                    self.bump();
                    stages.push(Stage::LineNotContains(self.string()?));
                }
                Some(Token::PipeRegex) => {
                    self.bump();
                    stages.push(Stage::LineRegex(self.regex()?));
                }
                Some(Token::NotRegex) => {
                    self.bump();
                    stages.push(Stage::LineNotRegex(self.regex()?));
                }
                Some(Token::Pipe) => {
                    self.bump();
                    stages.push(self.pipe_stage()?);
                }
                _ => break,
            }
        }
        Ok(LogQuery { selector, stages })
    }

    fn regex(&mut self) -> Result<Arc<Regex>, ParseError> {
        let src = self.string()?;
        Regex::new(&src)
            .map(Arc::new)
            .map_err(|e| ParseError::new(format!("invalid regex {src:?}: {e}")))
    }

    fn pipe_stage(&mut self) -> Result<Stage, ParseError> {
        let name = self.ident()?;
        Ok(match name.as_str() {
            "json" => Stage::Json,
            "logfmt" => Stage::Logfmt,
            "pattern" => {
                let src = self.string()?;
                Stage::Pattern(
                    PatternExpr::compile(&src).map_err(|e| ParseError::new(e.to_string()))?,
                )
            }
            "regexp" => Stage::Regexp(self.regex()?),
            "line_format" => Stage::LineFormat(self.string()?),
            "label_format" => {
                let dst = self.ident()?;
                self.expect(&Token::Eq)?;
                match self.bump() {
                    Some(Token::Ident(src)) => {
                        Stage::LabelFormat { dst, src: LabelFormatSrc::Rename(src) }
                    }
                    Some(Token::Str(t)) => {
                        Stage::LabelFormat { dst, src: LabelFormatSrc::Template(t) }
                    }
                    other => {
                        return Err(ParseError::new(format!(
                            "label_format expects label or template, found {other:?}"
                        )))
                    }
                }
            }
            "unwrap" => Stage::Unwrap(self.ident()?),
            // Anything else is a label filter: `| severity = "critical"`,
            // `| dur > 10`.
            label => {
                let label = label.to_string();
                match self.bump() {
                    Some(Token::Eq) => match self.bump() {
                        Some(Token::Str(v)) => {
                            Stage::LabelCmpString { label, negated: false, value: v }
                        }
                        Some(Token::Number(n)) => {
                            Stage::LabelCmpNumeric { label, op: CmpOp::Eq, value: n }
                        }
                        other => {
                            return Err(ParseError::new(format!(
                                "label filter expects value, found {other:?}"
                            )))
                        }
                    },
                    Some(Token::Neq) => match self.bump() {
                        Some(Token::Str(v)) => {
                            Stage::LabelCmpString { label, negated: true, value: v }
                        }
                        Some(Token::Number(n)) => {
                            Stage::LabelCmpNumeric { label, op: CmpOp::Neq, value: n }
                        }
                        other => {
                            return Err(ParseError::new(format!(
                                "label filter expects value, found {other:?}"
                            )))
                        }
                    },
                    Some(Token::ReMatch) => {
                        Stage::LabelCmpRegex { label, negated: false, regex: self.regex()? }
                    }
                    Some(Token::NotRegex) => {
                        Stage::LabelCmpRegex { label, negated: true, regex: self.regex()? }
                    }
                    Some(tok @ (Token::Gt | Token::Ge | Token::Lt | Token::Le | Token::EqEq)) => {
                        let op = match tok {
                            Token::Gt => CmpOp::Gt,
                            Token::Ge => CmpOp::Ge,
                            Token::Lt => CmpOp::Lt,
                            Token::Le => CmpOp::Le,
                            _ => CmpOp::Eq,
                        };
                        let value = match self.bump() {
                            Some(Token::Number(n)) => n,
                            Some(Token::Duration(ns)) => ns as f64 / 1e9,
                            other => {
                                return Err(ParseError::new(format!(
                                    "numeric label filter expects number, found {other:?}"
                                )))
                            }
                        };
                        Stage::LabelCmpNumeric { label, op, value }
                    }
                    other => {
                        return Err(ParseError::new(format!(
                            "unknown pipeline stage {label:?} (followed by {other:?})"
                        )))
                    }
                }
            }
        })
    }

    fn selector(&mut self) -> Result<Selector, ParseError> {
        self.expect(&Token::LBrace)?;
        let mut matchers = Vec::new();
        if self.peek() == Some(&Token::RBrace) {
            self.bump();
            return Ok(Selector::new(matchers));
        }
        loop {
            let name = self.ident()?;
            let op = match self.bump() {
                Some(Token::Eq) => MatchOp::Eq,
                Some(Token::Neq) => MatchOp::Neq,
                Some(Token::ReMatch) => MatchOp::Re,
                Some(Token::NotRegex) => MatchOp::NotRe,
                other => {
                    return Err(ParseError::new(format!(
                        "expected matcher operator, found {other:?}"
                    )))
                }
            };
            let value = self.string()?;
            matchers.push(Matcher::new(&name, op, &value).map_err(ParseError::new)?);
            match self.bump() {
                Some(Token::Comma) => continue,
                Some(Token::RBrace) => break,
                other => return Err(ParseError::new(format!("expected , or }}, found {other:?}"))),
            }
        }
        Ok(Selector::new(matchers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_selector() {
        let sel = parse_selector(r#"{app="fm", cluster!="cori"}"#).unwrap();
        assert_eq!(sel.matchers.len(), 2);
        assert_eq!(sel.matchers[0].op, MatchOp::Eq);
        assert_eq!(sel.matchers[1].op, MatchOp::Neq);
    }

    #[test]
    fn empty_selector() {
        let sel = parse_selector("{}").unwrap();
        assert!(sel.matchers.is_empty());
    }

    #[test]
    fn log_query_with_stages() {
        let q = parse_log_query(
            r#"{app="fm"} |= "offline" != "test" |~ "x\d+" | json | severity = "critical""#,
        )
        .unwrap();
        assert_eq!(q.stages.len(), 5);
        assert!(matches!(q.stages[0], Stage::LineContains(_)));
        assert!(matches!(q.stages[1], Stage::LineNotContains(_)));
        assert!(matches!(q.stages[2], Stage::LineRegex(_)));
        assert!(matches!(q.stages[3], Stage::Json));
        assert!(matches!(q.stages[4], Stage::LabelCmpString { .. }));
    }

    #[test]
    fn paper_figure5_query_structure() {
        let e = parse_expr(
            r#"sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" | json [60m])) by (severity, cluster, context, message_id, message)"#,
        )
        .unwrap();
        let Expr::Metric(MetricQuery::VectorAgg { op, grouping, inner }) = e else {
            panic!("expected vector agg")
        };
        assert_eq!(op, VectorAggOp::Sum);
        let g = grouping.unwrap();
        assert_eq!(g.kind, GroupKind::By);
        assert_eq!(g.labels, vec!["severity", "cluster", "context", "message_id", "message"]);
        let MetricQuery::RangeAgg { op, query, range_ns } = *inner else {
            panic!("expected range agg")
        };
        assert_eq!(op, RangeAggOp::CountOverTime);
        assert_eq!(range_ns, 3600 * 1_000_000_000);
        assert_eq!(query.stages.len(), 2);
    }

    #[test]
    fn grouping_before_parens() {
        let e = parse_expr(r#"sum by (a) (rate({x="y"}[1m]))"#).unwrap();
        let Expr::Metric(MetricQuery::VectorAgg { grouping, .. }) = e else { panic!() };
        assert_eq!(grouping.unwrap().labels, vec!["a"]);
    }

    #[test]
    fn threshold_filter() {
        let e = parse_expr(r#"sum(count_over_time({a="b"}[5m])) > 0"#).unwrap();
        let Expr::Metric(MetricQuery::Filter { op, scalar, .. }) = e else { panic!() };
        assert_eq!(op, CmpOp::Gt);
        assert_eq!(scalar, 0.0);
    }

    #[test]
    fn unwrap_required_for_value_aggs() {
        assert!(parse_expr(r#"sum_over_time({a="b"}[5m])"#).is_err());
        assert!(parse_expr(r#"sum_over_time({a="b"} | json | unwrap dur [5m])"#).is_ok());
    }

    #[test]
    fn pattern_stage_parses() {
        let q = parse_log_query(
            r#"{app="fm"} | pattern "[<severity>] problem:<problem>, xname:<xname>, state:<state>""#,
        )
        .unwrap();
        let Stage::Pattern(p) = &q.stages[0] else { panic!() };
        assert_eq!(p.capture_names(), vec!["severity", "problem", "xname", "state"]);
    }

    #[test]
    fn label_format_and_line_format() {
        let q = parse_log_query(
            r#"{a="b"} | label_format loc=context | line_format "{{.severity}}: {{.message}}""#,
        )
        .unwrap();
        assert!(matches!(&q.stages[0], Stage::LabelFormat { dst, .. } if dst == "loc"));
        assert!(matches!(&q.stages[1], Stage::LineFormat(_)));
    }

    #[test]
    fn numeric_label_filters() {
        let q = parse_log_query(r#"{a="b"} | json | dur > 1.5 | code == 200"#).unwrap();
        assert!(
            matches!(&q.stages[1], Stage::LabelCmpNumeric { op: CmpOp::Gt, value, .. } if *value == 1.5)
        );
        assert!(matches!(&q.stages[2], Stage::LabelCmpNumeric { op: CmpOp::Eq, .. }));
    }

    #[test]
    fn duration_label_filter_converts_to_seconds() {
        let q = parse_log_query(r#"{a="b"} | json | latency > 10s"#).unwrap();
        assert!(matches!(&q.stages[1], Stage::LabelCmpNumeric { value, .. } if *value == 10.0));
    }

    #[test]
    fn topk() {
        let e = parse_expr(r#"topk(3, count_over_time({a="b"}[1m])) by (host)"#).unwrap();
        let Expr::Metric(MetricQuery::VectorAgg { op: VectorAggOp::Topk(3), .. }) = e else {
            panic!()
        };
    }

    #[test]
    fn rejects_malformed() {
        for q in [
            "",
            "{",
            r#"{a=}"#,
            r#"{a="b"} |="#,
            r#"frobnicate({a="b"}[5m])"#,
            r#"sum({a="b"})"#,             // vector agg over a log query
            r#"count_over_time({a="b"})"#, // missing range
            r#"sum by (a) by (b) (rate({x="y"}[1m]))"#,
            r#"{a="b"} trailing"#,
            r#"sum(count_over_time({a="b"}[5m])) > "zero""#,
        ] {
            assert!(parse_expr(q).is_err(), "should reject {q:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let nested = |levels: usize| {
            let inner = r#"count_over_time({a="b"}[1m])"#;
            format!("{}{inner}{}", "sum(".repeat(levels), ")".repeat(levels))
        };
        assert!(parse_expr(&nested(MAX_DEPTH)).is_ok());
        let err = parse_expr(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nest deeper"), "{err}");
        // Regression: 5 000 levels used to overflow the stack and abort.
        assert!(parse_expr(&nested(100_000)).is_err());
        let topk = format!(
            "{}count_over_time({{a=\"b\"}}[1m]){}",
            "topk(1, ".repeat(100_000),
            ")".repeat(100_000)
        );
        assert!(parse_expr(&topk).is_err());
    }

    #[test]
    fn a_deeply_nested_regex_literal_is_an_error_not_a_stack_overflow() {
        // Regression: the aggregation bound did not reach the regex inside
        // a string literal; 100 000 nested `(` there aborted the process.
        for op in ["|~", "!~"] {
            let q = format!(r#"{{a="b"}} {op} "{}""#, "(".repeat(100_000));
            assert!(parse_expr(&q).is_err(), "{op}");
        }
        let q = format!(r#"{{a=~"{}"}}"#, "(".repeat(100_000));
        assert!(parse_expr(&q).is_err());
    }

    #[test]
    fn duplicate_grouping_rejected() {
        assert!(parse_expr(r#"sum by (a) (rate({x="y"}[1m])) by (b)"#).is_err());
    }
}
