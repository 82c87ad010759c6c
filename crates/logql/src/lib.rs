//! LogQL — "Grafana Loki's PromQL inspired query language, where queries
//! act as if they are a distributed grep to aggregate log sources" (§IV-A).
//!
//! The crate is storage-agnostic: it parses query text into an AST,
//! executes log pipelines over individual entries, and computes range /
//! vector aggregations over entry streams the store hands it. The Loki
//! crate supplies the storage side.
//!
//! The paper's queries all run through here, verbatim:
//!
//! ```text
//! {data_type="redfish_event"} |= "CabinetLeakDetected" | json
//! sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" | json [60m]))
//!     by (severity, cluster, context, message_id, message)
//! {app="fabric_manager_monitor"} |= "fm_switch_offline"
//!     | pattern "[<severity>] problem:<problem>, xname:<xname>, state:<state>"
//! ```

pub mod ast;
pub mod eval;
pub mod lexer;
pub mod matcher;
pub mod parser;
pub mod pattern;
pub mod pipeline;
pub mod pushdown;

pub use ast::{
    CmpOp, Expr, GroupKind, Grouping, LogQuery, MetricQuery, RangeAggOp, Stage, VectorAggOp,
};
pub use eval::{eval_range_agg, instant_vector_to_string, InstantVector, Matrix, RangeEntry};
pub use matcher::{MatchOp, Matcher, Selector};
pub use parser::{parse_expr, parse_log_query, parse_selector, ParseError};
pub use pattern::PatternExpr;
pub use pipeline::{Pipeline, ProcessedEntry};
pub use pushdown::PartialAgg;

#[cfg(test)]
mod paper_queries {
    use super::*;

    /// All queries the paper shows must parse.
    #[test]
    fn figures_parse() {
        let queries = [
            r#"{data_type="redfish_event"} |= "CabinetLeakDetected""#,
            r#"sum(count_over_time({data_type="redfish_event"} |= "CabinetLeakDetected" | json [60m])) by (severity, cluster, context, message_id, message)"#,
            r#"sum by (severity) (count_over_time({data_type="redfish_event"} | json [60m]))"#,
            r#"{app="fabric_manager_monitor"} |= "fm_switch_offline""#,
            r#"{app="fabric_manager_monitor"} |= "fm_switch_offline" | pattern "[<severity>] problem:<problem>, xname:<xname>, state:<state>""#,
            r#"sum(count_over_time({app="fabric_manager_monitor"} |= "fm_switch_offline" [5m])) by (xname) > 0"#,
        ];
        for q in queries {
            parse_expr(q).unwrap_or_else(|e| panic!("query failed to parse: {q}\n  {e}"));
        }
    }
}
