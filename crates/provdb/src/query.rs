//! Filtering and aggregation over a collection's documents.
//!
//! This is deliberately a small fraction of SQL — exactly the shapes the
//! Workflow Scheduler needs: "the observed runtimes of earlier tasks of
//! the same signature … running on either the same or other compute
//! nodes", "the names and sizes of the files being processed", and "the
//! data transfer times for obtaining this input data" (paper §3.4), plus
//! the manual aggregation queries §3.5 advertises.

use hiway_format::json::Json;

use crate::store::Collection;

/// Comparison operators for filters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// A single field predicate.
#[derive(Clone, Debug)]
pub struct Filter {
    clauses: Vec<(String, Op, Json)>,
}

impl Filter {
    pub fn new() -> Filter {
        Filter {
            clauses: Vec::new(),
        }
    }

    pub fn and(mut self, field: &str, op: Op, value: impl Into<Json>) -> Filter {
        self.clauses.push((field.to_string(), op, value.into()));
        self
    }

    /// True when every clause holds. Numeric comparisons require numbers;
    /// `Eq`/`Ne` work on any type; ordering on strings is lexicographic.
    pub fn matches(&self, doc: &Json) -> bool {
        self.clauses.iter().all(|(field, op, expected)| {
            let actual = match doc.get(field) {
                Some(v) => v,
                None => return false,
            };
            match op {
                Op::Eq => actual == expected,
                Op::Ne => actual != expected,
                Op::Lt | Op::Le | Op::Gt | Op::Ge => match (actual, expected) {
                    (Json::Number(a), Json::Number(b)) => cmp_holds(*op, a.partial_cmp(b)),
                    (Json::String(a), Json::String(b)) => cmp_holds(*op, Some(a.cmp(b))),
                    _ => false,
                },
            }
        })
    }
}

impl Default for Filter {
    fn default() -> Filter {
        Filter::new()
    }
}

fn cmp_holds(op: Op, ord: Option<std::cmp::Ordering>) -> bool {
    use std::cmp::Ordering::*;
    matches!(
        (op, ord),
        (Op::Lt, Some(Less))
            | (Op::Le, Some(Less | Equal))
            | (Op::Gt, Some(Greater))
            | (Op::Ge, Some(Greater | Equal))
    )
}

/// A fluent query over a collection. Every terminal call reads the
/// collection as it stands under one read lock and clones only what it
/// returns.
pub struct Query {
    source: Collection,
    filter: Filter,
}

impl Query {
    pub(crate) fn new(source: Collection) -> Query {
        Query {
            source,
            filter: Filter::new(),
        }
    }

    pub fn filter(mut self, field: &str, op: Op, value: impl Into<Json>) -> Query {
        self.filter = self.filter.and(field, op, value);
        self
    }

    /// Materializes the matching documents, in insertion order.
    pub fn collect(self) -> Vec<Json> {
        self.source.scan(&self.filter)
    }

    /// The last matching document (the "latest observation" the adaptive
    /// scheduler bases its runtime estimates on).
    pub fn last(self) -> Option<Json> {
        self.source
            .with_docs(|docs| docs.iter().rev().find(|d| self.filter.matches(d)).cloned())
    }

    /// Aggregates a numeric field over the matching documents.
    pub fn aggregate(self, field: &str, agg: Aggregate) -> Option<f64> {
        let values: Vec<f64> = self.source.with_docs(|docs| {
            docs.iter()
                .filter(|d| self.filter.matches(d))
                .filter_map(|d| d.get(field).and_then(Json::as_f64))
                .collect()
        });
        agg.apply(&values)
    }
}

/// Aggregation functions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Aggregate {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl Aggregate {
    pub fn apply(self, values: &[f64]) -> Option<f64> {
        if values.is_empty() {
            return match self {
                Aggregate::Count => Some(0.0),
                _ => None,
            };
        }
        Some(match self {
            Aggregate::Count => values.len() as f64,
            Aggregate::Sum => values.iter().sum(),
            Aggregate::Avg => values.iter().sum::<f64>() / values.len() as f64,
            Aggregate::Min => values.iter().cloned().fold(f64::INFINITY, f64::min),
            Aggregate::Max => values.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded() -> Collection {
        let c = Collection::default();
        for (task, node, runtime) in [
            ("align", "n0", 10.0),
            ("align", "n1", 20.0),
            ("align", "n0", 12.0),
            ("sort", "n0", 5.0),
            ("sort", "n1", 6.0),
        ] {
            c.insert(
                Json::object()
                    .with("task", task)
                    .with("node", node)
                    .with("runtime", runtime),
            );
        }
        c
    }

    #[test]
    fn filter_composition() {
        let c = seeded();
        let hits = c
            .query()
            .filter("task", Op::Eq, "align")
            .filter("node", Op::Eq, "n0")
            .collect();
        assert_eq!(hits.len(), 2);
        let fast = c.query().filter("runtime", Op::Lt, 10.0).collect();
        assert_eq!(fast.len(), 2);
    }

    #[test]
    fn last_returns_latest_observation() {
        let c = seeded();
        let latest = c
            .query()
            .filter("task", Op::Eq, "align")
            .filter("node", Op::Eq, "n0")
            .last()
            .unwrap();
        assert_eq!(latest.get("runtime").unwrap().as_f64(), Some(12.0));
    }

    #[test]
    fn aggregates() {
        let c = seeded();
        let q = || c.query().filter("task", Op::Eq, "align");
        assert_eq!(q().aggregate("runtime", Aggregate::Count), Some(3.0));
        assert_eq!(q().aggregate("runtime", Aggregate::Sum), Some(42.0));
        assert_eq!(q().aggregate("runtime", Aggregate::Avg), Some(14.0));
        assert_eq!(q().aggregate("runtime", Aggregate::Min), Some(10.0));
        assert_eq!(q().aggregate("runtime", Aggregate::Max), Some(20.0));
        // Empty group: count 0, other aggregates None.
        let none = c.query().filter("task", Op::Eq, "nope");
        assert_eq!(none.aggregate("runtime", Aggregate::Avg), None);
        let zero = c.query().filter("task", Op::Eq, "nope");
        assert_eq!(zero.aggregate("runtime", Aggregate::Count), Some(0.0));
    }

    #[test]
    fn missing_fields_never_match() {
        let c = Collection::default();
        c.insert(Json::object().with("x", 1u64));
        assert!(c.query().filter("y", Op::Eq, 1u64).collect().is_empty());
        assert!(
            c.query().filter("x", Op::Lt, "str").collect().is_empty(),
            "type mismatch"
        );
    }

    #[test]
    fn string_ordering_is_lexicographic() {
        let c = Collection::default();
        c.insert(Json::object().with("name", "alpha"));
        c.insert(Json::object().with("name", "beta"));
        let hits = c.query().filter("name", Op::Ge, "b").collect();
        assert_eq!(hits.len(), 1);
    }
}
