//! Parsing query specifications from the command line.
//!
//! A query is either a named shape (`chain`, `clique`, `cycle`, `star`)
//! sized by the number of datasets, or an explicit edge list like
//! `"0-1,1-2,2-0"` with optional predicates: `"0-1:intersects,0-2:contains,
//! 1-2:within:0.05"`.

use mwsj_geom::Predicate;
use mwsj_query::{QueryGraph, QueryGraphBuilder};
use std::fmt;

/// Errors raised when parsing a `--query` value.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::enum_variant_names)] // Bad* reads naturally for parse errors
pub enum QuerySpecError {
    /// Edge not of the form `a-b[:predicate]`.
    BadEdge(String),
    /// Unknown predicate name, or a `within:<eps>` whose ε is not a
    /// finite, non-negative number.
    BadPredicate(String),
    /// The built graph was rejected (self-loop, duplicate, range…).
    BadGraph(String),
}

impl fmt::Display for QuerySpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuerySpecError::BadEdge(e) => write!(f, "bad edge '{e}' (expected a-b[:pred])"),
            QuerySpecError::BadPredicate(p) => write!(
                f,
                "bad predicate '{p}' (intersects|contains|inside|northeast|southwest|within:<eps>, \
                 eps a finite distance >= 0)"
            ),
            QuerySpecError::BadGraph(m) => write!(f, "invalid query graph: {m}"),
        }
    }
}

impl std::error::Error for QuerySpecError {}

/// Builds a query graph from a `--query` string over `n_vars` datasets.
pub fn parse_query(spec: &str, n_vars: usize) -> Result<QueryGraph, QuerySpecError> {
    // The shape constructors assert their minimum size; turn an
    // undersized `--data` list into a parse error instead of a panic.
    let need = |min: usize| {
        if n_vars < min {
            Err(QuerySpecError::BadGraph(format!(
                "a {spec} query needs at least {min} datasets, got {n_vars}"
            )))
        } else {
            Ok(())
        }
    };
    match spec {
        "chain" => need(2).map(|()| QueryGraph::chain(n_vars)),
        "clique" => need(2).map(|()| QueryGraph::clique(n_vars)),
        "cycle" => need(3).map(|()| QueryGraph::cycle(n_vars)),
        "star" => need(2).map(|()| QueryGraph::star(n_vars)),
        edges => parse_edge_list(edges, n_vars),
    }
}

fn parse_edge_list(spec: &str, n_vars: usize) -> Result<QueryGraph, QuerySpecError> {
    let mut builder = QueryGraphBuilder::new(n_vars);
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (pair, pred) = match part.split_once(':') {
            None => (part, Predicate::Intersects),
            Some((pair, p)) => (pair, parse_predicate(p)?),
        };
        let (a, b) = pair
            .split_once('-')
            .ok_or_else(|| QuerySpecError::BadEdge(part.to_string()))?;
        let a: usize = a
            .trim()
            .parse()
            .map_err(|_| QuerySpecError::BadEdge(part.to_string()))?;
        let b: usize = b
            .trim()
            .parse()
            .map_err(|_| QuerySpecError::BadEdge(part.to_string()))?;
        builder = builder.edge_with(a, b, pred);
    }
    builder
        .build()
        .map_err(|e| QuerySpecError::BadGraph(e.to_string()))
}

fn parse_predicate(spec: &str) -> Result<Predicate, QuerySpecError> {
    match spec {
        "intersects" | "overlap" => Ok(Predicate::Intersects),
        "contains" => Ok(Predicate::Contains),
        "inside" => Ok(Predicate::Inside),
        "northeast" | "ne" => Ok(Predicate::NorthEast),
        "southwest" | "sw" => Ok(Predicate::SouthWest),
        other => {
            if let Some(eps) = other.strip_prefix("within:") {
                // A distance: `f64::from_str` also reads "nan", "inf" and
                // negatives, and the test compares with ε², which would read
                // a negative ε as its absolute value.
                match eps.parse::<f64>() {
                    Ok(eps) if eps.is_finite() && eps >= 0.0 => Ok(Predicate::WithinDistance(eps)),
                    _ => Err(QuerySpecError::BadPredicate(other.to_string())),
                }
            } else {
                Err(QuerySpecError::BadPredicate(other.to_string()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_shapes() {
        assert_eq!(parse_query("chain", 4).unwrap().edge_count(), 3);
        assert_eq!(parse_query("clique", 4).unwrap().edge_count(), 6);
        assert_eq!(parse_query("cycle", 4).unwrap().edge_count(), 4);
        assert_eq!(parse_query("star", 4).unwrap().edge_count(), 3);
    }

    #[test]
    fn named_shapes_reject_undersized_variable_counts() {
        for spec in ["chain", "clique", "star"] {
            assert!(matches!(
                parse_query(spec, 1),
                Err(QuerySpecError::BadGraph(_))
            ));
            assert!(parse_query(spec, 2).is_ok());
        }
        assert!(matches!(
            parse_query("cycle", 2),
            Err(QuerySpecError::BadGraph(_))
        ));
        assert!(parse_query("cycle", 3).is_ok());
    }

    #[test]
    fn edge_lists_with_predicates() {
        let g = parse_query("0-1,1-2:contains,0-2:within:0.1", 3).unwrap();
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.predicate_between(1, 2), Some(Predicate::Contains));
        assert_eq!(g.predicate_between(2, 1), Some(Predicate::Inside));
        assert_eq!(
            g.predicate_between(0, 2),
            Some(Predicate::WithinDistance(0.1))
        );
    }

    #[test]
    fn rejects_malformed_edges() {
        assert!(matches!(
            parse_query("01", 3),
            Err(QuerySpecError::BadEdge(_))
        ));
        assert!(matches!(
            parse_query("a-b", 3),
            Err(QuerySpecError::BadEdge(_))
        ));
        assert!(matches!(
            parse_query("0-1:sideways", 3),
            Err(QuerySpecError::BadPredicate(_))
        ));
        assert!(matches!(
            parse_query("0-0", 3),
            Err(QuerySpecError::BadGraph(_))
        ));
        assert!(matches!(
            parse_query("0-7", 3),
            Err(QuerySpecError::BadGraph(_))
        ));
    }

    #[test]
    fn within_requires_numeric_epsilon() {
        for eps in ["big", "", "-0.01", "nan", "inf", "-inf"] {
            let err = parse_query(&format!("0-1:within:{eps}"), 2).unwrap_err();
            assert_eq!(err, QuerySpecError::BadPredicate(format!("within:{eps}")));
            assert!(
                err.to_string().contains(&format!("'within:{eps}'")),
                "{err}"
            );
        }
        for (eps, value) in [("0", 0.0), ("0.05", 0.05), ("-0", 0.0), ("1e3", 1000.0)] {
            let g = parse_query(&format!("0-1:within:{eps}"), 2).unwrap();
            assert_eq!(g.edges()[0].pred, Predicate::WithinDistance(value));
        }
    }
}
