//! Query batches: the unit of work the engine executes.

use kreach_graph::VertexId;

/// One k-hop reachability question: is there a path `s →k t`?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Query {
    /// Source vertex.
    pub s: VertexId,
    /// Target vertex.
    pub t: VertexId,
    /// Hop bound.
    pub k: u32,
}

/// An ordered list of queries; the engine's answers come back in the same
/// order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryBatch {
    queries: Vec<Query>,
}

impl QueryBatch {
    /// Wraps an explicit query list.
    pub fn new(queries: Vec<Query>) -> Self {
        QueryBatch { queries }
    }

    /// Builds a batch from `(s, t)` pairs sharing one hop bound (the shape
    /// produced by `kreach_datasets::QueryWorkload` — uniform random pairs).
    pub fn from_pairs(pairs: &[(VertexId, VertexId)], k: u32) -> Self {
        Self::new(pairs.iter().map(|&(s, t)| Query { s, t, k }).collect())
    }

    /// Builds a batch from `(s, t, optional k)` triples, filling missing hop
    /// bounds with `default_k` (the shape of a parsed workload file).
    pub fn from_triples(triples: &[(VertexId, VertexId, Option<u32>)], default_k: u32) -> Self {
        Self::new(
            triples
                .iter()
                .map(|&(s, t, k)| Query {
                    s,
                    t,
                    k: k.unwrap_or(default_k),
                })
                .collect(),
        )
    }

    /// The queries, in execution/answer order.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Pairs the batch's queries with their answers, in batch order — the
    /// shape the shared wire-format renderer
    /// (`kreach_datasets::render_answer_lines`) consumes, used by the CLI
    /// and the network server alike.
    pub fn answered<'a>(
        &'a self,
        answers: &'a [bool],
    ) -> impl Iterator<Item = (VertexId, VertexId, u32, bool)> + 'a {
        self.queries
            .iter()
            .zip(answers.iter())
            .map(|(q, &answer)| (q.s, q.t, q.k, answer))
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the batch holds no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_applies_the_shared_k() {
        let pairs = vec![(VertexId(0), VertexId(1)), (VertexId(2), VertexId(3))];
        let batch = QueryBatch::from_pairs(&pairs, 4);
        assert_eq!(batch.len(), 2);
        assert!(batch.queries().iter().all(|q| q.k == 4));
        assert_eq!(
            batch.queries()[1],
            Query {
                s: VertexId(2),
                t: VertexId(3),
                k: 4
            }
        );
    }

    #[test]
    fn from_triples_fills_missing_k_with_default() {
        let triples = vec![
            (VertexId(0), VertexId(1), Some(2)),
            (VertexId(1), VertexId(2), None),
        ];
        let batch = QueryBatch::from_triples(&triples, 7);
        assert_eq!(batch.queries()[0].k, 2);
        assert_eq!(batch.queries()[1].k, 7);
        assert!(!batch.is_empty());
    }
}
