//! A portable JSON copy of a graph, kept in memory.
//!
//! Task results and logs live on the [`crate::status::StatusBoard`], and
//! uploaded datasets are durable only through relstore: a scheduler built
//! with a data dir ([`crate::scheduler::SchedulerBuilder::data_dir`])
//! snapshots every upload and journals every mutation ([`crate::persist`]).
//! [`MemoryStore`] is what is left: a plain graph codec the scheduler never
//! writes to, kept for callers that want a portable JSON copy (the
//! end-to-end benchmark's trace times `put_dataset`).

use crate::error::EngineError;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Portable JSON encoding of a graph for the dataset methods: node count,
/// sparse label map, and `[source, target, weight?]` edge triples.
mod graph_codec {
    use super::EngineError;
    use relgraph::{DirectedGraph, GraphBuilder, NodeId};
    use serde::{Deserialize, Serialize};

    #[derive(Serialize, Deserialize)]
    struct GraphDoc {
        nodes: u32,
        labels: Vec<(u32, String)>,
        edges: Vec<(u32, u32)>,
        #[serde(default)]
        weights: Option<Vec<f64>>,
    }

    pub fn encode(g: &DirectedGraph) -> Result<String, EngineError> {
        let doc = GraphDoc {
            nodes: g.node_count() as u32,
            labels: g.labels().iter().map(|(n, l)| (n.raw(), l.to_string())).collect(),
            edges: g.edges().map(|(u, v)| (u.raw(), v.raw())).collect(),
            weights: g.is_weighted().then(|| g.weighted_edges().map(|(_, _, w)| w).collect()),
        };
        serde_json::to_string(&doc).map_err(|e| EngineError::Storage(format!("encode: {e}")))
    }

    pub fn decode(s: &str) -> Result<DirectedGraph, EngineError> {
        let doc: GraphDoc =
            serde_json::from_str(s).map_err(|e| EngineError::Storage(format!("decode: {e}")))?;
        let mut b = GraphBuilder::with_capacity(doc.nodes as usize, doc.edges.len());
        if doc.nodes > 0 {
            b.ensure_node(doc.nodes - 1);
        }
        match &doc.weights {
            Some(ws) if ws.len() == doc.edges.len() => {
                for (&(u, v), &w) in doc.edges.iter().zip(ws) {
                    b.add_weighted_edge(NodeId::new(u), NodeId::new(v), w);
                }
            }
            _ => {
                for &(u, v) in &doc.edges {
                    b.add_edge_indices(u, v);
                }
            }
        }
        for (n, l) in doc.labels {
            b.set_label(NodeId::new(n), l);
        }
        b.try_build().map_err(|e| EngineError::Storage(format!("decode: {e}")))
    }
}

/// In-memory store of JSON-encoded graphs; clones share one map.
#[derive(Debug, Clone, Default)]
pub struct MemoryStore {
    datasets: Arc<RwLock<HashMap<String, String>>>,
}

impl MemoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a portable JSON copy of a dataset.
    pub fn put_dataset(
        &self,
        id: &str,
        graph: &relgraph::DirectedGraph,
    ) -> Result<(), EngineError> {
        let enc = graph_codec::encode(graph)?;
        self.datasets.write().insert(id.to_string(), enc);
        Ok(())
    }

    /// Loads a dataset stored with [`MemoryStore::put_dataset`].
    pub fn get_dataset(&self, id: &str) -> Result<Option<relgraph::DirectedGraph>, EngineError> {
        match self.datasets.read().get(id) {
            Some(enc) => Ok(Some(graph_codec::decode(enc)?)),
            None => Ok(None),
        }
    }

    /// Lists ids of datasets stored with [`MemoryStore::put_dataset`].
    pub fn list_datasets(&self) -> Result<Vec<String>, EngineError> {
        Ok(self.datasets.read().keys().cloned().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_store_roundtrip() {
        let store = MemoryStore::new();
        assert!(store.get_dataset("mine").unwrap().is_none());
        let mut b = relgraph::GraphBuilder::new();
        let a = b.add_labeled_node("a");
        let c = b.add_labeled_node("b");
        b.add_weighted_edge(a, c, 2.5);
        let g = b.build();
        store.put_dataset("mine", &g).unwrap();
        let back = store.get_dataset("mine").unwrap().unwrap();
        assert_eq!(back.node_count(), 2);
        assert_eq!(back.edge_weight(a, c), Some(2.5));
        assert_eq!(back.node_by_label("b"), Some(c));
        assert!(store.list_datasets().unwrap().contains(&"mine".to_string()));
    }

    #[test]
    fn memory_store_shared_between_clones() {
        let a = MemoryStore::new();
        let b = a.clone();
        a.put_dataset("mine", &relgraph::GraphBuilder::from_edge_indices([(0, 1)])).unwrap();
        assert!(b.get_dataset("mine").unwrap().is_some());
    }
}
