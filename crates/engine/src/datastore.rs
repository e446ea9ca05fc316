//! Result and log storage — the Datastore component of Fig. 1.
//!
//! Workers write results and per-task logs here; the Status/API side reads
//! them. [`MemoryStore`] is the process-local implementation the scheduler,
//! server and CLI use.
//!
//! Datasets are durable only through relstore: a scheduler built with a
//! data dir ([`crate::scheduler::SchedulerBuilder::data_dir`]) snapshots
//! every upload and journals every mutation ([`crate::persist`]). The
//! scheduler never writes datasets here; the `*_dataset` methods remain a
//! plain graph codec for callers that want a portable JSON copy.

use crate::error::EngineError;
use crate::executor::TaskResult;
use crate::task::TaskId;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Storage interface for task results, logs and uploaded datasets.
pub trait Datastore: Send + Sync {
    /// Persists a result.
    fn put_result(&self, result: &TaskResult) -> Result<(), EngineError>;

    /// Fetches a result by task id.
    fn get_result(&self, id: &TaskId) -> Result<Option<TaskResult>, EngineError>;

    /// Appends a line to a task's log.
    fn append_log(&self, id: &TaskId, line: &str) -> Result<(), EngineError>;

    /// Reads a task's full log.
    fn get_log(&self, id: &TaskId) -> Result<String, EngineError>;

    /// Lists ids of all stored results.
    fn list_results(&self) -> Result<Vec<TaskId>, EngineError>;

    /// Stores a portable JSON copy of a dataset. The scheduler never calls
    /// this: uploads are durable only through relstore.
    fn put_dataset(&self, id: &str, graph: &relgraph::DirectedGraph) -> Result<(), EngineError>;

    /// Loads a dataset stored with [`Datastore::put_dataset`].
    fn get_dataset(&self, id: &str) -> Result<Option<relgraph::DirectedGraph>, EngineError>;

    /// Lists ids of datasets stored with [`Datastore::put_dataset`].
    fn list_datasets(&self) -> Result<Vec<String>, EngineError>;
}

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

/// In-memory datastore.
#[derive(Debug, Clone, Default)]
pub struct MemoryStore {
    results: Arc<RwLock<HashMap<TaskId, TaskResult>>>,
    logs: Arc<RwLock<HashMap<TaskId, String>>>,
    datasets: Arc<RwLock<HashMap<String, String>>>,
}

impl MemoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Datastore for MemoryStore {
    fn put_result(&self, result: &TaskResult) -> Result<(), EngineError> {
        self.results.write().insert(result.task_id.clone(), result.clone());
        Ok(())
    }

    fn get_result(&self, id: &TaskId) -> Result<Option<TaskResult>, EngineError> {
        Ok(self.results.read().get(id).cloned())
    }

    fn append_log(&self, id: &TaskId, line: &str) -> Result<(), EngineError> {
        let mut logs = self.logs.write();
        let entry = logs.entry(id.clone()).or_default();
        entry.push_str(line);
        entry.push('\n');
        Ok(())
    }

    fn get_log(&self, id: &TaskId) -> Result<String, EngineError> {
        Ok(self.logs.read().get(id).cloned().unwrap_or_default())
    }

    fn list_results(&self) -> Result<Vec<TaskId>, EngineError> {
        Ok(self.results.read().keys().cloned().collect())
    }

    fn put_dataset(&self, id: &str, graph: &relgraph::DirectedGraph) -> Result<(), EngineError> {
        let enc = graph_codec::encode(graph)?;
        self.datasets.write().insert(id.to_string(), enc);
        Ok(())
    }

    fn get_dataset(&self, id: &str) -> Result<Option<relgraph::DirectedGraph>, EngineError> {
        match self.datasets.read().get(id) {
            Some(enc) => Ok(Some(graph_codec::decode(enc)?)),
            None => Ok(None),
        }
    }

    fn list_datasets(&self) -> Result<Vec<String>, EngineError> {
        Ok(self.datasets.read().keys().cloned().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result(id: &TaskId) -> TaskResult {
        TaskResult {
            task_id: id.clone(),
            dataset: "ds".into(),
            algorithm: "cyclerank".into(),
            parameters: "k = 3, σ = exp".into(),
            source: Some("Fake news".into()),
            top: vec![("Fake news".into(), 1.0), ("CNN".into(), 0.5)],
            runtime_ms: 12,
            nodes: 100,
            edges: 500,
            iterations: None,
            residual: None,
            converged: None,
            residuals: None,
            cycles_found: Some(7),
        }
    }

    #[test]
    fn memory_store_roundtrip() {
        let store = MemoryStore::new();
        let id = TaskId::fresh();
        assert!(store.get_result(&id).unwrap().is_none());
        assert_eq!(store.get_log(&id).unwrap(), "");

        let result = sample_result(&id);
        store.put_result(&result).unwrap();
        let back = store.get_result(&id).unwrap().unwrap();
        assert_eq!(back.top, result.top);
        assert_eq!(back.cycles_found, Some(7));

        store.append_log(&id, "started").unwrap();
        store.append_log(&id, "finished").unwrap();
        let log = store.get_log(&id).unwrap();
        assert_eq!(log, "started\nfinished\n");

        let ids = store.list_results().unwrap();
        assert!(ids.contains(&id));

        // Dataset codec round trip.
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
        let id = TaskId::fresh();
        a.put_result(&sample_result(&id)).unwrap();
        assert!(b.get_result(&id).unwrap().is_some());
    }
}
