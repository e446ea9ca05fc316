//! Output checks: a served answer must match a fresh, cache-free
//! `relcore::Query` solve of the same spec on the same graph state, within
//! the scenario harness's residual bound (exact for CycleRank): every
//! served score, the order of the list, and which nodes made it.

use relcore::runner::Algorithm;
use relcore::Query;
use relengine::TaskSpec;
use relgraph::{DirectedGraph, NodeId};
use std::collections::HashMap;
use std::sync::Arc;

/// The largest score difference the check accepts. Iterative solves may
/// sit anywhere within their residual of the fixed point (up to the
/// ~1/(1−α) factor); CycleRank counts cycles exactly.
pub fn score_bound(spec: &TaskSpec, residual: Option<f64>) -> f64 {
    if spec.params.algorithm == Algorithm::CycleRank {
        return 1e-12;
    }
    20.0 * (residual.unwrap_or(0.0) + spec.params.tolerance) + 1e-12
}

/// Checks a served `TaskResult` body's shape against the spec it answers.
pub fn check_shape(spec: &TaskSpec, served: &serde_json::Value) -> Result<(), String> {
    if served["dataset"].as_str() != Some(spec.dataset.as_str()) {
        return Err(format!("answer names dataset {} for {}", served["dataset"], spec.dataset));
    }
    if served["algorithm"].as_str() != Some(spec.params.algorithm.id()) {
        return Err(format!(
            "answer names algorithm {} for {}",
            served["algorithm"],
            spec.params.algorithm.id()
        ));
    }
    let top = served["top"].as_array().ok_or("answer has no top list")?;
    if top.len() > spec.top_k {
        return Err(format!("answer lists {} entries for top_k {}", top.len(), spec.top_k));
    }
    Ok(())
}

fn resolve(graph: &DirectedGraph, label: &str) -> Option<NodeId> {
    graph.node_by_label(label).or_else(|| {
        let idx: usize = label.parse().ok()?;
        (idx < graph.node_count()).then(|| NodeId::from_usize(idx))
    })
}

/// Dense reference scores of a spec, computed once per (spec, graph).
#[derive(Default)]
pub struct Oracle {
    solved: HashMap<String, Option<Vec<f64>>>,
}

impl Oracle {
    fn reference(
        &mut self,
        graph: &Arc<DirectedGraph>,
        spec: &TaskSpec,
        tag: &str,
    ) -> Result<Option<&Vec<f64>>, String> {
        let mut params = spec.params;
        params.top_k = None;
        params.record_trace = false;
        let key = format!(
            "{tag}|{}",
            serde_json::to_string(&(spec.source.clone(), params)).unwrap_or_default()
        );
        if !self.solved.contains_key(&key) {
            let mut q = Query::on(Arc::clone(graph)).params(params).top(graph.node_count().max(1));
            if let Some(s) = &spec.source {
                q = q.reference(s.as_str());
            }
            let exact = q.run().map_err(|e| format!("oracle solve failed: {e}"))?;
            let scores = exact.output.scores.map(|s| graph.nodes().map(|u| s.get(u)).collect());
            self.solved.insert(key.clone(), scores);
        }
        Ok(self.solved[&key].as_ref())
    }

    /// Checks a served answer against a dense solve on `graph`; `tag`
    /// names the graph state (dataset and version) for memoization. With
    /// reference scores, each served score must be within the bound of
    /// the reference, the list must not rise by more than the bound, and
    /// no node left out may beat the smallest served score by more than
    /// the bound (when the list is shorter than asked, no node left out
    /// may score above the bound at all).
    pub fn check(
        &mut self,
        graph: &Arc<DirectedGraph>,
        tag: &str,
        spec: &TaskSpec,
        served: &serde_json::Value,
    ) -> Result<(), String> {
        check_shape(spec, served)?;
        let bound = score_bound(spec, served["residual"].as_f64());
        let top = served["top"].as_array().ok_or("answer has no top list")?;
        let reference = self.reference(graph, spec, tag)?;
        let mut seen = std::collections::HashSet::new();
        let mut previous = f64::INFINITY;
        let mut smallest = f64::INFINITY;
        let algo = spec.params.algorithm.id();
        for entry in top {
            let label = entry[0].as_str().ok_or("top entry without a label")?;
            let node = resolve(graph, label)
                .ok_or_else(|| format!("served label {label:?} is not in the graph"))?;
            if !seen.insert(node) {
                return Err(format!("label {label:?} served twice"));
            }
            if let Some(scores) = reference {
                let served_score = entry[1].as_f64().ok_or("top entry without a score")?;
                let want = scores[node.index()];
                if (served_score - want).abs() > bound {
                    return Err(format!(
                        "{algo} on {tag} from {:?}: {label:?} served {served_score}, fresh solve \
                         gives {want} (bound {bound:e})",
                        spec.source
                    ));
                }
                if served_score > previous + bound {
                    return Err(format!(
                        "{algo} on {tag} from {:?}: {label:?} served {served_score} after a \
                         smaller score {previous} (bound {bound:e})",
                        spec.source
                    ));
                }
                previous = served_score;
                smallest = smallest.min(served_score);
            }
        }
        if let Some(scores) = reference {
            let full = top.len() >= spec.top_k.min(graph.node_count());
            let floor = if full { smallest } else { 0.0 };
            let missed =
                graph.nodes().find(|u| !seen.contains(u) && scores[u.index()] > floor + bound);
            if let Some(u) = missed {
                return Err(format!(
                    "{algo} on {tag} from {:?}: {:?} scores {} in a fresh solve but was left out \
                     of a list whose smallest score is {floor} (bound {bound:e})",
                    spec.source,
                    graph.display_name(u),
                    scores[u.index()]
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relcore::runner::AlgorithmParams;

    #[test]
    fn oracle_accepts_the_engine_answer_and_rejects_a_perturbed_one() {
        let graph = Arc::new(reldata::load_dataset("fixture-enwiki-2018").unwrap());
        let spec = TaskSpec {
            dataset: "fixture-enwiki-2018".into(),
            params: AlgorithmParams::new(Algorithm::CycleRank),
            source: Some("Freddie Mercury".into()),
            top_k: 5,
        };
        let ex = relengine::Executor::new();
        let result = ex.execute(&relengine::TaskId::fresh(), &spec).unwrap();
        let mut served = serde_json::to_value(&result);
        let mut oracle = Oracle::default();
        oracle.check(&graph, "fx", &spec, &served).unwrap();
        if let serde_json::Value::Object(m) = &mut served {
            let mut top = m["top"].as_array().unwrap().clone();
            let bumped = top[1][1].as_f64().unwrap() + 1e-9;
            top[1] = serde_json::json!([top[1][0].as_str().unwrap(), bumped]);
            m.insert("top".into(), serde_json::Value::Array(top));
        }
        assert!(oracle.check(&graph, "fx", &spec, &served).is_err());
    }

    /// The engine's answer to `spec`, as served.
    fn served(spec: &TaskSpec) -> serde_json::Value {
        let ex = relengine::Executor::new();
        serde_json::to_value(&ex.execute(&relengine::TaskId::fresh(), spec).unwrap())
    }

    fn with_top(mut served: serde_json::Value, top: Vec<serde_json::Value>) -> serde_json::Value {
        if let serde_json::Value::Object(m) = &mut served {
            m.insert("top".into(), serde_json::Value::Array(top));
        }
        served
    }

    #[test]
    fn oracle_rejects_a_lower_ranked_node_or_a_reordered_list() {
        let graph = Arc::new(reldata::load_dataset("fixture-enwiki-2018").unwrap());
        let mut spec = TaskSpec {
            dataset: "fixture-enwiki-2018".into(),
            params: AlgorithmParams::new(Algorithm::PersonalizedPageRank),
            source: Some("Freddie Mercury".into()),
            top_k: 6,
        };
        let six = served(&spec)["top"].as_array().unwrap().clone();
        spec.top_k = 5;
        let five = served(&spec);
        let mut oracle = Oracle::default();
        oracle.check(&graph, "fx", &spec, &five).unwrap();
        let score = |e: &serde_json::Value| e[1].as_f64().unwrap();
        let bound = score_bound(&spec, five["residual"].as_f64());
        assert!(score(&six[4]) - score(&six[5]) > bound && score(&six[1]) - score(&six[2]) > bound);
        // The sixth node, with its true score, in place of the fifth:
        // every served score is right, but the fifth node was left out.
        let mut swapped = six[..4].to_vec();
        swapped.push(six[5].clone());
        let err = oracle.check(&graph, "fx", &spec, &with_top(five.clone(), swapped)).unwrap_err();
        assert!(err.contains("left out"), "{err}");
        // The right nodes and scores in the wrong order.
        let mut reordered = six[..5].to_vec();
        reordered.swap(1, 2);
        let err = oracle.check(&graph, "fx", &spec, &with_top(five, reordered)).unwrap_err();
        assert!(err.contains("after a smaller score"), "{err}");
    }
}
