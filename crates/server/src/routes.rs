//! Request routing: maps the REST surface onto the engine.

use crate::http::{Method, Request, Response, StatusCode};
use relengine::{BatchSpec, Scheduler, TaskId, TaskSpec};
use serde::Serialize;
use std::sync::Arc;

/// Routes one request to its handler.
pub fn route(req: &Request, engine: &Arc<Scheduler>) -> Response {
    let segments = req.segments();
    match (req.method, segments.as_slice()) {
        (Method::Get, []) => index(),
        (Method::Get, ["api", "health"]) => health(engine),
        (Method::Get, ["api", "metrics"]) => Response::json(StatusCode::Ok, &engine.metrics()),
        (Method::Get, ["api", "datasets"]) => list_datasets(engine),
        (Method::Post, ["api", "datasets"]) => upload_dataset(req, engine),
        (Method::Get, ["api", "datasets", id]) => get_dataset(id, engine),
        (Method::Get, ["api", "datasets", id, "stats"]) => dataset_stats(id, engine),
        (Method::Post, ["api", "datasets", id, "edges"]) => mutate_edges(id, req, engine, true),
        (Method::Delete, ["api", "datasets", id, "edges"]) => mutate_edges(id, req, engine, false),
        (Method::Get, ["api", "algorithms"]) => list_algorithms(),
        (Method::Post, ["api", "tasks"]) => submit_task(req, engine),
        (Method::Post, ["api", "batch"]) => submit_batch(req, engine),
        (Method::Get, ["api", "cache", "stats"]) => {
            Response::json(StatusCode::Ok, &engine.cache_stats())
        }
        (Method::Get, ["api", "tasks", id]) => task_status(id, engine),
        (Method::Get, ["api", "tasks", id, "result"]) => task_result(id, engine),
        (Method::Get, ["api", "tasks", id, "log"]) => task_log(id, engine),
        (Method::Post, ["api", "tasks", id, "cancel"]) => cancel_task(id, engine),
        (Method::Post, ["api", "query-sets"]) => submit_query_set(req, engine),
        _ => Response::error(StatusCode::NotFound, format!("no route for {}", req.path)),
    }
}

/// A minimal landing page standing in for the demo's Web UI entry point.
fn index() -> Response {
    let html = "<!doctype html>\n<html><head><title>CycleRank demo platform</title></head>\n\
        <body><h1>CycleRank demo platform</h1>\n\
        <p>Reproduction of <em>Comparing Personalized Relevance Algorithms for \
        Directed Graphs</em> (ICDE 2024).</p>\n\
        <ul>\n\
        <li>GET /api/health — liveness</li>\n\
        <li>GET /api/metrics — counts of the asynchronous tasks held \
        (past a fixed cap the earliest-finished are evicted and answer 404)</li>\n\
        <li>GET /api/datasets — the 50-dataset catalog (+ uploads)</li>\n\
        <li>POST /api/datasets — upload a graph {name?, format?, content}</li>\n\
        <li>GET /api/datasets/{id} — one catalog entry + memory/locality footprint</li>\n\
        <li>GET /api/datasets/{id}/stats — structural statistics + graph version \
        (+ journal/snapshot/image footprint when running with --data-dir)</li>\n\
        <li>POST /api/datasets/{id}/edges — insert/update edges {edges: [{source, target, weight?}]}</li>\n\
        <li>DELETE /api/datasets/{id}/edges — remove edges (same body; bumps the graph version)</li>\n\
        <li>GET /api/algorithms — registered algorithms with parameter schemas</li>\n\
        <li>POST /api/tasks — submit a task (?top_k=k for top-k-only serving; \
        ?sync=1 to run it inline and return the result in this response, \
        leaving no task to poll)</li>\n\
        <li>POST /api/batch — submit one algorithm over many seeds (one fused solve; ?top_k=k)</li>\n\
        <li>GET /api/cache/stats — result-cache hit/miss/eviction counters</li>\n\
        <li>GET /api/serving/stats — worker pool, admission queue, and load-shed counters</li>\n\
        <li>GET /api/tasks/{id} — poll status</li>\n\
        <li>GET /api/tasks/{id}/result — fetch result</li>\n\
        <li>GET /api/tasks/{id}/log — fetch log</li>\n\
        <li>POST /api/query-sets — submit a comparison</li>\n\
        </ul></body></html>\n";
    Response {
        status: StatusCode::Ok,
        content_type: "text/html; charset=utf-8",
        body: html.into(),
        headers: Vec::new(),
    }
}

/// Liveness plus storage health: reports `"degraded"` (still 200 — the
/// process is alive and reads serve) with the affected datasets when any
/// dataset's storage backend is failing.
fn health(engine: &Arc<Scheduler>) -> Response {
    #[derive(Serialize)]
    struct Health {
        status: &'static str,
        degraded_datasets: Vec<relengine::DegradedDataset>,
    }
    let degraded_datasets = engine.executor().degraded_datasets();
    let status = if degraded_datasets.is_empty() { "ok" } else { "degraded" };
    Response::json(StatusCode::Ok, &Health { status, degraded_datasets })
}

fn list_datasets(engine: &Arc<Scheduler>) -> Response {
    #[derive(Serialize)]
    struct Catalog {
        datasets: Vec<reldata::DatasetSpec>,
        uploads: Vec<String>,
    }
    // Preserve backwards compatibility: a bare array when no uploads exist.
    let uploads = engine.executor().uploaded_ids();
    if uploads.is_empty() {
        Response::json(StatusCode::Ok, &reldata::catalog())
    } else {
        Response::json(StatusCode::Ok, &Catalog { datasets: reldata::catalog(), uploads })
    }
}

/// One catalog entry, enriched with the loaded graph's footprint
/// diagnostics (node/edge counts, adjacency bytes, mean edge span) so
/// reordering and memory work is observable over the API.
fn get_dataset(id: &str, engine: &Arc<Scheduler>) -> Response {
    #[derive(Serialize)]
    struct DatasetDetail {
        id: String,
        name: String,
        kind: reldata::DatasetKind,
        description: String,
        approx_nodes: u32,
        reorder: Option<relgraph::NodeOrdering>,
        nodes: usize,
        edges: usize,
        /// Bytes used by the CSR adjacency structure.
        memory_bytes: usize,
        /// Mean |u − v| over edges — the locality figure reordering
        /// shrinks.
        mean_edge_span: f64,
    }
    let Some(s) = reldata::registry::spec(id) else {
        return Response::error(StatusCode::NotFound, format!("unknown dataset {id:?}"));
    };
    // Registry datasets are deterministic, so the footprint figures are
    // computed once per process and memoized. Reuse an already-loaded
    // graph when the executor has one, but never *pin* one for a metadata
    // read: a client sweeping the catalog would otherwise force-load and
    // permanently cache all 50 datasets. Uncached entries are measured
    // from a temporary load that is dropped after measuring.
    type Footprint = (usize, usize, usize, f64);
    static FOOTPRINTS: std::sync::OnceLock<
        std::sync::Mutex<std::collections::HashMap<String, Footprint>>,
    > = std::sync::OnceLock::new();
    let footprints = FOOTPRINTS.get_or_init(Default::default);
    let cached = footprints.lock().unwrap_or_else(|e| e.into_inner()).get(id).copied();
    let footprint = match cached {
        Some(f) => Ok(f),
        None => {
            let loaded = match engine.executor().dataset_if_cached(id) {
                Some(g) => Some(g),
                None => reldata::load_dataset(id).map(Arc::new),
            };
            match loaded {
                Some(g) => {
                    let f = (g.node_count(), g.edge_count(), g.memory_bytes(), g.mean_edge_span());
                    footprints.lock().unwrap_or_else(|e| e.into_inner()).insert(id.to_string(), f);
                    Ok(f)
                }
                None => Err(format!("dataset {id:?} failed to load")),
            }
        }
    };
    match footprint {
        Ok((nodes, edges, memory_bytes, mean_edge_span)) => Response::json(
            StatusCode::Ok,
            &DatasetDetail {
                id: s.id,
                name: s.name,
                kind: s.kind,
                description: s.description,
                approx_nodes: s.approx_nodes,
                reorder: s.reorder,
                nodes,
                edges,
                memory_bytes,
                mean_edge_span,
            },
        ),
        Err(e) => Response::error(StatusCode::InternalError, e),
    }
}

/// Uploads a user dataset: JSON `{name?, format?, content}`; the graph is
/// parsed with `relformats` (sniffing when `format` is omitted) and
/// registered under `upload-<uuid>` (or the requested `name`).
fn upload_dataset(req: &Request, engine: &Arc<Scheduler>) -> Response {
    #[derive(serde::Deserialize)]
    struct Upload {
        name: Option<String>,
        format: Option<String>,
        content: String,
    }
    #[derive(Serialize)]
    struct Uploaded {
        dataset_id: String,
        nodes: usize,
        edges: usize,
    }
    let body = match req.body_str() {
        Ok(b) => b,
        Err(e) => return Response::error(StatusCode::BadRequest, e),
    };
    let upload: Upload = match serde_json::from_str(body) {
        Ok(u) => u,
        Err(e) => return Response::error(StatusCode::BadRequest, format!("bad upload: {e}")),
    };
    let format = match upload.format.as_deref() {
        Some(f) => match f.parse::<relformats::Format>() {
            Ok(f) => Some(f),
            Err(e) => return Response::error(StatusCode::BadRequest, e),
        },
        None => None,
    };
    let graph = match relformats::load_graph_from_str(&upload.content, format) {
        Ok(g) => g,
        Err(e) => return Response::error(StatusCode::BadRequest, format!("parse failed: {e}")),
    };
    let id = upload.name.unwrap_or_else(|| format!("upload-{}", relengine::task::TaskId::fresh()));
    let (nodes, edges) = (graph.node_count(), graph.edge_count());
    match engine.register_dataset(&id, graph) {
        Ok(()) => Response::json(StatusCode::Ok, &Uploaded { dataset_id: id, nodes, edges }),
        Err(e) => Response::error(StatusCode::BadRequest, e.to_string()),
    }
}

/// Structural statistics of any loadable dataset (registry or upload),
/// plus the dataset's current graph **version** (0 until the first edge
/// mutation) so clients can detect concurrent mutation between reads.
/// When the server runs with `--data-dir`, a `persistence` object reports
/// the dataset's durable footprint: snapshot version/bytes and the
/// journal's record count, byte size, and highest durable version.
fn dataset_stats(id: &str, engine: &Arc<Scheduler>) -> Response {
    match engine.executor().dataset_versioned(id) {
        Ok((g, version)) => {
            let mut value = serde_json::to_value(&relgraph::GraphStats::compute(&g));
            if let serde_json::Value::Object(map) = &mut value {
                map.insert("version".to_string(), serde_json::Value::U64(version));
                if let Some(stats) = engine.executor().persistence_stats(id) {
                    map.insert("persistence".to_string(), serde_json::to_value(&stats));
                }
                if let Some(degraded) = engine.executor().degraded_status(id) {
                    map.insert("degraded".to_string(), serde_json::to_value(&degraded));
                }
            }
            Response::json(StatusCode::Ok, &value)
        }
        Err(e) => Response::error(StatusCode::NotFound, e.to_string()),
    }
}

/// `POST /api/datasets/{id}/edges` (insert/update) and
/// `DELETE /api/datasets/{id}/edges` (remove): body
/// `{"edges": [{"source", "target", "weight"?}, ...]}`. The batch applies
/// atomically, bumps the dataset's graph version, and invalidates every
/// cached result of the dataset — a repeated identical query after a 200
/// from here is always recomputed against the new graph.
fn mutate_edges(id: &str, req: &Request, engine: &Arc<Scheduler>, insert: bool) -> Response {
    #[derive(serde::Deserialize)]
    struct Edges {
        edges: Vec<relengine::EdgeSpec>,
    }
    let body = match req.body_str() {
        Ok(b) => b,
        Err(e) => return Response::error(StatusCode::BadRequest, e),
    };
    let edges: Edges = match serde_json::from_str(body) {
        Ok(e) => e,
        Err(e) => return Response::error(StatusCode::BadRequest, format!("bad edge batch: {e}")),
    };
    if edges.edges.is_empty() {
        return Response::error(StatusCode::BadRequest, "edge batch is empty");
    }
    const MAX_BATCH_EDGES: usize = 10_000;
    if edges.edges.len() > MAX_BATCH_EDGES {
        return Response::error(
            StatusCode::BadRequest,
            format!(
                "edge batch has {} entries; the per-request limit is {MAX_BATCH_EDGES}",
                edges.edges.len()
            ),
        );
    }
    let ops: Vec<relengine::EdgeOp> = edges
        .edges
        .into_iter()
        .map(|s| if insert { relengine::EdgeOp::Add(s) } else { relengine::EdgeOp::Remove(s) })
        .collect();
    match engine.mutate_dataset(id, &ops) {
        Ok(outcome) => Response::json(StatusCode::Ok, &outcome),
        Err(e @ relengine::EngineError::UnknownDataset(_)) => {
            Response::error(StatusCode::NotFound, e.to_string())
        }
        Err(e @ relengine::EngineError::InvalidMutation(_)) => {
            Response::error(StatusCode::BadRequest, e.to_string())
        }
        // Storage-layer failures degrade the dataset, they don't kill the
        // server: the mutation was rejected *before* any in-memory commit,
        // so the client can simply retry after the hinted delay. Reads are
        // unaffected and keep serving.
        Err(e @ relengine::EngineError::Storage(_)) => Response::unavailable(e.to_string(), 1),
        Err(relengine::EngineError::Degraded { dataset, retry_after_secs, reason }) => {
            Response::unavailable(
                format!(
                    "dataset {dataset:?} is degraded (storage failing: {reason}); \
                     mutations rejected, reads still serving"
                ),
                retry_after_secs,
            )
        }
        Err(e) => Response::error(StatusCode::InternalError, e.to_string()),
    }
}

/// `GET /api/algorithms`: every algorithm in the registry — the seven
/// paper algorithms plus any runtime registrations — with id, display
/// name, personalization requirement, score/ranking output kind, and the
/// accepted parameters as a JSON schema-ish list.
fn list_algorithms() -> Response {
    Response::json(StatusCode::Ok, &relcore::AlgorithmRegistry::global().descriptors())
}

#[derive(Serialize)]
struct Submitted {
    task_id: String,
}

/// The value of query parameter `name`, if present (`?a=1&b=2` form;
/// values are not percent-decoded — the parameters we read are numeric).
fn query_param<'a>(req: &'a Request, name: &str) -> Option<&'a str> {
    req.query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == name).then_some(v)
    })
}

/// Parses the `?top_k=` query parameter shared by `POST /api/tasks` and
/// `POST /api/batch`: `Ok(Some(k))` enables top-k-only serving mode with
/// `k` entries, `Ok(None)` means the parameter is absent.
fn top_k_param(req: &Request) -> Result<Option<usize>, Response> {
    match query_param(req, "top_k") {
        None => Ok(None),
        Some(raw) => match raw.parse::<usize>() {
            Ok(k) => Ok(Some(k)),
            Err(_) => Err(Response::error(
                StatusCode::BadRequest,
                format!("bad top_k query parameter {raw:?} (expected a non-negative integer)"),
            )),
        },
    }
}

/// Whether `?sync=1` (or `?sync=true`) requests synchronous serving:
/// the HTTP worker executes the spec itself and the response carries the
/// result instead of a task id to poll. The serving pool uses this to
/// route cold synchronous solves through the expensive admission lane.
pub(crate) fn wants_sync(req: &Request) -> bool {
    matches!(query_param(req, "sync"), Some("1") | Some("true"))
}

/// The task spec a `POST /api/tasks` request would execute, with the
/// `?top_k=` override applied — what the serving pool's lane classifier
/// inspects (cache-answerable or top-k ⇒ cheap). `None` when the body or
/// query is malformed; the route answers 400 quickly in that case, so
/// classification treats it as cheap.
pub(crate) fn effective_task_spec(req: &Request) -> Option<TaskSpec> {
    let mut spec: TaskSpec = serde_json::from_str(req.body_str().ok()?).ok()?;
    if let Ok(Some(k)) = top_k_param(req) {
        spec.top_k = k;
        spec.params.top_k = Some(k);
    }
    Some(spec)
}

fn submit_task(req: &Request, engine: &Arc<Scheduler>) -> Response {
    let body = match req.body_str() {
        Ok(b) => b,
        Err(e) => return Response::error(StatusCode::BadRequest, e),
    };
    let mut spec: TaskSpec = match serde_json::from_str(body) {
        Ok(s) => s,
        Err(e) => return Response::error(StatusCode::BadRequest, format!("bad task spec: {e}")),
    };
    // `?top_k=k` switches the task into top-k-only serving mode (pruned /
    // certified-push result paths) and trims the stored result to k.
    match top_k_param(req) {
        Ok(Some(k)) => {
            spec.top_k = k;
            spec.params.top_k = Some(k);
        }
        Ok(None) => {}
        Err(resp) => return resp,
    }
    // Personalization requirements come from the algorithm's registry
    // entry, not from enum-matching in this crate.
    let personalized = relcore::AlgorithmRegistry::global()
        .get(spec.params.algorithm.id())
        .map(|a| a.is_personalized())
        .unwrap_or(false);
    if personalized && spec.source.is_none() {
        return Response::error(StatusCode::BadRequest, "personalized algorithm requires a source");
    }
    if wants_sync(req) {
        // Executed right here, under the lane the serving pool chose: no
        // scheduler hop and no task state. The result's fresh `task_id`
        // names no pollable task.
        return match engine.executor().execute(&TaskId::fresh(), &spec) {
            Ok(result) => Response::json(StatusCode::Ok, &result),
            Err(e) => Response::error(StatusCode::BadRequest, e.to_string()),
        };
    }
    let id = engine.submit(spec);
    Response::json(StatusCode::Accepted, &Submitted { task_id: id.to_string() })
}

/// `POST /api/batch`: many seeds, one dataset, one (personalized)
/// algorithm. Body is a [`BatchSpec`]: `{dataset, params, sources,
/// top_k?}`. Seeds missing from the result cache share one multi-vector
/// solve; each seed gets its own task id to poll.
fn submit_batch(req: &Request, engine: &Arc<Scheduler>) -> Response {
    #[derive(Serialize)]
    struct BatchSubmitted {
        task_ids: Vec<String>,
    }
    let body = match req.body_str() {
        Ok(b) => b,
        Err(e) => return Response::error(StatusCode::BadRequest, e),
    };
    let mut spec: BatchSpec = match serde_json::from_str(body) {
        Ok(s) => s,
        Err(e) => return Response::error(StatusCode::BadRequest, format!("bad batch spec: {e}")),
    };
    match top_k_param(req) {
        Ok(Some(k)) => {
            spec.top_k = k;
            spec.params.top_k = Some(k);
        }
        Ok(None) => {}
        Err(resp) => return resp,
    }
    if spec.sources.is_empty() {
        return Response::error(StatusCode::BadRequest, "batch has no sources");
    }
    // One request fans out to one task per seed; bound the fan-out so a
    // single POST cannot flood the queue (split larger seed sets into
    // several requests).
    const MAX_BATCH_SOURCES: usize = 1024;
    if spec.sources.len() > MAX_BATCH_SOURCES {
        return Response::error(
            StatusCode::BadRequest,
            format!(
                "batch has {} sources; the per-request limit is {MAX_BATCH_SOURCES}",
                spec.sources.len()
            ),
        );
    }
    // Batches personalize per seed; global algorithms have nothing to
    // batch over.
    let personalized = relcore::AlgorithmRegistry::global()
        .get(spec.params.algorithm.id())
        .map(|a| a.is_personalized())
        .unwrap_or(false);
    if !personalized {
        return Response::error(
            StatusCode::BadRequest,
            "batch queries require a personalized algorithm (each seed is one personalization)",
        );
    }
    let ids = engine.submit_batch(spec);
    Response::json(
        StatusCode::Accepted,
        &BatchSubmitted { task_ids: ids.into_iter().map(|i| i.to_string()).collect() },
    )
}

fn submit_query_set(req: &Request, engine: &Arc<Scheduler>) -> Response {
    #[derive(Serialize)]
    struct QuerySetSubmitted {
        query_set_id: String,
        task_ids: Vec<String>,
    }
    let body = match req.body_str() {
        Ok(b) => b,
        Err(e) => return Response::error(StatusCode::BadRequest, e),
    };
    let specs: Vec<TaskSpec> = match serde_json::from_str(body) {
        Ok(s) => s,
        Err(e) => return Response::error(StatusCode::BadRequest, format!("bad query set: {e}")),
    };
    if specs.is_empty() {
        return Response::error(StatusCode::BadRequest, "query set is empty");
    }
    let mut qs = relengine::QuerySet::new();
    for s in specs {
        qs.add(s);
    }
    let ids = engine.submit_query_set(&qs);
    Response::json(
        StatusCode::Accepted,
        &QuerySetSubmitted {
            query_set_id: qs.id,
            task_ids: ids.into_iter().map(|i| i.to_string()).collect(),
        },
    )
}

/// Cancels a queued task; running/terminal tasks report `canceled: false`.
fn cancel_task(id: &str, engine: &Arc<Scheduler>) -> Response {
    #[derive(Serialize)]
    struct Canceled {
        canceled: bool,
    }
    let tid = TaskId(id.to_string());
    if engine.board().get(&tid).is_none() {
        return Response::error(StatusCode::NotFound, format!("unknown task {id:?}"));
    }
    Response::json(StatusCode::Ok, &Canceled { canceled: engine.cancel(&tid) })
}

fn task_status(id: &str, engine: &Arc<Scheduler>) -> Response {
    match engine.board().get(&TaskId(id.to_string())) {
        Some(record) => Response::json(StatusCode::Ok, &record),
        None => Response::error(StatusCode::NotFound, format!("unknown task {id:?}")),
    }
}

fn task_result(id: &str, engine: &Arc<Scheduler>) -> Response {
    match engine.board().result(&TaskId(id.to_string())) {
        Some(Some(result)) => Response::json(StatusCode::Ok, &result),
        Some(None) => Response::error(StatusCode::NotFound, "result not ready"),
        None => Response::error(StatusCode::NotFound, format!("unknown task {id:?}")),
    }
}

fn task_log(id: &str, engine: &Arc<Scheduler>) -> Response {
    match engine.board().log(&TaskId(id.to_string())) {
        Some(log) => Response::text(StatusCode::Ok, log),
        None => Response::error(StatusCode::NotFound, format!("unknown task {id:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn engine() -> Arc<Scheduler> {
        Arc::new(Scheduler::builder().workers(1).build())
    }

    /// A request for `path`, which may carry a `?query`.
    fn get(path: &str) -> Request {
        let (path, query) = path.split_once('?').unwrap_or((path, ""));
        Request {
            method: Method::Get,
            path: path.to_string(),
            query: query.to_string(),
            headers: HashMap::new(),
            body: Vec::new(),
        }
    }

    fn post(path: &str, body: &str) -> Request {
        Request { method: Method::Post, body: body.as_bytes().to_vec(), ..get(path) }
    }

    fn body_str(r: &Response) -> String {
        String::from_utf8(r.body.clone()).unwrap()
    }

    fn json(r: &Response) -> serde_json::Value {
        serde_json::from_slice(&r.body).unwrap()
    }

    /// Submits an asynchronous task and waits for it through the engine;
    /// returns the task id.
    fn run_async(e: &Arc<Scheduler>, req: Request) -> String {
        let r = route(&req, e);
        assert_eq!(r.status, StatusCode::Accepted, "{}", body_str(&r));
        let id = json(&r)["task_id"].as_str().unwrap().to_string();
        e.wait(&TaskId(id.clone()), std::time::Duration::from_secs(60)).unwrap();
        id
    }

    #[test]
    fn index_page_served() {
        let r = route(&get("/"), &engine());
        assert_eq!(r.status, StatusCode::Ok);
        assert_eq!(r.content_type, "text/html; charset=utf-8");
        assert!(body_str(&r).contains("CycleRank"));
    }

    #[test]
    fn metrics_endpoint() {
        let e = engine();
        let r = route(&get("/api/metrics"), &e);
        assert_eq!(r.status, StatusCode::Ok);
        assert!(body_str(&r).contains("completed"));
    }

    #[test]
    fn health_ok() {
        let r = route(&get("/api/health"), &engine());
        assert_eq!(r.status, StatusCode::Ok);
        assert!(body_str(&r).contains("ok"));
    }

    #[test]
    fn datasets_catalog_has_fifty() {
        let r = route(&get("/api/datasets"), &engine());
        let v: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(v.as_array().unwrap().len(), 50);
    }

    #[test]
    fn dataset_lookup() {
        let e = engine();
        let r = route(&get("/api/datasets/fixture-fakenews-pl"), &e);
        assert_eq!(r.status, StatusCode::Ok);
        let v: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(v["id"], "fixture-fakenews-pl");
        assert!(v["memory_bytes"].as_u64().unwrap() > 0, "{v}");
        assert!(v["nodes"].as_u64().unwrap() > 0);
        assert!(v["edges"].as_u64().unwrap() > 0);
        assert!(v["mean_edge_span"].as_f64().unwrap() > 0.0);
        assert!(v["reorder"].is_null(), "fixtures keep generation order");
        assert_eq!(route(&get("/api/datasets/nope"), &e).status, StatusCode::NotFound);
    }

    #[test]
    fn precision_flows_through_task_submission() {
        let e = engine();
        let spec = r#"{
            "dataset": "fixture-fakenews-pl",
            "params": {"algorithm": "page_rank", "precision": "f32"},
            "top_k": 3
        }"#;
        let r = route(&post("/api/tasks?sync=1", spec), &e);
        assert_eq!(r.status, StatusCode::Ok, "{}", body_str(&r));
        assert_eq!(json(&r)["top"].as_array().unwrap().len(), 3);
    }

    #[test]
    fn top_k_query_param_switches_serving_mode() {
        let e = engine();
        let spec = r#"{
            "dataset": "fixture-enwiki-2018",
            "params": {"algorithm": "personalized_page_rank"},
            "source": "Freddie Mercury",
            "top_k": 100
        }"#;
        let id = run_async(&e, post("/api/tasks?top_k=4", spec));
        let v = json(&route(&get(&format!("/api/tasks/{id}/result")), &e));
        assert_eq!(v["top"].as_array().unwrap().len(), 4, "?top_k=4 trims the result");

        // Malformed top_k is rejected up front.
        let bad = post("/api/tasks?top_k=lots", spec);
        assert_eq!(route(&bad, &e).status, StatusCode::BadRequest);
    }

    #[test]
    fn algorithms_listing() {
        let r = route(&get("/api/algorithms"), &engine());
        let v: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        let algos = v.as_array().unwrap();
        assert!(algos.len() >= 7, "registry lists at least the paper's seven");
        assert!(body_str(&r).contains("cyclerank"));
        // Registry-backed listing carries parameter schemas.
        let cr = algos.iter().find(|a| a["id"] == "cyclerank").unwrap();
        assert_eq!(cr["personalized"], true);
        assert!(cr["parameters"].as_array().unwrap().iter().any(|p| p["name"] == "max_cycle_len"));
        let pr = algos.iter().find(|a| a["id"] == "pagerank").unwrap();
        assert_eq!(pr["produces_scores"], true);
        assert!(pr["parameters"].as_array().unwrap().iter().any(|p| p["name"] == "damping"));
    }

    #[test]
    fn submit_and_poll_task() {
        let e = engine();
        let spec = r#"{
            "dataset": "fixture-fakenews-it",
            "params": {"algorithm": "cycle_rank", "max_cycle_len": 3},
            "source": "Fake news",
            "top_k": 5
        }"#;
        // Wait for completion through the engine, then fetch over routes.
        let id = run_async(&e, post("/api/tasks", spec));
        let status = route(&get(&format!("/api/tasks/{id}")), &e);
        assert!(body_str(&status).contains("completed"));
        let result = route(&get(&format!("/api/tasks/{id}/result")), &e);
        assert_eq!(result.status, StatusCode::Ok);
        assert!(body_str(&result).contains("Disinformazione"));
        let log = route(&get(&format!("/api/tasks/{id}/log")), &e);
        assert!(body_str(&log).contains("done"));
    }

    #[test]
    fn result_payload_exposes_convergence_data() {
        let e = engine();
        // A PageRank-family task with a residual trace requested.
        let spec = r#"{
            "dataset": "fixture-fakenews-pl",
            "params": {"algorithm": "page_rank", "record_trace": true, "threads": 2},
            "source": null,
            "top_k": 3
        }"#;
        let id = run_async(&e, post("/api/tasks", spec));

        // The result payload carries residual, converged flag, and the
        // requested per-iteration trace.
        let result = route(&get(&format!("/api/tasks/{id}/result")), &e);
        let v: serde_json::Value = serde_json::from_slice(&result.body).unwrap();
        assert_eq!(v["converged"], true);
        assert!(v["residual"].as_f64().unwrap() < 1e-9);
        let residuals = v["residuals"].as_array().unwrap();
        assert_eq!(residuals.len() as u64, v["iterations"].as_u64().unwrap());

        // The status payload carries the solve's progress record.
        let status = route(&get(&format!("/api/tasks/{id}")), &e);
        let v: serde_json::Value = serde_json::from_slice(&status.body).unwrap();
        assert_eq!(v["progress"]["converged"], true);
        assert!(v["progress"]["residual"].as_f64().unwrap() < 1e-9);
        assert!(v["progress"]["iterations"].as_u64().unwrap() > 0);
    }

    #[test]
    fn submit_rejects_bad_specs() {
        let e = engine();
        assert_eq!(route(&post("/api/tasks", "not json"), &e).status, StatusCode::BadRequest);
        // Personalized without source.
        let spec = r#"{"dataset": "x", "params": {"algorithm": "cycle_rank"}, "source": null}"#;
        assert_eq!(route(&post("/api/tasks", spec), &e).status, StatusCode::BadRequest);
    }

    #[test]
    fn batch_submission_and_cache_stats() {
        let e = engine();
        let body = r#"{
            "dataset": "fixture-enwiki-2018",
            "params": {"algorithm": "personalized_page_rank"},
            "sources": ["Freddie Mercury", "Queen (band)", "Brian May"],
            "top_k": 5
        }"#;
        let r = route(&post("/api/batch", body), &e);
        assert_eq!(r.status, StatusCode::Accepted, "{}", body_str(&r));
        let v: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        let ids: Vec<String> = v["task_ids"]
            .as_array()
            .unwrap()
            .iter()
            .map(|i| i.as_str().unwrap().to_string())
            .collect();
        assert_eq!(ids.len(), 3);
        for id in &ids {
            e.wait(&TaskId(id.clone()), std::time::Duration::from_secs(60)).unwrap();
        }
        // Per-seed results are ordinary task results.
        let result = route(&get(&format!("/api/tasks/{}/result", ids[1])), &e);
        assert_eq!(result.status, StatusCode::Ok);
        assert!(body_str(&result).contains("Queen (band)"));

        // A repeated batch is served from the result cache, observable via
        // GET /api/cache/stats.
        let before: serde_json::Value =
            serde_json::from_slice(&route(&get("/api/cache/stats"), &e).body).unwrap();
        let r = route(&post("/api/batch", body), &e);
        let v: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        for id in v["task_ids"].as_array().unwrap() {
            e.wait(&TaskId(id.as_str().unwrap().to_string()), std::time::Duration::from_secs(60))
                .unwrap();
        }
        let after: serde_json::Value =
            serde_json::from_slice(&route(&get("/api/cache/stats"), &e).body).unwrap();
        assert_eq!(
            after["hits"].as_u64().unwrap(),
            before["hits"].as_u64().unwrap() + 3,
            "before {before}, after {after}"
        );
        assert!(after["capacity"].as_u64().unwrap() > 0);
    }

    #[test]
    fn batch_submission_rejections() {
        let e = engine();
        assert_eq!(route(&post("/api/batch", "nope"), &e).status, StatusCode::BadRequest);
        // Empty seed list.
        let body =
            r#"{"dataset": "d", "params": {"algorithm": "personalized_page_rank"}, "sources": []}"#;
        assert_eq!(route(&post("/api/batch", body), &e).status, StatusCode::BadRequest);
        // Global algorithms are not batchable.
        let body = r#"{"dataset": "d", "params": {"algorithm": "page_rank"}, "sources": ["x"]}"#;
        let r = route(&post("/api/batch", body), &e);
        assert_eq!(r.status, StatusCode::BadRequest);
        assert!(body_str(&r).contains("personalized"));
        // Oversized seed sets are rejected, not queued.
        let sources = (0..1025).map(|i| format!("\"s{i}\"")).collect::<Vec<_>>().join(",");
        let body = format!(
            r#"{{"dataset": "d", "params": {{"algorithm": "personalized_page_rank"}}, "sources": [{sources}]}}"#
        );
        let r = route(&post("/api/batch", &body), &e);
        assert_eq!(r.status, StatusCode::BadRequest);
        assert!(body_str(&r).contains("limit"), "{}", body_str(&r));
    }

    #[test]
    fn query_set_submission() {
        let e = engine();
        let body = r#"[
            {"dataset": "fixture-fakenews-pl", "params": {"algorithm": "page_rank"}, "source": null, "top_k": 3},
            {"dataset": "fixture-fakenews-pl", "params": {"algorithm": "cycle_rank"}, "source": "Fake news", "top_k": 3}
        ]"#;
        let r = route(&post("/api/query-sets", body), &e);
        assert_eq!(r.status, StatusCode::Accepted);
        let v: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(v["task_ids"].as_array().unwrap().len(), 2);
        assert!(v["query_set_id"].as_str().unwrap().len() > 10);

        let empty = route(&post("/api/query-sets", "[]"), &e);
        assert_eq!(empty.status, StatusCode::BadRequest);
    }

    #[test]
    fn upload_then_query_roundtrip() {
        let e = engine();
        // Upload a Pajek graph with labels.
        let content = "*Vertices 2\n1 \"me\"\n2 \"friend\"\n*Arcs\n1 2\n2 1\n";
        let body = serde_json::json!({"name": "my-net", "content": content}).to_string();
        let r = route(&post("/api/datasets", &body), &e);
        assert_eq!(r.status, StatusCode::Ok, "{}", body_str(&r));
        let v: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(v["dataset_id"], "my-net");
        assert_eq!(v["nodes"], 2);

        // Uploads appear in the catalog listing.
        let listing = route(&get("/api/datasets"), &e);
        assert!(body_str(&listing).contains("my-net"));

        // Stats endpoint works for the upload.
        let stats = route(&get("/api/datasets/my-net/stats"), &e);
        assert_eq!(stats.status, StatusCode::Ok);
        assert!(body_str(&stats).contains("reciprocity"));

        // And tasks can run against it.
        let spec = r#"{
            "dataset": "my-net",
            "params": {"algorithm": "cycle_rank"},
            "source": "me",
            "top_k": 2
        }"#;
        let id = run_async(&e, post("/api/tasks", spec));
        let result = route(&get(&format!("/api/tasks/{id}/result")), &e);
        assert!(body_str(&result).contains("friend"));
    }

    #[test]
    fn upload_rejections() {
        let e = engine();
        assert_eq!(route(&post("/api/datasets", "nope"), &e).status, StatusCode::BadRequest);
        // Unparseable graph content.
        let body = serde_json::json!({"content": "*Vertices x"}).to_string();
        assert_eq!(route(&post("/api/datasets", &body), &e).status, StatusCode::BadRequest);
        // Bad format name.
        let body = serde_json::json!({"format": "doc", "content": "0,1"}).to_string();
        assert_eq!(route(&post("/api/datasets", &body), &e).status, StatusCode::BadRequest);
        // Collision with a registry id.
        let body = serde_json::json!({"name": "wiki-en-2018", "content": "0,1\n"}).to_string();
        assert_eq!(route(&post("/api/datasets", &body), &e).status, StatusCode::BadRequest);
    }

    fn delete(path: &str, body: &str) -> Request {
        Request { method: Method::Delete, ..post(path, body) }
    }

    /// The acceptance scenario: after `POST /api/datasets/{id}/edges`, a
    /// repeated identical query is recomputed (cache miss on the new
    /// graph version) and reflects the mutated graph.
    #[test]
    fn edge_mutation_invalidates_cached_results() {
        let e = engine();
        let content = "*Vertices 3\n1 \"seed\"\n2 \"a\"\n3 \"b\"\n*Arcs\n1 2\n2 1\n1 3\n";
        let body = serde_json::json!({"name": "dyn-net", "content": content}).to_string();
        assert_eq!(route(&post("/api/datasets", &body), &e).status, StatusCode::Ok);

        let spec = r#"{
            "dataset": "dyn-net",
            "params": {"algorithm": "personalized_page_rank"},
            "source": "seed",
            "top_k": 3
        }"#;
        let run = |e: &Arc<Scheduler>| -> serde_json::Value {
            let id = run_async(e, post("/api/tasks", spec));
            json(&route(&get(&format!("/api/tasks/{id}/result")), e))
        };
        let score = |v: &serde_json::Value, label: &str| -> f64 {
            v["top"]
                .as_array()
                .unwrap()
                .iter()
                .find(|pair| pair[0] == *label)
                .map(|pair| pair[1].as_f64().unwrap())
                .unwrap()
        };
        let before = run(&e);
        run(&e); // warm the cache
        let hits_before = e.cache_stats().hits;
        assert!(hits_before >= 1, "second identical task must hit the cache");

        // Stats report version 0 pre-mutation.
        let stats: serde_json::Value =
            serde_json::from_slice(&route(&get("/api/datasets/dyn-net/stats"), &e).body).unwrap();
        assert_eq!(stats["version"].as_u64(), Some(0));
        assert!(stats["nodes"].as_u64().unwrap() > 0);

        // Mutate: a -> b raises b's score.
        let batch = r#"{"edges": [{"source": "a", "target": "b"}]}"#;
        let r = route(&post("/api/datasets/dyn-net/edges", batch), &e);
        assert_eq!(r.status, StatusCode::Ok, "{}", body_str(&r));
        let outcome: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(outcome["version"].as_u64(), Some(1));
        assert_eq!(outcome["applied"].as_u64(), Some(1));

        let stats: serde_json::Value =
            serde_json::from_slice(&route(&get("/api/datasets/dyn-net/stats"), &e).body).unwrap();
        assert_eq!(stats["version"].as_u64(), Some(1), "stats must report the new version");

        // Recomputed, not served stale.
        let after = run(&e);
        assert_eq!(e.cache_stats().hits, hits_before, "mutated dataset must not hit stale cache");
        assert!(
            score(&after, "b") > score(&before, "b"),
            "recomputed result must reflect the new edge: {after} vs {before}"
        );

        // DELETE reverts the edge; the next run is recomputed again and
        // matches the original scores.
        let r = route(&delete("/api/datasets/dyn-net/edges", batch), &e);
        assert_eq!(r.status, StatusCode::Ok, "{}", body_str(&r));
        let outcome: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(outcome["version"].as_u64(), Some(2));
        let reverted = run(&e);
        assert!((score(&reverted, "b") - score(&before, "b")).abs() < 1e-12);
    }

    #[test]
    fn edge_mutation_rejections() {
        let e = engine();
        // Unknown dataset: 404.
        let batch = r#"{"edges": [{"source": "a", "target": "b"}]}"#;
        assert_eq!(
            route(&post("/api/datasets/ghost/edges", batch), &e).status,
            StatusCode::NotFound
        );
        // Bad JSON / empty batch: 400.
        assert_eq!(
            route(&post("/api/datasets/fixture-fakenews-it/edges", "nope"), &e).status,
            StatusCode::BadRequest
        );
        assert_eq!(
            route(&post("/api/datasets/fixture-fakenews-it/edges", r#"{"edges": []}"#), &e).status,
            StatusCode::BadRequest
        );
        // Removal of an unresolvable endpoint: 400 (removals never create).
        let r = route(
            &delete(
                "/api/datasets/fixture-fakenews-it/edges",
                r#"{"edges": [{"source": "No Such Node", "target": "Fake news"}]}"#,
            ),
            &e,
        );
        assert_eq!(r.status, StatusCode::BadRequest, "{}", body_str(&r));
        // Removing an absent (but resolvable) edge is an accepted no-op:
        // nothing applied, version unmoved.
        let r = route(
            &delete(
                "/api/datasets/fixture-fakenews-it/edges",
                r#"{"edges": [{"source": "Pizzagate", "target": "Pizzagate"}]}"#,
            ),
            &e,
        );
        if r.status == StatusCode::Ok {
            let outcome: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
            assert_eq!(outcome["applied"].as_u64(), Some(0));
            assert_eq!(outcome["version"].as_u64(), Some(0));
        }
        // Oversized batches are rejected.
        let edges: Vec<String> =
            (0..10_001).map(|i| format!(r#"{{"source": "s{i}", "target": "t{i}"}}"#)).collect();
        let body = format!(r#"{{"edges": [{}]}}"#, edges.join(","));
        assert_eq!(
            route(&post("/api/datasets/fixture-fakenews-it/edges", &body), &e).status,
            StatusCode::BadRequest
        );
    }

    #[test]
    fn cancel_endpoint() {
        let e = engine();
        // Unknown task: 404.
        assert_eq!(route(&post("/api/tasks/ghost/cancel", ""), &e).status, StatusCode::NotFound);
        // Submit then cancel (may or may not win the race with the worker;
        // the response is well-formed either way).
        let spec = r#"{
            "dataset": "fixture-fakenews-de",
            "params": {"algorithm": "cycle_rank"},
            "source": "Fake News",
            "top_k": 3
        }"#;
        let r = route(&post("/api/tasks", spec), &e);
        let id = serde_json::from_slice::<serde_json::Value>(&r.body).unwrap()["task_id"]
            .as_str()
            .unwrap()
            .to_string();
        let r = route(&post(&format!("/api/tasks/{id}/cancel"), ""), &e);
        assert_eq!(r.status, StatusCode::Ok);
        let v: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert!(v["canceled"].is_boolean());
    }

    #[test]
    fn dataset_stats_for_registry_entry() {
        let e = engine();
        let r = route(&get("/api/datasets/fixture-fakenews-pl/stats"), &e);
        assert_eq!(r.status, StatusCode::Ok);
        assert!(body_str(&r).contains("nodes"));
        let r = route(&get("/api/datasets/ghost/stats"), &e);
        assert_eq!(r.status, StatusCode::NotFound);
    }

    #[test]
    fn dataset_stats_reports_persistence_footprint_with_data_dir() {
        let dir = std::env::temp_dir().join(format!(
            "relserver-stats-{}-{}",
            std::process::id(),
            rand_suffix()
        ));
        let e = Arc::new(Scheduler::builder().workers(1).data_dir(&dir).build());
        let mut b = relgraph::GraphBuilder::new();
        b.add_labeled_edge("x", "y");
        e.register_dataset("durable-net", b.build()).unwrap();
        // Without --data-dir the stats payload has no persistence object.
        let plain = engine();
        let mut b = relgraph::GraphBuilder::new();
        b.add_labeled_edge("x", "y");
        plain.register_dataset("durable-net", b.build()).unwrap();
        let v: serde_json::Value =
            serde_json::from_slice(&route(&get("/api/datasets/durable-net/stats"), &plain).body)
                .unwrap();
        assert!(v.get("persistence").is_none());

        let body = r#"{"edges": [{"source": "y", "target": "z", "weight": 2.0}]}"#;
        assert_eq!(
            route(&post("/api/datasets/durable-net/edges", body), &e).status,
            StatusCode::Ok
        );
        let v: serde_json::Value =
            serde_json::from_slice(&route(&get("/api/datasets/durable-net/stats"), &e).body)
                .unwrap();
        let p = &v["persistence"];
        assert_eq!(p["snapshot_version"].as_u64(), Some(0));
        assert_eq!(p["journal_records"].as_u64(), Some(1));
        // The batch created a node and an edge, so the durable version
        // matches whatever the live graph reports.
        assert_eq!(p["last_version"].as_u64(), v["version"].as_u64());
        assert!(p["journal_bytes"].as_u64().unwrap() > 0);
        assert!(p["snapshot_bytes"].as_u64().unwrap() > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn rand_suffix() -> u64 {
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().subsec_nanos()
            as u64
    }

    /// The degradation acceptance path over HTTP: an injected storage
    /// fault turns mutation routes into typed `503 + Retry-After`
    /// responses while reads — stats, health, queries — keep serving;
    /// health reports the degraded dataset; recovery clears it.
    #[test]
    fn degraded_storage_maps_to_503_while_reads_serve() {
        let dir = std::env::temp_dir().join(format!(
            "relserver-degraded-{}-{}",
            std::process::id(),
            rand::random::<u64>()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let inj = relstore::FaultInjector::default();
        let store = relstore::DatasetStore::open_with_vfs(&dir, Arc::new(inj.clone())).unwrap();
        let e = Arc::new(
            Scheduler::builder()
                .workers(1)
                .persistence(Arc::new(relengine::GraphPersistence::with_store(store)))
                .build(),
        );
        let content = "*Vertices 3\n1 \"seed\"\n2 \"a\"\n3 \"b\"\n*Arcs\n1 2\n2 3\n3 1\n";
        let body = serde_json::json!({"name": "frail-net", "content": content}).to_string();
        assert_eq!(route(&post("/api/datasets", &body), &e).status, StatusCode::Ok);

        // Healthy first: one mutation lands. The backoff is shortened so
        // the recovery probe at the end of the test fires quickly, but
        // kept long enough that the retry below still fast-rejects.
        e.executor().set_degraded_backoff(std::time::Duration::from_millis(200));
        let batch = r#"{"edges": [{"source": "a", "target": "b"}]}"#;
        assert_eq!(route(&post("/api/datasets/frail-net/edges", batch), &e).status, StatusCode::Ok);

        // Fail the next journal append's fsync: the mutation route answers
        // a typed 503 with a Retry-After hint.
        inj.arm(relstore::FaultPlan::one(3, relstore::FaultKind::FailSync));
        let batch2 = r#"{"edges": [{"source": "b", "target": "a"}]}"#;
        let r = route(&post("/api/datasets/frail-net/edges", batch2), &e);
        assert_eq!(r.status, StatusCode::ServiceUnavailable, "{}", body_str(&r));
        let v: serde_json::Value = serde_json::from_slice(&r.body).unwrap();
        assert_eq!(v["degraded"], true);
        assert!(v["retry_after_secs"].as_u64().unwrap() >= 1, "{v}");
        assert!(r.headers.iter().any(|(k, _)| *k == "retry-after"), "{:?}", r.headers);

        // A retry inside the backoff window fast-rejects with 503 too.
        let r = route(&post("/api/datasets/frail-net/edges", batch2), &e);
        assert_eq!(r.status, StatusCode::ServiceUnavailable);

        // Reads keep serving: stats (with the degraded object), health
        // (flipped to "degraded" with the dataset listed), and a query.
        let stats = route(&get("/api/datasets/frail-net/stats"), &e);
        assert_eq!(stats.status, StatusCode::Ok);
        let sv: serde_json::Value = serde_json::from_slice(&stats.body).unwrap();
        assert_eq!(sv["degraded"]["dataset"], "frail-net");
        assert!(sv["degraded"]["failures"].as_u64().unwrap() >= 1);
        let h = route(&get("/api/health"), &e);
        assert_eq!(h.status, StatusCode::Ok);
        let hv: serde_json::Value = serde_json::from_slice(&h.body).unwrap();
        assert_eq!(hv["status"], "degraded");
        assert_eq!(hv["degraded_datasets"][0]["dataset"], "frail-net");
        let spec = r#"{
            "dataset": "frail-net",
            "params": {"algorithm": "personalized_page_rank"},
            "source": "seed",
            "top_k": 3
        }"#;
        let r = route(&post("/api/tasks?sync=1", spec), &e);
        assert_eq!(r.status, StatusCode::Ok, "reads serve while degraded");

        // After the backoff elapses the probe mutation succeeds and
        // health recovers.
        std::thread::sleep(std::time::Duration::from_millis(250));
        let r = route(&post("/api/datasets/frail-net/edges", batch2), &e);
        assert_eq!(r.status, StatusCode::Ok, "{}", body_str(&r));
        let hv: serde_json::Value =
            serde_json::from_slice(&route(&get("/api/health"), &e).body).unwrap();
        assert_eq!(hv["status"], "ok");
        assert!(hv["degraded_datasets"].as_array().unwrap().is_empty(), "{hv}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_answer_equals_async_answer() {
        // Cache off, so both paths really solve.
        let e = Arc::new(Scheduler::builder().workers(1).cache_capacity(0).build());
        let ppr = r#"{"dataset": "fixture-enwiki-2018",
            "params": {"algorithm": "personalized_page_rank"},
            "source": "Freddie Mercury", "top_k": 10}"#;
        let cyclerank = r#"{"dataset": "fixture-fakenews-it",
            "params": {"algorithm": "cycle_rank", "max_cycle_len": 3},
            "source": "Fake news", "top_k": 5}"#;
        for (spec, query) in [(ppr, ""), (cyclerank, ""), (ppr, "top_k=5")] {
            let inline = route(&post(&format!("/api/tasks?sync=1&{query}"), spec), &e);
            assert_eq!(inline.status, StatusCode::Ok, "{}", body_str(&inline));
            let inline = json(&inline);
            let id = run_async(&e, post(&format!("/api/tasks?{query}"), spec));
            let queued = json(&route(&get(&format!("/api/tasks/{id}/result")), &e));
            for field in ["top", "iterations", "residual", "converged", "cycles_found"] {
                assert_eq!(inline[field], queued[field], "{field} of {spec} ?{query}");
            }
            assert_ne!(inline["task_id"], queued["task_id"]);
        }
    }

    #[test]
    fn sync_requests_leave_no_task_state() {
        let e = engine();
        let spec = r#"{"dataset": "fixture-fakenews-pl",
            "params": {"algorithm": "personalized_page_rank"}, "source": "Fake news", "top_k": 3}"#;
        for query in ["sync=1", "sync=1", "sync=true", "sync=1&top_k=2"] {
            let r = route(&post(&format!("/api/tasks?{query}"), spec), &e);
            assert_eq!(r.status, StatusCode::Ok, "{}", body_str(&r));
            // The answer's task id names no pollable task.
            let id = json(&r)["task_id"].as_str().unwrap().to_string();
            assert_eq!(route(&get(&format!("/api/tasks/{id}")), &e).status, StatusCode::NotFound);
        }
        // A solve error is a 400, and leaves nothing behind either.
        let bad = r#"{"dataset": "fixture-fakenews-pl",
            "params": {"algorithm": "cycle_rank"}, "source": "No Such Page"}"#;
        let r = route(&post("/api/tasks?sync=1", bad), &e);
        assert_eq!(r.status, StatusCode::BadRequest, "{}", body_str(&r));
        assert!(e.board().is_empty());
        assert_eq!(json(&route(&get("/api/metrics"), &e))["total"], 0);
    }

    #[test]
    fn task_status_payload_keys_unchanged() {
        let e = engine();
        let spec = r#"{"dataset": "fixture-fakenews-pl",
            "params": {"algorithm": "page_rank"}, "top_k": 3}"#;
        let id = run_async(&e, post("/api/tasks", spec));
        let status = json(&route(&get(&format!("/api/tasks/{id}")), &e));
        let mut keys: Vec<&str> = status.as_object().unwrap().keys().map(String::as_str).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            ["finished_at_ms", "id", "progress", "spec", "state", "submitted_at_ms"],
            "the result and log stay off the status payload"
        );
    }

    #[test]
    fn finished_tasks_are_capped_and_evicted_ids_answer_404() {
        let cap = relengine::status::MAX_TERMINAL_TASKS;
        let e = engine();
        let spec = r#"{"dataset": "fixture-fakenews-pl",
            "params": {"algorithm": "page_rank"}, "top_k": 1}"#;
        let ids: Vec<String> = (0..cap + 16)
            .map(|_| {
                json(&route(&post("/api/tasks", spec), &e))["task_id"].as_str().unwrap().into()
            })
            .collect();
        // One worker runs tasks in submission order, so the last one
        // finishing means every task has.
        e.wait(&TaskId(ids[cap + 15].clone()), std::time::Duration::from_secs(60)).unwrap();
        assert!(e.board().len() <= cap, "{} tasks retained", e.board().len());
        let total = json(&route(&get("/api/metrics"), &e))["total"].as_u64().unwrap();
        assert!(total as usize <= cap, "/api/metrics total {total}");
        for path in ["", "/result", "/log"] {
            let r = route(&get(&format!("/api/tasks/{}{path}", ids[0])), &e);
            assert_eq!(r.status, StatusCode::NotFound, "evicted task{path}");
        }
        let r = route(&get(&format!("/api/tasks/{}/result", ids[cap + 15])), &e);
        assert_eq!(r.status, StatusCode::Ok);
    }

    #[test]
    fn unknown_routes_and_tasks_404() {
        let e = engine();
        assert_eq!(route(&get("/nope"), &e).status, StatusCode::NotFound);
        assert_eq!(route(&get("/api/tasks/ghost"), &e).status, StatusCode::NotFound);
        assert_eq!(route(&get("/api/tasks/ghost/result"), &e).status, StatusCode::NotFound);
        assert_eq!(route(&get("/api/tasks/ghost/log"), &e).status, StatusCode::NotFound);
    }
}
