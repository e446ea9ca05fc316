//! The traced run: the workload's request streams, generated from the
//! same seed, sent in-process through each layer's public functions with
//! a timer around every call. Nothing inside the program is instrumented,
//! so a parent's self time is its duration minus its children's, with
//! each child timed in its own call on the same state: a route handler
//! and the scheduler round trip are timed on a cache hit, right after the
//! executor did the real work.

use crate::gen::{self, ReadStream, Request, WriteStream};
use crate::stats::median;
use crate::workload::{self, HttpRun, Inputs, WorkDir, Workload};
use crate::Metric;
use relcore::runner::Algorithm;
use relcore::Query;
use relengine::{EdgeOp, EdgeSpec, Executor, GraphPersistence, Scheduler, TaskId, TaskSpec};
use relserver::http::{Request as HttpRequest, Response, StatusCode};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every per-layer metric, with its unit, in report order.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("server.http.parse_us", "us"),
    ("server.pool.classify_us", "us"),
    ("server.routes.self_us", "us"),
    ("json.decode_request_us", "us"),
    ("engine.cache.probe_us", "us"),
    ("engine.executor.execute_us", "us"),
    ("engine.scheduler.self_us", "us"),
    ("json.encode_us", "us"),
    ("server.http.write_us", "us"),
    ("core.solver.solve_us", "us"),
    ("core.solver.iterations", "count"),
    ("core.solver.ns_per_edge", "ns/edge"),
    ("core.cyclerank.solve_us", "us"),
    ("core.cyclerank.cycles", "count"),
    ("core.topk.solve_us", "us"),
    ("engine.mutation.apply_us", "us"),
    ("engine.scheduler.mutate_self_us", "us"),
    ("store.journal.append_us", "us"),
    ("store.journal.bytes_per_write", "bytes"),
    ("graph.dynamic.snapshot_us", "us"),
    ("json.decode_us", "us"),
    ("formats.parse_us", "us"),
    ("engine.executor.register_us", "us"),
    ("datasets.generate_us", "us"),
    ("engine.cache.hit_ratio", "ratio"),
    ("engine.cache.evictions", "count"),
    ("engine.cache.invalidations", "count"),
    ("server.pool.shed_count", "count"),
    ("server.pool.keepalive_reuse_ratio", "ratio"),
    ("engine.scheduler.tasks_retained", "count"),
    ("trace.unattributed_us", "us"),
    ("trace.core_share", "ratio"),
    ("trace.write_layers_share_of_write_p50", "ratio"),
    ("e2e.latency_p50_ms", "ms"),
    ("e2e.latency_p90_ms", "ms"),
    ("e2e.latency_p99_ms", "ms"),
    ("e2e.throughput_qps", "1/s"),
    ("e2e.write_p50_ms", "ms"),
    ("e2e.write_p99_ms", "ms"),
    ("e2e.within_limit_frac", "ratio"),
    ("e2e.failed_frac", "ratio"),
    ("e2e.upload_s", "s"),
];

/// Layers on a read's path whose self times add up to its latency.
const READ_PATH: [&str; 9] = [
    "server.http.parse_us",
    "server.pool.classify_us",
    "server.routes.self_us",
    "json.decode_request_us",
    "engine.cache.probe_us",
    "engine.executor.execute_us",
    "engine.scheduler.self_us",
    "json.encode_us",
    "server.http.write_us",
];

/// Per-read sum of the read path's self times (not reported on its own).
const READ_TOTAL: &str = "trace.read_path_us";

/// Layers on a write's path, `engine.scheduler.mutate_us` being the whole
/// of `Scheduler::mutate_dataset`.
const WRITE_PATH: [&str; 6] = [
    "server.http.parse_us",
    "server.pool.classify_us",
    "json.decode_request_us",
    "engine.scheduler.mutate_us",
    "json.encode_us",
    "server.http.write_us",
];

/// A parent's self time: its duration minus its children's, all in the
/// same unit.
pub fn self_time(parent: f64, children: &[f64]) -> f64 {
    parent - children.iter().sum::<f64>()
}

/// Samples per layer, in microseconds or counts.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Runs `f`, records its duration under `name`, and returns its result
    /// with the duration in microseconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let (out, us) = timed(f);
        self.add(name, us);
        (out, us)
    }

    /// Median of a layer's samples and their count (0 and 0 when the
    /// workload never reached the layer).
    pub fn median(&self, name: &str) -> (f64, usize) {
        self.0.get(name).map_or((0.0, 0), |xs| (median(xs), xs.len()))
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = black_box(f());
    (out, start.elapsed().as_secs_f64() * 1e6)
}

/// The in-process stand-in for one server: the engine the routes call,
/// and for `mutate_mix` a replica executor and a journal-only store that
/// apply the same writes, so the layers under `Scheduler::mutate_dataset`
/// can be timed one call at a time.
struct Stack {
    engine: Arc<Scheduler>,
    replica: Option<(Executor, GraphPersistence)>,
    _dirs: Vec<WorkDir>,
}

fn parse(raw: &[u8]) -> HttpRequest {
    HttpRequest::read_buffered(&mut std::io::Cursor::new(raw))
        .expect("generated requests parse")
        .expect("generated requests are not empty")
}

/// Times the upload path piece by piece and registers the graph on the
/// engine and both replicas.
fn upload(layers: &mut Layers, stack: &Stack, inputs: &Inputs) {
    #[derive(serde::Deserialize)]
    struct Upload {
        name: String,
        content: String,
    }
    let body = inputs.upload_body();
    let body = std::str::from_utf8(&body).expect("the upload body is UTF-8");
    let (up, _) = layers.time("json.decode_us", || {
        serde_json::from_str::<Upload>(body).expect("the upload body decodes")
    });
    let (graph, _) = layers.time("formats.parse_us", || {
        relformats::load_graph_from_str(&up.content, Some(relformats::Format::Pajek))
            .expect("the upload parses")
    });
    stack.engine.store().put_dataset(&up.name, &graph).expect("datastore put");
    let executor = stack.engine.executor();
    layers.time("engine.executor.register_us", || {
        executor.register_graph(&up.name, graph.clone()).expect("register the upload")
    });
    if let Some((replica, journal)) = &stack.replica {
        journal.write_snapshot(&up.name, &graph, 0).expect("journal-only snapshot");
        replica.register_graph(&up.name, graph).expect("register the replica");
    }
}

fn set_up(layers: &mut Layers, inputs: &Inputs, work: &Path) -> Stack {
    for id in inputs.workload.datasets() {
        layers.time("datasets.generate_us", || reldata::load_dataset(id));
    }
    let mut builder = Scheduler::builder().workers(workload::SOLVER_WORKERS);
    let mut dirs = Vec::new();
    let mut replica = None;
    if inputs.workload == Workload::MutateMix {
        let (a, b, c) = (
            WorkDir::new(work, "trace-a"),
            WorkDir::new(work, "trace-b"),
            WorkDir::new(work, "trace-c"),
        );
        builder = builder.data_dir(&a.0);
        let mut shadow = Executor::new();
        shadow.attach_persistence(Arc::new(
            GraphPersistence::open(&b.0).expect("open replica store"),
        ));
        replica = Some((shadow, GraphPersistence::open(&c.0).expect("open journal-only store")));
        dirs = vec![a, b, c];
    }
    let stack = Stack { engine: Arc::new(builder.build()), replica, _dirs: dirs };
    let executor = stack.engine.executor();
    match inputs.workload {
        Workload::ServeHot => {
            for spec in &inputs.hot_set {
                executor.execute(&TaskId::fresh(), spec).expect("warm-up solve");
            }
            for path in gen::hot_gets() {
                relserver::routes::route(
                    &parse(&gen::http_bytes("GET", &path, b"")),
                    &stack.engine,
                );
            }
        }
        Workload::CompareCold => {
            for id in inputs.workload.datasets() {
                executor.dataset(id).expect("catalog dataset");
            }
            for spec in gen::cold_warmup() {
                executor.execute(&TaskId::fresh(), &spec).expect("warm-up solve");
            }
        }
        Workload::MutateMix => upload(layers, &stack, inputs),
    }
    stack
}

/// The solve inside a cache miss, timed on its own: the same query
/// `Executor::execute` runs, on the same graph and solver arena.
fn core_solve(layers: &mut Layers, executor: &Executor, spec: &TaskSpec) {
    let graph = executor.dataset(&spec.dataset).expect("dataset of a served spec");
    let mut query = Query::on(Arc::clone(&graph)).params(spec.params).top(spec.top_k);
    if let Some(source) = &spec.source {
        query = query.reference(source.as_str());
    }
    let arena = executor.arena_for(&spec.dataset);
    let (out, us) = timed(|| relcore::with_arena(&arena, || query.run()));
    let Ok(out) = out else { return };
    let algo = spec.params.algorithm;
    if algo == Algorithm::CycleRank {
        layers.add("core.cyclerank.solve_us", us);
        layers.add("core.cyclerank.cycles", out.output.cycles_found.unwrap_or(0) as f64);
    } else if spec.params.top_k.is_some() && algo.is_personalized() {
        layers.add("core.topk.solve_us", us);
    } else {
        layers.add("core.solver.solve_us", us);
        if let Some(c) = out.output.convergence {
            layers.add("core.solver.iterations", c.iterations as f64);
            let sweeps = (c.iterations.max(1) * graph.edge_count().max(1)) as f64;
            layers.add("core.solver.ns_per_edge", us * 1e3 / sweeps);
        }
    }
}

/// A read through its layers; returns the response and the self times
/// it recorded, summed.
fn read(layers: &mut Layers, stack: &Stack, http: &HttpRequest, req: &Request) -> (Response, f64) {
    let engine = &stack.engine;
    let executor = engine.executor();
    let Some(wanted) = req.effective_spec() else {
        // Exploration reads: the route is the whole handler.
        return layers.time("server.routes.self_us", || relserver::routes::route(http, engine));
    };
    let (spec, decode) = layers.time("json.decode_request_us", || {
        let mut spec: TaskSpec =
            serde_json::from_str(http.body_str().expect("UTF-8 body")).expect("spec decodes");
        spec.top_k = wanted.top_k;
        spec.params.top_k = wanted.params.top_k;
        spec
    });
    let (hit, probe) = layers.time("engine.cache.probe_us", || executor.would_hit_cache(&spec));
    let (result, execute) = layers.time("engine.executor.execute_us", || {
        executor.execute(&TaskId::fresh(), &spec).expect("generated specs solve")
    });
    if !hit {
        core_solve(layers, executor, &spec);
    }
    // Now a cache hit: the route, the scheduler round trip and the bare
    // executor lookup it wraps, and the encoding.
    let (response, route) = timed(|| relserver::routes::route(http, engine));
    let (_, sched) = timed(|| {
        let id = engine.submit(spec.clone());
        engine.wait(&id, Duration::from_secs(60)).expect("scheduled spec completes")
    });
    let (_, lookup) = timed(|| executor.execute(&TaskId::fresh(), &spec));
    let (_, encode) = layers.time("json.encode_us", || Response::json(StatusCode::Ok, &result));
    let (sched_self, route_self) =
        (self_time(sched, &[lookup]), self_time(route, &[decode, sched, encode]));
    layers.add("engine.scheduler.self_us", sched_self);
    layers.add("server.routes.self_us", route_self);
    (response, decode + probe + execute + sched_self + encode + route_self)
}

fn write(layers: &mut Layers, stack: &Stack, http: &HttpRequest, req: &Request) -> Response {
    #[derive(serde::Deserialize)]
    struct Edges {
        edges: Vec<EdgeSpec>,
    }
    let engine = &stack.engine;
    let Request::Edge { dataset, add, .. } = req else { unreachable!("write takes edge requests") };
    let (ops, decode) = layers.time("json.decode_request_us", || {
        let body: Edges =
            serde_json::from_str(http.body_str().expect("UTF-8 body")).expect("edges decode");
        body.edges
            .into_iter()
            .map(|s| if *add { EdgeOp::Add(s) } else { EdgeOp::Remove(s) })
            .collect::<Vec<_>>()
    });
    let (outcome, mutate) = layers.time("engine.scheduler.mutate_us", || {
        engine.mutate_dataset(dataset, &ops).expect("generated writes apply")
    });
    let (replica, journal) = stack.replica.as_ref().expect("mutate_mix has replicas");
    let (_, apply) = layers.time("engine.mutation.apply_us", || {
        replica.mutate_dataset(dataset, &ops).expect("replica applies the write")
    });
    layers.add("engine.scheduler.mutate_self_us", self_time(mutate, &[apply]));
    layers.time("graph.dynamic.snapshot_us", || {
        replica.dataset_versioned(dataset).expect("replica dataset")
    });
    let bytes = |j: &GraphPersistence| {
        j.stats(dataset).ok().flatten().map_or(0.0, |s| s.journal_bytes as f64)
    };
    let before = bytes(journal);
    layers.time("store.journal.append_us", || {
        journal.append(dataset, outcome.version, &ops).expect("journal append")
    });
    layers.add("store.journal.bytes_per_write", bytes(journal) - before);
    // Replaying the request through the route is a no-op write, as is
    // the bare engine call it wraps.
    let (response, route) = timed(|| relserver::routes::route(http, engine));
    let (_, noop) = timed(|| engine.mutate_dataset(dataset, &ops));
    let (_, encode) = layers.time("json.encode_us", || Response::json(StatusCode::Ok, &outcome));
    layers.add("server.routes.self_us", self_time(route, &[decode, noop, encode]));
    response
}

/// One request through every layer.
fn trace_request(layers: &mut Layers, stack: &Stack, req: &Request) {
    let raw = req.raw();
    let (http, parse_us) = layers.time("server.http.parse_us", || parse(&raw));
    let (_, classify_us) =
        layers.time("server.pool.classify_us", || relserver::pool::classify(&http, &stack.engine));
    let (response, own_us) = if req.is_write() {
        (write(layers, stack, &http, req), None)
    } else {
        let (response, own_us) = read(layers, stack, &http, req);
        (response, Some(own_us))
    };
    let mut sink = Vec::with_capacity(response.body.len() + 256);
    let (_, write_us) = layers.time("server.http.write_us", || {
        response.write_conn(&mut sink, true).expect("write to memory")
    });
    if let Some(own_us) = own_us {
        layers.add(READ_TOTAL, parse_us + classify_us + own_us + write_us);
    }
}

/// The traced run for `seconds`, plus the figures derived from the
/// untraced run `http` and its end-to-end metrics.
pub fn run(
    inputs: &Inputs,
    seconds: f64,
    work: &Path,
    http: &HttpRun,
    e2e: &[Metric],
) -> Vec<Metric> {
    let mut layers = Layers::default();
    let stack = set_up(&mut layers, inputs, work);
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut stream: Box<dyn Iterator<Item = Request>> = match inputs.workload {
        Workload::ServeHot => Box::new(inputs.hot_stream.clone().into_iter().cycle()),
        Workload::CompareCold => Box::new(inputs.cold_stream()),
        Workload::MutateMix => {
            let writes = WriteStream::new(inputs.seed, workload::MIX_DATASET, &inputs.mix_edges);
            let reads = ReadStream::new(inputs.seed, workload::MIX_DATASET);
            Box::new(writes.zip(reads).flat_map(|(w, r)| [w, r]))
        }
    };
    while Instant::now() < end {
        let req = stream.next().expect("streams are endless");
        trace_request(&mut layers, &stack, &req);
    }
    let find = |name: &str| e2e.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
    let sum = |names: &[&str]| names.iter().map(|n| layers.median(n).0).sum::<f64>();
    let read_p50_us = find("latency_p50_ms") * 1e3;
    let write_p50_us = find("write_p50_ms") * 1e3;
    let total = |name: &str| layers.0.get(name).map_or(0.0, |xs| xs.iter().sum::<f64>());
    let core_us: f64 = ["core.solver.solve_us", "core.cyclerank.solve_us", "core.topk.solve_us"]
        .map(total)
        .iter()
        .sum();
    let read_us = total(READ_TOTAL);
    let hits = http.cache_delta("hits");
    let lookups = hits + http.cache_delta("misses");
    let requests = http.serving_delta("requests");
    let derived: [(&str, f64, usize); 18] = [
        (
            "engine.cache.hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            lookups as usize,
        ),
        ("engine.cache.evictions", http.cache_delta("evictions"), 1),
        ("engine.cache.invalidations", http.cache_delta("invalidations"), 1),
        (
            "server.pool.shed_count",
            http.serving_delta("shed_queue_full") + http.serving_delta("shed_expensive"),
            1,
        ),
        (
            "server.pool.keepalive_reuse_ratio",
            if requests > 0.0 { http.serving_delta("keep_alive_reuses") / requests } else { 0.0 },
            requests as usize,
        ),
        ("engine.scheduler.tasks_retained", http.tasks_retained(), 1),
        ("trace.unattributed_us", read_p50_us - sum(&READ_PATH), 1),
        ("trace.core_share", if read_us > 0.0 { core_us / read_us } else { 0.0 }, 1),
        (
            "trace.write_layers_share_of_write_p50",
            if write_p50_us > 0.0 { sum(&WRITE_PATH) / write_p50_us } else { 0.0 },
            1,
        ),
        ("e2e.latency_p50_ms", find("latency_p50_ms"), 1),
        ("e2e.latency_p90_ms", find("latency_p90_ms"), 1),
        ("e2e.latency_p99_ms", find("latency_p99_ms"), 1),
        ("e2e.throughput_qps", find("throughput_qps"), 1),
        ("e2e.write_p50_ms", find("write_p50_ms"), 1),
        ("e2e.write_p99_ms", find("write_p99_ms"), 1),
        ("e2e.within_limit_frac", find("within_limit_frac"), 1),
        ("e2e.failed_frac", find("failed_frac"), 1),
        ("e2e.upload_s", find("upload_s"), 1),
    ];
    let derived: BTreeMap<&str, (f64, usize)> =
        derived.into_iter().map(|(n, v, c)| (n, (v, c))).collect();
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let (value, n) = derived.get(name).copied().unwrap_or_else(|| layers.median(name));
            let note = if derived.contains_key(name) { "derived" } else { "median over calls" };
            Metric::new(name, value, unit, n, note)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        // A route of 10 µs around a 2 µs decode, a 5 µs scheduler round
        // trip and a 1 µs encode spent 2 µs of its own.
        assert_eq!(self_time(10.0, &[2.0, 5.0, 1.0]), 2.0);
        assert_eq!(self_time(4.0, &[]), 4.0);
        // Medians are taken per layer, over the per-request self times.
        let mut layers = Layers::default();
        for (parent, child) in [(10.0, 4.0), (20.0, 5.0), (12.0, 9.0)] {
            layers.add("p.self_us", self_time(parent, &[child]));
        }
        assert_eq!(layers.median("p.self_us"), (6.0, 3));
        assert_eq!(layers.median("absent"), (0.0, 0));
    }

    #[test]
    fn a_traced_task_request_reaches_every_read_layer() {
        let stack = Stack {
            engine: Arc::new(Scheduler::builder().workers(1).build()),
            replica: None,
            _dirs: Vec::new(),
        };
        let spec = TaskSpec {
            dataset: "fixture-enwiki-2018".into(),
            params: relcore::runner::AlgorithmParams::new(Algorithm::PersonalizedPageRank),
            source: Some("Freddie Mercury".into()),
            top_k: 10,
        };
        let mut layers = Layers::default();
        trace_request(&mut layers, &stack, &Request::Task { spec, certified_k: None });
        for name in READ_PATH {
            assert_eq!(layers.median(name).1, 1, "{name}");
        }
        assert_eq!(layers.median("core.solver.solve_us").1, 1, "a cold request solves once");
        assert!(layers.median("core.solver.iterations").0 >= 1.0);
    }

    #[test]
    fn layer_metrics_match_benchmark_json() {
        let text =
            std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the root");
        let json = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        let listed: Vec<(String, String)> = json["per_layer"]
            .as_array()
            .expect("per_layer list")
            .iter()
            .map(|m| {
                (m["name"].as_str().unwrap().to_string(), m["unit"].as_str().unwrap().to_string())
            })
            .collect();
        let ours: Vec<(String, String)> =
            LAYER_METRICS.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(listed, ours);
    }
}
