//! Task execution — the Executor / worker-node component of Fig. 1.
//!
//! An [`Executor`] owns a dataset cache (graphs are deterministic,
//! generated on first use and shared via `Arc` thereafter) plus a bounded
//! [`ResultCache`] of finished results, and turns a [`TaskSpec`] into a
//! [`TaskResult`]: consult the result cache → load dataset → build a
//! [`relcore::Query`] → package the labelled top-k. All algorithm
//! dispatch, reference resolution, and parameter validation happen inside
//! the registry-backed `Query` front door, so any algorithm registered in
//! [`relcore::AlgorithmRegistry`] executes here without engine changes.
//! Multi-seed [`BatchSpec`]s run through [`Executor::execute_batch`]: cache
//! hits are served immediately and the remaining seeds share one
//! multi-vector solve.

use crate::cache::{cache_key, CacheStats, ResultCache, DEFAULT_CACHE_CAPACITY};
use crate::error::EngineError;
use crate::mutation::{EdgeOp, MutationOutcome};
use crate::persist::GraphPersistence;
use crate::task::{BatchSpec, TaskId, TaskSpec};
use parking_lot::Mutex;
use relcore::{with_arena, Query, QueryError, QueryResult, SolverArena};
use relgraph::{DirectedGraph, DynamicGraph, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default base of the degraded-mode exponential backoff.
pub const DEFAULT_DEGRADED_BACKOFF: Duration = Duration::from_secs(1);

/// Ceiling on the degraded-mode re-probe interval.
const MAX_DEGRADED_BACKOFF: Duration = Duration::from_secs(60);

/// Internal per-dataset degradation bookkeeping.
#[derive(Debug, Clone)]
struct DegradedState {
    reason: String,
    failures: u32,
    since: Instant,
    next_probe: Instant,
}

/// Externally visible degraded-mode status for one dataset (health and
/// stats endpoints).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradedDataset {
    /// The degraded dataset.
    pub dataset: String,
    /// The storage failure that flipped it into degraded mode.
    pub reason: String,
    /// Consecutive storage failures observed.
    pub failures: u32,
    /// Seconds the dataset has been degraded.
    pub degraded_for_secs: u64,
    /// Seconds until the next mutation is allowed through as a probe
    /// (0 = a probe is already due).
    pub retry_after_secs: u64,
}

/// Aggregate footprint of the executor's per-dataset solver-arena pools
/// (see [`Executor::arena_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArenaPoolStats {
    /// Datasets that own a solver arena.
    pub datasets: usize,
    /// O(n) working buffers currently pooled across all arenas.
    pub pooled_buffers: usize,
    /// Total buffer allocations ever made (steady state: stops growing).
    pub allocations: u64,
}

/// The stored outcome of a completed task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskResult {
    /// Which task produced this.
    pub task_id: TaskId,
    /// Dataset id.
    pub dataset: String,
    /// Algorithm id (e.g. `cyclerank`).
    pub algorithm: String,
    /// Human-readable parameter summary (e.g. `k = 3, σ = exp`).
    pub parameters: String,
    /// Source label, for personalized runs.
    pub source: Option<String>,
    /// Top entries as `(label, score)`; score is 0 for ranking-only
    /// algorithms (2DRank).
    pub top: Vec<(String, f64)>,
    /// Wall-clock runtime of the algorithm (not counting dataset load).
    pub runtime_ms: u64,
    /// Node count of the dataset.
    pub nodes: usize,
    /// Edge count of the dataset.
    pub edges: usize,
    /// Solver iterations, for the PageRank family.
    pub iterations: Option<usize>,
    /// Final L1 residual of the solve, for the PageRank family.
    #[serde(default)]
    pub residual: Option<f64>,
    /// Whether the solver converged below its tolerance.
    #[serde(default)]
    pub converged: Option<bool>,
    /// Per-iteration residuals, when the task requested a convergence
    /// trace (`params.record_trace`).
    #[serde(default)]
    pub residuals: Option<Vec<f64>>,
    /// Cycles found, for CycleRank.
    pub cycles_found: Option<u64>,
}

/// Dataset- and result-caching task executor.
pub struct Executor {
    /// Per-dataset dynamic graphs: registry datasets are generated on
    /// first use and wrapped (version 0); uploads are wrapped at
    /// registration. Queries run over the cached CSR snapshot
    /// ([`relgraph::DynamicGraph::snapshot`]); edge mutations
    /// ([`Executor::mutate_dataset`]) bump the version every cache key
    /// embeds. Each slot carries its **own** lock so post-mutation
    /// snapshot materialization (O(V + E)) and mutation batches block
    /// only traffic on that dataset — the outer map lock is held just
    /// long enough to clone the slot `Arc`.
    datasets: Mutex<HashMap<String, Arc<Mutex<DynamicGraph>>>>,
    /// Held while a registry dataset is generated on first use, so first
    /// requests that race on an unloaded dataset generate it once instead
    /// of once each: a duplicate generation is wasted work, and its
    /// transient graph makes the peak resident set depend on how the
    /// requests happened to interleave. Lookups of loaded datasets never
    /// take it.
    generating: Mutex<()>,
    results: ResultCache,
    /// Optional durable store: when attached, uploads snapshot on
    /// registration, every applied mutation batch is journaled (fsynced)
    /// *before* its in-memory commit, and the journal rotates into a
    /// fresh snapshot once it reaches the dataset's compaction threshold.
    persist: Option<Arc<GraphPersistence>>,
    /// Per-dataset solver arenas: every task or batch on a dataset draws
    /// its solver working buffers from that dataset's arena, so
    /// steady-state traffic re-sweeps warm buffers sized for that graph
    /// instead of allocating per request. Shared across worker threads
    /// and batches (the arena itself is `Sync`).
    arenas: Mutex<BTreeMap<String, Arc<SolverArena>>>,
    /// Datasets whose durable store is failing: mutations fast-reject
    /// with [`EngineError::Degraded`] until the exponential-backoff
    /// re-probe window elapses; reads are unaffected.
    degraded: Mutex<BTreeMap<String, DegradedState>>,
    /// Base of the degraded-mode backoff (configurable so tests don't
    /// sleep wall-clock seconds).
    degraded_backoff: Mutex<Duration>,
}

impl Default for Executor {
    fn default() -> Self {
        Self::new()
    }
}

impl Executor {
    /// Creates an executor with an empty dataset cache and a result cache
    /// of [`DEFAULT_CACHE_CAPACITY`] entries.
    pub fn new() -> Self {
        Self::with_cache_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// Creates an executor whose result cache holds at most `capacity`
    /// entries; `0` disables result caching entirely.
    pub fn with_cache_capacity(capacity: usize) -> Self {
        Executor {
            datasets: Mutex::new(HashMap::new()),
            generating: Mutex::new(()),
            results: ResultCache::new(capacity),
            persist: None,
            arenas: Mutex::new(BTreeMap::new()),
            degraded: Mutex::new(BTreeMap::new()),
            degraded_backoff: Mutex::new(DEFAULT_DEGRADED_BACKOFF),
        }
    }

    /// Attaches a durable store. Call before the executor is shared (the
    /// scheduler builder does this when configured with a data dir), then
    /// [`Executor::recover_persisted`] to load what's on disk.
    pub fn attach_persistence(&mut self, persist: Arc<GraphPersistence>) {
        self.persist = Some(persist);
    }

    /// The attached durable store, if any.
    pub fn persistence(&self) -> Option<&Arc<GraphPersistence>> {
        self.persist.as_ref()
    }

    /// Journal/snapshot counters for `id`, when a durable store is
    /// attached and the dataset has durable state.
    pub fn persistence_stats(&self, id: &str) -> Option<relstore::StoreStats> {
        self.persist.as_ref()?.stats(id).ok().flatten()
    }

    /// Recovers every dataset in the attached durable store: latest valid
    /// snapshot plus deterministic journal-tail replay (see
    /// [`GraphPersistence::recover`]). Returns the recovered ids, sorted.
    /// Without an attached store this is a no-op.
    pub fn recover_persisted(&self) -> Result<Vec<String>, EngineError> {
        let Some(persist) = self.persist.clone() else {
            return Ok(Vec::new());
        };
        let mut recovered = Vec::new();
        for id in persist.dataset_ids()? {
            if let Some(r) = persist.recover(&id)? {
                self.datasets.lock().insert(r.dataset.clone(), Arc::new(Mutex::new(r.graph)));
                recovered.push(r.dataset);
            }
        }
        recovered.sort();
        Ok(recovered)
    }

    /// Overrides the degraded-mode backoff base (tests use milliseconds;
    /// production keeps [`DEFAULT_DEGRADED_BACKOFF`]).
    pub fn set_degraded_backoff(&self, base: Duration) {
        *self.degraded_backoff.lock() = base;
    }

    /// Degraded-mode status of `id`, if it is currently degraded.
    pub fn degraded_status(&self, id: &str) -> Option<DegradedDataset> {
        let degraded = self.degraded.lock();
        let state = degraded.get(id)?;
        Some(describe_degraded(id, state, Instant::now()))
    }

    /// Every currently degraded dataset, sorted by id.
    pub fn degraded_datasets(&self) -> Vec<DegradedDataset> {
        let now = Instant::now();
        let degraded = self.degraded.lock();
        let mut out: Vec<DegradedDataset> =
            degraded.iter().map(|(id, state)| describe_degraded(id, state, now)).collect();
        out.sort_by(|a, b| a.dataset.cmp(&b.dataset));
        out
    }

    /// Fast-rejects a mutation on a degraded dataset whose re-probe
    /// window has not elapsed yet. Once the window passes, the next
    /// mutation is allowed through as the probe.
    fn check_degraded(&self, id: &str) -> Result<(), EngineError> {
        let degraded = self.degraded.lock();
        let Some(state) = degraded.get(id) else {
            return Ok(());
        };
        let now = Instant::now();
        if now >= state.next_probe {
            return Ok(()); // this mutation probes the store
        }
        Err(EngineError::Degraded {
            dataset: id.to_string(),
            retry_after_secs: retry_after_secs(state.next_probe, now),
            reason: state.reason.clone(),
        })
    }

    /// Records a storage failure for `id`: enters (or escalates)
    /// degraded mode with exponentially backed-off re-probes.
    fn note_storage_failure(&self, id: &str, error: &EngineError) {
        let base = *self.degraded_backoff.lock();
        let now = Instant::now();
        let mut degraded = self.degraded.lock();
        let state = degraded.entry(id.to_string()).or_insert_with(|| DegradedState {
            reason: error.to_string(),
            failures: 0,
            since: now,
            next_probe: now,
        });
        state.failures = state.failures.saturating_add(1);
        state.reason = error.to_string();
        let exp = state.failures.saturating_sub(1).min(16);
        let backoff = base.saturating_mul(1 << exp).min(MAX_DEGRADED_BACKOFF);
        state.next_probe = now + backoff;
    }

    /// Clears `id`'s degraded state after a successful persist.
    fn clear_degraded(&self, id: &str) {
        self.degraded.lock().remove(id);
    }

    /// The solver arena owned by `dataset` (created on first use).
    pub fn arena_for(&self, dataset: &str) -> Arc<SolverArena> {
        Arc::clone(
            self.arenas
                .lock()
                .entry(dataset.to_string())
                .or_insert_with(|| Arc::new(SolverArena::new())),
        )
    }

    /// Hit/miss/eviction counters of the result cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.results.stats()
    }

    /// Whether executing `spec` right now would be answered from the
    /// result cache. A *peek*: no dataset is loaded (an unloaded dataset
    /// trivially has no cached results), no recency or hit/miss counter
    /// moves. The serving layer uses this to route cache-answerable
    /// requests into the cheap admission lane.
    pub fn would_hit_cache(&self, spec: &TaskSpec) -> bool {
        match self.dataset_version(&spec.dataset) {
            Some(version) => self.results.contains(&cache_key(spec, version)),
            None => false,
        }
    }

    /// Aggregate footprint of the per-dataset solver-arena pools, for
    /// serving-stats plumbing and pool sizing: how many datasets own an
    /// arena, how many O(n) buffers are pooled across them, and the
    /// total buffer allocations ever made.
    pub fn arena_stats(&self) -> ArenaPoolStats {
        let arenas = self.arenas.lock();
        let mut stats =
            ArenaPoolStats { datasets: arenas.len(), pooled_buffers: 0, allocations: 0 };
        for arena in arenas.values() {
            stats.pooled_buffers += arena.pooled();
            stats.allocations += arena.allocations();
        }
        stats
    }

    /// Registers a user-uploaded graph under `id` (the demo's "upload your
    /// own dataset" feature, §IV-B).
    ///
    /// Fails with [`EngineError::DatasetExists`] if the id collides with a
    /// registry dataset or a previous upload.
    pub fn register_graph(&self, id: &str, graph: DirectedGraph) -> Result<(), EngineError> {
        if reldata::registry::spec(id).is_some() {
            return Err(EngineError::DatasetExists(id.to_string()));
        }
        let mut datasets = self.datasets.lock();
        if datasets.contains_key(id) {
            return Err(EngineError::DatasetExists(id.to_string()));
        }
        // Initial snapshot before the registration is visible: the journal
        // needs a base state on disk before its first record can land.
        // (Held under the map lock so a concurrent registration can never
        // interleave; uploads are rare enough that this doesn't matter.)
        if let Some(persist) = &self.persist {
            persist.write_snapshot(id, &graph, 0)?;
        }
        datasets.insert(id.to_string(), Arc::new(Mutex::new(DynamicGraph::new(graph))));
        Ok(())
    }

    /// Ids of user-uploaded datasets currently registered.
    pub fn uploaded_ids(&self) -> Vec<String> {
        self.datasets
            .lock()
            .keys()
            .filter(|id| reldata::registry::spec(id).is_none())
            .cloned()
            .collect()
    }

    /// Loads a dataset through the cache (registry datasets are generated
    /// on first use; uploads were placed there by
    /// [`Executor::register_graph`]).
    pub fn dataset(&self, id: &str) -> Result<Arc<DirectedGraph>, EngineError> {
        self.dataset_versioned(id).map(|(g, _)| g)
    }

    /// Like [`Executor::dataset`], additionally returning the dataset's
    /// current **graph version** (0 until the first mutation). Every
    /// result-cache key embeds this version, so results computed against
    /// one graph state can never answer queries against another.
    pub fn dataset_versioned(&self, id: &str) -> Result<(Arc<DirectedGraph>, u64), EngineError> {
        let slot = match self.slot_if_cached(id) {
            Some(slot) => slot,
            None => {
                // Generate outside the map lock, so lookups of loaded
                // datasets don't block on it, but under the generation
                // lock; a racer that waited on it finds the slot filled.
                let _generating = self.generating.lock();
                match self.slot_if_cached(id) {
                    Some(slot) => slot,
                    None => {
                        let g = reldata::load_dataset(id)
                            .ok_or_else(|| EngineError::UnknownDataset(id.into()))?;
                        let g = Arc::new(g);
                        Arc::clone(self.datasets.lock().entry(id.to_string()).or_insert_with(
                            || Arc::new(Mutex::new(DynamicGraph::from_arc(Arc::clone(&g)))),
                        ))
                    }
                }
            }
        };
        // Snapshot under the per-dataset lock only: a post-mutation
        // materialization blocks this dataset's traffic, nobody else's.
        let mut dynamic = slot.lock();
        Ok((dynamic.snapshot(), dynamic.version()))
    }

    /// The slot `Arc` for `id`, if the dataset is loaded.
    fn slot_if_cached(&self, id: &str) -> Option<Arc<Mutex<DynamicGraph>>> {
        self.datasets.lock().get(id).map(Arc::clone)
    }

    /// The current graph version of `id`, if the dataset is loaded.
    pub fn dataset_version(&self, id: &str) -> Option<u64> {
        self.slot_if_cached(id).map(|slot| slot.lock().version())
    }

    /// The cached graph for `id`, if one is already loaded (uploads, or
    /// registry datasets some task has touched). Unlike
    /// [`Executor::dataset`] this never generates — metadata endpoints
    /// use it to avoid pinning every dataset a client merely *inspects*.
    /// (It may still *materialize* a pending post-mutation snapshot, but
    /// only under that dataset's own lock.)
    pub fn dataset_if_cached(&self, id: &str) -> Option<Arc<DirectedGraph>> {
        self.slot_if_cached(id).map(|slot| slot.lock().snapshot())
    }

    /// Number of cached datasets.
    pub fn cached_count(&self) -> usize {
        self.datasets.lock().len()
    }

    /// Applies a batch of edge mutations to `id` **atomically**: either
    /// every operation resolves and the batch lands as one version step
    /// per applied change, or nothing is modified. On success every
    /// cached result of the dataset is invalidated
    /// ([`ResultCache::invalidate_dataset`]) — together with the graph
    /// version inside every cache key, this makes serving a pre-mutation
    /// result after the mutation impossible.
    ///
    /// Endpoints resolve label-first, then as numeric indices of
    /// unlabeled nodes (the query convention); `Add` creates unresolved
    /// endpoints as fresh labeled nodes, `Remove` rejects them.
    pub fn mutate_dataset(&self, id: &str, ops: &[EdgeOp]) -> Result<MutationOutcome, EngineError> {
        // Degraded fast-reject before any staging work: while the
        // re-probe backoff is pending, mutations bounce immediately
        // (reads never pass through here and keep serving).
        self.check_degraded(id)?;
        // Ensure the dataset is loaded (generating outside the map lock).
        let _ = self.dataset_versioned(id)?;
        let slot =
            self.slot_if_cached(id).ok_or_else(|| EngineError::UnknownDataset(id.to_string()))?;
        // Per-dataset lock: the batch (and its clone) stalls only this
        // dataset's traffic. Work on a copy so a mid-batch failure leaves
        // the dataset (and its version) untouched; deltas are small, so
        // the copy is cheap.
        let mut guard = slot.lock();
        let mut staged = guard.clone();
        let applied = apply_ops(&mut staged, id, ops)?;
        let outcome = MutationOutcome {
            dataset: id.to_string(),
            version: staged.version(),
            applied,
            nodes: staged.node_count(),
            edges: staged.edge_count(),
        };
        let mutated = applied > 0;
        // Write-ahead: the batch reaches the fsynced journal before it
        // becomes visible in memory. A failure here aborts the batch with
        // the dataset untouched — the engine never acknowledges a version
        // that isn't durable.
        let mut journal_records = 0;
        if mutated {
            if let Some(persist) = &self.persist {
                let persisted = persist
                    .ensure_snapshot(id, &mut guard)
                    .and_then(|()| persist.append(id, staged.version(), ops));
                match persisted {
                    Ok(records) => {
                        journal_records = records;
                        // The store works again: leave degraded mode.
                        self.clear_degraded(id);
                    }
                    Err(e) => {
                        // The batch was never acknowledged and the
                        // in-memory graph is untouched. Flip (or keep)
                        // the dataset degraded so further mutations
                        // fast-reject until the backoff elapses.
                        self.note_storage_failure(id, &e);
                        return Err(e);
                    }
                }
            }
        }
        *guard = staged;
        if mutated {
            if let Some(persist) = &self.persist {
                // Rotation mirrors the graph's own compaction threshold:
                // once the journal accumulates that many batches, fold
                // them into a fresh snapshot. Best-effort — the journal
                // stays authoritative if the snapshot write fails.
                if journal_records >= guard.compact_threshold() as u64 {
                    let version = guard.version();
                    let snap = guard.snapshot();
                    let _ = persist.write_snapshot(id, &snap, version);
                }
            }
        }
        drop(guard);
        if mutated {
            self.results.invalidate_dataset(id);
        }
        Ok(outcome)
    }

    /// Executes a task spec to completion: served from the [`ResultCache`]
    /// when an identical query already ran (see
    /// [`crate::cache::cache_key`]), otherwise through the registry-backed
    /// [`Query`] front door (and cached for the next identical request).
    pub fn execute(&self, id: &TaskId, spec: &TaskSpec) -> Result<TaskResult, EngineError> {
        let (graph, version) = self.dataset_versioned(&spec.dataset)?;
        let key = cache_key(spec, version);
        if let Some(cached) = self.results.get(&key, id) {
            return Ok(cached);
        }

        let mut query = Query::on(Arc::clone(&graph)).params(spec.params).top(spec.top_k);
        if let Some(source) = &spec.source {
            query = query.reference(source.as_str());
        }
        let arena = self.arena_for(&spec.dataset);
        let result =
            with_arena(&arena, || query.run()).map_err(|e| map_query_error(e, &spec.dataset))?;
        let result = package(id, &spec.dataset, spec.source.clone(), &result);
        self.results.put(key, result.clone());
        Ok(result)
    }

    /// Executes a multi-seed batch: each seed's result is served from the
    /// [`ResultCache`] when possible, and all remaining seeds share **one**
    /// multi-vector solve ([`Query::run_batch`]). Returns one result per
    /// seed, in seed order, addressed to the given task ids.
    pub fn execute_batch(
        &self,
        ids: &[TaskId],
        spec: &BatchSpec,
    ) -> Result<Vec<TaskResult>, EngineError> {
        assert_eq!(ids.len(), spec.sources.len(), "one task id per batch seed");
        let (graph, version) = self.dataset_versioned(&spec.dataset)?;
        let mut slots: Vec<Option<TaskResult>> = Vec::with_capacity(ids.len());
        let mut keys = Vec::with_capacity(ids.len());
        let mut missed = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            let key = cache_key(&spec.task_for(i), version);
            slots.push(self.results.get(&key, id));
            if slots[i].is_none() {
                missed.push(i);
            }
            keys.push(key);
        }

        if !missed.is_empty() {
            let arena = self.arena_for(&spec.dataset);
            let query = Query::on(Arc::clone(&graph))
                .params(spec.params)
                .top(spec.top_k)
                .seeds(missed.iter().map(|&i| spec.sources[i].as_str()));
            let batch = with_arena(&arena, || query.run_batch())
                .map_err(|e| map_query_error(e, &spec.dataset))?;
            for (&i, result) in missed.iter().zip(batch.into_results()) {
                let r = package(&ids[i], &spec.dataset, Some(spec.sources[i].clone()), &result);
                self.results.put(keys[i].clone(), r.clone());
                slots[i] = Some(r);
            }
        }
        slots
            .into_iter()
            .zip(ids)
            .map(|(s, id)| {
                s.ok_or_else(|| {
                    EngineError::TaskFailed(format!("batch left slot for task {id} unfilled"))
                })
            })
            .collect()
    }
}

/// Seconds (rounded up, at least 1) until `next_probe`, or 0 when due.
fn retry_after_secs(next_probe: Instant, now: Instant) -> u64 {
    if now >= next_probe {
        return 0;
    }
    let remaining = next_probe - now;
    (remaining.as_secs_f64().ceil() as u64).max(1)
}

fn describe_degraded(id: &str, state: &DegradedState, now: Instant) -> DegradedDataset {
    DegradedDataset {
        dataset: id.to_string(),
        reason: state.reason.clone(),
        failures: state.failures,
        degraded_for_secs: now.saturating_duration_since(state.since).as_secs(),
        retry_after_secs: retry_after_secs(state.next_probe, now),
    }
}

/// Applies a batch of edge operations to `graph` in order, resolving
/// endpoints exactly as [`Executor::mutate_dataset`] does. Returns the
/// number of operations that changed the graph. Shared between the live
/// mutation path and journal replay ([`crate::persist`]) so recovery is
/// bit-deterministic by construction.
pub(crate) fn apply_ops(
    graph: &mut DynamicGraph,
    dataset: &str,
    ops: &[EdgeOp],
) -> Result<usize, EngineError> {
    let mut applied = 0usize;
    for op in ops {
        let changed = match op {
            EdgeOp::Add(spec) => {
                let u = resolve_endpoint(graph, &spec.source, true)
                    .map_err(|e| mutation_error(dataset, &spec.source, e))?;
                let v = resolve_endpoint(graph, &spec.target, true)
                    .map_err(|e| mutation_error(dataset, &spec.target, e))?;
                let w = spec.weight.unwrap_or(1.0);
                graph
                    .insert_edge(u, v, w)
                    .map_err(|e| EngineError::InvalidMutation(e.to_string()))?
                    .is_some()
            }
            EdgeOp::Remove(spec) => {
                let u = resolve_endpoint(graph, &spec.source, false)
                    .map_err(|e| mutation_error(dataset, &spec.source, e))?;
                let v = resolve_endpoint(graph, &spec.target, false)
                    .map_err(|e| mutation_error(dataset, &spec.target, e))?;
                graph
                    .remove_edge(u, v)
                    .map_err(|e| EngineError::InvalidMutation(e.to_string()))?
                    .is_some()
            }
        };
        if changed {
            applied += 1;
        }
    }
    Ok(applied)
}

/// Resolves a mutation endpoint against a dynamic graph, following the
/// query convention: label first, then — for **unlabeled** nodes only —
/// a numeric node index. With `create`, an unresolved endpoint becomes a
/// fresh labeled node (edge streams mention new entities constantly);
/// without it (removals) resolution failure is an error.
fn resolve_endpoint(
    graph: &mut DynamicGraph,
    endpoint: &str,
    create: bool,
) -> Result<NodeId, String> {
    if let Some(n) = graph.node_by_label(endpoint) {
        return Ok(n);
    }
    if let Ok(idx) = endpoint.parse::<u32>() {
        let node = NodeId::new(idx);
        if (idx as usize) < graph.node_count() && graph.label_of(node).is_none() {
            return Ok(node);
        }
    }
    if create {
        return graph.add_labeled_node(endpoint).map_err(|e| e.to_string());
    }
    Err(format!("no node labeled {endpoint:?} (and not a valid unlabeled node index)"))
}

fn mutation_error(dataset: &str, endpoint: &str, detail: String) -> EngineError {
    EngineError::InvalidMutation(format!("dataset {dataset:?}, endpoint {endpoint:?}: {detail}"))
}

/// Maps a front-door query failure onto the engine's error vocabulary.
fn map_query_error(e: QueryError, dataset: &str) -> EngineError {
    match e {
        QueryError::MissingReference(_) => EngineError::MissingSource,
        QueryError::UnknownReference(source) => {
            EngineError::UnknownSource { dataset: dataset.to_string(), source }
        }
        QueryError::Algorithm(e) => e.into(),
        other => EngineError::Algorithm(other.to_string()),
    }
}

/// Packages a finished [`QueryResult`] as the engine's stored result type.
fn package(id: &TaskId, dataset: &str, source: Option<String>, result: &QueryResult) -> TaskResult {
    TaskResult {
        task_id: id.clone(),
        dataset: dataset.to_string(),
        algorithm: result.algorithm.clone(),
        parameters: result.parameters.clone(),
        source,
        top: result.top_entries(),
        runtime_ms: result.runtime.as_millis() as u64,
        nodes: result.graph.node_count(),
        edges: result.graph.edge_count(),
        iterations: result.output.convergence.map(|c| c.iterations),
        residual: result.output.convergence.map(|c| c.residual),
        converged: result.output.convergence.map(|c| c.converged),
        residuals: result.output.trace.as_ref().map(|t| t.residuals.clone()),
        cycles_found: result.output.cycles_found,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TaskBuilder;
    use relcore::runner::Algorithm;

    fn exec(spec: TaskSpec) -> Result<TaskResult, EngineError> {
        Executor::new().execute(&TaskId::fresh(), &spec)
    }

    #[test]
    fn cyclerank_on_fixture() {
        let spec = TaskBuilder::new("fixture-enwiki-2018")
            .algorithm(Algorithm::CycleRank)
            .source("Freddie Mercury")
            .top_k(5)
            .build()
            .unwrap();
        let r = exec(spec).unwrap();
        assert_eq!(r.top.len(), 5);
        assert_eq!(r.top[0].0, "Freddie Mercury");
        assert_eq!(r.top[1].0, "Queen (band)");
        assert!(r.cycles_found.unwrap() > 0);
        assert!(r.iterations.is_none());
        assert_eq!(r.algorithm, "cyclerank");
    }

    #[test]
    fn pagerank_reports_iterations() {
        let spec = TaskBuilder::new("fixture-enwiki-2018").top_k(3).build().unwrap();
        let r = exec(spec).unwrap();
        assert!(r.iterations.unwrap() > 1);
        assert!(r.cycles_found.is_none());
        assert_eq!(r.top[0].0, "United States");
        // Convergence diagnostics ride along in the result.
        assert!(r.converged.unwrap());
        assert!(r.residual.unwrap() < 1e-9);
        // No trace unless the task asked for one.
        assert!(r.residuals.is_none());
    }

    #[test]
    fn residual_trace_on_request() {
        let spec = TaskBuilder::new("fixture-enwiki-2018").top_k(3).trace(true).build().unwrap();
        let r = exec(spec).unwrap();
        let residuals = r.residuals.expect("trace requested");
        assert_eq!(residuals.len(), r.iterations.unwrap());
        assert_eq!(residuals.last().copied(), r.residual);
        // Residuals decay toward the tolerance.
        assert!(residuals.last().unwrap() < &1e-9);
    }

    #[test]
    fn scheme_and_threads_flow_through_tasks() {
        use relcore::Scheme;
        let ex = Executor::new();
        let mut tops = Vec::new();
        for scheme in Scheme::ALL {
            let spec = TaskBuilder::new("fixture-enwiki-2018")
                .scheme(scheme)
                .threads(2)
                .top_k(5)
                .build()
                .unwrap();
            let r = ex.execute(&TaskId::fresh(), &spec).unwrap();
            assert!(r.converged.unwrap(), "{scheme}");
            tops.push(r.top);
        }
        // All three schemes agree on the fixture's top-5.
        assert_eq!(
            tops[0].iter().map(|(l, _)| l).collect::<Vec<_>>(),
            tops[1].iter().map(|(l, _)| l).collect::<Vec<_>>()
        );
        assert_eq!(
            tops[0].iter().map(|(l, _)| l).collect::<Vec<_>>(),
            tops[2].iter().map(|(l, _)| l).collect::<Vec<_>>()
        );
    }

    #[test]
    fn top_k_serving_mode_matches_full_rank_set() {
        let ex = Executor::new();
        let full_spec = TaskBuilder::new("fixture-enwiki-2018")
            .algorithm(Algorithm::PersonalizedPageRank)
            .source("Freddie Mercury")
            .top_k(5)
            .build()
            .unwrap();
        let mut serving_spec = full_spec.clone();
        serving_spec.params.top_k = Some(5);
        let full = ex.execute(&TaskId::fresh(), &full_spec).unwrap();
        let served = ex.execute(&TaskId::fresh(), &serving_spec).unwrap();
        assert_eq!(served.top.len(), 5);
        let mut full_labels: Vec<&String> = full.top.iter().map(|(l, _)| l).collect();
        let mut served_labels: Vec<&String> = served.top.iter().map(|(l, _)| l).collect();
        full_labels.sort();
        served_labels.sort();
        assert_eq!(full_labels, served_labels, "top-k serving must return the exact top-k set");
        // The two modes are distinct cache entries.
        assert_ne!(cache_key(&full_spec, 0), cache_key(&serving_spec, 0));
    }

    #[test]
    fn arena_pool_is_per_dataset_and_warm() {
        let ex = Executor::new();
        let a = ex.arena_for("d1");
        assert!(Arc::ptr_eq(&a, &ex.arena_for("d1")));
        assert!(!Arc::ptr_eq(&a, &ex.arena_for("d2")));

        // Executing tasks draws from (and warms) the dataset's arena.
        let spec = TaskBuilder::new("fixture-fakenews-it").top_k(3).build().unwrap();
        ex.execute(&TaskId::fresh(), &spec).unwrap();
        let arena = ex.arena_for("fixture-fakenews-it");
        let warmed = arena.allocations();
        assert!(warmed > 0, "solve must have drawn from the dataset arena");
        assert!(arena.pooled() > 0, "buffers must return to the pool after the solve");
    }

    #[test]
    fn mutated_dataset_never_serves_stale_results() {
        // The headline stale-cache regression test: after a mutation, a
        // repeated identical query must be recomputed (miss on the new
        // graph version), never answered from the pre-mutation cache.
        use crate::mutation::{EdgeOp, EdgeSpec};
        let ex = Executor::new();
        let mut b = relgraph::GraphBuilder::new();
        b.add_labeled_edge("seed", "a");
        b.add_labeled_edge("a", "seed");
        b.add_labeled_edge("seed", "b");
        ex.register_graph("dyn", b.build()).unwrap();

        let spec = TaskBuilder::new("dyn")
            .algorithm(Algorithm::PersonalizedPageRank)
            .source("seed")
            .top_k(3)
            .build()
            .unwrap();
        let before = ex.execute(&TaskId::fresh(), &spec).unwrap();
        assert_eq!(ex.cache_stats().misses, 1);
        // Warm hit on the unmutated graph.
        ex.execute(&TaskId::fresh(), &spec).unwrap();
        assert_eq!(ex.cache_stats().hits, 1);

        // Mutation: a -> b gives b a second inbound path, raising its
        // score. (Note b -> seed would be invisible to PPR seeded at
        // "seed": dangling mass already restarts there.)
        let add = EdgeSpec { source: "a".into(), target: "b".into(), weight: None };
        let outcome = ex.mutate_dataset("dyn", &[EdgeOp::Add(add)]).unwrap();
        assert_eq!(outcome.version, 1);
        assert_eq!(outcome.applied, 1);
        assert_eq!(ex.cache_stats().invalidations, 1, "stale entry dropped eagerly");

        let after = ex.execute(&TaskId::fresh(), &spec).unwrap();
        let stats = ex.cache_stats();
        assert_eq!(stats.hits, 1, "post-mutation query must NOT hit the stale entry");
        assert_eq!(stats.misses, 2, "post-mutation query recomputes");
        let score = |r: &TaskResult, label: &str| {
            r.top.iter().find(|(l, _)| l == label).map(|&(_, s)| s).unwrap()
        };
        assert!(
            score(&after, "b") > score(&before, "b"),
            "recomputed scores must reflect the new edge: {:?} vs {:?}",
            after.top,
            before.top
        );
        // The post-mutation result is itself cached under the new version.
        ex.execute(&TaskId::fresh(), &spec).unwrap();
        assert_eq!(ex.cache_stats().hits, 2);
    }

    #[test]
    fn mutation_is_atomic_and_resolves_endpoints() {
        use crate::mutation::{EdgeOp, EdgeSpec};
        let ex = Executor::new();
        let mut b = relgraph::GraphBuilder::new();
        b.add_labeled_edge("x", "y");
        ex.register_graph("atom", b.build()).unwrap();

        // A batch whose second op fails must leave nothing applied.
        let good = EdgeSpec { source: "y".into(), target: "x".into(), weight: None };
        let bad = EdgeSpec { source: "ghost".into(), target: "x".into(), weight: None };
        let err = ex
            .mutate_dataset("atom", &[EdgeOp::Add(good.clone()), EdgeOp::Remove(bad)])
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidMutation(_)), "{err}");
        assert_eq!(ex.dataset_version("atom"), Some(0), "failed batch must not land");
        let (g, _) = ex.dataset_versioned("atom").unwrap();
        assert_eq!(g.edge_count(), 1);

        // Adds create unknown endpoints as fresh labeled nodes.
        let grow = EdgeSpec { source: "x".into(), target: "newcomer".into(), weight: Some(2.0) };
        let outcome = ex.mutate_dataset("atom", &[EdgeOp::Add(good), EdgeOp::Add(grow)]).unwrap();
        assert_eq!(outcome.applied, 2);
        assert_eq!(outcome.nodes, 3);
        assert_eq!(outcome.edges, 3);
        let (g, version) = ex.dataset_versioned("atom").unwrap();
        assert_eq!(version, outcome.version);
        let newcomer = g.node_by_label("newcomer").expect("created node is labeled");
        assert_eq!(g.edge_weight(g.node_by_label("x").unwrap(), newcomer), Some(2.0));

        // Idempotent re-application: accepted, nothing applied, version
        // (and cache keys) unmoved.
        let again = EdgeSpec { source: "y".into(), target: "x".into(), weight: None };
        let o2 = ex.mutate_dataset("atom", &[EdgeOp::Add(again)]).unwrap();
        assert_eq!(o2.applied, 0);
        assert_eq!(o2.version, outcome.version);

        // Invalid weights surface as InvalidMutation.
        let nan = EdgeSpec { source: "x".into(), target: "y".into(), weight: Some(f64::NAN) };
        assert!(matches!(
            ex.mutate_dataset("atom", &[EdgeOp::Add(nan)]),
            Err(EngineError::InvalidMutation(_))
        ));
        // Unknown datasets are rejected up front.
        let some = EdgeSpec { source: "a".into(), target: "b".into(), weight: None };
        assert!(matches!(
            ex.mutate_dataset("no-such-dataset", &[EdgeOp::Add(some)]),
            Err(EngineError::UnknownDataset(_))
        ));
    }

    #[test]
    fn registry_datasets_mutate_in_memory() {
        use crate::mutation::{EdgeOp, EdgeSpec};
        let ex = Executor::new();
        let (g0, v0) = ex.dataset_versioned("fixture-fakenews-it").unwrap();
        assert_eq!(v0, 0);
        let spec =
            EdgeSpec { source: "Fake news".into(), target: "Pizzagate".into(), weight: None };
        // Whether or not the edge already exists, the call must succeed;
        // pick the reverse direction of a known edge if needed.
        let outcome = match ex.mutate_dataset("fixture-fakenews-it", &[EdgeOp::Add(spec)]) {
            Ok(o) => o,
            Err(e) => panic!("registry mutation failed: {e}"),
        };
        if outcome.applied == 1 {
            // Creating the "Pizzagate" endpoint and inserting the edge are
            // both version steps; the exact count is an implementation
            // detail — what matters is that it moved and matches the slot.
            assert!(outcome.version > 0);
            assert_eq!(ex.dataset_version("fixture-fakenews-it"), Some(outcome.version));
            let (g1, _) = ex.dataset_versioned("fixture-fakenews-it").unwrap();
            assert_eq!(g1.edge_count(), g0.edge_count() + 1);
        }
    }

    #[test]
    fn repeated_query_served_from_cache() {
        let ex = Executor::new();
        let spec = TaskBuilder::new("fixture-enwiki-2018")
            .algorithm(Algorithm::PersonalizedPageRank)
            .source("Freddie Mercury")
            .top_k(5)
            .build()
            .unwrap();
        let first = ex.execute(&TaskId::fresh(), &spec).unwrap();
        assert_eq!(ex.cache_stats().hits, 0);
        assert_eq!(ex.cache_stats().misses, 1);

        let id2 = TaskId::fresh();
        let second = ex.execute(&id2, &spec).unwrap();
        let stats = ex.cache_stats();
        assert_eq!(stats.hits, 1, "repeated identical query must hit");
        assert_eq!(stats.misses, 1);
        // Identical bytes once the per-request task id is normalized.
        let mut renamed = second.clone();
        renamed.task_id = first.task_id.clone();
        assert_eq!(
            serde_json::to_vec(&renamed).unwrap(),
            serde_json::to_vec(&first).unwrap(),
            "cached payload must be byte-identical"
        );
        assert_eq!(second.task_id, id2, "hit is re-addressed to the new task");

        // A different seed is a different key: miss.
        let other = TaskBuilder::new("fixture-enwiki-2018")
            .algorithm(Algorithm::PersonalizedPageRank)
            .source("Queen (band)")
            .top_k(5)
            .build()
            .unwrap();
        ex.execute(&TaskId::fresh(), &other).unwrap();
        assert_eq!(ex.cache_stats().misses, 2);
    }

    #[test]
    fn cache_disabled_executor_never_hits() {
        let ex = Executor::with_cache_capacity(0);
        let spec = TaskBuilder::new("fixture-fakenews-it")
            .algorithm(Algorithm::PersonalizedPageRank)
            .source("Fake news")
            .build()
            .unwrap();
        ex.execute(&TaskId::fresh(), &spec).unwrap();
        ex.execute(&TaskId::fresh(), &spec).unwrap();
        let stats = ex.cache_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn cache_eviction_respects_capacity() {
        let ex = Executor::with_cache_capacity(2);
        for source in ["Fake news", "Disinformazione", "Bufala"] {
            let spec = TaskBuilder::new("fixture-fakenews-it")
                .algorithm(Algorithm::PersonalizedPageRank)
                .source(source)
                .build()
                .unwrap();
            ex.execute(&TaskId::fresh(), &spec).unwrap();
        }
        let stats = ex.cache_stats();
        assert_eq!(stats.entries, 2, "capacity bound holds");
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn batch_execute_matches_singles_and_caches() {
        let ex = Executor::new();
        let sources = ["Freddie Mercury", "Queen (band)", "Brian May"];
        let batch = BatchSpec {
            dataset: "fixture-enwiki-2018".into(),
            params: relcore::AlgorithmParams::new(Algorithm::PersonalizedPageRank),
            sources: sources.iter().map(|s| s.to_string()).collect(),
            top_k: 5,
        };
        let ids: Vec<TaskId> = (0..3).map(|_| TaskId::fresh()).collect();
        let results = ex.execute_batch(&ids, &batch).unwrap();
        assert_eq!(results.len(), 3);
        for ((id, source), r) in ids.iter().zip(&sources).zip(&results) {
            assert_eq!(&r.task_id, id);
            assert_eq!(r.source.as_deref(), Some(*source));
            // The batch member equals the individually executed task.
            let single_spec = batch.task_for(sources.iter().position(|s| s == source).unwrap());
            let single = Executor::new().execute(&TaskId::fresh(), &single_spec).unwrap();
            assert_eq!(single.top, r.top, "{source}");
            assert_eq!(single.iterations, r.iterations, "{source}");
        }
        // All three seeds were cached by the batch: re-running them as
        // singles (or batched) hits.
        let before = ex.cache_stats();
        assert_eq!(before.entries, 3);
        let again = ex.execute_batch(&ids, &batch).unwrap();
        assert_eq!(again.len(), 3);
        assert_eq!(ex.cache_stats().hits, before.hits + 3);

        // Partial overlap: one cached seed, one new — only the new one
        // misses.
        let mixed = BatchSpec {
            sources: vec!["Freddie Mercury".into(), "Roger Taylor".into()],
            ..batch.clone()
        };
        let mixed_ids: Vec<TaskId> = (0..2).map(|_| TaskId::fresh()).collect();
        let misses_before = ex.cache_stats().misses;
        let mixed_results = ex.execute_batch(&mixed_ids, &mixed).unwrap();
        assert_eq!(mixed_results[1].source.as_deref(), Some("Roger Taylor"));
        assert_eq!(ex.cache_stats().misses, misses_before + 1);
    }

    #[test]
    fn batch_execute_propagates_errors() {
        let ex = Executor::new();
        let batch = BatchSpec {
            dataset: "fixture-enwiki-2018".into(),
            params: relcore::AlgorithmParams::new(Algorithm::PersonalizedPageRank),
            sources: vec!["Freddie Mercury".into(), "No Such Page".into()],
            top_k: 5,
        };
        let ids: Vec<TaskId> = (0..2).map(|_| TaskId::fresh()).collect();
        match ex.execute_batch(&ids, &batch) {
            Err(EngineError::UnknownSource { source, .. }) => assert_eq!(source, "No Such Page"),
            other => panic!("unexpected {other:?}"),
        }
        // Unknown datasets error before any solve.
        let bad = BatchSpec { dataset: "no-such-dataset".into(), ..batch };
        assert!(matches!(
            ex.execute_batch(&ids, &bad),
            Err(EngineError::UnknownDataset(_) | EngineError::UnknownSource { .. })
        ));
    }

    #[test]
    fn unknown_dataset_error() {
        let spec = TaskBuilder::new("no-such-dataset").build().unwrap();
        assert!(matches!(exec(spec), Err(EngineError::UnknownDataset(_))));
    }

    #[test]
    fn unknown_source_error() {
        for algorithm in [Algorithm::CycleRank, Algorithm::PersonalizedPageRank] {
            let mut spec = TaskBuilder::new("fixture-enwiki-2018")
                .algorithm(algorithm)
                .source("Nonexistent Article")
                .build()
                .unwrap();
            match exec(spec.clone()) {
                Err(EngineError::UnknownSource { source, .. }) => {
                    assert_eq!(source, "Nonexistent Article")
                }
                other => panic!("unexpected {other:?}"),
            }
            // A personalized spec stripped of its source never reaches
            // the solver.
            spec.source = None;
            assert!(matches!(exec(spec), Err(EngineError::MissingSource)), "{algorithm}");
        }
    }

    #[test]
    fn dataset_cache_reuses_graphs() {
        let ex = Executor::new();
        let a = ex.dataset("fixture-fakenews-it").unwrap();
        let b = ex.dataset("fixture-fakenews-it").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(ex.cached_count(), 1);
        ex.dataset("fixture-fakenews-pl").unwrap();
        assert_eq!(ex.cached_count(), 2);
    }

    #[test]
    fn all_seven_algorithms_execute() {
        let ex = Executor::new();
        for algo in Algorithm::ALL {
            let mut b = TaskBuilder::new("fixture-fakenews-it").algorithm(algo).top_k(3);
            if algo.is_personalized() {
                b = b.source("Fake news");
            }
            let spec = b.build().unwrap();
            let r = ex.execute(&TaskId::fresh(), &spec).unwrap();
            assert_eq!(r.top.len(), 3, "{algo}");
        }
    }

    #[test]
    fn numeric_source_on_unlabeled_dataset() {
        // amazon-copurchase carries no labels: the source falls back to a
        // node index.
        let spec = TaskBuilder::new("synthetic-ring")
            .algorithm(Algorithm::CycleRank)
            .source("42")
            .top_k(3)
            .build()
            .unwrap();
        let r = exec(spec).unwrap();
        assert_eq!(r.top[0].0, "42");
        // Out-of-range numeric sources still fail cleanly.
        let spec = TaskBuilder::new("synthetic-ring")
            .algorithm(Algorithm::CycleRank)
            .source("99999999")
            .build()
            .unwrap();
        assert!(matches!(exec(spec), Err(EngineError::UnknownSource { .. })));
        // Labels win over indices when both could apply.
        let ex = Executor::new();
        let mut b = relgraph::GraphBuilder::new();
        b.ensure_node(5);
        b.add_edge_indices(3, 0);
        b.add_edge_indices(0, 3);
        let mut g = b.build();
        g.labels_mut().set(relgraph::NodeId::new(3), "0"); // label "0" on node 3
        ex.register_graph("tricky", g).unwrap();
        let spec = TaskBuilder::new("tricky")
            .algorithm(Algorithm::CycleRank)
            .source("0")
            .top_k(1)
            .build()
            .unwrap();
        let r = ex.execute(&TaskId::fresh(), &spec).unwrap();
        assert_eq!(r.top[0].0, "0", "label lookup must win");
    }

    #[test]
    fn uploaded_graph_is_queryable() {
        let ex = Executor::new();
        let mut b = relgraph::GraphBuilder::new();
        b.add_labeled_edge("me", "friend");
        b.add_labeled_edge("friend", "me");
        ex.register_graph("my-upload", b.build()).unwrap();
        assert_eq!(ex.uploaded_ids(), vec!["my-upload".to_string()]);

        let spec = TaskBuilder::new("my-upload")
            .algorithm(Algorithm::CycleRank)
            .source("me")
            .top_k(2)
            .build()
            .unwrap();
        let r = ex.execute(&TaskId::fresh(), &spec).unwrap();
        assert_eq!(r.top[0].0, "me");
        assert_eq!(r.top[1].0, "friend");
    }

    #[test]
    fn upload_id_collisions_rejected() {
        let ex = Executor::new();
        let g = relgraph::GraphBuilder::from_edge_indices([(0, 1)]);
        // Registry collision.
        assert!(matches!(
            ex.register_graph("wiki-en-2018", g.clone()),
            Err(EngineError::DatasetExists(_))
        ));
        // Upload-upload collision.
        ex.register_graph("mine", g.clone()).unwrap();
        assert!(matches!(ex.register_graph("mine", g), Err(EngineError::DatasetExists(_))));
        // Registry ids are not reported as uploads.
        ex.dataset("fixture-fakenews-pl").unwrap();
        assert_eq!(ex.uploaded_ids(), vec!["mine".to_string()]);
    }

    #[test]
    fn result_serde_roundtrip() {
        let spec = TaskBuilder::new("fixture-fakenews-pl")
            .algorithm(Algorithm::CycleRank)
            .source("Fake news")
            .top_k(4)
            .build()
            .unwrap();
        let r = exec(spec).unwrap();
        let json = serde_json::to_string(&r).unwrap();
        let back: TaskResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn precision_splits_the_result_cache() {
        let ex = Executor::new();
        let spec = TaskBuilder::new("fixture-fakenews-it").top_k(3).build().unwrap();
        assert!(!ex.would_hit_cache(&spec));
        ex.execute(&TaskId::fresh(), &spec).unwrap();
        assert!(ex.would_hit_cache(&spec));
        // An f32 variant of the same task is a distinct cache entry.
        let f32_spec = TaskBuilder::new("fixture-fakenews-it")
            .precision(relcore::Precision::F32)
            .top_k(3)
            .build()
            .unwrap();
        assert!(!ex.would_hit_cache(&f32_spec));
        let r = ex.execute(&TaskId::fresh(), &f32_spec).unwrap();
        assert!(ex.would_hit_cache(&f32_spec));
        assert!(r.converged.unwrap());
    }
}
