//! The Scheduler: queueing, worker pool, and result collection (Fig. 1).
//!
//! Tasks submitted through [`Scheduler::submit`] are queued on a crossbeam
//! channel; a pool of worker threads (the paper's "computational nodes",
//! sized by [`SchedulerBuilder::workers`]) pops tasks and executes them
//! through a shared [`Executor`]. The [`StatusBoard`] owns every task's
//! lifecycle: workers write its state, log lines and result there, pollers
//! read them, and [`Scheduler::wait`] blocks until a task reaches a
//! terminal state. Synchronous reads need none of this: relserver answers
//! `?sync=1` by calling [`Executor::execute`] on its own HTTP worker.

use crate::cache::CacheStats;
use crate::datastore::MemoryStore;
use crate::error::EngineError;
use crate::executor::{Executor, TaskResult};
use crate::persist::GraphPersistence;
use crate::status::{SolveProgress, StatusBoard, TaskState};
use crate::task::{BatchSpec, QuerySet, TaskId, TaskSpec};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

enum Job {
    Run(TaskId, TaskSpec),
    RunBatch(Vec<TaskId>, BatchSpec),
    Shutdown,
}

/// Configures a [`Scheduler`].
pub struct SchedulerBuilder {
    workers: usize,
    cache_capacity: usize,
    data_dir: Option<PathBuf>,
    persistence: Option<Arc<GraphPersistence>>,
}

impl SchedulerBuilder {
    /// Number of worker threads (default 2).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Entry capacity of the executor's result cache (default
    /// [`crate::cache::DEFAULT_CACHE_CAPACITY`]); `0` disables result
    /// caching.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Roots a durable graph store at `dir`: boot recovers every dataset
    /// from its snapshot + journal, and every mutation batch is journaled
    /// (fsynced) before it commits. See [`crate::persist`].
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(dir.into());
        self
    }

    /// Attaches an already-built persistence layer — how fault-injection
    /// tests and the scenario harness run a full scheduler over a
    /// [`relstore::FaultInjector`]-backed store. Takes precedence over
    /// [`SchedulerBuilder::data_dir`].
    pub fn persistence(mut self, persist: Arc<GraphPersistence>) -> Self {
        self.persistence = Some(persist);
        self
    }

    /// Starts the worker pool. With a data dir (or an attached
    /// persistence layer), every dataset in the durable store is recovered
    /// into the executor first; without one the executor starts empty.
    ///
    /// # Panics
    /// Panics when a configured data dir cannot be opened or recovered
    /// (corrupt journal, unreadable snapshot); use
    /// [`SchedulerBuilder::try_build`] to handle that gracefully.
    pub fn build(self) -> Scheduler {
        // rellint: allow(panic-hygiene) -- documented contract: build() panics, try_build() is the fallible twin
        self.try_build().expect("scheduler build")
    }

    /// Like [`SchedulerBuilder::build`], surfacing durable-store errors
    /// instead of panicking. Without a data dir this cannot fail.
    pub fn try_build(self) -> Result<Scheduler, EngineError> {
        // Dataset-name queries (Query::on("wiki-en-2018")) resolve through
        // the registry once any engine exists in the process.
        reldata::connect_query_api();
        let (tx, rx) = unbounded::<Job>();
        let mut executor = Executor::with_cache_capacity(self.cache_capacity);
        if let Some(persist) = self.persistence {
            executor.attach_persistence(persist);
        } else if let Some(dir) = &self.data_dir {
            executor.attach_persistence(Arc::new(GraphPersistence::open(dir)?));
        }
        let executor = Arc::new(executor);
        executor.recover_persisted()?;
        let board = StatusBoard::new();
        let handles = (0..self.workers)
            .map(|worker_id| {
                let rx: Receiver<Job> = rx.clone();
                let executor = Arc::clone(&executor);
                let board = board.clone();
                std::thread::spawn(move || worker_loop(worker_id, rx, executor, board))
            })
            .collect();
        Ok(Scheduler { tx, board, store: MemoryStore::new(), executor, handles })
    }
}

fn worker_loop(worker_id: usize, rx: Receiver<Job>, executor: Arc<Executor>, board: StatusBoard) {
    while let Ok(job) = rx.recv() {
        match job {
            Job::Shutdown => break,
            Job::Run(id, spec) => {
                if !board.mark_running(&id) {
                    board.append_log(&id, &format!("worker {worker_id}: skipped (canceled)"));
                    continue;
                }
                board.append_log(
                    &id,
                    &format!("worker {worker_id}: running {}", spec.display_row()),
                );
                match executor.execute(&id, &spec) {
                    Ok(result) => finish_task(worker_id, &board, &id, result),
                    Err(e) => {
                        board.append_log(&id, &format!("worker {worker_id}: failed: {e}"));
                        board.mark_failed(&id, e.to_string());
                    }
                }
            }
            Job::RunBatch(ids, spec) => {
                // Canceled members are still solved (the batch is one fused
                // sweep) but skipped at fan-out: no stored result, no state
                // change past `canceled`.
                let live: Vec<bool> = ids.iter().map(|id| board.mark_running(id)).collect();
                for (id, &live) in ids.iter().zip(&live) {
                    let line = if live {
                        format!(
                            "worker {worker_id}: running in a {}-seed batch ({} | {})",
                            ids.len(),
                            spec.dataset,
                            spec.params.algorithm.display_name(),
                        )
                    } else {
                        format!("worker {worker_id}: skipped (canceled)")
                    };
                    board.append_log(id, &line);
                }
                match executor.execute_batch(&ids, &spec) {
                    Ok(results) => {
                        for ((id, result), live) in ids.iter().zip(results).zip(&live) {
                            if *live {
                                finish_task(worker_id, &board, id, result);
                            }
                        }
                    }
                    Err(e) => {
                        for (id, &live) in ids.iter().zip(&live) {
                            if live {
                                board.append_log(id, &format!("worker {worker_id}: failed: {e}"));
                                board.mark_failed(id, e.to_string());
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Records one finished task on the status board: progress, log lines, and
/// then the result together with the terminal state flip.
fn finish_task(worker_id: usize, board: &StatusBoard, id: &TaskId, result: TaskResult) {
    // Surface the solve's residual progress before flipping the state, so
    // pollers always see convergence data alongside `completed`.
    if let (Some(iterations), Some(residual), Some(converged)) =
        (result.iterations, result.residual, result.converged)
    {
        board.record_progress(id, SolveProgress { iterations, residual, converged });
        board.append_log(
            id,
            &format!(
                "worker {worker_id}: solver {} after {iterations} iterations \
                 (residual {residual:.3e})",
                if converged { "converged" } else { "hit the iteration cap" },
            ),
        );
    }
    board.append_log(id, &format!("worker {worker_id}: done in {}ms", result.runtime_ms));
    board.mark_completed(id, result);
}

/// The running engine: submit tasks, poll status, fetch results.
///
/// Dropping the scheduler shuts the worker pool down (in-flight tasks
/// finish; queued tasks are abandoned only if the process exits).
pub struct Scheduler {
    tx: Sender<Job>,
    board: StatusBoard,
    store: MemoryStore,
    executor: Arc<Executor>,
    handles: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Starts building a scheduler.
    pub fn builder() -> SchedulerBuilder {
        SchedulerBuilder {
            workers: 2,
            cache_capacity: crate::cache::DEFAULT_CACHE_CAPACITY,
            data_dir: None,
            persistence: None,
        }
    }

    /// Registers a user-uploaded graph so tasks can reference it by id
    /// (see [`Executor::register_graph`]).
    ///
    /// With a data dir the upload is snapshotted to relstore before it
    /// becomes visible, so a scheduler rebuilt over the same directory
    /// restores it. Without one the upload lives only in this executor.
    pub fn register_dataset(
        &self,
        id: &str,
        graph: relgraph::DirectedGraph,
    ) -> Result<(), EngineError> {
        self.executor.register_graph(id, graph)
    }

    /// Submits a [`relcore::Query`] against a named dataset; returns its
    /// task id immediately.
    ///
    /// The fluent single-task front door for engine execution
    /// (multi-query flows like the CLI's `compare` convert each query
    /// with [`TaskSpec::from_query`] and submit them as a query set to
    /// keep the shared permalink id). Fails with
    /// [`EngineError::UnsupportedQuery`] for queries the task wire format
    /// cannot express (graph targets, node-id references, non-task-JSON
    /// algorithms); run those directly with [`relcore::Query::run`].
    pub fn submit_query(&self, query: relcore::Query) -> Result<TaskId, EngineError> {
        Ok(self.submit(TaskSpec::from_query(&query)?))
    }

    /// Submits one task; returns its id immediately.
    pub fn submit(&self, spec: TaskSpec) -> TaskId {
        let id = TaskId::fresh();
        self.board.enqueue(id.clone(), spec.clone());
        // Send cannot fail while workers hold the receiver.
        let _ = self.tx.send(Job::Run(id.clone(), spec));
        id
    }

    /// Submits every task of a query set; returns ids in set order.
    pub fn submit_query_set(&self, qs: &QuerySet) -> Vec<TaskId> {
        qs.tasks().iter().map(|t| self.submit(t.clone())).collect()
    }

    /// Submits a multi-seed batch; returns one task id per seed, in seed
    /// order, immediately.
    ///
    /// The batch is scheduled as a single job: seeds missing from the
    /// result cache share one multi-vector solve, and every seed's result
    /// fans back out to its own id — each polls, waits, and stores exactly
    /// like an individually submitted task.
    pub fn submit_batch(&self, spec: BatchSpec) -> Vec<TaskId> {
        let ids: Vec<TaskId> = (0..spec.sources.len()).map(|_| TaskId::fresh()).collect();
        for (i, id) in ids.iter().enumerate() {
            self.board.enqueue(id.clone(), spec.task_for(i));
        }
        let _ = self.tx.send(Job::RunBatch(ids.clone(), spec));
        ids
    }

    /// Hit/miss/eviction counters of the executor's result cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.executor.cache_stats()
    }

    /// Applies a batch of edge mutations to a dataset (see
    /// [`Executor::mutate_dataset`]): atomic, version-bumping, and
    /// cache-invalidating. With a data dir the batch is journaled (fsynced)
    /// to relstore before it commits, so a restart replays it.
    pub fn mutate_dataset(
        &self,
        id: &str,
        ops: &[crate::mutation::EdgeOp],
    ) -> Result<crate::mutation::MutationOutcome, EngineError> {
        self.executor.mutate_dataset(id, ops)
    }

    /// Number of worker threads currently running.
    pub fn worker_count(&self) -> usize {
        self.handles.len()
    }

    /// Cancels a queued task (no effect once a worker picked it up).
    /// Returns whether the cancellation took effect.
    pub fn cancel(&self, id: &TaskId) -> bool {
        self.board.cancel_if_queued(id)
    }

    /// Aggregate task metrics.
    pub fn metrics(&self) -> crate::status::BoardMetrics {
        self.board.metrics()
    }

    /// Current status of a task.
    pub fn status(&self, id: &TaskId) -> Result<TaskState, EngineError> {
        self.board.get(id).map(|r| r.state).ok_or_else(|| EngineError::UnknownTask(id.to_string()))
    }

    /// The status board (for UI polling).
    pub fn board(&self) -> &StatusBoard {
        &self.board
    }

    /// The in-memory dataset codec ([`MemoryStore`]). The scheduler never
    /// writes to it; task results and logs are on [`Scheduler::board`].
    pub fn store(&self) -> &MemoryStore {
        &self.store
    }

    /// The shared executor (exposes the dataset cache).
    pub fn executor(&self) -> &Arc<Executor> {
        &self.executor
    }

    /// Blocks until `id` reaches a terminal state, then returns its result
    /// from the status board.
    ///
    /// Returns [`EngineError::Timeout`] if the deadline passes,
    /// [`EngineError::TaskFailed`] if the task failed or was canceled, and
    /// [`EngineError::UnknownTask`] for an id the board does not hold
    /// (never submitted, or evicted after
    /// [`crate::status::MAX_TERMINAL_TASKS`] later tasks finished).
    pub fn wait(&self, id: &TaskId, timeout: Duration) -> Result<TaskResult, EngineError> {
        self.board.wait_terminal(id, timeout)
    }

    /// Waits for a batch of tasks (e.g. a submitted query set).
    pub fn wait_all(
        &self,
        ids: &[TaskId],
        timeout: Duration,
    ) -> Result<Vec<TaskResult>, EngineError> {
        let deadline = Instant::now() + timeout;
        ids.iter()
            .map(|id| {
                let remaining = deadline.saturating_duration_since(Instant::now());
                self.wait(id, remaining)
            })
            .collect()
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        for _ in &self.handles {
            let _ = self.tx.send(Job::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TaskBuilder;
    use relcore::runner::Algorithm;

    const T: Duration = Duration::from_secs(60);

    fn cyclerank_task(dataset: &str, source: &str) -> TaskSpec {
        TaskBuilder::new(dataset)
            .algorithm(Algorithm::CycleRank)
            .source(source)
            .top_k(5)
            .build()
            .unwrap()
    }

    #[test]
    fn end_to_end_single_task() {
        let s = Scheduler::builder().workers(1).build();
        let id = s.submit(cyclerank_task("fixture-fakenews-it", "Fake news"));
        let r = s.wait(&id, T).unwrap();
        assert_eq!(r.top[0].0, "Fake news");
        assert_eq!(r.top[1].0, "Disinformazione");
        assert_eq!(s.status(&id).unwrap(), TaskState::Completed);
        // Logs were recorded.
        let log = s.board().log(&id).unwrap();
        assert!(log.contains("running"));
        assert!(log.contains("done"));
    }

    #[test]
    fn status_carries_residual_progress() {
        let s = Scheduler::builder().workers(1).build();
        let id = s.submit(TaskBuilder::new("fixture-enwiki-2018").top_k(3).build().unwrap());
        let r = s.wait(&id, T).unwrap();
        let record = s.board().get(&id).unwrap();
        let progress = record.progress.expect("pagerank task reports progress");
        assert_eq!(Some(progress.iterations), r.iterations);
        assert_eq!(Some(progress.residual), r.residual);
        assert!(progress.converged);
        let log = s.board().log(&id).unwrap();
        assert!(log.contains("converged"), "{log}");
        // CycleRank has no iterative solve: no progress recorded.
        let id = s.submit(cyclerank_task("fixture-fakenews-it", "Fake news"));
        s.wait(&id, T).unwrap();
        assert!(s.board().get(&id).unwrap().progress.is_none());
    }

    #[test]
    fn submit_query_end_to_end() {
        let s = Scheduler::builder().workers(1).build();
        let id = s
            .submit_query(
                relcore::Query::on("fixture-fakenews-it")
                    .algorithm("cyclerank")
                    .reference("Fake news")
                    .k(3)
                    .top(5),
            )
            .unwrap();
        let r = s.wait(&id, T).unwrap();
        assert_eq!(r.algorithm, "cyclerank");
        assert_eq!(r.top[0].0, "Fake news");
        assert_eq!(r.top.len(), 5);
    }

    #[test]
    fn submit_query_rejects_inexpressible_queries() {
        let s = Scheduler::builder().workers(1).build();
        // Graph targets cannot be queued by name.
        let g = relgraph::GraphBuilder::from_edge_indices([(0, 1), (1, 0)]);
        assert!(matches!(
            s.submit_query(relcore::Query::on(g).algorithm("pagerank")),
            Err(EngineError::UnsupportedQuery(_))
        ));
        // Node-id references would resolve label-first on the worker and
        // could silently bind to the wrong node; refused up front.
        assert!(matches!(
            s.submit_query(
                relcore::Query::on("fixture-fakenews-it")
                    .algorithm("cyclerank")
                    .reference(relgraph::NodeId::new(3)),
            ),
            Err(EngineError::UnsupportedQuery(_))
        ));
    }

    #[test]
    fn task_builder_into_query_runs_through_scheduler() {
        let s = Scheduler::builder().workers(1).build();
        let query = TaskBuilder::new("fixture-fakenews-pl")
            .algorithm(Algorithm::CycleRank)
            .source("Fake news")
            .top_k(4)
            .into_query()
            .unwrap();
        let id = s.submit_query(query).unwrap();
        let r = s.wait(&id, T).unwrap();
        assert_eq!(r.top[0].0, "Fake news");
        assert_eq!(r.top.len(), 4);
    }

    #[test]
    fn batch_fans_out_to_individual_results() {
        let s = Scheduler::builder().workers(2).build();
        let sources = ["Freddie Mercury", "Queen (band)", "Brian May", "Roger Taylor"];
        let batch = BatchSpec {
            dataset: "fixture-enwiki-2018".into(),
            params: relcore::AlgorithmParams::new(Algorithm::PersonalizedPageRank),
            sources: sources.iter().map(|s| s.to_string()).collect(),
            top_k: 5,
        };
        let ids = s.submit_batch(batch);
        assert_eq!(ids.len(), 4);
        let results = s.wait_all(&ids, T).unwrap();
        for (r, source) in results.iter().zip(&sources) {
            assert_eq!(r.source.as_deref(), Some(*source));
            assert_eq!(r.top.len(), 5);
            assert_eq!(r.top[0].0, *source, "PPR's top hit is the seed itself");
            assert!(r.converged.unwrap());
        }
        // Every member polls like an ordinary task: status, result, log.
        for (id, r) in ids.iter().zip(&results) {
            assert_eq!(s.status(id).unwrap(), TaskState::Completed);
            assert_eq!(s.board().result(id).unwrap().as_ref(), Some(r));
            assert!(s.board().log(id).unwrap().contains("batch"));
        }
        let m = s.metrics();
        assert_eq!(m.completed, 4);

        // Resubmitting the same seeds is served from the result cache.
        let before = s.cache_stats();
        let batch2 = BatchSpec {
            dataset: "fixture-enwiki-2018".into(),
            params: relcore::AlgorithmParams::new(Algorithm::PersonalizedPageRank),
            sources: sources.iter().map(|s| s.to_string()).collect(),
            top_k: 5,
        };
        let ids2 = s.submit_batch(batch2);
        let again = s.wait_all(&ids2, T).unwrap();
        assert_eq!(s.cache_stats().hits, before.hits + 4);
        for (a, b) in results.iter().zip(&again) {
            assert_eq!(a.top, b.top);
        }
    }

    #[test]
    fn batch_failure_marks_all_members() {
        let s = Scheduler::builder().workers(1).build();
        let batch = BatchSpec {
            dataset: "fixture-enwiki-2018".into(),
            params: relcore::AlgorithmParams::new(Algorithm::PersonalizedPageRank),
            sources: vec!["Freddie Mercury".into(), "No Such Page".into()],
            top_k: 3,
        };
        let ids = s.submit_batch(batch);
        for id in &ids {
            assert!(matches!(s.wait(id, T), Err(EngineError::TaskFailed(_))));
        }
        assert_eq!(s.metrics().failed, 2);
    }

    #[test]
    fn cache_stats_observable_and_disableable() {
        let s = Scheduler::builder().workers(1).cache_capacity(0).build();
        let spec = TaskBuilder::new("fixture-fakenews-it")
            .algorithm(Algorithm::PersonalizedPageRank)
            .source("Fake news")
            .build()
            .unwrap();
        let a = s.submit(spec.clone());
        s.wait(&a, T).unwrap();
        let b = s.submit(spec);
        s.wait(&b, T).unwrap();
        let stats = s.cache_stats();
        assert_eq!(stats.capacity, 0);
        assert_eq!(stats.hits, 0, "capacity 0 disables the cache");
    }

    #[test]
    fn failed_task_reports_error() {
        let s = Scheduler::builder().workers(1).build();
        let id = s.submit(cyclerank_task("fixture-fakenews-it", "No Such Page"));
        match s.wait(&id, T) {
            Err(EngineError::TaskFailed(e)) => assert!(e.contains("No Such Page")),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(s.status(&id).unwrap(), TaskState::Failed { .. }));
    }

    #[test]
    fn unknown_task_status() {
        let s = Scheduler::builder().workers(1).build();
        assert!(matches!(s.status(&TaskId::fresh()), Err(EngineError::UnknownTask(_))));
    }

    #[test]
    fn query_set_runs_all_rows() {
        // The Fig. 2 scenario: three algorithms over one dataset.
        let s = Scheduler::builder().workers(3).build();
        let mut qs = QuerySet::new();
        qs.add(cyclerank_task("fixture-fakenews-pl", "Fake news"));
        qs.add(TaskBuilder::new("fixture-fakenews-pl").top_k(5).build().unwrap());
        qs.add(
            TaskBuilder::new("fixture-fakenews-pl")
                .algorithm(Algorithm::PersonalizedPageRank)
                .damping(0.3)
                .source("Fake news")
                .top_k(5)
                .build()
                .unwrap(),
        );
        let ids = s.submit_query_set(&qs);
        assert_eq!(ids.len(), 3);
        let results = s.wait_all(&ids, T).unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].algorithm, "cyclerank");
        assert_eq!(results[1].algorithm, "pagerank");
        assert_eq!(results[2].algorithm, "ppr");
    }

    #[test]
    fn parallel_workers_share_dataset_cache() {
        let s = Scheduler::builder().workers(4).build();
        let ids: Vec<TaskId> =
            (0..8).map(|_| s.submit(cyclerank_task("fixture-fakenews-nl", "Nepnieuws"))).collect();
        let results = s.wait_all(&ids, T).unwrap();
        assert!(results.iter().all(|r| r.top[0].0 == "Nepnieuws"));
        // One dataset, cached once.
        assert_eq!(s.executor().cached_count(), 1);
    }

    #[test]
    fn timeout_on_zero_deadline() {
        let s = Scheduler::builder().workers(1).build();
        // Submit a task and wait with an already-expired deadline; whether
        // the task happens to finish first is racy, so only assert that a
        // Timeout error is possible shape-wise when returned.
        let id = s.submit(cyclerank_task("fixture-fakenews-de", "Fake News"));
        match s.wait(&id, Duration::ZERO) {
            Ok(_) | Err(EngineError::Timeout(_)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn canceled_queued_tasks_are_skipped() {
        // One worker, many tasks: cancel the tail while the head runs.
        let s = Scheduler::builder().workers(1).build();
        let ids: Vec<TaskId> =
            (0..6).map(|_| s.submit(cyclerank_task("fixture-fakenews-de", "Fake News"))).collect();
        // Cancel whatever is still queued; at least the last task should
        // usually be cancellable, but the assertion tolerates an empty set
        // (if the worker raced through everything already).
        let mut canceled = Vec::new();
        for id in ids.iter().rev() {
            if s.cancel(id) {
                canceled.push(id.clone());
            }
        }
        // Every non-canceled task completes; canceled ones never produce a
        // result and report the canceled state.
        for id in &ids {
            if canceled.contains(id) {
                assert!(matches!(s.status(id).unwrap(), TaskState::Canceled));
                assert!(matches!(s.wait(id, T), Err(EngineError::TaskFailed(_))));
                assert_eq!(s.board().result(id), Some(None));
            } else {
                s.wait(id, T).unwrap();
            }
        }
        let m = s.metrics();
        assert_eq!(m.total, 6);
        assert_eq!(m.canceled, canceled.len());
        assert_eq!(m.completed, 6 - canceled.len());
    }

    #[test]
    fn metrics_reflect_lifecycle() {
        let s = Scheduler::builder().workers(2).build();
        let ok = s.submit(cyclerank_task("fixture-fakenews-pl", "Fake news"));
        let bad = s.submit(cyclerank_task("fixture-fakenews-pl", "No Such Page"));
        s.wait(&ok, T).unwrap();
        let _ = s.wait(&bad, T);
        let m = s.metrics();
        assert_eq!(m.total, 2);
        assert_eq!(m.completed, 1);
        assert_eq!(m.failed, 1);
    }

    #[test]
    fn drop_joins_workers() {
        let s = Scheduler::builder().workers(2).build();
        let id = s.submit(cyclerank_task("fixture-fakenews-fr", "Fake news"));
        s.wait(&id, T).unwrap();
        drop(s); // must not hang
    }
}
