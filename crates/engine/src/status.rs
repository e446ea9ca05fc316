//! Task state tracking — the Status component of Fig. 1.
//!
//! The demo's Status component polls executors and answers UI requests for
//! progress. [`StatusBoard`] is the shared-state equivalent and the one
//! owner of an asynchronous task's lifecycle: the scheduler and its workers
//! write each task's record, log lines and result here, and API handlers
//! read them back. The board keeps at most [`MAX_TERMINAL_TASKS`] finished
//! tasks; past that the earliest-finished are evicted, and their ids answer
//! like ids that were never submitted.

use crate::error::EngineError;
use crate::executor::TaskResult;
use crate::task::{TaskId, TaskSpec};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// How many terminal tasks the board retains. It equals relserver's
/// per-request batch limit, so every member of the largest batch one
/// request can submit is still pollable when the batch finishes. A
/// retained result at the default top-100 is about 8 KiB, so the board
/// stays near 8 MiB however long the process serves. Queued and running
/// tasks are never evicted.
pub const MAX_TERMINAL_TASKS: usize = 1024;

/// Lifecycle state of a task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "state", rename_all = "snake_case")]
pub enum TaskState {
    /// Accepted, waiting for a worker.
    Queued,
    /// Being executed by a worker.
    Running,
    /// Finished successfully; the result is on the board.
    Completed,
    /// Finished with an error.
    Failed {
        /// The failure message.
        error: String,
    },
    /// Canceled while still queued (the demo UI's per-row ✕ after submit).
    Canceled,
}

impl TaskState {
    /// True for `Completed`, `Failed` and `Canceled`.
    pub fn is_terminal(&self) -> bool {
        matches!(self, TaskState::Completed | TaskState::Failed { .. } | TaskState::Canceled)
    }
}

/// Residual progress of a task's iterative solve, reported by workers as
/// soon as the solver finishes (PageRank-family tasks only).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolveProgress {
    /// Sweeps performed so far.
    pub iterations: usize,
    /// Latest L1 residual.
    pub residual: f64,
    /// Whether the residual dropped below the tolerance.
    pub converged: bool,
}

/// A task's full status record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskRecord {
    /// The task id.
    pub id: TaskId,
    /// What was submitted.
    pub spec: TaskSpec,
    /// Current state.
    pub state: TaskState,
    /// Submission time (ms since the Unix epoch).
    pub submitted_at_ms: u64,
    /// Completion time, when terminal.
    pub finished_at_ms: Option<u64>,
    /// Residual progress of the underlying solve, when the task runs a
    /// PageRank-family algorithm.
    #[serde(default)]
    pub progress: Option<SolveProgress>,
}

fn now_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

/// Condvar-backed completion signal: every terminal transition bumps the
/// generation and wakes all waiters, so synchronous callers block on the
/// event instead of polling (the 2 ms poll floor used to dominate the
/// served latency of sub-millisecond solves).
#[derive(Debug, Default)]
struct Completions {
    generation: std::sync::Mutex<u64>,
    signal: Condvar,
}

/// One task on the board: its status record, its log, and its result
/// once it completed.
#[derive(Debug)]
struct Entry {
    record: TaskRecord,
    log: String,
    result: Option<TaskResult>,
}

#[derive(Debug, Default)]
struct Tasks {
    entries: HashMap<TaskId, Entry>,
    /// Terminal task ids, earliest-finished first: the eviction order.
    finished: VecDeque<TaskId>,
}

impl Tasks {
    /// Moves a live task into the terminal `state`, storing `result`, and
    /// evicts the earliest-finished tasks past [`MAX_TERMINAL_TASKS`].
    /// Returns false (and changes nothing) for unknown or terminal tasks.
    fn finish(&mut self, id: &TaskId, state: TaskState, result: Option<TaskResult>) -> bool {
        let Some(entry) = self.entries.get_mut(id) else { return false };
        if entry.record.state.is_terminal() {
            return false;
        }
        entry.record.state = state;
        entry.record.finished_at_ms = Some(now_ms());
        entry.result = result;
        self.finished.push_back(id.clone());
        while self.finished.len() > MAX_TERMINAL_TASKS {
            if let Some(evicted) = self.finished.pop_front() {
                self.entries.remove(&evicted);
            }
        }
        true
    }

    /// The outcome of a terminal task; `None` while it is queued or running.
    fn outcome(&self, id: &TaskId) -> Option<Result<TaskResult, EngineError>> {
        let Some(entry) = self.entries.get(id) else {
            return Some(Err(EngineError::UnknownTask(id.to_string())));
        };
        match &entry.record.state {
            TaskState::Queued | TaskState::Running => None,
            TaskState::Completed => Some(
                entry
                    .result
                    .clone()
                    .ok_or_else(|| EngineError::TaskFailed("completed without a result".into())),
            ),
            TaskState::Failed { error } => Some(Err(EngineError::TaskFailed(error.clone()))),
            TaskState::Canceled => Some(Err(EngineError::TaskFailed("canceled".into()))),
        }
    }
}

/// Thread-safe registry of task records, logs and results.
#[derive(Debug, Clone, Default)]
pub struct StatusBoard {
    inner: Arc<RwLock<Tasks>>,
    completions: Arc<Completions>,
}

impl StatusBoard {
    /// Creates an empty board.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a freshly submitted task as queued.
    pub fn enqueue(&self, id: TaskId, spec: TaskSpec) {
        let record = TaskRecord {
            id: id.clone(),
            spec,
            state: TaskState::Queued,
            submitted_at_ms: now_ms(),
            finished_at_ms: None,
            progress: None,
        };
        self.inner.write().entries.insert(id, Entry { record, log: String::new(), result: None });
    }

    /// Records solver progress for a task (workers call this with the
    /// convergence diagnostics of the underlying sweep).
    pub fn record_progress(&self, id: &TaskId, progress: SolveProgress) {
        if let Some(e) = self.inner.write().entries.get_mut(id) {
            e.record.progress = Some(progress);
        }
    }

    /// Appends a line to a task's log (a no-op for unknown ids).
    pub fn append_log(&self, id: &TaskId, line: &str) {
        if let Some(e) = self.inner.write().entries.get_mut(id) {
            e.log.push_str(line);
            e.log.push('\n');
        }
    }

    /// Marks a queued task running. Returns false, changing nothing, when
    /// the task is not queued — canceled before a worker reached it, or
    /// unknown.
    pub fn mark_running(&self, id: &TaskId) -> bool {
        match self.inner.write().entries.get_mut(id) {
            Some(e) if e.record.state == TaskState::Queued => {
                e.record.state = TaskState::Running;
                true
            }
            _ => false,
        }
    }

    /// Marks a task completed with its result: both land under one write
    /// lock, so a poller never sees `completed` without the result.
    pub fn mark_completed(&self, id: &TaskId, result: TaskResult) {
        if self.inner.write().finish(id, TaskState::Completed, Some(result)) {
            self.notify_terminal();
        }
    }

    /// Cancels a task if (and only if) it is still queued; returns whether
    /// the cancellation took effect.
    pub fn cancel_if_queued(&self, id: &TaskId) -> bool {
        let canceled = {
            let mut tasks = self.inner.write();
            let queued = tasks.entries.get(id).is_some_and(|e| e.record.state == TaskState::Queued);
            queued && tasks.finish(id, TaskState::Canceled, None)
        };
        if canceled {
            self.notify_terminal();
        }
        canceled
    }

    /// Marks a task failed with a message.
    pub fn mark_failed(&self, id: &TaskId, error: impl Into<String>) {
        if self.inner.write().finish(id, TaskState::Failed { error: error.into() }, None) {
            self.notify_terminal();
        }
    }

    /// Wakes every [`StatusBoard::wait_terminal`] caller. The record lock
    /// is released by the callers above before this runs, so waiters can
    /// re-check state without lock-order inversion.
    fn notify_terminal(&self) {
        let mut generation = self.completions.generation.lock().unwrap_or_else(|e| e.into_inner());
        *generation = generation.wrapping_add(1);
        self.completions.signal.notify_all();
    }

    /// Blocks until `id` reaches a terminal state or `timeout` passes, then
    /// returns the task's result. Errors: [`EngineError::TaskFailed`] for a
    /// failed or canceled task, [`EngineError::Timeout`] past the deadline,
    /// and [`EngineError::UnknownTask`] for an id the board does not hold
    /// (never submitted, or evicted). Each check reads the state under the
    /// read lock and clones only a terminal task's result. Wakeups are
    /// event-driven: workers signal every terminal transition, so the wait
    /// adds no polling latency on top of the solve itself.
    pub fn wait_terminal(&self, id: &TaskId, timeout: Duration) -> Result<TaskResult, EngineError> {
        let deadline = Instant::now() + timeout;
        let mut generation = self.completions.generation.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            // State check under the generation lock: a transition racing
            // with it must acquire the same lock to notify, so it cannot
            // slip between this check and the wait below.
            if let Some(outcome) = self.inner.read().outcome(id) {
                return outcome;
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return Err(EngineError::Timeout(id.to_string()));
            };
            let (guard, _) = self
                .completions
                .signal
                .wait_timeout(generation, remaining)
                .unwrap_or_else(|e| e.into_inner());
            generation = guard;
        }
    }

    /// Snapshot of one task's record.
    pub fn get(&self, id: &TaskId) -> Option<TaskRecord> {
        self.inner.read().entries.get(id).map(|e| e.record.clone())
    }

    /// A task's result: `None` for unknown ids, `Some(None)` until the task
    /// completes.
    pub fn result(&self, id: &TaskId) -> Option<Option<TaskResult>> {
        self.inner.read().entries.get(id).map(|e| e.result.clone())
    }

    /// A task's log, one line per event (`None` for unknown ids).
    pub fn log(&self, id: &TaskId) -> Option<String> {
        self.inner.read().entries.get(id).map(|e| e.log.clone())
    }

    /// Number of tracked tasks.
    pub fn len(&self) -> usize {
        self.inner.read().entries.len()
    }

    /// True when no tasks are tracked.
    pub fn is_empty(&self) -> bool {
        self.inner.read().entries.is_empty()
    }

    /// Count of tasks in a non-terminal state.
    pub fn pending_count(&self) -> usize {
        self.inner.read().entries.values().filter(|e| !e.record.state.is_terminal()).count()
    }

    /// Aggregate lifecycle metrics across all tracked tasks.
    pub fn metrics(&self) -> BoardMetrics {
        let tasks = self.inner.read();
        let mut m = BoardMetrics::default();
        for r in tasks.entries.values().map(|e| &e.record) {
            m.total += 1;
            match &r.state {
                TaskState::Queued => m.queued += 1,
                TaskState::Running => m.running += 1,
                TaskState::Completed => m.completed += 1,
                TaskState::Failed { .. } => m.failed += 1,
                TaskState::Canceled => m.canceled += 1,
            }
            if let Some(f) = r.finished_at_ms {
                m.total_turnaround_ms += f.saturating_sub(r.submitted_at_ms);
            }
        }
        m
    }
}

/// Aggregate task counts (the demo's admin/metrics view).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoardMetrics {
    /// All tracked tasks.
    pub total: usize,
    /// Waiting for a worker.
    pub queued: usize,
    /// Currently executing.
    pub running: usize,
    /// Finished successfully.
    pub completed: usize,
    /// Finished with an error.
    pub failed: usize,
    /// Canceled before running.
    pub canceled: usize,
    /// Sum of submit→terminal turnaround times.
    pub total_turnaround_ms: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use relcore::runner::{Algorithm, AlgorithmParams};

    fn spec() -> TaskSpec {
        TaskSpec {
            dataset: "ds".into(),
            params: AlgorithmParams::new(Algorithm::PageRank),
            source: None,
            top_k: 5,
        }
    }

    fn result(id: &TaskId) -> TaskResult {
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
    fn lifecycle_transitions() {
        let board = StatusBoard::new();
        let id = TaskId::fresh();
        board.enqueue(id.clone(), spec());
        assert_eq!(board.get(&id).unwrap().state, TaskState::Queued);
        assert_eq!(board.pending_count(), 1);

        assert!(board.mark_running(&id));
        assert_eq!(board.get(&id).unwrap().state, TaskState::Running);
        assert!(!board.mark_running(&id), "only a queued task starts");

        board.mark_completed(&id, result(&id));
        let r = board.get(&id).unwrap();
        assert_eq!(r.state, TaskState::Completed);
        assert!(r.state.is_terminal());
        assert!(r.finished_at_ms.is_some());
        assert!(r.finished_at_ms.unwrap() >= r.submitted_at_ms);
        assert_eq!(board.pending_count(), 0);
    }

    #[test]
    fn result_and_log_live_on_the_board() {
        let board = StatusBoard::new();
        let id = TaskId::fresh();
        assert!(board.result(&id).is_none());
        assert!(board.log(&id).is_none());
        board.append_log(&id, "dropped: unknown task");
        assert!(board.log(&id).is_none());

        board.enqueue(id.clone(), spec());
        assert_eq!(board.result(&id), Some(None), "no result before completion");
        assert_eq!(board.log(&id).unwrap(), "");
        board.append_log(&id, "started");
        board.append_log(&id, "finished");
        assert_eq!(board.log(&id).unwrap(), "started\nfinished\n");

        board.mark_completed(&id, result(&id));
        let back = board.result(&id).unwrap().unwrap();
        assert_eq!(back.top, result(&id).top);
        assert_eq!(back.cycles_found, Some(7));
        // A terminal task takes no second terminal transition.
        board.mark_failed(&id, "late");
        assert_eq!(board.get(&id).unwrap().state, TaskState::Completed);
    }

    #[test]
    fn progress_recorded_and_visible() {
        let board = StatusBoard::new();
        let id = TaskId::fresh();
        board.enqueue(id.clone(), spec());
        assert!(board.get(&id).unwrap().progress.is_none());
        board.mark_running(&id);
        let p = SolveProgress { iterations: 17, residual: 3.2e-11, converged: true };
        board.record_progress(&id, p);
        board.mark_completed(&id, result(&id));
        let r = board.get(&id).unwrap();
        assert_eq!(r.progress, Some(p));
        // Progress on unknown tasks is a no-op.
        board.record_progress(&TaskId::fresh(), p);
    }

    #[test]
    fn failure_records_message() {
        let board = StatusBoard::new();
        let id = TaskId::fresh();
        board.enqueue(id.clone(), spec());
        board.mark_failed(&id, "no such dataset");
        match board.get(&id).unwrap().state {
            TaskState::Failed { error } => assert!(error.contains("dataset")),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(board.result(&id), Some(None));
    }

    #[test]
    fn unknown_ids_are_noops() {
        let board = StatusBoard::new();
        let ghost = TaskId::fresh();
        assert!(!board.mark_running(&ghost));
        board.mark_completed(&ghost, result(&ghost));
        board.mark_failed(&ghost, "x");
        assert!(board.get(&ghost).is_none());
        assert!(board.is_empty());
    }

    #[test]
    fn len_counts_tracked_tasks() {
        let board = StatusBoard::new();
        for _ in 0..3 {
            board.enqueue(TaskId::fresh(), spec());
        }
        assert_eq!(board.len(), 3);
    }

    #[test]
    fn board_is_shared_between_clones() {
        let a = StatusBoard::new();
        let b = a.clone();
        let id = TaskId::fresh();
        a.enqueue(id.clone(), spec());
        b.mark_completed(&id, result(&id));
        assert_eq!(a.get(&id).unwrap().state, TaskState::Completed);
        assert!(a.result(&id).unwrap().is_some());
    }

    #[test]
    fn cancellation_only_while_queued() {
        let board = StatusBoard::new();
        let id = TaskId::fresh();
        board.enqueue(id.clone(), spec());
        assert!(board.cancel_if_queued(&id));
        assert_eq!(board.get(&id).unwrap().state, TaskState::Canceled);
        assert!(board.get(&id).unwrap().state.is_terminal());
        // A second cancel is a no-op, and a canceled task never starts.
        assert!(!board.cancel_if_queued(&id));
        assert!(!board.mark_running(&id));

        // Running tasks cannot be canceled.
        let id2 = TaskId::fresh();
        board.enqueue(id2.clone(), spec());
        board.mark_running(&id2);
        assert!(!board.cancel_if_queued(&id2));
        assert_eq!(board.get(&id2).unwrap().state, TaskState::Running);
    }

    #[test]
    fn metrics_aggregate_counts() {
        let board = StatusBoard::new();
        let ids: Vec<TaskId> = (0..5).map(|_| TaskId::fresh()).collect();
        for id in &ids {
            board.enqueue(id.clone(), spec());
        }
        board.mark_running(&ids[0]);
        board.mark_completed(&ids[1], result(&ids[1]));
        board.mark_failed(&ids[2], "x");
        board.cancel_if_queued(&ids[3]);
        let m = board.metrics();
        assert_eq!(m.total, 5);
        assert_eq!(m.running, 1);
        assert_eq!(m.completed, 1);
        assert_eq!(m.failed, 1);
        assert_eq!(m.canceled, 1);
        assert_eq!(m.queued, 1);
    }

    #[test]
    fn terminal_tasks_are_capped_earliest_finished_first() {
        let board = StatusBoard::new();
        let (queued, running) = (TaskId::fresh(), TaskId::fresh());
        board.enqueue(queued.clone(), spec());
        board.enqueue(running.clone(), spec());
        board.mark_running(&running);
        // Finish in reverse submission order: eviction follows finish
        // order, not submission order.
        let ids: Vec<TaskId> = (0..MAX_TERMINAL_TASKS + 3).map(|_| TaskId::fresh()).collect();
        for id in &ids {
            board.enqueue(id.clone(), spec());
        }
        for id in ids.iter().rev() {
            board.mark_completed(id, result(id));
        }
        assert_eq!(board.len(), MAX_TERMINAL_TASKS + 2);
        let m = board.metrics();
        assert_eq!((m.completed, m.queued, m.running), (MAX_TERMINAL_TASKS, 1, 1));
        // The three that finished first (the last submitted) are gone and
        // answer like unknown ids.
        for id in &ids[MAX_TERMINAL_TASKS..] {
            assert!(board.get(id).is_none());
            assert!(board.result(id).is_none());
            assert!(matches!(
                board.wait_terminal(id, Duration::ZERO),
                Err(EngineError::UnknownTask(_))
            ));
        }
        assert!(board.result(&ids[0]).unwrap().is_some());
        // Live tasks survive any number of completions.
        assert_eq!(board.get(&queued).unwrap().state, TaskState::Queued);
        assert_eq!(board.get(&running).unwrap().state, TaskState::Running);
    }

    #[test]
    fn wait_terminal_wakes_on_completion() {
        let board = StatusBoard::new();
        let id = TaskId::fresh();
        board.enqueue(id.clone(), spec());
        let finisher = {
            let (board, id) = (board.clone(), id.clone());
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                board.mark_completed(&id, result(&id));
            })
        };
        let t = Instant::now();
        let got = board.wait_terminal(&id, Duration::from_secs(10)).expect("completed task");
        assert_eq!(got.task_id, id);
        // Event-driven: woken by the completion, nowhere near the timeout.
        assert!(t.elapsed() < Duration::from_secs(5));
        finisher.join().unwrap();
    }

    #[test]
    fn wait_terminal_times_out_on_a_live_task() {
        let board = StatusBoard::new();
        let id = TaskId::fresh();
        board.enqueue(id.clone(), spec());
        board.mark_running(&id);
        assert!(matches!(
            board.wait_terminal(&id, Duration::from_millis(10)),
            Err(EngineError::Timeout(_))
        ));
        assert_eq!(board.get(&id).unwrap().state, TaskState::Running);
    }

    #[test]
    fn wait_terminal_returns_immediately_when_already_terminal() {
        let board = StatusBoard::new();
        let id = TaskId::fresh();
        board.enqueue(id.clone(), spec());
        board.mark_failed(&id, "boom");
        match board.wait_terminal(&id, Duration::from_secs(10)) {
            Err(EngineError::TaskFailed(e)) => assert_eq!(e, "boom"),
            other => panic!("unexpected {other:?}"),
        }
        // Unknown ids don't block.
        assert!(matches!(
            board.wait_terminal(&TaskId::fresh(), Duration::from_secs(10)),
            Err(EngineError::UnknownTask(_))
        ));
    }

    #[test]
    fn wait_terminal_sees_cancellation() {
        let board = StatusBoard::new();
        let id = TaskId::fresh();
        board.enqueue(id.clone(), spec());
        let canceler = {
            let (board, id) = (board.clone(), id.clone());
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                assert!(board.cancel_if_queued(&id));
            })
        };
        match board.wait_terminal(&id, Duration::from_secs(10)) {
            Err(EngineError::TaskFailed(e)) => assert_eq!(e, "canceled"),
            other => panic!("unexpected {other:?}"),
        }
        canceler.join().unwrap();
    }

    #[test]
    fn state_serde() {
        let s = TaskState::Failed { error: "e".into() };
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("failed"));
        let back: TaskState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
