//! The three workloads, driven over HTTP against `relrank serve` in a
//! child process: set-up, the measured phase, the server's own counters,
//! and every output and durability check.

use crate::client::{Conn, Response, Server};
use crate::gen::{self, ColdStream, ReadStream, Request, WriteStream};
use crate::load::{self, Timing, WallClock};
use crate::oracle::{self, Oracle};
use relengine::TaskSpec;
use relgraph::DirectedGraph;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeHot,
    CompareCold,
    MutateMix,
}

/// `serve_hot`'s offered rate, requests per second. An assumption
/// (README, "Traffic assumptions").
pub const HOT_RATE: f64 = 1000.0;
/// `serve_hot`'s latency limit for `within_limit_frac`.
pub const HOT_LIMIT: Duration = Duration::from_millis(5);
/// Scheduler solver workers and expensive-lane permits of every
/// workload's server: two client connections never need more, so the
/// designed load sheds nothing.
pub const SOLVER_WORKERS: usize = 2;
pub const MAX_EXPENSIVE: usize = 2;
/// Dataset id of the `mutate_mix` upload.
pub const MIX_DATASET: &str = "mix-upload";
/// Sources `mutate_mix`'s set-up reads after the upload, the ones the
/// reader draws most, each full-rank and certified top-k. The reads size
/// the solver arena, the snapshot and the push workspace, and at ~0.5 s
/// they make the set-up, which leaves the upload out, long enough that a
/// short slow spell of the host does not decide it (README, "Host noise").
const MIX_WARM_SOURCES: usize = 16;
/// Share of served answers checked against the oracle, and a cap.
const CHECK_SHARE: f64 = 0.02;
const CHECK_CAP: usize = 48;

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ServeHot, Workload::CompareCold, Workload::MutateMix];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve_hot",
            Workload::CompareCold => "compare_cold",
            Workload::MutateMix => "mutate_mix",
        }
    }

    /// Servers started per untraced run; `setup_s` is the median of their
    /// set-up times. `compare_cold`'s set-up is the shortest (~0.5 s) and
    /// the most exposed to short slow spells of the host, so it takes more.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::ServeHot | Workload::MutateMix => 3,
            Workload::CompareCold => 5,
        }
    }

    /// Catalog datasets the workload reads.
    pub fn datasets(self) -> Vec<&'static str> {
        match self {
            Workload::ServeHot => gen::HOT_DATASETS.to_vec(),
            Workload::CompareCold => gen::cold_datasets(),
            Workload::MutateMix => Vec::new(),
        }
    }
}

/// Everything generated from the seed before any server starts.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// Client-side copies of the catalog graphs, for the oracle.
    pub graphs: HashMap<String, Arc<DirectedGraph>>,
    /// `serve_hot`: the working set and the full scheduled stream.
    pub hot_set: Vec<TaskSpec>,
    pub hot_stream: Vec<Request>,
    /// `mutate_mix`: the upload.
    pub mix_edges: Vec<(u32, u32)>,
    pub mix_pajek: String,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, seconds: f64) -> Inputs {
        let graphs: HashMap<String, Arc<DirectedGraph>> = workload
            .datasets()
            .into_iter()
            .map(|id| {
                let g = reldata::load_dataset(id).expect("catalog datasets load");
                (id.to_string(), Arc::new(g))
            })
            .collect();
        let pools = |ids: &[&str]| -> Vec<Vec<String>> {
            ids.iter().map(|id| gen::source_pool(&graphs[*id])).collect()
        };
        let mut inputs = Inputs {
            workload,
            seed,
            graphs: HashMap::new(),
            hot_set: Vec::new(),
            hot_stream: Vec::new(),
            mix_edges: Vec::new(),
            mix_pajek: String::new(),
        };
        match workload {
            Workload::ServeHot => {
                inputs.hot_set = gen::hot_working_set(seed, &pools(&gen::HOT_DATASETS));
                let n = (HOT_RATE * seconds).round() as usize;
                inputs.hot_stream = gen::hot_stream(seed, &inputs.hot_set, n);
            }
            Workload::CompareCold => {}
            Workload::MutateMix => {
                inputs.mix_edges = gen::mix_edges(seed);
                inputs.mix_pajek = gen::mix_pajek(&inputs.mix_edges);
            }
        }
        inputs.graphs = graphs;
        inputs
    }

    pub fn cold_stream(&self) -> ColdStream {
        let pools: Vec<Vec<String>> =
            gen::COLD_A_DATASETS.iter().map(|id| gen::source_pool(&self.graphs[*id])).collect();
        ColdStream::new(self.seed, &pools)
    }

    pub fn upload_body(&self) -> Vec<u8> {
        gen::upload_body(MIX_DATASET, &self.mix_pajek)
    }
}

/// Whether request `i` of a stream is one of the checked sample.
fn sampled(seed: u64, stream: u64, i: usize) -> bool {
    let mut rng = gen::Rng::new(seed ^ (stream << 48) ^ (i as u64).wrapping_mul(0x9E37_79B9));
    rng.unit() < CHECK_SHARE
}

/// One measured request.
pub struct Rec {
    pub timing: Timing,
    pub write: bool,
    /// Why it failed, if it did.
    pub fail: Option<String>,
    /// A sampled task answer kept for the oracle.
    pub kept: Option<Kept>,
}

/// A served answer the oracle checks after the run, with the range of
/// graph versions it may have been computed on (`mutate_mix`; 0 and 0 on
/// catalog datasets).
pub struct Kept {
    spec: TaskSpec,
    served: serde_json::Value,
    versions: (u64, u64),
}

/// Sends one request and applies the checks that need no oracle.
fn exchange(conn: &mut Conn, req: &Request) -> (Option<String>, Option<serde_json::Value>) {
    let resp = match conn.send(&req.raw()) {
        Ok(r) => r,
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
            return (Some("timeout".into()), None)
        }
        Err(e) if e.kind() == std::io::ErrorKind::TimedOut => {
            return (Some("timeout".into()), None)
        }
        Err(e) => return (Some(format!("io: {e}")), None),
    };
    let json = resp.json();
    (check(req, &resp, json.as_ref()), json)
}

/// Why an answer fails, judged without the oracle.
fn check(req: &Request, resp: &Response, json: Option<&serde_json::Value>) -> Option<String> {
    match resp.status {
        200 => {}
        429 | 503 => return Some(format!("shed {}", resp.status)),
        s => {
            let body = String::from_utf8_lossy(&resp.body);
            return Some(format!("http {s}: {}", body.chars().take(160).collect::<String>()));
        }
    }
    let Some(json) = json else { return Some("check: body is not JSON".into()) };
    match req {
        Request::Task { .. } => {
            let spec = req.effective_spec().expect("task requests carry a spec");
            oracle::check_shape(&spec, json).err().map(|e| format!("check: {e}"))
        }
        Request::Get(_) => None,
        Request::Edge { .. } => (json["applied"].as_u64() != Some(1))
            .then(|| format!("check: write applied {}", json["applied"])),
    }
}

/// The server's own counters: `(cache, serving, metrics)` JSON.
pub struct ServerStats(serde_json::Value, serde_json::Value, serde_json::Value);

fn server_stats(conn: &mut Conn) -> ServerStats {
    let get = |conn: &mut Conn, path: &str| {
        conn.get(path).ok().and_then(|r| r.json()).unwrap_or(serde_json::Value::Null)
    };
    ServerStats(
        get(conn, "/api/cache/stats"),
        get(conn, "/api/serving/stats"),
        get(conn, "/api/metrics"),
    )
}

/// Per-run results of the untraced HTTP phase.
pub struct HttpRun {
    /// Set-up times, less the upload on `mutate_mix`.
    pub setup_s: Vec<f64>,
    /// `mutate_mix` upload round trips, one per set-up.
    pub upload_s: Vec<f64>,
    pub records: Vec<Rec>,
    pub lateness_ms: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Processor time the server used during the measured phase.
    pub server_cpu_s: f64,
    pub before: ServerStats,
    pub after: ServerStats,
    /// Check failures outside individual requests (final version,
    /// durability, oracle), each a message.
    pub errors: Vec<String>,
    pub oracle_checked: usize,
}

impl HttpRun {
    fn delta(&self, f: impl Fn(&ServerStats) -> &serde_json::Value, key: &str) -> f64 {
        let v = |s: &ServerStats| f(s)[key].as_f64().unwrap_or(0.0);
        v(&self.after) - v(&self.before)
    }

    pub fn cache_delta(&self, key: &str) -> f64 {
        self.delta(|s| &s.0, key)
    }

    pub fn serving_delta(&self, key: &str) -> f64 {
        self.delta(|s| &s.1, key)
    }

    pub fn tasks_retained(&self) -> f64 {
        self.after.2["total"].as_f64().unwrap_or(0.0)
    }
}

/// A private work directory under `root`, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(root: &Path, tag: &str) -> WorkDir {
        let dir = root.join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the benchmark's work directory");
        WorkDir(dir)
    }

    pub fn path_str(&self) -> &str {
        self.0.to_str().expect("work directories are UTF-8")
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Starts a server and brings it to ready for the first measured request.
/// Also returns the round trip of the `mutate_mix` upload (zero on the
/// other workloads), which `setup_s` leaves out (README, "Host noise").
fn set_up(
    inputs: &Inputs,
    work: &Path,
    rep: usize,
) -> (Server, Option<WorkDir>, [Conn; 2], Duration) {
    let data =
        (inputs.workload == Workload::MutateMix).then(|| WorkDir::new(work, &format!("data{rep}")));
    let server = Server::spawn(SOLVER_WORKERS, MAX_EXPENSIVE, data.as_ref().map(|d| d.path_str()));
    let mut conns = [Conn::new(server.addr), Conn::new(server.addr)];
    let must = |resp: std::io::Result<Response>, what: &str| match resp {
        Ok(r) if r.status == 200 => r,
        Ok(r) => panic!("set-up {what}: HTTP {} {}", r.status, String::from_utf8_lossy(&r.body)),
        Err(e) => panic!("set-up {what}: {e}"),
    };
    let mut upload = Duration::ZERO;
    match inputs.workload {
        Workload::ServeHot => {
            // Warm every working-set spec and memoize the exploration
            // reads, split over both connections.
            let mut warm: Vec<Request> = inputs
                .hot_set
                .iter()
                .map(|spec| Request::Task { spec: spec.clone(), certified_k: None })
                .collect();
            warm.extend(gen::hot_gets().into_iter().map(Request::Get));
            std::thread::scope(|s| {
                for (t, conn) in conns.iter_mut().enumerate() {
                    let warm = &warm;
                    s.spawn(move || {
                        for req in warm.iter().skip(t).step_by(2) {
                            must(conn.send(&req.raw()), "warm-up");
                        }
                    });
                }
            });
        }
        Workload::CompareCold => {
            // Generate every dataset on the server, then warm it up.
            for id in inputs.workload.datasets() {
                must(conns[0].get(&format!("/api/datasets/{id}/stats")), "dataset load");
            }
            for spec in gen::cold_warmup() {
                let req = Request::Task { spec, certified_k: None };
                must(conns[0].send(&req.raw()), "warm-up");
            }
        }
        Workload::MutateMix => {
            let body = inputs.upload_body();
            let start = Instant::now();
            must(conns[0].send(&gen::http_bytes("POST", "/api/datasets", &body)), "upload");
            upload = start.elapsed();
            for req in gen::mix_warmup(inputs.seed, MIX_DATASET, MIX_WARM_SOURCES) {
                must(conns[1].send(&req.raw()), "warm read");
            }
        }
    }
    (server, data, conns, upload)
}

/// Runs the untraced HTTP phase: `reps` set-ups (the last one is
/// measured), then `seconds` of load, then every check.
pub fn run_http(inputs: &Inputs, seconds: f64, reps: usize, work: &Path) -> HttpRun {
    let (mut setup_s, mut upload_s) = (Vec::new(), Vec::new());
    let mut last = None;
    for rep in 0..reps {
        let start = Instant::now();
        let (server, data, conns, upload) = set_up(inputs, work, rep);
        setup_s.push((start.elapsed() - upload).as_secs_f64());
        if inputs.workload == Workload::MutateMix {
            upload_s.push(upload.as_secs_f64());
        }
        last = Some((server, data, conns));
    }
    let (server, data, mut conns) = last.expect("at least one set-up");
    let before = server_stats(&mut conns[0]);
    let measure = Duration::from_secs_f64(seconds);
    let mut run = HttpRun {
        setup_s,
        upload_s,
        records: Vec::new(),
        lateness_ms: Vec::new(),
        peak_rss_mb: 0.0,
        server_cpu_s: 0.0,
        before,
        after: ServerStats(
            serde_json::Value::Null,
            serde_json::Value::Null,
            serde_json::Value::Null,
        ),
        errors: Vec::new(),
        oracle_checked: 0,
    };
    let mut writes: Vec<Request> = Vec::new();
    let cpu_before = server.cpu_s();
    match inputs.workload {
        Workload::ServeHot => drive_hot(inputs, &mut conns, &mut run),
        Workload::CompareCold => drive_cold(inputs, &mut conns, measure, &mut run),
        Workload::MutateMix => writes = drive_mix(inputs, &mut conns, measure, &mut run),
    }
    run.server_cpu_s = server.cpu_s() - cpu_before;
    run.after = server_stats(&mut conns[0]);
    if inputs.workload == Workload::MutateMix {
        let served = conns[0]
            .get(&format!("/api/datasets/{MIX_DATASET}/stats"))
            .ok()
            .and_then(|r| r.json())
            .and_then(|j| j["version"].as_u64());
        if served != Some(writes.len() as u64) {
            run.errors.push(format!(
                "final served version {served:?} differs from the last acknowledged version {}",
                writes.len()
            ));
        }
    }
    run.peak_rss_mb = server.peak_rss_mb();
    drop(conns);
    server.kill();
    match inputs.workload {
        Workload::MutateMix => {
            let data = data.expect("mutate_mix runs with a data directory");
            check_mix(inputs, &writes, &data, &mut run);
        }
        _ => check_catalog(inputs, &mut run),
    }
    run
}

fn drive_hot(inputs: &Inputs, conns: &mut [Conn; 2], run: &mut HttpRun) {
    let dues: Vec<Duration> = (0..inputs.hot_stream.len())
        .map(|i| Duration::from_secs_f64(i as f64 / HOT_RATE))
        .collect();
    let clock = WallClock(Instant::now());
    let per_conn: Vec<Vec<(usize, Rec)>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(t, conn)| {
                let (clock, dues) = (&clock, &dues);
                s.spawn(move || {
                    let mine: Vec<usize> = (t..dues.len()).step_by(2).collect();
                    let my_dues: Vec<Duration> = mine.iter().map(|&i| dues[i]).collect();
                    load::open_loop(clock, &my_dues, |k| {
                        let i = mine[k];
                        let req = &inputs.hot_stream[i];
                        let (fail, json) = exchange(conn, req);
                        (i, fail, json)
                    })
                    .into_iter()
                    .map(|(timing, (i, fail, json))| {
                        let kept =
                            keep(sampled(inputs.seed, 0, i), &inputs.hot_stream[i], &fail, json);
                        (i, Rec { timing, write: false, fail, kept })
                    })
                    .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    for recs in per_conn {
        let timings: Vec<Timing> = recs.iter().map(|(_, r)| r.timing).collect();
        run.lateness_ms
            .extend(load::generator_lateness(&timings).iter().map(|d| d.as_secs_f64() * 1e3));
        run.records.extend(recs.into_iter().map(|(_, r)| r));
    }
}

/// Keeps a sampled, successful task answer for the oracle.
fn keep(
    sampled: bool,
    req: &Request,
    fail: &Option<String>,
    json: Option<serde_json::Value>,
) -> Option<Kept> {
    if fail.is_some() || !sampled {
        return None;
    }
    Some(Kept { spec: req.effective_spec()?, served: json?, versions: (0, 0) })
}

fn drive_cold(inputs: &Inputs, conns: &mut [Conn; 2], measure: Duration, run: &mut HttpRun) {
    let stream = Mutex::new(inputs.cold_stream().enumerate());
    let clock = WallClock(Instant::now());
    let recs: Vec<Vec<Rec>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let (clock, stream) = (&clock, &stream);
                s.spawn(move || {
                    load::closed_loop(clock, measure, || {
                        let (i, req) = stream.lock().expect("stream lock").next()?;
                        let (fail, json) = exchange(conn, &req);
                        let kept = keep(sampled(inputs.seed, 1, i), &req, &fail, json);
                        Some((fail, kept))
                    })
                    .into_iter()
                    .map(|(timing, (fail, kept))| Rec { timing, write: false, fail, kept })
                    .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    run.records.extend(recs.into_iter().flatten());
}

/// One connection writes while the other reads, in closed-loop rounds of
/// one write and one read, so every run has the same 1:1 mix however the
/// two kinds' latencies move (an assumption; README, "Traffic
/// assumptions"). Returns the acknowledged writes in order:
/// write `k` (1-based) produced graph version `k`.
fn drive_mix(
    inputs: &Inputs,
    conns: &mut [Conn; 2],
    measure: Duration,
    run: &mut HttpRun,
) -> Vec<Request> {
    let acked = AtomicU64::new(0);
    let started = AtomicU64::new(0);
    let clock = WallClock(Instant::now());
    let rounds = load::Rounds::new(2, measure);
    let [wconn, rconn] = conns;
    let (wrecs, acked_writes, rrecs) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut stream = WriteStream::new(inputs.seed, MIX_DATASET, &inputs.mix_edges);
            let mut done: Vec<Request> = Vec::new();
            let mut stopped = false;
            let recs = rounds.run(&clock, || {
                if stopped {
                    return None;
                }
                let req = stream.next()?;
                started.fetch_add(1, Ordering::SeqCst);
                let (mut fail, json) = exchange(wconn, &req);
                let want = done.len() as u64 + 1;
                if fail.is_none() && json.as_ref().and_then(|j| j["version"].as_u64()) != Some(want)
                {
                    fail = Some(format!("check: write acknowledged a version other than {want}"));
                }
                if fail.is_some() {
                    // The version sequence is broken; stop writing.
                    stopped = true;
                } else {
                    done.push(req);
                    acked.store(want, Ordering::SeqCst);
                }
                Some(fail)
            });
            (recs, done)
        });
        let reader = s.spawn(|| {
            let mut stream = ReadStream::new(inputs.seed, MIX_DATASET).enumerate();
            rounds.run(&clock, || {
                let (i, req) = stream.next()?;
                let lo = acked.load(Ordering::SeqCst);
                let (fail, json) = exchange(rconn, &req);
                let hi = started.load(Ordering::SeqCst);
                let kept = keep(sampled(inputs.seed, 2, i), &req, &fail, json)
                    .map(|k| Kept { versions: (lo, hi), ..k });
                Some((fail, kept))
            })
        });
        let (wrecs, done) = writer.join().expect("writer thread");
        (wrecs, done, reader.join().expect("reader thread"))
    });
    run.records.extend(wrecs.into_iter().map(|(timing, fail)| Rec {
        timing,
        write: true,
        fail,
        kept: None,
    }));
    run.records.extend(rrecs.into_iter().map(|(timing, (fail, kept))| Rec {
        timing,
        write: false,
        fail,
        kept,
    }));
    acked_writes
}

/// Oracle checks of the sampled answers on catalog datasets, which no
/// workload mutates.
fn check_catalog(inputs: &Inputs, run: &mut HttpRun) {
    let mut oracle = Oracle::default();
    let mut checked = 0;
    for rec in run.records.iter_mut() {
        let Some(kept) = &rec.kept else { continue };
        if checked == CHECK_CAP {
            break;
        }
        checked += 1;
        let dataset = &kept.spec.dataset;
        if let Err(e) = oracle.check(&inputs.graphs[dataset], dataset, &kept.spec, &kept.served) {
            rec.fail = Some(format!("check: {e}"));
            run.errors.push(e);
        }
    }
    run.oracle_checked = checked;
}

/// `mutate_mix` checks: each sampled read against the oracle on a graph
/// version it may have seen, then durability: `relrank replay` on the
/// killed server's data directory must recover the last acknowledged
/// version with the state the acknowledged writes produce.
fn check_mix(inputs: &Inputs, writes: &[Request], data: &WorkDir, run: &mut HttpRun) {
    let graph = relformats::load_graph_from_str(&inputs.mix_pajek, Some(relformats::Format::Pajek))
        .expect("the generated upload parses");
    let replica = relengine::Executor::new();
    replica.register_graph(MIX_DATASET, graph).expect("register the replica");
    let mut pending: Vec<usize> =
        (0..run.records.len()).filter(|&i| run.records[i].kept.is_some()).take(CHECK_CAP).collect();
    pending.sort_by_key(|&i| run.records[i].kept.as_ref().map(|k| k.versions.0));
    run.oracle_checked = pending.len();
    let mut oracle = Oracle::default();
    let mut last_err: HashMap<usize, String> = HashMap::new();
    for version in 0..=writes.len() as u64 {
        if version > 0 {
            let op = edge_op(&writes[version as usize - 1]);
            replica.mutate_dataset(MIX_DATASET, &[op]).expect("replica applies the acked write");
        }
        // Pending reads are sorted by their first possible version, so
        // none can be checked here unless the first one can.
        let due =
            |&i: &usize| run.records[i].kept.as_ref().is_some_and(|k| k.versions.0 <= version);
        if !pending.first().is_some_and(due) {
            continue;
        }
        let (graph, _) = replica.dataset_versioned(MIX_DATASET).expect("replica dataset");
        pending.retain(|&i| {
            let kept = run.records[i].kept.as_ref().expect("pending reads were kept");
            let (lo, hi) = kept.versions;
            if version < lo {
                return true;
            }
            match oracle.check(&graph, &format!("v{version}"), &kept.spec, &kept.served) {
                Ok(()) => false,
                Err(e) if version >= hi => {
                    last_err.insert(i, e);
                    false
                }
                Err(_) => true,
            }
        });
    }
    for i in pending {
        last_err.insert(i, "read matches no acknowledged graph version".into());
    }
    for (i, e) in last_err {
        run.records[i].fail = Some(format!("check: {e}"));
        run.errors.push(e);
    }
    // Durability: the data directory of a SIGKILLed server.
    let (graph, version) = replica.dataset_versioned(MIX_DATASET).expect("replica dataset");
    let want = format!("{:016x}", relstore::graph_digest(&graph, version));
    let args: Vec<String> = vec!["replay".into(), data.path_str().into(), "--json".into()];
    let replayed = relcli::parse_args(&args)
        .map_err(|e| e.to_string())
        .and_then(|cli| relcli::run(cli).map_err(|e| e.to_string()))
        .and_then(|out| serde_json::parse_value(&out).map_err(|e| e.to_string()));
    match replayed {
        Ok(rows) => {
            let row = rows.as_array().and_then(|r| r.iter().find(|r| r["dataset"] == MIX_DATASET));
            match row {
                Some(row)
                    if row["version"].as_u64() == Some(version)
                        && row["digest"] == want.as_str() => {}
                Some(row) => run.errors.push(format!(
                    "replay recovered version {} digest {} but {} writes were acknowledged \
                     (version {version}, digest {want})",
                    row["version"],
                    row["digest"],
                    writes.len()
                )),
                None => run.errors.push("replay did not recover the uploaded dataset".into()),
            }
        }
        Err(e) => run.errors.push(format!("replay failed: {e}")),
    }
}

/// The engine operation a generated edge request performs.
fn edge_op(req: &Request) -> relengine::EdgeOp {
    let Request::Edge { add, source, target, .. } = req else {
        panic!("edge_op takes an edge request");
    };
    let spec = relengine::EdgeSpec { source: source.clone(), target: target.clone(), weight: None };
    if *add {
        relengine::EdgeOp::Add(spec)
    } else {
        relengine::EdgeOp::Remove(spec)
    }
}
