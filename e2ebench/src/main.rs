//! End-to-end benchmark of the CycleRank demo platform's HTTP server.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <serve_hot|compare_cold|mutate_mix|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the benchmark starts `relrank serve` as a child
//! process, drives the workload at it over HTTP and prints the end-to-end
//! metrics. With `--trace 1` it also sends the same request streams
//! through each layer's public functions in-process, timing every call,
//! and prints the per-layer metrics. Either way it checks every answer,
//! prints a report, and ends with one JSON line; it exits non-zero when a
//! check fails. See `README.md` next to this file.

mod client;
mod gen;
mod load;
mod oracle;
mod stats;
mod trace;
mod workload;

use stats::{median, percentile};
use workload::{HttpRun, Inputs, Workload};

/// A `serve_hot` run is invalid, not slow, when its generator sent more
/// than this share of requests over [`LATE_MS`] late by its own fault.
const MAX_LATE_SHARE: f64 = 0.01;
const LATE_MS: f64 = 5.0;

/// One reported figure.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the figure.
    pub n: usize,
    pub note: String,
}

impl Metric {
    pub fn new(
        name: &str,
        value: f64,
        unit: &'static str,
        n: usize,
        note: impl Into<String>,
    ) -> Metric {
        Metric { name: name.to_string(), value, unit, n, note: note.into() }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?
            }
            "--trace" => out.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if out.workload != "all" && Workload::parse(&out.workload).is_none() {
        return Err(format!(
            "--workload must be serve_hot, compare_cold, mutate_mix or all, not {:?}",
            out.workload
        ));
    }
    if !out.seconds.is_finite() || out.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(out)
}

/// The outcome of one workload run.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// End-to-end metrics of an untraced run: the ones `BENCHMARK.json`
/// gates, and the ones printed but not gated (latency moves with the
/// host's speed by more than the gate's bounds allow; see README.md).
fn end_to_end(w: Workload, run: &HttpRun) -> (Vec<Metric>, Vec<Metric>) {
    let ok = |write: bool| -> Vec<f64> {
        run.records
            .iter()
            .filter(|r| r.write == write && r.fail.is_none())
            .map(|r| ms(r.timing.latency()))
            .collect()
    };
    let (reads, writes) = (ok(false), ok(true));
    let attempted = run.records.len();
    let failed = run.records.iter().filter(|r| r.fail.is_some()).count();
    let tail = |xs: &[f64], p: f64| percentile(xs, p).unwrap_or(0.0);
    // From the first due time to the last answer.
    let first = run.records.iter().map(|r| r.timing.due).min().unwrap_or_default();
    let last = run.records.iter().map(|r| r.timing.done).max().unwrap_or_default();
    let span_s = (last - first).as_secs_f64().max(1e-9);
    let tail_note = |xs: &[f64], p: f64| {
        let shape = format!("nearest-rank p{p} over all succeeded requests");
        if stats::tail_supported(xs.len(), p) {
            shape
        } else {
            format!("{shape}; fewer than 10 samples beyond it")
        }
    };
    let setup_note = if w == Workload::MutateMix {
        "median of server set-ups in this run, less the upload (upload_s)"
    } else {
        "median of server set-ups in this run"
    };
    let gated = vec![
        Metric::new("setup_s", median(&run.setup_s), "s", run.setup_s.len(), setup_note),
        Metric::new("peak_rss_mb", run.peak_rss_mb, "MiB", 1, "server VmHWM at the end of the run"),
        Metric::new(
            "server_cpu_ms_per_req",
            run.server_cpu_s * 1e3 / (attempted - failed).max(1) as f64,
            "ms",
            attempted - failed,
            "server processor time (user + system) per completed request",
        ),
    ];
    let mut extra = vec![
        Metric::new(
            "latency_p50_ms",
            tail(&reads, 50.0),
            "ms",
            reads.len(),
            tail_note(&reads, 50.0),
        ),
        Metric::new(
            "latency_p90_ms",
            tail(&reads, 90.0),
            "ms",
            reads.len(),
            tail_note(&reads, 90.0),
        ),
        Metric::new(
            "latency_p99_ms",
            tail(&reads, 99.0),
            "ms",
            reads.len(),
            tail_note(&reads, 99.0),
        ),
        Metric::new(
            "throughput_qps",
            (attempted - failed) as f64 / span_s,
            "1/s",
            attempted - failed,
            "requests completed per second",
        ),
        Metric::new(
            "failed_frac",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
            attempted,
            "failed, shed, timed out or failed a check",
        ),
    ];
    if w == Workload::MutateMix {
        extra.push(Metric::new(
            "upload_s",
            median(&run.upload_s),
            "s",
            run.upload_s.len(),
            "median round trip of the set-up's upload, one per set-up",
        ));
        extra.push(Metric::new(
            "write_p50_ms",
            tail(&writes, 50.0),
            "ms",
            writes.len(),
            tail_note(&writes, 50.0),
        ));
        extra.push(Metric::new(
            "write_p99_ms",
            tail(&writes, 99.0),
            "ms",
            writes.len(),
            tail_note(&writes, 99.0),
        ));
    }
    if w == Workload::ServeHot {
        let within = run
            .records
            .iter()
            .filter(|r| r.fail.is_none() && r.timing.latency() <= workload::HOT_LIMIT)
            .count();
        extra.push(Metric::new(
            "within_limit_frac",
            within as f64 / attempted.max(1) as f64,
            "ratio",
            attempted,
            format!("answered 200 within {} ms", ms(workload::HOT_LIMIT)),
        ));
        let late = &run.lateness_ms;
        let pct = |p: f64| percentile(late, p).unwrap_or(0.0);
        extra.push(Metric::new(
            "generator_late_p50_ms",
            pct(50.0),
            "ms",
            late.len(),
            "sent past due, by the generator",
        ));
        extra.push(Metric::new(
            "generator_late_p99_ms",
            pct(99.0),
            "ms",
            late.len(),
            "sent past due, by the generator",
        ));
        let over = late.iter().filter(|&&l| l > LATE_MS).count();
        extra.push(Metric::new(
            "generator_late_share",
            over as f64 / late.len().max(1) as f64,
            "ratio",
            late.len(),
            format!("share sent over {LATE_MS} ms late by the generator"),
        ));
    }
    (gated, extra)
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<36} {:>14.6} {:<8} n={:<7} {}", m.name, m.value, m.unit, m.n, m.note);
    }
}

fn run_workload(w: Workload, args: &Args, work: &std::path::Path) -> Outcome {
    // A traced run splits its time between an untraced HTTP phase, for
    // the server's counters and the latency the layers should add up to,
    // and the traced in-process phase.
    let (seconds, reps) =
        if args.trace { (args.seconds / 2.0, 1) } else { (args.seconds, w.setup_reps()) };
    let inputs = Inputs::generate(w, args.seed, seconds);
    let run = workload::run_http(&inputs, seconds, reps, work);
    let (gated, extra) = end_to_end(w, &run);
    let attempted = run.records.len();
    let failed = run.records.iter().filter(|r| r.fail.is_some()).count();
    let mut classes: std::collections::BTreeMap<String, usize> = Default::default();
    for r in &run.records {
        if let Some(f) = &r.fail {
            let class = f.split(':').next().unwrap_or(f).to_string();
            *classes.entry(class).or_default() += 1;
        }
    }
    let late_share = extra.iter().find(|m| m.name == "generator_late_share").map(|m| m.value);
    let valid = late_share.is_none_or(|s| s <= MAX_LATE_SHARE);
    println!(
        "{} seed {}: attempted {attempted}, succeeded {}, failed {failed} {:?}; {} answers checked \
         against the oracle",
        w.name(),
        args.seed,
        attempted - failed,
        classes,
        run.oracle_checked
    );
    print_metrics(&gated);
    print_metrics(&extra);
    for e in run.errors.iter().take(10) {
        println!("  CHECK FAILED: {e}");
    }
    for r in run.records.iter().filter_map(|r| r.fail.as_ref()).take(5) {
        println!("  request failed: {r}");
    }
    if !valid {
        println!("  INVALID RUN: the load generator fell behind its schedule");
    }
    let correct = valid && failed == 0 && run.errors.is_empty();
    let metrics = if args.trace {
        let e2e: Vec<Metric> = gated.into_iter().chain(extra).collect();
        let layers = trace::run(&inputs, seconds, work, &run, &e2e);
        println!("{} per-layer (traced in-process run):", w.name());
        print_metrics(&layers);
        layers
    } else {
        gated
    };
    Outcome { correct, attempted, failed, metrics }
}

fn json_line(outcomes: &[(Workload, Outcome)], prefix: bool) -> String {
    let mut metrics = serde_json::Map::new();
    for (w, o) in outcomes {
        for m in &o.metrics {
            let name = if prefix { format!("{}.{}", w.name(), m.name) } else { m.name.clone() };
            metrics.insert(name, serde_json::json!({"value": m.value, "unit": m.unit}));
        }
    }
    let out = serde_json::json!({
        "correct": outcomes.iter().all(|(_, o)| o.correct),
        "attempted": outcomes.iter().map(|(_, o)| o.attempted).sum::<usize>(),
        "failed": outcomes.iter().map(|(_, o)| o.failed).sum::<usize>(),
        "metrics": serde_json::Value::Object(metrics),
    });
    serde_json::to_string(&out).expect("the result line serializes")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("__relrank") {
        // Server mode: exactly the `relrank` command line.
        let cli = relcli::parse_args(&args[1..]).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        });
        match relcli::run(cli) {
            Ok(out) => print!("{out}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(e.code)
            }
        }
        return;
    }
    let args = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("e2ebench: {e}");
        std::process::exit(2)
    });
    let root = std::env::current_dir().expect("a working directory").join(".e2ebench-work");
    let workloads: Vec<Workload> = match Workload::parse(&args.workload) {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let outcomes: Vec<(Workload, Outcome)> =
        workloads.iter().map(|&w| (w, run_workload(w, &args, &root))).collect();
    let _ = std::fs::remove_dir(&root);
    println!("{}", json_line(&outcomes, outcomes.len() > 1));
    if !outcomes.iter().all(|(_, o)| o.correct) {
        std::process::exit(1);
    }
}
