//! Seeded request generation: the random source, Zipf draws, the request
//! type the client sends, and one stream generator per workload. Every
//! stream is a pure function of its seed and the catalog graphs, so the
//! untraced HTTP run and the traced in-process run see the same requests.

use relcore::runner::{Algorithm, AlgorithmParams};
use relcore::ScoringFunction;
use relengine::TaskSpec;
use relgraph::DirectedGraph;
use std::collections::{HashMap, VecDeque};

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf draws over ranks `0..n`: rank `r` has weight `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Probability of rank `r`.
    #[cfg(test)]
    pub fn pmf(&self, r: usize) -> f64 {
        self.cdf[r] - if r == 0 { 0.0 } else { self.cdf[r - 1] }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// One generated request, in the server's wire terms.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `POST /api/tasks?sync=1`, plus `&top_k=k` for certified top-k mode.
    Task { spec: TaskSpec, certified_k: Option<usize> },
    /// A dataset-exploration read, e.g. `GET /api/algorithms`.
    Get(String),
    /// `POST` (add) or `DELETE` (remove) `/api/datasets/{id}/edges` with
    /// one edge.
    Edge { dataset: String, add: bool, source: String, target: String },
}

impl Request {
    pub fn method(&self) -> &'static str {
        match self {
            Request::Task { .. } => "POST",
            Request::Get(_) => "GET",
            Request::Edge { add: true, .. } => "POST",
            Request::Edge { add: false, .. } => "DELETE",
        }
    }

    pub fn target(&self) -> String {
        match self {
            Request::Task { certified_k: None, .. } => "/api/tasks?sync=1".into(),
            Request::Task { certified_k: Some(k), .. } => format!("/api/tasks?sync=1&top_k={k}"),
            Request::Get(path) => path.clone(),
            Request::Edge { dataset, .. } => format!("/api/datasets/{dataset}/edges"),
        }
    }

    pub fn body(&self) -> Vec<u8> {
        match self {
            Request::Task { spec, .. } => {
                serde_json::to_vec(spec).expect("task specs always serialize")
            }
            Request::Get(_) => Vec::new(),
            Request::Edge { source, target, .. } => {
                let edge = serde_json::json!({"source": source, "target": target});
                serde_json::to_vec(&serde_json::json!({"edges": [edge]}))
                    .expect("edge batches always serialize")
            }
        }
    }

    /// The complete HTTP/1.1 request as sent on a keep-alive connection.
    pub fn raw(&self) -> Vec<u8> {
        http_bytes(self.method(), &self.target(), &self.body())
    }

    pub fn is_write(&self) -> bool {
        matches!(self, Request::Edge { .. })
    }

    /// The spec the server executes: the body with any `?top_k=` override
    /// applied, exactly as the task route applies it.
    pub fn effective_spec(&self) -> Option<TaskSpec> {
        match self {
            Request::Task { spec, certified_k } => {
                let mut spec = spec.clone();
                if let Some(k) = certified_k {
                    spec.top_k = *k;
                    spec.params.top_k = Some(*k);
                }
                Some(spec)
            }
            _ => None,
        }
    }
}

/// Renders one HTTP/1.1 request.
pub fn http_bytes(method: &str, target: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {target} HTTP/1.1\r\nhost: e2ebench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Labels of nodes with both in- and out-links, sorted: the source pool
/// of a dataset, a pure function of the (deterministic) graph.
pub fn source_pool(graph: &DirectedGraph) -> Vec<String> {
    let mut labels: Vec<String> = graph
        .nodes()
        .filter(|&u| graph.out_degree(u) > 0 && graph.in_degree(u) > 0)
        .map(|u| graph.display_name(u))
        .collect();
    labels.sort();
    labels
}

fn spec(dataset: &str, params: AlgorithmParams, source: Option<String>) -> TaskSpec {
    TaskSpec { dataset: dataset.to_string(), params, source, top_k: 10 }
}

const GLOBAL: [Algorithm; 3] = [Algorithm::PageRank, Algorithm::CheiRank, Algorithm::TwoDRank];
const PERSONALIZED: [Algorithm; 4] = [
    Algorithm::PersonalizedPageRank,
    Algorithm::PersonalizedCheiRank,
    Algorithm::PersonalizedTwoDRank,
    Algorithm::CycleRank,
];

// ------------------------------------------------------------ serve_hot

/// Datasets of the `serve_hot` working set.
pub const HOT_DATASETS: [&str; 4] =
    ["fixture-enwiki-2018", "wiki-en-2018", "twitter-cop27", "amazon-copurchase"];
/// Personalized sources per dataset: 4 × (3 + 4 × 12) = 204 specs, below
/// the result cache's 256 entries.
const HOT_SOURCES: usize = 12;
/// Share of `serve_hot` requests that are dataset-exploration reads.
/// An assumption (README, "Traffic assumptions").
const HOT_GET_SHARE: f64 = 0.04;
/// Zipf exponent of `serve_hot`'s draws over the working set. An
/// assumption (README, "Traffic assumptions").
const HOT_ZIPF_S: f64 = 1.0;

/// The `serve_hot` working set in Zipf rank order (rank 0 is hottest):
/// every algorithm on every dataset, personalized ones from seeded
/// sources. `pools` holds each dataset's [`source_pool`], in
/// [`HOT_DATASETS`] order.
pub fn hot_working_set(seed: u64, pools: &[Vec<String>]) -> Vec<TaskSpec> {
    let mut rng = Rng::new(seed);
    let mut specs = Vec::new();
    for (dataset, pool) in HOT_DATASETS.iter().zip(pools) {
        for algo in GLOBAL {
            specs.push(spec(dataset, AlgorithmParams::new(algo), None));
        }
        let mut pool = pool.clone();
        rng.shuffle(&mut pool);
        for source in pool.iter().take(HOT_SOURCES) {
            for algo in PERSONALIZED {
                specs.push(spec(dataset, AlgorithmParams::new(algo), Some(source.clone())));
            }
        }
    }
    rng.shuffle(&mut specs);
    specs
}

/// The exploration reads mixed into `serve_hot`.
pub fn hot_gets() -> Vec<String> {
    let mut gets = vec!["/api/algorithms".to_string()];
    for d in HOT_DATASETS {
        gets.push(format!("/api/datasets/{d}"));
        gets.push(format!("/api/datasets/{d}/stats"));
    }
    gets
}

/// `n` Zipf-skewed requests over the working set plus exploration reads.
pub fn hot_stream(seed: u64, working_set: &[TaskSpec], n: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed.wrapping_add(1));
    let zipf = Zipf::new(working_set.len(), HOT_ZIPF_S);
    let gets = hot_gets();
    (0..n)
        .map(|_| {
            if rng.unit() < HOT_GET_SHARE {
                Request::Get(gets[rng.below(gets.len())].clone())
            } else {
                Request::Task {
                    spec: working_set[zipf.sample(&mut rng)].clone(),
                    certified_k: None,
                }
            }
        })
        .collect()
}

// --------------------------------------------------------- compare_cold

/// Datasets of use case (a), algorithm comparison around one source.
pub const COLD_A_DATASETS: [&str; 3] = ["wiki-en-2018", "twitter-cop27", "amazon-copurchase"];
/// The Table III snapshots of use case (b), with each edition's title.
pub const COLD_B_SNAPSHOTS: [(&str, &str); 6] = [
    ("wiki-de-2018", "Fake News"),
    ("wiki-en-2018", "Fake news"),
    ("wiki-fr-2018", "Fake news"),
    ("wiki-it-2018", "Fake news"),
    ("wiki-nl-2018", "Nepnieuws"),
    ("wiki-pl-2018", "Fake news"),
];

/// Every `COLD_B_EVERY`-th `compare_cold` row is use case (b), and every
/// `COLD_CERTIFIED_EVERY`-th use case (a) row asks for certified top-10
/// answers. Both are assumptions (README, "Traffic assumptions").
const COLD_B_EVERY: u64 = 4;
const COLD_CERTIFIED_EVERY: usize = 4;

/// Every dataset `compare_cold` touches.
pub fn cold_datasets() -> Vec<&'static str> {
    let mut ids: Vec<&str> = COLD_A_DATASETS.to_vec();
    ids.extend(COLD_B_SNAPSHOTS.iter().map(|(d, _)| *d).filter(|d| !COLD_A_DATASETS.contains(d)));
    ids
}

/// Damping factor of every set-up's warm-up solves, outside the range of
/// `compare_cold`'s stream ([`ColdStream::row_damping`]) and apart from
/// the default `mutate_mix` reads, so no warm-up answer is ever a measured
/// request's cached result.
const WARMUP_DAMPING: f64 = 0.80;

/// `compare_cold`'s warm-up: the global algorithms on every dataset it
/// touches. It sizes each dataset's solver arena and brings the server
/// to a steady state before the measured phase, whose specs it never
/// repeats.
pub fn cold_warmup() -> Vec<TaskSpec> {
    let params = |algo| AlgorithmParams::new(algo).with_damping(WARMUP_DAMPING);
    cold_datasets()
        .into_iter()
        .flat_map(|d| GLOBAL.into_iter().map(move |algo| spec(d, params(algo), None)))
        .collect()
}

/// The endless `compare_cold` stream: rows of comparisons, expanded into
/// one request per table cell. The row mix is fixed, so every seed runs
/// the same composition: every [`COLD_B_EVERY`]-th row is use case (b),
/// use case (a) rows cycle through the datasets, every
/// [`COLD_CERTIFIED_EVERY`]-th of those asks for certified top-10
/// answers, and each dataset's rows cycle K through
/// 3, 4, 5. The seed picks sources and the order of CycleRank's (K, σ)
/// pairs. No two specs repeat within a run: sources
/// are drawn without replacement, each (K, σ) pair for use case (b) is
/// used once, and every row gets its own damping factor.
pub struct ColdStream {
    row: u64,
    pending: VecDeque<Request>,
    pools: Vec<(String, Vec<String>, usize)>,
    b_cyclerank: Vec<(u32, ScoringFunction)>,
}

impl ColdStream {
    /// `pools` holds each [`COLD_A_DATASETS`] entry's [`source_pool`].
    pub fn new(seed: u64, pools: &[Vec<String>]) -> ColdStream {
        let mut rng = Rng::new(seed.wrapping_add(2));
        let pools = COLD_A_DATASETS
            .iter()
            .zip(pools)
            .map(|(d, pool)| {
                let mut pool = pool.clone();
                rng.shuffle(&mut pool);
                (d.to_string(), pool, 0)
            })
            .collect();
        let mut b_cyclerank: Vec<(u32, ScoringFunction)> = [3, 4, 5]
            .into_iter()
            .flat_map(|k| {
                [
                    ScoringFunction::Exponential,
                    ScoringFunction::Inverse,
                    ScoringFunction::QuadraticInverse,
                    ScoringFunction::Constant,
                ]
                .map(|s| (k, s))
            })
            .collect();
        rng.shuffle(&mut b_cyclerank);
        ColdStream { row: 0, pending: VecDeque::new(), pools, b_cyclerank }
    }

    /// A damping factor in `[0.845, 0.855)` that no other row of the run
    /// shares (distinct for the first 10007 rows).
    fn row_damping(&self) -> f64 {
        0.845 + ((self.row * 7919) % 10007) as f64 * 1e-6
    }

    fn push_row(&mut self) {
        let damping = self.row_damping();
        let kind_b = self.row % COLD_B_EVERY == COLD_B_EVERY - 1;
        let a_row = (self.row - self.row / COLD_B_EVERY) as usize;
        if !kind_b {
            // Use case (a): all seven algorithms around one source.
            let (dataset, pool, next) = &mut self.pools[a_row % COLD_A_DATASETS.len()];
            let source = pool[*next % pool.len()].clone();
            *next += 1;
            let k = 3 + (a_row / COLD_A_DATASETS.len() % 3) as u32;
            let certified_k =
                (a_row % COLD_CERTIFIED_EVERY == COLD_CERTIFIED_EVERY - 1).then_some(10);
            for algo in GLOBAL.into_iter().chain(PERSONALIZED) {
                let params = AlgorithmParams::new(algo).with_damping(damping).with_k(k);
                let source = algo.is_personalized().then(|| source.clone());
                self.pending
                    .push_back(Request::Task { spec: spec(dataset, params, source), certified_k });
            }
        } else {
            // Use case (b): the Table III query on all six snapshots,
            // alternating CycleRank (while unused (K, σ) pairs remain)
            // with the PageRank family in turn.
            let b_row = (self.row / COLD_B_EVERY) as usize;
            let cyclerank = if b_row.is_multiple_of(2) { self.b_cyclerank.pop() } else { None };
            let params = match cyclerank {
                Some((k, scoring)) => {
                    AlgorithmParams::new(Algorithm::CycleRank).with_k(k).with_scoring(scoring)
                }
                None => AlgorithmParams::new(PERSONALIZED[b_row % 3]).with_damping(damping),
            };
            for (dataset, title) in COLD_B_SNAPSHOTS {
                self.pending.push_back(Request::Task {
                    spec: spec(dataset, params, Some(title.to_string())),
                    certified_k: None,
                });
            }
        }
        self.row += 1;
    }
}

impl Iterator for ColdStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.pending.is_empty() {
            self.push_row();
        }
        self.pending.pop_front()
    }
}

// ----------------------------------------------------------- mutate_mix

/// Nodes and edges of the uploaded `mutate_mix` graph.
pub const MIX_NODES: u32 = 5_000;
pub const MIX_EDGES: usize = 50_000;
/// Zipf exponent of the upload's edge targets (how concentrated in-links
/// are on hubs). An assumption (README, "Traffic assumptions").
const MIX_TARGET_ZIPF_S: f64 = 0.8;
/// Zipf exponent of the reader's source draws, and the reader's period of
/// certified top-10 reads. Assumptions (README, "Traffic assumptions").
const MIX_READ_ZIPF_S: f64 = 1.0;
const MIX_CERTIFIED_EVERY: u64 = 3;

/// Label of node `u` of the uploaded graph.
pub fn mix_label(u: u32) -> String {
    format!("n{u}")
}

/// Nodes of the upload graph by popularity: `order[0]` is the most
/// linked-to node and the most read source.
fn mix_order(seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..MIX_NODES).collect();
    Rng::new(seed.wrapping_add(3)).shuffle(&mut order);
    order
}

/// The seeded upload graph as a sorted edge list: uniform sources,
/// Zipf-skewed targets (a few hubs), no self-loops or duplicates.
pub fn mix_edges(seed: u64) -> Vec<(u32, u32)> {
    let mut rng = Rng::new(seed.wrapping_add(6));
    let order = mix_order(seed);
    let zipf = Zipf::new(MIX_NODES as usize, MIX_TARGET_ZIPF_S);
    let mut seen = std::collections::HashSet::new();
    while seen.len() < MIX_EDGES {
        let u = rng.below(MIX_NODES as usize) as u32;
        let v = order[zipf.sample(&mut rng)];
        if u != v {
            seen.insert((u, v));
        }
    }
    let mut edges: Vec<(u32, u32)> = seen.into_iter().collect();
    edges.sort_unstable();
    edges
}

/// The upload graph in Pajek NET form (1-indexed, quoted labels).
pub fn mix_pajek(edges: &[(u32, u32)]) -> String {
    use std::fmt::Write;
    let mut out = format!("*Vertices {MIX_NODES}\n");
    for u in 0..MIX_NODES {
        let _ = writeln!(out, "{} \"{}\"", u + 1, mix_label(u));
    }
    out.push_str("*Arcs\n");
    for (u, v) in edges {
        let _ = writeln!(out, "{} {}", u + 1, v + 1);
    }
    out
}

/// The `POST /api/datasets` body uploading `pajek` as `name`.
pub fn upload_body(name: &str, pajek: &str) -> Vec<u8> {
    serde_json::to_vec(&serde_json::json!({"name": name, "format": "pajek", "content": pajek}))
        .expect("upload bodies always serialize")
}

/// The writer's stream: single-edge adds of absent edges and removes of
/// present ones, so every write applies and bumps the version by one.
pub struct WriteStream {
    rng: Rng,
    dataset: String,
    edges: Vec<(u32, u32)>,
    index: HashMap<(u32, u32), usize>,
}

impl WriteStream {
    pub fn new(seed: u64, dataset: &str, base: &[(u32, u32)]) -> WriteStream {
        let index = base.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        WriteStream {
            rng: Rng::new(seed.wrapping_add(4)),
            dataset: dataset.to_string(),
            edges: base.to_vec(),
            index,
        }
    }
}

impl Iterator for WriteStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let add = self.rng.unit() < 0.5;
        let (u, v) = if add {
            loop {
                let u = self.rng.below(MIX_NODES as usize) as u32;
                let v = self.rng.below(MIX_NODES as usize) as u32;
                if u != v && !self.index.contains_key(&(u, v)) {
                    self.index.insert((u, v), self.edges.len());
                    self.edges.push((u, v));
                    break (u, v);
                }
            }
        } else {
            let i = self.rng.below(self.edges.len());
            let e = self.edges.swap_remove(i);
            self.index.remove(&e);
            if let Some(&moved) = self.edges.get(i) {
                self.index.insert(moved, i);
            }
            e
        };
        Some(Request::Edge {
            dataset: self.dataset.clone(),
            add,
            source: mix_label(u),
            target: mix_label(v),
        })
    }
}

/// `mutate_mix`'s warm-up: personalized PageRank from the `n` sources
/// the reader draws most, once full-rank and once certified top-k each.
pub fn mix_warmup(seed: u64, dataset: &str, n: usize) -> Vec<Request> {
    let params = AlgorithmParams::new(Algorithm::PersonalizedPageRank).with_damping(WARMUP_DAMPING);
    mix_order(seed)
        .into_iter()
        .take(n)
        .flat_map(|u| {
            let spec = spec(dataset, params, Some(mix_label(u)));
            [None, Some(10)].map(|certified_k| Request::Task { spec: spec.clone(), certified_k })
        })
        .collect()
}

/// The reader's stream: personalized PageRank from Zipf-drawn sources
/// (popular nodes are read most), every [`MIX_CERTIFIED_EVERY`]-th read
/// in certified top-k mode and the rest full-rank.
pub struct ReadStream {
    rng: Rng,
    count: u64,
    dataset: String,
    order: Vec<u32>,
    zipf: Zipf,
}

impl ReadStream {
    pub fn new(seed: u64, dataset: &str) -> ReadStream {
        ReadStream {
            rng: Rng::new(seed.wrapping_add(5)),
            count: 0,
            dataset: dataset.to_string(),
            order: mix_order(seed),
            zipf: Zipf::new(MIX_NODES as usize, MIX_READ_ZIPF_S),
        }
    }
}

impl Iterator for ReadStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let source = mix_label(self.order[self.zipf.sample(&mut self.rng)]);
        let certified_k =
            (self.count % MIX_CERTIFIED_EVERY == MIX_CERTIFIED_EVERY - 1).then_some(10);
        self.count += 1;
        let params = AlgorithmParams::new(Algorithm::PersonalizedPageRank);
        Some(Request::Task { spec: spec(&self.dataset, params, Some(source)), certified_k })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pools(n: usize) -> Vec<Vec<String>> {
        (0..n).map(|d| (0..500).map(|i| format!("d{d}-s{i}")).collect()).collect()
    }

    #[test]
    fn same_seed_same_streams() {
        let ws = hot_working_set(7, &pools(4));
        assert_eq!(ws, hot_working_set(7, &pools(4)));
        assert_ne!(ws, hot_working_set(8, &pools(4)));
        assert_eq!(hot_stream(7, &ws, 500), hot_stream(7, &ws, 500));
        let a: Vec<Request> = ColdStream::new(7, &pools(3)).take(300).collect();
        let b: Vec<Request> = ColdStream::new(7, &pools(3)).take(300).collect();
        assert_eq!(a, b);
        let c: Vec<Request> = ColdStream::new(9, &pools(3)).take(300).collect();
        assert_ne!(a, c);
        assert_eq!(mix_edges(7), mix_edges(7));
        let w1: Vec<Request> = WriteStream::new(7, "m", &mix_edges(7)).take(200).collect();
        let w2: Vec<Request> = WriteStream::new(7, "m", &mix_edges(7)).take(200).collect();
        assert_eq!(w1, w2);
        let r1: Vec<Request> = ReadStream::new(7, "m").take(200).collect();
        let r2: Vec<Request> = ReadStream::new(7, "m").take(200).collect();
        assert_eq!(r1, r2);
    }

    #[test]
    fn hot_working_set_fits_the_cache() {
        let ws = hot_working_set(1, &pools(4));
        assert_eq!(ws.len(), 204);
        let keys: std::collections::HashSet<String> =
            ws.iter().map(|s| serde_json::to_string(s).unwrap()).collect();
        assert_eq!(keys.len(), ws.len(), "working-set specs are distinct");
        assert!(ws.len() < 256);
    }

    #[test]
    fn zipf_draws_match_their_pmf() {
        let zipf = Zipf::new(100, 1.0);
        let mut rng = Rng::new(42);
        let n = 200_000;
        let mut counts = vec![0usize; 100];
        for _ in 0..n {
            counts[zipf.sample(&mut rng)] += 1;
        }
        let h100: f64 = (1..=100).map(|r| 1.0 / r as f64).sum();
        assert!((zipf.pmf(0) - 1.0 / h100).abs() < 1e-12);
        for r in [0, 1, 4, 9, 49, 99] {
            let want = zipf.pmf(r) * n as f64;
            let sd = want.sqrt();
            let got = counts[r] as f64;
            assert!((got - want).abs() < 5.0 * sd, "rank {r}: {got} vs {want}");
        }
        // Rank 0 is drawn twice as often as rank 1 under s = 1.
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((ratio - 2.0).abs() < 0.1, "{ratio}");
    }

    #[test]
    fn cold_specs_never_repeat() {
        let stream = ColdStream::new(3, &pools(3)).take(3000).map(|r| r.effective_spec().unwrap());
        let specs: Vec<String> = cold_warmup()
            .into_iter()
            .chain(stream)
            .map(|spec| serde_json::to_string(&spec).unwrap())
            .collect();
        let distinct: std::collections::HashSet<&String> = specs.iter().collect();
        assert_eq!(distinct.len(), specs.len());
    }

    #[test]
    fn mix_warmup_never_repeats_a_read() {
        let warm = mix_warmup(4, "m", 8);
        let reads = ReadStream::new(4, "m").take(3000);
        let specs: Vec<String> = warm
            .iter()
            .map(|r| serde_json::to_string(&r.effective_spec().unwrap()).unwrap())
            .collect();
        let distinct: std::collections::HashSet<&String> = specs.iter().collect();
        assert_eq!(distinct.len(), 16);
        for r in reads {
            let read = serde_json::to_string(&r.effective_spec().unwrap()).unwrap();
            assert!(!distinct.contains(&read), "{read}");
        }
    }

    #[test]
    fn writes_always_change_the_graph() {
        let base = mix_edges(5);
        let mut set: std::collections::HashSet<(u32, u32)> = base.iter().copied().collect();
        for req in WriteStream::new(5, "m", &base).take(5000) {
            let Request::Edge { add, source, target, .. } = req else { panic!() };
            let e = (source[1..].parse().unwrap(), target[1..].parse().unwrap());
            assert!(if add { set.insert(e) } else { set.remove(&e) });
        }
    }
}
