//! Shared machinery of the workloads: server set-up, closed-loop clients,
//! failure accounting and the per-layer summary of a traced run.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use tg_serve::{ServeOptions, Server};
use transfergraph::{RegistryOptions, WorkbenchStats, ZooRegistry};

use crate::ledger::{Counts, Live, REPLAY, WIRE};
use crate::stats::median;
use crate::trace::{self_time_by_layer, Tracer};
use crate::wire::{exchange, get, Exchange, Reply};

/// Scale every workload runs at.
pub const SCALE: &str = "paper";

/// Top-k every `/recommend` asks for.
pub const TOP_K: usize = 5;

/// A live server over a memory-only registry.
pub struct Harness {
    /// The registry the server routes on.
    pub registry: Arc<ZooRegistry>,
    /// The running server.
    pub server: Server,
}

impl Harness {
    /// Address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The replay context for this server.
    pub fn live(&self) -> Live<'_> {
        Live {
            server: &self.server,
            registry: &self.registry,
        }
    }

    /// Store counters summed over the zoos of `configs`.
    pub fn store_counts(&self, configs: &[tg_zoo::ZooConfig]) -> StoreCounts {
        configs
            .iter()
            .map(|c| self.registry.get_or_build(c).workbench().stats())
            .fold(StoreCounts::default(), |acc, s: WorkbenchStats| {
                StoreCounts {
                    hits: acc.hits + s.hits(),
                    misses: acc.misses + s.misses(),
                    logme_calls: acc.logme_calls + s.logme_kernel.0,
                }
            })
    }
}

/// Cache hits and misses of the artifact store, and LogME kernel calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreCounts {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// LogME kernel invocations.
    pub logme_calls: u64,
}

impl StoreCounts {
    /// Hits and misses since `before`; kernel calls stay a running total.
    pub fn since(self, before: StoreCounts) -> StoreCounts {
        StoreCounts {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            logme_calls: self.logme_calls,
        }
    }
}

/// Client threads: at most the machine's cores, and at most 2.
pub fn clients() -> usize {
    nproc().min(2)
}

/// Cores available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Starts a server with `max_conns = clients` over a fresh memory-only
/// registry, waits for its first reply, then runs `warm` on the registry.
/// Returns the harness and the wall seconds all of that took.
fn start_once(clients: usize, warm: &dyn Fn(&ZooRegistry)) -> (Harness, f64) {
    let start = Instant::now();
    let registry = Arc::new(ZooRegistry::new(RegistryOptions::default()));
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        max_conns: clients,
        batch_window_ms: 0,
    };
    let server = Server::start(Arc::clone(&registry), &opts).expect("bind the benchmark server");
    let first = exchange(server.local_addr(), &get("/stats"));
    assert!(
        matches!(first.reply, Ok(Reply { status: 200, .. })),
        "fresh server did not answer GET /stats"
    );
    warm(&registry);
    let took = start.elapsed().as_secs_f64();
    (Harness { registry, server }, took)
}

/// Sets the server up `repeats` times from scratch and keeps the last
/// one. Returns it with every set-up time; runs report their median.
pub fn setup(clients: usize, repeats: usize, warm: &dyn Fn(&ZooRegistry)) -> (Harness, Vec<f64>) {
    let mut times = Vec::with_capacity(repeats);
    loop {
        let (harness, took) = start_once(clients, warm);
        times.push(took);
        if times.len() >= repeats {
            return (harness, times);
        }
        harness.server.shutdown();
    }
}

/// One request sent during a run.
pub struct Sent {
    /// Which entry of the workload's request table was sent.
    pub key: usize,
    /// Instant the connection was opened.
    pub start: Instant,
    /// Instant the last reply byte was read.
    pub end: Instant,
    /// The body, if the workload keeps it for a later check, or why the
    /// request failed: an I/O error, a non-200 status, or a body the
    /// client's own check rejected.
    pub result: Result<Option<String>, String>,
}

impl Sent {
    /// Wire latency in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// What a client does with a 200 body: keep it for a check after the
/// run (`Ok(Some)`), drop it as already verified (`Ok(None)`), or
/// reject it (`Err`). Checking on the client keeps bodies out of memory,
/// so the peak RSS does not grow with the request count.
pub type Judge<'a> = &'a (dyn Fn(usize, String) -> Result<Option<String>, String> + Sync);

/// A [`Judge`] that keeps every body.
pub fn keep_body(_key: usize, body: String) -> Result<Option<String>, String> {
    Ok(Some(body))
}

/// Records each client reserves up front, so record storage grows
/// without reallocation copies that would show in the peak RSS.
const RECORDS_PER_CLIENT: usize = 1 << 16;

/// Runs one closed-loop client per source: each sends its next request
/// only after the previous reply arrived, until its source is exhausted
/// or `deadline` passes. Returns every exchange, ordered by start.
pub fn drive(
    addr: SocketAddr,
    deadline: Option<Instant>,
    sources: Vec<Box<dyn Iterator<Item = usize> + Send + '_>>,
    raw_of: &(dyn Fn(usize) -> Vec<u8> + Sync),
    judge: Judge,
) -> Vec<Sent> {
    let mut sent: Vec<Sent> = std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .into_iter()
            .map(|mut next| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(RECORDS_PER_CLIENT);
                    while deadline.is_none_or(|d| Instant::now() < d) {
                        let Some(key) = next.next() else { break };
                        let Exchange { start, end, reply } = exchange(addr, &raw_of(key));
                        let result = match reply {
                            Err(e) => Err(format!("I/O error: {e}")),
                            Ok(r) if r.status != 200 => {
                                Err(format!("status {}: {}", r.status, r.body))
                            }
                            Ok(r) => judge(key, r.body),
                        };
                        out.push(Sent {
                            key,
                            start,
                            end,
                            result,
                        });
                    }
                    out
                })
            })
            .collect();
        let parts: Vec<Vec<Sent>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        let mut all = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        for part in parts {
            all.extend(part);
        }
        all
    });
    sent.sort_unstable_by_key(|s| s.start);
    sent
}

/// Requests attempted and failed, with the first few failure reasons.
#[derive(Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Non-200 replies, I/O errors and body mismatches.
    pub failed: u64,
    /// Up to [`Tally::KEEP`] failure descriptions.
    pub reasons: Vec<String>,
}

impl Tally {
    const KEEP: usize = 8;

    /// Counts one sent request; `check` judges a kept body and returns
    /// why it is wrong, if it is.
    pub fn count(&mut self, sent: &Sent, check: impl FnOnce(&str) -> Option<String>) {
        self.attempted += 1;
        let reason = match &sent.result {
            Err(e) => Some(e.clone()),
            Ok(Some(body)) => check(body),
            Ok(None) => None,
        };
        if let Some(reason) = reason {
            self.fail(reason);
        }
    }

    /// Counts as failed a request already counted as succeeded, when a
    /// check made after the run finds its body wrong.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < Self::KEEP {
            self.reasons.push(reason);
        }
    }
}

/// `VmHWM` (peak resident set) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Adds each sent request's wire span to the tracer, with request id
/// `id_of(index)`.
pub fn record_wire(tr: &mut Tracer, sent: &[Sent], id_of: impl Fn(usize) -> u64) {
    for (i, s) in sent.iter().enumerate() {
        let (a, b) = (tr.ns(s.start), tr.ns(s.end));
        tr.record(id_of(i), None, WIRE, a, b);
    }
}

/// One named metric value with its unit.
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric value.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The end-to-end metrics of a timed run: median set-up time, peak RSS,
/// median wire latency of the workload's headline pass, and throughput.
pub fn end_to_end(setup_times: &[f64], rss_mb: f64, p50_ms: f64, rps: f64) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", median(setup_times), "s"),
        Metric::new("peak_rss_mb", rss_mb, "MiB"),
        Metric::new("p50_ms", p50_ms, "ms"),
        Metric::new("rps", rps, "1/s"),
    ]
}

/// Span names of layers, the metric each feeds, and the scale from
/// nanoseconds to the metric's unit.
const LAYERS: [(&str, &str, &str, f64); 19] = [
    ("serve.parse", "serve.parse_us", "us", 1e-3),
    ("serve.render", "serve.render_us", "us", 1e-3),
    ("registry.route", "registry.route_us", "us", 1e-3),
    ("store.logme_hit", "store.logme_hit_us", "us", 1e-3),
    (
        "collect.forward_pass",
        "collect.forward_pass_us",
        "us",
        1e-3,
    ),
    (
        "collect.logme_kernel",
        "collect.logme_kernel_us",
        "us",
        1e-3,
    ),
    ("collect.decomp", "collect.decomp_us", "us", 1e-3),
    ("eval.history", "eval.history_ms", "ms", 1e-6),
    ("eval.truth", "eval.truth_ms", "ms", 1e-6),
    ("graph.inputs", "graph.inputs_ms", "ms", 1e-6),
    ("graph.build", "graph.build_ms", "ms", 1e-6),
    ("graph.node_features", "graph.node_features_ms", "ms", 1e-6),
    ("embed.walks", "embed.walks_ms", "ms", 1e-6),
    ("embed.sgns", "embed.sgns_ms", "ms", 1e-6),
    ("regress.features", "regress.features_ms", "ms", 1e-6),
    ("regress.xgb_fit", "regress.xgb_fit_ms", "ms", 1e-6),
    ("regress.xgb_predict", "regress.xgb_predict_ms", "ms", 1e-6),
    ("regress.linear_fit", "regress.linear_fit_ms", "ms", 1e-6),
    (
        "regress.linear_predict",
        "regress.linear_predict_ms",
        "ms",
        1e-6,
    ),
];

/// What a traced run hands to [`layer_metrics`] besides its spans.
pub struct TraceFacts<'a> {
    /// Request ids with both a wire span and a replay: the population of
    /// `ledger.coverage` and `serve.conn_us`.
    pub ledgered: &'a [u64],
    /// Replay counts.
    pub counts: &'a Counts,
    /// Median first `get_or_build` of a fingerprint, ms.
    pub build_ms: f64,
    /// Store hits and misses over the wire phase; LogME kernel calls
    /// over the whole run, set-up included.
    pub store: StoreCounts,
    /// Resident bytes of the registry at the end.
    pub resident_bytes: u64,
}

/// The per-layer metrics of a traced run, plus, when the ledgered
/// requests' coverage falls below 0.95, a note naming where the uncovered
/// share of wire time sits.
pub fn layer_metrics(tr: &Tracer, facts: &TraceFacts) -> (Vec<Metric>, Option<String>) {
    let by_layer = self_time_by_layer(tr.spans(), &[REPLAY]);
    let wire = by_layer.get(WIRE).cloned().unwrap_or_default();
    let mut metrics = Vec::new();
    for (span, name, unit, scale) in LAYERS {
        let per_request: Vec<f64> = by_layer
            .get(span)
            .map(|m| m.values().map(|&ns| ns as f64 * scale).collect())
            .unwrap_or_default();
        assert!(
            !per_request.is_empty(),
            "traced run recorded no `{span}` span"
        );
        metrics.push(Metric::new(name, median(&per_request), unit));
    }

    // Per ledgered request: wire time and the layers' summed self time.
    let mut layered: BTreeMap<u64, u64> = BTreeMap::new();
    for (span, per_request) in &by_layer {
        if *span == WIRE {
            continue;
        }
        for (&req, &ns) in per_request {
            *layered.entry(req).or_default() += ns;
        }
    }
    let (mut wire_sum, mut layer_sum, mut residual_us) = (0u64, 0u64, Vec::new());
    for req in facts.ledgered {
        let w = wire.get(req).copied().unwrap_or(0);
        let l = layered.get(req).copied().unwrap_or(0);
        wire_sum += w;
        layer_sum += l;
        residual_us.push((w as f64 - l as f64) * 1e-3);
    }
    assert!(wire_sum > 0, "traced run has no ledgered wire requests");
    let coverage = layer_sum as f64 / wire_sum as f64;
    let gap = (coverage < 0.95).then(|| {
        format!(
            "ledger.coverage {coverage:.3} < 0.95 over {} requests: {:.1}% of wire time is in \
             no timed layer. It is the serve.conn residual: connect, accept, queue hand-off, \
             request coalescing and evaluate glue, which have no public call to time, plus the \
             run-to-run variance between a request and its replay",
            facts.ledgered.len(),
            (1.0 - coverage) * 100.0
        )
    });

    let StoreCounts {
        hits,
        misses,
        logme_calls,
    } = facts.store;
    let counts = facts.counts;
    let count = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    metrics.extend([
        Metric::new("serve.conn_us", median(&residual_us), "us"),
        Metric::new("registry.build_ms", facts.build_ms, "ms"),
        Metric::new(
            "registry.resident_mb",
            facts.resident_bytes as f64 / (1024.0 * 1024.0),
            "MiB",
        ),
        Metric::new(
            "store.hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        ),
        Metric::new("collect.logme_calls", logme_calls as f64, "count"),
        Metric::new("graph.nodes", count(&counts.graph_nodes), "count"),
        Metric::new("graph.edges", count(&counts.graph_edges), "count"),
        Metric::new("embed.walk_steps", count(&counts.walk_steps), "count"),
        Metric::new("regress.rows", count(&counts.regress_rows), "count"),
        Metric::new("ledger.coverage", coverage, "ratio"),
    ]);
    (metrics, gap)
}

/// Median wall time of the first `get_or_build` of `config` on fresh
/// memory-only registries, in ms.
pub fn first_build_ms(config: &tg_zoo::ZooConfig) -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let registry = ZooRegistry::new(RegistryOptions::default());
            let start = Instant::now();
            registry.get_or_build(config);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// What one workload run reports.
pub struct Outcome {
    /// Requests attempted and failed, over every phase and check.
    pub tally: Tally,
    /// End-to-end metrics (timed runs) or per-layer metrics (traced runs).
    pub metrics: Vec<Metric>,
    /// Run facts printed on the line before the result: `nproc`, scale,
    /// seed, per-phase request counts, sample counts and percentiles.
    pub info: tg_json::JsonObject,
}

/// Throughput of a phase: the median, over the whole one-second windows
/// of the phase, of the requests completed in each. A transient stall
/// then moves one window, not the metric. Phases with fewer than three
/// whole windows, or with an empty one (requests slower than a window),
/// report requests over wall time instead.
pub fn throughput(sent: &[Sent], start: Instant, wall_s: f64) -> f64 {
    let windows = wall_s.floor() as usize;
    let mut counts = vec![0u32; windows];
    for s in sent {
        let w = s.end.saturating_duration_since(start).as_secs_f64() as usize;
        if let Some(c) = counts.get_mut(w) {
            *c += 1;
        }
    }
    if windows < 3 || counts.contains(&0) {
        return sent.len() as f64 / wall_s.max(1e-9);
    }
    median(&counts.iter().map(|&c| f64::from(c)).collect::<Vec<_>>())
}

/// Summary of one phase's wire latencies for the info line.
pub fn phase_info(name: &str, sent: &[Sent], wall_s: f64) -> tg_json::JsonObject {
    let ms: Vec<f64> = sent.iter().map(Sent::ms).collect();
    let mut o = tg_json::JsonObject::new()
        .str("phase", name)
        .usize("requests", sent.len())
        .f64("wall_s", wall_s)
        .f64("rps", sent.len() as f64 / wall_s.max(1e-9));
    if let Some(s) = crate::stats::Summary::of(&ms) {
        o = o.usize("samples", s.count).f64("p50_ms", s.p50);
        if let (Some(label), Some((_, v))) = (s.tail_label(), s.tail) {
            o = o.f64(&format!("{label}_ms"), v);
        }
    }
    o
}

/// Request-id offset of probe calls, which have no wire exchange.
pub const PROBE_BASE: u64 = 1 << 40;
