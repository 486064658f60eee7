//! `cold-collect`: collection in steady state. Nothing is pre-warmed;
//! the clients send `POST /score` once for every (model, target) pair of
//! a sequence of fresh fingerprints, each fingerprint's pairs in a
//! seed-shuffled order. Every pair is sent exactly once, so the clients
//! never race on one pair and every request misses the store.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use tg_json::JsonObject;
use tg_serve::score_body;
use tg_zoo::{DatasetId, Modality, ModelId, ModelZoo, ZooConfig};
use transfergraph::Workbench;

use crate::harness::{
    clients, drive, end_to_end, first_build_ms, keep_body, layer_metrics, peak_rss_mb, phase_info,
    record_wire, setup, throughput, Outcome, Sent, Tally, TraceFacts, PROBE_BASE, SCALE,
};
use crate::ledger::{probe, replay, Call, Counts, Plan};
use crate::select::{zoo_seed, Stream};
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::wire::post;

/// Fingerprints prepared for a timed run; more than a run can collect.
const MAX_FINGERPRINTS: usize = 64;
/// Fingerprints a traced run collects completely.
const TRACED_FINGERPRINTS: usize = 2;
/// A traced run replays every this-many-th request.
const REPLAY_EVERY: usize = 4;

/// One fresh fingerprint: its zoo and its pairs in send order.
struct Fresh {
    config: ZooConfig,
    zoo: ModelZoo,
    pairs: Vec<(ModelId, DatasetId)>,
}

impl Fresh {
    fn new(seed: u64, index: usize) -> Fresh {
        let config = ZooConfig::paper(zoo_seed(seed, 200 + index as u64));
        let zoo = ModelZoo::build(&config);
        let mut pairs = Vec::new();
        for modality in [Modality::Image, Modality::Text] {
            for &m in &zoo.models_of(modality) {
                for &d in &zoo.targets_of(modality) {
                    pairs.push((m, d));
                }
            }
        }
        Stream::new(seed, 300 + index as u64).shuffle(&mut pairs);
        Fresh { config, zoo, pairs }
    }

    fn body(&self, (m, d): (ModelId, DatasetId)) -> String {
        format!(
            r#"{{"seed": {}, "scale": "{SCALE}", "model": "{}", "target": "{}"}}"#,
            self.config.seed,
            self.zoo.model(m).name,
            self.zoo.dataset(d).name
        )
    }
}

/// The run's fingerprints, built on first use, and the global send order:
/// fingerprint after fingerprint, each in its own shuffled pair order.
struct Schedule {
    seed: u64,
    per_fingerprint: usize,
    fresh: Vec<OnceLock<Fresh>>,
}

impl Schedule {
    fn new(seed: u64, fingerprints: usize) -> Schedule {
        let fresh: Vec<OnceLock<Fresh>> = (0..fingerprints).map(|_| OnceLock::new()).collect();
        let per_fingerprint = fresh[0].get_or_init(|| Fresh::new(seed, 0)).pairs.len();
        Schedule {
            seed,
            per_fingerprint,
            fresh,
        }
    }

    fn len(&self) -> usize {
        self.per_fingerprint * self.fresh.len()
    }

    fn fresh(&self, f: usize) -> &Fresh {
        let fresh = self.fresh[f].get_or_init(|| Fresh::new(self.seed, f));
        assert_eq!(
            fresh.pairs.len(),
            self.per_fingerprint,
            "paper zoos share one shape"
        );
        fresh
    }

    /// Fingerprint and pair of global send position `k`.
    fn at(&self, k: usize) -> (&Fresh, (ModelId, DatasetId)) {
        let fresh = self.fresh(k / self.per_fingerprint);
        (fresh, fresh.pairs[k % self.per_fingerprint])
    }
}

/// Set-ups per run; the run reports their median. Set-up here is only a
/// server start (well under a millisecond, with a long tail from thread
/// start-up), so it takes many repeats for a steady median.
const SETUP_REPEATS: usize = 51;

/// Runs the workload.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let clients = clients();
    let schedule = Schedule::new(
        seed,
        if trace {
            TRACED_FINGERPRINTS
        } else {
            MAX_FINGERPRINTS
        },
    );
    let (h, setup_times) = setup(clients, SETUP_REPEATS, &|_| {});
    let mut tr = Tracer::new();

    let next = AtomicUsize::new(0);
    let sources = (0..clients)
        .map(|_| {
            let next = &next;
            let total = schedule.len();
            Box::new(std::iter::from_fn(move || {
                // Relaxed: the counter only hands out distinct positions.
                let k = next.fetch_add(1, Ordering::Relaxed);
                (k < total).then_some(k)
            })) as Box<dyn Iterator<Item = usize> + Send + '_>
        })
        .collect();
    let deadline = (!trace).then(|| Instant::now() + Duration::from_secs(seconds));
    let raw_of = |k: usize| {
        let (fresh, pair) = schedule.at(k);
        post("/score", &fresh.body(pair))
    };
    let start = Instant::now();
    let sent = drive(h.addr(), deadline, sources, &raw_of, &keep_body);
    let wall_s = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    let touched = sent
        .iter()
        .map(|s| s.key / schedule.per_fingerprint)
        .max()
        .map_or(0, |f| f + 1);
    let configs: Vec<ZooConfig> = (0..touched)
        .map(|f| schedule.fresh(f).config.clone())
        .collect();
    let store = h.store_counts(&configs);

    // Correctness: each body must match the pair's LogME computed
    // directly on a registry-free workbench, rendered by `score_body`.
    let expected = expected_bodies(&schedule, &sent, clients);
    let mut tally = Tally::default();
    for (s, want) in sent.iter().zip(&expected) {
        tally.count(s, |body| {
            (body != want)
                .then(|| format!("score body for send #{} differs from a direct LogME", s.key))
        });
    }

    let ms: Vec<f64> = sent.iter().map(Sent::ms).collect();
    let summary = Summary::of(&ms).expect("cold-collect sent requests");
    let mut info = JsonObject::new()
        .usize("clients", clients)
        .f64("collect_rps", throughput(&sent, start, wall_s))
        .f64("collect_p50_ms", summary.p50)
        .usize("fingerprints", touched)
        .objects("phases", vec![phase_info("collect", &sent, wall_s)]);
    info = match summary.at(0.99) {
        Some(p99) => info.f64("collect_p99_ms", p99),
        None => info.str("collect_p99_ms", "not reported: fewer than 1000 requests"),
    };

    let metrics = if trace {
        record_wire(&mut tr, &sent, |i| i as u64);
        let mut counts = Counts::default();
        let live = h.live();
        let mut ledgered = Vec::new();
        for (i, s) in sent.iter().enumerate().step_by(REPLAY_EVERY) {
            let (fresh, (model, target)) = schedule.at(s.key);
            let call = Call::Score {
                config: fresh.config.clone(),
                model,
                target,
                cold: true,
            };
            let raw = raw_of(s.key);
            replay(&mut tr, &mut counts, &live, i as u64, &raw, &call);
            ledgered.push(i as u64);
        }
        // Layers collection does not reach: the tg path and the linear
        // regressor, on the first fingerprint, now fully collected.
        let first = schedule.fresh(0);
        let targets = first.zoo.targets_of(Modality::Image);
        let target = targets[Stream::new(seed, 5).below(targets.len())];
        for (k, p) in [Plan::Tg, Plan::Lr, Plan::LrAllLogme]
            .into_iter()
            .enumerate()
        {
            let call = Call::Recommend {
                config: first.config.clone(),
                target,
                plan: p,
            };
            probe(&mut tr, &mut counts, &live, PROBE_BASE + k as u64, &call);
        }
        let facts = TraceFacts {
            ledgered: &ledgered,
            counts: &counts,
            build_ms: first_build_ms(&first.config),
            store,
            resident_bytes: h.registry.stats().resident_bytes,
        };
        let (metrics, _) = layer_metrics(&tr, &facts);
        crate::write_trace(&tr, "cold-collect", seed);
        metrics
    } else {
        end_to_end(
            &setup_times,
            rss,
            summary.p50,
            throughput(&sent, start, wall_s),
        )
    };
    h.server.shutdown();
    info = info.f64s("setup_s", &setup_times);
    Outcome {
        tally,
        metrics,
        info,
    }
}

/// Expected body of every sent request, computed on one registry-free
/// workbench per fingerprint, split across `workers` threads.
fn expected_bodies(schedule: &Schedule, sent: &[Sent], workers: usize) -> Vec<String> {
    let touched = sent
        .iter()
        .map(|s| s.key / schedule.per_fingerprint)
        .max()
        .map_or(0, |f| f + 1);
    let benches: Vec<Workbench> = (0..touched)
        .map(|f| Workbench::new(&schedule.fresh(f).zoo))
        .collect();
    let mut out = vec![String::new(); sent.len()];
    std::thread::scope(|scope| {
        let chunk = sent.len().div_ceil(workers.max(1)).max(1);
        for (part, slots) in sent.chunks(chunk).zip(out.chunks_mut(chunk)) {
            let benches = &benches;
            scope.spawn(move || {
                for (s, slot) in part.iter().zip(slots) {
                    let f = s.key / schedule.per_fingerprint;
                    let (fresh, (m, d)) = schedule.at(s.key);
                    let logme = benches[f].logme(m, d);
                    *slot = score_body(
                        fresh.config.fingerprint(),
                        &fresh.zoo.model(m).name,
                        &fresh.zoo.dataset(d).name,
                        logme,
                    )
                    .render();
                }
            });
        }
    });
    out
}
