//! `serve-mix`: warm serving. Set-up warms LogME for both modalities of
//! three fingerprints; then every client sends ~80% `POST /score` spread
//! over all (model, target) pairs, ~10% `POST /recommend` with `lr` and
//! `lr-all-logme` spread over all targets, and ~10% `GET /stats`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tg_json::{JsonObject, JsonValue};
use tg_serve::{recommend_body, score_body};
use tg_zoo::{Modality, ModelZoo, ZooConfig};
use transfergraph::{evaluate, EvalOptions, Workbench};

use crate::harness::{
    clients, drive, end_to_end, first_build_ms, layer_metrics, peak_rss_mb, phase_info,
    record_wire, setup, throughput, Outcome, Sent, Tally, TraceFacts, PROBE_BASE, SCALE, TOP_K,
};
use crate::ledger::{probe, replay, Call, Counts, Plan};
use crate::select::{zoo_seed, Stream};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::wire::{get, post};

/// Fingerprints resident in the server.
const FINGERPRINTS: u64 = 3;
/// Requests each client sends in a traced run.
const TRACED_PER_CLIENT: usize = 1000;
/// Image pairs the traced run probes for the collection layers.
const COLLECT_PROBES: usize = 64;

/// One entry of the request table.
struct Entry {
    raw: Vec<u8>,
    call: Call,
    /// Expected body; `None` for `/stats`, which is checked for shape.
    expected: Option<String>,
}

/// The request table: every score pair, every recommend key, and stats.
struct Table {
    entries: Vec<Entry>,
    scores: usize,
    recommends: usize,
}

impl Table {
    /// Builds every request with its expected body, computed directly on
    /// registry-free workbenches and rendered through the server's own
    /// renderers.
    fn build(configs: &[ZooConfig]) -> Table {
        let mut scores = Vec::new();
        let mut recommends = Vec::new();
        for config in configs {
            let zoo = ModelZoo::build(config);
            let wb = Workbench::new(&zoo);
            let fp = config.fingerprint();
            for modality in [Modality::Image, Modality::Text] {
                wb.warm_logme(modality);
                for &m in &zoo.models_of(modality) {
                    for &d in &zoo.targets_of(modality) {
                        let (model, target) = (&zoo.model(m).name, &zoo.dataset(d).name);
                        let body = format!(
                            r#"{{"seed": {}, "scale": "{SCALE}", "model": "{model}", "target": "{target}"}}"#,
                            config.seed
                        );
                        scores.push(Entry {
                            raw: post("/score", &body),
                            call: Call::Score {
                                config: config.clone(),
                                model: m,
                                target: d,
                                cold: false,
                            },
                            expected: Some(score_body(fp, model, target, wb.logme(m, d)).render()),
                        });
                    }
                }
                for &d in &zoo.targets_of(modality) {
                    for plan in [Plan::Lr, Plan::LrAllLogme] {
                        let body = format!(
                            r#"{{"seed": {}, "scale": "{SCALE}", "target": "{}", "strategy": "{}", "top_k": {TOP_K}}}"#,
                            config.seed,
                            zoo.dataset(d).name,
                            plan.wire_name()
                        );
                        let outcome = evaluate(&wb, &plan.strategy(), d, &EvalOptions::default());
                        recommends.push(Entry {
                            raw: post("/recommend", &body),
                            call: Call::Recommend {
                                config: config.clone(),
                                target: d,
                                plan,
                            },
                            expected: Some(recommend_body(&zoo, fp, &outcome, TOP_K).render()),
                        });
                    }
                }
            }
        }
        let (n_scores, n_recommends) = (scores.len(), recommends.len());
        let mut entries = scores;
        entries.extend(recommends);
        entries.push(Entry {
            raw: get("/stats"),
            call: Call::Stats,
            expected: None,
        });
        Table {
            entries,
            scores: n_scores,
            recommends: n_recommends,
        }
    }

    /// Draws the next key of the 80/10/10 mix.
    fn draw(&self, s: &mut Stream) -> usize {
        match s.below(10) {
            0 => self.scores + s.below(self.recommends),
            1 => self.entries.len() - 1,
            _ => s.below(self.scores),
        }
    }

    fn kind(&self, key: usize) -> &'static str {
        if key < self.scores {
            "score"
        } else if key < self.scores + self.recommends {
            "recommend"
        } else {
            "stats"
        }
    }
}

/// Set-ups per run; the run reports their median.
const SETUP_REPEATS: usize = 3;

/// Runs the workload.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let clients = clients();
    let configs: Vec<ZooConfig> = (0..FINGERPRINTS)
        .map(|i| ZooConfig::paper(zoo_seed(seed, 100 + i)))
        .collect();
    let table = Arc::new(Table::build(&configs));

    let (h, setup_times) = setup(clients, SETUP_REPEATS, &|registry| {
        for config in &configs {
            let handle = registry.get_or_build(config);
            handle.workbench().warm_logme(Modality::Image);
            handle.workbench().warm_logme(Modality::Text);
        }
    });
    let store_before = h.store_counts(&configs);
    let mut tr = Tracer::new();

    let quota = if trace { TRACED_PER_CLIENT } else { usize::MAX };
    let sources = (0..clients)
        .map(|c| {
            let table = Arc::clone(&table);
            let mut stream = Stream::new(seed, 200 + c as u64);
            let mut left = quota;
            Box::new(std::iter::from_fn(move || {
                left = left.checked_sub(1)?;
                Some(table.draw(&mut stream))
            })) as Box<dyn Iterator<Item = usize> + Send>
        })
        .collect();
    let deadline = (!trace).then(|| Instant::now() + Duration::from_secs(seconds));
    let start = Instant::now();
    let judge = |key: usize, body: String| {
        let ok = match &table.entries[key].expected {
            Some(expected) => body == *expected,
            None => JsonValue::parse(&body).is_ok_and(|j| j.get("server").is_some()),
        };
        if ok {
            Ok(None)
        } else {
            Err(format!(
                "{} body differs from the direct computation",
                table.kind(key)
            ))
        }
    };
    let sent = drive(
        h.addr(),
        deadline,
        sources,
        &|k| table.entries[k].raw.clone(),
        &judge,
    );
    let wall_s = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    let store_after = h.store_counts(&configs);

    // Bodies were compared on the client threads, byte for byte, with the
    // direct registry-free computation (stats bodies for their shape).
    let mut tally = Tally::default();
    for s in &sent {
        tally.count(s, |_| None);
    }

    let ms: Vec<f64> = sent.iter().map(Sent::ms).collect();
    let summary = Summary::of(&ms).expect("serve-mix sent requests");
    let by_kind = |kind: &str| {
        let part: Vec<&Sent> = sent.iter().filter(|s| table.kind(s.key) == kind).collect();
        let ms: Vec<f64> = part.iter().map(|s| s.ms()).collect();
        JsonObject::new()
            .str("kind", kind)
            .usize("requests", part.len())
            .f64("p50_ms", median(&ms))
    };
    let mut info = JsonObject::new()
        .usize("clients", clients)
        .f64("serve_rps", throughput(&sent, start, wall_s))
        .f64("serve_p50_ms", summary.p50)
        .objects("phases", vec![phase_info("mix", &sent, wall_s)])
        .objects(
            "kinds",
            vec![by_kind("score"), by_kind("recommend"), by_kind("stats")],
        );
    info = match summary.at(0.99) {
        Some(p99) => info.f64("serve_p99_ms", p99),
        None => info.str("serve_p99_ms", "not reported: fewer than 1000 requests"),
    };

    let metrics = if trace {
        record_wire(&mut tr, &sent, |i| i as u64);
        let mut counts = Counts::default();
        let live = h.live();
        for (i, s) in sent.iter().enumerate() {
            let entry = &table.entries[s.key];
            replay(
                &mut tr,
                &mut counts,
                &live,
                i as u64,
                &entry.raw,
                &entry.call,
            );
        }
        // Layers the mix does not reach: collection and the tg path.
        let zoo = ModelZoo::build(&configs[0]);
        let (models, targets) = (
            zoo.models_of(Modality::Image),
            zoo.targets_of(Modality::Image),
        );
        let pairs = Stream::new(seed, 4).pick(models.len() * targets.len(), COLLECT_PROBES);
        for (k, p) in pairs.into_iter().enumerate() {
            let call = Call::Score {
                config: configs[0].clone(),
                model: models[p / targets.len()],
                target: targets[p % targets.len()],
                cold: true,
            };
            probe(&mut tr, &mut counts, &live, PROBE_BASE + k as u64, &call);
        }
        let call = Call::Recommend {
            config: configs[0].clone(),
            target: targets[Stream::new(seed, 5).below(targets.len())],
            plan: Plan::Tg,
        };
        probe(
            &mut tr,
            &mut counts,
            &live,
            PROBE_BASE + COLLECT_PROBES as u64,
            &call,
        );
        let ledgered: Vec<u64> = (0..sent.len() as u64).collect();
        let facts = TraceFacts {
            ledgered: &ledgered,
            counts: &counts,
            build_ms: first_build_ms(&configs[0]),
            store: store_after.since(store_before),
            resident_bytes: h.registry.stats().resident_bytes,
        };
        let (metrics, _) = layer_metrics(&tr, &facts);
        crate::write_trace(&tr, "serve-mix", seed);
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
