//! `tg-sweep`: the paper's own path. One client sends `POST /recommend
//! strategy=tg` once for each of a seed-picked set of image targets (the
//! cold pass), then again for all of them in a shuffled order (the repeat
//! pass). Set-up warms the fingerprint's image LogME.

use std::time::Instant;

use tg_json::{JsonObject, JsonValue};
use tg_serve::recommend_body;
use tg_zoo::{DatasetId, FineTuneMethod, Modality, ModelZoo, ZooConfig};
use transfergraph::{evaluate, EvalOptions, Workbench};

use crate::harness::{
    drive, end_to_end, first_build_ms, keep_body, layer_metrics, peak_rss_mb, phase_info,
    record_wire, setup, Outcome, Sent, StoreCounts, Tally, TraceFacts, PROBE_BASE, SCALE, TOP_K,
};
use crate::ledger::{probe, replay, Call, Counts, Plan};
use crate::select::{zoo_seed, Stream};
use crate::stats::{median, pearson};
use crate::trace::Tracer;
use crate::wire::post;

/// Seconds of `--seconds` per target: one `tg` request costs about 8 s
/// at paper scale on a 2-core machine.
const SECONDS_PER_TARGET: u64 = 8;
/// Fewest targets per run. Whole-run machine drift, not the target
/// count, dominates the spread of the cold median across runs (measured
/// alike with 2 and 3 targets), and a third target costs 17 s per run.
const MIN_TARGETS: usize = 2;

/// Image pairs the traced run probes for the collection layers.
const COLLECT_PROBES: usize = 64;

/// Targets per run: one per [`SECONDS_PER_TARGET`] of `--seconds`, at
/// least [`MIN_TARGETS`].
pub fn target_count(seconds: u64, available: usize) -> usize {
    ((seconds / SECONDS_PER_TARGET) as usize).clamp(MIN_TARGETS, available)
}

/// Set-ups per run; the run reports their median.
const SETUP_REPEATS: usize = 3;

/// Runs the workload.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let config = ZooConfig::paper(zoo_seed(seed, 0));
    let zoo = ModelZoo::build(&config);
    let all = zoo.targets_of(Modality::Image);
    let n = target_count(seconds, all.len());
    let targets: Vec<DatasetId> = Stream::new(seed, 1)
        .pick(all.len(), n)
        .into_iter()
        .map(|i| all[i])
        .collect();
    let mut repeat_order: Vec<usize> = (0..n).collect();
    Stream::new(seed, 2).shuffle(&mut repeat_order);
    let raws: Vec<Vec<u8>> = targets
        .iter()
        .map(|&t| {
            let body = format!(
                r#"{{"seed": {}, "scale": "{SCALE}", "target": "{}", "strategy": "tg", "top_k": {TOP_K}}}"#,
                config.seed,
                zoo.dataset(t).name
            );
            post("/recommend", &body)
        })
        .collect();
    let raw_of = |k: usize| raws[k].clone();

    let (h, setup_times) = setup(1, SETUP_REPEATS, &|registry| {
        registry
            .get_or_build(&config)
            .workbench()
            .warm_logme(Modality::Image);
    });
    let zoos = std::slice::from_ref(&config);
    let store_before = h.store_counts(zoos);
    let mut tr = Tracer::new();
    let mut counts = Counts::default();
    let mut replay_hits = 0;

    let start = Instant::now();
    let cold = if trace {
        // Each cold request is replayed right after its reply, so the two
        // run under the same machine conditions; the replay only reads
        // caches the request filled, and its hits are left out of the
        // store counts.
        let mut cold = Vec::with_capacity(n);
        for i in 0..n {
            cold.extend(drive(
                h.addr(),
                None,
                vec![Box::new(std::iter::once(i))],
                &raw_of,
                &keep_body,
            ));
            let call = Call::Recommend {
                config: config.clone(),
                target: targets[i],
                plan: Plan::Tg,
            };
            let before = h.store_counts(zoos);
            replay(&mut tr, &mut counts, &h.live(), i as u64, &raws[i], &call);
            replay_hits += h.store_counts(zoos).hits - before.hits;
        }
        cold
    } else {
        drive(h.addr(), None, vec![Box::new(0..n)], &raw_of, &keep_body)
    };
    // A traced cold pass also holds the replays: count wire time only.
    let cold_s = if trace {
        cold.iter().map(|s| (s.end - s.start).as_secs_f64()).sum()
    } else {
        start.elapsed().as_secs_f64()
    };
    let start = Instant::now();
    let repeat = drive(
        h.addr(),
        None,
        vec![Box::new(repeat_order.iter().copied())],
        &raw_of,
        &keep_body,
    );
    let repeat_s = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    let store_after = h.store_counts(zoos);

    // Correctness: every body parses and carries one score per model; a
    // repeat matches its cold body byte for byte; one seed-picked target
    // matches a direct, registry-free evaluate computed now.
    let mut tally = Tally::default();
    let models = zoo.models_of(Modality::Image);
    let mut cold_bodies: Vec<Option<String>> = vec![None; n];
    let mut pearsons: Vec<Option<f64>> = vec![None; n];
    for s in &cold {
        let target = targets[s.key];
        tally.count(s, |body| {
            let Some(scores) = scores_of(body) else {
                return Some("body has no numeric `scores` array".to_string());
            };
            if scores.len() != models.len() {
                return Some(format!(
                    "{} scores for {} models",
                    scores.len(),
                    models.len()
                ));
            }
            let truth: Vec<f64> = models
                .iter()
                .map(|&m| zoo.fine_tune(m, target, FineTuneMethod::Full))
                .collect();
            pearsons[s.key] = pearson(&truth, &scores);
            cold_bodies[s.key] = Some(body.to_string());
            None
        });
    }
    for s in &repeat {
        tally.count(s, |body| {
            (cold_bodies[s.key].as_deref() != Some(body)).then(|| {
                format!(
                    "repeat body for target #{} differs from its cold body",
                    s.key
                )
            })
        });
    }
    let direct = Stream::new(seed, 3).below(n);
    let wb = Workbench::new(&zoo);
    wb.warm_logme(Modality::Image);
    let outcome = evaluate(
        &wb,
        &Plan::Tg.strategy(),
        targets[direct],
        &EvalOptions::default(),
    );
    let expected = recommend_body(&zoo, config.fingerprint(), &outcome, TOP_K).render();
    let recomputed = pearsons[direct];
    let name = &zoo.dataset(targets[direct]).name;
    if cold_bodies[direct].as_deref() != Some(expected.as_str()) {
        tally.fail(format!(
            "cold body for {name} differs from a direct evaluate"
        ));
    } else if !matches!((recomputed, outcome.pearson), (Some(a), Some(b)) if (a - b).abs() < 1e-9) {
        tally.fail(format!(
            "Pearson for {name} recomputed from the body, {recomputed:?}, disagrees with \
             evaluate's {:?}",
            outcome.pearson
        ));
    }

    let cold_ms: Vec<f64> = cold.iter().map(Sent::ms).collect();
    let repeat_ms: Vec<f64> = repeat.iter().map(Sent::ms).collect();
    let mut info = JsonObject::new()
        .usize("clients", 1)
        .f64("tg_cold_p50_s", median(&cold_ms) / 1e3)
        .f64("tg_repeat_p50_s", median(&repeat_ms) / 1e3)
        .f64(
            "tg_pearson_mean",
            pearsons.iter().map(|p| p.unwrap_or(f64::NAN)).sum::<f64>() / n as f64,
        )
        .str(
            "percentiles",
            "medians only: each pass has fewer than 21 samples, so no tail percentile has 10 beyond it",
        )
        .strs("targets", targets.iter().map(|&t| zoo.dataset(t).name.clone()))
        .objects(
            "phases",
            vec![
                phase_info("cold", &cold, cold_s),
                phase_info("repeat", &repeat, repeat_s),
            ],
        );

    let metrics = if trace {
        record_wire(&mut tr, &cold, |i| i as u64);
        record_wire(&mut tr, &repeat, |i| (n + i) as u64);
        let live = h.live();
        // Layers tg requests do not reach: collection (done in set-up)
        // and the linear regressor.
        let pairs = Stream::new(seed, 4).pick(models.len() * all.len(), COLLECT_PROBES);
        for (k, p) in pairs.into_iter().enumerate() {
            let call = Call::Score {
                config: config.clone(),
                model: models[p / all.len()],
                target: all[p % all.len()],
                cold: true,
            };
            probe(&mut tr, &mut counts, &live, PROBE_BASE + k as u64, &call);
        }
        for (k, plan) in [Plan::Lr, Plan::LrAllLogme].into_iter().enumerate() {
            let call = Call::Recommend {
                config: config.clone(),
                target: targets[0],
                plan,
            };
            probe(
                &mut tr,
                &mut counts,
                &live,
                PROBE_BASE + (COLLECT_PROBES + k) as u64,
                &call,
            );
        }
        let ledgered: Vec<u64> = (0..cold.len() as u64).collect();
        let facts = TraceFacts {
            ledgered: &ledgered,
            counts: &counts,
            build_ms: first_build_ms(&config),
            store: StoreCounts {
                hits: store_after.hits - store_before.hits - replay_hits,
                ..store_after.since(store_before)
            },
            resident_bytes: h.registry.stats().resident_bytes,
        };
        let (metrics, gap) = layer_metrics(&tr, &facts);
        if let Some(gap) = gap {
            eprintln!("[perfbench] {gap}");
            info = info.str("ledger_gap", &gap);
        }
        crate::write_trace(&tr, "tg-sweep", seed);
        metrics
    } else {
        end_to_end(
            &setup_times,
            rss,
            median(&cold_ms),
            (cold.len() + repeat.len()) as f64 / (cold_s + repeat_s),
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

/// The `scores` array of a `/recommend` body.
fn scores_of(body: &str) -> Option<Vec<f64>> {
    let json = JsonValue::parse(body).ok()?;
    json.get("scores")?
        .as_array()?
        .iter()
        .map(JsonValue::as_f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_count_follows_the_time_budget() {
        assert_eq!(target_count(1, 12), 2);
        assert_eq!(target_count(10, 12), 2);
        assert_eq!(target_count(40, 12), 5);
        assert_eq!(target_count(1000, 12), 12);
    }

    #[test]
    fn scores_parse_from_a_rendered_body() {
        let body = JsonObject::new()
            .str("target", "t")
            .f64s("scores", &[0.25, -1.5, 3.0])
            .render();
        assert_eq!(scores_of(&body), Some(vec![0.25, -1.5, 3.0]));
        assert_eq!(scores_of("{\"scores\": [1, \"x\"]}"), None);
        assert_eq!(scores_of("not json"), None);
    }
}
