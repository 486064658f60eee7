//! The layer ledger: replays a request's work through each layer's
//! public functions, one span per layer call.
//!
//! The program is measured only from outside. A traced run first sends
//! its wire requests, then replays each one here, in the same process
//! and against the same warm registry, so every layer call sees the cache
//! state the server saw. Layer names follow the repository's modules;
//! the replay mirrors what `tg-serve` and `transfergraph::evaluate` do
//! for the request, calling only their public building blocks.

use std::io::BufReader;

use tg_embed::{train_sgns, Node2VecPlus};
use tg_graph::{build_graph, generate_walks, GraphConfig};
use tg_json::JsonValue;
use tg_linalg::Matrix;
use tg_predict::RegressorKind;
use tg_rng::Rng;
use tg_serve::http::{parse_request, Response};
use tg_serve::{recommend_body, score_body, stats_body, Server};
use tg_transfer::{Labels, LogMe};
use tg_zoo::{DatasetId, DatasetRole, ModelId, ModelZoo, ZooConfig};
use transfergraph::features::{node_feature_matrix, pair_features};
use transfergraph::pipeline::{build_loo_graph_inputs, LooGraph};
use transfergraph::{EvalOptions, EvalOutcome, FeatureSet, Strategy, Workbench, ZooRegistry};

use crate::trace::{SpanId, Tracer};

/// Span name of a request's wire exchange.
pub const WIRE: &str = "wire";
/// Span name enclosing one request's replayed layer calls.
pub const REPLAY: &str = "replay";

/// The `/recommend` strategies the workloads send, with their wire names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plan {
    /// `lr`: linear regression over metadata.
    Lr,
    /// `lr-all-logme`: linear regression over metadata, similarity and
    /// LogME.
    LrAllLogme,
    /// `tg`: the paper's TransferGraph (XGB over Node2Vec+ embeddings).
    Tg,
}

impl Plan {
    /// Name on the wire.
    pub fn wire_name(self) -> &'static str {
        match self {
            Plan::Lr => "lr",
            Plan::LrAllLogme => "lr-all-logme",
            Plan::Tg => "tg",
        }
    }

    /// The strategy the server resolves the wire name to.
    pub fn strategy(self) -> Strategy {
        match self {
            Plan::Lr => Strategy::lr_baseline(),
            Plan::LrAllLogme => Strategy::lr_all_logme(),
            Plan::Tg => Strategy::transfer_graph_default(),
        }
    }
}

/// What one request asks the server to do.
#[derive(Clone, Debug)]
pub enum Call {
    /// `POST /score`. `cold` means the pair was not cached when the
    /// request ran, so the server collected it: forward pass, LogME
    /// kernel and store insert.
    Score {
        /// Zoo the request routes to.
        config: ZooConfig,
        /// Candidate model.
        model: ModelId,
        /// Target dataset.
        target: DatasetId,
        /// Whether the server computed the score for this request.
        cold: bool,
    },
    /// `POST /recommend`.
    Recommend {
        /// Zoo the request routes to.
        config: ZooConfig,
        /// Target dataset.
        target: DatasetId,
        /// Strategy sent.
        plan: Plan,
    },
    /// `GET /stats`.
    Stats,
}

/// Counts the replays observe, one entry per replayed request.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Nodes of each built graph.
    pub graph_nodes: Vec<f64>,
    /// Edges of each built graph.
    pub graph_edges: Vec<f64>,
    /// Walk steps generated per request.
    pub walk_steps: Vec<f64>,
    /// Regression training rows per request.
    pub regress_rows: Vec<f64>,
}

/// Everything a replay touches besides the tracer.
pub struct Live<'a> {
    /// The server whose wire requests are replayed (for `/stats`).
    pub server: &'a Server,
    /// The server's registry.
    pub registry: &'a ZooRegistry,
}

/// Replays request `request` (raw bytes `raw`, meaning `call`) through
/// the layers' public functions, recording one span per layer call under
/// a [`REPLAY`] root.
pub fn replay(
    tr: &mut Tracer,
    counts: &mut Counts,
    at: &Live,
    request: u64,
    raw: &[u8],
    call: &Call,
) {
    let root = tr.begin(request, None, REPLAY);
    let parent = Some(root);
    tr.time(request, parent, "serve.parse", || {
        let parsed = parse_request(&mut BufReader::new(raw)).expect("replayed request parses");
        if !parsed.body.is_empty() {
            let body = parsed.body_utf8().expect("replayed body is UTF-8");
            JsonValue::parse(body).expect("replayed body is JSON");
        }
    });
    let response = match call {
        Call::Stats => tr.time(request, parent, "serve.render", || {
            let body = stats_body(
                &at.server.stats(),
                &at.server.coalesce_stats(),
                &at.registry.stats(),
            );
            write(&Response::json(200, body.render()))
        }),
        Call::Score {
            config,
            model,
            target,
            cold,
        } => {
            let handle = tr.time(request, parent, "registry.route", || {
                at.registry.get_or_build(config)
            });
            let (m, d) = (*model, *target);
            if *cold {
                collect(tr, request, parent, handle.zoo(), m, d);
            }
            let wb = handle.workbench();
            let logme = tr.time(request, parent, "store.logme_hit", || wb.logme(m, d));
            let zoo = handle.zoo();
            tr.time(request, parent, "serve.render", || {
                let body = score_body(
                    config.fingerprint(),
                    &zoo.model(m).name,
                    &zoo.dataset(d).name,
                    logme,
                );
                write(&Response::json(200, body.render()))
            })
        }
        Call::Recommend {
            config,
            target,
            plan,
        } => {
            let handle = tr.time(request, parent, "registry.route", || {
                at.registry.get_or_build(config)
            });
            let outcome = evaluate(
                tr,
                counts,
                request,
                parent,
                handle.workbench(),
                *target,
                *plan,
            );
            let zoo = handle.zoo();
            tr.time(request, parent, "serve.render", || {
                let body = recommend_body(zoo, config.fingerprint(), &outcome, 5);
                write(&Response::json(200, body.render()))
            })
        }
    };
    tr.end(root);
    std::hint::black_box(response);
}

/// Times the layer work of `call` without the serving layers (parse,
/// route, render). Workloads use it for layers their own requests do not
/// reach, so every layer is measured in every traced run; probe requests
/// have no wire span and stay out of the coverage ledger.
pub fn probe(tr: &mut Tracer, counts: &mut Counts, at: &Live, request: u64, call: &Call) {
    let root = tr.begin(request, None, REPLAY);
    let parent = Some(root);
    match call {
        Call::Score {
            config,
            model,
            target,
            ..
        } => {
            let handle = at.registry.get_or_build(config);
            collect(tr, request, parent, handle.zoo(), *model, *target);
            let wb = handle.workbench();
            tr.time(request, parent, "store.logme_hit", || {
                wb.logme(*model, *target)
            });
        }
        Call::Recommend {
            config,
            target,
            plan,
        } => {
            let handle = at.registry.get_or_build(config);
            evaluate(
                tr,
                counts,
                request,
                parent,
                handle.workbench(),
                *target,
                *plan,
            );
        }
        Call::Stats => {}
    }
    tr.end(root);
}

fn write(response: &Response) -> Vec<u8> {
    let mut buf = Vec::with_capacity(response.body.len() + 128);
    response
        .write_to(&mut buf)
        .expect("writing into a Vec cannot fail");
    buf
}

/// Feature collection for one pair, as a cache miss runs it: forward
/// pass, then the LogME kernel, whose reported decomposition time becomes
/// a child span placed at the kernel's start.
pub fn collect(
    tr: &mut Tracer,
    request: u64,
    parent: Option<SpanId>,
    zoo: &ModelZoo,
    m: ModelId,
    d: DatasetId,
) {
    let fp = tr.time(request, parent, "collect.forward_pass", || {
        zoo.forward_pass(m, d)
    });
    let kernel = tr.begin(request, parent, "collect.logme_kernel");
    let labels = Labels::new(&fp.labels, fp.num_classes).expect("simulated labels are valid");
    let (_, report) = LogMe::batched()
        .score_with_report(&fp.features, &labels)
        .expect("simulated forward passes score");
    tr.end(kernel);
    let start = tr.spans()[kernel].start_ns;
    let decomp_ns = report.decomp.as_nanos() as u64;
    tr.record(
        request,
        Some(kernel),
        "collect.decomp",
        start,
        start + decomp_ns,
    );
}

/// The work of `transfergraph::evaluate` for `plan` on `target`, split
/// into layer calls.
fn evaluate(
    tr: &mut Tracer,
    counts: &mut Counts,
    request: u64,
    parent: Option<SpanId>,
    wb: &Workbench,
    target: DatasetId,
    plan: Plan,
) -> EvalOutcome {
    let zoo = wb.zoo();
    let opts = EvalOptions::default();
    let modality = zoo.dataset(target).modality;
    let models = zoo.models_of(modality);
    let mut rng = Rng::seed_from_u64(request ^ opts.seed);

    let (history, rows) = tr.time(request, parent, "eval.history", || {
        let history = zoo
            .full_history(modality, opts.train_method)
            .excluding_dataset(target);
        let rows: Vec<(ModelId, DatasetId, f64)> = history
            .records()
            .iter()
            .filter(|r| zoo.dataset(r.dataset).role == DatasetRole::Target)
            .map(|r| (r.model, r.dataset, r.accuracy))
            .collect();
        (history, rows)
    });
    counts.regress_rows.push(rows.len() as f64);

    let loo = (plan == Plan::Tg).then(|| {
        let inputs = tr.time(request, parent, "graph.inputs", || {
            build_loo_graph_inputs(wb, target, &history, &opts)
        });
        let graph = tr.time(request, parent, "graph.build", || {
            build_graph(&inputs, &GraphConfig::default())
        });
        tr.time(request, parent, "graph.node_features", || {
            node_feature_matrix(wb, &graph, opts.representation)
        });
        let learner = Node2VecPlus::with_dim(opts.embed_dim);
        let mut walk_cfg = learner.walks.clone();
        walk_cfg.weighted = true;
        let walks = tr.time(request, parent, "embed.walks", || {
            generate_walks(&graph, &walk_cfg, &mut rng)
        });
        let embeddings = tr.time(request, parent, "embed.sgns", || {
            train_sgns(&walks, graph.num_nodes(), &learner.sgns, &mut rng)
        });
        counts.graph_nodes.push(graph.num_nodes() as f64);
        counts.graph_edges.push(graph.edges().len() as f64);
        counts
            .walk_steps
            .push(walks.iter().map(Vec::len).sum::<usize>() as f64);
        LooGraph { graph, embeddings }
    });

    let (features, regressor) = match plan {
        Plan::Lr => (FeatureSet::MetadataOnly, RegressorKind::Linear),
        Plan::LrAllLogme => (FeatureSet::MetadataSimLogme, RegressorKind::Linear),
        Plan::Tg => (FeatureSet::All, RegressorKind::Xgb),
    };
    let (x, y, px) = tr.time(request, parent, "regress.features", || {
        let row = |m: ModelId, d: DatasetId| {
            let (emb, mn, dn) = match &loo {
                Some(l) => (Some(&l.embeddings), l.model_node(m), l.dataset_node(d)),
                None => (None, None, None),
            };
            pair_features(wb, m, d, features, opts.representation, emb, mn, dn)
        };
        let x_rows: Vec<Vec<f64>> = rows.iter().map(|&(m, d, _)| row(m, d)).collect();
        let y: Vec<f64> = rows.iter().map(|&(_, _, acc)| acc).collect();
        let p_rows: Vec<Vec<f64>> = models.iter().map(|&m| row(m, target)).collect();
        let width = x_rows[0].len();
        (
            Matrix::from_fn(x_rows.len(), width, |r, c| x_rows[r][c]),
            y,
            Matrix::from_fn(p_rows.len(), width, |r, c| p_rows[r][c]),
        )
    });
    let (fit, predict) = match regressor {
        RegressorKind::Xgb => ("regress.xgb_fit", "regress.xgb_predict"),
        _ => ("regress.linear_fit", "regress.linear_predict"),
    };
    let mut model = regressor.build();
    tr.time(request, parent, fit, || model.fit(&x, &y, &mut rng));
    let predictions = tr.time(request, parent, predict, || model.predict(&px));

    tr.time(request, parent, "eval.truth", || {
        let ground_truth: Vec<f64> = models
            .iter()
            .map(|&m| zoo.fine_tune(m, target, opts.eval_method))
            .collect();
        EvalOutcome {
            dataset: target,
            strategy: plan.strategy().label(),
            pearson: tg_linalg::stats::pearson(&ground_truth, &predictions),
            spearman: tg_linalg::stats::spearman(&ground_truth, &predictions),
            top5_accuracy: transfergraph::metrics::top_k_accuracy(&predictions, &ground_truth, 5),
            predictions,
            ground_truth,
            models: models.clone(),
        }
    })
}
