//! Model-selection strategies: the baselines of §VII-A and the
//! TransferGraph variants.

use crate::config::FeatureSet;
use tg_embed::LearnerKind;
use tg_predict::RegressorKind;

/// A model-selection strategy, producing one score per candidate model for
/// a target dataset (higher = recommended first).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Uniform random scores — the naive baseline of Fig. 2.
    Random,
    /// Raw LogME scores of each model's forward pass on the target
    /// (feature-based baseline, You et al. 2021).
    LogMe,
    /// Similarity-weighted nearest-neighbour over the training history: a
    /// model's score is the mean of its accuracies on other datasets,
    /// weighted by each dataset's similarity to the target. A strong,
    /// simple, non-learned use of the same relationships TransferGraph
    /// exploits (reproduction extension; not in the paper's line-up).
    HistoryNn,
    /// Learning-based baseline (Amazon LR): a regressor over tabular
    /// features *without* graph features. `LR` = metadata only;
    /// `LR{all, LogME}` = metadata + similarity + LogME.
    Learned {
        /// Prediction model (the paper's baselines use linear regression).
        regressor: RegressorKind,
        /// Feature blocks (must not include graph features).
        features: FeatureSet,
    },
    /// TransferGraph: a regressor over features that include graph
    /// embeddings from a graph learner.
    TransferGraph {
        /// Prediction model (LR / RF / XGB).
        regressor: RegressorKind,
        /// Graph learner (N2V / N2V+ / GraphSAGE / GAT).
        learner: LearnerKind,
        /// Feature blocks (GraphOnly or All).
        features: FeatureSet,
    },
}

impl Strategy {
    /// The paper's headline variant: `TG:XGB, N2V+, all`.
    pub fn transfer_graph_default() -> Strategy {
        Strategy::TransferGraph {
            regressor: RegressorKind::Xgb,
            learner: LearnerKind::Node2VecPlus,
            features: FeatureSet::All,
        }
    }

    /// The Amazon LR baseline (metadata only).
    pub fn lr_baseline() -> Strategy {
        Strategy::Learned {
            regressor: RegressorKind::Linear,
            features: FeatureSet::MetadataOnly,
        }
    }

    /// The `LR{all, LogME}` baseline.
    pub fn lr_all_logme() -> Strategy {
        Strategy::Learned {
            regressor: RegressorKind::Linear,
            features: FeatureSet::MetadataSimLogme,
        }
    }

    /// Display name following the paper's plot labels, e.g.
    /// `TG:LR,N2V+,all`.
    pub fn label(&self) -> String {
        match self {
            Strategy::Random => "Random".to_string(),
            Strategy::LogMe => "LogME".to_string(),
            Strategy::HistoryNn => "HistoryNN".to_string(),
            Strategy::Learned {
                regressor,
                features,
            } => match features {
                FeatureSet::MetadataOnly => regressor.name().to_string(),
                _ => format!("{}{{{}}}", regressor.name(), features.label()),
            },
            Strategy::TransferGraph {
                regressor,
                learner,
                features,
            } => match features {
                FeatureSet::GraphOnly => format!("TG:{},{}", regressor.name(), learner.name()),
                _ => format!(
                    "TG:{},{},{}",
                    regressor.name(),
                    learner.name(),
                    features.label()
                ),
            },
        }
    }

    /// Whether the strategy learns node embeddings over the zoo graph —
    /// the `TransferGraph` family, seconds per evaluation where every
    /// other strategy takes milliseconds on warm collection caches.
    pub fn learns_graph(&self) -> bool {
        matches!(self, Strategy::TransferGraph { .. })
    }

    /// Validates internal consistency (e.g. `Learned` must not ask for
    /// graph features). Called by [`crate::evaluate::evaluate`].
    pub fn validate(&self) {
        match self {
            Strategy::Learned { features, .. } => {
                assert!(
                    !features.has_graph(),
                    "Learned strategies must not use graph features; use TransferGraph"
                );
            }
            Strategy::TransferGraph { features, .. } => {
                assert!(
                    features.has_graph(),
                    "TransferGraph strategies must include graph features"
                );
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_conventions() {
        assert_eq!(Strategy::Random.label(), "Random");
        assert_eq!(Strategy::LogMe.label(), "LogME");
        assert_eq!(Strategy::lr_baseline().label(), "LR");
        assert_eq!(Strategy::lr_all_logme().label(), "LR{all,LogME}");
        assert_eq!(
            Strategy::transfer_graph_default().label(),
            "TG:XGB,N2V+,all"
        );
        let graph_only = Strategy::TransferGraph {
            regressor: RegressorKind::Linear,
            learner: LearnerKind::Node2Vec,
            features: FeatureSet::GraphOnly,
        };
        assert_eq!(graph_only.label(), "TG:LR,N2V");
        assert!(graph_only.learns_graph());
        for cheap in [
            Strategy::Random,
            Strategy::LogMe,
            Strategy::HistoryNn,
            Strategy::lr_baseline(),
            Strategy::lr_all_logme(),
        ] {
            assert!(!cheap.learns_graph(), "{}", cheap.label());
        }
    }

    #[test]
    #[should_panic(expected = "must not use graph features")]
    fn learned_rejects_graph_features() {
        Strategy::Learned {
            regressor: RegressorKind::Linear,
            features: FeatureSet::All,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "must include graph features")]
    fn transfer_graph_requires_graph_features() {
        Strategy::TransferGraph {
            regressor: RegressorKind::Linear,
            learner: LearnerKind::Node2Vec,
            features: FeatureSet::MetadataOnly,
        }
        .validate();
    }
}
