//! Configuration types for strategies and evaluation.

use tg_zoo::FineTuneMethod;

/// Which feature blocks the prediction model sees (Fig. 8's ablation axes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FeatureSet {
    /// Basic metadata of models and datasets only (the Amazon LR baseline).
    MetadataOnly,
    /// Metadata + dataset similarity + LogME score (the `LR{all, LogME}`
    /// baseline).
    MetadataSimLogme,
    /// Graph embeddings only.
    GraphOnly,
    /// Metadata + dataset similarity + graph embeddings — the paper's most
    /// competitive configuration (`TG:…, all`).
    All,
}

impl FeatureSet {
    /// Whether the set includes the basic metadata block.
    pub fn has_metadata(&self) -> bool {
        !matches!(self, FeatureSet::GraphOnly)
    }

    /// Whether the set includes the source→target dataset-similarity
    /// feature.
    pub fn has_similarity(&self) -> bool {
        matches!(self, FeatureSet::MetadataSimLogme | FeatureSet::All)
    }

    /// Whether the set includes the LogME score feature.
    pub fn has_logme(&self) -> bool {
        matches!(self, FeatureSet::MetadataSimLogme)
    }

    /// Whether the set includes graph embeddings.
    pub fn has_graph(&self) -> bool {
        matches!(self, FeatureSet::GraphOnly | FeatureSet::All)
    }

    /// Label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            FeatureSet::MetadataOnly => "basic",
            FeatureSet::MetadataSimLogme => "all,LogME",
            FeatureSet::GraphOnly => "graph",
            FeatureSet::All => "all",
        }
    }
}

/// Which model–dataset edge types enter the graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeSource {
    /// Training-history accuracy edges and transferability edges (default).
    Both,
    /// Accuracy edges only.
    AccuracyOnly,
    /// Transferability edges only — the §VII-C "scenarios without training
    /// history" setting.
    TransferabilityOnly,
}

/// Dataset representation used for similarity and GNN node features
/// (appendix Fig. 12).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Representation {
    /// Domain Similarity probe embeddings (Eq. 3) — the default.
    DomainSimilarity,
    /// Task2Vec diagonal-FIM embeddings (Eq. 6).
    Task2Vec,
}

/// Options of one leave-one-out evaluation.
#[derive(Clone, Debug)]
pub struct EvalOptions {
    /// Fine-tuning method that produced the training history (graph edges
    /// and regression labels).
    pub train_method: FineTuneMethod,
    /// Fine-tuning method used as ground truth on the target (Fig. 11b
    /// mixes `Full` history with `Lora` ground truth).
    pub eval_method: FineTuneMethod,
    /// Fraction of the training history kept (Fig. 13). 1.0 = everything.
    pub history_ratio: f64,
    /// Edge types entering the graph.
    pub edge_source: EdgeSource,
    /// Dataset representation.
    pub representation: Representation,
    /// Node-embedding dimension (the paper uses 128).
    pub embed_dim: usize,
    /// Evaluation seed: drives graph-learner initialisation, walk sampling,
    /// regressor randomness and the Random baseline.
    pub seed: u64,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            train_method: FineTuneMethod::Full,
            eval_method: FineTuneMethod::Full,
            history_ratio: 1.0,
            edge_source: EdgeSource::Both,
            representation: Representation::DomainSimilarity,
            embed_dim: 128,
            seed: 0x7261_6e64,
        }
    }
}

impl EvalOptions {
    /// A fixed-width, collision-free digest of every field: the options
    /// part of an outcome memo key ([`crate::store::OutcomeKey`]). Word 0
    /// packs the four enum tags one byte each; words 1–3 carry
    /// `history_ratio`'s bits, `embed_dim` and `seed` verbatim, so two
    /// options digest equal exactly when they are equal field by field.
    pub fn digest(&self) -> [u64; 4] {
        // Destructured so a new field fails to compile until it is added
        // to the digest (an undigested field would alias memo keys).
        let EvalOptions {
            train_method,
            eval_method,
            history_ratio,
            edge_source,
            representation,
            embed_dim,
            seed,
        } = self;
        let method = |m: &FineTuneMethod| match m {
            FineTuneMethod::Full => 0u64,
            FineTuneMethod::Lora => 1,
        };
        let edges = match edge_source {
            EdgeSource::Both => 0u64,
            EdgeSource::AccuracyOnly => 1,
            EdgeSource::TransferabilityOnly => 2,
        };
        let rep = match representation {
            Representation::DomainSimilarity => 0u64,
            Representation::Task2Vec => 1,
        };
        [
            method(train_method) | (method(eval_method) << 8) | (edges << 16) | (rep << 24),
            history_ratio.to_bits(),
            *embed_dim as u64,
            *seed,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_set_flags_consistent() {
        assert!(FeatureSet::MetadataOnly.has_metadata());
        assert!(!FeatureSet::MetadataOnly.has_graph());
        assert!(!FeatureSet::MetadataOnly.has_logme());
        assert!(FeatureSet::MetadataSimLogme.has_logme());
        assert!(FeatureSet::MetadataSimLogme.has_similarity());
        assert!(!FeatureSet::MetadataSimLogme.has_graph());
        assert!(FeatureSet::GraphOnly.has_graph());
        assert!(!FeatureSet::GraphOnly.has_metadata());
        assert!(FeatureSet::All.has_graph());
        assert!(FeatureSet::All.has_similarity());
        assert!(!FeatureSet::All.has_logme());
    }

    #[test]
    fn default_options_match_paper() {
        let o = EvalOptions::default();
        assert_eq!(o.embed_dim, 128);
        assert_eq!(o.history_ratio, 1.0);
        assert_eq!(o.edge_source, EdgeSource::Both);
    }

    #[test]
    fn digest_separates_every_field() {
        let base = EvalOptions::default();
        let variants = [
            EvalOptions {
                train_method: FineTuneMethod::Lora,
                ..base.clone()
            },
            EvalOptions {
                eval_method: FineTuneMethod::Lora,
                ..base.clone()
            },
            EvalOptions {
                history_ratio: 0.5,
                ..base.clone()
            },
            EvalOptions {
                edge_source: EdgeSource::AccuracyOnly,
                ..base.clone()
            },
            EvalOptions {
                edge_source: EdgeSource::TransferabilityOnly,
                ..base.clone()
            },
            EvalOptions {
                representation: Representation::Task2Vec,
                ..base.clone()
            },
            EvalOptions {
                embed_dim: 64,
                ..base.clone()
            },
            EvalOptions {
                seed: base.seed + 1,
                ..base.clone()
            },
        ];
        let mut digests = vec![base.digest()];
        digests.extend(variants.iter().map(EvalOptions::digest));
        for (i, a) in digests.iter().enumerate() {
            for b in &digests[i + 1..] {
                assert_ne!(a, b, "two distinct options share a digest");
            }
        }
        assert_eq!(base.digest(), EvalOptions::default().digest());
    }
}
