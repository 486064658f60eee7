//! Skip-gram with negative sampling (word2vec, Mikolov et al. 2013) over
//! random-walk corpora — the representation learner under Node2Vec.
//!
//! Implemented directly with hand-rolled SGD (the closed-form gradients of
//! the SGNS objective) rather than the autograd tape: SGNS updates touch
//! only two embedding rows per sample, which the tape cannot exploit.

use tg_linalg::Matrix;
use tg_rng::{AliasTable, Rng};

/// SGNS hyperparameters.
#[derive(Clone, Debug)]
pub struct SgnsConfig {
    /// Embedding dimension (the paper extracts 128-d node representations).
    pub dim: usize,
    /// Context window radius.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Passes over the walk corpus.
    pub epochs: usize,
    /// Initial learning rate, decayed linearly to 10%.
    pub lr: f64,
}

impl Default for SgnsConfig {
    fn default() -> Self {
        SgnsConfig {
            dim: 128,
            window: 5,
            negatives: 5,
            epochs: 3,
            lr: 0.025,
        }
    }
}

/// A trainable SGNS model whose embeddings can be refined incrementally —
/// the warm-start entry point used by the dynamic-graph extension.
pub struct SgnsModel {
    cfg: SgnsConfig,
    w_in: Matrix,
    w_out: Matrix,
}

impl SgnsModel {
    /// Fresh model: input ~ U(-0.5/dim, 0.5/dim), output zeros (word2vec
    /// defaults).
    pub fn new(num_nodes: usize, cfg: SgnsConfig, rng: &mut Rng) -> Self {
        assert!(num_nodes > 0, "SgnsModel: empty graph");
        let w_in = Matrix::from_fn(num_nodes, cfg.dim, |_, _| {
            rng.uniform_range(-0.5, 0.5) / cfg.dim as f64
        });
        let w_out = Matrix::zeros(num_nodes, cfg.dim);
        SgnsModel { cfg, w_in, w_out }
    }

    /// Current input embeddings (one row per node).
    pub fn embeddings(&self) -> &Matrix {
        &self.w_in
    }

    /// Consumes the model, returning the input embeddings.
    pub fn into_embeddings(self) -> Matrix {
        self.w_in
    }

    /// Grows the model to hold `num_nodes` rows (new nodes get fresh
    /// word2vec init). No-op if already large enough.
    pub fn grow_to(&mut self, num_nodes: usize, rng: &mut Rng) {
        let old = self.w_in.rows();
        if num_nodes <= old {
            return;
        }
        let dim = self.cfg.dim;
        let mut w_in = Matrix::zeros(num_nodes, dim);
        let mut w_out = Matrix::zeros(num_nodes, dim);
        for r in 0..old {
            w_in.row_mut(r).copy_from_slice(self.w_in.row(r));
            w_out.row_mut(r).copy_from_slice(self.w_out.row(r));
        }
        for r in old..num_nodes {
            for c in 0..dim {
                w_in.set(r, c, rng.uniform_range(-0.5, 0.5) / dim as f64);
            }
        }
        self.w_in = w_in;
        self.w_out = w_out;
    }

    /// Runs `cfg.epochs` passes of skip-gram with negative sampling over the
    /// walks, updating the embeddings in place. `lr_scale` rescales the
    /// configured learning rate (incremental refreshes use a smaller rate).
    ///
    /// The negative-sampling distribution is the unigram count of nodes in
    /// the corpus raised to 3/4, as in word2vec.
    pub fn train(&mut self, walks: &[Vec<usize>], rng: &mut Rng, lr_scale: f64) {
        self.train_with_epochs(walks, rng, lr_scale, self.cfg.epochs)
    }

    /// Like [`SgnsModel::train`] with an explicit epoch count (incremental
    /// refreshes run a single cheap pass).
    pub fn train_with_epochs(
        &mut self,
        walks: &[Vec<usize>],
        rng: &mut Rng,
        lr_scale: f64,
        epochs: usize,
    ) {
        let num_nodes = self.w_in.rows();
        let cfg = &self.cfg;
        // Unigram^0.75 negative table. Nodes never visited still need a
        // sampling weight floor so the table is well-formed.
        let mut counts = vec![0.0f64; num_nodes];
        for walk in walks {
            for &n in walk {
                counts[n] += 1.0;
            }
        }
        let weights: Vec<f64> = counts.iter().map(|&c| (c + 0.1).powf(0.75)).collect();
        let neg_table = AliasTable::new(&weights);

        let total_steps = (epochs * walks.len()).max(1);
        let mut step = 0usize;
        let mut grad_in = vec![0.0f64; cfg.dim];
        // Per-pair targets (context first, then the drawn negatives that
        // are not the context) and their dot products with the center.
        let mut targets = Vec::with_capacity(cfg.negatives + 1);
        let mut dots = Vec::with_capacity(cfg.negatives + 1);
        for _epoch in 0..epochs {
            for walk in walks {
                let progress = step as f64 / total_steps as f64;
                let lr = cfg.lr * lr_scale * (1.0 - 0.9 * progress);
                step += 1;
                for (i, &center) in walk.iter().enumerate() {
                    let lo = i.saturating_sub(cfg.window);
                    let hi = (i + cfg.window + 1).min(walk.len());
                    for j in lo..hi {
                        if j == i {
                            continue;
                        }
                        let context = walk[j];
                        // Draw every negative up front, in the order a
                        // one-target-at-a-time loop would, skipping
                        // accidental positives. Nothing below touches `rng`.
                        targets.clear();
                        targets.push(context);
                        for _ in 0..cfg.negatives {
                            let target = neg_table.sample(rng);
                            if target != context {
                                targets.push(target);
                            }
                        }
                        // `w_in` and `w_out` are separate matrices, so the
                        // input row can be read while an output row is
                        // borrowed mutably — no per-sample copy.
                        let vi = self.w_in.row(center);
                        // Distinct targets read output rows no earlier
                        // update touches, so their dots can all be taken
                        // up front; a repeated target must see the update
                        // of its first occurrence, so it is dotted in turn.
                        let distinct = targets
                            .iter()
                            .enumerate()
                            .all(|(k, t)| !targets[..k].contains(t));
                        if distinct {
                            dots_into(vi, &self.w_out, &targets, &mut dots);
                        }
                        grad_in.iter_mut().for_each(|g| *g = 0.0);
                        for (k, &target) in targets.iter().enumerate() {
                            let label = if k == 0 { 1.0 } else { 0.0 };
                            let vo = self.w_out.row_mut(target);
                            let dot: f64 = if distinct {
                                dots[k]
                            } else {
                                vi.iter().zip(vo.iter()).map(|(a, b)| a * b).sum()
                            };
                            let g = (sigmoid(dot) - label) * lr;
                            // Accumulate the input grad from the old output
                            // value, then update the output row in place.
                            for ((gi, o), &x) in grad_in.iter_mut().zip(vo.iter_mut()).zip(vi) {
                                *gi += g * *o;
                                *o -= g * x;
                            }
                        }
                        let vi_mut = self.w_in.row_mut(center);
                        for d in 0..cfg.dim {
                            vi_mut[d] -= grad_in[d];
                        }
                    }
                }
            }
        }
    }
}

/// Dot products computed side by side in [`dots_into`].
const DOT_LANES: usize = 8;

/// Sets `dots[k] = vi · w_out.row(targets[k])`.
///
/// Each dot is the same left fold over `d = 0..dim`, starting from `-0.0`,
/// that `Iterator::sum` performs, so every result is bit-identical to the
/// one-at-a-time `sum()`; running up to [`DOT_LANES`] independent folds in
/// one pass overlaps their add latencies instead of chaining 128 adds per
/// target. A short group repeats its last row, and the repeat is dropped.
fn dots_into(vi: &[f64], w_out: &Matrix, targets: &[usize], dots: &mut Vec<f64>) {
    let dim = vi.len();
    dots.clear();
    for group in targets.chunks(DOT_LANES) {
        let rows: [&[f64]; DOT_LANES] =
            std::array::from_fn(|l| &w_out.row(group[l.min(group.len() - 1)])[..dim]);
        let mut acc = [-0.0f64; DOT_LANES];
        for d in 0..dim {
            let x = vi[d];
            for (a, row) in acc.iter_mut().zip(&rows) {
                *a += x * row[d];
            }
        }
        dots.extend_from_slice(&acc[..group.len()]);
    }
}

/// Trains SGNS over the walks and returns the input-embedding matrix
/// (`num_nodes × dim`).
pub fn train_sgns(
    walks: &[Vec<usize>],
    num_nodes: usize,
    cfg: &SgnsConfig,
    rng: &mut Rng,
) -> Matrix {
    let mut model = SgnsModel::new(num_nodes, cfg.clone(), rng);
    model.train(walks, rng, 1.0);
    model.into_embeddings()
}

#[inline]
fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_linalg::distance::cosine_similarity;

    /// Corpus from two disjoint "communities": {0,1,2} and {3,4,5}.
    fn community_walks(rng: &mut Rng, n_walks: usize, len: usize) -> Vec<Vec<usize>> {
        let mut walks = Vec::new();
        for w in 0..n_walks {
            let base = if w % 2 == 0 { 0 } else { 3 };
            let mut walk = Vec::with_capacity(len);
            for _ in 0..len {
                walk.push(base + rng.index(3));
            }
            walks.push(walk);
        }
        walks
    }

    #[test]
    fn output_shape() {
        let mut rng = Rng::seed_from_u64(1);
        let walks = community_walks(&mut rng, 10, 10);
        let cfg = SgnsConfig {
            dim: 16,
            epochs: 1,
            ..Default::default()
        };
        let emb = train_sgns(&walks, 6, &cfg, &mut rng);
        assert_eq!(emb.shape(), (6, 16));
        assert!(!emb.has_non_finite());
    }

    #[test]
    fn communities_separate_in_embedding_space() {
        let mut rng = Rng::seed_from_u64(2);
        let walks = community_walks(&mut rng, 200, 20);
        let cfg = SgnsConfig {
            dim: 16,
            epochs: 3,
            window: 3,
            negatives: 4,
            lr: 0.05,
        };
        let emb = train_sgns(&walks, 6, &cfg, &mut rng);
        // Within-community cosine must exceed cross-community cosine.
        let within = cosine_similarity(emb.row(0), emb.row(1));
        let cross = cosine_similarity(emb.row(0), emb.row(4));
        assert!(
            within > cross + 0.2,
            "within {within} should beat cross {cross}"
        );
    }

    #[test]
    fn unvisited_nodes_keep_init_scale() {
        // Node 9 never appears: its embedding stays near init.
        let mut rng = Rng::seed_from_u64(3);
        let walks = community_walks(&mut rng, 20, 10);
        let cfg = SgnsConfig {
            dim: 8,
            epochs: 1,
            ..Default::default()
        };
        let emb = train_sgns(&walks, 10, &cfg, &mut rng);
        let norm9 = tg_linalg::matrix::norm(emb.row(9));
        assert!(norm9 < 0.5 / 8.0 * (8.0f64).sqrt() + 1e-9);
    }

    /// FNV-1a over the little-endian bits of every embedding entry.
    fn fnv1a_bits(values: &[f64]) -> u64 {
        values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            v.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        })
    }

    /// Pins the exact output bits of `train_sgns` on a fixed corpus, so an
    /// optimisation of the update loop cannot silently change results
    /// (and with them every persisted outcome).
    #[test]
    fn train_sgns_output_bits_are_pinned() {
        let mut rng = Rng::seed_from_u64(11);
        let walks = community_walks(&mut rng, 40, 12);
        let cfg = SgnsConfig {
            dim: 16,
            epochs: 2,
            window: 3,
            negatives: 4,
            lr: 0.05,
        };
        let emb = train_sgns(&walks, 7, &cfg, &mut rng);
        assert_eq!(fnv1a_bits(emb.as_slice()), 0xb34a_2fe5_9bc4_ea7d);
    }

    /// Pins the output bits at the paper's SGNS shape (dim 128, 5
    /// negatives) on a corpus over 240 nodes, where nearly every
    /// (center, context) pair draws pairwise-distinct targets — the case
    /// the independent-accumulator dot products serve.
    #[test]
    fn train_sgns_distinct_target_bits_are_pinned() {
        let mut rng = Rng::seed_from_u64(12);
        let n = 240;
        let walks: Vec<Vec<usize>> = (0..60)
            .map(|_| {
                let mut at = rng.index(n);
                (0..16)
                    .map(|_| {
                        at = (at + 1 + rng.index(7)) % n;
                        at
                    })
                    .collect()
            })
            .collect();
        let cfg = SgnsConfig {
            dim: 128,
            epochs: 2,
            ..Default::default()
        };
        let emb = train_sgns(&walks, n, &cfg, &mut rng);
        assert_eq!(fnv1a_bits(emb.as_slice()), 0x2d73_178b_0ab9_cbef);
    }

    /// Side-by-side dots equal `Iterator::sum` bit for bit, including the
    /// sign of an all-negative-zero sum and groups past [`DOT_LANES`].
    #[test]
    fn dots_match_iterator_sum_bitwise() {
        let mut rng = Rng::seed_from_u64(13);
        let mut w_out = Matrix::from_fn(12, 37, |_, _| rng.normal(0.0, 1.0));
        w_out.row_mut(3).iter_mut().for_each(|v| *v = -1.0);
        for vi in [
            (0..37).map(|_| rng.normal(0.0, 1.0)).collect::<Vec<f64>>(),
            vec![0.0; 37],
        ] {
            for targets in [vec![3], vec![0, 3, 5], (0..12).rev().collect()] {
                let mut dots = Vec::new();
                dots_into(&vi, &w_out, &targets, &mut dots);
                assert_eq!(dots.len(), targets.len());
                for (&t, dot) in targets.iter().zip(&dots) {
                    let sum: f64 = vi.iter().zip(w_out.row(t)).map(|(a, b)| a * b).sum();
                    assert_eq!(dot.to_bits(), sum.to_bits(), "target {t}");
                }
            }
        }
    }

    #[test]
    fn deterministic_given_rng() {
        let walks = vec![vec![0, 1, 2, 1, 0], vec![2, 1, 0, 1, 2]];
        let cfg = SgnsConfig {
            dim: 4,
            epochs: 2,
            ..Default::default()
        };
        let e1 = train_sgns(&walks, 3, &cfg, &mut Rng::seed_from_u64(7));
        let e2 = train_sgns(&walks, 3, &cfg, &mut Rng::seed_from_u64(7));
        assert_eq!(e1.as_slice(), e2.as_slice());
    }
}
