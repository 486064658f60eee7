//! XGBoost-style gradient-boosted trees (Chen & Guestrin, KDD 2016) with
//! second-order leaf weights and histogram split finding.
//!
//! The paper configures 500 trees with maximum depth 5 (§VI-C). With the
//! squared-error objective the gradients are `g = ŷ − y`, hessians `h = 1`;
//! gains and leaf weights use XGBoost's regularised formulas:
//!
//! * gain = ½ [G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)] − γ
//! * leaf weight = −G/(H+λ), scaled by the learning rate.
//!
//! Split candidates come from per-feature quantile histograms (XGBoost's
//! `hist` algorithm), which keeps a 500-tree fit over a few hundred features
//! fast. The fit bins the training matrix once into row-major byte codes
//! and grows each tree level by level, spreading the histogram pass of a
//! large level over the available cores. The fitted trees are the same
//! bits at any core count: every sum keeps its sequential order (DESIGN.md,
//! "Kernel invariants").

use crate::Regressor;
use std::num::NonZeroUsize;
use std::ops::Range;
use tg_linalg::Matrix;
use tg_rng::Rng;

/// GBDT hyperparameters.
#[derive(Clone, Debug)]
pub struct Gbdt {
    /// Boosting rounds (trees).
    pub n_rounds: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Learning rate (shrinkage).
    pub eta: f64,
    /// L2 regularisation on leaf weights (XGBoost λ).
    pub lambda: f64,
    /// Minimum gain to split (XGBoost γ).
    pub gamma: f64,
    /// Minimum hessian sum per child (≈ min samples for squared error).
    pub min_child_weight: f64,
    /// Histogram bins per feature, in `1..=256` (bin codes are bytes).
    pub n_bins: usize,
    /// Fraction of features sampled per tree.
    pub colsample_bytree: f64,
    base_score: f64,
    trees: Vec<GbdtTree>,
    /// Bin edges per feature, frozen at fit time.
    bin_edges: Vec<Vec<f64>>,
}

impl Default for Gbdt {
    fn default() -> Self {
        Gbdt {
            n_rounds: 500,
            max_depth: 5,
            eta: 0.05,
            lambda: 2.0,
            gamma: 0.0,
            min_child_weight: 4.0,
            n_bins: 32,
            colsample_bytree: 0.7,
            base_score: 0.0,
            trees: Vec::new(),
            bin_edges: Vec::new(),
        }
    }
}

impl Gbdt {
    /// GBDT with explicit rounds/depth (other knobs at defaults).
    pub fn new(n_rounds: usize, max_depth: usize) -> Self {
        Gbdt {
            n_rounds,
            max_depth,
            ..Default::default()
        }
    }

    /// Number of fitted trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Split-count feature importance: how often each feature was chosen as
    /// a split across all trees, normalised to sum to 1. Zero vector before
    /// `fit`.
    pub fn feature_importance(&self) -> Vec<f64> {
        let f = self.bin_edges.len();
        let mut counts = vec![0.0f64; f];
        for tree in &self.trees {
            for node in &tree.nodes {
                if let GNode::Split { feature, .. } = node {
                    counts[*feature] += 1.0;
                }
            }
        }
        let total: f64 = counts.iter().sum();
        if total > 0.0 {
            for c in &mut counts {
                *c /= total;
            }
        }
        counts
    }
}

#[derive(Clone, Debug)]
enum GNode {
    Leaf {
        weight: f64,
    },
    Split {
        feature: usize,
        /// Split on bin index: `bin <= threshold_bin` goes left.
        threshold: f64,
        left: usize,
        right: usize,
    },
}

#[derive(Clone, Debug)]
struct GbdtTree {
    nodes: Vec<GNode>,
}

impl GbdtTree {
    fn predict_row(&self, x: &Matrix, row: usize) -> f64 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                GNode::Leaf { weight } => return *weight,
                GNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if x.get(row, *feature) <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// Quantile bin edges for one feature (at most `n_bins − 1` edges).
fn quantile_edges(values: &mut Vec<f64>, n_bins: usize) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    values.dedup();
    if values.len() <= n_bins {
        // Few distinct values: midpoints between consecutive ones.
        return values.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect();
    }
    let mut edges = Vec::with_capacity(n_bins - 1);
    for b in 1..n_bins {
        let idx = b * values.len() / n_bins;
        let e = (values[idx - 1] + values[idx]) / 2.0;
        if edges.last().is_none_or(|&l| e > l) {
            edges.push(e);
        }
    }
    edges
}

/// Bin index of a value given edges (first bin whose edge exceeds it).
#[inline]
fn bin_of(edges: &[f64], v: f64) -> usize {
    edges.partition_point(|&e| e < v)
}

/// Smallest split search (rows × sampled columns, summed over a tree
/// level) worth spreading across threads: one scoped spawn costs tens of
/// microseconds, about as much as this many histogram updates.
const PAR_MIN_CELLS: usize = 1 << 15;

/// Sampled columns whose histograms are built in one pass over a node's
/// rows (see [`Blocks`]).
const BLOCK: usize = 8;

/// Histogram cells per block column. Every `u8` code indexes it without a
/// bounds check; 260 rather than 256 keeps the columns of one block off
/// the same L1 cache sets.
const HIST_CELLS: usize = 260;

impl Regressor for Gbdt {
    fn name(&self) -> &'static str {
        "XGB"
    }

    fn fit(&mut self, x: &Matrix, y: &[f64], rng: &mut Rng) {
        let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        self.fit_on(x, y, rng, workers);
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        assert!(!self.trees.is_empty(), "Gbdt::predict called before fit");
        (0..x.rows())
            .map(|r| {
                let mut s = self.base_score;
                for t in &self.trees {
                    s += self.eta * t.predict_row(x, r);
                }
                s
            })
            .collect()
    }
}

/// A split candidate: (feature, bin, gain).
type Split = (usize, usize, f64);

/// Keeps `cand` if it beats `best` strictly (or, with no best yet, beats
/// the 1e-12 floor), so the first of several equal gains wins.
#[inline]
fn offer(best: &mut Option<Split>, cand: Split) {
    if cand.2 > best.map_or(1e-12, |(_, _, g)| g) {
        *best = Some(cand);
    }
}

/// A node awaiting its split decision in the level-wise build: its slot in
/// the tree, its rows `order[lo..hi]` (ascending) and their gradient sum.
struct Pending {
    slot: usize,
    lo: usize,
    hi: usize,
    g_total: f64,
}

/// How a fit splits the `n_cols` sampled columns of each tree: into one
/// contiguous chunk per worker, and each chunk into blocks of at most
/// [`BLOCK`] columns. The layout depends only on `n_cols` and the worker
/// count, never on which columns a tree samples.
struct Blocks {
    /// Column range (positions in the tree's sample) of each block, in
    /// column order.
    cols: Vec<Range<usize>>,
    /// Block range of each worker chunk, in column order.
    chunks: Vec<Range<usize>>,
}

impl Blocks {
    /// Layout for `n_cols >= 1` sampled columns over `workers` threads.
    fn new(n_cols: usize, workers: usize) -> Self {
        let chunk_len = n_cols.div_ceil(workers.clamp(1, n_cols));
        let mut blocks = Blocks {
            cols: Vec::new(),
            chunks: Vec::new(),
        };
        for start in (0..n_cols).step_by(chunk_len) {
            let end = (start + chunk_len).min(n_cols);
            let first = blocks.cols.len();
            for lo in (start..end).step_by(BLOCK) {
                blocks.cols.push(lo..(lo + BLOCK).min(end));
            }
            blocks.chunks.push(first..blocks.cols.len());
        }
        blocks
    }
}

/// Read-only inputs of one tree's split search.
struct SplitSearch<'a> {
    gbdt: &'a Gbdt,
    /// Training bin codes, row-major: `codes[i * width + j]`.
    codes: &'a [u8],
    width: usize,
    grad: &'a [f64],
    /// The tree's sampled columns, in sampling order.
    cols: &'a [usize],
    blocks: &'a Blocks,
    /// The sampled columns' codes gathered per block: block `b` holds row
    /// `i` at `block_codes[b * n + i]`, padded with code 0 past the
    /// block's last column.
    block_codes: &'a [[u8; BLOCK]],
}

/// One worker's histogram scratch and its per-node best splits.
struct SearchSlot {
    /// `[g, h]` per (block column, bin).
    hist: Box<[[[f64; 2]; HIST_CELLS]; BLOCK]>,
    best: Vec<Option<Split>>,
}

impl SearchSlot {
    fn new() -> Self {
        SearchSlot {
            hist: Box::new([[[0.0; 2]; HIST_CELLS]; BLOCK]),
            best: Vec::new(),
        }
    }
}

impl SplitSearch<'_> {
    /// Best split of every open node over the columns of `blocks`, in
    /// `slot`.
    ///
    /// Each histogram cell sums its rows in ascending row order, and each
    /// node offers its candidates in column order, bins ascending, through
    /// [`offer`] — the order of a one-feature-at-a-time search — so the
    /// result is bit-identical to it.
    fn run(&self, order: &[usize], open: &[Pending], blocks: Range<usize>, slot: &mut SearchSlot) {
        let gb = self.gbdt;
        let n = self.grad.len();
        let SearchSlot { hist, best } = slot;
        best.clear();
        best.resize(open.len(), None);
        for b in blocks {
            let cols = &self.cols[self.blocks.cols[b].clone()];
            let codes = &self.block_codes[b * n..(b + 1) * n];
            // Bins in use per block column; padding only ever sees code 0.
            let used: [usize; BLOCK] =
                std::array::from_fn(|k| cols.get(k).map_or(1, |&f| gb.bin_edges[f].len() + 1));
            for (node, node_best) in open.iter().zip(best.iter_mut()) {
                for (cells, &u) in hist.iter_mut().zip(&used) {
                    cells[..u].fill([0.0, 0.0]);
                }
                for &i in &order[node.lo..node.hi] {
                    let g = self.grad[i];
                    for (cells, &code) in hist.iter_mut().zip(&codes[i]) {
                        let cell = &mut cells[code as usize];
                        *cell = [cell[0] + g, cell[1] + 1.0];
                    }
                }
                let g_total = node.g_total;
                let h_total = (node.hi - node.lo) as f64;
                let parent_score = g_total * g_total / (h_total + gb.lambda);
                for (cells, &feat) in hist.iter().zip(cols) {
                    let mut gl = 0.0;
                    let mut hl = 0.0;
                    // Bins 0..=max_bin; the last one cannot split anything off.
                    let max_bin = gb.bin_edges[feat].len();
                    for (bin, &[g, h]) in cells[..max_bin].iter().enumerate() {
                        gl += g;
                        hl += h;
                        let gr = g_total - gl;
                        let hr = h_total - hl;
                        if hl < gb.min_child_weight || hr < gb.min_child_weight {
                            continue;
                        }
                        let gain = 0.5
                            * (gl * gl / (hl + gb.lambda) + gr * gr / (hr + gb.lambda)
                                - parent_score)
                            - gb.gamma;
                        offer(node_best, (feat, bin, gain));
                    }
                }
            }
        }
    }

    /// Builds one tree level by level and adds `eta ×` its leaf weight to
    /// `pred` for every training row as the row's leaf is settled. `h = 1`
    /// for every sample (squared error), so a node's hessian sum is its
    /// row count.
    fn build_tree(
        &self,
        order: &mut [usize],
        scratch: &mut Vec<usize>,
        slots: &mut [SearchSlot],
        pred: &mut [f64],
    ) -> GbdtTree {
        let gb = self.gbdt;
        for (k, r) in order.iter_mut().enumerate() {
            *r = k;
        }
        let mut nodes = vec![GNode::Leaf { weight: 0.0 }];
        let mut level = vec![Pending {
            slot: 0,
            lo: 0,
            hi: order.len(),
            g_total: order.iter().map(|&i| self.grad[i]).sum(),
        }];
        let mut depth = 0;
        while !level.is_empty() {
            // Settle the nodes that may not split; search the rest.
            let mut open = Vec::with_capacity(level.len());
            for node in level {
                let h_total = (node.hi - node.lo) as f64;
                if depth >= gb.max_depth || h_total < 2.0 * gb.min_child_weight {
                    gb.settle_leaf(&mut nodes, &node, order, pred);
                } else {
                    open.push(node);
                }
            }
            let bests = self.search_level(order, &open, slots);
            let mut next = Vec::with_capacity(2 * open.len());
            for (node, best) in open.iter().zip(bests) {
                let Some((feature, bin, _)) = best else {
                    gb.settle_leaf(&mut nodes, node, order, pred);
                    continue;
                };
                let rows = &mut order[node.lo..node.hi];
                let n_left = stable_partition(rows, scratch, |i| {
                    self.codes[i * self.width + feature] as usize <= bin
                });
                let mid = node.lo + n_left;
                let left = nodes.len();
                nodes.push(GNode::Leaf { weight: 0.0 });
                nodes.push(GNode::Leaf { weight: 0.0 });
                // Real-valued threshold: the bin's upper edge.
                nodes[node.slot] = GNode::Split {
                    feature,
                    threshold: gb.bin_edges[feature][bin],
                    left,
                    right: left + 1,
                };
                for (slot, lo, hi) in [(left, node.lo, mid), (left + 1, mid, node.hi)] {
                    let g_total = order[lo..hi].iter().map(|&i| self.grad[i]).sum();
                    next.push(Pending {
                        slot,
                        lo,
                        hi,
                        g_total,
                    });
                }
            }
            level = next;
            depth += 1;
        }
        GbdtTree { nodes }
    }

    /// Best split of every open node. A large enough level runs each
    /// worker chunk of columns on its own scoped thread (one spawn per
    /// level, not per node); the per-chunk bests merge in column order
    /// through [`offer`], which keeps the sequential scan's first-wins
    /// tie-break.
    fn search_level(
        &self,
        order: &[usize],
        open: &[Pending],
        slots: &mut [SearchSlot],
    ) -> Vec<Option<Split>> {
        let rows: usize = open.iter().map(|node| node.hi - node.lo).sum();
        let chunks = &self.blocks.chunks;
        // One slot per chunk, and there is always at least one chunk.
        let (first, rest) = slots.split_at_mut(1);
        let first = &mut first[0];
        let rest = if chunks.len() > 1 && rows * self.cols.len() >= PAR_MIN_CELLS {
            std::thread::scope(|scope| {
                for (slot, chunk) in rest.iter_mut().zip(&chunks[1..]) {
                    scope.spawn(move || self.run(order, open, chunk.clone(), slot));
                }
                self.run(order, open, chunks[0].clone(), first);
            });
            rest
        } else {
            self.run(order, open, 0..self.blocks.cols.len(), first);
            &mut []
        };
        let mut bests = std::mem::take(&mut first.best);
        for slot in rest.iter() {
            for (best, &cand) in bests.iter_mut().zip(&slot.best) {
                if let Some(cand) = cand {
                    offer(best, cand);
                }
            }
        }
        bests
    }
}

/// Moves the rows of `rows` for which `left` holds to the front, both
/// sides keeping their order; returns the size of the left side.
fn stable_partition(
    rows: &mut [usize],
    scratch: &mut Vec<usize>,
    left: impl Fn(usize) -> bool,
) -> usize {
    scratch.clear();
    let mut n_left = 0;
    for k in 0..rows.len() {
        let i = rows[k];
        if left(i) {
            rows[n_left] = i;
            n_left += 1;
        } else {
            scratch.push(i);
        }
    }
    rows[n_left..].copy_from_slice(scratch);
    n_left
}

impl Gbdt {
    /// [`Regressor::fit`] with the split search spread over at most
    /// `workers` threads. The fitted model does not depend on `workers`.
    fn fit_on(&mut self, x: &Matrix, y: &[f64], rng: &mut Rng, workers: usize) {
        let (n, f) = x.shape();
        assert_eq!(n, y.len(), "Gbdt::fit: row/target mismatch");
        assert!(n > 0, "Gbdt::fit: empty input");
        // Bin codes are bytes, and a bin needs at least one of them.
        assert!(
            (1..=256).contains(&self.n_bins),
            "Gbdt::fit: n_bins must be in 1..=256, got {}",
            self.n_bins
        );

        // Freeze bin edges and pre-bin the training matrix, row-major.
        self.bin_edges = (0..f)
            .map(|j| {
                let mut col: Vec<f64> = (0..n).map(|i| x.get(i, j)).collect();
                quantile_edges(&mut col, self.n_bins)
            })
            .collect();
        let mut codes = vec![0u8; n * f];
        for (i, row) in codes.chunks_exact_mut(f.max(1)).enumerate() {
            for (j, code) in row.iter_mut().enumerate() {
                *code = bin_of(&self.bin_edges[j], x.get(i, j)) as u8;
            }
        }

        self.base_score = tg_linalg::stats::mean(y);
        let mut pred = vec![self.base_score; n];
        let n_cols = ((f as f64 * self.colsample_bytree).ceil() as usize).clamp(1, f);
        let blocks = Blocks::new(n_cols, workers);
        let mut slots: Vec<SearchSlot> = blocks.chunks.iter().map(|_| SearchSlot::new()).collect();
        let mut block_codes = Vec::with_capacity(blocks.cols.len() * n);
        let mut order = vec![0usize; n];
        let mut scratch = Vec::with_capacity(n);
        let mut trees = Vec::with_capacity(self.n_rounds);

        for _round in 0..self.n_rounds {
            // Squared error: g = pred − y, h = 1.
            let grad: Vec<f64> = pred.iter().zip(y).map(|(p, t)| p - t).collect();
            let cols = if n_cols < f {
                rng.sample_indices(f, n_cols)
            } else {
                (0..f).collect()
            };
            block_codes.clear();
            for range in &blocks.cols {
                let block = &cols[range.clone()];
                block_codes.extend(codes.chunks_exact(f).map(|row| {
                    let mut out = [0u8; BLOCK];
                    for (o, &c) in out.iter_mut().zip(block) {
                        *o = row[c];
                    }
                    out
                }));
            }
            let search = SplitSearch {
                gbdt: self,
                codes: &codes,
                width: f,
                grad: &grad,
                cols: &cols,
                blocks: &blocks,
                block_codes: &block_codes,
            };
            trees.push(search.build_tree(&mut order, &mut scratch, &mut slots, &mut pred));
        }
        self.trees = trees;
    }

    /// Makes `node` a leaf and credits its weight to the node's rows.
    fn settle_leaf(&self, nodes: &mut [GNode], node: &Pending, order: &[usize], pred: &mut [f64]) {
        let h_total = (node.hi - node.lo) as f64;
        let weight = -node.g_total / (h_total + self.lambda);
        nodes[node.slot] = GNode::Leaf { weight };
        for &i in &order[node.lo..node.hi] {
            pred[i] += self.eta * weight;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{friedmanish, r2};

    #[test]
    fn fits_nonlinear_function_well() {
        let mut rng = Rng::seed_from_u64(1);
        let (x, y) = friedmanish(&mut rng, 500);
        let (xt, yt) = friedmanish(&mut rng, 200);
        let mut gb = Gbdt::new(200, 4);
        gb.fit(&x, &y, &mut rng);
        let score = r2(&yt, &gb.predict(&xt));
        assert!(score > 0.8, "r2 {score}");
    }

    #[test]
    fn more_rounds_reduce_training_error() {
        let mut rng = Rng::seed_from_u64(2);
        let (x, y) = friedmanish(&mut rng, 300);
        let err = |rounds: usize, rng: &mut Rng| {
            let mut gb = Gbdt::new(rounds, 3);
            gb.fit(&x, &y, rng);
            let pred = gb.predict(&x);
            y.iter()
                .zip(&pred)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
        };
        let e10 = err(10, &mut rng);
        let e200 = err(200, &mut rng);
        assert!(e200 < e10 / 2.0, "e10 {e10} e200 {e200}");
    }

    #[test]
    fn constant_target_predicts_constant() {
        let mut rng = Rng::seed_from_u64(3);
        let x = Matrix::from_fn(60, 4, |_, _| rng.uniform());
        let y = vec![1.25; 60];
        let mut gb = Gbdt::new(20, 3);
        gb.fit(&x, &y, &mut rng);
        assert!(gb.predict(&x).iter().all(|&p| (p - 1.25).abs() < 1e-9));
    }

    #[test]
    fn quantile_edges_monotone() {
        let mut vals: Vec<f64> = (0..1000).map(|i| ((i * 37) % 997) as f64).collect();
        let edges = quantile_edges(&mut vals, 32);
        assert!(edges.len() <= 31);
        for w in edges.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn bin_of_boundaries() {
        let edges = vec![1.0, 2.0, 3.0];
        assert_eq!(bin_of(&edges, 0.5), 0);
        assert_eq!(bin_of(&edges, 1.0), 0); // edge value goes left bin
        assert_eq!(bin_of(&edges, 1.5), 1);
        assert_eq!(bin_of(&edges, 9.0), 3);
    }

    #[test]
    fn feature_importance_finds_informative_columns() {
        let mut rng = Rng::seed_from_u64(9);
        // y depends only on column 1 of 6.
        let x = Matrix::from_fn(300, 6, |_, _| rng.uniform());
        let y: Vec<f64> = (0..300).map(|i| 3.0 * x.get(i, 1)).collect();
        let mut gb = Gbdt::new(60, 3);
        gb.fit(&x, &y, &mut rng);
        let imp = gb.feature_importance();
        assert_eq!(imp.len(), 6);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let max_idx = imp
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(max_idx, 1, "importances {imp:?}");
        assert!(imp[1] > 0.5, "importances {imp:?}");
    }

    /// FNV-1a over the little-endian bits of every value.
    fn fnv1a_bits(values: &[f64]) -> u64 {
        values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            v.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        })
    }

    /// Pins the exact prediction bits of the paper configuration (500
    /// rounds, depth 5, `colsample_bytree` 0.7) on an input large enough
    /// for the split search to run across column chunks in parallel, so
    /// an optimisation of the fit cannot silently change results (and
    /// with them every persisted outcome).
    #[test]
    fn gbdt_output_bits_are_pinned() {
        let mut rng = Rng::seed_from_u64(21);
        let (x, y) = friedmanish(&mut rng, 10_000);
        let (xt, _) = friedmanish(&mut rng, 300);
        let mut gb = Gbdt::default();
        assert!(gb.colsample_bytree < 1.0);
        gb.fit(&x, &y, &mut rng);
        assert_eq!(fnv1a_bits(&gb.predict(&xt)), 0x3a81_61dc_cfd0_1a9f);
    }

    /// The split search spreads over column chunks; every worker count
    /// must grow the same trees, bit for bit.
    #[test]
    fn fit_is_identical_at_any_worker_count() {
        let mut rng = Rng::seed_from_u64(22);
        let (x, y) = friedmanish(&mut rng, 10_000);
        // Four sampled columns: the root level alone crosses the threshold.
        const { assert!(10_000 * 4 >= PAR_MIN_CELLS) };
        let fit = |workers: usize| {
            let mut gb = Gbdt::new(12, 5);
            gb.fit_on(&x, &y, &mut Rng::seed_from_u64(5), workers);
            let bits: Vec<u64> = gb.predict(&x).iter().map(|p| p.to_bits()).collect();
            (bits, gb.feature_importance())
        };
        let sequential = fit(1);
        for workers in [2, 3, 5] {
            assert_eq!(fit(workers), sequential, "{workers} workers");
        }
    }

    #[test]
    #[should_panic(expected = "n_bins must be in 1..=256, got 0")]
    fn rejects_zero_bins() {
        let mut rng = Rng::seed_from_u64(23);
        let (x, y) = friedmanish(&mut rng, 50);
        let mut gb = Gbdt {
            n_bins: 0,
            ..Gbdt::new(2, 2)
        };
        gb.fit(&x, &y, &mut rng);
    }

    #[test]
    #[should_panic(expected = "n_bins must be in 1..=256, got 257")]
    fn rejects_more_bins_than_byte_codes() {
        let mut rng = Rng::seed_from_u64(24);
        let (x, y) = friedmanish(&mut rng, 50);
        let mut gb = Gbdt {
            n_bins: 257,
            ..Gbdt::new(2, 2)
        };
        gb.fit(&x, &y, &mut rng);
    }

    #[test]
    fn bin_count_bounds_are_usable() {
        let mut rng = Rng::seed_from_u64(25);
        let (x, y) = friedmanish(&mut rng, 600);
        // One bin: nothing can split, every tree is a single leaf.
        let mut one = Gbdt {
            n_bins: 1,
            ..Gbdt::new(5, 3)
        };
        one.fit(&x, &y, &mut rng);
        assert!(one.feature_importance().iter().all(|&c| c == 0.0));
        // 256 bins over 600 distinct values: codes reach 255.
        let mut full = Gbdt {
            n_bins: 256,
            ..Gbdt::new(50, 4)
        };
        full.fit(&x, &y, &mut rng);
        assert_eq!(full.bin_edges[0].len(), 255);
        assert!(r2(&y, &full.predict(&x)) > 0.8);
    }

    #[test]
    fn paper_hyperparameters_run() {
        // Smoke-test the full 500×5 configuration on a small input.
        let mut rng = Rng::seed_from_u64(4);
        let (x, y) = friedmanish(&mut rng, 150);
        let mut gb = Gbdt::default();
        gb.fit(&x, &y, &mut rng);
        assert_eq!(gb.num_trees(), 500);
        let pred = gb.predict(&x);
        assert!(pred.iter().all(|p| p.is_finite()));
    }
}
