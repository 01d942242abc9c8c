//! TDmatch baseline (Ahmadi, Sand & Papotti): *unsupervised* matching of
//! structured and textual data via graph creation and random walks.
//!
//! A tripartite graph is built over left records, right records and their
//! value tokens; matching scores are random-walk-with-restart (RWR)
//! stationary masses from each left record onto right records. A pair is
//! predicted a match when each side is the other's best walk target
//! (reciprocal top-1) — no labels consumed anywhere.
//!
//! The per-source power iteration over the whole graph is what makes
//! TDmatch expensive (Table 4: hours and >100 GB at the paper's scale);
//! the same asymptotics show here at miniature scale.
//!
//! `TDmatch*` is the paper's supervised variant: an MLP over walk-derived
//! record embeddings, trained on the low-resource labels.

use crate::common::{MatchTask, Matcher};
use em_data::blocking::record_tokens;
use em_data::pair::GemDataset;
use em_nn::layers::Mlp;
use em_nn::{AdamW, Matrix, ParamStore, Tape, TapeExec};
use promptem::encode::EncodedPair;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Sparse undirected graph in CSR-ish form with uniform transition
/// probabilities.
struct WalkGraph {
    /// neighbors[node] = adjacent node ids.
    neighbors: Vec<Vec<u32>>,
    n_left: usize,
    n_right: usize,
}

impl WalkGraph {
    /// Nodes: `0..n_left` = left records, `n_left..n_left+n_right` = right
    /// records, the rest are token nodes.
    fn build(ds: &GemDataset) -> Self {
        let n_left = ds.left.records.len();
        let n_right = ds.right.records.len();
        let mut token_ids: HashMap<String, u32> = HashMap::new();
        let mut neighbors: Vec<Vec<u32>> = vec![Vec::new(); n_left + n_right];
        let add_record = |node: usize,
                          tokens: std::collections::HashSet<String>,
                          neighbors: &mut Vec<Vec<u32>>,
                          token_ids: &mut HashMap<String, u32>| {
            for t in tokens {
                let next_id = (neighbors.len()) as u32;
                let tid = *token_ids.entry(t).or_insert_with(|| next_id);
                if tid as usize == neighbors.len() {
                    neighbors.push(Vec::new());
                }
                neighbors[node].push(tid);
                neighbors[tid as usize].push(node as u32);
            }
        };
        for (i, r) in ds.left.records.iter().enumerate() {
            add_record(
                i,
                record_tokens(r, ds.left.format),
                &mut neighbors,
                &mut token_ids,
            );
        }
        for (j, r) in ds.right.records.iter().enumerate() {
            add_record(
                n_left + j,
                record_tokens(r, ds.right.format),
                &mut neighbors,
                &mut token_ids,
            );
        }
        WalkGraph {
            neighbors,
            n_left,
            n_right,
        }
    }

    fn n_nodes(&self) -> usize {
        self.neighbors.len()
    }

    /// Random walk with restart from `source`: returns the stationary
    /// distribution (power iteration).
    fn rwr(&self, source: usize, restart: f32, iters: usize) -> Vec<f32> {
        let n = self.n_nodes();
        let mut p = vec![0.0f32; n];
        p[source] = 1.0;
        let mut next = vec![0.0f32; n];
        for _ in 0..iters {
            next.iter_mut().for_each(|v| *v = 0.0);
            for (u, mass) in p.iter().enumerate() {
                if *mass == 0.0 {
                    continue;
                }
                let deg = self.neighbors[u].len();
                if deg == 0 {
                    next[source] += mass;
                    continue;
                }
                let share = mass * (1.0 - restart) / deg as f32;
                for &v in &self.neighbors[u] {
                    next[v as usize] += share;
                }
                next[source] += mass * restart;
            }
            std::mem::swap(&mut p, &mut next);
        }
        p
    }

    /// RWR mass landing on the *other* side's record nodes.
    fn record_scores(&self, source: usize, restart: f32, iters: usize) -> Vec<f32> {
        let p = self.rwr(source, restart, iters);
        if source < self.n_left {
            p[self.n_left..self.n_left + self.n_right].to_vec()
        } else {
            p[..self.n_left].to_vec()
        }
    }
}

/// The unsupervised TDmatch matcher.
pub struct TDmatchBaseline {
    /// Random-walk restart probability.
    pub restart: f32,
    /// Power-iteration count per source.
    pub iters: usize,
    /// match decision: reciprocal top-1 between left and right walks.
    best_right_of_left: Vec<usize>,
    best_left_of_right: Vec<usize>,
}

impl TDmatchBaseline {
    /// Default configuration (restart 0.15, 12 iterations).
    pub fn new() -> Self {
        TDmatchBaseline {
            restart: 0.15,
            iters: 12,
            best_right_of_left: Vec::new(),
            best_left_of_right: Vec::new(),
        }
    }
}

impl Default for TDmatchBaseline {
    fn default() -> Self {
        Self::new()
    }
}

impl Matcher for TDmatchBaseline {
    fn name(&self) -> &'static str {
        "TDmatch"
    }

    fn fit(&mut self, task: &MatchTask) {
        let g = WalkGraph::build(task.raw);
        self.best_right_of_left = (0..g.n_left)
            .map(|i| argmax(&g.record_scores(i, self.restart, self.iters)))
            .collect();
        self.best_left_of_right = (0..g.n_right)
            .map(|j| argmax(&g.record_scores(g.n_left + j, self.restart, self.iters)))
            .collect();
    }

    fn predict(&mut self, _task: &MatchTask, _pairs: &[EncodedPair]) -> Vec<bool> {
        panic!("TDmatch predicts on raw pair indices; use predict_test");
    }

    fn predict_test(&mut self, task: &MatchTask) -> Vec<bool> {
        task.raw
            .test
            .iter()
            .map(|lp| {
                let (i, j) = (lp.pair.left, lp.pair.right);
                self.best_right_of_left.get(i) == Some(&j)
                    && self.best_left_of_right.get(j) == Some(&i)
            })
            .collect()
    }
}

fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in xs.iter().enumerate() {
        if v > xs[best] {
            best = i;
        }
    }
    best
}

/// TDmatch*: an MLP classifier over walk-derived embeddings (Appendix D:
/// input `(u, v, |u−v|, u·v)`), trained on the low-resource labels.
pub struct TDmatchStarBaseline {
    /// Random-walk restart probability.
    pub restart: f32,
    /// Power-iteration count per source.
    pub iters: usize,
    /// Projected embedding width.
    pub embed_dim: usize,
    /// MLP training epochs.
    pub epochs: usize,
    /// MLP learning rate.
    pub lr: f32,
    left_emb: Vec<Vec<f32>>,
    right_emb: Vec<Vec<f32>>,
    /// Walk score of each (left, right) pair, row-normalized to [0, 1].
    left_scores: Vec<Vec<f32>>,
    store: ParamStore,
    head: Option<Mlp>,
    seed: u64,
}

impl TDmatchStarBaseline {
    /// Default configuration.
    pub fn new(seed: u64) -> Self {
        TDmatchStarBaseline {
            restart: 0.15,
            iters: 12,
            embed_dim: 32,
            epochs: 80,
            lr: 5e-3,
            left_emb: Vec::new(),
            right_emb: Vec::new(),
            left_scores: Vec::new(),
            store: ParamStore::new(),
            head: None,
            seed,
        }
    }

    fn feature_dim(&self) -> usize {
        4 * self.embed_dim + 2
    }

    fn features(&self, i: usize, j: usize) -> Vec<f32> {
        let u = &self.left_emb[i];
        let v = &self.right_emb[j];
        let mut f = Vec::with_capacity(self.feature_dim());
        f.extend_from_slice(u);
        f.extend_from_slice(v);
        f.extend(u.iter().zip(v).map(|(a, b)| (a - b).abs()));
        f.extend(u.iter().zip(v).map(|(a, b)| a * b));
        // Walk-proximity features: the row-normalized RWR score of this
        // pair and whether it is the row's best target.
        let srel = self.left_scores[i][j];
        f.push(srel);
        f.push(if srel >= 0.999 { 1.0 } else { 0.0 });
        f
    }
}

impl Matcher for TDmatchStarBaseline {
    fn name(&self) -> &'static str {
        "TDmatch*"
    }

    fn fit(&mut self, task: &MatchTask) {
        let g = WalkGraph::build(task.raw);
        // Walk-derived embeddings: the RWR landing distribution of each
        // record, projected to a fixed random basis (deterministic seed).
        let n = g.n_nodes();
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x7D);
        let proj = Matrix::from_fn(n, self.embed_dim, |_, _| {
            rng.gen_range(-1.0f32..1.0) / (n as f32).sqrt()
        });
        let embed = |p: &[f32]| -> Vec<f32> {
            let mut e = vec![0.0f32; self.embed_dim];
            for (row, &mass) in p.iter().enumerate() {
                if mass > 0.0 {
                    for (k, ev) in e.iter_mut().enumerate() {
                        *ev += mass * proj.get(row, k);
                    }
                }
            }
            // Scale up: RWR masses are tiny.
            e.iter().map(|v| v * (n as f32).sqrt()).collect()
        };
        self.left_emb = Vec::with_capacity(g.n_left);
        self.left_scores = Vec::with_capacity(g.n_left);
        for i in 0..g.n_left {
            let p = g.rwr(i, self.restart, self.iters);
            // Row-normalized scores onto the right records.
            let mut row: Vec<f32> = p[g.n_left..g.n_left + g.n_right].to_vec();
            let max = row.iter().cloned().fold(0.0f32, f32::max).max(1e-12);
            for v in &mut row {
                *v /= max;
            }
            self.left_scores.push(row);
            self.left_emb.push(embed(&p));
        }
        self.right_emb = (0..g.n_right)
            .map(|j| embed(&g.rwr(g.n_left + j, self.restart, self.iters)))
            .collect();

        // Train the MLP on the low-resource labels, oversampling the
        // positives so the tiny head does not collapse onto the majority
        // class (same balancing as the LM methods' trainer).
        let mut store = ParamStore::new();
        let head = Mlp::new(
            &mut store,
            "tdstar.head",
            self.feature_dim(),
            self.embed_dim,
            2,
            &mut rng,
        );
        let mut opt = AdamW::new(self.lr);
        let mut train: Vec<_> = task.raw.train.to_vec();
        let pos: Vec<_> = train.iter().filter(|lp| lp.label).cloned().collect();
        let neg_count = train.len() - pos.len();
        if !pos.is_empty() {
            for k in 0..neg_count.saturating_sub(pos.len()) {
                train.push(pos[k % pos.len()]);
            }
        }
        for _ in 0..self.epochs {
            store.zero_grads();
            let mut tape = Tape::new();
            let feats: Vec<f32> = train
                .iter()
                .flat_map(|lp| self.features(lp.pair.left, lp.pair.right))
                .collect();
            let x = tape.constant(Matrix::from_vec(train.len(), self.feature_dim(), feats));
            let logits = head.forward(&mut tape, &store, x);
            let targets: Vec<usize> = train.iter().map(|lp| usize::from(!lp.label)).collect();
            let loss = tape.cross_entropy(logits, &targets);
            tape.backward(loss);
            tape.accumulate_param_grads(&mut store);
            opt.step(&mut store);
        }
        self.store = store;
        self.head = Some(head);
    }

    fn predict(&mut self, _task: &MatchTask, _pairs: &[EncodedPair]) -> Vec<bool> {
        panic!("TDmatch* predicts on raw pair indices; use predict_test");
    }

    fn predict_test(&mut self, task: &MatchTask) -> Vec<bool> {
        // lint:allow(unwrap) — the Matcher contract is fit-then-predict
        let head = self.head.as_ref().expect("fit first");
        task.raw
            .test
            .iter()
            .map(|lp| {
                let f = self.features(lp.pair.left, lp.pair.right);
                let mut tape = Tape::inference();
                let x = tape.constant(Matrix::from_vec(1, f.len(), f));
                let logits = head.forward(&mut tape, &self.store, x);
                let lm = tape.value(logits);
                lm.get(0, 0) > lm.get(0, 1)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::evaluate_matcher;
    use crate::testutil::toy_task;

    #[test]
    fn graph_shape_is_consistent() {
        let (raw, _, _) = toy_task();
        let g = WalkGraph::build(&raw);
        assert_eq!(g.n_left, raw.left.records.len());
        assert_eq!(g.n_right, raw.right.records.len());
        assert!(g.n_nodes() > g.n_left + g.n_right, "no token nodes created");
        // Symmetry: each record-token edge exists in both directions.
        for (u, ns) in g.neighbors.iter().enumerate() {
            for &v in ns {
                assert!(
                    g.neighbors[v as usize].contains(&(u as u32)),
                    "edge {u}->{v} not symmetric"
                );
            }
        }
    }

    #[test]
    fn rwr_is_a_distribution() {
        let (raw, _, _) = toy_task();
        let g = WalkGraph::build(&raw);
        let p = g.rwr(0, 0.15, 10);
        let total: f32 = p.iter().sum();
        assert!((total - 1.0).abs() < 1e-3, "mass not conserved: {total}");
        assert!(p.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn tdmatch_finds_true_matches_better_than_chance() {
        let (raw, encoded, backbone) = toy_task();
        let task = MatchTask {
            raw: &raw,
            encoded: &encoded,
            backbone,
        };
        let mut m = TDmatchBaseline::new();
        let (scores, _) = evaluate_matcher(&mut m, &task);
        // Unsupervised reciprocal-top-1 on a dataset whose positives share
        // most tokens should beat the trivial all-negative classifier.
        assert!(
            scores.f1 > 10.0,
            "TDmatch F1 suspiciously low: {}",
            scores.f1
        );
    }

    #[test]
    fn tdmatch_star_trains_head() {
        let (raw, encoded, backbone) = toy_task();
        let task = MatchTask {
            raw: &raw,
            encoded: &encoded,
            backbone,
        };
        let mut m = TDmatchStarBaseline::new(5);
        let (scores, _) = evaluate_matcher(&mut m, &task);
        assert!(scores.f1 >= 0.0);
    }
}
