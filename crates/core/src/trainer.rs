//! Shared training configuration, the matcher contract, and the one
//! optimizer step and epoch loop every trainable matcher runs: PromptEM,
//! fine-tuning, SentenceBERT and DeepMatcher differ only in their loss.

use crate::encode::{EncodedPair, Example};
use em_nn::{AdamW, ParamStore, Tape, TapeExec, Var};
use em_resilience::failpoint::{trigger_in_batch, Action};
use em_resilience::{MAX_BAD_BATCH_RESTORES, MAX_CONSECUTIVE_BAD_BATCHES};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Hyperparameters of one supervised training run (paper §5.1: AdamW,
/// batch size 32, lr 2e-5 at RoBERTa scale — rescaled for the mini-LM).
#[derive(Debug, Clone)]
pub struct TrainCfg {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Examples per optimizer step.
    pub batch_size: usize,
    /// AdamW learning rate.
    pub lr: f32,
    /// Select the epoch with the best validation F1 (paper §5.1: "We select
    /// the epoch with the highest F1-score on the validation set").
    pub best_on_valid: bool,
    /// Oversample the minority (positive) class each epoch so batches are
    /// roughly balanced. EM candidate sets are negative-heavy; at the
    /// paper's scale large batches smooth this out, at mini scale explicit
    /// balancing is needed to keep tiny models off the majority-class
    /// collapse. Applied uniformly to every LM-based method.
    pub balance: bool,
    /// Shuffling/epoch RNG seed.
    pub seed: u64,
}

impl Default for TrainCfg {
    fn default() -> Self {
        TrainCfg {
            epochs: 10,
            batch_size: 16,
            lr: 1e-4,
            best_on_valid: true,
            balance: true,
            seed: 7,
        }
    }
}

/// Dynamic-data-pruning settings threaded into the student's training loop
/// (§4.3): every `every` epochs, drop the `e_r` fraction of training
/// examples with the lowest MC-EL2N scores.
#[derive(Debug, Clone)]
pub struct PruneCfg {
    /// Prune every this many epochs.
    pub every: usize,
    /// Fraction of the training set dropped per pruning event (Eq. 3).
    pub e_r: f64,
    /// MC-Dropout passes for MC-EL2N.
    pub passes: usize,
}

impl Default for PruneCfg {
    fn default() -> Self {
        PruneCfg {
            every: 3,
            e_r: 0.2,
            passes: 10,
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainReport {
    /// Epochs actually executed.
    pub epochs_run: usize,
    /// Optimizer steps taken across the run (skipped batches excluded).
    pub batches_run: usize,
    /// Best validation F1 observed (with calibrated threshold).
    pub best_valid_f1: f64,
    /// Mean loss of the final epoch.
    pub final_train_loss: f32,
    /// Examples pruned by dynamic data pruning across the run.
    pub pruned: usize,
}

/// The contract every trainable matcher in this crate satisfies; the
/// lightweight self-training loop (§4) is generic over it, which is what
/// makes LST "general enough to incorporate with other approaches" (§4.1).
pub trait TunableMatcher {
    /// A fresh re-initialized model sharing the same pretrained backbone
    /// (Algorithm 1 re-initializes the teacher and student each iteration).
    fn fresh(&self, seed: u64) -> Self
    where
        Self: Sized;

    /// Supervised training, optionally with dynamic data pruning.
    fn train(
        &mut self,
        train: &[Example],
        valid: &[Example],
        cfg: &TrainCfg,
        prune: Option<&PruneCfg>,
    ) -> TrainReport;

    /// Deterministic match probabilities in [0, 1] (dropout off).
    fn predict_proba(&mut self, pairs: &[EncodedPair]) -> Vec<f32>;

    /// `passes` stochastic forward passes with dropout on (MC-Dropout).
    fn stochastic_proba(&mut self, pairs: &[EncodedPair], passes: usize) -> Vec<Vec<f32>>;

    /// A pair embedding used by the clustering pseudo-label strategy.
    fn embed(&mut self, pairs: &[EncodedPair]) -> Vec<Vec<f32>>;

    /// The decision threshold on the match probability. Calibrated on the
    /// validation set at the end of training (mini-scale LMs are poorly
    /// calibrated; the validation set is in-budget — the paper likewise
    /// model-selects on it).
    fn threshold(&self) -> f32 {
        0.5
    }

    /// Install a calibrated decision threshold.
    fn set_threshold(&mut self, t: f32);

    /// Binary predictions at the model's threshold.
    fn predict(&mut self, pairs: &[EncodedPair]) -> Vec<bool> {
        let t = self.threshold();
        self.predict_proba(pairs).iter().map(|&p| p > t).collect()
    }

    /// Freeze the tuned state (weights, threshold, RNG position) for a
    /// crash-safe checkpoint. `None` (the default) means the matcher does
    /// not support checkpointing and the self-train loop skips its stage
    /// checkpoints.
    fn export_state(&self) -> Option<crate::resume::MatcherState> {
        None
    }

    /// Install state captured by [`TunableMatcher::export_state`] on a
    /// freshly built model. Returns `false` when unsupported or when the
    /// state does not fit this model (wrong shapes).
    fn import_state(&mut self, _state: &crate::resume::MatcherState) -> bool {
        false
    }
}

/// A matcher trained on a recording [`Tape`] by [`run_training`]. It
/// supplies only what differs between matchers: its parameters and its
/// loss. The step around the loss is [`train_step`]'s.
pub trait TapeModel: TunableMatcher {
    /// Every parameter the model trains; best-on-valid snapshots and
    /// restores go through it too.
    fn params(&mut self) -> &mut ParamStore;

    /// Record the mean loss of `batch` on `tape`.
    fn loss(&mut self, tape: &mut Tape, batch: &[&Example]) -> Var;
}

/// One optimizer step on `batch`; returns the loss. It zeroes the
/// gradients, records the model's loss on a fresh tape, and audits the
/// graph when `audit` is set or the sanitizer is on. A non-finite loss,
/// real or injected by the `batch:nan` failpoint, returns before backward,
/// so no parameter, Adam moment or step count changes. Otherwise it runs
/// backward, clips the gradient norm to 1 and takes the AdamW step.
pub fn train_step<M: TapeModel>(
    model: &mut M,
    batch: &[&Example],
    opt: &mut AdamW,
    audit: bool,
) -> f32 {
    let inject_nan = matches!(trigger_in_batch("batch"), Some(Action::Nan));
    model.params().zero_grads();
    let mut tape = Tape::new();
    let loss = model.loss(&mut tape, batch);
    let store = model.params();
    if audit || em_nn::tape::sanitize_enabled() {
        em_check::audit_and_report(&tape, loss, store);
    }
    let mut value = tape.value(loss).item();
    if inject_nan {
        value = f32::NAN;
    }
    if !value.is_finite() {
        return value;
    }
    tape.backward(loss);
    tape.accumulate_param_grads(store);
    store.clip_grad_norm(1.0);
    opt.step(store);
    value
}

/// The epoch loop of every [`TapeModel`]: shuffle (and class-balance)
/// each epoch, take one [`train_step`] per batch, keep the best-on-valid
/// weights and calibrated threshold, and prune between epochs when
/// `prune` is set. The graph is audited on the run's first step. A batch
/// with a non-finite loss is skipped; after
/// [`MAX_CONSECUTIVE_BAD_BATCHES`] in a row the best-on-valid weights
/// and threshold come back, at most [`MAX_BAD_BATCH_RESTORES`] times,
/// and then the run stops early.
pub fn run_training<M: TapeModel>(
    model: &mut M,
    train: &[Example],
    valid: &[Example],
    cfg: &TrainCfg,
    prune: Option<&PruneCfg>,
) -> TrainReport {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xA5A5);
    let mut working: Vec<Example> = train.to_vec();
    let mut opt = AdamW::new(cfg.lr);
    let mut audit = true;
    let mut best_f1 = -1.0f64;
    let mut best_store: Option<(ParamStore, f32)> = None;
    let mut report = TrainReport::default();
    let mut consecutive_bad = 0u32;
    let mut restores_used = 0u32;
    let valid_pairs: Vec<EncodedPair> = valid.iter().map(|e| e.pair.clone()).collect();
    let valid_gold: Vec<bool> = valid.iter().map(|e| e.label).collect();

    // Total ticks are unknown until the first epoch reveals the chunk
    // count (balancing and pruning change it); re-estimated per epoch.
    let mut hb = em_obs::heartbeat("tune", 0);
    'epochs: for epoch in 0..cfg.epochs {
        let epoch_watch = em_obs::Stopwatch::if_enabled();
        working.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        let mut batches = 0;
        // Class-balanced epoch pool: oversample positives so the tiny model
        // does not collapse onto the majority class (see TrainCfg::balance).
        let mut refs: Vec<&Example> = working.iter().collect();
        if cfg.balance {
            let pos: Vec<&Example> = working.iter().filter(|e| e.label).collect();
            let neg = working.len() - pos.len();
            if !pos.is_empty() && neg > pos.len() {
                let extra_total = neg - pos.len();
                for k in 0..extra_total {
                    refs.push(pos[k % pos.len()]);
                }
                refs.shuffle(&mut rng);
            }
        }
        if let Some(hb) = hb.as_mut() {
            let chunks = refs.len().div_ceil(cfg.batch_size) as u64;
            hb.set_total(report.batches_run as u64 + chunks * (cfg.epochs - epoch) as u64);
        }
        for batch in refs.chunks(cfg.batch_size) {
            let loss = train_step(model, batch, &mut opt, std::mem::take(&mut audit));
            if !loss.is_finite() {
                // The step skipped backward and AdamW, so the weights are
                // still the last healthy ones; record the recovery and
                // move on without counting the batch.
                consecutive_bad += 1;
                em_obs::recovered_batch("tune", report.batches_run as u64, consecutive_bad as u64);
                if consecutive_bad >= MAX_CONSECUTIVE_BAD_BATCHES {
                    match &best_store {
                        Some((store, t)) if restores_used < MAX_BAD_BATCH_RESTORES => {
                            *model.params() = store.clone();
                            model.set_threshold(*t);
                            restores_used += 1;
                            consecutive_bad = 0;
                            em_obs::warn(format!(
                                "{MAX_CONSECUTIVE_BAD_BATCHES} consecutive non-finite \
                                 losses; restored best-on-valid weights (epoch {epoch})"
                            ));
                        }
                        _ => {
                            em_obs::warn(format!(
                                "persistent non-finite losses (epoch {epoch}); \
                                 stopping this training early"
                            ));
                            break 'epochs;
                        }
                    }
                }
                continue;
            }
            consecutive_bad = 0;
            epoch_loss += loss;
            batches += 1;
            report.batches_run += 1;
            if let Some(hb) = hb.as_mut() {
                hb.tick(batch.len() as u64, Some(loss as f64));
            }
        }
        report.final_train_loss = if batches > 0 {
            epoch_loss / batches as f32
        } else {
            0.0
        };
        report.epochs_run += 1;

        let mut epoch_valid = None;
        if cfg.best_on_valid && !valid.is_empty() {
            // Calibrate the decision threshold on the validation set, then
            // track the best (weights, threshold) pair by validation F1.
            let probs = model.predict_proba(&valid_pairs);
            let t = calibrate_threshold(&probs, &valid_gold);
            let pred: Vec<bool> = probs.iter().map(|&p| p > t).collect();
            let f1 = 100.0 * em_data::Confusion::from_pairs(&pred, &valid_gold).f1();
            epoch_valid = Some((f1, t));
            if f1 > best_f1 {
                best_f1 = f1;
                best_store = Some((model.params().clone(), t));
            }
        }
        em_obs::epoch_summary(
            epoch as u64,
            report.final_train_loss as f64,
            epoch_valid.map(|(f1, _)| f1),
            epoch_valid.map(|(_, t)| t as f64),
            refs.len() as u64,
            batches as u64,
            epoch_watch.map_or(0, |w| w.micros()),
        );

        // Dynamic data pruning (§4.3): "We prune the train set for every
        // [frequency] epochs".
        if let Some(p) = prune {
            let is_prune_epoch = (epoch + 1) % p.every == 0 && epoch + 1 < cfg.epochs;
            if is_prune_epoch && working.len() > cfg.batch_size {
                let scores = crate::pruning::mc_el2n(model, &working, p.passes);
                let (kept, dropped) = crate::pruning::prune_lowest(working, &scores, p.e_r);
                working = kept;
                report.pruned += dropped;
                em_obs::prune(dropped as u64, p.passes as u64);
            }
        }
    }
    if let Some((store, t)) = best_store {
        *model.params() = store;
        model.set_threshold(t);
        report.best_valid_f1 = best_f1;
    } else if !valid.is_empty() {
        report.best_valid_f1 = evaluate(model, valid).f1;
    }
    report
}

/// Pick the threshold maximizing F1 of `probs` against `gold`. Candidates
/// are midpoints between consecutive sorted probabilities (plus 0.5).
pub fn calibrate_threshold(probs: &[f32], gold: &[bool]) -> f32 {
    assert_eq!(probs.len(), gold.len());
    if probs.is_empty() {
        return 0.5;
    }
    let mut sorted: Vec<f32> = probs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mut candidates = vec![0.5f32];
    for w in sorted.windows(2) {
        candidates.push((w[0] + w[1]) / 2.0);
    }
    candidates.push(sorted[0] - 1e-4);
    candidates.push(sorted[sorted.len() - 1] + 1e-4);
    let mut best = (0.5f32, -1.0f64);
    for &t in &candidates {
        let pred: Vec<bool> = probs.iter().map(|&p| p > t).collect();
        let f1 = em_data::Confusion::from_pairs(&pred, gold).f1();
        if f1 > best.1 {
            best = (t, f1);
        }
    }
    best.0
}

/// Evaluate a matcher on labeled examples.
pub fn evaluate<M: TunableMatcher>(model: &mut M, examples: &[Example]) -> em_data::PrfScores {
    let pairs: Vec<EncodedPair> = examples.iter().map(|e| e.pair.clone()).collect();
    let pred = model.predict(&pairs);
    let gold: Vec<bool> = examples.iter().map(|e| e.label).collect();
    em_data::PrfScores::from_predictions(&pred, &gold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_nn::{Matrix, ParamId};
    use em_obs::EventKind;

    #[test]
    fn defaults_are_sane() {
        let t = TrainCfg::default();
        assert!(t.epochs > 0 && t.batch_size > 0 && t.lr > 0.0);
        let p = PruneCfg::default();
        assert!(p.every > 0 && p.e_r > 0.0 && p.e_r < 1.0 && p.passes > 0);
    }

    /// Whether the two sides share their first id: the one feature of
    /// [`Toy`], and the label of [`toy_examples`].
    fn same(p: &EncodedPair) -> f32 {
        f32::from(u8::from(p.ids_a[0] == p.ids_b[0]))
    }

    /// Two-class logistic regression on [`same`] whose loss is NaN on the
    /// loss calls (counted from 0) in `poison`. It logs the weight bits
    /// and the threshold that each loss call sees.
    struct Toy {
        store: ParamStore,
        w: ParamId,
        threshold: f32,
        calls: usize,
        poison: std::ops::Range<usize>,
        seen: Vec<(Vec<u32>, f32)>,
    }

    impl Toy {
        /// The threshold starts at −1, which no calibration returns, so a
        /// restore shows in `seen`.
        fn new(poison: std::ops::Range<usize>) -> Self {
            let mut store = ParamStore::new();
            let w = store.register("toy.w", Matrix::zeros(2, 2));
            Toy {
                store,
                w,
                threshold: -1.0,
                calls: 0,
                poison,
                seen: Vec::new(),
            }
        }

        fn weight_bits(&self) -> Vec<u32> {
            let w = self.store.value(self.w);
            w.data().iter().map(|v| v.to_bits()).collect()
        }
    }

    impl TunableMatcher for Toy {
        fn fresh(&self, _seed: u64) -> Self {
            Toy::new(self.poison.clone())
        }

        fn train(
            &mut self,
            train: &[Example],
            valid: &[Example],
            cfg: &TrainCfg,
            prune: Option<&PruneCfg>,
        ) -> TrainReport {
            run_training(self, train, valid, cfg, prune)
        }

        fn predict_proba(&mut self, pairs: &[EncodedPair]) -> Vec<f32> {
            let w = self.store.value(self.w);
            let logit = |x: f32, c: usize| x * w.get(0, c) + w.get(1, c);
            let p = |x: f32| 1.0 / (1.0 + (logit(x, 1) - logit(x, 0)).exp());
            pairs.iter().map(|pair| p(same(pair))).collect()
        }

        fn stochastic_proba(&mut self, pairs: &[EncodedPair], passes: usize) -> Vec<Vec<f32>> {
            (0..passes).map(|_| self.predict_proba(pairs)).collect()
        }

        fn embed(&mut self, pairs: &[EncodedPair]) -> Vec<Vec<f32>> {
            pairs.iter().map(|p| vec![same(p)]).collect()
        }

        fn threshold(&self) -> f32 {
            self.threshold
        }

        fn set_threshold(&mut self, t: f32) {
            self.threshold = t;
        }
    }

    impl TapeModel for Toy {
        fn params(&mut self) -> &mut ParamStore {
            &mut self.store
        }

        fn loss(&mut self, tape: &mut Tape, batch: &[&Example]) -> Var {
            self.seen.push((self.weight_bits(), self.threshold));
            let x = Matrix::from_fn(batch.len(), 2, |r, c| {
                if c == 0 {
                    same(&batch[r].pair)
                } else {
                    1.0
                }
            });
            let x = tape.constant(x);
            let w = tape.param(&self.store, self.w);
            let logits = tape.matmul(x, w);
            let targets: Vec<usize> = batch.iter().map(|e| usize::from(!e.label)).collect();
            let loss = tape.cross_entropy(logits, &targets);
            let poisoned = self.poison.contains(&self.calls);
            self.calls += 1;
            if poisoned {
                tape.scale(loss, f32::NAN)
            } else {
                loss
            }
        }
    }

    /// `n` examples, every other one a match.
    fn toy_examples(n: usize) -> Vec<Example> {
        (0..n)
            .map(|i| Example {
                pair: EncodedPair {
                    ids_a: vec![i].into(),
                    ids_b: vec![if i % 2 == 0 { i } else { i + 1 }].into(),
                },
                label: i % 2 == 0,
            })
            .collect()
    }

    /// Four single-example batches per epoch, no balancing.
    fn toy_cfg(epochs: usize) -> TrainCfg {
        TrainCfg {
            epochs,
            batch_size: 1,
            lr: 0.1,
            best_on_valid: true,
            balance: false,
            seed: 3,
        }
    }

    /// `(step, consecutive)` of every `recovered_batch` event, each of
    /// which must name the tune phase.
    fn recoveries(events: &[em_obs::Event]) -> Vec<(u64, u64)> {
        events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::RecoveredBatch {
                    phase,
                    step,
                    consecutive,
                } => {
                    assert_eq!(phase, "tune");
                    Some((*step, *consecutive))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn consecutive_bad_batches_restore_the_best_on_valid_weights_and_threshold() {
        let bad = MAX_CONSECUTIVE_BAD_BATCHES as usize;
        let (train, valid) = (toy_examples(4), toy_examples(6));
        // Epoch 0 trains calls 0–3 and is the best on valid. Call 4 steps
        // again; calls 5.. are bad, and after the last of them the next
        // call must see epoch 0's weights and calibrated threshold.
        let mut toy = Toy::new(5..5 + bad);
        let (report, events) = em_obs::capture(|| toy.train(&train, &valid, &toy_cfg(3), None));
        // The weights after epoch 0, and the threshold they calibrate to.
        let after_epoch_0 = toy.seen[4].0.clone();
        let mut best = Toy::new(0..0);
        let w = after_epoch_0.iter().map(|&b| f32::from_bits(b)).collect();
        *best.store.value_mut(best.w) = Matrix::from_vec(2, 2, w);
        let pairs: Vec<EncodedPair> = valid.iter().map(|e| e.pair.clone()).collect();
        let gold: Vec<bool> = valid.iter().map(|e| e.label).collect();
        let t = calibrate_threshold(&best.predict_proba(&pairs), &gold);

        assert_ne!(toy.seen[5].0, after_epoch_0, "call 4 took no step");
        for call in 6..5 + bad {
            assert_eq!(
                toy.seen[call], toy.seen[5],
                "bad call {call} moved the model"
            );
        }
        assert_eq!(toy.seen[5].1, -1.0, "threshold changed before the restore");
        assert_eq!(toy.seen[5 + bad], (after_epoch_0, t), "not restored");
        let steps = (1..=bad as u64).map(|c| (5, c)).collect::<Vec<_>>();
        assert_eq!(recoveries(&events), steps);
        assert_eq!(report.epochs_run, 3);
        assert_eq!(report.batches_run, 3 * 4 - bad);
    }

    #[test]
    fn training_stops_once_the_restores_are_spent() {
        let bad = MAX_CONSECUTIVE_BAD_BATCHES as usize;
        let restores = MAX_BAD_BATCH_RESTORES as usize;
        let (train, valid) = (toy_examples(4), toy_examples(6));
        // Every call after epoch 0 is bad: each run of `bad` restores,
        // until the restores are spent and the next run stops the training.
        let mut toy = Toy::new(4..usize::MAX);
        let cfg = toy_cfg(10);
        let (report, events) = em_obs::capture(|| toy.train(&train, &valid, &cfg, None));
        let bad_calls = bad * (restores + 1);
        assert_eq!(toy.calls, 4 + bad_calls);
        let got = recoveries(&events);
        assert_eq!(got.len(), bad_calls, "one recovered_batch per bad batch");
        let want: Vec<(u64, u64)> = (0..bad_calls).map(|i| (4, (i % bad) as u64 + 1)).collect();
        assert_eq!(got, want);
        assert_eq!(report.batches_run, 4);
        assert_eq!(report.epochs_run, (4 + bad_calls) / 4, "of {}", cfg.epochs);
    }
}
