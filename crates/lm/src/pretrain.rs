//! Masked-language-model pretraining (the BERT/RoBERTa objective): mask 15%
//! of tokens — 80% to `[MASK]`, 10% to a random token, 10% unchanged — and
//! train the encoder + tied MLM head to recover the originals.

use crate::encoder::Encoder;
use crate::heads::MlmHead;
use crate::tokenizer::{Tokenizer, CLS, MASK, SEP};
use em_nn::{AdamW, ParamStore, Tape, TapeExec};
use em_resilience::failpoint::{self, Action};
use em_resilience::{
    wire, Checkpoint, ResilienceCtx, MAX_BAD_BATCH_RESTORES, MAX_CONSECUTIVE_BAD_BATCHES,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Pretraining hyperparameters.
#[derive(Debug, Clone)]
pub struct PretrainCfg {
    /// Maximum passes over the corpus (often cut short by `max_steps`).
    pub epochs: usize,
    /// Sentences per optimizer step.
    pub batch_size: usize,
    /// AdamW learning rate.
    pub lr: f32,
    /// Masking probability for ordinary tokens.
    pub mask_prob: f64,
    /// Hard cap on optimizer steps (keeps single-core runs bounded).
    pub max_steps: usize,
    /// Tokens masked with [`PretrainCfg::boost_prob`] instead of
    /// `mask_prob`. The corpus builder's relational statements embed
    /// relation words ("similar", "different", …) exactly once per
    /// sentence; boosting their mask rate concentrates MLM learning on the
    /// cloze pattern the prompt templates later query — the miniature
    /// equivalent of a web-scale LM seeing such patterns billions of times.
    pub boost_tokens: Vec<String>,
    /// Masking probability for boost tokens.
    pub boost_prob: f64,
    /// RNG seed for masking and shuffling.
    pub seed: u64,
}

impl Default for PretrainCfg {
    fn default() -> Self {
        PretrainCfg {
            epochs: 400,
            batch_size: 16,
            lr: 1e-3,
            mask_prob: 0.15,
            max_steps: 5000,
            boost_tokens: [
                "matched",
                "similar",
                "relevant",
                "mismatched",
                "different",
                "irrelevant",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            boost_prob: 0.9,
            seed: 0x5EED,
        }
    }
}

/// One masked training instance.
struct MaskedSeq {
    ids: Vec<usize>,
    /// (position, original token) pairs to predict.
    targets: Vec<(usize, usize)>,
}

fn mask_sequence(
    ids: &[usize],
    mask_prob: f64,
    boost_ids: &[usize],
    boost_prob: f64,
    content_lo: usize,
    vocab: usize,
    rng: &mut StdRng,
) -> MaskedSeq {
    let mut out = ids.to_vec();
    let mut targets = Vec::new();
    // Focused masking: a sentence containing a boost token (a relational
    // statement) masks *only* its boost tokens — one clean cloze target per
    // statement, so the relation-prediction signal is not drowned in the
    // loss of unpredictable content tokens. Plain sentences get standard
    // BERT-style masking.
    let is_statement = ids.iter().any(|t| boost_ids.contains(t));
    for (i, &tok) in ids.iter().enumerate() {
        if tok < content_lo {
            continue; // never mask special tokens
        }
        let p = if boost_ids.contains(&tok) {
            boost_prob
        } else if is_statement {
            0.0
        } else {
            mask_prob
        };
        if p > 0.0 && rng.gen_bool(p) {
            targets.push((i, tok));
            let roll: f64 = rng.gen();
            if roll < 0.8 {
                out[i] = MASK;
            } else if roll < 0.9 {
                out[i] = rng.gen_range(content_lo..vocab);
            } // else: keep original
        }
    }
    // Guarantee at least one prediction target per sequence.
    if targets.is_empty() {
        if let Some((i, &tok)) = ids.iter().enumerate().find(|(_, &t)| t >= content_lo) {
            targets.push((i, tok));
            out[i] = MASK;
        }
    }
    MaskedSeq { ids: out, targets }
}

/// Everything beyond weights and moments a resumed run needs: loop
/// position, loss accounting, the emitted-event counters that keep
/// manifests comparable, the RNG stream, and the in-flight epoch's
/// shuffle order.
struct PretrainCursor {
    steps: u64,
    opt_steps: u64,
    epoch: u64,
    /// Next chunk index within `epoch` (chunks before it are done).
    next_batch: u64,
    done: bool,
    last_epoch_loss: f32,
    epoch_loss: f32,
    epoch_batches: u64,
    /// Epoch summaries already emitted (and their summed batch counts);
    /// `ckpt_restore` reports these so em-prof can add back skipped work.
    emitted_epochs: u64,
    summary_batches: u64,
    rng: [u64; 4],
    order: Vec<usize>,
}

impl PretrainCursor {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        wire::put_u64(&mut out, self.steps);
        wire::put_u64(&mut out, self.opt_steps);
        wire::put_u64(&mut out, self.epoch);
        wire::put_u64(&mut out, self.next_batch);
        wire::put_u64(&mut out, self.done as u64);
        wire::put_f32(&mut out, self.last_epoch_loss);
        wire::put_f32(&mut out, self.epoch_loss);
        wire::put_u64(&mut out, self.epoch_batches);
        wire::put_u64(&mut out, self.emitted_epochs);
        wire::put_u64(&mut out, self.summary_batches);
        for w in self.rng {
            wire::put_u64(&mut out, w);
        }
        wire::put_u64(&mut out, self.order.len() as u64);
        for &i in &self.order {
            wire::put_u64(&mut out, i as u64);
        }
        out
    }

    fn decode(payload: &[u8]) -> std::io::Result<PretrainCursor> {
        let mut r = wire::Reader::new(payload);
        let steps = r.u64()?;
        let opt_steps = r.u64()?;
        let epoch = r.u64()?;
        let next_batch = r.u64()?;
        let done = r.u64()? != 0;
        let last_epoch_loss = r.f32()?;
        let epoch_loss = r.f32()?;
        let epoch_batches = r.u64()?;
        let emitted_epochs = r.u64()?;
        let summary_batches = r.u64()?;
        let mut rng = [0u64; 4];
        for w in &mut rng {
            *w = r.u64()?;
        }
        let n = r.u64()? as usize;
        if n * 8 != r.remaining() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "order length mismatch",
            ));
        }
        let mut order = Vec::with_capacity(n);
        for _ in 0..n {
            order.push(r.u64()? as usize);
        }
        r.finish()?;
        Ok(PretrainCursor {
            steps,
            opt_steps,
            epoch,
            next_batch,
            done,
            last_epoch_loss,
            epoch_loss,
            epoch_batches,
            emitted_epochs,
            summary_batches,
            rng,
            order,
        })
    }
}

fn save_pretrain_checkpoint(res: &ResilienceCtx, store: &ParamStore, cursor: &PretrainCursor) {
    let mut params = Vec::new();
    let mut adam = Vec::new();
    let ok = em_nn::io::write_params(store, &mut params).is_ok()
        && em_nn::io::write_opt_state(store, &mut adam).is_ok();
    if !ok {
        em_obs::warn("failed to serialize pretrain checkpoint sections");
        return;
    }
    let mut ckpt = Checkpoint::new();
    let mut meta = Vec::new();
    wire::put_str(&mut meta, "pretrain");
    ckpt.insert("meta", meta);
    ckpt.insert("params", params);
    ckpt.insert("adam", adam);
    ckpt.insert("cursor", cursor.encode());
    if let Err(e) = res.save(cursor.steps, &ckpt) {
        // A failed checkpoint must not kill training; the previous one
        // still covers us.
        em_obs::warn(format!(
            "checkpoint write failed at step {}: {e}",
            cursor.steps
        ));
    }
}

/// Restore weights + optimizer moments (not the cursor) from a checkpoint.
fn restore_pretrain_weights(
    ckpt: &Checkpoint,
    store: &mut ParamStore,
    opt: &mut AdamW,
) -> Result<u64, String> {
    let cursor = PretrainCursor::decode(ckpt.require("cursor").map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let params = ckpt.require("params").map_err(|e| e.to_string())?;
    em_nn::io::read_params(store, &mut &params[..]).map_err(|e| e.to_string())?;
    let adam = ckpt.require("adam").map_err(|e| e.to_string())?;
    em_nn::io::read_opt_state(store, &mut &adam[..]).map_err(|e| e.to_string())?;
    opt.set_steps(cursor.opt_steps);
    Ok(cursor.steps)
}

/// Restore everything, returning the cursor to resume from.
fn restore_pretrain(
    ckpt: &Checkpoint,
    store: &mut ParamStore,
    opt: &mut AdamW,
    n_sequences: usize,
) -> Result<PretrainCursor, String> {
    match ckpt.get("meta").map(|m| wire::Reader::new(m).str()) {
        Some(Ok(kind)) if kind == "pretrain" => {}
        _ => return Err("not a pretrain checkpoint".to_string()),
    }
    let cursor = PretrainCursor::decode(ckpt.require("cursor").map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    if !cursor.done
        && (cursor.order.len() != n_sequences || cursor.order.iter().any(|&i| i >= n_sequences))
    {
        return Err(format!(
            "checkpoint order covers {} sequences, corpus has {n_sequences}",
            cursor.order.len()
        ));
    }
    restore_pretrain_weights(ckpt, store, opt)?;
    Ok(cursor)
}

/// Credit the `nn_optimizer_steps` metric with steps a resumed run skips,
/// so the shutdown metric dump matches an uninterrupted run.
fn credit_skipped_steps(steps: u64) {
    if em_obs::enabled() && steps > 0 {
        em_obs::metrics::counter("nn_optimizer_steps", &[("opt", "adamw")]).add(steps);
    }
}

/// Run MLM pretraining over a sentence corpus; returns the mean loss of the
/// final epoch.
pub fn pretrain_mlm(
    store: &mut ParamStore,
    encoder: &Encoder,
    head: &MlmHead,
    tokenizer: &Tokenizer,
    corpus: &[String],
    cfg: &PretrainCfg,
) -> f32 {
    pretrain_mlm_resilient(store, encoder, head, tokenizer, corpus, cfg, None)
}

/// [`pretrain_mlm`] with crash safety: periodic atomic checkpoints every
/// `res.every` optimizer steps, deterministic resume (`res.resume`), and
/// graceful degradation on non-finite batch losses. With `res = None` the
/// loop behaves exactly like the plain entry point apart from the
/// always-on finiteness check.
pub fn pretrain_mlm_resilient(
    store: &mut ParamStore,
    encoder: &Encoder,
    head: &MlmHead,
    tokenizer: &Tokenizer,
    corpus: &[String],
    cfg: &PretrainCfg,
    res: Option<&ResilienceCtx>,
) -> f32 {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let content_lo = tokenizer.content_range().start;
    let vocab = tokenizer.vocab_size();
    let max_body = encoder.cfg.max_len - 2;
    let boost_ids: Vec<usize> = cfg
        .boost_tokens
        .iter()
        .filter_map(|w| tokenizer.id_of(w))
        .collect();

    // Tokenize once.
    let encoded: Vec<Vec<usize>> = corpus
        .iter()
        .map(|s| {
            let mut ids = vec![CLS];
            let body = tokenizer.encode(s);
            ids.extend_from_slice(&body[..body.len().min(max_body)]);
            ids.push(SEP);
            ids
        })
        .filter(|ids| ids.len() > 2)
        .collect();
    assert!(!encoded.is_empty(), "pretraining corpus is empty");

    let mut opt = AdamW::new(cfg.lr);
    let mut order: Vec<usize> = (0..encoded.len()).collect();
    let mut last_epoch_loss = f32::NAN;
    let mut steps = 0u64;
    let mut start_epoch = 0usize;
    let mut skip_chunks = 0usize;
    let mut carry_loss = 0.0f32;
    let mut carry_batches = 0u64;
    let mut emitted_epochs = 0u64;
    let mut summary_batches = 0u64;
    let mut resumed_mid_epoch = false;

    if let Some(res) = res {
        if res.resume {
            if let Some((_, ckpt)) = res.load_latest() {
                match restore_pretrain(&ckpt, store, &mut opt, encoded.len()) {
                    Ok(cur) => {
                        em_obs::ckpt_restore(
                            cur.steps,
                            cur.steps,
                            cur.emitted_epochs,
                            cur.summary_batches,
                        );
                        credit_skipped_steps(cur.opt_steps);
                        if cur.done {
                            return cur.last_epoch_loss;
                        }
                        steps = cur.steps;
                        start_epoch = cur.epoch as usize;
                        skip_chunks = cur.next_batch as usize;
                        last_epoch_loss = cur.last_epoch_loss;
                        carry_loss = cur.epoch_loss;
                        carry_batches = cur.epoch_batches;
                        emitted_epochs = cur.emitted_epochs;
                        summary_batches = cur.summary_batches;
                        order = cur.order;
                        rng = StdRng::from_state(cur.rng);
                        resumed_mid_epoch = true;
                    }
                    Err(e) => {
                        em_obs::warn(format!("unusable checkpoint, starting fresh: {e}"));
                    }
                }
            }
        }
    }

    let mut consecutive_bad = 0u32;
    let mut restores_used = 0u32;
    let mut hb = em_obs::heartbeat("pretrain", cfg.max_steps as u64);
    'outer: for epoch in start_epoch..cfg.epochs {
        let epoch_watch = em_obs::Stopwatch::if_enabled();
        let mut epoch_loss;
        let mut epoch_batches;
        let first_chunk;
        if resumed_mid_epoch {
            // `order` and the RNG stream came from the checkpoint;
            // re-shuffling here would desync from the uninterrupted run.
            resumed_mid_epoch = false;
            epoch_loss = carry_loss;
            epoch_batches = carry_batches;
            first_chunk = skip_chunks;
        } else {
            order.shuffle(&mut rng);
            epoch_loss = 0.0f32;
            epoch_batches = 0u64;
            first_chunk = 0;
        }
        let n_chunks = order.len().div_ceil(cfg.batch_size);
        for ci in first_chunk..n_chunks {
            if steps >= cfg.max_steps as u64 {
                break 'outer;
            }
            let chunk = &order[ci * cfg.batch_size..((ci + 1) * cfg.batch_size).min(order.len())];
            let inject_nan = matches!(failpoint::trigger_in_batch("batch"), Some(Action::Nan));
            store.zero_grads();
            let mut tape = Tape::new();
            let mut hidden_rows = Vec::new();
            let mut targets = Vec::new();
            for &i in chunk {
                let masked = mask_sequence(
                    &encoded[i],
                    cfg.mask_prob,
                    &boost_ids,
                    cfg.boost_prob,
                    content_lo,
                    vocab,
                    &mut rng,
                );
                // One tape segment per sequence, so the backward runs them
                // on the pool (`Tape::segment`).
                tape.segment(|tape| {
                    let h = encoder.forward(tape, store, &masked.ids, &mut rng);
                    for &(pos, orig) in &masked.targets {
                        hidden_rows.push(tape.slice_rows(h, pos, 1));
                        targets.push(orig);
                    }
                });
            }
            if targets.is_empty() {
                continue;
            }
            let stacked = tape.concat_rows(&hidden_rows);
            let logits = head.logits(&mut tape, store, encoder, stacked);
            let loss = tape.cross_entropy(logits, &targets);
            let mut loss_value = tape.value(loss).item();
            if inject_nan {
                loss_value = f32::NAN;
            }
            if !loss_value.is_finite() {
                // Skip the poisoned batch: no backward, no optimizer step,
                // no step-counter advance. The RNG has already moved on, so
                // the next batch sees different masks even on a restore.
                consecutive_bad += 1;
                em_obs::recovered_batch("pretrain", steps, consecutive_bad as u64);
                if consecutive_bad >= MAX_CONSECUTIVE_BAD_BATCHES {
                    let restored = res.and_then(|r| {
                        if restores_used >= MAX_BAD_BATCH_RESTORES {
                            return None;
                        }
                        let (_, ckpt) = r.load_latest()?;
                        restore_pretrain_weights(&ckpt, store, &mut opt).ok()
                    });
                    match restored {
                        Some(at) => {
                            restores_used += 1;
                            consecutive_bad = 0;
                            em_obs::warn(format!(
                                "{MAX_CONSECUTIVE_BAD_BATCHES} consecutive non-finite losses; \
                                 restored weights from checkpoint at step {at}"
                            ));
                        }
                        None => {
                            em_obs::warn(format!(
                                "persistent non-finite losses at step {steps}; \
                                 stopping pretraining early"
                            ));
                            break 'outer;
                        }
                    }
                }
                continue;
            }
            consecutive_bad = 0;
            epoch_loss += loss_value;
            epoch_batches += 1;
            tape.backward(loss);
            tape.accumulate_param_grads(store);
            store.clip_grad_norm(1.0);
            opt.step(store);
            em_obs::pretrain_step(steps, loss_value as f64);
            steps += 1;
            if let Some(hb) = hb.as_mut() {
                hb.tick(chunk.len() as u64, Some(loss_value as f64));
            }
            if let Some(res) = res {
                if res.due(steps) {
                    let cursor = PretrainCursor {
                        steps,
                        opt_steps: steps,
                        epoch: epoch as u64,
                        next_batch: ci as u64 + 1,
                        done: false,
                        last_epoch_loss,
                        epoch_loss,
                        epoch_batches,
                        emitted_epochs,
                        summary_batches,
                        rng: rng.state(),
                        order: order.clone(),
                    };
                    save_pretrain_checkpoint(res, store, &cursor);
                }
            }
        }
        if epoch_batches > 0 {
            last_epoch_loss = epoch_loss / epoch_batches as f32;
        }
        em_obs::epoch_summary(
            epoch as u64,
            last_epoch_loss as f64,
            None,
            None,
            encoded.len() as u64,
            epoch_batches,
            epoch_watch.map_or(0, |w| w.micros()),
        );
        emitted_epochs += 1;
        summary_batches += epoch_batches;
    }
    // Attribute this stage's tape ops to the live pretrain span.
    em_nn::tape::flush_op_stats();
    if let Some(res) = res {
        let cursor = PretrainCursor {
            steps,
            opt_steps: steps,
            epoch: cfg.epochs as u64,
            next_batch: 0,
            done: true,
            last_epoch_loss,
            epoch_loss: 0.0,
            epoch_batches: 0,
            emitted_epochs,
            summary_batches,
            rng: rng.state(),
            order: Vec::new(),
        };
        save_pretrain_checkpoint(res, store, &cursor);
    }
    last_epoch_loss
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LmConfig;

    #[test]
    fn mask_sequence_respects_specials() {
        let mut rng = StdRng::seed_from_u64(60);
        let ids = vec![CLS, 10, 11, 12, 13, SEP];
        for _ in 0..20 {
            let m = mask_sequence(&ids, 0.9, &[], 0.0, 7, 20, &mut rng);
            assert_eq!(m.ids[0], CLS);
            assert_eq!(m.ids[5], SEP);
            assert!(!m.targets.is_empty());
            for &(pos, orig) in &m.targets {
                assert_eq!(ids[pos], orig);
            }
        }
    }

    #[test]
    fn mask_sequence_guarantees_a_target() {
        let mut rng = StdRng::seed_from_u64(61);
        let ids = vec![CLS, 10, SEP];
        let m = mask_sequence(&ids, 0.0, &[], 0.0, 7, 20, &mut rng);
        assert_eq!(m.targets, vec![(1, 10)]);
        assert_eq!(m.ids[1], MASK);
    }

    #[test]
    fn resume_from_checkpoint_is_bit_exact() {
        use em_resilience::ResilienceCfg;

        let corpus: Vec<String> = (0..30)
            .map(|i| {
                if i % 2 == 0 {
                    "red apple sweet fruit".to_string()
                } else {
                    "green pepper spicy vegetable".to_string()
                }
            })
            .collect();
        let tokenizer = Tokenizer::fit(corpus.iter().map(|s| s.as_str()), 1);
        let lm_cfg = LmConfig {
            vocab: tokenizer.vocab_size(),
            d_model: 16,
            n_layers: 1,
            n_heads: 2,
            d_ff: 32,
            max_len: 8,
            dropout: 0.0,
        };
        let build = |store: &mut ParamStore| {
            let mut rng = StdRng::seed_from_u64(62);
            let encoder = Encoder::new(store, lm_cfg.clone(), &mut rng);
            let head = MlmHead::new(store, &encoder, &mut rng);
            (encoder, head)
        };
        // 30 sequences / batch 4 = 8 chunks per epoch, 24 steps total;
        // checkpoints land at 5, 10, 15, 20 and a done marker at 24.
        let pcfg = PretrainCfg {
            epochs: 3,
            batch_size: 4,
            max_steps: 10_000,
            ..Default::default()
        };

        // Reference run: no checkpoints at all.
        let mut store_a = ParamStore::new();
        let (enc_a, head_a) = build(&mut store_a);
        let loss_a = pretrain_mlm(&mut store_a, &enc_a, &head_a, &tokenizer, &corpus, &pcfg);

        // Checkpointed run to completion.
        let dir = std::env::temp_dir().join(format!("em-lm-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let write_cfg = ResilienceCfg {
            dir: dir.clone(),
            every: 5,
            resume: false,
        };
        let res = ResilienceCtx::new(&write_cfg, "pretrain").expect("open ckpt dir");
        let mut store_b = ParamStore::new();
        let (enc_b, head_b) = build(&mut store_b);
        let loss_b = pretrain_mlm_resilient(
            &mut store_b,
            &enc_b,
            &head_b,
            &tokenizer,
            &corpus,
            &pcfg,
            Some(&res),
        );
        assert_eq!(
            loss_a.to_bits(),
            loss_b.to_bits(),
            "checkpointing changed training"
        );

        let resume_cfg = ResilienceCfg {
            dir: dir.clone(),
            every: 5,
            resume: true,
        };

        // Resume after completion: the done marker short-circuits the loop.
        let res = ResilienceCtx::new(&resume_cfg, "pretrain").expect("reopen ckpt dir");
        let mut store_d = ParamStore::new();
        let (enc_d, head_d) = build(&mut store_d);
        let loss_d = pretrain_mlm_resilient(
            &mut store_d,
            &enc_d,
            &head_d,
            &tokenizer,
            &corpus,
            &pcfg,
            Some(&res),
        );
        assert_eq!(
            loss_b.to_bits(),
            loss_d.to_bits(),
            "post-done resume diverged"
        );

        // Simulate a crash after step 15 by discarding the newer files,
        // then resume into a freshly initialized model.
        for stale in [20u64, 24] {
            std::fs::remove_file(dir.join("pretrain").join(format!("ckpt-{stale:010}.bin")))
                .expect("drop post-crash checkpoint");
        }
        let res = ResilienceCtx::new(&resume_cfg, "pretrain").expect("reopen ckpt dir");
        let mut store_c = ParamStore::new();
        let (enc_c, head_c) = build(&mut store_c);
        let loss_c = pretrain_mlm_resilient(
            &mut store_c,
            &enc_c,
            &head_c,
            &tokenizer,
            &corpus,
            &pcfg,
            Some(&res),
        );

        assert_eq!(
            loss_a.to_bits(),
            loss_c.to_bits(),
            "resumed final loss diverged"
        );
        for id in store_a.ids() {
            assert_eq!(
                store_a.value(id).data(),
                store_c.value(id).data(),
                "weights diverged after resume"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pretraining_reduces_loss() {
        // A tiny corpus with strong regularities: loss must drop.
        let corpus: Vec<String> = (0..30)
            .map(|i| {
                if i % 2 == 0 {
                    "red apple sweet fruit".to_string()
                } else {
                    "green pepper spicy vegetable".to_string()
                }
            })
            .collect();
        let tokenizer = Tokenizer::fit(corpus.iter().map(|s| s.as_str()), 1);
        let mut rng = StdRng::seed_from_u64(62);
        let mut store = ParamStore::new();
        let cfg = LmConfig {
            vocab: tokenizer.vocab_size(),
            d_model: 16,
            n_layers: 1,
            n_heads: 2,
            d_ff: 32,
            max_len: 8,
            dropout: 0.0,
        };
        let encoder = Encoder::new(&mut store, cfg, &mut rng);
        let head = MlmHead::new(&mut store, &encoder, &mut rng);
        let first = pretrain_mlm(
            &mut store,
            &encoder,
            &head,
            &tokenizer,
            &corpus,
            &PretrainCfg {
                epochs: 1,
                max_steps: 10_000,
                ..Default::default()
            },
        );
        let later = pretrain_mlm(
            &mut store,
            &encoder,
            &head,
            &tokenizer,
            &corpus,
            &PretrainCfg {
                epochs: 8,
                max_steps: 10_000,
                ..Default::default()
            },
        );
        assert!(
            later < first,
            "MLM loss did not improve: first-epoch {first}, after more training {later}"
        );
    }
}
