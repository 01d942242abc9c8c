//! Ablation of the token-identity attention-head initialization (DESIGN.md
//! §1.1.3): pretrain two otherwise-identical backbones on the same corpus —
//! one with the identity overlay, one with it subtracted back out — and
//! compare (a) final MLM loss and (b) zero-shot cloze discrimination
//! between matched and mismatched test pairs.
//!
//! Run: `cargo bench -p em-bench --bench ablation_identity_head`

use em_bench::experiment_seed;
use em_data::corpus::{build_pretrain_corpus, CorpusCfg, RelationWords};
use em_data::synth::{build, BenchmarkId, Scale};
use em_lm::pretrain::{pretrain_mlm, PretrainCfg};
use em_lm::{Encoder, LmConfig, MlmHead, PretrainedLm, Tokenizer};
use em_nn::{ParamStore, Tape, TapeExec};
use promptem::encode::{encode_dataset, EncodeCfg};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = Scale::from_env();
    let ds = build(BenchmarkId::RelHeter, scale, experiment_seed());
    let mut rng = StdRng::seed_from_u64(experiment_seed() ^ 0xC0FFEE);
    let corpus_cfg = CorpusCfg::default();
    let corpus = build_pretrain_corpus(&ds, &RelationWords::default(), &corpus_cfg, &mut rng);
    let pcfg = PretrainCfg {
        max_steps: 2500,
        ..Default::default()
    };

    println!("\nAblation — token-identity head initialization (REL-HETER, {scale:?})\n");
    println!("{:>22}  {:>8}  {:>8}", "variant", "MLM loss", "zs AUC");
    for with_identity in [true, false] {
        let tokenizer = Tokenizer::fit(corpus.iter().map(|s| s.as_str()), 2);
        let cfg = LmConfig::tiny(tokenizer.vocab_size());
        let mut store = ParamStore::new();
        let mut build_rng = StdRng::seed_from_u64(experiment_seed() ^ 0xBACB);
        let encoder = Encoder::new(&mut store, cfg, &mut build_rng);
        if !with_identity {
            // Subtract the overlay Encoder::new seeds, restoring plain
            // Xavier initialization.
            for layer in &encoder.layers {
                for w in [layer.attn.wq.w, layer.attn.wk.w] {
                    let m = store.value_mut(w);
                    for i in 0..layer.attn.d_head {
                        let cur = m.get(i, i);
                        m.set(i, i, cur - 1.0);
                    }
                }
            }
        }
        let mlm = MlmHead::new(&mut store, &encoder, &mut build_rng);
        let loss = pretrain_mlm(&mut store, &encoder, &mlm, &tokenizer, &corpus, &pcfg);
        let lm = PretrainedLm {
            store,
            encoder,
            mlm,
            tokenizer,
            final_mlm_loss: loss,
        };

        // Zero-shot AUC over the test pairs via the T1 hard surface form.
        let encoded = encode_dataset(&ds, &lm.tokenizer, &EncodeCfg::default());
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        let mut rng2 = StdRng::seed_from_u64(5);
        for ex in &encoded.test {
            let mut ids = vec![em_lm::tokenizer::CLS];
            ids.extend_from_slice(&ex.pair.ids_a);
            ids.extend_from_slice(&ex.pair.ids_b);
            ids.extend(lm.tokenizer.encode("they are"));
            ids.push(em_lm::tokenizer::MASK);
            ids.push(em_lm::tokenizer::SEP);
            ids.truncate(lm.encoder.cfg.max_len);
            let mask_pos = ids
                .iter()
                .position(|&t| t == em_lm::tokenizer::MASK)
                .unwrap_or(ids.len() - 1);
            let mut tape = Tape::inference();
            let h = lm.encoder.forward(&mut tape, &lm.store, &ids, &mut rng2);
            let hm = tape.slice_rows(h, mask_pos, 1);
            let logits = lm.mlm.logits(&mut tape, &lm.store, &lm.encoder, hm);
            let probs = tape.softmax_rows(logits);
            let pm = tape.value(probs);
            let s = |ws: &[&str]| {
                ws.iter()
                    .filter_map(|w| lm.tokenizer.id_of(w))
                    .map(|i| pm.get(0, i))
                    .sum::<f32>()
            };
            let y = s(&["matched", "similar", "relevant"]);
            let n = s(&["mismatched", "different", "irrelevant"]);
            let p = y / (y + n).max(1e-9);
            if ex.label {
                pos.push(p);
            } else {
                neg.push(p);
            }
        }
        let mut wins = 0.0;
        for &p in &pos {
            for &n in &neg {
                if p > n {
                    wins += 1.0;
                } else if p == n {
                    wins += 0.5;
                }
            }
        }
        let auc = wins / (pos.len() * neg.len()).max(1) as f64;
        let label = if with_identity {
            "identity head (ours)"
        } else {
            "plain Xavier"
        };
        println!("{label:>22}  {loss:>8.3}  {auc:>8.3}");
    }
    println!();
    println!("expected shape: the identity-head variant reaches lower MLM loss and");
    println!("higher zero-shot discrimination within the same step budget.");
}
