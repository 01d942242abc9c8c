//! Criterion microbenchmarks of the substrates: serialization, TF-IDF
//! summarization, tokenization, token blocking, matmul kernels, the GELU
//! and softmax kernels, encoder forward, one prompt-tuning epoch,
//! MC-Dropout passes, MC-EL2N scoring and one RWR power-iteration step.

use criterion::{criterion_group, criterion_main, Criterion};
use em_data::blocking::{record_tokens, TokenIndex};
use em_data::serialize::serialize;
use em_data::summarize::TfIdf;
use em_data::synth::{build, BenchmarkId, Scale};
use em_lm::{LmConfig, PretrainCfg, PretrainedLm};
use em_nn::{Matrix, Tape, TapeExec};
use std::hint::black_box;

fn bench_serialize(c: &mut Criterion) {
    let ds = build(BenchmarkId::SemiHeter, Scale::Quick, 1);
    let record = ds.left.records[0].clone();
    let format = ds.left.format;
    c.bench_function("serialize_semi_structured_record", |b| {
        b.iter(|| black_box(serialize(black_box(&record), format)))
    });
}

fn bench_summarize(c: &mut Criterion) {
    let ds = build(BenchmarkId::SemiTextW, Scale::Quick, 2);
    let texts: Vec<String> = ds
        .right
        .records
        .iter()
        .map(|r| serialize(r, ds.right.format))
        .collect();
    let tfidf = TfIdf::fit(texts.iter().map(|s| s.as_str()));
    let long = texts.iter().max_by_key(|t| t.len()).unwrap().clone();
    c.bench_function("tfidf_summarize_long_text", |b| {
        b.iter(|| black_box(tfidf.summarize(black_box(&long), 16)))
    });
}

fn tiny_lm() -> PretrainedLm {
    let corpus: Vec<String> = (0..40)
        .map(|i| format!("record {} with value {} and city {}", i, i * 7 % 13, i % 5))
        .collect();
    PretrainedLm::pretrain(
        &corpus,
        LmConfig::tiny,
        &PretrainCfg {
            max_steps: 30,
            ..Default::default()
        },
        3,
    )
}

fn bench_tokenize(c: &mut Criterion) {
    let lm = tiny_lm();
    let text = "record 17 with value 978067233 and city 4 plus unseen-token 412-555-0123";
    c.bench_function("tokenizer_encode", |b| {
        b.iter(|| black_box(lm.tokenizer.encode(black_box(text))))
    });
}

/// A deterministic `rows × cols` operand for the kernel benches.
/// Every left record of full-scale SEMI-HETER queried against the right
/// table's index (built once), as the bulk matcher blocks.
fn bench_blocking(c: &mut Criterion) {
    let ds = build(BenchmarkId::SemiHeter, Scale::Full, 42);
    let index = TokenIndex::build(&ds.right.records, ds.right.format);
    let queries: Vec<_> = ds
        .left
        .records
        .iter()
        .map(|r| record_tokens(r, ds.left.format))
        .collect();
    c.bench_function("blocking_candidates_semi_heter", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(index.candidates(black_box(q), 2, None));
            }
        })
    });
}

fn operand(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, cc| ((r * 31 + cc * 7 + salt) as f32).sin())
}

/// The GEMM kernel at the shapes the model runs, named `m×k×n`: a
/// 48-row activation through a 32→32 projection; the backward products
/// of a 48-row 32→64 FFN projection (`da = g·Wᵀ`, `dW = xᵀ·g`); and the
/// scoring head's 32 mask rows against the tied decoder (V = 4536, the
/// SEMI-HETER vocabulary).
fn bench_matmul(c: &mut Criterion) {
    let a = operand(48, 32, 0);
    let bm = operand(32, 32, 1);
    c.bench_function("matmul_48x32x32", |b| {
        b.iter(|| black_box(a.matmul(black_box(&bm))))
    });
    let g = operand(48, 64, 2);
    let w = operand(32, 64, 3);
    c.bench_function("matmul_nt_48x64x32", |b| {
        b.iter(|| black_box(g.matmul_nt(black_box(&w))))
    });
    c.bench_function("matmul_tn_32x48x64", |b| {
        b.iter(|| black_box(a.matmul_tn(black_box(&g))))
    });
    let h = operand(32, 32, 4);
    let decoder_t = operand(32, 4536, 5);
    c.bench_function("matmul_head_32x32x4536", |b| {
        b.iter(|| black_box(h.matmul(black_box(&decoder_t))))
    });
}

/// The elementwise kernels at one encoder layer's shapes under
/// `LmConfig::tiny` at sequence length 40: GELU over the 40×64 FFN hidden
/// layer, and the row softmax of one attention head's 40×40 scores.
fn bench_elementwise(c: &mut Criterion) {
    let hidden = operand(40, 64, 6);
    c.bench_function("gelu_40x64", |b| {
        b.iter(|| black_box(black_box(&hidden).map(em_nn::tape::gelu)))
    });
    let scores = operand(40, 40, 7);
    c.bench_function("softmax_rows_40x40", |b| {
        b.iter(|| black_box(black_box(&scores).softmax_rows()))
    });
}

fn bench_encoder_forward(c: &mut Criterion) {
    let lm = tiny_lm();
    let ids: Vec<usize> = (0..40).map(|i| 8 + i % 30).collect();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(4);
    c.bench_function("encoder_forward_seq40", |b| {
        b.iter(|| {
            let mut tape = Tape::inference();
            black_box(
                lm.encoder
                    .forward(&mut tape, &lm.store, black_box(&ids), &mut rng),
            );
        })
    });
}

fn bench_train_step(c: &mut Criterion) {
    let lm = tiny_lm();
    let mut store = lm.store.clone();
    let ids: Vec<usize> = (0..40).map(|i| 8 + i % 30).collect();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let mut opt = em_nn::AdamW::new(1e-4);
    c.bench_function("encoder_train_step_seq40", |b| {
        b.iter(|| {
            store.zero_grads();
            let mut tape = Tape::new();
            let h = lm.encoder.forward(&mut tape, &store, &ids, &mut rng);
            let pooled = tape.slice_rows(h, 0, 1);
            let logits = lm.mlm.logits(&mut tape, &store, &lm.encoder, pooled);
            let loss = tape.cross_entropy(logits, &[9]);
            tape.backward(loss);
            tape.accumulate_param_grads(&mut store);
            opt.step(&mut store);
        })
    });
}

/// One prompt-tuning epoch as `lowres_match` runs it, batch steps only:
/// `PromptEmModel::train` over 32 examples of 39 tokens (16 per entity
/// plus T2's continuous-template overhead of 7), no validation set, the
/// tied MLM head and dropout on. The backbone's vocabulary is about
/// REL-HETER's 5.4k words, so the tied decoder and the verbalizer run at
/// the paper's shapes.
fn bench_prompt_train_epoch(c: &mut Criterion) {
    use promptem::{EncodedPair, Example, PromptEmModel, PromptOpts, TrainCfg, TunableMatcher};
    // 5,400 distinct three-letter words, each in two corpus lines (the
    // tokenizer keeps words seen at least twice), plus the template and
    // label words.
    let word = |i: usize| -> String {
        (0..3)
            .map(|p| (b'a' + (i / 26usize.pow(p) % 26) as u8) as char)
            .collect()
    };
    let mut corpus = Vec::new();
    for s in 0..540 {
        let line: Vec<String> = (0..10).map(|j| word(s * 10 + j)).collect();
        corpus.push(line.join(" "));
        corpus.push(line.join(" "));
    }
    for _ in 0..2 {
        corpus.push("they are matched similar relevant mismatched different irrelevant".into());
        corpus.push("this is close to that".into());
    }
    let lm = PretrainedLm::pretrain(
        &corpus,
        LmConfig::tiny,
        &PretrainCfg {
            max_steps: 30,
            ..Default::default()
        },
        6,
    );
    let entity = |start: usize| -> Vec<usize> {
        (0..16)
            .flat_map(|j| lm.tokenizer.encode(&word(start + 7 * j)))
            .collect()
    };
    let train: Vec<Example> = (0..32)
        .map(|i| Example {
            pair: EncodedPair {
                ids_a: entity(i * 3).into(),
                ids_b: entity(i * 3 + if i % 2 == 0 { 0 } else { 1 }).into(),
            },
            label: i % 2 == 0,
        })
        .collect();
    let cfg = TrainCfg {
        epochs: 1,
        ..Default::default()
    };
    let model = PromptEmModel::new(std::sync::Arc::new(lm), PromptOpts::default(), 7);
    c.bench_function("prompt_train_epoch", |b| {
        b.iter(|| {
            let mut m = model.clone();
            black_box(m.train(black_box(&train), &[], &cfg, None))
        })
    });
}

fn bench_rwr_step(c: &mut Criterion) {
    use em_baselines::{MatchTask, Matcher, TDmatchBaseline};
    use promptem::pipeline::{encode_with, pretrain_backbone, PromptEmConfig};
    let ds = build(BenchmarkId::RelHeter, Scale::Quick, 5);
    let mut cfg = PromptEmConfig::default();
    cfg.pretrain.max_steps = 10;
    cfg.corpus.max_record_sentences = 50;
    cfg.corpus.relation_statements = 30;
    let backbone = pretrain_backbone(&ds, &cfg);
    let encoded = encode_with(&ds, &backbone, &cfg);
    c.bench_function("tdmatch_full_fit", |b| {
        b.iter(|| {
            let task = MatchTask {
                raw: &ds,
                encoded: &encoded,
                backbone: backbone.clone(),
            };
            let mut m = TDmatchBaseline::new();
            m.fit(&task);
            black_box(m.predict_test(&task))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_serialize, bench_summarize, bench_tokenize, bench_blocking, bench_matmul,
              bench_elementwise, bench_encoder_forward, bench_train_step,
              bench_prompt_train_epoch, bench_rwr_step
}
criterion_main!(benches);
