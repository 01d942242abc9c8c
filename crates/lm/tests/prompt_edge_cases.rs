//! Edge-case behavior of the prompt machinery: empty/huge sides, verbalizer
//! degeneracies, template overhead accounting.

use em_lm::prompt::{LabelWords, PromptMode, PromptTemplate, TemplateId, Verbalizer};
use em_lm::{Encoder, LmConfig, Tokenizer};
use em_nn::{ParamStore, Tape, TapeExec, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The full template forward from the public pieces: every final hidden
/// row, and the `[MASK]` row index.
fn full_forward(
    tmpl: &PromptTemplate,
    tape: &mut Tape,
    store: &ParamStore,
    enc: &Encoder,
    (a, b): (&[usize], &[usize]),
    rng: &mut StdRng,
) -> (Var, usize) {
    let (x, seq, mask_row) = tmpl.embed_template(tape, store, enc, a, b, None, rng);
    let h = enc.forward_embedded(tape, store, x, seq, 0..seq, rng);
    (h, mask_row)
}

fn setup(max_len: usize) -> (ParamStore, Encoder, Tokenizer, StdRng) {
    let tok = Tokenizer::fit(
        ["alpha beta gamma delta they are is to matched similar relevant mismatched different irrelevant"],
        1,
    );
    let mut rng = StdRng::seed_from_u64(1);
    let mut store = ParamStore::new();
    let cfg = LmConfig {
        vocab: tok.vocab_size(),
        d_model: 16,
        n_layers: 1,
        n_heads: 2,
        d_ff: 32,
        max_len,
        dropout: 0.0,
    };
    let enc = Encoder::new(&mut store, cfg, &mut rng);
    (store, enc, tok, rng)
}

#[test]
fn empty_sides_still_produce_a_mask_position() {
    let (mut store, enc, tok, mut rng) = setup(32);
    for template in [TemplateId::T1, TemplateId::T2] {
        for mode in [PromptMode::Hard, PromptMode::Continuous] {
            let tmpl =
                PromptTemplate::new(&mut store, &tok, enc.cfg.d_model, template, mode, &mut rng);
            let mut tape = Tape::inference();
            let (h, mask_row) = full_forward(&tmpl, &mut tape, &store, &enc, (&[], &[]), &mut rng);
            assert!(mask_row < tape.value(h).rows(), "{template:?}/{mode:?}");
        }
    }
}

#[test]
fn asymmetric_lengths_share_the_budget() {
    let (mut store, enc, tok, mut rng) = setup(24);
    let tmpl = PromptTemplate::new(
        &mut store,
        &tok,
        enc.cfg.d_model,
        TemplateId::T1,
        PromptMode::Hard,
        &mut rng,
    );
    let long: Vec<usize> = tok.encode("alpha beta gamma delta").repeat(20);
    let short = tok.encode("alpha");
    let mut tape = Tape::inference();
    let (h, mask_row) = full_forward(&tmpl, &mut tape, &store, &enc, (&long, &short), &mut rng);
    assert!(tape.value(h).rows() <= 24);
    assert!(mask_row < tape.value(h).rows());

    // Swap sides: still fits.
    let mut tape = Tape::inference();
    let (h, _) = full_forward(&tmpl, &mut tape, &store, &enc, (&short, &long), &mut rng);
    assert!(tape.value(h).rows() <= 24);
}

#[test]
fn verbalizer_drops_oov_words_but_keeps_class() {
    let tok = Tokenizer::fit(["matched mismatched plain words"], 1);
    let words = LabelWords {
        yes: vec!["matched".into(), "nonexistentword".into()],
        no: vec!["mismatched".into()],
    };
    let v = Verbalizer::new(&tok, &words);
    assert_eq!(v.yes_ids.len(), 1);
    assert_eq!(v.no_ids.len(), 1);
}

#[test]
#[should_panic(expected = "label word")]
fn verbalizer_panics_when_a_class_is_empty() {
    let tok = Tokenizer::fit(["just plain words"], 1);
    // None of the designed words exist in this vocabulary.
    let _ = Verbalizer::new(&tok, &LabelWords::simple());
}

#[test]
fn continuous_templates_add_params_hard_do_not() {
    let (mut store, enc, tok, mut rng) = setup(32);
    let before = store.len();
    let _hard = PromptTemplate::new(
        &mut store,
        &tok,
        enc.cfg.d_model,
        TemplateId::T1,
        PromptMode::Hard,
        &mut rng,
    );
    assert_eq!(store.len(), before, "hard template must not add parameters");
    let _cont = PromptTemplate::new(
        &mut store,
        &tok,
        enc.cfg.d_model,
        TemplateId::T1,
        PromptMode::Continuous,
        &mut rng,
    );
    assert!(
        store.len() > before,
        "continuous template must add prompt parameters"
    );
}
