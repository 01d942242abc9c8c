//! Token embedding table with scatter-add backward.

use crate::init;
use crate::optim::{ParamId, ParamStore};
use crate::tape::{TapeExec, Var};
use rand::Rng;

/// A `(vocab, dim)` lookup table. The table's [`ParamId`] is public so an MLM
/// head can tie its output projection to it.
#[derive(Clone)]
pub struct Embedding {
    /// The `(vocab, dim)` lookup table parameter.
    pub table: ParamId,
    /// Vocabulary size (row count).
    pub vocab: usize,
    /// Embedding width (column count).
    pub dim: usize,
}

impl Embedding {
    /// Register a new table initialized N(0, 0.02²) (the BERT default).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let table = store.register(format!("{name}.table"), init::normal(vocab, dim, 0.02, rng));
        Embedding { table, vocab, dim }
    }

    /// Look up a sequence of token ids, producing a `(len, dim)` var.
    pub fn forward(&self, tape: &mut impl TapeExec, store: &ParamStore, ids: &[usize]) -> Var {
        debug_assert!(ids.iter().all(|&i| i < self.vocab), "token id out of vocab");
        let table = tape.param(store, self.table);
        tape.gather_rows(table, ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Sgd;
    use crate::tape::Tape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lookup_shapes_and_rows() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "e", 10, 4, &mut rng);
        let mut tape = Tape::new();
        let out = emb.forward(&mut tape, &store, &[3, 3, 7]);
        assert_eq!(tape.value(out).shape(), (3, 4));
        assert_eq!(tape.value(out).row(0), tape.value(out).row(1));
    }

    #[test]
    fn duplicate_ids_accumulate_gradient() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "e", 5, 2, &mut rng);
        let before = store.value(emb.table).row(1).to_vec();
        let mut tape = Tape::new();
        let out = emb.forward(&mut tape, &store, &[1, 1]);
        let loss = tape.mean_all(out);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
        // Each of the 4 output elements contributes 1/4; row 1 appears twice.
        let g = store.grad(emb.table);
        for c in 0..2 {
            assert!((g.get(1, c) - 0.5).abs() < 1e-6);
        }
        for r in [0usize, 2, 3, 4] {
            assert_eq!(g.row(r), &[0.0, 0.0]);
        }
        let mut opt = Sgd::new(1.0);
        opt.step(&mut store);
        let after = store.value(emb.table).row(1);
        assert!(after.iter().zip(&before).all(|(a, b)| a != b));
    }
}
