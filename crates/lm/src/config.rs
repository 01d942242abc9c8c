//! Model hyperparameters for the mini masked language model.

/// Transformer encoder configuration. The defaults are the "quick" scale
/// used by the experiment harness; `base()` is a larger variant for the
/// `PROMPTEM_SCALE=full` runs.
#[derive(Debug, Clone, PartialEq)]
pub struct LmConfig {
    /// Vocabulary size (token-embedding rows).
    pub vocab: usize,
    /// Model width.
    pub d_model: usize,
    /// Number of transformer layers.
    pub n_layers: usize,
    /// Attention heads per layer.
    pub n_heads: usize,
    /// Feed-forward inner width.
    pub d_ff: usize,
    /// Maximum sequence length (learned positional embeddings).
    pub max_len: usize,
    /// Dropout probability used throughout the encoder.
    pub dropout: f32,
}

impl LmConfig {
    /// Tiny configuration: fast enough to train on one CPU core.
    pub fn tiny(vocab: usize) -> Self {
        LmConfig {
            vocab,
            d_model: 32,
            n_layers: 2,
            n_heads: 2,
            d_ff: 64,
            max_len: 64,
            dropout: 0.1,
        }
    }

    /// A larger configuration for full-scale runs.
    pub fn base(vocab: usize) -> Self {
        LmConfig {
            vocab,
            d_model: 64,
            n_layers: 3,
            n_heads: 4,
            d_ff: 128,
            max_len: 128,
            dropout: 0.1,
        }
    }

    /// Sanity-check invariants; panics with a clear message when violated.
    pub fn validate(&self) {
        assert!(
            self.vocab > super::tokenizer::SPECIALS.len(),
            "vocab too small"
        );
        assert!(
            self.d_model.is_multiple_of(self.n_heads),
            "d_model must divide into heads"
        );
        assert!(self.max_len >= 8, "max_len too small");
        assert!((0.0..1.0).contains(&self.dropout), "dropout out of range");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        LmConfig::tiny(100).validate();
        LmConfig::base(100).validate();
    }

    #[test]
    #[should_panic(expected = "d_model must divide")]
    fn invalid_heads_rejected() {
        let mut c = LmConfig::tiny(100);
        c.n_heads = 5;
        c.validate();
    }
}
