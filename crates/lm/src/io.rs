//! Persistence of pretrained language models: vocabulary + configuration +
//! parameter values in one binary file. Used by the experiment harness to
//! cache per-dataset backbones (pretraining is the dominant cost) and
//! usable by downstream applications to ship a tuned model.
//!
//! Files written by this version carry an integrity trailer after the
//! `EMLMMOD1` body: magic `EMLMTRL1`, the body length (u64 LE) and a CRC32
//! of the body. Readers verify it when present and still accept
//! trailer-less files from older writers (which have no integrity
//! protection — a corrupt legacy file surfaces as `Truncated`/`Malformed`
//! where structure breaks, or not at all for pure value flips).

use crate::config::LmConfig;
use crate::encoder::Encoder;
use crate::heads::MlmHead;
use crate::model::PretrainedLm;
use crate::tokenizer::Tokenizer;
use em_nn::io::{read_params, read_string, read_u64, write_params, write_string};
use em_nn::ParamStore;
use em_resilience::checkpoint::crc32;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"EMLMMOD1";
const TRAILER_MAGIC: &[u8; 8] = b"EMLMTRL1";
/// Trailer layout: magic (8) + body length u64 (8) + body CRC32 (4).
const TRAILER_LEN: usize = 20;

/// Why a model file failed to load.
#[derive(Debug)]
pub enum ModelReadError {
    /// An underlying I/O failure (not a content problem).
    Io(io::Error),
    /// The file does not start with the `EMLMMOD1` magic.
    BadMagic,
    /// The file ends before the declared structure does.
    Truncated,
    /// The integrity trailer's CRC does not match the body (bit flip or
    /// torn write).
    ChecksumMismatch,
    /// Structurally invalid content (bad lengths, non-UTF-8 vocab, ...).
    Malformed(String),
}

impl fmt::Display for ModelReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelReadError::Io(e) => write!(f, "model I/O error: {e}"),
            ModelReadError::BadMagic => write!(f, "not a model file (bad magic)"),
            ModelReadError::Truncated => write!(f, "model file truncated"),
            ModelReadError::ChecksumMismatch => {
                write!(f, "model file checksum mismatch (corrupt body)")
            }
            ModelReadError::Malformed(m) => write!(f, "malformed model file: {m}"),
        }
    }
}

impl std::error::Error for ModelReadError {}

impl From<io::Error> for ModelReadError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::UnexpectedEof => ModelReadError::Truncated,
            io::ErrorKind::InvalidData => ModelReadError::Malformed(e.to_string()),
            _ => ModelReadError::Io(e),
        }
    }
}

/// Serialize the model body (everything the legacy format contained).
fn write_model_body(lm: &PretrainedLm, w: &mut impl Write) -> io::Result<()> {
    w.write_all(MAGIC)?;
    // Tokenizer vocabulary.
    let vocab = lm.tokenizer.vocab();
    w.write_all(&(vocab.len() as u64).to_le_bytes())?;
    for tok in vocab {
        write_string(w, tok)?;
    }
    // Model configuration.
    let c = &lm.encoder.cfg;
    for v in [c.vocab, c.d_model, c.n_layers, c.n_heads, c.d_ff, c.max_len] {
        w.write_all(&(v as u64).to_le_bytes())?;
    }
    w.write_all(&c.dropout.to_le_bytes())?;
    w.write_all(&lm.final_mlm_loss.to_le_bytes())?;
    // Parameters.
    write_params(&lm.store, w)
}

/// Serialize a pretrained model to a writer (body + integrity trailer).
pub fn write_model(lm: &PretrainedLm, w: &mut impl Write) -> io::Result<()> {
    let mut body = Vec::new();
    write_model_body(lm, &mut body)?;
    w.write_all(&body)?;
    w.write_all(TRAILER_MAGIC)?;
    w.write_all(&(body.len() as u64).to_le_bytes())?;
    w.write_all(&crc32(&body).to_le_bytes())
}

/// Split `bytes` into the model body, verifying the integrity trailer when
/// one is present. Trailer-less (legacy) input is returned whole.
fn verified_body(bytes: &[u8]) -> Result<&[u8], ModelReadError> {
    if bytes.len() >= TRAILER_LEN {
        let trailer = &bytes[bytes.len() - TRAILER_LEN..];
        if &trailer[..8] == TRAILER_MAGIC {
            let body = &bytes[..bytes.len() - TRAILER_LEN];
            let mut b = [0u8; 8];
            b.copy_from_slice(&trailer[8..16]);
            if u64::from_le_bytes(b) != body.len() as u64 {
                return Err(ModelReadError::Truncated);
            }
            let mut c = [0u8; 4];
            c.copy_from_slice(&trailer[16..]);
            if u32::from_le_bytes(c) != crc32(body) {
                return Err(ModelReadError::ChecksumMismatch);
            }
            return Ok(body);
        }
    }
    Ok(bytes)
}

/// Deserialize a pretrained model from a reader.
///
/// The whole input is buffered first: when the integrity trailer is
/// present the body CRC is verified before any parsing, so a bit-flipped
/// file yields [`ModelReadError::ChecksumMismatch`] rather than garbage
/// weights; truncated input yields [`ModelReadError::Truncated`].
pub fn read_model(r: &mut impl Read) -> Result<PretrainedLm, ModelReadError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes).map_err(ModelReadError::Io)?;
    let body = verified_body(&bytes)?;

    let mut r: &[u8] = body;
    let r = &mut r;
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(ModelReadError::BadMagic);
    }
    let vocab_len = read_u64(r)? as usize;
    if vocab_len > body.len() {
        // Each vocab entry takes at least its length prefix; a count larger
        // than the remaining bytes is corruption, not data.
        return Err(ModelReadError::Malformed(format!(
            "vocab count {vocab_len} exceeds file size"
        )));
    }
    let mut vocab = Vec::with_capacity(vocab_len);
    for _ in 0..vocab_len {
        vocab.push(read_string(r)?);
    }
    let tokenizer = Tokenizer::from_vocab(vocab);
    let mut nums = [0usize; 6];
    for n in &mut nums {
        *n = read_u64(r)? as usize;
    }
    let mut f32buf = [0u8; 4];
    r.read_exact(&mut f32buf)?;
    let dropout = f32::from_le_bytes(f32buf);
    r.read_exact(&mut f32buf)?;
    let final_mlm_loss = f32::from_le_bytes(f32buf);
    let cfg = LmConfig {
        vocab: nums[0],
        d_model: nums[1],
        n_layers: nums[2],
        n_heads: nums[3],
        d_ff: nums[4],
        max_len: nums[5],
        dropout,
    };
    // Guard against absurd dimensions before allocating the architecture.
    let scalars = cfg
        .d_model
        .checked_mul(cfg.vocab)
        .filter(|_| cfg.vocab > 0 && cfg.d_model > 0);
    if scalars.is_none() || body.len() < cfg.d_model.saturating_mul(cfg.vocab) / (1 << 8) {
        return Err(ModelReadError::Malformed(format!(
            "implausible config {cfg:?} for a {}-byte file",
            body.len()
        )));
    }
    // Rebuild the architecture (registration order must match pretraining),
    // then overwrite the randomly-initialized values from the file.
    let mut rng = StdRng::seed_from_u64(0);
    let mut store = ParamStore::new();
    let encoder = Encoder::new(&mut store, cfg, &mut rng);
    let mlm = MlmHead::new(&mut store, &encoder, &mut rng);
    read_params(&mut store, r)?;
    if !r.is_empty() {
        return Err(ModelReadError::Malformed(format!(
            "{} trailing bytes after parameters",
            r.len()
        )));
    }
    Ok(PretrainedLm {
        store,
        encoder,
        mlm,
        tokenizer,
        final_mlm_loss,
    })
}

/// Save a model to a file path. The write is atomic (temp → fsync →
/// rename): a crash mid-save leaves any previous file intact.
///
/// ```no_run
/// use em_lm::{LmConfig, PretrainCfg, PretrainedLm};
/// let corpus = vec!["some pretraining text".to_string()];
/// let lm = PretrainedLm::pretrain(&corpus, LmConfig::tiny, &PretrainCfg::default(), 1);
/// em_lm::io::save_model(&lm, "model.bin").unwrap();
/// let loaded = em_lm::io::load_model("model.bin").unwrap();
/// assert_eq!(loaded.encoder.cfg, lm.encoder.cfg);
/// ```
pub fn save_model(lm: &PretrainedLm, path: impl AsRef<Path>) -> io::Result<()> {
    let mut buf = Vec::new();
    write_model(lm, &mut buf)?;
    em_resilience::atomic_write(path.as_ref(), &buf)
}

/// Load a model from a file path.
pub fn load_model(path: impl AsRef<Path>) -> Result<PretrainedLm, ModelReadError> {
    let mut f = std::fs::File::open(path).map_err(ModelReadError::Io)?;
    read_model(&mut f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pretrain::PretrainCfg;
    use em_nn::{Tape, TapeExec};

    fn tiny_lm() -> PretrainedLm {
        let corpus: Vec<String> = (0..12)
            .map(|i| format!("token{} appears with token{}", i % 4, (i + 1) % 4))
            .collect();
        PretrainedLm::pretrain(
            &corpus,
            |v| LmConfig {
                vocab: v,
                d_model: 16,
                n_layers: 1,
                n_heads: 2,
                d_ff: 32,
                max_len: 12,
                dropout: 0.1,
            },
            &PretrainCfg {
                max_steps: 20,
                ..Default::default()
            },
            4,
        )
    }

    #[test]
    fn model_roundtrips_bit_exactly() {
        let lm = tiny_lm();
        let mut buf = Vec::new();
        write_model(&lm, &mut buf).unwrap();
        let loaded = read_model(&mut buf.as_slice()).unwrap();

        assert_eq!(loaded.tokenizer.vocab(), lm.tokenizer.vocab());
        assert_eq!(loaded.encoder.cfg, lm.encoder.cfg);
        assert_eq!(loaded.final_mlm_loss, lm.final_mlm_loss);

        // Same forward output on the same input.
        let ids = lm.tokenizer.encode("token1 appears");
        let mut rng = StdRng::seed_from_u64(1);
        let run = |m: &PretrainedLm, rng: &mut StdRng| {
            let mut tape = Tape::inference();
            let framed: Vec<usize> = std::iter::once(crate::tokenizer::CLS)
                .chain(ids.iter().copied())
                .collect();
            let h = m.encoder.forward(&mut tape, &m.store, &framed, rng);
            tape.value(h).clone()
        };
        assert_eq!(run(&lm, &mut rng), run(&loaded, &mut rng));
    }

    #[test]
    fn corrupt_input_is_rejected() {
        assert!(matches!(
            read_model(&mut b"garbage".as_slice()),
            Err(ModelReadError::Truncated)
        ));
        assert!(matches!(
            read_model(&mut b"NOTMAGIC________________".as_slice()),
            Err(ModelReadError::BadMagic)
        ));
    }

    #[test]
    fn legacy_trailerless_files_still_load() {
        let lm = tiny_lm();
        let mut legacy = Vec::new();
        write_model_body(&lm, &mut legacy).unwrap();
        let loaded = read_model(&mut legacy.as_slice()).unwrap();
        assert_eq!(loaded.encoder.cfg, lm.encoder.cfg);
        for (a, b) in loaded.store.ids().zip(lm.store.ids()) {
            assert_eq!(loaded.store.value(a), lm.store.value(b));
        }
    }

    #[test]
    fn bit_flip_fails_the_checksum() {
        let lm = tiny_lm();
        let mut buf = Vec::new();
        write_model(&lm, &mut buf).unwrap();
        // Flip one bit in the middle of the body (a parameter value, which
        // no structural check would catch).
        let mid = buf.len() / 2;
        buf[mid] ^= 0x01;
        assert!(matches!(
            read_model(&mut buf.as_slice()),
            Err(ModelReadError::ChecksumMismatch)
        ));
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let lm = tiny_lm();
        let mut buf = Vec::new();
        write_model(&lm, &mut buf).unwrap();
        for frac in [1, 2, 3, 5] {
            let cut = buf.len() * frac / 6;
            let err = match read_model(&mut buf[..cut].as_ref()) {
                Err(e) => e,
                Ok(_) => panic!("truncated file parsed at cut {cut}"),
            };
            assert!(
                matches!(
                    err,
                    ModelReadError::Truncated | ModelReadError::Malformed(_)
                ),
                "unexpected error {err:?} at cut {cut}"
            );
        }
    }

    #[test]
    fn file_roundtrip() {
        let lm = tiny_lm();
        let dir = std::env::temp_dir().join("em_lm_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bin");
        save_model(&lm, &path).unwrap();
        let loaded = load_model(&path).unwrap();
        assert_eq!(loaded.encoder.cfg, lm.encoder.cfg);
        std::fs::remove_file(&path).ok();
    }
}
