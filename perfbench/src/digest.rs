//! Bit-exact digests of embedding state, for the cross-repeat and
//! cross-pass output checks.
//!
//! FNV-1a over the IEEE bit patterns, visited in ascending fact / node
//! order: two digests are equal exactly when every vector is bit-identical
//! (up to 64-bit collisions), and `-0.0` vs `0.0` or two NaN payloads
//! count as different.

use dbgraph::NodeId;
use reldb::FactId;
use stembed_core::{ForwardEmbedder, Node2VecEmbedder};

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a (64-bit).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(OFFSET)
    }
}

impl Digest {
    /// Mix raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
        self
    }

    /// Mix one integer (little-endian bytes).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Mix a vector of `f64` by bit pattern, length first.
    pub fn f64s(&mut self, v: &[f64]) -> &mut Self {
        self.u64(v.len() as u64);
        for x in v {
            self.u64(x.to_bits());
        }
        self
    }

    /// Mix a vector of `f32` by bit pattern, length first.
    pub fn f32s(&mut self, v: &[f32]) -> &mut Self {
        self.u64(v.len() as u64);
        for x in v {
            self.bytes(&x.to_bits().to_le_bytes());
        }
        self
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of the FoRWaRD vectors of `facts`, in the given order (a fact
/// without a vector mixes in as an empty vector).
pub fn forward_of(fwd: &ForwardEmbedder, facts: impl IntoIterator<Item = FactId>) -> u64 {
    let inner = fwd.inner();
    let mut d = Digest::default();
    for f in facts {
        d.u64(u64::from(f.rel.0)).u64(u64::from(f.row));
        d.f64s(inner.embedding(f).unwrap_or_default());
    }
    d.finish()
}

/// Digest of every FoRWaRD vector, in ascending fact order.
pub fn forward(fwd: &ForwardEmbedder) -> u64 {
    forward_of(fwd, fwd.inner().embedded_facts())
}

/// Digest of the Node2Vec vectors of nodes `0..n` (nodes added by
/// `extend` are appended, so this prefix covers every pre-existing one).
pub fn node2vec_prefix(n2v: &Node2VecEmbedder, n: usize) -> u64 {
    let model = n2v.model();
    let mut d = Digest::default();
    d.u64(n as u64);
    for i in 0..n.min(model.node_count()) {
        d.f32s(model.embedding(NodeId(i as u32)));
    }
    d.finish()
}

/// Digest of every Node2Vec node vector (fact and value nodes).
pub fn node2vec(n2v: &Node2VecEmbedder) -> u64 {
    node2vec_prefix(n2v, n2v.model().node_count())
}

/// Digest of both embedders together.
pub fn embeddings(fwd: &ForwardEmbedder, n2v: &Node2VecEmbedder) -> u64 {
    Digest::default()
        .u64(forward(fwd))
        .u64(node2vec(n2v))
        .finish()
}

/// Whether every component is finite.
pub fn all_finite(v: &[f64]) -> bool {
    v.iter().all(|x| x.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::DatasetParams;

    #[test]
    fn fnv1a_reference_values() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(Digest::default().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(
            Digest::default().bytes(b"a").finish(),
            0xaf63_dc4c_8601_ec8c
        );
        assert_eq!(
            Digest::default().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn float_digests_see_every_bit() {
        let base = Digest::default().f64s(&[1.0, 2.0]).finish();
        assert_eq!(base, Digest::default().f64s(&[1.0, 2.0]).finish());
        assert_ne!(base, Digest::default().f64s(&[2.0, 1.0]).finish());
        assert_ne!(base, Digest::default().f64s(&[1.0, 2.0, 0.0]).finish());
        let next_up = f64::from_bits(2.0f64.to_bits() + 1);
        assert_ne!(base, Digest::default().f64s(&[1.0, next_up]).finish());
        assert_ne!(
            Digest::default().f32s(&[0.0]).finish(),
            Digest::default().f32s(&[-0.0]).finish()
        );
    }

    #[test]
    fn embedding_digest_is_reproducible_and_seed_sensitive() {
        let ds = datasets::world::generate(&DatasetParams::tiny(4));
        let mut cfg = repro::ExperimentConfig::quick();
        cfg.fwd.epochs = 1;
        cfg.n2v.epochs = 1;
        let train = |seed| {
            (
                ForwardEmbedder::train(&ds.db, ds.prediction_rel, &cfg.fwd, seed).unwrap(),
                Node2VecEmbedder::train_localized(&ds.db, ds.prediction_rel, &cfg.n2v, seed),
            )
        };
        let (f1, n1) = train(5);
        let (f2, n2) = train(5);
        let (f3, n3) = train(6);
        assert_eq!(embeddings(&f1, &n1), embeddings(&f2, &n2));
        assert_ne!(forward(&f1), forward(&f3));
        assert_ne!(node2vec(&n1), node2vec(&n3));
        assert!(all_finite(&[1.0, -2.0]));
        assert!(!all_finite(&[1.0, f64::NAN]));
    }
}
