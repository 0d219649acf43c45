//! Workload inputs: generated streams, the seeded key relabelling and the
//! interleaved tuple order every engine sees.

use linkage::datagen::{generate, DatagenConfig, GeneratedData, SplitMix64};
use linkage::types::{Record, RecordId, Relation, Result, Side, SidedRecord, Value};

/// Join key column of every generated relation.
pub const KEY: usize = GeneratedData::KEY_COLUMN;

/// One generated parent/child stream, relabelled for the run's seed.
pub struct Stream {
    /// Datagen seed of the stream (fixed per workload, see the README).
    pub datagen_seed: u64,
    pub parents: Relation,
    pub children: Relation,
    /// Ground truth: `(parent id, child id)` for every child.
    pub truth: Vec<(RecordId, RecordId)>,
}

impl Stream {
    /// Generate one stream and relabel its keys with `cipher`.
    pub fn generate(config: &DatagenConfig, cipher: &Cipher) -> Result<Self> {
        let data = generate(config)?;
        Ok(Self {
            datagen_seed: config.seed,
            parents: cipher.relabel(&data.parents)?,
            children: cipher.relabel(&data.children)?,
            truth: data.truth,
        })
    }

    /// The tuple order of the default `InterleavePolicy::Alternate`:
    /// left, right, left, right, … then whichever side remains.
    pub fn interleaved(&self) -> Vec<SidedRecord> {
        let (left, right) = (self.parents.records(), self.children.records());
        let mut out = Vec::with_capacity(left.len() + right.len());
        for i in 0..left.len().max(right.len()) {
            if let Some(r) = left.get(i) {
                out.push(SidedRecord::new(Side::Left, r.clone()));
            }
            if let Some(r) = right.get(i) {
                out.push(SidedRecord::new(Side::Right, r.clone()));
            }
        }
        out
    }

    /// Total input tuples.
    pub fn tuples(&self) -> u64 {
        (self.parents.len() + self.children.len()) as u64
    }
}

/// A seeded permutation of `A`–`Z`, applied to every key character.
///
/// The generator's keys use only uppercase letters and spaces, so the
/// relabelling keeps every key distinct that was distinct, every edit an
/// edit and every q-gram overlap the same size: the join's match set,
/// the outlier test's verdicts and hence every switch point are those of
/// the fixed datagen seeds, while the bytes the program hashes, routes
/// and stores change with the run's `--seed`.
pub struct Cipher {
    map: [u8; 26],
}

impl Cipher {
    pub fn new(seed: u64) -> Self {
        let mut map: [u8; 26] = std::array::from_fn(|i| b'A' + i as u8);
        let mut rng = SplitMix64::new(seed ^ 0x5EED_C1F3_u64);
        for i in (1..26).rev() {
            map.swap(i, rng.below(i + 1));
        }
        Self { map }
    }

    pub fn apply(&self, key: &str) -> String {
        key.chars()
            .map(|c| match c {
                'A'..='Z' => char::from(self.map[(c as u8 - b'A') as usize]),
                other => other,
            })
            .collect()
    }

    fn relabel(&self, relation: &Relation) -> Result<Relation> {
        let records = relation
            .records()
            .iter()
            .map(|r| {
                let mut values = r.values.to_vec();
                values[KEY] = Value::string(self.apply(r.key_str(KEY)?));
                Ok(Record::new(r.id, values))
            })
            .collect::<Result<Vec<_>>>()?;
        Relation::new(relation.name(), relation.schema().clone(), records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cipher_is_a_seeded_bijection_on_letters() {
        let a = Cipher::new(1);
        let b = Cipher::new(2);
        let key = "LOC ABCDEFGHIJKLMNOPQRSTUVWXYZ";
        let mapped = a.apply(key);
        assert!(mapped.starts_with(&a.apply("LOC ")));
        let mut letters: Vec<char> = mapped[4..].chars().collect();
        letters.sort_unstable();
        assert_eq!(letters.iter().collect::<String>(), &key[4..]);
        assert_ne!(mapped, b.apply(key));
        assert_eq!(mapped, Cipher::new(1).apply(key));
    }

    #[test]
    fn interleaving_alternates_then_drains() {
        let stream = Stream::generate(&DatagenConfig::clean(3, 5), &Cipher::new(0)).unwrap();
        let order: Vec<Side> = stream.interleaved().iter().map(|s| s.side).collect();
        assert_eq!(
            order,
            [
                Side::Left,
                Side::Right,
                Side::Left,
                Side::Right,
                Side::Left,
                Side::Right
            ]
        );
    }
}
