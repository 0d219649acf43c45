//! The output checker shared by every workload.
//!
//! It works from the generated inputs alone: keys are normalised and
//! split into q-grams by this module's own string code (not the
//! program's normaliser, tokeniser or interned kernel), the exact pairs
//! come from a hash join computed here, and the pairs an adaptive run
//! must recover are the ground-truth pairs whose q-gram Jaccard reaches
//! θ_sim.

use std::collections::{HashMap, HashSet};

use linkage::api::MatchPair;
use linkage::types::defaults;

use crate::data::{Stream, KEY};

/// Similarity threshold of the approximate phase (the program's default).
pub const THETA_SIM: f64 = defaults::THETA_SIM;

/// Window width and padding characters of the default q-gram convention.
const Q: usize = 3;
const PAD_BEGIN: char = '\u{2310}';
const PAD_END: char = '\u{00B6}';

/// Uppercase, collapse runs of whitespace to one space, trim.
pub fn normalise(key: &str) -> String {
    key.split_whitespace()
        .map(str::to_uppercase)
        .collect::<Vec<_>>()
        .join(" ")
}

/// The padded q-gram set of a normalised key, sorted and deduplicated.
pub fn grams(normalised: &str) -> Vec<[char; Q]> {
    if normalised.is_empty() {
        return Vec::new();
    }
    let mut chars = vec![PAD_BEGIN; Q - 1];
    chars.extend(normalised.chars());
    chars.extend(std::iter::repeat_n(PAD_END, Q - 1));
    let mut set: Vec<[char; Q]> = chars
        .windows(Q)
        .map(|w| std::array::from_fn(|i| w[i]))
        .collect();
    set.sort_unstable();
    set.dedup();
    set
}

/// Jaccard coefficient of two sorted gram sets.
pub fn jaccard(a: &[[char; Q]], b: &[[char; Q]]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let (mut i, mut j, mut shared) = (0, 0, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    shared as f64 / (a.len() + b.len() - shared) as f64
}

/// Similarity of two normalised keys.
pub fn similarity(a: &str, b: &str) -> f64 {
    jaccard(&grams(a), &grams(b))
}

/// What a correct run over one stream must emit.
pub struct Expected {
    left_keys: HashMap<u64, String>,
    right_keys: HashMap<u64, String>,
    exact: HashSet<(u64, u64)>,
    truth: HashSet<(u64, u64)>,
    /// Ground-truth pairs scoring at least θ_sim: a switched run must
    /// emit every one of them, pre-switch residents included.
    recoverable: HashSet<(u64, u64)>,
    /// 1-based position, in the interleaved order, of the first child
    /// whose normalised key equals no parent key (`None`: no dirt).
    pub first_dirty: Option<u64>,
}

impl Expected {
    pub fn new(stream: &Stream) -> Self {
        let keys = |relation: &linkage::types::Relation| -> HashMap<u64, String> {
            relation
                .records()
                .iter()
                .map(|r| {
                    let key = r.key_str(KEY).expect("generated keys are strings");
                    (r.id.as_u64(), normalise(key))
                })
                .collect()
        };
        let left_keys = keys(&stream.parents);
        let right_keys = keys(&stream.children);

        let mut by_key: HashMap<&str, Vec<u64>> = HashMap::new();
        for (id, key) in &left_keys {
            by_key.entry(key.as_str()).or_default().push(*id);
        }
        let mut exact = HashSet::new();
        for (child, key) in &right_keys {
            for parent in by_key.get(key.as_str()).into_iter().flatten() {
                exact.insert((*parent, *child));
            }
        }

        let truth: HashSet<(u64, u64)> = stream
            .truth
            .iter()
            .map(|(p, c)| (p.as_u64(), c.as_u64()))
            .collect();
        let recoverable = truth
            .iter()
            .filter(|(p, c)| similarity(&left_keys[p], &right_keys[c]) >= THETA_SIM)
            .copied()
            .collect();

        let first_dirty = stream
            .interleaved()
            .iter()
            .position(|s| {
                s.side == linkage::types::Side::Right
                    && !by_key.contains_key(right_keys[&s.record.id.as_u64()].as_str())
            })
            .map(|i| i as u64 + 1);

        Self {
            left_keys,
            right_keys,
            exact,
            truth,
            recoverable,
            first_dirty,
        }
    }

    /// Whether a switch after `after_tuples` consumed tuples came before
    /// any dirty tuple had arrived.
    pub fn is_false_switch(&self, after_tuples: u64) -> bool {
        self.first_dirty.is_none_or(|first| after_tuples < first)
    }

    /// Check one run's emitted pairs; returns how many of them are
    /// ground-truth pairs.
    pub fn check(&self, pairs: &[MatchPair], switched: bool) -> Result<u64, String> {
        let mut seen = HashSet::with_capacity(pairs.len());
        let mut exact_seen = 0usize;
        let mut true_matches = 0u64;
        for pair in pairs {
            let ids = (pair.left.id.as_u64(), pair.right.id.as_u64());
            if !seen.insert(ids) {
                return Err(format!("pair {ids:?} emitted twice"));
            }
            let (Some(left), Some(right)) =
                (self.left_keys.get(&ids.0), self.right_keys.get(&ids.1))
            else {
                return Err(format!("pair {ids:?} names a record not in the input"));
            };
            let emitted_key = |r: &linkage::types::Record| normalise(r.key_str(KEY).unwrap_or(""));
            if emitted_key(&pair.left) != *left || emitted_key(&pair.right) != *right {
                return Err(format!(
                    "pair {ids:?} carries records that differ from the input"
                ));
            }
            if pair.kind.is_exact() {
                if !self.exact.contains(&ids) {
                    return Err(format!("exact pair {ids:?} has unequal keys"));
                }
                exact_seen += 1;
            } else {
                if !switched {
                    return Err(format!(
                        "approximate pair {ids:?} emitted by a stream that never switched"
                    ));
                }
                if left == right {
                    return Err(format!("equal-key pair {ids:?} emitted as approximate"));
                }
                let sim = similarity(left, right);
                if sim < THETA_SIM {
                    return Err(format!(
                        "approximate pair {ids:?} scores {sim:.4} < θ_sim = {THETA_SIM}"
                    ));
                }
            }
            true_matches += u64::from(self.truth.contains(&ids));
        }
        if exact_seen != self.exact.len() {
            let missing = self.exact.iter().find(|ids| !seen.contains(*ids));
            return Err(format!(
                "{} of {} exact pairs emitted; first missing: {missing:?}",
                exact_seen,
                self.exact.len()
            ));
        }
        if switched {
            if let Some(missing) = self.recoverable.iter().find(|ids| !seen.contains(*ids)) {
                return Err(format!(
                    "ground-truth pair {missing:?} scores ≥ θ_sim but was not emitted"
                ));
            }
        }
        Ok(true_matches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Cipher;
    use crate::pipelines::{run_stream, snapshot_and_resume, CheckpointAt, Engine};
    use linkage::datagen::DatagenConfig;
    use linkage::types::{Field, Record, RecordId, Relation, Schema, Value};

    const P0: &str = "LOC QWERTYUIOPAS DFGHJKLZXCVBNM";
    const P1: &str = "LOC MNBVCXZLKJHG FDSAPOIUYTREWQ";
    const P2: &str = "LOC ZAQXSWCDEVFR BGTNHYMJUKILOP";
    /// One substitution away from `P1`: similar enough to recover.
    const C1: &str = "LOC MNBVCXZLKJHG FDSAPOIUYTREWX";
    /// Three edits away from `P2`: below θ_sim.
    const C2: &str = "LOC ZAQXSWCDEVFR BGTNHYAAAKILOP";

    fn relation(name: &str, keys: &[&str]) -> Relation {
        let schema = Schema::of(vec![Field::integer("id"), Field::string("location")]);
        let records = keys
            .iter()
            .enumerate()
            .map(|(i, k)| Record::new(i as u64, vec![Value::Int(i as i64), Value::string(k)]))
            .collect();
        Relation::new(name, schema, records).unwrap()
    }

    /// Parents P0..P2; children: an exact copy of P0, a near-copy of P1
    /// and a distant copy of P2.
    fn stream() -> Stream {
        Stream {
            datagen_seed: 0,
            parents: relation("parents", &[P0, P1, P2]),
            children: relation("children", &[P0, C1, C2]),
            truth: (0..3).map(|i| (RecordId(i), RecordId(i))).collect(),
        }
    }

    fn exact(stream: &Stream, p: usize, c: usize) -> MatchPair {
        MatchPair::exact(
            stream.parents.records()[p].clone(),
            stream.children.records()[c].clone(),
        )
    }

    fn approx(stream: &Stream, p: usize, c: usize) -> MatchPair {
        MatchPair::approximate(
            stream.parents.records()[p].clone(),
            stream.children.records()[c].clone(),
            0.9,
        )
    }

    #[test]
    fn fixture_straddles_the_threshold() {
        assert!(similarity(P1, C1) >= THETA_SIM);
        assert!(similarity(P2, C2) < THETA_SIM);
        assert_eq!(similarity(P0, P0), 1.0);
    }

    #[test]
    fn correct_outputs_pass() {
        let s = stream();
        let expected = Expected::new(&s);
        assert_eq!(expected.first_dirty, Some(4));
        assert!(expected.is_false_switch(3));
        assert!(!expected.is_false_switch(4));
        let switched = [exact(&s, 0, 0), approx(&s, 1, 1)];
        assert_eq!(expected.check(&switched, true), Ok(2));
        assert_eq!(expected.check(&[exact(&s, 0, 0)], false), Ok(1));
    }

    #[test]
    fn a_dropped_exact_pair_is_rejected() {
        let s = stream();
        let err = Expected::new(&s)
            .check(&[approx(&s, 1, 1)], true)
            .unwrap_err();
        assert!(err.contains("exact pairs emitted"), "{err}");
    }

    #[test]
    fn a_duplicate_pair_is_rejected() {
        let s = stream();
        let pairs = [exact(&s, 0, 0), approx(&s, 1, 1), approx(&s, 1, 1)];
        let err = Expected::new(&s).check(&pairs, true).unwrap_err();
        assert!(err.contains("twice"), "{err}");
    }

    #[test]
    fn a_sub_threshold_pair_is_rejected() {
        let s = stream();
        let pairs = [exact(&s, 0, 0), approx(&s, 1, 1), approx(&s, 2, 2)];
        let err = Expected::new(&s).check(&pairs, true).unwrap_err();
        assert!(err.contains("θ_sim"), "{err}");
    }

    #[test]
    fn a_missing_recovered_pair_is_rejected() {
        let s = stream();
        let err = Expected::new(&s)
            .check(&[exact(&s, 0, 0)], true)
            .unwrap_err();
        assert!(err.contains("not emitted"), "{err}");
    }

    #[test]
    fn an_approximate_pair_without_a_switch_is_rejected() {
        let s = stream();
        let pairs = [exact(&s, 0, 0), approx(&s, 1, 1)];
        let err = Expected::new(&s).check(&pairs, false).unwrap_err();
        assert!(err.contains("never switched"), "{err}");
    }

    #[test]
    fn an_unequal_exact_pair_is_rejected() {
        let s = stream();
        let pairs = [exact(&s, 0, 0), exact(&s, 1, 1)];
        let err = Expected::new(&s).check(&pairs, true).unwrap_err();
        assert!(err.contains("unequal keys"), "{err}");
    }

    #[test]
    fn checkpointed_and_resumed_runs_pass_on_both_engines() {
        let s =
            Stream::generate(&DatagenConfig::mid_stream_dirty(1500, 3), &Cipher::new(7)).unwrap();
        let expected = Expected::new(&s);
        let scratch = crate::util::Scratch::new("check-test").unwrap();
        for (name, engine) in [("serial", Engine::Serial), ("sharded", Engine::Sharded(2))] {
            let path = scratch.path(&format!("{name}.snap"));
            let run = run_stream(
                &s,
                engine,
                CheckpointAt::AfterSwitch,
                &mut Vec::new(),
                &mut snapshot_and_resume(&s, engine, &path),
            )
            .unwrap();
            assert!(
                run.switched_after.is_some(),
                "{name}: the dirty tail must switch"
            );
            assert!(
                run.resume_cpu_ms.is_some(),
                "{name}: the stream was never resumed"
            );
            let true_matches = expected.check(&run.pairs, true).unwrap();
            assert!(true_matches > 1300, "{name}: {true_matches}");
        }
    }
}
