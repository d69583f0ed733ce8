//! Everything a workload is fed, generated from `--seed`: the 53
//! newsgroup-style databases, the SIFT-style query log, the Zipf request
//! stream, and the 10 000-engine registry with queries drawn from its
//! own vocabulary. The program under test receives only these values.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seu_corpus::{CollectionSpec, QueryLogSpec, SyntheticCorpus, Universe, ZipfSampler};
use seu_engine::{Collection, CollectionBuilder, WeightingScheme};
use seu_text::Analyzer;
use std::collections::BTreeMap;

/// Similarity threshold of every request (the paper's mid-range T).
pub const THRESHOLD: f64 = 0.15;

/// Input sizes: the committed numbers come from [`Size::full`];
/// [`Size::smoke`] is the self-test's minute-scale cut.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// `docs_base` of [`seu_corpus::many_databases`].
    pub docs_base: usize,
    /// Engines in the `registry_10k` workload.
    pub registry_engines: usize,
    /// Scales every slice's request count (1.0 = as documented).
    pub slice_scale: f64,
}

impl Size {
    /// The sizes the committed numbers are measured at.
    pub fn full() -> Size {
        Size {
            docs_base: 4000,
            registry_engines: 10_000,
            slice_scale: 1.0,
        }
    }

    /// The `--smoke` sizes.
    pub fn smoke() -> Size {
        Size {
            docs_base: 200,
            registry_engines: 1000,
            slice_scale: 0.1,
        }
    }
}

/// `n` SIFT-style queries (≤ 6 terms, 30 % single-term) as texts.
pub fn query_log(seed: u64, n: usize) -> Vec<String> {
    SyntheticCorpus::standard()
        .generate_query_log(&QueryLogSpec {
            n_queries: n,
            ..QueryLogSpec::paper_default(seed ^ 0x5157)
        })
        .iter()
        .map(|q| q.join(" "))
        .collect()
}

/// Requests after which the Zipf stream's popularity ranking is
/// reshuffled.
const ZIPF_EPOCH: usize = 1000;

/// `n` indices into a pool of `pool` queries, Zipf(1.1)-distributed — a
/// few hot queries and a long tail, so a cache sees both. Which queries
/// are the hot ones changes every [`ZIPF_EPOCH`] requests: with a fixed
/// ranking the top query alone is a quarter of the stream, and a run
/// would measure that one query's cost (2 500–3 500 req/s from seed to
/// seed) rather than the cache's.
pub fn zipf_stream(seed: u64, pool: usize, n: usize) -> Vec<usize> {
    let pool = pool.max(1);
    let sampler = ZipfSampler::new(pool, 1.1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5a1f);
    let mut ranking: Vec<usize> = (0..pool).collect();
    (0..n)
        .map(|i| {
            if i % ZIPF_EPOCH == 0 {
                // Fisher–Yates: a fresh popularity order for this epoch.
                for j in (1..pool).rev() {
                    ranking.swap(j, rng.gen_range(0..=j));
                }
            }
            ranking[sampler.sample(&mut rng)]
        })
        .collect()
}

/// Words in the registry workload's vocabulary.
const REGISTRY_VOCAB: usize = 2000;
const REGISTRY_DOCS: usize = 8;
const REGISTRY_TOKENS_PER_DOC: usize = 16;

/// `n` small engines (8 documents of 16 tokens) over one shared
/// 2 000-word Zipf vocabulary, so any word occurs in a predictable share
/// of the engines.
pub fn registry_collections(seed: u64, n: usize) -> Vec<(String, Collection)> {
    (0..n).map(|i| registry_collection(seed, i, 0)).collect()
}

/// Registry engine `i` at content `generation`: generation 0 is what the
/// registry is built from, later ones are re-indexed content (same
/// name and size, other documents) for the write path.
pub fn registry_collection(seed: u64, i: usize, generation: usize) -> (String, Collection) {
    let sampler = ZipfSampler::new(REGISTRY_VOCAB, 1.0);
    let mut rng =
        StdRng::seed_from_u64(seed ^ 0x10_000 ^ ((i as u64) << 20) ^ ((generation as u64) << 44));
    let mut builder = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    for d in 0..REGISTRY_DOCS {
        let tokens: Vec<String> = (0..REGISTRY_TOKENS_PER_DOC)
            .map(|_| Universe::background_term(sampler.sample(&mut rng)))
            .collect();
        builder.add_tokens(&format!("e{i:05}-d{d}"), &tokens);
    }
    (format!("eng-{i:05}"), builder.build())
}

/// `n` queries of 1–4 words, each word occurring in 2–10 % of
/// `collections` — so every request makes the estimator work over
/// hundreds of representatives (queries foreign to the registry would
/// plan nothing at all).
pub fn registry_queries(seed: u64, collections: &[(String, Collection)], n: usize) -> Vec<String> {
    let mut engines_with: BTreeMap<&str, usize> = BTreeMap::new();
    for (_, collection) in collections {
        for (_, word) in collection.vocab().iter() {
            *engines_with.entry(word).or_insert(0) += 1;
        }
    }
    let total = collections.len() as f64;
    let candidates: Vec<&str> = engines_with
        .into_iter()
        .filter(|&(_, k)| (0.02..=0.10).contains(&(k as f64 / total)))
        .map(|(word, _)| word)
        .collect();
    assert!(
        candidates.len() >= 4,
        "registry vocabulary has too few mid-frequency words"
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37);
    (0..n)
        .map(|_| {
            let len = rng.gen_range(1..=4usize);
            let mut words: Vec<&str> = Vec::with_capacity(len);
            while words.len() < len {
                let w = candidates[rng.gen_range(0..candidates.len())];
                if !words.contains(&w) {
                    words.push(w);
                }
            }
            words.join(" ")
        })
        .collect()
}

/// Re-indexed content for the newsgroup database of `topic`: same size,
/// other documents (a different set for every `generation` ≥ 1), so its
/// fingerprint differs — what the write path swaps in.
pub fn newsgroup_variant(seed: u64, topic: usize, n_docs: usize, generation: usize) -> Collection {
    SyntheticCorpus::standard().generate_collection(&CollectionSpec {
        name: format!("ng{topic:02}"),
        n_docs,
        topics: vec![topic],
        seed: seed ^ (0x2000 + topic as u64) ^ ((generation as u64) << 32),
    })
}

/// FNV-1a over the request texts in order: equal streams hash equal.
pub fn stream_hash<'a>(requests: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for text in requests {
        for byte in text.bytes().chain(std::iter::once(0xff)) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let hash = |seed| {
            let log = query_log(seed, 300);
            let zipf = zipf_stream(seed, 300, 1000);
            stream_hash(zipf.iter().map(|&i| log[i].as_str()))
        };
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(42), hash(7));
    }

    #[test]
    fn registry_queries_hit_a_known_share_of_engines() {
        let collections = registry_collections(5, 400);
        let queries = registry_queries(5, &collections, 50);
        assert_eq!(queries, registry_queries(5, &collections, 50));
        for q in &queries {
            let words: Vec<&str> = q.split(' ').collect();
            assert!((1..=4).contains(&words.len()));
            for w in words {
                let k = collections
                    .iter()
                    .filter(|(_, c)| c.vocab().get(w).is_some())
                    .count();
                let share = k as f64 / collections.len() as f64;
                assert!((0.02..=0.10).contains(&share), "{w}: {share}");
            }
        }
    }

    #[test]
    fn variants_change_the_fingerprint() {
        let size = Size::smoke();
        let (_, original) = seu_corpus::many_databases(3, size.docs_base).pop().unwrap();
        let variant = newsgroup_variant(3, 52, original.len(), 1);
        assert_eq!(variant.len(), original.len());
        assert_ne!(variant.fingerprint(), original.fingerprint());
        assert_ne!(
            variant.fingerprint(),
            newsgroup_variant(3, 52, original.len(), 2).fingerprint()
        );
        let (name, built) = registry_collections(3, 2).remove(1);
        let (same_name, rewritten) = registry_collection(3, 1, 1);
        assert_eq!(name, same_name);
        assert_eq!(
            built.fingerprint(),
            registry_collection(3, 1, 0).1.fingerprint()
        );
        assert_ne!(built.fingerprint(), rewritten.fingerprint());
    }
}
