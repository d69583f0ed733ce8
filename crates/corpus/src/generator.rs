//! The topic universe and collection generator.

use crate::zipf::ZipfSampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seu_engine::{Collection, CollectionBuilder, WeightingScheme};
use seu_stats::normal_sample;
use seu_text::Analyzer;

/// Configuration of a topic universe (the "news host").
#[derive(Debug, Clone, PartialEq)]
pub struct UniverseConfig {
    /// Number of topics (the paper's host had 53 newsgroups).
    pub n_topics: usize,
    /// Topic-specific vocabulary size per topic.
    pub topic_vocab: usize,
    /// Shared background vocabulary size.
    pub background_vocab: usize,
    /// Zipf exponent for topic vocabularies.
    pub topic_zipf: f64,
    /// Zipf exponent for the background vocabulary.
    pub background_zipf: f64,
    /// Probability that a document token is background rather than topical.
    pub background_mix: f64,
    /// Within-document burstiness: probability that a token repeats one of
    /// the document's earlier tokens instead of being drawn fresh (a
    /// Simon/Yule process). Content terms in real posts repeat; this is
    /// what produces the mid-range normalized weights the paper's
    /// threshold sweep (0.1–0.6) exercises.
    pub burstiness: f64,
    /// Mean of `ln(document length)`.
    pub doc_len_ln_mean: f64,
    /// Standard deviation of `ln(document length)`.
    pub doc_len_ln_sigma: f64,
    /// Query terms skip the `rank_floor` most frequent topical terms:
    /// users query with mid-frequency content-bearing terms, not with the
    /// quasi-stopwords that dominate every document of a topic.
    pub query_topic_rank_floor: usize,
    /// Same for background terms.
    pub query_background_rank_floor: usize,
    /// Zipf exponent of *query* term choice over topical ranks — flatter
    /// than the document exponent, so queries spread over the vocabulary
    /// but still occasionally name a topic's dominant terms.
    pub query_topic_zipf: f64,
    /// Same for background ranks.
    pub query_background_zipf: f64,
    /// Terms of a topic are grouped into clusters (sub-subjects, like
    /// threads within a newsgroup) of this many consecutive ranks.
    /// Documents and queries that share a cluster share co-occurring
    /// terms — which is what makes multi-term queries match documents by
    /// *combined* similarity and stresses the estimators' independence
    /// assumption exactly as real text does.
    pub cluster_size: usize,
    /// Number of clusters each document features.
    pub clusters_per_doc: usize,
    /// Probability that a topical document token comes from one of the
    /// document's clusters rather than the topic-wide Zipf.
    pub doc_cluster_mix: f64,
    /// Probability that a topical query term comes from the query's
    /// cluster rather than the topic-wide query distribution.
    pub query_cluster_prob: f64,
    /// Zipf exponent over cluster popularity (some sub-subjects are
    /// discussed much more than others).
    pub cluster_zipf: f64,
}

impl Default for UniverseConfig {
    fn default() -> Self {
        UniverseConfig {
            n_topics: 53,
            topic_vocab: 6000,
            background_vocab: 20000,
            topic_zipf: 1.05,
            background_zipf: 1.1,
            background_mix: 0.35,
            burstiness: 0.35,
            // exp(4.8) ≈ 120 tokens — newsgroup posts.
            doc_len_ln_mean: 4.8,
            doc_len_ln_sigma: 0.5,
            query_topic_rank_floor: 2,
            query_background_rank_floor: 10,
            query_topic_zipf: 0.75,
            query_background_zipf: 0.85,
            cluster_size: 25,
            clusters_per_doc: 2,
            doc_cluster_mix: 0.45,
            query_cluster_prob: 0.7,
            cluster_zipf: 0.9,
        }
    }
}

/// A frozen topic universe: samplers shared by all collections and query
/// logs generated from it.
#[derive(Debug, Clone)]
pub struct Universe {
    config: UniverseConfig,
    topic_sampler: ZipfSampler,
    background_sampler: ZipfSampler,
    query_topic_sampler: ZipfSampler,
    query_background_sampler: ZipfSampler,
    cluster_sampler: ZipfSampler,
}

impl Universe {
    /// Builds the universe's samplers.
    pub fn new(config: UniverseConfig) -> Self {
        assert!(config.n_topics > 0, "universe needs topics");
        assert!(
            (0.0..=1.0).contains(&config.background_mix),
            "background_mix out of range"
        );
        assert!(
            config.query_topic_rank_floor < config.topic_vocab,
            "query rank floor exhausts the topic vocabulary"
        );
        assert!(
            config.query_background_rank_floor < config.background_vocab,
            "query rank floor exhausts the background vocabulary"
        );
        let topic_sampler = ZipfSampler::new(config.topic_vocab, config.topic_zipf);
        let background_sampler = ZipfSampler::new(config.background_vocab, config.background_zipf);
        let query_topic_sampler = ZipfSampler::new(
            config.topic_vocab - config.query_topic_rank_floor,
            config.query_topic_zipf,
        );
        let query_background_sampler = ZipfSampler::new(
            config.background_vocab - config.query_background_rank_floor,
            config.query_background_zipf,
        );
        assert!(
            config.cluster_size > 0 && config.cluster_size <= config.topic_vocab,
            "invalid cluster size"
        );
        let n_clusters = config.topic_vocab / config.cluster_size;
        let cluster_sampler = ZipfSampler::new(n_clusters.max(1), config.cluster_zipf);
        Universe {
            config,
            topic_sampler,
            background_sampler,
            query_topic_sampler,
            query_background_sampler,
            cluster_sampler,
        }
    }

    /// Number of clusters per topic.
    pub fn n_clusters(&self) -> usize {
        (self.config.topic_vocab / self.config.cluster_size).max(1)
    }

    /// Draws a cluster id (popular sub-subjects more often).
    pub fn draw_cluster<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.cluster_sampler.sample(rng)
    }

    /// Draws a term rank uniformly from within a cluster.
    pub fn draw_cluster_rank<R: Rng + ?Sized>(&self, rng: &mut R, cluster: usize) -> usize {
        let lo = cluster * self.config.cluster_size;
        rng.gen_range(lo..lo + self.config.cluster_size)
    }

    /// The configuration.
    pub fn config(&self) -> &UniverseConfig {
        &self.config
    }

    /// Term string for rank `rank` of topic `topic`.
    pub fn topic_term(topic: usize, rank: usize) -> String {
        format!("tp{topic}x{rank}")
    }

    /// Term string for background rank `rank`.
    pub fn background_term(rank: usize) -> String {
        format!("bg{rank}")
    }

    /// Draws one token for a document (or query) about `topic`;
    /// `on_topic_prob` is the probability of a topical rather than
    /// background term.
    pub fn draw_token<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        topic: usize,
        on_topic_prob: f64,
    ) -> String {
        if rng.gen::<f64>() < on_topic_prob {
            Self::topic_term(topic, self.topic_sampler.sample(rng))
        } else {
            Self::background_term(self.background_sampler.sample(rng))
        }
    }

    /// Draws one *query* token about `topic` (and the query's sub-subject
    /// `cluster`): like [`Universe::draw_token`] but using the flatter
    /// query distributions with rank floors — users query with
    /// content-bearing mid-frequency terms — and preferring the query's
    /// cluster, because a query's terms describe one coherent subject.
    pub fn draw_query_token<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        topic: usize,
        cluster: usize,
        on_topic_prob: f64,
    ) -> String {
        if rng.gen::<f64>() < on_topic_prob {
            if rng.gen::<f64>() < self.config.query_cluster_prob {
                Self::topic_term(topic, self.draw_cluster_rank(rng, cluster))
            } else {
                let rank =
                    self.config.query_topic_rank_floor + self.query_topic_sampler.sample(rng);
                Self::topic_term(topic, rank)
            }
        } else {
            let rank =
                self.config.query_background_rank_floor + self.query_background_sampler.sample(rng);
            Self::background_term(rank)
        }
    }

    /// Draws a document length from the configured log-normal, clamped to
    /// `[20, 800]` tokens.
    pub fn draw_doc_len<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let ln = normal_sample(
            rng,
            self.config.doc_len_ln_mean,
            self.config.doc_len_ln_sigma,
        );
        (ln.exp().round() as i64).clamp(20, 800) as usize
    }
}

/// Specification of one synthetic collection (one search-engine database).
#[derive(Debug, Clone, PartialEq)]
pub struct CollectionSpec {
    /// Collection name (e.g. "D1").
    pub name: String,
    /// Number of documents.
    pub n_docs: usize,
    /// Topics the collection's documents are drawn from; documents are
    /// assigned to topics round-robin. One topic gives a homogeneous
    /// collection (the paper's D1), many topics a diverse one (D3).
    pub topics: Vec<usize>,
    /// RNG seed (combined with the universe's samplers).
    pub seed: u64,
}

/// A universe plus generation entry points.
#[derive(Debug, Clone)]
pub struct SyntheticCorpus {
    universe: Universe,
}

impl SyntheticCorpus {
    /// Wraps a universe.
    pub fn new(universe: Universe) -> Self {
        SyntheticCorpus { universe }
    }

    /// The standard 53-topic universe with default parameters.
    pub fn standard() -> Self {
        SyntheticCorpus::new(Universe::new(UniverseConfig::default()))
    }

    /// The underlying universe.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// Generates one collection per its spec (deterministic in
    /// `spec.seed`). Documents are analyzed with the paper's pipeline and
    /// weighted with cosine-normalized term frequency.
    pub fn generate_collection(&self, spec: &CollectionSpec) -> Collection {
        self.generate_collection_with(spec, WeightingScheme::CosineTf)
    }

    /// [`SyntheticCorpus::generate_collection`] under an explicit
    /// weighting scheme — token streams are identical for the same seed,
    /// so scheme comparisons (experiment E19) vary exactly one thing.
    pub fn generate_collection_with(
        &self,
        spec: &CollectionSpec,
        scheme: WeightingScheme,
    ) -> Collection {
        assert!(
            !spec.topics.is_empty(),
            "collection needs at least one topic"
        );
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut builder = CollectionBuilder::new(Analyzer::paper_default(), scheme);
        let on_topic = 1.0 - self.universe.config.background_mix;
        let cfg = self.universe.config.clone();
        for i in 0..spec.n_docs {
            let topic = spec.topics[i % spec.topics.len()];
            let len = self.universe.draw_doc_len(&mut rng);
            // The document's sub-subjects.
            let clusters: Vec<usize> = (0..cfg.clusters_per_doc.max(1))
                .map(|_| self.universe.draw_cluster(&mut rng))
                .collect();
            let mut tokens: Vec<String> = Vec::with_capacity(len);
            for _ in 0..len {
                let tok = if !tokens.is_empty() && rng.gen::<f64>() < cfg.burstiness {
                    // Repeat an earlier token (burstiness).
                    tokens[rng.gen_range(0..tokens.len())].clone()
                } else if rng.gen::<f64>() >= on_topic {
                    Universe::background_term(self.universe.background_sampler.sample(&mut rng))
                } else if rng.gen::<f64>() < cfg.doc_cluster_mix {
                    let c = clusters[rng.gen_range(0..clusters.len())];
                    Universe::topic_term(topic, self.universe.draw_cluster_rank(&mut rng, c))
                } else {
                    Universe::topic_term(topic, self.universe.topic_sampler.sample(&mut rng))
                };
                tokens.push(tok);
            }
            builder.add_tokens(&format!("{}-{:05}", spec.name, i), &tokens);
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_universe() -> Universe {
        Universe::new(UniverseConfig {
            n_topics: 4,
            topic_vocab: 200,
            background_vocab: 300,
            ..UniverseConfig::default()
        })
    }

    fn spec(name: &str, n: usize, topics: Vec<usize>, seed: u64) -> CollectionSpec {
        CollectionSpec {
            name: name.into(),
            n_docs: n,
            topics,
            seed,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let corpus = SyntheticCorpus::new(small_universe());
        let a = corpus.generate_collection(&spec("x", 20, vec![0], 42));
        let b = corpus.generate_collection(&spec("x", 20, vec![0], 42));
        assert_eq!(a.len(), b.len());
        for (da, db) in a.docs().iter().zip(b.docs()) {
            assert_eq!(da.len, db.len);
            assert_eq!(da.terms.len(), db.terms.len());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let corpus = SyntheticCorpus::new(small_universe());
        let a = corpus.generate_collection(&spec("x", 20, vec![0], 1));
        let b = corpus.generate_collection(&spec("x", 20, vec![0], 2));
        let same = a
            .docs()
            .iter()
            .zip(b.docs())
            .all(|(da, db)| da.len == db.len);
        assert!(!same);
    }

    #[test]
    fn single_topic_collections_share_background_only() {
        let corpus = SyntheticCorpus::new(small_universe());
        let a = corpus.generate_collection(&spec("a", 30, vec![0], 7));
        let b = corpus.generate_collection(&spec("b", 30, vec![1], 8));
        // Topic-0 terms appear in a but not b.
        let topical_in_a = a
            .vocab()
            .iter()
            .filter(|(_, s)| s.starts_with("tp0x"))
            .count();
        let topical0_in_b = b
            .vocab()
            .iter()
            .filter(|(_, s)| s.starts_with("tp0x"))
            .count();
        assert!(topical_in_a > 50);
        assert_eq!(topical0_in_b, 0);
        // Background terms appear in both.
        let bg_in_b = b
            .vocab()
            .iter()
            .filter(|(_, s)| s.starts_with("bg"))
            .count();
        assert!(bg_in_b > 50);
    }

    #[test]
    fn multi_topic_collection_is_more_diverse() {
        let corpus = SyntheticCorpus::new(small_universe());
        let homo = corpus.generate_collection(&spec("h", 60, vec![0], 3));
        let hetero = corpus.generate_collection(&spec("h", 60, vec![0, 1, 2, 3], 3));
        // More topics -> more distinct terms at equal size.
        assert!(hetero.vocab().len() > homo.vocab().len());
    }

    #[test]
    fn scheme_variation_shares_token_stream() {
        use seu_engine::WeightingScheme;
        let corpus = SyntheticCorpus::new(small_universe());
        let sp = spec("s", 15, vec![0], 9);
        let tf = corpus.generate_collection_with(&sp, WeightingScheme::CosineTf);
        let log = corpus.generate_collection_with(&sp, WeightingScheme::CosineLogTf);
        // Same seed -> same tokens -> same vocabulary and lengths...
        assert_eq!(tf.vocab().len(), log.vocab().len());
        assert_eq!(tf.total_tokens(), log.total_tokens());
        // ...but different weights wherever tf > 1 occurs.
        let differs = tf.docs().iter().zip(log.docs()).any(|(a, b)| {
            a.terms
                .iter()
                .zip(&b.terms)
                .any(|(x, y)| (x.1 - y.1).abs() > 1e-9)
        });
        assert!(differs, "weighting scheme had no effect");
    }

    #[test]
    fn doc_lengths_in_bounds() {
        let u = small_universe();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..500 {
            let l = u.draw_doc_len(&mut rng);
            assert!((20..=800).contains(&l));
        }
    }

    #[test]
    fn term_strings_survive_the_analyzer() {
        let a = Analyzer::paper_default();
        assert_eq!(a.analyze(&Universe::topic_term(3, 17)), ["tp3x17"]);
        assert_eq!(a.analyze(&Universe::background_term(5)), ["bg5"]);
    }
}
