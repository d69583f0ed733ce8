//! The composed analysis pipeline: tokenize → stopword filter → stem.
//!
//! Documents and queries must be analyzed identically (the paper transforms
//! both "into a vector of terms with weights"); an [`Analyzer`] value is
//! shared between the indexer, the representative builder, and the
//! metasearch broker to guarantee that.

use crate::stemmer::porter_stem;
use crate::stopwords::is_stopword;
use crate::tokenizer::tokenize;

/// Configuration of the analysis pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyzerConfig {
    /// Remove non-content words (the paper always does).
    pub remove_stopwords: bool,
    /// Apply the Porter stemmer.
    pub stem: bool,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            remove_stopwords: true,
            stem: false,
        }
    }
}

/// A reusable text analyzer.
#[derive(Debug, Clone, Default)]
pub struct Analyzer {
    config: AnalyzerConfig,
}

impl Analyzer {
    /// Creates an analyzer with the given configuration.
    pub fn new(config: AnalyzerConfig) -> Self {
        Analyzer { config }
    }

    /// The paper's pipeline: stopword removal, no stemming.
    pub fn paper_default() -> Self {
        Analyzer::new(AnalyzerConfig::default())
    }

    /// The pipeline configuration.
    pub fn config(&self) -> AnalyzerConfig {
        self.config
    }

    /// Analyzes `text` into index terms.
    ///
    /// # Examples
    ///
    /// ```
    /// let a = seu_text::Analyzer::paper_default();
    /// assert_eq!(a.analyze("The usefulness of search engines"),
    ///            vec!["usefulness", "search", "engines"]);
    /// ```
    pub fn analyze(&self, text: &str) -> Vec<String> {
        tokenize(text)
            .filter(|t| !(self.config.remove_stopwords && is_stopword(t)))
            .map(|t| if self.config.stem { porter_stem(&t) } else { t })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_removes_stopwords_only() {
        let a = Analyzer::paper_default();
        assert_eq!(
            a.analyze("The cat and the hat, obviously running."),
            ["cat", "hat", "obviously", "running"]
        );
    }

    #[test]
    fn stemming_pipeline() {
        let a = Analyzer::new(AnalyzerConfig {
            remove_stopwords: true,
            stem: true,
        });
        assert_eq!(
            a.analyze("estimating the usefulness of search engines"),
            ["estim", "us", "search", "engin"]
        );
    }

    #[test]
    fn no_filtering() {
        let a = Analyzer::new(AnalyzerConfig {
            remove_stopwords: false,
            stem: false,
        });
        assert_eq!(a.analyze("of the cat"), ["of", "the", "cat"]);
    }

    #[test]
    fn empty_text() {
        let a = Analyzer::paper_default();
        assert!(a.analyze("").is_empty());
        assert!(a.analyze("the of and").is_empty());
    }
}
