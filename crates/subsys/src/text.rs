//! A text-retrieval subsystem — "many text retrieval systems \[return\] a
//! sorted list" (the paper's abstract). A third realistic subsystem for the
//! examples and middleware tests.
//!
//! Documents are tokenised bags of words; a query is a set of terms; scores
//! are tf-idf cosine similarities, which land in `[0,1]` because tf-idf
//! vectors are non-negative.

use garlic_agg::Grade;
use garlic_core::access::{GradedSource, MemorySource};
use garlic_core::ObjectId;
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;

use crate::api::{AtomicQuery, Subsystem, SubsystemError, Target};

/// An inverted-index text store over a fixed corpus.
#[derive(Debug, Clone)]
pub struct TextStore {
    name: String,
    attribute: String,
    /// Term frequencies per document.
    docs: Vec<HashMap<String, f64>>,
    /// Document frequency per term.
    df: HashMap<String, usize>,
    /// Per-document tf-idf vector norm.
    norms: Vec<f64>,
}

impl TextStore {
    /// Indexes a corpus. `attribute` is the queryable attribute name
    /// (e.g. `"Review"`).
    pub fn new(name: &str, attribute: &str, corpus: &[&str]) -> Self {
        let docs: Vec<HashMap<String, f64>> = corpus
            .iter()
            .map(|text| {
                let mut tf: HashMap<String, f64> = HashMap::new();
                for token in tokenize(text) {
                    *tf.entry(token).or_insert(0.0) += 1.0;
                }
                tf
            })
            .collect();
        let mut df: HashMap<String, usize> = HashMap::new();
        for doc in &docs {
            for term in doc.keys() {
                *df.entry(term.clone()).or_insert(0) += 1;
            }
        }
        let n_docs = docs.len().max(1) as f64;
        let idf = |term: &str, df: &HashMap<String, usize>| -> f64 {
            let d = df.get(term).copied().unwrap_or(0) as f64;
            ((1.0 + n_docs) / (1.0 + d)).ln() + 1.0
        };
        let norms = docs
            .iter()
            .map(|doc| {
                doc.iter()
                    .map(|(t, tf)| (tf * idf(t, &df)).powi(2))
                    .sum::<f64>()
                    .sqrt()
            })
            .collect();
        TextStore {
            name: name.to_owned(),
            attribute: attribute.to_owned(),
            docs,
            df,
            norms,
        }
    }

    /// A synthetic corpus: `n` documents of `doc_len` tokens drawn from a
    /// `vocab`-word vocabulary with a Zipf-ish skew.
    pub fn synthetic(
        name: &str,
        attribute: &str,
        n: usize,
        vocab: usize,
        doc_len: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let corpus: Vec<String> = (0..n)
            .map(|_| {
                (0..doc_len)
                    .map(|_| {
                        // Zipf-ish: squash a uniform draw.
                        let u: f64 = rng.gen::<f64>();
                        let idx = ((u * u) * vocab as f64) as usize % vocab;
                        format!("w{idx}")
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        let refs: Vec<&str> = corpus.iter().map(String::as_str).collect();
        TextStore::new(name, attribute, &refs)
    }

    fn idf(&self, term: &str) -> f64 {
        let n_docs = self.docs.len().max(1) as f64;
        let d = self.df.get(term).copied().unwrap_or(0) as f64;
        ((1.0 + n_docs) / (1.0 + d)).ln() + 1.0
    }

    /// tf-idf cosine score of one document against query terms.
    pub fn score(&self, doc: ObjectId, terms: &[String]) -> Grade {
        let Some(tf) = self.docs.get(doc.index()) else {
            return Grade::ZERO;
        };
        // Query vector: weight 1·idf per distinct lower-cased term.
        let distinct: std::collections::BTreeSet<String> =
            terms.iter().map(|t| t.to_lowercase()).collect();
        let q_norm = distinct
            .iter()
            .map(|t| self.idf(t).powi(2))
            .sum::<f64>()
            .sqrt();
        let d_norm = self.norms[doc.index()];
        if q_norm == 0.0 || d_norm == 0.0 {
            return Grade::ZERO;
        }
        let dot: f64 = distinct
            .iter()
            .map(|t| {
                let idf = self.idf(t);
                tf.get(t.as_str()).copied().unwrap_or(0.0) * idf * idf
            })
            .sum();
        Grade::clamped(dot / (q_norm * d_norm))
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }
}

fn tokenize(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_lowercase())
        .collect()
}

impl Subsystem for TextStore {
    fn name(&self) -> &str {
        &self.name
    }

    fn attributes(&self) -> Vec<String> {
        vec![self.attribute.clone()]
    }

    fn universe_size(&self) -> usize {
        self.docs.len()
    }

    fn evaluate(&self, query: &AtomicQuery) -> Result<Arc<dyn GradedSource>, SubsystemError> {
        if query.attribute != self.attribute {
            return Err(SubsystemError::UnknownAttribute {
                attribute: query.attribute.clone(),
                subsystem: self.name.clone(),
            });
        }
        let terms: Vec<String> = match &query.target {
            Target::Terms(ts) => ts.clone(),
            Target::Text(s) => tokenize(s),
            Target::Number(_) => {
                return Err(SubsystemError::TypeMismatch {
                    attribute: query.attribute.clone(),
                    detail: "text retrieval takes terms, not numbers".into(),
                })
            }
        };
        let grades: Vec<Grade> = (0..self.docs.len())
            .map(|i| self.score(ObjectId(i as u64), &terms))
            .collect();
        Ok(Arc::new(MemorySource::from_grades(&grades)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn store() -> TextStore {
        TextStore::new(
            "reviews",
            "Review",
            &[
                "a psychedelic rock masterpiece of psychedelic sound",
                "gentle acoustic folk ballads",
                "rock and roll with blues roots",
                "",
            ],
        )
    }

    #[test]
    fn exact_topic_scores_highest() {
        let s = store();
        let terms = vec!["psychedelic".to_owned(), "rock".to_owned()];
        let scores: Vec<Grade> = (0..4).map(|i| s.score(ObjectId(i), &terms)).collect();
        assert!(
            scores[0] > scores[2],
            "psychedelic doc beats plain rock doc"
        );
        assert!(scores[2] > scores[1], "rock doc beats folk doc");
        assert_eq!(scores[3], Grade::ZERO, "empty doc scores zero");
    }

    #[test]
    fn scores_are_valid_grades() {
        let s = store();
        let terms = vec!["rock".to_owned()];
        for i in 0..4 {
            let g = s.score(ObjectId(i), &terms);
            assert!(g >= Grade::ZERO && g <= Grade::ONE);
        }
    }

    #[test]
    fn unknown_terms_score_zero() {
        let s = store();
        assert_eq!(s.score(ObjectId(0), &["zanzibar".to_owned()]), Grade::ZERO);
    }

    #[test]
    fn subsystem_interface_sorted_access() {
        let s = store();
        let src = s
            .evaluate(&AtomicQuery::new(
                "Review",
                Target::terms(&["psychedelic", "rock"]),
            ))
            .unwrap();
        assert_eq!(src.len(), 4);
        assert_eq!(src.sorted_access(0).unwrap().object, ObjectId(0));
    }

    #[test]
    fn cursor_streams_ranked_documents_in_batches() {
        let s = store();
        let src = s
            .evaluate(&AtomicQuery::new("Review", Target::terms(&["rock"])))
            .unwrap();
        let mut streamed = Vec::new();
        assert_eq!(src.sorted_batch(0, 3, &mut streamed), 3);
        assert_eq!(src.sorted_batch(3, 3, &mut streamed), 1);
        for (rank, e) in streamed.iter().enumerate() {
            assert_eq!(Some(*e), src.sorted_access(rank));
        }
    }

    #[test]
    fn text_target_is_tokenised() {
        let s = store();
        let src = s
            .evaluate(&AtomicQuery::new("Review", Target::text("Rock, Roll!")))
            .unwrap();
        assert!(src.sorted_access(0).unwrap().grade > Grade::ZERO);
    }

    #[test]
    fn wrong_attribute_errors() {
        let s = store();
        assert!(s
            .evaluate(&AtomicQuery::new("Lyrics", Target::text("rock")))
            .is_err());
    }

    #[test]
    fn synthetic_corpus_builds() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = TextStore::synthetic("syn", "Body", 30, 50, 20, &mut rng);
        assert_eq!(s.len(), 30);
        let src = s
            .evaluate(&AtomicQuery::new("Body", Target::terms(&["w3", "w7"])))
            .unwrap();
        assert_eq!(src.len(), 30);
    }
}
