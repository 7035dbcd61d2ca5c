//! The paper's running example, assembled: "an application of a store that
//! sells compact disks" (Section 2), where `Artist = "Beatles"` goes to a
//! relational DBMS and `AlbumColor = "red"` goes to QBIC.
//!
//! This module builds a coherent little dataset — albums with artists,
//! years, synthetic cover images, and review text — shared across three
//! subsystems over one object universe, for the examples and the
//! middleware integration tests.

use rand::Rng;

use crate::qbic::{Image, QbicStore};
use crate::relational::{RelationalStore, Value};
use crate::text::TextStore;

/// One album of the demo dataset.
#[derive(Debug, Clone)]
pub struct Album {
    /// Artist name.
    pub artist: &'static str,
    /// Album title.
    pub title: &'static str,
    /// Release year.
    pub year: f64,
    /// Dominant cover colour (a [`crate::qbic::NAMED_COLORS`] name).
    pub cover_color: &'static str,
    /// How pure the dominant colour is, in `[0,1]`.
    pub purity: f64,
    /// A snippet of review text.
    pub review: &'static str,
}

/// The demo catalogue: a dozen albums with deliberately contrasting
/// attributes (several Beatles albums with different cover colours, several
/// red covers by other artists).
pub fn demo_albums() -> Vec<Album> {
    vec![
        Album {
            artist: "Beatles",
            title: "Crimson Meadows",
            year: 1966.0,
            cover_color: "red",
            purity: 0.9,
            review: "swirling psychedelic rock with crimson artwork",
        },
        Album {
            artist: "Beatles",
            title: "Blue Submarine",
            year: 1968.0,
            cover_color: "blue",
            purity: 0.85,
            review: "playful psychedelic pop under the sea",
        },
        Album {
            artist: "Beatles",
            title: "Orchard Lane",
            year: 1969.0,
            cover_color: "green",
            purity: 0.8,
            review: "gentle melodic rock with pastoral lyrics",
        },
        Album {
            artist: "Beatles",
            title: "Scarlet Parade",
            year: 1967.0,
            cover_color: "red",
            purity: 0.6,
            review: "brass driven pop rock parade",
        },
        Album {
            artist: "Kinks",
            title: "Red Lantern",
            year: 1966.0,
            cover_color: "red",
            purity: 0.95,
            review: "raw garage rock riffs and wit",
        },
        Album {
            artist: "Kinks",
            title: "Village Dusk",
            year: 1968.0,
            cover_color: "orange",
            purity: 0.7,
            review: "nostalgic chamber pop storytelling",
        },
        Album {
            artist: "Who",
            title: "Pinball Sky",
            year: 1969.0,
            cover_color: "blue",
            purity: 0.75,
            review: "anthemic rock opera energy",
        },
        Album {
            artist: "Who",
            title: "Carmine Steps",
            year: 1970.0,
            cover_color: "red",
            purity: 0.8,
            review: "thunderous drums and power chords",
        },
        Album {
            artist: "Zombies",
            title: "Odessey Grove",
            year: 1968.0,
            cover_color: "purple",
            purity: 0.85,
            review: "baroque psychedelic pop harmonies",
        },
        Album {
            artist: "Byrds",
            title: "Cinnamon Mile",
            year: 1967.0,
            cover_color: "orange",
            purity: 0.65,
            review: "jangling folk rock twelve string",
        },
        Album {
            artist: "Byrds",
            title: "Rose Highway",
            year: 1969.0,
            cover_color: "pink",
            purity: 0.7,
            review: "country rock with sweet harmonies",
        },
        Album {
            artist: "Animals",
            title: "Ruby District",
            year: 1965.0,
            cover_color: "red",
            purity: 0.5,
            review: "gritty blues rock organ swagger",
        },
    ]
}

/// The three demo subsystems over one universe: a relational store
/// (`Artist`, `Title`, `Year`), a QBIC store (`AlbumColor`, `Shape`), and a
/// text store (`Review`). Object `i` is album `i` in every subsystem.
#[allow(
    clippy::expect_used,
    reason = "the album table is a constant and every cover colour in it is named \
              (`universes_align` builds one image per album)"
)]
pub fn demo_subsystems(rng: &mut impl Rng) -> (RelationalStore, QbicStore, TextStore) {
    let albums = demo_albums();

    let mut relational = RelationalStore::new("cd_relational", &["Artist", "Title", "Year"]);
    for a in &albums {
        relational.insert(vec![
            Value::text(a.artist),
            Value::text(a.title),
            Value::Number(a.year),
        ]);
    }

    let images: Vec<Image> = albums
        .iter()
        .map(|a| {
            Image::with_dominant_color(a.cover_color, a.purity, rng)
                .expect("demo colours are all named colours")
        })
        .collect();
    let qbic = QbicStore::new("cd_qbic", images);

    let reviews: Vec<&str> = albums.iter().map(|a| a.review).collect();
    let text = TextStore::new("cd_reviews", "Review", &reviews);

    (relational, qbic, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{AtomicQuery, Subsystem, Target};
    use garlic_core::ObjectId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn universes_align() {
        let mut rng = StdRng::seed_from_u64(1);
        let (rel, qbic, text) = demo_subsystems(&mut rng);
        let n = demo_albums().len();
        assert_eq!(rel.universe_size(), n);
        assert_eq!(qbic.universe_size(), n);
        assert_eq!(text.universe_size(), n);
    }

    #[test]
    fn beatles_select_matches_catalogue() {
        let mut rng = StdRng::seed_from_u64(1);
        let (rel, _, _) = demo_subsystems(&mut rng);
        let beatles = rel.select_eq("Artist", &Value::text("Beatles")).unwrap();
        assert_eq!(
            beatles,
            vec![ObjectId(0), ObjectId(1), ObjectId(2), ObjectId(3)]
        );
    }

    #[test]
    fn red_covers_outrank_blue_on_red_query() {
        let mut rng = StdRng::seed_from_u64(1);
        let (_, qbic, _) = demo_subsystems(&mut rng);
        let reds = qbic
            .evaluate(&AtomicQuery::new("AlbumColor", Target::text("red")))
            .unwrap();
        use garlic_core::GradedSource;
        // Kinks "Red Lantern" (obj 4, purity .95) should beat Beatles "Blue
        // Submarine" (obj 1).
        let lantern = reds.random_access(ObjectId(4)).unwrap();
        let submarine = reds.random_access(ObjectId(1)).unwrap();
        assert!(lantern > submarine);
    }

    #[test]
    fn all_three_demo_subsystems_stream_through_cursors() {
        use garlic_core::GradedSource;
        let mut rng = StdRng::seed_from_u64(1);
        let (rel, qbic, text) = demo_subsystems(&mut rng);
        let sources: Vec<std::sync::Arc<dyn GradedSource>> = vec![
            rel.evaluate(&AtomicQuery::new("Artist", Target::text("Beatles")))
                .unwrap(),
            qbic.evaluate(&AtomicQuery::new("AlbumColor", Target::text("red")))
                .unwrap(),
            text.evaluate(&AtomicQuery::new("Review", Target::terms(&["rock"])))
                .unwrap(),
        ];
        for src in &sources {
            let mut streamed = Vec::new();
            while src.sorted_batch(streamed.len(), 5, &mut streamed) > 0 {}
            assert_eq!(streamed.len(), demo_albums().len());
            for (rank, e) in streamed.iter().enumerate() {
                assert_eq!(Some(*e), src.sorted_access(rank));
            }
        }
    }

    #[test]
    fn reviews_answer_rock_queries() {
        let mut rng = StdRng::seed_from_u64(1);
        let (_, _, text) = demo_subsystems(&mut rng);
        let src = text
            .evaluate(&AtomicQuery::new(
                "Review",
                Target::terms(&["psychedelic", "rock"]),
            ))
            .unwrap();
        use garlic_core::GradedSource;
        let top = src.sorted_access(0).unwrap();
        assert!(top.grade > garlic_agg::Grade::ZERO);
    }
}
