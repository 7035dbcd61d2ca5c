//! A QBIC-like image-content subsystem (the paper's canonical
//! "nontraditional" data server, Section 1).
//!
//! The real QBIC [NBE+93] is a closed IBM system; what the paper relies on
//! is only its *interface*: given a colour or shape query it produces a
//! graded set of all images under sorted and random access, using
//! "sophisticated color-matching algorithms" that score how close two
//! images' colours are. We substitute a transparent synthetic model that
//! preserves exactly that behaviour:
//!
//! * every image carries a normalised **hue histogram** (12 bins) and a
//!   **shape descriptor** (roundness, elongation in `[0,1]`);
//! * a colour query compares histograms by *histogram intersection*
//!   `Σᵢ min(aᵢ, bᵢ) ∈ [0,1]` — the classic QBIC-era colour similarity
//!   (so "an image that contains a lot of red and a little green might be
//!   considered moderately close to another with a lot of pink", as the
//!   paper's footnote describes);
//! * a shape query scores `1 − mean |Δdescriptor|`.
//!
//! Section 8's "different semantics" is modelled too: QBIC's *internal*
//! conjunction combines scores by **product**, not Garlic's min, so pushing
//! a conjunction down produces (observably) different rankings.

use garlic_agg::Grade;
use garlic_core::access::{GradedSource, MemorySource};
use garlic_core::ObjectId;
use rand::Rng;
use std::sync::Arc;

use crate::api::{AtomicQuery, Subsystem, SubsystemError, Target};

/// Number of hue bins in a colour histogram.
pub const COLOR_BINS: usize = 12;

/// A named colour Garlic users can query for, mapped to a hue bin.
pub const NAMED_COLORS: [(&str, usize); 8] = [
    ("red", 0),
    ("orange", 1),
    ("yellow", 2),
    ("green", 4),
    ("cyan", 6),
    ("blue", 8),
    ("purple", 10),
    ("pink", 11),
];

/// A Tamura-style texture descriptor: coarseness, contrast, and
/// directionality, each in `[0,1]` (the QBIC paper [NBE+93] searched by
/// "color, texture and shape").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TextureDescriptor {
    /// Coarseness (0 = fine grain, 1 = coarse).
    pub coarseness: f64,
    /// Contrast (0 = flat, 1 = high contrast).
    pub contrast: f64,
    /// Directionality (0 = isotropic, 1 = strongly directional).
    pub directionality: f64,
}

impl TextureDescriptor {
    /// A uniformly random descriptor.
    pub fn random(rng: &mut impl Rng) -> Self {
        TextureDescriptor {
            coarseness: rng.gen(),
            contrast: rng.gen(),
            directionality: rng.gen(),
        }
    }

    /// Similarity `1 − mean |Δ|` to another descriptor, in `[0,1]`.
    pub fn similarity(&self, other: &TextureDescriptor) -> Grade {
        let d = ((self.coarseness - other.coarseness).abs()
            + (self.contrast - other.contrast).abs()
            + (self.directionality - other.directionality).abs())
            / 3.0;
        Grade::clamped(1.0 - d)
    }
}

/// A synthetic image: a hue histogram, a shape descriptor, and a texture
/// descriptor.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    /// Normalised hue histogram (sums to 1).
    pub histogram: [f64; COLOR_BINS],
    /// Roundness in `[0,1]` (1 = a perfect disc).
    pub roundness: f64,
    /// Elongation in `[0,1]` (0 = equal axes).
    pub elongation: f64,
    /// Tamura-style texture features.
    pub texture: TextureDescriptor,
}

impl Image {
    /// A random image: histogram from normalised exponential draws
    /// (occasionally concentrated on a dominant hue), shape and texture
    /// uniform.
    pub fn random(rng: &mut impl Rng) -> Self {
        let mut histogram = [0.0; COLOR_BINS];
        // Exponential draws give occasional strong dominance.
        for h in histogram.iter_mut() {
            *h = -rng.gen::<f64>().max(1e-12).ln();
        }
        // A third of images get an artificially dominant hue, so colour
        // queries have clear winners.
        if rng.gen::<f64>() < 0.33 {
            let dominant = rng.gen_range(0..COLOR_BINS);
            histogram[dominant] += 4.0;
        }
        let total: f64 = histogram.iter().sum();
        for h in histogram.iter_mut() {
            *h /= total;
        }
        Image {
            histogram,
            roundness: rng.gen(),
            elongation: rng.gen(),
            texture: TextureDescriptor::random(rng),
        }
    }

    /// An image dominated by the named colour, with `purity ∈ [0,1]` of its
    /// mass on that hue (the rest spread uniformly).
    pub fn with_dominant_color(name: &str, purity: f64, rng: &mut impl Rng) -> Option<Self> {
        let bin = named_color_bin(name)?;
        let mut histogram = [(1.0 - purity) / (COLOR_BINS - 1) as f64; COLOR_BINS];
        histogram[bin] = purity;
        Some(Image {
            histogram,
            roundness: rng.gen(),
            elongation: rng.gen(),
            texture: TextureDescriptor::random(rng),
        })
    }

    /// Histogram-intersection colour similarity, in `[0,1]`.
    pub fn color_similarity(&self, target: &[f64; COLOR_BINS]) -> Grade {
        let sum: f64 = self
            .histogram
            .iter()
            .zip(target)
            .map(|(a, b)| a.min(*b))
            .sum();
        Grade::clamped(sum)
    }

    /// Shape similarity to a (roundness, elongation) target, in `[0,1]`.
    pub fn shape_similarity(&self, roundness: f64, elongation: f64) -> Grade {
        let d = ((self.roundness - roundness).abs() + (self.elongation - elongation).abs()) / 2.0;
        Grade::clamped(1.0 - d)
    }
}

/// The hue bin of a named colour.
pub fn named_color_bin(name: &str) -> Option<usize> {
    NAMED_COLORS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, b)| *b)
}

/// The target histogram of a named colour: mass concentrated on its bin
/// with exponential falloff to circular neighbours.
pub fn named_color_histogram(name: &str) -> Option<[f64; COLOR_BINS]> {
    let bin = named_color_bin(name)?;
    let mut h = [0.0; COLOR_BINS];
    for (i, v) in h.iter_mut().enumerate() {
        let d = circular_distance(i, bin);
        *v = 0.5f64.powi(d as i32 * 2);
    }
    let total: f64 = h.iter().sum();
    for v in h.iter_mut() {
        *v /= total;
    }
    Some(h)
}

/// The (roundness, elongation) target of a named shape.
pub fn named_shape_target(name: &str) -> Option<(f64, f64)> {
    match name {
        "round" => Some((1.0, 0.0)),
        "square" => Some((0.6, 0.0)),
        "oval" => Some((0.8, 0.5)),
        "elongated" => Some((0.3, 1.0)),
        "irregular" => Some((0.1, 0.4)),
        _ => None,
    }
}

/// The texture target of a named texture.
pub fn named_texture_target(name: &str) -> Option<TextureDescriptor> {
    let (coarseness, contrast, directionality) = match name {
        "smooth" => (0.1, 0.1, 0.1),
        "rough" => (0.9, 0.8, 0.3),
        "striped" => (0.4, 0.7, 0.95),
        "speckled" => (0.2, 0.9, 0.1),
        "woven" => (0.5, 0.5, 0.7),
        _ => return None,
    };
    Some(TextureDescriptor {
        coarseness,
        contrast,
        directionality,
    })
}

fn circular_distance(a: usize, b: usize) -> usize {
    let d = a.abs_diff(b);
    d.min(COLOR_BINS - d)
}

/// The QBIC-like store: a collection of images answering `Color = c` and
/// `Shape = s` queries.
#[derive(Debug, Clone)]
pub struct QbicStore {
    name: String,
    images: Vec<Image>,
}

impl QbicStore {
    /// Wraps a set of images.
    pub fn new(name: &str, images: Vec<Image>) -> Self {
        QbicStore {
            name: name.to_owned(),
            images,
        }
    }

    /// A synthetic collection of `n` random images.
    pub fn synthetic(name: &str, n: usize, rng: &mut impl Rng) -> Self {
        QbicStore::new(name, (0..n).map(|_| Image::random(rng)).collect())
    }

    /// The image behind an object id.
    pub fn image(&self, id: ObjectId) -> Option<&Image> {
        self.images.get(id.index())
    }

    /// Number of images.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the store holds no images.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Grades every image under one atomic query.
    fn grade_all(&self, query: &AtomicQuery) -> Result<Vec<Grade>, SubsystemError> {
        let name = match &query.target {
            Target::Text(s) => s.as_str(),
            _ => {
                return Err(SubsystemError::TypeMismatch {
                    attribute: query.attribute.clone(),
                    detail: "QBIC queries take a named colour or shape".into(),
                })
            }
        };
        match query.attribute.as_str() {
            "Color" | "AlbumColor" => {
                let target =
                    named_color_histogram(name).ok_or_else(|| SubsystemError::TypeMismatch {
                        attribute: query.attribute.clone(),
                        detail: format!("unknown colour {name:?}"),
                    })?;
                Ok(self
                    .images
                    .iter()
                    .map(|img| img.color_similarity(&target))
                    .collect())
            }
            "Shape" => {
                let (r, e) =
                    named_shape_target(name).ok_or_else(|| SubsystemError::TypeMismatch {
                        attribute: query.attribute.clone(),
                        detail: format!("unknown shape {name:?}"),
                    })?;
                Ok(self
                    .images
                    .iter()
                    .map(|img| img.shape_similarity(r, e))
                    .collect())
            }
            "Texture" => {
                let target =
                    named_texture_target(name).ok_or_else(|| SubsystemError::TypeMismatch {
                        attribute: query.attribute.clone(),
                        detail: format!("unknown texture {name:?}"),
                    })?;
                Ok(self
                    .images
                    .iter()
                    .map(|img| img.texture.similarity(&target))
                    .collect())
            }
            other => Err(SubsystemError::UnknownAttribute {
                attribute: other.to_owned(),
                subsystem: self.name.clone(),
            }),
        }
    }
}

impl Subsystem for QbicStore {
    fn name(&self) -> &str {
        &self.name
    }

    fn attributes(&self) -> Vec<String> {
        vec![
            "Color".into(),
            "AlbumColor".into(),
            "Shape".into(),
            "Texture".into(),
        ]
    }

    fn universe_size(&self) -> usize {
        self.images.len()
    }

    fn evaluate(&self, query: &AtomicQuery) -> Result<Arc<dyn GradedSource>, SubsystemError> {
        Ok(Arc::new(MemorySource::from_grades(&self.grade_all(query)?)))
    }

    fn supports_internal_conjunction(&self) -> bool {
        true
    }

    /// QBIC's internal conjunction: scores multiply (Section 8 — "QBIC has
    /// a different semantics for conjunction than Garlic", so delegating a
    /// conjunction to QBIC "might get different results" than combining the
    /// atomic answers by Garlic's min rule).
    fn evaluate_internal_conjunction(
        &self,
        queries: &[AtomicQuery],
    ) -> Result<Arc<dyn GradedSource>, SubsystemError> {
        if queries.is_empty() {
            return Err(SubsystemError::Unsupported {
                reason: "empty internal conjunction".into(),
            });
        }
        let mut combined = vec![Grade::ONE; self.images.len()];
        for q in queries {
            for (acc, g) in combined.iter_mut().zip(self.grade_all(q)?) {
                *acc = Grade::clamped(acc.value() * g.value());
            }
        }
        Ok(Arc::new(MemorySource::from_grades(&combined)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(8)
    }

    #[test]
    fn histograms_normalised() {
        let img = Image::random(&mut rng());
        let sum: f64 = img.histogram.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        let h = named_color_histogram("red").unwrap();
        assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pure_color_scores_best() {
        let red = Image::with_dominant_color("red", 0.95, &mut rng()).unwrap();
        let blue = Image::with_dominant_color("blue", 0.95, &mut rng()).unwrap();
        let target = named_color_histogram("red").unwrap();
        assert!(red.color_similarity(&target) > blue.color_similarity(&target));
    }

    #[test]
    fn nearby_hues_are_moderately_close() {
        // The paper's footnote: pink should be closer to red than green is.
        let pink = Image::with_dominant_color("pink", 0.9, &mut rng()).unwrap();
        let green = Image::with_dominant_color("green", 0.9, &mut rng()).unwrap();
        let red = named_color_histogram("red").unwrap();
        assert!(pink.color_similarity(&red) > green.color_similarity(&red));
    }

    #[test]
    fn shape_similarity_peaks_at_match() {
        let img = Image {
            histogram: [1.0 / COLOR_BINS as f64; COLOR_BINS],
            roundness: 1.0,
            elongation: 0.0,
            texture: TextureDescriptor::random(&mut rng()),
        };
        assert_eq!(img.shape_similarity(1.0, 0.0), Grade::ONE);
        assert!(img.shape_similarity(0.0, 1.0) < Grade::HALF);
    }

    #[test]
    fn texture_similarity_peaks_at_match() {
        let smooth = named_texture_target("smooth").unwrap();
        assert_eq!(smooth.similarity(&smooth), Grade::ONE);
        let rough = named_texture_target("rough").unwrap();
        assert!(smooth.similarity(&rough) < smooth.similarity(&smooth));
    }

    #[test]
    fn texture_queries_evaluate() {
        let store = QbicStore::synthetic("qbic", 30, &mut rng());
        let src = store
            .evaluate(&AtomicQuery::new("Texture", Target::text("striped")))
            .unwrap();
        assert_eq!(src.len(), 30);
        let a = src.sorted_access(0).unwrap().grade;
        let b = src.sorted_access(29).unwrap().grade;
        assert!(a >= b);
        assert!(store
            .evaluate(&AtomicQuery::new("Texture", Target::text("holographic")))
            .is_err());
    }

    #[test]
    fn subsystem_evaluates_color_and_shape() {
        let store = QbicStore::synthetic("qbic", 50, &mut rng());
        let color = store
            .evaluate(&AtomicQuery::new("Color", Target::text("red")))
            .unwrap();
        assert_eq!(color.len(), 50);
        let shape = store
            .evaluate(&AtomicQuery::new("Shape", Target::text("round")))
            .unwrap();
        assert_eq!(shape.len(), 50);
        // Sorted access descends.
        let a = color.sorted_access(0).unwrap().grade;
        let b = color.sorted_access(1).unwrap().grade;
        assert!(a >= b);
    }

    #[test]
    fn cursor_streams_similarity_ranking_in_batches() {
        let store = QbicStore::synthetic("qbic", 23, &mut rng());
        let src = store
            .evaluate(&AtomicQuery::new("Color", Target::text("blue")))
            .unwrap();
        let mut streamed = Vec::new();
        while src.sorted_batch(streamed.len(), 5, &mut streamed) > 0 {}
        assert_eq!(streamed.len(), 23);
        for (rank, e) in streamed.iter().enumerate() {
            assert_eq!(Some(*e), src.sorted_access(rank));
        }
    }

    #[test]
    fn unknown_names_error() {
        let store = QbicStore::synthetic("qbic", 5, &mut rng());
        assert!(store
            .evaluate(&AtomicQuery::new("Color", Target::text("chartreuse")))
            .is_err());
        assert!(store
            .evaluate(&AtomicQuery::new("Shape", Target::text("dodecahedron")))
            .is_err());
        assert!(store
            .evaluate(&AtomicQuery::new("Mood", Target::text("wistful")))
            .is_err());
    }

    #[test]
    fn internal_conjunction_is_product_not_min() {
        let store = QbicStore::synthetic("qbic", 40, &mut rng());
        let qs = [
            AtomicQuery::new("Color", Target::text("red")),
            AtomicQuery::new("Shape", Target::text("round")),
        ];
        let internal = store.evaluate_internal_conjunction(&qs).unwrap();
        // Check one object: internal grade == product of atomic grades.
        let c = store.evaluate(&qs[0]).unwrap();
        let s = store.evaluate(&qs[1]).unwrap();
        let id = ObjectId(7);
        let expect = c.random_access(id).unwrap().value() * s.random_access(id).unwrap().value();
        assert!(internal
            .random_access(id)
            .unwrap()
            .approx_eq(Grade::clamped(expect), 1e-12));
    }
}
