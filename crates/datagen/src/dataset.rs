//! Dataset generation over the unit workspace.

use mwsj_geom::Rect;
use rand::{Rng, RngExt};

/// Spatial distribution of object centers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// Centers uniform over the workspace — the paper's setting.
    Uniform,
    /// Centers drawn from `clusters` Gaussian blobs with the given standard
    /// deviation; models city-like agglomerations.
    Clustered {
        /// Number of Gaussian blobs.
        clusters: usize,
        /// Standard deviation of each blob.
        sigma: f64,
    },
    /// Centers concentrated towards the origin: each coordinate is
    /// `u^exponent` for uniform `u` — a simple power-law skew.
    Skewed {
        /// Skew exponent (> 1 concentrates mass near the origin).
        exponent: f64,
    },
    /// Centers drawn from `clusters` Gaussian blobs whose masses follow a
    /// Zipf law — blob `k` receives weight `1/(k+1)^exponent` — a few
    /// dense hot-spots plus a long tail. The worst case for uniform
    /// space partitioning (most objects land in a handful of cells) and
    /// the standard skewed-join stress distribution.
    ZipfClustered {
        /// Number of Gaussian blobs.
        clusters: usize,
        /// Standard deviation of each blob.
        sigma: f64,
        /// Zipf exponent (> 0; larger concentrates mass in the top blobs).
        exponent: f64,
    },
}

/// Declarative description of a dataset, used to make experiment configs
/// reproducible and printable.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Number of objects `N`.
    pub cardinality: usize,
    /// Target density `d = N · |r|²` (average rectangles covering a point).
    pub density: f64,
    /// Spatial distribution of centers.
    pub distribution: Distribution,
    /// If `true`, every object has exactly the average extent; otherwise
    /// extents vary uniformly in `[0.5, 1.5] · |r|` (same mean).
    pub constant_extent: bool,
}

impl DatasetSpec {
    /// Uniform dataset with constant extents — the analytic model of §6.
    pub fn uniform(cardinality: usize, density: f64) -> Self {
        DatasetSpec {
            cardinality,
            density,
            distribution: Distribution::Uniform,
            constant_extent: true,
        }
    }

    /// Generates the dataset.
    pub fn generate<R: Rng>(&self, rng: &mut R) -> Dataset {
        Dataset::generate(self, rng)
    }
}

/// A dataset: object MBRs covering the unit workspace `[0,1]²`.
///
/// Object `i` of the dataset is identified by its index; the join
/// algorithms' [`Solution`](mwsj_query::Solution)s store these indices.
#[derive(Debug, Clone)]
pub struct Dataset {
    rects: Vec<Rect>,
    density: f64,
}

impl Dataset {
    /// Generates a uniform dataset of `n` objects with the given density
    /// (constant extents) — the paper's synthetic data model.
    pub fn uniform<R: Rng>(n: usize, density: f64, rng: &mut R) -> Self {
        DatasetSpec::uniform(n, density).generate(rng)
    }

    /// Generates a dataset from a full spec.
    pub fn generate<R: Rng>(spec: &DatasetSpec, rng: &mut R) -> Self {
        assert!(spec.cardinality > 0, "dataset must not be empty");
        assert!(
            spec.density > 0.0 && spec.density.is_finite(),
            "density must be positive"
        );
        let avg_extent = crate::extent_for_density(spec.cardinality, spec.density);
        let mut rects = Vec::with_capacity(spec.cardinality);
        for _ in 0..spec.cardinality {
            let extent_x;
            let extent_y;
            if spec.constant_extent {
                extent_x = avg_extent;
                extent_y = avg_extent;
            } else {
                extent_x = avg_extent * rng.random_range(0.5..1.5);
                extent_y = avg_extent * rng.random_range(0.5..1.5);
            }
            let (cx, cy) = sample_center(&spec.distribution, rng);
            // Keep the rectangle inside the unit workspace so the realised
            // density matches the analytic model at the borders. An extent
            // wider than the workspace (a density near or above N) spans it.
            let (extent_x, extent_y) = (extent_x.min(1.0), extent_y.min(1.0));
            let x = (cx - extent_x / 2.0).clamp(0.0, 1.0 - extent_x);
            let y = (cy - extent_y / 2.0).clamp(0.0, 1.0 - extent_y);
            rects.push(Rect::new(x, y, x + extent_x, y + extent_y));
        }
        Dataset {
            rects,
            density: spec.density,
        }
    }

    /// Wraps externally produced rectangles (e.g. real data) as a dataset.
    pub fn from_rects(rects: Vec<Rect>) -> Self {
        assert!(!rects.is_empty(), "dataset must not be empty");
        let density = rects.iter().map(|r| r.area()).sum::<f64>();
        Dataset { rects, density }
    }

    /// Number of objects `N`.
    #[inline]
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// Datasets are never empty; provided for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// MBR of object `obj`.
    #[inline]
    pub fn rect(&self, obj: usize) -> Rect {
        self.rects[obj]
    }

    /// All object MBRs, indexed by object id.
    #[inline]
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// The nominal density the dataset was generated with (for generated
    /// data) or the realised density (for wrapped data).
    #[inline]
    pub fn density(&self) -> f64 {
        self.density
    }

    /// Realised density: total rectangle area over the unit workspace —
    /// should match [`Dataset::density`] closely for generated data.
    pub fn realized_density(&self) -> f64 {
        self.rects.iter().map(|r| r.area()).sum()
    }

    /// Replaces object `obj`'s MBR (used by solution planting).
    pub(crate) fn replace(&mut self, obj: usize, rect: Rect) {
        self.rects[obj] = rect;
    }
}

/// Lets `mwsj-core`'s `Instance` consume datasets directly.
impl AsRef<[Rect]> for Dataset {
    fn as_ref(&self) -> &[Rect] {
        &self.rects
    }
}

fn sample_center<R: Rng>(dist: &Distribution, rng: &mut R) -> (f64, f64) {
    match *dist {
        Distribution::Uniform => (rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)),
        Distribution::Clustered { clusters, sigma } => {
            debug_assert!(clusters > 0);
            // Blob centers are derived deterministically from the blob index
            // on a coarse grid, so one spec always describes one layout
            // family; jitter comes from the Gaussian draw.
            let c = rng.random_range(0..clusters);
            let side = (clusters as f64).sqrt().ceil() as usize;
            let bx = (c % side) as f64 / side as f64 + 0.5 / side as f64;
            let by = (c / side) as f64 / side as f64 + 0.5 / side as f64;
            let (gx, gy) = gaussian_pair(rng);
            (
                (bx + sigma * gx).clamp(0.0, 1.0),
                (by + sigma * gy).clamp(0.0, 1.0),
            )
        }
        Distribution::Skewed { exponent } => {
            let u: f64 = rng.random_range(0.0..1.0);
            let v: f64 = rng.random_range(0.0..1.0);
            (u.powf(exponent), v.powf(exponent))
        }
        Distribution::ZipfClustered {
            clusters,
            sigma,
            exponent,
        } => {
            debug_assert!(clusters > 0);
            // Inverse-CDF pick of the blob under Zipf weights
            // `1/(k+1)^exponent`; blob centers use the same deterministic
            // coarse-grid layout as `Clustered`.
            let total: f64 = (0..clusters)
                .map(|k| ((k + 1) as f64).powf(-exponent))
                .sum();
            let mut u = rng.random_range(0.0..1.0) * total;
            let mut c = clusters - 1;
            for k in 0..clusters {
                u -= ((k + 1) as f64).powf(-exponent);
                if u <= 0.0 {
                    c = k;
                    break;
                }
            }
            let side = (clusters as f64).sqrt().ceil() as usize;
            let bx = (c % side) as f64 / side as f64 + 0.5 / side as f64;
            let by = (c / side) as f64 / side as f64 + 0.5 / side as f64;
            let (gx, gy) = gaussian_pair(rng);
            (
                (bx + sigma * gx).clamp(0.0, 1.0),
                (by + sigma * gy).clamp(0.0, 1.0),
            )
        }
    }
}

/// Box–Muller transform: two independent standard normal samples.
fn gaussian_pair<R: Rng>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = rng.random_range(f64::EPSILON..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_dataset_matches_density_model() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = Dataset::uniform(10_000, 0.05, &mut rng);
        assert_eq!(d.len(), 10_000);
        // Constant extents: realised density equals nominal density exactly
        // (up to fp rounding).
        assert!((d.realized_density() - 0.05).abs() < 1e-9);
        // All rects inside the workspace.
        for r in d.rects() {
            assert!(r.min.x >= 0.0 && r.max.x <= 1.0 + 1e-12);
            assert!(r.min.y >= 0.0 && r.max.y <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn extents_wider_than_the_workspace_span_it() {
        // N = 1 at d = 4 draws |r| = 2; N = 4 at d = 2 draws |r| ≈ 0.71,
        // which variable extents stretch past 1. Both used to panic in
        // `f64::clamp` (its upper bound `1 − extent` was negative).
        let wide = Dataset::uniform(1, 4.0, &mut StdRng::seed_from_u64(6));
        assert_eq!(wide.rect(0), Rect::new(0.0, 0.0, 1.0, 1.0));
        let spec = DatasetSpec {
            cardinality: 4,
            density: 2.0,
            distribution: Distribution::Uniform,
            constant_extent: false,
        };
        for seed in 0..32 {
            for r in spec.generate(&mut StdRng::seed_from_u64(seed)).rects() {
                assert!(r.min.x >= 0.0 && r.max.x <= 1.0, "{r:?}");
                assert!(r.min.y >= 0.0 && r.max.y <= 1.0, "{r:?}");
            }
        }
    }

    #[test]
    fn variable_extents_keep_density_close() {
        let mut rng = StdRng::seed_from_u64(2);
        let spec = DatasetSpec {
            cardinality: 20_000,
            density: 0.1,
            distribution: Distribution::Uniform,
            constant_extent: false,
        };
        let d = spec.generate(&mut rng);
        // E[w·h] = E[w]E[h] = |r|² · (E[u])² with u ~ U(0.5,1.5) ⇒ E[u] = 1.
        // Monte-Carlo tolerance of a few percent.
        assert!(
            (d.realized_density() - 0.1).abs() < 0.01,
            "density {}",
            d.realized_density()
        );
    }

    #[test]
    fn clustered_dataset_is_clustered() {
        let mut rng = StdRng::seed_from_u64(3);
        let spec = DatasetSpec {
            cardinality: 5_000,
            density: 0.01,
            distribution: Distribution::Clustered {
                clusters: 4,
                sigma: 0.02,
            },
            constant_extent: true,
        };
        let d = spec.generate(&mut rng);
        // Compare spatial variance against a uniform set: clustered centers
        // concentrate around 4 blob centers, so the mean nearest-blob
        // distance is tiny.
        let blobs = [(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)];
        let mean_dist: f64 = d
            .rects()
            .iter()
            .map(|r| {
                let c = r.center();
                blobs
                    .iter()
                    .map(|(bx, by)| ((c.x - bx).powi(2) + (c.y - by).powi(2)).sqrt())
                    .fold(f64::INFINITY, f64::min)
            })
            .sum::<f64>()
            / d.len() as f64;
        assert!(mean_dist < 0.05, "mean nearest-blob distance {mean_dist}");
    }

    #[test]
    fn skewed_dataset_concentrates_near_origin() {
        let mut rng = StdRng::seed_from_u64(4);
        let spec = DatasetSpec {
            cardinality: 5_000,
            density: 0.01,
            distribution: Distribution::Skewed { exponent: 3.0 },
            constant_extent: true,
        };
        let d = spec.generate(&mut rng);
        let mean_x: f64 = d.rects().iter().map(|r| r.center().x).sum::<f64>() / d.len() as f64;
        // E[u³] = 0.25 for u ~ U(0,1).
        assert!((mean_x - 0.25).abs() < 0.05, "mean x {mean_x}");
    }

    #[test]
    fn zipf_clustered_mass_is_top_heavy_and_deterministic() {
        let spec = DatasetSpec {
            cardinality: 8_000,
            density: 0.01,
            distribution: Distribution::ZipfClustered {
                clusters: 8,
                sigma: 0.01,
                exponent: 1.2,
            },
            constant_extent: true,
        };
        let d = spec.generate(&mut StdRng::seed_from_u64(6));
        // Blob 0 sits at the coarse-grid cell (0,0) center (side = 3 for 8
        // blobs): count objects within 5σ of it and compare to the Zipf
        // weight 1/1^1.2 over H(8, 1.2) ≈ 0.35 — far above uniform 1/8.
        let (bx, by) = (0.5 / 3.0, 0.5 / 3.0);
        let near = d
            .rects()
            .iter()
            .filter(|r| {
                let c = r.center();
                ((c.x - bx).powi(2) + (c.y - by).powi(2)).sqrt() < 0.05
            })
            .count() as f64
            / d.len() as f64;
        let h: f64 = (1..=8).map(|k| (k as f64).powf(-1.2)).sum();
        let expected = 1.0 / h;
        assert!(
            (near - expected).abs() < 0.05,
            "top-blob share {near}, expected ≈ {expected}"
        );
        let again = spec.generate(&mut StdRng::seed_from_u64(6));
        assert_eq!(d.rects(), again.rects());
    }

    #[test]
    fn from_rects_computes_density() {
        let d = Dataset::from_rects(vec![
            Rect::new(0.0, 0.0, 0.5, 0.5),
            Rect::new(0.5, 0.5, 1.0, 1.0),
        ]);
        assert_eq!(d.len(), 2);
        assert!((d.density() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_dataset_rejected() {
        let _ = Dataset::from_rects(vec![]);
    }

    #[test]
    #[should_panic(expected = "density must be positive")]
    fn negative_density_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = Dataset::uniform(10, -0.1, &mut rng);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = Dataset::uniform(100, 0.05, &mut StdRng::seed_from_u64(7));
        let b = Dataset::uniform(100, 0.05, &mut StdRng::seed_from_u64(7));
        assert_eq!(a.rects(), b.rects());
        let c = Dataset::uniform(100, 0.05, &mut StdRng::seed_from_u64(8));
        assert_ne!(a.rects(), c.rects());
    }
}
