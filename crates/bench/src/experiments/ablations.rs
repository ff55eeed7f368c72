//! **Ablations** — quantifying the paper's two §6 claims about *why* the
//! proposed algorithms beat the earlier configuration-similarity
//! heuristics \[PMK+99\]:
//!
//! (i)  index-based re-instantiation (ILS) vs. random re-instantiation
//!      (naive-LS);
//! (ii) the greedy, quality-aware crossover (SEA) vs. a random single-point
//!      crossover GA (naive-GA).
//!
//! A third study sweeps GILS's penalty weight λ, including the paper's
//! printed `10⁻¹⁰·s` setting.

use super::{build_instance, fixed_n, mean_cell, Output};
use crate::{Algo, Recorder, Scale, Table};
use mwsj_core::{Gils, GilsConfig, Sea, SeaConfig};
use mwsj_datagen::QueryShape;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs all ablation studies, streaming per-run events and metrics through
/// `rec`; one table, `(study, shape, algorithm, similarity)`. Every run
/// gets the moves of `10·n` paper-seconds.
pub fn run(scale: Scale, rec: &Recorder) -> Vec<Output> {
    let n = fixed_n(scale);
    let paper_secs = 10.0 * n as f64;
    let reps = scale.repetitions();
    let mut table = Table::new(vec!["study", "shape", "algorithm", "similarity"]);

    for shape in [QueryShape::Chain, QueryShape::Clique] {
        let (instance, _, _) =
            build_instance(shape, n, scale.cardinality(), 1.0, false, 0xAB1A + n as u64);
        let mut row = |study: &str, algorithm: &str, cell: String| {
            let cells = [study, shape.name(), algorithm, cell.as_str()];
            table.row(cells.to_vec());
        };

        // (i) Re-instantiation policy, (ii) crossover mechanism.
        for (study, algos, seed) in [
            ("reinstantiation", vec![Algo::Ils, Algo::NaiveLs], 6000),
            ("crossover", vec![Algo::Sea, Algo::NaiveGa], 7000),
        ] {
            for algo in algos {
                let budget = scale.budget(algo, &instance, paper_secs);
                let cell = mean_cell(reps, seed, |seed| {
                    rec.run(algo, &instance, &budget, seed).best_similarity
                });
                row(study, algo.name(), cell);
                eprintln!("ablations: {study} {} {} done", shape.name(), algo.name());
            }
        }

        // (iii) Hybrid initialisation (paper §7 future work): SEA seeded
        // with ILS local maxima vs. random initial population. The seeds'
        // ILS steps are not budget steps: a seeded run does more work.
        let budget = scale.budget(Algo::Sea, &instance, paper_secs);
        for (label, seeded) in [("SEA (random init)", false), ("SEA (ILS-seeded)", true)] {
            let config = SeaConfig {
                seed_with_ils: seeded,
                ..SeaConfig::default_for(&instance)
            };
            let cell = mean_cell(reps, 7500, |seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                rec.framed(label, &instance, &budget, seed, |ctx| {
                    Sea::new(config.clone()).search(&instance, ctx, &mut rng)
                })
                .best_similarity
            });
            row("sea_seeding", label, cell);
        }
        eprintln!("ablations: sea_seeding {} done", shape.name());

        // (iv) GILS λ sweep.
        let budget = scale.budget(Algo::Gils, &instance, paper_secs);
        let s = instance.problem_size_bits();
        for (label, lambda) in [
            ("paper(1e-10·s)", GilsConfig::paper_lambda(s)),
            ("0.01", 0.01),
            ("0.1", 0.1),
            ("0.5", 0.5),
            ("1.0", 1.0),
            ("10", 10.0),
        ] {
            let (name, config) = (format!("GILS λ={label}"), GilsConfig::with_lambda(lambda));
            let cell = mean_cell(reps, 8000, |seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                rec.framed(&name, &instance, &budget, seed, |ctx| {
                    Gils::new(config.clone()).search(&instance, ctx, &mut rng)
                })
                .best_similarity
            });
            row("gils_lambda", &format!("λ={label}"), cell);
        }
        eprintln!("ablations: gils_lambda {} done", shape.name());
    }
    vec![Output {
        csv: "ablations.csv".into(),
        title: format!(
            "Ablation studies (scale: {}, {} moves a run)",
            scale.name(),
            scale.moves(paper_secs)
        ),
        table,
    }]
}
