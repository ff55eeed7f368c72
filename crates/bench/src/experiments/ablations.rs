//! **Ablations** — quantifying the paper's two §6 claims about *why* the
//! proposed algorithms beat the earlier configuration-similarity
//! heuristics \[PMK+99\]:
//!
//! (i)  index-based re-instantiation (ILS) vs. random re-instantiation
//!      (naive-LS), plus simulated annealing for context;
//! (ii) the greedy, quality-aware crossover (SEA) vs. a random single-point
//!      crossover GA (naive-GA).
//!
//! A third study sweeps GILS's penalty weight λ, including the paper's
//! printed `10⁻¹⁰·s` setting.

use crate::experiments::build_instance;
use crate::{mean, write_csv, Algo, Recorder, Scale, Table};
use mwsj_core::{Gils, GilsConfig, SearchBudget};
use mwsj_datagen::QueryShape;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs all ablation studies, streaming per-run events and metrics through
/// `rec`; rows are `(study, shape, algorithm, similarity)`.
pub fn run(scale: Scale, rec: &Recorder) -> Table {
    let n = match scale {
        Scale::Smoke => 5,
        _ => 15,
    };
    let reps = scale.repetitions();
    let mut table = Table::new(vec!["study", "shape", "algorithm", "similarity"]);

    for shape in [QueryShape::Chain, QueryShape::Clique] {
        let (instance, _, _) =
            build_instance(shape, n, scale.cardinality(), 1.0, false, 0xAB1A + n as u64);
        let budget = SearchBudget::time(scale.query_budget(n));

        // (i) Re-instantiation policy.
        for algo in [Algo::Ils, Algo::NaiveLs, Algo::Sa] {
            let sims: Vec<f64> = (0..reps)
                .map(|rep| {
                    rec.run(algo, &instance, &budget, 6000 + rep as u64)
                        .best_similarity
                })
                .collect();
            table.row(vec![
                "reinstantiation".to_string(),
                shape.name().to_string(),
                algo.name().to_string(),
                format!("{:.3}", mean(&sims)),
            ]);
            eprintln!(
                "ablations: reinstantiation {} {} done",
                shape.name(),
                algo.name()
            );
        }

        // (ii) Crossover mechanism.
        for algo in [Algo::Sea, Algo::NaiveGa] {
            let sims: Vec<f64> = (0..reps)
                .map(|rep| {
                    rec.run(algo, &instance, &budget, 7000 + rep as u64)
                        .best_similarity
                })
                .collect();
            table.row(vec![
                "crossover".to_string(),
                shape.name().to_string(),
                algo.name().to_string(),
                format!("{:.3}", mean(&sims)),
            ]);
            eprintln!("ablations: crossover {} {} done", shape.name(), algo.name());
        }

        // (iii) Hybrid initialisation (paper §7 future work): SEA seeded
        // with ILS local maxima vs. random initial population.
        {
            use mwsj_core::{Sea, SeaConfig};
            for (label, seeded) in [("SEA (random init)", false), ("SEA (ILS-seeded)", true)] {
                let sims: Vec<f64> = (0..reps)
                    .map(|rep| {
                        let mut cfg = SeaConfig::default_for(&instance);
                        cfg.seed_with_ils = seeded;
                        let seed = 7500 + rep as u64;
                        let mut rng = StdRng::seed_from_u64(seed);
                        rec.framed(label, &instance, &budget, seed, |ctx| {
                            Sea::new(cfg).search(&instance, ctx, &mut rng)
                        })
                        .best_similarity
                    })
                    .collect();
                table.row(vec![
                    "sea_seeding".to_string(),
                    shape.name().to_string(),
                    label.to_string(),
                    format!("{:.3}", mean(&sims)),
                ]);
            }
            eprintln!("ablations: sea_seeding {} done", shape.name());
        }

        // (iv) GILS λ sweep.
        let s = instance.problem_size_bits();
        for (label, lambda) in [
            ("paper(1e-10·s)".to_string(), GilsConfig::paper_lambda(s)),
            ("0.01".to_string(), 0.01),
            ("0.1".to_string(), 0.1),
            ("0.5".to_string(), 0.5),
            ("1.0".to_string(), 1.0),
            ("10".to_string(), 10.0),
        ] {
            let sims: Vec<f64> = (0..reps)
                .map(|rep| {
                    let seed = 8000 + rep as u64;
                    let mut rng = StdRng::seed_from_u64(seed);
                    let name = format!("GILS λ={label}");
                    rec.framed(&name, &instance, &budget, seed, |ctx| {
                        Gils::new(GilsConfig::with_lambda(lambda)).search(&instance, ctx, &mut rng)
                    })
                    .best_similarity
                })
                .collect();
            table.row(vec![
                "gils_lambda".to_string(),
                shape.name().to_string(),
                format!("λ={label}"),
                format!("{:.3}", mean(&sims)),
            ]);
        }
        eprintln!("ablations: gils_lambda {} done", shape.name());
    }
    table
}

/// Runs, prints and persists the ablation studies.
pub fn main(scale: Scale) {
    println!("Ablation studies (scale: {})", scale.name());
    let rec = Recorder::create("ablations");
    let table = run(scale, &rec);
    println!("{}", table.render());
    let path = write_csv("ablations.csv", &table.to_csv()).expect("write results");
    println!("CSV written to {}", path.display());
    if let Some(metrics) = rec.finish() {
        println!("metrics JSONL written to {}", metrics.display());
    }
}
