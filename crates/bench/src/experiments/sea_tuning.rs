//! **SEA parameter tuning** — the sensitivity study behind §5's parameter
//! choices (published in the long version of the paper).
//!
//! One-at-a-time sweeps around the scaled defaults on a 15-variable clique
//! in the hard region: population `p`, tournament size `T`, crossover rate
//! `μc`, mutation rate `μm` and the crossover-point schedule `g_c`. Every
//! setting gets the moves of `10·n` paper-seconds, so a larger population
//! runs fewer generations.

use super::{build_instance, fixed_n, mean_cell, Output};
use crate::{Recorder, Scale, Table};
use mwsj_core::{Sea, SeaConfig, SearchBudget};
use mwsj_datagen::QueryShape;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs the sweep, streaming per-run events and metrics through `rec`;
/// one table, `(parameter, value, similarity)`.
pub fn run(scale: Scale, rec: &Recorder) -> Vec<Output> {
    let n = fixed_n(scale);
    let (instance, _, _) = build_instance(
        QueryShape::Clique,
        n,
        scale.cardinality(),
        1.0,
        false,
        0x5EA,
    );
    let moves = scale.moves(10.0 * n as f64);
    let base = SeaConfig::default_for(&instance);
    let reps = scale.repetitions().min(5);

    let populations: &[usize] = match scale {
        Scale::Smoke => &[32, 64],
        _ => &[32, 64, 128, 256, 512],
    };
    // Each setting is the defaults with one parameter changed.
    let with = |change: &dyn Fn(&mut SeaConfig)| {
        let mut config = base.clone();
        change(&mut config);
        config
    };
    let mut settings: Vec<(&str, String, SeaConfig)> = Vec::new();
    for &p in populations {
        let config = with(&|c| {
            c.population = p;
            c.tournament = (p / 20).max(2);
        });
        settings.push(("population", p.to_string(), config));
    }
    for t in [1, 2, 6, 13, 26] {
        let config = with(&|c| c.tournament = t);
        settings.push(("tournament", t.to_string(), config));
    }
    for mc in [0.0, 0.3, 0.6, 0.9] {
        let config = with(&|c| c.crossover_rate = mc);
        settings.push(("crossover_rate", mc.to_string(), config));
    }
    for mm in [0.0, 0.5, 1.0] {
        let config = with(&|c| c.mutation_rate = mm);
        settings.push(("mutation_rate", mm.to_string(), config));
    }
    for gc in [1, 5, 10, 50] {
        let config = with(&|c| c.generations_per_c = gc);
        settings.push(("generations_per_c", gc.to_string(), config));
    }

    let mut table = Table::new(vec!["parameter", "value", "similarity"]);
    for (parameter, value, config) in settings {
        let budget = SearchBudget::iterations((moves / config.population as u64).max(1));
        let cell = mean_cell(reps, 5000, |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            rec.framed("SEA", &instance, &budget, seed, |ctx| {
                Sea::new(config.clone()).search(&instance, ctx, &mut rng)
            })
            .best_similarity
        });
        eprintln!("sea_tuning: {parameter}={value} done");
        table.row(vec![parameter.to_string(), value, cell]);
    }

    vec![Output {
        csv: "sea_tuning.csv".into(),
        title: format!(
            "SEA parameter tuning (scale: {}, {moves} moves a setting)",
            scale.name()
        ),
        table,
    }]
}
