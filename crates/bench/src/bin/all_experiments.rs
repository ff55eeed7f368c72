//! Regenerates the paper's evaluation: every figure of
//! [`mwsj_bench::experiments::FIGURES`] in order, or the one `--fig`
//! names. Usage: `all_experiments [--fig <id>] [--scale smoke|default|paper]`.
//! Tables go to stdout and `results/*.csv`, each figure's runs to
//! `results/<id>.metrics.jsonl`, progress to stderr; an unknown argument
//! or value exits 1 with one line on stderr.

use mwsj_bench::experiments::{Figure, FIGURES};
use mwsj_bench::{write_csv, Recorder, Scale, MOVES_PER_PAPER_SECOND};

const USAGE: &str = "usage: all_experiments [--fig <id>] [--scale smoke|default|paper]";

fn main() {
    let (figures, scale) = parse(std::env::args().skip(1)).unwrap_or_else(|message| fail(&message));
    println!(
        "=== mwsj experiment suite (scale: {}, {MOVES_PER_PAPER_SECOND} moves per paper-second) ===\n",
        scale.name()
    );
    for (id, run) in figures {
        let rec = Recorder::create(id);
        for out in run(scale, &rec) {
            println!("{}\n{}", out.title, out.table.render());
            let path = write_csv(&out.csv, &out.table.to_csv())
                .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", out.csv)));
            println!("CSV written to {}\n", path.display());
        }
        if let Some(metrics) = rec.finish() {
            println!("metrics JSONL written to {}\n", metrics.display());
        }
    }
    println!("=== done ===");
}

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1)
}

/// The figures to run and the scale, from `--fig <id>` and `--scale <s>`
/// (either also as `--name=value`, each at most once).
fn parse(mut args: impl Iterator<Item = String>) -> Result<(Vec<Figure>, Scale), String> {
    let (mut fig, mut scale) = (None, None);
    while let Some(arg) = args.next() {
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name.to_string(), Some(value.to_string())),
            None => (arg.clone(), None),
        };
        let slot = match name.as_str() {
            "--fig" => &mut fig,
            "--scale" => &mut scale,
            _ => return Err(format!("unknown argument '{arg}' ({USAGE})")),
        };
        let value = inline
            .or_else(|| args.next())
            .ok_or_else(|| format!("{name} needs a value ({USAGE})"))?;
        if slot.replace(value).is_some() {
            return Err(format!("option {name} given more than once"));
        }
    }
    let scale = match scale {
        None => Scale::Default,
        Some(s) => {
            Scale::parse(&s).ok_or_else(|| format!("unknown scale '{s}' (smoke|default|paper)"))?
        }
    };
    let figures = match fig {
        None => FIGURES.to_vec(),
        Some(id) => {
            let figure = FIGURES
                .iter()
                .find(|(known, _)| *known == id)
                .ok_or_else(|| {
                    let ids: Vec<&str> = FIGURES.iter().map(|(known, _)| *known).collect();
                    format!("unknown figure '{id}' ({})", ids.join("|"))
                })?;
            vec![*figure]
        }
    };
    Ok((figures, scale))
}
