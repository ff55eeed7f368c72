//! Minimal dependency-free argument parsing for the `mwsj` binary.

use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

/// A parsed command line: subcommand, positional arguments,
/// `--key value` options and `--switch` switches.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: Option<String>,
    /// Positional arguments after the subcommand, in order (e.g. the file
    /// in `mwsj report run.jsonl`, or the two snapshots in `mwsj bench
    /// compare A B`). Commands validate their own arity.
    pub positionals: Vec<String>,
    options: HashMap<String, Vec<String>>,
    flags: Vec<String>,
}

/// Errors produced while parsing or validating arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// `--key` given without a value where one is required.
    MissingValue(String),
    /// A required option is absent.
    MissingOption(String),
    /// An option value failed to parse.
    BadValue {
        /// The option name.
        option: String,
        /// The raw value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// Unexpected free-standing argument.
    UnexpectedArgument(String),
    /// A `--name` the binary does not read.
    UnknownOption(String),
    /// A single-valued `--name` given twice.
    RepeatedOption(String),
    /// A `--name` the binary reads, but not for this command.
    ForeignOption {
        /// The option name.
        option: String,
        /// The command it was given to.
        command: String,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            ArgError::MissingOption(k) => write!(f, "required option --{k} is missing"),
            ArgError::BadValue {
                option,
                value,
                expected,
            } => write!(f, "--{option} {value}: expected {expected}"),
            ArgError::UnexpectedArgument(a) => write!(f, "unexpected argument '{a}'"),
            ArgError::UnknownOption(k) => write!(f, "unknown option '--{k}'"),
            ArgError::RepeatedOption(k) => write!(f, "option --{k} given more than once"),
            ArgError::ForeignOption { option, command } => {
                write!(f, "unknown option '--{option}' for '{command}'")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// What one command reads.
pub struct CommandSpec {
    /// The subcommand.
    pub name: &'static str,
    /// `false` for a command that takes options only: a stray positional is
    /// then a value whose option went missing (`solve a.csv`, `--data a.csv
    /// b.csv`), not something to drop.
    pub positionals: bool,
    /// Options that take a value.
    values: &'static [&'static str],
    /// Options that take none.
    switches: &'static [&'static str],
}

/// Every command with every `--name` it reads — the one table. A name in no
/// row is an error, and so is a name given to a command whose row lacks it:
/// a mistyped `--sead 5` cannot run with the default seed and exit 0, nor
/// `join --top 3` print what it would have printed anyway.
pub const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "generate",
        positionals: false,
        values: &["out", "n", "density", "distribution", "seed"],
        switches: &[],
    },
    CommandSpec {
        name: "info",
        positionals: false,
        values: &["data"],
        switches: &[],
    },
    CommandSpec {
        name: "solve",
        positionals: false,
        values: &[
            "data",
            "query",
            "algo",
            "seconds",
            "iterations",
            "seed",
            "top",
            "restarts",
            "backend",
            "metrics-out",
            "trace-out",
            "profile-out",
            "progress-every",
            "stall-steps",
            "stall-secs",
        ],
        switches: &["stall-abort"],
    },
    CommandSpec {
        name: "join",
        positionals: false,
        values: &[
            "data",
            "query",
            "algo",
            "limit",
            "seconds",
            "iterations",
            "backend",
            "metrics-out",
        ],
        switches: &[],
    },
    CommandSpec {
        name: "explain",
        positionals: false,
        values: &["data", "query", "backend", "metrics-out"],
        switches: &[],
    },
    CommandSpec {
        name: "hard-density",
        positionals: false,
        values: &["shape", "vars", "n", "target"],
        switches: &[],
    },
    CommandSpec {
        name: "report",
        positionals: true,
        values: &[],
        switches: &[],
    },
    CommandSpec {
        name: "watch",
        positionals: true,
        values: &["poll-ms", "timeout-secs"],
        switches: &["no-tty"],
    },
    CommandSpec {
        name: "bench",
        positionals: true,
        values: &["tier", "label", "out"],
        switches: &[],
    },
    CommandSpec {
        name: "help",
        positionals: true,
        values: &[],
        switches: &[],
    },
];

/// The one option that may be given more than once, each value kept in
/// order; a second value for any other would otherwise be silently lost.
const REPEATABLE: &str = "data";

impl Args {
    /// Parses an iterator of arguments (excluding the program name).
    pub fn parse<I: IntoIterator<Item = String>>(items: I) -> Result<Args, ArgError> {
        let mut args = Args::default();
        // Whether a name takes a value is read off the whole table: the
        // command may come after its options.
        let takes_value = |name: &str| COMMANDS.iter().any(|c| c.values.contains(&name));
        let is_switch = |name: &str| COMMANDS.iter().any(|c| c.switches.contains(&name));
        let mut given: Vec<String> = Vec::new();
        let mut iter = items.into_iter().peekable();
        while let Some(item) = iter.next() {
            if let Some(rest) = item.strip_prefix("--") {
                // `--key value` or `--key=value`.
                let (name, inline) = match rest.split_once('=') {
                    Some((name, value)) => (name, Some(value.to_string())),
                    None => (rest, None),
                };
                given.push(name.to_string());
                if takes_value(name) {
                    let value = match inline.or_else(|| iter.next_if(|v| !v.starts_with("--"))) {
                        Some(value) => value,
                        None => return Err(ArgError::MissingValue(name.to_string())),
                    };
                    let values = args.options.entry(name.to_string()).or_default();
                    if !values.is_empty() && name != REPEATABLE {
                        return Err(ArgError::RepeatedOption(name.to_string()));
                    }
                    values.push(value);
                } else if !is_switch(name) {
                    return Err(ArgError::UnknownOption(name.to_string()));
                } else if inline.is_some() {
                    return Err(ArgError::UnexpectedArgument(item));
                } else {
                    args.flags.push(name.to_string());
                }
            } else if args.command.is_none() {
                args.command = Some(item);
            } else {
                args.positionals.push(item);
            }
        }
        if let Some(spec) = args.spec() {
            let foreign = |name: &&String| {
                !spec.values.contains(&name.as_str()) && !spec.switches.contains(&name.as_str())
            };
            if let Some(option) = given.iter().find(foreign) {
                return Err(ArgError::ForeignOption {
                    option: option.clone(),
                    command: spec.name.to_string(),
                });
            }
        }
        Ok(args)
    }

    /// The [`COMMANDS`] row of the subcommand, if it is one.
    pub fn spec(&self) -> Option<&'static CommandSpec> {
        let command = self.command.as_deref()?;
        COMMANDS.iter().find(|c| c.name == command)
    }

    /// All values given for the repeatable option.
    pub fn values(&self, key: &str) -> &[String] {
        self.options.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The single value of an option, if present.
    pub fn value(&self, key: &str) -> Option<&str> {
        self.options
            .get(key)
            .and_then(|v| v.first())
            .map(String::as_str)
    }

    /// The single value of a required option.
    pub fn required(&self, key: &str) -> Result<&str, ArgError> {
        self.value(key)
            .ok_or_else(|| ArgError::MissingOption(key.to_string()))
    }

    /// Parses an option into `T`, with a default when absent.
    pub fn parse_or<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                option: key.to_string(),
                value: v.to_string(),
                expected,
            }),
        }
    }

    /// The value of a seconds-valued option (`--seconds`, `--stall-secs`,
    /// `--timeout-secs`) as a [`Duration`], `None` when the option is
    /// absent. The one checked conversion for user-supplied times: zero,
    /// negative, NaN, infinite and unrepresentably large values are errors,
    /// never a panic or a silent default.
    pub fn seconds(&self, key: &str) -> Result<Option<Duration>, String> {
        let Some(raw) = self.value(key) else {
            return Ok(None);
        };
        raw.parse::<f64>()
            .ok()
            .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
            .filter(|limit| !limit.is_zero())
            .map(Some)
            .ok_or_else(|| {
                format!("--{key} must be a positive, finite number of seconds (got {raw})")
            })
    }

    /// The value of a positive real option (`--density`, `--target`),
    /// `default` when absent: zero, negative, NaN and infinite values are
    /// errors, never a library assert.
    pub fn positive(&self, key: &str, default: f64, expected: &'static str) -> Result<f64, String> {
        let value: f64 = self
            .parse_or(key, default, expected)
            .map_err(|e| e.to_string())?;
        if value > 0.0 && value.is_finite() {
            Ok(value)
        } else {
            let raw = self.value(key).unwrap_or_default();
            Err(format!(
                "--{key} must be a positive, finite number (got {raw})"
            ))
        }
    }

    /// The first positional argument, for single-argument commands.
    pub fn arg(&self) -> Option<&str> {
        self.positionals.first().map(String::as_str)
    }

    /// Whether a switch was given.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_and_options() {
        let a = parse("solve --algo ils --seconds 2.5 --stall-abort").unwrap();
        assert_eq!(a.command.as_deref(), Some("solve"));
        assert_eq!(a.value("algo"), Some("ils"));
        assert_eq!(a.value("seconds"), Some("2.5"));
        assert!(a.flag("stall-abort"));
        assert!(!a.flag("no-tty"));
    }

    #[test]
    fn repeatable_options_accumulate() {
        let a = parse("solve --data a.csv --data b.csv --data c.csv").unwrap();
        assert_eq!(a.values("data"), &["a.csv", "b.csv", "c.csv"]);
    }

    #[test]
    fn a_single_valued_option_given_twice_is_rejected_by_name() {
        for (line, name) in [
            ("solve --seed 1 --seed 2", "seed"),
            ("solve --iterations 100 --iterations=1", "iterations"),
            ("solve --algo ils --algo gils", "algo"),
            ("join --limit 1 --limit 5", "limit"),
            ("solve --top 1 --top=3", "top"),
            ("--seed 1 generate --seed 1", "seed"),
        ] {
            let err = parse(line).unwrap_err();
            assert_eq!(err, ArgError::RepeatedOption(name.into()), "{line}");
            assert_eq!(
                err.to_string(),
                format!("option --{name} given more than once")
            );
        }
        // A repeated switch says the same thing twice.
        assert!(parse("solve --stall-abort --stall-abort").is_ok());
    }

    #[test]
    fn equals_syntax() {
        let a = parse("generate --n=100 --density=0.5").unwrap();
        assert_eq!(a.value("n"), Some("100"));
        assert_eq!(a.value("density"), Some("0.5"));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert_eq!(
            parse("solve --algo").unwrap_err(),
            ArgError::MissingValue("algo".into())
        );
        assert_eq!(
            parse("solve --algo --seconds 1").unwrap_err(),
            ArgError::MissingValue("algo".into())
        );
    }

    #[test]
    fn single_positional_is_captured() {
        let a = parse("report run.jsonl").unwrap();
        assert_eq!(a.command.as_deref(), Some("report"));
        assert_eq!(a.arg(), Some("run.jsonl"));
    }

    #[test]
    fn multiple_positionals_are_kept_in_order() {
        let a = parse("bench compare BENCH_baseline.json BENCH_ci.json").unwrap();
        assert_eq!(a.command.as_deref(), Some("bench"));
        assert_eq!(
            a.positionals,
            vec!["compare", "BENCH_baseline.json", "BENCH_ci.json"]
        );
        assert_eq!(a.arg(), Some("compare"));
    }

    #[test]
    fn tier_takes_a_value() {
        let a = parse("bench snapshot --tier large --label x").unwrap();
        assert_eq!(a.value("tier"), Some("large"));
        assert_eq!(a.value("label"), Some("x"));
        assert!(a.positionals.len() == 1, "{:?}", a.positionals);
    }

    #[test]
    fn required_and_parse_or() {
        let a = parse("generate --n 50").unwrap();
        assert_eq!(a.required("n").unwrap(), "50");
        assert!(matches!(
            a.required("density"),
            Err(ArgError::MissingOption(_))
        ));
        assert_eq!(a.parse_or("n", 0usize, "an integer").unwrap(), 50);
        assert_eq!(a.parse_or("seed", 7u64, "an integer").unwrap(), 7);
        let bad = parse("generate --n x").unwrap();
        assert!(matches!(
            bad.parse_or("n", 0usize, "an integer"),
            Err(ArgError::BadValue { .. })
        ));
    }

    #[test]
    fn unknown_options_are_rejected_in_either_form() {
        for (line, name) in [
            ("solve --sead 5", "sead"),
            // Gone in PR 25: every line is flushed, there is no ring, and
            // the grid does not fan out per query.
            ("solve --follow", "follow"),
            ("solve --flight-recorder-out f.jsonl", "flight-recorder-out"),
            (
                "solve --flight-recorder-bytes 8192",
                "flight-recorder-bytes",
            ),
            ("solve --grid-threads 2", "grid-threads"),
            ("solve --threads 2", "threads"),
            ("solve --sead=5", "sead"),
            ("solve --stall-abrt", "stall-abrt"),
            ("bench snapshot --reps 1", "reps"),
            ("bench compare a b --wall-tolerance=0.5", "wall-tolerance"),
        ] {
            let err = parse(line).unwrap_err();
            assert_eq!(err, ArgError::UnknownOption(name.into()), "{line}");
            assert_eq!(err.to_string(), format!("unknown option '--{name}'"));
        }
        // A switch takes no value.
        assert_eq!(
            parse("solve --stall-abort=1").unwrap_err(),
            ArgError::UnexpectedArgument("--stall-abort=1".into())
        );
    }

    #[test]
    fn an_option_of_another_command_is_rejected_by_name_and_command() {
        for (line, option, command) in [
            ("join --top 3 --restarts 4", "top", "join"),
            ("solve --limit 2", "limit", "solve"),
            ("--seed 1 explain", "seed", "explain"),
            ("info --query chain", "query", "info"),
            ("report run.jsonl --no-tty", "no-tty", "report"),
        ] {
            let err = parse(line).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("unknown option '--{option}' for '{command}'"),
                "{line}"
            );
        }
        // `--lambda` was listed and read by nothing.
        assert_eq!(
            parse("solve --algo gils --lambda 123").unwrap_err(),
            ArgError::UnknownOption("lambda".into())
        );
    }
}
