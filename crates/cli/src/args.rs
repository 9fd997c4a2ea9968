//! Minimal command-line argument parsing (no external dependencies).
//!
//! Supports `--key value`, `--key=value`, and bare flags. No command
//! takes a positional argument, so a stray token is an error, as is an
//! unknown option: typos never silently run a default configuration.

use std::collections::BTreeMap;
use std::fmt;

use webcap_parallel::Parallelism;

/// Parsed arguments: `--key value` options and bare flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Error produced when arguments cannot be parsed or validated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// `--key` appeared twice.
    Duplicate(String),
    /// An option that requires a value was last on the line.
    MissingValue(String),
    /// An option value failed to parse.
    Invalid {
        /// Option name.
        key: String,
        /// Offending value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// An option is not recognized by the subcommand.
    Unknown(String),
    /// A required option is absent.
    Required(String),
    /// A token that is neither an option nor an option's value.
    Stray(String),
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgsError::Duplicate(k) => write!(f, "option --{k} given twice"),
            ArgsError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            ArgsError::Invalid {
                key,
                value,
                expected,
            } => {
                write!(f, "option --{key}: '{value}' is not a valid {expected}")
            }
            ArgsError::Unknown(k) => write!(f, "unknown option --{k}"),
            ArgsError::Required(k) => write!(f, "missing required option --{k}"),
            ArgsError::Stray(t) => write!(f, "unexpected argument '{t}'"),
        }
    }
}

impl std::error::Error for ArgsError {}

impl Args {
    /// Parse raw arguments (excluding the program and subcommand names).
    ///
    /// Every `--key` consumes the next token as its value unless it uses
    /// `--key=value` form or appears in `bare_flags`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError`] on duplicates, missing values, or a token
    /// that is neither an option nor an option's value.
    pub fn parse<I: IntoIterator<Item = String>>(
        raw: I,
        bare_flags: &[&str],
    ) -> Result<Args, ArgsError> {
        let mut args = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(token) = iter.next() {
            if let Some(stripped) = token.strip_prefix("--") {
                let (key, inline) = match stripped.split_once('=') {
                    Some((k, v)) => (k.to_string(), Some(v.to_string())),
                    None => (stripped.to_string(), None),
                };
                if bare_flags.contains(&key.as_str()) && inline.is_none() {
                    if args.flags.contains(&key) {
                        return Err(ArgsError::Duplicate(key));
                    }
                    args.flags.push(key);
                    continue;
                }
                let value = match inline {
                    Some(v) => v,
                    None => iter
                        .next()
                        .ok_or_else(|| ArgsError::MissingValue(key.clone()))?,
                };
                if args.options.insert(key.clone(), value).is_some() {
                    return Err(ArgsError::Duplicate(key));
                }
            } else {
                return Err(ArgsError::Stray(token));
            }
        }
        Ok(args)
    }

    /// Whether a bare flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A string option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// A required string option.
    ///
    /// # Errors
    ///
    /// [`ArgsError::Required`] when absent.
    pub fn require(&self, key: &str) -> Result<&str, ArgsError> {
        self.get(key)
            .ok_or_else(|| ArgsError::Required(key.to_string()))
    }

    /// A parsed numeric option with a default.
    ///
    /// # Errors
    ///
    /// [`ArgsError::Invalid`] when present but unparseable.
    pub fn get_parsed<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ArgsError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgsError::Invalid {
                key: key.to_string(),
                value: v.to_string(),
                expected,
            }),
        }
    }

    /// The `--jobs` worker-thread option: `auto` or `0` →
    /// [`Parallelism::Auto`], `1` → [`Parallelism::Sequential`], `n` →
    /// [`Parallelism::Threads`]. Absent → `Auto`.
    ///
    /// # Errors
    ///
    /// [`ArgsError::Invalid`] when present but not a count or `auto`.
    pub fn jobs(&self) -> Result<Parallelism, ArgsError> {
        match self.get("jobs") {
            None => Ok(Parallelism::Auto),
            Some(v) => Parallelism::from_jobs(v).ok_or_else(|| ArgsError::Invalid {
                key: "jobs".to_string(),
                value: v.to_string(),
                expected: "thread count or 'auto'",
            }),
        }
    }

    /// Reject any option or flag not in `allowed` (typo protection).
    ///
    /// # Errors
    ///
    /// [`ArgsError::Unknown`] naming the first unknown option.
    pub fn reject_unknown(&self, allowed: &[&str]) -> Result<(), ArgsError> {
        for key in self.options.keys().chain(self.flags.iter()) {
            if !allowed.contains(&key.as_str()) {
                return Err(ArgsError::Unknown(key.clone()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, ArgsError> {
        Args::parse(tokens.iter().map(|s| s.to_string()), &["verbose"])
    }

    #[test]
    fn parses_options_and_flags_and_rejects_a_stray_token() {
        let a = parse(&["--seed", "7", "--mix=ordering", "--verbose"]).unwrap();
        assert_eq!(a.get("seed"), Some("7"));
        assert_eq!(a.get("mix"), Some("ordering"));
        assert!(a.flag("verbose"));
        assert!(!a.flag("quiet"));
        // A bare flag takes no value, so the endpoint after it is stray.
        let bare =
            |tokens: &[&str]| Args::parse(tokens.iter().map(|s| s.to_string()), &["loopback"]);
        assert_eq!(
            bare(&["--loopback", "tcp:127.0.0.1:7000"]).err(),
            Some(ArgsError::Stray("tcp:127.0.0.1:7000".into()))
        );
        // A single dash makes no option: `-level` is the first stray token.
        assert_eq!(
            parse(&["--out", "m.json", "-level", "os"]).err(),
            Some(ArgsError::Stray("-level".into()))
        );
        assert_eq!(
            ArgsError::Stray("os".into()).to_string(),
            "unexpected argument 'os'"
        );
    }

    #[test]
    fn duplicate_is_an_error() {
        assert_eq!(
            parse(&["--seed", "1", "--seed", "2"]).err(),
            Some(ArgsError::Duplicate("seed".into()))
        );
        assert_eq!(
            parse(&["--verbose", "--verbose"]).err(),
            Some(ArgsError::Duplicate("verbose".into()))
        );
    }

    #[test]
    fn missing_value_is_an_error() {
        assert_eq!(
            parse(&["--seed"]).err(),
            Some(ArgsError::MissingValue("seed".into()))
        );
    }

    #[test]
    fn numeric_parsing_with_default() {
        let a = parse(&["--scale", "0.5"]).unwrap();
        assert_eq!(a.get_parsed("scale", 1.0, "number").unwrap(), 0.5);
        assert_eq!(a.get_parsed("missing", 9u32, "integer").unwrap(), 9);
        let bad = parse(&["--scale", "abc"]).unwrap();
        assert!(matches!(
            bad.get_parsed::<f64>("scale", 1.0, "number"),
            Err(ArgsError::Invalid { .. })
        ));
    }

    #[test]
    fn unknown_option_rejection() {
        let a = parse(&["--seed", "1", "--oops", "2"]).unwrap();
        assert_eq!(
            a.reject_unknown(&["seed"]).err(),
            Some(ArgsError::Unknown("oops".into()))
        );
        assert!(a.reject_unknown(&["seed", "oops"]).is_ok());
    }

    #[test]
    fn jobs_resolves_to_parallelism() {
        assert_eq!(parse(&[]).unwrap().jobs().unwrap(), Parallelism::Auto);
        assert_eq!(
            parse(&["--jobs", "auto"]).unwrap().jobs().unwrap(),
            Parallelism::Auto
        );
        assert_eq!(
            parse(&["--jobs", "1"]).unwrap().jobs().unwrap(),
            Parallelism::Sequential
        );
        assert_eq!(
            parse(&["--jobs", "4"]).unwrap().jobs().unwrap(),
            Parallelism::Threads(4)
        );
        assert!(matches!(
            parse(&["--jobs", "many"]).unwrap().jobs(),
            Err(ArgsError::Invalid { .. })
        ));
    }

    #[test]
    fn require_reports_missing() {
        let a = parse(&[]).unwrap();
        assert_eq!(
            a.require("out").err(),
            Some(ArgsError::Required("out".into()))
        );
    }

    #[test]
    fn error_messages_are_readable() {
        assert_eq!(
            ArgsError::Required("out".into()).to_string(),
            "missing required option --out"
        );
        assert!(ArgsError::Invalid {
            key: "s".into(),
            value: "x".into(),
            expected: "number"
        }
        .to_string()
        .contains("not a valid number"));
    }
}
