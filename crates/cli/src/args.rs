//! A small dependency-free `--flag value` argument parser over the
//! command table.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::commands::{lookup, Command, TABLE};

/// Errors parsing the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// No subcommand was given.
    MissingCommand,
    /// An unknown subcommand.
    UnknownCommand(String),
    /// A flag without the `--` prefix or without a value.
    MalformedFlag(String),
    /// A flag the command path's usage line does not name (likely a typo
    /// that would otherwise silently change behavior).
    UnknownFlag(String),
    /// An action token the subcommand does not understand (e.g.
    /// `snapshot savee`), or a missing one where required.
    UnknownAction {
        /// The subcommand.
        command: String,
        /// The offending action, if any was given.
        action: Option<String>,
    },
    /// The same flag was given twice.
    DuplicateFlag(String),
    /// A flag value failed to parse.
    InvalidValue {
        /// The flag name (without `--`).
        flag: String,
        /// The offending value.
        value: String,
    },
    /// A required flag is missing.
    MissingFlag(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::MissingCommand => write!(f, "missing subcommand (try `geodabs help`)"),
            ParseError::UnknownCommand(c) => write!(f, "unknown subcommand {c:?}"),
            ParseError::MalformedFlag(s) => {
                write!(f, "malformed flag {s:?} (expected --name value)")
            }
            ParseError::UnknownFlag(s) => write!(f, "unknown flag --{s}"),
            ParseError::UnknownAction { command, action } => match action {
                Some(action) => write!(f, "unknown action {action:?} for `{command}`"),
                None => {
                    write!(f, "`{command}` needs an action")?;
                    match TABLE.iter().find(|c| c.command() == command) {
                        Some(example) => write!(f, " (e.g. `{}`)", example.name),
                        None => Ok(()),
                    }
                }
            },
            ParseError::DuplicateFlag(s) => write!(f, "flag --{s} given more than once"),
            ParseError::InvalidValue { flag, value } => {
                write!(f, "invalid value {value:?} for --{flag}")
            }
            ParseError::MissingFlag(s) => write!(f, "missing required flag --{s}"),
        }
    }
}

impl Error for ParseError {}

/// The parsed command line: the [`TABLE`] entry it names plus its
/// `--flag value` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    entry: &'static Command,
    flags: HashMap<String, String>,
}

impl Args {
    /// Parses a raw argument list (without the program name) against
    /// [`TABLE`].
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on unknown commands or actions, flags the
    /// entry's usage does not name, and malformed or duplicated flags.
    pub fn parse<I, S>(argv: I) -> Result<Args, ParseError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let argv: Vec<String> = argv.into_iter().map(Into::into).collect();
        let command = argv.first().ok_or(ParseError::MissingCommand)?;
        let entry = lookup(&argv).ok_or_else(|| {
            if TABLE.iter().all(|c| c.command() != command) {
                return ParseError::UnknownCommand(command.clone());
            }
            // The action is the token after the command when it does not
            // look like a flag, so a typo'd action fails loudly.
            let action = argv.get(1).filter(|a| !a.starts_with("--")).cloned();
            ParseError::UnknownAction {
                command: command.clone(),
                action,
            }
        })?;
        let mut iter = argv.into_iter().skip(entry.name.split(' ').count());
        let mut flags = HashMap::new();
        while let Some(flag) = iter.next() {
            let name = match flag.strip_prefix("--") {
                Some(name) if !name.is_empty() => name.to_string(),
                _ => return Err(ParseError::MalformedFlag(flag)),
            };
            let value = match entry.switch(&name) {
                None => return Err(ParseError::UnknownFlag(name)),
                Some(true) => "true".to_string(),
                Some(false) => iter
                    .next()
                    .ok_or_else(|| ParseError::MalformedFlag(flag.clone()))?,
            };
            if flags.insert(name.clone(), value).is_some() {
                return Err(ParseError::DuplicateFlag(name));
            }
        }
        Ok(Args { entry, flags })
    }

    /// The table entry the command line names.
    pub fn entry(&self) -> &'static Command {
        self.entry
    }

    /// Whether a specific flag was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    /// A flag's value, or `None` when absent.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// A string flag, or `default` when absent.
    pub fn string_or(&self, flag: &str, default: &str) -> String {
        self.flags
            .get(flag)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// A required string flag.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::MissingFlag`] when absent.
    pub fn string_required(&self, flag: &str) -> Result<String, ParseError> {
        self.flags
            .get(flag)
            .cloned()
            .ok_or_else(|| ParseError::MissingFlag(flag.to_string()))
    }

    /// A flag whose value must be one of `allowed`, or `None` when
    /// absent.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::InvalidValue`] for any other value.
    pub fn one_of(&self, flag: &str, allowed: &[&str]) -> Result<Option<&str>, ParseError> {
        match self.flags.get(flag) {
            None => Ok(None),
            Some(v) if allowed.contains(&v.as_str()) => Ok(Some(v)),
            Some(v) => Err(ParseError::InvalidValue {
                flag: flag.to_string(),
                value: v.clone(),
            }),
        }
    }

    /// An integer flag, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::InvalidValue`] when present but unparsable.
    pub fn u64_or(&self, flag: &str, default: u64) -> Result<u64, ParseError> {
        match self.flags.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ParseError::InvalidValue {
                flag: flag.to_string(),
                value: v.clone(),
            }),
        }
    }

    /// A `usize` flag, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::InvalidValue`] when present but unparsable.
    pub fn usize_or(&self, flag: &str, default: usize) -> Result<usize, ParseError> {
        self.u64_or(flag, default as u64).map(|v| v as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_and_flags() {
        let a = Args::parse(["build", "--routes", "10", "--out", "x.gdab"]).unwrap();
        assert_eq!(a.entry().command(), "build");
        assert_eq!(a.usize_or("routes", 0).unwrap(), 10);
        assert_eq!(a.string_required("out").unwrap(), "x.gdab");
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = Args::parse(["world"]).unwrap();
        assert_eq!(a.u64_or("seed", 7).unwrap(), 7);
        assert_eq!(a.string_or("mode", "fast"), "fast");
    }

    #[test]
    fn rejects_unknown_command_and_missing_command() {
        assert_eq!(
            Args::parse(["frobnicate"]),
            Err(ParseError::UnknownCommand("frobnicate".into()))
        );
        // The retired workload harness is gone from the command set.
        assert_eq!(
            Args::parse(["bench"]),
            Err(ParseError::UnknownCommand("bench".into()))
        );
        assert_eq!(
            Args::parse(Vec::<String>::new()),
            Err(ParseError::MissingCommand)
        );
    }

    #[test]
    fn rejects_malformed_flags() {
        assert!(matches!(
            Args::parse(["build", "routes", "10"]),
            Err(ParseError::MalformedFlag(_))
        ));
        assert!(matches!(
            Args::parse(["build", "--routes"]),
            Err(ParseError::MalformedFlag(_))
        ));
        assert!(matches!(
            Args::parse(["build", "--", "x"]),
            Err(ParseError::MalformedFlag(_))
        ));
    }

    #[test]
    fn rejects_duplicates_and_bad_values() {
        assert_eq!(
            Args::parse(["build", "--seed", "1", "--seed", "2"]),
            Err(ParseError::DuplicateFlag("seed".into()))
        );
        let a = Args::parse(["build", "--seed", "banana"]).unwrap();
        assert_eq!(
            a.u64_or("seed", 0),
            Err(ParseError::InvalidValue {
                flag: "seed".into(),
                value: "banana".into()
            })
        );
    }

    #[test]
    fn unknown_flags_are_rejected_when_asked() {
        // Every command path asks: its usage line is its flag spec.
        assert_eq!(
            Args::parse(["loadtest", "--scenario", "micro", "--verfiy", "none"]),
            Err(ParseError::UnknownFlag("verfiy".into()))
        );
        let a = Args::parse(["loadtest", "--scenario", "micro", "--verify", "none"]).unwrap();
        assert_eq!(a.one_of("verify", &["local", "none"]), Ok(Some("none")));
        assert!(ParseError::UnknownFlag("x".into())
            .to_string()
            .contains("--x"));
    }

    #[test]
    fn snapshot_actions_parse_and_validate() {
        let a = Args::parse(["snapshot", "save", "--out", "x.gdab"]).unwrap();
        assert_eq!(a.entry().command(), "snapshot");
        assert_eq!(a.entry().action(), Some("save"));
        assert_eq!(a.string_required("out").unwrap(), "x.gdab");
        // A typo'd or missing action fails loudly instead of being read
        // as a flag soup.
        assert!(matches!(
            Args::parse(["snapshot", "savee"]),
            Err(ParseError::UnknownAction {
                action: Some(_),
                ..
            })
        ));
        assert!(matches!(
            Args::parse(["snapshot"]),
            Err(ParseError::UnknownAction { action: None, .. })
        ));
        assert!(matches!(
            Args::parse(["snapshot", "--out", "x"]),
            Err(ParseError::UnknownAction { .. })
        ));
        // The wal command follows the same action discipline.
        let a = Args::parse(["wal", "inspect", "--dir", "logs"]).unwrap();
        assert_eq!(a.entry().command(), "wal");
        assert_eq!(a.entry().action(), Some("inspect"));
        assert_eq!(
            Args::parse(["wal", "replay"]).unwrap().entry().action(),
            Some("replay")
        );
        assert!(matches!(
            Args::parse(["wal", "compact"]),
            Err(ParseError::UnknownAction {
                action: Some(_),
                ..
            })
        ));
        // Action-less commands stay action-less.
        assert_eq!(Args::parse(["world"]).unwrap().entry().action(), None);
        assert!(ParseError::UnknownAction {
            command: "snapshot".into(),
            action: None
        }
        .to_string()
        .contains("needs an action"));
        assert!(ParseError::UnknownAction {
            command: "snapshot".into(),
            action: Some("savee".into())
        }
        .to_string()
        .contains("savee"));
    }

    #[test]
    fn a_missing_action_suggests_a_path_that_parses() {
        for command in ["snapshot", "wal"] {
            let message = Args::parse([command]).unwrap_err().to_string();
            // "`wal` needs an action (e.g. `wal inspect`)"
            let example = message.split('`').nth(3).expect("an example path");
            assert!(
                Args::parse(example.split(' ')).is_ok(),
                "{message}: `{example}` does not parse"
            );
        }
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let a = Args::parse(["snapshot", "inspect", "--json", "--in", "x.gdab"]).unwrap();
        assert!(a.has("json"));
        assert_eq!(a.string_required("in").unwrap(), "x.gdab");
        // Trailing position works too (nothing left to swallow).
        let a = Args::parse(["snapshot", "inspect", "--in", "x.gdab", "--json"]).unwrap();
        assert!(a.has("json"));
        assert_eq!(
            Args::parse(["snapshot", "inspect", "--json", "--json"]),
            Err(ParseError::DuplicateFlag("json".into()))
        );
    }

    #[test]
    fn missing_required_flag_is_reported() {
        let a = Args::parse(["stats"]).unwrap();
        assert_eq!(
            a.string_required("index"),
            Err(ParseError::MissingFlag("index".into()))
        );
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(ParseError::MissingCommand
            .to_string()
            .contains("subcommand"));
        assert!(ParseError::DuplicateFlag("x".into())
            .to_string()
            .contains("--x"));
    }
}
