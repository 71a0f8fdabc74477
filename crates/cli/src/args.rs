//! Flag parsing for `trajmine`.

use std::collections::BTreeMap;
use std::fmt;

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (`generate`, `stats`, `mine`).
    pub command: String,
    options: BTreeMap<String, String>,
}

/// Errors from argument parsing and typed lookups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// A flag without a value, or a bare value without a flag.
    Malformed {
        /// The offending token.
        token: String,
    },
    /// A value failed to parse as the requested type.
    BadValue {
        /// Flag name.
        key: String,
        /// The raw value.
        value: String,
    },
    /// A required flag was absent.
    Missing {
        /// Flag name.
        key: String,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "missing subcommand"),
            ArgError::Malformed { token } => write!(f, "malformed argument '{token}'"),
            ArgError::BadValue { key, value } => {
                write!(f, "invalid value '{value}' for --{key}")
            }
            ArgError::Missing { key } => write!(f, "missing required flag --{key}"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses `argv` (without the program name).
    pub fn parse(argv: Vec<String>) -> Result<Args, ArgError> {
        let mut it = argv.into_iter();
        let mut command = it.next().ok_or(ArgError::MissingCommand)?;
        if command.starts_with('-') {
            return Err(ArgError::Malformed { token: command });
        }
        // `db`, `query`, and `feed` take a second command word
        // (`trajmine db ingest …`, `trajmine query prange …`,
        // `trajmine feed decode …`); every other command treats a bare
        // token as malformed.
        if command == "db" || command == "query" || command == "feed" {
            match it.next() {
                Some(sub) if !sub.starts_with('-') => command = format!("{command} {sub}"),
                _ => return Err(ArgError::MissingCommand),
            }
        }
        let mut options = BTreeMap::new();
        while let Some(token) = it.next() {
            let key = token
                .strip_prefix("--")
                .ok_or_else(|| ArgError::Malformed {
                    token: token.clone(),
                })?
                .to_string();
            let value = it.next().ok_or_else(|| ArgError::Malformed {
                token: token.clone(),
            })?;
            options.insert(key, value);
        }
        Ok(Args { command, options })
    }

    /// Raw string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(|s| s.as_str())
    }

    /// Required string option.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key).ok_or(ArgError::Missing {
            key: key.to_string(),
        })
    }

    /// Typed option with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgError::BadValue {
                key: key.to_string(),
                value: raw.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let a = Args::parse(v(&["mine", "--k", "10", "--input", "d.json"])).unwrap();
        assert_eq!(a.command, "mine");
        assert_eq!(a.get("k"), Some("10"));
        assert_eq!(a.get_or("k", 5usize).unwrap(), 10);
        assert_eq!(a.require("input").unwrap(), "d.json");
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = Args::parse(v(&["stats"])).unwrap();
        assert_eq!(a.get_or("k", 7usize).unwrap(), 7);
        assert!(matches!(a.require("input"), Err(ArgError::Missing { .. })));
    }

    #[test]
    fn rejects_malformed() {
        assert!(matches!(Args::parse(v(&[])), Err(ArgError::MissingCommand)));
        assert!(matches!(
            Args::parse(v(&["--k", "5"])),
            Err(ArgError::Malformed { .. })
        ));
        assert!(matches!(
            Args::parse(v(&["mine", "--k"])),
            Err(ArgError::Malformed { .. })
        ));
        assert!(matches!(
            Args::parse(v(&["mine", "k", "5"])),
            Err(ArgError::Malformed { .. })
        ));
    }

    #[test]
    fn db_takes_a_second_command_word() {
        let a = Args::parse(v(&["db", "ingest", "--db", "store", "--input", "d.json"])).unwrap();
        assert_eq!(a.command, "db ingest");
        assert_eq!(a.require("db").unwrap(), "store");
        assert!(matches!(
            Args::parse(v(&["db"])),
            Err(ArgError::MissingCommand)
        ));
        assert!(matches!(
            Args::parse(v(&["db", "--db", "store"])),
            Err(ArgError::MissingCommand)
        ));
    }

    #[test]
    fn feed_takes_a_second_command_word() {
        let a = Args::parse(v(&[
            "feed", "decode", "--input", "d.drlog", "--out", "d.events",
        ]))
        .unwrap();
        assert_eq!(a.command, "feed decode");
        assert!(matches!(
            Args::parse(v(&["feed"])),
            Err(ArgError::MissingCommand)
        ));
    }

    #[test]
    fn query_takes_a_second_command_word() {
        let a = Args::parse(v(&["query", "prange", "--input", "d.csv"])).unwrap();
        assert_eq!(a.command, "query prange");
        assert_eq!(a.require("input").unwrap(), "d.csv");
        assert!(matches!(
            Args::parse(v(&["query"])),
            Err(ArgError::MissingCommand)
        ));
        assert!(matches!(
            Args::parse(v(&["query", "--p", "0,0"])),
            Err(ArgError::MissingCommand)
        ));
    }

    #[test]
    fn bad_typed_value_is_reported() {
        let a = Args::parse(v(&["mine", "--k", "many"])).unwrap();
        assert!(matches!(
            a.get_or("k", 1usize),
            Err(ArgError::BadValue { .. })
        ));
    }
}
