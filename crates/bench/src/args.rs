//! The one command-line reader behind every `ebda` subcommand.
//!
//! [`Args`] is consuming: each accessor removes what it recognises, and
//! [`Args::positionals`] / [`Args::finish`] reject whatever nobody asked
//! for, naming it — so a mistyped flag is a usage error, never a
//! silently different run. Read flags first, positionals last.

use std::fmt;
use std::str::FromStr;

/// Why a command did not succeed; `main` maps the variant to the exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The command line is wrong (unknown flag, missing or unparsable
    /// value, wrong arity): exit 2, printed with the subcommand's usage.
    Usage(String),
    /// The command ran and its check failed (not deadlock-free, mismatch,
    /// disagreement, rejected certificate), or an I/O step failed: exit 1.
    Failed(String),
}

impl CliError {
    /// A [`CliError::Usage`] from anything printable.
    pub fn usage(msg: impl Into<String>) -> CliError {
        CliError::Usage(msg.into())
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (CliError::Usage(msg) | CliError::Failed(msg)) = self;
        f.write_str(msg)
    }
}

/// Library errors are failures of the run, not of the command line.
impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Failed(msg)
    }
}

impl From<ebda_core::EbdaError> for CliError {
    fn from(e: ebda_core::EbdaError) -> CliError {
        CliError::Failed(e.to_string())
    }
}

/// The arguments of one subcommand, consumed as they are read.
#[derive(Debug)]
pub struct Args {
    rest: Vec<String>,
}

impl Args {
    /// Wraps the arguments after the program (and subcommand) name.
    pub fn new(rest: Vec<String>) -> Args {
        Args { rest }
    }

    /// Removes and returns the leading word: a subcommand or action name.
    pub fn word(&mut self) -> Option<String> {
        (!self.rest.is_empty()).then(|| self.rest.remove(0))
    }

    /// Removes the switch `flag`, returning whether it was there.
    pub fn switch(&mut self, flag: &str) -> bool {
        match self.rest.iter().position(|a| a == flag) {
            Some(i) => {
                self.rest.remove(i);
                true
            }
            None => false,
        }
    }

    /// Removes `flag <value>` and parses the value with `parse`.
    ///
    /// # Errors
    ///
    /// A usage error naming the flag when its value is missing (the flag
    /// is last, or followed by another `--flag`) or `parse` rejects it.
    pub fn value_with<T>(
        &mut self,
        flag: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, CliError> {
        let Some(i) = self.rest.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if self.rest.get(i + 1).is_none_or(|v| v.starts_with("--")) {
            return Err(CliError::Usage(format!("{flag} needs a value")));
        }
        let raw = self.rest.remove(i + 1);
        self.rest.remove(i);
        parse(&raw)
            .map(Some)
            .map_err(|e| CliError::Usage(format!("{flag} {raw:?}: {e}")))
    }

    /// [`Args::value_with`] through the type's [`FromStr`].
    ///
    /// # Errors
    ///
    /// See [`Args::value_with`].
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Result<Option<T>, CliError>
    where
        T::Err: fmt::Display,
    {
        self.value_with(flag, |raw| raw.parse().map_err(|e: T::Err| e.to_string()))
    }

    /// Ends the read: everything left must be positional and is returned
    /// in order.
    ///
    /// # Errors
    ///
    /// A usage error naming the first leftover `--flag`.
    pub fn positionals(self) -> Result<Vec<String>, CliError> {
        match self.rest.iter().find(|a| a.starts_with("--")) {
            Some(flag) => Err(CliError::Usage(format!("unknown flag {flag}"))),
            None => Ok(self.rest),
        }
    }

    /// Ends the read of a command that takes exactly `N` positionals;
    /// `what` names them in the error (`"a corpus directory"`).
    ///
    /// # Errors
    ///
    /// A usage error on a leftover flag or any other count.
    pub fn exactly<const N: usize>(self, what: &str) -> Result<[String; N], CliError> {
        <[String; N]>::try_from(self.positionals()?)
            .map_err(|got| CliError::Usage(format!("expected {what}, got {got:?}")))
    }

    /// Ends the read of a command that takes no positionals.
    ///
    /// # Errors
    ///
    /// A usage error naming the first thing left over.
    pub fn finish(self) -> Result<(), CliError> {
        self.exactly::<0>("no further arguments").map(|[]| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::new(s.split_whitespace().map(String::from).collect())
    }

    #[test]
    fn reads_in_any_order_and_returns_what_is_left() {
        let mut a = args("run dir --seed 9 --quick out.csv");
        assert_eq!(a.word().as_deref(), Some("run"));
        assert!(a.switch("--quick"));
        assert!(!a.switch("--quick"));
        assert_eq!(a.value::<u64>("--seed"), Ok(Some(9)));
        assert_eq!(a.value::<u64>("--budget"), Ok(None));
        assert_eq!(a.positionals().unwrap(), ["dir", "out.csv"]);
    }

    #[test]
    fn every_misuse_is_a_usage_error_naming_the_flag() {
        for (line, flag) in [
            ("--seed", "--seed needs a value"),
            ("--seed --quick", "--seed needs a value"),
            ("--seed x", "--seed \"x\""),
        ] {
            match args(line).value::<u64>("--seed") {
                Err(CliError::Usage(msg)) => assert!(msg.contains(flag), "{line}: {msg}"),
                other => panic!("{line}: {other:?}"),
            }
        }
        assert_eq!(
            args("dir --bogus 1").positionals(),
            Err(CliError::usage("unknown flag --bogus"))
        );
        assert!(args("stray").finish().is_err());
        assert!(args("a b").exactly::<1>("one file").is_err());
        assert_eq!(args("a").exactly::<1>("one file").unwrap(), ["a"]);
        args("").finish().unwrap();
    }
}
