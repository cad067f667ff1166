//! The one command-line flag reader every `simsym` command uses.
//!
//! A command declares its flags as `(name, Arg)` pairs; [`Flags::read`]
//! walks the arguments once, takes each declared flag (and its value)
//! out, and keeps every other token, in order, as the rest. A declared
//! flag may appear at most once: a repeat is an error, never a silent
//! last-one-wins.

use std::str::FromStr;

/// What a declared flag takes after it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arg {
    /// Nothing: a switch such as `--json`.
    Switch,
    /// The next token, whatever it is. The string says what the value
    /// is, for the error when it is missing: `Value("a file")` gives
    /// "--against needs a file".
    Value(&'static str),
    /// The next token unless it is itself a flag: `--trace [FILE]`.
    Optional,
}

/// A valued flag whose missing value is reported as "needs a value".
pub const VALUE: Arg = Arg::Value("a value");

/// The flags one command was given.
#[derive(Debug)]
pub struct Flags {
    given: Vec<(&'static str, Option<String>)>,
    rest: Vec<String>,
}

impl Flags {
    /// Reads `args` against the declared flags.
    ///
    /// # Errors
    ///
    /// A declared flag given twice, or a valued flag at the end of the
    /// arguments.
    pub fn read(args: &[String], declared: &[(&'static str, Arg)]) -> Result<Flags, String> {
        let mut flags = Flags {
            given: Vec::new(),
            rest: Vec::new(),
        };
        let mut it = args.iter().peekable();
        while let Some(token) = it.next() {
            let Some(&(name, arg)) = declared.iter().find(|(n, _)| n == token) else {
                flags.rest.push(token.clone());
                continue;
            };
            if flags.has(name) {
                return Err(format!("{name} given twice"));
            }
            let value = match arg {
                Arg::Switch => None,
                Arg::Value(what) => Some(
                    it.next()
                        .ok_or_else(|| format!("{name} needs {what}"))?
                        .clone(),
                ),
                Arg::Optional => it.next_if(|v| !v.starts_with("--")).cloned(),
            };
            flags.given.push((name, value));
        }
        Ok(flags)
    }

    /// Whether `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The value given with `name`, if any.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.given
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The value given with `name`, parsed; a value that does not parse
    /// is reported as "bad {what} {value:?}".
    pub fn parse<T: FromStr>(&self, name: &str, what: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| format!("bad {what} {v:?}")))
            .transpose()
    }

    /// The value given with `name` as a positive count.
    pub fn count(&self, name: &str) -> Result<Option<usize>, String> {
        self.value(name)
            .map(|v| {
                v.parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("{name} needs a positive integer (got {v:?})"))
            })
            .transpose()
    }

    /// The tokens that were not declared flags, in order.
    pub fn rest(&self) -> &[String] {
        &self.rest
    }

    /// Fails on the first undeclared token, for commands that take
    /// flags only.
    pub fn reject_rest(&self, command: &str) -> Result<(), String> {
        match self.rest.first() {
            Some(other) => Err(format!("unknown {command} flag {other:?}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_each_kind_of_flag_once_and_keeps_the_rest() {
        let declared = &[
            ("--json", Arg::Switch),
            ("--seed", VALUE),
            ("--against", Arg::Value("a file")),
            ("--trace", Arg::Optional),
        ];
        let read = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            Flags::read(&args, declared)
        };
        let f = read(&["ring:4", "--seed", "7", "--mark", "p0", "--json", "--trace"]).unwrap();
        assert!(f.has("--json") && f.has("--trace") && !f.has("--against"));
        assert_eq!(f.parse::<u64>("--seed", "seed"), Ok(Some(7)));
        assert_eq!(f.value("--trace"), None);
        assert_eq!(f.rest(), ["ring:4", "--mark", "p0"]);
        assert_eq!(
            f.reject_rest("bench"),
            Err("unknown bench flag \"ring:4\"".into())
        );
        let f = read(&["--trace", "repro.json", "--seed", "x"]).unwrap();
        assert_eq!(f.value("--trace"), Some("repro.json"));
        assert_eq!(
            f.parse::<u64>("--seed", "seed"),
            Err("bad seed \"x\"".into())
        );
        assert!(f.count("--trace").unwrap_err().contains("positive integer"));

        assert_eq!(
            read(&["--json", "--json"]).unwrap_err(),
            "--json given twice"
        );
        assert_eq!(
            read(&["--seed", "1", "--seed", "1"]).unwrap_err(),
            "--seed given twice"
        );
        assert_eq!(read(&["--against"]).unwrap_err(), "--against needs a file");
        assert_eq!(read(&["--seed"]).unwrap_err(), "--seed needs a value");
    }
}
