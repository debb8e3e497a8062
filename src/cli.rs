//! Minimal `--flag value` argument parsing shared by the `domd` binary.
//!
//! The CLI's flag grammar is deliberately tiny (every option is a
//! `--name value` pair), so a dependency-free parser keeps the deployment
//! binary self-contained. Every parse failure is a typed
//! [`DomdError::Config`], which the binary maps to the usage exit code,
//! and so is a flag the command does not read ([`Args::check_known`]).

use domd_core::DomdError;

/// Parsed `--flag value` pairs, in order of appearance.
#[derive(Debug)]
pub struct Args {
    values: Vec<(String, String)>,
}

impl Args {
    /// Parses raw arguments; every token must be a `--flag` followed by a
    /// value, and each flag may appear at most once (a repeated flag is
    /// almost always a shell-history editing accident, and silently taking
    /// one occurrence hides which value actually applied).
    pub fn parse(raw: &[String]) -> Result<Args, DomdError> {
        let mut values: Vec<(String, String)> = Vec::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(DomdError::config(format!("expected --flag, found {flag:?}")));
            };
            let Some(value) = it.next() else {
                return Err(DomdError::config(format!("flag --{name} is missing its value")));
            };
            if let Some((_, prev)) = values.iter().find(|(n, _)| n == name) {
                return Err(DomdError::config(format!(
                    "flag --{name} given twice ({prev:?} and {value:?}); pass it once"
                )));
            }
            values.push((name.to_string(), value.clone()));
        }
        Ok(Args { values })
    }

    /// Refuses the first flag that is neither in `known` nor the global
    /// `--threads`. Each command reads only its own names, so a flag it
    /// does not read (a typo such as `--stor` for `--store`, or a retired
    /// option) would otherwise be ignored without a word.
    pub fn check_known(&self, command: &str, known: &[&str]) -> Result<(), DomdError> {
        let read = |name: &str| name == "threads" || known.contains(&name);
        let Some((name, _)) = self.values.iter().find(|(n, _)| !read(n)) else {
            return Ok(());
        };
        let reads: Vec<String> =
            known.iter().chain(&["threads"]).map(|n| format!("--{n}")).collect();
        Err(DomdError::config(format!(
            "`domd {command}` does not read --{name}; it reads {}",
            reads.join(", ")
        )))
    }

    /// The value of `--name`, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// The value of `--name`, or an error naming the missing flag.
    pub fn require(&self, name: &str) -> Result<&str, DomdError> {
        self.get(name)
            .ok_or_else(|| DomdError::config(format!("missing required flag --{name}")))
    }

    /// Parses `--name` into `T`, falling back to `default` when absent.
    pub fn parse_opt<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, DomdError>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(name) {
            None => Ok(default),
            Some(v) => {
                v.parse().map_err(|e| DomdError::config(format!("bad --{name} {v:?}: {e}")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Result<Args, DomdError> {
        Args::parse(&raw.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_flag_value_pairs() {
        let a = args(&["--data-dir", "x", "--seed", "7"]).unwrap();
        assert_eq!(a.get("data-dir"), Some("x"));
        assert_eq!(a.require("seed").unwrap(), "7");
        assert_eq!(a.parse_opt("seed", 0u64).unwrap(), 7);
        assert_eq!(a.parse_opt("missing", 42u64).unwrap(), 42);
    }

    #[test]
    fn rejects_bare_tokens_and_dangling_flags() {
        assert!(args(&["value-without-flag"]).is_err());
        let e = args(&["--flag"]).unwrap_err();
        assert!(e.to_string().contains("missing its value"));
        assert_eq!(e.kind(), "config");
    }

    #[test]
    fn reports_missing_and_malformed() {
        let a = args(&["--n", "notanumber"]).unwrap();
        assert!(a.require("absent").unwrap_err().to_string().contains("--absent"));
        let e = a.parse_opt::<u32>("n", 1).unwrap_err();
        assert!(e.to_string().contains("bad --n"));
        assert_eq!(e.kind(), "config");
    }

    #[test]
    fn duplicate_flags_are_rejected() {
        let e = args(&["--k", "1", "--k", "2"]).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("--k") && msg.contains("twice"), "{msg}");
        assert!(msg.contains("\"1\"") && msg.contains("\"2\""), "{msg}");
        assert!(matches!(e, DomdError::Config { .. }));
    }

    #[test]
    fn flags_a_command_does_not_read_are_refused_by_name() {
        let known = ["store", "data-dir", "lenient"];
        let a = args(&["--data-dir", "d", "--threads", "2", "--store", "s"]).unwrap();
        assert!(a.check_known("serve", &known).is_ok());
        let e = args(&["--data-dir", "d", "--stor", "s"]).unwrap().check_known("serve", &known);
        let e = e.unwrap_err();
        assert!(matches!(e, DomdError::Config { .. }));
        let msg = e.to_string();
        assert!(msg.contains("--stor;") && msg.contains("`domd serve`"), "{msg}");
        assert!(msg.contains("--store, --data-dir, --lenient, --threads"), "{msg}");
        // `--threads` is read by every command; nothing else is global.
        assert!(args(&["--threads", "0"]).unwrap().check_known("recover", &[]).is_ok());
        let e = args(&["--lenient", "true"]).unwrap().check_known("recover", &["store"]);
        assert!(e.unwrap_err().to_string().contains("--lenient"));
        assert!(args(&[]).unwrap().check_known("generate", &[]).is_ok());
    }

    #[test]
    fn empty_input_is_ok() {
        let a = args(&[]).unwrap();
        assert_eq!(a.get("anything"), None);
    }
}
