//! Minimal `--key value` / `--key=value` / `--flag` argument parsing (the
//! workspace's dependency policy excludes argument-parsing crates).

use std::collections::HashMap;

/// Parsed command-line arguments: `--key value` options and bare `--flag`s.
#[derive(Debug, Default)]
pub struct Args {
    opts: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses the raw argument list of a subcommand that accepts the
    /// valued options `opts` and the bare flags `flags`. Accepted token
    /// shapes:
    ///
    /// * `--key=value` — one token, split at the first `=`;
    /// * `--key value` — `--key` consumes the next token as its value,
    ///   which must not itself start with `--`;
    /// * `--flag` — a key from `flags`, which never takes a value.
    ///
    /// Any other token is a hard error: a key the subcommand does not
    /// declare, an option with no value, a flag given a value, or a stray
    /// positional (almost always a typo — e.g. `--scale0.5` or a forgotten
    /// `--`).
    pub fn parse(argv: &[String], opts: &[&str], flags: &[&str]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let token = &argv[i];
            let Some(key) = token.strip_prefix("--") else {
                return Err(format!(
                    "unexpected positional argument: {token} (options are --key value or --key=value)"
                ));
            };
            if key.is_empty() {
                return Err("bare -- is not a valid option".into());
            }
            let (key, inline) = match key.split_once('=') {
                Some(("", _)) => return Err(format!("malformed option: {token}")),
                Some((k, v)) => (k, Some(v)),
                None => (key, None),
            };
            i += 1;
            if opts.contains(&key) {
                let value = match inline {
                    Some(v) => v,
                    None if i < argv.len() && !argv[i].starts_with("--") => {
                        i += 1;
                        &argv[i - 1]
                    }
                    None => return Err(format!("option --{key} needs a value")),
                };
                args.opts.insert(key.to_string(), value.to_string());
            } else if flags.contains(&key) {
                if inline.is_some() {
                    return Err(format!("flag --{key} takes no value"));
                }
                args.flags.push(key.to_string());
            } else {
                return Err(format!("unknown option: --{key}"));
            }
        }
        Ok(args)
    }

    /// String option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.opts.get(key).map(String::as_str)
    }

    /// Required string option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// Parsed option with a default.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{key}: {v}")),
        }
    }

    /// A count that must be at least one (threads, processors, disks).
    pub fn count_or(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.parse_or(key, default)? {
            0 => Err(format!("invalid value for --{key}: 0 (must be at least 1)")),
            n => Ok(n),
        }
    }

    /// Whether a bare flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPTS: &[&str] = &[
        "scale", "seed", "out", "tag", "procs", "disks", "tree", "map",
    ];
    const FLAGS: &[&str] = &["str"];

    fn try_parse(s: &[&str]) -> Result<Args, String> {
        Args::parse(
            &s.iter().map(|x| x.to_string()).collect::<Vec<_>>(),
            OPTS,
            FLAGS,
        )
    }

    fn parse(s: &[&str]) -> Args {
        try_parse(s).unwrap()
    }

    fn parse_err(s: &[&str]) -> String {
        try_parse(s).unwrap_err()
    }

    #[test]
    fn options_and_flags() {
        let a = parse(&["--scale", "0.5", "--str", "--seed", "7"]);
        assert_eq!(a.get("scale"), Some("0.5"));
        assert_eq!(a.get("seed"), Some("7"));
        assert!(a.flag("str"));
        assert!(!a.flag("missing"));
    }

    #[test]
    fn equals_syntax() {
        let a = parse(&["--scale=0.5", "--out=a=b.bin", "--str"]);
        assert_eq!(a.get("scale"), Some("0.5"));
        // Only the first = splits; values may contain =.
        assert_eq!(a.get("out"), Some("a=b.bin"));
        assert!(a.flag("str"));
    }

    #[test]
    fn equals_with_empty_value() {
        let a = parse(&["--tag="]);
        assert_eq!(a.get("tag"), Some(""));
    }

    #[test]
    fn stray_positional_is_a_hard_error() {
        let e = parse_err(&["--scale", "0.5", "oops"]);
        assert!(e.contains("oops"), "{e}");
        assert!(parse_err(&["build", "--map", "x"]).contains("build"));
        // A flag never swallows the token after it.
        assert!(parse_err(&["--str", "x.bin"]).contains("x.bin"));
    }

    #[test]
    fn malformed_dashes_are_errors() {
        assert!(try_parse(&["--"]).is_err());
        assert!(try_parse(&["--=v"]).is_err());
    }

    #[test]
    fn parse_or_defaults() {
        let a = parse(&["--procs", "12"]);
        assert_eq!(a.parse_or("procs", 1usize).unwrap(), 12);
        assert_eq!(a.parse_or("disks", 4usize).unwrap(), 4);
        assert!(a.parse_or::<usize>("procs", 0).is_ok());
    }

    #[test]
    fn invalid_value_is_an_error() {
        let a = parse(&["--procs", "twelve"]);
        assert!(a.parse_or::<usize>("procs", 1).is_err());
        let a = parse(&["--procs", "0"]);
        assert!(a.count_or("procs", 8).unwrap_err().contains("at least 1"));
        assert_eq!(a.count_or("disks", 8).unwrap(), 8);
    }

    #[test]
    fn require_reports_missing() {
        let a = parse(&[]);
        assert!(a.require("tree").is_err());
    }

    #[test]
    fn flag_followed_by_option() {
        let a = parse(&["--str", "--out", "x.bin"]);
        assert!(a.flag("str"));
        assert_eq!(a.get("out"), Some("x.bin"));
    }

    #[test]
    fn undeclared_keys_are_errors() {
        assert!(parse_err(&["--sede", "7"]).contains("unknown option: --sede"));
        assert!(parse_err(&["--missing"]).contains("unknown option: --missing"));
        assert!(parse_err(&["--str=yes"]).contains("takes no value"));
    }

    #[test]
    fn option_without_value_is_an_error() {
        assert!(parse_err(&["--procs"]).contains("--procs needs a value"));
        assert!(parse_err(&["--procs", "--str"]).contains("--procs needs a value"));
    }
}
