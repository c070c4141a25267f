//! The one command-line parser of every binary in the workspace:
//! `--name value` pairs and valueless `--name` switches from a fixed
//! set, each given at most once, plus — where a binary takes them —
//! positional arguments.
//!
//! Anything else — an unknown flag (say a leftover `--format 3`), a
//! stray argument, a flag without its value, a repeated flag, a value
//! that is not a number — is a usage error: one `error:` line on stderr
//! naming the binary's usage, and exit status 2, before any work.

/// The parsed flags: `--name value` pairs, and switches as pairs with
/// an empty value.
#[derive(Debug)]
pub struct Flags {
    pairs: Vec<(&'static str, String)>,
    usage: String,
}

impl Flags {
    /// Parses the process arguments against the valued flags `known`
    /// and the valueless `switches`; see [`Flags::parse_from`]. A usage
    /// error exits the process through [`Flags::fail`].
    pub fn parse(
        known: &[&'static str],
        switches: &[&'static str],
        positional: bool,
        usage: &str,
    ) -> (Flags, Vec<String>) {
        let args = std::env::args().skip(1);
        Flags::parse_from(args, known, switches, positional, usage)
            .unwrap_or_else(|msg| usage_error(&msg, usage))
    }

    /// Parses `args` (without the program name) against the valued
    /// flags `known` and the valueless `switches`. The argument after a
    /// valued flag is its value, whatever it looks like (`--n -1` gives
    /// `--n` the value `-1`). With `positional`, every other argument
    /// that does not start with `--` is returned in order; without it,
    /// such an argument is a usage error. Returns the usage error's
    /// message instead of exiting.
    pub fn parse_from(
        args: impl IntoIterator<Item = String>,
        known: &[&'static str],
        switches: &[&'static str],
        positional: bool,
        usage: &str,
    ) -> Result<(Flags, Vec<String>), String> {
        let mut flags = Flags {
            pairs: Vec::new(),
            usage: usage.to_owned(),
        };
        let mut rest = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if positional && !arg.starts_with("--") {
                rest.push(arg);
                continue;
            }
            let switch = switches.iter().find(|&&k| k == arg);
            let Some(&name) = known.iter().find(|&&k| k == arg).or(switch) else {
                return Err(format!("unknown argument {arg:?}"));
            };
            if flags.get(name).is_some() {
                return Err(format!("{name} given twice"));
            }
            let value = match switch {
                Some(_) => String::new(),
                None => args.next().ok_or_else(|| format!("{name} needs a value"))?,
            };
            flags.pairs.push((name, value));
        }
        Ok((flags, rest))
    }

    /// The value given for `name` (empty for a switch), if any.
    pub fn get(&self, name: &str) -> Option<&str> {
        let pair = self.pairs.iter().find(|(n, _)| *n == name);
        pair.map(|(_, v)| v.as_str())
    }

    /// Whether the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// The value given for the required flag `name`.
    pub fn require(&self, name: &str) -> &str {
        self.get(name)
            .unwrap_or_else(|| self.fail(&format!("missing {name}")))
    }

    /// The number given for `name`, or `default` when the flag is
    /// absent; a value that does not parse is a usage error.
    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.parsed(name)
            .unwrap_or_else(|msg| self.fail(&msg))
            .unwrap_or(default)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{name} wants a number, got {v:?}"))
            })
            .transpose()
    }

    /// Reports a usage error and exits 2.
    pub fn fail(&self, msg: &str) -> ! {
        usage_error(msg, &self.usage)
    }
}

fn usage_error(msg: &str, usage: &str) -> ! {
    eprintln!("error: {msg}; usage: {usage}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNOWN: &[&str] = &["--n", "--out"];
    const SWITCHES: &[&str] = &["--csv"];

    fn parse(args: &[&str], positional: bool) -> Result<(Flags, Vec<String>), String> {
        let args = args.iter().map(|a| a.to_string());
        Flags::parse_from(args, KNOWN, SWITCHES, positional, "test [--n N]")
    }

    #[test]
    fn declared_flags_and_switches_parse() {
        let (flags, rest) = parse(&["--n", "7", "--csv"], false).unwrap();
        assert!(rest.is_empty());
        assert_eq!(flags.get("--n"), Some("7"));
        assert_eq!(flags.get("--out"), None);
        assert!(flags.switch("--csv"));
        assert_eq!(flags.number("--n", 3usize), 7);
        assert_eq!(flags.number("--out", 3usize), 3, "absent: the default");
        let (flags, _) = parse(&[], false).unwrap();
        assert!(!flags.switch("--csv"));
    }

    #[test]
    fn usage_errors_name_the_argument() {
        let cases: [(&[&str], &str); 6] = [
            (&["--bogus"], "unknown argument \"--bogus\""),
            (&["--bogus", "1"], "unknown argument \"--bogus\""),
            (&["--n", "7", "--n", "8"], "--n given twice"),
            (&["--csv", "--csv"], "--csv given twice"),
            (&["--n"], "--n needs a value"),
            (&["stray"], "unknown argument \"stray\""),
        ];
        for (args, want) in cases {
            assert_eq!(parse(args, false).err().as_deref(), Some(want), "{args:?}");
        }
        // With positionals, an unknown `--flag` is still refused.
        let err = parse(&["seg", "--bogus"], true).err();
        assert_eq!(err.as_deref(), Some("unknown argument \"--bogus\""));
    }

    #[test]
    fn positionals_are_returned_in_order() {
        let (flags, rest) = parse(&["a", "--out", "o", "b", "--csv", "c"], true).unwrap();
        assert_eq!(rest, ["a", "b", "c"]);
        assert_eq!(flags.get("--out"), Some("o"));
        assert!(flags.switch("--csv"));
    }

    #[test]
    fn a_flag_takes_the_next_argument_whatever_it_looks_like() {
        let (flags, _) = parse(&["--n", "-1"], false).unwrap();
        assert_eq!(flags.get("--n"), Some("-1"));
        assert_eq!(flags.parsed::<i32>("--n"), Ok(Some(-1)));
        let (flags, _) = parse(&["--out", "--csv"], false).unwrap();
        assert_eq!(flags.get("--out"), Some("--csv"));
        assert!(!flags.switch("--csv"));
    }

    #[test]
    fn non_numeric_values_are_refused() {
        let (flags, _) = parse(&["--n", "seven"], false).unwrap();
        let err = flags.parsed::<usize>("--n").err();
        assert_eq!(err.as_deref(), Some("--n wants a number, got \"seven\""));
        let (flags, _) = parse(&["--n", "-1"], false).unwrap();
        let err = flags.parsed::<usize>("--n").err();
        assert_eq!(err.as_deref(), Some("--n wants a number, got \"-1\""));
    }
}
