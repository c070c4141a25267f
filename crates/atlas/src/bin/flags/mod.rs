//! Flag parsing shared by the atlas binaries: `--name value` pairs and
//! valueless `--name` switches from a fixed set, each given at most
//! once, plus — where a binary takes them — positional arguments.
//! Anything else — an unknown flag (say a leftover `--format 3`), a
//! stray argument, a flag without its value, a missing required flag —
//! is a usage error: one `error:` line on stderr and exit status 2,
//! before any work.

/// The parsed flags: `--name value` pairs, and switches as pairs with
/// an empty value.
pub struct Flags {
    pairs: Vec<(&'static str, String)>,
    usage: &'static str,
}

impl Flags {
    /// Parses the process arguments against the valued flags `known`
    /// and the valueless `switches`. With `positional`, every argument
    /// that does not start with `--` is returned in order; without it,
    /// such an argument is a usage error.
    pub fn parse(
        known: &[&'static str],
        switches: &[&'static str],
        positional: bool,
        usage: &'static str,
    ) -> (Flags, Vec<String>) {
        let mut flags = Flags {
            pairs: Vec::new(),
            usage,
        };
        let mut rest = Vec::new();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            if positional && !arg.starts_with("--") {
                rest.push(arg);
                continue;
            }
            let switch = switches.iter().find(|&&k| k == arg);
            let Some(&name) = known.iter().find(|&&k| k == arg).or(switch) else {
                flags.fail(&format!("unknown argument {arg:?}"))
            };
            if flags.get(name).is_some() {
                flags.fail(&format!("{name} given twice"))
            }
            let value = if switch.is_some() {
                String::new()
            } else {
                let Some(value) = args.next() else {
                    flags.fail(&format!("{name} needs a value"))
                };
                value
            };
            flags.pairs.push((name, value));
        }
        (flags, rest)
    }

    /// The value given for `name` (empty for a switch), if any.
    pub fn get(&self, name: &str) -> Option<String> {
        let pair = self.pairs.iter().find(|(n, _)| *n == name);
        pair.map(|(_, v)| v.clone())
    }

    /// The value given for the required flag `name`.
    pub fn require(&self, name: &str) -> String {
        self.get(name)
            .unwrap_or_else(|| self.fail(&format!("missing {name}")))
    }

    /// Reports a usage error and exits 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("error: {msg}; usage: {}", self.usage);
        std::process::exit(2)
    }
}
