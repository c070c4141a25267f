//! Flag parsing shared by the atlas binaries: `--name value` pairs
//! from a fixed set, each given at most once. Anything else — an
//! unknown flag (say a leftover `--format 3`), a stray argument, a
//! flag without its value, a missing required flag — is a usage error:
//! one `error:` line on stderr and exit status 2, before any work.

/// The parsed `--name value` pairs.
pub struct Flags {
    pairs: Vec<(&'static str, String)>,
    usage: &'static str,
}

impl Flags {
    /// Parses the process arguments against `known`.
    pub fn parse(known: &[&'static str], usage: &'static str) -> Flags {
        let mut flags = Flags {
            pairs: Vec::new(),
            usage,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let Some(&name) = known.iter().find(|&&k| k == arg) else {
                flags.fail(&format!("unknown argument {arg:?}"))
            };
            if flags.get(name).is_some() {
                flags.fail(&format!("{name} given twice"))
            }
            let Some(value) = args.next() else {
                flags.fail(&format!("{name} needs a value"))
            };
            flags.pairs.push((name, value));
        }
        flags
    }

    /// The value given for `name`, if any.
    pub fn get(&self, name: &str) -> Option<String> {
        let pair = self.pairs.iter().find(|(n, _)| *n == name);
        pair.map(|(_, v)| v.clone())
    }

    /// The value given for the required flag `name`.
    pub fn require(&self, name: &str) -> String {
        self.get(name)
            .unwrap_or_else(|| self.fail(&format!("missing {name}")))
    }

    fn fail(&self, msg: &str) -> ! {
        eprintln!("error: {msg}; usage: {}", self.usage);
        std::process::exit(2)
    }
}
