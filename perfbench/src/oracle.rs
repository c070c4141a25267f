//! The committed output oracle (`oracle.txt`): one `name value` pair a
//! line, compiled into the benchmark.

/// The parsed oracle.
#[derive(Debug)]
pub struct Oracle(Vec<(String, String)>);

impl Oracle {
    /// The oracle compiled into this binary.
    pub fn load() -> Oracle {
        Oracle(
            include_str!("../oracle.txt")
                .lines()
                .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
                .filter_map(|l| l.split_once(' '))
                .map(|(k, v)| (k.to_owned(), v.trim().to_owned()))
                .collect(),
        )
    }

    /// `Ok` when `measured` equals the oracle's value for `name`.
    pub fn check(&self, name: &str, measured: &str) -> Result<(), String> {
        match self.0.iter().find(|(k, _)| k == name) {
            Some((_, v)) if v == measured => Ok(()),
            Some((_, v)) => Err(format!(
                "oracle mismatch for {name}: expected {v}, measured {measured}"
            )),
            None => Err(format!(
                "oracle has no entry for {name} (measured {measured})"
            )),
        }
    }
}
