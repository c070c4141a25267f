//! The per-layer ledger of one traced run: rows of wall-clock seconds
//! that add up to the run's end-to-end wall-clock through an explicit
//! `unattributed` row.
//!
//! Work that runs on several threads at once enters as thread-seconds
//! divided by the thread count, so a row is that layer's share of the
//! wall-clock. Work that overlaps rows already counted (the writer
//! thread of the cold sweep) is listed apart and left out of the sum.

use std::fmt::Write as _;

/// A ledger under construction.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    rows: Vec<(String, f64)>,
    overlapped: Vec<(String, f64)>,
}

impl Ledger {
    /// Adds `seconds` of wall-clock to row `name` (created on first use).
    pub fn add(&mut self, name: &str, seconds: f64) {
        match self.rows.iter_mut().find(|(n, _)| n == name) {
            Some((_, s)) => *s += seconds,
            None => self.rows.push((name.to_owned(), seconds)),
        }
    }

    /// Records work that ran concurrently with the summed rows.
    pub fn add_overlapped(&mut self, name: &str, seconds: f64) {
        self.overlapped.push((name.to_owned(), seconds));
    }

    /// Wall-clock not covered by any row.
    pub fn unattributed(&self, wall: f64) -> f64 {
        wall - self.rows.iter().map(|(_, s)| s).sum::<f64>()
    }

    /// The rows followed by `unattributed`; their sum is `wall`.
    pub fn closed(&self, wall: f64) -> Vec<(String, f64)> {
        let mut rows = self.rows.clone();
        rows.push(("unattributed".to_owned(), self.unattributed(wall)));
        rows
    }

    /// The ledger as a text table: one row per layer with its share of
    /// `wall`, the `unattributed` row, the total, the overlapped work,
    /// and the tracing overhead — `(what, unit, traced, untraced)` of
    /// the quantity tracing slows down.
    pub fn render(
        &self,
        workload: &str,
        wall: f64,
        untraced_wall: f64,
        overhead: (&str, &str, f64, f64),
    ) -> String {
        let mut out = format!(
            "ledger {workload} (traced wall-clock {wall:.4} s, untraced {untraced_wall:.4} s)\n"
        );
        for (name, s) in self.closed(wall) {
            let _ = writeln!(out, "  {name:<42} {s:>10.4} s {:>7.2} %", 100.0 * s / wall);
        }
        let _ = writeln!(out, "  {:<42} {wall:>10.4} s  100.00 %", "total");
        for (name, s) in &self.overlapped {
            let _ = writeln!(out, "  {name:<42} {s:>10.4} s (overlapped, not summed)");
        }
        let (what, unit, traced, untraced) = overhead;
        let _ = writeln!(
            out,
            "  tracing overhead ({what}): traced {traced:.4} {unit} vs untraced {untraced:.4} {unit} ({:+.2} %)",
            100.0 * (traced - untraced) / untraced
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_sums_to_the_wall_clock() {
        let mut l = Ledger::default();
        l.add("atlas.open", 0.25);
        l.add("core.ucg_support", 1.5);
        l.add("core.ucg_support", 0.5);
        l.add_overlapped("atlas.append", 9.0);
        let wall = 3.0;
        let rows = l.closed(wall);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.last().unwrap().0, "unattributed");
        let sum: f64 = rows.iter().map(|(_, s)| s).sum();
        assert!((sum - wall).abs() < 1e-12);
        assert!((l.unattributed(wall) - 0.75).abs() < 1e-12);
        let text = l.render("w", wall, 2.9, ("wall-clock", "s", wall, 2.9));
        assert!(text.contains("unattributed"));
        assert!(text.contains("overlapped"));
        assert!(text.contains("tracing overhead"));
    }
}
