//! Reproduces Figure 3: average number of links in equilibrium networks
//! of the BCG and UCG as a function of link cost.
//!
//! Usage: fig3_avg_links [--n 7] [--threads T] [--csv]
//!        [--atlas PATH] [--shards auto|R | --shard i/m] [--resume]
//!        [--grid paper|linear:LO:HI:STEPS|log2:LO:HI:PER_OCT]
//!        [--report-json PATH]

use bnf_empirics::{
    fmt_stat, parse_sweep_flags, render_csv, render_table, run_sweep_cli, sweep_order_flag,
    SweepConfig,
};
use bnf_games::GameKind;

fn main() {
    let flags = parse_sweep_flags("fig3_avg_links", &["--csv"]);
    let n: usize = sweep_order_flag(&flags, 7);
    let mut config = SweepConfig::standard(n);
    config.threads = flags.number("--threads", config.threads);
    let sweep = run_sweep_cli(&config, &flags);
    let bcg = sweep.stats(GameKind::Bilateral);
    let ucg = sweep.stats(GameKind::Unilateral);
    let headers = [
        "alpha",
        "log2(a)",
        "BCG#",
        "BCG avg links",
        "UCG#",
        "UCG avg links",
    ];
    let rows: Vec<Vec<String>> = bcg
        .iter()
        .zip(&ucg)
        .map(|(b, u)| {
            vec![
                b.alpha.to_string(),
                fmt_stat(b.alpha.to_f64().log2()),
                b.count.to_string(),
                fmt_stat(b.mean_links),
                u.count.to_string(),
                fmt_stat(u.mean_links),
            ]
        })
        .collect();
    if flags.switch("--csv") {
        print!("{}", render_csv(&headers, &rows));
    } else {
        println!("Figure 3 — average number of links in equilibrium networks, n={n}\n");
        println!("{}", render_table(&headers, &rows));
        let aligned: Vec<Vec<String>> = bcg
            .iter()
            .filter_map(|b| {
                let target = b.alpha + b.alpha;
                let u = ucg.iter().find(|u| u.alpha == target)?;
                Some(vec![
                    fmt_stat((2.0 * b.alpha.to_f64()).log2()),
                    b.alpha.to_string(),
                    fmt_stat(b.mean_links),
                    u.alpha.to_string(),
                    fmt_stat(u.mean_links),
                ])
            })
            .collect();
        println!("\nPaper-aligned overlay (same x = log(2a_BCG) = log(a_UCG)):\n");
        println!(
            "{}",
            render_table(
                &["x", "a_BCG", "BCG avg links", "a_UCG", "UCG avg links"],
                &aligned
            )
        );
    }
}
