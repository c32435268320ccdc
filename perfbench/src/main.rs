//! The pwrperf benchmark: one command, four closed-loop workloads.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-grid --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints one line per metric, then, as the last line of stdout, a JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the gated
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 when any output check fails, 2 on bad arguments.
//! See README.md for the workloads and every metric.

mod batch;
mod derive;
mod host;
mod layers;
mod paper;
mod probe;
mod report;
mod service;
mod stats;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Host seconds the timed loop runs (split evenly between the
    /// untraced and traced halves with `--trace 1`).
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <paper-grid|scale-1024|service-read|service-mix> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

const WORKLOADS: [&str; 4] = ["paper-grid", "scale-1024", "service-read", "service-mix"];

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?,
                "--seconds" => {
                    args.seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or(format!("bad seconds '{value}'"))?
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad trace '{value}'")),
                    }
                }
                _ => return Err(format!("bad argument {flag} {value}")),
            }
        }
        if args.workload.is_empty() {
            return Err("--workload is required".to_string());
        }
        Ok(args)
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "paper-grid" => batch::paper_grid(&args),
        "scale-1024" => batch::scale_1024(&args),
        "service-read" => service::service(&args, false),
        _ => service::service(&args, true),
    };
    report::print(&args.workload, args.trace, &outcome);
    if outcome.failed > 0 {
        std::process::exit(1);
    }
}
