//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the workload's metrics by name and unit, then, as the last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Full reports go to `perfbench/out/` under the current
//! directory.

use perfbench::metrics::Metric;
use perfbench::{report, run, Config, Workload};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <classify-cold|serve-warm|serve-ingest|suite-audit|all> \
     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<(Vec<Workload>, Config), String> {
    let mut cfg = Config {
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut workloads = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                workloads = Some(vec![
                    Workload::parse(value).ok_or(format!("unknown workload {value}"))?
                ])
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cfg.seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workloads.ok_or("--workload is required")?, cfg))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workloads, cfg) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new("perfbench").join("out");
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut combined: Vec<Metric> = Vec::new();
    for &w in &workloads {
        let r = run(w, &cfg);
        print!("{}", report::summary(&r));
        if let Err(e) = report::write_files(&r, &out_dir) {
            eprintln!("perfbench: cannot write the report: {e}");
        }
        correct &= r.correct();
        attempted += r.tally.attempted;
        failed += r.tally.failed;
        let prefix = |m: &Metric| Metric::new(format!("{}.{}", w.name(), m.name), m.value, m.unit);
        combined.extend(if workloads.len() > 1 {
            r.named.iter().chain(&r.metrics).map(prefix).collect()
        } else {
            r.metrics.clone()
        });
    }
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &combined)
    );
    ExitCode::SUCCESS
}
