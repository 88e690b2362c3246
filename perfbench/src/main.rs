//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints a provenance line, a detail line with the workload's figures
//! under their domain names, and, last, the result line. Exits non-zero
//! when a correctness check fails.

use perfbench::report::provenance_json;
use perfbench::{Scale, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(2017),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <serve-warm|serve-churn|campaign|lifecycle> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("{}", provenance_json(workers));
    let mut sources = Vec::new();
    let out = args.workload.run(
        Scale::Full,
        args.seed,
        args.seconds,
        args.trace,
        &mut sources,
    );
    let mut detail = out.detail.clone();
    detail.put("seed", args.seed as f64, "count");
    detail.put(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    println!(
        "{{\"workload\": \"{}\", \"detail\": {}}}",
        args.workload.name(),
        detail.to_json()
    );
    if args.trace {
        let list: Vec<String> = sources
            .iter()
            .map(|(m, w)| format!("\"{m}\": \"{w} (tiny)\""))
            .collect();
        println!("{{\"layer_sources\": {{{}}}}}", list.join(", "));
    }
    for check in &out.failed_checks {
        eprintln!("perfbench: correctness check failed: {check}");
    }
    println!("{}", out.result_line(args.trace));
    if !out.failed_checks.is_empty() {
        std::process::exit(1);
    }
}
