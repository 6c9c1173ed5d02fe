//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints notes (decision digest, sample counts,
//! probe cross-checks) and then, as the last line, one JSON object with
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits 1 when any output failed verification and 2 on
//! a usage error. Traced runs write their spans to
//! `.bench_build/perfbench-spans/<workload>-<seed>.tsv`.

use perfbench::report::{END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {value}: not a duration"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !perfbench::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            perfbench::WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let out = perfbench::run(&args.workload, args.seed, args.seconds, args.trace)
        .expect("the workload name was checked");
    for note in &out.notes {
        println!("# {note}");
    }
    println!(
        "# decision digest {:016x}; failed_ratio {} ({} of {} failed verification)",
        out.digest,
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    if out.spans.enabled() {
        let spans = &out.spans;
        let path = PathBuf::from(".bench_build/perfbench-spans")
            .join(format!("{}-{}.tsv", args.workload, args.seed));
        match spans.write_tsv(&path) {
            Ok(()) => println!(
                "# {} spans written to {}",
                spans.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("warning: spans not written to {}: {e}", path.display()),
        }
    }
    let set = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", out.json_line(set));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
