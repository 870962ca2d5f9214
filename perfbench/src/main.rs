//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--spans <file>]`: runs one workload and prints its report as one
//! JSON line.

use perfbench::trace;
use perfbench::workloads::{self, RunArgs};

fn parse() -> Result<(RunArgs, Option<std::path::PathBuf>), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--spans" => spans = Some(std::path::PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok((
        RunArgs {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: traced,
        },
        spans,
    ))
}

fn main() {
    let (args, spans_path) = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.trace {
        trace::enable();
    }
    let mut report = match workloads::run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.trace {
        let spans = trace::spans();
        let self_ms = trace::self_ms_by_layer(&spans);
        for layer in trace::LAYERS {
            let ms = self_ms.get(layer).copied().unwrap_or(0.0);
            report.metric(format!("trace.self_ms.{layer}"), ms, "ms");
        }
        report.note("spans", spans.len());
        if let Some(path) = spans_path {
            if let Err(e) = trace::write_tsv(&path, &spans) {
                eprintln!("perfbench: writing {}: {e}", path.display());
            }
        }
    }
    let failed = !report.errors.is_empty();
    for e in &report.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{}", report.to_json().render());
    if failed {
        std::process::exit(1);
    }
}
