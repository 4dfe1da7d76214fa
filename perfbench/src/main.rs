//! Command line of the emulator benchmark.
//!
//! ```text
//! evanesco-perfbench [--workload <name>|all] [--seed <n>] [--seconds <s>] [--trace 0|1]
//! ```
//!
//! Prints one `<workload> <metric> <value> <unit>` line per metric and, as
//! the last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. A traced run (`--trace 1`) prints the per-layer metrics
//! and writes its spans to `out/spans-<workload>-<seed>.json` beside this
//! package's manifest. Exits 1 when a correctness check fails, 2 on a
//! usage error.

use evanesco_perfbench::workloads::Workload;
use evanesco_perfbench::{result_json, run, Options, Outcome};
use std::process::ExitCode;

const USAGE: &str =
    "usage: evanesco-perfbench [--workload <name>|all] [--seed <n>] [--seconds <s>] [--trace 0|1]";

fn parse(args: &[String]) -> Result<(Vec<Workload>, Options), String> {
    let mut workloads = Workload::ALL.to_vec();
    let mut opts = Options { seed: 1, seconds: 25.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Workload::ALL.to_vec(),
            "--workload" => {
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                let w = Workload::from_name(value)
                    .ok_or_else(|| bad(&format!("expected one of {names:?} or all")))?;
                workloads = vec![w];
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(opts.seconds >= 0.0 && opts.seconds.is_finite()) {
                    return Err(bad("expected a non-negative number"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workloads, opts))
}

fn write_spans(o: &Outcome, seed: u64) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-{seed}.json", o.workload.name()));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, o.spans.to_chrome_json()));
    match written {
        Ok(()) => eprintln!("spans: {} written to {}", o.spans.spans().len(), path.display()),
        Err(e) => eprintln!("spans: cannot write {}: {e}", path.display()),
    }
    for (name, t) in o.spans.self_times() {
        eprintln!(
            "span {name:<28} n={:<6} total {:>10.3} ms  self {:>10.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workloads, opts) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcomes = Vec::new();
    for w in workloads {
        let o = run(w, opts);
        for m in &o.metrics {
            println!("{} {} {} {}", w.name(), m.name, m.value, m.unit);
        }
        if let Some(raw) = o.raw {
            println!("{} raw.host_pages_per_s {} 1/s", w.name(), raw.pages_per_s);
            println!("{} raw.setup_s {} s", w.name(), raw.setup_s);
            println!("{} calibration_factor {} x", w.name(), raw.factor);
        }
        for f in &o.failures {
            eprintln!("CHECK FAILED [{}]: {f}", w.name());
        }
        if opts.trace {
            write_spans(&o, opts.seed);
        }
        outcomes.push(o);
    }
    println!("{}", result_json(&outcomes));
    if outcomes.iter().all(|o| o.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
