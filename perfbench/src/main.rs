//! Command-line entry of the host-time benchmark.
//!
//! ```text
//! perfbench --workload sweep_grid|suite_32|observe_32 --seed N
//!           --seconds S [--trace 0|1]
//! ```
//!
//! Prints the host fingerprint, the work digest, each metric's samples,
//! and as its last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A traced run also writes its spans to
//! `.bench_out/spans-<workload>-<seed>.json` under the working directory.

use std::fmt::Write as _;
use std::process::ExitCode;

use nowlab_perfbench::bench::{self, Config, Outcome, Workload};
use nowlab_perfbench::host::Fingerprint;
use nowlab_perfbench::stats::quartiles;

const USAGE: &str = "usage: perfbench --workload sweep_grid|suite_32|observe_32 --seed N \
--seconds S [--trace 0|1]";

/// Where a traced run writes its spans.
const SPANS_DIR: &str = ".bench_out";

fn parse_args(argv: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    Ok(Config {
        trace,
        ..Config::new(workload, seed, seconds)
    })
}

/// A JSON number; non-finite values (which JSON cannot carry) become 0.
fn num(x: f64) -> String {
    if x.is_finite() {
        // `+ 0.0` turns -0 (the sum of no samples) into 0.
        format!("{}", x + 0.0)
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn print_report(cfg: &Config, host: &Fingerprint, out: &Outcome) {
    println!(
        "host {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"nproc\": {}, \"cpu_model\": {}, \
         \"rustc\": {}, \"commit\": {}}}",
        string(cfg.workload.name()),
        cfg.seed,
        u8::from(cfg.trace),
        host.nproc,
        string(&host.cpu_model),
        string(&host.rustc),
        string(&host.commit),
    );
    for (i, r) in out.digest.iter().enumerate() {
        let d = &r.digest;
        println!(
            "digest {i} {} {} events={} msgs={} runtime_ns={} check={:016x}",
            r.app, r.mode, d.events, d.msgs, d.runtime_ns, d.check
        );
    }
    println!(
        "digest-hash {} {:016x} runs={} passes={}",
        cfg.workload.name(),
        out.digest_hash(),
        out.digest.len(),
        out.passes
    );
    for f in &out.failures {
        println!("failed {f}");
    }
    let samples: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let (q1, med, q3) = quartiles(&m.samples);
            format!(
                "{}: {{\"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}}}",
                string(&m.name),
                m.samples.len(),
                num(med),
                num(q1),
                num(q3)
            )
        })
        .collect();
    println!("samples {{{}}}", samples.join(", "));
}

fn write_spans(dir: &str, cfg: &Config, out: &Outcome) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/spans-{}-{}.json", cfg.workload.name(), cfg.seed);
    let rows: Vec<String> = out
        .spans
        .iter()
        .map(|s| {
            format!(
                "  {{\"id\": {}, \"name\": {}, \"start\": {}, \"end\": {}, \"parent\": {}}}",
                s.id,
                string(&s.name),
                num(s.start),
                num(s.end),
                s.parent.map_or("null".to_string(), |p| p.to_string())
            )
        })
        .collect();
    std::fs::write(&path, format!("[\n{}\n]\n", rows.join(",\n")))?;
    Ok(path)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cfg = &match parse_args(&argv) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = Fingerprint::probe();
    let out = bench::run(cfg);
    print_report(cfg, &host, &out);
    if cfg.trace {
        match write_spans(SPANS_DIR, cfg, &out) {
            Ok(path) => println!("spans {path}"),
            Err(e) => {
                eprintln!("perfbench: cannot write spans: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(&m.name),
                num(m.value),
                string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.failures.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
