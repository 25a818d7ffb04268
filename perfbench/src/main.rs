//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <clone_churn|vif_family|fuzz_reset|all> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`, with
//! the end-to-end metrics when `--trace 0` and the per-layer metrics when
//! `--trace 1`. The lines before it give the host record, the digest and
//! every metric by name and unit. A failed check (dirty audit, wrong
//! live-domain count, digest mismatch) exits with status 1. `all` runs
//! each workload in its own process, one after the other.

use std::process::{Command, ExitCode};

use perfbench::{host, run_named, Report, Size, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => match value.as_str() {
                "0" => args.traced = false,
                "1" => args.traced = true,
                _ => return Err(bad(&"expected 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {}", args.seconds));
    }
    Ok(args)
}

/// Runs every workload in a child process of its own.
fn run_all() -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut ok = true;
    for w in WORKLOADS {
        let mut forwarded: Vec<String> = std::env::args().skip(1).collect();
        let at = forwarded
            .iter()
            .position(|a| a == "--workload")
            .expect("--workload given")
            + 1;
        forwarded[at] = w.to_string();
        let status = Command::new(&exe)
            .args(&forwarded)
            .status()
            .expect("start a workload process");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print(report: &Report) {
    println!(
        "host: {{{}, \"workload\": {}, \"seed\": {}, \"trace\": {}}}",
        host::record(),
        host::json_str(report.workload),
        report.seed,
        report.traced as u8
    );
    println!("digest: {}", report.digest);
    for m in &report.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    for note in &report.notes {
        println!("{note}");
    }
    for problem in &report.problems {
        eprintln!("check failed: {problem}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.problems.is_empty(),
        report.tally.attempted,
        report.tally.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    // These variables override `PlatformConfig` inside `Platform::new`;
    // none may change a result.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("NEPHELE_") {
            std::env::remove_var(key);
        }
    }
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all();
    }
    let report = run_named(
        &args.workload,
        args.seed,
        args.seconds,
        args.traced,
        &Size::FULL,
    )
    .expect("workload name was checked");
    print(&report);
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
