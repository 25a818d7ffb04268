//! The host record printed with every result, and peak RSS.

use std::path::Path;
use std::process::Command;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// CPU count, CPU model, compiler and commit, as JSON object members.
pub fn record() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}",
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&commit())
    )
}

/// The checked-out commit, when the working directory is a git checkout,
/// marked `+dirty` when the tree has uncommitted changes.
fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let Some(sha) = git(&["rev-parse", "HEAD"]) else {
        return "unknown".into();
    };
    let sha = sha.trim();
    match git(&["status", "--porcelain"]) {
        Some(changes) if changes.trim().is_empty() => sha.to_string(),
        Some(_) => format!("{sha}+dirty"),
        None => format!("{sha}+unknown-status"),
    }
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
