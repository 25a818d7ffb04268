//! Fig. 9 — Fuzzing throughput over time (§7.2).
//!
//! Seven curves: Unikraft with and without cloning (each with the getppid
//! baseline), the native Linux process (AFL only, with baseline) and the
//! Linux kernel module baseline. Delegates to the [`fuzz`] crate's
//! campaigns, where the cloning modes run on the real platform
//! (`clone_cow` instrumentation, per-iteration `clone_reset`).

use fuzz::{run_campaign, FuzzConfig, FuzzMode, FuzzReport, FuzzTarget};
use nephele::sim_core::SimDuration;
use sim_core::stats::Series;

use crate::support::trace_mode_from_env;

/// The labelled curves of the figure.
pub const CURVES: &[(&str, FuzzMode, FuzzTarget)] = &[
    ("unikraft_baseline", FuzzMode::UnikraftBootEach, FuzzTarget::Getppid),
    ("unikraft", FuzzMode::UnikraftBootEach, FuzzTarget::SyscallSubsystem),
    ("unikraft_cloning_baseline", FuzzMode::UnikraftClone, FuzzTarget::Getppid),
    ("unikraft_cloning", FuzzMode::UnikraftClone, FuzzTarget::SyscallSubsystem),
    ("linux_process_baseline", FuzzMode::LinuxProcess, FuzzTarget::Getppid),
    ("linux_process", FuzzMode::LinuxProcess, FuzzTarget::SyscallSubsystem),
    ("linux_module_baseline", FuzzMode::LinuxKernelModule, FuzzTarget::Getppid),
];

/// Runs every curve for `secs` virtual seconds; returns per-curve reports
/// plus a merged series (one throughput column per curve).
pub fn run(secs: u64) -> (Series, Vec<(&'static str, FuzzReport)>) {
    let mut reports = Vec::new();
    for (label, mode, target) in CURVES {
        let report = run_campaign(&FuzzConfig {
            mode: *mode,
            target: *target,
            duration: SimDuration::from_secs(secs),
            seed: 0xF19,
            tracing: trace_mode_from_env(),
        });
        reports.push((*label, report));
    }

    let columns: Vec<&str> = CURVES.iter().map(|(l, _, _)| *l).collect();
    let mut series = Series::new("second", &columns);
    for s in 0..secs as usize {
        let row: Vec<f64> = reports
            .iter()
            .map(|(_, r)| r.series.get(s).map(|(_, v)| *v).unwrap_or(0.0))
            .collect();
        series.row(s as f64, &row);
    }
    (series, reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_ordering_matches_the_paper() {
        let (_, reports) = run(12);
        let get = |label: &str| {
            reports
                .iter()
                .find(|(l, _)| *l == label)
                .map(|(_, r)| r.avg_throughput)
                .unwrap()
        };
        let boot_each = get("unikraft_baseline");
        let cloning = get("unikraft_cloning_baseline");
        let process = get("linux_process_baseline");
        let module = get("linux_module_baseline");

        // Paper: ~2 / ~470 / ~590 / ~320 exec/s.
        assert!(boot_each < 10.0, "boot-each {boot_each}");
        assert!(cloning > 100.0, "cloning {cloning}");
        assert!(process > cloning, "process {process} vs cloning {cloning}");
        assert!(cloning > module, "cloning {cloning} vs module {module}");
        let gap = (process - cloning) / process;
        assert!(gap < 0.40, "process-vs-cloning gap {gap:.2} (paper 18.6%)");
        let module_gap = (cloning - module) / cloning;
        assert!(
            (0.05..0.60).contains(&module_gap),
            "cloning-vs-module gap {module_gap:.2} (paper 31.9%)"
        );
    }
}
