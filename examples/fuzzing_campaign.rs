//! VM fuzzing with clone_cow / clone_reset (§7.2).
//!
//! Runs two short KFX+AFL campaigns over the syscall adapter — with
//! cloning support and with a fresh boot per input — and prints the
//! throughput gap that motivates Fig. 9.
//!
//! Run with: `cargo run --release --example fuzzing_campaign`

use fuzz::{run_campaign, FuzzConfig, FuzzMode, FuzzTarget};
use nephele::sim_core::SimDuration;

fn main() {
    let secs = 30;
    println!("fuzzing the Unikraft syscall adapter for {secs} virtual seconds per mode...\n");

    for (label, mode) in [
        ("with cloning (clone_cow + clone_reset)", FuzzMode::UnikraftClone),
        ("without cloning (boot per input)", FuzzMode::UnikraftBootEach),
        ("native Linux process (fork server)", FuzzMode::LinuxProcess),
    ] {
        let report = run_campaign(&FuzzConfig {
            mode,
            target: FuzzTarget::SyscallSubsystem,
            duration: SimDuration::from_secs(secs),
            seed: 7,
            ..Default::default()
        });
        println!("{label}:");
        println!("  throughput : {:>10.1} exec/s", report.avg_throughput);
        println!("  executions : {:>10}", report.total_execs);
        println!("  edges      : {:>10}", report.edges);
        println!("  corpus     : {:>10}", report.corpus);
        println!("  crashes    : {:>10}", report.crashes);
        if report.avg_reset_us > 0.0 {
            println!(
                "  clone_reset: {:>10.1} us/iteration ({:.1} dirty pages avg)",
                report.avg_reset_us, report.avg_dirty_pages
            );
        }
        println!();
    }
}
