//! Fig. 6 — Fork and cloning duration vs. allocated memory size.
//!
//! The same application (allocate a resident chunk, then accept
//! fork/clone requests) is built for Linux and run as a process, and built
//! for Unikraft and run as a VM (§6.2). For each allocation size
//! (1 MiB – 4 GiB) the first and second fork/clone durations are measured;
//! the clone numbers "skip cloning the I/O devices and keep only the
//! mandatory operations of the second stage", whose userspace cost is the
//! separate flat line (~3 ms first / ~1.9 ms later).

use apps::MemhogApp;
use linux_procs::ProcessModel;
use nephele::hypervisor::cloneop::CloneOp;
use nephele::sim_core::{Clock, CostModel, DomId};
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{MuxKind, Platform, PlatformConfig, TraceSink};
use sim_core::stats::Series;

use crate::support::trace_mode_from_env;

/// The allocation sizes of the figure's x-axis (MiB).
pub const SIZES_MIB: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// One size's measurements, milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Point {
    /// Allocation size in MiB.
    pub size_mib: u64,
    /// First process fork.
    pub process_fork1_ms: f64,
    /// Second process fork.
    pub process_fork2_ms: f64,
    /// First unikernel clone.
    pub clone1_ms: f64,
    /// Second unikernel clone.
    pub clone2_ms: f64,
    /// Userspace (second-stage) operations within the second clone.
    pub userspace_ms: f64,
}

fn measure_process(size_mib: u64) -> (f64, f64) {
    let clock = Clock::new();
    let mut pm = ProcessModel::new(clock.clone(), std::rc::Rc::new(CostModel::calibrated()));
    let mut p = pm.spawn(size_mib);
    let t0 = clock.now();
    pm.fork(&mut p);
    let first = clock.now().since(t0).as_ms_f64();
    let t1 = clock.now();
    pm.fork(&mut p);
    let second = clock.now().since(t1).as_ms_f64();
    (first, second)
}

fn measure_clone(size_mib: u64) -> (f64, f64, f64, TraceSink) {
    let mut p = Platform::new(
        PlatformConfig::builder()
            // Headroom for the VM plus its clones' private memory.
            .guest_pool_mib((size_mib + 64).next_power_of_two().max(512) + 1024)
            .mux(MuxKind::None)
            .trace_mode(trace_mode_from_env())
            .build(),
    );
    // Only the mandatory second-stage operations (§6.2).
    p.daemon.config.minimal = true;

    let cfg = DomainConfig::builder("memhog")
        .memory_mib(size_mib + 16)
        .max_clones(8)
        .resume_clones(true)
        .build();
    let parent = p
        .launch(
            &cfg,
            &KernelImage::unikraft("memhog"),
            Box::new(MemhogApp::new(size_mib)),
        )
        .expect("memhog boot");

    let mut clone_once = || {
        let t0 = p.clock.now();
        p.hv.cloneop(
            DomId::DOM0,
            CloneOp::Clone {
                target: Some(parent),
                nr_clones: 1,
            },
        )
        .expect("stage 1");
        let stage1_done = p.clock.now();
        p.finish_pending_clones(parent).expect("stage 2");
        let total = p.clock.now().since(t0).as_ms_f64();
        let userspace = p.clock.now().since(stage1_done).as_ms_f64();
        (total, userspace)
    };

    let (first, _us1) = clone_once();
    let (second, us2) = clone_once();
    let trace = p.trace().clone();
    (first, second, us2, trace)
}

/// Runs the experiment over `sizes` (defaults to [`SIZES_MIB`]). The
/// returned sink holds the trace of the largest size's clone run
/// (disabled unless `NEPHELE_TRACE` is set).
pub fn run(sizes: &[u64]) -> (Series, Vec<Fig6Point>, TraceSink) {
    let mut series = Series::new(
        "size_mib",
        &[
            "process_fork1_ms",
            "process_fork2_ms",
            "clone1_ms",
            "clone2_ms",
            "userspace_ms",
        ],
    );
    let mut points = Vec::new();
    let mut trace = TraceSink::disabled();
    for &size in sizes {
        let (pf1, pf2) = measure_process(size);
        let (c1, c2, us, t) = measure_clone(size);
        trace = t;
        series.row(size as f64, &[pf1, pf2, c1, c2, us]);
        points.push(Fig6Point {
            size_mib: size,
            process_fork1_ms: pf1,
            process_fork2_ms: pf2,
            clone1_ms: c1,
            clone2_ms: c2,
            userspace_ms: us,
        });
    }
    (series, points, trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_between_fork_and_clone_narrows_with_size() {
        let (_, pts, _) = run(&[1, 256, 1024]);
        let small = &pts[0];
        let large = &pts[2];

        // Small sizes: the clone's fixed overhead dominates; the relative
        // gap is enormous (paper: 5757% at the low end).
        let small_gap = small.clone2_ms / small.process_fork2_ms;
        // Large sizes: page-table work dominates both; the gap collapses
        // (paper: 21% at 4 GiB).
        let large_gap = large.clone2_ms / large.process_fork2_ms;
        assert!(small_gap > 10.0, "small gap {small_gap:.1}x");
        assert!(large_gap < 2.5, "large gap {large_gap:.2}x");

        // First is slower than second for both variants.
        assert!(small.process_fork1_ms > small.process_fork2_ms);
        assert!(large.clone1_ms > large.clone2_ms);
    }

    #[test]
    fn sub_minimum_sizes_clone_alike() {
        // Xen's 4 MiB domain minimum keeps the curve flat below it.
        let (_, tiny, _) = run(&[1, 2]);
        let rel = (tiny[0].clone2_ms - tiny[1].clone2_ms).abs() / tiny[0].clone2_ms;
        assert!(rel < 0.25, "sub-minimum sizes should clone alike ({rel:.2})");
    }

    #[test]
    fn userspace_operations_are_flat_and_small() {
        let (_, pts, _) = run(&[1, 512]);
        for p in &pts {
            assert!(
                p.userspace_ms < 5.0,
                "userspace ops should be a few ms, got {}",
                p.userspace_ms
            );
        }
        let rel = (pts[0].userspace_ms - pts[1].userspace_ms).abs() / pts[0].userspace_ms;
        assert!(rel < 0.3, "userspace ops must not scale with memory ({rel:.2})");
    }
}
