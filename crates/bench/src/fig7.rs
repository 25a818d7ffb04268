//! Fig. 7 — NGINX HTTP request throughput vs. number of workers.
//!
//! Methodology per §7.1: `wrk` keeps 400 open connections per worker for
//! 5 seconds, repeated 30 times; workers run either as Linux processes
//! (socket sharding via `SO_REUSEPORT`, kernel load balancing) or as
//! Unikraft clones (bond load balancing in Dom0, each clone pinned to its
//! own core).
//!
//! The throughput numbers come from a closed-loop queueing simulation over
//! the platform's cost model: each worker's core serves requests serially;
//! clones avoid user/kernel crossings (lower mean service time) and enjoy
//! exclusive cores (lower variance), which is exactly the paper's
//! explanation for the higher and less variable clone throughput. The
//! functional clone-serving path is exercised end-to-end by the
//! integration tests.

use linux_procs::{jittered_service, WrkConfig};
use nephele::sim_core::{CostModel, SimDuration, SplitMix64};
use sim_core::stats::{OnlineStats, Series};

use crate::support::{pct_row, PctRow};

/// Worker flavours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerKind {
    /// NGINX worker processes on Linux.
    Process,
    /// Unikraft clone workers behind the bond.
    Clone,
}

/// One configuration's result.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Point {
    /// Worker count.
    pub workers: u32,
    /// Mean requests/second over the repetitions.
    pub mean_rps: f64,
    /// Standard deviation over the repetitions.
    pub stddev_rps: f64,
}

/// Simulates one 5-second wrk run against `workers` workers of `kind` and
/// returns total completed requests.
fn simulate_run(kind: WorkerKind, workers: u32, cfg: &WrkConfig, rng: &mut SplitMix64) -> u64 {
    let costs = CostModel::calibrated();
    let (mean, rel_stddev) = match kind {
        // Clones: no user/kernel switches, exclusive pinned core.
        WorkerKind::Clone => (costs.http_service_unikernel, 0.05),
        // Processes: syscall crossings plus shared-kernel interference.
        WorkerKind::Process => (costs.http_service_process, 0.12),
    };
    let horizon = cfg.duration;
    let mut total = 0u64;
    for _worker in 0..workers {
        // A saturated worker core: 400 connections keep it busy, so the
        // completions are one long back-to-back service sequence.
        let mut t = SimDuration::ZERO;
        while t < horizon {
            let mut service = jittered_service(rng, mean, rel_stddev);
            if kind == WorkerKind::Process {
                // Occasional scheduler/softirq interference on the shared
                // kernel: rare but large additions (variance source).
                if rng.chance(0.0008) {
                    service += SimDuration::from_us(rng.range(200, 1200));
                }
            }
            t += service;
            total += 1;
        }
    }
    total
}

/// Runs the experiment for 1..=4 workers with the paper's wrk parameters.
/// Besides the mean/stddev series, returns per-configuration percentile
/// rows over the repetition distribution (req/s).
pub fn run(reps: usize) -> (Series, Vec<(Fig7Point, Fig7Point)>, Vec<PctRow>) {
    let cfg = WrkConfig {
        repetitions: reps,
        ..Default::default()
    };
    let mut series = Series::new(
        "workers",
        &[
            "processes_rps",
            "processes_stddev",
            "clones_rps",
            "clones_stddev",
        ],
    );
    let mut points = Vec::new();
    let mut pcts = Vec::new();
    let mut rng = SplitMix64::new(0x716);
    for workers in 1..=4u32 {
        let mut proc = OnlineStats::new();
        let mut clone = OnlineStats::new();
        let mut proc_samples = Vec::with_capacity(cfg.repetitions);
        let mut clone_samples = Vec::with_capacity(cfg.repetitions);
        for _ in 0..cfg.repetitions {
            let p = simulate_run(WorkerKind::Process, workers, &cfg, &mut rng);
            let c = simulate_run(WorkerKind::Clone, workers, &cfg, &mut rng);
            let (p, c) = (
                p as f64 / cfg.duration.as_secs_f64(),
                c as f64 / cfg.duration.as_secs_f64(),
            );
            proc.push(p);
            clone.push(c);
            proc_samples.push(p);
            clone_samples.push(c);
        }
        pcts.push(pct_row(format!("processes_{workers}w_rps"), &proc_samples));
        pcts.push(pct_row(format!("clones_{workers}w_rps"), &clone_samples));
        series.row(
            workers as f64,
            &[proc.mean(), proc.stddev(), clone.mean(), clone.stddev()],
        );
        points.push((
            Fig7Point {
                workers,
                mean_rps: proc.mean(),
                stddev_rps: proc.stddev(),
            },
            Fig7Point {
                workers,
                mean_rps: clone.mean(),
                stddev_rps: clone.stddev(),
            },
        ));
    }
    (series, points, pcts)
}

/// The platform-side counterpart of the queueing numbers: boots the
/// 4-worker clone family end-to-end (parent plus three clones behind the
/// bond, as §7.1 deploys NGINX) with tracing taken from `NEPHELE_TRACE`,
/// so the figure can report the span breakdown of the real clone path the
/// throughput simulation abstracts away.
pub fn traced_worker_family() -> nephele::TraceSink {
    use apps::UdpEchoApp;
    use nephele::{MuxKind, Platform, PlatformConfig};

    use crate::support::{trace_mode_from_env, udp_guest_cfg, udp_image};

    let mut p = Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(512)
            .mux(MuxKind::Bond)
            .trace_mode(trace_mode_from_env())
            .build(),
    );
    let cfg = udp_guest_cfg("worker", 8);
    let parent = p
        .launch(&cfg, &udp_image(), Box::new(UdpEchoApp::new(7000)))
        .expect("worker boot");
    p.enlist_in_mux(parent);
    p.guest_fork(parent, 3).expect("worker clones");
    p.trace().clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_scales_linearly_and_clones_win() {
        let (_, pts, _) = run(10);
        for (proc, clone) in &pts {
            assert!(
                clone.mean_rps > proc.mean_rps,
                "{} workers: clones {} vs processes {}",
                clone.workers,
                clone.mean_rps,
                proc.mean_rps
            );
            assert!(
                clone.stddev_rps < proc.stddev_rps,
                "clone throughput must be less variable"
            );
        }
        // Linear growth: 4 workers ≈ 4x 1 worker (within 10%).
        let r = pts[3].1.mean_rps / pts[0].1.mean_rps;
        assert!((3.6..=4.4).contains(&r), "clone scaling factor {r:.2}");
        let r = pts[3].0.mean_rps / pts[0].0.mean_rps;
        assert!((3.6..=4.4).contains(&r), "process scaling factor {r:.2}");
        // Absolute range sanity (paper peaks around 110-120 k req/s).
        assert!((90_000.0..140_000.0).contains(&pts[3].1.mean_rps));
    }

    #[test]
    fn percentile_rows_cover_every_configuration() {
        let (_, _, pcts) = run(5);
        assert_eq!(pcts.len(), 8, "2 kinds x 4 worker counts");
        for r in &pcts {
            assert_eq!(r.count, 5);
            assert!(
                r.p50 <= r.p90 && r.p90 <= r.p99 && r.p99 <= r.max,
                "percentiles must be monotone: {r:?}"
            );
        }
    }
}
