//! Streaming-aggregation equivalence: for any random clone-family tape,
//! [`TraceMode::Aggregate`](nephele::TraceMode) — which folds each span
//! into histograms and per-key aggregates at close time and drops the
//! raw record — must report exactly what Full mode computes post hoc
//! from its retained O(events) record set: the same span aggregates,
//! the same histograms, the same family rollups, and byte-identical
//! `timeline_csv()` / `metrics_text()` exports.
//!
//! The same exports must also be invariant under a same-seed rerun — the
//! determinism contract every figure gate depends on.

use nephele::hypervisor::cloneop::CloneOp;
use nephele::sim_core::{DomId, Pfn, TraceConfig, TraceMode, PAGE_SIZE};
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{AuditMode, Platform, PlatformConfig};
use testkit::prop::{check, ranges, vecs, Gen};

/// One step of a random clone-family tape. Domain indices select from
/// the currently live domains modulo the list length.
#[derive(Debug, Clone)]
enum Op {
    /// Batch-clone domain `idx` into `nr` children.
    Clone { idx: u64, nr: u32 },
    /// Write one byte at (pfn, offset) of domain `idx` (COW breaks).
    Write { idx: u64, pfn: u64, off: usize, val: u8 },
    /// Arm (or re-arm) the KFX checkpoint of domain `idx`.
    Checkpoint { idx: u64 },
    /// Restore domain `idx` to its checkpoint.
    Reset { idx: u64 },
    /// Destroy domain `idx` (retires its family membership).
    Destroy { idx: u64 },
}

fn ops_gen() -> impl Gen<Value = Vec<Op>> {
    vecs(
        (ranges(0u64..8), ranges(0u64..8), ranges(0u64..1060), ranges(0u64..65536)).map(
            |(kind, idx, pfn, val)| match kind {
                0 | 1 | 2 => Op::Clone { idx, nr: 1 + (val % 4) as u32 },
                3 | 4 => Op::Write {
                    idx,
                    pfn,
                    off: (val as usize).wrapping_mul(61) % PAGE_SIZE,
                    val: val as u8,
                },
                5 => Op::Checkpoint { idx },
                6 => Op::Reset { idx },
                _ => Op::Destroy { idx },
            },
        ),
        1..14,
    )
}

/// Everything the two modes must agree on.
struct Exports {
    span_aggregates: String,
    histograms: String,
    timeline: String,
    metrics: String,
    families: String,
}

fn run_tape(mode: TraceMode, ops: &[Op]) -> Exports {
    let img = KernelImage::minios("traceprop");
    let mut p = Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(64)
            // No counter-sample cap: Full must retain every raw sample so
            // its post-hoc aggregation covers the same events Aggregate
            // folded in streaming.
            .tracing(TraceConfig::with_mode(mode))
            .audit(AuditMode::Off)
            .flightrec_dir("target/test-prop-trace")
            .build(),
    );
    let cfg = DomainConfig::builder("traceprop").memory_mib(4).max_clones(64).build();
    let root = p.launch_plain(&cfg, &img).expect("root boot");
    let mut live = vec![root];
    for op in ops {
        match op {
            Op::Clone { idx, nr } => {
                if live.len() >= 12 {
                    continue;
                }
                let parent = live[(*idx as usize) % live.len()];
                if let Ok(kids) = p.clone_domain(parent, *nr) {
                    live.extend(kids);
                }
            }
            Op::Write { idx, pfn, off, val } => {
                let dom = live[(*idx as usize) % live.len()];
                let _ = p.hv.write_page(dom, Pfn(*pfn), *off, &[*val]);
            }
            Op::Checkpoint { idx } => {
                let dom = live[(*idx as usize) % live.len()];
                let _ = p.hv.cloneop(DomId::DOM0, CloneOp::Checkpoint { dom });
            }
            Op::Reset { idx } => {
                let dom = live[(*idx as usize) % live.len()];
                let _ = p.hv.cloneop(DomId::DOM0, CloneOp::CloneReset { dom });
            }
            Op::Destroy { idx } => {
                if live.len() <= 1 {
                    continue;
                }
                let pos = (*idx as usize) % live.len();
                if live[pos] == root {
                    continue;
                }
                let dom = live.remove(pos);
                p.destroy(dom).expect("destroy live domain");
            }
        }
    }

    Exports {
        span_aggregates: p.trace().span_aggregates_csv(),
        histograms: p.trace().histograms_csv(),
        timeline: p.timeline_csv(),
        metrics: p.metrics_text(),
        families: p.family_rollup_csv(),
    }
}

/// Aggregate's streaming fold must equal Full's retain-then-aggregate on
/// every export, reproducibly.
#[test]
fn streaming_aggregation_matches_full_mode_post_hoc() {
    check(10, |g| {
        let ops = g.draw(&ops_gen());
        let full = run_tape(TraceMode::Full, &ops);
        let agg = run_tape(TraceMode::Aggregate, &ops);
        assert_eq!(
            full.span_aggregates, agg.span_aggregates,
            "span aggregates diverge between modes for {ops:?}"
        );
        assert_eq!(
            full.histograms, agg.histograms,
            "histograms diverge between modes for {ops:?}"
        );
        assert_eq!(full.timeline, agg.timeline, "timelines diverge between modes for {ops:?}");
        assert_eq!(full.metrics, agg.metrics, "metrics text diverges between modes for {ops:?}");
        assert_eq!(
            full.families, agg.families,
            "family rollups diverge between modes for {ops:?}"
        );

        // A same-seed rerun must be invisible.
        let rerun = run_tape(TraceMode::Aggregate, &ops);
        assert_eq!(agg.timeline, rerun.timeline, "same-seed rerun drifted for {ops:?}");
        assert_eq!(agg.metrics, rerun.metrics, "same-seed rerun drifted for {ops:?}");
    });
}
