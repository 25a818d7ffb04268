//! Close-time aggregation against a post-hoc reference: for any random
//! clone-family tape, the span aggregates and duration histograms the sink
//! folds as spans close must equal what this test recomputes from Full
//! mode's retained raw spans. [`TraceMode::Aggregate`](nephele::TraceMode),
//! which keeps only the fold, must then report exactly what Full mode
//! reports: the same span aggregates, histograms and family rollups, and
//! byte-identical `timeline_csv()` / `metrics_text()` exports.
//!
//! The same exports must also be invariant under a same-seed rerun — the
//! determinism contract every figure gate depends on.

use std::collections::BTreeMap;

use nephele::hypervisor::cloneop::CloneOp;
use nephele::sim_core::trace::{SpanAggregate, SpanRecord};
use nephele::sim_core::{DomId, Histogram, Pfn, TraceMode, PAGE_SIZE};
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

/// Everything the two modes must agree on, plus the raw spans Full mode
/// retains (none in Aggregate mode) and the sink's own span fold.
struct Exports {
    span_aggregates: String,
    histograms: String,
    timeline: String,
    metrics: String,
    families: String,
    spans: Vec<SpanRecord>,
    span_aggs: Vec<SpanAggregate>,
    span_hists: BTreeMap<&'static str, Histogram>,
}

/// The reference the sink's close-time fold must match: per-name count,
/// total and mean duration, and duration histograms, recomputed from raw
/// span records.
fn post_hoc(spans: &[SpanRecord]) -> (Vec<SpanAggregate>, BTreeMap<&'static str, Histogram>) {
    let mut hists: BTreeMap<&'static str, Histogram> = BTreeMap::new();
    let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        assert!(s.end.is_some(), "span {:?} left open", s.name);
        hists.entry(s.name).or_default().record(s.duration_ns());
        let (count, total_ns) = totals.entry(s.name).or_default();
        *count += 1;
        *total_ns += s.duration_ns();
    }
    let aggs = totals
        .into_iter()
        .map(|(name, (count, total_ns))| {
            SpanAggregate { name, count, total_ns, mean_ns: total_ns / count }
        })
        .collect();
    (aggs, hists)
}

fn run_tape(mode: TraceMode, ops: &[Op]) -> Exports {
    let img = KernelImage::minios("traceprop");
    let mut p = Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(64)
            .trace_mode(mode)
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
        spans: p.trace().spans(),
        span_aggs: p.trace().span_aggregates(),
        span_hists: p.trace().span_hists(),
    }
}

/// The close-time fold must equal the post-hoc reference over Full's
/// retained spans, and Aggregate must equal Full on every export,
/// reproducibly.
#[test]
fn streaming_aggregation_matches_full_mode_post_hoc() {
    check(10, |g| {
        let ops = g.draw(&ops_gen());
        let full = run_tape(TraceMode::Full, &ops);
        let agg = run_tape(TraceMode::Aggregate, &ops);
        assert!(!full.spans.is_empty(), "Full mode retains the raw spans");
        assert!(agg.spans.is_empty(), "Aggregate mode drops the raw spans");
        let (ref_aggs, ref_hists) = post_hoc(&full.spans);
        for (mode, e) in [("full", &full), ("aggregate", &agg)] {
            assert_eq!(
                e.span_aggs, ref_aggs,
                "{mode}: span aggregates diverge from the reference for {ops:?}"
            );
            assert_eq!(
                e.span_hists, ref_hists,
                "{mode}: span histograms diverge from the reference for {ops:?}"
            );
        }
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
