//! Sink self-overhead: host cost of one instrumentation "tick" — a mixed
//! batch of spans, counters, gauges and explicit histogram records — per
//! [`TraceMode`](nephele::TraceMode).
//!
//! Both enabled modes run the same close-time fold; Full mode also retains
//! every raw record, so an Aggregate tick should cost no more than a Full
//! one, and a disabled sink should stay near-free. verify.sh gates the
//! Aggregate / Off ratio against a loose budget and the Aggregate / Full
//! ratio at 1.1x; the general bench gate tracks all three medians against
//! the seeded baselines.

use nephele::sim_core::{Clock, DomId};
use nephele::{TraceMode, TraceSink};
use testkit::bench::Bench;

/// Spans (each with a `dom` attribute) per timed batch.
const SPANS: u64 = 256;
/// Domain-attributed counter bumps per batch.
const COUNTS: u64 = 512;
/// Gauge observations per batch.
const GAUGES: u64 = 128;
/// Explicit histogram records per batch.
const RECORDS: u64 = 128;

/// Builds a sink in `mode` with a two-member clone family registered, so
/// the Aggregate path exercises family attribution like a real platform.
fn sink(mode: TraceMode) -> TraceSink {
    let s = TraceSink::new(Clock::new(), mode);
    s.family_root_created(DomId(1), "bench-root");
    s.family_cloned(DomId(2), Some(DomId(1)));
    s
}

/// One instrumentation tick: the mixed batch above, attributed to the
/// registered family. The sink is cleared first so Full mode's retained
/// records do not accumulate across iterations (clear is O(retained),
/// i.e. part of the cost being compared).
fn tick(s: &TraceSink) {
    s.clear();
    for i in 0..SPANS {
        let span = s.span("bench.op");
        span.attr("dom", 1 + (i & 1));
    }
    for i in 0..COUNTS {
        s.count_dom("bench.counter", DomId(1 + (i & 1) as u32), 1);
    }
    for i in 0..GAUGES {
        s.gauge("bench.gauge", DomId(1 + (i & 1) as u32), i * 4096);
    }
    for i in 0..RECORDS {
        s.record_ns("bench.latency", 1000 + i * 37);
    }
}

fn main() {
    let mut c = Bench::new("trace_overhead");
    {
        let mut g = c.benchmark_group("trace_overhead");
        g.sample_size(30);
        let off = sink(TraceMode::Off);
        g.bench_function("mixed_off", |b| b.iter(|| tick(&off)));
        let full = sink(TraceMode::Full);
        g.bench_function("mixed_full", |b| b.iter(|| tick(&full)));
        let agg = sink(TraceMode::Aggregate);
        g.bench_function("mixed_agg", |b| b.iter(|| tick(&agg)));
        g.finish();
    }
    c.finish();
}
