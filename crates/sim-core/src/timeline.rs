//! Virtual-time time-series: counters, gauges and span closures folded
//! into fixed-width virtual-time slices.
//!
//! A [`Timeline`] is a bounded ring of [slices](TimelineConfig::max_slices);
//! each slice covers `[k·width, (k+1)·width)` of virtual time, so slice
//! boundaries are a pure function of the virtual clock and never depend on
//! host scheduling. The sink folds every counter bump, gauge observation
//! and span close into the current slice in O(log keys); memory is bounded
//! by `max_slices × distinct keys` regardless of how many events a run
//! produces. Slices are created lazily (quiet periods cost nothing) and the
//! oldest slices are evicted once the ring is full — [`Timeline::evicted`]
//! reports how many fell off the front.
//!
//! [`Timeline::csv`] renders the ring as a flat table; because everything
//! is keyed by virtual time and folded in program order, the bytes are
//! identical across same-seed runs.

use std::collections::{BTreeMap, VecDeque};

use crate::time::SimDuration;
use crate::time::SimTime;

/// Slicing knobs for the [`Timeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineConfig {
    /// Width of one virtual-time slice.
    pub slice: SimDuration,
    /// Maximum number of retained slices (oldest evicted first).
    pub max_slices: usize,
}

impl Default for TimelineConfig {
    /// 100 ms slices, 512 retained — ~51 virtual seconds of history.
    fn default() -> Self {
        TimelineConfig { slice: SimDuration::from_ms(100), max_slices: 512 }
    }
}

/// Per-slice statistics of one counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSlice {
    /// Bumps observed in the slice.
    pub bumps: u64,
    /// Sum of the deltas.
    pub delta: u64,
    /// Running total after the last bump in the slice.
    pub last_total: u64,
}

/// Per-slice statistics of one `(gauge, domain)` series.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GaugeSlice {
    /// Observations in the slice.
    pub n: u64,
    /// Largest observed value.
    pub max: u64,
    /// Last observed value.
    pub last: u64,
}

/// Per-slice statistics of one span name (folded at span close).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanSlice {
    /// Spans closed in the slice.
    pub closes: u64,
    /// Total virtual nanoseconds across them.
    pub total_ns: u64,
    /// Longest single span in virtual nanoseconds.
    pub max_ns: u64,
}

/// One virtual-time slice of the ring.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimelineSlice {
    /// Slice number: the slice covers `[index·width, (index+1)·width)`.
    pub index: u64,
    /// Counter stats keyed by counter name.
    pub counters: BTreeMap<&'static str, CounterSlice>,
    /// Gauge stats keyed by `(name, domain id)`.
    pub gauges: BTreeMap<(&'static str, u32), GaugeSlice>,
    /// Span stats keyed by span name.
    pub spans: BTreeMap<&'static str, SpanSlice>,
}

/// Bounded ring of virtual-time slices; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct Timeline {
    width_ns: u64,
    max_slices: usize,
    slices: VecDeque<TimelineSlice>,
    evicted: u64,
}

impl Timeline {
    /// An empty timeline with the given slicing config.
    pub fn new(config: TimelineConfig) -> Self {
        Timeline {
            width_ns: config.slice.as_ns().max(1),
            max_slices: config.max_slices.max(1),
            slices: VecDeque::new(),
            evicted: 0,
        }
    }

    /// The slice covering `at`, creating (and evicting) as needed. The
    /// virtual clock is monotonic, so the target index never precedes the
    /// newest slice; if it somehow did we fold into the newest slice
    /// rather than corrupt the ring order.
    fn slice_at(&mut self, at: SimTime) -> &mut TimelineSlice {
        let index = at.as_ns() / self.width_ns;
        let need_new = match self.slices.back() {
            Some(s) => index > s.index,
            None => true,
        };
        if need_new {
            self.slices.push_back(TimelineSlice { index, ..Default::default() });
            while self.slices.len() > self.max_slices {
                self.slices.pop_front();
                self.evicted += 1;
            }
        }
        self.slices.back_mut().expect("ring is non-empty after push")
    }

    /// Folds one counter bump into the slice covering `at`.
    pub fn fold_count(&mut self, at: SimTime, name: &'static str, delta: u64, total: u64) {
        let c = self.slice_at(at).counters.entry(name).or_default();
        c.bumps += 1;
        c.delta += delta;
        c.last_total = total;
    }

    /// Folds one gauge observation into the slice covering `at`.
    pub fn fold_gauge(&mut self, at: SimTime, name: &'static str, dom: u32, value: u64) {
        let g = self.slice_at(at).gauges.entry((name, dom)).or_default();
        g.n += 1;
        g.max = g.max.max(value);
        g.last = value;
    }

    /// Folds one span close into the slice covering the close instant.
    pub fn fold_span(&mut self, end: SimTime, name: &'static str, dur_ns: u64) {
        let s = self.slice_at(end).spans.entry(name).or_default();
        s.closes += 1;
        s.total_ns += dur_ns;
        s.max_ns = s.max_ns.max(dur_ns);
    }

    /// Retained slices, oldest first.
    pub fn slices(&self) -> impl Iterator<Item = &TimelineSlice> {
        self.slices.iter()
    }

    /// Number of retained slices.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// Whether nothing has been folded yet.
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    /// Slices evicted off the front of the ring so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Width of one slice in virtual nanoseconds.
    pub fn width_ns(&self) -> u64 {
        self.width_ns
    }

    /// Drops all slices (the config is kept).
    pub fn clear(&mut self) {
        self.slices.clear();
        self.evicted = 0;
    }

    /// The retained ring as CSV:
    /// `slice,start_us,kind,key,dom,n,sum,max,last` — one row per
    /// `(slice, series)`. `n`/`sum`/`max`/`last` are, per kind:
    ///
    /// | kind    | n     | sum      | max    | last          |
    /// |---------|-------|----------|--------|---------------|
    /// | counter | bumps | Σ delta  | —      | running total |
    /// | gauge   | obs   | —        | max    | last value    |
    /// | span    | closes| Σ ns     | max ns | —             |
    ///
    /// Unused cells are left empty. Rows are ordered by slice, then kind
    /// (counter < gauge < span), then key — a deterministic function of
    /// the recording alone.
    pub fn csv(&self) -> String {
        let mut out = String::from("slice,start_us,kind,key,dom,n,sum,max,last\n");
        for s in &self.slices {
            let start_ns = s.index * self.width_ns;
            let start_us = format!("{}.{:03}", start_ns / 1_000, start_ns % 1_000);
            for (name, c) in &s.counters {
                out.push_str(&format!(
                    "{},{},counter,{},,{},{},,{}\n",
                    s.index, start_us, name, c.bumps, c.delta, c.last_total
                ));
            }
            for ((name, dom), g) in &s.gauges {
                out.push_str(&format!(
                    "{},{},gauge,{},{},{},,{},{}\n",
                    s.index, start_us, name, dom, g.n, g.max, g.last
                ));
            }
            for (name, sp) in &s.spans {
                out.push_str(&format!(
                    "{},{},span,{},,{},{},{},\n",
                    s.index, start_us, name, sp.closes, sp.total_ns, sp.max_ns
                ));
            }
        }
        out
    }
}

impl Default for Timeline {
    fn default() -> Self {
        Timeline::new(TimelineConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_ns(ms * 1_000_000)
    }

    #[test]
    fn slices_are_fixed_width_and_sparse() {
        let mut tl = Timeline::new(TimelineConfig::default());
        tl.fold_count(t(10), "c", 1, 1);
        tl.fold_count(t(20), "c", 2, 3); // same 100 ms slice
        tl.fold_count(t(950), "c", 1, 4); // slice 9; 1..9 never created
        assert_eq!(tl.len(), 2);
        let s: Vec<_> = tl.slices().collect();
        assert_eq!(s[0].index, 0);
        assert_eq!(s[0].counters["c"], CounterSlice { bumps: 2, delta: 3, last_total: 3 });
        assert_eq!(s[1].index, 9);
        assert_eq!(s[1].counters["c"].last_total, 4);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut tl = Timeline::new(TimelineConfig {
            slice: SimDuration::from_ms(1),
            max_slices: 3,
        });
        for ms in 0..5 {
            tl.fold_gauge(t(ms), "g", 7, ms);
        }
        assert_eq!(tl.len(), 3);
        assert_eq!(tl.evicted(), 2);
        assert_eq!(tl.slices().next().unwrap().index, 2);
    }

    #[test]
    fn csv_is_deterministic_and_typed() {
        let mut tl = Timeline::default();
        tl.fold_count(t(10), "net.tx", 2, 2);
        tl.fold_gauge(t(10), "mem.free", 3, 4096);
        tl.fold_span(t(10), "clone.child", 1_500);
        tl.fold_span(t(10), "clone.child", 500);
        let csv = tl.csv();
        assert_eq!(
            csv,
            "slice,start_us,kind,key,dom,n,sum,max,last\n\
             0,0.000,counter,net.tx,,1,2,,2\n\
             0,0.000,gauge,mem.free,3,1,,4096,4096\n\
             0,0.000,span,clone.child,,2,2000,1500,\n"
        );
        assert_eq!(csv, tl.clone().csv());
    }

    #[test]
    fn clear_keeps_config() {
        let mut tl = Timeline::new(TimelineConfig {
            slice: SimDuration::from_ms(1),
            max_slices: 3,
        });
        tl.fold_count(t(0), "c", 1, 1);
        tl.clear();
        assert!(tl.is_empty());
        assert_eq!(tl.evicted(), 0);
        assert_eq!(tl.width_ns(), 1_000_000);
    }
}
