//! Host-clock spans recorded by the benchmark around calls into the
//! simulator's layers.

use std::collections::BTreeMap;
use std::time::Instant;

/// Host durations in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.0.len() as u64
    }

    /// The `q`-quantile (nearest rank) in microseconds; `None` when empty.
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        if self.0.is_empty() {
            return None;
        }
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1] as f64 / 1_000.0)
    }
}

/// Named spans of one measured phase.
#[derive(Debug, Default)]
pub struct Probe {
    /// Whether the per-layer spans are on (the traced blocks). The
    /// end-to-end call timers of a workload are recorded either way.
    pub traced: bool,
    /// Whether this is the traced run, in both its untraced and its
    /// traced blocks. A workload that must call a layer differently to
    /// time it does so in both kinds of block, so that the blocks differ
    /// only by the spans.
    pub trace_run: bool,
    spans: BTreeMap<&'static str, Samples>,
}

impl Probe {
    /// A probe outside the traced run.
    pub fn untraced() -> Self {
        Probe::default()
    }

    /// A probe for a block of the traced run, with the per-layer spans on
    /// (`traced`) or off.
    pub fn trace_run(traced: bool) -> Self {
        Probe {
            traced,
            trace_run: true,
            spans: BTreeMap::new(),
        }
    }

    /// Runs `f`, recording its host duration under `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.record(name, t.elapsed().as_nanos() as u64);
        r
    }

    /// Runs `f`, recording its host duration under `name` only when the
    /// per-layer spans are on.
    pub fn layer<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if self.traced {
            self.time(name, f)
        } else {
            f()
        }
    }

    /// Records a duration measured by the caller.
    pub fn record(&mut self, name: &'static str, ns: u64) {
        self.spans.entry(name).or_default().push(ns);
    }

    /// The samples recorded under `name`, if any.
    pub fn span(&self, name: &str) -> Option<&Samples> {
        self.spans.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut s = Samples::default();
        for ns in [5_000, 1_000, 4_000, 2_000, 3_000] {
            s.push(ns);
        }
        assert_eq!(s.quantile_us(0.5), Some(3.0));
        assert_eq!(s.quantile_us(0.9), Some(5.0));
        assert_eq!(Samples::default().quantile_us(0.5), None);
    }
}
