//! Host-time benchmark of the Nephele simulator.
//!
//! Three seeded workloads drive the public [`nephele::Platform`] API from
//! one single-threaded process and report how much host time the
//! simulator spends making, resetting and destroying clones:
//!
//! * [`clone_churn`]: 10^5 live clones of a vif-less template, 16 cloned
//!   and the 16 oldest destroyed per step;
//! * [`vif_family`]: a 3×10^3-member UDP echo family behind the bond, one
//!   fork, one destroy and four requests per step;
//! * [`fuzz_reset`]: the Fig. 9 fuzzing loop, one AFL exec and one
//!   `clone_reset` per step.
//!
//! The untraced run gives the end-to-end metrics. The traced run adds
//! host-clock spans around the calls into each layer ([`probe`]) and
//! reports the per-layer metrics. The metric names, units and the layer
//! to end-to-end mapping are listed in `perfbench/README.md`.

pub mod clone_churn;
pub mod fuzz_reset;
pub mod host;
pub mod probe;
pub mod vif_family;

use std::fmt;
use std::time::{Duration, Instant};

use nephele::{AuditMode, Platform, PlatformConfigBuilder};
use probe::{Probe, Samples};

/// End-to-end metrics of the untraced run, as `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("step_p50_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run, as `(name, unit)`. A metric whose
/// layer a workload does not call reads 0 on that workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hypervisor.stage1_us", "us"),
    ("xencloned.stage2_us", "us"),
    ("toolstack.destroy_us", "us"),
    ("xenstore.entries_per_clone", "count"),
    ("hypervisor.p2m_unique_bytes_per_clone", "B"),
    ("sim-core.trace.span_closes_per_step", "count"),
    ("sim-core.trace.counter_bumps_per_step", "count"),
    ("nephele.guest_fork_us", "us"),
    ("nephele.host_udp_send_us", "us"),
    ("devices.live_vifs", "count"),
    ("netmux.members", "count"),
    ("netmux.reply_ratio", "ratio"),
    ("nephele.packets_per_request", "count"),
    ("hypervisor.reset_us", "us"),
    ("hypervisor.dirty_pages_per_reset", "count"),
    ("apps.exec_us", "us"),
    ("fuzz.afl_us", "us"),
    ("bench.untraced_ops_per_s", "1/s"),
    ("bench.traced_ops_per_s", "1/s"),
    ("bench.trace_overhead_pct", "%"),
];

/// How big the workloads are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Live clones `clone_churn` ramps to and keeps.
    pub churn_live: u32,
    /// Forked members (root excluded) `vif_family` ramps to and keeps.
    pub vif_members: u32,
}

impl Size {
    /// The measured size: 10^5 live clones, 3×10^3 vif members.
    pub const FULL: Size = Size {
        churn_live: 100_000,
        vif_members: 3_000,
    };

    /// The smoke-test size: 10^3 live clones, 100 vif members.
    pub const TINY: Size = Size {
        churn_live: 1_000,
        vif_members: 100,
    };
}

/// Ops attempted and failed. A failed op is a public call that returned
/// `Err`, or a request that did not get exactly one correct reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one op that failed when `failed` is true.
    pub fn op(&mut self, failed: bool) {
        self.attempted += 1;
        self.failed += failed as u64;
    }

    /// Adds the ops of `other`.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The simulated outcome of a run after set-up and a fixed number of warm
/// steps. Host speed must not change it: equal seeds give equal digests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    /// Virtual time at the digest point, in ns.
    pub virt_ns: u64,
    /// Live domains, Dom0 included.
    pub live: u64,
    /// Request replies received by the host.
    pub replies: u64,
    /// Order-sensitive fingerprint of which requests got their reply.
    pub reply_pattern: u64,
    /// AFL executions.
    pub execs: u64,
    /// AFL coverage edges.
    pub edges: u64,
    /// AFL crashes.
    pub crashes: u64,
}

impl Digest {
    /// FNV-1a over the fields.
    pub fn hash(&self) -> u64 {
        let fields = [
            self.virt_ns,
            self.live,
            self.replies,
            self.reply_pattern,
            self.execs,
            self.edges,
            self.crashes,
        ];
        fields
            .iter()
            .flat_map(|f| f.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
            })
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "virt_ns={} live={} replies={} reply_pattern={:016x} execs={} edges={} crashes={} hash={:016x}",
            self.virt_ns,
            self.live,
            self.replies,
            self.reply_pattern,
            self.execs,
            self.edges,
            self.crashes,
            self.hash()
        )
    }
}

/// Cumulative layer counts a workload exposes. The traced run reports
/// their deltas over its traced blocks, and the sink counts over the warm
/// steps, which take the end-to-end path.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Requests sent by the host.
    pub requests: u64,
    /// Requests answered by exactly one correct reply.
    pub replies: u64,
    /// `clone_reset` calls.
    pub resets: u64,
    /// Pages restored by those resets.
    pub dirty_pages: u64,
    /// Trace-sink span closes (`SinkOverhead`).
    pub span_closes: u64,
    /// Trace-sink counter bumps (`SinkOverhead`).
    pub counter_bumps: u64,
}

impl Counters {
    /// Adds the counts accrued between `before` and `after`.
    pub fn add(&mut self, after: Counters, before: Counters) {
        self.requests += after.requests - before.requests;
        self.replies += after.replies - before.replies;
        self.resets += after.resets - before.resets;
        self.dirty_pages += after.dirty_pages - before.dirty_pages;
        self.span_closes += after.span_closes - before.span_closes;
        self.counter_bumps += after.counter_bumps - before.counter_bumps;
    }
}

/// Network counts of a platform.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fabric {
    /// Live vifs: what each pump round scans.
    pub live_vifs: u64,
    /// Clone-mux members.
    pub mux_members: u64,
    /// Packets routed per request, 0 when the workload sends none.
    pub packets_per_request: f64,
}

/// Per-clone resident cost of the ramp.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerClone {
    /// Xenstore entries added per clone.
    pub xs_entries: f64,
    /// P2m bytes private to a single domain, added per clone.
    pub p2m_unique_bytes: f64,
}

/// One workload.
pub trait Bench: Sized {
    /// The workload's name on the command line.
    const NAME: &'static str;
    /// Set-ups per untraced run; `setup_s` is their median.
    const SETUP_REPS: usize;
    /// Steps run after set-up before the digest is taken.
    const WARM_STEPS: u32;
    /// One step in this many is timed for the `step_*` samples, so that
    /// reading the clock stays a small part of a very short step.
    const SAMPLE_EVERY: u32 = 1;
    /// Measured steps after which the run sets the workload up afresh and
    /// runs its warm steps (both untimed), for a workload whose state
    /// drifts step by step. Such a run measures a whole number of these
    /// cycles rather than a span of host time, so every run measures the
    /// same stretch of steps, and the ops it attempts and those that fail
    /// depend on the seed alone, however fast the host. `u64::MAX` for a
    /// workload measured by host time.
    const CYCLE_STEPS: u64 = u64::MAX;
    /// Host seconds the [`Bench::CYCLE_STEPS`] measured steps of one cycle
    /// take on a 2-vCPU AMD EPYC VM: a run asked for `s` seconds measures
    /// `s / CYCLE_SECONDS` cycles, rounded, and at least one.
    const CYCLE_SECONDS: f64 = 1.0;

    /// Boots the platform and ramps it to steady state.
    fn setup(seed: u64, size: &Size) -> Self;
    /// Runs one step.
    fn step(&mut self, probe: &mut Probe) -> Tally;
    /// Runs the [`Bench::WARM_STEPS`] steps taken after set-up, untraced.
    fn warm(&mut self) -> Tally {
        let mut probe = Probe::untraced();
        let mut tally = Tally::default();
        for _ in 0..Self::WARM_STEPS {
            tally.add(self.step(&mut probe));
        }
        tally
    }
    /// The simulated outcome so far.
    fn digest(&self) -> Digest;
    /// Audits the platform and checks the live-domain count; returns the
    /// problems found.
    fn check(&self) -> Vec<String>;
    /// Cumulative layer counts.
    fn counters(&self) -> Counters;
    /// Network counts at the end of the traced phase.
    fn fabric(&mut self) -> Fabric;
    /// What the ramp cost per clone.
    fn per_clone(&self) -> PerClone;
    /// Host µs per call of the workload's clone, destroy and request ops:
    /// the span names behind `clone_*`, `destroy_*` and `request_*`.
    fn op_spans() -> [Option<&'static str>; 3];
}

/// The platform settings every workload shares: no automatic audit, no
/// flight-recorder dump files, default pool width.
fn base_config(seed: u64) -> PlatformConfigBuilder {
    nephele::PlatformConfig::builder()
        .seed(seed)
        .audit(AuditMode::Off)
        .flightrec_dumps(false)
}

/// Xenstore entries and unique p2m bytes, the per-clone resident costs.
fn resident(p: &Platform) -> (u64, u64) {
    (p.xs.entry_count(), p.snapshot().p2m_unique_bytes)
}

/// Live vifs and mux members of `p`; no requests.
fn fabric(p: &Platform) -> Fabric {
    Fabric {
        live_vifs: p.dm.all_vif_keys().len() as u64,
        mux_members: p.snapshot().mux_members as u64,
        packets_per_request: 0.0,
    }
}

/// Per-clone growth of [`resident`] since `base`, over `clones` clones.
fn per_clone(p: &Platform, base: (u64, u64), clones: usize) -> PerClone {
    let (entries, p2m) = resident(p);
    let n = clones.max(1) as f64;
    PerClone {
        xs_entries: entries.saturating_sub(base.0) as f64 / n,
        p2m_unique_bytes: p2m.saturating_sub(base.1) as f64 / n,
    }
}

/// Runs set-up plus warm steps and returns the digest.
pub fn digest_of<B: Bench>(seed: u64, size: &Size) -> Digest {
    let mut b = B::setup(seed, size);
    b.warm();
    b.digest()
}

/// A metric as reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Digest after set-up and warm steps.
    pub digest: Digest,
    /// Failed correctness checks (empty when correct).
    pub problems: Vec<String>,
    /// Ops of the measured phases.
    pub tally: Tally,
    /// The JSON metrics: [`END_TO_END`] untraced, [`PER_LAYER`] traced.
    pub metrics: Vec<Metric>,
    /// Further figures printed for people: per-op percentiles with their
    /// sample counts, the fail ratio.
    pub notes: Vec<String>,
}

/// About how much measured host time each of the trace run's alternating
/// untraced and traced blocks takes, so drift over the run falls on both
/// sides equally.
const BLOCK: Duration = Duration::from_millis(50);

/// The workload under measurement, rebuilt every [`Bench::CYCLE_STEPS`]
/// steps.
struct Subject<B> {
    /// `None` only while being rebuilt.
    b: Option<B>,
    seed: u64,
    size: Size,
    /// Steps since the last set-up.
    steps: u64,
}

impl<B: Bench> Subject<B> {
    fn bench(&mut self) -> &mut B {
        self.b.as_mut().expect("set up")
    }

    fn rebuild(&mut self) {
        // Free the old platform before building the next one.
        self.b = None;
        let mut b = B::setup(self.seed, &self.size);
        b.warm();
        self.b = Some(b);
        self.steps = 0;
    }
}

/// How long one call of [`Phase::run_for`] measures.
#[derive(Debug, Clone, Copy)]
enum Budget {
    /// This much host time, rebuilds left out.
    Time(Duration),
    /// This many steps.
    Steps(u64),
}

impl Budget {
    /// `total` of measured work cut into `parts` pieces: whole cycles for
    /// a workload with [`Bench::CYCLE_STEPS`], else host time.
    fn parts<B: Bench>(total: Duration, parts: u32) -> Self {
        match cycles::<B>(total) {
            Some(n) => Budget::Steps(n * B::CYCLE_STEPS / u64::from(parts)),
            None => Budget::Time(total / parts),
        }
    }
}

/// Cycles a run asked for `total` seconds measures, or `None` for a
/// workload measured by host time.
fn cycles<B: Bench>(total: Duration) -> Option<u64> {
    (B::CYCLE_STEPS != u64::MAX)
        .then(|| ((total.as_secs_f64() / B::CYCLE_SECONDS).round() as u64).max(1))
}

/// Steps measured under one probe setting.
struct Phase {
    probe: Probe,
    /// Host ns of every [`Bench::SAMPLE_EVERY`]-th step.
    samples: Samples,
    steps: u64,
    /// Measured host time; rebuilds are left out.
    elapsed: Duration,
    tally: Tally,
    /// Layer counts accrued during this phase's steps.
    counters: Counters,
}

impl Phase {
    fn new(probe: Probe) -> Self {
        Phase {
            probe,
            samples: Samples::default(),
            steps: 0,
            elapsed: Duration::ZERO,
            tally: Tally::default(),
            counters: Counters::default(),
        }
    }

    /// Runs steps for `budget`, rebuilding the subject untimed at the end
    /// of each cycle.
    fn run_for<B: Bench>(&mut self, s: &mut Subject<B>, budget: Budget) {
        let start = Instant::now();
        let mut paused = Duration::ZERO;
        let mut before = s.bench().counters();
        let mut steps = 0;
        loop {
            let done = match budget {
                Budget::Time(measured) => start.elapsed() >= measured + paused,
                Budget::Steps(n) => steps >= n,
            };
            if done {
                break;
            }
            // Rebuilt only before a step, so that the end-of-run checks and
            // counts see the state the last step left.
            if s.steps >= B::CYCLE_STEPS {
                let t = Instant::now();
                self.counters.add(s.bench().counters(), before);
                s.rebuild();
                before = s.bench().counters();
                paused += t.elapsed();
            }
            let t = Instant::now();
            steps += u64::from(B::SAMPLE_EVERY);
            let b = s.bench();
            self.tally.add(b.step(&mut self.probe));
            self.samples.push(t.elapsed().as_nanos() as u64);
            for _ in 1..B::SAMPLE_EVERY {
                self.tally.add(b.step(&mut self.probe));
            }
            self.steps += u64::from(B::SAMPLE_EVERY);
            s.steps += u64::from(B::SAMPLE_EVERY);
        }
        self.elapsed += start.elapsed() - paused;
        self.counters.add(s.bench().counters(), before);
    }

    fn ops_per_s(&self) -> f64 {
        self.steps as f64 / self.elapsed.as_secs_f64()
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Checks at `tiny` size that the digest repeats for a seed and changes
/// with it.
fn determinism_problems<B: Bench>(seed: u64, tiny: &Size) -> Vec<String> {
    let a = digest_of::<B>(seed, tiny);
    let b = digest_of::<B>(seed, tiny);
    let c = digest_of::<B>(seed.wrapping_add(1), tiny);
    let mut problems = Vec::new();
    if a != b {
        problems.push(format!("same seed, different digests: {a} vs {b}"));
    }
    if a == c {
        problems.push(format!(
            "seeds {seed} and {} give one digest: {a}",
            seed.wrapping_add(1)
        ));
    }
    problems
}

/// Runs workload `B`: set-up (repeated for `setup_s` when untraced), warm
/// steps, then `seconds` of measured steps. The traced run alternates
/// untraced and traced blocks, for the tracing overhead.
pub fn run<B: Bench>(seed: u64, seconds: f64, traced: bool, size: &Size) -> Report {
    let mut problems = determinism_problems::<B>(seed, &Size::TINY);
    let reps = if traced { 1 } else { B::SETUP_REPS };
    let mut setups = Vec::new();
    let mut digest = None;
    let mut bench: Option<B> = None;
    // Layer counts over the warm steps, which take the end-to-end path.
    let mut warm_counters = Counters::default();
    for _ in 0..reps {
        // Free the previous platform before building the next one.
        drop(bench.take());
        let t = Instant::now();
        let mut b = B::setup(seed, size);
        setups.push(t.elapsed().as_secs_f64());
        let before = b.counters();
        b.warm();
        warm_counters = Counters::default();
        warm_counters.add(b.counters(), before);
        let d = b.digest();
        match digest {
            None => digest = Some(d),
            Some(first) if first != d => {
                problems.push(format!("same seed, different digests: {first} vs {d}"))
            }
            Some(_) => {}
        }
        bench = Some(b);
    }
    let mut s = Subject {
        b: bench,
        seed,
        size: *size,
        steps: 0,
    };
    let digest = digest.expect("at least one set-up");

    let mut notes = Vec::new();
    let seconds = Duration::from_secs_f64(seconds);
    let (metrics, tally) = if traced {
        let per_clone = s.bench().per_clone();
        let mut phases = [
            Phase::new(Probe::trace_run(false)),
            Phase::new(Probe::trace_run(true)),
        ];
        // An even number of blocks, at least two.
        let blocks =
            ((seconds.as_secs_f64() / BLOCK.as_secs_f64() / 2.0).round() as u32).max(1) * 2;
        let budget = Budget::parts::<B>(seconds, blocks);
        for i in 0..blocks as usize {
            phases[i % 2].run_for(&mut s, budget);
        }
        let [untraced, traced] = phases;
        let mut tally = untraced.tally;
        tally.add(traced.tally);
        (
            layer_metrics(s.bench(), &untraced, &traced, warm_counters, per_clone),
            tally,
        )
    } else {
        // Windows of about a quarter second, or one per cycle; each step
        // metric is the median over the windows, so a burst of load from
        // elsewhere on the host moves a few windows, not the result.
        let windows = match cycles::<B>(seconds) {
            Some(n) => n as u32,
            None => ((seconds.as_secs_f64() * 4.0).round() as u32).max(1),
        };
        let budget = Budget::parts::<B>(seconds, windows);
        let mut phase = Phase::new(Probe::untraced());
        let (mut ops, mut p50, mut p90) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..windows {
            let (steps, elapsed) = (phase.steps, phase.elapsed);
            phase.samples = Samples::default();
            phase.run_for(&mut s, budget);
            ops.push((phase.steps - steps) as f64 / (phase.elapsed - elapsed).as_secs_f64());
            p50.push(phase.samples.quantile_us(0.5).unwrap_or(0.0));
            p90.push(phase.samples.quantile_us(0.9).unwrap_or(0.0));
        }
        notes = op_notes::<B>(&phase);
        notes.push(format!("step_p90_us = {} us", median(p90)));
        let metrics = vec![
            metric("setup_s", median(setups)),
            metric("ops_per_s", median(ops)),
            metric("step_p50_us", median(p50)),
            metric("peak_rss_mib", host::peak_rss_mib().unwrap_or(0.0)),
        ];
        (metrics, phase.tally)
    };
    notes.push(format!(
        "fail_ratio = {} ({} of {} ops failed)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    ));
    problems.extend(s.bench().check());
    Report {
        workload: B::NAME,
        seed,
        traced,
        digest,
        problems,
        tally,
        metrics,
        notes,
    }
}

fn metric(name: &'static str, value: f64) -> Metric {
    let unit = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .expect("metric is listed");
    Metric { name, value, unit }
}

fn op_notes<B: Bench>(phase: &Phase) -> Vec<String> {
    let mut notes = Vec::new();
    for (op, span) in ["clone", "destroy", "request"]
        .into_iter()
        .zip(B::op_spans())
    {
        let Some(s) = span.and_then(|s| phase.probe.span(s)) else {
            notes.push(format!(
                "{op}_p50_us, {op}_p90_us = n/a (no {op} op in this workload)"
            ));
            continue;
        };
        notes.push(format!(
            "{op}_p50_us = {} us, {op}_p90_us = {} us (n = {}, span {})",
            s.quantile_us(0.5).unwrap_or(0.0),
            s.quantile_us(0.9).unwrap_or(0.0),
            s.count(),
            span.unwrap_or_default(),
        ));
    }
    notes
}

fn per(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn layer_metrics<B: Bench>(
    b: &mut B,
    untraced: &Phase,
    traced: &Phase,
    warm: Counters,
    per_clone: PerClone,
) -> Vec<Metric> {
    let c = traced.counters;
    let warm_steps = u64::from(B::WARM_STEPS);
    let fabric = b.fabric();
    let (fast, slow) = (untraced.ops_per_s(), traced.ops_per_s());
    PER_LAYER
        .iter()
        .map(|(name, _)| {
            let value = match *name {
                "xenstore.entries_per_clone" => per_clone.xs_entries,
                "hypervisor.p2m_unique_bytes_per_clone" => per_clone.p2m_unique_bytes,
                "sim-core.trace.span_closes_per_step" => per(warm.span_closes, warm_steps),
                "sim-core.trace.counter_bumps_per_step" => per(warm.counter_bumps, warm_steps),
                "devices.live_vifs" => fabric.live_vifs as f64,
                "netmux.members" => fabric.mux_members as f64,
                "netmux.reply_ratio" => per(c.replies, c.requests),
                "nephele.packets_per_request" => fabric.packets_per_request,
                "hypervisor.dirty_pages_per_reset" => per(c.dirty_pages, c.resets),
                "bench.untraced_ops_per_s" => fast,
                "bench.traced_ops_per_s" => slow,
                "bench.trace_overhead_pct" => (fast - slow) / fast * 100.0,
                // The rest are p50s of the span named without the suffix.
                time => {
                    let span = time.strip_suffix("_us").expect("per-layer time metric");
                    traced
                        .probe
                        .span(span)
                        .and_then(|s| s.quantile_us(0.5))
                        .unwrap_or(0.0)
                }
            };
            metric(name, value)
        })
        .collect()
}

/// The workloads by name.
pub const WORKLOADS: &[&str] = &[
    clone_churn::CloneChurn::NAME,
    vif_family::VifFamily::NAME,
    fuzz_reset::FuzzReset::NAME,
];

/// Runs the workload named `name`; `None` for an unknown name.
pub fn run_named(name: &str, seed: u64, seconds: f64, traced: bool, size: &Size) -> Option<Report> {
    Some(match name {
        clone_churn::CloneChurn::NAME => {
            run::<clone_churn::CloneChurn>(seed, seconds, traced, size)
        }
        vif_family::VifFamily::NAME => run::<vif_family::VifFamily>(seed, seconds, traced, size),
        fuzz_reset::FuzzReset::NAME => run::<fuzz_reset::FuzzReset>(seed, seconds, traced, size),
        _ => return None,
    })
}

/// Seeded ramp batch sizes in `lo..hi` summing to `total`.
fn ramp_batches(rng: &mut nephele::sim_core::SplitMix64, total: u32, lo: u32, hi: u32) -> Vec<u32> {
    let mut batches = Vec::new();
    let mut left = total;
    while left > 0 {
        let b = (lo + rng.next_below(u64::from(hi - lo)) as u32).min(left);
        batches.push(b);
        left -= b;
    }
    batches
}
