//! `fuzz_reset`: the Fig. 9 `unikraft_cloning` loop driven through public
//! calls. A campaign boots a 16 MiB fuzz-adapter guest, clones it once,
//! privatizes 64 text pages of the clone with `CloneCow`, writes the
//! breakpoints and checkpoints it. Each step is one AFL exec:
//! `Afl::next_input`, `with_app::<FuzzAdapterApp>` execute,
//! `cloneop(CloneReset)`, `Afl::report`. The trace sink is off.
//!
//! It is a µs-scale loop on hypervisor reset plus per-call platform
//! overhead (dispatch, flight recorder, a pump with no vifs), at a
//! density of two guests per platform. The seed drives AFL.

use std::time::Instant;

use fuzz::Afl;
use nephele::apps::{ExecResult, FuzzAdapterApp};
use nephele::hypervisor::cloneop::{CloneOp, CloneOpResult};
use nephele::sim_core::{DomId, Pfn, SimDuration, SplitMix64};
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{MuxKind, Platform};

use crate::probe::Probe;
use crate::{
    base_config, fabric, per_clone, resident, Bench, Counters, Digest, Fabric, PerClone, Size,
    Tally,
};

/// Text pages privatized and instrumented in the fuzzed clone.
pub const TEXT_PAGES: u64 = 64;
/// Independent campaigns per run, each on a platform of its own.
pub const CAMPAIGNS: usize = 32;
/// Execs a campaign runs before the next one takes over.
pub const SEGMENT: u64 = 1 << 12;
/// Execs each campaign runs after set-up, in turn, before the digest is
/// taken, so that the digest covers every campaign's AFL stream.
pub const WARM_EXECS: u32 = 125;

/// One fuzzing campaign: a platform with the fuzz target, its
/// instrumented clone and an AFL engine.
struct Campaign {
    p: Platform,
    clone: DomId,
    afl: Afl,
    counters: Counters,
    base: (u64, u64),
}

impl Campaign {
    fn new(seed: u64) -> Self {
        let mut p = Platform::new(
            base_config(seed)
                .guest_pool_mib(256)
                .ring_capacity(128)
                .mux(MuxKind::None)
                .build(),
        );
        let cfg = DomainConfig::builder("fuzz-target")
            .memory_mib(16)
            .max_clones(u32::MAX)
            .resume_clones(false)
            .build();
        let parent = p
            .launch(
                &cfg,
                &KernelImage::unikraft("fuzz-adapter"),
                Box::new(FuzzAdapterApp::new()),
            )
            .expect("fuzz target boots");
        let base = resident(&p);
        // KFX clones the target and instruments the clone (§7.2).
        let clone = p.clone_domain(parent, 1).expect("fuzz clone")[0];
        let text: Vec<Pfn> = (0..TEXT_PAGES).map(Pfn).collect();
        p.hv.cloneop(
            DomId::DOM0,
            CloneOp::CloneCow {
                dom: clone,
                pfns: text.clone(),
            },
        )
        .expect("privatize text pages");
        for (i, pfn) in text.iter().enumerate() {
            p.clock.advance(p.costs.kfx_breakpoint_insert);
            p.hv.write_page(clone, *pfn, 0, &[0xCC, i as u8])
                .expect("write breakpoint");
        }
        p.hv.cloneop(DomId::DOM0, CloneOp::Checkpoint { dom: clone })
            .expect("checkpoint");
        let mut rng = SplitMix64::new(seed);
        let first_input = (0..16).map(|_| rng.next_u64() as u8).collect();
        Campaign {
            p,
            clone,
            afl: Afl::new(seed, first_input),
            counters: Counters::default(),
            base,
        }
    }

    /// One AFL exec.
    fn exec(&mut self, probe: &mut Probe) -> Tally {
        let mut tally = Tally::default();
        let p = &mut self.p;
        p.clock.advance(p.costs.afl_overhead);
        p.clock.advance(p.costs.kfx_coverage_overhead_pv);
        p.clock.advance(p.costs.fuzz_exec_body);
        let afl = &mut self.afl;
        let t = probe.traced.then(Instant::now);
        let input = afl.next_input();
        let afl_ns = t.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let clone = self.clone;
        let result = probe.layer("apps.exec", || {
            p.with_app::<FuzzAdapterApp, ExecResult>(clone, |app, env| app.execute(env, &input))
        });
        let reset = probe.layer("hypervisor.reset", || {
            p.hv.cloneop(DomId::DOM0, CloneOp::CloneReset { dom: clone })
        });
        if let Ok(CloneOpResult::Reset { dirty_pages }) = reset {
            self.counters.resets += 1;
            self.counters.dirty_pages += dirty_pages;
        }
        if let Some(result) = &result {
            if result.crashed {
                // KFX collects the crash report before resetting.
                p.clock.advance(SimDuration::from_ms(2));
            }
            let t = probe.traced.then(Instant::now);
            afl.report(&input, &result.edges, result.crashed);
            if let Some(t) = t {
                probe.record("fuzz.afl", afl_ns + t.elapsed().as_nanos() as u64);
            }
        }
        tally.op(result.is_none() || !matches!(reset, Ok(CloneOpResult::Reset { .. })));
        tally
    }
}

/// The `fuzz_reset` workload: [`CAMPAIGNS`] campaigns taking turns of
/// [`SEGMENT`] execs, so one run averages over several AFL input streams
/// instead of depending on the corpus one stream happens to grow.
pub struct FuzzReset {
    campaigns: Vec<Campaign>,
    execs: u64,
}

impl Bench for FuzzReset {
    const NAME: &'static str = "fuzz_reset";
    const SETUP_REPS: usize = 9;
    const WARM_STEPS: u32 = CAMPAIGNS as u32 * WARM_EXECS;
    /// One exec takes about a microsecond; two clock reads per exec would
    /// cost a few percent of it.
    const SAMPLE_EVERY: u32 = 16;

    fn setup(seed: u64, _size: &Size) -> Self {
        let mut seeds = SplitMix64::new(seed);
        FuzzReset {
            campaigns: (0..CAMPAIGNS)
                .map(|_| Campaign::new(seeds.next_u64()))
                .collect(),
            execs: 0,
        }
    }

    fn step(&mut self, probe: &mut Probe) -> Tally {
        let turn = (self.execs / SEGMENT) as usize % CAMPAIGNS;
        self.execs += 1;
        self.campaigns[turn].exec(probe)
    }

    /// [`WARM_EXECS`] execs per campaign, one campaign after the other; the
    /// measured steps then start with campaign 0's first turn.
    fn warm(&mut self) -> Tally {
        let mut probe = Probe::untraced();
        let mut tally = Tally::default();
        for c in &mut self.campaigns {
            for _ in 0..WARM_EXECS {
                tally.add(c.exec(&mut probe));
            }
        }
        tally
    }

    fn digest(&self) -> Digest {
        let mut d = Digest::default();
        for c in &self.campaigns {
            d.virt_ns += c.p.clock.now().as_ns();
            d.live += c.p.hv.domain_count() as u64;
            d.execs += c.afl.executions();
            d.edges += c.afl.edges_covered() as u64;
            d.crashes += c.afl.crashes();
        }
        d
    }

    fn check(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for (i, c) in self.campaigns.iter().enumerate() {
            let report = c.p.audit();
            if !report.is_clean() {
                problems.push(format!("{} campaign {i}: audit: {report}", Self::NAME));
            }
            // Dom0, the fuzz target and its instrumented clone.
            if c.p.hv.domain_count() != 3 {
                problems.push(format!(
                    "{} campaign {i}: {} live domains, want 3",
                    Self::NAME,
                    c.p.hv.domain_count()
                ));
            }
        }
        problems
    }

    fn counters(&self) -> Counters {
        let mut sum = Counters::default();
        for c in &self.campaigns {
            sum.add(c.counters, Counters::default());
        }
        sum
    }

    fn fabric(&mut self) -> Fabric {
        fabric(&self.campaigns[0].p)
    }

    fn per_clone(&self) -> PerClone {
        let c = &self.campaigns[0];
        per_clone(&c.p, c.base, 1)
    }

    fn op_spans() -> [Option<&'static str>; 3] {
        [None, None, None]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_steps_run_every_campaign() {
        let mut fuzz = FuzzReset::setup(3, &Size::TINY);
        fuzz.warm();
        for (i, c) in fuzz.campaigns.iter().enumerate() {
            assert_eq!(c.afl.executions(), u64::from(WARM_EXECS), "campaign {i}");
        }
        assert_eq!(fuzz.execs, 0, "the measured turns start at campaign 0");
    }
}
