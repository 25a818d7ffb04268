//! `clone_churn`: a 4 MiB vif-less unikraft template cloned from Dom0 to
//! [`Size::churn_live`] live children. Each step is one
//! `clone_domain(template, 16)` followed by destroying the 16 oldest
//! children. The trace sink runs in `TraceMode::Aggregate`, the mode for
//! wide runs.
//!
//! It loads hypervisor stage 1, `xencloned` stage 2, Xenstore, toolstack
//! destroy and the trace sink at 10^5 domains; the device data path, the
//! mux and the pump stay idle. The seed picks the ramp's batch sizes and
//! the idle virtual time between batches.

use std::collections::VecDeque;

use nephele::hypervisor::cloneop::{CloneOp, CloneOpResult};
use nephele::sim_core::{DomId, SimDuration, SplitMix64};
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{MuxKind, Platform, TraceMode};

use crate::probe::Probe;
use crate::{
    base_config, fabric, per_clone, ramp_batches, resident, Bench, Counters, Digest, Fabric,
    PerClone, Size, Tally,
};

/// Children cloned, and oldest children destroyed, per step.
pub const BATCH: u32 = 16;

/// The `clone_churn` workload.
pub struct CloneChurn {
    p: Platform,
    template: DomId,
    /// Live children, oldest first.
    children: VecDeque<DomId>,
    target: u32,
    base: (u64, u64),
}

impl Bench for CloneChurn {
    const NAME: &'static str = "clone_churn";
    const SETUP_REPS: usize = 3;
    const WARM_STEPS: u32 = 64;

    fn setup(seed: u64, size: &Size) -> Self {
        let mut p = Platform::new(
            base_config(seed)
                .mux(MuxKind::None)
                .ring_capacity(1_024)
                .trace_mode(TraceMode::Aggregate)
                .build(),
        );
        let cfg = DomainConfig::builder("churn-tmpl")
            .memory_mib(4)
            .max_clones(u32::MAX)
            .resume_clones(false)
            .build();
        let template = p
            .launch_plain(&cfg, &KernelImage::unikraft("churn-fn"))
            .expect("template boots");
        let base = resident(&p);
        let mut children = VecDeque::with_capacity(size.churn_live as usize + BATCH as usize);
        let mut rng = SplitMix64::new(seed);
        for batch in ramp_batches(&mut rng, size.churn_live, 256, 1_024) {
            let kids = p.clone_domain(template, batch).expect("ramp clone");
            assert_eq!(
                kids.len() as u32,
                batch,
                "guest pool exhausted during the ramp"
            );
            children.extend(kids);
            // Seeded idle time before the next batch arrives.
            p.run_for(SimDuration::from_us(rng.next_below(10_000)));
        }
        CloneChurn {
            p,
            template,
            children,
            target: size.churn_live,
            base,
        }
    }

    fn step(&mut self, probe: &mut Probe) -> Tally {
        let mut tally = Tally::default();
        let t = self.template;
        let kids = if probe.trace_run {
            // The two public halves of `clone_domain`, called apart in both
            // kinds of block of the traced run and timed in its traced
            // blocks. This skips `clone_domain`'s own span, memory gauges
            // and flight event, so the tracing overhead compares like
            // with like; the sink counts come from the warm steps, which
            // call `clone_domain`.
            let stage1 = probe.layer("hypervisor.stage1", || {
                self.p.hv.cloneop(
                    DomId::DOM0,
                    CloneOp::Clone {
                        target: Some(t),
                        nr_clones: BATCH,
                    },
                )
            });
            match stage1 {
                Ok(CloneOpResult::Cloned(_)) => {
                    probe.layer("xencloned.stage2", || self.p.finish_pending_clones(t))
                }
                Ok(_) => Ok(Vec::new()),
                Err(e) => Err(e.into()),
            }
        } else {
            probe.time("nephele.clone_domain", || self.p.clone_domain(t, BATCH))
        };
        match kids {
            Ok(kids) => {
                tally.op(kids.len() as u32 != BATCH);
                self.children.extend(kids);
            }
            Err(_) => tally.op(true),
        }
        while self.children.len() > self.target as usize {
            let oldest = self
                .children
                .pop_front()
                .expect("more children than the target");
            let r = probe.time("toolstack.destroy", || self.p.destroy(oldest));
            tally.op(r.is_err());
        }
        tally
    }

    fn digest(&self) -> Digest {
        Digest {
            virt_ns: self.p.clock.now().as_ns(),
            live: self.p.hv.domain_count() as u64,
            ..Digest::default()
        }
    }

    fn check(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let report = self.p.audit();
        if !report.is_clean() {
            problems.push(format!("{}: audit: {report}", Self::NAME));
        }
        // Dom0, the template and the live children.
        let want = self.target as usize + 2;
        if self.p.hv.domain_count() != want {
            problems.push(format!(
                "{}: {} live domains, want {want}",
                Self::NAME,
                self.p.hv.domain_count()
            ));
        }
        problems
    }

    fn counters(&self) -> Counters {
        let overhead = self.p.trace().overhead();
        Counters {
            span_closes: overhead.span_closes,
            counter_bumps: overhead.counter_bumps,
            ..Counters::default()
        }
    }

    fn fabric(&mut self) -> Fabric {
        fabric(&self.p)
    }

    fn per_clone(&self) -> PerClone {
        per_clone(&self.p, self.base, self.children.len())
    }

    fn op_spans() -> [Option<&'static str>; 3] {
        [
            Some("nephele.clone_domain"),
            Some("toolstack.destroy"),
            None,
        ]
    }
}
