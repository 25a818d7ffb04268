//! Fuzzing campaigns reproducing Fig. 9 (§7.2).
//!
//! Four setups are modelled, matching the paper's experiment matrix:
//!
//! * **Unikraft + cloning (KFX+AFL)** — the target VM is cloned once, the
//!   clone is instrumented with breakpoints via `clone_cow`, then each
//!   iteration executes one AFL input and restores the memory with
//!   `clone_reset`. Runs on the full platform; resets and dirty pages are
//!   the real hypervisor operations.
//! * **Unikraft without cloning** — "we start a new VM instance for each
//!   AFL input because it is the only way of reaching the same state";
//!   yields ~2 executions/second.
//! * **Linux process (AFL)** — the same adapter source built natively and
//!   fuzzed through a fork server (no KFX, no code coverage instrumentation
//!   overhead in the paper's baseline).
//! * **Linux kernel module (KFX+AFL)** — an HVM Linux guest; pricier VM
//!   exits and roughly twice the reset cost (more dirty pages).

use apps::{default_syscall_table, interpret_input, FuzzAdapterApp, SYS_GETPPID};
use linux_procs::ProcessModel;
use nephele::hypervisor::cloneop::{CloneOp, CloneOpResult};
use nephele::sim_core::{Clock, DomId, Pfn, SimDuration, SimTime, SplitMix64};
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{Platform, PlatformConfig, TraceMode, TraceSink};

use crate::afl::Afl;

/// What is being fuzzed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzTarget {
    /// The whole (partially supported) syscall subsystem — throughput
    /// varies with crashes in unsupported paths.
    SyscallSubsystem,
    /// Only `getppid`, the fully supported baseline syscall.
    Getppid,
}

/// The experimental setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzMode {
    /// KFX+AFL over a Nephele clone with `clone_cow`/`clone_reset`.
    UnikraftClone,
    /// A fresh VM boot per input (no cloning support).
    UnikraftBootEach,
    /// Native Linux process through an AFL fork server.
    LinuxProcess,
    /// KFX+AFL over an HVM Linux guest running a kernel module.
    LinuxKernelModule,
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Setup to run.
    pub mode: FuzzMode,
    /// Fuzz target.
    pub target: FuzzTarget,
    /// Virtual campaign duration (the paper plots 300 s).
    pub duration: SimDuration,
    /// PRNG seed.
    pub seed: u64,
    /// Trace mode of the campaign platform (off by default; the platform
    /// modes thread this through [`PlatformConfig`], the bare Linux models
    /// have no platform and ignore it).
    pub tracing: TraceMode,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            mode: FuzzMode::UnikraftClone,
            target: FuzzTarget::SyscallSubsystem,
            duration: SimDuration::from_secs(300),
            seed: 0xF022,
            tracing: TraceMode::Off,
        }
    }
}

/// Campaign results.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// `(second, executions-in-that-second)` series — the Fig. 9 curves.
    pub series: Vec<(f64, f64)>,
    /// Total executions.
    pub total_execs: u64,
    /// Mean throughput in executions/second.
    pub avg_throughput: f64,
    /// Crashing inputs observed.
    pub crashes: u64,
    /// Coverage edges discovered.
    pub edges: usize,
    /// Corpus size at the end.
    pub corpus: usize,
    /// Mean `clone_reset` duration in microseconds (clone modes only).
    pub avg_reset_us: f64,
    /// Mean dirty pages restored per reset (clone modes only).
    pub avg_dirty_pages: f64,
    /// The campaign platform's trace sink (disabled for the Linux modes
    /// and when [`FuzzConfig::tracing`] left tracing off).
    pub trace: TraceSink,
}

struct Bucketizer {
    duration: SimDuration,
    buckets: Vec<u64>,
}

impl Bucketizer {
    fn new(duration: SimDuration) -> Self {
        Bucketizer {
            duration,
            buckets: vec![0; duration.as_secs_f64().ceil() as usize + 1],
        }
    }

    fn record(&mut self, at: SimTime) {
        let s = at.as_ns() / 1_000_000_000;
        if let Some(b) = self.buckets.get_mut(s as usize) {
            *b += 1;
        }
    }

    fn series(&self) -> Vec<(f64, f64)> {
        let secs = self.duration.as_secs_f64() as usize;
        self.buckets
            .iter()
            .take(secs)
            .enumerate()
            .map(|(i, c)| (i as f64, *c as f64))
            .collect()
    }
}

fn seed_input(target: FuzzTarget, rng: &mut SplitMix64) -> Vec<u8> {
    match target {
        FuzzTarget::SyscallSubsystem => (0..16).map(|_| rng.next_u64() as u8).collect(),
        FuzzTarget::Getppid => vec![SYS_GETPPID, 0],
    }
}

fn constrain(target: FuzzTarget, mut input: Vec<u8>) -> Vec<u8> {
    if target == FuzzTarget::Getppid {
        // The baseline fuzzes a single fully supported syscall: pin every
        // dispatched syscall number to getppid.
        for b in input.iter_mut().step_by(2) {
            *b = SYS_GETPPID;
        }
    }
    input
}

/// Runs one campaign and returns its report.
pub fn run_campaign(cfg: &FuzzConfig) -> FuzzReport {
    match cfg.mode {
        FuzzMode::UnikraftClone => run_unikraft_clone(cfg),
        FuzzMode::UnikraftBootEach => run_unikraft_boot_each(cfg),
        FuzzMode::LinuxProcess => run_linux_process(cfg),
        FuzzMode::LinuxKernelModule => run_linux_module(cfg),
    }
}

fn finish(
    afl: &Afl,
    buckets: &Bucketizer,
    duration: SimDuration,
    reset_us_sum: f64,
    dirty_sum: u64,
    resets: u64,
    trace: TraceSink,
) -> FuzzReport {
    FuzzReport {
        trace,
        series: buckets.series(),
        total_execs: afl.executions(),
        avg_throughput: afl.executions() as f64 / duration.as_secs_f64(),
        crashes: afl.crashes(),
        edges: afl.edges_covered(),
        corpus: afl.corpus_size(),
        avg_reset_us: if resets > 0 { reset_us_sum / resets as f64 } else { 0.0 },
        avg_dirty_pages: if resets > 0 { dirty_sum as f64 / resets as f64 } else { 0.0 },
    }
}

fn fuzz_platform(cfg: &FuzzConfig) -> Platform {
    Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(256)
            .ring_capacity(128)
            .mux(nephele::MuxKind::None)
            .trace_mode(cfg.tracing)
            .build(),
    )
}

fn fuzz_guest_cfg() -> DomainConfig {
    DomainConfig::builder("fuzz-target")
        .memory_mib(16)
        .max_clones(100_000)
        .resume_clones(false)
        .build()
}

fn run_unikraft_clone(cfg: &FuzzConfig) -> FuzzReport {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut p = fuzz_platform(cfg);
    let parent = p
        .launch(
            &fuzz_guest_cfg(),
            &KernelImage::unikraft("fuzz-adapter"),
            Box::new(FuzzAdapterApp::new()),
        )
        .unwrap();

    // KFX clones the target and instruments the *clone* (§7.2).
    let clone = p.clone_domain(parent, 1).unwrap()[0];
    let text_pages: Vec<Pfn> = (0..64).map(Pfn).collect();
    p.hv.cloneop(
        DomId::DOM0,
        CloneOp::CloneCow {
            dom: clone,
            pfns: text_pages.clone(),
        },
    )
    .unwrap();
    // Breakpoint insertion into the privatized pages.
    for (i, pfn) in text_pages.iter().enumerate() {
        p.clock.advance(p.costs.kfx_breakpoint_insert);
        let marker = [0xCCu8, i as u8];
        p.hv.write_page(clone, *pfn, 0, &marker).unwrap();
    }
    p.hv
        .cloneop(DomId::DOM0, CloneOp::Checkpoint { dom: clone })
        .unwrap();

    let mut afl = Afl::new(cfg.seed, seed_input(cfg.target, &mut rng));
    let mut buckets = Bucketizer::new(cfg.duration);
    let t_end = p.clock.now() + cfg.duration;
    let (mut reset_us, mut dirty_sum, mut resets) = (0.0f64, 0u64, 0u64);

    while p.clock.now() < t_end {
        p.clock.advance(p.costs.afl_overhead);
        p.clock.advance(p.costs.kfx_coverage_overhead_pv);
        p.clock.advance(p.costs.fuzz_exec_body);
        let input = constrain(cfg.target, afl.next_input());

        let result = p
            .with_app::<FuzzAdapterApp, apps::ExecResult>(clone, |app, env| {
                app.execute(env, &input)
            })
            .expect("fuzz clone has the adapter app");
        if result.crashed {
            // Crash handling: KFX collects the report before resetting.
            p.clock.advance(SimDuration::from_ms(2));
        }
        afl.report(&input, &result.edges, result.crashed);

        let t0 = p.clock.now();
        let r = p
            .hv
            .cloneop(DomId::DOM0, CloneOp::CloneReset { dom: clone })
            .unwrap();
        if let CloneOpResult::Reset { dirty_pages } = r {
            dirty_sum += dirty_pages;
        }
        reset_us += p.clock.now().since(t0).as_us_f64();
        resets += 1;
        buckets.record(p.clock.now());
    }
    finish(&afl, &buckets, cfg.duration, reset_us, dirty_sum, resets, p.trace().clone())
}

fn run_unikraft_boot_each(cfg: &FuzzConfig) -> FuzzReport {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut p = fuzz_platform(cfg);
    let mut afl = Afl::new(cfg.seed, seed_input(cfg.target, &mut rng));
    let mut buckets = Bucketizer::new(cfg.duration);
    let t_end = p.clock.now() + cfg.duration;
    let image = KernelImage::unikraft("fuzz-adapter");
    let mut seq = 0u64;

    while p.clock.now() < t_end {
        p.clock.advance(p.costs.afl_overhead);
        // A fresh VM per input: the only way to reach the same state.
        seq += 1;
        let guest_cfg = DomainConfig::builder(&format!("fuzz-{seq}"))
            .memory_mib(16)
            .build();
        let dom = p
            .launch(&guest_cfg, &image, Box::new(FuzzAdapterApp::new()))
            .unwrap();
        // KFX must attach to every fresh instance.
        p.clock.advance(p.costs.kfx_attach);
        p.clock.advance(p.costs.kfx_coverage_overhead_pv);
        p.clock.advance(p.costs.fuzz_exec_body);
        let input = constrain(cfg.target, afl.next_input());
        let result = p
            .with_app::<FuzzAdapterApp, apps::ExecResult>(dom, |app, env| app.execute(env, &input))
            .expect("fresh VM has the adapter");
        afl.report(&input, &result.edges, result.crashed);
        p.destroy(dom).unwrap();
        buckets.record(p.clock.now());
    }
    finish(&afl, &buckets, cfg.duration, 0.0, 0, 0, p.trace().clone())
}

fn run_linux_process(cfg: &FuzzConfig) -> FuzzReport {
    let clock = Clock::new();
    let costs = sim_core_costs();
    let mut pm = ProcessModel::new(clock.clone(), costs.clone());
    let mut parent = pm.spawn(16);
    pm.fork(&mut parent); // warm up: mark the space COW once

    let mut rng = SplitMix64::new(cfg.seed);
    let mut afl = Afl::new(cfg.seed, seed_input(cfg.target, &mut rng));
    let mut buckets = Bucketizer::new(cfg.duration);
    let table = default_syscall_table();
    let t_end = clock.now() + cfg.duration;

    while clock.now() < t_end {
        clock.advance(costs.afl_overhead);
        // Fork server: one child per input; no KFX coverage overhead (the
        // paper's process baseline runs AFL only).
        let _child = pm.fork(&mut parent);
        clock.advance(costs.fuzz_exec_body);
        let input = constrain(cfg.target, afl.next_input());
        let result = interpret_input(&input, &table);
        if result.crashed {
            clock.advance(SimDuration::from_ms(1));
        }
        // The child dirtied a few pages; the parent remarks them next fork.
        pm.touch(&mut parent, 3);
        afl.report(&input, &result.edges, result.crashed);
        buckets.record(clock.now());
    }
    finish(&afl, &buckets, cfg.duration, 0.0, 0, 0, TraceSink::disabled())
}

fn run_linux_module(cfg: &FuzzConfig) -> FuzzReport {
    let clock = Clock::new();
    let costs = sim_core_costs();
    let mut rng = SplitMix64::new(cfg.seed);
    let mut afl = Afl::new(cfg.seed, seed_input(cfg.target, &mut rng));
    let mut buckets = Bucketizer::new(cfg.duration);
    let table = default_syscall_table();
    let t_end = clock.now() + cfg.duration;
    let (mut reset_us, mut dirty_sum, mut resets) = (0.0f64, 0u64, 0u64);

    while clock.now() < t_end {
        clock.advance(costs.afl_overhead);
        clock.advance(costs.kfx_coverage_overhead_hvm);
        clock.advance(costs.fuzz_exec_body);
        let input = constrain(cfg.target, afl.next_input());
        let result = interpret_input(&input, &table);
        afl.report(&input, &result.edges, result.crashed);

        // HVM reset: "a consistent average of 8 [dirty] pages for Linux in
        // comparison to an average of 3 pages for Unikraft".
        let t0 = clock.now();
        let dirty = 8;
        clock.advance(costs.kfx_reset_base);
        clock.advance(costs.kfx_reset_per_page.saturating_mul(dirty));
        reset_us += clock.now().since(t0).as_us_f64();
        dirty_sum += dirty;
        resets += 1;
        buckets.record(clock.now());
    }
    finish(&afl, &buckets, cfg.duration, reset_us, dirty_sum, resets, TraceSink::disabled())
}

fn sim_core_costs() -> std::rc::Rc<nephele::sim_core::CostModel> {
    std::rc::Rc::new(nephele::sim_core::CostModel::calibrated())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(mode: FuzzMode, target: FuzzTarget) -> FuzzReport {
        run_campaign(&FuzzConfig {
            mode,
            target,
            duration: SimDuration::from_secs(10),
            seed: 42,
            ..Default::default()
        })
    }

    #[test]
    fn cloning_raises_throughput_by_orders_of_magnitude() {
        let with = quick(FuzzMode::UnikraftClone, FuzzTarget::Getppid);
        let without = quick(FuzzMode::UnikraftBootEach, FuzzTarget::Getppid);
        assert!(
            with.avg_throughput > 50.0 * without.avg_throughput,
            "cloning {} vs boot-each {}",
            with.avg_throughput,
            without.avg_throughput
        );
        assert!(without.avg_throughput < 10.0, "boot-each should be ~2/s");
    }

    #[test]
    fn process_beats_clone_by_a_modest_margin() {
        let proc = quick(FuzzMode::LinuxProcess, FuzzTarget::Getppid);
        let clone = quick(FuzzMode::UnikraftClone, FuzzTarget::Getppid);
        assert!(proc.avg_throughput > clone.avg_throughput);
        let gap = (proc.avg_throughput - clone.avg_throughput) / proc.avg_throughput;
        assert!(gap < 0.45, "gap should be modest (paper: 18.6%), got {gap:.2}");
    }

    #[test]
    fn module_slower_than_unikraft_clone() {
        let module = quick(FuzzMode::LinuxKernelModule, FuzzTarget::Getppid);
        let clone = quick(FuzzMode::UnikraftClone, FuzzTarget::Getppid);
        assert!(clone.avg_throughput > module.avg_throughput);
        // Dirty pages: 8 (Linux) vs ~3 (Unikraft).
        assert!(module.avg_dirty_pages > clone.avg_dirty_pages);
        assert!(module.avg_reset_us > clone.avg_reset_us);
    }

    #[test]
    fn reset_restores_state_every_iteration() {
        let r = quick(FuzzMode::UnikraftClone, FuzzTarget::SyscallSubsystem);
        assert!(r.total_execs > 100);
        // Scratch pages + instrumented-state pages get restored.
        assert!(r.avg_dirty_pages >= 1.0, "dirty avg {}", r.avg_dirty_pages);
        assert!(r.avg_dirty_pages <= 6.0, "dirty avg {}", r.avg_dirty_pages);
    }

    #[test]
    fn syscall_fuzzing_finds_coverage_and_crashes() {
        let r = quick(FuzzMode::UnikraftClone, FuzzTarget::SyscallSubsystem);
        assert!(r.edges > 50, "edges {}", r.edges);
        assert!(r.corpus > 1);
        assert!(r.crashes > 0, "unsupported syscalls should crash sometimes");
        // Getppid-only fuzzing covers almost nothing new after warmup.
        let b = quick(FuzzMode::UnikraftClone, FuzzTarget::Getppid);
        assert!(b.edges < r.edges);
    }

    #[test]
    fn series_covers_whole_duration() {
        let r = quick(FuzzMode::LinuxProcess, FuzzTarget::Getppid);
        assert_eq!(r.series.len(), 10);
        assert!(r.series.iter().all(|(_, c)| *c > 0.0));
    }
}
