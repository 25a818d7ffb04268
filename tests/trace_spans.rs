//! The observability layer end-to-end: span tree shape of a clone run,
//! virtual-time accounting, and deterministic chrome-trace export.

use std::net::Ipv4Addr;

use nephele::sim_core::trace::SpanRecord;
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{Platform, PlatformConfig, TraceMode};

fn cfg(name: &str) -> DomainConfig {
    DomainConfig::builder(name)
        .memory_mib(4)
        .vif(Ipv4Addr::new(10, 0, 0, 2))
        .max_clones(64)
        .build()
}

fn traced_platform() -> Platform {
    Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(256)
            .trace_mode(TraceMode::Full)
            .build(),
    )
}

/// Boots a parent and clones it twice; returns the platform.
fn run_two_clones() -> Platform {
    let mut p = traced_platform();
    let parent = p
        .launch_plain(&cfg("traced"), &KernelImage::minios("traced"))
        .expect("boot");
    p.clone_domain(parent, 2).expect("clone");
    p
}

fn children_of<'a>(spans: &'a [SpanRecord], parent_idx: usize) -> Vec<&'a SpanRecord> {
    spans.iter().filter(|s| s.parent == Some(parent_idx)).collect()
}

fn index_of(spans: &[SpanRecord], name: &str) -> usize {
    spans
        .iter()
        .position(|s| s.name == name)
        .unwrap_or_else(|| panic!("missing span {name}"))
}

#[test]
fn tracing_is_off_by_default_and_records_nothing() {
    let mut p = Platform::new(PlatformConfig::small());
    assert!(!p.trace().is_enabled());
    let parent = p
        .launch_plain(&cfg("dark"), &KernelImage::minios("dark"))
        .unwrap();
    p.clone_domain(parent, 1).unwrap();
    assert!(p.trace().spans().is_empty());
    assert!(p.trace().counters().is_empty());
}

#[test]
fn two_clone_run_emits_expected_span_tree() {
    let p = run_two_clones();
    let trace = p.trace();
    trace.validate_well_nested().expect("all spans closed, well nested");

    let spans = trace.spans();

    // The Dom0-triggered clone: one platform root, one hypercall under it.
    // (Earlier hv.cloneop spans exist — the daemon's global-enable at
    // platform construction — so look specifically under the clone root.)
    let clone_root = index_of(&spans, "platform.clone_domain");
    let cloneop = spans
        .iter()
        .position(|s| s.name == "hv.cloneop" && s.parent == Some(clone_root))
        .expect("clone hypercall nested under platform.clone_domain");

    // One batch span for the whole call, carrying the shared COW
    // conversion, plus one per-child span with the per-child phases.
    let batch = spans
        .iter()
        .position(|s| s.name == "clone.batch" && s.parent == Some(cloneop))
        .expect("clone.batch nested under hv.cloneop");
    let batch_children: Vec<&str> = children_of(&spans, batch).iter().map(|s| s.name).collect();
    assert_eq!(
        batch_children.iter().filter(|n| **n == "clone.cow_convert").count(),
        1,
        "shared pages are converted once for the whole batch: {batch_children:?}"
    );

    let clone_children: Vec<usize> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "clone.child")
        .map(|(i, _)| i)
        .collect();
    assert_eq!(clone_children.len(), 2, "one clone.child per child");
    for &ci in &clone_children {
        assert_eq!(spans[ci].parent, Some(batch));
        let phases: Vec<&str> = children_of(&spans, ci).iter().map(|s| s.name).collect();
        for phase in ["clone.vcpu_copy", "clone.private_pages", "clone.pt_rebuild"] {
            assert!(phases.contains(&phase), "{phase} missing from {phases:?}");
        }
    }

    // Two second stages, one per child, each cloning the devices.
    let stage2s: Vec<usize> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "xencloned.stage2")
        .map(|(i, _)| i)
        .collect();
    assert_eq!(stage2s.len(), 2, "one second stage per child");
    for &si in &stage2s {
        let names: Vec<&str> = children_of(&spans, si).iter().map(|s| s.name).collect();
        assert!(names.contains(&"xs.xs_clone"), "xenstore clone under stage2: {names:?}");
        assert!(names.contains(&"dev.clone_console"), "console clone under stage2: {names:?}");
        assert!(names.contains(&"dev.clone_vif"), "vif clone under stage2: {names:?}");
    }
}

#[test]
fn platform_span_durations_match_virtual_time() {
    let mut p = traced_platform();
    let parent = p
        .launch_plain(&cfg("timed"), &KernelImage::minios("timed"))
        .unwrap();

    let t0 = p.clock.now();
    p.clone_domain(parent, 2).unwrap();
    let observed_ns = p.clock.now().since(t0).as_ns();

    let spans = p.trace().spans();
    let clone_root = &spans[index_of(&spans, "platform.clone_domain")];
    assert_eq!(
        clone_root.duration_ns(),
        observed_ns,
        "the platform.clone_domain span must cover exactly the observed virtual-time delta"
    );

    // Children never outlive their parent, and each parent's direct
    // children account for no more time than the parent charged.
    for (i, s) in spans.iter().enumerate() {
        let child_sum: u64 = children_of(&spans, i).iter().map(|c| c.duration_ns()).sum();
        assert!(
            child_sum <= s.duration_ns(),
            "children of {} sum to {child_sum} ns > parent {} ns",
            s.name,
            s.duration_ns()
        );
    }
}

#[test]
fn chrome_trace_export_is_deterministic_across_runs() {
    let a = run_two_clones();
    let b = run_two_clones();
    let json_a = a.trace().chrome_trace_json();
    let json_b = b.trace().chrome_trace_json();
    assert!(!json_a.is_empty());
    assert_eq!(json_a, json_b, "same seed must produce byte-identical chrome traces");

    let csv_a = a.trace().span_aggregates_csv();
    let csv_b = b.trace().span_aggregates_csv();
    assert_eq!(csv_a, csv_b, "span aggregates must be deterministic too");
    assert!(csv_a.starts_with("span,count,total_ms,mean_ms\n"));
    assert!(csv_a.contains("clone.child,2,"), "aggregate counts both clones:\n{csv_a}");
    assert!(csv_a.contains("clone.batch,1,"), "one batch for the two-child call:\n{csv_a}");
}

#[test]
fn forced_clone_failure_increments_failure_counters() {
    let mut p = Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(256)
            .trace_mode(TraceMode::Full)
            .flightrec_dir("target/test-flightrec")
            .build(),
    );
    let limited = DomainConfig::builder("limited")
        .memory_mib(4)
        .vif(Ipv4Addr::new(10, 0, 0, 2))
        .max_clones(1)
        .build();
    let parent = p
        .launch_plain(&limited, &KernelImage::minios("limited"))
        .unwrap();
    assert_eq!(p.trace().counter_total("clone.fail"), 0);

    // Two children exceed the policy's one-clone limit: the hypercall is
    // rejected and the error-outcome counter must tick.
    let err = p.clone_domain(parent, 2).expect_err("clone limit");
    assert!(matches!(err, nephele::PlatformError::Hv(_)));
    assert_eq!(p.trace().counter_total("clone.fail"), 1);

    // A failing Xenstore request ticks xs.fail the same way.
    assert_eq!(p.trace().counter_total("xs.fail"), 0);
    use nephele::sim_core::DomId;
    p.xs.read(DomId::DOM0, "/no/such/path").expect_err("missing path");
    assert_eq!(p.trace().counter_total("xs.fail"), 1);

    // The failed platform op left its trail in the flight recorder too.
    let events = p.flightrec().events();
    assert!(
        events.iter().any(|e| e.op == "platform.clone" && e.outcome == "err"),
        "flight recorder must hold the failed clone: {events:?}"
    );
}

#[test]
fn latency_histograms_are_recorded_and_deterministic() {
    let a = run_two_clones();
    let b = run_two_clones();

    let csv_a = a.trace().histograms_csv();
    let csv_b = b.trace().histograms_csv();
    assert_eq!(csv_a, csv_b, "same-seed histogram CSVs must be byte-identical");
    assert!(csv_a.starts_with("op,count,p50_us,p90_us,p99_us,max_us\n"));
    for op in ["clone.stage1", "clone.stage2", "xs.xs_clone", "xl.create"] {
        assert!(csv_a.contains(op), "{op} missing from histogram CSV:\n{csv_a}");
    }

    // The batched hypercall records once; each child's second stage once.
    let stage1 = a.trace().histogram("clone.stage1").expect("stage1 histogram");
    assert_eq!(stage1.count(), 1);
    let stage2 = a.trace().histogram("clone.stage2").expect("stage2 histogram");
    assert_eq!(stage2.count(), 2);
    // Histogram percentiles stay within the recorded extremes.
    assert!(stage2.percentile(50.0) >= stage2.min());
    assert!(stage2.percentile(99.0) <= stage2.max());
}

#[test]
fn counters_track_clone_mechanics() {
    let p = run_two_clones();
    let total = p.trace().counter_total("xencloned.parent_cache.miss")
        + p.trace().counter_total("xencloned.parent_cache.hit");
    assert_eq!(total, 2, "both second stages consulted the parent-info cache");
    assert_eq!(
        p.trace().counter_total("xencloned.parent_cache.miss"),
        1,
        "first stage2 misses, second hits"
    );
}

#[test]
fn a_relaunched_domid_is_a_new_parent_to_xencloned() {
    let mut p = traced_platform();
    let image = KernelImage::minios("reuse");
    let alpha = p.launch_plain(&cfg("alpha"), &image).expect("boot alpha");
    for c in p.clone_domain(alpha, 1).expect("clone alpha") {
        p.destroy(c).expect("destroy alpha's clone");
    }
    p.destroy(alpha).expect("destroy alpha");
    let beta = p.launch_plain(&cfg("beta"), &image).expect("boot beta");
    assert_eq!(beta, alpha, "beta reuses alpha's domid");

    let misses = p.trace().counter_total("xencloned.parent_cache.miss");
    let child = p.clone_domain(beta, 1).expect("clone beta")[0];
    assert_eq!(p.xl.record(child).map(|r| r.name.as_str()), Some("beta-c1"));
    assert_eq!(
        p.trace().counter_total("xencloned.parent_cache.miss") - misses,
        1,
        "beta's first clone reads beta's Xenstore information"
    );
}
