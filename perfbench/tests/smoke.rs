//! Smoke tests of the benchmark at tiny size: 10^3 live clones, 100 vif
//! members, 4×10^3 fuzz execs spread over every campaign.

use perfbench::clone_churn::CloneChurn;
use perfbench::fuzz_reset::FuzzReset;
use perfbench::probe::Probe;
use perfbench::vif_family::VifFamily;
use perfbench::{digest_of, run, Bench, Report, Size, Tally, END_TO_END, PER_LAYER};

const SEED: u64 = 7;

fn steps<B: Bench>(b: &mut B, n: u32) -> Tally {
    let mut probe = Probe::untraced();
    let mut tally = Tally::default();
    for _ in 0..n {
        let t = b.step(&mut probe);
        tally.attempted += t.attempted;
        tally.failed += t.failed;
    }
    tally
}

fn names(report: &Report) -> Vec<&str> {
    report.metrics.iter().map(|m| m.name).collect()
}

fn listed(table: &[(&'static str, &str)]) -> Vec<&'static str> {
    table.iter().map(|(n, _)| *n).collect()
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let section = |key: &str| -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let end = json[start..].find(']').expect("section closes") + start;
        json[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().expect("name closes").to_string())
            .collect()
    };
    assert_eq!(section("end_to_end"), listed(END_TO_END));
    assert_eq!(section("per_layer"), listed(PER_LAYER));
    assert_eq!(
        section("workloads"),
        [CloneChurn::NAME, VifFamily::NAME, FuzzReset::NAME]
    );
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} has unit {unit} in BENCHMARK.json"
        );
    }
}

fn check_runs<B: Bench>() {
    let untraced = run::<B>(SEED, 0.2, false, &Size::TINY);
    assert!(untraced.problems.is_empty(), "{:?}", untraced.problems);
    assert_eq!(names(&untraced), listed(END_TO_END));
    assert!(
        untraced.metrics.iter().all(|m| m.value > 0.0),
        "{:?}",
        untraced.metrics
    );
    let traced = run::<B>(SEED, 0.2, true, &Size::TINY);
    assert!(traced.problems.is_empty(), "{:?}", traced.problems);
    assert_eq!(names(&traced), listed(PER_LAYER));
    assert_eq!(untraced.digest, traced.digest);
}

#[test]
fn clone_churn_runs_clean() {
    check_runs::<CloneChurn>();
}

#[test]
fn vif_family_runs_clean() {
    check_runs::<VifFamily>();
}

#[test]
fn fuzz_reset_runs_clean() {
    check_runs::<FuzzReset>();
}

fn check_digests<B: Bench>() {
    let a = digest_of::<B>(SEED, &Size::TINY);
    assert_eq!(
        a,
        digest_of::<B>(SEED, &Size::TINY),
        "{} digest repeats",
        B::NAME
    );
    assert_ne!(
        a,
        digest_of::<B>(SEED + 1, &Size::TINY),
        "{} digest follows the seed",
        B::NAME
    );
}

#[test]
fn digests_repeat_per_seed_and_change_with_it() {
    check_digests::<CloneChurn>();
    check_digests::<VifFamily>();
    check_digests::<FuzzReset>();
}

#[test]
fn clone_churn_and_fuzz_reset_fail_no_op() {
    let mut churn = CloneChurn::setup(SEED, &Size::TINY);
    let tally = steps(&mut churn, 50);
    assert_eq!(
        tally,
        Tally {
            attempted: 50 * 17,
            failed: 0
        }
    );
    assert!(churn.check().is_empty());

    let mut fuzz = FuzzReset::setup(SEED, &Size::TINY);
    let tally = fuzz.warm();
    assert_eq!(
        tally,
        Tally {
            attempted: u64::from(FuzzReset::WARM_STEPS),
            failed: 0
        }
    );
    assert!(fuzz.check().is_empty());
}

/// `Platform::destroy` leaves the destroyed vif in the mux, so requests the
/// bond hashes to a dead member get no reply. The benchmark reports this
/// rather than working around it; the fix flips these assertions.
#[test]
fn vif_family_reports_unanswered_requests() {
    let run_steps = || {
        let mut family = VifFamily::setup(SEED, &Size::TINY);
        let tally = steps(&mut family, 100);
        assert!(family.check().is_empty(), "audit stays clean");
        (tally, family.fabric())
    };
    let (tally, fabric) = run_steps();
    // One fork, one destroy and four requests per step.
    assert_eq!(tally.attempted, 100 * 6);
    assert!(tally.failed > 0, "unanswered requests count as failed ops");
    assert!(fabric.mux_members > fabric.live_vifs, "{fabric:?}");
    assert_eq!(fabric.live_vifs, 101, "the root and 100 members");
    assert_eq!(run_steps().0, tally, "the failure count repeats for a seed");
}

/// A `vif_family` run measures whole cycles of steps rather than a span of
/// host time, so the ops it attempts and those that fail depend on the
/// seed alone, however fast the host ran.
#[test]
fn vif_family_run_tally_repeats_per_seed() {
    let a = run::<VifFamily>(SEED, 0.2, false, &Size::TINY);
    let b = run::<VifFamily>(SEED, 0.2, false, &Size::TINY);
    // One cycle; one fork, one destroy and four requests per step.
    assert_eq!(a.tally.attempted, VifFamily::CYCLE_STEPS * 6);
    assert!(a.tally.failed > 0);
    assert_eq!(a.tally, b.tally);
}
