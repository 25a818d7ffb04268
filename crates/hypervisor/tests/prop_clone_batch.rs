//! Batch/sequential clone equivalence: `Clone { nr_clones: N }` must be
//! observationally identical to N times `Clone { nr_clones: 1 }` — same
//! child ids and names, same p2m contents, same frame owners/refcounts/
//! contents, same free-frame count and same virtual-clock advance — plus
//! the atomicity regression tests for failing batches.

use std::rc::Rc;

use testkit::prop::{check, ranges, u8s, vecs, Gen};

use hypervisor::cloneop::{CloneOp, CloneOpResult};
use hypervisor::domain::{ClonePolicy, PrivatePolicy};
use hypervisor::error::HvError;
use hypervisor::memory::FrameOwner;
use hypervisor::{Hypervisor, MachineConfig};
use sim_core::{Clock, CostModel, DomId, Mfn, Pfn, SimDuration};

/// The calibrated model with `hypercall_base` zeroed: a batched call
/// enters the hypervisor once where N sequential calls enter N times (true
/// at the seed revision too), so the fixed dispatch cost is the one charge
/// that legitimately differs. Everything the first stage itself charges
/// must match exactly.
fn clone_costs() -> CostModel {
    let mut c = CostModel::calibrated();
    c.hypercall_base = SimDuration::ZERO;
    c
}

fn fresh_hv(clock: Clock) -> Hypervisor {
    let mut hv = Hypervisor::new(
        clock,
        Rc::new(clone_costs()),
        &MachineConfig {
            guest_pool_mib: 64,
            cores: 2,
            notification_ring_capacity: 4096,
        },
    );
    hv.set_cloning_enabled(true);
    hv
}

fn make_root(hv: &mut Hypervisor) -> DomId {
    let d = hv.create_domain("root", 4, 2).unwrap();
    hv.set_clone_policy(
        d,
        ClonePolicy {
            enabled: true,
            max_clones: u32::MAX,
            resume_children: true,
        },
    )
    .unwrap();
    hv.unpause(d).unwrap();
    d
}

fn clone_n(hv: &mut Hypervisor, parent: DomId, nr: u32) -> Vec<DomId> {
    let r = hv
        .cloneop(
            DomId::DOM0,
            CloneOp::Clone {
                target: Some(parent),
                nr_clones: nr,
            },
        )
        .unwrap();
    let CloneOpResult::Cloned(kids) = r else {
        panic!("unexpected result")
    };
    kids
}

/// A randomly drawn parent layout to clone from.
#[derive(Debug, Clone)]
struct Layout {
    /// (pfn, marker) byte writes — materialize private copies and content.
    writes: Vec<(u64, u8)>,
    /// (pfn, pattern) whole-page fills.
    fills: Vec<(u64, u8)>,
    /// Extra private pfns: (pfn, policy selector).
    extra_private: Vec<(u64, u8)>,
    /// Extra IDC (writable-shared) pfns.
    idc: Vec<u64>,
    /// Completed single clones run before the measured call, so the
    /// parent's shareable frames may already be COW (reshare path).
    pre_clones: u64,
    /// Fan-out of the measured call.
    nr: u32,
}

fn layout_gen() -> impl Gen<Value = Layout> {
    (
        vecs((ranges(0u64..64), u8s()).map(|(p, v)| (p, v)), 0..12),
        vecs((ranges(0u64..64), u8s()).map(|(p, v)| (p, v)), 0..6),
        vecs((ranges(0u64..64), u8s()).map(|(p, v)| (p, v)), 0..4),
        vecs(ranges(0u64..64), 0..4),
        ranges(0u64..3),
        ranges(1u64..17),
    )
        .map(|(writes, fills, extra_private, idc, pre_clones, nr)| Layout {
            writes,
            fills,
            extra_private,
            idc,
            pre_clones,
            nr: nr as u32,
        })
}

/// Builds a parent from `layout` and runs the measured clone either as one
/// batched call or as `nr` sequential single-clone calls. Returns the
/// hypervisor, the parent, the children and the virtual time the measured
/// call(s) took.
fn run(layout: &Layout, batched: bool) -> (Hypervisor, DomId, Vec<DomId>, u64) {
    let clock = Clock::new();
    let mut hv = fresh_hv(clock.clone());
    let parent = make_root(&mut hv);

    for &(pfn, sel) in &layout.extra_private {
        let policy = match sel % 3 {
            0 => PrivatePolicy::Copy,
            1 => PrivatePolicy::Fresh,
            _ => PrivatePolicy::Rewrite,
        };
        hv.register_private_pfn(parent, Pfn(pfn), policy).unwrap();
    }
    for &pfn in &layout.idc {
        hv.register_idc_pfn(parent, Pfn(pfn)).unwrap();
    }
    for &(pfn, val) in &layout.writes {
        hv.write_page(parent, Pfn(pfn), 0, &[val]).unwrap();
    }
    for &(pfn, pat) in &layout.fills {
        hv.fill_page(parent, Pfn(pfn), pat as u64).unwrap();
    }

    // Warm clones (completed and drained) so the measured call may start
    // from an already-COW parent.
    for _ in 0..layout.pre_clones {
        let kid = clone_n(&mut hv, parent, 1)[0];
        hv.clone_ring_pop().unwrap();
        hv.cloneop(DomId::DOM0, CloneOp::Completion { child: kid })
            .unwrap();
    }

    let t0 = clock.now();
    let children = if batched {
        clone_n(&mut hv, parent, layout.nr)
    } else {
        let mut kids = Vec::new();
        for _ in 0..layout.nr {
            kids.extend(clone_n(&mut hv, parent, 1));
        }
        kids
    };
    let elapsed = clock.now().since(t0).as_ns();
    (hv, parent, children, elapsed)
}

/// Every observable of both runs must match.
#[test]
fn batched_clone_equals_sequential_clones() {
    check(40, |g| {
        let layout = g.draw(&layout_gen());
        let (mut hv_a, parent_a, kids_a, t_a) = run(&layout, true);
        let (mut hv_b, parent_b, kids_b, t_b) = run(&layout, false);

        assert_eq!(kids_a, kids_b, "child ids must match ({layout:?})");
        assert_eq!(t_a, t_b, "virtual-clock advance must match ({layout:?})");
        assert_eq!(hv_a.free_pages(), hv_b.free_pages());
        assert_eq!(hv_a.domain_count(), hv_b.domain_count());

        // Domain-level state: parent bookkeeping and each child.
        let doms: Vec<DomId> = std::iter::once(parent_a).chain(kids_a.iter().copied()).collect();
        assert_eq!(parent_a, parent_b);
        for d in &doms {
            let a = hv_a.domain(*d).unwrap();
            let b = hv_b.domain(*d).unwrap();
            assert_eq!(a.name, b.name, "name of {d:?}");
            assert_eq!(a.state, b.state, "state of {d:?}");
            assert_eq!(a.parent, b.parent);
            assert_eq!(a.p2m, b.p2m, "p2m of {d:?}");
            assert_eq!(
                children(&hv_a, *d),
                children(&hv_b, *d),
                "children of {d:?}"
            );
            assert_eq!(a.clones_created, b.clones_created);
            assert_eq!(a.pending_stage2, b.pending_stage2);
            assert_eq!(a.vcpus[0].regs.rax, b.vcpus[0].regs.rax);
        }

        // Frame-level state: owner map, refcounts, writability, contents.
        assert_eq!(hv_a.frames().total_frames(), hv_b.frames().total_frames());
        for m in 0..hv_a.frames().total_frames() {
            let fa = hv_a.frames().inspect(Mfn(m)).unwrap();
            let fb = hv_b.frames().inspect(Mfn(m)).unwrap();
            assert_eq!(fa.owner(), fb.owner(), "owner of mfn {m}");
            assert_eq!(fa.refcount(), fb.refcount(), "refcount of mfn {m}");
            assert_eq!(fa.writable(), fb.writable(), "writability of mfn {m}");
            assert_eq!(fa.content(), fb.content(), "content of mfn {m}");
        }
        assert_eq!(hv_a.memory_stats(), hv_b.memory_stats());

        // The notification ring holds the same entries in the same order.
        assert_eq!(hv_a.clone_ring_len(), hv_b.clone_ring_len());
        loop {
            let (na, nb) = (hv_a.clone_ring_pop(), hv_b.clone_ring_pop());
            assert_eq!(na, nb, "notification ring entries must match");
            if na.is_none() {
                break;
            }
        }
    });
}

// ---------------------------------------------------------------------
// Mid-batch failure atomicity (regression tests for the partial-batch
// failure the sequential loop allowed: child 1 created, child 2 fails,
// parent stranded in PausedForClone).
// ---------------------------------------------------------------------

fn frame_fingerprint(hv: &Hypervisor) -> Vec<(FrameOwner, u32)> {
    (0..hv.frames().total_frames())
        .map(|m| {
            let f = hv.frames().inspect(Mfn(m)).unwrap();
            (f.owner(), f.refcount())
        })
        .collect()
}

/// A domain's live children, found through the `parent` links.
fn children(hv: &Hypervisor, d: DomId) -> Vec<DomId> {
    hv.domains()
        .filter(|c| c.parent == Some(d))
        .map(|c| c.id)
        .collect()
}

fn parent_fingerprint(hv: &Hypervisor, d: DomId) -> (u32, u32, hypervisor::domain::DomainState, usize) {
    let p = hv.domain(d).unwrap();
    (p.clones_created, p.pending_stage2, p.state, children(hv, d).len())
}

#[test]
fn batch_failing_on_ring_capacity_is_atomic() {
    let mut hv = Hypervisor::new(
        Clock::new(),
        Rc::new(CostModel::free()),
        &MachineConfig {
            guest_pool_mib: 64,
            cores: 1,
            notification_ring_capacity: 4,
        },
    );
    hv.set_cloning_enabled(true);
    let p = make_root(&mut hv);
    clone_n(&mut hv, p, 3); // 3 of 4 ring slots in use

    let frames_before = frame_fingerprint(&hv);
    let free_before = hv.free_pages();
    let parent_before = parent_fingerprint(&hv, p);
    let domains_before = hv.domain_count();

    // Two children need two slots; only one is free. The whole batch must
    // fail without creating the first child.
    let r = hv.cloneop(
        DomId::DOM0,
        CloneOp::Clone {
            target: Some(p),
            nr_clones: 2,
        },
    );
    assert_eq!(r, Err(HvError::NotificationRingFull));

    assert_eq!(frame_fingerprint(&hv), frames_before, "refcounts/owners must be untouched");
    assert_eq!(hv.free_pages(), free_before, "no frames may leak");
    assert_eq!(parent_fingerprint(&hv, p), parent_before, "parent state must be untouched");
    assert_eq!(hv.domain_count(), domains_before, "no child may be created");
    assert_eq!(hv.clone_ring_len(), 3);

    // Draining one slot makes the same batch succeed.
    hv.clone_ring_pop().unwrap();
    assert_eq!(clone_n(&mut hv, p, 2).len(), 2);
}

#[test]
fn batch_failing_on_frame_budget_is_atomic() {
    let mut hv = Hypervisor::new(
        Clock::new(),
        Rc::new(CostModel::free()),
        &MachineConfig {
            guest_pool_mib: 8,
            cores: 1,
            notification_ring_capacity: 4096,
        },
    );
    hv.set_cloning_enabled(true);
    let p = make_root(&mut hv);

    // Probe the per-child frame cost with a single clone.
    let before_probe = hv.free_pages();
    clone_n(&mut hv, p, 1);
    let per_child = before_probe - hv.free_pages();
    assert!(per_child > 0);

    let frames_before = frame_fingerprint(&hv);
    let free_before = hv.free_pages();
    let parent_before = parent_fingerprint(&hv, p);
    let domains_before = hv.domain_count();
    let ring_before = hv.clone_ring_len();

    // One more child than the pool can hold: some children would fit, so
    // the sequential loop would have created them before failing.
    let nr = (free_before / per_child + 1) as u32;
    let r = hv.cloneop(
        DomId::DOM0,
        CloneOp::Clone {
            target: Some(p),
            nr_clones: nr,
        },
    );
    assert_eq!(r, Err(HvError::OutOfMemory));

    assert_eq!(frame_fingerprint(&hv), frames_before, "refcounts/owners must be untouched");
    assert_eq!(hv.free_pages(), free_before, "no frames may leak");
    assert_eq!(parent_fingerprint(&hv, p), parent_before, "parent state must be untouched");
    assert_eq!(hv.domain_count(), domains_before, "no child may be created");
    assert_eq!(hv.clone_ring_len(), ring_before, "no notification may be queued");

    // A batch within budget still succeeds afterwards.
    assert_eq!(clone_n(&mut hv, p, nr - 2).len() as u32, nr - 2);
}

#[test]
fn batch_failing_on_clone_limit_is_atomic() {
    let clock = Clock::new();
    let mut hv = fresh_hv(clock.clone());
    let p = hv.create_domain("root", 4, 1).unwrap();
    hv.set_clone_policy(
        p,
        ClonePolicy {
            enabled: true,
            max_clones: 3,
            resume_children: true,
        },
    )
    .unwrap();
    hv.unpause(p).unwrap();
    clone_n(&mut hv, p, 2);

    let frames_before = frame_fingerprint(&hv);
    let parent_before = parent_fingerprint(&hv, p);
    let t0 = clock.now();

    // 2 created + 2 requested > 3 allowed: rejected before any mutation,
    // even though one more child would have been within the limit.
    let r = hv.cloneop(
        DomId::DOM0,
        CloneOp::Clone {
            target: Some(p),
            nr_clones: 2,
        },
    );
    assert_eq!(r, Err(HvError::CloneLimit(p)));
    assert_eq!(frame_fingerprint(&hv), frames_before);
    assert_eq!(parent_fingerprint(&hv, p), parent_before);
    // Only the hypercall dispatch cost may have been charged.
    assert_eq!(clock.now().since(t0), clone_costs().hypercall_base);
}
