//! Platform-level property tests: arbitrary mixes of boots, clones,
//! destroys and host sends must keep every component's view consistent
//! and leak nothing.

use std::net::Ipv4Addr;

use testkit::prop::{check, just, ranges, usizes, vecs, weighted, Gen};

use nephele::sim_core::DomId;
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{MuxKind, Platform, PlatformConfig};

#[derive(Debug, Clone)]
enum Op {
    Boot,
    Clone { idx: usize },
    Destroy { idx: usize },
    /// A host UDP datagram to live domain `idx`'s address.
    Send { idx: usize },
}

fn ops() -> impl Gen<Value = Op> {
    weighted(vec![
        (1, just(Op::Boot).boxed()),
        (3, usizes().map(|idx| Op::Clone { idx }).boxed()),
        (1, usizes().map(|idx| Op::Destroy { idx }).boxed()),
        (2, usizes().map(|idx| Op::Send { idx }).boxed()),
    ])
}

fn small_platform() -> Platform {
    Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(512)
            .ring_capacity(128)
            .mux(MuxKind::None)
            .build(),
    )
}

fn boot(p: &mut Platform, seq: usize) -> DomId {
    let cfg = DomainConfig::builder(&format!("g{seq}"))
        .memory_mib(4)
        .vif(Ipv4Addr::new(10, 0, 0, (2 + seq % 200) as u8))
        .max_clones(u32::MAX)
        .build();
    p.launch_plain(&cfg, &KernelImage::minios("g")).expect("boot")
}

#[test]
fn platform_state_stays_consistent() {
    check(24, |g| {
        let script = g.draw(&vecs(ops(), 1..40));

        let mut p = small_platform();
        let baseline = p.snapshot().hyp_free_bytes;
        let mut live: Vec<DomId> = vec![boot(&mut p, 0)];
        let mut boots = 1;

        for op in script {
            match op {
                Op::Boot => {
                    if live.len() < 24 {
                        live.push(boot(&mut p, boots));
                        boots += 1;
                    }
                }
                Op::Clone { idx } => {
                    if live.len() < 24 {
                        let parent = live[idx % live.len()];
                        let kids = p.clone_domain(parent, 1).expect("clone");
                        live.extend(kids);
                    }
                }
                Op::Destroy { idx } => {
                    if live.len() > 1 {
                        let i = idx % live.len();
                        let d = live[i];
                        // Only leaves, to keep COW chains alive elsewhere.
                        if !p.hv.domains().any(|c| c.parent == Some(d)) {
                            p.destroy(d).expect("destroy");
                            live.remove(i);
                        }
                    }
                }
                Op::Send { idx } => {
                    let d = live[idx % live.len()];
                    let ip = p.dm.vif(d, 0).expect("live vif").ip;
                    p.host_udp_send(ip, 4000 + (idx % 64) as u16, 7, vec![idx as u8]);
                }
            }

            // The pump's ready sets match a ring scan, and nothing is
            // left queued: no op leaves packets for a later pump.
            let report = p.audit();
            assert!(
                report.violations.iter().all(|v| v.invariant != "index-consistency"),
                "{report}"
            );
            assert_eq!(p.dm.ready_vifs(), (0, 0));

            // Cross-component consistency after every step.
            for d in &live {
                assert!(p.hv.domain_exists(*d));
                assert!(p.hv.domain(*d).unwrap().is_runnable(), "{d} not running");
                assert!(p.xl.record(*d).is_some(), "{d} missing from registry");
                assert!(
                    p.xs.exists(&format!("/local/domain/{}", d.0)),
                    "{d} missing from xenstore"
                );
                assert!(p.dm.vif(*d, 0).unwrap().is_connected());
                assert!(p.dm.console_attached(*d));
            }
            // Dom0 + live domains is all there is.
            assert_eq!(p.hv.domain_count(), live.len() + 1);
        }

        // Full teardown (leaves first) returns every byte.
        while !live.is_empty() {
            let i = live
                .iter()
                .position(|d| !p.hv.domains().any(|c| c.parent == Some(*d)))
                .expect("leaf exists");
            let d = live.remove(i);
            p.destroy(d).expect("teardown");
        }
        assert_eq!(p.snapshot().hyp_free_bytes, baseline, "leaked guest-pool memory");
        assert_eq!(p.dm.vif_count(), 0);
        assert_eq!(p.hv.domain_count(), 1);
    });
}

/// Virtual time is monotonic and every operation costs something.
#[test]
fn operations_always_advance_time() {
    check(24, |g| {
        let n_clones = g.draw(&ranges(1usize..12));

        let mut p = small_platform();
        let parent = boot(&mut p, 0);
        let mut last = p.clock.now();
        for _ in 0..n_clones {
            p.clone_domain(parent, 1).expect("clone");
            let now = p.clock.now();
            assert!(now > last, "clone charged no time");
            last = now;
        }
    });
}
