//! Property suite for per-class device cloning (§4.2).
//!
//! 1. **Class dispatch ≡ legacy hand-enumeration.** For random mixes of
//!    the legacy device trio (console + 0..=2 vifs + optional 9pfs) and a
//!    random number of clones, a world whose second stage runs through
//!    `xencloned`'s device loop must be indistinguishable — identical
//!    virtual-clock advance, identical Xenstore tree, identical device
//!    state — from a world whose second stage is replayed by hand,
//!    cloning explicitly named devices in the historical order. The
//!    newer devices (vbd/vsock/usb) were never part of that order, so
//!    they are covered by their own properties below.
//! 2. **COW block overlays.** Clone families share one base image;
//!    writes diverge per clone and never leak across members.
//! 3. **Vsock reconnect.** Every clone comes up on its own
//!    deterministically reallocated port with an empty stream.
//! 4. **Detach-on-clone (negative).** Cloning a domain holding an
//!    exclusively passed-through USB device leaves the child detached
//!    (no device state, no Xenstore nodes) and the parent attached, with
//!    a clean audit throughout.

use std::net::Ipv4Addr;
use std::rc::Rc;

use nephele::devices::block::SECTOR_SIZE;
use nephele::devices::udev::{UdevBus, UdevEvent};
use nephele::devices::DeviceManager;
use nephele::hypervisor::cloneop::CloneOp;
use nephele::hypervisor::{Hypervisor, MachineConfig};
use nephele::sim_core::{Clock, CostModel, DomId};
use nephele::toolstack::{DomainConfig, KernelImage, Xl};
use nephele::xencloned::Xencloned;
use nephele::xenstore::{XsCloneOp, Xenstore};
use nephele::{AuditMode, DeviceClass, DeviceId, Platform, PlatformConfig};
use testkit::prop::{check, ranges};

// ---------------------------------------------------------------------
// Raw world: the same component wiring xencloned's own tests use, so the
// second stage can be driven either through the daemon or by hand.
// ---------------------------------------------------------------------

struct World {
    clock: Clock,
    costs: Rc<CostModel>,
    hv: Hypervisor,
    xs: Xenstore,
    dm: DeviceManager,
    udev: UdevBus,
    xl: Xl,
    daemon: Xencloned,
}

fn world() -> World {
    let clock = Clock::new();
    let costs = Rc::new(CostModel::calibrated());
    let mut w = World {
        clock: clock.clone(),
        costs: costs.clone(),
        hv: Hypervisor::new(
            clock.clone(),
            costs.clone(),
            &MachineConfig {
                guest_pool_mib: 512,
                cores: 4,
                notification_ring_capacity: 128,
            },
        ),
        xs: Xenstore::new(clock.clone(), costs.clone()),
        dm: DeviceManager::new(clock.clone(), costs.clone()),
        udev: UdevBus::new(),
        xl: Xl::new(clock.clone(), costs.clone()),
        daemon: Xencloned::new(clock, costs),
    };
    w.daemon.start(&mut w.hv).unwrap();
    w
}

fn mixed_cfg(nvifs: u64, p9: bool) -> DomainConfig {
    let mut b = DomainConfig::builder("mix").memory_mib(4).max_clones(64);
    for i in 0..nvifs {
        b = b.vif(Ipv4Addr::new(10, 0, 0, 2 + i as u8));
    }
    if p9 {
        b = b.p9fs("/export");
    }
    b.build()
}

fn boot(w: &mut World, cfg: &DomainConfig) -> DomId {
    w.dm.fs.mkdir_p("/export").ok();
    let img = KernelImage::minios("mix");
    w.xl
        .create(&mut w.hv, &mut w.xs, &mut w.dm, &mut w.udev, cfg, &img)
        .unwrap()
        .id
}

/// Replays the legacy hand-enumerated second stage for one pending
/// notification: the exact op-for-op sequence `xencloned` ran before it
/// derived the device list, naming each device by hand.
fn legacy_stage2(w: &mut World, first_clone: bool, seq: u32, nvifs: u64, p9: bool) -> DomId {
    let n = w.hv.clone_ring_pop().expect("pending notification");
    let (parent, child) = (n.parent, n.child);
    w.clock.advance(w.costs.xencloned_dispatch);
    let parent_name = if first_clone {
        w.clock.advance(w.costs.xencloned_parent_scan);
        w.xs
            .read(DomId::DOM0, &format!("/local/domain/{}/name", parent.0))
            .unwrap()
    } else {
        w.xs.peek(&format!("/local/domain/{}/name", parent.0)).unwrap()
    };
    w.xs.introduce_domain(child, Some(parent)).unwrap();
    let name = format!("{parent_name}-c{seq}");
    let home = format!("/local/domain/{}", child.0);
    w.xs.write(DomId::DOM0, &format!("{home}/name"), &name).unwrap();
    w.xs.write(DomId::DOM0, &format!("{home}/domid"), &child.0.to_string()).unwrap();

    let pm = format!("/local/domain/{}/memory", parent.0);
    if w.xs.exists(&pm) {
        w.xs
            .xs_clone(DomId::DOM0, XsCloneOp::Basic, parent, child, &pm, &format!("{home}/memory"))
            .unwrap();
    }

    // The historical order: console, then vifs by devid, then 9pfs.
    let mut order = vec![DeviceId::new(DeviceClass::Console, 0)];
    order.extend((0..nvifs as u32).map(|devid| DeviceId::new(DeviceClass::Vif, devid)));
    if p9 {
        order.push(DeviceId::new(DeviceClass::P9fs, 0));
    }
    let mut ifaces = Vec::new();
    for id in order {
        let iface = w
            .dm
            .clone_device(&mut w.hv, &mut w.xs, &mut w.udev, parent, child, id, false)
            .unwrap();
        ifaces.extend(iface);
    }

    for e in w.udev.drain() {
        if let UdevEvent::VifCreated { .. } = e {
            w.clock.advance(w.costs.bridge_add);
        }
    }
    w.xl.register_clone(parent, child, &name, ifaces);
    w.hv.cloneop(DomId::DOM0, CloneOp::Completion { child }).unwrap();
    child
}

/// Dumps every (path, value) pair under `path`, depth-first. Uses the
/// uncharged directory peek for traversal; value reads happen in both
/// worlds symmetrically.
fn dump(xs: &Xenstore, path: &str, out: &mut Vec<(String, Option<String>)>) {
    out.push((path.to_string(), xs.peek(path)));
    for child in xs.peek_directory(path) {
        dump(xs, &format!("{path}/{child}"), out);
    }
}

#[test]
fn bus_dispatch_matches_legacy_hand_enumeration() {
    check(16, |g| {
        let nvifs = g.draw(&ranges(0u64..3));
        let p9 = g.draw(&ranges(0u64..2)) == 1;
        let nclones = g.draw(&ranges(1u64..4));
        let cfg = mixed_cfg(nvifs, p9);

        // World A: second stage through the daemon's device loop.
        let mut a = world();
        let pa = boot(&mut a, &cfg);
        for _ in 0..nclones {
            a.hv.cloneop(pa, CloneOp::Clone { target: None, nr_clones: 1 }).unwrap();
            a.daemon
                .handle_pending(&mut a.hv, &mut a.xs, &mut a.dm, &mut a.udev, &mut a.xl, None)
                .unwrap();
        }

        // World B: identical boot, second stage replayed by hand.
        let mut b = world();
        let pb = boot(&mut b, &cfg);
        assert_eq!(pa, pb, "identical worlds must allocate the same domids");
        let mut children = Vec::new();
        for i in 0..nclones {
            b.hv.cloneop(pb, CloneOp::Clone { target: None, nr_clones: 1 }).unwrap();
            children.push(legacy_stage2(&mut b, i == 0, i as u32 + 1, nvifs, p9));
        }

        // Byte-identical virtual time: the device loop charges exactly
        // what the hand-enumerated path charged.
        assert_eq!(
            a.clock.now(),
            b.clock.now(),
            "virtual clock diverged (vifs={nvifs}, p9={p9}, clones={nclones})"
        );

        // Identical Xenstore trees.
        let (mut ta, mut tb) = (Vec::new(), Vec::new());
        dump(&a.xs, "/local/domain", &mut ta);
        dump(&b.xs, "/local/domain", &mut tb);
        assert_eq!(ta, tb, "xenstore trees diverged");

        // Identical device state for every clone.
        for c in children {
            assert!(a.dm.console_attached(c) && b.dm.console_attached(c));
            for devid in 0..nvifs as u32 {
                let (va, vb) = (a.dm.vif(c, devid).unwrap(), b.dm.vif(c, devid).unwrap());
                assert_eq!(va.mac, vb.mac);
                assert_eq!(va.is_connected(), vb.is_connected());
            }
            assert_eq!(a.dm.p9_served(c), b.dm.p9_served(c));
            // Both paths gave the child the same devices.
            assert_eq!(a.dm.devices(c), b.dm.devices(c));
        }
    });
}

// ---------------------------------------------------------------------
// New-device properties, at platform level (audit runs on every op).
// ---------------------------------------------------------------------

fn audited(dir: &str) -> Platform {
    Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(256)
            .audit(AuditMode::EveryOp)
            .flightrec_dir(dir)
            .build(),
    )
}

#[test]
fn block_overlays_diverge_per_clone_and_share_the_base() {
    check(12, |g| {
        let sectors = g.draw(&ranges(4u64..32));
        let writes = g.draw(&ranges(1u64..8));
        let mut p = audited("target/test-prop-bus-blk");
        let cfg = DomainConfig::builder("blk")
            .memory_mib(4)
            .vbd(sectors)
            .max_clones(16)
            .build();
        let parent = p.launch_plain(&cfg, &KernelImage::unikraft("blk")).unwrap();

        // Parent dirties a few sectors, then clones.
        for s in 0..writes.min(sectors) {
            p.dm.vbd_write(parent, 0, s, &[0xAA; SECTOR_SIZE]).unwrap();
        }
        let child = p.clone_domain(parent, 1).unwrap()[0];

        // The child inherits the parent's view...
        for s in 0..writes.min(sectors) {
            assert_eq!(p.dm.vbd_read(child, 0, s).unwrap(), [0xAA; SECTOR_SIZE]);
        }
        // ...shares the base image by reference...
        let (pa, ca) = (
            p.dm.vbd(parent, 0).unwrap().base_addr(),
            p.dm.vbd(child, 0).unwrap().base_addr(),
        );
        assert_eq!(pa, ca, "clone must share the parent's base image");
        // ...and diverges privately.
        let s = writes.min(sectors) - 1;
        p.dm.vbd_write(child, 0, s, &[0xBB; SECTOR_SIZE]).unwrap();
        assert_eq!(p.dm.vbd_read(child, 0, s).unwrap(), [0xBB; SECTOR_SIZE]);
        assert_eq!(p.dm.vbd_read(parent, 0, s).unwrap(), [0xAA; SECTOR_SIZE]);

        let snap = p.snapshot();
        assert!(snap.blk_shared_bytes > 0, "family must report shared block bytes");
        assert!(p.audit().is_clean(), "audit after block divergence");
    });
}

#[test]
fn vsock_clones_reconnect_on_deterministic_ports() {
    let mut p = audited("target/test-prop-bus-vsock");
    let cfg = DomainConfig::builder("vs")
        .memory_mib(4)
        .vsock()
        .max_clones(16)
        .build();
    let parent = p.launch_plain(&cfg, &KernelImage::unikraft("vs")).unwrap();
    p.dm.vsock_send(parent, b"parent-hello".to_vec()).unwrap();

    let kids: Vec<DomId> = (0..3).map(|_| p.clone_domain(parent, 1).unwrap()[0]).collect();
    for c in &kids {
        let conn = p.dm.vsock(*c).expect("clone has a vsock");
        assert!(conn.connected);
        assert_eq!(conn.port, 52000 + c.0, "deterministic port reallocation");
        assert!(conn.sent.is_empty(), "parent's stream must not leak into the clone");
        assert_eq!(
            p.xs.peek(&format!("/local/domain/{}/device/vsock/0/port", c.0)).unwrap(),
            conn.port.to_string(),
            "frontend port entry rewritten for the child"
        );
    }
    // The parent's connection is untouched.
    let pc = p.dm.vsock(parent).unwrap();
    assert_eq!(pc.port, 52000 + parent.0);
    assert_eq!(pc.sent.len(), 1);
    assert!(p.audit().is_clean());
}

#[test]
fn usb_detach_on_clone_leaves_child_detached_and_parent_attached() {
    let mut p = audited("target/test-prop-bus-usb");
    let cfg = DomainConfig::builder("usb")
        .memory_mib(4)
        .usb("3-4.1")
        .max_clones(16)
        .build();
    let parent = p.launch_plain(&cfg, &KernelImage::unikraft("usb")).unwrap();
    assert!(p.dm.usb_submit(parent, 0).unwrap());

    let child = p.clone_domain(parent, 1).unwrap()[0];

    // Negative: the exclusive device did NOT follow the clone.
    assert!(p.dm.usb(child, 0).is_none(), "child must come up detached");
    assert!(!p.dm.usb_submit(child, 0).unwrap_or(false));
    assert!(
        !p.xs.exists(&format!("/local/domain/{}/device/vusb/0", child.0)),
        "no frontend node for the detached child"
    );
    assert!(
        !p.xs.exists(&format!("/local/domain/0/backend/vusb/{}/0", child.0)),
        "no backend node (orphan ring) for the detached child"
    );
    // The parent still holds the device and keeps working.
    assert!(p.dm.usb(parent, 0).unwrap().attached);
    assert!(p.dm.usb_submit(parent, 0).unwrap());
    // And the audit — including the orphan-ring sweep — is clean.
    assert!(p.audit().is_clean(), "audit after detach-on-clone");

    // The busid stays exclusive: a second domain cannot attach it while
    // the parent holds it.
    let cfg2 = DomainConfig::builder("usb2")
        .memory_mib(4)
        .usb("3-4.1")
        .max_clones(4)
        .build();
    assert!(p.launch_plain(&cfg2, &KernelImage::unikraft("usb2")).is_err());
}
