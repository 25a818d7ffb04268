//! Pins the device layer's observable Xenstore behaviour for every device
//! class: boot one device, clone it with `xs_clone`, then clone it again
//! with a deep per-entry copy. Each step records its virtual-time delta
//! under the calibrated cost model and the ordered paths a watch on `/`
//! saw; the transcript ends with the whole tree as read by `peek`.
//!
//! The expected transcript is `device_layer_pin.txt`. Any change to the
//! Xenstore write order, an entry's value or a virtual-time charge on the
//! boot or clone path shows up here as the first differing line.

use std::fmt::Write as _;
use std::net::Ipv4Addr;
use std::rc::Rc;

use devices::class::{DeviceClass, DeviceId};
use devices::udev::UdevBus;
use devices::{DeviceManager, VifConfig};
use hypervisor::{Hypervisor, MachineConfig};
use sim_core::{Clock, CostModel, DomId, Pfn};
use xenstore::Xenstore;

const EXPECTED: &str = include_str!("device_layer_pin.txt");

struct World {
    clock: Clock,
    hv: Hypervisor,
    xs: Xenstore,
    dm: DeviceManager,
    udev: UdevBus,
    out: String,
}

impl World {
    fn new() -> World {
        let clock = Clock::new();
        let costs = Rc::new(CostModel::calibrated());
        let hv = Hypervisor::new(
            clock.clone(),
            costs.clone(),
            &MachineConfig {
                guest_pool_mib: 64,
                cores: 4,
                notification_ring_capacity: 16,
            },
        );
        let mut xs = Xenstore::new(clock.clone(), costs.clone());
        xs.watch(DomId::DOM0, "pin", "/").unwrap();
        let dm = DeviceManager::new(clock.clone(), costs);
        World { clock, hv, xs, dm, udev: UdevBus::new(), out: String::new() }
    }

    /// Runs one step and appends its clock delta and watch-event paths.
    fn step(&mut self, label: &str, f: impl FnOnce(&mut World)) {
        self.xs.drain_watch_events();
        let start = self.clock.now();
        f(self);
        let ns = self.clock.now().since(start).as_ns();
        let _ = writeln!(self.out, "{label} +{ns} ns");
        for e in self.xs.drain_watch_events() {
            let _ = writeln!(self.out, "  watch {}", e.path);
        }
    }

    /// Appends every node of the tree with its value, in path order.
    fn dump_tree(&mut self) {
        let mut paths = Vec::new();
        let mut stack = vec!["/".to_string()];
        while let Some(dir) = stack.pop() {
            for child in self.xs.peek_directory(&dir) {
                let path = if dir == "/" { format!("/{child}") } else { format!("{dir}/{child}") };
                stack.push(path.clone());
                paths.push(path);
            }
        }
        paths.sort();
        let _ = writeln!(self.out, "tree");
        for p in paths {
            let _ = writeln!(self.out, "  {p} = {:?}", self.xs.peek(&p));
        }
    }
}

fn boot(w: &mut World, dom: DomId, class: DeviceClass) {
    let World { hv, xs, dm, udev, .. } = w;
    match class {
        DeviceClass::Console => dm.setup_console_boot(hv, xs, dom),
        DeviceClass::Vif => {
            let cfg = VifConfig {
                devid: 0,
                ip: Ipv4Addr::new(10, 0, 0, 2),
                tx_pfn: Pfn(100),
                rx_pfn: Pfn(101),
                rx_buffers: (102..110).map(Pfn).collect(),
            };
            dm.setup_vif_boot(hv, xs, udev, dom, cfg).map(|_| ())
        }
        DeviceClass::P9fs => dm.setup_9pfs_boot(hv, xs, dom, "/export"),
        DeviceClass::Vbd => dm.setup_vbd_boot(xs, dom, 0, 8),
        DeviceClass::Vsock => dm.setup_vsock_boot(hv, xs, dom),
        DeviceClass::Usb => dm.setup_usb_boot(xs, dom, 0, "1-1.4"),
    }
    .expect("boot");
}

fn transcript(class: DeviceClass) -> String {
    let mut w = World::new();
    let dom = w.hv.create_domain("guest", 4, 1).unwrap();
    let c1 = w.hv.create_domain("c1", 4, 1).unwrap();
    let c2 = w.hv.create_domain("c2", 4, 1).unwrap();
    let id = DeviceId::new(class, 0);
    let _ = writeln!(w.out, "== {}", class.name());
    w.step("boot", |w| boot(w, dom, class));
    for (child, deep_copy, label) in [(c1, false, "clone xs_clone"), (c2, true, "clone deep_copy")] {
        w.step(label, |w| {
            let World { hv, xs, dm, udev, .. } = w;
            dm.clone_device(hv, xs, udev, dom, child, id, deep_copy).expect("clone");
        });
    }
    w.dump_tree();
    w.out
}

#[test]
fn boot_and_both_clone_paths_match_the_pinned_transcript() {
    let actual: String = DeviceClass::ALL.into_iter().map(transcript).collect();
    for (n, (want, got)) in EXPECTED.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "first difference at line {} of device_layer_pin.txt", n + 1);
    }
    assert_eq!(
        actual.lines().count(),
        EXPECTED.lines().count(),
        "transcript length differs from device_layer_pin.txt"
    );
}
