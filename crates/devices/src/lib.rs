//! Split-driver paravirtualized devices and their Dom0 management.
//!
//! This crate implements both halves of Xen's split-device model for the
//! device types Nephele supports — console, network, 9pfs, COW block
//! devices ([`block`]), vsock-like streams ([`vsock`]) and USB/IP
//! passthrough ([`usb`]) — plus the plumbing around them: Xenbus
//! negotiation ([`xenbus`]), shared rings ([`ring`]), the udev event bus
//! ([`udev`]), the QEMU process model ([`qemu`]) and the Dom0 ramdisk
//! ([`memfs`]).
//!
//! [`DeviceManager`] is the Dom0-side registry gluing it together. It
//! offers two setup paths per device, mirroring the paper:
//!
//! * the **boot path** writes every Xenstore entry individually and walks
//!   the full frontend/backend Xenbus negotiation — one shared handshake
//!   for every class with a backend, fed the class's own keys;
//! * the **clone path** copies the Xenstore state with `xs_clone` (or a
//!   deep per-entry copy, for the Fig. 4 comparison) — one shared copy
//!   using the class's [`class::DeviceClass::xs_clone_op`] — then creates
//!   the backend state directly in the Connected state, and reuses backend
//!   processes across the clone family.
//!
//! Where a device lives in Xenstore is derived from its id alone
//! ([`class::DeviceId::front_dir`], [`class::DeviceId::back_dir`]).
//!
//! The per-class backend maps are the only device registry:
//! [`DeviceManager::devices`] derives a domain's devices from them as
//! [`class::DeviceId`]s in dispatch order, each class declaring its clone
//! heuristic as a typed [`class::CloneSemantics`] value, and the
//! `xencloned` second stage hands each id to
//! [`DeviceManager::clone_device`], which dispatches on the class.

pub mod block;
pub mod class;
pub mod console;
pub mod memfs;
pub mod net;
pub mod p9fs;
pub mod qemu;
pub mod ring;
pub mod udev;
pub mod usb;
pub mod vsock;
pub mod xenbus;

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::net::Ipv4Addr;
use std::ops::Bound;
use std::rc::Rc;

use hypervisor::domain::PrivatePolicy;
use hypervisor::error::HvError;
use hypervisor::Hypervisor;
use netmux::{IfaceId, MacAddr, Packet};
use sim_core::{Clock, CostModel, DomId, Pfn, TraceSink};
use xenstore::{XsError, Xenstore};

use crate::block::{Sector, Vbd, VbdSharing, SECTOR_SIZE};
use crate::class::{DeviceClass, DeviceId};
use crate::console::ConsoleBackend;
use crate::memfs::MemFs;
use crate::net::{Vif, RX_RING_SLOTS, TX_RING_SLOTS};
use crate::p9fs::{P9Request, P9Response};
use crate::qemu::{QemuProcess, QmpRequest};
use crate::ring::SharedRing;
use crate::udev::{UdevBus, UdevEvent};
use crate::usb::UsbPassthrough;
use crate::vsock::VsockConn;
use crate::xenbus::{XenbusState, NEGOTIATION_STEPS};

/// Errors from device management.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DevError {
    /// Underlying Xenstore failure.
    Xs(XsError),
    /// Underlying hypervisor failure.
    Hv(HvError),
    /// The referenced device does not exist.
    NoSuchDevice(DomId, u32),
    /// No backend process serves this domain.
    NoBackend(DomId),
    /// The physical USB device is already passed through to a domain.
    UsbBusy(String),
}

impl fmt::Display for DevError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DevError::Xs(e) => write!(f, "xenstore: {e}"),
            DevError::Hv(e) => write!(f, "hypervisor: {e}"),
            DevError::NoSuchDevice(d, i) => write!(f, "no device {i} on {d}"),
            DevError::NoBackend(d) => write!(f, "no backend process for {d}"),
            DevError::UsbBusy(busid) => write!(f, "usb device {busid} already assigned"),
        }
    }
}

impl std::error::Error for DevError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DevError::Xs(e) => Some(e),
            DevError::Hv(e) => Some(e),
            DevError::NoSuchDevice(..) | DevError::NoBackend(_) | DevError::UsbBusy(_) => None,
        }
    }
}

impl From<XsError> for DevError {
    fn from(e: XsError) -> Self {
        DevError::Xs(e)
    }
}

impl From<HvError> for DevError {
    fn from(e: HvError) -> Self {
        DevError::Hv(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, DevError>;

/// Frontend-supplied parameters for creating a vif at boot.
#[derive(Debug, Clone)]
pub struct VifConfig {
    /// Device index within the guest.
    pub devid: u32,
    /// The guest's IP address.
    pub ip: Ipv4Addr,
    /// Guest page backing the TX ring.
    pub tx_pfn: Pfn,
    /// Guest page backing the RX ring.
    pub rx_pfn: Pfn,
    /// Guest pages preallocated for RX payloads (one per RX slot).
    pub rx_buffers: Vec<Pfn>,
}

/// The Dom0 device registry and backend host.
#[derive(Debug)]
pub struct DeviceManager {
    clock: Clock,
    costs: Rc<CostModel>,
    /// The Dom0 ramdisk filesystem (9pfs exports live here).
    pub fs: MemFs,
    /// Keyed `(owner, devid)` in a BTreeMap so one domain's devices form
    /// a contiguous range: teardown removes exactly that range instead of
    /// retaining over every live domain's devices.
    vifs: BTreeMap<(u32, u32), Vif>,
    iface_map: HashMap<IfaceId, (DomId, u32)>,
    next_iface: u32,
    console: ConsoleBackend,
    /// QEMU processes by pid; resolved through [`Self::served_by`], never
    /// by scanning.
    qemus: BTreeMap<u32, QemuProcess>,
    /// Served domain → pid of the QEMU process hosting its 9pfs backend.
    /// One process serves a whole clone family (§5.2.1), so without this
    /// index every 9p RPC and every destroy searched all processes and
    /// their (family-sized) serve lists.
    served_by: HashMap<u32, u32>,
    next_pid: u32,
    vbds: BTreeMap<(u32, u32), Vbd>,
    vsocks: HashMap<u32, VsockConn>,
    usbs: BTreeMap<(u32, u32), UsbPassthrough>,
    trace: TraceSink,
    /// Vifs whose TX ring holds packets, keyed like `vifs`. The pump
    /// services these instead of probing every live vif, as netback only
    /// services a vif whose event channel fired.
    tx_ready: BTreeSet<(u32, u32)>,
    /// Vifs whose RX ring holds packets.
    rx_ready: BTreeSet<(u32, u32)>,
}

impl DeviceManager {
    /// Creates an empty manager.
    pub fn new(clock: Clock, costs: Rc<CostModel>) -> Self {
        DeviceManager {
            clock,
            costs,
            fs: MemFs::new(),
            vifs: BTreeMap::new(),
            iface_map: HashMap::new(),
            next_iface: 1,
            console: ConsoleBackend::new(),
            qemus: BTreeMap::new(),
            served_by: HashMap::new(),
            next_pid: 1000,
            vbds: BTreeMap::new(),
            vsocks: HashMap::new(),
            usbs: BTreeMap::new(),
            trace: TraceSink::default(),
            tx_ready: BTreeSet::new(),
            rx_ready: BTreeSet::new(),
        }
    }

    /// The devices `owner` holds, sorted by `(class, devid)` — the
    /// canonical second-stage dispatch order (console, vifs, 9pfs, ...).
    /// Derived from the per-class maps: one range per devid-keyed class,
    /// one lookup per singleton class.
    pub fn devices(&self, owner: DomId) -> Vec<DeviceId> {
        fn owned<V>(
            map: &BTreeMap<(u32, u32), V>,
            owner: DomId,
            class: DeviceClass,
        ) -> impl Iterator<Item = DeviceId> + '_ {
            map.range((owner.0, 0)..=(owner.0, u32::MAX))
                .map(move |(&(_, i), _)| DeviceId::new(class, i))
        }
        let single = |class, present: bool| present.then_some(DeviceId::new(class, 0));
        let d = owner.0;
        single(DeviceClass::Console, self.console.is_attached(owner))
            .into_iter()
            .chain(owned(&self.vifs, owner, DeviceClass::Vif))
            .chain(single(DeviceClass::P9fs, self.served_by.contains_key(&d)))
            .chain(owned(&self.vbds, owner, DeviceClass::Vbd))
            .chain(single(DeviceClass::Vsock, self.vsocks.contains_key(&d)))
            .chain(owned(&self.usbs, owner, DeviceClass::Usb))
            .collect()
    }

    /// Every device on the host, sorted by `(owner, class, devid)`.
    pub fn all_devices(&self) -> Vec<(DomId, DeviceId)> {
        let owners: BTreeSet<u32> = self
            .console
            .doms()
            .chain(self.vifs.keys().map(|k| k.0))
            .chain(self.served_by.keys().copied())
            .chain(self.vbds.keys().map(|k| k.0))
            .chain(self.vsocks.keys().copied())
            .chain(self.usbs.keys().map(|k| k.0))
            .collect();
        owners
            .into_iter()
            .flat_map(|d| {
                let owner = DomId(d);
                self.devices(owner).into_iter().map(move |id| (owner, id))
            })
            .collect()
    }

    /// Clones `parent`'s device `id` for `child`, dispatching on its class
    /// to that class's clone heuristic ([`DeviceClass::semantics`]).
    /// Returns the host interface created for a cloned vif.
    #[allow(clippy::too_many_arguments)]
    pub fn clone_device(
        &mut self,
        hv: &mut Hypervisor,
        xs: &mut Xenstore,
        udev: &mut UdevBus,
        parent: DomId,
        child: DomId,
        id: DeviceId,
        deep_copy: bool,
    ) -> Result<Option<IfaceId>> {
        let devid = id.devid;
        match id.class {
            DeviceClass::Console => self.clone_console_impl(hv, xs, parent, child, deep_copy)?,
            DeviceClass::Vif => {
                let iface = self.clone_vif_impl(hv, xs, udev, parent, child, devid, deep_copy)?;
                return Ok(Some(iface));
            }
            DeviceClass::P9fs => {
                self.clone_9pfs_impl(xs, parent, child, deep_copy)?;
            }
            DeviceClass::Vbd => {
                self.clone_vbd_impl(xs, parent, child, devid, deep_copy)?;
            }
            DeviceClass::Vsock => {
                self.clone_vsock_impl(hv, xs, parent, child, deep_copy)?;
            }
            DeviceClass::Usb => self.clone_usb_detach_impl(parent, child, devid)?,
        }
        Ok(None)
    }

    /// Device-specific invariant checks for `owner`'s device `id`; each
    /// returned string is one violation detail. Read-only; charges no
    /// virtual time.
    pub fn audit_device(&self, owner: DomId, id: DeviceId) -> Vec<String> {
        let (d, i) = (owner.0, id.devid);
        match id.class {
            DeviceClass::Console => Vec::new(),
            DeviceClass::Vif => match self.vifs.get(&(d, i)) {
                Some(v) if !v.is_connected() => vec![format!("vif {owner}/{i} is not connected")],
                _ => Vec::new(),
            },
            DeviceClass::P9fs => match self.served_by.get(&d) {
                Some(pid) if !self.qemus.contains_key(pid) => vec![format!(
                    "9pfs of {owner} is served by pid {pid}, which is not a live backend process"
                )],
                _ => Vec::new(),
            },
            DeviceClass::Vbd => match self.vbds.get(&(d, i)) {
                Some(v) if !v.overlay_is_canonical() => vec![format!(
                    "vbd {owner}/{i} overlay is not canonical (entry equal to the base image)"
                )],
                _ => Vec::new(),
            },
            DeviceClass::Vsock => match self.vsocks.get(&d) {
                Some(c) if !c.connected => vec![format!("vsock of {owner} is disconnected")],
                Some(c) if c.port != crate::vsock::vsock_port_for(owner) => vec![format!(
                    "vsock of {owner} on non-deterministic port {} (expected {})",
                    c.port,
                    crate::vsock::vsock_port_for(owner)
                )],
                _ => Vec::new(),
            },
            DeviceClass::Usb => {
                let Some(u) = self.usbs.get(&(d, i)) else {
                    return Vec::new();
                };
                let mut v = Vec::new();
                if !u.attached {
                    v.push(format!("usb {owner}/{i} is detached"));
                }
                if !self.usb_busid_exclusive(&u.busid, owner, i) {
                    v.push(format!(
                        "usb busid {} held by more than one domain (exclusive assignment violated)",
                        u.busid
                    ));
                }
                v
            }
        }
    }

    /// Attaches a trace sink (disabled by default); device-clone spans and
    /// ring counters are recorded into it.
    pub fn attach_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// The attached trace sink.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    fn alloc_iface(&mut self) -> IfaceId {
        let id = IfaceId(self.next_iface);
        self.next_iface += 1;
        id
    }

    // ------------------------------------------------------------------
    // Xenbus: the boot handshake and the registry clone every class shares
    // ------------------------------------------------------------------

    /// The Xenbus boot handshake every split device shares: the frontend's
    /// `backend` and `backend-id` plus the class's own `front` keys, the
    /// backend's `frontend` and `frontend-id` plus its own `back` keys,
    /// then the full negotiation, one state write per end per step.
    fn xenbus_boot(
        &mut self,
        xs: &mut Xenstore,
        dom: DomId,
        id: DeviceId,
        front: &[(&str, &str)],
        back: &[(&str, &str)],
    ) -> Result<()> {
        let f = id.front_dir(dom);
        let b = id.back_dir(dom).expect("a device with a Xenbus handshake has a backend");
        for (key, value) in [("backend", b.as_str()), ("backend-id", "0")].iter().chain(front) {
            xs.write(DomId::DOM0, &format!("{f}/{key}"), value)?;
        }
        let frontend_id = dom.0.to_string();
        for (key, value) in [("frontend", f.as_str()), ("frontend-id", &frontend_id)].iter().chain(back) {
            xs.write(DomId::DOM0, &format!("{b}/{key}"), value)?;
        }
        for (front, back) in NEGOTIATION_STEPS {
            self.clock.advance(self.costs.xenbus_transition);
            xs.write(DomId::DOM0, &format!("{f}/state"), front.to_xs())?;
            self.clock.advance(self.costs.xenbus_transition);
            xs.write(DomId::DOM0, &format!("{b}/state"), back.to_xs())?;
        }
        Ok(())
    }

    /// Copies `id`'s Xenstore directories from `parent` to `child`,
    /// frontend then backend: one `xs_clone` request per directory with
    /// the class's domid-rewriting op, or a deep per-entry copy. A class
    /// with no `xs_clone` op copies nothing.
    fn clone_registry(
        &mut self,
        xs: &mut Xenstore,
        parent: DomId,
        child: DomId,
        id: DeviceId,
        deep_copy: bool,
    ) -> Result<()> {
        let Some(op) = id.class.xs_clone_op() else {
            return Ok(());
        };
        for (from, to) in id.xenstore_paths(parent).iter().zip(id.xenstore_paths(child)) {
            if deep_copy {
                self.deep_copy_dir(xs, from, &to, parent, child)?;
            } else {
                xs.xs_clone(DomId::DOM0, op, parent, child, from, &to)?;
            }
        }
        Ok(())
    }

    /// The deep-copy fallback for device directories: one Xenstore write
    /// request per entry, with the domid rewriting done client-side. This
    /// is what `xencloned` does *without* the `xs_clone` optimization and
    /// is measured by the "clone + XS deep copy" curve of Fig. 4.
    fn deep_copy_dir(
        &mut self,
        xs: &mut Xenstore,
        from: &str,
        to: &str,
        parent: DomId,
        child: DomId,
    ) -> Result<()> {
        let span = self.trace.span("dev.deep_copy");
        let keys = xs.directory(DomId::DOM0, from)?;
        span.attr("entries", keys.len());
        let old_home = format!("/local/domain/{}/", parent.0);
        let new_home = format!("/local/domain/{}/", child.0);
        let seg_old = format!("/{}/", parent.0);
        let seg_new = format!("/{}/", child.0);
        for key in keys {
            let v = xs.read(DomId::DOM0, &format!("{from}/{key}"))?;
            let mut nv = v.replace(&old_home, &new_home);
            if nv == parent.0.to_string() {
                nv = child.0.to_string();
            }
            if nv.starts_with("/local/domain/0/backend/") && nv.contains(&seg_old) {
                nv = nv.replacen(&seg_old, &seg_new, 1);
            }
            xs.write(DomId::DOM0, &format!("{to}/{key}"), &nv)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Console
    // ------------------------------------------------------------------

    /// Boot-path console setup: Xenstore entries plus backend attach.
    pub fn setup_console_boot(
        &mut self,
        hv: &mut Hypervisor,
        xs: &mut Xenstore,
        dom: DomId,
    ) -> Result<()> {
        let ring_pfn = hv.domain(dom)?.console_pfn;
        let dir = DeviceId::new(DeviceClass::Console, 0).front_dir(dom);
        xs.write(DomId::DOM0, &format!("{dir}/ring-ref"), &ring_pfn.0.to_string())?;
        xs.write(DomId::DOM0, &format!("{dir}/port"), "2")?;
        xs.write(DomId::DOM0, &format!("{dir}/type"), "xenconsoled")?;
        xs.write(DomId::DOM0, &format!("{dir}/output"), "pty")?;
        self.clock.advance(self.costs.console_attach);
        self.console.attach(dom, ring_pfn);
        Ok(())
    }

    /// Clone-path console setup ([`Self::clone_device`] dispatches here):
    /// only the Xenstore entries are cloned; the managing process picks the
    /// change up via its watch and creates the child state with a fresh
    /// ring (§4.2, §5.2.1) — the [`class::CloneSemantics::Reconnect`]
    /// heuristic.
    pub(crate) fn clone_console_impl(
        &mut self,
        hv: &mut Hypervisor,
        xs: &mut Xenstore,
        parent: DomId,
        child: DomId,
        deep_copy: bool,
    ) -> Result<()> {
        let span = self.trace.span("dev.clone_console");
        span.attr("deep_copy", deep_copy);
        let id = DeviceId::new(DeviceClass::Console, 0);
        self.clone_registry(xs, parent, child, id, deep_copy)?;
        let ring_pfn = hv.domain(child)?.console_pfn;
        self.clock.advance(self.costs.console_attach);
        self.console.attach_clone(parent, child, ring_pfn);
        Ok(())
    }

    /// Guest-side console write.
    pub fn console_write(&mut self, dom: DomId, bytes: &[u8]) {
        self.console.guest_write(dom, bytes);
        self.console.drain(dom);
    }

    /// The accumulated console output of a domain.
    pub fn console_output(&self, dom: DomId) -> &[u8] {
        self.console.output(dom)
    }

    /// Whether a console is attached for `dom`.
    pub fn console_attached(&self, dom: DomId) -> bool {
        self.console.is_attached(dom)
    }

    // ------------------------------------------------------------------
    // Network
    // ------------------------------------------------------------------

    /// Boot-path vif setup: full Xenstore population plus Xenbus
    /// negotiation, backend creation and a udev event for userspace.
    pub fn setup_vif_boot(
        &mut self,
        hv: &mut Hypervisor,
        xs: &mut Xenstore,
        udev: &mut UdevBus,
        dom: DomId,
        cfg: VifConfig,
    ) -> Result<IfaceId> {
        let mac = MacAddr::xen(dom.0, cfg.devid as u8);
        // Ring pages and RX buffers are private on clone (§4.1/§4.2).
        hv.register_private_pfn(dom, cfg.tx_pfn, PrivatePolicy::Copy)?;
        hv.register_private_pfn(dom, cfg.rx_pfn, PrivatePolicy::Copy)?;
        for pfn in &cfg.rx_buffers {
            hv.register_private_pfn(dom, *pfn, PrivatePolicy::Copy)?;
        }
        let (mac_s, handle) = (mac.to_string(), cfg.devid.to_string());
        self.xenbus_boot(
            xs,
            dom,
            DeviceId::new(DeviceClass::Vif, cfg.devid),
            &[
                ("mac", &mac_s),
                ("handle", &handle),
                ("tx-ring-ref", &cfg.tx_pfn.0.to_string()),
                ("rx-ring-ref", &cfg.rx_pfn.0.to_string()),
            ],
            &[("mac", &mac_s), ("handle", &handle), ("bridge", "xenbr0")],
        )?;

        // Backend creates the in-kernel vif and announces it via udev.
        self.clock.advance(self.costs.backend_create);
        let (guest_port, back_port) = hv.evtchn_connect_pair(dom, DomId::DOM0)?;
        let iface = self.alloc_iface();
        let vif = Vif {
            dom,
            devid: cfg.devid,
            mac,
            ip: cfg.ip,
            iface,
            frontend_state: XenbusState::Connected,
            backend_state: XenbusState::Connected,
            tx: SharedRing::new(cfg.tx_pfn, TX_RING_SLOTS),
            rx: SharedRing::new(cfg.rx_pfn, RX_RING_SLOTS),
            rx_buffers: cfg.rx_buffers,
            guest_port,
            back_port,
        };
        self.vifs.insert((dom.0, cfg.devid), vif);
        self.iface_map.insert(iface, (dom, cfg.devid));
        self.clock.advance(self.costs.udev_event);
        udev.emit(UdevEvent::VifCreated { dom, devid: cfg.devid });
        Ok(iface)
    }

    /// Clone-path vif setup ([`Self::clone_device`] dispatches here):
    /// Xenstore state is cloned (via `xs_clone` or a deep per-entry copy),
    /// the backend shortcuts the negotiation and the rings are copied — the
    /// [`class::CloneSemantics::DeepCopy`] heuristic. Emits the udev event
    /// that prompts userspace to enslave the new interface.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn clone_vif_impl(
        &mut self,
        hv: &mut Hypervisor,
        xs: &mut Xenstore,
        udev: &mut UdevBus,
        parent: DomId,
        child: DomId,
        devid: u32,
        deep_copy: bool,
    ) -> Result<IfaceId> {
        let span = self.trace.span("dev.clone_vif");
        span.attr("devid", devid);
        span.attr("deep_copy", deep_copy);
        self.clone_registry(xs, parent, child, DeviceId::new(DeviceClass::Vif, devid), deep_copy)?;

        let parent_vif = self
            .vifs
            .get(&(parent.0, devid))
            .ok_or(DevError::NoSuchDevice(parent, devid))?
            .clone();

        // The netback shortcut: connect directly, no negotiation.
        self.clock.advance(self.costs.backend_create);
        let (guest_port, back_port) = hv.evtchn_connect_pair(child, DomId::DOM0)?;
        let iface = self.alloc_iface();
        let vif = parent_vif.clone_for_child(child, iface, guest_port, back_port);
        // The copied rings carry the parent's in-flight packets (§4.2).
        if !vif.tx.is_empty() {
            self.tx_ready.insert((child.0, devid));
        }
        if !vif.rx.is_empty() {
            self.rx_ready.insert((child.0, devid));
        }
        self.vifs.insert((child.0, devid), vif);
        self.iface_map.insert(iface, (child, devid));
        self.clock.advance(self.costs.udev_event);
        udev.emit(UdevEvent::VifCreated { dom: child, devid });
        Ok(iface)
    }

    /// Looks up a vif.
    pub fn vif(&self, dom: DomId, devid: u32) -> Option<&Vif> {
        self.vifs.get(&(dom.0, devid))
    }

    /// Device ids of the vifs a domain owns (sorted). O(own vifs): the
    /// key order yields the domain's range directly, already sorted.
    pub fn vif_devids(&self, dom: DomId) -> Vec<u32> {
        self.vifs
            .range((dom.0, 0)..=(dom.0, u32::MAX))
            .map(|((_, i), _)| *i)
            .collect()
    }

    /// Total vifs registered.
    pub fn vif_count(&self) -> usize {
        self.vifs.len()
    }

    /// All `(domain, devid)` vif keys, sorted (the map's key order).
    pub fn all_vif_keys(&self) -> Vec<(DomId, u32)> {
        self.vifs.keys().map(|(d, i)| (DomId(*d), *i)).collect()
    }

    /// The MAC of the first vif in key order that carries `ip`, found by
    /// walking the vif map in place.
    pub fn mac_for_ip(&self, ip: Ipv4Addr) -> Option<MacAddr> {
        self.vifs.values().find(|v| v.ip == ip).map(|v| v.mac)
    }

    /// The first vif after `after` (from the start when `None`), in key
    /// order, whose TX ring holds packets. O(log ready vifs).
    pub fn next_tx_ready(&self, after: Option<(DomId, u32)>) -> Option<(DomId, u32)> {
        Self::next_ready(&self.tx_ready, after)
    }

    /// The first vif after `after` (from the start when `None`), in key
    /// order, whose RX ring holds packets. O(log ready vifs).
    pub fn next_rx_ready(&self, after: Option<(DomId, u32)>) -> Option<(DomId, u32)> {
        Self::next_ready(&self.rx_ready, after)
    }

    fn next_ready(set: &BTreeSet<(u32, u32)>, after: Option<(DomId, u32)>) -> Option<(DomId, u32)> {
        let from = match after {
            Some((d, i)) => Bound::Excluded((d.0, i)),
            None => Bound::Unbounded,
        };
        set.range((from, Bound::Unbounded))
            .next()
            .map(|&(d, i)| (DomId(d), i))
    }

    /// How many vifs hold queued TX and RX packets: `(0, 0)` once the
    /// platform has pumped to quiescence.
    pub fn ready_vifs(&self) -> (usize, usize) {
        (self.tx_ready.len(), self.rx_ready.len())
    }

    /// Diffs the TX- and RX-ready sets against a fresh scan of every vif's
    /// ring lengths; one message per vif the two disagree on. Empty when
    /// consistent.
    pub fn audit_ready_index(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let queued = |pick: fn(&Vif) -> bool| -> BTreeSet<(u32, u32)> {
            self.vifs.iter().filter(|(_, v)| pick(v)).map(|(k, _)| *k).collect()
        };
        for (ring, set, expect) in [
            ("tx", &self.tx_ready, queued(|v| !v.tx.is_empty())),
            ("rx", &self.rx_ready, queued(|v| !v.rx.is_empty())),
        ] {
            for (d, i) in set.difference(&expect) {
                let why = if self.vifs.contains_key(&(*d, *i)) {
                    "its ring is empty"
                } else {
                    "no such vif exists"
                };
                bad.push(format!("{ring}-ready index holds vif dom{d}.{i} but {why}"));
            }
            for (d, i) in expect.difference(set) {
                bad.push(format!(
                    "vif dom{d}.{i} queues {ring} packets but is missing from the {ring}-ready index"
                ));
            }
        }
        bad
    }

    /// Test-only: plants (or removes) a TX-ready entry without touching
    /// any ring, so the index-consistency audit can prove it detects drift
    /// between the ready sets and the ring scan they replaced.
    pub fn corrupt_ready_index_for_test(&mut self, dom: DomId, devid: u32, insert: bool) {
        if insert {
            self.tx_ready.insert((dom.0, devid));
        } else {
            self.tx_ready.remove(&(dom.0, devid));
        }
    }

    /// Resolves a host interface to its (domain, devid).
    pub fn iface_target(&self, iface: IfaceId) -> Option<(DomId, u32)> {
        self.iface_map.get(&iface).copied()
    }

    /// Guest transmits a packet: pushed onto the TX ring (dropped if full).
    pub fn guest_tx(&mut self, dom: DomId, devid: u32, pkt: Packet) -> Result<bool> {
        let start = self.clock.now();
        self.clock.advance(
            self.costs
                .net_per_byte
                .saturating_mul(pkt.len() as u64),
        );
        let vif = self
            .vifs
            .get_mut(&(dom.0, devid))
            .ok_or(DevError::NoSuchDevice(dom, devid))?;
        let pushed = vif.tx.push(pkt);
        if pushed {
            self.tx_ready.insert((dom.0, devid));
        }
        self.trace
            .count_dom(if pushed { "dev.ring.tx" } else { "dev.ring.tx_drop" }, dom, 1);
        self.trace
            .record_ns("dev.ring.tx", self.clock.now().since(start).as_ns());
        Ok(pushed)
    }

    /// Backend drains all pending TX packets from a vif.
    pub fn take_tx(&mut self, dom: DomId, devid: u32) -> Vec<Packet> {
        let Some(vif) = self.vifs.get_mut(&(dom.0, devid)) else {
            return Vec::new();
        };
        self.tx_ready.remove(&(dom.0, devid));
        std::iter::from_fn(|| vif.tx.pop()).collect()
    }

    /// Backend delivers a packet into a vif's RX ring; `false` if dropped.
    pub fn deliver_rx(&mut self, iface: IfaceId, pkt: Packet) -> bool {
        let Some((dom, devid)) = self.iface_map.get(&iface).copied() else {
            return false;
        };
        let start = self.clock.now();
        self.clock.advance(
            self.costs
                .net_per_byte
                .saturating_mul(pkt.len() as u64),
        );
        let pushed = match self.vifs.get_mut(&(dom.0, devid)) {
            Some(vif) => vif.rx.push(pkt),
            None => false,
        };
        if pushed {
            self.rx_ready.insert((dom.0, devid));
        }
        self.trace
            .count_dom(if pushed { "dev.ring.rx" } else { "dev.ring.rx_drop" }, dom, 1);
        self.trace
            .record_ns("dev.ring.rx", self.clock.now().since(start).as_ns());
        pushed
    }

    /// Guest drains its RX ring.
    pub fn take_rx(&mut self, dom: DomId, devid: u32) -> Vec<Packet> {
        let Some(vif) = self.vifs.get_mut(&(dom.0, devid)) else {
            return Vec::new();
        };
        self.rx_ready.remove(&(dom.0, devid));
        std::iter::from_fn(|| vif.rx.pop()).collect()
    }

    // ------------------------------------------------------------------
    // 9pfs
    // ------------------------------------------------------------------

    /// Boot-path 9pfs setup: `xl` launches a QEMU backend process for the
    /// guest and the device negotiates like any other.
    pub fn setup_9pfs_boot(
        &mut self,
        hv: &mut Hypervisor,
        xs: &mut Xenstore,
        dom: DomId,
        export_root: &str,
    ) -> Result<()> {
        self.xenbus_boot(
            xs,
            dom,
            DeviceId::new(DeviceClass::P9fs, 0),
            &[("tag", "rootfs")],
            &[("path", export_root), ("security_model", "none")],
        )?;
        hv.evtchn_connect_pair(dom, DomId::DOM0)?;

        self.clock.advance(self.costs.qemu_launch);
        let pid = self.next_pid;
        self.next_pid += 1;
        self.fs.mkdir_p(export_root).map_err(|_| DevError::NoBackend(dom))?;
        debug_assert!(
            !self.served_by.contains_key(&dom.0),
            "domain {dom} already has a 9pfs backend process"
        );
        self.qemus.insert(pid, QemuProcess::launch(pid, dom, export_root));
        self.served_by.insert(dom.0, pid);
        Ok(())
    }

    /// Clone-path 9pfs setup ([`Self::clone_device`] dispatches here):
    /// Xenstore state cloned, then a QMP request to the *parent's existing*
    /// backend process duplicates the fid table — no new process is
    /// launched (§5.2.1), the [`class::CloneSemantics::ShareRing`]
    /// heuristic. Returns the number of fids duplicated.
    pub(crate) fn clone_9pfs_impl(
        &mut self,
        xs: &mut Xenstore,
        parent: DomId,
        child: DomId,
        deep_copy: bool,
    ) -> Result<usize> {
        let span = self.trace.span("dev.clone_9pfs");
        span.attr("deep_copy", deep_copy);
        self.clone_registry(xs, parent, child, DeviceId::new(DeviceClass::P9fs, 0), deep_copy)?;
        self.clock.advance(self.costs.qmp_request);
        let pid = *self.served_by.get(&parent.0).ok_or(DevError::NoBackend(parent))?;
        let q = self.qemus.get_mut(&pid).ok_or(DevError::NoBackend(parent))?;
        let fids = q.qmp(QmpRequest::CloneP9 { parent, child });
        self.served_by.insert(child.0, pid);
        self.clock
            .advance(self.costs.qmp_clone_per_fid.saturating_mul(fids as u64));
        span.attr("fids", fids);
        Ok(fids)
    }

    /// Whether any backend process serves `dom`'s 9pfs.
    pub fn p9_served(&self, dom: DomId) -> bool {
        self.served_by.contains_key(&dom.0)
    }

    /// Number of QEMU backend processes alive.
    pub fn qemu_count(&self) -> usize {
        self.qemus.len()
    }

    /// Handles a 9p RPC from a guest, charging the protocol round-trip and
    /// per-page write costs.
    pub fn p9_request(&mut self, dom: DomId, req: P9Request) -> Result<P9Response> {
        self.clock.advance(self.costs.p9fs_rpc);
        if let P9Request::Write { data, .. } = &req {
            let pages = (data.len() as u64).div_ceil(sim_core::PAGE_SIZE as u64);
            self.clock
                .advance(self.costs.p9fs_write_per_page.saturating_mul(pages));
        }
        let pid = *self.served_by.get(&dom.0).ok_or(DevError::NoBackend(dom))?;
        let q = self.qemus.get_mut(&pid).ok_or(DevError::NoBackend(dom))?;
        Ok(q.p9.handle(&mut self.fs, dom, req))
    }

    // ------------------------------------------------------------------
    // Block (vbd): shared base image + per-clone COW overlay
    // ------------------------------------------------------------------

    /// Boot-path vbd setup: Xenstore population, Xenbus negotiation and
    /// backend creation over a fresh base image of `sectors` sectors.
    pub fn setup_vbd_boot(
        &mut self,
        xs: &mut Xenstore,
        dom: DomId,
        devid: u32,
        sectors: u64,
    ) -> Result<()> {
        self.xenbus_boot(
            xs,
            dom,
            DeviceId::new(DeviceClass::Vbd, devid),
            &[("virtual-device", &devid.to_string())],
            &[
                ("sectors", &sectors.to_string()),
                ("sector-size", &SECTOR_SIZE.to_string()),
                ("mode", "w"),
            ],
        )?;
        self.clock.advance(self.costs.backend_create);
        self.vbds.insert((dom.0, devid), Vbd::new(dom, devid, sectors));
        Ok(())
    }

    /// The vbd clone implementation ([`Self::clone_device`] dispatches
    /// here): Xenstore state cloned, then an O(1) structural
    /// snapshot of the parent's base image and current overlay — the
    /// [`class::CloneSemantics::CowOverlay`] heuristic. Returns the number
    /// of overlay sectors the child inherits.
    pub(crate) fn clone_vbd_impl(
        &mut self,
        xs: &mut Xenstore,
        parent: DomId,
        child: DomId,
        devid: u32,
        deep_copy: bool,
    ) -> Result<u64> {
        let span = self.trace.span("dev.clone_vbd");
        span.attr("devid", devid);
        span.attr("deep_copy", deep_copy);
        self.clone_registry(xs, parent, child, DeviceId::new(DeviceClass::Vbd, devid), deep_copy)?;
        let parent_vbd = self
            .vbds
            .get(&(parent.0, devid))
            .ok_or(DevError::NoSuchDevice(parent, devid))?;
        self.clock.advance(self.costs.blk_clone_base);
        let vbd = parent_vbd.clone_for_child(child);
        let inherited = vbd.overlay_len() as u64;
        span.attr("inherited", inherited);
        self.vbds.insert((child.0, devid), vbd);
        Ok(inherited)
    }

    /// Looks up a vbd.
    pub fn vbd(&self, dom: DomId, devid: u32) -> Option<&Vbd> {
        self.vbds.get(&(dom.0, devid))
    }

    /// Guest reads one sector through the merged base+overlay view.
    pub fn vbd_read(&mut self, dom: DomId, devid: u32, sector: u64) -> Result<Sector> {
        self.clock.advance(self.costs.blk_read_per_sector);
        self.vbds
            .get(&(dom.0, devid))
            .ok_or(DevError::NoSuchDevice(dom, devid))?
            .read_sector(sector)
            .ok_or(DevError::NoSuchDevice(dom, devid))
    }

    /// Guest writes one sector into its private overlay; `false` past the
    /// end of the image.
    pub fn vbd_write(&mut self, dom: DomId, devid: u32, sector: u64, data: &Sector) -> Result<bool> {
        self.clock.advance(self.costs.blk_write_per_sector);
        Ok(self
            .vbds
            .get_mut(&(dom.0, devid))
            .ok_or(DevError::NoSuchDevice(dom, devid))?
            .write_sector(sector, data))
    }

    /// Resident-byte split of vbd storage between shared and unique, by
    /// `Rc` pointer identity: a base image or overlay referenced by more
    /// than one device counts as shared at every point of use (the same
    /// convention as `P2mSharing`/`XsSharing`). The sum of
    /// [`vbd_sharing_by_dom`](Self::vbd_sharing_by_dom)'s rows.
    pub fn vbd_sharing(&self) -> VbdSharing {
        self.vbd_sharing_by_dom()
            .into_iter()
            .fold(VbdSharing::default(), |mut s, (_, row)| {
                s.shared_bytes += row.shared_bytes;
                s.unique_bytes += row.unique_bytes;
                s
            })
    }

    /// Per-domain split of [`vbd_sharing`](Self::vbd_sharing): each
    /// domain's contribution, in domain-id order (domains without vbds are
    /// absent). Summing the rows reproduces the global split, which is how
    /// the family rollups attribute resident block bytes to clone families.
    pub fn vbd_sharing_by_dom(&self) -> Vec<(DomId, VbdSharing)> {
        let mut refs: HashMap<usize, u32> = HashMap::new();
        for v in self.vbds.values() {
            *refs.entry(v.base_addr()).or_insert(0) += 1;
            *refs.entry(v.overlay_addr()).or_insert(0) += 1;
        }
        let mut per_dom: BTreeMap<u32, VbdSharing> = BTreeMap::new();
        for ((dom, _devid), v) in &self.vbds {
            let s = per_dom.entry(*dom).or_default();
            for (addr, bytes) in [(v.base_addr(), v.base_bytes()), (v.overlay_addr(), v.overlay_bytes())] {
                if refs.get(&addr).copied().unwrap_or(0) > 1 {
                    s.shared_bytes += bytes;
                } else {
                    s.unique_bytes += bytes;
                }
            }
        }
        per_dom.into_iter().map(|(d, s)| (DomId(d), s)).collect()
    }

    // ------------------------------------------------------------------
    // Vsock-like stream device
    // ------------------------------------------------------------------

    /// Boot-path vsock setup: Xenstore population, Xenbus negotiation, an
    /// event-channel pair and a fresh stream connection on the domain's
    /// deterministic port.
    pub fn setup_vsock_boot(
        &mut self,
        hv: &mut Hypervisor,
        xs: &mut Xenstore,
        dom: DomId,
    ) -> Result<()> {
        let port = crate::vsock::vsock_port_for(dom).to_string();
        let id = DeviceId::new(DeviceClass::Vsock, 0);
        self.xenbus_boot(xs, dom, id, &[("port", &port)], &[("port", &port)])?;
        hv.evtchn_connect_pair(dom, DomId::DOM0)?;
        self.clock.advance(self.costs.vsock_connect);
        self.vsocks.insert(dom.0, VsockConn::connect(dom));
        Ok(())
    }

    /// The vsock clone implementation ([`Self::clone_device`] dispatches
    /// here): registry state is cloned, but the transport is a
    /// *fresh* connection on the child's deterministically reallocated
    /// port — the [`class::CloneSemantics::Reconnect`] heuristic. Returns
    /// the child's port.
    pub(crate) fn clone_vsock_impl(
        &mut self,
        hv: &mut Hypervisor,
        xs: &mut Xenstore,
        parent: DomId,
        child: DomId,
        deep_copy: bool,
    ) -> Result<u32> {
        let span = self.trace.span("dev.clone_vsock");
        span.attr("deep_copy", deep_copy);
        let id = DeviceId::new(DeviceClass::Vsock, 0);
        self.clone_registry(xs, parent, child, id, deep_copy)?;
        let parent_conn = self
            .vsocks
            .get(&parent.0)
            .ok_or(DevError::NoSuchDevice(parent, 0))?;
        let conn = parent_conn.reconnect_for_child(child);
        let port = conn.port;
        // The cloned entries carry the parent's port; the reconnect
        // rewrites them to the child's deterministic allocation.
        for dir in id.xenstore_paths(child) {
            xs.write(DomId::DOM0, &format!("{dir}/port"), &port.to_string())?;
        }
        hv.evtchn_connect_pair(child, DomId::DOM0)?;
        self.clock.advance(self.costs.vsock_connect);
        span.attr("port", port);
        self.vsocks.insert(child.0, conn);
        Ok(port)
    }

    /// Looks up a domain's vsock connection.
    pub fn vsock(&self, dom: DomId) -> Option<&VsockConn> {
        self.vsocks.get(&dom.0)
    }

    /// Guest sends one message on its vsock stream; `false` when
    /// disconnected.
    pub fn vsock_send(&mut self, dom: DomId, payload: Vec<u8>) -> Result<bool> {
        self.clock.advance(self.costs.vsock_rpc);
        Ok(self
            .vsocks
            .get_mut(&dom.0)
            .ok_or(DevError::NoSuchDevice(dom, 0))?
            .send(payload))
    }

    // ------------------------------------------------------------------
    // USB/IP passthrough
    // ------------------------------------------------------------------

    /// Boot-path USB setup: claims the exclusive physical device `busid`
    /// for `dom` and attaches it. Fails with [`DevError::UsbBusy`] if the
    /// device is already assigned to a live domain.
    pub fn setup_usb_boot(
        &mut self,
        xs: &mut Xenstore,
        dom: DomId,
        devid: u32,
        busid: &str,
    ) -> Result<()> {
        if self.usbs.values().any(|u| u.attached && u.busid == busid) {
            return Err(DevError::UsbBusy(busid.to_string()));
        }
        let id = DeviceId::new(DeviceClass::Usb, devid);
        self.xenbus_boot(xs, dom, id, &[], &[("busid", busid)])?;
        self.clock.advance(self.costs.usb_attach);
        self.usbs.insert((dom.0, devid), UsbPassthrough::attach(dom, devid, busid));
        Ok(())
    }

    /// The USB clone step ([`Self::clone_device`] dispatches here): the
    /// physical device is exclusive, so the child comes up *without* it —
    /// no Xenstore state and no backend state, so no device entry —
    /// while the parent keeps it attached. This is the whole of
    /// [`class::CloneSemantics::DetachOnClone`].
    pub(crate) fn clone_usb_detach_impl(
        &mut self,
        parent: DomId,
        child: DomId,
        devid: u32,
    ) -> Result<()> {
        let span = self.trace.span("dev.clone_usb");
        span.attr("devid", devid);
        span.attr("child", child.0);
        if !self.usbs.contains_key(&(parent.0, devid)) {
            return Err(DevError::NoSuchDevice(parent, devid));
        }
        // Charged for the backend's veto round-trip; deliberately no
        // child-side state of any kind.
        self.clock.advance(self.costs.usb_detach);
        Ok(())
    }

    /// Looks up a USB passthrough device.
    pub fn usb(&self, dom: DomId, devid: u32) -> Option<&UsbPassthrough> {
        self.usbs.get(&(dom.0, devid))
    }

    /// Whether no *other* attached record holds `busid` — the exclusive
    /// assignment invariant the auditor checks.
    pub fn usb_busid_exclusive(&self, busid: &str, dom: DomId, devid: u32) -> bool {
        !self
            .usbs
            .iter()
            .any(|((d, i), u)| (*d, *i) != (dom.0, devid) && u.attached && u.busid == busid)
    }

    /// Guest submits one URB; `false` when the device is detached.
    pub fn usb_submit(&mut self, dom: DomId, devid: u32) -> Result<bool> {
        self.clock.advance(self.costs.usb_urb);
        Ok(self
            .usbs
            .get_mut(&(dom.0, devid))
            .ok_or(DevError::NoSuchDevice(dom, devid))?
            .submit_urb())
    }

    // ------------------------------------------------------------------
    // Lifecycle / accounting
    // ------------------------------------------------------------------

    /// Releases every device of a destroyed domain. Every step is
    /// O(devices the domain owns), never O(devices on the host): the
    /// `(owner, devid)` BTreeMap keys make each domain's devices one
    /// contiguous range, and the `served_by` index names the one QEMU
    /// process whose serve set mentions the domain.
    pub fn forget_domain(&mut self, udev: &mut UdevBus, dom: DomId) {
        for key in Self::owned_range(&self.vifs, dom) {
            if let Some(v) = self.vifs.remove(&key) {
                self.tx_ready.remove(&key);
                self.rx_ready.remove(&key);
                self.iface_map.remove(&v.iface);
                udev.emit(UdevEvent::VifRemoved { dom, devid: key.1 });
            }
        }
        self.console.detach(dom);
        if let Some(pid) = self.served_by.remove(&dom.0) {
            if let Some(q) = self.qemus.get_mut(&pid) {
                q.forget_domain(dom);
                if q.is_idle() {
                    self.qemus.remove(&pid);
                }
            }
        }
        for key in Self::owned_range(&self.vbds, dom) {
            self.vbds.remove(&key);
        }
        self.vsocks.remove(&dom.0);
        for key in Self::owned_range(&self.usbs, dom) {
            self.usbs.remove(&key);
        }
    }

    /// The `(owner, devid)` keys `dom` holds in a device map — one
    /// contiguous BTreeMap range.
    fn owned_range<V>(map: &BTreeMap<(u32, u32), V>, dom: DomId) -> Vec<(u32, u32)> {
        map.range((dom.0, 0)..=(dom.0, u32::MAX)).map(|(k, _)| *k).collect()
    }

    /// Modelled Dom0 resident memory for backend state, in bytes (Fig. 5's
    /// "Dom0 free" decline): per-vif netback state, per-console state,
    /// per-QEMU process plus per-served-domain state, and ramdisk contents.
    pub fn dom0_backend_bytes(&self) -> u64 {
        const PER_VIF: u64 = 96 * 1024;
        const PER_CONSOLE: u64 = 48 * 1024;
        const PER_QEMU: u64 = 9 * 1024 * 1024;
        const PER_SERVED: u64 = 128 * 1024;
        const PER_VBD: u64 = 64 * 1024;
        const PER_VSOCK: u64 = 16 * 1024;
        const PER_USB: u64 = 32 * 1024;
        let served: u64 = self.qemus.values().map(|q| q.serves.len() as u64).sum();
        // Vbd storage is resident once per distinct blob, however many
        // devices share it.
        let mut blobs: HashMap<usize, u64> = HashMap::new();
        for v in self.vbds.values() {
            blobs.insert(v.base_addr(), v.base_bytes());
            blobs.insert(v.overlay_addr(), v.overlay_bytes());
        }
        self.vifs.len() as u64 * PER_VIF
            + self.console.attached_count() as u64 * PER_CONSOLE
            + self.qemus.len() as u64 * PER_QEMU
            + served * PER_SERVED
            + self.fs.total_bytes() as u64
            + self.vbds.len() as u64 * PER_VBD
            + blobs.values().sum::<u64>()
            + self.vsocks.len() as u64 * PER_VSOCK
            + self.usbs.len() as u64 * PER_USB
    }
}

#[cfg(test)]
mod tests {
    use hypervisor::MachineConfig;

    use super::*;

    fn setup() -> (Hypervisor, Xenstore, DeviceManager, UdevBus, DomId) {
        let clock = Clock::new();
        let costs = Rc::new(CostModel::free());
        let mut hv = Hypervisor::new(
            clock.clone(),
            costs.clone(),
            &MachineConfig {
                guest_pool_mib: 128,
                cores: 4,
                notification_ring_capacity: 16,
            },
        );
        let xs = Xenstore::new(clock.clone(), costs.clone());
        let dm = DeviceManager::new(clock, costs);
        let dom = hv.create_domain("guest", 4, 1).unwrap();
        (hv, xs, dm, UdevBus::new(), dom)
    }

    fn vif_cfg() -> VifConfig {
        VifConfig {
            devid: 0,
            ip: Ipv4Addr::new(10, 0, 0, 2),
            tx_pfn: Pfn(100),
            rx_pfn: Pfn(101),
            rx_buffers: (102..110).map(Pfn).collect(),
        }
    }

    /// `dom`'s frontend directory of a class's device `devid`.
    fn front(class: DeviceClass, dom: DomId, devid: u32) -> String {
        DeviceId::new(class, devid).front_dir(dom)
    }

    /// Boots one device of `class` (devid 0) on `dom`.
    fn boot(
        hv: &mut Hypervisor,
        xs: &mut Xenstore,
        dm: &mut DeviceManager,
        udev: &mut UdevBus,
        dom: DomId,
        class: DeviceClass,
    ) {
        match class {
            DeviceClass::Console => dm.setup_console_boot(hv, xs, dom),
            DeviceClass::Vif => dm.setup_vif_boot(hv, xs, udev, dom, vif_cfg()).map(|_| ()),
            DeviceClass::P9fs => dm.setup_9pfs_boot(hv, xs, dom, "/export"),
            DeviceClass::Vbd => dm.setup_vbd_boot(xs, dom, 0, 8),
            DeviceClass::Vsock => dm.setup_vsock_boot(hv, xs, dom),
            DeviceClass::Usb => dm.setup_usb_boot(xs, dom, 0, "1-1.4"),
        }
        .unwrap();
    }

    fn pkt() -> Packet {
        Packet::udp(
            MacAddr::xen(1, 0),
            MacAddr::xen(0, 0),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(10, 0, 0, 1),
            5000,
            7,
            b"ping".to_vec(),
        )
    }

    #[test]
    fn vif_boot_negotiates_and_announces() {
        let (mut hv, mut xs, mut dm, mut udev, dom) = setup();
        let iface = dm.setup_vif_boot(&mut hv, &mut xs, &mut udev, dom, vif_cfg()).unwrap();
        let vif = dm.vif(dom, 0).unwrap();
        assert!(vif.is_connected());
        assert_eq!(
            xs.read(DomId::DOM0, &format!("{}/state", front(DeviceClass::Vif, dom, 0))).unwrap(),
            "4"
        );
        assert!(matches!(udev.next(), Some(UdevEvent::VifCreated { .. })));
        assert_eq!(dm.iface_target(iface), Some((dom, 0)));
        // Ring pages are registered private.
        assert!(hv.domain(dom).unwrap().private_pfns.contains_key(&Pfn(100)));
        assert!(hv.domain(dom).unwrap().private_pfns.contains_key(&Pfn(105)));
    }

    #[test]
    fn vif_data_path_roundtrip() {
        let (mut hv, mut xs, mut dm, mut udev, dom) = setup();
        let iface = dm.setup_vif_boot(&mut hv, &mut xs, &mut udev, dom, vif_cfg()).unwrap();

        assert!(dm.guest_tx(dom, 0, pkt()).unwrap());
        let out = dm.take_tx(dom, 0);
        assert_eq!(out.len(), 1);

        assert!(dm.deliver_rx(iface, pkt()));
        let inp = dm.take_rx(dom, 0);
        assert_eq!(inp.len(), 1);
        assert_eq!(inp[0].payload(), b"ping");
    }

    #[test]
    fn rx_ring_overflow_drops() {
        let (mut hv, mut xs, mut dm, mut udev, dom) = setup();
        let iface = dm.setup_vif_boot(&mut hv, &mut xs, &mut udev, dom, vif_cfg()).unwrap();
        for _ in 0..RX_RING_SLOTS {
            assert!(dm.deliver_rx(iface, pkt()));
        }
        assert!(!dm.deliver_rx(iface, pkt()), "full RX ring drops");
    }

    #[test]
    fn clone_vif_keeps_mac_ip_and_skips_negotiation() {
        let (mut hv, mut xs, mut dm, mut udev, dom) = setup();
        dm.setup_vif_boot(&mut hv, &mut xs, &mut udev, dom, vif_cfg()).unwrap();
        let child = hv.create_domain("child", 4, 1).unwrap();
        let ifc = dm
            .clone_vif_impl(&mut hv, &mut xs, &mut udev, dom, child, 0, false)
            .unwrap();
        let cv = dm.vif(child, 0).unwrap();
        let pv = dm.vif(dom, 0).unwrap();
        assert_eq!(cv.mac, pv.mac);
        assert_eq!(cv.ip, pv.ip);
        assert!(cv.is_connected());
        assert_eq!(
            xs.read(DomId::DOM0, &format!("{}/state", front(DeviceClass::Vif, child, 0))).unwrap(),
            "4",
            "cloned entries exist and are Connected"
        );
        assert_eq!(dm.iface_target(ifc), Some((child, 0)));
    }

    /// `dom`'s entries of device `id`, keyed `<dir index>/<key>`, with the
    /// domain's own directories, its `frontend-id` and its vsock `port`
    /// replaced by placeholders so that the entries of different domains
    /// compare.
    fn normalized_entries(xs: &Xenstore, id: DeviceId, dom: DomId) -> Vec<(String, String)> {
        let dirs = id.xenstore_paths(dom);
        let mut out = Vec::new();
        for (n, dir) in dirs.iter().enumerate() {
            for key in xs.peek_directory(dir) {
                let mut v = xs.peek(&format!("{dir}/{key}")).unwrap_or_default();
                for (m, d) in dirs.iter().enumerate() {
                    v = v.replace(d, &format!("<dir{m}>"));
                }
                if key == "frontend-id" && v == dom.0.to_string() {
                    v = "<dom>".into();
                } else if key == "port" && v == crate::vsock::vsock_port_for(dom).to_string() {
                    v = "<port>".into();
                }
                out.push((format!("{n}/{key}"), v));
            }
        }
        out
    }

    #[test]
    fn deep_copy_clone_matches_xs_clone_content() {
        for class in DeviceClass::ALL.into_iter().filter(|c| c.xs_clone_op().is_some()) {
            let (mut hv, mut xs, mut dm, mut udev, dom) = setup();
            boot(&mut hv, &mut xs, &mut dm, &mut udev, dom, class);
            let c1 = hv.create_domain("c1", 4, 1).unwrap();
            let c2 = hv.create_domain("c2", 4, 1).unwrap();
            let id = DeviceId::new(class, 0);
            dm.clone_device(&mut hv, &mut xs, &mut udev, dom, c1, id, false).unwrap();
            dm.clone_device(&mut hv, &mut xs, &mut udev, dom, c2, id, true).unwrap();
            let parent = normalized_entries(&xs, id, dom);
            assert!(!parent.is_empty(), "{class:?} boots with Xenstore entries");
            assert_eq!(normalized_entries(&xs, id, c1), parent, "{class:?} via xs_clone");
            assert_eq!(normalized_entries(&xs, id, c2), parent, "{class:?} via deep copy");
        }
    }

    #[test]
    fn console_boot_and_clone() {
        let (mut hv, mut xs, mut dm, _udev, dom) = setup();
        dm.setup_console_boot(&mut hv, &mut xs, dom).unwrap();
        dm.console_write(dom, b"booted\n");
        assert_eq!(dm.console_output(dom), b"booted\n");

        let child = hv.create_domain("child", 4, 1).unwrap();
        dm.clone_console_impl(&mut hv, &mut xs, dom, child, false).unwrap();
        assert!(dm.console_attached(child));
        assert!(dm.console_output(child).is_empty(), "no parent output replay");
        assert!(xs.exists(&format!("{}/ring-ref", front(DeviceClass::Console, child, 0))));
    }

    #[test]
    fn p9_boot_clone_and_io() {
        let (mut hv, mut xs, mut dm, _udev, dom) = setup();
        dm.setup_9pfs_boot(&mut hv, &mut xs, dom, "/export").unwrap();
        assert_eq!(dm.qemu_count(), 1);

        // Parent opens a file.
        dm.p9_request(dom, P9Request::Attach { fid: 0 }).unwrap();
        dm.p9_request(dom, P9Request::Create { fid: 0, name: "db".into() }).unwrap();
        dm.p9_request(dom, P9Request::Write { fid: 0, offset: 0, data: b"v1".to_vec() })
            .unwrap();

        // Clone: same process, fids duplicated.
        let child = hv.create_domain("child", 4, 1).unwrap();
        let fids = dm.clone_9pfs_impl(&mut xs, dom, child, false).unwrap();
        assert_eq!(fids, 1);
        assert_eq!(dm.qemu_count(), 1, "no new backend process per clone");
        assert!(dm.p9_served(child));

        // The child's cloned fid is immediately usable.
        let r = dm
            .p9_request(child, P9Request::Read { fid: 0, offset: 0, count: 10 })
            .unwrap();
        assert_eq!(r, P9Response::Data(b"v1".to_vec()));
    }

    #[test]
    fn forget_domain_cleans_everything() {
        let (mut hv, mut xs, mut dm, mut udev, dom) = setup();
        dm.setup_vif_boot(&mut hv, &mut xs, &mut udev, dom, vif_cfg()).unwrap();
        dm.setup_console_boot(&mut hv, &mut xs, dom).unwrap();
        dm.setup_9pfs_boot(&mut hv, &mut xs, dom, "/export").unwrap();
        udev.drain();
        dm.forget_domain(&mut udev, dom);
        assert_eq!(dm.vif_count(), 0);
        assert!(!dm.console_attached(dom));
        assert_eq!(dm.qemu_count(), 0, "idle qemu exits");
        assert!(matches!(udev.next(), Some(UdevEvent::VifRemoved { .. })));
    }

    #[test]
    fn dom0_memory_grows_with_devices() {
        let (mut hv, mut xs, mut dm, mut udev, dom) = setup();
        let before = dm.dom0_backend_bytes();
        dm.setup_vif_boot(&mut hv, &mut xs, &mut udev, dom, vif_cfg()).unwrap();
        dm.setup_console_boot(&mut hv, &mut xs, dom).unwrap();
        assert!(dm.dom0_backend_bytes() > before);
    }

    #[test]
    fn devices_reflect_boot_and_clone_state() {
        let (mut hv, mut xs, mut dm, mut udev, dom) = setup();
        dm.setup_console_boot(&mut hv, &mut xs, dom).unwrap();
        dm.setup_vif_boot(&mut hv, &mut xs, &mut udev, dom, vif_cfg()).unwrap();
        dm.setup_9pfs_boot(&mut hv, &mut xs, dom, "/export").unwrap();
        dm.setup_vbd_boot(&mut xs, dom, 0, 8).unwrap();
        let expected = vec![
            DeviceId::new(DeviceClass::Console, 0),
            DeviceId::new(DeviceClass::Vif, 0),
            DeviceId::new(DeviceClass::P9fs, 0),
            DeviceId::new(DeviceClass::Vbd, 0),
        ];
        assert_eq!(dm.devices(dom), expected, "dispatch order is console, vif, 9pfs, vbd");

        let child = hv.create_domain("child", 4, 1).unwrap();
        for id in dm.devices(dom) {
            dm.clone_device(&mut hv, &mut xs, &mut udev, dom, child, id, false).unwrap();
        }
        assert_eq!(dm.devices(child), expected, "a clone holds the same devices");
        let all: Vec<DomId> = dm.all_devices().into_iter().map(|(d, _)| d).collect();
        assert_eq!(all, [[dom; 4], [child; 4]].concat(), "sorted by owner");

        udev.drain();
        dm.forget_domain(&mut udev, dom);
        assert!(dm.devices(dom).is_empty(), "forget_domain drops every device");
        assert_eq!(dm.devices(child), expected, "the clone's devices survive");
    }

    #[test]
    fn vbd_boot_clone_and_cow() {
        let (mut hv, mut xs, mut dm, _udev, dom) = setup();
        dm.setup_vbd_boot(&mut xs, dom, 0, 8).unwrap();
        assert!(xs.exists(&format!("{}/sectors", DeviceId::new(DeviceClass::Vbd, 0).back_dir(dom).unwrap())));
        let s = [7u8; SECTOR_SIZE];
        assert!(dm.vbd_write(dom, 0, 3, &s).unwrap());

        let child = hv.create_domain("child", 4, 1).unwrap();
        let inherited = dm.clone_vbd_impl(&mut xs, dom, child, 0, false).unwrap();
        assert_eq!(inherited, 1, "child inherits the parent's overlay");
        assert!(xs.exists(&format!("{}/state", front(DeviceClass::Vbd, child, 0))));
        assert_eq!(dm.vbd_read(child, 0, 3).unwrap(), s);

        // Divergence is private in both directions.
        assert!(dm.vbd_write(child, 0, 5, &[9u8; SECTOR_SIZE]).unwrap());
        assert_eq!(dm.vbd_read(dom, 0, 5).unwrap(), [5u8; SECTOR_SIZE]);
        let sh = dm.vbd_sharing();
        assert!(sh.shared_bytes > 0, "base image shared across the family");
    }

    #[test]
    fn vsock_clone_reconnects_on_child_port() {
        let (mut hv, mut xs, mut dm, _udev, dom) = setup();
        dm.setup_vsock_boot(&mut hv, &mut xs, dom).unwrap();
        assert!(dm.vsock_send(dom, b"parent msg".to_vec()).unwrap());

        let child = hv.create_domain("child", 4, 1).unwrap();
        let port = dm.clone_vsock_impl(&mut hv, &mut xs, dom, child, false).unwrap();
        assert_eq!(port, crate::vsock::vsock_port_for(child));
        assert_eq!(
            xs.read(DomId::DOM0, &format!("{}/port", front(DeviceClass::Vsock, child, 0))).unwrap(),
            port.to_string(),
            "cloned entries rewritten to the child's port"
        );
        let c = dm.vsock(child).unwrap();
        assert!(c.connected);
        assert!(c.sent.is_empty(), "no buffered-data inheritance");
    }

    #[test]
    fn usb_is_exclusive_and_detaches_on_clone() {
        let (mut hv, mut xs, mut dm, _udev, dom) = setup();
        dm.setup_usb_boot(&mut xs, dom, 0, "1-1.4").unwrap();
        assert!(dm.usb_submit(dom, 0).unwrap());

        // The same physical device cannot be attached twice.
        let other = hv.create_domain("other", 4, 1).unwrap();
        assert!(matches!(
            dm.setup_usb_boot(&mut xs, other, 0, "1-1.4"),
            Err(DevError::UsbBusy(_))
        ));

        let child = hv.create_domain("child", 4, 1).unwrap();
        dm.clone_usb_detach_impl(dom, child, 0).unwrap();
        assert!(dm.usb(child, 0).is_none(), "child comes up without the device");
        assert!(dm.usb(dom, 0).unwrap().attached, "parent keeps it");
        assert!(dm.devices(child).is_empty(), "no device entry for the child");
        assert!(dm.usb_busid_exclusive("1-1.4", dom, 0));
    }
}
