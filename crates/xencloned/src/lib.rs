//! `xencloned`: the Nephele cloning daemon (second stage).
//!
//! `xencloned` runs in Dom0 and completes what the hypervisor's first stage
//! started (§4.2, §5). Woken by `VIRQ_CLONED`, it drains the clone
//! notification ring and, for each new child:
//!
//! 1. introduces the child to the Xenstore daemon (introduction augmented
//!    with the parent id);
//! 2. generates and writes the clone's name — uniqueness is guaranteed by
//!    construction, so the O(n) validation scan `xl` performs is skipped;
//! 3. clones each parent device's registry information, either with the
//!    `xs_clone` request (few round-trips) or with a deep per-entry copy
//!    (the Fig. 4 comparison), which triggers the backend drivers' own
//!    cloning operations;
//! 4. performs the userspace follow-ups for udev events (enslaving new
//!    vifs to the bond / adding them to the OVS group);
//! 5. signals completion back to the hypervisor via the `clone_completion`
//!    subcommand of `CLONEOP`, resuming the parent (and the children,
//!    policy permitting).
//!
//! The daemon caches parent Xenstore information after the first clone,
//! which is why the paper measures ~3 ms of userspace operations for the
//! first clone and ~1.9 ms afterwards (§6.2).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use devices::class::ClonePolicy;
use devices::udev::{UdevBus, UdevEvent};
use devices::{DevError, DeviceManager};
use hypervisor::cloneop::CloneOp;
use hypervisor::error::HvError;
use hypervisor::notify::CloneNotification;
use hypervisor::Hypervisor;
use netmux::{CloneMux, IfaceId};
use sim_core::{Clock, CostModel, DomId, TraceSink};
use toolstack::Xl;
use xenstore::{XsCloneOp, XsError, Xenstore};

/// Errors from the cloning daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CloneDaemonError {
    /// Hypervisor failure.
    Hv(HvError),
    /// Xenstore failure.
    Xs(XsError),
    /// Device failure.
    Dev(DevError),
}

impl fmt::Display for CloneDaemonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CloneDaemonError::Hv(e) => write!(f, "{e}"),
            CloneDaemonError::Xs(e) => write!(f, "{e}"),
            CloneDaemonError::Dev(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CloneDaemonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CloneDaemonError::Hv(e) => Some(e),
            CloneDaemonError::Xs(e) => Some(e),
            CloneDaemonError::Dev(e) => Some(e),
        }
    }
}

impl From<HvError> for CloneDaemonError {
    fn from(e: HvError) -> Self {
        CloneDaemonError::Hv(e)
    }
}
impl From<XsError> for CloneDaemonError {
    fn from(e: XsError) -> Self {
        CloneDaemonError::Xs(e)
    }
}
impl From<DevError> for CloneDaemonError {
    fn from(e: DevError) -> Self {
        CloneDaemonError::Dev(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, CloneDaemonError>;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct XenclonedConfig {
    /// Use the `xs_clone` request (`false` falls back to the deep per-entry
    /// copy measured by the "clone + XS deep copy" curve of Fig. 4).
    pub use_xs_clone: bool,
    /// Per-device-class clone policy (the Redis experiment of §7.1
    /// disables the network class: "the I/O cloning is optimized to clone
    /// only the devices that are needed by the clones").
    pub policy: ClonePolicy,
    /// Restrict the second stage to the mandatory operations only
    /// (toolstack introduction and naming) — the configuration used for
    /// the memory-scaling experiment of §6.2 / Fig. 6.
    pub minimal: bool,
}

impl Default for XenclonedConfig {
    fn default() -> Self {
        XenclonedConfig {
            use_xs_clone: true,
            policy: ClonePolicy::all(),
            minimal: false,
        }
    }
}

/// A completed clone, as reported by the daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedClone {
    /// The parent domain.
    pub parent: DomId,
    /// The new child domain.
    pub child: DomId,
    /// The child's generated name.
    pub name: String,
    /// Host interfaces created for the child's vifs.
    pub ifaces: Vec<IfaceId>,
}

/// The `xencloned` daemon state.
#[derive(Debug)]
pub struct Xencloned {
    clock: Clock,
    costs: Rc<CostModel>,
    /// Behavioural configuration.
    pub config: XenclonedConfig,
    /// The cached Xenstore information (the name) of each parent read so
    /// far; a parent is cached exactly when it has an entry.
    parent_names: HashMap<u32, String>,
    /// Clones named so far, per parent.
    clone_seq: HashMap<u32, u64>,
    clones_completed: u64,
    trace: TraceSink,
}

impl Xencloned {
    /// Creates the daemon.
    pub fn new(clock: Clock, costs: Rc<CostModel>) -> Self {
        Xencloned {
            clock,
            costs,
            config: XenclonedConfig::default(),
            parent_names: HashMap::new(),
            clone_seq: HashMap::new(),
            clones_completed: 0,
            trace: TraceSink::default(),
        }
    }

    /// Attaches a trace sink (disabled by default); second-stage spans and
    /// parent-cache counters are recorded into it.
    pub fn attach_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// The attached trace sink.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Daemon startup: binds `VIRQ_CLONED` and enables cloning globally.
    pub fn start(&mut self, hv: &mut Hypervisor) -> Result<()> {
        hv.bind_virq(DomId::DOM0, hypervisor::event::Virq::Cloned)?;
        hv.cloneop(DomId::DOM0, CloneOp::SetGlobalEnabled(true))?;
        Ok(())
    }

    /// Drops what the daemon cached about a destroyed domain, so a domain
    /// that reuses its domid is read afresh and numbers its clones from 1.
    pub fn forget_domain(&mut self, dom: DomId) {
        self.parent_names.remove(&dom.0);
        self.clone_seq.remove(&dom.0);
    }

    /// Total clones whose second stage this daemon completed.
    pub fn clones_completed(&self) -> u64 {
        self.clones_completed
    }

    /// Drains and handles every pending clone notification. Call this when
    /// `VIRQ_CLONED` fires (the platform routes the event here).
    #[allow(clippy::too_many_arguments)]
    pub fn handle_pending(
        &mut self,
        hv: &mut Hypervisor,
        xs: &mut Xenstore,
        dm: &mut DeviceManager,
        udev: &mut UdevBus,
        xl: &mut Xl,
        mux: Option<&mut (dyn CloneMux + '_)>,
    ) -> Result<Vec<CompletedClone>> {
        // Pop one notification at a time, in ring order: a failing child
        // leaves the unprocessed tail queued for the next call.
        let mut done = Vec::new();
        let mut mux = mux;
        while let Some(n) = hv.clone_ring_pop() {
            let start = self.clock.now();
            match self.handle_one(hv, xs, dm, udev, xl, &mut mux, n) {
                Ok(c) => {
                    self.trace
                        .record_ns("clone.stage2", self.clock.now().since(start).as_ns());
                    done.push(c);
                }
                Err(e) => {
                    self.trace.count_dom("clone.fail", n.parent, 1);
                    return Err(e);
                }
            }
        }
        Ok(done)
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_one(
        &mut self,
        hv: &mut Hypervisor,
        xs: &mut Xenstore,
        dm: &mut DeviceManager,
        udev: &mut UdevBus,
        xl: &mut Xl,
        mux: &mut Option<&mut (dyn CloneMux + '_)>,
        n: CloneNotification,
    ) -> Result<CompletedClone> {
        let CloneNotification { parent, child, .. } = n;
        let span = self.trace.span("xencloned.stage2");
        span.attr("parent", parent.0);
        span.attr("child", child.0);
        self.clock.advance(self.costs.xencloned_dispatch);

        // Read and cache the parent's Xenstore information on first use
        // (first clone ≈3 ms of userspace ops, later ≈1.9 ms, §6.2).
        let parent_name = match self.parent_names.entry(parent.0) {
            Entry::Occupied(e) => {
                self.trace.count_dom("xencloned.parent_cache.hit", parent, 1);
                e.get().clone()
            }
            Entry::Vacant(e) => {
                self.trace.count_dom("xencloned.parent_cache.miss", parent, 1);
                self.clock.advance(self.costs.xencloned_parent_scan);
                let name = xs
                    .read(DomId::DOM0, &format!("/local/domain/{}/name", parent.0))
                    .unwrap_or_else(|_| format!("dom{}", parent.0));
                e.insert(name).clone()
            }
        };

        // Introduce the child with the parent id (step 2.1).
        xs.introduce_domain(child, Some(parent))?;

        // Generate a unique name — no validation scan needed.
        let seq = self.clone_seq.entry(parent.0).or_insert(0);
        *seq += 1;
        let name = format!("{parent_name}-c{seq}");
        let home = format!("/local/domain/{}", child.0);
        xs.write(DomId::DOM0, &format!("{home}/name"), &name)?;
        xs.write(DomId::DOM0, &format!("{home}/domid"), &child.0.to_string())?;

        let mut ifaces = Vec::new();
        if !self.config.minimal {
            // Basic (non-device) registry state.
            if self.config.use_xs_clone {
                let pm = format!("/local/domain/{}/memory", parent.0);
                if xs.exists(&pm) {
                    xs.xs_clone(
                        DomId::DOM0,
                        XsCloneOp::Basic,
                        parent,
                        child,
                        &pm,
                        &format!("{home}/memory"),
                    )?;
                }
            } else {
                for key in ["memory/target", "memory/static-max"] {
                    if let Ok(v) = xs.read(DomId::DOM0, &format!("/local/domain/{}/{key}", parent.0)) {
                        xs.write(DomId::DOM0, &format!("{home}/{key}"), &v)?;
                    }
                }
            }

            // Devices: one loop over the parent's devices, each cloned by
            // its class's declared semantics (steps 2.1–2.3). The list is
            // sorted by (class, devid), so consoles clone first, then vifs
            // by device index, then 9pfs — the same order the historical
            // hand-enumerated stage used.
            let deep_copy = !self.config.use_xs_clone;
            for id in dm.devices(parent) {
                if !self.config.policy.clones(id.class) {
                    continue;
                }
                let iface = dm.clone_device(hv, xs, udev, parent, child, id, deep_copy)?;
                ifaces.extend(iface);
            }

            // Userspace follow-ups for the udev events (step 2.3) —
            // enslaving each new vif.
            for e in udev.drain() {
                if let UdevEvent::VifCreated { .. } = e {
                    if mux.is_some() {
                        self.clock.advance(self.costs.bond_enslave);
                    } else {
                        self.clock.advance(self.costs.bridge_add);
                    }
                }
            }
            if let Some(m) = mux.as_deref_mut() {
                for i in &ifaces {
                    m.add_member(*i);
                }
            }
        }

        // Register in the instance-management registry.
        xl.register_clone(parent, child, &name, ifaces.clone());

        // Step 2.4: completion hypercall; parent resumes when all its
        // pending children completed.
        hv.cloneop(DomId::DOM0, CloneOp::Completion { child })?;
        self.clones_completed += 1;
        Ok(CompletedClone {
            parent,
            child,
            name,
            ifaces,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use devices::class::DeviceClass;
    use devices::udev::UdevBus;
    use hypervisor::domain::DomainState;
    use hypervisor::MachineConfig;
    use netmux::{Bond, CloneMux, XmitHashPolicy};
    use toolstack::{DomainConfig, KernelImage};

    use super::*;

    struct World {
        clock: Clock,
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

    fn boot_parent(w: &mut World) -> DomId {
        let cfg = DomainConfig::builder("udp")
            .memory_mib(4)
            .vif(Ipv4Addr::new(10, 0, 0, 2))
            .max_clones(64)
            .build();
        let img = KernelImage::minios("udp");
        w.xl
            .create(&mut w.hv, &mut w.xs, &mut w.dm, &mut w.udev, &cfg, &img)
            .unwrap()
            .id
    }

    fn fork(w: &mut World, parent: DomId, mux: Option<&mut dyn CloneMux>) -> CompletedClone {
        w.hv.cloneop(
            parent,
            CloneOp::Clone {
                target: None,
                nr_clones: 1,
            },
        )
        .unwrap();
        let done = w
            .daemon
            .handle_pending(&mut w.hv, &mut w.xs, &mut w.dm, &mut w.udev, &mut w.xl, mux)
            .unwrap();
        assert_eq!(done.len(), 1);
        done.into_iter().next().unwrap()
    }

    #[test]
    fn full_clone_second_stage() {
        let mut w = world();
        let parent = boot_parent(&mut w);
        let mut bond = Bond::new(XmitHashPolicy::Layer34);
        let c = fork(&mut w, parent, Some(&mut bond));

        // Parent and child both run again.
        assert_eq!(w.hv.domain(parent).unwrap().state, DomainState::Running);
        assert_eq!(w.hv.domain(c.child).unwrap().state, DomainState::Running);
        // The clone is named, registered and in Xenstore.
        assert_eq!(c.name, "udp-c1");
        assert_eq!(
            w.xs.read(DomId::DOM0, &format!("/local/domain/{}/name", c.child.0)).unwrap(),
            "udp-c1"
        );
        assert!(w.xl.record(c.child).is_some());
        assert_eq!(
            w.xs.read(DomId::DOM0, &format!("/local/domain/{}/parent", c.child.0)).unwrap(),
            parent.0.to_string()
        );
        // Its vif exists, is connected and was enslaved to the bond.
        assert!(w.dm.vif(c.child, 0).unwrap().is_connected());
        assert_eq!(bond.member_count(), 1);
        // Same MAC/IP as the parent.
        assert_eq!(w.dm.vif(c.child, 0).unwrap().mac, w.dm.vif(parent, 0).unwrap().mac);
        // Console attached, fresh output.
        assert!(w.dm.console_attached(c.child));
    }

    #[test]
    fn clone_is_roughly_8x_faster_than_boot() {
        let mut w = world();
        let t0 = w.clock.now();
        let parent = boot_parent(&mut w);
        let boot = w.clock.now().since(t0);

        // Warm up the daemon cache with one clone.
        fork(&mut w, parent, None);

        let t1 = w.clock.now();
        fork(&mut w, parent, None);
        let clone = w.clock.now().since(t1);

        let speedup = boot.as_ms_f64() / clone.as_ms_f64();
        assert!(
            speedup > 3.0,
            "clone ({clone}) must be several times faster than boot ({boot}), got {speedup:.1}x"
        );
    }

    #[test]
    fn deep_copy_clone_is_slower_than_xs_clone() {
        let mut w = world();
        let parent = boot_parent(&mut w);
        fork(&mut w, parent, None); // warm cache

        let t0 = w.clock.now();
        fork(&mut w, parent, None);
        let fast = w.clock.now().since(t0);

        w.daemon.config.use_xs_clone = false;
        let t1 = w.clock.now();
        fork(&mut w, parent, None);
        let slow = w.clock.now().since(t1);

        assert!(slow > fast, "deep copy ({slow}) must exceed xs_clone ({fast})");
    }

    #[test]
    fn first_clone_charges_parent_scan() {
        let mut w = world();
        let parent = boot_parent(&mut w);

        let t0 = w.clock.now();
        fork(&mut w, parent, None);
        let first = w.clock.now().since(t0);

        let t1 = w.clock.now();
        fork(&mut w, parent, None);
        let second = w.clock.now().since(t1);

        assert!(first > second, "first clone ({first}) includes the parent scan ({second})");
    }

    #[test]
    fn minimal_mode_skips_devices() {
        let mut w = world();
        let parent = boot_parent(&mut w);
        w.daemon.config.minimal = true;
        let c = fork(&mut w, parent, None);
        assert!(w.dm.vif(c.child, 0).is_none(), "no device cloning in minimal mode");
        assert!(w.xl.record(c.child).is_some(), "but toolstack introduction happened");
        assert_eq!(w.hv.domain(parent).unwrap().state, DomainState::Running);
    }

    #[test]
    fn network_skipping_for_redis_style_clones() {
        let mut w = world();
        let parent = boot_parent(&mut w);
        w.daemon.config.policy = ClonePolicy::all().set(DeviceClass::Vif, false);
        let c = fork(&mut w, parent, None);
        assert!(w.dm.vif(c.child, 0).is_none());
        assert!(w.dm.console_attached(c.child), "console still cloned");
    }

    #[test]
    fn failing_child_leaves_the_ring_tail_queued() {
        let mut w = world();
        w.daemon.attach_trace(TraceSink::new(w.clock.clone(), sim_core::TraceMode::Full));
        let parent = boot_parent(&mut w);
        let kids = match w
            .hv
            .cloneop(
                parent,
                CloneOp::Clone {
                    target: None,
                    nr_clones: 3,
                },
            )
            .unwrap()
        {
            hypervisor::cloneop::CloneOpResult::Cloned(c) => c,
            other => panic!("unexpected {other:?}"),
        };
        // The second child vanishes between the stages, so its second
        // stage cannot complete.
        w.hv.destroy_domain(kids[1]).unwrap();

        let r = w.daemon.handle_pending(
            &mut w.hv,
            &mut w.xs,
            &mut w.dm,
            &mut w.udev,
            &mut w.xl,
            None,
        );
        assert!(r.is_err(), "stage 2 of the vanished child must fail: {r:?}");
        assert_eq!(
            w.daemon.clones_completed(),
            1,
            "only the first child completed"
        );
        assert_ne!(
            w.hv.domain(kids[0]).unwrap().state,
            DomainState::PausedAfterClone
        );
        // Two entries were popped; the third is still queued, untouched.
        assert_eq!(w.hv.clone_ring_len(), 1);
        assert_eq!(w.hv.clone_ring_pending().next().unwrap().child, kids[2]);
        assert_eq!(
            w.hv.domain(kids[2]).unwrap().state,
            DomainState::PausedAfterClone
        );
        assert_eq!(w.daemon.trace().counter_total("clone.fail"), 1);
    }

    #[test]
    fn clone_names_count_up_per_parent() {
        let mut w = world();
        let parent = boot_parent(&mut w);
        let a = fork(&mut w, parent, None);
        let b = fork(&mut w, parent, None);
        assert_eq!(a.name, "udp-c1");
        assert_eq!(b.name, "udp-c2");
        assert_eq!(w.daemon.clones_completed(), 2);
    }
}
