//! `vif_family`: a Mini-OS UDP echo server
//! (`UdpEchoApp::shared_port`) with one vif in the default bond mux,
//! grown by `guest_fork` to [`Size::vif_members`] forked members. Each
//! step forks one child, destroys the oldest forked member and sends four
//! requests to the service IP, each from a seeded source port with a
//! seeded payload. The trace sink is off.
//!
//! It is the only workload that runs the device and mux layers on both the
//! clone path (vif clone and teardown) and the data path (rings, mux
//! select, guest stack).
//!
//! Known defect, reported and not worked around: `Platform::destroy`
//! never removes the destroyed vif from the mux, so the bond keeps
//! selecting dead members and some requests get no reply. They count as
//! failed ops, and `netmux.members` exceeds `devices.live_vifs`.

use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::time::Instant;

use nephele::apps::UdpEchoApp;
use nephele::netmux::SockEvent;
use nephele::sim_core::{DomId, SplitMix64};
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::Platform;

use crate::probe::Probe;
use crate::{
    base_config, fabric, per_clone, ramp_batches, resident, Bench, Counters, Digest, Fabric,
    PerClone, Size, Tally,
};

/// The family's shared service address.
pub const SERVICE_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
/// The port every member serves.
pub const SERVICE_PORT: u16 = 7000;
/// Requests per step.
pub const REQUESTS: u32 = 4;
/// Requests sent after the traced phase to count packets per request.
pub const PACKET_PROBES: u32 = 16;

/// The `vif_family` workload.
pub struct VifFamily {
    p: Platform,
    root: DomId,
    /// Live forked members, oldest first.
    members: VecDeque<DomId>,
    target: u32,
    /// Source ports and payloads.
    rng: SplitMix64,
    counters: Counters,
    /// See [`Digest::reply_pattern`].
    reply_pattern: u64,
    base: (u64, u64),
}

impl VifFamily {
    /// Sends one request and waits for its reply; true when exactly one
    /// reply with the request's payload came back.
    fn request(&mut self, probe: &mut Probe) -> bool {
        let port = 1_024 + self.rng.next_below(u64::from(u16::MAX - 1_024)) as u16;
        let payload = self.rng.next_u64().to_le_bytes().to_vec();
        let t = Instant::now();
        let p = &mut self.p;
        probe.layer("nephele.host_udp_send", || {
            p.host_udp_send(SERVICE_IP, port, SERVICE_PORT, payload.clone())
        });
        let events = self.p.take_host_events();
        probe.record("request", t.elapsed().as_nanos() as u64);
        let replies = events
            .iter()
            .filter(|e| {
                matches!(e, SockEvent::UdpData { port: to, src_port: SERVICE_PORT, payload: got, .. }
                    if *to == port && *got == payload)
            })
            .count();
        self.counters.requests += 1;
        let answered = replies == 1;
        self.counters.replies += answered as u64;
        self.reply_pattern =
            (self.reply_pattern ^ (1 + answered as u64)).wrapping_mul(0x100_0000_01b3);
        answered
    }
}

impl Bench for VifFamily {
    const NAME: &'static str = "vif_family";
    const SETUP_REPS: usize = 5;
    const WARM_STEPS: u32 = 64;
    /// Each step leaves one more stale member in the mux (the known
    /// defect), which changes what a request costs and whether it is
    /// answered. Measuring the 1 000 steps after the warm steps over and
    /// over keeps that, and the count of failed ops, from depending on how
    /// fast the host is.
    const CYCLE_STEPS: u64 = 1_000;
    const CYCLE_SECONDS: f64 = 1.7;

    fn setup(seed: u64, size: &Size) -> Self {
        let mut p = Platform::new(base_config(seed).ring_capacity(1_024).build());
        let cfg = DomainConfig::builder("echo")
            .memory_mib(4)
            .vif(SERVICE_IP)
            .max_clones(u32::MAX)
            .build();
        let root = p
            .launch(
                &cfg,
                &KernelImage::minios("echo"),
                Box::new(UdpEchoApp::shared_port(SERVICE_PORT)),
            )
            .expect("echo root boots");
        p.enlist_in_mux(root);
        let base = resident(&p);
        let mut rng = SplitMix64::new(seed);
        let mut members = VecDeque::with_capacity(size.vif_members as usize + 1);
        for batch in ramp_batches(&mut rng, size.vif_members, 32, 128) {
            let kids = p.guest_fork(root, batch).expect("ramp fork");
            assert_eq!(
                kids.len() as u32,
                batch,
                "guest pool exhausted during the ramp"
            );
            members.extend(kids);
        }
        // Drop the members' readiness notifications.
        p.take_host_events();
        VifFamily {
            p,
            root,
            members,
            target: size.vif_members,
            rng,
            counters: Counters::default(),
            reply_pattern: 0,
            base,
        }
    }

    fn step(&mut self, probe: &mut Probe) -> Tally {
        let mut tally = Tally::default();
        let root = self.root;
        match probe.time("nephele.guest_fork", || self.p.guest_fork(root, 1)) {
            Ok(kids) => {
                tally.op(kids.len() != 1);
                self.members.extend(kids);
            }
            Err(_) => tally.op(true),
        }
        // The child's readiness notification.
        self.p.take_host_events();
        while self.members.len() > self.target as usize {
            let oldest = self
                .members
                .pop_front()
                .expect("more members than the target");
            let r = probe.time("toolstack.destroy", || self.p.destroy(oldest));
            tally.op(r.is_err());
        }
        for _ in 0..REQUESTS {
            let answered = self.request(probe);
            tally.op(!answered);
        }
        tally
    }

    fn digest(&self) -> Digest {
        Digest {
            virt_ns: self.p.clock.now().as_ns(),
            live: self.p.hv.domain_count() as u64,
            replies: self.counters.replies,
            reply_pattern: self.reply_pattern,
            ..Digest::default()
        }
    }

    fn check(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let report = self.p.audit();
        if !report.is_clean() {
            problems.push(format!("{}: audit: {report}", Self::NAME));
        }
        // Dom0, the root and the forked members.
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
        self.counters
    }

    /// Also sends [`PACKET_PROBES`] untimed requests to count the packets
    /// each one routes: the count comes from `snapshot()`, which walks
    /// every domain and is too slow to take around timed requests.
    fn fabric(&mut self) -> Fabric {
        let mut f = fabric(&self.p);
        let mut packets = 0;
        let mut probe = Probe::untraced();
        for _ in 0..PACKET_PROBES {
            let before = self.p.snapshot().packets_routed;
            self.request(&mut probe);
            packets += self.p.snapshot().packets_routed - before;
        }
        f.packets_per_request = packets as f64 / f64::from(PACKET_PROBES);
        f
    }

    fn per_clone(&self) -> PerClone {
        per_clone(&self.p, self.base, self.members.len())
    }

    fn op_spans() -> [Option<&'static str>; 3] {
        [
            Some("nephele.guest_fork"),
            Some("toolstack.destroy"),
            Some("request"),
        ]
    }
}
