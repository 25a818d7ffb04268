//! Per-clone latency as a function of live-domain count: the gate that
//! pins clone cost independent of density.
//!
//! Before the index work, each create/clone/destroy walked structures
//! sized by the number of live domains — the xl name-uniqueness scan and
//! the hypervisor's all-domains peer sweep — so per-clone host cost grew
//! linearly with density. With the name index, the per-table peer/grantee
//! indexes and the hypervisor-level referrer index, the hot path is
//! O(refs actually held), so a clone into a 10^4-domain platform must
//! cost the same as a clone into a 10^2-domain one. `scripts/verify.sh`
//! asserts the 10^4 median stays within 2x of the 10^2 median.
//!
//! Each iteration clones a fresh batch into the pre-ramped platform and
//! destroys it again, so the measurement covers exactly the two hot-path
//! ops (clone_domain and destroy) at the given density — the pool always
//! returns to its ramped size between iterations.
//!
//! The `family` groups hold the live-domain count fixed and vary the size
//! of one clone family instead: a single platform carries 10^5 live clones
//! of template A and 10^2 of template B, and each group times the same
//! step on one template — clone 16, then destroy that family's 16 oldest
//! (FIFO, as perfbench's `clone_churn` does). A destroy must not cost
//! O(surviving siblings); `scripts/verify.sh` asserts the 10^5-sibling
//! median stays within 2x of the 10^2-sibling one (a per-parent child list
//! scanned on every destroy made it ~5x).
//!
//! The `pump_density` groups pin the data path the same way: one
//! `host_udp_send` round trip to a UDP echo family behind the bond, at 30
//! and at 3 000 members. The network pump services only the vifs with
//! queued packets, so a request into the larger family must cost the same
//! as one into the smaller; `scripts/verify.sh` asserts the 3 000-member
//! median stays within 2x of the 30-member median (a pump probing every
//! live vif's rings each round made it ~250x).

use std::collections::VecDeque;
use std::net::Ipv4Addr;

use testkit::bench::Bench;

use nephele::apps::UdpEchoApp;
use nephele::netmux::SockEvent;
use nephele::sim_core::{DomId, SimDuration};
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{AuditMode, MuxKind, Platform, PlatformConfig};

/// Clones per timed batch (kept small so the batch itself does not
/// dominate; the point is the density of the surrounding pool).
const BATCH: u32 = 16;

/// Family sizes of the `family` groups: template A's and template B's live
/// clones, all in one platform.
const FAMILY_A: u32 = 100_000;
const FAMILY_B: u32 = 100;

/// Builds a platform pre-ramped to `live` live vif-less clones and
/// returns it with the template and its children, oldest first.
fn rammed_platform(live: u32) -> (Platform, DomId, VecDeque<DomId>) {
    let mut p = Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(((live as u64) / 4).clamp(256, 8_192))
            .ring_capacity(1_024)
            .mux(MuxKind::None)
            .seed(0xd_e2_51_7e)
            .audit(AuditMode::Off)
            .build(),
    );
    let template = launch_template(&mut p, "density-tmpl");
    let children = ramp(&mut p, template, live);
    (p, template, children)
}

/// Boots a 4 MiB vif-less template named `name` that may clone without
/// limit.
fn launch_template(p: &mut Platform, name: &str) -> DomId {
    let cfg = DomainConfig::builder(name)
        .memory_mib(4)
        .max_clones(u32::MAX)
        .resume_clones(false)
        .build();
    p.launch_plain(&cfg, &KernelImage::unikraft("density-fn"))
        .expect("template boot")
}

/// Clones `template` `live` times, in batches of up to 500, and returns
/// the children oldest first.
fn ramp(p: &mut Platform, template: DomId, live: u32) -> VecDeque<DomId> {
    let mut children = VecDeque::with_capacity(live as usize + BATCH as usize);
    while (children.len() as u32) < live {
        let want = (live - children.len() as u32).min(500);
        let kids = p.clone_domain(template, want).expect("ramp clone");
        assert_eq!(kids.len() as u32, want, "pool exhausted during ramp");
        children.extend(kids);
        p.run_for(SimDuration::from_ms(10));
    }
    children
}

/// The echo family's shared service address and port.
const SERVICE_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const SERVICE_PORT: u16 = 7000;

/// Builds a UDP echo root in the default bond mux and grows it by
/// `guest_fork` to `members` forked members.
fn echo_family(members: u32) -> Platform {
    let mut p = Platform::new(
        PlatformConfig::builder()
            .ring_capacity(1_024)
            .seed(0xd_e2_51_7e)
            .audit(AuditMode::Off)
            .build(),
    );
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
        .expect("echo root boot");
    p.enlist_in_mux(root);
    let mut made = 0u32;
    while made < members {
        let want = (members - made).min(128);
        let kids = p.guest_fork(root, want).expect("ramp fork");
        assert_eq!(kids.len() as u32, want, "pool exhausted during ramp");
        made += want;
    }
    p.take_host_events();
    p
}

/// One request to the family's service address and the drain of its
/// reply; returns how many echoes came back.
fn request(p: &mut Platform, src_port: u16) -> usize {
    p.host_udp_send(SERVICE_IP, src_port, SERVICE_PORT, b"ping".to_vec());
    p.take_host_events()
        .iter()
        .filter(|e| matches!(e, SockEvent::UdpData { src_port: SERVICE_PORT, .. }))
        .count()
}

fn main() {
    let mut c = Bench::new("clone_density");
    for live in [100u32, 1_000, 10_000] {
        let mut g = c.benchmark_group(&format!("density_{live}"));
        g.sample_size(if live >= 10_000 { 10 } else { 20 });
        // One ramp per density, shared across samples: each iteration
        // clones a batch and destroys it again, leaving the pool at its
        // ramped size.
        let (mut p, template, _) = rammed_platform(live);
        g.bench_function("clone_destroy_batch16", |b| {
            b.iter(|| {
                let kids = p.clone_domain(template, BATCH).expect("timed clone");
                for k in kids {
                    p.destroy(k).expect("timed destroy");
                }
            })
        });
        g.finish();
    }
    for members in [30u32, 3_000] {
        let mut g = c.benchmark_group(&format!("pump_density_{members}"));
        g.sample_size(20);
        let mut p = echo_family(members);
        // Rotating source ports spread the flows over the bond's members.
        let mut port = 0u16;
        g.bench_function("udp_request", |b| {
            b.iter(|| {
                port = (port + 1) % 512;
                assert_eq!(request(&mut p, 20_000 + port), 1, "request unanswered");
            })
        });
        g.finish();
    }
    // One platform for both family groups, so the live-domain count is the
    // same and only the family size differs. Each step clones 16 and then
    // destroys the family's 16 oldest, keeping the family at its size. The
    // groups run last so that the ones above keep their process state.
    let (mut p, a, family_a) = rammed_platform(FAMILY_A);
    let b = launch_template(&mut p, "family-b-tmpl");
    let family_b = ramp(&mut p, b, FAMILY_B);
    for (template, mut family) in [(a, family_a), (b, family_b)] {
        let mut g = c.benchmark_group(&format!("family_{}", family.len()));
        g.sample_size(20);
        g.bench_function("clone_destroy_oldest16", |bench| {
            bench.iter(|| {
                let kids = p.clone_domain(template, BATCH).expect("timed clone");
                family.extend(kids);
                for _ in 0..BATCH {
                    let oldest = family.pop_front().expect("family outlives the batch");
                    p.destroy(oldest).expect("timed destroy");
                }
            })
        });
        g.finish();
    }
    c.finish();
}
