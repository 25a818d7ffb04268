//! Destroy is the exact inverse of create and clone. From a random
//! reachable platform, each of
//!
//! * `launch` then `destroy`,
//! * `clone_domain(n)` then destroying the n children,
//! * `guest_fork(n)` then destroying the children
//!
//! must leave the platform in the state it started in, compared
//! structurally by [`PlatformState`], and must audit clean.
//!
//! Launched domains carry vif, 9pfs, vbd and vsock devices; the clone
//! families are vif-less, so the clone mux never gains a member.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::Ipv4Addr;

use testkit::prop::{bools, check, ranges, usizes, vecs, weighted, Gen, Source};

use nephele::guest::{GuestApp, GuestEnv};
use nephele::hypervisor::memory::{FrameOwner, PageContent};
use nephele::sim_core::DomId;
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{AuditMode, Platform, PlatformConfig};

/// A guest that does nothing on its own, so every state change comes
/// from the operations under test.
#[derive(Clone)]
struct Idle;

impl GuestApp for Idle {
    fn boxed_clone(&self) -> Box<dyn GuestApp> {
        Box::new(self.clone())
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn on_boot(&mut self, _env: &mut GuestEnv) {}
}

/// The platform state a destroy must restore, as named facts in a
/// comparable normal form. Only [`PlatformState::capture`] relaxes the
/// comparison, and each relaxation is one entry of this list:
///
/// 1. The virtual clock, the trace sink and the monotonic counters
///    (packets routed, clones completed, per-domain `clones_created`,
///    iface and binding sequence numbers, the access log) are not
///    captured: they only ever grow, by design.
/// 2. Free-list order: the LIFO free list reverses on destroy, so free
///    frames are compared as a set (a frame's owner says it is free).
/// 3. The domid allocator is compared in normal form: a trailing run of
///    free ids is folded back into `next_domid`, which is what the
///    allocator would hand out either way.
/// 4. The Dom0-side directories above the per-domain backend entries
///    (`/local/domain/0`, `/local/domain/0/backend` and
///    `/local/domain/0/backend/<class>`) are not captured: the first
///    device of a class creates them, and they persist once created.
/// 5. A `dom_cow` frame whose refcount fell to 1 counts as owned by the
///    one domain that maps it. Ownership moves back only on that
///    domain's next write fault (`cow_fault`, §5.2), which yields exactly
///    this normal form.
struct PlatformState {
    facts: BTreeMap<String, String>,
}

impl PlatformState {
    fn capture(p: &Platform) -> PlatformState {
        let mut facts = BTreeMap::new();
        let mut fact = |key: String, value: String| {
            facts.insert(key, value);
        };

        // Live domains, and who maps each frame (p2m slots and aux frames).
        let mut mappers: BTreeMap<u64, Vec<String>> = BTreeMap::new();
        for d in p.hv.domains() {
            fact(
                format!("domain {}", d.id.0),
                format!(
                    "{:?} parent={:?} pending_stage2={}",
                    d.state, d.parent, d.pending_stage2
                ),
            );
            for (pfn, mfn) in d.p2m.iter().enumerate() {
                if let Some(mfn) = mfn {
                    mappers
                        .entry(mfn.0)
                        .or_default()
                        .push(format!("{}@{pfn}", d.id.0));
                }
            }
            for mfn in &d.aux_frames {
                mappers
                    .entry(mfn.0)
                    .or_default()
                    .push(format!("{}@aux", d.id.0));
            }
        }

        // Frames (exclusions 2 and 5): only non-free frames are facts.
        fact(
            "frames total".into(),
            p.hv.frames().total_frames().to_string(),
        );
        for (mfn, f) in p.hv.frames().iter_frames() {
            let maps = mappers.remove(&mfn.0).unwrap_or_default();
            let (owner, refcount, writable) = match f.owner() {
                FrameOwner::Free => continue,
                FrameOwner::Cow if f.refcount() == 1 && maps.len() == 1 => {
                    let dom = maps[0].split('@').next().unwrap_or_default();
                    (format!("dom {dom}"), 0, true)
                }
                FrameOwner::Dom(d) => (format!("dom {}", d.0), f.refcount(), f.writable()),
                owner => (format!("{owner:?}"), f.refcount(), f.writable()),
            };
            let content = match f.content() {
                PageContent::Zero => "zero".to_string(),
                PageContent::Fill(v) => format!("fill {v:#x}"),
                PageContent::Bytes(b) => format!("bytes {:#x}", fnv(b)),
            };
            fact(
                format!("frame {}", mfn.0),
                format!(
                    "{owner} refcount={refcount} writable={writable} {content} mapped by {maps:?}"
                ),
            );
        }

        // The Xenstore tree, read without charging (exclusion 4).
        let mut stack = vec!["/".to_string()];
        while let Some(dir) = stack.pop() {
            for child in p.xs.peek_directory(&dir) {
                let path = if dir == "/" {
                    format!("/{child}")
                } else {
                    format!("{dir}/{child}")
                };
                let dom0_dir = path == "/local/domain/0"
                    || path
                        .strip_prefix("/local/domain/0/backend")
                        .is_some_and(|rest| rest.matches('/').count() <= 1);
                if !dom0_dir {
                    fact(format!("xs {path}"), format!("{:?}", p.xs.peek(&path)));
                }
                stack.push(path);
            }
        }
        fact("xs watches".into(), p.xs.watch_count().to_string());

        // Devices, the pump's ready sets, the mux and the udev queue.
        for (owner, id) in p.dm.all_devices() {
            fact(
                format!("device {} {}/{}", owner.0, id.class.name(), id.devid),
                String::new(),
            );
        }
        fact("ready vifs".into(), format!("{:?}", p.dm.ready_vifs()));
        fact("mux members".into(), p.snapshot().mux_members.to_string());
        fact("udev queue".into(), p.udev.len().to_string());

        // Toolstack records (the name index is audited against them).
        for (name, id) in p.xl.list() {
            fact(format!("xl record {}", id.0), name);
        }

        // The domid allocator (exclusion 3), and guest slots under every
        // id it has handed out.
        let (next, free) = p.hv.domid_allocator();
        let mut free = free.clone();
        let mut folded = next;
        while folded > 0 && free.remove(&(folded - 1)) {
            folded -= 1;
        }
        fact("domids".into(), format!("next={folded} free={free:?}"));
        for id in 0..next {
            if p.has_guest(DomId(id)) {
                fact(format!("guest slot {id}"), String::new());
            }
        }

        for (mac, iface) in p.mac_routes() {
            fact(format!("mac route {mac:?}"), format!("{iface:?}"));
        }
        PlatformState { facts }
    }

    /// The differences from `before` to `self`, first ones first, one
    /// line each; empty when the states are equal.
    fn diff(&self, before: &PlatformState) -> Vec<String> {
        let mut out = Vec::new();
        for (k, v) in &before.facts {
            match self.facts.get(k) {
                None => out.push(format!("- {k}: {v}")),
                Some(now) if now != v => out.push(format!("~ {k}: {v} -> {now}")),
                Some(_) => {}
            }
        }
        for (k, v) in &self.facts {
            if !before.facts.contains_key(k) {
                out.push(format!("+ {k}: {v}"));
            }
        }
        out
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Asserts an empty diff and a clean audit after `what`.
fn assert_restored(p: &Platform, before: &PlatformState, what: &str) {
    let diff = PlatformState::capture(p).diff(before);
    if !diff.is_empty() {
        let mut msg = format!("{what} left {} difference(s):\n", diff.len());
        for line in diff.iter().take(24) {
            let _ = writeln!(msg, "  {line}");
        }
        panic!("{msg}");
    }
    let report = p.audit();
    assert!(report.is_clean(), "{what}: {report}");
}

fn platform() -> Platform {
    Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(256)
            .audit(AuditMode::Off)
            .flightrec_dir("target/test-flightrec")
            .build(),
    )
}

/// A domain with every device class but USB (`rich`), or a vif-less
/// clone-family template.
fn config(seq: usize, rich: bool) -> DomainConfig {
    let mut b = DomainConfig::builder(&format!("d{}", seq % 3))
        .memory_mib(4)
        .p9fs("/export")
        .vbd(64)
        .vsock()
        .max_clones(u32::MAX);
    if rich {
        b = b.vif(Ipv4Addr::new(10, 0, 1, (2 + seq % 200) as u8));
    }
    b.build()
}

#[derive(Debug, Clone)]
enum Step {
    Launch { rich: bool },
    Clone { idx: usize, nr: u32 },
    Fork { idx: usize, nr: u32 },
    Destroy { idx: usize },
    Rename { idx: usize, name: usize },
}

fn steps() -> impl Gen<Value = Step> {
    weighted(vec![
        (2, bools().map(|rich| Step::Launch { rich }).boxed()),
        (
            2,
            (usizes(), ranges(1u32..3))
                .map(|(idx, nr)| Step::Clone { idx, nr })
                .boxed(),
        ),
        (
            1,
            (usizes(), ranges(1u32..3))
                .map(|(idx, nr)| Step::Fork { idx, nr })
                .boxed(),
        ),
        (2, usizes().map(|idx| Step::Destroy { idx }).boxed()),
        (
            1,
            (usizes(), usizes())
                .map(|(idx, name)| Step::Rename { idx, name })
                .boxed(),
        ),
    ])
}

/// Live domains that may be cloned: every live domain without a vif.
fn vifless(p: &Platform) -> Vec<DomId> {
    p.hv.domains()
        .filter(|d| !d.id.is_dom0() && p.dm.vif(d.id, 0).is_none())
        .map(|d| d.id)
        .collect()
}

/// Drives the platform through a random tape of launches, clones, forks,
/// renames and destroys (any domain, parents included, so domids are
/// reused and COW refcounts fall; renames draw from the launch names, so
/// names are shared and moved), and returns it with its launch counter.
fn reachable_platform(g: &mut Source) -> (Platform, usize) {
    let mut p = platform();
    let mut launched = 0;
    for step in g.draw(&vecs(steps(), 0..12)) {
        let live: Vec<DomId> =
            p.hv.domains()
                .map(|d| d.id)
                .filter(|d| !d.is_dom0())
                .collect();
        let templates = vifless(&p);
        match step {
            Step::Launch { rich } if live.len() < 12 => {
                p.launch(
                    &config(launched, rich),
                    &KernelImage::minios("inv"),
                    Box::new(Idle),
                )
                .expect("launch");
                launched += 1;
            }
            Step::Clone { idx, nr } if !templates.is_empty() && live.len() < 12 => {
                p.clone_domain(templates[idx % templates.len()], nr)
                    .expect("clone");
            }
            Step::Fork { idx, nr } if !templates.is_empty() && live.len() < 12 => {
                let d = templates[idx % templates.len()];
                if p.has_guest(d) {
                    p.guest_fork(d, nr).expect("fork");
                }
            }
            Step::Destroy { idx } if !live.is_empty() => {
                p.destroy(live[idx % live.len()]).expect("destroy");
            }
            Step::Rename { idx, name } if !live.is_empty() => {
                let d = live[idx % live.len()];
                p.xl.rename(&mut p.xs, d, &format!("d{}", name % 3))
                    .expect("rename");
            }
            _ => {}
        }
    }
    assert!(p.audit().is_clean(), "reachable platform: {}", p.audit());
    (p, launched)
}

/// A vif-less domain with a guest slot to clone or fork, launching one
/// when the reachable platform has none.
fn template(p: &mut Platform, g: &mut Source, launched: usize) -> DomId {
    let candidates: Vec<DomId> = vifless(p).into_iter().filter(|d| p.has_guest(*d)).collect();
    if candidates.is_empty() {
        return p
            .launch(
                &config(launched, false),
                &KernelImage::minios("inv"),
                Box::new(Idle),
            )
            .expect("launch template");
    }
    candidates[g.draw(&usizes()) % candidates.len()]
}

#[test]
fn launch_then_destroy_restores_the_platform() {
    check(24, |g| {
        let (mut p, launched) = reachable_platform(g);
        let rich = g.draw(&bools());
        let before = PlatformState::capture(&p);
        let d = p
            .launch(
                &config(launched, rich),
                &KernelImage::minios("inv"),
                Box::new(Idle),
            )
            .expect("launch");
        p.destroy(d).expect("destroy");
        assert_restored(
            &p,
            &before,
            &format!("launch (rich: {rich}) then destroy of {d}"),
        );
    });
}

#[test]
fn clone_then_destroying_the_children_restores_the_platform() {
    check(24, |g| {
        let (mut p, launched) = reachable_platform(g);
        let parent = template(&mut p, g, launched);
        let nr = g.draw(&ranges(1u32..5));
        let before = PlatformState::capture(&p);
        let children = p.clone_domain(parent, nr).expect("clone");
        assert_eq!(children.len(), nr as usize);
        for c in &children {
            p.destroy(*c).expect("destroy child");
        }
        assert_restored(
            &p,
            &before,
            &format!("clone_domain({parent}, {nr}) then destroy {children:?}"),
        );
    });
}

#[test]
fn fork_then_destroying_the_children_restores_the_platform() {
    check(24, |g| {
        let (mut p, launched) = reachable_platform(g);
        let parent = template(&mut p, g, launched);
        let nr = g.draw(&ranges(1u32..5));
        let before = PlatformState::capture(&p);
        let children = p.guest_fork(parent, nr).expect("fork");
        assert_eq!(children.len(), nr as usize);
        for c in &children {
            p.destroy(*c).expect("destroy child");
        }
        assert_restored(
            &p,
            &before,
            &format!("guest_fork({parent}, {nr}) then destroy {children:?}"),
        );
    });
}

#[test]
fn rename_then_destroy_restores_the_platform() {
    let mut p = platform();
    let before = PlatformState::capture(&p);
    let d = p
        .launch(
            &config(0, true),
            &KernelImage::minios("inv"),
            Box::new(Idle),
        )
        .expect("launch");
    p.xl.rename(&mut p.xs, d, "renamed").expect("rename");
    assert_eq!(
        p.xs.peek(&format!("/local/domain/{}/vm", d.0)).as_deref(),
        Some("/vm/renamed")
    );
    assert!(p.xs.exists("/vm/renamed/uuid") && !p.xs.exists("/vm/d0"));
    p.destroy(d).expect("destroy");
    assert_restored(&p, &before, "launch, rename and destroy");
}

#[test]
fn destroying_dom0_is_refused_before_any_teardown() {
    let mut p = platform();
    p.launch(
        &config(0, true),
        &KernelImage::minios("inv"),
        Box::new(Idle),
    )
    .expect("launch");
    let before = PlatformState::capture(&p);
    assert!(p.destroy(DomId::DOM0).is_err());
    assert_restored(&p, &before, "destroy(DOM0)");
}
