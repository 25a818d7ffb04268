//! Inter-domain communication end-to-end: pipes and socket pairs created
//! before `fork()` keep working across the clone family (§5.2.2).

use std::net::Ipv4Addr;

use nephele::guest::{ForkOutcome, GuestApp, GuestEnv, IdcPipe, IdcSocketPair};
use nephele::hypervisor::memory::FrameOwner;
use nephele::sim_core::{DomId, Pfn};
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{Platform, PlatformConfig};

fn cfg(name: &str) -> DomainConfig {
    DomainConfig::builder(name)
        .memory_mib(8)
        .vif(Ipv4Addr::new(10, 0, 0, 2))
        .max_clones(16)
        .build()
}

#[test]
fn pipe_spans_the_whole_family() {
    let mut p = Platform::new(PlatformConfig::small());
    let parent = p.launch_plain(&cfg("idc"), &KernelImage::unikraft("idc")).unwrap();
    let pipe = IdcPipe::create(&mut p.hv, parent, Pfn(500)).unwrap();

    // Data written before the fork is readable by a clone created after.
    pipe.write(&mut p.hv, parent, b"inheritance").unwrap();
    let kids = p.clone_domain(parent, 2).unwrap();
    assert_eq!(pipe.read(&mut p.hv, kids[0], 64).unwrap(), b"inheritance");

    // The pipe page is writable-shared: dom_cow-owned, never COW-copied.
    let mfn = p.hv.domain(parent).unwrap().lookup(Pfn(500)).unwrap();
    let frame = p.hv.frames().inspect(mfn).unwrap();
    assert_eq!(frame.owner(), FrameOwner::Cow);
    assert!(frame.writable(), "IDC pages stay writable");
    assert_eq!(frame.refcount(), 3);
    for k in &kids {
        assert_eq!(p.hv.domain(*k).unwrap().lookup(Pfn(500)).unwrap(), mfn);
    }

    // Grandchild inherits access too (clone of a clone).
    let grandchild = p.clone_domain(kids[0], 1).unwrap()[0];
    pipe.write(&mut p.hv, parent, b"to-gc").unwrap();
    assert_eq!(pipe.read(&mut p.hv, grandchild, 16).unwrap(), b"to-gc");
}

#[test]
fn socketpair_request_response_between_parent_and_clone() {
    let mut p = Platform::new(PlatformConfig::small());
    let parent = p.launch_plain(&cfg("sp"), &KernelImage::unikraft("sp")).unwrap();
    let sp = IdcSocketPair::create(&mut p.hv, parent, Pfn(600), Pfn(601)).unwrap();
    let child = p.clone_domain(parent, 1).unwrap()[0];

    // Request/response exchange, several rounds.
    for i in 0..10 {
        let req = format!("job-{i}");
        sp.parent_send(&mut p.hv, parent, req.as_bytes()).unwrap();
        let got = sp.child_recv(&mut p.hv, child, 64).unwrap();
        assert_eq!(got, req.as_bytes());
        let resp = format!("done-{i}");
        sp.child_send(&mut p.hv, child, resp.as_bytes()).unwrap();
        assert_eq!(sp.parent_recv(&mut p.hv, parent, 64).unwrap(), resp.as_bytes());
    }
}

/// A guest app that uses an IDC pipe like a work queue: the parent
/// enqueues, the clones drain on notification.
#[derive(Clone)]
struct PipeWorker {
    pipe: Option<IdcPipe>,
    received: Vec<u8>,
    is_child: bool,
}

impl GuestApp for PipeWorker {
    fn boxed_clone(&self) -> Box<dyn GuestApp> {
        Box::new(self.clone())
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn on_boot(&mut self, env: &mut GuestEnv) {
        let pipe = IdcPipe::create(env.hv, env.dom, Pfn(700)).expect("pipe");
        self.pipe = Some(pipe);
        env.fork(1);
    }
    fn on_fork(&mut self, env: &mut GuestEnv, outcome: ForkOutcome) {
        match outcome {
            ForkOutcome::Parent { .. } => {
                let pipe = self.pipe.expect("created at boot");
                pipe.write(env.hv, env.dom, b"work-item").unwrap();
            }
            ForkOutcome::Child { .. } => {
                self.is_child = true;
            }
        }
    }
    fn on_idc_event(&mut self, env: &mut GuestEnv, _port: u32) {
        if self.is_child {
            let pipe = self.pipe.expect("inherited from parent");
            let data = pipe.read(env.hv, env.dom, 64).unwrap();
            self.received.extend_from_slice(&data);
        }
    }
}

#[test]
fn idc_notifications_drive_guest_callbacks() {
    let mut p = Platform::new(PlatformConfig::small());
    let parent = p
        .launch(
            &cfg("worker"),
            &KernelImage::unikraft("worker"),
            Box::new(PipeWorker {
                pipe: None,
                received: Vec::new(),
                is_child: false,
            }),
        )
        .unwrap();
    let child =
        p.hv.domains()
            .find(|d| d.parent == Some(parent))
            .expect("the fork created a child")
            .id;

    // The parent's post-fork write raised the IDC event channel; the
    // child's on_idc_event drained the pipe.
    let received = p
        .with_app::<PipeWorker, Vec<u8>>(child, |app, _| app.received.clone())
        .unwrap();
    assert_eq!(received, b"work-item");
}

#[test]
fn destroyed_family_releases_idc_pages() {
    let mut p = Platform::new(PlatformConfig::small());
    let baseline = p.snapshot().hyp_free_bytes;
    let parent = p.launch_plain(&cfg("teardown"), &KernelImage::unikraft("t")).unwrap();
    let pipe = IdcPipe::create(&mut p.hv, parent, Pfn(500)).unwrap();
    let kids = p.clone_domain(parent, 2).unwrap();
    pipe.write(&mut p.hv, parent, b"x").unwrap();

    for k in kids {
        p.destroy(k).unwrap();
    }
    p.destroy(parent).unwrap();
    assert_eq!(p.snapshot().hyp_free_bytes, baseline, "IDC pages must be reclaimed");
}

#[test]
fn stranger_cannot_touch_family_pipe() {
    let mut p = Platform::new(PlatformConfig::small());
    let parent = p.launch_plain(&cfg("fam"), &KernelImage::unikraft("f")).unwrap();
    let pipe = IdcPipe::create(&mut p.hv, parent, Pfn(500)).unwrap();
    p.clone_domain(parent, 1).unwrap();

    let stranger_cfg = DomainConfig::builder("stranger")
        .memory_mib(4)
        .vif(Ipv4Addr::new(10, 0, 0, 99))
        .build();
    let stranger = p
        .launch_plain(&stranger_cfg, &KernelImage::minios("s"))
        .unwrap();
    assert!(pipe.write(&mut p.hv, stranger, b"evil").is_err());
    assert!(pipe.read(&mut p.hv, stranger, 1).is_err());
    let _ = DomId::DOM0;
}
