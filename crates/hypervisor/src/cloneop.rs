//! The `CLONEOP` hypercall: Nephele's single hypervisor interface extension.
//!
//! Following the paper's design goal of keeping new interfaces to a minimum
//! (§5.1), every cloning-related operation is a subcommand of one hypercall:
//!
//! * [`CloneOp::Clone`] — run the first stage for one or more clones. Called
//!   by a guest to clone itself (the `fork()` path) or by Dom0 with an
//!   explicit target (the VM-fuzzing path).
//! * [`CloneOp::Completion`] — `xencloned` signals that the second stage of
//!   a child finished; the parent resumes once all its pending children
//!   completed.
//! * [`CloneOp::SetGlobalEnabled`] — global cloning switch, owned by
//!   `xencloned`.
//! * [`CloneOp::CloneCow`] — explicitly trigger COW for chosen pages so KFX
//!   can insert breakpoints into a clone's code pages (§7.2).
//! * [`CloneOp::Checkpoint`] / [`CloneOp::CloneReset`] — snapshot and
//!   restore a clone's memory and vCPU state between fuzzing iterations
//!   (§7.2; the reset cost scales with the number of dirty pages).

use sim_core::{DomId, Mfn, Pfn};

use crate::domain::{Checkpoint, Domain, DomainState, PrivatePolicy};
use crate::error::{HvError, Result};
use crate::event::Channel;
use crate::memory::{CowResolution, FrameOwner};
use crate::notify::CloneNotification;
use crate::vcpu::Vcpu;
use crate::Hypervisor;

/// Subcommands of the `CLONEOP` hypercall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CloneOp {
    /// First-stage cloning of `target` (or of the caller when `None`),
    /// creating `nr_clones` children.
    Clone {
        /// Domain to clone; `None` means the calling guest clones itself.
        /// Only Dom0 may name an explicit target (e.g. for VM fuzzing).
        target: Option<DomId>,
        /// Number of children to create in this call.
        nr_clones: u32,
    },
    /// Second-stage completion notification for `child` (Dom0 only).
    Completion {
        /// The child whose I/O cloning finished.
        child: DomId,
    },
    /// Enable or disable cloning globally (Dom0 only).
    SetGlobalEnabled(bool),
    /// Explicitly break COW for the given pages of a clone so breakpoints
    /// can be written (Dom0 only).
    CloneCow {
        /// The clone to operate on.
        dom: DomId,
        /// Guest frames to privatize.
        pfns: Vec<Pfn>,
    },
    /// Record the clone's current memory/vCPU state as the reset target
    /// (Dom0 only).
    Checkpoint {
        /// The clone to checkpoint.
        dom: DomId,
    },
    /// Restore the clone to its checkpoint (Dom0 only).
    CloneReset {
        /// The clone to reset.
        dom: DomId,
    },
}

/// Result of a `CLONEOP` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CloneOpResult {
    /// Domain ids of the created children, in creation order (the array the
    /// parent passed to the hypercall, §5.1).
    Cloned(Vec<DomId>),
    /// Pages restored by a [`CloneOp::CloneReset`].
    Reset {
        /// Dirty pages that had to be restored.
        dirty_pages: u64,
    },
    /// The subcommand completed with nothing to report.
    Done,
}

/// Static span-attribute name of a subcommand.
fn op_name(op: &CloneOp) -> &'static str {
    match op {
        CloneOp::Clone { .. } => "clone",
        CloneOp::Completion { .. } => "completion",
        CloneOp::SetGlobalEnabled(_) => "set_global_enabled",
        CloneOp::CloneCow { .. } => "clone_cow",
        CloneOp::Checkpoint { .. } => "checkpoint",
        CloneOp::CloneReset { .. } => "clone_reset",
    }
}

impl Hypervisor {
    /// Dispatches a `CLONEOP` hypercall issued by `caller`.
    ///
    /// On top of the dispatch itself this is the instrumentation boundary
    /// for the whole first stage: successful [`CloneOp::Clone`] calls feed
    /// the `clone.stage1` latency histogram, and *any* failed subcommand
    /// bumps the `clone.fail` counter (previously only successes were
    /// counted anywhere on the clone path).
    pub fn cloneop(&mut self, caller: DomId, op: CloneOp) -> Result<CloneOpResult> {
        let is_clone = matches!(op, CloneOp::Clone { .. });
        let start = self.clock().now();
        let result = self.cloneop_inner(caller, op);
        match &result {
            Ok(_) if is_clone => {
                let elapsed = self.clock().now().since(start).as_ns();
                self.trace().record_ns("clone.stage1", elapsed);
            }
            Ok(_) => {}
            Err(_) => self.trace().count("clone.fail", 1),
        }
        result
    }

    fn cloneop_inner(&mut self, caller: DomId, op: CloneOp) -> Result<CloneOpResult> {
        let span = self.trace().span("hv.cloneop");
        span.attr("caller", caller.0);
        span.attr("op", op_name(&op));
        self.clock().advance(self.costs().hypercall_base);
        match op {
            CloneOp::Clone { target, nr_clones } => {
                let parent = match target {
                    None => {
                        if caller.is_dom0() {
                            return Err(HvError::InvalidArg("dom0 cannot clone itself"));
                        }
                        caller
                    }
                    Some(t) => {
                        if !caller.is_dom0() {
                            return Err(HvError::Denied);
                        }
                        t
                    }
                };
                if nr_clones == 0 {
                    return Err(HvError::InvalidArg("nr_clones == 0"));
                }
                self.clone_domains(parent, nr_clones).map(CloneOpResult::Cloned)
            }
            CloneOp::Completion { child } => {
                if !caller.is_dom0() {
                    return Err(HvError::Denied);
                }
                self.clone_completion(child)?;
                Ok(CloneOpResult::Done)
            }
            CloneOp::SetGlobalEnabled(on) => {
                if !caller.is_dom0() {
                    return Err(HvError::Denied);
                }
                self.set_cloning_enabled(on);
                Ok(CloneOpResult::Done)
            }
            CloneOp::CloneCow { dom, pfns } => {
                if !caller.is_dom0() {
                    return Err(HvError::Denied);
                }
                self.clone_cow(dom, &pfns)?;
                Ok(CloneOpResult::Done)
            }
            CloneOp::Checkpoint { dom } => {
                if !caller.is_dom0() {
                    return Err(HvError::Denied);
                }
                self.clone_checkpoint(dom)?;
                Ok(CloneOpResult::Done)
            }
            CloneOp::CloneReset { dom } => {
                if !caller.is_dom0() {
                    return Err(HvError::Denied);
                }
                let dirty = self.clone_reset(dom)?;
                Ok(CloneOpResult::Reset { dirty_pages: dirty })
            }
        }
    }

    fn clone_domains(&mut self, parent: DomId, nr: u32) -> Result<Vec<DomId>> {
        if !self.cloning_enabled() {
            return Err(HvError::CloningDisabled(parent));
        }
        {
            let p = self.domain(parent)?;
            if !p.clone_policy.enabled {
                return Err(HvError::CloningDisabled(parent));
            }
            // `checked_add`: an oversized `nr` must not wrap past the limit.
            if p.clones_created
                .checked_add(nr)
                .is_none_or(|total| total > p.clone_policy.max_clones)
            {
                return Err(HvError::CloneLimit(parent));
            }
        }
        let children = self.clone_batch(parent, nr)?;
        // The hypercall returns 0 in the parent's rax, 1 in each child's.
        if let Some(v) = self.domain_mut(parent)?.vcpus.get_mut(0) {
            v.regs.rax = 0;
        }
        Ok(children)
    }

    /// Runs the complete first stage for `nr` children of `parent` in one
    /// batch (§4.1, §5.2): the parent is snapshotted **once**, every mapped
    /// pfn is classified in a **single** walk, shared pages get one
    /// refcount transition covering all children, and each child's p2m is
    /// stamped from the shared template with only the private slots
    /// patched. Host complexity drops from O(N·M) for the naive per-child
    /// loop to O(M + N·P) (M mapped pages, P private pages), while
    /// virtual-time charges, frame placement, domain ids and names are
    /// bit-identical to N sequential single clones.
    ///
    /// The call is atomic: ring capacity and the frame budget for all
    /// children are validated before the first mutation, so a failing
    /// batch leaves the parent, the frame table and the ring untouched.
    fn clone_batch(&mut self, parent_id: DomId, nr: u32) -> Result<Vec<DomId>> {
        let span = self.trace().span("clone.batch");
        span.attr("parent", parent_id.0);
        span.attr("nr", nr);

        // ---- Validation phase: nothing below this comment may mutate
        // hypervisor state until every check has passed. ----

        // Backpressure: the ring must have room for the whole batch up
        // front (§5) — a mid-batch full ring would strand earlier children
        // with the parent paused.
        if self.clone_ring().free_slots() < nr as usize {
            return Err(HvError::NotificationRingFull);
        }

        // Snapshot the parent state all children are built from — once.
        let (p2m, private_pfns, idc_pfns, vcpus, grants, evtchn, parent_meta) = {
            let p = self.domain(parent_id)?;
            if p.state == DomainState::Dying {
                return Err(HvError::BadDomainState(parent_id));
            }
            (
                p.p2m.clone(),
                p.private_pfns.clone(),
                p.idc_pfns.clone(),
                p.vcpus.clone(),
                p.grants.clone(),
                p.evtchn.clone(),
                (
                    p.name.clone(),
                    p.clones_created,
                    p.start_info_pfn,
                    p.xenstore_pfn,
                    p.console_pfn,
                    p.clone_policy,
                ),
            )
        };
        let (parent_name, clone_seq, start_info_pfn, xenstore_pfn, console_pfn, policy) =
            parent_meta;

        /// How a shared (non-private) mapped page joins the batch.
        enum SharedKind {
            /// Owned by the parent: one ownership transfer to `dom_cow`
            /// covering every child (IDC pages stay writable-shared).
            First { idc: bool },
            /// Already COW — the parent is itself a clone, or the same
            /// frame appeared at an earlier pfn of this walk: refcount
            /// bump only.
            Bump,
        }

        // Single classification walk over the p2m. `first_shared` tracks
        // frames this walk will move to dom_cow, so a frame mapped at two
        // pfns is first-shared once and bumped at its second slot —
        // exactly what N sequential walks would produce.
        let mut private_slots: Vec<(usize, PrivatePolicy, Mfn)> = Vec::new();
        let mut shared_slots: Vec<(Mfn, SharedKind)> = Vec::new();
        let mut first_shared = std::collections::HashSet::new();
        for (i, slot) in p2m.iter().enumerate() {
            let Some(mfn) = slot else { continue };
            let pfn = Pfn(i as u64);
            if let Some(policy) = private_pfns.get(&pfn) {
                private_slots.push((i, *policy, mfn));
                continue;
            }
            match self.frames().inspect(mfn)?.owner() {
                FrameOwner::Dom(d) if d == parent_id => {
                    if first_shared.insert(mfn.0) {
                        let idc = idc_pfns.contains(&pfn);
                        shared_slots.push((mfn, SharedKind::First { idc }));
                    } else {
                        shared_slots.push((mfn, SharedKind::Bump));
                    }
                }
                FrameOwner::Cow => shared_slots.push((mfn, SharedKind::Bump)),
                _ => return Err(HvError::BadOwner(mfn)),
            }
        }

        let mapped = (private_slots.len() + shared_slots.len()) as u64;
        let private_count = private_slots.len() as u64;
        let aux_count =
            Domain::pt_frames_needed(p2m.len() as u64) + Domain::p2m_frames_needed(p2m.len() as u64);
        let per_child = private_count + aux_count;
        span.attr("mapped", mapped);
        span.attr("private", private_count);

        // Frame budget for the whole batch, before the first allocation.
        if self.frames().free_frames() < per_child.saturating_mul(nr as u64) {
            return Err(HvError::OutOfMemory);
        }

        // ---- Apply phase: infallible from here on. ----

        let costs = self.costs().clone();
        self.clock()
            .advance(costs.clone_stage1_base.saturating_mul(nr as u64));

        // Cloning invalidates an armed KFX checkpoint: the private pages
        // its journals describe (and the post-fault copies the dirty_cow
        // entries would free) are about to become COW-shared with the
        // children, so the checkpoint no longer names restorable private
        // state. Disarm it, releasing the journal's keep-alive
        // references.
        if let Some(cp) = self.domain_mut(parent_id).expect("validated above").checkpoint.take()
        {
            self.release_checkpoint_refs(&cp)
                .expect("journal references are live by construction");
        }

        // Domain ids in the order the sequential path would allocate them.
        let child_ids: Vec<DomId> = (0..nr).map(|_| DomId(self.alloc_domid())).collect();

        // One bulk allocation covering every child's private + auxiliary
        // frames, sliced per child in sequential order so frame placement
        // is identical to N single clones.
        let requests: Vec<(FrameOwner, u64)> = child_ids
            .iter()
            .map(|c| (FrameOwner::Dom(*c), per_child))
            .collect();
        let per_child_frames = self
            .frames_mut()
            .alloc_batch(&requests)
            .expect("frame budget pre-validated");

        // Shared pages: one refcount transition per frame for the whole
        // batch, charging exactly what N sequential walks would charge.
        {
            let cspan = self.trace().span("clone.cow_convert");
            cspan.attr("pages", shared_slots.len());
            cspan.attr("nr", nr);
            let n = nr as u64;
            for (mfn, kind) in &shared_slots {
                match kind {
                    SharedKind::First { idc } => {
                        self.frames_mut()
                            .share_to_cow(*mfn, parent_id, nr.saturating_add(1), *idc)
                            .expect("classified as parent-owned");
                        self.clock().advance(costs.clone_share_per_page);
                        self.clock()
                            .advance(costs.clone_reshare_per_page.saturating_mul(n - 1));
                    }
                    SharedKind::Bump => {
                        self.frames_mut()
                            .reshare(*mfn, nr)
                            .expect("classified as COW");
                        self.clock()
                            .advance(costs.clone_reshare_per_page.saturating_mul(n));
                    }
                }
            }
        }

        // Parent-side DOMID_CHILD channels become child→parent channels at
        // the same port in every child; computed once from the snapshot.
        let mut idc_ports = Vec::new();
        for (port, ch) in evtchn.iter_active() {
            if let Channel::Interdomain { remote_dom, .. } = ch {
                if *remote_dom == DomId::CHILD {
                    idc_ports.push(port);
                }
            }
        }

        let parent_start_info = p2m.get(start_info_pfn.0 as usize).unwrap_or(Mfn(0));

        let mut children = Vec::with_capacity(nr as usize);
        let mut notifications = Vec::with_capacity(nr as usize);
        for (k, (&child_id, mut fresh)) in child_ids.iter().zip(per_child_frames).enumerate() {
            let child_span = self.trace().span("clone.child");
            child_span.attr("child", child_id.0);
            let aux_frames: Vec<Mfn> = fresh.split_off(private_count as usize);

            // vCPUs: registers and affinity replicated; rax = 1 in the child.
            let child_vcpus: Vec<Vcpu> = {
                let vspan = self.trace().span("clone.vcpu_copy");
                vspan.attr("vcpus", vcpus.len());
                self.clock()
                    .advance(costs.vcpu_init.saturating_mul(vcpus.len() as u64));
                vcpus.iter().map(Vcpu::clone_for_child).collect()
            };

            let mut patches: Vec<(u64, Option<Mfn>)> = Vec::with_capacity(private_slots.len());
            let mut remaps: Vec<(Mfn, Mfn)> = Vec::with_capacity(private_slots.len());
            let mut child_start_info = Mfn(0);
            {
                let pspan = self.trace().span("clone.private_pages");
                pspan.attr("pages", private_count);
                for (&(i, policy, mfn), &new) in private_slots.iter().zip(&fresh) {
                    match policy {
                        PrivatePolicy::Copy => {
                            self.frames_mut()
                                .copy_page(mfn, new)
                                .expect("snapshot frames exist");
                        }
                        PrivatePolicy::Fresh => {}
                        PrivatePolicy::Rewrite => {
                            self.frames_mut()
                                .copy_page(mfn, new)
                                .expect("snapshot frames exist");
                            // Rewrite the embedded domain id reference.
                            self.frames_mut()
                                .write(new, 0, &child_id.0.to_le_bytes())
                                .expect("freshly allocated frame is writable");
                        }
                    }
                    patches.push((i as u64, Some(new)));
                    remaps.push((mfn, new));
                    if i as u64 == start_info_pfn.0 {
                        child_start_info = new;
                    }
                }
                self.clock()
                    .advance(costs.clone_private_page.saturating_mul(private_count));
            }

            // The child p2m is an `Rc` handle on the family template —
            // every shared slot already points at the (now COW) parent
            // frame through the shared base — plus a thin overlay
            // patching only the P private slots.
            let child_p2m = p2m.child_with_patches(patches);

            // Rebuild the child page table from the p2m (§5.2: "p2m ... is
            // used and updated on cloning when building the child page
            // table").
            {
                let tspan = self.trace().span("clone.pt_rebuild");
                tspan.attr("mapped", mapped);
                self.clock()
                    .advance(costs.clone_pt_build_per_page.saturating_mul(mapped));
                self.clock().advance(
                    costs
                        .clone_private_page
                        .saturating_mul(Domain::p2m_frames_needed(p2m.len() as u64)),
                );
            }

            // Grant table: replicate, re-pointing grants of private frames.
            let mut child_grants = grants.clone_for_child();
            for (old, new) in &remaps {
                child_grants.rewrite_frame(*old, *new);
            }

            // Event channels: replicate, then rewrite the IDC ports so the
            // fan-out map reaches this child.
            let mut child_evtchn = evtchn.clone_for_child();
            for &port in &idc_ports {
                child_evtchn
                    .replace(
                        port,
                        Channel::Interdomain {
                            remote_dom: parent_id,
                            remote_port: port,
                        },
                    )
                    .expect("IDC port exists in the replicated table");
            }

            let child = Domain {
                id: child_id,
                name: format!("{parent_name}-clone{}", clone_seq + 1 + k as u32),
                parent: Some(parent_id),
                state: DomainState::PausedAfterClone,
                vcpus: child_vcpus,
                p2m: child_p2m,
                aux_frames,
                private_pfns: private_pfns.clone(),
                idc_pfns: idc_pfns.clone(),
                start_info_pfn,
                xenstore_pfn,
                console_pfn,
                clone_policy: policy,
                clones_created: 0,
                children: Vec::new(),
                pending_stage2: 0,
                grants: child_grants,
                evtchn: child_evtchn,
                checkpoint: None,
            };
            self.insert_domain(child);
            for &port in &idc_ports {
                self.bind_child_channel(parent_id, port, child_id, port);
            }
            notifications.push(CloneNotification {
                parent: parent_id,
                child: child_id,
                parent_start_info,
                child_start_info,
            });
            children.push(child_id);
        }

        // Parent bookkeeping: paused until every second stage completes.
        {
            let p = self.domain_mut(parent_id).expect("parent snapshotted above");
            p.children.extend_from_slice(&children);
            p.clones_created += nr;
            p.pending_stage2 += nr;
            p.state = DomainState::PausedForClone;
        }

        // Notify xencloned, one entry + VIRQ per child (steps 1.2 in
        // Fig. 1) — capacity was reserved up front.
        for n in notifications {
            self.clone_ring()
                .push(n)
                .expect("ring capacity pre-validated");
            self.raise_virq(DomId::DOM0, crate::event::Virq::Cloned);
        }
        Ok(children)
    }

    fn clone_completion(&mut self, child: DomId) -> Result<()> {
        let (parent_id, resume_child) = {
            let c = self.domain(child)?;
            (
                c.parent.ok_or(HvError::InvalidArg("not a clone"))?,
                c.clone_policy.resume_children,
            )
        };
        {
            let c = self.domain_mut(child)?;
            c.state = if resume_child {
                DomainState::Running
            } else {
                DomainState::Paused
            };
        }
        let p = self.domain_mut(parent_id)?;
        if p.pending_stage2 == 0 {
            return Err(HvError::BadDomainState(parent_id));
        }
        p.pending_stage2 -= 1;
        if p.pending_stage2 == 0 && p.state == DomainState::PausedForClone {
            p.state = DomainState::Running;
        }
        Ok(())
    }

    fn clone_cow(&mut self, dom: DomId, pfns: &[Pfn]) -> Result<()> {
        for pfn in pfns {
            let mfn = self
                .domain(dom)?
                .lookup(*pfn)
                .ok_or(HvError::NotMapped(dom, *pfn))?;
            if self.frames().inspect(mfn)?.owner() == FrameOwner::Cow {
                // Privatization dirties the page exactly like a write
                // fault, so an armed checkpoint must journal it too —
                // otherwise reset would leak the divergence. The
                // pre-fault writability matters for the transfer
                // journal: `clone_cow` may privatize writable-shared
                // (IDC) pages, which the write-fault path never sees.
                let was_writable = self.frames().inspect(mfn)?.writable();
                match self.frames_mut().cow_fault(mfn, dom)? {
                    CowResolution::Copied(copy) => {
                        self.clock().advance(self.costs().cow_fault_copy);
                        self.domain_mut(dom)?.p2m.set(pfn.0 as usize, Some(copy));
                        self.journal_cow_copy(dom, *pfn, mfn)?;
                    }
                    CowResolution::Transferred => {
                        self.clock().advance(self.costs().cow_fault_transfer);
                        self.journal_transfer_fault(dom, *pfn, mfn, was_writable)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn clone_checkpoint(&mut self, dom: DomId) -> Result<()> {
        // Re-checkpointing drops the previous checkpoint and the
        // keep-alive references its journal held.
        if let Some(old) = self.domain_mut(dom)?.checkpoint.take() {
            self.release_checkpoint_refs(&old)?;
        }
        // O(1) in the domain's memory: the p2m layout is captured as a
        // structural overlay snapshot and page contents are journaled
        // lazily on first dirty (see `Checkpoint`) — no walk over the
        // private pages, no content clones.
        let d = self.domain_mut(dom)?;
        let overlay = d.p2m.overlay_snapshot();
        let vcpus = d.vcpus.clone();
        d.checkpoint = Some(Checkpoint {
            dirty_cow: Default::default(),
            dirty_private: Default::default(),
            dirty_transfer: Default::default(),
            overlay,
            vcpus,
        });
        Ok(())
    }

    fn clone_reset(&mut self, dom: DomId) -> Result<u64> {
        let costs = self.costs().clone();
        self.clock().advance(costs.kfx_reset_base);
        let mut cp = self
            .domain_mut(dom)?
            .checkpoint
            .take()
            .ok_or(HvError::InvalidArg("no checkpoint"))?;

        let mut dirty = 0u64;
        // Re-point COW-faulted pages back at their shared originals. The
        // journal's keep-alive reference becomes the p2m's reference, so
        // no reshare is needed on the re-point.
        let dirty_cow = std::mem::take(&mut cp.dirty_cow);
        for (pfn, orig) in dirty_cow {
            let cur = self
                .domain(dom)?
                .lookup(pfn)
                .ok_or(HvError::NotMapped(dom, pfn))?;
            if cur != orig {
                self.frames_mut().free(cur, FrameOwner::Dom(dom))?;
                self.domain_mut(dom)?.p2m.set(pfn.0 as usize, Some(orig));
                self.clock().advance(costs.kfx_reset_per_page);
                dirty += 1;
            } else {
                // The slot already points at the shared frame: no
                // restore work is done, so no time is charged and the
                // page is not counted dirty — only the journal's
                // reference is returned.
                self.frames_mut().unshare_drop(orig)?;
            }
        }
        // Un-do last-sharer transfers: restore the pre-fault content and
        // hand the frame back to dom_cow as its original single-sharer
        // page.
        let dirty_transfer = std::mem::take(&mut cp.dirty_transfer);
        for (pfn, (content, writable)) in dirty_transfer {
            let mfn = self
                .domain(dom)?
                .lookup(pfn)
                .ok_or(HvError::NotMapped(dom, pfn))?;
            self.frames_mut().set_content(mfn, content)?;
            self.frames_mut().share_to_cow(mfn, dom, 1, writable)?;
            self.clock().advance(costs.kfx_reset_per_page);
            dirty += 1;
        }
        // Restore dirtied private pages from their journaled pre-images
        // (O(dirty): only pages the write path actually touched).
        let dirty_private = std::mem::take(&mut cp.dirty_private);
        for (pfn, saved) in dirty_private {
            let mfn = self
                .domain(dom)?
                .lookup(pfn)
                .ok_or(HvError::NotMapped(dom, pfn))?;
            if self.frames().inspect(mfn)?.content() != &saved {
                self.frames_mut().set_content(mfn, saved)?;
                self.clock().advance(costs.kfx_reset_per_page);
                dirty += 1;
            }
        }

        let d = self.domain_mut(dom)?;
        // With every divergence undone the overlay has shrunk back to
        // its checkpoint form; swap in the snapshot `Rc` so the storage
        // is shared again, not just equal. Non-journaled p2m changes
        // (e.g. a grant mapped mid-iteration) survive the reset, in
        // which case the re-armed checkpoint adopts the current layout.
        if *d.p2m.overlay_snapshot() == *cp.overlay {
            d.p2m.restore_overlay(cp.overlay.clone());
        } else {
            cp.overlay = d.p2m.overlay_snapshot();
        }
        // Restore vCPU state and re-arm for the next iteration.
        d.vcpus = cp.vcpus.clone();
        d.checkpoint = Some(cp);
        Ok(dirty)
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use sim_core::{Clock, CostModel};

    use super::*;
    use crate::domain::ClonePolicy;
    use crate::MachineConfig;

    fn hv() -> Hypervisor {
        let mut hv = Hypervisor::new(
            Clock::new(),
            Rc::new(CostModel::free()),
            &MachineConfig {
                guest_pool_mib: 256,
                cores: 4,
                notification_ring_capacity: 16,
            },
        );
        hv.set_cloning_enabled(true);
        hv
    }

    fn cloneable_guest(hv: &mut Hypervisor, max_clones: u32) -> DomId {
        let d = hv.create_domain("guest", 4, 1).unwrap();
        hv.set_clone_policy(
            d,
            ClonePolicy {
                enabled: true,
                max_clones,
                resume_children: true,
            },
        )
        .unwrap();
        hv.unpause(d).unwrap();
        d
    }

    fn do_clone(hv: &mut Hypervisor, parent: DomId, nr: u32) -> Vec<DomId> {
        match hv
            .cloneop(
                parent,
                CloneOp::Clone {
                    target: None,
                    nr_clones: nr,
                },
            )
            .unwrap()
        {
            CloneOpResult::Cloned(c) => c,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn basic_clone_creates_paused_child_and_pauses_parent() {
        let mut hv = hv();
        let p = cloneable_guest(&mut hv, 4);
        let children = do_clone(&mut hv, p, 1);
        assert_eq!(children.len(), 1);
        let c = children[0];
        assert_eq!(hv.domain(c).unwrap().state, DomainState::PausedAfterClone);
        assert_eq!(hv.domain(p).unwrap().state, DomainState::PausedForClone);
        assert_eq!(hv.domain(c).unwrap().parent, Some(p));
        // rax: 0 in parent, 1 in child.
        assert_eq!(hv.domain(p).unwrap().vcpus[0].regs.rax, 0);
        assert_eq!(hv.domain(c).unwrap().vcpus[0].regs.rax, 1);
        // A notification was queued and the VIRQ raised.
        assert_eq!(hv.clone_ring_len(), 1);
    }

    #[test]
    fn completion_resumes_parent_and_child() {
        let mut hv = hv();
        let p = cloneable_guest(&mut hv, 4);
        let c = do_clone(&mut hv, p, 1)[0];
        hv.cloneop(DomId::DOM0, CloneOp::Completion { child: c })
            .unwrap();
        assert_eq!(hv.domain(p).unwrap().state, DomainState::Running);
        assert_eq!(hv.domain(c).unwrap().state, DomainState::Running);
    }

    #[test]
    fn cloning_requires_global_and_domain_enable() {
        let mut hv = hv();
        hv.set_cloning_enabled(false);
        let p = cloneable_guest(&mut hv, 4);
        let r = hv.cloneop(
            p,
            CloneOp::Clone {
                target: None,
                nr_clones: 1,
            },
        );
        assert_eq!(r, Err(HvError::CloningDisabled(p)));

        hv.set_cloning_enabled(true);
        let q = hv.create_domain("other", 4, 1).unwrap();
        hv.unpause(q).unwrap();
        let r = hv.cloneop(
            q,
            CloneOp::Clone {
                target: None,
                nr_clones: 1,
            },
        );
        assert_eq!(r, Err(HvError::CloningDisabled(q)));
    }

    #[test]
    fn clone_limit_enforced() {
        let mut hv = hv();
        let p = cloneable_guest(&mut hv, 2);
        do_clone(&mut hv, p, 2);
        let r = hv.cloneop(
            p,
            CloneOp::Clone {
                target: None,
                nr_clones: 1,
            },
        );
        assert_eq!(r, Err(HvError::CloneLimit(p)));
    }

    #[test]
    fn clone_limit_check_does_not_overflow() {
        let mut hv = hv();
        let p = cloneable_guest(&mut hv, u32::MAX);
        do_clone(&mut hv, p, 1);
        let r = hv.cloneop(
            p,
            CloneOp::Clone {
                target: None,
                nr_clones: u32::MAX,
            },
        );
        assert_eq!(r, Err(HvError::CloneLimit(p)));
        assert_eq!(hv.domain(p).unwrap().clones_created, 1);
        assert_eq!(hv.clone_ring_len(), 1);
    }

    #[test]
    fn memory_is_shared_and_cow_diverges() {
        let mut hv = hv();
        let p = cloneable_guest(&mut hv, 4);
        hv.write_page(p, Pfn(7), 0, b"parent-data").unwrap();
        let c = do_clone(&mut hv, p, 1)[0];

        // Same machine frame backs both p2m entries.
        let pm = hv.domain(p).unwrap().lookup(Pfn(7)).unwrap();
        let cm = hv.domain(c).unwrap().lookup(Pfn(7)).unwrap();
        assert_eq!(pm, cm);
        assert_eq!(hv.frames().inspect(pm).unwrap().owner(), FrameOwner::Cow);
        assert_eq!(hv.frames().inspect(pm).unwrap().refcount(), 2);

        // Child reads the parent's data.
        let mut buf = [0u8; 11];
        hv.read_page(c, Pfn(7), 0, &mut buf).unwrap();
        assert_eq!(&buf, b"parent-data");

        // Child writes: COW copy; parent unaffected.
        hv.write_page(c, Pfn(7), 0, b"child-data!").unwrap();
        let cm2 = hv.domain(c).unwrap().lookup(Pfn(7)).unwrap();
        assert_ne!(cm2, pm);
        hv.read_page(p, Pfn(7), 0, &mut buf).unwrap();
        assert_eq!(&buf, b"parent-data");
        hv.read_page(c, Pfn(7), 0, &mut buf).unwrap();
        assert_eq!(&buf, b"child-data!");
    }

    #[test]
    fn private_pages_are_not_shared() {
        let mut hv = hv();
        let p = cloneable_guest(&mut hv, 4);
        let si = hv.domain(p).unwrap().start_info_pfn;
        let c = do_clone(&mut hv, p, 1)[0];
        let pm = hv.domain(p).unwrap().lookup(si).unwrap();
        let cm = hv.domain(c).unwrap().lookup(si).unwrap();
        assert_ne!(pm, cm, "start_info must be duplicated");
        // The child's start_info embeds the child's domain id (rewrite).
        let mut buf = [0u8; 4];
        hv.read_page(c, si, 0, &mut buf).unwrap();
        assert_eq!(u32::from_le_bytes(buf), c.0);
    }

    #[test]
    fn second_clone_is_cheaper_than_first() {
        let clock = Clock::new();
        let mut hv = Hypervisor::new(
            clock.clone(),
            Rc::new(CostModel::calibrated()),
            &MachineConfig {
                guest_pool_mib: 256,
                cores: 4,
                notification_ring_capacity: 16,
            },
        );
        hv.set_cloning_enabled(true);
        let p = cloneable_guest(&mut hv, 4);

        let (c1, first) = {
            let t0 = clock.now();
            let c = do_clone(&mut hv, p, 1)[0];
            (c, clock.now().since(t0))
        };
        hv.cloneop(DomId::DOM0, CloneOp::Completion { child: c1 })
            .unwrap();
        let (c2, second) = {
            let t0 = clock.now();
            let c = do_clone(&mut hv, p, 1)[0];
            (c, clock.now().since(t0))
        };
        let _ = c2;
        assert!(
            second < first,
            "resharing ({second}) should be cheaper than first sharing ({first})"
        );
    }

    #[test]
    fn nested_clone_family() {
        let mut hv = hv();
        let p = cloneable_guest(&mut hv, 4);
        let c = do_clone(&mut hv, p, 1)[0];
        hv.cloneop(DomId::DOM0, CloneOp::Completion { child: c })
            .unwrap();
        // The grandchild is created by cloning the child.
        let g = do_clone(&mut hv, c, 1)[0];
        assert!(hv.is_descendant(g, p));
        assert!(hv.is_descendant(g, c));
        assert!(hv.same_family(g, p));
        let unrelated = hv.create_domain("other", 4, 1).unwrap();
        assert!(!hv.same_family(g, unrelated));
    }

    #[test]
    fn destroy_clone_returns_private_memory_only() {
        let mut hv = hv();
        let p = cloneable_guest(&mut hv, 4);
        let before_clone = hv.free_pages();
        let c = do_clone(&mut hv, p, 1)[0];
        let after_clone = hv.free_pages();
        let clone_cost = before_clone - after_clone;
        // A clone of a 4 MiB guest must consume far fewer than 1027 frames.
        assert!(clone_cost < 100, "clone consumed {clone_cost} frames");
        hv.destroy_domain(c).unwrap();
        assert_eq!(hv.free_pages(), before_clone);
    }

    #[test]
    fn dom0_can_clone_explicit_target_but_guests_cannot() {
        let mut hv = hv();
        let p = cloneable_guest(&mut hv, 4);
        let other = cloneable_guest(&mut hv, 4);
        assert_eq!(
            hv.cloneop(
                other,
                CloneOp::Clone {
                    target: Some(p),
                    nr_clones: 1
                }
            ),
            Err(HvError::Denied)
        );
        let r = hv
            .cloneop(
                DomId::DOM0,
                CloneOp::Clone {
                    target: Some(p),
                    nr_clones: 1,
                },
            )
            .unwrap();
        assert!(matches!(r, CloneOpResult::Cloned(v) if v.len() == 1));
    }

    #[test]
    fn checkpoint_and_reset_restore_memory_and_vcpus() {
        let mut hv = hv();
        let p = cloneable_guest(&mut hv, 4);
        hv.write_page(p, Pfn(3), 0, b"base").unwrap();
        let c = do_clone(&mut hv, p, 1)[0];
        hv.cloneop(DomId::DOM0, CloneOp::Completion { child: c })
            .unwrap();

        hv.cloneop(DomId::DOM0, CloneOp::Checkpoint { dom: c }).unwrap();
        // Dirty a shared page and a vCPU register.
        hv.write_page(c, Pfn(3), 0, b"drty").unwrap();
        hv.domain_mut(c).unwrap().vcpus[0].regs.rip = 0x1234;

        let r = hv
            .cloneop(DomId::DOM0, CloneOp::CloneReset { dom: c })
            .unwrap();
        assert!(matches!(r, CloneOpResult::Reset { dirty_pages } if dirty_pages >= 1));

        let mut buf = [0u8; 4];
        hv.read_page(c, Pfn(3), 0, &mut buf).unwrap();
        assert_eq!(&buf, b"base");
        assert_eq!(hv.domain(c).unwrap().vcpus[0].regs.rip, 0);

        // Reset is repeatable.
        hv.write_page(c, Pfn(3), 0, b"drt2").unwrap();
        hv.cloneop(DomId::DOM0, CloneOp::CloneReset { dom: c })
            .unwrap();
        hv.read_page(c, Pfn(3), 0, &mut buf).unwrap();
        assert_eq!(&buf, b"base");
    }

    #[test]
    fn clone_cow_privatizes_pages_for_breakpoints() {
        let mut hv = hv();
        let p = cloneable_guest(&mut hv, 4);
        let c = do_clone(&mut hv, p, 1)[0];
        let shared = hv.domain(c).unwrap().lookup(Pfn(1)).unwrap();
        hv.cloneop(
            DomId::DOM0,
            CloneOp::CloneCow {
                dom: c,
                pfns: vec![Pfn(1)],
            },
        )
        .unwrap();
        let private = hv.domain(c).unwrap().lookup(Pfn(1)).unwrap();
        assert_ne!(shared, private);
        assert_eq!(
            hv.frames().inspect(private).unwrap().owner(),
            FrameOwner::Dom(c)
        );
    }

    #[test]
    fn multi_clone_in_one_call() {
        let mut hv = hv();
        let p = cloneable_guest(&mut hv, 8);
        let kids = do_clone(&mut hv, p, 3);
        assert_eq!(kids.len(), 3);
        assert_eq!(hv.domain(p).unwrap().pending_stage2, 3);
        for k in &kids {
            hv.cloneop(DomId::DOM0, CloneOp::Completion { child: *k })
                .unwrap();
        }
        assert_eq!(hv.domain(p).unwrap().state, DomainState::Running);
    }

    #[test]
    fn notification_ring_backpressure() {
        let mut hv = Hypervisor::new(
            Clock::new(),
            Rc::new(CostModel::free()),
            &MachineConfig {
                guest_pool_mib: 256,
                cores: 1,
                notification_ring_capacity: 2,
            },
        );
        hv.set_cloning_enabled(true);
        let p = cloneable_guest(&mut hv, 8);
        do_clone(&mut hv, p, 2);
        let r = hv.cloneop(
            p,
            CloneOp::Clone {
                target: None,
                nr_clones: 1,
            },
        );
        assert_eq!(r, Err(HvError::NotificationRingFull));
        // Draining the ring unblocks cloning.
        hv.clone_ring_pop().unwrap();
        do_clone(&mut hv, p, 1);
    }
}
