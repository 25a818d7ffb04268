//! NGINX-style worker scaling with unikernel clones (§7.1 of the paper).
//!
//! The master boots, forks four worker clones (all sharing its MAC and IP)
//! and the Dom0 bond load-balances incoming connections across them.
//!
//! Run with: `cargo run --release --example nginx_workers`

use std::net::Ipv4Addr;

use nephele::apps::{NginxApp, HTTP_PORT};
use nephele::netmux::SockEvent;
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{MuxKind, Platform, PlatformConfig};

const SERVICE_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

fn main() {
    // The bond mux spreads flows across the cloned workers.
    let mut platform = Platform::new(PlatformConfig::builder().mux(MuxKind::Bond).build());

    let config = DomainConfig::builder("nginx")
        .memory_mib(16)
        .vif(SERVICE_IP)
        .max_clones(8)
        .build();

    // The app forks its workers from on_boot — one fork() call, four
    // ready-to-serve clones.
    let master = platform
        .launch(&config, &KernelImage::unikraft("nginx"), Box::new(NginxApp::new(4)))
        .expect("boot");
    let workers: Vec<_> = platform
        .hv
        .domains()
        .filter(|d| d.parent == Some(master))
        .map(|d| d.id)
        .collect();
    println!("master {master} spawned {} workers: {workers:?}", workers.len());
    println!("bond members: {}", platform.snapshot().mux_members);

    // Fire 60 HTTP requests from the host; the bond picks a clone per flow.
    let mut answered = 0;
    for _ in 0..60 {
        let conn = platform.host_tcp_connect(SERVICE_IP, HTTP_PORT);
        platform.take_host_events();
        platform.host_tcp_send(conn, b"GET / HTTP/1.1\r\n\r\n".to_vec());
        for e in platform.take_host_events() {
            if let SockEvent::TcpData { data, .. } = e {
                if data.starts_with(b"HTTP/1.1 200") {
                    answered += 1;
                }
            }
        }
        platform.host_tcp_close(conn);
    }
    println!("{answered}/60 requests answered");

    // Show the per-worker distribution.
    for w in &workers {
        let served = platform
            .with_app::<NginxApp, u64>(*w, |app, _| app.served)
            .unwrap();
        println!("  worker {w}: {served} requests");
    }
}
