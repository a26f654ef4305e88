//! File sharing over VerDi — the paper's motivating application.
//!
//! Stores "files" through Fast-VerDi on a bandwidth-aware transit-stub
//! network, retrieves them from nodes of both platform types, and then
//! demonstrates the availability bonus of §5.2: because every block is
//! replicated in sections of *both* types, wiping out every node of one
//! platform (a worst-case worm outbreak) loses no data.
//!
//! ```text
//! cargo run --release --example file_sharing
//! ```

use bytes::Bytes;
use verme::core::{SectionLayout, VermeConfig, VermeStaticRing};
use verme::crypto::{CertificateAuthority, NodeType};
use verme::dht::{DhtConfig, DhtNode, FastVerDiNode};
use verme::net::{TransitStub, TransitStubConfig};
use verme::sim::{Addr, HostId, Runtime, SimDuration, SimTime};

fn main() {
    let layout = SectionLayout::with_sections(8, 2);
    let n = 200;
    let ring = VermeStaticRing::generate(layout, n, 11);
    let mut ca = CertificateAuthority::new(11);
    let net = TransitStub::generate(TransitStubConfig { hosts: n }, 11);
    let mut rt: Runtime<FastVerDiNode, TransitStub> = Runtime::new(net, 11);
    let mut addrs: Vec<Addr> = Vec::with_capacity(n);
    for i in 0..n {
        let overlay = ring.build_node(i, VermeConfig::new(layout), &mut ca);
        addrs.push(rt.spawn(HostId(i), FastVerDiNode::new(overlay, DhtConfig::default())));
    }
    rt.run_until(SimTime::ZERO + SimDuration::from_secs(1));

    // Publish three 8 KiB "files" from different peers.
    let files = [
        ("song.mp3 (chunk 0)", 0xA5u8),
        ("lecture.pdf (chunk 0)", 0x5Au8),
        ("distro.iso (chunk 0)", 0x42u8),
    ];
    let mut keys = Vec::new();
    for (i, (name, fill)) in files.iter().enumerate() {
        let publisher = addrs[i * 37 % n];
        let data = Bytes::from(vec![*fill; 8192]);
        rt.invoke(publisher, |node, ctx| node.start_put(data, ctx)).expect("alive");
        rt.run_until(rt.now() + SimDuration::from_secs(30));
        let out = rt.node_mut(publisher).unwrap().take_op_outcomes().pop().expect("done");
        assert!(out.ok, "publish failed");
        println!("published {name}: key {} in {:.0} ms", out.key, out.latency.as_millis_f64());
        keys.push(out.key);
    }

    // Downloads work from peers of either platform type.
    for (k, (name, fill)) in keys.iter().zip(&files) {
        for ty in [NodeType::A, NodeType::B] {
            let reader_idx = (0..n).find(|&i| ring.type_of_index(i) == ty).unwrap();
            let reader = addrs[reader_idx];
            rt.invoke(reader, |node, ctx| node.start_get(*k, ctx)).expect("alive");
            rt.run_until(rt.now() + SimDuration::from_secs(30));
            let out = rt.node_mut(reader).unwrap().take_op_outcomes().pop().expect("done");
            assert!(out.ok && out.value.as_ref().unwrap()[0] == *fill);
            println!("  type-{ty} peer downloaded {name} in {:.0} ms", out.latency.as_millis_f64());
        }
    }

    // Worst case: a worm wipes out every type-A machine. §5.2's
    // dual-section replication means every block still has live replicas.
    rt.run_until(rt.now() + SimDuration::from_secs(10)); // let replication settle
    let mut killed = 0;
    for (i, &addr) in addrs.iter().enumerate() {
        if ring.type_of_index(i) == NodeType::A {
            rt.kill(addr);
            killed += 1;
        }
    }
    println!("worm outbreak wiped out {killed} type-A machines");
    for (k, (name, _)) in keys.iter().zip(&files) {
        let survivors = (0..n)
            .filter(|&i| ring.type_of_index(i) == NodeType::B)
            .filter(|&i| rt.node(addrs[i]).is_some_and(|nd| nd.store().contains(*k)))
            .count();
        assert!(survivors > 0, "{name} lost all replicas!");
        println!("  {name}: {survivors} replicas survive on type-B machines");
    }
    println!("no data lost — replicas in the opposite-type section survived the outbreak");
}
