//! Pins the modelled wire size of every DHT message case of every variant.
//!
//! Byte counters (`bytes.data`, `bytes.replication`, the runtime's
//! `bytes_sent`) feed Figure 7 and every run fingerprint, so a size that
//! drifts changes results without changing behaviour. The constants here
//! are the sizes the four hand-written node types used before they became
//! one engine: the shared cases are identical across variants except the
//! repair probe and reply, whose fixed part depends on what describes the
//! prober's range (DHash: both range ends; Fast/Compromise: owner plus a
//! cross flag; Secure: owner only).

use bytes::Bytes;

use verme_chord::proto::HEADER_BYTES as HDR;
use verme_chord::{ChordMsg, Id, LookupId};
use verme_core::Payload;
use verme_crypto::{Certificate, CertificateAuthority, NodeType, SignedStatement};
use verme_dht::api::OpReq;
use verme_dht::compromise::{CompExt, RelayRequest};
use verme_dht::verme::CrossMsg;
use verme_dht::{Block, Compromise, Dhash, DhtMsg, Fast, Secure, SecurePayload, Variant};
use verme_sim::{Addr, Wire};

const LEN: usize = 8192;

fn block() -> Block {
    Block::new(Bytes::from(vec![0u8; LEN]))
}

fn ids(n: usize) -> Vec<Id> {
    (0..n as u128).map(Id::new).collect()
}

/// The cases every variant shares, with the variant's probe/need fixed
/// parts as the only parameters.
fn shared_plane<V: Variant>(
    probe_fixed: usize,
    need_fixed: usize,
) -> Vec<(&'static str, DhtMsg<V>, usize)> {
    let (key, value) = (Id::new(1), block());
    vec![
        ("Fetch", DhtMsg::Fetch { op: 1, key }, HDR + 8 + 16),
        ("FetchReply", DhtMsg::FetchReply { op: 1, value: Some(block()) }, HDR + 8 + 1 + LEN),
        ("FetchReply/none", DhtMsg::FetchReply { op: 1, value: None }, HDR + 8 + 1),
        (
            "Store",
            DhtMsg::Store { op: 1, key, value: block(), attempt: 2, repair: false },
            HDR + 8 + 16 + LEN,
        ),
        ("StoreAck", DhtMsg::StoreAck { op: 1, ok: true }, HDR + 9),
        ("Replicate", DhtMsg::Replicate { key, value }, HDR + 16 + LEN),
        (
            "RepairProbe",
            DhtMsg::RepairProbe { round: 3, from: key, owner: key, keys: ids(5), cross: false },
            HDR + probe_fixed + 16 * 5,
        ),
        (
            "RepairNeed",
            DhtMsg::RepairNeed { round: 3, missing: ids(2), orphans: ids(3), cross: false },
            HDR + need_fixed + 16 * 5,
        ),
        ("RepairPull", DhtMsg::RepairPull { keys: ids(4) }, HDR + 16 * 4),
    ]
}

fn cross_cases() -> Vec<(&'static str, CrossMsg, usize)> {
    vec![
        (
            "CrossCopy",
            CrossMsg::CrossCopy { xid: 1, key: Id::new(1), value: block(), repair: false },
            HDR + 8 + 16 + LEN,
        ),
        ("CrossCopyAck", CrossMsg::CrossCopyAck { xid: 1, ok: true }, HDR + 9),
    ]
}

fn check<V: Variant>(variant: &str, cases: Vec<(&'static str, DhtMsg<V>, usize)>) {
    for (name, msg, want) in cases {
        assert_eq!(msg.wire_size(), want, "{variant}::{name}");
    }
}

#[test]
fn every_message_case_keeps_its_wire_size() {
    check::<Dhash>("dhash", shared_plane(8 + 32, 8));
    check::<Secure>("secure", shared_plane(8 + 16, 8));

    let mut fast = shared_plane::<Fast>(8 + 17, 9);
    fast.extend(cross_cases().into_iter().map(|(n, m, w)| (n, DhtMsg::Ext(m), w)));
    check("fast", fast);

    let mut ca = CertificateAuthority::new(1);
    let (cert, keys) = ca.issue(7, NodeType::A);
    let relay = |req: OpReq| {
        let statement = SignedStatement::sign(&keys, (9u128, 3u64));
        CompExt::RelayRequest(RelayRequest {
            rop: 3,
            cert,
            statement,
            req,
            key: Id::new(9),
            attempt: 0,
            repair: false,
        })
    };
    // Header, op id, certificate, 80-byte signed statement, kind, key.
    let relay_fixed = HDR + 8 + Certificate::WIRE_SIZE + 80 + 1 + 16;
    let mut comp = shared_plane::<Compromise>(8 + 17, 9);
    comp.extend(cross_cases().into_iter().map(|(n, m, w)| (n, DhtMsg::Ext(CompExt::Cross(m)), w)));
    comp.extend(
        [
            ("RelayRequest/get", relay(OpReq::Get), relay_fixed),
            ("RelayRequest/put", relay(OpReq::Put(block())), relay_fixed + LEN),
            (
                "RelayGetReply",
                CompExt::RelayGetReply { rop: 3, value: Some(block()) },
                HDR + 8 + 1 + LEN,
            ),
            ("RelayGetReply/none", CompExt::RelayGetReply { rop: 3, value: None }, HDR + 8 + 1),
            ("RelayPutReply", CompExt::RelayPutReply { rop: 3, ok: true }, HDR + 9),
        ]
        .map(|(n, m, w)| (n, DhtMsg::Ext(m), w)),
    );
    check("compromise", comp);
}

#[test]
fn overlay_messages_and_piggybacks_keep_their_own_size() {
    // An encapsulated overlay message costs exactly what the overlay says.
    let lid = LookupId { origin: Addr::from_raw(1), seq: 5 };
    let inner = ChordMsg::HopAck { lid };
    assert_eq!(DhtMsg::<Dhash>::Overlay(inner.clone()).wire_size(), inner.wire_size());

    // Secure-VerDi's data rides the lookups as a payload.
    let key = Id::new(1);
    assert_eq!(SecurePayload::GetReq { key }.wire_size(), 17);
    assert_eq!(SecurePayload::PutReq { key, value: block() }.wire_size(), 17 + LEN);
    assert_eq!(SecurePayload::GetResp { value: Some(block()) }.wire_size(), 1 + LEN);
    assert_eq!(SecurePayload::GetResp { value: None }.wire_size(), 1);
    assert_eq!(SecurePayload::PutResp { ok: true }.wire_size(), 2);
}
