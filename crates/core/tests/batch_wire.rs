//! Group-commit batch framing: round-trip, invariant-rejection and
//! determinism properties for the `Batch<V>` wire format.

use proptest::prelude::*;

use paxos::{Ballot, Batch, CausalTag, Decree, Msg, ProposalId, ReplicaId, Slot};
use robuststore::Action;
use tpcw::{CartId, CartLine, CustomerId, ItemId, NewCustomer, Payment};
use treplica::{MwMsg, Wire, WireError, MAX_BATCH_ITEMS};

fn pid(node: u32, seq: u64) -> ProposalId {
    ProposalId {
        node: ReplicaId(node),
        epoch: 0,
        seq,
    }
}

fn action(seq: u64) -> Action {
    Action::RefreshSession {
        customer: CustomerId(seq as u32),
        now: seq,
    }
}

#[test]
fn empty_batch_rejected_on_decode() {
    // An empty batch cannot be constructed (`Batch::new` panics), so
    // encode its framing by hand: a zero-length item vector.
    let bytes = Vec::<(ProposalId, Action)>::new().to_bytes();
    match Batch::<Action>::from_bytes(&bytes) {
        Err(WireError::Invalid(reason)) => assert!(reason.contains("empty")),
        other => panic!("empty batch must be rejected, got {other:?}"),
    }
}

#[test]
fn oversized_batch_rejected_on_decode() {
    let items: Vec<(ProposalId, Action)> = (0..=MAX_BATCH_ITEMS as u64)
        .map(|s| (pid(0, s), action(s)))
        .collect();
    assert_eq!(items.len(), MAX_BATCH_ITEMS + 1);
    let bytes = items.to_bytes();
    match Batch::<Action>::from_bytes(&bytes) {
        Err(WireError::Invalid(reason)) => assert!(reason.contains("MAX_BATCH_ITEMS")),
        other => panic!("oversized batch must be rejected, got {other:?}"),
    }
}

#[test]
fn max_size_batch_round_trips() {
    let items: Vec<(ProposalId, Action)> = (0..MAX_BATCH_ITEMS as u64)
        .map(|s| (pid(1, s), action(s)))
        .collect();
    let batch = Batch::new(items);
    let bytes = batch.to_bytes();
    let decoded = Batch::<Action>::from_bytes(&bytes).expect("max-size batch decodes");
    assert_eq!(decoded.len(), MAX_BATCH_ITEMS);
    assert_eq!(decoded, batch);
}

#[test]
fn single_item_batch_round_trips() {
    let batch = Batch::single(pid(3, 7), action(7));
    let decoded = Batch::<Action>::from_bytes(&batch.to_bytes()).expect("decodes");
    assert_eq!(decoded, batch);
}

#[test]
fn accepted_batch_wire_bytes_match_its_encoding() {
    let actions = vec![
        Action::DoCart {
            cart: None,
            add: Some((ItemId(5), 2)),
            updates: vec![
                CartLine {
                    item: ItemId(1),
                    qty: 0,
                },
                CartLine {
                    item: ItemId(2),
                    qty: 3,
                },
            ],
            default_item: ItemId(9),
            now: 123,
        },
        Action::RegisterCustomer {
            reg: NewCustomer {
                fname: "Ann".into(),
                lname: "Bee".into(),
                phone: "5551234".into(),
                email: "ann@bee.example".into(),
                birthdate: 4000,
                data: "data".into(),
                discount_bp: 300,
                now: 777,
            },
        },
        action(12),
        Action::BuyConfirm {
            cart: CartId(1),
            customer: CustomerId(2),
            payment: Payment {
                cc_type: "VISA".into(),
                cc_num: "4111111111111111".into(),
                cc_name: "Ann Bee".into(),
                cc_expiry: 15000,
                auth_id: "AUTH0001".into(),
                country: 3,
            },
            ship_type: 4,
            now: 99,
        },
        Action::AdminUpdate {
            item: ItemId(6),
            cost_cents: 1299,
            image: "img/6.gif".into(),
            thumbnail: "thumb/6.gif".into(),
        },
    ];
    let batch = Batch::new(
        actions
            .into_iter()
            .enumerate()
            .map(|(i, a)| (pid(2, i as u64), a))
            .collect(),
    );
    let msg = Msg::Accepted {
        ballot: Ballot::fast(3, ReplicaId(0)),
        slot: Slot(41),
        decree: Decree::Value(pid(2, 99), batch),
    };
    let tag = CausalTag::for_msg(ReplicaId(2), 7, &msg);
    let encoded = (tag.to_bytes().len() + msg.to_bytes().len()) as u64;
    let mw = MwMsg::Paxos { epoch: 0, tag, msg };
    // Frame: link/transport headers (46), the MwMsg tag byte and the
    // 8-byte epoch around the causal tag and the consensus message.
    assert_eq!(mw.wire_bytes(), 46 + 1 + 8 + encoded);
    assert_eq!(mw.wire_bytes(), 473, "network byte count of this message");
}

fn arb_batch() -> impl Strategy<Value = Batch<Action>> {
    proptest::collection::vec((0u32..8, 0u64..1_000_000), 1..64).prop_map(|raw| {
        Batch::new(
            raw.into_iter()
                .map(|(node, seq)| (pid(node, seq), action(seq)))
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every well-formed batch survives a round trip with item order
    /// intact (the total order inside a slot is the item order).
    #[test]
    fn batch_round_trip_preserves_order(batch in arb_batch()) {
        let decoded = Batch::<Action>::from_bytes(&batch.to_bytes()).unwrap();
        prop_assert_eq!(decoded, batch);
    }

    /// Encoding is a pure function of the batch — re-encoding the same
    /// or a decoded copy is bit-identical, whatever seed generated it
    /// (replicas must produce identical log records for identical
    /// decrees).
    #[test]
    fn batch_encoding_bit_identical(batch in arb_batch()) {
        let a = batch.to_bytes();
        let b = batch.to_bytes();
        prop_assert_eq!(&a, &b);
        let decoded = Batch::<Action>::from_bytes(&a).unwrap();
        prop_assert_eq!(decoded.to_bytes(), a);
    }

    /// No byte soup may panic the batch decoder (torn log tails, corrupt
    /// wire data).
    #[test]
    fn batch_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Batch::<Action>::from_bytes(&bytes);
    }

    /// Truncating a valid batch encoding at any point errors cleanly.
    #[test]
    fn torn_batch_fails_cleanly(cut in 0usize..200) {
        let batch = Batch::new(vec![
            (pid(0, 0), action(0)),
            (pid(1, 1), action(1)),
            (pid(2, 2), action(2)),
        ]);
        let bytes = batch.to_bytes();
        let cut = cut.min(bytes.len());
        if cut < bytes.len() {
            prop_assert!(Batch::<Action>::from_bytes(&bytes[..cut]).is_err());
        } else {
            prop_assert!(Batch::<Action>::from_bytes(&bytes).is_ok());
        }
    }
}
