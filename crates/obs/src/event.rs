//! The typed trace event taxonomy.
//!
//! Every interesting state transition of the stack — consensus protocol
//! steps, middleware durability actions, recovery phases, and injected
//! faults — is expressed as one [`TraceEvent`] variant. Events carry
//! only plain integers, booleans, and `'static` tag strings so that a
//! record is cheap to construct, trivially hashable, and renders to a
//! canonical JSONL line (see [`crate::jsonl`]) without any allocation
//! beyond the output string.
//!
//! Field conventions: slots, rounds, epochs, and sequence numbers are
//! `u64`; node/replica ids are `u32`; times and durations are
//! microseconds of simulated time.
//!
//! The schema is declared once, in the `trace_events!` table below;
//! adding an event is a one-row edit.

/// Mode tag for [`TraceEvent::ModeSwitch`] (`"fast"`, `"classic"`,
/// `"blocked"`). Kept as strings so `obs` stays independent of the
/// consensus crate.
pub const MODE_FAST: &str = "fast";
/// Classic mode tag.
pub const MODE_CLASSIC: &str = "classic";
/// Blocked mode tag.
pub const MODE_BLOCKED: &str = "blocked";

/// Generates [`TraceEvent`], its `kind()`, and its JSONL field codec
/// from one table. A row is `Variant = "kind"` plus, for a variant
/// with fields, `{ field: Type, … }` in wire order. The JSONL key of a
/// field is its name; its value goes through `crate::jsonl::Field`.
/// A kind literal used twice is an unreachable decode arm, which the
/// generated `decode_fields` denies at compile time.
macro_rules! trace_events {
    ($(
        $(#[$vmeta:meta])*
        $variant:ident = $kind:literal $({
            $( $(#[$fmeta:meta])* $field:ident: $ty:ty, )*
        })?,
    )*) => {
        /// One traced state transition.
        ///
        /// Variants group into four families: the consensus protocol
        /// (proposal/promise/accept/decide, elections, mode switches), the
        /// replication middleware (batching, log appends, checkpoints, recovery
        /// phases, delivery), the simulated environment (crash/restart, message
        /// loss, disk faults), and the experiment harness (partitions, injected
        /// fault profiles, audit violations).
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum TraceEvent {
            $( $(#[$vmeta])* $variant $({ $( $(#[$fmeta])* $field: $ty, )* })?, )*
        }

        impl TraceEvent {
            /// Canonical snake_case tag identifying the variant; used as the
            /// JSONL `e` field and as the per-node counter name.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( TraceEvent::$variant { .. } => $kind, )*
                }
            }

            /// Appends the variant's fields as `,"name":value` pairs in
            /// declaration order (the JSONL record body after `e`).
            pub(crate) fn encode_fields(&self, out: &mut String) {
                match self {
                    $( TraceEvent::$variant $({ $($field),* })? => {
                        $($(
                            out.push_str(concat!(",\"", stringify!($field), "\":"));
                            crate::jsonl::Field::encode($field, out);
                        )*)?
                    } )*
                }
            }

            /// Decodes the fields of a `kind` record; `Ok(None)` means the
            /// kind is not in this build's vocabulary (the caller decides
            /// strict vs skip).
            #[deny(unreachable_patterns)]
            pub(crate) fn decode_fields(
                kind: &str,
                fields: &[(String, crate::jsonl::Val)],
            ) -> Result<Option<TraceEvent>, String> {
                Ok(Some(match kind {
                    $( $kind => TraceEvent::$variant $({ $(
                        $field: crate::jsonl::Field::decode(fields, stringify!($field))?,
                    )* })?, )*
                    _ => return Ok(None),
                }))
            }
        }
    };
}

trace_events! {
    // --- consensus protocol ---
    /// A proposer issued a new client proposal (its per-epoch sequence).
    ProposalIssued = "proposal_issued" {
        /// Proposer-local sequence number within the current epoch.
        seq: u64,
    },
    /// The local acceptor promised ballot `(round, by)`.
    Promised = "promised" {
        /// Ballot round number.
        round: u64,
        /// Replica owning the ballot.
        by: u32,
    },
    /// The local acceptor accepted a decree.
    Accepted = "accepted" {
        /// Consensus slot.
        slot: u64,
        /// Ballot round of the acceptance.
        round: u64,
        /// Whether the ballot was a fast one.
        fast: bool,
    },
    /// The local learner marked a slot decided.
    Decided = "decided" {
        /// The decided slot.
        slot: u64,
        /// Whether the decree was a gap-filling no-op.
        noop: bool,
    },
    /// The local coordinator started phase 1 for a new ballot.
    PrepareStarted = "prepare_started" {
        /// Ballot round being prepared.
        round: u64,
        /// Whether it is a fast ballot.
        fast: bool,
    },
    /// The local coordinator gathered its promise quorum and took over.
    LeaderElected = "leader_elected" {
        /// Round of the winning ballot.
        round: u64,
        /// Whether the new round is fast.
        fast: bool,
    },
    /// The failure detector's availability mode changed.
    ModeSwitch = "mode_switch" {
        /// Previous mode (`"fast"` / `"classic"` / `"blocked"`).
        from: &'static str,
        /// New mode.
        to: &'static str,
    },
    /// The local leader proposed a configuration change.
    ReconfigProposed = "reconfig_proposed" {
        /// The configuration epoch the change would create.
        epoch: u64,
        /// Replicas being added.
        adds: u32,
        /// Replicas being removed.
        removes: u32,
    },
    /// The replica switched to a new configuration epoch at its fenced
    /// slot (or adopted one wholesale from a snapshot, `slot` 0).
    EpochChanged = "epoch_change" {
        /// The configuration epoch now in force.
        epoch: u64,
        /// Ensemble size of the new configuration.
        replicas: u32,
        /// Fence slot of the reconfiguration decree (0 for adoption via
        /// state transfer).
        slot: u64,
    },
    /// The middleware dropped a protocol message stamped with an older
    /// configuration epoch than the local one.
    StaleEpochRejected = "stale_epoch_rejected" {
        /// Sending replica.
        from: u32,
        /// Epoch the message was stamped with.
        msg_epoch: u64,
        /// The local (newer) epoch.
        local_epoch: u64,
    },

    // --- replication middleware ---
    /// A locally submitted update received its per-epoch sequence number
    /// and entered the group-commit pipeline. The span profiler uses
    /// this as the root of each update's critical path.
    UpdateSubmitted = "update_submitted" {
        /// Submitter-local sequence number within the current epoch.
        seq: u64,
    },
    /// A group-commit batch was flushed into consensus. The batch
    /// carries the consecutive local sequence numbers
    /// `[first_seq, first_seq + updates)`, which is how the span
    /// profiler joins each update to its flush edge.
    BatchFlushed = "batch_flushed" {
        /// Updates coalesced into the batch.
        updates: u64,
        /// What closed the batch: `"size"`, `"window"`, or `"single"`.
        trigger: &'static str,
        /// Sequence number of the batch's first update.
        first_seq: u64,
    },
    /// A consensus record was appended to the stable log.
    LogAppend = "log_append" {
        /// Serialized entry size in bytes.
        bytes: u64,
    },
    /// A previously issued log append reached the platter (fsync ok).
    AppendDurable = "append_durable",
    /// A checkpoint write was issued.
    CheckpointWrite = "checkpoint_write" {
        /// Checkpoint generation number.
        generation: u64,
        /// Application watermark covered by the checkpoint.
        slot: u64,
        /// Modeled checkpoint size in bytes.
        bytes: u64,
    },
    /// A checkpoint write became durable.
    CheckpointDurable = "checkpoint_durable" {
        /// Checkpoint generation number.
        generation: u64,
    },
    /// Recovery started loading the newest durable checkpoint.
    CheckpointLoadStart = "checkpoint_load_start" {
        /// Modeled checkpoint size in bytes.
        bytes: u64,
    },
    /// The checkpoint finished loading.
    CheckpointLoaded = "checkpoint_loaded" {
        /// Watermark slot restored from the checkpoint.
        slot: u64,
    },
    /// Recovery started replaying the stable consensus log.
    LogReplayStart = "log_replay_start" {
        /// Log size in bytes to stream back.
        bytes: u64,
    },
    /// The stable log finished replaying.
    LogReplayed = "log_replayed" {
        /// Records recovered from the log.
        records: u64,
    },
    /// Recovery finished: checkpoint loaded, log replayed, and the
    /// backlog re-learned from peers up to the cluster watermark.
    RecoveryComplete = "recovery_complete" {
        /// First slot this replica will apply next.
        slot: u64,
    },
    /// An update was applied to the local state machine.
    UpdateDelivered = "update_delivered" {
        /// Consensus slot of the containing batch.
        slot: u64,
        /// Index of the update inside its batch.
        index: u64,
        /// Replica that submitted the update.
        submitter: u32,
        /// Submitter-local sequence number of the update.
        seq: u64,
        /// Submit-to-apply latency in µs (0 when the submitter was a
        /// different replica, whose clock we do not see).
        latency_us: u64,
    },
    /// The web tier sent the blocked client its reply after applying the
    /// client's update locally (the end of the paper's blocking
    /// `execute()` path).
    ReplySent = "reply_sent" {
        /// Submitter-local sequence number of the answered update.
        seq: u64,
    },

    // --- periodic load & resource samples ---
    /// One second of client-side interaction completions (emitted by a
    /// client node when its clock crosses into a new second; seconds
    /// with no completions emit nothing).
    ClientSample = "client_sample" {
        /// The sampled second (index from run start).
        sec: u64,
        /// Successful interactions completed in that second.
        ok: u64,
        /// Failed interactions (connection errors, timeouts) in it.
        err: u64,
    },
    /// Cumulative network totals, sampled by the proxy each probe round
    /// (the proxy never crashes, so the series is monotone and the
    /// timeline can difference it into per-window traffic).
    NetSample = "net_sample" {
        /// Messages submitted to the network so far.
        messages: u64,
        /// Payload bytes carried so far.
        bytes: u64,
    },
    /// A server's work-queue depth, sampled on its middleware tick.
    QueueSample = "queue_sample" {
        /// Queued work items (pages being rendered + updates applying).
        depth: u64,
    },

    // --- simulated environment ---
    /// The node crashed (volatile state lost).
    Crash = "crash",
    /// The node restarted with a fresh incarnation.
    Restart = "restart" {
        /// New incarnation number.
        incarnation: u64,
    },
    /// A crash tore the in-flight log append: a strict prefix survived.
    TornWrite = "torn_write" {
        /// Bytes of the entry that reached the platter.
        bytes_kept: u64,
    },
    /// An injected media error failed a durable write (fsync failure).
    DiskWriteFailed = "disk_write_failed",
    /// A message left its sender (traced against the sender at the
    /// moment the engine accepted the transmission). Every send attempt
    /// gets a fresh engine-global transmission id `xid`; the matching
    /// [`TraceEvent::MsgRecv`] (or `MsgDropped` / `MsgDuplicated`)
    /// carries the same id, which is how the causal reconstructor pairs
    /// the two ends of a wire crossing.
    MsgSent = "msg_sent" {
        /// Engine-global transmission id.
        xid: u64,
        /// Intended receiver.
        to: u32,
        /// Wire size in bytes.
        bytes: u64,
    },
    /// A message arrived at its destination (traced against the
    /// receiver at delivery time, just before the handler runs).
    MsgRecv = "msg_recv" {
        /// Transmission id of the matching [`TraceEvent::MsgSent`].
        xid: u64,
        /// Sending node.
        from: u32,
        /// Wire size in bytes.
        bytes: u64,
    },
    /// The causal tag a protocol message carried on the wire (traced
    /// against the sender right after its `MsgSent`). `slot` / `round`
    /// use `u64::MAX` for "not applicable to this message kind".
    MsgTag = "msg_tag" {
        /// Transmission id of the tagged send.
        xid: u64,
        /// Protocol message kind (`"accept"`, `"accepted"`, …).
        kind: &'static str,
        /// Replica that stamped the tag (the protocol-level sender).
        origin: u32,
        /// Sender-local causal sequence number (monotone per replica).
        cseq: u64,
        /// Consensus slot provenance, `u64::MAX` when none.
        slot: u64,
        /// Ballot-round provenance, `u64::MAX` when none.
        round: u64,
    },
    /// The network model dropped an outgoing message.
    MsgDropped = "msg_dropped" {
        /// Transmission id of the lost send.
        xid: u64,
        /// Intended receiver.
        to: u32,
        /// Wire size of the lost message.
        bytes: u64,
        /// `"partition"`, `"loss"`, or `"dest_down"`.
        reason: &'static str,
    },
    /// The network model duplicated an outgoing message (both copies
    /// share the original send's `xid`).
    MsgDuplicated = "msg_duplicated" {
        /// Transmission id of the duplicated send.
        xid: u64,
        /// Receiver of both copies.
        to: u32,
    },
    /// The local failure detector started suspecting a peer (silence
    /// exceeded the timeout).
    PeerSuspected = "peer_suspected" {
        /// The suspected replica.
        peer: u32,
        /// How long the peer had been silent when suspicion began, µs.
        silent_us: u64,
    },
    /// The local failure detector cleared a suspicion (the peer was
    /// heard from again, or a membership change absolved it).
    PeerCleared = "peer_cleared" {
        /// The no-longer-suspected replica.
        peer: u32,
        /// How long the suspicion lasted, µs.
        suspected_us: u64,
    },

    // --- experiment harness ---
    /// The harness cut this node off from `peers` other nodes.
    PartitionCut = "partition_cut" {
        /// Number of peers now unreachable.
        peers: u64,
    },
    /// The harness healed all partitions involving this node.
    PartitionHealed = "partition_healed",
    /// The harness installed a lossy link-fault profile on this node's
    /// links (loss/duplicate probabilities in percent).
    NetFaultSet = "net_fault_set" {
        /// Drop probability, percent.
        loss_pct: u64,
        /// Duplication probability, percent.
        dup_pct: u64,
    },
    /// The harness cleared this node's link faults.
    NetFaultCleared = "net_fault_cleared",
    /// The harness armed a disk-fault profile on this node.
    DiskFaultSet = "disk_fault_set" {
        /// Write-failure probability, percent.
        fail_pct: u64,
        /// Whether crashes tear the in-flight append.
        torn: bool,
    },
    /// The harness disarmed this node's disk faults.
    DiskFaultCleared = "disk_fault_cleared",
    /// The invariant auditor recorded one or more new violations.
    AuditViolation = "audit_violation" {
        /// Cumulative violation count after this check.
        count: u64,
    },
    /// The online monitor saw a rule breach (not yet debounced).
    AlertPending = "alert_pending" {
        /// Rule name from the monitor's declarative rule set.
        rule: &'static str,
        /// Node the alert is about, or `u32::MAX` for cluster scope.
        subject: u32,
    },
    /// A monitor alert debounced into the firing state (a page).
    AlertFiring = "alert_firing" {
        /// Rule name.
        rule: &'static str,
        /// Node the alert is about, or `u32::MAX` for cluster scope.
        subject: u32,
        /// Time spent pending before firing, µs.
        pending_us: u64,
    },
    /// A firing monitor alert stayed clean long enough to resolve.
    AlertResolved = "alert_resolved" {
        /// Rule name.
        rule: &'static str,
        /// Node the alert is about, or `u32::MAX` for cluster scope.
        subject: u32,
        /// Time spent firing before resolving, µs.
        firing_us: u64,
    },
}

/// One trace record: an event stamped with simulated time and node id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time of the event, microseconds.
    pub t_us: u64,
    /// Node the event belongs to (dense simnet index).
    pub node: u32,
    /// The event.
    pub event: TraceEvent,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One sample of every variant, with the canonical schema-v3 line of
    /// the record `{ t_us: 1000 + i, node: i, event }` at index `i`.
    pub(crate) fn samples() -> [(TraceEvent, &'static str); 47] {
        use TraceEvent::*;
        [
            (
                ProposalIssued { seq: 42 },
                r#"{"t":1000,"n":0,"e":"proposal_issued","seq":42}"#,
            ),
            (
                Promised { round: 3, by: 2 },
                r#"{"t":1001,"n":1,"e":"promised","round":3,"by":2}"#,
            ),
            (
                Accepted {
                    slot: 7,
                    round: 3,
                    fast: true,
                },
                r#"{"t":1002,"n":2,"e":"accepted","slot":7,"round":3,"fast":true}"#,
            ),
            (
                Decided {
                    slot: 7,
                    noop: false,
                },
                r#"{"t":1003,"n":3,"e":"decided","slot":7,"noop":false}"#,
            ),
            (
                PrepareStarted {
                    round: 4,
                    fast: false,
                },
                r#"{"t":1004,"n":4,"e":"prepare_started","round":4,"fast":false}"#,
            ),
            (
                LeaderElected {
                    round: 4,
                    fast: true,
                },
                r#"{"t":1005,"n":5,"e":"leader_elected","round":4,"fast":true}"#,
            ),
            (
                ModeSwitch {
                    from: MODE_FAST,
                    to: MODE_CLASSIC,
                },
                r#"{"t":1006,"n":6,"e":"mode_switch","from":"fast","to":"classic"}"#,
            ),
            (
                ReconfigProposed {
                    epoch: 2,
                    adds: 1,
                    removes: 2,
                },
                r#"{"t":1007,"n":7,"e":"reconfig_proposed","epoch":2,"adds":1,"removes":2}"#,
            ),
            (
                EpochChanged {
                    epoch: 1,
                    replicas: 5,
                    slot: 0,
                },
                r#"{"t":1008,"n":8,"e":"epoch_change","epoch":1,"replicas":5,"slot":0}"#,
            ),
            (
                StaleEpochRejected {
                    from: 3,
                    msg_epoch: 1,
                    local_epoch: 2,
                },
                r#"{"t":1009,"n":9,"e":"stale_epoch_rejected","from":3,"msg_epoch":1,"local_epoch":2}"#,
            ),
            (
                UpdateSubmitted { seq: 12 },
                r#"{"t":1010,"n":10,"e":"update_submitted","seq":12}"#,
            ),
            (
                BatchFlushed {
                    updates: 8,
                    trigger: "window",
                    first_seq: 5,
                },
                r#"{"t":1011,"n":11,"e":"batch_flushed","updates":8,"trigger":"window","first_seq":5}"#,
            ),
            (
                LogAppend { bytes: 4096 },
                r#"{"t":1012,"n":12,"e":"log_append","bytes":4096}"#,
            ),
            (AppendDurable, r#"{"t":1013,"n":13,"e":"append_durable"}"#),
            (
                CheckpointWrite {
                    generation: 3,
                    slot: 977,
                    bytes: 65536,
                },
                r#"{"t":1014,"n":14,"e":"checkpoint_write","generation":3,"slot":977,"bytes":65536}"#,
            ),
            (
                CheckpointDurable { generation: 3 },
                r#"{"t":1015,"n":15,"e":"checkpoint_durable","generation":3}"#,
            ),
            (
                CheckpointLoadStart { bytes: 65536 },
                r#"{"t":1016,"n":16,"e":"checkpoint_load_start","bytes":65536}"#,
            ),
            (
                CheckpointLoaded { slot: 977 },
                r#"{"t":1017,"n":17,"e":"checkpoint_loaded","slot":977}"#,
            ),
            (
                LogReplayStart { bytes: 8192 },
                r#"{"t":1018,"n":18,"e":"log_replay_start","bytes":8192}"#,
            ),
            (
                LogReplayed { records: 31 },
                r#"{"t":1019,"n":19,"e":"log_replayed","records":31}"#,
            ),
            (
                RecoveryComplete { slot: 1008 },
                r#"{"t":1020,"n":20,"e":"recovery_complete","slot":1008}"#,
            ),
            (
                UpdateDelivered {
                    slot: 9,
                    index: 2,
                    submitter: 3,
                    seq: 12,
                    latency_us: 531,
                },
                r#"{"t":1021,"n":21,"e":"update_delivered","slot":9,"index":2,"submitter":3,"seq":12,"latency_us":531}"#,
            ),
            (
                ReplySent { seq: 12 },
                r#"{"t":1022,"n":22,"e":"reply_sent","seq":12}"#,
            ),
            (
                ClientSample {
                    sec: 41,
                    ok: 17,
                    err: 2,
                },
                r#"{"t":1023,"n":23,"e":"client_sample","sec":41,"ok":17,"err":2}"#,
            ),
            (
                NetSample {
                    messages: 120_000,
                    bytes: 48_000_000,
                },
                r#"{"t":1024,"n":24,"e":"net_sample","messages":120000,"bytes":48000000}"#,
            ),
            (
                QueueSample { depth: 7 },
                r#"{"t":1025,"n":25,"e":"queue_sample","depth":7}"#,
            ),
            (Crash, r#"{"t":1026,"n":26,"e":"crash"}"#),
            (
                Restart { incarnation: 2 },
                r#"{"t":1027,"n":27,"e":"restart","incarnation":2}"#,
            ),
            (
                TornWrite { bytes_kept: 100 },
                r#"{"t":1028,"n":28,"e":"torn_write","bytes_kept":100}"#,
            ),
            (
                DiskWriteFailed,
                r#"{"t":1029,"n":29,"e":"disk_write_failed"}"#,
            ),
            (
                MsgSent {
                    xid: 17,
                    to: 2,
                    bytes: 256,
                },
                r#"{"t":1030,"n":30,"e":"msg_sent","xid":17,"to":2,"bytes":256}"#,
            ),
            (
                MsgRecv {
                    xid: 17,
                    from: 1,
                    bytes: 256,
                },
                r#"{"t":1031,"n":31,"e":"msg_recv","xid":17,"from":1,"bytes":256}"#,
            ),
            (
                MsgTag {
                    xid: 18,
                    kind: "accept",
                    origin: 1,
                    cseq: 9,
                    slot: 4,
                    round: u64::MAX,
                },
                r#"{"t":1032,"n":32,"e":"msg_tag","xid":18,"kind":"accept","origin":1,"cseq":9,"slot":4,"round":18446744073709551615}"#,
            ),
            (
                MsgDropped {
                    xid: 19,
                    to: 4,
                    bytes: 512,
                    reason: "partition",
                },
                r#"{"t":1033,"n":33,"e":"msg_dropped","xid":19,"to":4,"bytes":512,"reason":"partition"}"#,
            ),
            (
                MsgDuplicated { xid: 20, to: 3 },
                r#"{"t":1034,"n":34,"e":"msg_duplicated","xid":20,"to":3}"#,
            ),
            (
                PeerSuspected {
                    peer: 2,
                    silent_us: 350_000,
                },
                r#"{"t":1035,"n":35,"e":"peer_suspected","peer":2,"silent_us":350000}"#,
            ),
            (
                PeerCleared {
                    peer: 2,
                    suspected_us: 4_200_000,
                },
                r#"{"t":1036,"n":36,"e":"peer_cleared","peer":2,"suspected_us":4200000}"#,
            ),
            (
                PartitionCut { peers: 2 },
                r#"{"t":1037,"n":37,"e":"partition_cut","peers":2}"#,
            ),
            (
                PartitionHealed,
                r#"{"t":1038,"n":38,"e":"partition_healed"}"#,
            ),
            (
                NetFaultSet {
                    loss_pct: 5,
                    dup_pct: 1,
                },
                r#"{"t":1039,"n":39,"e":"net_fault_set","loss_pct":5,"dup_pct":1}"#,
            ),
            (
                NetFaultCleared,
                r#"{"t":1040,"n":40,"e":"net_fault_cleared"}"#,
            ),
            (
                DiskFaultSet {
                    fail_pct: 10,
                    torn: true,
                },
                r#"{"t":1041,"n":41,"e":"disk_fault_set","fail_pct":10,"torn":true}"#,
            ),
            (
                DiskFaultCleared,
                r#"{"t":1042,"n":42,"e":"disk_fault_cleared"}"#,
            ),
            (
                AuditViolation { count: 3 },
                r#"{"t":1043,"n":43,"e":"audit_violation","count":3}"#,
            ),
            (
                AlertPending {
                    rule: "replica_down",
                    subject: 2,
                },
                r#"{"t":1044,"n":44,"e":"alert_pending","rule":"replica_down","subject":2}"#,
            ),
            (
                AlertFiring {
                    rule: "slo_fast_burn",
                    subject: u32::MAX,
                    pending_us: 2_000_000,
                },
                r#"{"t":1045,"n":45,"e":"alert_firing","rule":"slo_fast_burn","subject":4294967295,"pending_us":2000000}"#,
            ),
            (
                AlertResolved {
                    rule: "wips_drop",
                    subject: u32::MAX,
                    firing_us: 17_000_000,
                },
                r#"{"t":1046,"n":46,"e":"alert_resolved","rule":"wips_drop","subject":4294967295,"firing_us":17000000}"#,
            ),
        ]
    }

    #[test]
    fn kinds_are_unique() {
        let mut kinds: Vec<&str> = samples().iter().map(|(e, _)| e.kind()).collect();
        kinds.sort_unstable();
        let before = kinds.len();
        kinds.dedup();
        assert_eq!(before, kinds.len(), "duplicate kind tag");
    }
}
