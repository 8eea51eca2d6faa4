//! Layout budgets of the types a run stores once per operation.
//!
//! On the long workloads peak memory is these sizes times the operation
//! count, so a field that widens one of them shows here before it shows
//! as RSS. Each exact budget is the size the type has now: raise one only
//! with a reason.

use std::mem::size_of;

use bytes::Bytes;
use dynatune_broker::{BrokerCommand, BrokerState, Record};
use dynatune_cluster::{ClusterMsg, OpRecord};
use dynatune_kv::{KvCommand, KvStore, Request, VersionedValue};
use dynatune_raft::{AppendEntries, AppendResp, Entry};

#[test]
fn per_operation_types_keep_their_budgets() {
    assert_eq!(size_of::<KvCommand>(), 56, "KvCommand");
    assert_eq!(size_of::<VersionedValue>(), 40, "VersionedValue");
    // One bucket of `KvStore`'s hash index.
    assert_eq!(size_of::<(Bytes, VersionedValue)>(), 56, "KvStore bucket");
    // A log entry holds one of no-op, command or conf change, and a
    // command always names its origin.
    assert_eq!(size_of::<Entry<Request<KvCommand>>>(), 88, "KV log entry");
    assert_eq!(
        size_of::<Entry<Request<BrokerCommand>>>(),
        96,
        "broker log entry"
    );
    assert_eq!(size_of::<OpRecord>(), 48, "OpRecord");
    assert_eq!(size_of::<Record>(), 32, "broker Record");
}

/// Every message is moved through outbox, route, slab and dispatch, so
/// its size is copied at each hop; the snapshot variant is boxed to keep
/// the rare large body out of it. The two replication messages are
/// pinned on their own, so a field added to either shows here even while
/// a larger variant still sets the size of the broker's message.
#[test]
fn a_cluster_message_stays_small() {
    assert_eq!(size_of::<ClusterMsg<KvStore>>(), 72, "KV ClusterMsg");
    assert_eq!(
        size_of::<ClusterMsg<BrokerState>>(),
        80,
        "broker ClusterMsg"
    );
    assert_eq!(
        size_of::<AppendEntries<Request<KvCommand>>>(),
        72,
        "KV AppendEntries"
    );
    assert_eq!(size_of::<AppendResp>(), 40, "AppendResp");
}
