//! # rna-ps
//!
//! A parameter-server substrate in the style of ps-lite (§6).
//!
//! The hierarchical synchronization of §4 treats each AllReduce group as one
//! logical "worker" of a traditional PS: the group's elected initiator
//! pushes the group's averaged parameters, the server averages across
//! groups, and the initiator pulls the blended result back to broadcast it
//! within the group. Because groups run at different speeds, the exchange is
//! *asynchronous* — the server never blocks waiting for a group.
//!
//! * [`GroupServer`] — one parameter slot per group, model averaging across
//!   the latest push of each group, per-group version/staleness tracking,
//!   and the paper's atomic `PSPushPull` operation.
//! * [`replica`] — primary/replica mirroring with read-repair: a shard
//!   primary crash degrades that slot to its warm mirror instead of
//!   wedging the exchange.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod replica;
mod server;

pub use replica::ReplicatedGroupServer;
pub use server::{staleness_discount, GroupServer};
