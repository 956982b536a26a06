//! # semrec-shard — the partitioned agent universe
//!
//! Scaling the Ziegler (EDBT 2004) recommender past what one model can
//! hold: agents are partitioned into N shards by a pluggable [`ShardFn`],
//! each shard owning its own trust subgraph, ratings, materialized
//! profiles, and `semrec-store` snapshot/WAL generation. The paper's
//! decentralized framing — agent data scattered across machine-readable
//! homepages, merged by whoever computes — maps directly onto shards as
//! the unit of distribution.
//!
//! Trust spreading is `semrec-trust`'s one Appleseed kernel, run over a
//! read-only view of the shards' out-stars keyed by global ordinal (the
//! crate-private `topology` module). The view walks each agent's
//! out-edges in the global graph's order, so sharded output is
//! bit-identical to the unsharded engine at every shard count and
//! compute-thread count.
//!
//! * [`ShardedModel`] — partition, serve, and incrementally advance
//! * [`ShardedServeCache`] — per-shard epoch-aware serve cache carry-over
//! * [`ShardedStore`] — per-shard durable snapshots + WAL + sidecars

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod model;
pub mod partition;
pub mod persist;
mod topology;

pub use cache::ShardedServeCache;
pub use model::{Shard, ShardBuildReport, ShardedAdvanceReport, ShardedModel};
pub use partition::{cut_edges, CommunityShardFn, Directory, GlobalId, HashShardFn, ShardFn};
pub use persist::{ShardedRecovery, ShardedStore};
