//! Agent-universe partitioning: global ordinals, the shard directory, and
//! pluggable partitioning functions.
//!
//! Every agent in the sharded universe is identified by a [`GlobalId`] —
//! its ordinal in the [`Directory`], assigned in global registration order
//! at partition time. Shard-local `AgentId`s are an implementation detail
//! (they may even be renumbered by a persistence round-trip); the
//! cross-shard trust topology and every externally visible ranking are
//! keyed by the stable global ordinal.

use std::collections::HashMap;

use semrec_core::Community;
use semrec_store::codec::fnv1a64;

/// Stable global ordinal of an agent in the sharded universe.
///
/// At partition time this equals the global community's `AgentId` index,
/// which is what makes the sharded pipeline byte-identical to the
/// unsharded one (identical tie-break order everywhere an `AgentId`
/// comparison decides between equal scores).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalId(pub u32);

impl GlobalId {
    /// The ordinal as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The global agent directory: URI and owning shard per [`GlobalId`].
#[derive(Clone, Debug, Default)]
pub struct Directory {
    uris: Vec<String>,
    shard_of: Vec<u32>,
    by_uri: HashMap<String, u32>,
}

impl Directory {
    /// Builds a directory from `(uri, shard)` pairs in global-ordinal order.
    pub fn from_assignments(entries: impl IntoIterator<Item = (String, u32)>) -> Directory {
        let mut directory = Directory::default();
        for (uri, shard) in entries {
            directory.push(uri, shard);
        }
        directory
    }

    /// Appends one agent, returning its new ordinal.
    pub fn push(&mut self, uri: String, shard: u32) -> GlobalId {
        let ordinal = self.uris.len() as u32;
        self.by_uri.insert(uri.clone(), ordinal);
        self.uris.push(uri);
        self.shard_of.push(shard);
        GlobalId(ordinal)
    }

    /// Number of agents in the universe.
    pub fn len(&self) -> usize {
        self.uris.len()
    }

    /// True when the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.uris.is_empty()
    }

    /// The URI of a global ordinal.
    pub fn uri(&self, id: GlobalId) -> &str {
        &self.uris[id.index()]
    }

    /// The shard owning a global ordinal.
    pub fn shard_of(&self, id: GlobalId) -> u32 {
        self.shard_of[id.index()]
    }

    /// Looks up an agent by URI.
    pub fn by_uri(&self, uri: &str) -> Option<GlobalId> {
        self.by_uri.get(uri).copied().map(GlobalId)
    }

    /// Iterates `(ordinal, uri, shard)` in ordinal order.
    pub fn iter(&self) -> impl Iterator<Item = (GlobalId, &str, u32)> {
        self.uris
            .iter()
            .zip(&self.shard_of)
            .enumerate()
            .map(|(i, (uri, &shard))| (GlobalId(i as u32), uri.as_str(), shard))
    }
}

/// A pluggable agent-to-shard assignment.
///
/// `partition` assigns every agent of a community at once (and may inspect
/// the trust graph); `route` must place an agent it has never seen — it is
/// used for delta-added agents and need not agree with `partition` for
/// graph-aware implementations.
pub trait ShardFn: Send + Sync {
    /// Short identifier for reports and metrics.
    fn name(&self) -> &'static str;

    /// Assigns each agent (by global id index) to a shard in `0..shards`.
    fn partition(&self, community: &Community, shards: usize) -> Vec<u32>;

    /// Routes a single URI (e.g. a delta-added agent) to a shard.
    fn route(&self, uri: &str, shards: usize) -> u32;
}

/// Stateless FNV-1a hash partitioning — the default.
///
/// Placement depends only on the agent URI, so `route` and `partition`
/// always agree and a re-partition at the same shard count is a no-op.
#[derive(Clone, Copy, Debug, Default)]
pub struct HashShardFn;

impl ShardFn for HashShardFn {
    fn name(&self) -> &'static str {
        "hash"
    }

    fn partition(&self, community: &Community, shards: usize) -> Vec<u32> {
        community
            .agents()
            .map(|a| {
                let uri = &community.agent(a).expect("dense agent ids").uri;
                self.route(uri, shards)
            })
            .collect()
    }

    fn route(&self, uri: &str, shards: usize) -> u32 {
        (fnv1a64(uri.as_bytes()) % shards.max(1) as u64) as u32
    }
}

/// Community-aware partitioning: greedy label refinement over the trust
/// graph, starting from the hash assignment.
///
/// Each pass visits agents in id order and moves an agent to the shard
/// holding the plurality of its trust neighbors (outgoing trustees plus
/// incoming trusters), subject to a balance cap of
/// `ceil(n / shards) · slack`. Ties prefer the lowest shard index, then
/// the current assignment. The process is deterministic: no randomness,
/// fixed visit order, fixed pass count.
#[derive(Clone, Copy, Debug)]
pub struct CommunityShardFn {
    /// Refinement passes over the whole community (default 3).
    pub passes: usize,
    /// Balance slack multiplier ≥ 1.0 (default 1.15).
    pub slack: f64,
}

impl Default for CommunityShardFn {
    fn default() -> Self {
        CommunityShardFn { passes: 3, slack: 1.15 }
    }
}

impl ShardFn for CommunityShardFn {
    fn name(&self) -> &'static str {
        "community"
    }

    fn partition(&self, community: &Community, shards: usize) -> Vec<u32> {
        let mut assignment = HashShardFn.partition(community, shards);
        if shards <= 1 {
            return assignment;
        }
        let n = assignment.len();
        let cap = ((n.div_ceil(shards)) as f64 * self.slack.max(1.0)).ceil() as usize;
        let mut sizes = vec![0usize; shards];
        for &s in &assignment {
            sizes[s as usize] += 1;
        }
        let mut affinity = vec![0usize; shards];
        for _ in 0..self.passes {
            let mut moved = false;
            for agent in community.agents() {
                affinity.iter_mut().for_each(|c| *c = 0);
                for &(trustee, _) in community.trust.out_edges(agent) {
                    affinity[assignment[trustee.index()] as usize] += 1;
                }
                for &truster in community.trust.trusters_of(agent) {
                    affinity[assignment[truster.index()] as usize] += 1;
                }
                let current = assignment[agent.index()] as usize;
                let mut best = current;
                for (shard, &count) in affinity.iter().enumerate() {
                    if shard == current {
                        continue;
                    }
                    // Strictly better affinity and room under the cap; on
                    // equal affinity the lower shard index wins over a
                    // higher candidate but never displaces `current`.
                    let beats = count > affinity[best]
                        || (count == affinity[best] && best != current && shard < best);
                    if beats && sizes[shard] < cap {
                        best = shard;
                    }
                }
                if best != current && affinity[best] > affinity[current] {
                    sizes[current] -= 1;
                    sizes[best] += 1;
                    assignment[agent.index()] = best as u32;
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
        assignment
    }

    fn route(&self, uri: &str, shards: usize) -> u32 {
        HashShardFn.route(uri, shards)
    }
}

/// Counts edges whose endpoints live on different shards.
pub fn cut_edges(community: &Community, assignment: &[u32]) -> (usize, usize) {
    let mut cut = 0;
    let mut total = 0;
    for agent in community.agents() {
        for &(trustee, _) in community.trust.out_edges(agent) {
            total += 1;
            if assignment[agent.index()] != assignment[trustee.index()] {
                cut += 1;
            }
        }
    }
    (cut, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_taxonomy::fixtures::example1;

    fn community(n: usize) -> Community {
        let e = example1();
        let mut c = Community::new(e.fig.taxonomy, e.catalog);
        for i in 0..n {
            c.add_agent(format!("http://agents.example.org/{i}#me")).unwrap();
        }
        c
    }

    #[test]
    fn hash_routes_and_partitions_agree() {
        let c = community(64);
        let assignment = HashShardFn.partition(&c, 4);
        for a in c.agents() {
            let uri = &c.agent(a).unwrap().uri;
            assert_eq!(assignment[a.index()], HashShardFn.route(uri, 4));
        }
        assert!(assignment.iter().any(|&s| s != assignment[0]), "4 shards must be used");
    }

    #[test]
    fn single_shard_puts_everyone_on_zero() {
        let c = community(10);
        assert!(HashShardFn.partition(&c, 1).iter().all(|&s| s == 0));
    }

    #[test]
    fn community_fn_reduces_cut_on_clustered_graph() {
        // Two 16-agent cliques joined by one bridge edge.
        let mut c = community(32);
        let ids: Vec<_> = c.agents().collect();
        for block in 0..2 {
            let base = block * 16;
            for i in 0..16usize {
                let t = (i + 1) % 16;
                c.trust.set_trust(ids[base + i], ids[base + t], 1.0).unwrap();
                let t2 = (i + 5) % 16;
                c.trust.set_trust(ids[base + i], ids[base + t2], 0.8).unwrap();
            }
        }
        c.trust.set_trust(ids[0], ids[16], 0.5).unwrap();
        let hash = HashShardFn.partition(&c, 2);
        let refined = CommunityShardFn::default().partition(&c, 2);
        let (hash_cut, total) = cut_edges(&c, &hash);
        let (refined_cut, _) = cut_edges(&c, &refined);
        assert!(total > 0);
        assert!(
            refined_cut <= hash_cut,
            "refinement must not worsen the cut ({refined_cut} vs {hash_cut})"
        );
    }

    #[test]
    fn community_fn_is_deterministic() {
        let mut c = community(40);
        let ids: Vec<_> = c.agents().collect();
        for i in 0..40usize {
            c.trust.set_trust(ids[i], ids[(i * 7 + 3) % 40], 0.9).unwrap();
        }
        let a = CommunityShardFn::default().partition(&c, 4);
        let b = CommunityShardFn::default().partition(&c, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn directory_round_trips_lookups() {
        let mut d = Directory::default();
        let a = d.push("http://a".into(), 1);
        let b = d.push("http://b".into(), 0);
        assert_eq!(d.len(), 2);
        assert_eq!(d.uri(a), "http://a");
        assert_eq!(d.shard_of(b), 0);
        assert_eq!(d.by_uri("http://b"), Some(b));
        assert_eq!(d.by_uri("http://c"), None);
        assert_eq!(d.iter().count(), 2);
    }
}
