//! The CAS-versioned fleet policy store.
//!
//! One op-head version counter coordinates every writer, tandem-style:
//! there is no application-level write lock around the *work* of a
//! publish. A writer reads the head, builds a merged snapshot against
//! what it read, and commits with a compare-and-swap on the head; if
//! another writer got there first the CAS fails and the writer
//! automatically retries against the new head, merging its delta into
//! the fresher state. Every delta therefore lands exactly once, commits
//! are totally ordered by version, and concurrent writers converge — the
//! property `tests/fleet_model.rs` checks against a reference model.
//!
//! Snapshots are immutable and `Arc`-shared: a reader (or the transport)
//! holding version `v` keeps a complete, internally consistent binding
//! table no matter what later writers do. That immutability is what
//! makes the host-side apply torn-free: a host installs a whole snapshot
//! with one pointer swap or not at all.
//!
//! The binding table of a snapshot is a [`Bindings`]: a persistent
//! B-tree whose nodes are `Arc`-shared between versions. A merge copies
//! only the root-to-leaf paths of the tenants its delta touches and
//! shares every other node with its base, so a publish of `k` bindings
//! costs O(k · log n) time and memory at `n` tenants instead of a copy
//! of the whole table, and a retained version costs only its copied
//! paths.
//!
//! Per-tenant resolution goes through a [`TenantIndex`]: the
//! `tenant → policy id` half of the head snapshot mirrored into sharded
//! `cbpf::map` hash slabs, so the hot lookup is O(1) slab probing rather
//! than a tree walk, and a 1M-tenant fleet spreads across
//! `ceil(tenants / 32768)` shards (each map caps at
//! [`cbpf::map::MAX_MAP_ENTRIES`] slots).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cbpf::map::{Map, MapDef, MapKind, MAX_MAP_ENTRIES};
use parking_lot::Mutex;
use telemetry::{self, EventKind};

/// Entries per leaf and children per inner node of a [`Bindings`] tree;
/// one more splits the node in two.
const FANOUT: usize = 32;

/// A [`Bindings`] tree node. Leaves hold sorted `(tenant, policy)`
/// entries; in an inner node `keys[i]` is the least tenant under
/// `children[i + 1]`.
#[derive(Clone)]
enum Node {
    Leaf(Vec<(u64, u64)>),
    Inner {
        keys: Vec<u64>,
        children: Vec<Arc<Node>>,
    },
}

/// A `tenant → policy id` table that shares structure between versions:
/// an insert-only B-tree of `Arc` nodes.
///
/// Cloning is one `Arc` clone. An insert path-copies the nodes it passes
/// through that are shared with another table and mutates in place the
/// ones it already owns, so a clone is never changed by inserts into
/// the original, a table built by one merge copies each node at most
/// once, and a merge of `k` bindings on an `n`-tenant base copies at
/// most `k` root-to-leaf paths of O(log n) nodes. Iteration is in
/// ascending tenant order, like the `BTreeMap` it replaces. There is no
/// removal: a delta never unbinds a tenant.
#[derive(Clone)]
pub struct Bindings {
    root: Arc<Node>,
    len: usize,
}

impl Default for Bindings {
    fn default() -> Bindings {
        Bindings {
            root: Arc::new(Node::Leaf(Vec::new())),
            len: 0,
        }
    }
}

/// Where a node of `len` entries that just took an insert at `at`
/// splits. An insert at the end keeps the left node full, so tenants
/// bound in ascending order pack nodes densely instead of half full.
fn split_point(len: usize, at: usize) -> usize {
    if at + 1 == len {
        len - 1
    } else {
        len / 2
    }
}

/// Moves `v[at..]` into a new node vector with room for a full node
/// plus the insert that overflows it, so nodes filled by appends never
/// reallocate.
fn split_off<T>(v: &mut Vec<T>, at: usize) -> Vec<T> {
    let mut right = Vec::with_capacity(FANOUT + 1);
    right.extend(v.drain(at..));
    right
}

/// Binds `tenant` to `policy` under `node`. Returns the policy it
/// replaced and, if `node` overflowed, the separator key and new right
/// sibling its parent must adopt.
fn insert(
    node: &mut Arc<Node>,
    tenant: u64,
    policy: u64,
) -> (Option<u64>, Option<(u64, Arc<Node>)>) {
    match Arc::make_mut(node) {
        Node::Leaf(entries) => match entries.binary_search_by_key(&tenant, |e| e.0) {
            Ok(i) => (Some(std::mem::replace(&mut entries[i].1, policy)), None),
            Err(i) => {
                entries.insert(i, (tenant, policy));
                if entries.len() <= FANOUT {
                    return (None, None);
                }
                let right = split_off(entries, split_point(entries.len(), i));
                (None, Some((right[0].0, Arc::new(Node::Leaf(right)))))
            }
        },
        Node::Inner { keys, children } => {
            let i = keys.partition_point(|k| *k <= tenant);
            let (old, split) = insert(&mut children[i], tenant, policy);
            let Some((sep, sibling)) = split else {
                return (old, None);
            };
            keys.insert(i, sep);
            children.insert(i + 1, sibling);
            if children.len() <= FANOUT {
                return (old, None);
            }
            let at = split_point(children.len(), i + 1);
            let right = Node::Inner {
                keys: split_off(keys, at),
                children: split_off(children, at),
            };
            let sep = keys.pop().expect("an overflowing inner node has keys");
            (old, Some((sep, Arc::new(right))))
        }
    }
}

impl Bindings {
    /// Binds `tenant` to `policy`, returning the policy it was bound to.
    fn insert(&mut self, tenant: u64, policy: u64) -> Option<u64> {
        let (old, split) = insert(&mut self.root, tenant, policy);
        if let Some((sep, right)) = split {
            let left = Arc::clone(&self.root);
            self.root = Arc::new(Node::Inner {
                keys: vec![sep],
                children: vec![left, right],
            });
        }
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The policy `tenant` is bound to.
    pub fn get(&self, tenant: &u64) -> Option<&u64> {
        let mut node = &*self.root;
        loop {
            match node {
                Node::Leaf(entries) => {
                    let i = entries.binary_search_by_key(tenant, |e| e.0).ok()?;
                    return Some(&entries[i].1);
                }
                Node::Inner { keys, children } => {
                    node = &children[keys.partition_point(|k| k <= tenant)];
                }
            }
        }
    }

    /// Number of bound tenants.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no tenant is bound.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `(tenant, policy)` pairs in ascending tenant order.
    pub fn iter(&self) -> Iter<'_> {
        let mut it = Iter {
            stack: Vec::new(),
            leaf: [].iter(),
        };
        it.descend(&self.root);
        it
    }

    /// Policy ids in ascending tenant order.
    pub fn values(&self) -> impl Iterator<Item = &u64> {
        self.iter().map(|(_, p)| p)
    }

    /// Levels from the root to the leaves (1 for a lone leaf).
    pub fn height(&self) -> usize {
        // Every root-to-leaf path of a B-tree has the same length.
        self.path(0).len()
    }

    /// How many levels of the subtree holding `tenant`, counted up from
    /// its leaf, `self` and `other` share as the same allocations: 0 if
    /// the leaf was copied, [`Bindings::height`] if the whole table is
    /// shared. Shows structural sharing between versions.
    pub fn shared_height(&self, other: &Bindings, tenant: u64) -> usize {
        let (a, b) = (self.path(tenant), other.path(tenant));
        a.iter()
            .rev()
            .zip(b.iter().rev())
            .take_while(|(x, y)| Arc::ptr_eq(x, y))
            .count()
    }

    /// The nodes from the root to the leaf `tenant` routes to.
    fn path(&self, tenant: u64) -> Vec<&Arc<Node>> {
        let mut path = vec![&self.root];
        while let Node::Inner { keys, children } = &**path[path.len() - 1] {
            path.push(&children[keys.partition_point(|k| *k <= tenant)]);
        }
        path
    }
}

/// Ascending iterator over a [`Bindings`] table.
pub struct Iter<'a> {
    /// Unvisited children of each inner node above the current leaf.
    stack: Vec<std::slice::Iter<'a, Arc<Node>>>,
    leaf: std::slice::Iter<'a, (u64, u64)>,
}

impl<'a> Iter<'a> {
    /// Walks down the leftmost edge of `node` to its first leaf.
    fn descend(&mut self, mut node: &'a Node) {
        loop {
            match node {
                Node::Leaf(entries) => {
                    self.leaf = entries.iter();
                    return;
                }
                Node::Inner { children, .. } => {
                    let mut rest = children.iter();
                    node = rest.next().expect("an inner node has children");
                    self.stack.push(rest);
                }
            }
        }
    }
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a u64, &'a u64);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((t, p)) = self.leaf.next() {
                return Some((t, p));
            }
            let next = loop {
                match self.stack.last_mut()?.next() {
                    Some(child) => break child,
                    None => {
                        self.stack.pop();
                    }
                }
            };
            self.descend(next);
        }
    }
}

impl<'a> IntoIterator for &'a Bindings {
    type Item = (&'a u64, &'a u64);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl std::fmt::Debug for Bindings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl PartialEq<BTreeMap<u64, u64>> for Bindings {
    fn eq(&self, other: &BTreeMap<u64, u64>) -> bool {
        self.len == other.len() && self.iter().eq(other.iter())
    }
}

/// One immutable published state of the fleet: the complete
/// `tenant → policy` binding table plus every sealed artifact those
/// bindings reference.
#[derive(Debug)]
pub struct Snapshot {
    /// The op-head value this snapshot committed as.
    pub version: u64,
    /// Complete binding table: tenant id → policy id, sharing every
    /// node the commit did not touch with the previous version.
    pub bindings: Bindings,
    /// Sealed wire artifacts (`cbpf::wire`) by policy id.
    pub artifacts: BTreeMap<u64, Arc<Vec<u8>>>,
}

impl Snapshot {
    /// The empty pre-publish state (version 0).
    fn genesis() -> Arc<Snapshot> {
        Arc::new(Snapshot {
            version: 0,
            bindings: Bindings::default(),
            artifacts: BTreeMap::new(),
        })
    }

    /// Order- and content-sensitive fold of the snapshot, for replay
    /// fingerprints. Artifacts fold by length and a byte sample, not a
    /// full hash — fingerprints compare runs of the same binary, not
    /// worlds across builds.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(self.version);
        for (t, p) in &self.bindings {
            mix(*t);
            mix(*p);
        }
        for (p, a) in &self.artifacts {
            mix(*p);
            mix(a.len() as u64);
        }
        h
    }
}

/// A writer's intent: bindings to overwrite and artifacts to add. A
/// delta is position-independent — merging it into any base snapshot
/// yields a state containing the delta, which is why retry-merge
/// converges.
#[derive(Clone, Debug, Default)]
pub struct Delta {
    /// `tenant → policy id` bindings this publish sets (last writer
    /// wins per tenant).
    pub bindings: Vec<(u64, u64)>,
    /// Sealed artifacts this publish introduces, by policy id.
    pub artifacts: Vec<(u64, Arc<Vec<u8>>)>,
}

impl Delta {
    /// A delta binding every tenant in `tenants` to `policy`, shipping
    /// `artifact` under that policy id.
    pub fn bind_all(tenants: &[u64], policy: u64, artifact: Arc<Vec<u8>>) -> Delta {
        Delta {
            bindings: tenants.iter().map(|t| (*t, policy)).collect(),
            artifacts: vec![(policy, artifact)],
        }
    }
}

/// Why a conditional publish was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The expected head was stale: someone published first. Carries the
    /// current head so the caller can merge and retry.
    StaleHead {
        /// What the writer expected.
        expected: u64,
        /// What the store is actually at.
        current: u64,
    },
    /// A delta referenced a policy id with no artifact in the delta or
    /// the base snapshot.
    MissingArtifact(u64),
    /// The tenant index shard rejected an insert (slab full).
    IndexFull(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::StaleHead { expected, current } => {
                write!(f, "stale head: expected {expected}, store is at {current}")
            }
            StoreError::MissingArtifact(p) => {
                write!(f, "binding references policy {p} but no artifact is published")
            }
            StoreError::IndexFull(d) => write!(f, "tenant index full: {d}"),
        }
    }
}

/// Sharded `tenant → policy id` index over `cbpf::map` hash slabs.
pub struct TenantIndex {
    shards: Vec<Map>,
    /// Power-of-two shard count, so routing is a mask.
    mask: u64,
}

/// Keep hash slabs at most half full: open addressing probe chains stay
/// short and inserts can't fail until genuinely past capacity.
const SHARD_BUDGET: usize = MAX_MAP_ENTRIES / 2;

impl TenantIndex {
    /// An index sized for `expected_tenants` concurrent bindings.
    pub fn new(expected_tenants: usize) -> TenantIndex {
        let n = expected_tenants.div_ceil(SHARD_BUDGET).max(1).next_power_of_two();
        let shards = (0..n)
            .map(|i| {
                Map::new(MapDef {
                    name: format!("fleet_tenants_{i}"),
                    kind: MapKind::Hash,
                    key_size: 8,
                    value_size: 8,
                    max_entries: MAX_MAP_ENTRIES,
                })
            })
            .collect();
        TenantIndex {
            shards,
            mask: (n - 1) as u64,
        }
    }

    /// Shard routing: splitmix finalize so sequential tenant ids spread
    /// evenly instead of striping one shard.
    fn shard_of(&self, tenant: u64) -> usize {
        let mut x = tenant.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((x ^ (x >> 31)) & self.mask) as usize
    }

    fn shard(&self, tenant: u64) -> &Map {
        &self.shards[self.shard_of(tenant)]
    }

    /// Checks that every shard has a free slot for each of its `fresh`
    /// new tenants (`fresh[i]` counts shard `i`'s).
    ///
    /// # Errors
    ///
    /// [`StoreError::IndexFull`] naming the first shard short of slots.
    fn check_room(&self, fresh: &[usize]) -> Result<(), StoreError> {
        for (i, (shard, &n)) in self.shards.iter().zip(fresh).enumerate() {
            let free = shard.def().max_entries - shard.len();
            if n > free {
                return Err(StoreError::IndexFull(format!(
                    "shard {i}: {n} new tenant(s), {free} free slot(s)"
                )));
            }
        }
        Ok(())
    }

    /// Points `tenant` at `policy`.
    ///
    /// # Errors
    ///
    /// [`StoreError::IndexFull`] when the routed shard is out of slots.
    pub fn bind(&self, tenant: u64, policy: u64) -> Result<(), StoreError> {
        self.shard(tenant)
            .update(&tenant.to_le_bytes(), &policy.to_le_bytes(), 0)
            .map_err(|e| StoreError::IndexFull(format!("tenant {tenant}: {e:?}")))
    }

    /// The policy id `tenant` is bound to, if any. O(1): one shard
    /// probe.
    pub fn lookup(&self, tenant: u64) -> Option<u64> {
        let v = self.shard(tenant).lookup_copy(&tenant.to_le_bytes(), 0)?;
        Some(u64::from_le_bytes(v.try_into().ok()?))
    }

    /// Total bindings across every shard.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Map::len).sum()
    }

    /// Whether no tenant is bound.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of slab shards backing the index.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

/// The fleet policy store: op-head version counter, immutable snapshot
/// history, sharded tenant index. See the module docs for the
/// concurrency story.
pub struct PolicyStore {
    /// The op-head: the single word every writer coordinates through.
    head: AtomicU64,
    /// Version → snapshot. Only the *commit* section holds this lock;
    /// merge work happens outside it against `Arc` snapshots.
    snapshots: Mutex<BTreeMap<u64, Arc<Snapshot>>>,
    index: TenantIndex,
    /// CAS conflicts observed (each one cost a writer a retry-merge).
    conflicts: AtomicU64,
    /// Successful publishes.
    publishes: AtomicU64,
}

impl PolicyStore {
    /// An empty store (head 0) whose index is sized for
    /// `expected_tenants`.
    pub fn new(expected_tenants: usize) -> PolicyStore {
        let mut snapshots = BTreeMap::new();
        snapshots.insert(0, Snapshot::genesis());
        PolicyStore {
            head: AtomicU64::new(0),
            snapshots: Mutex::new(snapshots),
            index: TenantIndex::new(expected_tenants),
            conflicts: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
        }
    }

    /// The current op-head version.
    pub fn head(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// The snapshot committed as version `v`.
    pub fn snapshot(&self, v: u64) -> Option<Arc<Snapshot>> {
        self.snapshots.lock().get(&v).cloned()
    }

    /// The head snapshot.
    pub fn head_snapshot(&self) -> Arc<Snapshot> {
        let snaps = self.snapshots.lock();
        let head = self.head.load(Ordering::Acquire);
        Arc::clone(
            snaps
                .get(&head)
                .expect("op-head always has a committed snapshot"),
        )
    }

    /// CAS conflicts writers have hit so far.
    pub fn conflicts(&self) -> u64 {
        self.conflicts.load(Ordering::Relaxed)
    }

    /// Successful publishes so far.
    pub fn publishes(&self) -> u64 {
        self.publishes.load(Ordering::Relaxed)
    }

    /// Resolves `tenant` to its bound policy id and sealed artifact at
    /// the head, via the sharded index (O(1) probe, then one artifact
    /// fetch from the head snapshot).
    pub fn resolve(&self, tenant: u64) -> Option<(u64, Arc<Vec<u8>>)> {
        let policy = self.index.lookup(tenant)?;
        let art = Arc::clone(self.head_snapshot().artifacts.get(&policy)?);
        Some((policy, art))
    }

    /// The index backing [`PolicyStore::resolve`].
    pub fn index(&self) -> &TenantIndex {
        &self.index
    }

    /// Builds the snapshot `delta` produces on top of `base`, calling
    /// `fresh` once for each tenant `base` did not bind. The binding
    /// table starts as a clone of `base`'s root, so the merge copies only
    /// the paths to the delta's tenants.
    fn merge(
        base: &Snapshot,
        delta: &Delta,
        version: u64,
        mut fresh: impl FnMut(u64),
    ) -> Result<Snapshot, StoreError> {
        let mut bindings = base.bindings.clone();
        let mut artifacts = base.artifacts.clone();
        for (p, a) in &delta.artifacts {
            artifacts.insert(*p, Arc::clone(a));
        }
        for (t, p) in &delta.bindings {
            if !artifacts.contains_key(p) {
                return Err(StoreError::MissingArtifact(*p));
            }
            if bindings.insert(*t, *p).is_none() {
                fresh(*t);
            }
        }
        Ok(Snapshot {
            version,
            bindings,
            artifacts,
        })
    }

    /// Publishes `delta` against an expected head, the conditional
    /// (no-retry) surface `c3ctl fleet publish … expect N` exposes.
    ///
    /// The merge work runs against the snapshot at `expected_head`
    /// without any lock; only the commit — check the index has room, CAS
    /// the head, insert the snapshot, mirror the bindings into the index
    /// — runs under the snapshot-map mutex (`resolve` takes it only to
    /// clone the head snapshot's `Arc`). A delta that is malformed or
    /// too big for the index is refused before the CAS and leaves no
    /// trace.
    ///
    /// # Errors
    ///
    /// [`StoreError::StaleHead`] when someone published first (the CAS
    /// lost); [`StoreError::MissingArtifact`] /
    /// [`StoreError::IndexFull`] on malformed or oversized deltas.
    pub fn try_publish(&self, expected_head: u64, delta: &Delta) -> Result<u64, StoreError> {
        let base = self
            .snapshot(expected_head)
            .ok_or(StoreError::StaleHead {
                expected: expected_head,
                current: self.head(),
            })?;
        let next = expected_head + 1;
        let mut fresh = vec![0usize; self.index.shard_count()];
        let merged = Arc::new(Self::merge(&base, delta, next, |t| {
            fresh[self.index.shard_of(t)] += 1;
        })?);

        let mut snaps = self.snapshots.lock();
        // Only this section moves the head or binds, so while it holds
        // the lock at `expected_head` the index mirrors `base` and
        // `fresh` counts exactly the slots the binds below will take.
        // (A hash shard's probe table can still saturate a little early
        // under adversarial keys; see `cbpf::map`.)
        if self.head() == expected_head {
            self.index.check_room(&fresh)?;
        }
        if self
            .head
            .compare_exchange(expected_head, next, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            self.conflicts.fetch_add(1, Ordering::Relaxed);
            telemetry::metrics()
                .counter("c3_fleet_cas_conflicts_total")
                .inc();
            return Err(StoreError::StaleHead {
                expected: expected_head,
                current: self.head(),
            });
        }
        snaps.insert(next, Arc::clone(&merged));
        // Mirror the delta into the index while still inside the commit
        // section: binds land in commit order, so the index always
        // agrees with the head snapshot.
        for (t, p) in &delta.bindings {
            self.index.bind(*t, *p)?;
        }
        drop(snaps);
        self.publishes.fetch_add(1, Ordering::Relaxed);
        let m = telemetry::metrics();
        m.counter("c3_fleet_publishes_total").inc();
        m.gauge("c3_fleet_store_head").set(next as i64);
        if telemetry::armed() {
            telemetry::emit(
                EventKind::FleetPublish,
                0,
                0,
                next,
                delta.bindings.len() as u64,
                delta.artifacts.len() as u64,
                self.conflicts(),
            );
        }
        Ok(next)
    }

    /// Publishes `delta`, automatically retry-merging on CAS conflict
    /// until it commits (tandem-style). Returns the committed version.
    ///
    /// # Errors
    ///
    /// Only delta errors ([`StoreError::MissingArtifact`],
    /// [`StoreError::IndexFull`]) — staleness is absorbed by the retry
    /// loop.
    pub fn publish(&self, delta: &Delta) -> Result<u64, StoreError> {
        loop {
            let head = self.head();
            match self.try_publish(head, delta) {
                Ok(v) => return Ok(v),
                Err(StoreError::StaleHead { .. }) => {
                    telemetry::metrics().counter("c3_fleet_retries_total").inc();
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn art(tag: u8) -> Arc<Vec<u8>> {
        Arc::new(vec![tag; 8])
    }

    #[test]
    fn publish_advances_head_and_resolves() {
        let store = PolicyStore::new(64);
        let v = store
            .publish(&Delta::bind_all(&[1, 2, 3], 10, art(1)))
            .unwrap();
        assert_eq!(v, 1);
        assert_eq!(store.head(), 1);
        let (p, a) = store.resolve(2).unwrap();
        assert_eq!(p, 10);
        assert_eq!(*a, vec![1u8; 8]);
        assert_eq!(store.resolve(4), None);
    }

    #[test]
    fn stale_head_is_typed_and_carries_current() {
        let store = PolicyStore::new(16);
        store.publish(&Delta::bind_all(&[1], 10, art(1))).unwrap();
        let err = store
            .try_publish(0, &Delta::bind_all(&[2], 11, art(2)))
            .unwrap_err();
        assert_eq!(
            err,
            StoreError::StaleHead {
                expected: 0,
                current: 1
            }
        );
        assert_eq!(store.conflicts(), 1); // the CAS genuinely lost
    }

    #[test]
    fn concurrent_writers_converge() {
        let store = Arc::new(PolicyStore::new(1 << 10));
        let mut handles = Vec::new();
        for w in 0..8u64 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..16u64 {
                    let tenant = w * 16 + i;
                    store
                        .publish(&Delta::bind_all(&[tenant], 100 + w, art(w as u8)))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.head(), 128);
        assert_eq!(store.publishes(), 128);
        let head = store.head_snapshot();
        assert_eq!(head.bindings.len(), 128);
        for w in 0..8u64 {
            for i in 0..16u64 {
                let tenant = w * 16 + i;
                assert_eq!(store.index().lookup(tenant), Some(100 + w));
                assert_eq!(head.bindings.get(&tenant), Some(&(100 + w)));
            }
        }
    }

    #[test]
    fn missing_artifact_is_rejected() {
        let store = PolicyStore::new(16);
        let delta = Delta {
            bindings: vec![(1, 99)],
            artifacts: Vec::new(),
        };
        assert_eq!(store.publish(&delta), Err(StoreError::MissingArtifact(99)));
        assert_eq!(store.head(), 0);
    }

    #[test]
    fn index_shards_scale_with_expected_tenants() {
        assert_eq!(TenantIndex::new(1).shard_count(), 1);
        assert_eq!(TenantIndex::new(100_000).shard_count(), 4);
        assert_eq!(TenantIndex::new(1_000_000).shard_count(), 32);
        let idx = TenantIndex::new(1 << 12);
        for t in 0..4096u64 {
            idx.bind(t, t % 7).unwrap();
        }
        assert_eq!(idx.len(), 4096);
        for t in 0..4096u64 {
            assert_eq!(idx.lookup(t), Some(t % 7));
        }
    }

    #[test]
    fn index_full_publish_leaves_no_trace() {
        // One shard of MAX_MAP_ENTRIES slots.
        let store = PolicyStore::new(16);
        let too_many: Vec<u64> = (0..70_000).collect();
        let err = store
            .publish(&Delta::bind_all(&too_many, 10, art(1)))
            .unwrap_err();
        assert!(matches!(err, StoreError::IndexFull(_)), "{err:?}");
        assert_eq!(store.head(), 0);
        assert!(store.snapshot(1).is_none());
        assert!(store.index().is_empty());
        assert!(store.head_snapshot().bindings.is_empty());
        assert_eq!(store.resolve(0), None);
        assert_eq!(store.resolve(69_999), None);

        // Exactly full fits; past that only overwrites do.
        let full: Vec<u64> = (0..MAX_MAP_ENTRIES as u64).collect();
        assert_eq!(store.publish(&Delta::bind_all(&full, 10, art(1))), Ok(1));
        let one_more = Delta::bind_all(&[MAX_MAP_ENTRIES as u64], 11, art(2));
        assert!(matches!(
            store.publish(&one_more),
            Err(StoreError::IndexFull(_))
        ));
        assert_eq!(store.head(), 1);
        assert_eq!(store.publish(&Delta::bind_all(&[0, 5], 11, art(2))), Ok(2));
        assert_eq!(store.index().len(), MAX_MAP_ENTRIES);
        let head = store.head_snapshot();
        assert_eq!(head.bindings.len(), MAX_MAP_ENTRIES);
        for t in [0, 1, 5, MAX_MAP_ENTRIES as u64 - 1, MAX_MAP_ENTRIES as u64] {
            let bound = head.bindings.get(&t).copied();
            assert_eq!(store.resolve(t).map(|r| r.0), bound, "tenant {t}");
        }
    }

    #[test]
    fn fingerprint_is_the_sorted_pair_fold() {
        let store = PolicyStore::new(4096);
        // Scrambled ids over two publishes: a multi-level tree whose
        // insertion order is not its iteration order.
        let scrambled: Vec<u64> = (0..3000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9) % 100_003)
            .collect();
        store
            .publish(&Delta::bind_all(&scrambled, 7, art(1)))
            .unwrap();
        store
            .publish(&Delta::bind_all(&scrambled[..500], 8, art(22)))
            .unwrap();
        let snap = store.head_snapshot();
        assert!(snap.bindings.height() >= 2);

        let mut pairs: BTreeMap<u64, u64> = scrambled.iter().map(|t| (*t, 7)).collect();
        for t in &scrambled[..500] {
            pairs.insert(*t, 8);
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(2);
        for (t, p) in &pairs {
            mix(*t);
            mix(*p);
        }
        for (p, len) in [(7u64, 8u64), (8, 8)] {
            mix(p);
            mix(len);
        }
        assert_eq!(snap.fingerprint(), h);
    }

    /// Splitmix finalize: the tenant-id generator of the model test.
    fn mix(seed: u64, i: u64) -> u64 {
        let mut x = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `Bindings` agrees with a `BTreeMap` model on every read, for
        /// ascending, descending, sparse and overwrite-heavy insert
        /// orders, at sizes that split leaves and inner nodes; a clone
        /// taken midway is untouched by later inserts.
        #[test]
        fn bindings_match_btreemap_model(
            order in 0u8..4,
            n in 0u64..=3000,
            seed in any::<u64>(),
            cut in 0u64..=3000,
        ) {
            // Ids start near 0 or end near u64::MAX.
            let high = seed & 1 == 1;
            let tenant = |i: u64| -> u64 {
                let t = match order {
                    0 => i * 3,                         // ascending
                    1 => (n - i) * 3,                   // descending
                    2 => mix(seed, i) >> (mix(seed, !i) % 64), // sparse, every scale
                    _ => mix(seed, i) % (n / 4 + 1),    // dense, many overwrites
                };
                if high { u64::MAX - t } else { t }
            };
            let mut b = Bindings::default();
            let mut model = BTreeMap::new();
            let mut frozen = None;
            for i in 0..n {
                if i == cut {
                    frozen = Some((b.clone(), model.clone()));
                }
                let (t, p) = (tenant(i), mix(!seed, i) % 5);
                prop_assert_eq!(b.insert(t, p), model.insert(t, p));
            }
            prop_assert_eq!(b.len(), model.len());
            prop_assert_eq!(b.is_empty(), model.is_empty());
            prop_assert!(b.iter().eq(model.iter()));
            prop_assert!(b.values().eq(model.values()));
            prop_assert_eq!(&b, &model);
            for i in 0..n {
                let t = tenant(i);
                prop_assert_eq!(b.get(&t), model.get(&t));
                let near = t.wrapping_add(1);
                prop_assert_eq!(b.get(&near), model.get(&near));
            }
            prop_assert_eq!(b.get(&0), model.get(&0));
            prop_assert_eq!(b.get(&u64::MAX), model.get(&u64::MAX));
            if let Some((snap, snap_model)) = frozen {
                prop_assert_eq!(&snap, &snap_model);
            }
        }
    }
}
