//! Reference model of the run cache's eviction rule, GreedyDual, for the
//! differential tests that hold `hypersweep_analysis::RunCache` to it.
//!
//! It is written from the rule, not from the cache's code, and for
//! plainness rather than speed: a shard is a list of residents scanned on
//! every eviction, and one clock stamps every shard.
//!
//! - A key lives on shard `DefaultHasher(key) % shards`; shard `i` keeps
//!   `total / shards` entries, plus one if `i < total % shards`.
//! - An entry costs its outcome's activations plus its team size
//!   ([`cost_of`]; sums saturate).
//! - Each shard keeps an inflation `L`, at first 0. An insert or a hit sets
//!   the entry's credit to `L + cost`.
//! - A shard over its capacity evicts the resident of lowest credit, the
//!   least recently inserted or hit among equals, and sets `L` to that
//!   credit. The entry just inserted is evicted only when it is the one
//!   resident, which happens on a shard that keeps nothing.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use hypersweep_analysis::RunKey;
use hypersweep_core::SearchOutcome;

/// The recompute cost GreedyDual ranks an outcome by: its activations plus
/// its team size, saturating.
pub fn cost_of(outcome: &SearchOutcome) -> u64 {
    outcome
        .metrics
        .activations
        .saturating_add(outcome.metrics.team_size)
}

struct Resident {
    key: RunKey,
    cost: u64,
    credit: u64,
    last_used: u64,
}

struct Shard {
    capacity: Option<usize>,
    inflation: u64,
    residents: Vec<Resident>,
}

/// A sharded GreedyDual memo of [`RunKey`]s that holds no outcomes, only
/// their costs, and counts what the run cache counts.
pub struct GreedyDual {
    shards: Vec<Shard>,
    clock: u64,
    /// Requests served from a resident entry (`get` and `probe`).
    pub hits: u64,
    /// `get` requests that found no resident entry.
    pub misses: u64,
    /// Entries evicted.
    pub evictions: u64,
    /// The evicted entries' summed cost, saturating.
    pub evicted_work: u64,
}

impl GreedyDual {
    /// `shards` shards splitting a total `capacity` (`None` = unbounded).
    pub fn new(shards: usize, capacity: Option<usize>) -> Self {
        GreedyDual {
            shards: (0..shards)
                .map(|i| Shard {
                    capacity: capacity.map(|c| c / shards + usize::from(i < c % shards)),
                    inflation: 0,
                    residents: Vec::new(),
                })
                .collect(),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            evicted_work: 0,
        }
    }

    fn shard_of(&self, key: &RunKey) -> usize {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() % self.shards.len() as u64) as usize
    }

    /// How many entries `key`'s shard keeps (`None` = unbounded).
    pub fn capacity_of(&self, key: &RunKey) -> Option<usize> {
        self.shards[self.shard_of(key)].capacity
    }

    fn is_resident(&self, key: &RunKey) -> bool {
        self.shards[self.shard_of(key)]
            .residents
            .iter()
            .any(|r| r.key == *key)
    }

    /// Every resident key, in no particular order.
    pub fn resident(&self) -> Vec<RunKey> {
        self.shards
            .iter()
            .flat_map(|s| s.residents.iter().map(|r| r.key))
            .collect()
    }

    /// A hit on `key` if it is resident: renew its credit. Counts nothing
    /// otherwise (`RunCache::line_if_ready`).
    pub fn probe(&mut self, key: RunKey) -> bool {
        self.clock += 1;
        let (clock, i) = (self.clock, self.shard_of(&key));
        let shard = &mut self.shards[i];
        let Some(r) = shard.residents.iter_mut().find(|r| r.key == key) else {
            return false;
        };
        r.credit = shard.inflation.saturating_add(r.cost);
        r.last_used = clock;
        self.hits += 1;
        true
    }

    /// A request that computes `key` at `cost` if it is not resident
    /// (`RunCache::get_or_run`): `true` on a hit, else the miss inserts it.
    pub fn get(&mut self, key: RunKey, cost: u64) -> bool {
        if self.probe(key) {
            return true;
        }
        self.misses += 1;
        self.insert(key, cost);
        false
    }

    /// A warm-load insert of `key` at `cost` (`RunCache::insert_ready`):
    /// `false`, changing nothing, if it is already resident.
    pub fn load(&mut self, key: RunKey, cost: u64) -> bool {
        if self.is_resident(&key) {
            return false;
        }
        self.clock += 1;
        self.insert(key, cost);
        true
    }

    fn insert(&mut self, key: RunKey, cost: u64) {
        let i = self.shard_of(&key);
        let shard = &mut self.shards[i];
        shard.residents.push(Resident {
            key,
            cost,
            credit: shard.inflation.saturating_add(cost),
            last_used: self.clock,
        });
        let Some(capacity) = shard.capacity else {
            return;
        };
        while shard.residents.len() > capacity {
            // The newcomer is last, and stays last; it is a candidate only
            // when it stands alone.
            let others = shard.residents.len().saturating_sub(1).max(1);
            let victim = (0..others)
                .min_by_key(|&j| (shard.residents[j].credit, shard.residents[j].last_used))
                .expect("a resident to evict");
            let victim = shard.residents.remove(victim);
            shard.inflation = victim.credit;
            self.evictions += 1;
            self.evicted_work = self.evicted_work.saturating_add(victim.cost);
        }
    }
}
