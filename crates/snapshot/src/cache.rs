//! The page cache (§4.2).
//!
//! "The need to execute HtmlDiff on the server can result in high
//! processor loads if the facility is heavily used. These loads can be
//! alleviated by caching the output of HtmlDiff for a while, so many
//! users who have seen versions N and N+1 of a page could retrieve
//! HtmlDiff(pageN, pageN+1) with a single invocation of HtmlDiff."
//!
//! One cache holds every rendered page the facility hands out: HtmlDiff
//! output, BASE-rewritten revisions, and the history and TimeMap pages
//! the serving layer renders. Each key names immutable archive state —
//! revision identifiers, or an ETag derived from them — so an entry is
//! never stale: there is no TTL and no invalidation, only eviction.
//!
//! The cache is split into shards picked by key hash, each behind its own
//! mutex and each holding an equal share of one byte budget. A shard
//! evicts its least recently used entries, ordered by a per-shard tick
//! that every hit and insertion advances, never by the clock: under a
//! frozen virtual clock every entry would tie, while ticks never do, so
//! the same calls evict the same keys on every run. Shard guards are held
//! only for the map operation itself, never while rendering, per the
//! lock-ordering invariant in [`crate::locks`].

use aide_obs::CounterCell;
use aide_util::checksum::fnv1a64;
use aide_util::sync::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Number of independently locked shards.
const SHARDS: usize = 16;

/// Cache counters: per-cache totals that tests read without a metrics
/// registry, each event counted once into
/// `snapshot.page_cache.{hit,miss,eviction}` as well.
#[derive(Debug)]
pub struct CacheStats {
    hits: CounterCell,
    misses: CounterCell,
    evictions: CounterCell,
}

impl Default for CacheStats {
    fn default() -> CacheStats {
        CacheStats {
            hits: CounterCell::new("snapshot.page_cache.hit"),
            misses: CounterCell::new("snapshot.page_cache.miss"),
            evictions: CounterCell::new("snapshot.page_cache.eviction"),
        }
    }
}

impl CacheStats {
    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Entries pushed out by the byte budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Hit ratio in `[0, 1]`.
    pub fn hit_ratio(&self) -> f64 {
        let (hits, misses) = (self.hits(), self.misses());
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }
}

struct Entry {
    page: Arc<str>,
    tick: u64,
}

#[derive(Default)]
struct Shard {
    entries: HashMap<String, Entry>,
    /// LRU order: tick → key, oldest first.
    order: BTreeMap<u64, String>,
    bytes: usize,
    /// Advanced by every hit and every insertion.
    tick: u64,
}

/// Bytes an entry charges against its shard's budget.
fn cost(key: &str, page: &str) -> usize {
    key.len() + page.len()
}

/// A sharded, byte-bounded LRU of rendered pages, keyed by strings that
/// name immutable archive state.
pub struct PageCache {
    shards: Vec<Mutex<Shard>>,
    shard_budget: usize,
    stats: CacheStats,
}

impl PageCache {
    /// A cache holding at most `budget_bytes` of keys and pages, split
    /// evenly over its shards. A budget of zero caches nothing.
    pub fn new(budget_bytes: usize) -> PageCache {
        PageCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: budget_bytes / SHARDS,
            stats: CacheStats::default(),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        &self.shards[fnv1a64(key.as_bytes()) as usize % SHARDS]
    }

    /// Looks up `key`, refreshing its LRU position. Counts a hit or a
    /// miss either way.
    fn get(&self, key: &str) -> Option<Arc<str>> {
        let found = {
            let mut guard = self.shard(key).lock();
            let shard = &mut *guard;
            shard.entries.get_mut(key).map(|entry| {
                shard.tick += 1;
                if let Some(k) = shard.order.remove(&entry.tick) {
                    shard.order.insert(shard.tick, k);
                }
                entry.tick = shard.tick;
                entry.page.clone()
            })
        };
        if found.is_some() {
            self.stats.hits.add(1);
        } else {
            self.stats.misses.add(1);
        }
        found
    }

    /// Stores `page` under `key` as the most recently used entry,
    /// evicting the shard's least recently used entries until it fits.
    /// A page larger than a shard's share of the budget is not stored.
    fn put(&self, key: &str, page: Arc<str>) {
        let size = cost(key, &page);
        if size > self.shard_budget {
            return;
        }
        let mut evicted = 0u64;
        {
            let mut shard = self.shard(key).lock();
            shard.tick += 1;
            let tick = shard.tick;
            if let Some(old) = shard.entries.remove(key) {
                shard.bytes -= cost(key, &old.page);
                shard.order.remove(&old.tick);
            }
            while shard.bytes + size > self.shard_budget {
                let Some((_, victim)) = shard.order.pop_first() else {
                    break;
                };
                if let Some(gone) = shard.entries.remove(&victim) {
                    shard.bytes -= cost(&victim, &gone.page);
                    evicted += 1;
                }
            }
            shard.bytes += size;
            shard.order.insert(tick, key.to_string());
            shard.entries.insert(key.to_string(), Entry { page, tick });
        }
        if evicted > 0 {
            self.stats.evictions.add(evicted);
        }
        aide_obs::gauge!("snapshot.page_cache.entries", self.len() as u64);
        aide_obs::gauge!("snapshot.page_cache.bytes", self.bytes() as u64);
    }

    /// The page under `key`, or the one `render` produces, stored for
    /// next time. The flag says whether it came from the cache. No shard
    /// guard is held while `render` runs, so two concurrent misses on one
    /// key may both render; both get the same bytes.
    pub fn get_or_render<E>(
        &self,
        key: &str,
        render: impl FnOnce() -> Result<String, E>,
    ) -> Result<(Arc<str>, bool), E> {
        if let Some(page) = self.get(key) {
            return Ok((page, true));
        }
        let page: Arc<str> = render()?.into();
        self.put(key, page.clone());
        Ok((page, false))
    }

    /// Cache counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Entries currently cached (shards visited in index order).
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    /// Bytes of keys and pages currently cached.
    pub(crate) fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(body: &str) -> Arc<str> {
        body.into()
    }

    /// Four-byte keys that all land in one shard, so a test controls
    /// exactly which entries compete for that shard's budget.
    fn same_shard_keys(n: usize) -> Vec<String> {
        let target = fnv1a64(b"k000") as usize % SHARDS;
        (0..1000)
            .map(|i| format!("k{i:03}"))
            .filter(|k| fnv1a64(k.as_bytes()) as usize % SHARDS == target)
            .take(n)
            .collect()
    }

    #[test]
    fn get_put_and_counters() {
        let c = PageCache::new(1 << 20);
        assert!(c.get("v-1").is_none());
        assert_eq!(c.stats().misses(), 1);
        c.put("v-1", page("hello"));
        assert_eq!(c.get("v-1").as_deref(), Some("hello"));
        assert_eq!(c.stats().hits(), 1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), "v-1".len() + "hello".len());
        assert!((c.stats().hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn put_get_hit() {
        let c = PageCache::new(1 << 20);
        c.put("d|u|1.1|1.2|0", page("diff html"));
        assert_eq!(c.get("d|u|1.1|1.2|0").as_deref(), Some("diff html"));
        assert_eq!(c.stats().hits(), 1);
        assert_eq!(c.stats().misses(), 0);
    }

    #[test]
    fn hit_ratio() {
        let c = PageCache::new(1 << 20);
        assert_eq!(c.stats().hit_ratio(), 0.0, "no lookups yet");
        c.put("d|u|1.1|1.2|0", page("x"));
        c.get("d|u|1.1|1.2|0");
        c.get("d|u|1.1|1.3|0");
        assert!((c.stats().hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let c = PageCache::new(1 << 20);
        c.put("d|u|1.1|1.2|0", page("a"));
        for other in ["d|u|1.2|1.1|0", "d|u|1.1|1.2|1", "d|v|1.1|1.2|0", "v|u|1.1"] {
            assert!(c.get(other).is_none(), "{other}");
        }
    }

    #[test]
    fn reinsert_refreshes_not_duplicates() {
        let c = PageCache::new(1 << 20);
        c.put("a", page("one"));
        c.put("a", page("two"));
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), 4);
        assert_eq!(c.get("a").as_deref(), Some("two"));
    }

    #[test]
    fn lru_evicts_coldest_per_shard() {
        // Each shard's share holds three 12-byte entries (4-byte key,
        // 8-byte page).
        let keys = same_shard_keys(5);
        let c = PageCache::new(36 * SHARDS);
        for k in &keys[..3] {
            c.put(k, page("8 bytes!"));
        }
        // Touch the oldest, so the second becomes least recently used.
        assert!(c.get(&keys[0]).is_some());
        c.put(&keys[3], page("8 bytes!"));
        assert!(c.get(&keys[1]).is_none(), "LRU entry evicted");
        c.put(&keys[4], page("8 bytes!"));
        assert!(c.get(&keys[2]).is_none(), "next LRU entry evicted");
        for k in [&keys[0], &keys[3], &keys[4]] {
            assert!(c.get(k).is_some(), "{k} kept");
        }
        assert_eq!(c.stats().evictions(), 2);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn eviction_order_is_the_same_on_every_run() {
        // Twelve puts into one shard that holds four entries, touching
        // the first key after each. Every fresh cache hashes with its own
        // random seed, yet each run keeps exactly the hot key and the
        // three newest: eviction follows use, never map order.
        let keys = same_shard_keys(12);
        let survivors = |c: &PageCache| -> Vec<String> {
            let shard = c.shard(&keys[0]).lock();
            let mut kept: Vec<String> = shard.order.values().cloned().collect();
            kept.sort();
            kept
        };
        for _ in 0..10 {
            let c = PageCache::new(4 * 10 * SHARDS);
            for k in &keys {
                c.put(k, page("page-x"));
                c.get(&keys[0]);
            }
            assert_eq!(
                survivors(&c),
                vec![
                    keys[0].clone(),
                    keys[9].clone(),
                    keys[10].clone(),
                    keys[11].clone()
                ]
            );
            assert_eq!(c.stats().evictions(), 8);
        }
    }

    #[test]
    fn oversized_page_is_returned_but_not_cached() {
        let c = PageCache::new(64 * SHARDS);
        let big = "x".repeat(64);
        let (p, hit) = c.get_or_render("big", || Ok::<_, ()>(big.clone())).unwrap();
        assert_eq!((&*p, hit), (big.as_str(), false));
        assert_eq!(c.len(), 0, "a page over the shard share is not kept");
        let (_, hit) = c.get_or_render("big", || Ok::<_, ()>(big.clone())).unwrap();
        assert!(!hit);
        assert_eq!(c.stats().evictions(), 0);
        // A zero budget caches nothing at all.
        let none = PageCache::new(0);
        none.put("a", page(""));
        assert_eq!(none.len(), 0);
    }

    #[test]
    fn render_errors_are_not_cached() {
        let c = PageCache::new(1 << 20);
        assert_eq!(
            c.get_or_render("k", || Err::<String, _>("gone")),
            Err("gone")
        );
        assert_eq!(c.len(), 0);
        let (p, hit) = c.get_or_render("k", || Ok::<_, ()>("ok".into())).unwrap();
        assert_eq!((&*p, hit), ("ok", false));
        let (_, hit) = c.get_or_render("k", || Ok::<_, ()>("x".into())).unwrap();
        assert!(hit);
    }

    #[test]
    fn concurrent_distinct_keys() {
        let c = Arc::new(PageCache::new(1 << 20));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for k in 0..20u64 {
                        let key = format!("v|http://h{t}/p{k}|1.1");
                        c.put(&key, key.as_str().into());
                        assert_eq!(c.get(&key).as_deref(), Some(key.as_str()));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.stats().hits(), 160);
        assert_eq!(c.len(), 160);
    }
}
