//! Resolve: query text → [`Plan`], through an LRU keyed by normalized
//! text. The compile half of the served request's pipeline; the gate and
//! the lanes only ever see a resolved plan.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use df_opt::optimize;
use df_query::{parse_query, QueryTree};
use df_relalg::Catalog;

use super::{lock, read_lock, Shared};

/// A resolved plan: the (possibly optimized) tree, its fusion key, and
/// its relation footprint, shared between the cache, the fusion index,
/// the in-flight registry, and the relation gate.
#[derive(Clone)]
pub(super) struct Plan {
    pub(super) tree: Arc<QueryTree>,
    /// The tree's `Debug` form: every operator field written out, so
    /// distinct trees get distinct keys (`render_tree` cuts long
    /// restrict labels and is for display only).
    pub(super) key: Arc<str>,
    /// Base relations the tree reads (sorted, deduped; a write also
    /// reads its target) — the invalidation read-set and the shared half
    /// of the gate request.
    pub(super) reads: Arc<[String]>,
    /// Relations the root update mutates (empty for reads) — the
    /// exclusive half of the gate request.
    pub(super) writes: Arc<[String]>,
}

impl Plan {
    pub(super) fn from_tree(tree: QueryTree) -> Plan {
        Plan {
            key: Arc::from(format!("{tree:?}")),
            reads: tree.referenced_relations().into(),
            writes: tree.written_relations().into(),
            tree: Arc::new(tree),
        }
    }
}

/// Dispatcher-owned LRU of resolved plans, keyed by normalized query
/// text plus the optimize flag. Capacity is small, so eviction is a
/// linear scan for the stalest tick — no extra list to maintain. The
/// optimizer's statistics are not kept here: they live in
/// `Shared::opt_stats`, next to the catalog, because the lane that
/// applies a write is what folds the write into them.
pub(super) struct PlanCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<(String, bool), (Plan, u64)>,
}

impl PlanCache {
    pub(super) fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity,
            tick: 0,
            entries: HashMap::new(),
        }
    }

    pub(super) fn get(&mut self, key: &(String, bool)) -> Option<Plan> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|(plan, used)| {
            *used = tick;
            plan.clone()
        })
    }

    pub(super) fn insert(&mut self, key: (String, bool), plan: Plan) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some(stalest) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&stalest);
            }
        }
        self.entries.insert(key, (plan, self.tick));
    }

    /// Relation-scoped invalidation: evict exactly the entries whose
    /// read-set intersects `written` (sorted, as
    /// [`QueryTree::written_relations`] returns it), and return how many
    /// were evicted. Entries reading only untouched relations survive,
    /// so `parses == plan_cache_misses` stays a per-relation invariant:
    /// a plan is re-parsed only when a relation it reads changed. The
    /// statistics are not invalidated at all: the write's change is folded
    /// into them where it is applied (`run_write_task`).
    pub(super) fn evict_reading(&mut self, written: &[String]) -> u64 {
        let before = self.entries.len();
        self.entries
            .retain(|_, (plan, _)| !plan.reads.iter().any(|r| written.binary_search(r).is_ok()));
        (before - self.entries.len()) as u64
    }

    /// Resolve query text to a plan: hit the cache, or parse once (and
    /// optionally optimize) and fill it. The single `parse_query` call —
    /// counted in `ServeStats::parses` — is shared by the
    /// optimizer-failure fallback, which reuses the already-parsed tree
    /// instead of parsing the same text a second time.
    pub(super) fn resolve(
        &mut self,
        shared: &Shared,
        text: &str,
        optimizing: bool,
    ) -> Result<Plan, String> {
        let stats = &shared.stats;
        let cache_key = (normalize_text(text), optimizing);
        if let Some(plan) = self.get(&cache_key) {
            stats.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(plan);
        }
        stats.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
        let db = read_lock(&shared.db);
        stats.parses.fetch_add(1, Ordering::Relaxed);
        let tree = parse_query(&db, text).map_err(|e| e.to_string())?;
        let tree = if optimizing {
            optimize_scoped(shared, &db, tree)
        } else {
            tree
        };
        drop(db);
        let plan = Plan::from_tree(tree);
        self.insert(cache_key, plan.clone());
        Ok(plan)
    }
}

/// Optimize `tree` against statistics for exactly the relations it names
/// (`QueryTree::referenced_relations`: its scans and its write target,
/// the only relations the optimizer looks up), gathering the ones not
/// held. `db` is the caller's catalog read guard; lock order is catalog,
/// then statistics, so a write cannot apply — and fold — between the
/// refresh and the optimize.
pub(super) fn optimize_scoped(shared: &Shared, db: &Catalog, tree: QueryTree) -> QueryTree {
    let mut opt_stats = lock(&shared.opt_stats);
    let gathered = opt_stats.refresh(db, &tree.referenced_relations());
    shared
        .stats
        .stats_gathers
        .fetch_add(gathered as u64, Ordering::Relaxed);
    match optimize(db, &tree, &opt_stats) {
        Ok(o) => o.tree,
        // An optimizer failure is not a query failure; run the
        // un-optimized tree (no second parse).
        Err(_) => tree,
    }
}

/// Collapse whitespace runs outside string literals so trivially
/// reformatted repeats of the same query text share a cache entry. A
/// `"…"` literal is copied verbatim: the tokenizer keeps it byte for byte
/// up to the next `"`, so `"a  b"` and `"a b"` are different constants
/// and must not share a plan.
pub(super) fn normalize_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut in_gap = true; // leading whitespace is dropped
    let mut in_literal = false;
    for ch in text.chars() {
        if in_literal {
            out.push(ch);
            in_literal = ch != '"';
        } else if ch.is_whitespace() {
            if !in_gap {
                out.push(' ');
                in_gap = true;
            }
        } else {
            out.push(ch);
            in_gap = false;
            in_literal = ch == '"';
        }
    }
    if in_gap {
        out.pop(); // a trailing gap (or nothing, for blank text)
    }
    out
}
