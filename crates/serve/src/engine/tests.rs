//! Plan-cache unit tests (kept at `engine::tests` so their names are stable).

use super::plan::{normalize_text, Plan, PlanCache};
use std::sync::Arc;

fn dummy_plan(tag: &str) -> Plan {
    // The cache keys on text, not the tree; a minimal parsed tree of
    // any shape works. The tag only tells entries apart.
    plan_for(tag, "(scan r00)")
}

/// A real plan for `text` (so its read-set tags are genuine), keyed
/// by `tag`.
fn plan_for(tag: &str, text: &str) -> Plan {
    let db = df_workload::generate_database(&df_workload::DatabaseSpec::scaled(0.01));
    let tree = df_query::parse_query(&db, text).expect("parse");
    Plan {
        key: Arc::from(tag),
        ..Plan::from_tree(tree)
    }
}

#[test]
fn normalize_collapses_whitespace_runs() {
    assert_eq!(
        normalize_text("  (scan\n\t r00)  "),
        "(scan r00)".to_string()
    );
    assert_eq!(normalize_text("(scan r00)"), "(scan r00)");
    assert_eq!(normalize_text(""), "");
}

#[test]
fn plan_cache_evicts_least_recently_used() {
    let mut cache = PlanCache::new(2);
    cache.insert(("a".into(), false), dummy_plan("a"));
    cache.insert(("b".into(), false), dummy_plan("b"));
    // Touch `a` so `b` is the LRU victim when `c` arrives.
    assert!(cache.get(&("a".into(), false)).is_some());
    cache.insert(("c".into(), false), dummy_plan("c"));
    assert!(cache.get(&("a".into(), false)).is_some());
    assert!(cache.get(&("b".into(), false)).is_none(), "b evicted");
    assert!(cache.get(&("c".into(), false)).is_some());
}

#[test]
fn plan_cache_zero_capacity_never_stores() {
    let mut cache = PlanCache::new(0);
    cache.insert(("a".into(), false), dummy_plan("a"));
    assert!(cache.get(&("a".into(), false)).is_none());
}

#[test]
fn plan_cache_keys_on_optimize_flag() {
    let mut cache = PlanCache::new(4);
    cache.insert(("q".into(), false), dummy_plan("plain"));
    assert!(cache.get(&("q".into(), true)).is_none());
    assert!(cache.get(&("q".into(), false)).is_some());
}

#[test]
fn evict_reading_is_relation_scoped() {
    let mut cache = PlanCache::new(8);
    cache.insert(("a".into(), false), plan_for("a", "(scan r00)"));
    cache.insert(("b".into(), false), plan_for("b", "(scan r01)"));
    cache.insert(
        ("j".into(), false),
        plan_for("j", "(join (scan r00) (scan r02) (= key key))"),
    );
    // A write to r01 evicts only the r01 reader.
    assert_eq!(cache.evict_reading(&["r01".to_string()]), 1);
    assert!(cache.get(&("a".into(), false)).is_some());
    assert!(cache.get(&("b".into(), false)).is_none());
    assert!(cache.get(&("j".into(), false)).is_some());
    // A write to a join input evicts the join (and the scan sharing
    // that input).
    assert_eq!(cache.evict_reading(&["r02".to_string()]), 1);
    assert!(cache.get(&("j".into(), false)).is_none());
    assert_eq!(cache.evict_reading(&["r00".to_string()]), 1);
    assert!(cache.get(&("a".into(), false)).is_none());
    // Nothing left to evict.
    assert_eq!(cache.evict_reading(&["r00".to_string()]), 0);
}
