//! A map keyed by [`PageId`], stored as a vector indexed by the id.

use crate::store::PageId;

/// A map from [`PageId`] to `V` that indexes a `Vec` by the id itself.
///
/// Invariant it relies on: page ids are minted densely from 0 by
/// [`PageStore::put`](crate::PageStore::put) (one simulation's store hands
/// out 0, 1, 2, …), so the slot vector grows to the store's page count and
/// no further. Every lookup is one bounds check and one load — no hashing —
/// and nothing depends on a hash seed or iteration order. An id far above
/// the ones the store has minted would grow the vector to match, so a map
/// keyed by ids from elsewhere must keep them small too.
#[derive(Debug, Clone)]
pub struct PageMap<V> {
    slots: Vec<Option<V>>,
    len: usize,
}

impl<V> Default for PageMap<V> {
    fn default() -> Self {
        PageMap {
            slots: Vec::new(),
            len: 0,
        }
    }
}

impl<V> PageMap<V> {
    /// An empty map.
    pub fn new() -> PageMap<V> {
        PageMap::default()
    }

    fn index(id: PageId) -> usize {
        usize::try_from(id.0).expect("page id fits in usize")
    }

    /// The value held for `id`, if any.
    pub fn get(&self, id: PageId) -> Option<&V> {
        self.slots.get(Self::index(id))?.as_ref()
    }

    /// A mutable reference to the value held for `id`, if any.
    pub fn get_mut(&mut self, id: PageId) -> Option<&mut V> {
        self.slots.get_mut(Self::index(id))?.as_mut()
    }

    /// Whether a value is held for `id`.
    pub fn contains(&self, id: PageId) -> bool {
        self.get(id).is_some()
    }

    /// Hold `value` for `id`, returning the value it replaces.
    pub fn insert(&mut self, id: PageId, value: V) -> Option<V> {
        let i = Self::index(id);
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let prev = self.slots[i].replace(value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Drop the value held for `id`, returning it.
    pub fn remove(&mut self, id: PageId) -> Option<V> {
        let prev = self.slots.get_mut(Self::index(id))?.take();
        if prev.is_some() {
            self.len -= 1;
        }
        prev
    }

    /// Number of ids holding a value.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no id holds a value.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove() {
        let mut m = PageMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(PageId(3), 'a'), None);
        assert_eq!(m.insert(PageId(3), 'b'), Some('a'));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(PageId(3)), Some(&'b'));
        assert_eq!(m.get(PageId(0)), None);
        assert_eq!(m.get(PageId(99)), None);
        *m.get_mut(PageId(3)).unwrap() = 'c';
        assert_eq!(m.remove(PageId(3)), Some('c'));
        assert_eq!(m.remove(PageId(3)), None);
        assert_eq!(m.remove(PageId(99)), None);
        assert!(m.is_empty() && !m.contains(PageId(3)));
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, u32),
        Remove(u64),
        Get(u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..48, any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (0u64..48).prop_map(Op::Remove),
            (0u64..64).prop_map(Op::Get),
        ]
    }

    proptest! {
        /// Every operation returns what a `HashMap` returns, and `len`
        /// agrees after each one.
        #[test]
        fn agrees_with_a_hash_map(ops in proptest::collection::vec(op(), 0..200)) {
            let mut dense = PageMap::new();
            let mut reference: HashMap<u64, u32> = HashMap::new();
            for op in ops {
                match op {
                    Op::Insert(k, v) => {
                        prop_assert_eq!(dense.insert(PageId(k), v), reference.insert(k, v));
                    }
                    Op::Remove(k) => {
                        prop_assert_eq!(dense.remove(PageId(k)), reference.remove(&k));
                    }
                    Op::Get(k) => {
                        prop_assert_eq!(dense.get(PageId(k)), reference.get(&k));
                        prop_assert_eq!(dense.contains(PageId(k)), reference.contains_key(&k));
                    }
                }
                prop_assert_eq!(dense.len(), reference.len());
                prop_assert_eq!(dense.is_empty(), reference.is_empty());
            }
        }
    }
}
