//! Hash indexes over raw key bytes: one page's, and one join side's.
//!
//! The tuple encoding is canonical — equal values have equal images — so an
//! equi-join key can be hashed and compared as its raw byte slice without
//! decoding. [`PageKeyIndex`] maps each distinct key image appearing in a
//! page to the slots holding it, in slot order, turning a page×page
//! nested-loops sweep (O(n·m) comparisons) into a per-tuple probe (O(n + m))
//! with output order preserved. [`SideKeyIndex`] does the same for every
//! page one operand of a join has received so far, so an arriving page of
//! the other operand probes one structure instead of one index per page.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::page::Page;

/// A multiply-xor hasher for short fixed-width key images. Key bytes come
/// from the canonical tuple encoding of a single page — a few dozen short
/// slices, never attacker-chosen in bulk — so DoS resistance (SipHash's
/// reason to exist) buys nothing here, while per-probe cost is the hash
/// path's entire inner loop.
#[derive(Debug, Default)]
struct RawKeyHasher(u64);

impl Hasher for RawKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            let w = u64::from_le_bytes(c.try_into().expect("chunk of 8"));
            self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(SEED);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(w)).wrapping_mul(SEED);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type Build = BuildHasherDefault<RawKeyHasher>;

/// The key storage — distinct key image → the entries carrying it, in
/// insertion order — specialized on the key attribute's width.
///
/// An 8-byte key image (`Int` — the workload's join keys) is exactly one
/// machine word, so the word map hashes and compares it as a `u64` read
/// straight off the page bytes: no owned `Box<[u8]>` allocation per
/// distinct key at build time, and probes are single word compares instead
/// of slice `memcmp`s.
#[derive(Debug, Clone)]
enum KeyMap<T> {
    Word(HashMap<u64, Vec<T>, Build>),
    Bytes(HashMap<Box<[u8]>, Vec<T>, Build>),
}

/// Read an 8-byte key image as its word (any fixed endianness works: the
/// word is only hashed and compared for equality, never ordered).
#[inline]
fn key_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte key image"))
}

impl<T> KeyMap<T> {
    /// An empty map for key images `width` bytes wide.
    fn for_width(width: usize, capacity: usize) -> KeyMap<T> {
        if width == 8 {
            KeyMap::Word(HashMap::with_capacity_and_hasher(
                capacity,
                Build::default(),
            ))
        } else {
            KeyMap::Bytes(HashMap::with_capacity_and_hasher(
                capacity,
                Build::default(),
            ))
        }
    }

    /// Append `item` to the entries of `key`.
    #[inline]
    fn push(&mut self, key: &[u8], item: T) {
        match self {
            KeyMap::Word(map) => map.entry(key_word(key)).or_default().push(item),
            // get_mut-then-insert instead of the entry API: duplicate keys
            // (the common case on fk pages) take the hit-path without
            // allocating an owned key first.
            KeyMap::Bytes(map) => match map.get_mut(key) {
                Some(items) => items.push(item),
                None => {
                    map.insert(key.into(), vec![item]);
                }
            },
        }
    }

    /// The entries of `key`; empty when it is absent (or has a different
    /// width).
    #[inline]
    fn get(&self, key: &[u8]) -> &[T] {
        let items = match self {
            KeyMap::Word(map) if key.len() == 8 => map.get(&key_word(key)),
            KeyMap::Word(_) => None,
            KeyMap::Bytes(map) => map.get(key),
        };
        items.map_or(&[], Vec::as_slice)
    }

    fn len(&self) -> usize {
        match self {
            KeyMap::Word(map) => map.len(),
            KeyMap::Bytes(map) => map.len(),
        }
    }
}

/// A hash index over one page's raw key bytes: distinct key image → the
/// slots carrying it, in ascending slot order.
///
/// Built once per (page, key attribute); the slot lists are
/// insertion-ordered, so probing outer tuples in page order and emitting
/// each probe's slot list in order reproduces the nested-loops output
/// byte-for-byte (both visit inner slots in ascending order per outer
/// tuple).
#[derive(Debug, Clone)]
pub struct PageKeyIndex {
    key: usize,
    map: KeyMap<u32>,
}

impl PageKeyIndex {
    /// Index `page` on attribute `key` (an index into the page's schema).
    ///
    /// # Panics
    /// Panics if `key` is out of range for the page's schema.
    pub fn build(page: &Page, key: usize) -> PageKeyIndex {
        let width = page.schema().attr_range(key).len();
        let mut map = KeyMap::for_width(width, page.len());
        for (slot, t) in page.tuple_refs().enumerate() {
            map.push(t.attr_bytes(key), slot as u32);
        }
        PageKeyIndex { key, map }
    }

    /// The indexed attribute.
    pub fn key(&self) -> usize {
        self.key
    }

    /// Slots whose key image equals `key_bytes`, in ascending order; empty
    /// when the key does not appear in the page (or has a different width).
    pub fn probe(&self, key_bytes: &[u8]) -> &[u32] {
        self.map.get(key_bytes)
    }

    /// Number of distinct key values in the page.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }
}

/// Where a [`SideKeyIndex`] entry's tuple lives: the page's arrival
/// ordinal on its side, and the slot within that page.
pub type SideEntry = (u32, u32);

/// A growing hash index over every page one operand of a join has received
/// so far: distinct key image → the `(page ordinal, slot)` entries carrying
/// it, in arrival order — the build side of a symmetric hash join.
///
/// Pages are only ever appended, so the entries of the first `upto` pages
/// are a prefix of each key's list and never change once pushed; a probe
/// bounded by `upto` sees exactly the pages received before that bound was
/// taken, however many arrive afterwards.
#[derive(Debug, Clone)]
pub struct SideKeyIndex {
    key: usize,
    /// Tuple width of the side's schema (0 until the first page).
    width: usize,
    pages: Vec<Arc<Page>>,
    map: KeyMap<SideEntry>,
}

impl SideKeyIndex {
    /// An empty side keyed on attribute `key` of its pages' schema.
    pub fn new(key: usize) -> SideKeyIndex {
        SideKeyIndex {
            key,
            width: 0,
            pages: Vec::new(),
            map: KeyMap::for_width(8, 0),
        }
    }

    /// Append `page`'s tuples to the index, behind every page pushed
    /// before it.
    ///
    /// # Panics
    /// Panics if `key` is out of range for the page's schema, or past
    /// `u32::MAX` pages.
    pub fn push(&mut self, page: Arc<Page>) {
        if self.pages.is_empty() {
            let schema = page.schema();
            self.width = schema.tuple_width();
            self.map = KeyMap::for_width(schema.attr_range(self.key).len(), page.len());
        }
        let ordinal = u32::try_from(self.pages.len()).expect("a side of at most u32::MAX pages");
        for (slot, t) in page.tuple_refs().enumerate() {
            self.map
                .push(t.attr_bytes(self.key), (ordinal, slot as u32));
        }
        self.pages.push(page);
    }

    /// The entries whose key image equals `key_bytes` among the first
    /// `upto` pages pushed, in arrival order (page ordinal, then slot).
    #[inline]
    pub fn probe(&self, key_bytes: &[u8], upto: usize) -> &[SideEntry] {
        let entries = self.map.get(key_bytes);
        &entries[..entries.partition_point(|&(page, _)| (page as usize) < upto)]
    }

    /// The encoded image of the tuple at `entry`.
    #[inline]
    pub fn image(&self, (page, slot): SideEntry) -> &[u8] {
        let at = slot as usize * self.width;
        &self.pages[page as usize].raw_data()[at..at + self.width]
    }

    /// Every page pushed, in arrival order.
    pub fn pages(&self) -> &[Arc<Page>] {
        &self.pages
    }

    /// The indexed attribute.
    pub fn key(&self) -> usize {
        self.key
    }

    /// Number of distinct key values over every page pushed.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple::Tuple;
    use crate::value::{DataType, Value};

    fn enc(v: i64) -> Vec<u8> {
        let mut out = Vec::new();
        Value::Int(v).encode(DataType::Int, &mut out).unwrap();
        out
    }

    fn page(keys: &[i64]) -> Page {
        let schema = Schema::build()
            .attr("k", DataType::Int)
            .attr("v", DataType::Int)
            .finish()
            .unwrap();
        let mut p = Page::new(schema, 16 + 16 * keys.len().max(1)).unwrap();
        for (i, &k) in keys.iter().enumerate() {
            p.push(&Tuple::new(vec![Value::Int(k), Value::Int(i as i64)]))
                .unwrap();
        }
        p
    }

    #[test]
    fn probe_returns_slots_in_page_order() {
        let p = page(&[7, 3, 7, 1, 7]);
        let idx = PageKeyIndex::build(&p, 0);
        assert_eq!(idx.key(), 0);
        assert_eq!(idx.distinct_keys(), 3);
        assert_eq!(idx.probe(&enc(7)), &[0, 2, 4]);
        assert_eq!(idx.probe(&enc(1)), &[3]);
    }

    #[test]
    fn probe_misses_are_empty() {
        let p = page(&[1, 2]);
        let idx = PageKeyIndex::build(&p, 0);
        assert!(idx.probe(&enc(99)).is_empty());
        let empty = PageKeyIndex::build(&page(&[]), 0);
        assert_eq!(empty.distinct_keys(), 0);
        assert!(empty.probe(&enc(1)).is_empty());
    }

    /// Non-8-byte keys take the byte-slice map; behaviour is identical.
    #[test]
    fn str_keys_use_byte_fallback() {
        let schema = Schema::build()
            .attr("s", DataType::Str(4))
            .attr("v", DataType::Int)
            .finish()
            .unwrap();
        let mut p = Page::new(schema, 16 + 12 * 4).unwrap();
        for (i, s) in ["aa", "bb", "aa", "c"].iter().enumerate() {
            p.push(&Tuple::new(vec![Value::str(s), Value::Int(i as i64)]))
                .unwrap();
        }
        let idx = PageKeyIndex::build(&p, 0);
        assert_eq!(idx.distinct_keys(), 3);
        let mut key = Vec::new();
        Value::str("aa").encode(DataType::Str(4), &mut key).unwrap();
        assert_eq!(idx.probe(&key), &[0, 2]);
        // A probe of the wrong width can never match.
        let word_idx = PageKeyIndex::build(&p, 1);
        assert!(word_idx.probe(&key[..4.min(key.len())]).is_empty());
    }

    #[test]
    fn indexes_any_attribute() {
        let p = page(&[5, 5, 5]);
        // Attribute 1 (`v`) holds 0, 1, 2 — all distinct.
        let idx = PageKeyIndex::build(&p, 1);
        assert_eq!(idx.distinct_keys(), 3);
        assert_eq!(idx.probe(&enc(1)), &[1]);
    }

    #[test]
    fn side_probe_sees_entries_in_arrival_order_up_to_the_bound() {
        let mut side = SideKeyIndex::new(0);
        assert!(side.probe(&enc(7), 0).is_empty());
        side.push(Arc::new(page(&[7, 3, 7])));
        side.push(Arc::new(page(&[])));
        side.push(Arc::new(page(&[1, 7])));
        assert_eq!(
            (side.key(), side.pages().len(), side.distinct_keys()),
            (0, 3, 3)
        );
        assert_eq!(side.probe(&enc(7), 3), &[(0, 0), (0, 2), (2, 1)]);
        // Pages at or past the bound stay invisible.
        assert_eq!(side.probe(&enc(7), 2), &[(0, 0), (0, 2)]);
        assert!(side.probe(&enc(1), 2).is_empty());
        assert!(side.probe(&enc(7), 0).is_empty());
        assert!(side.probe(&enc(99), 3).is_empty());
        // An entry resolves to its tuple's image: (k = 1, v = 0).
        let image = side.image((2, 0));
        assert_eq!(&image[..8], &enc(1)[..]);
        assert_eq!(image, page(&[1]).raw_data());
    }

    #[test]
    fn side_index_takes_the_byte_map_for_str_keys() {
        let schema = Schema::build()
            .attr("s", DataType::Str(4))
            .finish()
            .unwrap();
        let mut side = SideKeyIndex::new(0);
        for words in [&["aa", "bb"][..], &["aa"]] {
            let mut p = Page::new(schema.clone(), 16 + 4 * 4).unwrap();
            for s in words {
                p.push(&Tuple::new(vec![Value::str(s)])).unwrap();
            }
            side.push(Arc::new(p));
        }
        let mut key = Vec::new();
        Value::str("aa").encode(DataType::Str(4), &mut key).unwrap();
        assert_eq!(side.probe(&key, 2), &[(0, 0), (1, 0)]);
        assert!(
            side.probe(&enc(0), 2).is_empty(),
            "a word never matches a Str(4) key"
        );
    }
}
