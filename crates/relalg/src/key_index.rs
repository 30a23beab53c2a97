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

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::page::Page;
use crate::side::{SideEntry, SidePages};

/// A multiply-xor hasher for short fixed-width key images, finished by a
/// folded multiply.
///
/// Key images come from the canonical tuple encoding of the pages a join
/// side has received — thousands per side, but produced by the query's own
/// operands, never attacker-chosen — so DoS resistance (SipHash's reason
/// to exist) buys nothing here, while per-tuple cost is both the side
/// index's build loop and the probe's inner loop.
///
/// Images vary mostly in their *last* bytes: an `Int` is big-endian, so a
/// small key's varying bytes land in the high bits of its word, and string
/// keys tend to differ in their trailing characters. A multiply carries
/// bits only upward, so the state's low bits would stay constant, and the
/// map takes a bucket from the low bits: every key would start probing at
/// the same bucket. [`Hasher::finish`] therefore folds the 128-bit product
/// of the state and an odd constant (high half XOR low half), which brings
/// every state bit down into the low bits.
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

    #[inline]
    fn finish(&self) -> u64 {
        const FOLD: u64 = 0x9e_37_79_b9_7f_4a_7c_15;
        let product = u128::from(self.0) * u128::from(FOLD);
        (product as u64) ^ ((product >> 64) as u64)
    }
}

type Build = BuildHasherDefault<RawKeyHasher>;

/// Distinct key image → `V`, specialized on the key attribute's width.
///
/// An 8-byte key image (`Int` — the workload's join keys) is exactly one
/// machine word, so the word map hashes and compares it as a `u64` read
/// straight off the page bytes: no owned `Box<[u8]>` allocation per
/// distinct key, and probes are single word compares instead of slice
/// `memcmp`s.
#[derive(Debug, Clone)]
enum KeyMap<V> {
    Word(HashMap<u64, V, Build>),
    Bytes(HashMap<Box<[u8]>, V, Build>),
}

/// Read an 8-byte key image as its word. The word is only hashed and
/// compared for equality, never ordered, so any fixed byte order is
/// *correct* — but reading a big-endian `Int` image little-endian puts its
/// varying low-order bytes in the word's high bits, where only
/// [`RawKeyHasher::finish`]'s fold brings them back to the bits the map
/// takes its bucket from.
#[inline]
fn key_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte key image"))
}

impl<V> KeyMap<V> {
    /// An empty map for key images `width` bytes wide.
    fn for_width(width: usize, capacity: usize) -> KeyMap<V> {
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

    /// Make room for `additional` more keys.
    fn reserve(&mut self, additional: usize) {
        match self {
            KeyMap::Word(map) => map.reserve(additional),
            KeyMap::Bytes(map) => map.reserve(additional),
        }
    }

    /// Apply `update` to the value of `key`, or map `key` to `insert()`
    /// when it is absent.
    #[inline]
    fn upsert(&mut self, key: &[u8], insert: impl FnOnce() -> V, update: impl FnOnce(&mut V)) {
        match self {
            KeyMap::Word(map) => match map.entry(key_word(key)) {
                Entry::Occupied(mut e) => update(e.get_mut()),
                Entry::Vacant(e) => {
                    e.insert(insert());
                }
            },
            // get_mut-then-insert instead of the entry API: a repeated key
            // (the common case on fk pages) takes the hit path without
            // allocating an owned key first.
            KeyMap::Bytes(map) => match map.get_mut(key) {
                Some(value) => update(value),
                None => {
                    map.insert(key.into(), insert());
                }
            },
        }
    }

    /// The value of `key`; `None` when it is absent (or has a different
    /// width).
    #[inline]
    fn get(&self, key: &[u8]) -> Option<&V> {
        match self {
            KeyMap::Word(map) if key.len() == 8 => map.get(&key_word(key)),
            KeyMap::Word(_) => None,
            KeyMap::Bytes(map) => map.get(key),
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
    map: KeyMap<Vec<u32>>,
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
            let slot = slot as u32;
            map.upsert(t.attr_bytes(key), || vec![slot], |slots| slots.push(slot));
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
        self.map.get(key_bytes).map_or(&[], Vec::as_slice)
    }
}

/// The end of a [`SideKeyIndex`] chain: past every entry's position.
const NIL: u32 = u32::MAX;

/// A growing hash index over every page one operand of a join has received
/// so far — the build side of a symmetric hash join.
///
/// Every tuple indexed is one `(page ordinal, slot)` entry in a flat list
/// in arrival order. The entries of one key are chained through a parallel
/// `next` list, and the map holds each distinct key image's first and last
/// position, so an entry appends and links behind its key's last entry and
/// no key owns an allocation of its own.
///
/// Pages are only ever appended, so every chain runs in ascending ordinal
/// order and its entries of the first `upto` pages are a prefix that never
/// changes once indexed: a probe bounded by `upto` stops at the first entry
/// at or past the bound, and sees exactly the pages received before that
/// bound was taken, however many arrive afterwards.
#[derive(Debug, Clone)]
pub struct SideKeyIndex {
    key: usize,
    received: SidePages,
    /// Distinct key image → the (first, last) position of its chain in
    /// `entries`; made by the first [`SideKeyIndex::extend`], for the key's
    /// width.
    map: Option<KeyMap<(u32, u32)>>,
    /// Every tuple indexed, in arrival order.
    entries: Vec<SideEntry>,
    /// `next[i]`: the position of the next entry after `entries[i]` with
    /// the same key, or [`NIL`].
    next: Vec<u32>,
}

impl SideKeyIndex {
    /// An empty side keyed on attribute `key` of its pages' schema.
    pub fn new(key: usize) -> SideKeyIndex {
        SideKeyIndex {
            key,
            received: SidePages::new(),
            map: None,
            entries: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Append one delivered batch of `pages`, in order, behind every page
    /// indexed before them; returns the tuples indexed.
    ///
    /// The map and the entry lists are sized once for the batch's tuples,
    /// and each key is read straight off its row. Per page, each tuple's
    /// entry is stored before it is linked into its key's chain, and the
    /// page is counted in [`SideKeyIndex::received`] only after its
    /// entries, so a panic midway leaves at worst one unlinked entry, never
    /// a link to a missing one, and only entries past every counted page.
    ///
    /// # Panics
    /// Panics if `key` is out of range for the pages' schema, or past
    /// `u32::MAX` pages or `u32::MAX - 1` tuples.
    pub fn extend(&mut self, pages: &[Arc<Page>]) -> usize {
        let Some(first) = pages.first() else {
            return 0;
        };
        let schema = first.schema();
        let (range, width) = (schema.attr_range(self.key), schema.tuple_width());
        let tuples = pages.iter().map(|p| p.len()).sum();
        let map = (self.map).get_or_insert_with(|| KeyMap::for_width(range.len(), 0));
        map.reserve(tuples);
        self.entries.reserve(tuples);
        self.next.reserve(tuples);
        for page in pages {
            let ordinal = self.received.next_ordinal();
            for (slot, row) in page.raw_data().chunks_exact(width).enumerate() {
                let at = u32::try_from(self.entries.len())
                    .ok()
                    .filter(|&at| at != NIL)
                    .expect("a side of fewer than u32::MAX tuples");
                self.entries.push((ordinal, slot as u32));
                self.next.push(NIL);
                let next = &mut self.next;
                map.upsert(
                    &row[range.clone()],
                    || (at, at),
                    |(_, last)| {
                        next[*last as usize] = at;
                        *last = at;
                    },
                );
            }
            self.received.push(Arc::clone(page));
        }
        tuples
    }

    /// The entries whose key image equals `key_bytes` among the first
    /// `upto` pages indexed, in arrival order (page ordinal, then slot).
    #[inline]
    pub fn probe(&self, key_bytes: &[u8], upto: usize) -> impl Iterator<Item = SideEntry> + '_ {
        let first = (self.map.as_ref()).and_then(|map| map.get(key_bytes));
        let mut at = first.map_or(NIL, |&(first, _)| first);
        std::iter::from_fn(move || {
            // `NIL` is past the last position, so `get` ends the chain.
            let entry = *self.entries.get(at as usize)?;
            if entry.0 as usize >= upto {
                return None;
            }
            at = self.next[at as usize];
            Some(entry)
        })
    }

    /// The pages indexed, in arrival order; an entry's image is
    /// [`SidePages::image`].
    pub fn received(&self) -> &SidePages {
        &self.received
    }

    /// The indexed attribute.
    pub fn key(&self) -> usize {
        self.key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_HEADER_BYTES;
    use crate::schema::Schema;
    use crate::tuple::Tuple;
    use crate::value::{DataType, Value};
    use std::collections::{BTreeMap, HashSet};
    use std::hash::BuildHasher;

    /// Number of distinct keys an index holds.
    fn distinct<V>(map: &KeyMap<V>) -> usize {
        match map {
            KeyMap::Word(map) => map.len(),
            KeyMap::Bytes(map) => map.len(),
        }
    }

    fn encode(v: &Value, dtype: DataType) -> Vec<u8> {
        let mut out = Vec::new();
        v.encode(dtype, &mut out).unwrap();
        out
    }

    fn enc(v: i64) -> Vec<u8> {
        encode(&Value::Int(v), DataType::Int)
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

    fn probed(side: &SideKeyIndex, key: &[u8], upto: usize) -> Vec<SideEntry> {
        side.probe(key, upto).collect()
    }

    /// How many distinct values the low 12 bits of `hashes` take — the
    /// bits the map takes a bucket from at 4 096 buckets.
    fn distinct_low_bits(hashes: impl Iterator<Item = u64>) -> usize {
        hashes.map(|h| h & 0xfff).collect::<HashSet<_>>().len()
    }

    /// The low bits of a key's hash must vary with the key for every family
    /// of images a join side holds — above all big-endian `Int`s, whose
    /// varying bytes read into the word's high bits. A random function
    /// sends 4 096 keys to about 2 589 of the 4 096 low-12-bit values; a
    /// multiply without the fold sends each `Int` family to one.
    #[test]
    fn hashes_spread_every_key_family_over_the_low_bits() {
        const KEYS: i64 = 4096;
        // Hashed as the word map hashes them: the image read as its word.
        let ints = |key: fn(i64) -> i64| {
            distinct_low_bits((0..KEYS).map(|k| Build::default().hash_one(key_word(&enc(key(k))))))
        };
        // Hashed as the bytes map hashes its `Box<[u8]>` keys: the length
        // prefix, then the bytes. Images share a prefix and differ only in
        // bytes 6–7.
        let strs = |width: u16| {
            distinct_low_bits((0..KEYS).map(|k| {
                let mut s = String::from("prefix");
                s.push(char::from(b'0' + (k / 64) as u8));
                s.push(char::from(b'0' + (k % 64) as u8));
                s.push_str(&"abcd"[..usize::from(width) - 8]);
                let image: Box<[u8]> = encode(&Value::str(&s), DataType::Str(width)).into();
                Build::default().hash_one(&image)
            }))
        };
        let families = [
            ("sequential Int", ints(|k| k)),
            ("Int multiples of 2^16", ints(|k| k << 16)),
            ("Int at i64::MIN + k", ints(|k| i64::MIN + k)),
            ("Str(8)", strs(8)),
            ("Str(12)", strs(12)),
        ];
        for (family, distinct) in families {
            assert!(
                distinct >= 2000,
                "{family}: {distinct} distinct low-12-bit values of {KEYS} hashes"
            );
        }
    }

    #[test]
    fn probe_returns_slots_in_page_order() {
        let p = page(&[7, 3, 7, 1, 7]);
        let idx = PageKeyIndex::build(&p, 0);
        assert_eq!(idx.key(), 0);
        assert_eq!(distinct(&idx.map), 3);
        assert_eq!(idx.probe(&enc(7)), &[0, 2, 4]);
        assert_eq!(idx.probe(&enc(1)), &[3]);
    }

    #[test]
    fn probe_misses_are_empty() {
        let p = page(&[1, 2]);
        let idx = PageKeyIndex::build(&p, 0);
        assert!(idx.probe(&enc(99)).is_empty());
        let empty = PageKeyIndex::build(&page(&[]), 0);
        assert_eq!(distinct(&empty.map), 0);
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
        assert_eq!(distinct(&idx.map), 3);
        let key = encode(&Value::str("aa"), DataType::Str(4));
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
        assert_eq!(distinct(&idx.map), 3);
        assert_eq!(idx.probe(&enc(1)), &[1]);
    }

    #[test]
    fn side_probe_sees_entries_in_arrival_order_up_to_the_bound() {
        let mut side = SideKeyIndex::new(0);
        assert!(probed(&side, &enc(7), 0).is_empty());
        side.extend(&[Arc::new(page(&[7, 3, 7]))]);
        side.extend(&[Arc::new(page(&[]))]);
        side.extend(&[Arc::new(page(&[1, 7]))]);
        assert_eq!(
            (
                side.key(),
                side.received().pages().len(),
                distinct(side.map.as_ref().unwrap())
            ),
            (0, 3, 3)
        );
        assert_eq!(probed(&side, &enc(7), 3), [(0, 0), (0, 2), (2, 1)]);
        // Pages at or past the bound stay invisible.
        assert_eq!(probed(&side, &enc(7), 2), [(0, 0), (0, 2)]);
        assert!(probed(&side, &enc(1), 2).is_empty());
        assert!(probed(&side, &enc(7), 0).is_empty());
        assert!(probed(&side, &enc(99), 3).is_empty());
        // An entry resolves to its tuple's image: (k = 1, v = 0).
        let image = side.received().image((2, 0));
        assert_eq!(&image[..8], &enc(1)[..]);
        assert_eq!(image, page(&[1]).raw_data());
    }

    #[test]
    fn side_wire_bytes_of_a_prefix_sum_its_pages() {
        let mut side = SideKeyIndex::new(0);
        assert_eq!(side.received().wire_bytes(0), 0);
        for keys in [&[7, 3, 7][..], &[], &[1, 7]] {
            side.extend(&[Arc::new(page(keys))]);
        }
        for upto in 0..=3 {
            let summed = side.received().pages()[..upto]
                .iter()
                .map(|p| p.wire_bytes() as u64);
            assert_eq!(
                side.received().wire_bytes(upto),
                summed.sum::<u64>(),
                "upto {upto}"
            );
        }
        assert_eq!(
            side.received().wire_bytes(3),
            3 * PAGE_HEADER_BYTES as u64 + 5 * 16
        );
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
            side.extend(&[Arc::new(p)]);
        }
        let key = encode(&Value::str("aa"), DataType::Str(4));
        assert_eq!(probed(&side, &key, 2), [(0, 0), (1, 0)]);
        assert!(
            probed(&side, &enc(0), 2).is_empty(),
            "a word never matches a Str(4) key"
        );
    }

    /// Push `keys` into one side as `(key, slot)` tuples, ten to a page,
    /// then check the probe of every present and every `absent` key — at
    /// bounds that cut chains in the middle — against a model that keeps
    /// each key's entries in a list of its own.
    fn side_matches_model(dtype: DataType, keys: &[Value], absent: &[Value]) {
        const PER_PAGE: usize = 10;
        let schema = Schema::build()
            .attr("k", dtype)
            .attr("v", DataType::Int)
            .finish()
            .unwrap();
        let page_size = PAGE_HEADER_BYTES + schema.tuple_width() * PER_PAGE;
        let mut side = SideKeyIndex::new(0);
        let mut model: BTreeMap<Vec<u8>, Vec<SideEntry>> = BTreeMap::new();
        for (ordinal, chunk) in keys.chunks(PER_PAGE).enumerate() {
            let mut p = Page::new(schema.clone(), page_size).unwrap();
            for (slot, k) in chunk.iter().enumerate() {
                p.push(&Tuple::new(vec![k.clone(), Value::Int(slot as i64)]))
                    .unwrap();
                let entry = (ordinal as u32, slot as u32);
                model.entry(encode(k, dtype)).or_default().push(entry);
            }
            side.extend(&[Arc::new(p)]);
        }
        let pages = side.received().pages().len();
        assert!(pages >= 2_000, "{pages} pages");
        assert_eq!(distinct(side.map.as_ref().unwrap()), model.len());
        for upto in [0, 1, pages / 3, pages / 2 + 1, pages - 1, pages] {
            for (key, entries) in &model {
                let seen = entries.partition_point(|&(page, _)| (page as usize) < upto);
                assert_eq!(
                    probed(&side, key, upto),
                    &entries[..seen],
                    "{dtype} upto {upto}"
                );
                for &entry in &entries[..seen] {
                    assert!(side.received().image(entry).starts_with(key));
                }
            }
            for k in absent {
                assert!(probed(&side, &encode(k, dtype), upto).is_empty(), "{k}");
            }
        }
    }

    #[test]
    fn side_probes_at_scale_equal_a_per_key_model() {
        const TUPLES: i64 = 20_000;
        // Unique keys (a primary-key side), negative and past 2^32.
        let unique: Vec<Value> = (0..TUPLES)
            .map(|i| Value::Int((i - TUPLES / 2) * ((1 << 32) + 7)))
            .collect();
        let absent = [Value::Int(1), Value::Int(i64::MIN), Value::Int(i64::MAX)];
        side_matches_model(DataType::Int, &unique, &absent);
        // Foreign-key duplicates: 211 keys, each on pages all along the side.
        let fk: Vec<Value> = (0..TUPLES)
            .map(|i| Value::Int((i * 7_919) % 211 - 105))
            .collect();
        let absent = [Value::Int(106), Value::Int(-106), Value::Int(1 << 40)];
        side_matches_model(DataType::Int, &fk, &absent);
        // A string side, each key repeated about four times.
        let strs: Vec<Value> = (0..TUPLES)
            .map(|i| Value::str(&format!("key-{:05}", (i * 37) % 4_999)))
            .collect();
        let absent = [Value::str("key-04999"), Value::str(""), Value::str("key")];
        side_matches_model(DataType::Str(12), &strs, &absent);
    }
}
