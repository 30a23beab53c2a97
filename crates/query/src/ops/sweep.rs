//! The compiled nested-loops sweep: the one pair loop every executor runs
//! for a θ-join, page against page or page against a side's key column.
//!
//! Paper §2.1 picks the O(n²) nested-loops join as the multiprocessor join
//! and Fig 4.3 makes the page×page sweep the IP's unit of work, so the
//! comparison inside that loop is the hottest code of the paper's own
//! configuration. [`JoinSweep::compile`] resolves it once per join node —
//! key byte ranges, tuple widths and a [`KeyClass`] — and the sweep then
//! runs over raw page bytes: each page's keys are extracted once into a
//! dense column (on the stack for small pages), the [`CmpOp`] is chosen
//! outside the loop so every (class, operator) gets its own monomorphised
//! pair loop, and matches are appended to a caller-supplied [`TupleBuf`].
//! Inside the loop an `Int` key tests the opposite keys 16 at a time and
//! looks inside a chunk only on a hit ([`each_match`]), so a chunk without
//! a match costs one chunk test and no store. [`JoinSweep::compile`] picks
//! that test once, for the CPU it runs on ([`ChunkTest`]): four AVX2
//! compares and one `vptest` where the CPU has AVX2 (module `wide`), else
//! a branch-free `fold` of sixteen scalar compares. Byte-string keys,
//! whose compare is a call, are tested one by one.
//!
//! Two shapes of work run that loop. [`JoinSweep::sweep_list_into`] sweeps
//! a page against a list of pages (the simulators' unit, and df-host's for
//! `Bytes`/`Typed` keys); [`JoinSweep::probe_column_into`] probes a page's
//! `Int` keys against the first `upto` pages of a [`SideKeyColumn`], the
//! whole opposite side decoded once as it arrived (df-host's nested `Int`
//! join), so the inner loop runs over the side's every key rather than
//! one page's ten.
//!
//! **Contract.** [`JoinSweep::sweep_list_into`] emits the `outer ++ inner`
//! image of every matching pair in (outer slot, inner slot) order per page
//! pair — byte for byte what the oracle's `join_pages` produces once
//! encoded. The hash path and the standing-view product rule are both
//! defined as identical to this order. [`JoinSweep::probe_column_into`]
//! emits the same pairs in (page slot, opposite arrival) order, the order
//! the symmetric hash join's side probe emits.

use df_relalg::{
    cmp_encoded, CmpOp, DataType, JoinCondition, Page, Schema, SideKeyColumn, TupleBuf,
};

#[allow(unsafe_code)]
mod wide;

/// How a compiled sweep compares its two key columns. Decided by the key
/// types alone, never by the operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyClass {
    /// `Int` × `Int`: both columns are decoded from their big-endian images
    /// to `i64` once per page and compared natively.
    Int,
    /// Equal-width `Bool` or `Str(n)` keys, compared as raw byte strings.
    /// The encoding is canonical, so images are equal exactly when values
    /// are; and because strings hold no content NULs and are NUL-padded,
    /// byte order over equal widths is also value order.
    Bytes,
    /// `Str(n)` × `Str(m)`, n ≠ m: the images differ in padding, so each
    /// pair goes through the typed [`cmp_encoded`].
    Typed,
}

/// One operand's tuple layout, as far as the sweep needs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Side {
    /// Tuple image width.
    width: usize,
    /// Byte offset and length of the key within an image.
    key_off: usize,
    key_len: usize,
    dtype: DataType,
}

impl Side {
    fn of(schema: &Schema, attr: usize) -> Side {
        let key = schema.attr_range(attr);
        Side {
            width: schema.tuple_width(),
            key_off: key.start,
            key_len: key.len(),
            dtype: schema.attrs()[attr].dtype,
        }
    }
}

/// A join condition resolved against its two operand schemas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinSweep {
    condition: JoinCondition,
    class: KeyClass,
    outer: Side,
    inner: Side,
    chunk: ChunkTest,
}

/// How [`each_match`] tests a whole [`CHUNK`] of `i64` keys against one.
/// [`JoinSweep::compile`] picks it once, for the CPU it runs on; which
/// pairs match, and their order, never depend on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChunkTest {
    /// Sixteen scalar compares folded with `|`: every target.
    Fold,
    /// Four 4-lane compares and one `vptest` (module `wide`).
    Avx2(wide::Avx2),
}

impl ChunkTest {
    /// The widest chunk test this CPU runs.
    fn detect() -> ChunkTest {
        wide::Avx2::detect().map_or(ChunkTest::Fold, ChunkTest::Avx2)
    }
}

impl JoinSweep {
    /// Resolve `condition` against the operand schemas.
    ///
    /// # Panics
    /// Panics on out-of-bounds attribute indices or keys of different
    /// types — [`JoinCondition::new`] and `validate` rule both out.
    pub fn compile(outer: &Schema, inner: &Schema, condition: &JoinCondition) -> JoinSweep {
        let (outer, inner) = (
            Side::of(outer, condition.left),
            Side::of(inner, condition.right),
        );
        let class = match (outer.dtype, inner.dtype) {
            (DataType::Int, DataType::Int) => KeyClass::Int,
            (DataType::Bool, DataType::Bool) => KeyClass::Bytes,
            (DataType::Str(n), DataType::Str(m)) if n == m => KeyClass::Bytes,
            (DataType::Str(_), DataType::Str(_)) => KeyClass::Typed,
            (l, r) => panic!("join keys of different types: {l} vs {r}"),
        };
        JoinSweep {
            condition: *condition,
            class,
            outer,
            inner,
            chunk: ChunkTest::detect(),
        }
    }

    /// `op` as the pair loops run it, `test` being its scalar form.
    fn theta<K>(&self, op: CmpOp, test: impl Fn(K, K) -> bool) -> Theta<impl Fn(K, K) -> bool> {
        Theta {
            op,
            chunk: self.chunk,
            test,
        }
    }

    /// The condition this sweep was compiled from.
    pub fn condition(&self) -> &JoinCondition {
        &self.condition
    }

    /// The comparator class the key types selected.
    pub fn class(&self) -> KeyClass {
        self.class
    }

    /// True when the hash path can run this join: an equi-join whose raw
    /// key images are equal exactly when the values are — every class but
    /// [`KeyClass::Typed`], whose mixed-width images differ in padding.
    pub fn hash_applicable(&self) -> bool {
        self.condition.op == CmpOp::Eq && self.class != KeyClass::Typed
    }

    /// Sweep one page pair, appending the matches to `out` (whose schema
    /// must be the concatenated output schema — debug-asserted per row).
    pub fn sweep_into(&self, outer: &Page, inner: &Page, out: &mut TupleBuf) {
        self.sweep_list_into(outer, [inner], true, out);
    }

    /// Sweep `page` against each page of `opposite` in turn — the work unit
    /// of df-core and df-host — appending the matches to `out`. `page` is
    /// the outer operand of every pair when `page_is_outer`, else the
    /// inner; its key column is extracted once for the whole list.
    pub fn sweep_list_into<'a>(
        &self,
        page: &'a Page,
        opposite: impl IntoIterator<Item = &'a Page>,
        page_is_outer: bool,
        out: &mut TupleBuf,
    ) {
        let opposite = opposite.into_iter();
        match self.class {
            KeyClass::Int => self.run_ord::<i64>(page, opposite, page_is_outer, out),
            KeyClass::Bytes => self.run_ord::<&[u8]>(page, opposite, page_is_outer, out),
            KeyClass::Typed => {
                let (op, lt, rt) = (self.condition.op, self.outer.dtype, self.inner.dtype);
                let theta = self.theta(op, |a, b| {
                    op.test(cmp_encoded(lt, a, rt, b).expect("both keys are strings"))
                });
                self.run::<&[u8]>(page, opposite, page_is_outer, out, theta);
            }
        }
    }

    /// Probe `page`'s keys against the first `upto` pages of `column` —
    /// the opposite operand's `Int` keys in arrival order — appending every
    /// match to `out` in the condition's orientation (`page` is the outer
    /// operand when `page_is_outer`). Matches leave in (page slot, opposite
    /// arrival) order; as a multiset they are the union of
    /// [`JoinSweep::sweep_into`] over `page` paired with each of those
    /// pages.
    ///
    /// # Panics
    /// Panics (debug) unless this is an [`KeyClass::Int`] sweep and
    /// `column` is keyed on the opposite operand's join attribute.
    pub fn probe_column_into(
        &self,
        page: &Page,
        column: &SideKeyColumn,
        upto: usize,
        page_is_outer: bool,
        out: &mut TupleBuf,
    ) {
        debug_assert_eq!(self.class, KeyClass::Int, "a key column holds Int keys");
        let (op, column_key) = if page_is_outer {
            (self.condition.op, self.condition.right)
        } else {
            // `column op key` is `key op.flip() column`.
            (self.condition.op.flip(), self.condition.left)
        };
        debug_assert_eq!(column.key(), column_key, "column/condition mismatch");
        let (keys, o) = (column.keys(upto), page_is_outer);
        match op {
            CmpOp::Eq => self.probe(page, o, column, keys, out, self.theta(op, |a, b| a == b)),
            CmpOp::Ne => self.probe(page, o, column, keys, out, self.theta(op, |a, b| a != b)),
            CmpOp::Lt => self.probe(page, o, column, keys, out, self.theta(op, |a, b| a < b)),
            CmpOp::Le => self.probe(page, o, column, keys, out, self.theta(op, |a, b| a <= b)),
            CmpOp::Gt => self.probe(page, o, column, keys, out, self.theta(op, |a, b| a > b)),
            CmpOp::Ge => self.probe(page, o, column, keys, out, self.theta(op, |a, b| a >= b)),
        }
    }

    /// One monomorphised column probe: `page key θ column key`.
    fn probe(
        &self,
        page: &Page,
        page_is_outer: bool,
        column: &SideKeyColumn,
        keys: &[i64],
        out: &mut TupleBuf,
        theta: Theta<impl Fn(i64, i64) -> bool>,
    ) {
        let side = if page_is_outer {
            &self.outer
        } else {
            &self.inner
        };
        let mut fixed = KeyColumn::<i64>::new();
        let page_keys = fixed.load(page.raw_data(), side);
        for (row, &key) in page.raw_data().chunks_exact(side.width).zip(page_keys) {
            each_match(key, keys, &theta, |at| {
                let opposite = column.image(at);
                if page_is_outer {
                    out.push_concat(row, opposite);
                } else {
                    out.push_concat(opposite, row);
                }
            });
        }
    }

    /// Pick the operator outside the loop: one monomorphised pair loop per
    /// (key type, operator).
    fn run_ord<'a, K: Key<'a> + Ord>(
        &self,
        page: &'a Page,
        opposite: impl Iterator<Item = &'a Page>,
        page_is_outer: bool,
        out: &mut TupleBuf,
    ) {
        let (op, o) = (self.condition.op, page_is_outer);
        match op {
            CmpOp::Eq => self.run::<K>(page, opposite, o, out, self.theta(op, |a, b| a == b)),
            CmpOp::Ne => self.run::<K>(page, opposite, o, out, self.theta(op, |a, b| a != b)),
            CmpOp::Lt => self.run::<K>(page, opposite, o, out, self.theta(op, |a, b| a < b)),
            CmpOp::Le => self.run::<K>(page, opposite, o, out, self.theta(op, |a, b| a <= b)),
            CmpOp::Gt => self.run::<K>(page, opposite, o, out, self.theta(op, |a, b| a > b)),
            CmpOp::Ge => self.run::<K>(page, opposite, o, out, self.theta(op, |a, b| a >= b)),
        }
    }

    fn run<'a, K: Key<'a>>(
        &self,
        page: &'a Page,
        opposite: impl Iterator<Item = &'a Page>,
        page_is_outer: bool,
        out: &mut TupleBuf,
        theta: Theta<impl Fn(K, K) -> bool>,
    ) {
        let (page_side, opp_side) = if page_is_outer {
            (&self.outer, &self.inner)
        } else {
            (&self.inner, &self.outer)
        };
        let (mut fixed, mut moving) = (KeyColumn::<K>::new(), KeyColumn::<K>::new());
        let page_rows = Rows {
            data: page.raw_data(),
            width: page_side.width,
            keys: fixed.load(page.raw_data(), page_side),
        };
        for opp in opposite {
            let opp_rows = Rows {
                data: opp.raw_data(),
                width: opp_side.width,
                keys: moving.load(opp.raw_data(), opp_side),
            };
            if page_is_outer {
                sweep_pairs(&page_rows, &opp_rows, &theta, out);
            } else {
                sweep_pairs(&opp_rows, &page_rows, &theta, out);
            }
        }
    }
}

/// A page's tuple images beside its extracted key column.
struct Rows<'r, K> {
    data: &'r [u8],
    width: usize,
    keys: &'r [K],
}

/// The pair loop: (outer slot, inner slot) order, inner keys dense.
#[inline]
fn sweep_pairs<'a, K: Key<'a>>(
    outer: &Rows<'_, K>,
    inner: &Rows<'_, K>,
    theta: &Theta<impl Fn(K, K) -> bool>,
    out: &mut TupleBuf,
) {
    for (o, &ok) in outer.data.chunks_exact(outer.width).zip(outer.keys) {
        each_match(ok, inner.keys, theta, |i| {
            let at = i * inner.width;
            out.push_concat(o, &inner.data[at..at + inner.width]);
        });
    }
}

/// A θ as the pair loops run it: the operator, its scalar form (one
/// monomorphised closure per operator) and the sweep's chunk test.
struct Theta<F> {
    op: CmpOp,
    chunk: ChunkTest,
    test: F,
}

/// Keys tested per chunk by [`each_match`].
const CHUNK: usize = 16;

/// The one compare of both pair loops: call `hit` with the position of
/// every key of `keys` that `key θ _` accepts, in ascending order. For an
/// `i64` key each whole [`CHUNK`] is first tested as a whole with the
/// sweep's [`ChunkTest`] — AVX2 compares, or a branch-free fold the
/// compiler unrolls into 16 compares that fall through when none matches
/// — and only a chunk holding a hit is looked inside. The remainder, and
/// every key of another type, is tested key by key.
#[inline]
fn each_match<'a, K: Key<'a>>(
    key: K,
    keys: &[K],
    theta: &Theta<impl Fn(K, K) -> bool>,
    mut hit: impl FnMut(usize),
) {
    let chunked = K::chunks(key, keys, theta, &mut hit);
    for (i, &k) in keys[chunked..].iter().enumerate() {
        if (theta.test)(key, k) {
            hit(chunked + i);
        }
    }
}

/// A key as the pair loop holds it: decoded (`i64`) or borrowed in place.
trait Key<'a>: Copy {
    /// Filler for unused stack slots.
    const FILL: Self;
    fn of(image: &'a [u8]) -> Self;
    /// Test the whole [`CHUNK`]s at the front of `keys` against `key`,
    /// calling `hit` with each match in ascending order, and return how
    /// many keys that covered. Only an `i64` compare is one instruction: a
    /// byte-string compare is a call, and sixteen of them unrolled per
    /// chunk would only grow the code, so byte strings cover none.
    fn chunks(
        key: Self,
        keys: &[Self],
        theta: &Theta<impl Fn(Self, Self) -> bool>,
        hit: &mut impl FnMut(usize),
    ) -> usize;
}

impl<'a> Key<'a> for i64 {
    const FILL: i64 = 0;
    #[inline]
    fn of(image: &'a [u8]) -> i64 {
        i64::from_be_bytes(image.try_into().expect("Int key is 8 bytes"))
    }
    #[inline]
    fn chunks(
        key: i64,
        keys: &[i64],
        theta: &Theta<impl Fn(i64, i64) -> bool>,
        hit: &mut impl FnMut(usize),
    ) -> usize {
        if keys.len() < CHUNK {
            // No whole chunk, as on 1 KB page pairs of ten keys a side:
            // skip the dispatch, which costs more than it would test.
            return 0;
        }
        match theta.chunk {
            ChunkTest::Fold => {
                let (whole, test) = (keys.len() / CHUNK * CHUNK, &theta.test);
                for (c, chunk) in keys[..whole].chunks_exact(CHUNK).enumerate() {
                    if chunk.iter().fold(false, |any, &k| any | test(key, k)) {
                        for (i, &k) in chunk.iter().enumerate() {
                            if test(key, k) {
                                hit(c * CHUNK + i);
                            }
                        }
                    }
                }
                whole
            }
            ChunkTest::Avx2(avx2) => avx2.chunks(theta.op, key, keys, hit),
        }
    }
}

impl<'a> Key<'a> for &'a [u8] {
    const FILL: &'a [u8] = &[];
    #[inline]
    fn of(image: &'a [u8]) -> &'a [u8] {
        image
    }
    fn chunks(
        _: &'a [u8],
        _: &[&'a [u8]],
        _: &Theta<impl Fn(Self, Self) -> bool>,
        _: &mut impl FnMut(usize),
    ) -> usize {
        0
    }
}

/// Pages up to this many tuples keep their key column on the stack: an
/// arriving page probing a side's key column (df-host's 1 KB pages hold
/// ~10 tuples; an `Int` join's opposite side is already a column), and
/// df-host's `Bytes`/`Typed` sweeps. The simulators' 16 KB pages (~160
/// tuples) take the heap column, allocated once per unit per side.
const STACK_KEYS: usize = 32;

/// Scratch for one page's key column, reused across the pages of a sweep
/// list so a unit allocates at most once per side.
struct KeyColumn<K> {
    stack: [K; STACK_KEYS],
    heap: Vec<K>,
}

impl<'a, K: Key<'a>> KeyColumn<K> {
    fn new() -> KeyColumn<K> {
        KeyColumn {
            stack: [K::FILL; STACK_KEYS],
            heap: Vec::new(),
        }
    }

    /// Extract the key of every tuple image in `data`.
    fn load(&mut self, data: &'a [u8], side: &Side) -> &[K] {
        let n = data.len() / side.width;
        let keys = data
            .chunks_exact(side.width)
            .map(|row| K::of(&row[side.key_off..side.key_off + side.key_len]));
        if n <= STACK_KEYS {
            for (slot, key) in self.stack.iter_mut().zip(keys) {
                *slot = key;
            }
            &self.stack[..n]
        } else {
            self.heap.clear();
            self.heap.extend(keys);
            &self.heap
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::test_support::*;
    use df_relalg::{Tuple, Value};

    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// Every chunk test this CPU runs: the fold always, AVX2 when detected.
    fn chunk_tests() -> Vec<ChunkTest> {
        let mut tests = vec![ChunkTest::Fold];
        tests.extend(wide::Avx2::detect().map(ChunkTest::Avx2));
        tests
    }

    /// Each chunk test this CPU runs gives exactly the hits of a plain
    /// double loop, in order: all six θs, columns of 0..=70 keys (inside,
    /// on and across several chunk boundaries), keys drawn with duplicates
    /// from a pool holding both `i64` extremes and their neighbours (a
    /// signed-compare slip shows there), and columns of one repeated key
    /// (a chunk where every key, or none, matches).
    #[test]
    fn every_chunk_test_equals_a_scalar_double_loop() {
        const POOL: [i64; 9] = [
            i64::MIN,
            i64::MIN + 1,
            -2,
            -1,
            0,
            1,
            2,
            i64::MAX - 1,
            i64::MAX,
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            POOL[(state % POOL.len() as u64) as usize]
        };
        for n in 0..=70usize {
            for round in 0..6 {
                let keys: Vec<i64> = match round {
                    0 => vec![POOL[n % POOL.len()]; n],
                    1 => (0..n).map(|i| POOL[i % POOL.len()]).collect(),
                    _ => (0..n).map(|_| draw()).collect(),
                };
                for (key, op, chunk) in POOL
                    .iter()
                    .flat_map(|&key| OPS.map(|op| (key, op)))
                    .flat_map(|(key, op)| chunk_tests().into_iter().map(move |c| (key, op, c)))
                {
                    let theta = Theta {
                        op,
                        chunk,
                        test: |a: i64, b: i64| op.test(a.cmp(&b)),
                    };
                    let mut got = Vec::new();
                    each_match(key, &keys, &theta, |i| got.push(i));
                    let want: Vec<usize> = (0..n).filter(|&i| op.test(key.cmp(&keys[i]))).collect();
                    assert_eq!(got, want, "{chunk:?}: {key} {op} {keys:?}");
                }
            }
        }
    }

    #[test]
    fn key_types_select_the_comparator_class() {
        let s = Schema::build()
            .attr("i", DataType::Int)
            .attr("b", DataType::Bool)
            .attr("s4", DataType::Str(4))
            .attr("s8", DataType::Str(8))
            .finish()
            .unwrap();
        for (left, right, class) in [
            ("i", "i", KeyClass::Int),
            ("b", "b", KeyClass::Bytes),
            ("s4", "s4", KeyClass::Bytes),
            ("s8", "s8", KeyClass::Bytes),
            ("s4", "s8", KeyClass::Typed),
            ("s8", "s4", KeyClass::Typed),
        ] {
            // The class follows the key types, whatever the operator; the
            // hash path additionally needs an equi-join.
            for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge] {
                let c = JoinCondition::new(&s, left, op, &s, right).unwrap();
                let sweep = JoinSweep::compile(&s, &s, &c);
                assert_eq!(sweep.class(), class, "{left} {op} {right}");
                assert_eq!(
                    sweep.hash_applicable(),
                    op == CmpOp::Eq && class != KeyClass::Typed,
                    "{left} {op} {right}"
                );
            }
        }
    }

    #[test]
    fn sweep_into_appends_after_an_existing_prefix() {
        let (a, b) = (
            kv_page(&[(1, 10), (2, 20)]),
            kv_page(&[(2, 200), (1, 100), (2, 201)]),
        );
        let out_schema = kv_schema().concat(&kv_schema());
        let c = JoinCondition::equi(&kv_schema(), "k", &kv_schema(), "k").unwrap();
        let sweep = JoinSweep::compile(&kv_schema(), &kv_schema(), &c);
        let bytes =
            |buf: &TupleBuf| -> Vec<u8> { buf.refs().flat_map(|t| t.raw().to_vec()).collect() };
        let mut alone = TupleBuf::new(out_schema.clone());
        sweep.sweep_into(&a, &b, &mut alone);
        assert_eq!(alone.len(), 3);

        let mut out = TupleBuf::new(out_schema);
        sweep.sweep_into(&b, &a, &mut out);
        let prefix = bytes(&out);
        sweep.sweep_into(&a, &b, &mut out);
        assert_eq!(bytes(&out), [prefix, bytes(&alone)].concat());
    }

    #[test]
    fn list_sweep_equals_pair_sweeps_in_either_orientation() {
        let page = kv_page(&[(1, 10), (2, 20), (3, 30)]);
        let others = [
            kv_page(&[(2, 200), (3, 300)]),
            kv_page(&[]),
            kv_page(&[(1, 100), (1, 101), (3, 301)]),
        ];
        let out_schema = kv_schema().concat(&kv_schema());
        let c = JoinCondition::new(&kv_schema(), "k", CmpOp::Le, &kv_schema(), "k").unwrap();
        let sweep = JoinSweep::compile(&kv_schema(), &kv_schema(), &c);
        for page_is_outer in [true, false] {
            let mut listed = TupleBuf::new(out_schema.clone());
            sweep.sweep_list_into(&page, &others, page_is_outer, &mut listed);
            let mut paired = TupleBuf::new(out_schema.clone());
            for other in &others {
                if page_is_outer {
                    sweep.sweep_into(&page, other, &mut paired);
                } else {
                    sweep.sweep_into(other, &page, &mut paired);
                }
            }
            assert_eq!(listed.to_tuples(), paired.to_tuples());
            assert!(!listed.is_empty());
        }
    }

    /// A side of 15, 16, 17 or 33 keys ends just inside a 16-key chunk, on
    /// its boundary, or just past it into the remainder. Keys cycle through
    /// 0..5, so every θ matches in every chunk and in the remainder; the
    /// probe must give exactly the pairs a plain double loop over the
    /// decoded keys gives, in (page slot, opposite arrival) order, under
    /// each chunk test this CPU runs.
    #[test]
    fn column_probe_loses_no_match_at_a_chunk_boundary() {
        let arriving = [(4, -1), (0, -2), (2, -3)];
        let page = kv_page(&arriving);
        for n in [15usize, 16, 17, 33] {
            let side: Vec<(i64, i64)> = (0..n as i64).map(|i| (i % 5, i)).collect();
            let mut column = SideKeyColumn::new(0);
            for rows in side.chunks(7) {
                column.extend(&[std::sync::Arc::new(kv_page(rows))]);
            }
            let upto = column.received().len();
            assert_eq!(column.keys(upto).len(), n);
            for (op, chunk) in OPS
                .iter()
                .flat_map(|&op| chunk_tests().into_iter().map(move |c| (op, c)))
            {
                let c = JoinCondition::new(&kv_schema(), "k", op, &kv_schema(), "k").unwrap();
                let sweep = JoinSweep {
                    chunk,
                    ..JoinSweep::compile(&kv_schema(), &kv_schema(), &c)
                };
                for page_is_outer in [true, false] {
                    let mut got = TupleBuf::new(kv_schema().concat(&kv_schema()));
                    sweep.probe_column_into(&page, &column, upto, page_is_outer, &mut got);
                    let mut want = Vec::new();
                    for &(pk, pv) in &arriving {
                        for &(sk, sv) in &side {
                            let (o, i) = if page_is_outer {
                                ([pk, pv], [sk, sv])
                            } else {
                                ([sk, sv], [pk, pv])
                            };
                            if op.test(o[0].cmp(&i[0])) {
                                let values = [o, i].concat().into_iter().map(Value::Int);
                                want.push(Tuple::new(values.collect()));
                            }
                        }
                    }
                    let case = format!("n {n} op {op} {chunk:?} outer {page_is_outer}");
                    assert!(!want.is_empty(), "{case}");
                    assert_eq!(got.to_tuples(), want, "{case}");
                }
            }
        }
    }
}
