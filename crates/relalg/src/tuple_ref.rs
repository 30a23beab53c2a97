//! Borrowed, zero-copy views over encoded tuple images.
//!
//! A [`TupleRef`] is the hot-path counterpart of [`Tuple`]: it points at one
//! fixed-width tuple image inside a page (or buffer) and decodes individual
//! attributes on demand. Operator kernels evaluate predicates, compare join
//! keys, and copy projected byte ranges directly over these views, so a
//! tuple that merely *passes through* an operator is never decoded and
//! re-encoded — its image is memcpy'd.

use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::{DataType, Value};

/// A borrowed view over one encoded tuple image.
///
/// Construction checks the image length once; attribute access is offset
/// arithmetic via [`Schema::attr_range`].
#[derive(Debug, Clone, Copy)]
pub struct TupleRef<'a> {
    schema: &'a Schema,
    bytes: &'a [u8],
}

impl<'a> TupleRef<'a> {
    /// View `bytes` as one tuple of `schema`.
    ///
    /// # Errors
    /// Fails if `bytes` is not exactly [`Schema::tuple_width`] long.
    pub fn new(schema: &'a Schema, bytes: &'a [u8]) -> Result<TupleRef<'a>> {
        if bytes.len() != schema.tuple_width() {
            return Err(Error::Corrupt {
                detail: format!(
                    "tuple image of {} bytes for schema of width {}",
                    bytes.len(),
                    schema.tuple_width()
                ),
            });
        }
        Ok(TupleRef { schema, bytes })
    }

    /// View `bytes` as one tuple of `schema` without the length check —
    /// for iteration over page data already sliced into exact widths.
    #[inline]
    pub(crate) fn new_unchecked(schema: &'a Schema, bytes: &'a [u8]) -> TupleRef<'a> {
        debug_assert_eq!(bytes.len(), schema.tuple_width());
        TupleRef { schema, bytes }
    }

    /// The schema this image is encoded under.
    #[inline]
    pub fn schema(&self) -> &'a Schema {
        self.schema
    }

    /// The raw fixed-width image.
    #[inline]
    pub fn raw(&self) -> &'a [u8] {
        self.bytes
    }

    /// Number of attributes.
    #[inline]
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// The encoded bytes of attribute `index` (padding included for strings).
    ///
    /// # Panics
    /// Panics on an out-of-bounds index — kernels resolve and validate
    /// attribute indices against the schema before the hot loop.
    #[inline]
    pub fn attr_bytes(&self, index: usize) -> &'a [u8] {
        &self.bytes[self.schema.attr_range(index)]
    }

    /// The declared type of attribute `index` (panics on out-of-bounds).
    #[inline]
    pub fn attr_dtype(&self, index: usize) -> DataType {
        self.schema.attrs()[index].dtype
    }

    /// Decode the single value at attribute `index`.
    ///
    /// # Errors
    /// Fails on out-of-bounds indices or corrupt images.
    pub fn value(&self, index: usize) -> Result<Value> {
        let attr = self.schema.attr(index)?;
        let (v, _) = Value::decode(attr.dtype, &self.bytes[self.schema.attr_range(index)])?;
        Ok(v)
    }

    /// Fully decode into an owned [`Tuple`].
    ///
    /// # Panics
    /// Panics on corrupt images: pages only ever hold validly encoded
    /// tuples, so corruption here is a bug, not a runtime condition.
    pub fn to_tuple(&self) -> Tuple {
        Tuple::decode(self.schema, self.bytes).expect("page data holds valid tuple images")
    }
}

/// An owned batch of encoded tuple images sharing one schema: what an
/// operator kernel emits and an IP's output buffer drains into pages.
///
/// Appends are memcpy's; draining into a [`crate::Page`] is a memcpy of as
/// many whole images as fit. A cursor (`start`) makes repeated front-drains
/// O(moved bytes) instead of O(remaining bytes).
#[derive(Debug, Clone)]
pub struct TupleBuf {
    schema: Schema,
    bytes: Vec<u8>,
    /// Byte offset of the first live image; everything before is drained.
    start: usize,
}

impl TupleBuf {
    /// An empty batch for tuples of `schema`.
    pub fn new(schema: Schema) -> TupleBuf {
        TupleBuf {
            schema,
            bytes: Vec::new(),
            start: 0,
        }
    }

    /// Wrap an already-built byte vector of whole images (length must be a
    /// multiple of the tuple width — debug-asserted). The bulk path for
    /// kernels that assemble their output bytes directly.
    pub fn from_images(schema: Schema, bytes: Vec<u8>) -> TupleBuf {
        debug_assert_eq!(bytes.len() % schema.tuple_width(), 0);
        TupleBuf {
            schema,
            bytes,
            start: 0,
        }
    }

    /// Append whole images that `write` puts straight onto the end of the
    /// batch's byte vector (it must only append, and only whole images —
    /// debug-asserted). The bulk path for a kernel that writes its output
    /// into a caller's batch without a byte vector of its own.
    #[inline]
    pub fn extend_images(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        let before = self.bytes.len();
        write(&mut self.bytes);
        debug_assert!(self.bytes.len() >= before);
        debug_assert_eq!((self.bytes.len() - before) % self.schema.tuple_width(), 0);
    }

    /// The batch's schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live tuple images.
    #[inline]
    pub fn len(&self) -> usize {
        (self.bytes.len() - self.start) / self.schema.tuple_width()
    }

    /// True if no live images remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes.len() == self.start
    }

    /// Make room for `images` more tuple images without reallocating.
    #[inline]
    pub fn reserve(&mut self, images: usize) {
        self.bytes.reserve(images * self.schema.tuple_width());
    }

    /// Append one raw image (must be exactly one tuple width — debug
    /// asserted; callers copy images out of validated pages).
    #[inline]
    pub fn push_raw(&mut self, image: &[u8]) {
        debug_assert_eq!(image.len(), self.schema.tuple_width());
        self.bytes.extend_from_slice(image);
    }

    /// Append a borrowed tuple view (layout compatibility debug-asserted).
    #[inline]
    pub fn push_ref(&mut self, t: &TupleRef<'_>) {
        debug_assert!(self.schema.layout_eq(t.schema()));
        self.bytes.extend_from_slice(t.raw());
    }

    /// Append the concatenation of two images — the output row of a join or
    /// cross product, built without decoding either side.
    #[inline]
    pub fn push_concat(&mut self, left: &[u8], right: &[u8]) {
        debug_assert_eq!(left.len() + right.len(), self.schema.tuple_width());
        self.bytes.extend_from_slice(left);
        self.bytes.extend_from_slice(right);
    }

    /// The live images, concatenated — the bulk form
    /// [`crate::Relation::append_images`] takes.
    #[inline]
    pub fn images(&self) -> &[u8] {
        &self.bytes[self.start..]
    }

    /// Iterate over the live images as borrowed views.
    pub fn refs(&self) -> impl Iterator<Item = TupleRef<'_>> {
        let w = self.schema.tuple_width();
        self.bytes[self.start..]
            .chunks_exact(w)
            .map(move |c| TupleRef::new_unchecked(&self.schema, c))
    }

    /// Decode all live images (test/oracle comparison path).
    pub fn to_tuples(&self) -> Vec<Tuple> {
        self.refs().map(|r| r.to_tuple()).collect()
    }

    /// Move as many leading images as fit into `page`, returning how many
    /// moved. A pure byte copy; the page's schema must be layout-compatible
    /// (debug-asserted — both sides come from one validated instruction).
    pub fn drain_into(&mut self, page: &mut crate::page::Page) -> usize {
        debug_assert!(self.schema.layout_eq(page.schema()));
        let w = self.schema.tuple_width();
        let room = page.capacity() - page.len();
        let take = room.min(self.len());
        if take > 0 {
            page.extend_raw(&self.bytes[self.start..self.start + take * w], take);
            self.start += take * w;
            if self.start == self.bytes.len() {
                self.bytes.clear();
                self.start = 0;
            }
        }
        take
    }

    /// Drop all live images.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.start = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::Page;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::build()
            .attr("id", DataType::Int)
            .attr("flag", DataType::Bool)
            .attr("tag", DataType::Str(4))
            .finish()
            .unwrap()
    }

    fn tup(id: i64, flag: bool, tag: &str) -> Tuple {
        Tuple::new(vec![Value::Int(id), Value::Bool(flag), Value::str(tag)])
    }

    fn image(t: &Tuple) -> Vec<u8> {
        let mut buf = Vec::new();
        t.encode(&schema(), &mut buf).unwrap();
        buf
    }

    #[test]
    fn ref_decodes_single_values_and_whole_tuples() {
        let s = schema();
        let t = tup(-7, true, "ab");
        let img = image(&t);
        let r = TupleRef::new(&s, &img).unwrap();
        assert_eq!(r.arity(), 3);
        assert_eq!(r.value(0).unwrap(), Value::Int(-7));
        assert_eq!(r.value(1).unwrap(), Value::Bool(true));
        assert_eq!(r.value(2).unwrap(), Value::str("ab"));
        assert!(r.value(3).is_err());
        assert_eq!(r.to_tuple(), t);
        assert_eq!(r.raw(), &img[..]);
        assert_eq!(r.attr_bytes(1), &[1]);
        assert_eq!(r.attr_dtype(2), DataType::Str(4));
    }

    #[test]
    fn ref_rejects_wrong_length() {
        let s = schema();
        assert!(TupleRef::new(&s, &[0u8; 3]).is_err());
    }

    #[test]
    fn buf_round_trips_raw_and_decoded_pushes() {
        let s = schema();
        let mut buf = TupleBuf::new(s.clone());
        assert!(buf.is_empty());
        buf.push_raw(&image(&tup(1, false, "x")));
        buf.push_raw(&image(&tup(2, true, "y")));
        let img = image(&tup(3, false, "z"));
        buf.push_ref(&TupleRef::new(&s, &img).unwrap());
        assert_eq!(buf.len(), 3);
        assert_eq!(
            buf.to_tuples(),
            vec![tup(1, false, "x"), tup(2, true, "y"), tup(3, false, "z")]
        );
        buf.clear();
        assert!(buf.is_empty());
    }

    #[test]
    fn buf_concat_builds_join_rows() {
        let s = schema();
        let joined = s.concat(&s);
        let mut buf = TupleBuf::new(joined);
        let (a, b) = (image(&tup(1, true, "l")), image(&tup(2, false, "r")));
        buf.push_concat(&a, &b);
        assert_eq!(buf.len(), 1);
        assert_eq!(
            buf.to_tuples()[0],
            tup(1, true, "l").concat(&tup(2, false, "r"))
        );
    }

    #[test]
    fn buf_drains_into_pages_with_cursor() {
        let s = schema();
        let mut buf = TupleBuf::new(s.clone());
        for i in 0..5 {
            buf.push_raw(&image(&tup(i, false, "t")));
        }
        // Page holds 2 tuples (width 13, header 16).
        let mut p1 = Page::new(s.clone(), 16 + 26).unwrap();
        assert_eq!(buf.drain_into(&mut p1), 2);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.drain_into(&mut p1), 0, "page already full");
        let mut p2 = Page::new(s.clone(), 16 + 26).unwrap();
        assert_eq!(buf.drain_into(&mut p2), 2);
        let mut p3 = Page::new(s, 16 + 26).unwrap();
        assert_eq!(buf.drain_into(&mut p3), 1);
        assert!(buf.is_empty());
        let ids: Vec<Tuple> = p1.tuples().chain(p2.tuples()).chain(p3.tuples()).collect();
        assert_eq!(ids, (0..5).map(|i| tup(i, false, "t")).collect::<Vec<_>>());
    }
}
