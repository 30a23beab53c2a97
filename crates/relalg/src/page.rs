//! Fixed-size slotted pages of encoded tuples.
//!
//! A page is the paper's central unit: the operand granularity it argues for
//! (§3.2), the thing the arbitration network carries, the thing the disk
//! cache holds. Our page is a fixed-capacity container of fixed-width tuple
//! images plus a small header. The header models the on-wire/on-disk bytes
//! the packet formats of Figure 4.3–4.4 account for ("relation name", "tuple
//! length & format", "page length").

use std::fmt;

use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::tuple_ref::TupleRef;

/// Modeled page-header size in bytes: relation id (4) + page length (4) +
/// tuple count (4) + tuple width (4). All byte accounting includes it.
pub const PAGE_HEADER_BYTES: usize = 16;

/// A fixed-size page of encoded tuples.
///
/// The page owns its schema handle (cheap `Arc` clone) so that a page in
/// flight through a simulated network is self-describing, exactly like the
/// paper's instruction packets which carry "tuple length & format" alongside
/// each data page.
///
/// ```
/// use df_relalg::{DataType, Page, Schema, Tuple, Value};
/// let schema = Schema::build().attr("k", DataType::Int).finish()?;
/// let mut page = Page::new(schema, 48)?; // header 16 + 4 slots of 8
/// assert_eq!(page.capacity(), 4);
/// page.push(&Tuple::new(vec![Value::Int(7)]))?;
/// assert_eq!(page.len(), 1);
/// assert_eq!(page.wire_bytes(), 16 + 8);
/// # Ok::<(), df_relalg::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    schema: Schema,
    /// Page size in bytes, including [`PAGE_HEADER_BYTES`].
    page_size: usize,
    /// Concatenated fixed-width tuple images.
    data: Vec<u8>,
    ntuples: usize,
}

impl Page {
    /// An empty page of `page_size` bytes for tuples of `schema`.
    ///
    /// # Errors
    /// Fails if even one tuple does not fit (`page_size` too small).
    pub fn new(schema: Schema, page_size: usize) -> Result<Page> {
        let needed = PAGE_HEADER_BYTES + schema.tuple_width();
        if page_size < needed {
            return Err(Error::PageTooSmall { page_size, needed });
        }
        Ok(Page {
            schema,
            page_size,
            data: Vec::new(),
            ntuples: 0,
        })
    }

    /// The tuple schema of this page.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Configured page size in bytes (header included).
    #[inline]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Maximum number of tuples this page can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        (self.page_size - PAGE_HEADER_BYTES) / self.schema.tuple_width()
    }

    /// Number of tuples currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.ntuples
    }

    /// True if no tuples are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ntuples == 0
    }

    /// True if another tuple cannot be appended.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.ntuples >= self.capacity()
    }

    /// Bytes this page occupies on the wire / on disk: header plus the
    /// stored tuple images. A partially-full page costs only what it holds
    /// (the paper's ICs *compact* partial pages precisely to avoid shipping
    /// and storing slack).
    #[inline]
    pub fn wire_bytes(&self) -> usize {
        PAGE_HEADER_BYTES + self.data.len()
    }

    /// Append a tuple.
    ///
    /// This is the hot path: it skips a separate up-front schema sweep
    /// ([`Tuple::conforms_to`]) — per-value encoding already rejects misfit
    /// values and a single length comparison catches arity mismatches, so
    /// nonconforming tuples still error.
    ///
    /// # Errors
    /// [`Error::PageFull`] if at capacity; schema errors if the tuple does
    /// not conform.
    pub fn push(&mut self, tuple: &Tuple) -> Result<()> {
        if self.is_full() {
            return Err(Error::PageFull);
        }
        tuple.encode_unchecked(&self.schema, &mut self.data)?;
        self.ntuples += 1;
        Ok(())
    }

    /// Append one raw tuple image (exactly [`Schema::tuple_width`] bytes)
    /// without decode→validate→re-encode — the zero-copy append for images
    /// lifted out of validated pages.
    ///
    /// # Errors
    /// [`Error::PageFull`] if at capacity; [`Error::Corrupt`] if the image
    /// length is not one tuple width.
    pub fn push_raw(&mut self, image: &[u8]) -> Result<()> {
        if self.is_full() {
            return Err(Error::PageFull);
        }
        if image.len() != self.schema.tuple_width() {
            return Err(Error::Corrupt {
                detail: format!(
                    "raw image of {} bytes for schema of width {}",
                    image.len(),
                    self.schema.tuple_width()
                ),
            });
        }
        self.data.extend_from_slice(image);
        self.ntuples += 1;
        Ok(())
    }

    /// Append a borrowed tuple view, memcpy'ing its image. Layout
    /// compatibility is one [`Schema::layout_eq`] check — a pointer
    /// comparison when both pages share a schema handle, which is the case
    /// for every kernel output (the instruction carries one schema).
    ///
    /// # Errors
    /// [`Error::PageFull`] if at capacity; [`Error::SchemaMismatch`] if the
    /// view's schema layout differs.
    pub fn push_ref(&mut self, tuple: &TupleRef<'_>) -> Result<()> {
        if self.is_full() {
            return Err(Error::PageFull);
        }
        if !self.schema.layout_eq(tuple.schema()) {
            return Err(Error::SchemaMismatch {
                detail: format!(
                    "pushing tuple of schema {} into page of schema {}",
                    tuple.schema(),
                    self.schema
                ),
            });
        }
        debug_assert_eq!(tuple.raw().len(), self.schema.tuple_width());
        self.data.extend_from_slice(tuple.raw());
        self.ntuples += 1;
        Ok(())
    }

    /// Allocate the data area for a full page now, so filling it never
    /// regrows it. Used where a relation opens a page to append into.
    pub(crate) fn reserve_full(&mut self) {
        let full = self.capacity() * self.schema.tuple_width();
        self.data.reserve_exact(full - self.data.len());
    }

    /// Bulk-append `count` whole images from `bytes` (callers — the
    /// [`crate::TupleBuf`] drain — have already checked capacity and layout;
    /// this only debug-asserts).
    #[inline]
    pub(crate) fn extend_raw(&mut self, bytes: &[u8], count: usize) {
        debug_assert_eq!(bytes.len(), count * self.schema.tuple_width());
        debug_assert!(self.ntuples + count <= self.capacity());
        self.data.extend_from_slice(bytes);
        self.ntuples += count;
    }

    /// Decode the tuple in slot `i`.
    pub fn get(&self, i: usize) -> Result<Tuple> {
        if i >= self.ntuples {
            return Err(Error::AttrIndexOutOfBounds {
                index: i,
                arity: self.ntuples,
            });
        }
        let w = self.schema.tuple_width();
        Tuple::decode(&self.schema, &self.data[i * w..])
    }

    /// Iterate over all tuples (decoding on the fly).
    pub fn tuples(&self) -> impl Iterator<Item = Tuple> + '_ {
        let w = self.schema.tuple_width();
        self.data
            .chunks_exact(w)
            .map(move |chunk| Tuple::decode(&self.schema, chunk).expect("page data is valid"))
    }

    /// Iterate over all tuples as borrowed zero-copy views (no decoding).
    pub fn tuple_refs(&self) -> impl Iterator<Item = TupleRef<'_>> {
        let w = self.schema.tuple_width();
        self.data
            .chunks_exact(w)
            .map(move |chunk| TupleRef::new_unchecked(&self.schema, chunk))
    }

    /// Borrow the tuple image in slot `i` without decoding.
    ///
    /// # Errors
    /// Fails if `i` is out of bounds.
    pub fn tuple_ref(&self, i: usize) -> Result<TupleRef<'_>> {
        if i >= self.ntuples {
            return Err(Error::AttrIndexOutOfBounds {
                index: i,
                arity: self.ntuples,
            });
        }
        let w = self.schema.tuple_width();
        Ok(TupleRef::new_unchecked(
            &self.schema,
            &self.data[i * w..(i + 1) * w],
        ))
    }

    /// Move as many tuples as fit from `other` into `self` (page compaction,
    /// paper §4.2: partial result pages arriving at an IC "are compressed to
    /// form full pages"). Returns the number of tuples moved.
    ///
    /// # Errors
    /// Fails if the two pages have different schemas.
    pub fn compact_from(&mut self, other: &mut Page) -> Result<usize> {
        if self.schema != other.schema {
            return Err(Error::SchemaMismatch {
                detail: "compacting pages of different schemas".into(),
            });
        }
        let w = self.schema.tuple_width();
        let room = self.capacity() - self.len();
        let take = room.min(other.ntuples);
        if take > 0 {
            self.data.extend_from_slice(&other.data[..take * w]);
            self.ntuples += take;
            other.data.drain(..take * w);
            other.ntuples -= take;
        }
        Ok(take)
    }

    /// The raw encoded tuple area (no header).
    #[inline]
    pub fn raw_data(&self) -> &[u8] {
        &self.data
    }
}

impl fmt::Display for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Page[{}/{} tuples, {} bytes]",
            self.ntuples,
            self.capacity(),
            self.wire_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{DataType, Value};

    fn schema() -> Schema {
        Schema::build()
            .attr("k", DataType::Int)
            .attr("pad", DataType::Str(92))
            .finish()
            .unwrap()
    }

    fn tup(k: i64) -> Tuple {
        Tuple::new(vec![Value::Int(k), Value::str("x")])
    }

    #[test]
    fn paper_capacity_math() {
        // §3.3: 100-byte tuples, 1000-byte pages "hold 10 tuples" — with our
        // explicit 16-byte header, a 1016-byte page holds exactly 10.
        let s = schema();
        assert_eq!(s.tuple_width(), 100);
        let p = Page::new(s, 1016).unwrap();
        assert_eq!(p.capacity(), 10);
    }

    #[test]
    fn push_until_full() {
        let mut p = Page::new(schema(), 316).unwrap(); // 3 tuples
        assert_eq!(p.capacity(), 3);
        for k in 0..3 {
            p.push(&tup(k)).unwrap();
        }
        assert!(p.is_full());
        assert!(matches!(p.push(&tup(9)), Err(Error::PageFull)));
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn get_and_iterate() {
        let mut p = Page::new(schema(), 1016).unwrap();
        for k in 0..5 {
            p.push(&tup(k)).unwrap();
        }
        assert_eq!(p.get(2).unwrap().get(0).unwrap(), &Value::Int(2));
        assert!(p.get(5).is_err());
        let keys: Vec<_> = p
            .tuples()
            .map(|t| match t.get(0).unwrap() {
                Value::Int(k) => *k,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(keys, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn wire_bytes_grow_with_content() {
        let mut p = Page::new(schema(), 1016).unwrap();
        assert_eq!(p.wire_bytes(), PAGE_HEADER_BYTES);
        p.push(&tup(1)).unwrap();
        assert_eq!(p.wire_bytes(), PAGE_HEADER_BYTES + 100);
    }

    #[test]
    fn too_small_page_rejected() {
        let s = schema();
        assert!(matches!(Page::new(s, 50), Err(Error::PageTooSmall { .. })));
    }

    #[test]
    fn compaction_moves_tuples() {
        let mut a = Page::new(schema(), 516).unwrap(); // cap 5
        let mut b = Page::new(schema(), 516).unwrap();
        a.push(&tup(1)).unwrap();
        for k in 10..14 {
            b.push(&tup(k)).unwrap();
        }
        let moved = a.compact_from(&mut b).unwrap();
        assert_eq!(moved, 4);
        assert_eq!(a.len(), 5);
        assert!(b.is_empty());
        // Partially-fitting case.
        let mut c = Page::new(schema(), 516).unwrap();
        for k in 20..25 {
            c.push(&tup(k)).unwrap();
        }
        let mut d = Page::new(schema(), 516).unwrap();
        d.push(&tup(30)).unwrap();
        let moved = d.compact_from(&mut c).unwrap();
        assert_eq!(moved, 4);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(0).unwrap().get(0).unwrap(), &Value::Int(24));
    }

    #[test]
    fn compaction_schema_mismatch() {
        let other = Schema::build().attr("z", DataType::Int).finish().unwrap();
        let mut a = Page::new(schema(), 1016).unwrap();
        let mut b = Page::new(other, 1016).unwrap();
        assert!(a.compact_from(&mut b).is_err());
    }

    #[test]
    fn rejects_nonconforming_tuple() {
        let mut p = Page::new(schema(), 1016).unwrap();
        assert!(p.push(&Tuple::new(vec![Value::Int(1)])).is_err());
        assert_eq!(p.len(), 0);
        p.push(&tup(5)).unwrap();
        assert_eq!(p.get(0).unwrap(), tup(5));
    }

    #[test]
    fn tuple_refs_view_without_decoding() {
        let mut p = Page::new(schema(), 1016).unwrap();
        for k in 0..4 {
            p.push(&tup(k)).unwrap();
        }
        let decoded: Vec<Tuple> = p.tuples().collect();
        let viewed: Vec<Tuple> = p.tuple_refs().map(|r| r.to_tuple()).collect();
        assert_eq!(decoded, viewed);
        let r = p.tuple_ref(2).unwrap();
        assert_eq!(r.value(0).unwrap(), Value::Int(2));
        assert_eq!(r.raw(), &p.raw_data()[200..300]);
        assert!(p.tuple_ref(4).is_err());
    }

    #[test]
    fn raw_and_ref_pushes_are_byte_identical_to_push() {
        let mut a = Page::new(schema(), 1016).unwrap();
        let mut b = Page::new(schema(), 1016).unwrap();
        for k in 0..3 {
            a.push(&tup(k)).unwrap();
        }
        for r in a.tuple_refs() {
            b.push_ref(&r).unwrap();
        }
        assert_eq!(a, b);
        let mut c = Page::new(schema(), 1016).unwrap();
        let w = a.schema().tuple_width();
        for img in a.raw_data().chunks_exact(w) {
            c.push_raw(img).unwrap();
        }
        assert_eq!(a, c);
    }

    #[test]
    fn raw_pushes_validate_length_layout_and_capacity() {
        let mut p = Page::new(schema(), 116).unwrap(); // 1 tuple
        assert!(matches!(p.push_raw(&[0u8; 7]), Err(Error::Corrupt { .. })));
        p.push_raw(&[0u8; 100]).unwrap();
        assert!(matches!(p.push_raw(&[0u8; 100]), Err(Error::PageFull)));
        // push_ref rejects layout-incompatible sources.
        let other = Schema::build().attr("z", DataType::Int).finish().unwrap();
        let mut q = Page::new(other, 100).unwrap();
        q.push(&Tuple::new(vec![Value::Int(1)])).unwrap();
        let r = q.tuple_ref(0).unwrap();
        let mut full_schema_page = Page::new(schema(), 1016).unwrap();
        assert!(matches!(
            full_schema_page.push_ref(&r),
            Err(Error::SchemaMismatch { .. })
        ));
    }
}
