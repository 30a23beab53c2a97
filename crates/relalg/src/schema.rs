//! Schemas: ordered lists of named, typed attributes with fixed tuple width.

use std::fmt;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::page::PAGE_HEADER_BYTES;
use crate::value::DataType;

/// A single named, typed attribute.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Attribute {
    /// Attribute name (unique within its schema).
    pub name: String,
    /// Attribute type (fixed width).
    pub dtype: DataType,
}

/// An ordered attribute list. Cheap to clone (`Arc` inside): schemas are
/// shared by relations, pages in flight, and every instruction packet.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Schema {
    attrs: Arc<[Attribute]>,
    /// Cached fixed tuple width (sum of attribute widths).
    width: usize,
    /// Cached byte offset of each attribute within a tuple image.
    offsets: Arc<[usize]>,
}

impl Schema {
    /// Construct from an attribute list.
    ///
    /// # Errors
    /// Fails on empty attribute lists or duplicate names.
    pub fn new(attrs: Vec<Attribute>) -> Result<Schema> {
        if attrs.is_empty() {
            return Err(Error::EmptySchema);
        }
        for (i, a) in attrs.iter().enumerate() {
            if attrs[..i].iter().any(|b| b.name == a.name) {
                return Err(Error::DuplicateAttribute {
                    name: a.name.clone(),
                });
            }
        }
        let mut offsets = Vec::with_capacity(attrs.len());
        let mut width = 0usize;
        for a in &attrs {
            offsets.push(width);
            width += a.dtype.width();
        }
        Ok(Schema {
            attrs: attrs.into(),
            width,
            offsets: offsets.into(),
        })
    }

    /// Start a fluent builder.
    pub fn build() -> SchemaBuilder {
        SchemaBuilder { attrs: Vec::new() }
    }

    /// The attributes, in order.
    #[inline]
    pub fn attrs(&self) -> &[Attribute] {
        &self.attrs
    }

    /// Number of attributes.
    #[inline]
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// The fixed encoded tuple width in bytes.
    #[inline]
    pub fn tuple_width(&self) -> usize {
        self.width
    }

    /// The page size a relation of this schema is packed into when
    /// `page_size` is asked for: `page_size`, grown if need be so the page
    /// holds at least one tuple (deep join chains widen tuples past small
    /// pages). The executors use it for intermediate and result pages; the
    /// simulated machines model fixed hardware pages and do not.
    #[inline]
    pub fn fit_page_size(&self, page_size: usize) -> usize {
        page_size.max(PAGE_HEADER_BYTES + self.width)
    }

    /// Byte offset of each attribute within a tuple image, in order.
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Byte range attribute `index` occupies within a tuple image.
    ///
    /// # Panics
    /// Panics on an out-of-bounds index: this is the hot-path accessor used
    /// by kernels whose predicates/projections were already validated against
    /// the schema.
    #[inline]
    pub fn attr_range(&self, index: usize) -> std::ops::Range<usize> {
        let start = self.offsets[index];
        start..start + self.attrs[index].dtype.width()
    }

    /// Whether two schemas produce byte-identical tuple images (same ordered
    /// attribute types; names may differ). The common case — both handles
    /// cloned from one schema — is a pointer comparison.
    #[inline]
    pub fn layout_eq(&self, other: &Schema) -> bool {
        Arc::ptr_eq(&self.attrs, &other.attrs)
            || (self.width == other.width
                && self.attrs.len() == other.attrs.len()
                && self
                    .attrs
                    .iter()
                    .zip(other.attrs.iter())
                    .all(|(a, b)| a.dtype == b.dtype))
    }

    /// Index of the attribute named `name`.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.attrs
            .iter()
            .position(|a| a.name == name)
            .ok_or_else(|| Error::UnknownAttribute { name: name.into() })
    }

    /// The attribute at `index`.
    pub fn attr(&self, index: usize) -> Result<&Attribute> {
        self.attrs.get(index).ok_or(Error::AttrIndexOutOfBounds {
            index,
            arity: self.attrs.len(),
        })
    }

    /// Concatenate two schemas (the output schema of a join / cross product).
    ///
    /// Name collisions are resolved by prefixing the colliding right-side
    /// attribute with `r_` (repeatedly if needed) — join outputs must have
    /// unique attribute names so they can feed further operators.
    pub fn concat(&self, right: &Schema) -> Schema {
        let mut attrs: Vec<Attribute> = self.attrs.to_vec();
        for a in right.attrs.iter() {
            let mut name = a.name.clone();
            while attrs.iter().any(|b| b.name == name) {
                name = format!("r_{name}");
            }
            attrs.push(Attribute {
                name,
                dtype: a.dtype,
            });
        }
        Schema::new(attrs).expect("concat of two valid schemas is valid")
    }

    /// The sub-schema selecting `indices`, in order (output of a projection).
    ///
    /// # Errors
    /// Fails if any index is out of bounds.
    pub fn select(&self, indices: &[usize]) -> Result<Schema> {
        let attrs = indices
            .iter()
            .map(|&i| self.attr(i).cloned())
            .collect::<Result<Vec<_>>>()?;
        Schema::new(attrs)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", a.name, a.dtype)?;
        }
        write!(f, ")")
    }
}

/// Fluent schema construction: `Schema::build().attr(...).finish()`.
#[derive(Debug)]
pub struct SchemaBuilder {
    attrs: Vec<Attribute>,
}

impl SchemaBuilder {
    /// Append an attribute.
    pub fn attr(mut self, name: &str, dtype: DataType) -> SchemaBuilder {
        self.attrs.push(Attribute {
            name: name.to_owned(),
            dtype,
        });
        self
    }

    /// Validate and build the schema.
    pub fn finish(self) -> Result<Schema> {
        Schema::new(self.attrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_col() -> Schema {
        Schema::build()
            .attr("id", DataType::Int)
            .attr("name", DataType::Str(10))
            .finish()
            .unwrap()
    }

    #[test]
    fn width_and_arity() {
        let s = two_col();
        assert_eq!(s.arity(), 2);
        assert_eq!(s.tuple_width(), 18);
    }

    #[test]
    fn fit_page_size_grows_only_to_hold_one_tuple() {
        let s = two_col();
        assert_eq!(s.fit_page_size(8), PAGE_HEADER_BYTES + 18);
        assert_eq!(
            s.fit_page_size(PAGE_HEADER_BYTES + 18),
            PAGE_HEADER_BYTES + 18
        );
        assert_eq!(s.fit_page_size(1024), 1024);
    }

    #[test]
    fn index_lookup() {
        let s = two_col();
        assert_eq!(s.index_of("name").unwrap(), 1);
        assert!(matches!(
            s.index_of("nope"),
            Err(Error::UnknownAttribute { .. })
        ));
        assert_eq!(s.attr(0).unwrap().name, "id");
        assert!(s.attr(9).is_err());
    }

    #[test]
    fn rejects_empty_and_duplicates() {
        assert!(matches!(Schema::new(vec![]), Err(Error::EmptySchema)));
        let r = Schema::build()
            .attr("x", DataType::Int)
            .attr("x", DataType::Bool)
            .finish();
        assert!(matches!(r, Err(Error::DuplicateAttribute { .. })));
    }

    #[test]
    fn concat_renames_collisions() {
        let s = two_col();
        let joined = s.concat(&s);
        let names: Vec<_> = joined.attrs().iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, vec!["id", "name", "r_id", "r_name"]);
        assert_eq!(joined.tuple_width(), 36);
        // Triple collision keeps prefixing.
        let triple = joined.concat(&s);
        assert!(triple.attrs().iter().any(|a| a.name == "r_r_id"));
    }

    #[test]
    fn select_projects_schema() {
        let s = two_col();
        let p = s.select(&[1]).unwrap();
        assert_eq!(p.arity(), 1);
        assert_eq!(p.attrs()[0].name, "name");
        assert!(s.select(&[5]).is_err());
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(format!("{}", two_col()), "(id: int, name: str(10))");
    }

    #[test]
    fn offsets_are_cumulative_widths() {
        let s = Schema::build()
            .attr("i", DataType::Int)
            .attr("b", DataType::Bool)
            .attr("s", DataType::Str(5))
            .finish()
            .unwrap();
        assert_eq!(s.offsets(), &[0, 8, 9]);
        assert_eq!(s.attr_range(0), 0..8);
        assert_eq!(s.attr_range(1), 8..9);
        assert_eq!(s.attr_range(2), 9..14);
        assert_eq!(s.tuple_width(), 14);
    }

    #[test]
    fn layout_eq_ignores_names() {
        let a = two_col();
        let b = a.clone(); // shared Arc -> pointer fast path
        assert!(a.layout_eq(&b));
        let renamed = Schema::build()
            .attr("x", DataType::Int)
            .attr("y", DataType::Str(10))
            .finish()
            .unwrap();
        assert!(a.layout_eq(&renamed));
        let other = Schema::build()
            .attr("x", DataType::Int)
            .attr("y", DataType::Str(11))
            .finish()
            .unwrap();
        assert!(!a.layout_eq(&other));
    }
}
