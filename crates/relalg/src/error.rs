//! Error types for the relational model.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Everything that can go wrong constructing or manipulating relational data.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// An attribute name was not found in a schema.
    UnknownAttribute {
        /// The offending name.
        name: String,
    },
    /// Two attributes in one schema share a name.
    DuplicateAttribute {
        /// The duplicated name.
        name: String,
    },
    /// A schema with no attributes was requested.
    EmptySchema,
    /// A tuple's arity or types do not match the schema it is used with.
    SchemaMismatch {
        /// Human-readable detail.
        detail: String,
    },
    /// A value does not fit its declared type (e.g. over-long string).
    ValueOutOfRange {
        /// Human-readable detail.
        detail: String,
    },
    /// A page cannot hold even a single tuple of the given schema.
    PageTooSmall {
        /// Configured page size in bytes.
        page_size: usize,
        /// Bytes needed for one tuple plus the page header.
        needed: usize,
    },
    /// An append to a full fixed-capacity page.
    PageFull,
    /// Decoding bytes that are not a valid page/tuple image.
    Corrupt {
        /// Human-readable detail.
        detail: String,
    },
    /// A relation name was not found in the catalog.
    UnknownRelation {
        /// The offending name.
        name: String,
    },
    /// Inserting a relation whose name is already taken.
    DuplicateRelation {
        /// The duplicated name.
        name: String,
    },
    /// An attribute index is out of bounds for a schema.
    AttrIndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The schema arity.
        arity: usize,
    },
    /// Comparing values of incompatible types.
    TypeMismatch {
        /// Human-readable detail.
        detail: String,
    },
    /// Query text that does not follow the query grammar.
    Syntax {
        /// Human-readable detail.
        detail: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownAttribute { name } => write!(f, "unknown attribute `{name}`"),
            Error::DuplicateAttribute { name } => write!(f, "duplicate attribute `{name}`"),
            Error::EmptySchema => write!(f, "schema must have at least one attribute"),
            Error::SchemaMismatch { detail } => write!(f, "schema mismatch: {detail}"),
            Error::ValueOutOfRange { detail } => write!(f, "value out of range: {detail}"),
            Error::PageTooSmall { page_size, needed } => write!(
                f,
                "page size {page_size} too small: one tuple plus header needs {needed} bytes"
            ),
            Error::PageFull => write!(f, "page is full"),
            Error::Corrupt { detail } => write!(f, "corrupt page or tuple image: {detail}"),
            Error::UnknownRelation { name } => write!(f, "unknown relation `{name}`"),
            Error::DuplicateRelation { name } => {
                write!(f, "relation `{name}` already exists in catalog")
            }
            Error::AttrIndexOutOfBounds { index, arity } => {
                write!(f, "attribute index {index} out of bounds for arity {arity}")
            }
            Error::TypeMismatch { detail } => write!(f, "type mismatch: {detail}"),
            Error::Syntax { detail } => write!(f, "query syntax: {detail}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::UnknownAttribute {
            name: "salary".into(),
        };
        assert!(e.to_string().contains("salary"));
        let e = Error::PageTooSmall {
            page_size: 64,
            needed: 128,
        };
        assert!(e.to_string().contains("64"));
        assert!(e.to_string().contains("128"));
    }

    #[test]
    fn implements_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::EmptySchema);
    }
}
