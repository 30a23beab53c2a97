//! Data types and values.
//!
//! A deliberately small, 1979-plausible type system. Every type has a fixed
//! encoded width, so a tuple's wire size is a function of its schema alone —
//! the property the paper's packet formats ("tuple length & format", Fig 4.3)
//! and its byte-level bandwidth analysis (§3.3) rely on.

use std::cmp::Ordering;
use std::fmt;

use crate::error::{Error, Result};

/// The type of an attribute. Every type has a fixed encoded width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer, encoded big-endian in 8 bytes.
    Int,
    /// Boolean, encoded in 1 byte (0 or 1).
    Bool,
    /// Fixed-length string of `n` bytes, NUL-padded. `n` must be ≥ 1.
    Str(u16),
}

impl DataType {
    /// The encoded width in bytes.
    #[inline]
    pub fn width(self) -> usize {
        match self {
            DataType::Int => 8,
            DataType::Bool => 1,
            DataType::Str(n) => n as usize,
        }
    }

    /// Whether `value` inhabits this type (strings must fit, NULs forbidden
    /// because NUL is the pad byte).
    pub fn admits(self, value: &Value) -> bool {
        match (self, value) {
            (DataType::Int, Value::Int(_)) => true,
            (DataType::Bool, Value::Bool(_)) => true,
            (DataType::Str(n), Value::Str(s)) => {
                s.len() <= n as usize && !s.as_bytes().contains(&0)
            }
            _ => false,
        }
    }
}

/// Strip the NUL padding from an encoded string field. Content NULs are
/// forbidden by [`DataType::admits`], so the first NUL marks the end.
#[inline]
pub(crate) fn trim_str_padding(raw: &[u8]) -> &[u8] {
    let end = raw.iter().position(|&b| b == 0).unwrap_or(raw.len());
    &raw[..end]
}

/// Compare two *encoded* attribute images without decoding (no allocation).
///
/// Returns `None` on cross-type comparison, mirroring
/// [`Value::partial_cmp_typed`]. The encoding is canonical, so:
/// ints decode to 8 bytes (big-endian two's complement does not memcmp for
/// ordering, hence the decode), bools compare as their bytes, and strings
/// compare as their NUL-trimmed bytes (UTF-8 byte order equals `str` order).
#[inline]
pub fn cmp_encoded(lt: DataType, a: &[u8], rt: DataType, b: &[u8]) -> Option<Ordering> {
    match (lt, rt) {
        (DataType::Int, DataType::Int) => {
            let x = i64::from_be_bytes(a[..8].try_into().expect("int image is 8 bytes"));
            let y = i64::from_be_bytes(b[..8].try_into().expect("int image is 8 bytes"));
            Some(x.cmp(&y))
        }
        (DataType::Bool, DataType::Bool) => Some(a[0].cmp(&b[0])),
        (DataType::Str(_), DataType::Str(_)) => Some(trim_str_padding(a).cmp(trim_str_padding(b))),
        _ => None,
    }
}

/// Compare an *encoded* attribute image against a decoded constant without
/// decoding or allocating. Returns `None` on cross-type comparison.
#[inline]
pub fn cmp_encoded_value(dtype: DataType, image: &[u8], value: &Value) -> Option<Ordering> {
    match (dtype, value) {
        (DataType::Int, Value::Int(y)) => {
            let x = i64::from_be_bytes(image[..8].try_into().expect("int image is 8 bytes"));
            Some(x.cmp(y))
        }
        (DataType::Bool, Value::Bool(y)) => Some((image[0] != 0).cmp(y)),
        (DataType::Str(_), Value::Str(s)) => Some(trim_str_padding(image).cmp(s.as_bytes())),
        _ => None,
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "int"),
            DataType::Bool => write!(f, "bool"),
            DataType::Str(n) => write!(f, "str({n})"),
        }
    }
}

/// A single attribute value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// A 64-bit integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A string (validated against its `Str(n)` type at append time).
    Str(String),
}

impl Value {
    /// Shorthand for building string values in tests and examples.
    pub fn str(s: &str) -> Value {
        Value::Str(s.to_owned())
    }

    /// Total ordering *within* a type; `None` across types.
    ///
    /// The relational operators only ever compare same-typed attributes (the
    /// validator guarantees it), so `None` signals a planning bug upstream.
    pub fn partial_cmp_typed(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Encode into `out` using exactly `dtype.width()` bytes.
    ///
    /// # Errors
    /// Fails if the value does not inhabit `dtype`.
    pub fn encode(&self, dtype: DataType, out: &mut Vec<u8>) -> Result<()> {
        if !dtype.admits(self) {
            return Err(Error::ValueOutOfRange {
                detail: format!("value {self} does not fit type {dtype}"),
            });
        }
        match (self, dtype) {
            (Value::Int(x), DataType::Int) => out.extend_from_slice(&x.to_be_bytes()),
            (Value::Bool(b), DataType::Bool) => out.push(u8::from(*b)),
            (Value::Str(s), DataType::Str(n)) => {
                out.extend_from_slice(s.as_bytes());
                out.resize(out.len() + (n as usize - s.len()), 0);
            }
            _ => unreachable!("admits() checked the pairing"),
        }
        Ok(())
    }

    /// Decode a value of type `dtype` from the front of `bytes`.
    ///
    /// Returns the value and the number of bytes consumed.
    pub fn decode(dtype: DataType, bytes: &[u8]) -> Result<(Value, usize)> {
        let w = dtype.width();
        if bytes.len() < w {
            return Err(Error::Corrupt {
                detail: format!("need {w} bytes for {dtype}, have {}", bytes.len()),
            });
        }
        let v = match dtype {
            DataType::Int => {
                let mut buf = [0u8; 8];
                buf.copy_from_slice(&bytes[..8]);
                Value::Int(i64::from_be_bytes(buf))
            }
            DataType::Bool => match bytes[0] {
                0 => Value::Bool(false),
                1 => Value::Bool(true),
                b => {
                    return Err(Error::Corrupt {
                        detail: format!("invalid bool byte {b}"),
                    })
                }
            },
            DataType::Str(n) => {
                let raw = &bytes[..n as usize];
                let end = raw.iter().position(|&b| b == 0).unwrap_or(raw.len());
                let s = std::str::from_utf8(&raw[..end]).map_err(|_| Error::Corrupt {
                    detail: "string field is not UTF-8".into(),
                })?;
                Value::Str(s.to_owned())
            }
        };
        Ok((v, w))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(DataType::Int.width(), 8);
        assert_eq!(DataType::Bool.width(), 1);
        assert_eq!(DataType::Str(100).width(), 100);
    }

    #[test]
    fn admits_checks_type_and_fit() {
        assert!(DataType::Int.admits(&Value::Int(5)));
        assert!(!DataType::Int.admits(&Value::Bool(true)));
        assert!(DataType::Str(5).admits(&Value::str("abcde")));
        assert!(!DataType::Str(4).admits(&Value::str("abcde")));
        assert!(!DataType::Str(4).admits(&Value::Str("a\0b".into())));
    }

    #[test]
    fn int_round_trip() {
        for x in [0i64, 1, -1, i64::MAX, i64::MIN, 123_456_789] {
            let mut buf = Vec::new();
            Value::Int(x).encode(DataType::Int, &mut buf).unwrap();
            assert_eq!(buf.len(), 8);
            let (v, n) = Value::decode(DataType::Int, &buf).unwrap();
            assert_eq!((v, n), (Value::Int(x), 8));
        }
    }

    #[test]
    fn str_round_trip_with_padding() {
        let mut buf = Vec::new();
        Value::str("hi").encode(DataType::Str(6), &mut buf).unwrap();
        assert_eq!(buf, b"hi\0\0\0\0");
        let (v, n) = Value::decode(DataType::Str(6), &buf).unwrap();
        assert_eq!((v, n), (Value::str("hi"), 6));
    }

    #[test]
    fn bool_round_trip_and_corruption() {
        let mut buf = Vec::new();
        Value::Bool(true).encode(DataType::Bool, &mut buf).unwrap();
        let (v, _) = Value::decode(DataType::Bool, &buf).unwrap();
        assert_eq!(v, Value::Bool(true));
        assert!(matches!(
            Value::decode(DataType::Bool, &[7]),
            Err(Error::Corrupt { .. })
        ));
    }

    #[test]
    fn decode_rejects_short_input() {
        assert!(matches!(
            Value::decode(DataType::Int, &[1, 2, 3]),
            Err(Error::Corrupt { .. })
        ));
    }

    #[test]
    fn encode_rejects_misfit() {
        let mut buf = Vec::new();
        assert!(Value::str("toolong")
            .encode(DataType::Str(3), &mut buf)
            .is_err());
        assert!(Value::Int(1).encode(DataType::Bool, &mut buf).is_err());
    }

    /// Encoded comparison must agree with decoded comparison on every pair.
    #[test]
    fn encoded_cmp_matches_decoded_cmp() {
        let ints = [i64::MIN, -2, -1, 0, 1, 2, i64::MAX];
        for &x in &ints {
            for &y in &ints {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                Value::Int(x).encode(DataType::Int, &mut a).unwrap();
                Value::Int(y).encode(DataType::Int, &mut b).unwrap();
                let want = Value::Int(x).partial_cmp_typed(&Value::Int(y));
                assert_eq!(cmp_encoded(DataType::Int, &a, DataType::Int, &b), want);
                assert_eq!(cmp_encoded_value(DataType::Int, &a, &Value::Int(y)), want);
            }
        }
        let strs = ["", "a", "ab", "abc", "b", "zz"];
        for x in strs {
            for y in strs {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                Value::str(x).encode(DataType::Str(4), &mut a).unwrap();
                Value::str(y).encode(DataType::Str(6), &mut b).unwrap();
                let want = Value::str(x).partial_cmp_typed(&Value::str(y));
                assert_eq!(
                    cmp_encoded(DataType::Str(4), &a, DataType::Str(6), &b),
                    want
                );
                assert_eq!(
                    cmp_encoded_value(DataType::Str(4), &a, &Value::str(y)),
                    want
                );
            }
        }
        for x in [false, true] {
            for y in [false, true] {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                Value::Bool(x).encode(DataType::Bool, &mut a).unwrap();
                Value::Bool(y).encode(DataType::Bool, &mut b).unwrap();
                let want = Value::Bool(x).partial_cmp_typed(&Value::Bool(y));
                assert_eq!(cmp_encoded(DataType::Bool, &a, DataType::Bool, &b), want);
                assert_eq!(cmp_encoded_value(DataType::Bool, &a, &Value::Bool(y)), want);
            }
        }
        // Cross-type comparisons stay undefined, encoded or not.
        assert_eq!(
            cmp_encoded(DataType::Int, &[0; 8], DataType::Bool, &[0]),
            None
        );
        assert_eq!(
            cmp_encoded_value(DataType::Bool, &[0], &Value::Int(0)),
            None
        );
    }

    #[test]
    fn ordering_within_and_across_types() {
        use std::cmp::Ordering::*;
        assert_eq!(Value::Int(1).partial_cmp_typed(&Value::Int(2)), Some(Less));
        assert_eq!(
            Value::str("b").partial_cmp_typed(&Value::str("a")),
            Some(Greater)
        );
        assert_eq!(Value::Int(1).partial_cmp_typed(&Value::str("a")), None);
    }
}
