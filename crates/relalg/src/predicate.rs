//! Restriction predicates and join conditions.
//!
//! Predicates are resolved against a schema at construction time (attribute
//! names become indices), so evaluation on the hot path is index-based and
//! cannot fail on name lookups.

use std::cmp::Ordering;
use std::fmt;

use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::tuple_ref::TupleRef;
use crate::value::{cmp_encoded, cmp_encoded_value, Value};

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply the operator to an ordering result.
    #[inline]
    pub fn test(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// The operator with its arguments swapped (`a op b` ⇔ `b op.flip() a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Parse from the usual token (`=`, `<>`, `!=`, `<`, `<=`, `>`, `>=`).
    pub fn parse(tok: &str) -> Option<CmpOp> {
        Some(match tok {
            "=" | "==" => CmpOp::Eq,
            "<>" | "!=" => CmpOp::Ne,
            "<" => CmpOp::Lt,
            "<=" => CmpOp::Le,
            ">" => CmpOp::Gt,
            ">=" => CmpOp::Ge,
            _ => return None,
        })
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A boolean restriction expression over one tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// Always true (the identity restriction).
    True,
    /// `attr[index] op constant`
    CmpConst {
        /// Resolved attribute index.
        index: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Constant to compare against.
        value: Value,
    },
    /// `attr[left] op attr[right]` (both in the same tuple).
    CmpAttrs {
        /// Left attribute index.
        left: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Right attribute index.
        right: usize,
    },
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Build `name op constant`, resolving `name` against `schema` and
    /// type-checking the constant.
    pub fn cmp_const(schema: &Schema, name: &str, op: CmpOp, value: Value) -> Result<Predicate> {
        let index = schema.index_of(name)?;
        let dtype = schema.attr(index)?.dtype;
        if !dtype.admits(&value) {
            return Err(Error::TypeMismatch {
                detail: format!("attribute {name}: {dtype} vs constant {value}"),
            });
        }
        Ok(Predicate::CmpConst { index, op, value })
    }

    /// Build `left_name op right_name` over one schema, with type checking.
    pub fn cmp_attrs(
        schema: &Schema,
        left_name: &str,
        op: CmpOp,
        right_name: &str,
    ) -> Result<Predicate> {
        let left = schema.index_of(left_name)?;
        let right = schema.index_of(right_name)?;
        let lt = schema.attr(left)?.dtype;
        let rt = schema.attr(right)?.dtype;
        if std::mem::discriminant(&lt) != std::mem::discriminant(&rt) {
            return Err(Error::TypeMismatch {
                detail: format!("{left_name}: {lt} vs {right_name}: {rt}"),
            });
        }
        Ok(Predicate::CmpAttrs { left, op, right })
    }

    /// Conjunction helper.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Negation helper.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// Evaluate against a tuple.
    ///
    /// # Panics
    /// Panics (debug assert) if the predicate references attribute indices or
    /// types the tuple does not have — predicates must be built against the
    /// tuple's schema, which the query validator enforces.
    pub fn eval(&self, tuple: &Tuple) -> bool {
        match self {
            Predicate::True => true,
            Predicate::CmpConst { index, op, value } => {
                let v = tuple
                    .get(*index)
                    .expect("predicate resolved against schema");
                let ord = v
                    .partial_cmp_typed(value)
                    .expect("predicate type-checked against schema");
                op.test(ord)
            }
            Predicate::CmpAttrs { left, op, right } => {
                let l = tuple.get(*left).expect("predicate resolved against schema");
                let r = tuple
                    .get(*right)
                    .expect("predicate resolved against schema");
                let ord = l
                    .partial_cmp_typed(r)
                    .expect("predicate type-checked against schema");
                op.test(ord)
            }
            Predicate::And(a, b) => a.eval(tuple) && b.eval(tuple),
            Predicate::Or(a, b) => a.eval(tuple) || b.eval(tuple),
            Predicate::Not(a) => !a.eval(tuple),
        }
    }

    /// Evaluate against a borrowed tuple image without decoding it:
    /// integers are read straight out of their 8 bytes, strings compare as
    /// NUL-trimmed byte slices, booleans as their bytes. Semantically
    /// identical to [`Predicate::eval`] over the decoded tuple.
    ///
    /// # Panics
    /// Panics if the predicate references attribute indices or types the
    /// image's schema does not have — predicates must be built against the
    /// tuple's schema, which the query validator enforces.
    pub fn eval_ref(&self, tuple: &TupleRef<'_>) -> bool {
        match self {
            Predicate::True => true,
            Predicate::CmpConst { index, op, value } => {
                let ord =
                    cmp_encoded_value(tuple.attr_dtype(*index), tuple.attr_bytes(*index), value)
                        .expect("predicate type-checked against schema");
                op.test(ord)
            }
            Predicate::CmpAttrs { left, op, right } => {
                let ord = cmp_encoded(
                    tuple.attr_dtype(*left),
                    tuple.attr_bytes(*left),
                    tuple.attr_dtype(*right),
                    tuple.attr_bytes(*right),
                )
                .expect("predicate type-checked against schema");
                op.test(ord)
            }
            Predicate::And(a, b) => a.eval_ref(tuple) && b.eval_ref(tuple),
            Predicate::Or(a, b) => a.eval_ref(tuple) || b.eval_ref(tuple),
            Predicate::Not(a) => !a.eval_ref(tuple),
        }
    }

    /// Check that every attribute index referenced is within `schema`'s
    /// arity. (Used by the query validator when a predicate is attached to a
    /// node whose input schema is derived.)
    pub fn validate_against(&self, schema: &Schema) -> Result<()> {
        let check = |i: usize| -> Result<()> { schema.attr(i).map(|_| ()) };
        match self {
            Predicate::True => Ok(()),
            Predicate::CmpConst { index, value, .. } => {
                check(*index)?;
                let dtype = schema.attr(*index)?.dtype;
                if !dtype.admits(value) {
                    return Err(Error::TypeMismatch {
                        detail: format!("index {index}: {dtype} vs constant {value}"),
                    });
                }
                Ok(())
            }
            Predicate::CmpAttrs { left, right, .. } => {
                check(*left)?;
                check(*right)
            }
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.validate_against(schema)?;
                b.validate_against(schema)
            }
            Predicate::Not(a) => a.validate_against(schema),
        }
    }

    /// Rewrite attribute indices through `map`: index `i` becomes `map[i]`.
    ///
    /// Used when a predicate written against a projected schema is pushed
    /// back onto the pre-projection tuple layout (fused restrict/project
    /// spans): attribute `i` of the projection output is attribute `map[i]`
    /// of the input, and the canonical encoding guarantees the bytes — and
    /// therefore the comparison results — are identical.
    ///
    /// # Panics
    /// Panics if the predicate references an index at or beyond `map.len()`.
    pub fn remap(&self, map: &[usize]) -> Predicate {
        match self {
            Predicate::True => Predicate::True,
            Predicate::CmpConst { index, op, value } => Predicate::CmpConst {
                index: map[*index],
                op: *op,
                value: value.clone(),
            },
            Predicate::CmpAttrs { left, op, right } => Predicate::CmpAttrs {
                left: map[*left],
                op: *op,
                right: map[*right],
            },
            Predicate::And(a, b) => Predicate::And(Box::new(a.remap(map)), Box::new(b.remap(map))),
            Predicate::Or(a, b) => Predicate::Or(Box::new(a.remap(map)), Box::new(b.remap(map))),
            Predicate::Not(a) => Predicate::Not(Box::new(a.remap(map))),
        }
    }
}

impl fmt::Display for Predicate {
    /// Index-based rendering (`#2 > 5`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "true"),
            Predicate::CmpConst { index, op, value } => write!(f, "#{index} {op} {value}"),
            Predicate::CmpAttrs { left, op, right } => write!(f, "#{left} {op} #{right}"),
            Predicate::And(a, b) => write!(f, "({a} and {b})"),
            Predicate::Or(a, b) => write!(f, "({a} or {b})"),
            Predicate::Not(a) => write!(f, "(not {a})"),
        }
    }
}

/// The θ of a θ-join: `outer.attr[left] op inner.attr[right]`.
///
/// Indices are resolved against the *outer* and *inner* schemas respectively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinCondition {
    /// Attribute index in the outer (left) relation.
    pub left: usize,
    /// Comparison operator.
    pub op: CmpOp,
    /// Attribute index in the inner (right) relation.
    pub right: usize,
}

impl JoinCondition {
    /// Build from attribute names against the two input schemas.
    pub fn new(
        outer: &Schema,
        left_name: &str,
        op: CmpOp,
        inner: &Schema,
        right_name: &str,
    ) -> Result<JoinCondition> {
        let left = outer.index_of(left_name)?;
        let right = inner.index_of(right_name)?;
        let lt = outer.attr(left)?.dtype;
        let rt = inner.attr(right)?.dtype;
        if std::mem::discriminant(&lt) != std::mem::discriminant(&rt) {
            return Err(Error::TypeMismatch {
                detail: format!("join {left_name}: {lt} vs {right_name}: {rt}"),
            });
        }
        Ok(JoinCondition { left, op, right })
    }

    /// Equi-join shorthand.
    pub fn equi(
        outer: &Schema,
        left_name: &str,
        inner: &Schema,
        right_name: &str,
    ) -> Result<JoinCondition> {
        JoinCondition::new(outer, left_name, CmpOp::Eq, inner, right_name)
    }

    /// Test one tuple pair.
    pub fn matches(&self, outer: &Tuple, inner: &Tuple) -> bool {
        let l = outer
            .get(self.left)
            .expect("join condition resolved against schema");
        let r = inner
            .get(self.right)
            .expect("join condition resolved against schema");
        let ord = l
            .partial_cmp_typed(r)
            .expect("join condition type-checked against schemas");
        self.op.test(ord)
    }

    /// Validate indices against the two input schemas.
    pub fn validate_against(&self, outer: &Schema, inner: &Schema) -> Result<()> {
        outer.attr(self.left)?;
        inner.attr(self.right)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::build()
            .attr("a", DataType::Int)
            .attr("b", DataType::Int)
            .attr("s", DataType::Str(8))
            .finish()
            .unwrap()
    }

    fn tup(a: i64, b: i64, s: &str) -> Tuple {
        Tuple::new(vec![Value::Int(a), Value::Int(b), Value::str(s)])
    }

    #[test]
    fn cmp_op_semantics() {
        use Ordering::*;
        assert!(CmpOp::Eq.test(Equal) && !CmpOp::Eq.test(Less));
        assert!(CmpOp::Ne.test(Less) && !CmpOp::Ne.test(Equal));
        assert!(CmpOp::Lt.test(Less) && !CmpOp::Lt.test(Equal));
        assert!(CmpOp::Le.test(Equal) && !CmpOp::Le.test(Greater));
        assert!(CmpOp::Gt.test(Greater) && !CmpOp::Gt.test(Equal));
        assert!(CmpOp::Ge.test(Equal) && !CmpOp::Ge.test(Less));
    }

    #[test]
    fn cmp_op_flip_round_trips() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.flip().flip(), op);
        }
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
    }

    #[test]
    fn cmp_op_parse() {
        assert_eq!(CmpOp::parse("="), Some(CmpOp::Eq));
        assert_eq!(CmpOp::parse("!="), Some(CmpOp::Ne));
        assert_eq!(CmpOp::parse(">="), Some(CmpOp::Ge));
        assert_eq!(CmpOp::parse("~"), None);
    }

    #[test]
    fn const_predicate() {
        let s = schema();
        let p = Predicate::cmp_const(&s, "a", CmpOp::Gt, Value::Int(5)).unwrap();
        assert!(p.eval(&tup(6, 0, "x")));
        assert!(!p.eval(&tup(5, 0, "x")));
    }

    #[test]
    fn attr_predicate() {
        let s = schema();
        let p = Predicate::cmp_attrs(&s, "a", CmpOp::Le, "b").unwrap();
        assert!(p.eval(&tup(1, 2, "x")));
        assert!(!p.eval(&tup(3, 2, "x")));
    }

    #[test]
    fn boolean_combinators() {
        let s = schema();
        let a = Predicate::cmp_const(&s, "a", CmpOp::Gt, Value::Int(0)).unwrap();
        let b = Predicate::cmp_const(&s, "b", CmpOp::Lt, Value::Int(10)).unwrap();
        let p = a.clone().and(b.clone());
        assert!(p.eval(&tup(1, 5, "x")));
        assert!(!p.eval(&tup(1, 15, "x")));
        let q = a.clone().or(b);
        assert!(q.eval(&tup(-1, 5, "x")));
        assert!(a.not().eval(&tup(-1, 0, "x")));
    }

    #[test]
    fn construction_type_checks() {
        let s = schema();
        assert!(Predicate::cmp_const(&s, "a", CmpOp::Eq, Value::str("no")).is_err());
        assert!(Predicate::cmp_attrs(&s, "a", CmpOp::Eq, "s").is_err());
        assert!(Predicate::cmp_const(&s, "missing", CmpOp::Eq, Value::Int(0)).is_err());
    }

    #[test]
    fn validate_against_other_schema() {
        let s = schema();
        let p = Predicate::cmp_const(&s, "s", CmpOp::Eq, Value::str("hi")).unwrap();
        assert!(p.validate_against(&s).is_ok());
        let narrow = Schema::build().attr("x", DataType::Int).finish().unwrap();
        assert!(p.validate_against(&narrow).is_err());
    }

    #[test]
    fn join_condition() {
        let s = schema();
        let j = JoinCondition::equi(&s, "a", &s, "b").unwrap();
        assert!(j.matches(&tup(7, 0, "x"), &tup(0, 7, "y")));
        assert!(!j.matches(&tup(7, 0, "x"), &tup(0, 8, "y")));
        assert!(JoinCondition::equi(&s, "a", &s, "s").is_err());
        assert!(j.validate_against(&s, &s).is_ok());
    }

    /// Every predicate shape must agree between the decoded and zero-copy
    /// evaluators on every tuple.
    #[test]
    fn eval_ref_matches_eval() {
        let s = schema();
        let preds = vec![
            Predicate::True,
            Predicate::cmp_const(&s, "a", CmpOp::Gt, Value::Int(0)).unwrap(),
            Predicate::cmp_const(&s, "s", CmpOp::Le, Value::str("m")).unwrap(),
            Predicate::cmp_attrs(&s, "a", CmpOp::Lt, "b").unwrap(),
            Predicate::cmp_const(&s, "a", CmpOp::Ne, Value::Int(-1))
                .unwrap()
                .and(Predicate::cmp_const(&s, "b", CmpOp::Ge, Value::Int(0)).unwrap())
                .or(Predicate::cmp_const(&s, "s", CmpOp::Eq, Value::str("zz"))
                    .unwrap()
                    .not()),
        ];
        let tuples = vec![
            tup(-1, 0, ""),
            tup(0, 0, "m"),
            tup(1, -5, "zz"),
            tup(i64::MAX, i64::MIN, "abcdefgh"),
        ];
        for p in &preds {
            for t in &tuples {
                let mut img = Vec::new();
                t.encode(&s, &mut img).unwrap();
                let r = crate::TupleRef::new(&s, &img).unwrap();
                assert_eq!(p.eval_ref(&r), p.eval(t), "pred {p} tuple {t}");
            }
        }
    }

    /// Remapping through the projection's index list makes a post-projection
    /// predicate agree with the pre-projection tuple.
    #[test]
    fn remap_rewrites_indices_through_projection() {
        // Projected schema (b, a): predicate `#0 > #1` there means `b > a`.
        let p = Predicate::CmpAttrs {
            left: 0,
            op: CmpOp::Gt,
            right: 1,
        }
        .and(Predicate::CmpConst {
            index: 0,
            op: CmpOp::Ne,
            value: Value::Int(9),
        })
        .or(Predicate::True.not());
        let remapped = p.remap(&[1, 0]); // projection kept (b, a) of (a, b, s)
        for t in [tup(1, 2, "x"), tup(2, 1, "x"), tup(3, 9, "x")] {
            let projected = Tuple::new(vec![t.get(1).unwrap().clone(), t.get(0).unwrap().clone()]);
            assert_eq!(remapped.eval(&t), p.eval(&projected), "tuple {t}");
        }
    }

    #[test]
    fn display_renders_indices() {
        let s = schema();
        let p = Predicate::cmp_const(&s, "a", CmpOp::Gt, Value::Int(5))
            .unwrap()
            .or(Predicate::cmp_attrs(&s, "a", CmpOp::Le, "b").unwrap().not());
        assert_eq!(format!("{p}"), "(#0 > 5 or (not #0 <= #1))");
    }
}
