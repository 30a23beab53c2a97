//! A small s-expression query language.
//!
//! Handy for examples, tests, and interactive exploration. Grammar:
//!
//! ```text
//! query := expr
//!        | (append expr TARGET)
//!        | (delete TARGET pred)
//! expr  := (scan NAME)
//!        | (restrict expr pred)
//!        | (project expr (ATTR ...))
//!        | (project-distinct expr (ATTR ...))
//!        | (join expr expr (CMP LATTR RATTR))
//!        | (cross expr expr)
//!        | (union expr expr)
//!        | (difference expr expr)
//! pred  := true
//!        | (CMP ATTR literal)        ; attribute vs constant
//!        | (CMP ATTR ATTR)           ; attribute vs attribute
//!        | (and pred pred) | (or pred pred) | (not pred)
//! CMP   := = | <> | != | < | <= | > | >=
//! literal := 123 | -7 | "text" | #t | #f
//! ```
//!
//! Attribute names are resolved against the derived schema at that point in
//! the tree, so `(restrict (join ...) (= r_id 3))` works on join outputs.

use df_relalg::{Catalog, CmpOp, Error, Predicate, Result, Schema, Value};

use crate::builder::{SubTree, TreeBuilder};
use crate::tree::QueryTree;

/// Parse and compile a query against `db`.
pub fn parse_query(db: &Catalog, input: &str) -> Result<QueryTree> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let sexpr = p.parse_sexpr()?;
    if p.pos != p.tokens.len() {
        return Err(syntax(format!(
            "trailing input after query: `{}`",
            p.tokens[p.pos..].join(" ")
        )));
    }
    compile_query(db, &sexpr)
}

fn syntax(detail: String) -> Error {
    Error::Syntax { detail }
}

// ---------------------------------------------------------------- tokenizer

fn tokenize(input: &str) -> Result<Vec<String>> {
    let mut tokens = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '(' | ')' => {
                tokens.push(c.to_string());
                chars.next();
            }
            '"' => {
                chars.next();
                let mut s = String::from("\"");
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some(ch) => s.push(ch),
                        None => return Err(syntax("unterminated string literal".into())),
                    }
                }
                tokens.push(s);
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            _ => {
                let mut atom = String::new();
                while let Some(&ch) = chars.peek() {
                    if ch.is_whitespace() || ch == '(' || ch == ')' || ch == '"' {
                        break;
                    }
                    atom.push(ch);
                    chars.next();
                }
                tokens.push(atom);
            }
        }
    }
    Ok(tokens)
}

// ------------------------------------------------------------------ s-exprs

#[derive(Debug, Clone, PartialEq)]
enum SExpr {
    Atom(String),
    List(Vec<SExpr>),
}

impl SExpr {
    fn atom(&self) -> Result<&str> {
        match self {
            SExpr::Atom(s) => Ok(s),
            SExpr::List(_) => Err(syntax("expected an atom, found a list".into())),
        }
    }

    fn list(&self) -> Result<&[SExpr]> {
        match self {
            SExpr::List(items) => Ok(items),
            SExpr::Atom(a) => Err(syntax(format!("expected a list, found atom `{a}`"))),
        }
    }
}

struct Parser {
    tokens: Vec<String>,
    pos: usize,
}

impl Parser {
    fn parse_sexpr(&mut self) -> Result<SExpr> {
        let tok = self
            .tokens
            .get(self.pos)
            .ok_or_else(|| syntax("unexpected end of input".into()))?
            .clone();
        self.pos += 1;
        match tok.as_str() {
            "(" => {
                let mut items = Vec::new();
                loop {
                    match self.tokens.get(self.pos).map(String::as_str) {
                        Some(")") => {
                            self.pos += 1;
                            return Ok(SExpr::List(items));
                        }
                        Some(_) => items.push(self.parse_sexpr()?),
                        None => return Err(syntax("unbalanced `(`".into())),
                    }
                }
            }
            ")" => Err(syntax("unbalanced `)`".into())),
            _ => Ok(SExpr::Atom(tok)),
        }
    }
}

// ----------------------------------------------------------------- compiler

fn compile_query(db: &Catalog, sexpr: &SExpr) -> Result<QueryTree> {
    let b = TreeBuilder::new(db);
    let items = sexpr.list()?;
    let head = items
        .first()
        .ok_or_else(|| syntax("empty query form".into()))?
        .atom()?;
    match head {
        "append" => {
            expect_len(items, 3, "(append expr target)")?;
            let sub = compile_expr(&b, &items[1])?;
            let target = items[2].atom()?;
            Ok(sub.append_to(target)?.finish())
        }
        "delete" => {
            expect_len(items, 3, "(delete target pred)")?;
            let target = items[1].atom()?;
            let schema = db.require(target)?.schema().clone();
            let pred = compile_pred(&schema, &items[2])?;
            // delete_where only handles simple predicates; build directly.
            let tree = QueryTree::from_parts(
                vec![crate::tree::QueryNode {
                    op: crate::tree::Op::Delete {
                        target: target.to_owned(),
                        predicate: pred,
                    },
                    children: vec![],
                }],
                crate::tree::NodeId(0),
            );
            Ok(tree)
        }
        _ => Ok(compile_expr(&b, sexpr)?.finish()),
    }
}

fn expect_len(items: &[SExpr], n: usize, form: &str) -> Result<()> {
    if items.len() != n {
        return Err(syntax(format!("form takes {} arguments: {form}", n - 1)));
    }
    Ok(())
}

fn compile_expr<'a>(b: &TreeBuilder<'a>, sexpr: &SExpr) -> Result<SubTree<'a>> {
    let items = sexpr.list()?;
    let head = items
        .first()
        .ok_or_else(|| syntax("empty expression form".into()))?
        .atom()?;
    match head {
        "scan" => {
            expect_len(items, 2, "(scan name)")?;
            b.scan(items[1].atom()?)
        }
        "restrict" => {
            expect_len(items, 3, "(restrict expr pred)")?;
            let sub = compile_expr(b, &items[1])?;
            let pred = compile_pred(sub.schema(), &items[2])?;
            sub.restrict(pred)
        }
        "project" | "project-distinct" => {
            expect_len(items, 3, "(project expr (attrs...))")?;
            let sub = compile_expr(b, &items[1])?;
            let attrs: Vec<&str> = items[2]
                .list()?
                .iter()
                .map(|a| a.atom())
                .collect::<Result<_>>()?;
            sub.project(&attrs, head == "project-distinct")
        }
        "join" => {
            expect_len(items, 4, "(join outer inner (op lattr rattr))")?;
            let outer = compile_expr(b, &items[1])?;
            let inner = compile_expr(b, &items[2])?;
            let cond = items[3].list()?;
            expect_len(cond, 3, "(op lattr rattr)")?;
            let op = parse_cmp(cond[0].atom()?)?;
            outer.join_on(inner, cond[1].atom()?, op, cond[2].atom()?)
        }
        "cross" => {
            expect_len(items, 3, "(cross outer inner)")?;
            let outer = compile_expr(b, &items[1])?;
            let inner = compile_expr(b, &items[2])?;
            Ok(outer.cross(inner))
        }
        "union" => {
            expect_len(items, 3, "(union left right)")?;
            let l = compile_expr(b, &items[1])?;
            let r = compile_expr(b, &items[2])?;
            l.union(r)
        }
        "difference" => {
            expect_len(items, 3, "(difference left right)")?;
            let l = compile_expr(b, &items[1])?;
            let r = compile_expr(b, &items[2])?;
            l.difference(r)
        }
        other => Err(syntax(format!("unknown operator `{other}`"))),
    }
}

fn parse_cmp(tok: &str) -> Result<CmpOp> {
    CmpOp::parse(tok).ok_or_else(|| syntax(format!("unknown comparison `{tok}`")))
}

fn compile_pred(schema: &Schema, sexpr: &SExpr) -> Result<Predicate> {
    if let SExpr::Atom(a) = sexpr {
        if a == "true" {
            return Ok(Predicate::True);
        }
        return Err(syntax(format!("expected a predicate, found `{a}`")));
    }
    let items = sexpr.list()?;
    let head = items
        .first()
        .ok_or_else(|| syntax("empty predicate form".into()))?
        .atom()?;
    match head {
        "and" | "or" => {
            expect_len(items, 3, "(and p q) / (or p q)")?;
            let p = compile_pred(schema, &items[1])?;
            let q = compile_pred(schema, &items[2])?;
            Ok(if head == "and" { p.and(q) } else { p.or(q) })
        }
        "not" => {
            expect_len(items, 2, "(not p)")?;
            Ok(compile_pred(schema, &items[1])?.not())
        }
        cmp => {
            let op = parse_cmp(cmp)?;
            expect_len(items, 3, "(op attr literal) or (op attr attr)")?;
            let attr = items[1].atom()?;
            let rhs = items[2].atom()?;
            match parse_literal(rhs) {
                Some(value) => Predicate::cmp_const(schema, attr, op, value),
                None => Predicate::cmp_attrs(schema, attr, op, rhs),
            }
        }
    }
}

/// Literals: integers, `"strings"` (tokenizer keeps the leading quote),
/// `#t`/`#f` booleans. Anything else is an attribute name.
fn parse_literal(tok: &str) -> Option<Value> {
    if let Some(stripped) = tok.strip_prefix('"') {
        return Some(Value::Str(stripped.to_owned()));
    }
    match tok {
        "#t" => return Some(Value::Bool(true)),
        "#f" => return Some(Value::Bool(false)),
        _ => {}
    }
    tok.parse::<i64>().ok().map(Value::Int)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, execute_readonly, ExecParams};
    use df_relalg::{DataType, Relation, Tuple};

    fn db() -> Catalog {
        let mut db = Catalog::new();
        let emp = Schema::build()
            .attr("id", DataType::Int)
            .attr("dept", DataType::Int)
            .attr("name", DataType::Str(8))
            .finish()
            .unwrap();
        db.insert(
            Relation::from_tuples(
                "emp",
                emp,
                256,
                (0..10).map(|i| {
                    Tuple::new(vec![
                        Value::Int(i),
                        Value::Int(i % 3),
                        Value::Str(format!("e{i}")),
                    ])
                }),
            )
            .unwrap(),
        )
        .unwrap();
        let dept = Schema::build()
            .attr("dno", DataType::Int)
            .attr("open", DataType::Bool)
            .finish()
            .unwrap();
        db.insert(
            Relation::from_tuples(
                "dept",
                dept,
                256,
                (0..3).map(|i| Tuple::new(vec![Value::Int(i), Value::Bool(i != 2)])),
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    fn run(db: &Catalog, q: &str) -> usize {
        let tree = parse_query(db, q).unwrap();
        execute_readonly(db, &tree, &ExecParams::default())
            .unwrap()
            .num_tuples()
    }

    #[test]
    fn scan_restrict() {
        let db = db();
        assert_eq!(run(&db, "(scan emp)"), 10);
        assert_eq!(run(&db, "(restrict (scan emp) (> id 6))"), 3);
        assert_eq!(run(&db, "(restrict (scan emp) true)"), 10);
        assert_eq!(
            run(&db, "(restrict (scan emp) (and (>= id 2) (< id 5)))"),
            3
        );
        assert_eq!(run(&db, "(restrict (scan emp) (not (= id 0)))"), 9);
    }

    #[test]
    fn string_and_bool_literals() {
        let db = db();
        assert_eq!(run(&db, "(restrict (scan emp) (= name \"e3\"))"), 1);
        assert_eq!(run(&db, "(restrict (scan dept) (= open #t))"), 2);
        assert_eq!(run(&db, "(restrict (scan dept) (= open #f))"), 1);
    }

    #[test]
    fn attr_vs_attr_predicate() {
        let db = db();
        assert_eq!(run(&db, "(restrict (scan emp) (= id dept))"), 3); // 0,1,2
    }

    #[test]
    fn join_project_setops() {
        let db = db();
        assert_eq!(run(&db, "(join (scan emp) (scan dept) (= dept dno))"), 10);
        assert_eq!(run(&db, "(project-distinct (scan emp) (dept))"), 3);
        assert_eq!(run(&db, "(project (scan emp) (dept))"), 10);
        assert_eq!(run(&db, "(cross (scan emp) (scan dept))"), 30);
        assert_eq!(
            run(
                &db,
                "(union (restrict (scan emp) (< id 5)) (restrict (scan emp) (>= id 3)))"
            ),
            10
        );
        assert_eq!(
            run(
                &db,
                "(difference (scan emp) (restrict (scan emp) (< id 4)))"
            ),
            6
        );
    }

    #[test]
    fn restrict_on_join_output_uses_renamed_attrs() {
        let db = db();
        assert_eq!(
            run(
                &db,
                "(restrict (join (scan emp) (scan emp) (= id id)) (> r_id 7))"
            ),
            2
        );
    }

    #[test]
    fn updates_parse_and_execute() {
        let mut db = db();
        let tree = parse_query(&db, "(delete emp (= dept 0))").unwrap();
        let deleted = execute(&mut db, &tree, &ExecParams::default()).unwrap();
        assert_eq!(deleted.num_tuples(), 4);
        assert_eq!(db.get("emp").unwrap().num_tuples(), 6);

        let tree = parse_query(&db, "(append (restrict (scan emp) (= id 1)) emp)").unwrap();
        execute(&mut db, &tree, &ExecParams::default()).unwrap();
        assert_eq!(db.get("emp").unwrap().num_tuples(), 7);
    }

    #[test]
    fn syntax_errors_are_reported() {
        let db = db();
        for bad in [
            "(scan emp",                        // unbalanced
            "(scan emp))",                      // trailing
            "(frobnicate (scan emp))",          // unknown op
            "(restrict (scan emp) (?? id 3))",  // bad cmp
            "(scan missing)",                   // unknown relation
            "(restrict (scan emp) (> nope 3))", // unknown attr
            "()",                               // empty form
            "(restrict (scan emp) (= name 3))", // type mismatch
        ] {
            assert!(parse_query(&db, bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn syntax_errors_read_as_syntax_not_corruption() {
        let db = db();
        for bad in ["(scan emp", "(scan emp) (scan emp)"] {
            let msg = parse_query(&db, bad).unwrap_err().to_string();
            assert!(msg.starts_with("query syntax"), "{bad}: {msg}");
            assert!(!msg.contains("corrupt"), "{bad}: {msg}");
        }
    }

    #[test]
    fn unterminated_string_rejected() {
        let db = db();
        assert!(parse_query(&db, "(restrict (scan emp) (= name \"oops))").is_err());
    }
}
