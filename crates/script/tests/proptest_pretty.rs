//! Round-trip property for the canonical printer: re-parsing pretty-printed
//! source yields the same AST (modulo line-number bookkeeping, which the
//! printer legitimately rewrites), and the printer is a fixed point.
//!
//! The registry stores — and runs — the canonical form of what was
//! registered, so these properties are what make "the stored text means
//! what the registered text meant" sound.

mod common;

use laminar_script::{parse_script, to_source, Block, Expr, Item, Script, Stmt};
use proptest::prelude::*;

/// Erase line numbers so ASTs from differently-formatted sources compare
/// structurally.
fn strip_lines(script: &mut Script) {
    for item in &mut script.items {
        match item {
            Item::Fn(f) => strip_block(&mut f.body),
            Item::Pe(p) => {
                if let Some(init) = &mut p.init {
                    strip_block(init);
                }
                strip_block(&mut p.process);
            }
            Item::Import(_) | Item::Workflow(_) => {}
        }
    }
}

fn strip_block(b: &mut Block) {
    for s in &mut b.stmts {
        match s {
            Stmt::Let { value, .. } => strip_expr(value),
            Stmt::Assign { target, value } => {
                strip_expr(target);
                strip_expr(value);
            }
            Stmt::If { cond, then_block, else_block } => {
                strip_expr(cond);
                strip_block(then_block);
                if let Some(e) = else_block {
                    strip_block(e);
                }
            }
            Stmt::While { cond, body } => {
                strip_expr(cond);
                strip_block(body);
            }
            Stmt::For { iter, body, .. } => {
                strip_expr(iter);
                strip_block(body);
            }
            Stmt::Return(Some(e)) | Stmt::Emit(e) | Stmt::EmitTo { value: e, .. } | Stmt::ExprStmt(e) => {
                strip_expr(e)
            }
            Stmt::Return(None) | Stmt::Break | Stmt::Continue => {}
        }
    }
}

fn strip_expr(e: &mut Expr) {
    match e {
        Expr::Var { line, .. } => *line = 0,
        Expr::List(items) => items.iter_mut().for_each(strip_expr),
        Expr::MapLit(pairs) => pairs.iter_mut().for_each(|(_, v)| strip_expr(v)),
        Expr::Binary { lhs, rhs, line, .. } => {
            *line = 0;
            strip_expr(lhs);
            strip_expr(rhs);
        }
        Expr::Unary { operand, line, .. } => {
            *line = 0;
            strip_expr(operand);
        }
        Expr::Call { args, line, .. } => {
            *line = 0;
            args.iter_mut().for_each(strip_expr);
        }
        Expr::Index { base, index, line } => {
            *line = 0;
            strip_expr(base);
            strip_expr(index);
        }
        Expr::Field { base, line, .. } => {
            *line = 0;
            strip_expr(base);
        }
        Expr::Int(_) | Expr::Float(_) | Expr::Str(_) | Expr::Bool(_) | Expr::Null => {}
    }
}

proptest! {
    /// `parse(pretty(parse(src))) == parse(src)` as ASTs (line numbers
    /// erased on both sides).
    #[test]
    fn reparse_preserves_ast(src in common::arb_script_source()) {
        let mut ast1 = parse_script(&src).expect("generated source parses");
        let canonical = to_source(&ast1);
        let mut ast2 = parse_script(&canonical)
            .unwrap_or_else(|e| panic!("canonical source must re-parse: {e:?}\n--- canonical ---\n{canonical}"));
        strip_lines(&mut ast1);
        strip_lines(&mut ast2);
        prop_assert_eq!(&ast2, &ast1, "round-trip changed the AST\n--- canonical ---\n{}", canonical);
    }

    /// The printer is a fixed point on its own output.
    #[test]
    fn printer_is_fixed_point(src in common::arb_script_source()) {
        let canon1 = to_source(&parse_script(&src).unwrap());
        let canon2 = to_source(&parse_script(&canon1).unwrap());
        prop_assert_eq!(canon1, canon2);
    }
}
