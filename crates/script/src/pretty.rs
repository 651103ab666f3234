//! Canonical source printer.
//!
//! The registry stores PE code in this canonical form so that formatting
//! differences do not perturb the embedding models. The invariant pinned by
//! property tests: `parse(to_source(parse(src)))` equals `parse(src)`.

use crate::ast::*;
use std::fmt::Write;

/// Render a whole script in canonical form.
pub fn to_source(script: &Script) -> String {
    let mut out = String::new();
    for (i, item) in script.items.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        match item {
            Item::Import(path) => {
                let _ = writeln!(out, "import {};", path.join("."));
            }
            Item::Fn(f) => print_fn(&mut out, f),
            Item::Pe(p) => print_pe(&mut out, p),
            Item::Workflow(w) => print_workflow(&mut out, w),
        }
    }
    out
}

fn print_fn(out: &mut String, f: &FnDecl) {
    let _ = write!(out, "fn {}({}) ", f.name, f.params.join(", "));
    print_block(out, &f.body, 0);
    out.push('\n');
}

fn print_pe(out: &mut String, p: &PeDecl) {
    let _ = writeln!(out, "pe {} : {} {{", p.name, p.kind.as_str());
    if let Some(doc) = &p.doc {
        let _ = writeln!(out, "    doc {};", quote(doc));
    }
    for imp in &p.imports {
        let _ = writeln!(out, "    import {};", imp.join("."));
    }
    for port in &p.inputs {
        match port.groupby {
            Some(k) => {
                let _ = writeln!(out, "    input {} groupby {};", port.name, k);
            }
            None => {
                let _ = writeln!(out, "    input {};", port.name);
            }
        }
    }
    for o in &p.outputs {
        let _ = writeln!(out, "    output {};", o);
    }
    if let Some(init) = &p.init {
        out.push_str("    init ");
        print_block(out, init, 1);
        out.push('\n');
    }
    out.push_str("    process ");
    print_block(out, &p.process, 1);
    out.push_str("\n}\n");
}

fn print_workflow(out: &mut String, w: &WorkflowDecl) {
    let _ = writeln!(out, "workflow {} {{", w.name);
    if let Some(doc) = &w.doc {
        let _ = writeln!(out, "    doc {};", quote(doc));
    }
    if !w.nodes.is_empty() {
        out.push_str("    nodes {");
        for n in &w.nodes {
            let _ = write!(out, " {} = {};", n.alias, n.pe_name);
        }
        out.push_str(" }\n");
    }
    for c in &w.connects {
        let _ = writeln!(out, "    connect {}.{} -> {}.{};", c.from_node, c.from_port, c.to_node, c.to_port);
    }
    out.push_str("}\n");
}

fn print_block(out: &mut String, b: &Block, level: usize) {
    if b.stmts.is_empty() {
        out.push_str("{ }");
        return;
    }
    out.push_str("{\n");
    for s in &b.stmts {
        print_stmt(out, s, level + 1);
    }
    indent(out, level);
    out.push('}');
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn print_stmt(out: &mut String, s: &Stmt, level: usize) {
    indent(out, level);
    match s {
        Stmt::Let { name, value } => {
            let _ = writeln!(out, "let {} = {};", name, expr_src(value));
        }
        Stmt::Assign { target, value } => {
            let _ = writeln!(out, "{} = {};", expr_src(target), expr_src(value));
        }
        Stmt::If { cond, then_block, else_block } => {
            let _ = write!(out, "if {} ", expr_src(cond));
            print_block(out, then_block, level);
            if let Some(e) = else_block {
                out.push_str(" else ");
                print_block(out, e, level);
            }
            out.push('\n');
        }
        Stmt::While { cond, body } => {
            let _ = write!(out, "while {} ", expr_src(cond));
            print_block(out, body, level);
            out.push('\n');
        }
        Stmt::For { var, iter, body } => {
            let _ = write!(out, "for {} in {} ", var, expr_src(iter));
            print_block(out, body, level);
            out.push('\n');
        }
        Stmt::Return(None) => out.push_str("return;\n"),
        Stmt::Return(Some(e)) => {
            let _ = writeln!(out, "return {};", expr_src(e));
        }
        Stmt::Break => out.push_str("break;\n"),
        Stmt::Continue => out.push_str("continue;\n"),
        Stmt::Emit(e) => {
            let _ = writeln!(out, "emit({});", expr_src(e));
        }
        Stmt::EmitTo { port, value } => {
            let _ = writeln!(out, "emit({}, {});", quote(port), expr_src(value));
        }
        Stmt::ExprStmt(e) => {
            let _ = writeln!(out, "{};", expr_src(e));
        }
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render an expression in source form. Parenthesizes conservatively: every
/// nested binary operand is wrapped, which keeps the printer simple and the
/// output unambiguous (round-trip stability is what matters, not minimal
/// parentheses).
pub(crate) fn expr_src(e: &Expr) -> String {
    match e {
        Expr::Int(n) => n.to_string(),
        Expr::Float(f) => {
            let s = format!("{f}");
            if s.contains(['.', 'e', 'E']) {
                s
            } else {
                format!("{s}.0")
            }
        }
        Expr::Str(s) => quote(s),
        Expr::Bool(true) => "true".into(),
        Expr::Bool(false) => "false".into(),
        Expr::Null => "null".into(),
        Expr::Var { name, .. } => name.clone(),
        Expr::List(items) => {
            let inner: Vec<String> = items.iter().map(expr_src).collect();
            format!("[{}]", inner.join(", "))
        }
        Expr::MapLit(pairs) => {
            let inner: Vec<String> =
                pairs.iter().map(|(k, v)| format!("{}: {}", quote(k), expr_src(v))).collect();
            format!("{{{}}}", inner.join(", "))
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            format!("{} {} {}", operand_src(lhs), op.as_str(), operand_src(rhs))
        }
        Expr::Unary { op, operand, .. } => match op {
            UnOp::Neg => format!("-{}", operand_src(operand)),
            UnOp::Not => format!("not {}", operand_src(operand)),
        },
        Expr::Call { module, name, args, .. } => {
            let inner: Vec<String> = args.iter().map(expr_src).collect();
            match module {
                Some(m) => format!("{m}.{name}({})", inner.join(", ")),
                None => format!("{name}({})", inner.join(", ")),
            }
        }
        Expr::Index { base, index, .. } => format!("{}[{}]", operand_src(base), expr_src(index)),
        Expr::Field { base, field, .. } => format!("{}.{}", operand_src(base), field),
    }
}

fn operand_src(e: &Expr) -> String {
    match e {
        Expr::Binary { .. } | Expr::Unary { .. } => format!("({})", expr_src(e)),
        _ => expr_src(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_script;

    const SAMPLE: &str = r#"
        import astropy.io;
        fn is_even(n) { return n % 2 == 0; }
        pe CountWords : generic {
            doc "Counts words, MapReduce style";
            import collections;
            input input groupby 0;
            output output;
            init { state.count = {}; }
            process {
                let word = input[0];
                state.count[word] = get(state.count, word, 0) + input[1];
                if is_even(state.count[word]) { emit([word, state.count[word]]); }
                emit("output", -1);
            }
        }
        workflow WC {
            doc "word count";
            nodes { src = Reader; cnt = CountWords; }
            connect src.output -> cnt.input;
        }
    "#;

    #[test]
    fn round_trip_fixed_point() {
        let ast1 = parse_script(SAMPLE).unwrap();
        let src1 = to_source(&ast1);
        let ast2 = parse_script(&src1).expect("canonical source must re-parse");
        // ASTs are compared via their canonical rendering, which erases the
        // line-number bookkeeping that legitimately differs.
        assert_eq!(to_source(&ast2), src1, "printer must be a fixed point");
    }

    #[test]
    fn precedence_preserved() {
        let src = "fn f(a, b, c) { return a + b * c; }";
        let ast = parse_script(src).unwrap();
        let printed = to_source(&ast);
        assert!(printed.contains("a + (b * c)"), "printed: {printed}");
        let back = parse_script(&printed).unwrap();
        assert_eq!(to_source(&back), printed);
    }

    #[test]
    fn float_literals_reparse_as_floats() {
        let src = "fn f() { return 3.0; }";
        let ast = parse_script(src).unwrap();
        let back = parse_script(&to_source(&ast)).unwrap();
        assert_eq!(to_source(&back), to_source(&ast));
        assert!(to_source(&ast).contains("3.0"));
    }

    #[test]
    fn doc_strings_escaped() {
        let src =
            r#"pe X : producer { doc "has \"quotes\" and \n newline"; output o; process { emit(1); } }"#;
        let ast = parse_script(src).unwrap();
        let back = parse_script(&to_source(&ast)).unwrap();
        assert_eq!(to_source(&back), to_source(&ast));
    }
}
