//! Static analysis over LamScript ASTs.
//!
//! Three consumers:
//!
//! * the **execution engine** calls [`imports`] (the `findimports`
//!   equivalent from the paper's web_client layer) to build the library
//!   install list;
//! * the **embedding models** call [`subtokens`] and [`def_use_pairs`]
//!   to build lexical, normalized and dataflow feature
//!   sets (the GraphCodeBERT substitute consumes the def-use edges);
//! * the **summarizer** calls [`CodeFacts::collect`] for its structural
//!   inventory.

use crate::ast::*;
use std::collections::BTreeSet;

/// All imports declared anywhere in the script (top-level and inside PEs),
/// deduplicated, as dotted paths. This is the list the engine "installs".
pub fn imports(script: &Script) -> Vec<String> {
    let mut set = BTreeSet::new();
    for item in &script.items {
        match item {
            Item::Import(path) => {
                set.insert(path.join("."));
            }
            Item::Pe(pe) => {
                for imp in &pe.imports {
                    set.insert(imp.join("."));
                }
            }
            _ => {}
        }
    }
    set.into_iter().collect()
}

/// Imports for a single PE declaration plus any module-qualified calls its
/// body makes (mirrors findimports scanning class bodies, paper §3.4.2).
pub fn pe_imports(pe: &PeDecl) -> Vec<String> {
    let mut set: BTreeSet<String> = pe.imports.iter().map(|p| p.join(".")).collect();
    let mut add_modules = |block: &Block| {
        walk_exprs(block, &mut |e| {
            if let Expr::Call { module: Some(m), .. } = e {
                if !crate::builtins::BUILTIN_MODULES.contains(&m.as_str()) && m != "strings" {
                    set.insert(m.clone());
                }
            }
        });
    };
    if let Some(init) = &pe.init {
        add_modules(init);
    }
    add_modules(&pe.process);
    set.into_iter().collect()
}

/// Does a block reference the `state` variable? Used to classify PEs as
/// stateful/stateless (paper §2.1).
pub(crate) fn mentions_state(block: &Block) -> bool {
    let mut found = false;
    walk_exprs(block, &mut |e| {
        if let Expr::Var { name, .. } = e {
            if name == "state" {
                found = true;
            }
        }
    });
    found
}

/// Split an identifier into lowercase subtokens on `snake_case`,
/// `camelCase`, `PascalCase` and digit boundaries.
///
/// ```
/// use laminar_script::subtokens;
/// assert_eq!(subtokens("getVoTable42"), vec!["get", "vo", "table", "42"]);
/// assert_eq!(subtokens("internal_ext"), vec!["internal", "ext"]);
/// ```
pub fn subtokens(ident: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let chars: Vec<char> = ident.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c == '_' || c == '-' || c == '.' {
            if !cur.is_empty() {
                out.push(std::mem::take(&mut cur));
            }
            continue;
        }
        let boundary = if cur.is_empty() {
            false
        } else if c.is_ascii_uppercase() {
            let prev = chars[i - 1];
            // camelCase boundary, or end of an ALLCAPS run (HTTPServer).
            prev.is_ascii_lowercase()
                || prev.is_ascii_digit()
                || (prev.is_ascii_uppercase() && chars.get(i + 1).is_some_and(|n| n.is_ascii_lowercase()))
        } else if c.is_ascii_digit() {
            !chars[i - 1].is_ascii_digit()
        } else {
            chars[i - 1].is_ascii_digit()
        };
        if boundary {
            out.push(std::mem::take(&mut cur));
        }
        cur.push(c.to_ascii_lowercase());
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// A def→use dataflow edge: `use_var` flows into `def_var` via an
/// assignment. These edges are the "data flow" signal the GraphCodeBERT
/// substitute embeds.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct DefUse {
    /// Variable being defined/assigned.
    pub def_var: String,
    /// Variable read on the right-hand side.
    pub use_var: String,
}

/// Collect def-use pairs from a PE's init and process blocks.
pub fn def_use_pairs(pe: &PeDecl) -> Vec<DefUse> {
    let mut out = BTreeSet::new();
    let mut scan = |block: &Block| {
        walk_stmts(block, &mut |s| {
            let (def, value) = match s {
                Stmt::Let { name, value } => (Some(name.clone()), Some(value)),
                Stmt::Assign { target, value } => (root_var(target), Some(value)),
                _ => (None, None),
            };
            if let (Some(def), Some(value)) = (def, value) {
                let mut uses = Vec::new();
                collect_vars(value, &mut uses);
                for u in uses {
                    out.insert(DefUse { def_var: def.clone(), use_var: u });
                }
            }
        });
    };
    if let Some(init) = &pe.init {
        scan(init);
    }
    scan(&pe.process);
    out.into_iter().collect()
}

/// Root variable of an lvalue chain (`state.count[w]` → `state`).
pub(crate) fn root_var(e: &Expr) -> Option<String> {
    match e {
        Expr::Var { name, .. } => Some(name.clone()),
        Expr::Index { base, .. } | Expr::Field { base, .. } => root_var(base),
        _ => None,
    }
}

fn collect_vars(e: &Expr, out: &mut Vec<String>) {
    walk_expr(e, &mut |e| {
        if let Expr::Var { name, .. } = e {
            out.push(name.clone());
        }
    });
}

/// Structural facts about a PE, consumed by the summarizer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CodeFacts {
    /// Called function names (unqualified).
    pub calls: Vec<String>,
    /// Called `module.function` pairs.
    pub module_calls: Vec<(String, String)>,
    /// Ports written by `emit`.
    pub emits_default: bool,
    /// Named ports written by `emit(port, ..)`.
    pub emit_ports: Vec<String>,
    /// Contains a loop.
    pub has_loop: bool,
    /// Contains branching.
    pub(crate) has_branch: bool,
    /// References `state`.
    pub uses_state: bool,
    /// Uses the RNG builtins.
    pub uses_random: bool,
    /// Number of statements (rough size).
    pub(crate) stmt_count: usize,
}

impl CodeFacts {
    /// Walk a PE and collect facts.
    pub fn collect(pe: &PeDecl) -> CodeFacts {
        let mut f = CodeFacts::default();
        let mut blocks: Vec<&Block> = vec![&pe.process];
        if let Some(init) = &pe.init {
            blocks.push(init);
        }
        for block in blocks {
            walk_stmts(block, &mut |s| {
                f.stmt_count += 1;
                match s {
                    Stmt::While { .. } | Stmt::For { .. } => f.has_loop = true,
                    Stmt::If { .. } => f.has_branch = true,
                    Stmt::Emit(_) => f.emits_default = true,
                    Stmt::EmitTo { port, .. } if !f.emit_ports.contains(port) => {
                        f.emit_ports.push(port.clone())
                    }
                    _ => {}
                }
            });
            walk_exprs(block, &mut |e| match e {
                Expr::Call { module: None, name, .. } => {
                    if matches!(name.as_str(), "randint" | "random" | "shuffle") {
                        f.uses_random = true;
                    }
                    if !f.calls.contains(name) {
                        f.calls.push(name.clone());
                    }
                }
                Expr::Call { module: Some(m), name, .. } => {
                    if m == "random" {
                        f.uses_random = true;
                    }
                    let pair = (m.clone(), name.clone());
                    if !f.module_calls.contains(&pair) {
                        f.module_calls.push(pair);
                    }
                }
                Expr::Var { name, .. } if name == "state" => f.uses_state = true,
                _ => {}
            });
        }
        f
    }
}

// ---- generic walkers ----------------------------------------------------

/// Visit every statement in a block, recursively (pre-order).
pub(crate) fn walk_stmts(block: &Block, visit: &mut dyn FnMut(&Stmt)) {
    for s in &block.stmts {
        visit(s);
        match s {
            Stmt::If { then_block, else_block, .. } => {
                walk_stmts(then_block, visit);
                if let Some(e) = else_block {
                    walk_stmts(e, visit);
                }
            }
            Stmt::While { body, .. } | Stmt::For { body, .. } => walk_stmts(body, visit),
            _ => {}
        }
    }
}

/// Visit every expression in a block, recursively.
pub(crate) fn walk_exprs(block: &Block, visit: &mut dyn FnMut(&Expr)) {
    walk_stmts(block, &mut |s| {
        let exprs: Vec<&Expr> = match s {
            Stmt::Let { value, .. } => vec![value],
            Stmt::Assign { target, value } => vec![target, value],
            Stmt::If { cond, .. } => vec![cond],
            Stmt::While { cond, .. } => vec![cond],
            Stmt::For { iter, .. } => vec![iter],
            Stmt::Return(Some(e)) => vec![e],
            Stmt::Return(None) | Stmt::Break | Stmt::Continue => vec![],
            Stmt::Emit(e) => vec![e],
            Stmt::EmitTo { value, .. } => vec![value],
            Stmt::ExprStmt(e) => vec![e],
        };
        for e in exprs {
            walk_expr(e, visit);
        }
    });
}

/// Visit an expression tree (pre-order).
pub(crate) fn walk_expr(e: &Expr, visit: &mut dyn FnMut(&Expr)) {
    visit(e);
    match e {
        Expr::List(items) => {
            for i in items {
                walk_expr(i, visit);
            }
        }
        Expr::MapLit(pairs) => {
            for (_, v) in pairs {
                walk_expr(v, visit);
            }
        }
        Expr::Binary { lhs, rhs, .. } => {
            walk_expr(lhs, visit);
            walk_expr(rhs, visit);
        }
        Expr::Unary { operand, .. } => walk_expr(operand, visit),
        Expr::Call { args, .. } => {
            for a in args {
                walk_expr(a, visit);
            }
        }
        Expr::Index { base, index, .. } => {
            walk_expr(base, visit);
            walk_expr(index, visit);
        }
        Expr::Field { base, .. } => walk_expr(base, visit),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_script;

    const WORDCOUNT: &str = r#"
        import collections;
        pe CountWords : generic {
            import collections;
            input input groupby 0;
            output output;
            init { state.count = {}; }
            process {
                let word = input[0];
                let n = input[1];
                state.count[word] = get(state.count, word, 0) + n;
                if state.count[word] > 10 { emit([word, state.count[word]]); }
            }
        }
    "#;

    #[test]
    fn imports_deduplicated() {
        let s = parse_script(WORDCOUNT).unwrap();
        assert_eq!(imports(&s), vec!["collections".to_string()]);
    }

    #[test]
    fn pe_imports_include_module_calls() {
        let src = r#"
            pe Astro : iterative {
                import astropy;
                input coords; output output;
                process { emit(vo.fetch(coords)); }
            }
        "#;
        let s = parse_script(src).unwrap();
        let pe = s.pe("Astro").unwrap();
        assert_eq!(pe_imports(pe), vec!["astropy".to_string(), "vo".to_string()]);
    }

    #[test]
    fn builtin_modules_not_importable() {
        let src = r#"
            pe M : iterative {
                input x; output output;
                process { emit(math.sqrt(x)); }
            }
        "#;
        let s = parse_script(src).unwrap();
        assert!(pe_imports(s.pe("M").unwrap()).is_empty());
    }

    #[test]
    fn state_detection() {
        let s = parse_script(WORDCOUNT).unwrap();
        let pe = s.pe("CountWords").unwrap();
        assert!(pe.is_stateful());
        assert!(mentions_state(&pe.process));
    }

    #[test]
    fn subtoken_splitting() {
        assert_eq!(subtokens("NumberProducer"), vec!["number", "producer"]);
        assert_eq!(subtokens("getVoTable"), vec!["get", "vo", "table"]);
        assert_eq!(subtokens("internal_ext"), vec!["internal", "ext"]);
        assert_eq!(subtokens("HTTPServer2"), vec!["http", "server", "2"]);
        assert_eq!(subtokens("readRaDec"), vec!["read", "ra", "dec"]);
        assert_eq!(subtokens(""), Vec::<String>::new());
        assert_eq!(subtokens("___"), Vec::<String>::new());
        assert_eq!(subtokens("x"), vec!["x"]);
    }

    #[test]
    fn def_use_edges() {
        let s = parse_script(WORDCOUNT).unwrap();
        let edges = def_use_pairs(s.pe("CountWords").unwrap());
        assert!(edges.contains(&DefUse { def_var: "word".into(), use_var: "input".into() }));
        assert!(edges.contains(&DefUse { def_var: "state".into(), use_var: "n".into() }));
        assert!(edges.contains(&DefUse { def_var: "state".into(), use_var: "word".into() }));
    }

    #[test]
    fn code_facts() {
        let s = parse_script(WORDCOUNT).unwrap();
        let f = CodeFacts::collect(s.pe("CountWords").unwrap());
        assert!(f.uses_state);
        assert!(f.has_branch);
        assert!(!f.has_loop);
        assert!(f.emits_default);
        assert!(f.calls.contains(&"get".to_string()));
        assert!(!f.uses_random);
        assert!(f.stmt_count >= 5);
    }

    #[test]
    fn random_detection() {
        let src = "pe R : producer { output o; process { emit(randint(1, 6)); } }";
        let s = parse_script(src).unwrap();
        let f = CodeFacts::collect(s.pe("R").unwrap());
        assert!(f.uses_random);
    }
}
