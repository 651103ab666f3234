//! Recursive-descent parser for LamScript.
//!
//! Grammar summary (see crate docs for an example):
//!
//! ```text
//! script    := item* EOF
//! item      := import | fn | pe | workflow
//! pe        := "pe" IDENT ":" kind "{" member* "}"
//! member    := doc | import | input | output | init-block | process-block
//! stmt      := let | assign | if | while | for | return | break | continue
//!            | emit | expr-stmt
//! ```
//!
//! Expressions use conventional precedence:
//! `or < and < not < comparison < additive < multiplicative < unary < postfix`.

use crate::ast::*;
use crate::error::{ErrorKind, ScriptError};
use crate::lexer::{lex, Token, TokenKind};

/// Deepest nesting the parser accepts — of blocks, of parenthesised, list,
/// map, index and call expressions, and of operator and `else if` chains.
/// The parser, the compiler, the printer, the analyses and `Drop` all
/// recurse over the tree, and source text arrives from the network onto
/// 2 MiB thread stacks; this bound on the tree's depth bounds them all.
pub const MAX_NESTING: usize = 64;

/// Parse a full script (imports, functions, PEs, workflows).
pub fn parse_script(source: &str) -> Result<Script, ScriptError> {
    let tokens = lex(source)?;
    let mut p = P { tokens, pos: 0, depth: 0 };
    let mut items = Vec::new();
    while !p.check(&TokenKind::Eof) {
        items.push(p.item()?);
    }
    Ok(Script { items })
}

/// Parse a single expression (used by tests and the REPL-style describe
/// tooling).
pub fn parse_expr(source: &str) -> Result<Expr, ScriptError> {
    let tokens = lex(source)?;
    let mut p = P { tokens, pos: 0, depth: 0 };
    let e = p.expr()?;
    p.expect(TokenKind::Eof, "end of input")?;
    Ok(e)
}

/// Precedence level of the `not` prefix: below the comparisons, above
/// `and`.
const NOT_LEVEL: u8 = 2;

/// The binary operator a token is, with its precedence level.
fn binary_op(kind: &TokenKind) -> Option<(BinOp, u8)> {
    Some(match kind {
        TokenKind::Or => (BinOp::Or, 0),
        TokenKind::And => (BinOp::And, 1),
        TokenKind::Eq => (BinOp::Eq, 3),
        TokenKind::Ne => (BinOp::Ne, 3),
        TokenKind::Lt => (BinOp::Lt, 3),
        TokenKind::Le => (BinOp::Le, 3),
        TokenKind::Gt => (BinOp::Gt, 3),
        TokenKind::Ge => (BinOp::Ge, 3),
        TokenKind::Plus => (BinOp::Add, 4),
        TokenKind::Minus => (BinOp::Sub, 4),
        TokenKind::Star => (BinOp::Mul, 5),
        TokenKind::Slash => (BinOp::Div, 5),
        TokenKind::Percent => (BinOp::Mod, 5),
        _ => return None,
    })
}

struct P {
    tokens: Vec<Token>,
    pos: usize,
    /// Levels of the tree above the node being parsed.
    depth: usize,
}

impl P {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn check(&self, kind: &TokenKind) -> bool {
        &self.peek().kind == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.check(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn err(&self, msg: impl Into<String>) -> ScriptError {
        let t = self.peek();
        ScriptError::at(ErrorKind::Parse, msg, t.line, t.column)
    }

    /// Go one level deeper; the caller restores `depth` on its way out.
    fn descend(&mut self) -> Result<(), ScriptError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        Ok(())
    }

    fn expect(&mut self, kind: TokenKind, what: &str) -> Result<Token, ScriptError> {
        if self.check(&kind) {
            Ok(self.bump())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek().kind)))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, ScriptError> {
        match &self.peek().kind {
            TokenKind::Ident(s) => {
                let s = s.clone();
                self.bump();
                Ok(s)
            }
            // Context keywords double as identifiers where unambiguous.
            TokenKind::Input => {
                self.bump();
                Ok("input".into())
            }
            TokenKind::Output => {
                self.bump();
                Ok("output".into())
            }
            TokenKind::Process => {
                self.bump();
                Ok("process".into())
            }
            _ => Err(self.err(format!("expected {what}, found {:?}", self.peek().kind))),
        }
    }

    // ---- items ------------------------------------------------------

    fn item(&mut self) -> Result<Item, ScriptError> {
        match &self.peek().kind {
            TokenKind::Import => {
                let path = self.import_path()?;
                Ok(Item::Import(path))
            }
            TokenKind::Fn => self.fn_decl().map(Item::Fn),
            TokenKind::Pe => self.pe_decl().map(Item::Pe),
            TokenKind::Workflow => self.workflow_decl().map(Item::Workflow),
            _ => Err(self.err("expected 'import', 'fn', 'pe' or 'workflow' at top level")),
        }
    }

    fn import_path(&mut self) -> Result<Vec<String>, ScriptError> {
        self.expect(TokenKind::Import, "'import'")?;
        let mut path = vec![self.ident("module name")?];
        while self.eat(&TokenKind::Dot) {
            path.push(self.ident("module segment")?);
        }
        self.expect(TokenKind::Semi, "';' after import")?;
        Ok(path)
    }

    fn fn_decl(&mut self) -> Result<FnDecl, ScriptError> {
        self.expect(TokenKind::Fn, "'fn'")?;
        let name = self.ident("function name")?;
        self.expect(TokenKind::LParen, "'('")?;
        let mut params = Vec::new();
        if !self.check(&TokenKind::RParen) {
            loop {
                params.push(self.ident("parameter name")?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen, "')'")?;
        let body = self.block()?;
        Ok(FnDecl { name, params, body })
    }

    fn pe_decl(&mut self) -> Result<PeDecl, ScriptError> {
        self.expect(TokenKind::Pe, "'pe'")?;
        let name = self.ident("PE name")?;
        self.expect(TokenKind::Colon, "':' before PE kind")?;
        let kind_name = self.ident("PE kind")?;
        let kind = PeKind::parse(&kind_name).ok_or_else(|| {
            self.err(format!("unknown PE kind '{kind_name}' (expected producer/iterative/consumer/generic)"))
        })?;
        self.expect(TokenKind::LBrace, "'{'")?;

        let mut doc = None;
        let mut imports = Vec::new();
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        let mut init = None;
        let mut process = None;

        while !self.check(&TokenKind::RBrace) {
            match &self.peek().kind {
                TokenKind::Doc => {
                    self.bump();
                    let t = self.bump();
                    let TokenKind::Str(s) = t.kind else {
                        return Err(self.err("expected string literal after 'doc'"));
                    };
                    self.expect(TokenKind::Semi, "';' after doc string")?;
                    doc = Some(s);
                }
                TokenKind::Import => {
                    imports.push(self.import_path()?);
                }
                TokenKind::Input => {
                    self.bump();
                    let pname = self.ident("input port name")?;
                    let groupby = if self.eat(&TokenKind::Groupby) {
                        let t = self.bump();
                        let TokenKind::Int(n) = t.kind else {
                            return Err(self.err("expected integer index after 'groupby'"));
                        };
                        if n < 0 {
                            return Err(self.err("groupby index must be non-negative"));
                        }
                        Some(n as usize)
                    } else {
                        None
                    };
                    self.expect(TokenKind::Semi, "';' after input declaration")?;
                    inputs.push(PortDecl { name: pname, groupby });
                }
                TokenKind::Output => {
                    self.bump();
                    let pname = self.ident("output port name")?;
                    self.expect(TokenKind::Semi, "';' after output declaration")?;
                    outputs.push(pname);
                }
                TokenKind::Init => {
                    self.bump();
                    init = Some(self.block()?);
                }
                TokenKind::Process => {
                    self.bump();
                    process = Some(self.block()?);
                }
                _ => return Err(self.err("expected doc/import/input/output/init/process in PE body")),
            }
        }
        self.expect(TokenKind::RBrace, "'}'")?;

        let process = process.ok_or_else(|| self.err(format!("PE '{name}' is missing its process block")))?;

        // Enforce the archetype port shapes of dispel4py (paper §2.1).
        let shape_err = |msg: &str| ScriptError::new(ErrorKind::Parse, format!("PE '{name}': {msg}"));
        match kind {
            PeKind::Producer => {
                if !inputs.is_empty() {
                    return Err(shape_err("producer PEs take no input ports"));
                }
                if outputs.len() != 1 {
                    return Err(shape_err("producer PEs need exactly one output port"));
                }
            }
            PeKind::Iterative => {
                if inputs.len() != 1 || outputs.len() != 1 {
                    return Err(shape_err("iterative PEs need exactly one input and one output port"));
                }
            }
            PeKind::Consumer => {
                if inputs.len() != 1 || !outputs.is_empty() {
                    return Err(shape_err("consumer PEs need exactly one input port and no outputs"));
                }
            }
            PeKind::Generic => {
                if inputs.is_empty() && outputs.is_empty() {
                    return Err(shape_err("generic PEs need at least one port"));
                }
            }
        }

        Ok(PeDecl { name, kind, doc, imports, inputs, outputs, init, process })
    }

    fn workflow_decl(&mut self) -> Result<WorkflowDecl, ScriptError> {
        self.expect(TokenKind::Workflow, "'workflow'")?;
        let name = self.ident("workflow name")?;
        self.expect(TokenKind::LBrace, "'{'")?;
        let mut doc = None;
        let mut nodes = Vec::new();
        let mut connects = Vec::new();
        while !self.check(&TokenKind::RBrace) {
            match &self.peek().kind {
                TokenKind::Doc => {
                    self.bump();
                    let t = self.bump();
                    let TokenKind::Str(s) = t.kind else {
                        return Err(self.err("expected string literal after 'doc'"));
                    };
                    self.expect(TokenKind::Semi, "';'")?;
                    doc = Some(s);
                }
                TokenKind::Nodes => {
                    self.bump();
                    self.expect(TokenKind::LBrace, "'{'")?;
                    while !self.check(&TokenKind::RBrace) {
                        let alias = self.ident("node alias")?;
                        self.expect(TokenKind::Assign, "'='")?;
                        let pe_name = self.ident("PE name")?;
                        self.expect(TokenKind::Semi, "';'")?;
                        nodes.push(NodeBinding { alias, pe_name });
                    }
                    self.expect(TokenKind::RBrace, "'}'")?;
                }
                TokenKind::Connect => {
                    self.bump();
                    let from_node = self.ident("source node")?;
                    self.expect(TokenKind::Dot, "'.'")?;
                    let from_port = self.ident("source port")?;
                    self.expect(TokenKind::Arrow, "'->'")?;
                    let to_node = self.ident("destination node")?;
                    self.expect(TokenKind::Dot, "'.'")?;
                    let to_port = self.ident("destination port")?;
                    self.expect(TokenKind::Semi, "';'")?;
                    connects.push(ConnectDecl { from_node, from_port, to_node, to_port });
                }
                _ => return Err(self.err("expected doc/nodes/connect in workflow body")),
            }
        }
        self.expect(TokenKind::RBrace, "'}'")?;
        Ok(WorkflowDecl { name, doc, nodes, connects })
    }

    // ---- statements ---------------------------------------------------

    fn block(&mut self) -> Result<Block, ScriptError> {
        self.expect(TokenKind::LBrace, "'{'")?;
        self.descend()?;
        let mut stmts = Vec::new();
        while !self.check(&TokenKind::RBrace) {
            if self.check(&TokenKind::Eof) {
                return Err(self.err("unterminated block"));
            }
            stmts.push(self.stmt()?);
        }
        self.expect(TokenKind::RBrace, "'}'")?;
        self.depth -= 1;
        Ok(Block { stmts })
    }

    fn stmt(&mut self) -> Result<Stmt, ScriptError> {
        match &self.peek().kind {
            TokenKind::Let => {
                self.bump();
                let name = self.ident("variable name")?;
                self.expect(TokenKind::Assign, "'='")?;
                let value = self.expr()?;
                self.expect(TokenKind::Semi, "';' after let")?;
                Ok(Stmt::Let { name, value })
            }
            TokenKind::If => self.if_stmt(),
            TokenKind::While => {
                self.bump();
                let cond = self.expr()?;
                let body = self.block()?;
                Ok(Stmt::While { cond, body })
            }
            TokenKind::For => {
                self.bump();
                let var = self.ident("loop variable")?;
                self.expect(TokenKind::In, "'in'")?;
                let iter = self.expr()?;
                let body = self.block()?;
                Ok(Stmt::For { var, iter, body })
            }
            TokenKind::Return => {
                self.bump();
                if self.eat(&TokenKind::Semi) {
                    Ok(Stmt::Return(None))
                } else {
                    let e = self.expr()?;
                    self.expect(TokenKind::Semi, "';' after return")?;
                    Ok(Stmt::Return(Some(e)))
                }
            }
            TokenKind::Break => {
                self.bump();
                self.expect(TokenKind::Semi, "';'")?;
                Ok(Stmt::Break)
            }
            TokenKind::Continue => {
                self.bump();
                self.expect(TokenKind::Semi, "';'")?;
                Ok(Stmt::Continue)
            }
            TokenKind::Emit => {
                self.bump();
                self.expect(TokenKind::LParen, "'(' after emit")?;
                let first = self.expr()?;
                let stmt = if self.eat(&TokenKind::Comma) {
                    let value = self.expr()?;
                    // Two-argument form: the port must be a static string.
                    let Expr::Str(port) = first else {
                        return Err(self.err("emit(port, value) requires a string literal port name"));
                    };
                    Stmt::EmitTo { port, value }
                } else {
                    Stmt::Emit(first)
                };
                self.expect(TokenKind::RParen, "')'")?;
                self.expect(TokenKind::Semi, "';' after emit")?;
                Ok(stmt)
            }
            _ => {
                let e = self.expr()?;
                if self.eat(&TokenKind::Assign) {
                    if !e.is_lvalue() {
                        return Err(self.err("invalid assignment target"));
                    }
                    let value = self.expr()?;
                    self.expect(TokenKind::Semi, "';' after assignment")?;
                    Ok(Stmt::Assign { target: e, value })
                } else {
                    self.expect(TokenKind::Semi, "';' after expression")?;
                    Ok(Stmt::ExprStmt(e))
                }
            }
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt, ScriptError> {
        self.expect(TokenKind::If, "'if'")?;
        let cond = self.expr()?;
        let then_block = self.block()?;
        let else_block = if self.eat(&TokenKind::Else) {
            if self.check(&TokenKind::If) {
                // else-if chain desugars to a nested single-statement block.
                self.descend()?;
                let nested = self.if_stmt()?;
                self.depth -= 1;
                Some(Block { stmts: vec![nested] })
            } else {
                Some(self.block()?)
            }
        } else {
            None
        };
        Ok(Stmt::If { cond, then_block, else_block })
    }

    // ---- expressions ---------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ScriptError> {
        self.descend()?;
        let e = self.binary(0)?;
        self.depth -= 1;
        Ok(e)
    }

    /// Precedence climbing over the left-associative binary levels and the
    /// `not` prefix that sits between `and` and the comparisons: parse an
    /// expression whose operators all bind at least as tightly as `min`.
    /// Every link of a chain puts the tree built so far one level deeper.
    fn binary(&mut self, min: u8) -> Result<Expr, ScriptError> {
        let outer = self.depth;
        let mut lhs = if min <= NOT_LEVEL && self.check(&TokenKind::Not) {
            let line = self.bump().line;
            self.descend()?;
            let operand = self.binary(NOT_LEVEL)?;
            Expr::Unary { op: UnOp::Not, operand: Box::new(operand), line }
        } else {
            self.unary()?
        };
        while let Some((op, level)) = binary_op(&self.peek().kind).filter(|(_, level)| *level >= min) {
            self.descend()?;
            let line = self.bump().line;
            let rhs = self.binary(level + 1)?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs), line };
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ScriptError> {
        if self.check(&TokenKind::Minus) {
            let line = self.bump().line;
            self.descend()?;
            let operand = self.unary()?;
            self.depth -= 1;
            Ok(Expr::Unary { op: UnOp::Neg, operand: Box::new(operand), line })
        } else {
            self.postfix()
        }
    }

    fn postfix(&mut self) -> Result<Expr, ScriptError> {
        let outer = self.depth;
        let mut e = self.primary()?;
        while matches!(self.peek().kind, TokenKind::LParen | TokenKind::LBracket | TokenKind::Dot) {
            // Every accessor puts the expression so far one level deeper.
            self.descend()?;
            let accessor = self.bump();
            let line = accessor.line;
            e = match accessor.kind {
                TokenKind::LParen => {
                    let mut args = Vec::new();
                    if !self.check(&TokenKind::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(TokenKind::RParen, "')'")?;
                    match e {
                        Expr::Var { name, .. } => Expr::Call { module: None, name, args, line },
                        Expr::Field { base, field, .. } => match *base {
                            Expr::Var { name: module, .. } => {
                                Expr::Call { module: Some(module), name: field, args, line }
                            }
                            _ => return Err(self.err("only `f(..)` and `module.f(..)` calls are supported")),
                        },
                        _ => return Err(self.err("this expression is not callable")),
                    }
                }
                TokenKind::LBracket => {
                    let index = self.expr()?;
                    self.expect(TokenKind::RBracket, "']'")?;
                    Expr::Index { base: Box::new(e), index: Box::new(index), line }
                }
                _ => Expr::Field { base: Box::new(e), field: self.ident("field name")?, line },
            };
        }
        self.depth = outer;
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ScriptError> {
        let t = self.peek().clone();
        match t.kind {
            TokenKind::Int(n) => {
                self.bump();
                Ok(Expr::Int(n))
            }
            TokenKind::Float(f) => {
                self.bump();
                Ok(Expr::Float(f))
            }
            TokenKind::Str(ref s) => {
                let s = s.clone();
                self.bump();
                Ok(Expr::Str(s))
            }
            TokenKind::True => {
                self.bump();
                Ok(Expr::Bool(true))
            }
            TokenKind::False => {
                self.bump();
                Ok(Expr::Bool(false))
            }
            TokenKind::Null => {
                self.bump();
                Ok(Expr::Null)
            }
            TokenKind::Ident(ref name) => {
                let name = name.clone();
                self.bump();
                Ok(Expr::Var { name, line: t.line })
            }
            // `input` is a keyword but also the conventional datum variable.
            TokenKind::Input => {
                self.bump();
                Ok(Expr::Var { name: "input".into(), line: t.line })
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(TokenKind::RParen, "')'")?;
                Ok(e)
            }
            TokenKind::LBracket => {
                self.bump();
                let mut items = Vec::new();
                if !self.check(&TokenKind::RBracket) {
                    loop {
                        items.push(self.expr()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                self.expect(TokenKind::RBracket, "']'")?;
                Ok(Expr::List(items))
            }
            TokenKind::LBrace => {
                self.bump();
                let mut pairs = Vec::new();
                if !self.check(&TokenKind::RBrace) {
                    loop {
                        let key = match self.peek().kind.clone() {
                            TokenKind::Str(s) => {
                                self.bump();
                                s
                            }
                            TokenKind::Ident(s) => {
                                self.bump();
                                s
                            }
                            _ => return Err(self.err("expected map key (string or identifier)")),
                        };
                        self.expect(TokenKind::Colon, "':' after map key")?;
                        let v = self.expr()?;
                        pairs.push((key, v));
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                self.expect(TokenKind::RBrace, "'}'")?;
                Ok(Expr::MapLit(pairs))
            }
            _ => Err(self.err(format!("unexpected token {:?} in expression", t.kind))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expression_precedence() {
        let e = parse_expr("1 + 2 * 3 == 7 and not false").unwrap();
        // Must parse as ((1 + (2*3)) == 7) and (not false)
        let Expr::Binary { op: BinOp::And, lhs, rhs, .. } = e else {
            panic!("top must be `and`");
        };
        assert!(matches!(*lhs, Expr::Binary { op: BinOp::Eq, .. }));
        assert!(matches!(*rhs, Expr::Unary { op: UnOp::Not, .. }));
    }

    #[test]
    fn calls_and_postfix() {
        let e = parse_expr("math.sqrt(x[0].field + len(xs))").unwrap();
        let Expr::Call { module, name, args, .. } = e else { panic!("call expected") };
        assert_eq!(module.as_deref(), Some("math"));
        assert_eq!(name, "sqrt");
        assert_eq!(args.len(), 1);
    }

    #[test]
    fn literals() {
        assert_eq!(
            parse_expr("[1, 2.5, \"a\"]").unwrap(),
            Expr::List(vec![Expr::Int(1), Expr::Float(2.5), Expr::Str("a".into()),])
        );
        let m = parse_expr("{\"a\": 1, b: 2}").unwrap();
        let Expr::MapLit(pairs) = m else { panic!() };
        assert_eq!(pairs[0].0, "a");
        assert_eq!(pairs[1].0, "b");
    }

    #[test]
    fn full_pe_parses() {
        let src = r#"
            pe IsPrime : iterative {
                doc "Checks if the given input is prime";
                import math;
                input num;
                output output;
                process {
                    let i = 2;
                    let prime = num > 1;
                    while i * i <= num {
                        if num % i == 0 { prime = false; break; }
                        i = i + 1;
                    }
                    if prime { emit(num); }
                }
            }
        "#;
        let script = parse_script(src).unwrap();
        let pe = script.pe("IsPrime").unwrap();
        assert_eq!(pe.kind, PeKind::Iterative);
        assert_eq!(pe.doc.as_deref(), Some("Checks if the given input is prime"));
        assert_eq!(pe.imports, vec![vec!["math".to_string()]]);
        assert_eq!(pe.inputs[0].name, "num");
        assert_eq!(pe.outputs, vec!["output"]);
        assert!(!pe.is_stateful());
    }

    #[test]
    fn stateful_pe_with_groupby() {
        let src = r#"
            pe CountWords : generic {
                input input groupby 0;
                output output;
                init { state.count = {}; }
                process {
                    let word = input[0];
                    state.count[word] = get(state.count, word, 0) + input[1];
                    emit([word, state.count[word]]);
                }
            }
        "#;
        let pe_script = parse_script(src).unwrap();
        let pe = pe_script.pe("CountWords").unwrap();
        assert_eq!(pe.inputs[0].groupby, Some(0));
        assert!(pe.is_stateful());
    }

    #[test]
    fn workflow_decl_parses() {
        let src = r#"
            workflow IsPrime {
                doc "Streams random numbers and prints the primes";
                nodes { p = NumberProducer; i = IsPrime; pr = PrintPrime; }
                connect p.output -> i.num;
                connect i.output -> pr.input;
            }
        "#;
        let s = parse_script(src).unwrap();
        let w = s.workflows().next().unwrap();
        assert_eq!(w.name, "IsPrime");
        assert_eq!(w.nodes.len(), 3);
        assert_eq!(w.connects.len(), 2);
        assert_eq!(w.connects[0].from_node, "p");
        assert_eq!(w.connects[0].to_port, "num");
    }

    #[test]
    fn archetype_shapes_enforced() {
        // Producer with an input port is rejected.
        let bad = "pe P : producer { input x; output output; process { emit(1); } }";
        assert!(parse_script(bad).is_err());
        // Consumer with an output is rejected.
        let bad = "pe C : consumer { input x; output y; process { emit(1); } }";
        assert!(parse_script(bad).is_err());
        // Iterative needs both.
        let bad = "pe I : iterative { input x; process { } }";
        assert!(parse_script(bad).is_err());
        // Missing process block.
        let bad = "pe P : producer { output output; }";
        assert!(parse_script(bad).is_err());
    }

    #[test]
    fn emit_forms() {
        let src = r#"
            pe Fan : generic {
                input input;
                output big;
                output small;
                process {
                    if input > 10 { emit("big", input); } else { emit("small", input); }
                }
            }
        "#;
        let s = parse_script(src).unwrap();
        let pe = s.pe("Fan").unwrap();
        assert_eq!(pe.outputs.len(), 2);
        // emit with non-literal port is rejected
        let bad = r#"pe X : generic { input input; output o; process { emit(p, 1); } }"#;
        assert!(parse_script(bad).is_err());
    }

    #[test]
    fn else_if_chains() {
        let src = "fn f(x) { if x > 2 { return 2; } else if x > 1 { return 1; } else { return 0; } }";
        let s = parse_script(src).unwrap();
        let Item::Fn(f) = &s.items[0] else { panic!() };
        let Stmt::If { else_block: Some(e), .. } = &f.body.stmts[0] else { panic!() };
        assert!(matches!(e.stmts[0], Stmt::If { .. }));
    }

    #[test]
    fn assignment_targets() {
        let src = "fn f() { state.count[0].x = 1; }";
        assert!(parse_script(src).is_ok());
        let bad = "fn f() { f(1) = 2; }";
        assert!(parse_script(bad).is_err());
    }

    #[test]
    fn parse_errors_have_positions() {
        let e = parse_script("pe X : iterative {\n  input a\n}").unwrap_err();
        assert!(e.line >= 2, "error line was {}", e.line);
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_expr("1 + 2 extra").is_err());
    }

    /// `(name, prefix, open, core, close, suffix, levels)`: `levels`
    /// repetitions of `open`/`close` around `core` reach [`MAX_NESTING`]
    /// exactly. A function body sits one level down and its `return`
    /// expression two; an index or a call costs two levels (the accessor,
    /// then the expression inside it), every other construct one.
    const NESTS: &[(&str, &str, &str, &str, &str, &str, usize)] = &[
        ("parens", "fn f() { return ", "(", "1", ")", "; }", MAX_NESTING - 2),
        ("list", "fn f() { return ", "[", "1", "]", "; }", MAX_NESTING - 2),
        ("map", "fn f() { return ", "{k: ", "1", "}", "; }", MAX_NESTING - 2),
        ("index", "fn f() { return ", "x[", "0", "]", "; }", (MAX_NESTING - 2) / 2),
        ("call", "fn f() { return ", "f(", "0", ")", "; }", (MAX_NESTING - 2) / 2),
        ("neg", "fn f() { return ", "- ", "1", "", "; }", MAX_NESTING - 2),
        ("not", "fn f() { return ", "not ", "true", "", "; }", MAX_NESTING - 2),
        ("binary chain", "fn f() { return 1", "", "", " + 1", "; }", MAX_NESTING - 2),
        ("field chain", "fn f() { return x", "", "", ".a", "; }", MAX_NESTING - 2),
        ("blocks", "fn f() { ", "if true { ", "", "} ", "}", MAX_NESTING - 1),
        ("else-if chain", "fn f() { if true { } ", "", "", "else if true { } ", "}", MAX_NESTING - 2),
    ];

    #[test]
    fn nesting_is_bounded_for_every_recursive_construct() {
        // The stack a server thread has. At the bound the whole pipeline —
        // parse, compile, print, analyse, drop — must fit; one level past
        // it the parser refuses, at a position, before any of them recurse.
        let on_server_stack = std::thread::Builder::new().stack_size(2 << 20).spawn(|| {
            for &(name, prefix, open, core, close, suffix, levels) in NESTS {
                let nest = |n: usize| [prefix, &open.repeat(n), core, &close.repeat(n), suffix].concat();
                let prepared =
                    crate::prepare(&nest(levels)).unwrap_or_else(|e| panic!("{name} at bound: {e}"));
                assert!(!crate::to_source(prepared.script()).is_empty());
                assert!(crate::analysis::imports(prepared.script()).is_empty());
                let err = crate::prepare(&nest(levels + 1)).expect_err(name);
                assert_eq!(err.kind, ErrorKind::Parse, "{name}: {err}");
                assert!(err.message.contains("nesting") && err.line == 1 && err.column > 0, "{name}: {err}");
                // Far past the bound: refused just the same, never a crash.
                assert_eq!(parse_script(&nest(100_000)).expect_err(name).kind, ErrorKind::Parse);
            }
        });
        on_server_stack.unwrap().join().unwrap();
    }
}
