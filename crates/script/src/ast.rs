//! LamScript abstract syntax tree.
//!
//! The AST is the shared currency of the crate: the interpreter walks it,
//! the pretty-printer re-emits canonical source from it, `analysis` mines it
//! for imports / identifiers / def-use edges, and the summarizer in
//! `laminar-embed` generates PE descriptions from it.

/// A parsed source file: a sequence of top-level items.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

impl Script {
    /// All PE declarations in the script.
    pub fn pes(&self) -> impl Iterator<Item = &PeDecl> {
        self.items.iter().filter_map(|i| match i {
            Item::Pe(p) => Some(p),
            _ => None,
        })
    }

    /// All workflow declarations in the script.
    pub fn workflows(&self) -> impl Iterator<Item = &WorkflowDecl> {
        self.items.iter().filter_map(|i| match i {
            Item::Workflow(w) => Some(w),
            _ => None,
        })
    }

    /// Find a PE by name.
    pub fn pe(&self, name: &str) -> Option<&PeDecl> {
        self.pes().find(|p| p.name == name)
    }
}

/// Top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// `import foo.bar;`
    Import(Vec<String>),
    /// `fn name(params) { ... }` — free helper function.
    Fn(FnDecl),
    /// `pe Name : kind { ... }`
    Pe(PeDecl),
    /// `workflow Name { ... }`
    Workflow(WorkflowDecl),
}

/// A helper function declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct FnDecl {
    /// Function name.
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// Body.
    pub body: Block,
}

/// The four PE archetypes of dispel4py (paper §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeKind {
    /// One output port, no inputs; driven by iteration count.
    Producer,
    /// One input, one output.
    Iterative,
    /// One input, no outputs.
    Consumer,
    /// Any number of ports, fully custom.
    Generic,
}

impl PeKind {
    /// Parse from the source keyword (named like [`crate::parse_script`]'s
    /// helpers rather than `FromStr` because it returns an `Option`).
    pub(crate) fn parse(s: &str) -> Option<PeKind> {
        Some(match s {
            "producer" => PeKind::Producer,
            "iterative" => PeKind::Iterative,
            "consumer" => PeKind::Consumer,
            "generic" => PeKind::Generic,
            _ => return None,
        })
    }

    /// Source keyword for this kind.
    pub fn as_str(&self) -> &'static str {
        match self {
            PeKind::Producer => "producer",
            PeKind::Iterative => "iterative",
            PeKind::Consumer => "consumer",
            PeKind::Generic => "generic",
        }
    }
}

/// An input-port declaration, optionally with a group-by key
/// (`input words groupby 0;` routes tuples with equal `[0]` to one instance).
#[derive(Debug, Clone, PartialEq)]
pub struct PortDecl {
    /// Port name.
    pub name: String,
    /// `Some(index)` if the port declared `groupby <index>`.
    pub groupby: Option<usize>,
}

/// A PE declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct PeDecl {
    /// Class name (e.g. `NumberProducer`).
    pub name: String,
    /// Archetype.
    pub kind: PeKind,
    /// Optional `doc "..."` description.
    pub doc: Option<String>,
    /// Declared library imports (drive the engine's auto-install).
    pub imports: Vec<Vec<String>>,
    /// Input ports in declaration order.
    pub inputs: Vec<PortDecl>,
    /// Output port names in declaration order.
    pub outputs: Vec<String>,
    /// Optional `init { ... }` block run once per instance.
    pub init: Option<Block>,
    /// The `process { ... }` body run per datum (or per iteration for
    /// producers).
    pub process: Block,
}

impl PeDecl {
    /// Name of the default output port (`emit(v)` targets this).
    pub fn default_output(&self) -> Option<&str> {
        self.outputs.first().map(String::as_str)
    }

    /// Name of the default input port.
    pub fn default_input(&self) -> Option<&str> {
        self.inputs.first().map(|p| p.name.as_str())
    }

    /// Whether the PE keeps state across process calls (`init` present or
    /// `state` referenced in the body).
    pub fn is_stateful(&self) -> bool {
        self.init.is_some() || crate::analysis::mentions_state(&self.process)
    }
}

/// A node binding inside a workflow declaration: `alias = PeName;`.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeBinding {
    /// Local alias used in `connect` lines.
    pub alias: String,
    /// PE class name.
    pub pe_name: String,
}

/// A connection: `connect a.output -> b.input;`.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectDecl {
    /// Source node alias.
    pub from_node: String,
    /// Source port.
    pub from_port: String,
    /// Destination node alias.
    pub to_node: String,
    /// Destination port.
    pub to_port: String,
}

/// A workflow declaration (the abstract workflow of paper Fig. 1).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowDecl {
    /// Workflow name.
    pub name: String,
    /// Optional `doc` string.
    pub doc: Option<String>,
    /// Node bindings.
    pub nodes: Vec<NodeBinding>,
    /// Connections.
    pub connects: Vec<ConnectDecl>,
}

/// A brace-delimited statement list.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `let name = expr;`
    Let { name: String, value: Expr },
    /// `target = expr;` where target is an lvalue chain.
    Assign { target: Expr, value: Expr },
    /// `if cond { .. } else { .. }` (else optional; else-if chains nest).
    If { cond: Expr, then_block: Block, else_block: Option<Block> },
    /// `while cond { .. }`
    While { cond: Expr, body: Block },
    /// `for var in expr { .. }` — iterates arrays and integer ranges.
    For { var: String, iter: Expr, body: Block },
    /// `return expr?;`
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `emit(value);` — write to the default output port.
    Emit(Expr),
    /// `emit(port_name, value);` as `emit_to`.
    EmitTo { port: String, value: Expr },
    /// Bare expression statement (usually a call).
    ExprStmt(Expr),
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    /// Source form.
    pub fn as_str(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "and",
            BinOp::Or => "or",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
}

/// Expressions. Every node carries the source line for runtime errors.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// Variable reference.
    Var { name: String, line: usize },
    /// `[a, b, c]`
    List(Vec<Expr>),
    /// `{ "k": v, ... }`
    MapLit(Vec<(String, Expr)>),
    /// Binary operation.
    Binary { op: BinOp, lhs: Box<Expr>, rhs: Box<Expr>, line: usize },
    /// Unary operation.
    Unary { op: UnOp, operand: Box<Expr>, line: usize },
    /// Function call: plain `f(args)` or dotted `module.f(args)`.
    Call { module: Option<String>, name: String, args: Vec<Expr>, line: usize },
    /// Indexing `base[index]`.
    Index { base: Box<Expr>, index: Box<Expr>, line: usize },
    /// Field access `base.field`.
    Field { base: Box<Expr>, field: String, line: usize },
}

impl Expr {
    /// Source line of the expression (0 for position-less literals).
    pub fn line(&self) -> usize {
        match self {
            Expr::Var { line, .. }
            | Expr::Binary { line, .. }
            | Expr::Unary { line, .. }
            | Expr::Call { line, .. }
            | Expr::Index { line, .. }
            | Expr::Field { line, .. } => *line,
            _ => 0,
        }
    }

    /// Is this expression usable as an assignment target?
    pub(crate) fn is_lvalue(&self) -> bool {
        match self {
            Expr::Var { .. } => true,
            Expr::Index { base, .. } | Expr::Field { base, .. } => base.is_lvalue(),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pe_kind_round_trip() {
        for k in [PeKind::Producer, PeKind::Iterative, PeKind::Consumer, PeKind::Generic] {
            assert_eq!(PeKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(PeKind::parse("mapper"), None);
    }

    #[test]
    fn lvalue_classification() {
        let v = Expr::Var { name: "x".into(), line: 1 };
        assert!(v.is_lvalue());
        let idx = Expr::Index { base: Box::new(v.clone()), index: Box::new(Expr::Int(0)), line: 1 };
        assert!(idx.is_lvalue());
        let call = Expr::Call { module: None, name: "f".into(), args: vec![], line: 1 };
        assert!(!call.is_lvalue());
        let idx_of_call = Expr::Index { base: Box::new(call), index: Box::new(Expr::Int(0)), line: 1 };
        assert!(!idx_of_call.is_lvalue());
    }

    #[test]
    fn binop_strings() {
        assert_eq!(BinOp::Add.as_str(), "+");
        assert_eq!(BinOp::And.as_str(), "and");
        assert_eq!(BinOp::Le.as_str(), "<=");
    }
}
