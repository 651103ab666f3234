//! AST → register-bytecode compiler for LamScript.
//!
//! A tree-walker (the reference interpreter, `laminar_oracle::Interp`)
//! re-traverses the AST and re-resolves every identifier per `process`
//! invocation — the innermost loop of every enactment. This module lowers a
//! parsed [`Script`] once into
//! a compact register machine ([`Program`]) that the [`crate::vm::Vm`]
//! executes:
//!
//! * variables the compiler can see (`state`, `input`, `let` bindings,
//!   function parameters) become fixed register slots — no per-invocation
//!   `HashMap` lookups;
//! * literals are interned in a per-chunk constant pool;
//! * call targets are classified at compile time in the interpreter's
//!   dispatch order (`print` → RNG builtins → user functions → builtin
//!   table → host), so dispatch is a direct instruction;
//! * `emit`/`print` are fused instructions that hand `Value`s straight to
//!   the [`crate::Sink`];
//! * a `.f`/`[i]` chain rooted at a name, with literal or local operands,
//!   is a `ReadPath`: `Instr::LoadPath` walks the root by reference and
//!   clones only the leaf (the read twin of `Instr::StorePath`), and a
//!   builtin's first such argument is *lent* — `Instr::CheckPath` walks
//!   it at its turn in the argument order without copying, and the call
//!   moves the leaf into the argument register and back. Builtins see
//!   `&[Value]` and no expression assigns a local or the port binding, so
//!   the call finds the leaf the check found (DESIGN.md §3.5);
//! * the group-by read `get(path, key, default?)` with a literal or local
//!   key and default is one `Instr::Get` (after the path's entry burns):
//!   it walks the path and reads both operands in place and calls
//!   `builtins::get`, the table's own `get`;
//! * an assignment's index that is a local other than its root is read in
//!   place by the store (`PathAcc::Local`), not copied into a register;
//! * a PE records whether its `process` names `input_port`
//!   (`PeProgram::names_input_port`), so a run builds that string only
//!   for a body that reads it; the datum's port-named alias shares the
//!   `input` slot until the body assigns to either name.
//!
//! The lowering is *semantics-preserving by construction*: fuel is burned by
//! explicit `Instr::Fuel` instructions (and fused into the leaf loads and
//! path walks) in exactly the order the interpreter burns it, runtime
//! checks (call depth, arity, undeclared ports) stay runtime checks with the
//! interpreter's error kinds and messages, and names the compiler cannot
//! resolve (the datum's per-invocation port binding) fall back to
//! `Instr::Dynamic` lookups. `tests/proptest_vm.rs` differential-tests
//! the VM against the interpreter over generated programs,
//! `tests/proptest_paths.rs` over programs built around read paths and
//! lent arguments, and `tests/vm_parity.rs` over a few fixed ones.

use crate::ast::*;
use crate::error::{ErrorKind, ScriptError};
use laminar_json::Value;
use std::cell::Cell;
use std::collections::HashMap;

/// RNG-backed builtins that consume the VM's seeded generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RandKind {
    /// `randint(a, b)` — inclusive integer range.
    Randint,
    /// `random()` — float in `[0, 1)`.
    Random,
    /// `shuffle(list)` — Fisher-Yates.
    Shuffle,
}

/// One accessor step of a compiled assignment path (`x[i].f = v`).
#[derive(Debug, Clone, Copy)]
pub(crate) enum PathAcc {
    /// Field access; index into [`Chunk::names`].
    Field(u16),
    /// Index access; the temporary register the index was evaluated into.
    Index(u16),
    /// Index access by a local other than the path's root, read in place
    /// (its unit burns in an [`Instr::Fuel`] where a copy would have).
    Local(u16),
}

/// Where a read path starts.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PathRoot {
    /// A local register slot.
    Local(u16),
    /// The dynamic port binding named `names[i]`, else `NameError`.
    Dynamic(u16),
}

/// An operand read in place: an index in a read path, or a `get` key or
/// default.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Operand {
    /// `consts[idx]`: a literal (burns one unit, like `Const`).
    Const(u16),
    /// `regs[slot]`: a local (burns one unit at `line`, like `Local`).
    Local { slot: u16, line: u32 },
}

impl Operand {
    /// The line its unit burns at.
    pub(crate) fn line(self) -> u32 {
        match self {
            Operand::Const(_) => 0,
            Operand::Local { line, .. } => line,
        }
    }
}

/// One accessor step of a compiled read path (`x.f[i]` read in place).
#[derive(Debug, Clone, Copy)]
pub(crate) enum ReadAcc {
    /// `.names[name]`; `line` is the field expression's (its `TypeError`).
    Field { name: u16, line: u32 },
    /// `[operand]`.
    Index(Operand),
}

/// A name followed by zero or more accessors whose operands are literals
/// or locals other than the root, walked by reference (referenced by
/// [`Instr::LoadPath`], [`Instr::CheckPath`] and a lent builtin argument).
#[derive(Debug, Clone)]
pub(crate) struct ReadPath {
    /// The root variable.
    pub(crate) root: PathRoot,
    /// The root variable's line (its burn and `NameError`).
    pub(crate) line: u32,
    /// Accessors in application order (innermost first).
    pub(crate) accs: Vec<ReadAcc>,
}

/// A builtin call site (referenced by [`Instr::CallBuiltin`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BuiltinCall {
    /// Module name in [`Chunk::names`]; `None` for an unqualified call.
    pub(crate) module: Option<u16>,
    /// Function name in [`Chunk::names`].
    pub(crate) name: u16,
    /// The argument lent in place of a copy: its position among the
    /// arguments and its path in [`Chunk::reads`].
    pub(crate) lend: Option<(u16, u16)>,
}

/// A fused `get(path, key, default?)` call (referenced by [`Instr::Get`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct GetCall {
    /// The container's path in [`Chunk::reads`].
    pub(crate) path: u16,
    /// The key.
    pub(crate) key: Operand,
    /// The default, when given.
    pub(crate) default: Option<Operand>,
    /// The call's line (its `ArgumentError`).
    pub(crate) line: u32,
}

/// Bytecode instructions. Registers (`dst`, `src`, …) are frame-relative
/// slots; `line` mirrors the AST node's source line for error parity with
/// the interpreter.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Instr {
    /// Burn one fuel unit (statement/operator entry).
    Fuel { line: u32 },
    /// `dst = consts[idx]` (burns one unit: literal evaluation).
    Const { dst: u16, idx: u16 },
    /// `dst = regs[slot]` (burns one unit: variable evaluation).
    Local { dst: u16, slot: u16, line: u32 },
    /// Lookup of a name the compiler could not resolve: the datum's
    /// per-invocation port binding, else `NameError` (burns one unit).
    Dynamic { dst: u16, name: u16, line: u32 },
    /// `regs[slot] = take(regs[src])`.
    StoreLocal { slot: u16, src: u16 },
    /// Assign to the dynamic port binding, else `NameError`.
    StoreDynamic { name: u16, src: u16 },
    /// Assignment through an accessor path rooted at a local slot
    /// (`root_local`) or the dynamic binding.
    StorePath { root_local: bool, root: u16, path_start: u16, path_len: u16, src: u16 },
    /// `dst = reads[path]`, walked by reference and cloning only the leaf
    /// (burns the root's and each operand's unit).
    LoadPath { dst: u16, path: u16 },
    /// [`Instr::LoadPath`]'s burns and errors without the copy: the lent
    /// argument's turn in the argument order. A leaf a step made fresh
    /// (missing key, string char) is written to `dst`; a borrowed one is
    /// lent by the call.
    CheckPath { dst: u16, path: u16 },
    /// `dst = [regs[start..start+n]]`.
    MakeList { dst: u16, start: u16, n: u16 },
    /// `dst = {names[keys_start+i]: regs[start+i]}`.
    MakeMap { dst: u16, keys_start: u16, start: u16, n: u16 },
    /// `dst = a <op> b` (non-logical operators).
    Bin { op: BinOp, dst: u16, a: u16, b: u16, line: u32 },
    /// Arithmetic negation in place.
    Neg { dst: u16 },
    /// Logical not in place.
    Not { dst: u16 },
    /// `dst = Bool(truthy(dst))`.
    Truthy { dst: u16 },
    /// Unconditional jump.
    Jump { to: u32 },
    /// Jump when `regs[cond]` is falsy.
    JumpIfFalse { cond: u16, to: u32 },
    /// Jump when `regs[cond]` is truthy.
    JumpIfTrue { cond: u16, to: u32 },
    /// `dst = regs[obj][regs[idx]]` (consumes both operands).
    IndexGet { dst: u16, obj: u16, idx: u16 },
    /// `dst = regs[obj].names[name]` (consumes the object).
    FieldGet { dst: u16, obj: u16, name: u16, line: u32 },
    /// Call user function `fns[fidx]` with `regs[start..start+argc]`.
    CallFn { dst: u16, fidx: u16, start: u16, argc: u16, line: u32 },
    /// Call the builtin-table function `builtins[call]`, lending its lent
    /// argument's leaf for the call's duration.
    CallBuiltin { dst: u16, call: u16, start: u16, argc: u16, line: u32 },
    /// `dst = get(..)` per `gets[call]`: walks the container's path and
    /// reads the key and default in place, burning what [`Instr::CheckPath`]
    /// and their `Local`/`Const` would have, in that order.
    Get { dst: u16, call: u16 },
    /// Call a host function `names[module].names[name]`.
    CallHost { dst: u16, module: u16, name: u16, start: u16, argc: u16 },
    /// Fused `print(...)`: join args, hand to the sink, `dst = null`.
    Print { dst: u16, start: u16, argc: u16 },
    /// RNG builtin drawing from the VM's seeded generator.
    Rand { dst: u16, kind: RandKind, start: u16, argc: u16 },
    /// Fused `emit(v)` to the chunk's default output port.
    EmitDefault { src: u16 },
    /// Fused `emit(port, v)` to a declared output port.
    EmitPort { name: u16, src: u16 },
    /// Materialize `regs[src]` into an iterator for a `for` loop.
    ForPrep { src: u16 },
    /// Advance the innermost iterator: write the item to `slot` (burning
    /// the per-item unit) or pop the iterator and jump to `exit`.
    ForNext { slot: u16, exit: u32 },
    /// Discard the innermost iterator (`break` out of a `for`).
    PopIter,
    /// Return `take(regs[src])` from the chunk.
    Return { src: u16 },
    /// Return `null` (bare `return;` — no expression, no extra burn).
    ReturnNull,
    /// Raise the precomputed error `errors[idx]`.
    Raise { idx: u16 },
    /// End of chunk: return `null`.
    End,
}

/// A compiled function body, `init` block, or `process` block.
#[derive(Debug, Clone)]
pub(crate) struct Chunk {
    /// Function name (used in arity-error messages); empty for PE chunks.
    pub(crate) name: String,
    /// Parameter count (function chunks).
    pub(crate) arity: usize,
    /// The instruction stream.
    pub(crate) instrs: Vec<Instr>,
    /// Constant pool.
    pub(crate) consts: Vec<Value>,
    /// Interned names: fields, ports, dynamic vars, map keys, call targets.
    pub(crate) names: Vec<String>,
    /// Assignment path accessors (referenced by [`Instr::StorePath`]).
    pub(crate) paths: Vec<PathAcc>,
    /// Read paths (referenced by [`Instr::LoadPath`], [`Instr::CheckPath`]
    /// and [`BuiltinCall::lend`]).
    pub(crate) reads: Vec<ReadPath>,
    /// Builtin call sites (referenced by [`Instr::CallBuiltin`]).
    pub(crate) builtins: Vec<BuiltinCall>,
    /// Fused `get` calls (referenced by [`Instr::Get`]).
    pub(crate) gets: Vec<GetCall>,
    /// Precomputed errors (referenced by [`Instr::Raise`]).
    pub(crate) errors: Vec<ScriptError>,
    /// Frame size: number of registers this chunk needs.
    pub(crate) n_regs: u16,
    /// Default output port for fused `emit` (process chunks only).
    pub(crate) default_output: Option<String>,
}

/// A `process` chunk's fixed slots, in the interpreter's definition order:
/// `state`, `input`, `input_port`, `iteration`.
pub(crate) const STATE: u16 = 0;
/// `input`'s slot (see [`STATE`]).
pub(crate) const INPUT: u16 = 1;
/// `input_port`'s slot (see [`STATE`]).
pub(crate) const INPUT_PORT: u16 = 2;
/// `iteration`'s slot (see [`STATE`]).
pub(crate) const ITERATION: u16 = 3;

/// A compiled PE: optional `init` plus the `process` body.
#[derive(Debug, Clone)]
pub(crate) struct PeProgram {
    /// The PE's name.
    pub(crate) name: String,
    /// Compiled `init { ... }` block, when declared.
    pub(crate) init: Option<Chunk>,
    /// Compiled `process { ... }` body.
    pub(crate) process: Chunk,
    /// Declared default input port (the datum's fallback binding name).
    pub(crate) default_input: Option<String>,
    /// Whether `process` names `input_port`; if not, the slot stays null.
    pub(crate) names_input_port: bool,
}

/// A fully compiled script: shared function table plus per-PE chunks.
#[derive(Debug, Clone)]
pub struct Program {
    /// User functions in first-declaration order (later same-name
    /// declarations overwrite in place, like the interpreter's map).
    pub(crate) fns: Vec<Chunk>,
    /// Compiled PEs, one per name (first declaration wins, like
    /// `Script::pe`).
    pub(crate) pes: Vec<PeProgram>,
}

impl Program {
    /// The position of the PE named `name` in [`Program::pes`].
    pub(crate) fn pe_index(&self, name: &str) -> Option<usize> {
        self.pes.iter().position(|p| p.name == name)
    }
}

fn too_large() -> ScriptError {
    ScriptError::new(ErrorKind::Parse, "program too large to compile")
}

fn u16x(n: usize) -> Result<u16, ScriptError> {
    u16::try_from(n).map_err(|_| too_large())
}

fn u32x(n: usize) -> Result<u32, ScriptError> {
    u32::try_from(n).map_err(|_| too_large())
}

/// Compile a whole script. The only compile-time failures are size
/// overflows (register/constant/name pools beyond `u16`), reported as
/// [`ErrorKind::Parse`]: such a script is refused wherever it enters
/// (registration, graph construction), never run some other way.
pub fn compile_script(script: &Script) -> Result<Program, ScriptError> {
    // Function table: first-declaration index order, later decl wins in
    // place (the interpreter's HashMap insert-overwrite has the same
    // visible effect).
    let mut fn_index: HashMap<String, u16> = HashMap::new();
    let mut decls: Vec<&FnDecl> = Vec::new();
    for item in &script.items {
        if let Item::Fn(f) = item {
            match fn_index.get(&f.name) {
                Some(&i) => decls[i as usize] = f,
                None => {
                    fn_index.insert(f.name.clone(), u16x(decls.len())?);
                    decls.push(f);
                }
            }
        }
    }
    let mut fns = Vec::with_capacity(decls.len());
    for f in &decls {
        let mut lw = Lowerer::new(&f.name, f.params.len(), None, &[], &fn_index);
        for p in &f.params {
            let slot = lw.alloc()?;
            lw.define(p, slot);
        }
        lw.block(&f.body)?;
        fns.push(lw.finish());
    }
    let mut program = Program { fns, pes: Vec::new() };
    for pe in script.pes() {
        if program.pe_index(&pe.name).is_none() {
            // Script::pe finds the first declaration.
            program.pes.push(compile_pe(pe, &fn_index)?);
        }
    }
    Ok(program)
}

fn compile_pe(pe: &PeDecl, fn_index: &HashMap<String, u16>) -> Result<PeProgram, ScriptError> {
    // `init` runs with no emit context (the interpreter uses an empty
    // PeCtx there): only `state` is pre-bound.
    let init = match &pe.init {
        Some(block) => {
            let mut lw = Lowerer::new("", 0, None, &[], fn_index);
            let slot = lw.alloc()?;
            lw.define("state", slot);
            lw.block(block)?;
            Some(lw.finish())
        }
        None => None,
    };
    // `process` pre-binds the interpreter's root scope: state, input,
    // input_port, iteration (slots 0-3). The port-named datum alias is a
    // runtime binding (the port is only known per invocation) and resolves
    // through Dynamic instructions.
    let mut lw = Lowerer::new("", 0, pe.default_output().map(str::to_string), &pe.outputs, fn_index);
    for name in ["state", "input", "input_port", "iteration"] {
        let slot = lw.alloc()?;
        lw.define(name, slot);
    }
    lw.block(&pe.process)?;
    // Every later register lies above the fixed slots, so a name that
    // resolved to `INPUT_PORT` was the port label.
    let names_input_port = lw.resolved_input_port.get();
    Ok(PeProgram {
        name: pe.name.clone(),
        init,
        process: lw.finish(),
        default_input: pe.default_input().map(str::to_string),
        names_input_port,
    })
}

struct Scope {
    vars: Vec<(String, u16)>,
    saved_next: u16,
}

struct LoopFrame {
    head: usize,
    breaks: Vec<usize>,
    is_for: bool,
}

struct Lowerer<'a> {
    chunk: Chunk,
    scopes: Vec<Scope>,
    next_reg: u16,
    max_reg: u16,
    fn_index: &'a HashMap<String, u16>,
    loops: Vec<LoopFrame>,
    /// `break`/`continue` outside any loop terminate the chunk (the
    /// interpreter propagates the flow out of the body); patched to End.
    end_jumps: Vec<usize>,
    outputs: &'a [String],
    err: Option<ScriptError>,
    /// Whether a name resolved to slot [`INPUT_PORT`].
    resolved_input_port: Cell<bool>,
}

/// A read path found in the AST, before interning: the root's name and
/// line, and the accessors outermost first, each with its line.
struct PathShape<'e> {
    root: &'e str,
    line: usize,
    steps: Vec<(usize, Step<'e>)>,
}

enum Step<'e> {
    Field(&'e str),
    Index(Arg),
}

/// An [`Operand`] found in the AST, before interning.
enum Arg {
    Const(Value),
    /// A local's slot and line.
    Local(u16, usize),
}

/// The value a literal expression evaluates to.
fn literal(e: &Expr) -> Option<Value> {
    Some(match e {
        Expr::Int(n) => Value::Int(*n),
        Expr::Float(f) => Value::Float(*f),
        Expr::Str(s) => Value::Str(s.clone()),
        Expr::Bool(b) => Value::Bool(*b),
        Expr::Null => Value::Null,
        _ => return None,
    })
}

enum CallKind {
    Print,
    Rand(RandKind),
    User(u16),
    Builtin,
    Host,
    Unknown,
}

impl<'a> Lowerer<'a> {
    fn new(
        name: &str,
        arity: usize,
        default_output: Option<String>,
        outputs: &'a [String],
        fn_index: &'a HashMap<String, u16>,
    ) -> Self {
        Lowerer {
            chunk: Chunk {
                name: name.to_string(),
                arity,
                instrs: Vec::new(),
                consts: Vec::new(),
                names: Vec::new(),
                paths: Vec::new(),
                reads: Vec::new(),
                builtins: Vec::new(),
                gets: Vec::new(),
                errors: Vec::new(),
                n_regs: 0,
                default_output,
            },
            scopes: vec![Scope { vars: Vec::new(), saved_next: 0 }],
            next_reg: 0,
            max_reg: 0,
            fn_index,
            loops: Vec::new(),
            end_jumps: Vec::new(),
            outputs,
            err: None,
            resolved_input_port: Cell::new(false),
        }
    }

    fn finish(mut self) -> Chunk {
        let end = self.chunk.instrs.len();
        self.emit(Instr::End);
        for at in std::mem::take(&mut self.end_jumps) {
            self.patch(at, end);
        }
        self.chunk.n_regs = self.max_reg;
        self.chunk
    }

    // ---- registers and scopes ------------------------------------------

    fn alloc(&mut self) -> Result<u16, ScriptError> {
        if self.next_reg == u16::MAX {
            return Err(too_large());
        }
        let r = self.next_reg;
        self.next_reg += 1;
        self.max_reg = self.max_reg.max(self.next_reg);
        Ok(r)
    }

    fn push_scope(&mut self) {
        self.scopes.push(Scope { vars: Vec::new(), saved_next: self.next_reg });
    }

    fn pop_scope(&mut self) {
        let s = self.scopes.pop().expect("scope underflow");
        self.next_reg = s.saved_next;
    }

    fn define(&mut self, name: &str, slot: u16) {
        self.scopes.last_mut().expect("at least one scope").vars.push((name.to_string(), slot));
    }

    /// Innermost-scope-first, latest-binding-first — mirrors the
    /// interpreter's `Env::lookup` over insert-overwrite maps.
    fn resolve(&self, name: &str) -> Option<u16> {
        let slot = self
            .scopes
            .iter()
            .rev()
            .find_map(|s| s.vars.iter().rev().find(|(n, _)| n == name).map(|(_, slot)| *slot));
        if slot == Some(INPUT_PORT) {
            self.resolved_input_port.set(true);
        }
        slot
    }

    // ---- pools ---------------------------------------------------------

    fn add_const(&mut self, v: Value) -> Result<u16, ScriptError> {
        // Bit-exact float comparison: f64 PartialEq would conflate 0.0 and
        // -0.0 (and never dedup NaN, which is fine either way).
        let eq = |a: &Value, b: &Value| match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
        };
        if let Some(i) = self.chunk.consts.iter().position(|c| eq(c, &v)) {
            return u16x(i);
        }
        let i = u16x(self.chunk.consts.len())?;
        self.chunk.consts.push(v);
        Ok(i)
    }

    fn add_name(&mut self, name: &str) -> Result<u16, ScriptError> {
        if let Some(i) = self.chunk.names.iter().position(|n| n == name) {
            return u16x(i);
        }
        self.add_name_raw(name)
    }

    /// Append without dedup — map-literal key runs must stay contiguous.
    fn add_name_raw(&mut self, name: &str) -> Result<u16, ScriptError> {
        let i = u16x(self.chunk.names.len())?;
        self.chunk.names.push(name.to_string());
        Ok(i)
    }

    fn add_error(&mut self, e: ScriptError) -> Result<u16, ScriptError> {
        let i = u16x(self.chunk.errors.len())?;
        self.chunk.errors.push(e);
        Ok(i)
    }

    // ---- instruction stream --------------------------------------------

    fn emit(&mut self, i: Instr) -> usize {
        self.chunk.instrs.push(i);
        self.chunk.instrs.len() - 1
    }

    fn patch(&mut self, at: usize, to: usize) {
        let Ok(to32) = u32::try_from(to) else {
            self.err.get_or_insert(too_large());
            return;
        };
        match &mut self.chunk.instrs[at] {
            Instr::Jump { to }
            | Instr::JumpIfFalse { to, .. }
            | Instr::JumpIfTrue { to, .. }
            | Instr::ForNext { exit: to, .. } => *to = to32,
            other => unreachable!("patch target is not a jump: {other:?}"),
        }
    }

    fn here(&self) -> usize {
        self.chunk.instrs.len()
    }

    // ---- statements ----------------------------------------------------

    fn block(&mut self, b: &Block) -> Result<(), ScriptError> {
        self.push_scope();
        let r = self.stmts(&b.stmts);
        self.pop_scope();
        r
    }

    fn stmts(&mut self, stmts: &[Stmt]) -> Result<(), ScriptError> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), ScriptError> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        // Statement-entry burn, matching Interp::exec_stmt.
        self.emit(Instr::Fuel { line: 0 });
        let mark = self.next_reg;
        match s {
            Stmt::Let { name, value } => {
                // The slot is allocated before the value is lowered, but the
                // name is defined only after: `let x = x + 1;` still sees
                // the outer (or dynamic) `x`, like the interpreter.
                let slot = self.alloc()?;
                self.expr(value, slot)?;
                self.define(name, slot);
                self.next_reg = slot + 1;
                return Ok(());
            }
            Stmt::Assign { target, value } => {
                let v = self.alloc()?;
                self.expr(value, v)?;
                self.assign(target, v)?;
            }
            Stmt::If { cond, then_block, else_block } => {
                let t = self.alloc()?;
                self.expr(cond, t)?;
                let jf = self.emit(Instr::JumpIfFalse { cond: t, to: u32::MAX });
                self.next_reg = mark;
                self.block(then_block)?;
                match else_block {
                    Some(e) => {
                        let jend = self.emit(Instr::Jump { to: u32::MAX });
                        let here = self.here();
                        self.patch(jf, here);
                        self.block(e)?;
                        let here = self.here();
                        self.patch(jend, here);
                    }
                    None => {
                        let here = self.here();
                        self.patch(jf, here);
                    }
                }
            }
            Stmt::While { cond, body } => {
                // Loop-head burn: the interpreter burns one unit per
                // condition check (`loop { burn; cond; ... }`).
                let head = self.here();
                self.emit(Instr::Fuel { line: 0 });
                let t = self.alloc()?;
                self.expr(cond, t)?;
                let jf = self.emit(Instr::JumpIfFalse { cond: t, to: u32::MAX });
                self.next_reg = mark;
                self.loops.push(LoopFrame { head, breaks: Vec::new(), is_for: false });
                self.block(body)?;
                self.emit(Instr::Jump { to: u32x(head)? });
                let frame = self.loops.pop().expect("loop frame");
                let exit = self.here();
                self.patch(jf, exit);
                for b in frame.breaks {
                    self.patch(b, exit);
                }
            }
            Stmt::For { var, iter, body } => {
                let t = self.alloc()?;
                self.expr(iter, t)?;
                self.emit(Instr::ForPrep { src: t });
                self.next_reg = mark;
                // One scope holds the loop variable and the body's `let`s,
                // mirroring exec_stmt's push/define/exec_stmts shape.
                self.push_scope();
                let slot = self.alloc()?;
                self.define(var, slot);
                let head = self.here();
                let fnext = self.emit(Instr::ForNext { slot, exit: u32::MAX });
                self.loops.push(LoopFrame { head, breaks: Vec::new(), is_for: true });
                self.stmts(&body.stmts)?;
                self.emit(Instr::Jump { to: u32x(head)? });
                let frame = self.loops.pop().expect("loop frame");
                let exit = self.here();
                self.patch(fnext, exit);
                for b in frame.breaks {
                    self.patch(b, exit);
                }
                self.pop_scope();
            }
            Stmt::Return(e) => match e {
                Some(e) => {
                    let t = self.alloc()?;
                    self.expr(e, t)?;
                    self.emit(Instr::Return { src: t });
                }
                None => {
                    self.emit(Instr::ReturnNull);
                }
            },
            Stmt::Break => match self.loops.last() {
                Some(frame) => {
                    if frame.is_for {
                        self.emit(Instr::PopIter);
                    }
                    let j = self.emit(Instr::Jump { to: u32::MAX });
                    self.loops.last_mut().expect("loop frame").breaks.push(j);
                }
                None => {
                    let j = self.emit(Instr::Jump { to: u32::MAX });
                    self.end_jumps.push(j);
                }
            },
            Stmt::Continue => match self.loops.last() {
                Some(frame) => {
                    let head = frame.head;
                    self.emit(Instr::Jump { to: u32x(head)? });
                }
                None => {
                    let j = self.emit(Instr::Jump { to: u32::MAX });
                    self.end_jumps.push(j);
                }
            },
            Stmt::Emit(e) => {
                let t = self.alloc()?;
                self.expr(e, t)?;
                match self.chunk.default_output.is_some() {
                    true => {
                        self.emit(Instr::EmitDefault { src: t });
                    }
                    false => {
                        // Evaluated, then rejected — interpreter order.
                        let idx = self.add_error(ScriptError::new(
                            ErrorKind::ContextError,
                            "emit() used in a PE without output ports",
                        ))?;
                        self.emit(Instr::Raise { idx });
                    }
                }
            }
            Stmt::EmitTo { port, value } => {
                if self.outputs.iter().any(|p| p == port) {
                    let t = self.alloc()?;
                    self.expr(value, t)?;
                    let name = self.add_name(port)?;
                    self.emit(Instr::EmitPort { name, src: t });
                } else {
                    // Rejected before evaluation — interpreter order.
                    let idx = self.add_error(ScriptError::new(
                        ErrorKind::ContextError,
                        format!("emit to undeclared output port '{port}'"),
                    ))?;
                    self.emit(Instr::Raise { idx });
                }
            }
            Stmt::ExprStmt(e) => {
                let t = self.alloc()?;
                self.expr(e, t)?;
            }
        }
        self.next_reg = mark;
        Ok(())
    }

    /// Lower `target = regs[v]`. The value is already evaluated; accessor
    /// index expressions evaluate here, outermost-first, exactly like
    /// `Interp::assign`'s walk. An index that is a local other than the
    /// root is read in place by the store ([`PathAcc::Local`]): its unit
    /// burns here, where its copy's `Local` burned, and no expression
    /// between here and the store can assign it.
    fn assign(&mut self, target: &Expr, v: u16) -> Result<(), ScriptError> {
        let mut cur = target;
        let root_slot = loop {
            match cur {
                Expr::Var { name, .. } => break self.resolve(name),
                Expr::Index { base, .. } | Expr::Field { base, .. } => cur = base,
                _ => break None,
            }
        };
        let mut accs = Vec::new();
        let mut cur = target;
        let root = loop {
            match cur {
                Expr::Var { name, .. } => break name,
                Expr::Index { base, index, .. } => {
                    let in_place = match &**index {
                        Expr::Var { name, line } => {
                            self.resolve(name).filter(|s| Some(*s) != root_slot).map(|s| (s, *line))
                        }
                        _ => None,
                    };
                    match in_place {
                        Some((slot, line)) => {
                            self.emit(Instr::Fuel { line: u32x(line)? });
                            accs.push(PathAcc::Local(slot));
                        }
                        None => {
                            let r = self.alloc()?;
                            self.expr(index, r)?;
                            accs.push(PathAcc::Index(r));
                        }
                    }
                    cur = base;
                }
                Expr::Field { base, field, .. } => {
                    accs.push(PathAcc::Field(self.add_name(field)?));
                    cur = base;
                }
                _ => {
                    // The parser never produces this; kept for parity with
                    // the interpreter's defensive arm.
                    let idx =
                        self.add_error(ScriptError::new(ErrorKind::TypeError, "invalid assignment target"))?;
                    self.emit(Instr::Raise { idx });
                    return Ok(());
                }
            }
        };
        accs.reverse(); // walk order → application order
        if accs.is_empty() {
            match root_slot {
                Some(slot) => {
                    self.emit(Instr::StoreLocal { slot, src: v });
                }
                None => {
                    let name = self.add_name(root)?;
                    self.emit(Instr::StoreDynamic { name, src: v });
                }
            }
            return Ok(());
        }
        let path_start = u16x(self.chunk.paths.len())?;
        let path_len = u16x(accs.len())?;
        self.chunk.paths.extend(accs);
        let (root_local, root) = match root_slot {
            Some(slot) => (true, slot),
            None => (false, self.add_name(root)?),
        };
        self.emit(Instr::StorePath { root_local, root, path_start, path_len, src: v });
        Ok(())
    }

    // ---- expressions ---------------------------------------------------

    /// Lower `e`, leaving its value in `dst`. Temporaries are allocated
    /// above the current high-mark and released before returning.
    fn expr(&mut self, e: &Expr, dst: u16) -> Result<(), ScriptError> {
        let mark = self.next_reg;
        match e {
            Expr::Int(_) | Expr::Float(_) | Expr::Str(_) | Expr::Bool(_) | Expr::Null => {
                let idx = self.add_const(literal(e).expect("a literal"))?;
                self.emit(Instr::Const { dst, idx });
            }
            Expr::Var { name, line } => {
                let line = u32x(*line)?;
                match self.resolve(name) {
                    Some(slot) => {
                        self.emit(Instr::Local { dst, slot, line });
                    }
                    None => {
                        let name = self.add_name(name)?;
                        self.emit(Instr::Dynamic { dst, name, line });
                    }
                }
            }
            Expr::List(items) => {
                self.emit(Instr::Fuel { line: 0 });
                let start = self.next_reg;
                for item in items {
                    let r = self.alloc()?;
                    self.expr(item, r)?;
                }
                self.emit(Instr::MakeList { dst, start, n: u16x(items.len())? });
            }
            Expr::MapLit(pairs) => {
                self.emit(Instr::Fuel { line: 0 });
                // Keys must be a contiguous run, so bypass name dedup.
                let keys_start = u16x(self.chunk.names.len())?;
                let start = self.next_reg;
                for (k, _) in pairs {
                    self.add_name_raw(k)?;
                }
                for (_, e) in pairs {
                    let r = self.alloc()?;
                    self.expr(e, r)?;
                }
                self.emit(Instr::MakeMap { dst, keys_start, start, n: u16x(pairs.len())? });
            }
            Expr::Unary { op, operand, line } => {
                self.emit(Instr::Fuel { line: u32x(*line)? });
                self.expr(operand, dst)?;
                match op {
                    UnOp::Neg => self.emit(Instr::Neg { dst }),
                    UnOp::Not => self.emit(Instr::Not { dst }),
                };
            }
            Expr::Binary { op: op @ (BinOp::And | BinOp::Or), lhs, rhs, line } => {
                self.emit(Instr::Fuel { line: u32x(*line)? });
                self.expr(lhs, dst)?;
                self.emit(Instr::Truthy { dst });
                let j = match op {
                    BinOp::And => self.emit(Instr::JumpIfFalse { cond: dst, to: u32::MAX }),
                    _ => self.emit(Instr::JumpIfTrue { cond: dst, to: u32::MAX }),
                };
                self.expr(rhs, dst)?;
                self.emit(Instr::Truthy { dst });
                let here = self.here();
                self.patch(j, here);
            }
            Expr::Binary { op, lhs, rhs, line } => {
                self.emit(Instr::Fuel { line: u32x(*line)? });
                let a = self.alloc()?;
                self.expr(lhs, a)?;
                let b = self.alloc()?;
                self.expr(rhs, b)?;
                self.emit(Instr::Bin { op: *op, dst, a, b, line: u32x(*line)? });
            }
            Expr::Index { base, index, line } => match self.path_shape(e) {
                Some(shape) => {
                    let path = self.lower_path(shape)?;
                    self.emit(Instr::LoadPath { dst, path });
                }
                None => {
                    self.emit(Instr::Fuel { line: u32x(*line)? });
                    let obj = self.alloc()?;
                    self.expr(base, obj)?;
                    let idx = self.alloc()?;
                    self.expr(index, idx)?;
                    self.emit(Instr::IndexGet { dst, obj, idx });
                }
            },
            Expr::Field { base, field, line } => match self.path_shape(e) {
                Some(shape) => {
                    let path = self.lower_path(shape)?;
                    self.emit(Instr::LoadPath { dst, path });
                }
                None => {
                    self.emit(Instr::Fuel { line: u32x(*line)? });
                    let obj = self.alloc()?;
                    self.expr(base, obj)?;
                    let name = self.add_name(field)?;
                    self.emit(Instr::FieldGet { dst, obj, name, line: u32x(*line)? });
                }
            },
            Expr::Call { module, name, args, line } => {
                self.emit(Instr::Fuel { line: u32x(*line)? });
                let kind = self.classify(module.as_deref(), name);
                if matches!(kind, CallKind::Builtin) && module.is_none() && name == "get" {
                    if let Some(call) = self.lower_get(args, *line)? {
                        // No register was allocated.
                        self.emit(Instr::Get { dst, call });
                        return Ok(());
                    }
                }
                // A builtin borrows its first path argument instead of a
                // copy: the walk's burns and errors keep their turn in the
                // argument order, the leaf is lent at the call.
                let mut lent = match kind {
                    CallKind::Builtin => {
                        args.iter().enumerate().find_map(|(i, a)| self.path_shape(a).map(|s| (i, s)))
                    }
                    _ => None,
                };
                let mut lend = None;
                let start = self.next_reg;
                for (i, a) in args.iter().enumerate() {
                    let r = self.alloc()?;
                    match lent.take_if(|(at, _)| *at == i) {
                        Some((_, shape)) => {
                            let path = self.lower_path(shape)?;
                            self.emit(Instr::CheckPath { dst: r, path });
                            lend = Some((u16x(i)?, path));
                        }
                        None => self.expr(a, r)?,
                    }
                }
                let argc = u16x(args.len())?;
                let line32 = u32x(*line)?;
                match kind {
                    CallKind::Print => {
                        self.emit(Instr::Print { dst, start, argc });
                    }
                    CallKind::Rand(kind) => {
                        self.emit(Instr::Rand { dst, kind, start, argc });
                    }
                    CallKind::User(fidx) => {
                        self.emit(Instr::CallFn { dst, fidx, start, argc, line: line32 });
                    }
                    CallKind::Builtin => {
                        let module = module.as_deref().map(|m| self.add_name(m)).transpose()?;
                        let name = self.add_name(name)?;
                        let call = u16x(self.chunk.builtins.len())?;
                        self.chunk.builtins.push(BuiltinCall { module, name, lend });
                        self.emit(Instr::CallBuiltin { dst, call, start, argc, line: line32 });
                    }
                    CallKind::Host => {
                        let m = self.add_name(module.as_deref().expect("host call has module"))?;
                        let n = self.add_name(name)?;
                        self.emit(Instr::CallHost { dst, module: m, name: n, start, argc });
                    }
                    CallKind::Unknown => {
                        // Arguments evaluate first, then the lookup fails —
                        // interpreter order.
                        let idx = self.add_error(ScriptError::at(
                            ErrorKind::NameError,
                            format!("unknown function '{name}'"),
                            *line,
                            0,
                        ))?;
                        self.emit(Instr::Raise { idx });
                    }
                }
            }
        }
        self.next_reg = mark;
        Ok(())
    }

    /// The read path `e` spells, if any (see [`ReadPath`]).
    fn path_shape<'e>(&self, e: &'e Expr) -> Option<PathShape<'e>> {
        let mut steps = Vec::new();
        let mut cur = e;
        let (root, line) = loop {
            match cur {
                Expr::Var { name, line } => break (name.as_str(), *line),
                Expr::Field { base, field, line } => {
                    steps.push((*line, Step::Field(field)));
                    cur = base;
                }
                Expr::Index { base, index, line } => {
                    steps.push((*line, Step::Index(self.arg(index)?)));
                    cur = base;
                }
                _ => return None,
            }
        };
        // The lend walks its root mutably while it reads the operands. An
        // unresolved root is the datum's alias, which may read the `input`
        // slot.
        let root_slot = self.resolve(root).unwrap_or(INPUT);
        if steps.iter().any(|(_, s)| matches!(s, Step::Index(Arg::Local(slot, _)) if *slot == root_slot)) {
            return None;
        }
        Some(PathShape { root, line, steps })
    }

    /// The in-place operand `e` spells, if any: a literal or a local.
    fn arg(&self, e: &Expr) -> Option<Arg> {
        match e {
            Expr::Var { name, line } => Some(Arg::Local(self.resolve(name)?, *line)),
            other => literal(other).map(Arg::Const),
        }
    }

    fn lower_arg(&mut self, arg: Arg) -> Result<Operand, ScriptError> {
        Ok(match arg {
            Arg::Const(v) => Operand::Const(self.add_const(v)?),
            Arg::Local(slot, line) => Operand::Local { slot, line: u32x(line)? },
        })
    }

    /// Lower a read path: its accessors' entry burns, outermost first as
    /// the nested lowering emits them, then its walk into
    /// [`Chunk::reads`]. Returns the walk's index.
    fn lower_path(&mut self, shape: PathShape<'_>) -> Result<u16, ScriptError> {
        let mut accs = Vec::with_capacity(shape.steps.len());
        for (line, step) in shape.steps {
            let line = u32x(line)?;
            self.emit(Instr::Fuel { line });
            accs.push(match step {
                Step::Field(f) => ReadAcc::Field { name: self.add_name(f)?, line },
                Step::Index(arg) => ReadAcc::Index(self.lower_arg(arg)?),
            });
        }
        accs.reverse(); // walk order → application order
        let root = match self.resolve(shape.root) {
            Some(slot) => PathRoot::Local(slot),
            None => PathRoot::Dynamic(self.add_name(shape.root)?),
        };
        let i = u16x(self.chunk.reads.len())?;
        self.chunk.reads.push(ReadPath { root, line: u32x(shape.line)?, accs });
        Ok(i)
    }

    /// `get(path, key, default?)` whose key and default are literals or
    /// locals: the path's entry burns, then the side data of one
    /// [`Instr::Get`]. `None`, with nothing emitted, for any other shape.
    fn lower_get(&mut self, args: &[Expr], line: usize) -> Result<Option<u16>, ScriptError> {
        let (path, key, default) = match args {
            [p, k] => (p, k, None),
            [p, k, d] => (p, k, Some(d)),
            _ => return Ok(None),
        };
        let (Some(shape), Some(key)) = (self.path_shape(path), self.arg(key)) else { return Ok(None) };
        let default = match default.map(|d| self.arg(d)) {
            Some(None) => return Ok(None),
            d => d.flatten(),
        };
        let path = self.lower_path(shape)?;
        let key = self.lower_arg(key)?;
        let default = default.map(|d| self.lower_arg(d)).transpose()?;
        let call = u16x(self.chunk.gets.len())?;
        self.chunk.gets.push(GetCall { path, key, default, line: u32x(line)? });
        Ok(Some(call))
    }

    /// Compile-time call classification, in `Interp::call`'s dispatch
    /// order. The function table and builtin set are fixed for a program,
    /// so this is exactly the decision the interpreter would make per
    /// invocation.
    fn classify(&self, module: Option<&str>, name: &str) -> CallKind {
        if module.is_none() && name == "print" {
            return CallKind::Print;
        }
        if module.is_none() || module == Some("random") {
            match name {
                "randint" => return CallKind::Rand(RandKind::Randint),
                "random" => return CallKind::Rand(RandKind::Random),
                "shuffle" => return CallKind::Rand(RandKind::Shuffle),
                _ => {}
            }
        }
        if module.is_none() {
            if let Some(&i) = self.fn_index.get(name) {
                return CallKind::User(i);
            }
        }
        // Probe the builtin table with no arguments: every arm matches the
        // name first, so presence is argument-independent.
        if crate::builtins::call(module, name, &[]).is_some() {
            return CallKind::Builtin;
        }
        if module.is_some() {
            return CallKind::Host;
        }
        CallKind::Unknown
    }
}

/// `(0, prepares)`: the compile cache is gone; the frozen benchmark still
/// calls this name. Use [`crate::prepare_count`].
#[doc(hidden)]
pub fn cache_stats() -> (u64, u64) {
    (0, crate::prepare_count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_script;

    fn pe<'p>(program: &'p Program, name: &str) -> &'p PeProgram {
        &program.pes[program.pe_index(name).expect("PE compiled")]
    }

    #[test]
    fn compiles_representative_pe() {
        let src = r#"
            fn fact(n) { if n <= 1 { return 1; } return n * fact(n - 1); }
            pe P : iterative {
                input num;
                output output;
                init { state.count = 0; }
                process {
                    let x = num;
                    while x > 0 { x = x - 1; }
                    for c in [1, 2, 3] { state.count = state.count + c; }
                    emit(fact(num));
                }
            }
        "#;
        let script = parse_script(src).unwrap();
        let program = compile_script(&script).unwrap();
        assert_eq!(program.fns.len(), 1);
        assert_eq!(program.fns[0].name, "fact");
        assert_eq!(program.fns[0].arity, 1);
        let pe = pe(&program, "P");
        assert!(pe.init.is_some());
        assert!(pe.process.n_regs >= 4);
        assert_eq!(pe.process.default_output.as_deref(), Some("output"));
        assert_eq!(pe.default_input.as_deref(), Some("num"));
    }

    #[test]
    fn path_side_data_keeps_instructions_sixteen_bytes() {
        assert!(std::mem::size_of::<Instr>() <= 16, "{} bytes", std::mem::size_of::<Instr>());
    }

    #[test]
    fn reads_through_paths_walk_in_place_and_builtins_borrow_the_first() {
        let src = r#"
            pe W : generic {
                input reading;
                output output;
                process {
                    let id = reading[0];
                    state.n[id] = get(state.n, id, 0) + 1;
                    emit([state.n[id], f(reading)[0], state.c[reading[0]], get(state.n, state.n)]);
                }
            }
            fn f(v) { return v; }
        "#;
        let program = compile_script(&parse_script(src).unwrap()).unwrap();
        let chunk = &pe(&program, "W").process;
        let count = |f: fn(&Instr) -> bool| chunk.instrs.iter().filter(|i| f(i)).count();
        let loads = count(|i| matches!(i, Instr::LoadPath { .. }));
        let checks = count(|i| matches!(i, Instr::CheckPath { .. }));
        // get(state.n, id, 0) is one Get; get(state.n, state.n) has a path
        // for a key, so it lends its first state.n. f(reading)[0] has a
        // call for a base and state.c[reading[0]] a non-local operand, so
        // both index a copy. Loaded in place: reading[0] twice (once as
        // that operand), state.c, state.n[id] and get's second state.n.
        assert_eq!((loads, checks, count(|i| matches!(i, Instr::Get { .. }))), (5, 1, 1));
        assert_eq!(count(|i| matches!(i, Instr::IndexGet { .. })), 2);
        let lent: Vec<_> = chunk.builtins.iter().map(|b| b.lend.map(|(arg, _)| arg)).collect();
        assert_eq!(lent, [Some(0)]);
        let dynamic_root = chunk.reads.iter().filter(|r| matches!(r.root, PathRoot::Dynamic(_))).count();
        assert_eq!(dynamic_root, 2, "reading[0] reads the port binding");
        // state.n[id] = … reads id in place, and no Local copies it.
        assert!(matches!(chunk.paths[..], [PathAcc::Field(_), PathAcc::Local(_)]));
        assert_eq!(count(|i| matches!(i, Instr::Local { .. })), 0);
        // Nothing names input_port, so no run builds it.
        assert!(!pe(&program, "W").names_input_port);
    }

    #[test]
    fn a_path_indexed_by_its_own_root_is_copied() {
        let src = "pe P : generic { input i; output o; process { let x = [1]; emit(x[x]); x[x] = 2; } }";
        let program = compile_script(&parse_script(src).unwrap()).unwrap();
        let chunk = &pe(&program, "P").process;
        assert!(chunk.reads.is_empty());
        assert!(chunk.instrs.iter().any(|i| matches!(i, Instr::IndexGet { .. })));
        assert!(matches!(chunk.paths[..], [PathAcc::Index(_)]));
    }

    #[test]
    fn a_chunk_that_names_input_port_builds_it() {
        let src = "pe P : generic { input i; output o; process { emit(input_port); } }";
        let program = compile_script(&parse_script(src).unwrap()).unwrap();
        assert!(pe(&program, "P").names_input_port);
    }

    #[test]
    fn oversized_program_fails_with_parse_error() {
        // 70k `let`s overflow the u16 register file (the constant dedups).
        let mut body = String::from("pe Big : iterative { input x; output o; process {");
        for i in 0..70_000 {
            body.push_str(&format!("let v{i} = 0;"));
        }
        body.push_str("} }");
        let script = parse_script(&body).unwrap();
        let err = compile_script(&script).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Parse);
    }
}
