//! Register-machine executor for compiled LamScript ([`crate::compile`]).
//!
//! `Vm` is the one backend that runs scripts. Its reference is the
//! tree-walking interpreter in the dev-only `laminar-oracle` crate: same
//! constructor shape, same `run_init`/`run_process` contract, same fuel
//! budget, call depth, RNG stream, emission order, and error
//! kinds/messages. The differential suites (`tests/proptest_vm.rs`,
//! `tests/proptest_paths.rs`, `tests/vm_parity.rs`) hold the two executors
//! to byte-identical observable behavior.
//!
//! Execution model: one flat `Vec<Value>` register stack, frames addressed
//! by a base offset. User-function calls place the callee frame directly
//! above the caller's registers; `for` loops keep their materialized
//! iterators on a side stack so `break`/`return` can unwind them exactly
//! like the interpreter dropping its eager item vector. A read through a
//! path borrows its root (`walk`) and clones only the leaf; a builtin's
//! lent argument is moved into its register for the call and back after
//! (`lend_leaf`); a fused `get` reads its container, key and default in
//! place. An invocation copies only what it writes: the datum's port-named
//! alias reads the `input` slot until either name is assigned.

use crate::builtins;
use crate::compile::{
    Chunk, Instr, Operand, PathAcc, PathRoot, Program, RandKind, ReadAcc, ReadPath, INPUT, INPUT_PORT,
    ITERATION, STATE,
};
use crate::error::{ErrorKind, ScriptError};
use crate::runtime::{
    binary_op, index_value, position, truthy, Host, Sink, DEFAULT_FUEL, DEFAULT_SEED, MAX_CALL_DEPTH,
};
use laminar_json::{Map, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt::Write;
use std::sync::Arc;

/// The datum's binding under its input-port name (`input words;` makes
/// the datum visible as `words`). The port is only known at runtime, so
/// the compiler routes unresolved names here. The alias reads the `input`
/// slot until the script assigns to either name; that first write gives
/// it its own value (`own`).
struct Alias<'p> {
    name: &'p str,
    own: Option<Value>,
}

/// The root frame's alias; `None` in `init` and in user functions.
type Dynamic<'p> = Option<Alias<'p>>;

/// The alias when it is bound under `name`.
fn named<'d, 'p>(dynamic: &'d mut Dynamic<'p>, name: &str) -> Option<&'d mut Alias<'p>> {
    dynamic.as_mut().filter(|a| a.name == name)
}

/// The alias's value when it is bound under `name`. `frame` is the root
/// frame, whose `input` slot a sharing alias reads.
fn bound<'d>(dynamic: &'d Dynamic<'_>, frame: &'d [Value], name: &str) -> Option<&'d Value> {
    match dynamic {
        Some(a) if a.name == name => Some(a.own.as_ref().unwrap_or(&frame[INPUT as usize])),
        _ => None,
    }
}

/// Before the `input` slot is written: a sharing alias keeps the datum,
/// moved out of the slot when the write replaces it whole (`take`), else
/// copied.
fn unshare(dynamic: &mut Dynamic<'_>, input: &mut Value, take: bool) {
    if let Some(a @ Alias { own: None, .. }) = dynamic {
        a.own = Some(if take { std::mem::take(input) } else { input.clone() });
    }
}

/// An invocation's fuel budget: one unit per statement, expression and
/// loop step, in the interpreter's order.
struct Fuel {
    left: u64,
    limit: u64,
}

impl Fuel {
    fn burn(&mut self, line: usize) -> Result<(), ScriptError> {
        if self.left == 0 {
            return Err(ScriptError::at(
                ErrorKind::FuelExhausted,
                format!("fuel budget of {} exhausted", self.limit),
                line,
                0,
            ));
        }
        self.left -= 1;
        Ok(())
    }
}

/// A bytecode executor bound to a compiled program.
///
/// Fully owned (`'static` + `Send`): PE instances hold one across process
/// calls so RNG state and fuel accounting persist per instance, and the
/// register stack is reused between invocations.
pub struct Vm {
    program: Arc<Program>,
    /// The PE the last run resolved: its position in `program.pes`. A PE
    /// instance's VM runs one PE, so its name is looked up once.
    pe: Option<usize>,
    m: Machine,
}

/// The VM's mutable half, borrowed beside its program.
struct Machine {
    host: Arc<dyn Host + Send + Sync>,
    fuel: Fuel,
    rng: StdRng,
    stack: Vec<Value>,
    iters: Vec<std::vec::IntoIter<Value>>,
}

impl Vm {
    /// Build a VM for `program` with the given host.
    pub fn new(program: Arc<Program>, host: Arc<dyn Host + Send + Sync>) -> Self {
        Vm {
            program,
            pe: None,
            m: Machine {
                host,
                fuel: Fuel { left: DEFAULT_FUEL, limit: DEFAULT_FUEL },
                rng: StdRng::seed_from_u64(DEFAULT_SEED),
                stack: Vec::new(),
                iters: Vec::new(),
            },
        }
    }

    /// Override the per-invocation fuel budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.m.fuel = Fuel { left: fuel, limit: fuel };
        self
    }

    /// Seed the RNG (tests and reproducible benchmarks).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.m.rng = StdRng::seed_from_u64(seed);
        self
    }

    /// Fuel left after the last invocation (differential testing).
    pub fn fuel_remaining(&self) -> u64 {
        self.m.fuel.left
    }

    /// Current RNG state, for checkpointing. The state word plus the
    /// PE's `state.*` value is the VM's entire cross-invocation
    /// footprint (fuel resets per invocation; stack/iters are scratch).
    pub fn rng_state(&self) -> u64 {
        self.m.rng.state()
    }

    /// Restore an RNG state captured by [`Vm::rng_state`].
    pub fn set_rng_state(&mut self, state: u64) {
        self.m.rng.set_state(state);
    }

    /// The position of the compiled PE named `pe`, looked up only when it
    /// is not the one the last run resolved.
    fn bind(&mut self, pe: &str) -> Result<usize, ScriptError> {
        match self.pe {
            Some(i) if self.program.pes[i].name == pe => Ok(i),
            _ => {
                let i = self
                    .program
                    .pe_index(pe)
                    .ok_or_else(|| ScriptError::new(ErrorKind::NameError, format!("unknown PE '{pe}'")))?;
                Ok(*self.pe.insert(i))
            }
        }
    }

    /// Run a PE's `init` block against `state`. Mirrors
    /// `Interp::run_init`, including the error path leaving `state` null.
    pub fn run_init(&mut self, pe: &str, state: &mut Value, sink: &mut dyn Sink) -> Result<(), ScriptError> {
        if state.is_null() {
            *state = Value::Object(Map::new());
        }
        let at = self.bind(pe)?;
        let (program, m) = (&*self.program, &mut self.m);
        let Some(init) = &program.pes[at].init else { return Ok(()) };
        m.fuel.left = m.fuel.limit;
        m.stack.clear();
        m.stack.resize_with(init.n_regs as usize, || Value::Null);
        m.iters.clear();
        m.stack[STATE as usize] = std::mem::take(state);
        m.exec(program, init, 0, 0, sink, &mut None)?;
        *state = std::mem::take(&mut m.stack[STATE as usize]);
        Ok(())
    }

    /// Run one `process` invocation — the same contract as
    /// `Interp::run_process`.
    pub fn run_process(
        &mut self,
        pe: &str,
        input: Option<Value>,
        input_port: Option<&str>,
        iteration: i64,
        state: &mut Value,
        sink: &mut dyn Sink,
    ) -> Result<Option<Value>, ScriptError> {
        self.m.fuel.left = self.m.fuel.limit;
        if state.is_null() {
            *state = Value::Object(Map::new());
        }
        let at = self.bind(pe)?;
        let (program, m) = (&*self.program, &mut self.m);
        let pp = &program.pes[at];
        let chunk = &pp.process;
        m.stack.clear();
        m.stack.resize_with(chunk.n_regs as usize, || Value::Null);
        m.iters.clear();
        // Root frame mirrors the interpreter's root scope definitions, in
        // order: state, port-named datum alias, input, input_port,
        // iteration. The alias either collides with a fixed slot (where a
        // later define overwrites or is overwritten) or becomes the
        // dynamic binding, which reads the `input` slot.
        m.stack[STATE as usize] = std::mem::take(state);
        let datum = input.unwrap_or(Value::Null);
        let mut dynamic: Dynamic = None;
        match input_port.or(pp.default_input.as_deref()) {
            // `input` is skipped outright; `input_port` and `iteration`
            // are defined after the alias in the interpreter and thus
            // shadow it.
            None | Some("input" | "input_port" | "iteration") => {}
            Some("state") => m.stack[STATE as usize] = datum.clone(),
            Some(port) => dynamic = Some(Alias { name: port, own: None }),
        }
        m.stack[INPUT as usize] = datum;
        if pp.names_input_port {
            m.stack[INPUT_PORT as usize] = input_port.map(Value::from).unwrap_or(Value::Null);
        }
        m.stack[ITERATION as usize] = Value::Int(iteration);
        let v = m.exec(program, chunk, 0, 0, sink, &mut dynamic)?;
        *state = std::mem::take(&mut m.stack[STATE as usize]);
        Ok(if v.is_null() { None } else { Some(v) })
    }
}

impl Machine {
    /// Execute one chunk frame; unwinds this frame's `for` iterators on
    /// both exits.
    fn exec(
        &mut self,
        program: &Program,
        chunk: &Chunk,
        base: usize,
        depth: usize,
        sink: &mut dyn Sink,
        dynamic: &mut Dynamic<'_>,
    ) -> Result<Value, ScriptError> {
        let iter_base = self.iters.len();
        let r = self.exec_inner(program, chunk, base, depth, sink, dynamic);
        self.iters.truncate(iter_base);
        r
    }

    fn exec_inner(
        &mut self,
        program: &Program,
        chunk: &Chunk,
        base: usize,
        depth: usize,
        sink: &mut dyn Sink,
        dynamic: &mut Dynamic<'_>,
    ) -> Result<Value, ScriptError> {
        if self.stack.len() < base + chunk.n_regs as usize {
            self.stack.resize_with(base + chunk.n_regs as usize, || Value::Null);
        }
        let mut pc = 0usize;
        while pc < chunk.instrs.len() {
            let instr = chunk.instrs[pc];
            pc += 1;
            match instr {
                Instr::Fuel { line } => self.fuel.burn(line as usize)?,
                Instr::Const { dst, idx } => {
                    self.fuel.burn(0)?;
                    self.stack[base + dst as usize] = chunk.consts[idx as usize].clone();
                }
                Instr::Local { dst, slot, line } => {
                    self.fuel.burn(line as usize)?;
                    let v = self.stack[base + slot as usize].clone();
                    self.stack[base + dst as usize] = v;
                }
                Instr::Dynamic { dst, name, line } => {
                    self.fuel.burn(line as usize)?;
                    let wanted = &chunk.names[name as usize];
                    let v = bound(dynamic, &self.stack[base..], wanted)
                        .ok_or_else(|| undefined(wanted, line))?
                        .clone();
                    self.stack[base + dst as usize] = v;
                }
                Instr::StoreLocal { slot, src } => {
                    if slot == INPUT {
                        unshare(dynamic, &mut self.stack[base + INPUT as usize], true);
                    }
                    let v = std::mem::take(&mut self.stack[base + src as usize]);
                    self.stack[base + slot as usize] = v;
                }
                Instr::StoreDynamic { name, src } => {
                    let wanted = &chunk.names[name as usize];
                    let alias = named(dynamic, wanted).ok_or_else(|| unassignable(wanted))?;
                    alias.own = Some(std::mem::take(&mut self.stack[base + src as usize]));
                }
                Instr::StorePath { root_local, root, path_start, path_len, src } => {
                    self.store_path(chunk, base, root_local, root, path_start, path_len, src, dynamic)?;
                }
                Instr::LoadPath { dst, path } => {
                    let path = &chunk.reads[path as usize];
                    let v = match walk(path, chunk, &self.stack[base..], dynamic, &mut self.fuel)? {
                        Leaf::Borrowed(v) => v.clone(),
                        Leaf::Fresh(v) => v,
                    };
                    self.stack[base + dst as usize] = v;
                }
                Instr::CheckPath { dst, path } => {
                    let path = &chunk.reads[path as usize];
                    if let Leaf::Fresh(v) = walk(path, chunk, &self.stack[base..], dynamic, &mut self.fuel)? {
                        self.stack[base + dst as usize] = v;
                    }
                }
                Instr::MakeList { dst, start, n } => {
                    let mut out = Vec::with_capacity(n as usize);
                    for i in 0..n as usize {
                        out.push(std::mem::take(&mut self.stack[base + start as usize + i]));
                    }
                    self.stack[base + dst as usize] = Value::Array(out);
                }
                Instr::MakeMap { dst, keys_start, start, n } => {
                    let mut m = Map::new();
                    for i in 0..n as usize {
                        m.insert(
                            chunk.names[keys_start as usize + i].clone(),
                            std::mem::take(&mut self.stack[base + start as usize + i]),
                        );
                    }
                    self.stack[base + dst as usize] = Value::Object(m);
                }
                Instr::Bin { op, dst, a, b, line } => {
                    let v = binary_op(
                        op,
                        &self.stack[base + a as usize],
                        &self.stack[base + b as usize],
                        line as usize,
                    )?;
                    self.stack[base + dst as usize] = v;
                }
                Instr::Neg { dst } => {
                    let v = std::mem::take(&mut self.stack[base + dst as usize]);
                    self.stack[base + dst as usize] = match v {
                        Value::Int(i) => Value::Int(i.wrapping_neg()),
                        Value::Float(f) => Value::Float(-f),
                        other => {
                            return Err(ScriptError::new(
                                ErrorKind::TypeError,
                                format!("cannot negate {}", other.type_name()),
                            ))
                        }
                    };
                }
                Instr::Not { dst } => {
                    let b = !truthy(&self.stack[base + dst as usize]);
                    self.stack[base + dst as usize] = Value::Bool(b);
                }
                Instr::Truthy { dst } => {
                    let b = truthy(&self.stack[base + dst as usize]);
                    self.stack[base + dst as usize] = Value::Bool(b);
                }
                Instr::Jump { to } => pc = to as usize,
                Instr::JumpIfFalse { cond, to } => {
                    if !truthy(&self.stack[base + cond as usize]) {
                        pc = to as usize;
                    }
                }
                Instr::JumpIfTrue { cond, to } => {
                    if truthy(&self.stack[base + cond as usize]) {
                        pc = to as usize;
                    }
                }
                Instr::IndexGet { dst, obj, idx } => {
                    let b = std::mem::take(&mut self.stack[base + obj as usize]);
                    let i = std::mem::take(&mut self.stack[base + idx as usize]);
                    self.stack[base + dst as usize] = index_owned(b, &i)?;
                }
                Instr::FieldGet { dst, obj, name, line } => {
                    let b = std::mem::take(&mut self.stack[base + obj as usize]);
                    let field = &chunk.names[name as usize];
                    self.stack[base + dst as usize] = match b {
                        Value::Object(mut m) => m.remove(field.as_str()).unwrap_or(Value::Null),
                        other => return Err(field_error(field, &other, line)),
                    };
                }
                Instr::CallFn { dst, fidx, start, argc, line } => {
                    let callee = &program.fns[fidx as usize];
                    if depth + 1 > MAX_CALL_DEPTH {
                        return Err(ScriptError::at(
                            ErrorKind::StackOverflow,
                            "call depth exceeded",
                            line as usize,
                            0,
                        ));
                    }
                    if callee.arity != argc as usize {
                        return Err(ScriptError::at(
                            ErrorKind::ArgumentError,
                            format!("{}() expects {} arguments, got {}", callee.name, callee.arity, argc),
                            line as usize,
                            0,
                        ));
                    }
                    let callee_base = base + chunk.n_regs as usize;
                    let need = callee_base + callee.n_regs as usize;
                    if self.stack.len() < need {
                        self.stack.resize_with(need, || Value::Null);
                    }
                    for i in 0..argc as usize {
                        self.stack[callee_base + i] =
                            std::mem::take(&mut self.stack[base + start as usize + i]);
                    }
                    // User functions see a fresh environment: no datum
                    // alias.
                    let mut none: Dynamic = None;
                    let v = self.exec(program, callee, callee_base, depth + 1, sink, &mut none)?;
                    self.stack[base + dst as usize] = v;
                }
                Instr::CallBuiltin { dst, call, start, argc, line } => {
                    let call = &chunk.builtins[call as usize];
                    let module_s = call.module.map(|m| chunk.names[m as usize].as_str());
                    let name_s = &chunk.names[call.name as usize];
                    // Every local sits below the arguments, so the frame
                    // below them holds the lent leaf's root and operands.
                    let (below, above) = self.stack.split_at_mut(base + start as usize);
                    let args = &mut above[..argc as usize];
                    let mut lent = None;
                    if let Some((arg, path)) = call.lend {
                        let path = &chunk.reads[path as usize];
                        if let Some(leaf) = lend_leaf(path, chunk, &mut below[base..], dynamic) {
                            args[arg as usize] = std::mem::take(leaf);
                            lent = Some((leaf, arg as usize));
                        }
                    }
                    let r = builtins::call(module_s, name_s, args);
                    if let Some((leaf, arg)) = lent {
                        *leaf = std::mem::take(&mut args[arg]);
                    }
                    match r {
                        Some(r) => self.stack[base + dst as usize] = r.map_err(|e| at_call(e, line))?,
                        // Unreachable: classification probed the same table
                        // at compile time.
                        None => {
                            return Err(ScriptError::at(
                                ErrorKind::NameError,
                                format!("unknown function '{name_s}'"),
                                line as usize,
                                0,
                            ))
                        }
                    }
                }
                Instr::Get { dst, call } => {
                    let call = &chunk.gets[call as usize];
                    let frame = &self.stack[base..];
                    let fuel = &mut self.fuel;
                    let leaf = walk(&chunk.reads[call.path as usize], chunk, frame, dynamic, fuel)?;
                    let key = operand(call.key, chunk, frame, fuel)?;
                    let default = call.default.map(|d| operand(d, chunk, frame, fuel)).transpose()?;
                    let container = match &leaf {
                        Leaf::Borrowed(v) => v,
                        Leaf::Fresh(v) => v,
                    };
                    let v = builtins::get(container, key, default).map_err(|e| at_call(e, call.line))?;
                    self.stack[base + dst as usize] = v;
                }
                Instr::CallHost { dst, module, name, start, argc } => {
                    let lo = base + start as usize;
                    let v = self.host.call(
                        &chunk.names[module as usize],
                        &chunk.names[name as usize],
                        &self.stack[lo..lo + argc as usize],
                    )?;
                    self.stack[base + dst as usize] = v;
                }
                Instr::Print { dst, start, argc } => {
                    let lo = base + start as usize;
                    let mut text = String::new();
                    for (i, v) in self.stack[lo..lo + argc as usize].iter().enumerate() {
                        if i > 0 {
                            text.push(' ');
                        }
                        match v {
                            Value::Str(s) => text.push_str(s),
                            other => write!(text, "{other}").expect("a String takes any write"),
                        }
                    }
                    sink.print(&text);
                    self.stack[base + dst as usize] = Value::Null;
                }
                Instr::Rand { dst, kind, start, argc } => {
                    let lo = base + start as usize;
                    let args = &self.stack[lo..lo + argc as usize];
                    let v = match kind {
                        RandKind::Randint => {
                            let (a, b) = builtins::two_ints(args, "randint")?;
                            if a > b {
                                return Err(ScriptError::new(
                                    ErrorKind::ArgumentError,
                                    "randint: empty range",
                                ));
                            }
                            Value::Int(self.rng.random_range(a..=b))
                        }
                        RandKind::Random => {
                            if !args.is_empty() {
                                return Err(ScriptError::new(
                                    ErrorKind::ArgumentError,
                                    "random() takes no arguments",
                                ));
                            }
                            Value::Float(self.rng.random::<f64>())
                        }
                        RandKind::Shuffle => {
                            let [Value::Array(a)] = args else {
                                return Err(ScriptError::new(ErrorKind::ArgumentError, "shuffle(list)"));
                            };
                            let mut a = a.clone();
                            for i in (1..a.len()).rev() {
                                let j = self.rng.random_range(0..=i);
                                a.swap(i, j);
                            }
                            Value::Array(a)
                        }
                    };
                    self.stack[base + dst as usize] = v;
                }
                Instr::EmitDefault { src } => {
                    let v = std::mem::take(&mut self.stack[base + src as usize]);
                    let port = chunk.default_output.as_deref().expect("compiled with default output");
                    sink.emit(port, v);
                }
                Instr::EmitPort { name, src } => {
                    let v = std::mem::take(&mut self.stack[base + src as usize]);
                    sink.emit(&chunk.names[name as usize], v);
                }
                Instr::ForPrep { src } => {
                    let seq = std::mem::take(&mut self.stack[base + src as usize]);
                    let items: Vec<Value> = match seq {
                        Value::Array(a) => a,
                        Value::Str(s) => s.chars().map(|c| Value::Str(c.to_string())).collect(),
                        Value::Object(m) => m.into_keys().map(|k| Value::Str(k.into())).collect(),
                        other => {
                            return Err(ScriptError::new(
                                ErrorKind::TypeError,
                                format!("cannot iterate over {}", other.type_name()),
                            ))
                        }
                    };
                    self.iters.push(items.into_iter());
                }
                Instr::ForNext { slot, exit } => match self.iters.last_mut().and_then(Iterator::next) {
                    Some(item) => {
                        self.fuel.burn(0)?;
                        self.stack[base + slot as usize] = item;
                    }
                    None => {
                        self.iters.pop();
                        pc = exit as usize;
                    }
                },
                Instr::PopIter => {
                    self.iters.pop();
                }
                Instr::Return { src } => {
                    return Ok(std::mem::take(&mut self.stack[base + src as usize]));
                }
                Instr::ReturnNull => return Ok(Value::Null),
                Instr::Raise { idx } => return Err(chunk.errors[idx as usize].clone()),
                Instr::End => return Ok(Value::Null),
            }
        }
        Ok(Value::Null)
    }

    /// Assignment through an accessor path — `Interp::assign`'s walk with
    /// the indices pre-evaluated into registers or read from locals in
    /// place.
    #[allow(clippy::too_many_arguments)] // unpacked StorePath operands
    fn store_path(
        &mut self,
        chunk: &Chunk,
        base: usize,
        root_local: bool,
        root: u16,
        path_start: u16,
        path_len: u16,
        src: u16,
        dynamic: &mut Dynamic<'_>,
    ) -> Result<(), ScriptError> {
        let value = std::mem::take(&mut self.stack[base + src as usize]);
        let frame = &mut self.stack[base..];
        let (mut place, regs) = if root_local {
            if root == INPUT {
                unshare(dynamic, &mut frame[INPUT as usize], false);
            }
            Beside::split(frame, root)
        } else {
            let wanted = &chunk.names[root as usize];
            let alias = named(dynamic, wanted).ok_or_else(|| unassignable(wanted))?;
            let own = alias.own.get_or_insert_with(|| frame[INPUT as usize].clone());
            (own, Beside { below: frame, above: &[] })
        };
        for p in &chunk.paths[path_start as usize..(path_start + path_len) as usize] {
            match *p {
                PathAcc::Field(n) => {
                    let f = chunk.names[n as usize].as_str();
                    if place.is_null() {
                        *place = Value::Object(Map::new());
                    }
                    let m = place.as_object_mut().ok_or_else(|| {
                        ScriptError::new(
                            ErrorKind::TypeError,
                            format!("cannot set field '{f}' on non-object"),
                        )
                    })?;
                    place = m.get_or_insert_with(f, || Value::Null);
                }
                PathAcc::Index(r) | PathAcc::Local(r) => {
                    let idx = regs.get(r);
                    if place.is_null() && matches!(idx, Value::Str(_)) {
                        *place = Value::Object(Map::new());
                    }
                    match (&mut *place, idx) {
                        (Value::Object(m), Value::Str(k)) => place = m.get_or_insert_with(k, || Value::Null),
                        (Value::Object(m), key) => {
                            place = m.get_or_insert_with(&key.to_string(), || Value::Null)
                        }
                        (Value::Array(a), Value::Int(i)) => match position(*i, a.len()) {
                            Some(p) => place = &mut a[p],
                            None => {
                                return Err(ScriptError::new(
                                    ErrorKind::IndexError,
                                    format!("list index {i} out of range (len {})", a.len()),
                                ))
                            }
                        },
                        (other, idx) => {
                            return Err(ScriptError::new(
                                ErrorKind::TypeError,
                                format!("cannot index {} with {}", other.type_name(), idx.type_name()),
                            ))
                        }
                    }
                }
            }
        }
        *place = value;
        Ok(())
    }
}

/// A frame's registers beside one that is lent out mutably: those below
/// it and those above it.
struct Beside<'a> {
    below: &'a [Value],
    above: &'a [Value],
}

impl<'a> Beside<'a> {
    /// Lend out `frame[slot]`.
    fn split(frame: &'a mut [Value], slot: u16) -> (&'a mut Value, Beside<'a>) {
        let (below, rest) = frame.split_at_mut(slot as usize);
        let (lent, above) = rest.split_first_mut().expect("a slot inside the frame");
        (lent, Beside { below, above })
    }

    /// Register `slot`, which is not the lent one.
    fn get(&self, slot: u16) -> &'a Value {
        match (slot as usize).checked_sub(self.below.len()) {
            None => &self.below[slot as usize],
            Some(k) => &self.above[k - 1],
        }
    }
}

/// Where a read path's walk stands: inside its root, or on a value a step
/// made (a missing key's `null`, a string's char).
enum Leaf<'a> {
    Borrowed(&'a Value),
    Fresh(Value),
}

/// An operand's value, read in place after burning its unit.
fn operand<'a>(
    op: Operand,
    chunk: &'a Chunk,
    frame: &'a [Value],
    fuel: &mut Fuel,
) -> Result<&'a Value, ScriptError> {
    fuel.burn(op.line() as usize)?;
    Ok(match op {
        Operand::Const(idx) => &chunk.consts[idx as usize],
        Operand::Local { slot, .. } => &frame[slot as usize],
    })
}

/// Walk `path` from its root by reference. The root's unit and each
/// operand's unit burn where the copying sequence (`Local`/`Dynamic`, then
/// per accessor `FieldGet`, or the operand's `Const`/`Local` and
/// `IndexGet`) burned them, and every error is that sequence's. `frame`
/// is the current frame's registers.
fn walk<'a>(
    path: &ReadPath,
    chunk: &'a Chunk,
    frame: &'a [Value],
    dynamic: &'a Dynamic<'_>,
    fuel: &mut Fuel,
) -> Result<Leaf<'a>, ScriptError> {
    fuel.burn(path.line as usize)?;
    let mut leaf = Leaf::Borrowed(match path.root {
        PathRoot::Local(slot) => &frame[slot as usize],
        PathRoot::Dynamic(name) => {
            let wanted = &chunk.names[name as usize];
            bound(dynamic, frame, wanted).ok_or_else(|| undefined(wanted, path.line))?
        }
    });
    for acc in &path.accs {
        leaf = match *acc {
            ReadAcc::Field { name, line } => {
                let field = chunk.names[name as usize].as_str();
                match leaf {
                    Leaf::Borrowed(Value::Object(m)) => {
                        m.get(field).map_or(Leaf::Fresh(Value::Null), Leaf::Borrowed)
                    }
                    Leaf::Fresh(Value::Object(mut m)) => Leaf::Fresh(m.remove(field).unwrap_or(Value::Null)),
                    Leaf::Borrowed(other) => return Err(field_error(field, other, line)),
                    Leaf::Fresh(other) => return Err(field_error(field, &other, line)),
                }
            }
            ReadAcc::Index(op) => index(leaf, operand(op, chunk, frame, fuel)?)?,
        };
    }
    Ok(leaf)
}

/// One index step of [`walk`]: in place while inside the root, else on the
/// owned value.
fn index<'a>(leaf: Leaf<'a>, i: &Value) -> Result<Leaf<'a>, ScriptError> {
    let b = match leaf {
        Leaf::Borrowed(b) => b,
        Leaf::Fresh(b) => return index_owned(b, i).map(Leaf::Fresh),
    };
    let inside = match (b, i) {
        (Value::Array(a), Value::Int(n)) => position(*n, a.len()).map(|p| &a[p]),
        (Value::Object(m), Value::Str(k)) => m.get(k.as_str()),
        _ => None,
    };
    match inside {
        Some(v) => Ok(Leaf::Borrowed(v)),
        None => index_value(b, i).map(Leaf::Fresh),
    }
}

/// The leaf a [`walk`] that passed borrows, found again without burns for
/// the builtin call that lends it; `None` when a step made it fresh.
/// `frame` is the current frame's registers below the call's arguments,
/// which holds every local.
fn lend_leaf<'a>(
    path: &ReadPath,
    chunk: &'a Chunk,
    frame: &'a mut [Value],
    dynamic: &'a mut Dynamic<'_>,
) -> Option<&'a mut Value> {
    // A path's operands are locals other than its root, and other than
    // `input` when the root is the alias (`path_shape`): split the frame
    // around the root's slot to read them beside it.
    let (mut leaf, regs) = match path.root {
        PathRoot::Local(slot) => Beside::split(frame, slot),
        PathRoot::Dynamic(name) => match &mut named(dynamic, &chunk.names[name as usize])?.own {
            Some(own) => (own, Beside { below: frame, above: &[] }),
            None => Beside::split(frame, INPUT),
        },
    };
    for acc in &path.accs {
        leaf = match *acc {
            ReadAcc::Field { name, .. } => {
                leaf.as_object_mut()?.get_mut(chunk.names[name as usize].as_str())?
            }
            ReadAcc::Index(Operand::Const(idx)) => index_mut(leaf, &chunk.consts[idx as usize])?,
            ReadAcc::Index(Operand::Local { slot, .. }) => index_mut(leaf, regs.get(slot))?,
        };
    }
    Some(leaf)
}

/// [`index`]'s in-place case, for writing.
fn index_mut<'a>(b: &'a mut Value, i: &Value) -> Option<&'a mut Value> {
    match (b, i) {
        (Value::Array(a), Value::Int(n)) => position(*n, a.len()).map(|p| &mut a[p]),
        (Value::Object(m), Value::Str(k)) => m.get_mut(k.as_str()),
        _ => None,
    }
}

/// Owned-value indexing with the interpreter's exact error messages
/// (`index_value` clones; owning the base lets the VM move instead).
fn index_owned(base: Value, index: &Value) -> Result<Value, ScriptError> {
    match (base, index) {
        (Value::Array(mut a), Value::Int(i)) => match position(*i, a.len()) {
            Some(p) => Ok(a.swap_remove(p)),
            None => index_value(&Value::Array(a), index),
        },
        (Value::Object(mut m), Value::Str(k)) => Ok(m.remove(k.as_str()).unwrap_or(Value::Null)),
        (b, _) => index_value(&b, index),
    }
}

/// A builtin's error, placed at its call's line when it has none.
fn at_call(mut e: ScriptError, line: u32) -> ScriptError {
    if e.line == 0 {
        e.line = line as usize;
    }
    e
}

fn undefined(name: &str, line: u32) -> ScriptError {
    ScriptError::at(ErrorKind::NameError, format!("undefined variable '{name}'"), line as usize, 0)
}

fn unassignable(name: &str) -> ScriptError {
    ScriptError::new(ErrorKind::NameError, format!("assignment to undefined variable '{name}'"))
}

fn field_error(field: &str, on: &Value, line: u32) -> ScriptError {
    ScriptError::at(
        ErrorKind::TypeError,
        format!("cannot access field '{field}' on {}", on.type_name()),
        line as usize,
        0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_script;
    use crate::parser::parse_script;
    use crate::runtime::{NullHost, VecSink};

    #[test]
    fn dynamic_port_binding_resolves_like_interp() {
        let src = r#"
            pe W : generic {
                input words;
                output output;
                process { emit(words + words); }
            }
        "#;
        let script = parse_script(src).unwrap();
        let program = Arc::new(compile_script(&script).unwrap());
        let mut vm = Vm::new(program, Arc::new(NullHost));
        let mut state = Value::Null;
        let mut sink = VecSink::default();
        vm.run_process("W", Some(Value::Int(4)), Some("words"), 0, &mut state, &mut sink).unwrap();
        // Default-input fallback when no explicit port is given.
        vm.run_process("W", Some(Value::Int(5)), None, 1, &mut state, &mut sink).unwrap();
        let vals: Vec<i64> = sink.port_values().iter().map(|(_, v)| v.as_i64().unwrap()).collect();
        assert_eq!(vals, vec![8, 10]);
    }
}
