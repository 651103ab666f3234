//! Tree-walking interpreter for LamScript: the language's reference
//! semantics, kept as the oracle the compiled [`laminar_script::Vm`] is
//! differential-tested against. No engine, server or registry path runs
//! scripts on it.
//!
//! Executes PE `process` bodies against a datum, an instance state object and
//! an output [`Sink`]. Execution is *fuel-bounded*: every statement and
//! operator costs one unit, exactly as the VM burns it.

use laminar_json::{Map, Value};
use laminar_script::ast::*;
use laminar_script::builtins;
use laminar_script::runtime::{
    binary_op, display_value, index_value, truthy, Host, Sink, VecSink, DEFAULT_FUEL, DEFAULT_SEED,
    MAX_CALL_DEPTH,
};
use laminar_script::{ErrorKind, ScriptError};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// An interpreter bound to a script's function table.
///
/// Fully owned (`'static` + `Send`): PE instances hold one across process
/// calls so that RNG state and fuel accounting persist per instance.
pub struct Interp {
    funcs: HashMap<String, FnDecl>,
    host: Arc<dyn Host + Send + Sync>,
    fuel: u64,
    fuel_limit: u64,
    rng: StdRng,
}

impl Interp {
    /// Build an interpreter for `script` with the given host.
    pub fn new(script: &Script, host: Arc<dyn Host + Send + Sync>) -> Self {
        let mut funcs = HashMap::new();
        for item in &script.items {
            if let Item::Fn(f) = item {
                funcs.insert(f.name.clone(), f.clone());
            }
        }
        Interp {
            funcs,
            host,
            fuel: DEFAULT_FUEL,
            fuel_limit: DEFAULT_FUEL,
            rng: StdRng::seed_from_u64(DEFAULT_SEED),
        }
    }

    /// Override the per-invocation fuel budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel_limit = fuel;
        self.fuel = fuel;
        self
    }

    /// Seed the RNG (tests and reproducible benchmarks).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = StdRng::seed_from_u64(seed);
        self
    }

    /// Fuel left after the last invocation (differential testing against
    /// the bytecode VM).
    pub fn fuel_remaining(&self) -> u64 {
        self.fuel
    }

    /// Current RNG state, for checkpointing. The state word plus the
    /// PE's `state.*` value is the interpreter's entire cross-invocation
    /// footprint (fuel resets per invocation).
    pub fn rng_state(&self) -> u64 {
        self.rng.state()
    }

    /// Restore an RNG state captured by [`Interp::rng_state`].
    pub fn set_rng_state(&mut self, state: u64) {
        self.rng.set_state(state);
    }

    /// Run a PE's `init` block against `state`.
    pub fn run_init(
        &mut self,
        pe: &PeDecl,
        state: &mut Value,
        sink: &mut dyn Sink,
    ) -> Result<(), ScriptError> {
        if state.is_null() {
            // Instance state is always an object, like a fresh Python
            // instance's attribute dict.
            *state = Value::Object(Map::new());
        }
        let Some(init) = &pe.init else { return Ok(()) };
        self.fuel = self.fuel_limit;
        let mut env = Env::new();
        env.define("state", std::mem::take(state));
        let flow = self.exec_block(init, &mut env, sink, 0)?;
        *state = env.take("state").unwrap_or(Value::Null);
        if let Flow::Return(_) = flow {
            // `return` in init is tolerated and ignored.
        }
        Ok(())
    }

    /// Run one `process` invocation.
    ///
    /// * `input` — the datum (None for producers).
    /// * `input_port` — which port the datum arrived on (None for producers
    ///   or when the caller doesn't track ports); the datum is also bound to
    ///   a variable with the port's name, mirroring dispel4py's
    ///   `_process(self, <port>)` convention.
    /// * `iteration` — producer iteration counter, exposed as `iteration`.
    /// * `state` — instance state object, mutated in place.
    ///
    /// Returns the `return` value if the body returned one; in dispel4py a
    /// returned value is shorthand for writing it to the default output, and
    /// the PE adapter layer applies that rule.
    pub fn run_process(
        &mut self,
        pe: &PeDecl,
        input: Option<Value>,
        input_port: Option<&str>,
        iteration: i64,
        state: &mut Value,
        sink: &mut dyn Sink,
    ) -> Result<Option<Value>, ScriptError> {
        self.fuel = self.fuel_limit;
        if state.is_null() {
            *state = Value::Object(Map::new());
        }
        let mut env = Env::new();
        env.define("state", std::mem::take(state));
        let datum = input.unwrap_or(Value::Null);
        // The datum is visible both as `input` and under the port's name.
        let port_var = input_port.map(str::to_string).or_else(|| pe.default_input().map(str::to_string));
        if let Some(pv) = port_var {
            if pv != "input" {
                env.define(&pv, datum.clone());
            }
        }
        env.define("input", datum);
        env.define("input_port", input_port.map(Value::from).unwrap_or(Value::Null));
        env.define("iteration", Value::Int(iteration));
        let mut ctx =
            PeCtx { default_output: pe.default_output().map(str::to_string), outputs: pe.outputs.clone() };
        let flow = self.exec_block_pe(&pe.process, &mut env, sink, &mut ctx, 0)?;
        *state = env.take("state").unwrap_or(Value::Null);
        Ok(match flow {
            Flow::Return(v) if !v.is_null() => Some(v),
            _ => None,
        })
    }

    /// Evaluate a standalone expression with pre-bound variables.
    pub fn eval_expr(&mut self, expr: &Expr, vars: &[(&str, Value)]) -> Result<Value, ScriptError> {
        self.fuel = self.fuel_limit;
        let mut env = Env::new();
        for (k, v) in vars {
            env.define(k, v.clone());
        }
        let mut sink = VecSink::default();
        self.eval(expr, &mut env, &mut sink, 0)
    }

    // ---- execution -----------------------------------------------------

    fn burn(&mut self, line: usize) -> Result<(), ScriptError> {
        if self.fuel == 0 {
            return Err(ScriptError::at(
                ErrorKind::FuelExhausted,
                format!("fuel budget of {} exhausted", self.fuel_limit),
                line,
                0,
            ));
        }
        self.fuel -= 1;
        Ok(())
    }

    fn exec_block(
        &mut self,
        block: &Block,
        env: &mut Env,
        sink: &mut dyn Sink,
        depth: usize,
    ) -> Result<Flow, ScriptError> {
        let mut ctx = PeCtx { default_output: None, outputs: vec![] };
        self.exec_block_pe(block, env, sink, &mut ctx, depth)
    }

    fn exec_block_pe(
        &mut self,
        block: &Block,
        env: &mut Env,
        sink: &mut dyn Sink,
        ctx: &mut PeCtx,
        depth: usize,
    ) -> Result<Flow, ScriptError> {
        env.push();
        let result = self.exec_stmts(&block.stmts, env, sink, ctx, depth);
        env.pop();
        result
    }

    fn exec_stmts(
        &mut self,
        stmts: &[Stmt],
        env: &mut Env,
        sink: &mut dyn Sink,
        ctx: &mut PeCtx,
        depth: usize,
    ) -> Result<Flow, ScriptError> {
        for stmt in stmts {
            match self.exec_stmt(stmt, env, sink, ctx, depth)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(
        &mut self,
        stmt: &Stmt,
        env: &mut Env,
        sink: &mut dyn Sink,
        ctx: &mut PeCtx,
        depth: usize,
    ) -> Result<Flow, ScriptError> {
        self.burn(0)?;
        match stmt {
            Stmt::Let { name, value } => {
                let v = self.eval_in(value, env, sink, ctx, depth)?;
                env.define(name, v);
                Ok(Flow::Normal)
            }
            Stmt::Assign { target, value } => {
                let v = self.eval_in(value, env, sink, ctx, depth)?;
                self.assign(target, v, env, sink, ctx, depth)?;
                Ok(Flow::Normal)
            }
            Stmt::If { cond, then_block, else_block } => {
                let c = self.eval_in(cond, env, sink, ctx, depth)?;
                if truthy(&c) {
                    self.exec_block_pe(then_block, env, sink, ctx, depth)
                } else if let Some(e) = else_block {
                    self.exec_block_pe(e, env, sink, ctx, depth)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::While { cond, body } => {
                loop {
                    self.burn(0)?;
                    let c = self.eval_in(cond, env, sink, ctx, depth)?;
                    if !truthy(&c) {
                        break;
                    }
                    match self.exec_block_pe(body, env, sink, ctx, depth)? {
                        Flow::Break => break,
                        Flow::Continue | Flow::Normal => {}
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For { var, iter, body } => {
                let seq = self.eval_in(iter, env, sink, ctx, depth)?;
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
                for item in items {
                    self.burn(0)?;
                    env.push();
                    env.define(var, item);
                    let flow = self.exec_stmts(&body.stmts, env, sink, ctx, depth);
                    env.pop();
                    match flow? {
                        Flow::Break => break,
                        Flow::Continue | Flow::Normal => {}
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval_in(e, env, sink, ctx, depth)?,
                    None => Value::Null,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
            Stmt::Emit(e) => {
                let v = self.eval_in(e, env, sink, ctx, depth)?;
                let port = ctx.default_output.clone().ok_or_else(|| {
                    ScriptError::new(ErrorKind::ContextError, "emit() used in a PE without output ports")
                })?;
                sink.emit(&port, v);
                Ok(Flow::Normal)
            }
            Stmt::EmitTo { port, value } => {
                if !ctx.outputs.iter().any(|p| p == port) {
                    return Err(ScriptError::new(
                        ErrorKind::ContextError,
                        format!("emit to undeclared output port '{port}'"),
                    ));
                }
                let v = self.eval_in(value, env, sink, ctx, depth)?;
                sink.emit(port, v);
                Ok(Flow::Normal)
            }
            Stmt::ExprStmt(e) => {
                self.eval_in(e, env, sink, ctx, depth)?;
                Ok(Flow::Normal)
            }
        }
    }

    fn assign(
        &mut self,
        target: &Expr,
        value: Value,
        env: &mut Env,
        sink: &mut dyn Sink,
        ctx: &mut PeCtx,
        depth: usize,
    ) -> Result<(), ScriptError> {
        // Resolve the accessor path (indices / fields) down to the root var.
        enum Acc {
            Index(Value),
            Field(String),
        }
        let mut accs: Vec<Acc> = Vec::new();
        let mut cur = target;
        let root = loop {
            match cur {
                Expr::Var { name, .. } => break name.clone(),
                Expr::Index { base, index, .. } => {
                    let idx = self.eval_in(index, env, sink, ctx, depth)?;
                    accs.push(Acc::Index(idx));
                    cur = base;
                }
                Expr::Field { base, field, .. } => {
                    accs.push(Acc::Field(field.clone()));
                    cur = base;
                }
                _ => return Err(ScriptError::new(ErrorKind::TypeError, "invalid assignment target")),
            }
        };
        accs.reverse();
        let slot = env.lookup_mut(&root).ok_or_else(|| {
            ScriptError::new(ErrorKind::NameError, format!("assignment to undefined variable '{root}'"))
        })?;
        let mut place: &mut Value = slot;
        for acc in &accs {
            match acc {
                Acc::Field(f) => {
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
                Acc::Index(idx) => {
                    if place.is_null() && matches!(idx, Value::Str(_)) {
                        *place = Value::Object(Map::new());
                    }
                    match (&mut *place, idx) {
                        (Value::Object(m), key) => {
                            let k = match key {
                                Value::Str(s) => s.clone(),
                                other => other.to_string(),
                            };
                            place = m.get_or_insert_with(&k, || Value::Null);
                        }
                        (Value::Array(a), Value::Int(i)) => {
                            let len = a.len() as i64;
                            let real = if *i < 0 { *i + len } else { *i };
                            if real < 0 || real >= len {
                                return Err(ScriptError::new(
                                    ErrorKind::IndexError,
                                    format!("list index {i} out of range (len {len})"),
                                ));
                            }
                            place = &mut a[real as usize];
                        }
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

    fn eval_in(
        &mut self,
        expr: &Expr,
        env: &mut Env,
        sink: &mut dyn Sink,
        ctx: &mut PeCtx,
        depth: usize,
    ) -> Result<Value, ScriptError> {
        // PeCtx flows through so user functions can't emit (matching
        // dispel4py, where only _process writes to ports) — but print works.
        let _ = ctx;
        self.eval(expr, env, sink, depth)
    }

    fn eval(
        &mut self,
        expr: &Expr,
        env: &mut Env,
        sink: &mut dyn Sink,
        depth: usize,
    ) -> Result<Value, ScriptError> {
        self.burn(expr.line())?;
        match expr {
            Expr::Int(n) => Ok(Value::Int(*n)),
            Expr::Float(f) => Ok(Value::Float(*f)),
            Expr::Str(s) => Ok(Value::Str(s.clone())),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Null => Ok(Value::Null),
            Expr::Var { name, line } => env.lookup(name).cloned().ok_or_else(|| {
                ScriptError::at(ErrorKind::NameError, format!("undefined variable '{name}'"), *line, 0)
            }),
            Expr::List(items) => {
                let mut out = Vec::with_capacity(items.len());
                for e in items {
                    out.push(self.eval(e, env, sink, depth)?);
                }
                Ok(Value::Array(out))
            }
            Expr::MapLit(pairs) => {
                let mut m = Map::new();
                for (k, e) in pairs {
                    m.insert(k.clone(), self.eval(e, env, sink, depth)?);
                }
                Ok(Value::Object(m))
            }
            Expr::Unary { op, operand, .. } => {
                let v = self.eval(operand, env, sink, depth)?;
                match op {
                    UnOp::Neg => match v {
                        Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
                        Value::Float(f) => Ok(Value::Float(-f)),
                        other => Err(ScriptError::new(
                            ErrorKind::TypeError,
                            format!("cannot negate {}", other.type_name()),
                        )),
                    },
                    UnOp::Not => Ok(Value::Bool(!truthy(&v))),
                }
            }
            Expr::Binary { op, lhs, rhs, line } => self.eval_binary(*op, lhs, rhs, *line, env, sink, depth),
            Expr::Index { base, index, .. } => {
                let b = self.eval(base, env, sink, depth)?;
                let i = self.eval(index, env, sink, depth)?;
                index_value(&b, &i)
            }
            Expr::Field { base, field, line } => {
                let b = self.eval(base, env, sink, depth)?;
                match b {
                    Value::Object(m) => Ok(m.get(field).cloned().unwrap_or(Value::Null)),
                    other => Err(ScriptError::at(
                        ErrorKind::TypeError,
                        format!("cannot access field '{field}' on {}", other.type_name()),
                        *line,
                        0,
                    )),
                }
            }
            Expr::Call { module, name, args, line } => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a, env, sink, depth)?);
                }
                self.call(module.as_deref(), name, argv, *line, sink, depth)
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors eval()'s threading of interpreter context
    fn eval_binary(
        &mut self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        line: usize,
        env: &mut Env,
        sink: &mut dyn Sink,
        depth: usize,
    ) -> Result<Value, ScriptError> {
        // Short-circuit logical operators.
        if matches!(op, BinOp::And | BinOp::Or) {
            let l = self.eval(lhs, env, sink, depth)?;
            let lt = truthy(&l);
            return if (op == BinOp::And && !lt) || (op == BinOp::Or && lt) {
                Ok(Value::Bool(lt))
            } else {
                let r = self.eval(rhs, env, sink, depth)?;
                Ok(Value::Bool(truthy(&r)))
            };
        }
        let l = self.eval(lhs, env, sink, depth)?;
        let r = self.eval(rhs, env, sink, depth)?;
        binary_op(op, &l, &r, line)
    }

    fn call(
        &mut self,
        module: Option<&str>,
        name: &str,
        args: Vec<Value>,
        line: usize,
        sink: &mut dyn Sink,
        depth: usize,
    ) -> Result<Value, ScriptError> {
        // 1. print is special: it writes to the sink.
        if module.is_none() && name == "print" {
            let text = args.iter().map(display_value).collect::<Vec<_>>().join(" ");
            sink.print(&text);
            return Ok(Value::Null);
        }
        // 2. random builtins consume the interpreter RNG.
        if module.is_none() || module == Some("random") {
            match name {
                "randint" => {
                    let (a, b) = builtins::two_ints(&args, "randint")?;
                    if a > b {
                        return Err(ScriptError::new(ErrorKind::ArgumentError, "randint: empty range"));
                    }
                    return Ok(Value::Int(self.rng.random_range(a..=b)));
                }
                "random" => {
                    if !args.is_empty() {
                        return Err(ScriptError::new(
                            ErrorKind::ArgumentError,
                            "random() takes no arguments",
                        ));
                    }
                    return Ok(Value::Float(self.rng.random::<f64>()));
                }
                "shuffle" => {
                    let [Value::Array(a)] = &args[..] else {
                        return Err(ScriptError::new(ErrorKind::ArgumentError, "shuffle(list)"));
                    };
                    let mut a = a.clone();
                    // Fisher-Yates with the interpreter RNG.
                    for i in (1..a.len()).rev() {
                        let j = self.rng.random_range(0..=i);
                        a.swap(i, j);
                    }
                    return Ok(Value::Array(a));
                }
                _ => {}
            }
        }
        // 3. user functions (plain calls only).
        if module.is_none() {
            if let Some(f) = self.funcs.get(name).cloned() {
                if depth + 1 > MAX_CALL_DEPTH {
                    return Err(ScriptError::at(ErrorKind::StackOverflow, "call depth exceeded", line, 0));
                }
                if f.params.len() != args.len() {
                    return Err(ScriptError::at(
                        ErrorKind::ArgumentError,
                        format!("{name}() expects {} arguments, got {}", f.params.len(), args.len()),
                        line,
                        0,
                    ));
                }
                let mut env = Env::new();
                for (p, v) in f.params.iter().zip(args) {
                    env.define(p, v);
                }
                let flow = self.exec_block(&f.body, &mut env, sink, depth + 1)?;
                return Ok(match flow {
                    Flow::Return(v) => v,
                    _ => Value::Null,
                });
            }
        }
        // 4. builtin table.
        if let Some(result) = builtins::call(module, name, &args) {
            return result.map_err(|mut e| {
                if e.line == 0 {
                    e.line = line;
                }
                e
            });
        }
        // 5. host functions (simulated external libraries/services).
        if let Some(m) = module {
            return self.host.call(m, name, &args);
        }
        Err(ScriptError::at(ErrorKind::NameError, format!("unknown function '{name}'"), line, 0))
    }
}

struct PeCtx {
    default_output: Option<String>,
    outputs: Vec<String>,
}

/// Lexically-scoped variable environment.
struct Env {
    scopes: Vec<HashMap<String, Value>>,
}

impl Env {
    fn new() -> Self {
        Env { scopes: vec![HashMap::new()] }
    }
    fn push(&mut self) {
        self.scopes.push(HashMap::new());
    }
    fn pop(&mut self) {
        self.scopes.pop();
    }
    fn define(&mut self, name: &str, v: Value) {
        self.scopes.last_mut().expect("at least one scope").insert(name.to_string(), v);
    }
    fn lookup(&self, name: &str) -> Option<&Value> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }
    fn lookup_mut(&mut self, name: &str) -> Option<&mut Value> {
        self.scopes.iter_mut().rev().find_map(|s| s.get_mut(name))
    }
    fn take(&mut self, name: &str) -> Option<Value> {
        self.scopes.iter_mut().rev().find_map(|s| s.remove(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_json::{jarr, jobj};
    use laminar_script::{parse_expr, parse_script, NullHost};
    use std::sync::Arc;

    fn eval(src: &str) -> Value {
        let script = Script { items: vec![] };
        let mut i = Interp::new(&script, Arc::new(NullHost));
        let e = parse_expr(src).unwrap();
        // Leak is fine in tests; alternative is threading lifetimes.
        i.eval_expr(&e, &[]).unwrap()
    }

    fn eval_err(src: &str) -> ScriptError {
        let script = Script { items: vec![] };
        let mut i = Interp::new(&script, Arc::new(NullHost));
        let e = parse_expr(src).unwrap();
        i.eval_expr(&e, &[]).unwrap_err()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(eval("1 + 2 * 3"), Value::Int(7));
        assert_eq!(eval("10 / 3"), Value::Int(3));
        assert_eq!(eval("10.0 / 4"), Value::Float(2.5));
        assert_eq!(eval("10 % 3"), Value::Int(1));
        assert_eq!(eval("-5 % 3"), Value::Int(1)); // euclidean
        assert_eq!(eval("\"ab\" + \"cd\""), Value::Str("abcd".into()));
        assert_eq!(eval("\"ab\" * 3"), Value::Str("ababab".into()));
        assert_eq!(eval("[1] + [2, 3]"), jarr![1, 2, 3]);
    }

    #[test]
    fn comparison_and_logic() {
        assert_eq!(eval("1 < 2"), Value::Bool(true));
        assert_eq!(eval("2.5 >= 2"), Value::Bool(true));
        assert_eq!(eval("\"a\" < \"b\""), Value::Bool(true));
        assert_eq!(eval("1 == 1.0"), Value::Bool(true));
        assert_eq!(eval("true and false"), Value::Bool(false));
        assert_eq!(eval("false or 1 == 1"), Value::Bool(true));
        assert_eq!(eval("not null"), Value::Bool(true));
    }

    #[test]
    fn short_circuit() {
        // rhs would divide by zero; short-circuit must skip it.
        assert_eq!(eval("false and 1 / 0 == 0"), Value::Bool(false));
        assert_eq!(eval("true or 1 / 0 == 0"), Value::Bool(true));
    }

    #[test]
    fn errors() {
        assert_eq!(eval_err("1 / 0").kind, ErrorKind::DivisionByZero);
        assert_eq!(eval_err("1 + \"a\"").kind, ErrorKind::TypeError);
        assert_eq!(eval_err("nope").kind, ErrorKind::NameError);
        assert_eq!(eval_err("[1][5]").kind, ErrorKind::IndexError);
        assert_eq!(eval_err("unknown_fn(1)").kind, ErrorKind::NameError);
    }

    #[test]
    fn indexing() {
        assert_eq!(eval("[10, 20, 30][1]"), Value::Int(20));
        assert_eq!(eval("[10, 20, 30][-1]"), Value::Int(30));
        assert_eq!(eval("\"héllo\"[1]"), Value::Str("é".into()));
        assert_eq!(eval("{\"k\": 9}[\"k\"]"), Value::Int(9));
        assert_eq!(eval("{\"k\": 9}[\"missing\"]"), Value::Null);
        assert_eq!(eval("{a: {b: 5}}.a.b"), Value::Int(5));
    }

    fn run_pe(
        src: &str,
        pe_name: &str,
        inputs: Vec<Option<Value>>,
    ) -> (Vec<(String, Value)>, Vec<String>, Value) {
        let script = parse_script(src).unwrap();
        let pe = script.pe(pe_name).unwrap();
        let mut interp = Interp::new(&script, Arc::new(NullHost)).with_seed(7);
        let mut state = Value::Null;
        let mut sink = VecSink::default();
        interp.run_init(pe, &mut state, &mut sink).unwrap();
        for (it, input) in inputs.into_iter().enumerate() {
            let ret = interp.run_process(pe, input, None, it as i64, &mut state, &mut sink).unwrap();
            if let Some(v) = ret {
                // dispel4py convention: returned value goes to default port.
                let port = pe.default_output().unwrap_or("output").to_string();
                sink.emit(&port, v);
            }
        }
        (sink.port_values(), sink.printed, state)
    }

    #[test]
    fn is_prime_pe_end_to_end() {
        let src = r#"
            pe IsPrime : iterative {
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
        let inputs: Vec<Option<Value>> = (1..=20).map(|n| Some(Value::Int(n))).collect();
        let (emitted, _, _) = run_pe(src, "IsPrime", inputs);
        let primes: Vec<i64> = emitted.iter().map(|(_, v)| v.as_i64().unwrap()).collect();
        assert_eq!(primes, vec![2, 3, 5, 7, 11, 13, 17, 19]);
    }

    #[test]
    fn stateful_count_words() {
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
        let inputs = vec![Some(jarr!["the", 1]), Some(jarr!["fox", 1]), Some(jarr!["the", 1])];
        let (emitted, _, state) = run_pe(src, "CountWords", inputs);
        assert_eq!(emitted[2].1, jarr!["the", 2]);
        assert_eq!(state["count"]["the"].as_i64(), Some(2));
        assert_eq!(state["count"]["fox"].as_i64(), Some(1));
    }

    #[test]
    fn producer_uses_iteration_and_rng() {
        let src = r#"
            pe NumberProducer : producer {
                output output;
                process { emit(randint(1, 1000)); }
            }
        "#;
        let (emitted, _, _) = run_pe(src, "NumberProducer", vec![None, None, None]);
        assert_eq!(emitted.len(), 3);
        for (_, v) in &emitted {
            let n = v.as_i64().unwrap();
            assert!((1..=1000).contains(&n));
        }
        // Deterministic under the fixed seed.
        let (again, _, _) = run_pe(src, "NumberProducer", vec![None, None, None]);
        assert_eq!(emitted, again);
    }

    #[test]
    fn return_routes_to_default_port() {
        let src = r#"
            pe Double : iterative {
                input x;
                output output;
                process { return x * 2; }
            }
        "#;
        let (emitted, _, _) = run_pe(src, "Double", vec![Some(Value::Int(21))]);
        assert_eq!(emitted, vec![("output".to_string(), Value::Int(42))]);
    }

    #[test]
    fn emit_to_named_port() {
        let src = r#"
            pe Fan : generic {
                input input;
                output big;
                output small;
                process {
                    if input >= 10 { emit("big", input); } else { emit("small", input); }
                }
            }
        "#;
        let (emitted, _, _) = run_pe(src, "Fan", vec![Some(Value::Int(3)), Some(Value::Int(30))]);
        assert_eq!(emitted[0].0, "small");
        assert_eq!(emitted[1].0, "big");
    }

    #[test]
    fn emit_to_undeclared_port_fails() {
        let src = r#"pe X : generic { input input; output o; process { emit("nope", 1); } }"#;
        let script = parse_script(src).unwrap();
        let pe = script.pe("X").unwrap();
        let mut interp = Interp::new(&script, Arc::new(NullHost));
        let mut state = Value::Null;
        let mut sink = VecSink::default();
        let err = interp.run_process(pe, Some(Value::Int(1)), None, 0, &mut state, &mut sink).unwrap_err();
        assert_eq!(err.kind, ErrorKind::ContextError);
    }

    #[test]
    fn user_functions_and_recursion() {
        let src = r#"
            fn fact(n) {
                if n <= 1 { return 1; }
                return n * fact(n - 1);
            }
            pe F : iterative {
                input x; output output;
                process { emit(fact(x)); }
            }
        "#;
        let (emitted, _, _) = run_pe(src, "F", vec![Some(Value::Int(6))]);
        assert_eq!(emitted[0].1, Value::Int(720));
    }

    #[test]
    fn infinite_recursion_hits_depth_limit() {
        let src = r#"
            fn loop_forever(n) { return loop_forever(n); }
            pe F : iterative { input x; output output; process { emit(loop_forever(x)); } }
        "#;
        let script = parse_script(src).unwrap();
        let pe = script.pe("F").unwrap();
        let mut interp = Interp::new(&script, Arc::new(NullHost));
        let mut state = Value::Null;
        let mut sink = VecSink::default();
        let err = interp.run_process(pe, Some(Value::Int(1)), None, 0, &mut state, &mut sink).unwrap_err();
        assert!(matches!(err.kind, ErrorKind::StackOverflow | ErrorKind::FuelExhausted));
    }

    #[test]
    fn infinite_loop_exhausts_fuel() {
        let src = "pe F : iterative { input x; output output; process { while true { let a = 1; } } }";
        let script = parse_script(src).unwrap();
        let pe = script.pe("F").unwrap();
        let mut interp = Interp::new(&script, Arc::new(NullHost)).with_fuel(10_000);
        let mut state = Value::Null;
        let mut sink = VecSink::default();
        let err = interp.run_process(pe, Some(Value::Int(1)), None, 0, &mut state, &mut sink).unwrap_err();
        assert_eq!(err.kind, ErrorKind::FuelExhausted);
    }

    #[test]
    fn print_captured_by_sink() {
        let src = r#"
            pe P : consumer {
                input num;
                process { print("the num", num, "is prime"); }
            }
        "#;
        let (_, printed, _) = run_pe(src, "P", vec![Some(Value::Int(977))]);
        assert_eq!(printed, vec!["the num 977 is prime"]);
    }

    #[test]
    fn for_loops_and_ranges() {
        let src = r#"
            pe Sum : iterative {
                input n; output output;
                process {
                    let total = 0;
                    for i in range(0, n) { total = total + i; }
                    emit(total);
                }
            }
        "#;
        let (emitted, _, _) = run_pe(src, "Sum", vec![Some(Value::Int(5))]);
        assert_eq!(emitted[0].1, Value::Int(10));
    }

    #[test]
    fn nested_assignment_autovivifies_maps() {
        let src = r#"
            pe S : generic {
                input input; output output;
                init { state.stats = {}; }
                process {
                    state.stats.deep[input] = 1;
                    emit(state.stats);
                }
            }
        "#;
        let (emitted, _, _) = run_pe(src, "S", vec![Some(Value::Str("k".into()))]);
        assert_eq!(emitted[0].1["deep"]["k"], Value::Int(1));
    }

    #[test]
    fn host_functions_called() {
        struct EchoHost;
        impl Host for EchoHost {
            fn call(&self, module: &str, name: &str, args: &[Value]) -> Result<Value, ScriptError> {
                Ok(jobj! { "module" => module, "name" => name, "nargs" => args.len() })
            }
        }
        let src = r#"pe H : iterative { input x; output output; process { emit(vo.fetch(x, 2)); } }"#;
        let script = parse_script(src).unwrap();
        let pe = script.pe("H").unwrap();
        let mut interp = Interp::new(&script, Arc::new(EchoHost));
        let mut state = Value::Null;
        let mut sink = VecSink::default();
        interp.run_process(pe, Some(Value::Int(1)), None, 0, &mut state, &mut sink).unwrap();
        assert_eq!(sink.emitted[0].1["module"].as_str(), Some("vo"));
        assert_eq!(sink.emitted[0].1["nargs"].as_i64(), Some(2));
    }
}
