//! What the compiled [`crate::vm::Vm`] and the reference interpreter (in
//! the dev-only `laminar-oracle` crate) share: the [`Sink`] and [`Host`]
//! seams, the fuel, call-depth and seed constants, and the value
//! operations with their error kinds and messages — public so the two
//! backends run one definition of each.

use crate::ast::BinOp;
use crate::error::{ErrorKind, ScriptError};
use laminar_json::Value;
use std::sync::Arc;

/// Where `emit(...)` and `print(...)` output goes.
pub trait Sink {
    /// Datum emitted on an output port.
    fn emit(&mut self, port: &str, value: Value);
    /// A `print(...)` line. Default: stdout.
    fn print(&mut self, text: &str) {
        println!("{text}");
    }
}

/// Sink that records everything, used by tests and the engine's output
/// capture (the paper's Figure 9 shows engine stdout forwarded to the
/// client).
///
/// Port names are interned as `Arc<str>`: a PE has a handful of ports but
/// emits millions of data, so per-emit `String` allocation was pure waste.
#[derive(Debug, Default)]
pub struct VecSink {
    /// `(port, value)` pairs in emission order.
    pub emitted: Vec<(Arc<str>, Value)>,
    /// Captured print lines.
    pub printed: Vec<String>,
    /// Interned port names (linear scan; port counts are tiny).
    names: Vec<Arc<str>>,
}

impl VecSink {
    /// Intern `port`, cloning the backing allocation only on first sight.
    fn intern(&mut self, port: &str) -> Arc<str> {
        match self.names.iter().find(|n| &***n == port) {
            Some(n) => Arc::clone(n),
            None => {
                let n: Arc<str> = Arc::from(port);
                self.names.push(Arc::clone(&n));
                n
            }
        }
    }

    /// Emissions as owned `(port, value)` pairs — convenience for tests
    /// that predate the interned representation.
    pub fn port_values(&self) -> Vec<(String, Value)> {
        self.emitted.iter().map(|(p, v)| (p.to_string(), v.clone())).collect()
    }
}

impl Sink for VecSink {
    fn emit(&mut self, port: &str, value: Value) {
        let port = self.intern(port);
        self.emitted.push((port, value));
    }
    fn print(&mut self, text: &str) {
        self.printed.push(text.to_string());
    }
}

/// Host-function provider: dotted calls (`vo.fetch(...)`) that are not
/// builtin modules are routed here. The engine and workloads install hosts
/// to expose simulated external services.
pub trait Host {
    /// Invoke `module.name(args)`.
    fn call(&self, module: &str, name: &str, args: &[Value]) -> Result<Value, ScriptError>;
}

/// Host that knows no functions; dotted calls fail with `NameError`.
pub struct NullHost;

impl Host for NullHost {
    fn call(&self, module: &str, name: &str, _args: &[Value]) -> Result<Value, ScriptError> {
        Err(ScriptError::new(
            ErrorKind::NameError,
            format!("no host function '{module}.{name}' is available"),
        ))
    }
}

/// Default fuel budget per `process` invocation.
pub const DEFAULT_FUEL: u64 = 2_000_000;
/// RNG seed of a fresh backend; scripted PE instance `i` draws from
/// `DEFAULT_SEED + i`.
pub const DEFAULT_SEED: u64 = 0x1a31_4a12;
/// Maximum user-function call depth.
pub const MAX_CALL_DEPTH: usize = 128;
/// The most one operation may allocate: a failed allocation aborts the
/// process and every tenant's jobs with it, so a larger result is an error.
pub(crate) const MAX_ALLOC_BYTES: usize = 1 << 26;

/// Python-style truthiness.
pub fn truthy(v: &Value) -> bool {
    match v {
        Value::Null => false,
        Value::Bool(b) => *b,
        Value::Int(i) => *i != 0,
        Value::Float(f) => *f != 0.0,
        Value::Str(s) => !s.is_empty(),
        Value::Array(a) => !a.is_empty(),
        Value::Object(m) => !m.is_empty(),
    }
}

/// Equality with numeric coercion (`1 == 1.0`).
pub fn value_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Float(y)) | (Value::Float(y), Value::Int(x)) => *x as f64 == *y,
        _ => a == b,
    }
}

/// `print`'s rendering: strings bare, everything else as JSON.
pub fn display_value(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        other => other.to_string(),
    }
}

/// `base[index]` on a list (negative counts from the end), string or map.
pub fn index_value(base: &Value, index: &Value) -> Result<Value, ScriptError> {
    match (base, index) {
        (Value::Array(a), Value::Int(i)) => {
            let len = a.len() as i64;
            let real = if *i < 0 { *i + len } else { *i };
            a.get(real as usize).cloned().ok_or_else(|| {
                ScriptError::new(ErrorKind::IndexError, format!("list index {i} out of range (len {len})"))
            })
        }
        (Value::Str(s), Value::Int(i)) => {
            let chars: Vec<char> = s.chars().collect();
            let len = chars.len() as i64;
            let real = if *i < 0 { *i + len } else { *i };
            chars.get(real as usize).map(|c| Value::Str(c.to_string())).ok_or_else(|| {
                ScriptError::new(ErrorKind::IndexError, format!("string index {i} out of range"))
            })
        }
        (Value::Object(m), Value::Str(k)) => Ok(m.get(k).cloned().unwrap_or(Value::Null)),
        (b, i) => Err(ScriptError::new(
            ErrorKind::TypeError,
            format!("cannot index {} with {}", b.type_name(), i.type_name()),
        )),
    }
}

/// Every binary operator but the short-circuiting `and`/`or`.
pub fn binary_op(op: BinOp, l: &Value, r: &Value, line: usize) -> Result<Value, ScriptError> {
    use BinOp::*;
    use Value::*;
    let type_err = |msg: String| ScriptError::at(ErrorKind::TypeError, msg, line, 0);
    match op {
        Add => match (l, r) {
            (Int(a), Int(b)) => Ok(Int(a.wrapping_add(*b))),
            (Str(a), Str(b)) => Ok(Str(format!("{a}{b}"))),
            (Array(a), Array(b)) => {
                let mut out = a.clone();
                out.extend(b.iter().cloned());
                Ok(Array(out))
            }
            _ => num_op(l, r, |a, b| a + b)
                .ok_or_else(|| type_err(format!("cannot add {} and {}", l.type_name(), r.type_name())))
                .and_then(|f| finite(f, "float", line)),
        },
        Sub => match (l, r) {
            (Int(a), Int(b)) => Ok(Int(a.wrapping_sub(*b))),
            _ => num_op(l, r, |a, b| a - b)
                .ok_or_else(|| type_err(format!("cannot subtract {} from {}", r.type_name(), l.type_name())))
                .and_then(|f| finite(f, "float", line)),
        },
        Mul => match (l, r) {
            (Int(a), Int(b)) => Ok(Int(a.wrapping_mul(*b))),
            (Str(s), Int(n)) | (Int(n), Str(s)) => {
                if *n < 0 || *n > 1_000_000 {
                    return Err(type_err("string repetition count out of range".into()));
                }
                if s.len().saturating_mul(*n as usize) > MAX_ALLOC_BYTES {
                    return Err(type_err(format!("string repetition over {MAX_ALLOC_BYTES} bytes")));
                }
                Ok(Str(s.repeat(*n as usize)))
            }
            _ => num_op(l, r, |a, b| a * b)
                .ok_or_else(|| type_err(format!("cannot multiply {} and {}", l.type_name(), r.type_name())))
                .and_then(|f| finite(f, "float", line)),
        },
        Div => match (l, r) {
            (Int(_), Int(0)) => {
                Err(ScriptError::at(ErrorKind::DivisionByZero, "integer division by zero", line, 0))
            }
            (Int(a), Int(b)) => Ok(Int(a.wrapping_div(*b))),
            _ => {
                let f = num_op(l, r, |a, b| a / b).ok_or_else(|| {
                    type_err(format!("cannot divide {} by {}", l.type_name(), r.type_name()))
                })?;
                if f.is_nan() || f.is_infinite() {
                    Err(ScriptError::at(ErrorKind::DivisionByZero, "float division by zero", line, 0))
                } else {
                    Ok(Float(f))
                }
            }
        },
        Mod => match (l, r) {
            (Int(_), Int(0)) => Err(ScriptError::at(ErrorKind::DivisionByZero, "modulo by zero", line, 0)),
            (Int(a), Int(b)) => Ok(Int(a.rem_euclid(*b))),
            _ => Err(type_err(format!("cannot take {} modulo {}", l.type_name(), r.type_name()))),
        },
        Eq => Ok(Bool(value_eq(l, r))),
        Ne => Ok(Bool(!value_eq(l, r))),
        Lt | Le | Gt | Ge => {
            let ord = match (l, r) {
                (Int(a), Int(b)) => a.partial_cmp(b),
                (Str(a), Str(b)) => a.partial_cmp(b),
                _ => match (l.as_f64(), r.as_f64()) {
                    (Some(a), Some(b)) => a.partial_cmp(&b),
                    _ => None,
                },
            }
            .ok_or_else(|| type_err(format!("cannot compare {} and {}", l.type_name(), r.type_name())))?;
            let b = match op {
                Lt => ord == std::cmp::Ordering::Less,
                Le => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                Ge => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Bool(b))
        }
        And | Or => unreachable!("short-circuited earlier"),
    }
}

/// A float result, refused where it overflowed: no `Value` may hold a NaN
/// or an infinity, which JSON cannot carry to the wire or the journal.
/// `what` names the operation; a builtin passes line 0, which the caller
/// fills in.
#[inline]
pub(crate) fn finite(f: f64, what: &str, line: usize) -> Result<Value, ScriptError> {
    if f.is_finite() {
        Ok(Value::Float(f))
    } else {
        Err(ScriptError::at(ErrorKind::Overflow, format!("{what} result out of range"), line, 0))
    }
}

fn num_op(l: &Value, r: &Value, f: impl Fn(f64, f64) -> f64) -> Option<f64> {
    match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => Some(f(a, b)),
        _ => None,
    }
}
