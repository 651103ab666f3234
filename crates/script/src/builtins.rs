//! Builtin function table for LamScript.
//!
//! Builtins are pure (the RNG-backed ones are VM instructions). They are
//! grouped into an unqualified global namespace plus `math` and `strings`
//! module namespaces — the "standard library" that the engine treats as
//! pre-installed, in contrast to user imports which trigger the simulated
//! library installer.

use crate::error::{ErrorKind, ScriptError};
use crate::runtime::{finite, position, MAX_ALLOC_BYTES};
use laminar_json::{Map, Value};

type R = Result<Value, ScriptError>;

/// Run an arm body that uses `?` internally.
fn arm(f: impl FnOnce() -> R) -> R {
    f()
}

fn arg_err(msg: impl Into<String>) -> ScriptError {
    ScriptError::new(ErrorKind::ArgumentError, msg)
}

fn type_err(msg: impl Into<String>) -> ScriptError {
    ScriptError::new(ErrorKind::TypeError, msg)
}

/// Extract two integer arguments (`randint`'s).
pub fn two_ints(args: &[Value], name: &str) -> Result<(i64, i64), ScriptError> {
    match args {
        [Value::Int(a), Value::Int(b)] => Ok((*a, *b)),
        _ => Err(arg_err(format!("{name}(int, int) expected"))),
    }
}

/// Names the engine treats as pre-installed modules (no install cost).
pub(crate) const BUILTIN_MODULES: &[&str] = &["math", "strings", "random"];

/// Dispatch a builtin. Returns `None` when `(module, name)` is not a builtin,
/// so the interpreter can fall through to user functions and host calls.
pub fn call(module: Option<&str>, name: &str, args: &[Value]) -> Option<R> {
    match module {
        None => call_global(name, args),
        Some("math") => call_math(name, args),
        Some("strings") => call_strings(name, args),
        _ => None,
    }
}

fn num(v: &Value, ctx: &str) -> Result<f64, ScriptError> {
    v.as_f64().ok_or_else(|| type_err(format!("{ctx}: expected number, got {}", v.type_name())))
}

fn call_global(name: &str, args: &[Value]) -> Option<R> {
    let r = match name {
        "len" => match args {
            [Value::Str(s)] => Ok(Value::Int(s.chars().count() as i64)),
            [Value::Array(a)] => Ok(Value::Int(a.len() as i64)),
            [Value::Object(m)] => Ok(Value::Int(m.len() as i64)),
            _ => Err(arg_err("len(string|list|map)")),
        },
        "str" => match args {
            [Value::Str(s)] => Ok(Value::Str(s.clone())),
            [v] => Ok(Value::Str(v.to_string())),
            _ => Err(arg_err("str(value)")),
        },
        "int" => match args {
            [Value::Int(i)] => Ok(Value::Int(*i)),
            [Value::Float(f)] => Ok(Value::Int(*f as i64)),
            [Value::Bool(b)] => Ok(Value::Int(*b as i64)),
            [Value::Str(s)] => s
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| arg_err(format!("int: cannot parse '{s}'"))),
            _ => Err(arg_err("int(value)")),
        },
        "float" => match args {
            [Value::Int(i)] => Ok(Value::Float(*i as f64)),
            [Value::Float(f)] => Ok(Value::Float(*f)),
            [Value::Str(s)] => match s.trim().parse::<f64>() {
                Ok(f) if f.is_finite() => Ok(Value::Float(f)),
                Ok(_) => Err(arg_err(format!("float: '{s}' is not a finite number"))),
                Err(_) => Err(arg_err(format!("float: cannot parse '{s}'"))),
            },
            _ => Err(arg_err("float(value)")),
        },
        "abs" => match args {
            [Value::Int(i)] => Ok(Value::Int(i.wrapping_abs())),
            [Value::Float(f)] => Ok(Value::Float(f.abs())),
            _ => Err(arg_err("abs(number)")),
        },
        "min" | "max" => {
            if args.is_empty() {
                return Some(Err(arg_err(format!("{name}: needs at least one argument"))));
            }
            let items: Vec<Value> = if args.len() == 1 {
                match &args[0] {
                    Value::Array(a) if !a.is_empty() => a.clone(),
                    Value::Array(_) => return Some(Err(arg_err(format!("{name}: empty list")))),
                    v => vec![v.clone()],
                }
            } else {
                args.to_vec()
            };
            let mut best = items[0].clone();
            for v in &items[1..] {
                let (a, b) = match (best.as_f64(), v.as_f64()) {
                    (Some(a), Some(b)) => (a, b),
                    _ => return Some(Err(type_err(format!("{name}: non-numeric argument")))),
                };
                let take = if name == "min" { b < a } else { b > a };
                if take {
                    best = v.clone();
                }
            }
            Ok(best)
        }
        "sum" => match args {
            [Value::Array(a)] => {
                let mut int_sum: i64 = 0;
                let mut float_sum = 0.0;
                let mut any_float = false;
                for v in a {
                    match v {
                        Value::Int(i) => int_sum = int_sum.wrapping_add(*i),
                        Value::Float(f) => {
                            any_float = true;
                            float_sum += f;
                        }
                        other => {
                            return Some(Err(type_err(format!("sum: non-numeric {}", other.type_name()))))
                        }
                    }
                }
                if any_float {
                    finite(float_sum + int_sum as f64, "sum", 0)
                } else {
                    Ok(Value::Int(int_sum))
                }
            }
            _ => Err(arg_err("sum(list)")),
        },
        "range" => match args {
            [Value::Int(b)] => range(0, *b, 1),
            [Value::Int(a), Value::Int(b)] => range(*a, *b, 1),
            [Value::Int(a), Value::Int(b), Value::Int(s)] => {
                if *s == 0 {
                    return Some(Err(arg_err("range: step must be non-zero")));
                }
                range(*a, *b, *s)
            }
            _ => Err(arg_err("range(stop) | range(start, stop) | range(start, stop, step)")),
        },
        "push" => match args {
            [Value::Array(a), v] => {
                let mut a = a.clone();
                a.push(v.clone());
                Ok(Value::Array(a))
            }
            _ => Err(arg_err("push(list, value)")),
        },
        "pop" => match args {
            [Value::Array(a)] => {
                if a.is_empty() {
                    Err(arg_err("pop: empty list"))
                } else {
                    Ok(Value::Array(a[..a.len() - 1].to_vec()))
                }
            }
            _ => Err(arg_err("pop(list)")),
        },
        "last" => match args {
            [Value::Array(a)] => a.last().cloned().ok_or_else(|| arg_err("last: empty list")),
            _ => Err(arg_err("last(list)")),
        },
        "first" => match args {
            [Value::Array(a)] => a.first().cloned().ok_or_else(|| arg_err("first: empty list")),
            _ => Err(arg_err("first(list)")),
        },
        "slice" => match args {
            [Value::Array(a), Value::Int(from), Value::Int(to)] => {
                let len = a.len() as i64;
                let norm = |i: i64| -> usize { (if i < 0 { i + len } else { i }).clamp(0, len) as usize };
                let (f, t) = (norm(*from), norm(*to));
                Ok(Value::Array(a[f.min(t)..t.max(f).min(a.len())].to_vec()))
            }
            _ => Err(arg_err("slice(list, from, to)")),
        },
        "sort" => match args {
            [Value::Array(a)] => {
                let mut a = a.clone();
                // Sort numbers before strings; stable within kind.
                a.sort_by(|x, y| match (x.as_f64(), y.as_f64()) {
                    (Some(p), Some(q)) => p.partial_cmp(&q).unwrap_or(std::cmp::Ordering::Equal),
                    (Some(_), None) => std::cmp::Ordering::Less,
                    (None, Some(_)) => std::cmp::Ordering::Greater,
                    (None, None) => x.to_string().cmp(&y.to_string()),
                });
                Ok(Value::Array(a))
            }
            _ => Err(arg_err("sort(list)")),
        },
        "reverse" => match args {
            [Value::Array(a)] => Ok(Value::Array(a.iter().rev().cloned().collect())),
            [Value::Str(s)] => Ok(Value::Str(s.chars().rev().collect())),
            _ => Err(arg_err("reverse(list|string)")),
        },
        "contains" => match args {
            [Value::Array(a), v] => Ok(Value::Bool(a.iter().any(|x| crate::runtime::value_eq(x, v)))),
            [Value::Str(s), Value::Str(sub)] => Ok(Value::Bool(s.contains(sub.as_str()))),
            [Value::Object(m), Value::Str(k)] => Ok(Value::Bool(m.contains_key(k))),
            _ => Err(arg_err("contains(list|string|map, value)")),
        },
        "get" => match args {
            [c, k] => get(c, k, None),
            [c, k, d] => get(c, k, Some(d)),
            _ => Err(get_err()),
        },
        "keys" => match args {
            [Value::Object(m)] => {
                Ok(Value::Array(m.keys().map(|k| Value::Str(k.as_str().to_owned())).collect()))
            }
            _ => Err(arg_err("keys(map)")),
        },
        "values" => match args {
            [Value::Object(m)] => Ok(Value::Array(m.values().cloned().collect())),
            _ => Err(arg_err("values(map)")),
        },
        "remove" => match args {
            [Value::Object(m), Value::Str(k)] => {
                let mut m = m.clone();
                m.remove(k);
                Ok(Value::Object(m))
            }
            _ => Err(arg_err("remove(map, key)")),
        },
        "merge" => match args {
            [Value::Object(a), Value::Object(b)] => {
                let mut m: Map = a.clone();
                for (k, v) in b {
                    m.insert(k.clone(), v.clone());
                }
                Ok(Value::Object(m))
            }
            _ => Err(arg_err("merge(map, map)")),
        },
        "type" => match args {
            [v] => Ok(Value::Str(v.type_name().to_string())),
            _ => Err(arg_err("type(value)")),
        },
        "round" => match args {
            [v] => arm(|| Ok(Value::Int(num(v, "round")?.round() as i64))),
            [v, Value::Int(d)] => arm(|| {
                let m = 10f64.powi(*d as i32);
                finite((num(v, "round")? * m).round() / m, "round", 0)
            }),
            _ => Err(arg_err("round(number, digits?)")),
        },
        // String helpers are accessible unqualified too (Python-ish feel).
        "split" | "join" | "upper" | "lower" | "trim" | "replace" | "startswith" | "endswith" => {
            return call_strings(name, args)
        }
        "sqrt" | "floor" | "ceil" | "pow" | "exp" | "log" => return call_math(name, args),
        _ => return None,
    };
    Some(r)
}

/// `get(container, key, default?)`: the table's `get` and the VM's fused
/// one. Null is treated as an empty map: uninitialized state reads fall
/// back to the default instead of erroring.
pub(crate) fn get(container: &Value, key: &Value, default: Option<&Value>) -> R {
    let found = match (container, key) {
        (Value::Null, _) => None,
        (Value::Object(m), Value::Str(k)) => m.get(k),
        (Value::Array(a), Value::Int(i)) => position(*i, a.len()).map(|p| &a[p]),
        _ => return Err(get_err()),
    };
    Ok(found.or(default).cloned().unwrap_or(Value::Null))
}

fn get_err() -> ScriptError {
    arg_err("get(map|list, key, default?)")
}

/// `range(start, stop, step)`, `step` non-zero. Its length is computed
/// first, so a list too large to hold is refused before it is allocated.
fn range(start: i64, stop: i64, step: i64) -> R {
    let (span, stride) = (stop as i128 - start as i128, step as i128);
    let len = if span.signum() == stride.signum() { (span.abs() - 1) / stride.abs() + 1 } else { 0 };
    if len * std::mem::size_of::<Value>() as i128 > MAX_ALLOC_BYTES as i128 {
        return Err(arg_err(format!("range: {len} elements exceed {MAX_ALLOC_BYTES} bytes")));
    }
    Ok(Value::Array((0..len as i64).map(|k| Value::Int(start.wrapping_add(k.wrapping_mul(step)))).collect()))
}

fn call_math(name: &str, args: &[Value]) -> Option<R> {
    let r = match name {
        "sqrt" => match args {
            [v] => arm(|| {
                let f = num(v, "sqrt")?;
                if f < 0.0 {
                    Err(arg_err("sqrt of negative number"))
                } else {
                    Ok(Value::Float(f.sqrt()))
                }
            }),
            _ => Err(arg_err("sqrt(number)")),
        },
        "floor" => match args {
            [v] => arm(|| Ok(Value::Int(num(v, "floor")?.floor() as i64))),
            _ => Err(arg_err("floor(number)")),
        },
        "ceil" => match args {
            [v] => arm(|| Ok(Value::Int(num(v, "ceil")?.ceil() as i64))),
            _ => Err(arg_err("ceil(number)")),
        },
        "pow" => match args {
            [Value::Int(b), Value::Int(e)] if *e >= 0 && *e < 63 => Ok(Value::Int(b.wrapping_pow(*e as u32))),
            [a, b] => arm(|| finite(num(a, "pow")?.powf(num(b, "pow")?), "pow", 0)),
            _ => Err(arg_err("pow(base, exp)")),
        },
        "exp" => match args {
            [v] => arm(|| finite(num(v, "exp")?.exp(), "exp", 0)),
            _ => Err(arg_err("exp(number)")),
        },
        "log" => match args {
            [v] => arm(|| {
                let f = num(v, "log")?;
                if f <= 0.0 {
                    Err(arg_err("log of non-positive number"))
                } else {
                    Ok(Value::Float(f.ln()))
                }
            }),
            [v, b] => arm(|| {
                let (f, base) = (num(v, "log")?, num(b, "log")?);
                if f <= 0.0 || base <= 0.0 || base == 1.0 {
                    Err(arg_err("log domain error"))
                } else {
                    Ok(Value::Float(f.log(base)))
                }
            }),
            _ => Err(arg_err("log(number, base?)")),
        },
        "sin" => match args {
            [v] => arm(|| Ok(Value::Float(num(v, "sin")?.sin()))),
            _ => Err(arg_err("sin(number)")),
        },
        "cos" => match args {
            [v] => arm(|| Ok(Value::Float(num(v, "cos")?.cos()))),
            _ => Err(arg_err("cos(number)")),
        },
        "atan2" => match args {
            [y, x] => arm(|| Ok(Value::Float(num(y, "atan2")?.atan2(num(x, "atan2")?)))),
            _ => Err(arg_err("atan2(y, x)")),
        },
        "pi" => {
            if args.is_empty() {
                Ok(Value::Float(std::f64::consts::PI))
            } else {
                Err(arg_err("pi()"))
            }
        }
        _ => return None,
    };
    Some(r)
}

fn call_strings(name: &str, args: &[Value]) -> Option<R> {
    let r = match name {
        "split" => match args {
            [Value::Str(s)] => {
                Ok(Value::Array(s.split_whitespace().map(|p| Value::Str(p.to_string())).collect()))
            }
            [Value::Str(s), Value::Str(sep)] => {
                if sep.is_empty() {
                    return Some(Err(arg_err("split: empty separator")));
                }
                Ok(Value::Array(s.split(sep.as_str()).map(|p| Value::Str(p.to_string())).collect()))
            }
            _ => Err(arg_err("split(string, sep?)")),
        },
        "join" => match args {
            [Value::Array(a), Value::Str(sep)] => arm(|| {
                let parts: Result<Vec<String>, ScriptError> = a
                    .iter()
                    .map(|v| match v {
                        Value::Str(s) => Ok(s.clone()),
                        other => Ok(other.to_string()),
                    })
                    .collect();
                Ok(Value::Str(parts?.join(sep)))
            }),
            _ => Err(arg_err("join(list, sep)")),
        },
        "upper" => match args {
            [Value::Str(s)] => Ok(Value::Str(s.to_uppercase())),
            _ => Err(arg_err("upper(string)")),
        },
        "lower" => match args {
            [Value::Str(s)] => Ok(Value::Str(s.to_lowercase())),
            _ => Err(arg_err("lower(string)")),
        },
        "trim" => match args {
            [Value::Str(s)] => Ok(Value::Str(s.trim().to_string())),
            _ => Err(arg_err("trim(string)")),
        },
        "replace" => match args {
            [Value::Str(s), Value::Str(from), Value::Str(to)] => {
                if from.is_empty() {
                    return Some(Err(arg_err("replace: empty pattern")));
                }
                Ok(Value::Str(s.replace(from.as_str(), to)))
            }
            _ => Err(arg_err("replace(string, from, to)")),
        },
        "startswith" => match args {
            [Value::Str(s), Value::Str(p)] => Ok(Value::Bool(s.starts_with(p.as_str()))),
            _ => Err(arg_err("startswith(string, prefix)")),
        },
        "endswith" => match args {
            [Value::Str(s), Value::Str(p)] => Ok(Value::Bool(s.ends_with(p.as_str()))),
            _ => Err(arg_err("endswith(string, suffix)")),
        },
        "chars" => match args {
            [Value::Str(s)] => Ok(Value::Array(s.chars().map(|c| Value::Str(c.to_string())).collect())),
            _ => Err(arg_err("chars(string)")),
        },
        _ => return None,
    };
    Some(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_json::jarr;

    fn c(name: &str, args: &[Value]) -> Value {
        call(None, name, args).expect("builtin exists").expect("builtin ok")
    }

    fn cm(module: &str, name: &str, args: &[Value]) -> Value {
        call(Some(module), name, args).expect("builtin exists").expect("builtin ok")
    }

    #[test]
    fn collection_builtins() {
        assert_eq!(c("len", &[Value::Str("héllo".into())]), Value::Int(5));
        assert_eq!(c("len", &[jarr![1, 2]]), Value::Int(2));
        assert_eq!(c("range", &[Value::Int(3)]), jarr![0, 1, 2]);
        assert_eq!(c("range", &[Value::Int(5), Value::Int(1), Value::Int(-2)]), jarr![5, 3]);
        let (min, max) = (Value::Int(i64::MIN), Value::Int(i64::MAX));
        assert_eq!(c("range", &[min, max.clone(), max]), jarr![i64::MIN, -1, i64::MAX - 1]);
        assert!(call(None, "range", &[Value::Int(1 << 40)]).unwrap().is_err());
        assert_eq!(c("push", &[jarr![1], Value::Int(2)]), jarr![1, 2]);
        assert_eq!(c("sort", &[jarr![3, 1, 2]]), jarr![1, 2, 3]);
        assert_eq!(c("reverse", &[jarr![1, 2]]), jarr![2, 1]);
        assert_eq!(c("sum", &[jarr![1, 2, 3]]), Value::Int(6));
        assert_eq!(c("sum", &[jarr![1, 2.5]]), Value::Float(3.5));
        assert_eq!(c("slice", &[jarr![1, 2, 3, 4], Value::Int(1), Value::Int(3)]), jarr![2, 3]);
        assert_eq!(c("slice", &[jarr![1, 2, 3, 4], Value::Int(-2), Value::Int(4)]), jarr![3, 4]);
    }

    #[test]
    fn min_max() {
        assert_eq!(c("min", &[Value::Int(3), Value::Int(1)]), Value::Int(1));
        assert_eq!(c("max", &[jarr![1, 9.5, 3]]), Value::Float(9.5));
        assert!(call(None, "min", &[jarr![]]).unwrap().is_err());
    }

    #[test]
    fn conversions() {
        assert_eq!(c("int", &[Value::Str(" 42 ".into())]), Value::Int(42));
        assert_eq!(c("int", &[Value::Float(2.9)]), Value::Int(2));
        assert_eq!(c("float", &[Value::Int(2)]), Value::Float(2.0));
        assert_eq!(c("str", &[Value::Int(7)]), Value::Str("7".into()));
        assert_eq!(c("str", &[Value::Str("x".into())]), Value::Str("x".into()));
        assert_eq!(c("type", &[jarr![]]), Value::Str("array".into()));
        assert!(call(None, "int", &[Value::Str("nope".into())]).unwrap().is_err());
    }

    #[test]
    fn map_builtins() {
        let m = laminar_json::jobj! { "a" => 1, "b" => 2 };
        assert_eq!(c("keys", std::slice::from_ref(&m)), jarr!["a", "b"]);
        assert_eq!(c("values", std::slice::from_ref(&m)), jarr![1, 2]);
        assert_eq!(c("get", &[m.clone(), Value::Str("a".into())]), Value::Int(1));
        assert_eq!(c("get", &[m.clone(), Value::Str("z".into()), Value::Int(0)]), Value::Int(0));
        // A list position counts from the end when negative, as `xs[i]` does.
        let xs = jarr![1, 2];
        assert_eq!(c("get", &[xs.clone(), Value::Int(-1), Value::Int(0)]), Value::Int(2));
        assert_eq!(c("get", &[xs.clone(), Value::Int(-2), Value::Int(0)]), Value::Int(1));
        for out in [2, -3, i64::MIN, i64::MAX] {
            assert_eq!(
                c("get", &[xs.clone(), Value::Int(out), Value::Int(0)]),
                Value::Int(0),
                "get(xs, {out}, 0)"
            );
        }
        assert_eq!(c("contains", &[m.clone(), Value::Str("b".into())]), Value::Bool(true));
        let removed = c("remove", &[m.clone(), Value::Str("a".into())]);
        assert!(removed.get("a").is_none());
        let merged = c("merge", &[m, laminar_json::jobj! { "c" => 3 }]);
        assert_eq!(merged["c"], Value::Int(3));
    }

    #[test]
    fn math_builtins() {
        assert_eq!(cm("math", "sqrt", &[Value::Int(9)]), Value::Float(3.0));
        assert_eq!(cm("math", "floor", &[Value::Float(2.7)]), Value::Int(2));
        assert_eq!(cm("math", "ceil", &[Value::Float(2.1)]), Value::Int(3));
        assert_eq!(cm("math", "pow", &[Value::Int(2), Value::Int(10)]), Value::Int(1024));
        assert_eq!(cm("math", "pow", &[Value::Float(4.0), Value::Float(0.5)]), Value::Float(2.0));
        assert!(call(Some("math"), "sqrt", &[Value::Int(-1)]).unwrap().is_err());
        assert!(call(Some("math"), "log", &[Value::Int(0)]).unwrap().is_err());
        // unqualified aliases
        assert_eq!(c("sqrt", &[Value::Int(4)]), Value::Float(2.0));
    }

    #[test]
    fn a_non_finite_float_is_an_error_where_it_is_made() {
        let kind = |name: &str, args: &[Value]| call(None, name, args).unwrap().unwrap_err().kind;
        assert_eq!(kind("exp", &[Value::Int(1000)]), ErrorKind::Overflow);
        assert_eq!(kind("pow", &[Value::Float(10.0), Value::Int(400)]), ErrorKind::Overflow);
        assert_eq!(kind("sum", &[jarr![1e308, 1e308]]), ErrorKind::Overflow);
        assert_eq!(kind("round", &[Value::Float(1.5), Value::Int(400)]), ErrorKind::Overflow);
        for text in ["nan", "inf", "-infinity", "1e400"] {
            assert_eq!(kind("float", &[Value::Str(text.into())]), ErrorKind::ArgumentError, "{text}");
        }
        assert_eq!(c("float", &[Value::Str("1e308".into())]), Value::Float(1e308));
    }

    #[test]
    fn string_builtins() {
        assert_eq!(cm("strings", "split", &[Value::Str("a b  c".into())]), jarr!["a", "b", "c"]);
        assert_eq!(
            cm("strings", "split", &[Value::Str("a,b".into()), Value::Str(",".into())]),
            jarr!["a", "b"]
        );
        assert_eq!(cm("strings", "join", &[jarr!["x", 1], Value::Str("-".into())]), Value::Str("x-1".into()));
        assert_eq!(c("upper", &[Value::Str("ab".into())]), Value::Str("AB".into()));
        assert_eq!(c("trim", &[Value::Str("  x ".into())]), Value::Str("x".into()));
        assert_eq!(
            c("replace", &[Value::Str("aXa".into()), Value::Str("X".into()), Value::Str("b".into())]),
            Value::Str("aba".into())
        );
        assert_eq!(c("startswith", &[Value::Str("abc".into()), Value::Str("ab".into())]), Value::Bool(true));
    }

    #[test]
    fn unknown_builtin_is_none() {
        assert!(call(None, "no_such_fn", &[]).is_none());
        assert!(call(Some("nomod"), "f", &[]).is_none());
        assert!(call(Some("math"), "no_such", &[]).is_none());
    }

    #[test]
    fn round_builtin() {
        assert_eq!(c("round", &[Value::Float(2.5)]), Value::Int(3));
        assert_eq!(c("round", &[Value::Float(2.444), Value::Int(2)]), Value::Float(2.44));
    }
}
