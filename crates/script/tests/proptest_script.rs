//! Property tests for LamScript: printer/parser stability and interpreter
//! robustness.

use laminar_json::Value;
use laminar_oracle::Interp;
use laminar_script::{parse_script, to_source, NullHost, Script, VecSink};
use proptest::prelude::*;

/// Generate random (syntactically valid) PE sources from a grammar-directed
/// template space.
fn arb_pe_source() -> impl Strategy<Value = String> {
    let idents = prop::sample::select(vec!["x", "y", "total", "word", "acc", "v7"]);
    let ops = prop::sample::select(vec!["+", "-", "*", "%"]);
    let cmps = prop::sample::select(vec!["<", "<=", ">", ">=", "==", "!="]);
    (idents, ops, cmps, 1..50i64, prop::bool::ANY, prop::bool::ANY).prop_map(
        |(var, op, cmp, n, with_loop, with_state)| {
            let mut body = String::new();
            body.push_str(&format!("let {var} = input; "));
            if with_loop {
                body.push_str(&format!("let i = 0; while i < 3 {{ {var} = {var} {op} {n}; i = i + 1; }} "));
            } else {
                body.push_str(&format!("{var} = {var} {op} {n}; "));
            }
            if with_state {
                body.push_str("state.acc = get(state, \"acc\", 0) + 1; ");
            }
            body.push_str(&format!("if {var} {cmp} {n} {{ emit({var}); }} else {{ emit({n}); }}"));
            format!("pe Gen : iterative {{ input input; output output; process {{ {body} }} }}")
        },
    )
}

proptest! {
    /// The canonical printer is a fixed point: print(parse(print(parse(s))))
    /// == print(parse(s)).
    #[test]
    fn printer_fixed_point(src in arb_pe_source()) {
        let ast1 = parse_script(&src).unwrap();
        let canon1 = to_source(&ast1);
        let ast2 = parse_script(&canon1).expect("canonical source reparses");
        let canon2 = to_source(&ast2);
        prop_assert_eq!(canon1, canon2);
    }

    /// Generated PEs execute without panicking, and any emitted value is an
    /// Int (the grammar only produces integer dataflow).
    #[test]
    fn generated_pes_execute(src in arb_pe_source(), input in -100..100i64) {
        let script = parse_script(&src).unwrap();
        let pe = script.pe("Gen").unwrap();
        let mut interp = Interp::new(&script, std::sync::Arc::new(NullHost)).with_seed(1);
        let mut state = Value::Null;
        let mut sink = VecSink::default();
        interp.run_init(pe, &mut state, &mut sink).unwrap();
        let r = interp.run_process(pe, Some(Value::Int(input)), None, 0, &mut state, &mut sink);
        prop_assert!(r.is_ok(), "execution failed: {:?}", r);
        for (_, v) in &sink.emitted {
            prop_assert!(matches!(v, Value::Int(_)));
        }
        // Exactly one emit happens per invocation in this grammar.
        prop_assert_eq!(sink.emitted.len(), 1);
    }

    /// The interpreter is deterministic for a fixed seed.
    #[test]
    fn deterministic_under_seed(src in arb_pe_source(), input in -100..100i64) {
        let script = parse_script(&src).unwrap();
        let pe = script.pe("Gen").unwrap();
        let run = || {
            let mut interp = Interp::new(&script, std::sync::Arc::new(NullHost)).with_seed(42);
            let mut state = Value::Null;
            let mut sink = VecSink::default();
            interp.run_init(pe, &mut state, &mut sink).unwrap();
            interp.run_process(pe, Some(Value::Int(input)), None, 0, &mut state, &mut sink).unwrap();
            sink.emitted
        };
        prop_assert_eq!(run(), run());
    }

    /// The parser never panics on arbitrary input strings.
    #[test]
    fn parser_never_panics(s in "\\PC{0,80}") {
        let _ = parse_script(&s);
    }

    /// Canonicalize is idempotent where defined.
    #[test]
    fn canonicalize_idempotent(src in arb_pe_source()) {
        let once = laminar_script::canonicalize(&src).unwrap();
        let twice = laminar_script::canonicalize(&once).unwrap();
        prop_assert_eq!(once, twice);
    }
}

#[test]
fn script_type_is_reexported() {
    // Compile-time check that the facade exports line up.
    fn takes_script(_: &Script) {}
    let s = parse_script("import x;").unwrap();
    takes_script(&s);
}
