//! The VM against the reference interpreter on a few fixed PEs;
//! `proptest_vm` and `proptest_paths` do the same over generated programs.

use laminar_json::Value;
use laminar_oracle::Interp;
use laminar_script::{compile_script, parse_script, NullHost, Sink, VecSink, Vm};
use std::sync::Arc;

type Observed = (Vec<(String, Value)>, Vec<String>, Value);

fn run_both(src: &str, pe: &str, inputs: Vec<Option<Value>>) -> (Observed, Observed) {
    let script = parse_script(src).unwrap();
    let program = Arc::new(compile_script(&script).unwrap());
    let decl = script.pe(pe).unwrap();

    let mut interp = Interp::new(&script, Arc::new(NullHost)).with_seed(7);
    let mut istate = Value::Null;
    let mut isink = VecSink::default();
    interp.run_init(decl, &mut istate, &mut isink).unwrap();
    for (it, input) in inputs.iter().cloned().enumerate() {
        if let Some(v) = interp.run_process(decl, input, None, it as i64, &mut istate, &mut isink).unwrap() {
            isink.emit(decl.default_output().unwrap_or("output"), v);
        }
    }

    let mut vm = Vm::new(program, Arc::new(NullHost)).with_seed(7);
    let mut vstate = Value::Null;
    let mut vsink = VecSink::default();
    vm.run_init(pe, &mut vstate, &mut vsink).unwrap();
    for (it, input) in inputs.into_iter().enumerate() {
        if let Some(v) = vm.run_process(pe, input, None, it as i64, &mut vstate, &mut vsink).unwrap() {
            vsink.emit(decl.default_output().unwrap_or("output"), v);
        }
    }

    ((isink.port_values(), isink.printed, istate), (vsink.port_values(), vsink.printed, vstate))
}

#[test]
fn vm_matches_interp_on_prime_sieve() {
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
    let inputs: Vec<Option<Value>> = (1..=30).map(|n| Some(Value::Int(n))).collect();
    let (interp, vm) = run_both(src, "IsPrime", inputs);
    assert_eq!(interp, vm);
    let primes: Vec<i64> = vm.0.iter().map(|(_, v)| v.as_i64().unwrap()).collect();
    assert_eq!(primes, vec![2, 3, 5, 7, 11, 13, 17, 19, 23, 29]);
}

#[test]
fn vm_matches_interp_on_stateful_rng_and_functions() {
    let src = r#"
        fn scale(v, k) { return v * k; }
        pe Mix : generic {
            input data;
            output big;
            output small;
            init { state.seen = 0; state.log = []; }
            process {
                state.seen = state.seen + 1;
                let jitter = randint(1, 6);
                let v = scale(data, 10) + jitter;
                state.log = push(state.log, v);
                print("saw", data, "->", v);
                for c in "ab" { state.last_char = c; }
                if v >= 25 { emit("big", v); } else { emit("small", v); }
            }
        }
    "#;
    let inputs: Vec<Option<Value>> = (1..=5).map(|n| Some(Value::Int(n))).collect();
    let (interp, vm) = run_both(src, "Mix", inputs);
    assert_eq!(interp, vm);
}

#[test]
fn vm_matches_interp_on_errors_and_fuel() {
    let src = "pe F : iterative { input x; output o; process { while true { let a = 1; } } }";
    let script = parse_script(src).unwrap();
    let program = Arc::new(compile_script(&script).unwrap());
    let decl = script.pe("F").unwrap();

    let mut interp = Interp::new(&script, Arc::new(NullHost)).with_fuel(10_000);
    let mut istate = Value::Null;
    let mut isink = VecSink::default();
    let ie = interp.run_process(decl, Some(Value::Int(1)), None, 0, &mut istate, &mut isink).unwrap_err();

    let mut vm = Vm::new(program, Arc::new(NullHost)).with_fuel(10_000);
    let mut vstate = Value::Null;
    let mut vsink = VecSink::default();
    let ve = vm.run_process("F", Some(Value::Int(1)), None, 0, &mut vstate, &mut vsink).unwrap_err();

    assert_eq!(ie.kind, ve.kind);
    assert_eq!(ie.message, ve.message);
    assert_eq!(interp.fuel_remaining(), vm.fuel_remaining());
    assert_eq!(istate, vstate);
}
