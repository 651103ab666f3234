//! Differential property suite: the bytecode VM must be observationally
//! identical to the tree-walking interpreter on generated programs.
//!
//! Compared per invocation: the `Result` (returned value, or error
//! kind/message/line/column), the full `state` value, and the remaining
//! fuel (which pins the *order* of fuel burns, not just the total). Compared
//! at the end: every emission (port + value, in order) and every print.
//!
//! Low fuel budgets are part of the strategy space so that exhaustion
//! inside loops, calls and composite expressions lands on the same
//! instruction in both engines.

mod common;

use laminar_json::Value;
use laminar_oracle::Interp;
use laminar_script::{compile_script, parse_script, ErrorKind, NullHost, VecSink, Vm};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

fn check_differential(src: &str, runs: &[(Value, u8)], fuel: u64, seed: u64) {
    let script = parse_script(src).expect("generated source parses");
    let program = Arc::new(compile_script(&script).expect("generated source compiles"));
    let decl = script.pe(common::PE_NAME).expect("PE present");
    let port_name = decl.inputs.first().map(|p| p.name.clone()).unwrap();

    let mut interp = Interp::new(&script, Arc::new(NullHost)).with_fuel(fuel).with_seed(seed);
    let mut vm = Vm::new(program, Arc::new(NullHost)).with_fuel(fuel).with_seed(seed);

    let mut istate = Value::Null;
    let mut vstate = Value::Null;
    let mut isink = VecSink::default();
    let mut vsink = VecSink::default();

    let ii = interp.run_init(decl, &mut istate, &mut isink);
    let vi = vm.run_init(common::PE_NAME, &mut vstate, &mut vsink);
    assert_eq!(ii, vi, "init result diverged\n--- source ---\n{src}");
    assert_eq!(istate, vstate, "state diverged after init\n--- source ---\n{src}");

    for (it, (input, port_choice)) in runs.iter().enumerate() {
        let port = match port_choice {
            0 => None,
            1 => Some(port_name.as_str()),
            _ => Some("other"),
        };
        let ir = interp.run_process(decl, Some(input.clone()), port, it as i64, &mut istate, &mut isink);
        let vr =
            vm.run_process(common::PE_NAME, Some(input.clone()), port, it as i64, &mut vstate, &mut vsink);
        match (&ir, &vr) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "return value diverged at iteration {it}\n--- source ---\n{src}")
            }
            (Err(a), Err(b)) => {
                assert_eq!(a.kind, b.kind, "error kind diverged at iteration {it}\n--- source ---\n{src}");
                assert_eq!(
                    a.message, b.message,
                    "error message diverged at iteration {it}\n--- source ---\n{src}"
                );
                assert_eq!(a.line, b.line, "error line diverged at iteration {it}\n--- source ---\n{src}");
                assert_eq!(
                    a.column, b.column,
                    "error column diverged at iteration {it}\n--- source ---\n{src}"
                );
            }
            _ => {
                panic!("Ok/Err divergence at iteration {it}: interp={ir:?} vm={vr:?}\n--- source ---\n{src}")
            }
        }
        assert_eq!(istate, vstate, "state diverged at iteration {it}\n--- source ---\n{src}");
        assert_eq!(
            interp.fuel_remaining(),
            vm.fuel_remaining(),
            "fuel diverged at iteration {it} (burn order is observable)\n--- source ---\n{src}"
        );
    }

    assert_eq!(isink.port_values(), vsink.port_values(), "emissions diverged\n--- source ---\n{src}");
    assert_eq!(isink.printed, vsink.printed, "prints diverged\n--- source ---\n{src}");
}

/// A float that overflows, or a NaN parsed from text, is the same typed
/// error in both engines, at the operation that made it: JSON could not
/// carry the value to the wire.
#[test]
fn a_non_finite_float_is_the_same_error_in_both_engines() {
    for (expr, kind) in [
        ("exp(1000)", ErrorKind::Overflow),
        ("pow(10.0, 400)", ErrorKind::Overflow),
        ("2.0 * 1e308", ErrorKind::Overflow),
        ("-1e308 - 1e308", ErrorKind::Overflow),
        ("sum([1e308, 1e308])", ErrorKind::Overflow),
        ("float(\"nan\")", ErrorKind::ArgumentError),
    ] {
        let src = format!(
            "pe {} : generic {{ input input; output output; process {{ emit({expr}); }} }}",
            common::PE_NAME
        );
        check_differential(&src, &[(Value::Int(1), 0)], 10_000, 0);
        let program = Arc::new(compile_script(&parse_script(&src).unwrap()).unwrap());
        let mut vm = Vm::new(program, Arc::new(NullHost));
        let err = vm
            .run_process(
                common::PE_NAME,
                Some(Value::Int(1)),
                None,
                0,
                &mut Value::Null,
                &mut VecSink::default(),
            )
            .unwrap_err();
        assert_eq!(err.kind, kind, "{expr}: {err}");
    }
}

proptest! {
    /// VM == interpreter on generated programs under a generous budget.
    #[test]
    fn vm_matches_interp(
        src in common::arb_script_source(),
        runs in vec((common::arb_input(), common::arb_port_choice()), 1..4),
        seed in 0..16u64,
    ) {
        check_differential(&src, &runs, 200_000, seed);
    }

    /// Same, under tight budgets: fuel exhaustion must hit the same point.
    #[test]
    fn vm_matches_interp_under_fuel_pressure(
        src in common::arb_script_source(),
        runs in vec((common::arb_input(), common::arb_port_choice()), 1..3),
        fuel in 1..400u64,
        seed in 0..8u64,
    ) {
        check_differential(&src, &runs, fuel, seed);
    }

    /// The compiled program re-derived from the canonical form behaves the
    /// same as one compiled from the original source (a registered workflow
    /// is prepared from the canonical form the registry stores, so this is
    /// the soundness condition for running it by name).
    /// Error *lines* are excluded: they are positions in the respective
    /// source text, which canonicalization legitimately reflows.
    #[test]
    fn canonical_recompile_matches(
        src in common::arb_script_source(),
        input in common::arb_input(),
        seed in 0..8u64,
    ) {
        let canonical = laminar_script::canonicalize(&src).unwrap();
        let p1 = Arc::new(compile_script(&parse_script(&src).unwrap()).unwrap());
        let p2 = Arc::new(compile_script(&parse_script(&canonical).unwrap()).unwrap());
        let mut out = Vec::new();
        for program in [p1, p2] {
            let mut vm = Vm::new(program, Arc::new(NullHost)).with_fuel(100_000).with_seed(seed);
            let mut state = Value::Null;
            let mut sink = VecSink::default();
            let _ = vm.run_init(common::PE_NAME, &mut state, &mut sink);
            let r = vm.run_process(common::PE_NAME, Some(input.clone()), None, 0, &mut state, &mut sink)
                .map_err(|e| (e.kind, e.message));
            out.push((r, state, sink.port_values(), sink.printed, vm.fuel_remaining()));
        }
        prop_assert_eq!(&out[0], &out[1]);
    }
}
