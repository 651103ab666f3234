//! A scripted PE's epoch snapshot resumes its state and RNG stream, on the
//! VM and on the reference interpreter alike.

use laminar_dataflow::{PeFactory, ScriptPeFactory};
use laminar_json::Value;
use laminar_script::VecSink;

#[test]
fn snapshot_roundtrip_resumes_state_and_rng_on_both_backends() {
    let src = r#"
        pe S : iterative {
            input x; output output;
            init { state.n = 0; }
            process { state.n = state.n + 1; emit([state.n, randint(0, 1000000)]); }
        }
    "#;
    let backends: [(&str, Box<dyn PeFactory>); 2] = [
        ("vm", Box::new(ScriptPeFactory::from_source(src, "S").unwrap())),
        ("interp", Box::new(laminar_oracle::InterpPeFactory::from_source(src, "S").unwrap())),
    ];
    for (backend, f) in &backends {
        let mut live = f.instantiate();
        let mut sink = VecSink::default();
        live.setup(0, 1, &mut sink).unwrap();
        live.process(Some(("x", Value::Int(0))), 0, &mut sink).unwrap();
        live.process(Some(("x", Value::Int(0))), 1, &mut sink).unwrap();
        let snap = live.snapshot_state().expect("scripted PEs snapshot");
        assert_eq!(snap["state"]["n"].as_i64(), Some(2));
        // A fresh instance restored from the snapshot continues the
        // exact counter and RNG stream of the live one.
        let mut resumed = f.instantiate();
        let mut rsink = VecSink::default();
        resumed.setup(0, 1, &mut rsink).unwrap();
        resumed.restore_state(&snap);
        rsink.emitted.clear();
        let mut live_sink = VecSink::default();
        live.process(Some(("x", Value::Int(0))), 2, &mut live_sink).unwrap();
        resumed.process(Some(("x", Value::Int(0))), 2, &mut rsink).unwrap();
        assert_eq!(live_sink.emitted, rsink.emitted, "{backend}");
    }
}
