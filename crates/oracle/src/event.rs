//! The wire form of a run event built as a `Value` tree, field by field:
//! the reference `RunEvent::write_json`'s text is checked against.

use laminar_dataflow::RunEvent;
use laminar_json::Value;

/// The wire form of `event` at `seq` as a tree.
pub fn event_tree(event: &RunEvent, seq: u64) -> Value {
    let mut v = Value::Null;
    v.set("seq", seq as i64);
    match event {
        RunEvent::PlanReady { pes } => {
            let mut m = Value::Null;
            for (pe, n) in pes {
                m.set(pe, *n);
            }
            v.set("type", "plan").set("pes", m);
        }
        RunEvent::InstanceStarted { pe, instance } => {
            v.set("type", "started").set("pe", &**pe).set("instance", *instance);
        }
        RunEvent::Output { pe, instance, port, value } => {
            v.set("type", "output")
                .set("pe", &**pe)
                .set("instance", *instance)
                .set("port", &**port)
                .set("value", value.clone());
        }
        RunEvent::Print { pe, instance, line } => {
            v.set("type", "print").set("pe", &**pe).set("instance", *instance).set("line", line.as_str());
        }
        RunEvent::InstanceFinished { pe, instance, processed, emitted } => {
            v.set("type", "instance_done")
                .set("pe", &**pe)
                .set("instance", *instance)
                .set("processed", *processed as i64)
                .set("emitted", *emitted as i64);
        }
        RunEvent::Epoch { id, state } => {
            v.set("type", "epoch").set("epoch", *id as i64).set("state", state.clone());
        }
        RunEvent::Finished { stats } => {
            v.set("type", "finished")
                .set("elapsed_us", stats.elapsed.as_micros() as i64)
                .set("plan_us", stats.timings.plan.as_micros() as i64)
                .set("enact_us", stats.timings.enact.as_micros() as i64)
                .set("collect_us", stats.timings.collect.as_micros() as i64)
                .set("compile_us", stats.timings.compile.as_micros() as i64)
                .set("events", stats.events as i64);
            if let Some(d) = stats.first_output {
                v.set("first_output_us", d.as_micros() as i64);
            }
        }
        RunEvent::Cancelled => {
            v.set("type", "cancelled");
        }
    }
    v
}
