//! Property: the registry's WAL is a faithful journal even under
//! interleaved writers. Random register/re-register/delete scripts run
//! from multiple threads against one durable registry; afterwards a fresh
//! recovery (snapshot + sequential WAL replay) must reconstruct exactly
//! the live store — pinning crash-recovery and concurrency semantics
//! together.

use laminar_registry::{EntityKey, Registry, WalStore};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, Barrier, RwLock};

const THREADS: usize = 3;

/// One mutation in a thread's script. Indices select from small pools so
/// threads collide on names — exercising the shared-owner link path, the
/// duplicate rejections and delete/re-register races.
#[derive(Debug, Clone, Copy)]
enum Op {
    RegisterPe(u8),
    RemovePe(u8),
    RegisterWorkflow(u8),
    RemoveWorkflow(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4).prop_map(Op::RegisterPe),
        (0u8..4).prop_map(Op::RemovePe),
        (0u8..3).prop_map(Op::RegisterWorkflow),
        (0u8..3).prop_map(Op::RemoveWorkflow),
    ]
}

/// All threads register the same PE code for a given index: identical
/// re-registration takes the shared-owner path (a WAL `link` op) instead
/// of erroring.
fn pe_source(idx: u8) -> String {
    format!("pe Shared{idx} : iterative {{ input x; output output; process {{ emit(x + {idx}); }} }}")
}

fn wf_source(idx: u8) -> String {
    format!(
        r#"
        pe WfPe{idx} : producer {{ output output; process {{ emit(iteration * {idx} + 1); }} }}
        workflow Flow{idx} {{ nodes {{ p = WfPe{idx}; }} }}
    "#
    )
}

fn apply(registry: &RwLock<Registry>, user: &str, op: Op) {
    // Outcomes are deliberately ignored: duplicates, not-founds and
    // mid-workflow failures are all legal under interleaving. The property
    // under test is that whatever the live store ended up as, the WAL
    // replays to the same thing.
    let mut reg = registry.write().unwrap();
    match op {
        Op::RegisterPe(i) => {
            let _ = reg.register_pe(user, &pe_source(i), Some("shared pe"));
        }
        Op::RemovePe(i) => {
            let _ = reg.remove_pe(user, &EntityKey::Name(format!("Shared{i}")));
        }
        Op::RegisterWorkflow(i) => {
            let _ = reg.register_workflow(user, &wf_source(i), &format!("flow{i}"), None);
        }
        Op::RemoveWorkflow(i) => {
            let _ = reg.remove_workflow(user, &EntityKey::Name(format!("flow{i}")));
        }
    }
}

fn tmpdir(case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("laminar-interleaved-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Concurrent writer scripts, then: live store == sequential WAL replay.
    #[test]
    fn wal_replay_equals_live_store(
        scripts in prop::collection::vec(prop::collection::vec(arb_op(), 1..10), THREADS..THREADS + 1),
        case in 0u64..1_000_000,
    ) {
        let dir = tmpdir(case);
        let registry = Registry::open(&dir).unwrap();
        let registry = Arc::new(RwLock::new(registry));
        {
            let mut reg = registry.write().unwrap();
            for t in 0..THREADS {
                reg.register_user(&format!("writer{t}"), "password").unwrap();
            }
        }

        let barrier = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = scripts
            .into_iter()
            .enumerate()
            .map(|(t, script)| {
                let registry = Arc::clone(&registry);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let user = format!("writer{t}");
                    barrier.wait();
                    for op in script {
                        apply(&registry, &user, op);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        // What the concurrent writers produced in memory…
        let live = registry.read().unwrap().dao().store.to_value();
        // …must equal a cold sequential recovery from disk.
        let (recovered, _) = WalStore::open(&dir).unwrap();
        prop_assert_eq!(
            laminar_json::to_string(&recovered.to_value()),
            laminar_json::to_string(&live),
            "sequential WAL replay diverged from the live store"
        );

        // Users still see a consistent per-tenant view after recovery.
        drop(registry);
        let reopened = Registry::open(&dir).unwrap();
        for t in 0..THREADS {
            let user = format!("writer{t}");
            for pe in reopened.all_pes(&user).unwrap() {
                prop_assert!(pe.pe_name.starts_with("Shared") || pe.pe_name.starts_with("WfPe"));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
