//! The on-disk formats are a contract with directories already written:
//! `registry.wal` and `registry.snapshot` below are literal bytes in the
//! format the registry wrote while its tables still held JSON rows (user,
//! PE with embeddings, workflow, link, unlink, delete, remove_right and
//! remove_left all occur). Typed tables must read them, answer searches
//! from them exactly as a live registry built by the same operations
//! does, and write the same bytes back.

use laminar_embed::Embedding;
use laminar_oracle::scan;
use laminar_registry::dao::Dao;
use laminar_registry::entities::{encode_code, hash_password};
use laminar_registry::search::{ranked_pe_hits, text_search_pes, text_search_workflows};
use laminar_registry::wal::WalStore;
use laminar_registry::{
    PeEntity, QueryType, Registry, RegistryError, SearchHit, SearchOptions, SearchType, UserEntity, VecField,
    WorkflowEntity,
};
use std::path::PathBuf;

const WAL: &str = r#"{"id":1,"op":"insert","row":{"password":"cdf9e6d7b7ba924b5ce7a5c5a57e9b37","userId":1,"userName":"alice"},"table":"users"}
{"id":2,"op":"insert","row":{"password":"b183b976966a533871920e9fe9239e51","userId":2,"userName":"bob"},"table":"users"}
{"id":1,"op":"insert","row":{"codeEmbedding":[0.5,-0.25,0.0],"descEmbedding":[1.0,0.0],"description":"checks prime numbers","descriptionGenerated":false,"peCode":"TFBLAVcAAAAHAgZmb3JtYXQFC2xhbXNjcmlwdC8xBnNvdXJjZQU4cGUgSXNQcmltZSA6IHByb2R1Y2VyIHsgb3V0cHV0IG87IHByb2Nlc3MgeyBlbWl0KDEpOyB9IH1jy/0m","peId":1,"peImports":["math"],"peName":"IsPrime"},"table":"pes"}
{"junction":"user_pes","left":1,"op":"link","right":1}
{"id":2,"op":"insert","row":{"codeEmbedding":[0.10000000149011612,0.20000000298023224,0.30000001192092896],"descEmbedding":[0.6000000238418579,0.800000011920929],"description":"counts the words of a stream","descriptionGenerated":true,"peCode":"TFBLAVkAAAAHAgZmb3JtYXQFC2xhbXNjcmlwdC8xBnNvdXJjZQU6cGUgV29yZENvdW50IDogcHJvZHVjZXIgeyBvdXRwdXQgbzsgcHJvY2VzcyB7IGVtaXQoMSk7IH0gfZiMNUg=","peId":2,"peImports":[],"peName":"WordCount"},"table":"pes"}
{"junction":"user_pes","left":1,"op":"link","right":2}
{"id":3,"op":"insert","row":{"codeEmbedding":[1.0,1.0,1.0],"descEmbedding":[-1.0,0.5],"description":"","descriptionGenerated":false,"peCode":"TFBLAVcAAAAHAgZmb3JtYXQFC2xhbXNjcmlwdC8xBnNvdXJjZQU4cGUgU2NyYXRjaCA6IHByb2R1Y2VyIHsgb3V0cHV0IG87IHByb2Nlc3MgeyBlbWl0KDEpOyB9IH34ztub","peId":3,"peImports":[],"peName":"Scratch"},"table":"pes"}
{"junction":"user_pes","left":2,"op":"link","right":3}
{"junction":"user_pes","left":2,"op":"link","right":1}
{"id":1,"op":"insert","row":{"description":"prints prime numbers","entryPoint":"isPrime","workflowCode":"TFBLATUAAAAHAgZmb3JtYXQFC2xhbXNjcmlwdC8xBnNvdXJjZQUWd29ya2Zsb3cgUHJpbWVGbG93IHsgfQbpnys=","workflowId":1,"workflowName":"PrimeFlow"},"table":"workflows"}
{"junction":"user_workflows","left":1,"op":"link","right":1}
{"id":2,"op":"insert","row":{"description":"","entryPoint":"scratch","workflowCode":"TFBLATcAAAAHAgZmb3JtYXQFC2xhbXNjcmlwdC8xBnNvdXJjZQUYd29ya2Zsb3cgU2NyYXRjaEZsb3cgeyB9Q+vCqQ==","workflowId":2,"workflowName":"ScratchFlow"},"table":"workflows"}
{"junction":"user_workflows","left":2,"op":"link","right":2}
{"junction":"workflow_pes","left":1,"op":"link","right":1}
{"junction":"workflow_pes","left":1,"op":"link","right":2}
{"junction":"workflow_pes","left":2,"op":"link","right":3}
{"junction":"workflow_pes","left":2,"op":"link","right":1}
{"junction":"user_pes","left":1,"op":"unlink","right":1}
{"junction":"user_pes","left":2,"op":"unlink","right":3}
{"id":3,"op":"delete","table":"pes"}
{"junction":"workflow_pes","op":"remove_right","right":3}
{"junction":"user_workflows","left":2,"op":"unlink","right":2}
{"id":2,"op":"delete","table":"workflows"}
{"junction":"workflow_pes","left":2,"op":"remove_left"}
"#;

const SNAPSHOT: &str = r#"{"pes":{"name":"pes","next_id":4,"rows":[{"id":1,"row":{"codeEmbedding":[0.5,-0.25,0.0],"descEmbedding":[1.0,0.0],"description":"checks prime numbers","descriptionGenerated":false,"peCode":"TFBLAVcAAAAHAgZmb3JtYXQFC2xhbXNjcmlwdC8xBnNvdXJjZQU4cGUgSXNQcmltZSA6IHByb2R1Y2VyIHsgb3V0cHV0IG87IHByb2Nlc3MgeyBlbWl0KDEpOyB9IH1jy/0m","peId":1,"peImports":["math"],"peName":"IsPrime"}},{"id":2,"row":{"codeEmbedding":[0.10000000149011612,0.20000000298023224,0.30000001192092896],"descEmbedding":[0.6000000238418579,0.800000011920929],"description":"counts the words of a stream","descriptionGenerated":true,"peCode":"TFBLAVkAAAAHAgZmb3JtYXQFC2xhbXNjcmlwdC8xBnNvdXJjZQU6cGUgV29yZENvdW50IDogcHJvZHVjZXIgeyBvdXRwdXQgbzsgcHJvY2VzcyB7IGVtaXQoMSk7IH0gfZiMNUg=","peId":2,"peImports":[],"peName":"WordCount"}}],"unique":["peName"]},"user_pes":[[1,2],[2,1]],"user_workflows":[[1,1]],"users":{"name":"users","next_id":3,"rows":[{"id":1,"row":{"password":"cdf9e6d7b7ba924b5ce7a5c5a57e9b37","userId":1,"userName":"alice"}},{"id":2,"row":{"password":"b183b976966a533871920e9fe9239e51","userId":2,"userName":"bob"}}],"unique":["userName"]},"workflow_pes":[[1,1],[1,2]],"workflows":{"name":"workflows","next_id":3,"rows":[{"id":1,"row":{"description":"prints prime numbers","entryPoint":"isPrime","workflowCode":"TFBLATUAAAAHAgZmb3JtYXQFC2xhbXNjcmlwdC8xBnNvdXJjZQUWd29ya2Zsb3cgUHJpbWVGbG93IHsgfQbpnys=","workflowId":1,"workflowName":"PrimeFlow"}}],"unique":["entryPoint"]}}"#;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("laminar-disk-format-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn user(name: &str) -> UserEntity {
    UserEntity { user_id: 0, user_name: name.into(), password_hash: hash_password(name, "password") }
}

fn pe(
    name: &str,
    description: &str,
    generated: bool,
    imports: &[&str],
    code: &[f32],
    desc: &[f32],
) -> PeEntity {
    PeEntity {
        pe_id: 0,
        pe_name: name.into(),
        description: description.into(),
        description_generated: generated,
        pe_code: encode_code(&format!("pe {name} : producer {{ output o; process {{ emit(1); }} }}")),
        pe_imports: imports.iter().map(|s| s.to_string()).collect(),
        code_embedding: Embedding::from_dense(code),
        desc_embedding: Embedding::from_dense(desc),
    }
}

fn wf(name: &str, entry: &str, description: &str) -> WorkflowEntity {
    let code = laminar_script::prepare(&format!("workflow {name} {{ }}")).unwrap();
    WorkflowEntity::new(name, entry, description, code)
}

/// The operations `WAL` journals, run live against a durable DAO.
fn live(dir: &std::path::Path) -> Dao {
    let (store, wal) = WalStore::open(dir).unwrap();
    let mut d = Dao::new(store, wal);
    let alice = d.insert_user(user("alice")).unwrap().user_id;
    let bob = d.insert_user(user("bob")).unwrap().user_id;
    let is_prime = d
        .insert_pe(
            pe("IsPrime", "checks prime numbers", false, &["math"], &[0.5, -0.25, 0.0], &[1.0, 0.0]),
            alice,
        )
        .unwrap()
        .pe_id;
    let word_count = d
        .insert_pe(
            pe("WordCount", "counts the words of a stream", true, &[], &[0.1, 0.2, 0.3], &[0.6, 0.8]),
            alice,
        )
        .unwrap()
        .pe_id;
    let scratch =
        d.insert_pe(pe("Scratch", "", false, &[], &[1.0, 1.0, 1.0], &[-1.0, 0.5]), bob).unwrap().pe_id;
    d.link_user_pe(bob, is_prime).unwrap();
    let flow_a =
        d.insert_workflow(wf("PrimeFlow", "isPrime", "prints prime numbers"), alice).unwrap().workflow_id;
    let flow_b = d.insert_workflow(wf("ScratchFlow", "scratch", ""), bob).unwrap().workflow_id;
    d.link_workflow_pe(flow_a, is_prime).unwrap();
    d.link_workflow_pe(flow_a, word_count).unwrap();
    d.link_workflow_pe(flow_b, scratch).unwrap();
    d.link_workflow_pe(flow_b, is_prime).unwrap();
    d.remove_pe_for_user(alice, is_prime).unwrap();
    d.remove_pe_for_user(bob, scratch).unwrap();
    d.remove_workflow_for_user(bob, flow_b).unwrap();
    d
}

/// Every search mode for both tenants, through the index and through the
/// scan.
fn searches(dao: &Dao) -> Vec<Vec<SearchHit>> {
    let mut out = Vec::new();
    let opts = SearchOptions::default();
    let desc = Embedding::from_dense(&[0.9, 0.1]);
    let code = Embedding::from_dense(&[0.2, 0.2, 0.4]);
    for uid in [1, 2] {
        out.push(ranked_pe_hits(dao, uid, &desc, VecField::Desc, &opts));
        out.push(ranked_pe_hits(dao, uid, &code, VecField::Code, &opts));
        out.push(text_search_pes(dao, uid, "prime", &opts));
        out.push(text_search_workflows(dao, uid, "prime numbers", &opts));
    }
    for uid in [1, 2] {
        out.push(scan::ranked_pe_hits(dao, uid, &desc, VecField::Desc, opts.limit));
        out.push(scan::ranked_pe_hits(dao, uid, &code, VecField::Code, opts.limit));
        out.push(scan::text_search_pes(dao, uid, "prime", opts.limit));
        out.push(scan::text_search_workflows(dao, uid, "prime numbers", opts.limit));
    }
    out
}

#[test]
fn a_wal_in_the_row_era_format_opens_searches_and_resnapshots_identically() {
    let live_dir = tmpdir("live");
    let live = live(&live_dir);
    assert_eq!(std::fs::read_to_string(live_dir.join("registry.wal")).unwrap(), WAL, "the WAL we write");

    let dir = tmpdir("wal");
    std::fs::write(dir.join("registry.wal"), WAL).unwrap();
    let mut reg = Registry::open(&dir).unwrap();
    assert_eq!(
        laminar_json::to_string(&reg.dao().store.to_value()),
        SNAPSHOT,
        "the store the WAL replays to"
    );
    let expected = searches(&live);
    assert!(expected.iter().filter(|hits| !hits.is_empty()).count() >= 12, "the searches find things");
    assert_eq!(searches(reg.dao()), expected);
    // The front door serves the recovered entities too.
    let hits = reg.search("bob", "prime", SearchType::Both, QueryType::Text).unwrap();
    assert_eq!(hits.iter().map(|h| h.name.as_str()).collect::<Vec<_>>(), ["IsPrime"]);
    assert!(reg.get_pe("bob", &"IsPrime".into()).unwrap().source().unwrap().contains("pe IsPrime"));

    reg.checkpoint().unwrap();
    assert_eq!(
        std::fs::read_to_string(dir.join("registry.snapshot")).unwrap(),
        SNAPSHOT,
        "the snapshot we write"
    );
    assert_eq!(std::fs::metadata(dir.join("registry.wal")).unwrap().len(), 0);
    for dir in [live_dir, dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn a_snapshot_in_the_row_era_format_opens_and_resnapshots_identically() {
    let dir = tmpdir("snapshot");
    std::fs::write(dir.join("registry.snapshot"), SNAPSHOT).unwrap();
    // A WAL tail on top of the snapshot: alice takes IsPrime back.
    std::fs::write(
        dir.join("registry.wal"),
        "{\"junction\":\"user_pes\",\"left\":1,\"op\":\"link\",\"right\":1}\n",
    )
    .unwrap();
    let mut reg = Registry::open(&dir).unwrap();
    assert_eq!(reg.all_pes("alice").unwrap().len(), 2);
    reg.remove_pe("alice", &"IsPrime".into()).unwrap();
    assert_eq!(laminar_json::to_string(&reg.dao().store.to_value()), SNAPSHOT);
    reg.checkpoint().unwrap();
    assert_eq!(std::fs::read_to_string(dir.join("registry.snapshot")).unwrap(), SNAPSHOT);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn recovery_rejects_a_record_whose_row_does_not_decode() {
    // Well-formed JSON, well-formed op, but the PE row has no
    // `descEmbedding`. A store of JSON rows opened this and failed on the
    // first read of the row; typed tables refuse it at the door.
    let dir = tmpdir("badrow");
    let bad =
        WAL.lines().map(|l| l.replacen("\"descEmbedding\":[1.0,0.0],", "", 1) + "\n").collect::<String>();
    assert_ne!(bad, WAL);
    std::fs::write(dir.join("registry.wal"), bad).unwrap();
    match Registry::open(&dir) {
        Err(RegistryError::Storage(m)) => assert!(m.contains("corrupt pes row 1"), "{m}"),
        Err(other) => panic!("expected a Storage error, got {other:?}"),
        Ok(_) => panic!("a row that does not decode was admitted"),
    }
    // The same row inside a snapshot is refused the same way.
    let dir2 = tmpdir("badsnap");
    std::fs::write(dir2.join("registry.snapshot"), SNAPSHOT.replacen("\"descEmbedding\":[1.0,0.0],", "", 1))
        .unwrap();
    assert!(matches!(Registry::open(&dir2), Err(RegistryError::Storage(_))));
    for dir in [dir, dir2] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
