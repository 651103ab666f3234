//! Registry entities (paper Table 2). Their on-disk row form lives with
//! the store, the one module that reads or writes it.

use crate::store::Row;
use laminar_embed::Embedding;
use laminar_json::Value;
use laminar_script::{prepare, Prepared};
use std::sync::Arc;

/// A registered user.
#[derive(Debug, Clone, PartialEq)]
pub struct UserEntity {
    /// Unique id.
    pub user_id: i64,
    /// Unique login name.
    pub user_name: String,
    /// Salted password hash (never the plaintext).
    pub password_hash: String,
}

impl Row for UserEntity {
    const TABLE: &'static str = "users";
    const ID: &'static str = "userId";
    const UNIQUE: &'static str = "userName";
    const ENTITY: &'static str = "User";

    fn id(&self) -> i64 {
        self.user_id
    }

    fn set_id(&mut self, id: i64) {
        self.user_id = id;
    }

    fn unique_key(&self) -> &str {
        &self.user_name
    }
}

/// Salted password hashing (FNV-based; a stand-in with the right *shape*:
/// salt + one-way digest, constant-time comparison not required here).
pub fn hash_password(user_name: &str, password: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in user_name.bytes().chain(b"::laminar-salt::".iter().copied()).chain(password.bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Double hash to frustrate trivial extension.
    let mut h2: u64 = h ^ 0x9e37_79b9_7f4a_7c15;
    for b in h.to_le_bytes() {
        h2 ^= b as u64;
        h2 = h2.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}{h2:016x}")
}

/// A registered Processing Element (paper Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct PeEntity {
    /// Unique id (`peId`).
    pub pe_id: i64,
    /// Class name (`peName`).
    pub pe_name: String,
    /// User-provided or auto-generated description.
    pub description: String,
    /// Whether the description was generated by the summarizer.
    pub description_generated: bool,
    /// Serialized code: base64 lampickle of the canonical source
    /// (`peCode`).
    pub pe_code: String,
    /// Import dependencies (`peImports`).
    pub pe_imports: Vec<String>,
    /// Code embedding (`codeEmbedding`) — completion-model space.
    pub code_embedding: Embedding,
    /// Description embedding (`descEmbedding`) — search-model space.
    pub desc_embedding: Embedding,
}

impl Row for PeEntity {
    const TABLE: &'static str = "pes";
    const ID: &'static str = "peId";
    const UNIQUE: &'static str = "peName";
    const ENTITY: &'static str = "PE";

    fn id(&self) -> i64 {
        self.pe_id
    }

    fn set_id(&mut self, id: i64) {
        self.pe_id = id;
    }

    fn unique_key(&self) -> &str {
        &self.pe_name
    }
}

impl PeEntity {
    /// Decode the stored source code.
    pub fn source(&self) -> Option<String> {
        decode_code(&self.pe_code)
    }
}

/// Serialize PE/workflow source for the `peCode`/`workflowCode` columns:
/// lampickle + base64, like the paper's cloudpickle + base64.
pub fn encode_code(source: &str) -> String {
    let mut v = Value::Null;
    v.set("source", source).set("format", "lamscript/1");
    laminar_codec::dumps_b64(&v)
}

/// Inverse of [`encode_code`].
pub fn decode_code(encoded: &str) -> Option<String> {
    let v = laminar_codec::loads_b64(encoded).ok()?;
    v["source"].as_str().map(str::to_string)
}

/// A registered workflow (paper Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowEntity {
    /// Unique id (`workflowId`).
    pub workflow_id: i64,
    /// Class name (`workflowName`).
    pub workflow_name: String,
    /// Unique name identifier (`entryPoint`).
    pub entry_point: String,
    /// Optional description.
    pub description: String,
    /// Serialized code (`workflowCode`).
    pub workflow_code: String,
    /// The source inside `workflow_code`, prepared: what a run of this
    /// workflow executes. Not a column — built with the entity, at
    /// registration and whenever a row is decoded.
    prepared: Arc<Prepared>,
}

impl Row for WorkflowEntity {
    const TABLE: &'static str = "workflows";
    const ID: &'static str = "workflowId";
    const UNIQUE: &'static str = "entryPoint";
    const ENTITY: &'static str = "Workflow";

    fn id(&self) -> i64 {
        self.workflow_id
    }

    fn set_id(&mut self, id: i64) {
        self.workflow_id = id;
    }

    fn unique_key(&self) -> &str {
        &self.entry_point
    }
}

impl WorkflowEntity {
    /// A workflow not yet inserted (id 0) over a prepared script; its text
    /// is stored as given — the registry prepares the canonical form.
    pub fn new(
        workflow_name: &str,
        entry_point: &str,
        description: &str,
        prepared: Arc<Prepared>,
    ) -> WorkflowEntity {
        WorkflowEntity {
            workflow_id: 0,
            workflow_name: workflow_name.to_string(),
            entry_point: entry_point.to_string(),
            description: description.to_string(),
            workflow_code: encode_code(prepared.text()),
            prepared,
        }
    }

    /// A workflow as its row stored it: `workflow_code` kept as written and
    /// prepared again; `None` when the code does not decode or prepare.
    pub(crate) fn stored(
        workflow_id: i64,
        workflow_name: &str,
        entry_point: &str,
        description: &str,
        workflow_code: &str,
    ) -> Option<WorkflowEntity> {
        Some(WorkflowEntity {
            workflow_id,
            workflow_name: workflow_name.to_string(),
            entry_point: entry_point.to_string(),
            description: description.to_string(),
            prepared: prepare(&decode_code(workflow_code)?).ok()?,
            workflow_code: workflow_code.to_string(),
        })
    }

    /// The stored source, prepared — its text is what `workflow_code`
    /// decodes to.
    pub(crate) fn prepared(&self) -> &Arc<Prepared> {
        &self.prepared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RegistryError;
    use crate::store::Op;

    // The row form is private to the store; these tests reach it through
    // the WAL records the store writes (`Op::to_value`) and replays
    // (`Op::from_value`).

    /// An insert's WAL record carrying `row` as the entity's row.
    fn insert_record(table: &str, id: i64, row: Value) -> Value {
        let mut v = Value::Null;
        v.set("op", "insert").set("table", table).set("id", id).set("row", row);
        v
    }

    #[test]
    fn user_round_trip() {
        let u =
            UserEntity { user_id: 3, user_name: "zz46".into(), password_hash: hash_password("zz46", "pw") };
        match Op::from_value(&Op::InsertUser(u.clone()).to_value()) {
            Ok(Op::InsertUser(back)) => assert_eq!(back, u),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn password_hash_properties() {
        let h1 = hash_password("zz46", "password");
        let h2 = hash_password("zz46", "password");
        assert_eq!(h1, h2, "deterministic");
        assert_ne!(h1, hash_password("zz46", "other"), "password-sensitive");
        assert_ne!(h1, hash_password("other", "password"), "salted by user");
        assert_eq!(h1.len(), 32);
        assert!(!h1.contains("password"));
    }

    #[test]
    fn pe_round_trip() {
        let e = PeEntity {
            pe_id: 7,
            pe_name: "IsPrime".into(),
            description: "checks primality".into(),
            description_generated: true,
            pe_code: encode_code("pe IsPrime : iterative { input n; output output; process { emit(n); } }"),
            pe_imports: vec!["math".into()],
            code_embedding: Embedding::from_dense(&[0.5, -0.5]),
            desc_embedding: Embedding::from_dense(&[1.0, 0.0]),
        };
        let Ok(Op::InsertPe(back)) = Op::from_value(&Op::InsertPe(e.clone()).to_value()) else {
            panic!("not a PE insert")
        };
        assert_eq!(back, e);
        assert!(back.source().unwrap().contains("IsPrime"));
    }

    #[test]
    fn workflow_round_trip() {
        let source = "workflow IsPrimeWf { nodes { } }";
        let mut w = WorkflowEntity::new("IsPrimeWf", "isPrime", "prints primes", prepare(source).unwrap());
        w.workflow_id = 2;
        let record = Op::InsertWorkflow(w.clone()).to_value();
        match Op::from_value(&record) {
            Ok(Op::InsertWorkflow(back)) => assert_eq!(back, w),
            other => panic!("{other:?}"),
        }
        assert_eq!(w.prepared().text(), source);
        assert_eq!(decode_code(&w.workflow_code).as_deref(), Some(source));
        // A row whose code does not prepare is corrupt, not an entity.
        let mut row = record["row"].clone();
        row.set("workflowCode", encode_code("workflow {"));
        let corrupt = insert_record(WorkflowEntity::TABLE, 2, row);
        assert!(matches!(Op::from_value(&corrupt), Err(RegistryError::Storage(_))));
    }

    #[test]
    fn code_encoding_is_base64_text() {
        let enc = encode_code("pe X : producer { output o; process { emit(1); } }");
        assert!(enc.bytes().all(|b| b.is_ascii_alphanumeric() || b"+/=".contains(&b)));
        assert_eq!(decode_code(&enc).unwrap(), "pe X : producer { output o; process { emit(1); } }");
        assert_eq!(decode_code("not-base64!!"), None);
    }

    #[test]
    fn malformed_rows_rejected() {
        let user = insert_record(UserEntity::TABLE, 1, Value::Null);
        assert!(matches!(Op::from_value(&user), Err(RegistryError::Storage(_))));
        let mut bad = Value::Null;
        bad.set("peId", 1).set("peName", "X");
        let pe = insert_record(PeEntity::TABLE, 1, bad);
        assert!(
            matches!(Op::from_value(&pe), Err(RegistryError::Storage(_))),
            "missing embeddings must fail"
        );
    }
}
