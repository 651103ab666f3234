//! The registry service: the business-logic layer the server's Service
//! tier delegates to. Combines DAO, auth, the embedding models and the
//! summarizer.

use crate::dao::Dao;
use crate::entities::{encode_code, hash_password, PeEntity, UserEntity, WorkflowEntity};
use crate::error::RegistryError;
use crate::search::{
    ranked_pe_hits, text_search_pes, text_search_workflows, QueryType, SearchHit, SearchOptions, SearchType,
    VecField,
};
use crate::store::Store;
use crate::wal::WalStore;
use laminar_embed::models::{model_by_name, EmbeddingModel};
use laminar_embed::summarize::summarize_pe_source;
use laminar_json::Value;
use laminar_script::{canonicalize, prepare, to_source, Item, PeDecl, Prepared, Script};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Key used by clients to address a PE or workflow: numeric id or name
/// (the `Union[str, int]` of the Python client).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntityKey {
    /// By numeric id.
    Id(i64),
    /// By unique name.
    Name(String),
}

impl EntityKey {
    /// Interpret a JSON value the way the web client does: integers are
    /// ids, strings that parse as integers are ids, other strings are
    /// names.
    pub fn from_value(v: &Value) -> Option<EntityKey> {
        match v {
            Value::Int(i) => Some(EntityKey::Id(*i)),
            Value::Str(s) => Some(Self::parse(s)),
            _ => None,
        }
    }

    /// Parse from path-segment text.
    pub fn parse(s: &str) -> EntityKey {
        match s.parse::<i64>() {
            Ok(i) => EntityKey::Id(i),
            Err(_) => EntityKey::Name(s.to_string()),
        }
    }
}

impl From<i64> for EntityKey {
    fn from(i: i64) -> Self {
        EntityKey::Id(i)
    }
}

impl From<&str> for EntityKey {
    fn from(s: &str) -> Self {
        EntityKey::parse(s)
    }
}

/// One search call's outcome: hits plus the embed/rank timing split the
/// server puts on the wire (the read path's analogue of
/// `plan_us`/`enact_us`/`collect_us`).
#[derive(Debug, Clone)]
pub struct SearchResponse {
    /// The winners, best-first.
    pub hits: Vec<SearchHit>,
    /// Microseconds spent embedding the query (zero for text modes).
    pub embed_us: u64,
    /// Microseconds spent matching/ranking + materializing winners.
    pub rank_us: u64,
}

/// The registry service.
pub struct Registry {
    dao: Dao,
    search_model: EmbeddingModel,
    completion_model: EmbeddingModel,
    /// Total search calls served (atomic: search holds only a read lock).
    searches: AtomicU64,
}

impl Registry {
    /// In-memory registry with the paper's chosen models
    /// (unixcoder-code-search + ReACC-retriever-py).
    pub fn in_memory() -> Registry {
        Registry::with_dao(Dao::new(Store::new(), WalStore::ephemeral()))
    }

    /// Durable registry persisted under `dir`.
    pub fn open(dir: &Path) -> Result<Registry, RegistryError> {
        let (store, wal) = WalStore::open(dir)?;
        Ok(Registry::with_dao(Dao::new(store, wal)))
    }

    fn with_dao(dao: Dao) -> Registry {
        Registry {
            dao,
            search_model: model_by_name("unixcoder-code-search").expect("model exists"),
            completion_model: model_by_name("ReACC-retriever-py").expect("model exists"),
            searches: AtomicU64::new(0),
        }
    }

    /// Access the DAO (tests and server-internal queries).
    pub fn dao(&self) -> &Dao {
        &self.dao
    }

    /// Force a snapshot to disk (durable mode only).
    pub fn checkpoint(&mut self) -> Result<(), RegistryError> {
        self.dao.checkpoint()
    }

    // ---- auth -------------------------------------------------------------

    /// Register a new user (paper client function 1).
    pub fn register_user(&mut self, name: &str, password: &str) -> Result<UserEntity, RegistryError> {
        if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_' || c == '-') {
            return Err(RegistryError::Invalid {
                field: "userName",
                message: "must be non-empty alphanumeric".into(),
            });
        }
        if password.len() < 4 {
            return Err(RegistryError::Invalid {
                field: "password",
                message: "must be at least 4 characters".into(),
            });
        }
        self.dao
            .insert_user(UserEntity {
                user_id: 0,
                user_name: name.to_string(),
                password_hash: hash_password(name, password),
            })
            .cloned()
    }

    /// Login: verify credentials (client fn 2). This is the whole of it:
    /// no session is minted, and every other endpoint takes the `{user}`
    /// path segment as the caller's identity (DESIGN §3.2).
    pub fn login(&self, name: &str, password: &str) -> Result<(), RegistryError> {
        match self.dao.user_by_name(name) {
            Ok(user) if user.password_hash == hash_password(name, password) => Ok(()),
            _ => Err(RegistryError::Unauthorized("unknown user or wrong password".into())),
        }
    }

    /// All user names (the `/auth/all` endpoint).
    pub fn all_user_names(&self) -> Vec<String> {
        self.dao.all_users().map(|u| u.user_name.clone()).collect()
    }

    fn user_id(&self, user: &str) -> Result<i64, RegistryError> {
        Ok(self.dao.user_by_name(user)?.user_id)
    }

    // ---- PEs ---------------------------------------------------------------

    /// Register a PE from LamScript source (client fn 3).
    ///
    /// * Canonicalizes the source and extracts the PE declaration.
    /// * If no description was given, generates one with the summarizer
    ///   (paper §3.1.1) and flags it as auto-generated.
    /// * Computes and stores both embeddings once (§3.1.1).
    /// * If a PE with the same name and identical code already exists, the
    ///   user is added as an additional owner instead of duplicating (§3.1).
    pub fn register_pe(
        &mut self,
        user: &str,
        source: &str,
        description: Option<&str>,
    ) -> Result<PeEntity, RegistryError> {
        let uid = self.user_id(user)?;
        let prepared = prepare(source)
            .map_err(|e| RegistryError::Invalid { field: "peCode", message: e.to_string() })?;
        let decl = prepared.script().pes().next().ok_or(RegistryError::Invalid {
            field: "peCode",
            message: "source contains no PE declaration".into(),
        })?;
        self.insert_pe_decl(uid, decl, to_source(prepared.script()), description)
    }

    /// [`Self::register_pe`] past the door: `decl` comes from a prepared
    /// script and `canonical` is the text to store for it.
    fn insert_pe_decl(
        &mut self,
        uid: i64,
        decl: &PeDecl,
        canonical: String,
        description: Option<&str>,
    ) -> Result<PeEntity, RegistryError> {
        if let Some(existing) = self.same_pe(decl, &canonical)? {
            // Shared-owner rule: same PE, new owner.
            let existing = existing.clone();
            self.dao.link_user_pe(uid, existing.pe_id)?;
            return Ok(existing);
        }

        let (description, generated) = match description {
            Some(d) if !d.trim().is_empty() => (d.trim().to_string(), false),
            _ => {
                let auto = summarize_pe_source(&canonical)
                    .unwrap_or_else(|| format!("A {} PE named {}.", decl.kind.as_str(), decl.name));
                (auto, true)
            }
        };
        let pe = PeEntity {
            pe_id: 0,
            pe_name: decl.name.clone(),
            description: description.clone(),
            description_generated: generated,
            pe_code: encode_code(&canonical),
            pe_imports: laminar_script::analysis::pe_imports(decl),
            code_embedding: self.completion_model.embed_code(&canonical),
            desc_embedding: self.search_model.embed_text(&description),
        };
        self.dao.insert_pe(pe, uid).cloned()
    }

    /// The stored PE that `decl`, stored as `canonical`, would share: the
    /// one with its name and identical text. `None` when the name is free;
    /// `Duplicate` when it is taken by different code.
    fn same_pe(&self, decl: &PeDecl, canonical: &str) -> Result<Option<&PeEntity>, RegistryError> {
        match self.dao.pe_by_name(&decl.name) {
            Ok(existing) if existing.source().as_deref() == Some(canonical) => Ok(Some(existing)),
            Ok(_) => {
                Err(RegistryError::Duplicate { entity: "PE", field: "peName", value: decl.name.clone() })
            }
            Err(_) => Ok(None),
        }
    }

    /// The PE `key` names, borrowed from the store; ownership enforced.
    fn owned_pe(&self, user: &str, key: &EntityKey) -> Result<&PeEntity, RegistryError> {
        let uid = self.user_id(user)?;
        let pe = match key {
            EntityKey::Id(id) => self.dao.pe_by_id(*id)?,
            EntityKey::Name(name) => self.dao.pe_by_name(name)?,
        };
        if !self.dao.store.user_pes.linked(uid, pe.pe_id) {
            return Err(RegistryError::NotFound { entity: "PE", key: pe.pe_name.clone() });
        }
        Ok(pe)
    }

    /// Fetch a PE by id or name (client fn 7); ownership enforced.
    pub fn get_pe(&self, user: &str, key: &EntityKey) -> Result<PeEntity, RegistryError> {
        self.owned_pe(user, key).cloned()
    }

    /// All PEs owned by a user.
    pub fn all_pes(&self, user: &str) -> Result<Vec<PeEntity>, RegistryError> {
        Ok(self.dao.pes_of_user(self.user_id(user)?).cloned().collect())
    }

    /// Remove a PE from a user's registry (client fn 5).
    pub fn remove_pe(&mut self, user: &str, key: &EntityKey) -> Result<(), RegistryError> {
        let uid = self.user_id(user)?;
        let pe_id = match key {
            EntityKey::Id(id) => *id,
            EntityKey::Name(name) => self.dao.pe_by_name(name)?.pe_id,
        };
        self.dao.remove_pe_for_user(uid, pe_id)
    }

    // ---- workflows ----------------------------------------------------------

    /// Register a workflow (client fn 4). Also registers every PE the
    /// workflow declaration references (the paper's `run()` does this
    /// automatically) and links them to the workflow. Every member is
    /// checked before the first write, so a refused workflow stores
    /// nothing: neither itself nor any member PE.
    pub fn register_workflow(
        &mut self,
        user: &str,
        source: &str,
        entry_point: &str,
        description: Option<&str>,
    ) -> Result<WorkflowEntity, RegistryError> {
        let uid = self.user_id(user)?;
        // The stored text is the canonical one, and it is the stored text
        // that is prepared: a run's error positions point into what
        // `get_workflow` returns.
        let prepared = canonicalize(source)
            .and_then(|canonical| prepare(&canonical))
            .map_err(|e| RegistryError::Invalid { field: "workflowCode", message: e.to_string() })?;
        let decl = prepared.script().workflows().next().ok_or(RegistryError::Invalid {
            field: "workflowCode",
            message: "source contains no workflow declaration".into(),
        })?;
        if self.dao.workflow_by_entry(entry_point).is_ok() {
            return Err(RegistryError::Duplicate {
                entity: "Workflow",
                field: "entryPoint",
                value: entry_point.to_string(),
            });
        }
        let description = description
            .map(str::to_string)
            .or_else(|| decl.doc.clone())
            .unwrap_or_else(|| format!("Workflow {}", decl.name));
        let members = decl
            .nodes
            .iter()
            .map(|node| {
                let pe_decl = prepared.script().pe(&node.pe_name).ok_or(RegistryError::Invalid {
                    field: "workflowCode",
                    message: format!("workflow references undefined PE '{}'", node.pe_name),
                })?;
                let single = to_source(&Script { items: vec![Item::Pe(pe_decl.clone())] });
                self.same_pe(pe_decl, &single)?;
                Ok((pe_decl, single))
            })
            .collect::<Result<Vec<_>, RegistryError>>()?;
        let wf = self
            .dao
            .insert_workflow(
                WorkflowEntity::new(&decl.name, entry_point, &description, Arc::clone(&prepared)),
                uid,
            )?
            .clone();
        // Register each referenced PE (if new) and link membership.
        for (pe_decl, single) in members {
            let pe = self.insert_pe_decl(uid, pe_decl, single, None)?;
            self.dao.link_workflow_pe(wf.workflow_id, pe.pe_id)?;
        }
        Ok(wf)
    }

    /// The workflow `key` names, borrowed from the store; ownership
    /// enforced.
    fn owned_workflow(&self, user: &str, key: &EntityKey) -> Result<&WorkflowEntity, RegistryError> {
        let uid = self.user_id(user)?;
        let wf = match key {
            EntityKey::Id(id) => self.dao.workflow_by_id(*id)?,
            EntityKey::Name(name) => self.dao.workflow_by_entry(name)?,
        };
        if !self.dao.store.user_workflows.linked(uid, wf.workflow_id) {
            return Err(RegistryError::NotFound { entity: "Workflow", key: wf.entry_point.clone() });
        }
        Ok(wf)
    }

    /// Fetch a workflow by id or entry point (client fn 8).
    pub fn get_workflow(&self, user: &str, key: &EntityKey) -> Result<WorkflowEntity, RegistryError> {
        self.owned_workflow(user, key).cloned()
    }

    /// All workflows owned by a user.
    pub fn all_workflows(&self, user: &str) -> Result<Vec<WorkflowEntity>, RegistryError> {
        Ok(self.dao.workflows_of_user(self.user_id(user)?).cloned().collect())
    }

    /// PEs belonging to a workflow (client fn 9).
    pub fn pes_by_workflow(&self, user: &str, key: &EntityKey) -> Result<Vec<PeEntity>, RegistryError> {
        let wf = self.owned_workflow(user, key)?;
        Ok(self.dao.pes_of_workflow(wf.workflow_id).cloned().collect())
    }

    /// Remove a workflow (client fn 6).
    pub fn remove_workflow(&mut self, user: &str, key: &EntityKey) -> Result<(), RegistryError> {
        let uid = self.user_id(user)?;
        let workflow_id = match key {
            EntityKey::Id(id) => *id,
            EntityKey::Name(name) => self.dao.workflow_by_entry(name)?.workflow_id,
        };
        self.dao.remove_workflow_for_user(uid, workflow_id)
    }

    /// Attach an existing PE to an existing workflow (the PUT endpoint of
    /// Table 3).
    pub fn add_pe_to_workflow(
        &mut self,
        user: &str,
        workflow_id: i64,
        pe_id: i64,
    ) -> Result<(), RegistryError> {
        let uid = self.user_id(user)?;
        if !self.dao.store.user_workflows.linked(uid, workflow_id) {
            return Err(RegistryError::NotFound { entity: "Workflow", key: workflow_id.to_string() });
        }
        self.dao.link_workflow_pe(workflow_id, pe_id)
    }

    // ---- search -------------------------------------------------------------

    /// The unified search entry point (client fn 10, endpoint
    /// `GET /registry/{user}/search/{search}/type/{type}`), with default
    /// options.
    pub fn search(
        &self,
        user: &str,
        query: &str,
        search_type: SearchType,
        query_type: QueryType,
    ) -> Result<Vec<SearchHit>, RegistryError> {
        Ok(self.search_with(user, query, search_type, query_type, &SearchOptions::default())?.hits)
    }

    /// Search with explicit options, returning the embed/rank timing
    /// split alongside the hits.
    pub fn search_with(
        &self,
        user: &str,
        query: &str,
        search_type: SearchType,
        query_type: QueryType,
        opts: &SearchOptions,
    ) -> Result<SearchResponse, RegistryError> {
        let uid = self.user_id(user)?;
        self.searches.fetch_add(1, Ordering::Relaxed);
        let mut embed_us = 0u64;
        let mut embed = |model: &EmbeddingModel, code: bool| {
            let t = Instant::now();
            let q = if code { model.embed_code(query) } else { model.embed_text(query) };
            embed_us = t.elapsed().as_micros() as u64;
            q
        };
        let rank_start;
        let hits = match (search_type, query_type) {
            (SearchType::Workflow, _) => {
                rank_start = Instant::now();
                text_search_workflows(&self.dao, uid, query, opts)
            }
            (SearchType::Pe, QueryType::Text) => {
                let q = embed(&self.search_model, false);
                rank_start = Instant::now();
                ranked_pe_hits(&self.dao, uid, &q, VecField::Desc, opts)
            }
            (SearchType::Pe, QueryType::Code) | (SearchType::Both, QueryType::Code) => {
                let q = embed(&self.completion_model, true);
                rank_start = Instant::now();
                ranked_pe_hits(&self.dao, uid, &q, VecField::Code, opts)
            }
            (SearchType::Both, QueryType::Text) => {
                // Figure 6 behaviour: plain text match on both kinds, PE
                // hits first; the limit applies to the combined list.
                rank_start = Instant::now();
                let mut hits = text_search_pes(&self.dao, uid, query, opts);
                hits.extend(text_search_workflows(&self.dao, uid, query, opts));
                hits.truncate(opts.limit);
                hits
            }
        };
        let rank_us = rank_start.elapsed().as_micros() as u64;
        Ok(SearchResponse { hits, embed_us, rank_us })
    }

    /// Registry observability (`GET /registry/stats`): entity counts, the
    /// search counter and the index's shape.
    pub fn stats(&self) -> Value {
        let mut v = Value::Null;
        v.set("users", self.dao.store.users.len() as i64)
            .set("pes", self.dao.store.pes.len() as i64)
            .set("workflows", self.dao.store.workflows.len() as i64)
            .set("searches", self.searches.load(Ordering::Relaxed) as i64)
            .set("index", self.dao.index().stats());
        v
    }

    /// Registry dump (client fn 12 / `GET /registry/{user}/all`).
    pub fn dump(&self, user: &str) -> Result<Value, RegistryError> {
        let uid = self.user_id(user)?;
        let pes: Value = self
            .dao
            .pes_of_user(uid)
            .map(|p| {
                let mut v = Value::Null;
                v.set("peId", p.pe_id)
                    .set("peName", p.pe_name.as_str())
                    .set("description", p.description.as_str());
                v
            })
            .collect();
        let wfs: Value = self
            .dao
            .workflows_of_user(uid)
            .map(|w| {
                let mut v = Value::Null;
                v.set("workflowId", w.workflow_id)
                    .set("entryPoint", w.entry_point.as_str())
                    .set("description", w.description.as_str());
                v
            })
            .collect();
        let mut out = Value::Null;
        out.set("pes", pes).set("workflows", wfs);
        Ok(out)
    }

    /// `describe`: human text for a PE or workflow (client fn 11).
    pub fn describe(&self, user: &str, key: &EntityKey) -> Result<String, RegistryError> {
        if let Ok(pe) = self.owned_pe(user, key) {
            return Ok(format!(
                "PE {} (id {}): {}{}",
                pe.pe_name,
                pe.pe_id,
                pe.description,
                if pe.description_generated { " [auto-generated]" } else { "" }
            ));
        }
        let wf = self.owned_workflow(user, key)?;
        let names: Vec<&str> = self.dao.pes_of_workflow(wf.workflow_id).map(|p| p.pe_name.as_str()).collect();
        Ok(format!(
            "Workflow {} (id {}, entry '{}'): {} — PEs: [{}]",
            wf.workflow_name,
            wf.workflow_id,
            wf.entry_point,
            wf.description,
            names.join(", ")
        ))
    }

    /// What running a registered workflow needs — its name and its
    /// prepared script — from one lookup and one ownership check.
    pub fn workflow_to_run(
        &self,
        user: &str,
        key: &EntityKey,
    ) -> Result<(String, Arc<Prepared>), RegistryError> {
        let wf = self.owned_workflow(user, key)?;
        Ok((wf.workflow_name.clone(), Arc::clone(wf.prepared())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PRIME_SRC: &str = r#"
        pe IsPrime : iterative {
            input num; output output;
            process {
                let i = 2;
                let prime = num > 1;
                while i * i <= num { if num % i == 0 { prime = false; break; } i = i + 1; }
                if prime { emit(num); }
            }
        }
    "#;

    const WF_SRC: &str = r#"
        pe NumberProducer : producer { output output; process { emit(randint(1, 1000)); } }
        pe IsPrime : iterative {
            input num; output output;
            process { if num > 1 { emit(num); } }
        }
        pe PrintPrime : consumer { input num; process { print("the num", num, "is prime"); } }
        workflow IsPrimeFlow {
            doc "Workflow that prints random prime numbers";
            nodes { p = NumberProducer; i = IsPrime; pr = PrintPrime; }
            connect p.output -> i.num;
            connect i.output -> pr.num;
        }
    "#;

    fn reg_with_user() -> Registry {
        let mut r = Registry::in_memory();
        r.register_user("zz46", "password").unwrap();
        r
    }

    #[test]
    fn user_registration_validation() {
        let mut r = Registry::in_memory();
        assert!(r.register_user("", "password").is_err());
        assert!(r.register_user("bad name", "password").is_err());
        assert!(r.register_user("ok", "abc").is_err());
        r.register_user("ok", "good-pass").unwrap();
        assert!(matches!(r.register_user("ok", "other"), Err(RegistryError::Duplicate { .. })));
        assert_eq!(r.all_user_names(), vec!["ok"]);
    }

    #[test]
    fn login_and_sessions() {
        let r = reg_with_user();
        assert!(matches!(r.login("zz46", "wrong"), Err(RegistryError::Unauthorized(_))));
        assert!(matches!(r.login("ghost", "password"), Err(RegistryError::Unauthorized(_))));
        r.login("zz46", "password").unwrap();
    }

    #[test]
    fn pe_registration_with_description() {
        let mut r = reg_with_user();
        let pe = r.register_pe("zz46", PRIME_SRC, Some("Checks if a number is prime")).unwrap();
        assert_eq!(pe.pe_name, "IsPrime");
        assert!(!pe.description_generated);
        assert_eq!(pe.description, "Checks if a number is prime");
        assert!(!pe.pe_imports.iter().any(|i| i == "math"));
        assert!(pe.code_embedding.dim() > 0);
        // Retrieval by name and id, and source round-trip.
        let by_name = r.get_pe("zz46", &"IsPrime".into()).unwrap();
        assert_eq!(by_name.pe_id, pe.pe_id);
        let by_id = r.get_pe("zz46", &EntityKey::Id(pe.pe_id)).unwrap();
        assert!(by_id.source().unwrap().contains("pe IsPrime"));
    }

    #[test]
    fn pe_auto_summarization() {
        let mut r = reg_with_user();
        let pe = r.register_pe("zz46", PRIME_SRC, None).unwrap();
        assert!(pe.description_generated);
        assert!(pe.description.to_lowercase().contains("prime"), "summary: {}", pe.description);
    }

    #[test]
    fn shared_owner_on_identical_reregistration() {
        let mut r = reg_with_user();
        r.register_user("zl81", "password").unwrap();
        let first = r.register_pe("zz46", PRIME_SRC, None).unwrap();
        let second = r.register_pe("zl81", PRIME_SRC, None).unwrap();
        assert_eq!(first.pe_id, second.pe_id, "no duplicate entry — shared owner");
        assert_eq!(r.all_pes("zl81").unwrap().len(), 1);
        // Same name but different code is a real conflict.
        let different = PRIME_SRC.replace("num > 1", "num > 2");
        assert!(matches!(r.register_pe("zl81", &different, None), Err(RegistryError::Duplicate { .. })));
    }

    #[test]
    fn ownership_privacy() {
        let mut r = reg_with_user();
        r.register_user("intruder", "password").unwrap();
        let pe = r.register_pe("zz46", PRIME_SRC, None).unwrap();
        assert!(r.get_pe("intruder", &EntityKey::Id(pe.pe_id)).is_err(), "no cross-user access");
        assert!(r.all_pes("intruder").unwrap().is_empty());
    }

    #[test]
    fn workflow_registration_registers_member_pes() {
        let mut r = reg_with_user();
        let wf = r
            .register_workflow("zz46", WF_SRC, "isPrime", Some("Workflow that prints random prime numbers"))
            .unwrap();
        assert_eq!(wf.workflow_name, "IsPrimeFlow");
        let members = r.pes_by_workflow("zz46", &"isPrime".into()).unwrap();
        assert_eq!(members.len(), 3);
        let names: Vec<&str> = members.iter().map(|m| m.pe_name.as_str()).collect();
        assert!(names.contains(&"NumberProducer"));
        assert!(names.contains(&"IsPrime"));
        assert!(names.contains(&"PrintPrime"));
        // The stored source re-parses and still contains the workflow.
        let (name, prepared) = r.workflow_to_run("zz46", &"isPrime".into()).unwrap();
        assert_eq!(name, "IsPrimeFlow");
        assert!(prepared.text().contains("workflow IsPrimeFlow"));
        assert!(prepared.script().workflows().any(|w| w.name == "IsPrimeFlow"));
    }

    #[test]
    fn duplicate_entry_point_rejected() {
        let mut r = reg_with_user();
        r.register_workflow("zz46", WF_SRC, "isPrime", None).unwrap();
        assert!(matches!(
            r.register_workflow("zz46", WF_SRC, "isPrime", None),
            Err(RegistryError::Duplicate { .. })
        ));
    }

    #[test]
    fn a_refused_workflow_stores_neither_itself_nor_a_member_pe() {
        let dir = std::env::temp_dir().join(format!("laminar-reg-refused-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let doubler = |factor: i64| {
            format!("pe Doubler : iterative {{ input input; output output; process {{ emit(input * {factor}); }} }}")
        };
        let pipe = |factor: i64| {
            format!(
                "pe Source : producer {{ output output; process {{ emit(iteration); }} }}
                 {}
                 workflow Pipe {{ nodes {{ s = Source; d = Doubler; }} connect s.output -> d.input; }}",
                doubler(factor)
            )
        };
        {
            let mut r = Registry::open(&dir).unwrap();
            r.register_user("zz46", "password").unwrap();
            r.register_pe("zz46", &doubler(2), None).unwrap();
            // `Source` comes first, so a write before the check would store it.
            assert!(matches!(
                r.register_workflow("zz46", &pipe(3), "pipe", None),
                Err(RegistryError::Duplicate { entity: "PE", .. })
            ));
        }
        let mut r = Registry::open(&dir).unwrap();
        assert!(r.get_workflow("zz46", &"pipe".into()).is_err());
        assert!(r.all_workflows("zz46").unwrap().is_empty());
        let names: Vec<String> = r.all_pes("zz46").unwrap().into_iter().map(|pe| pe.pe_name).collect();
        assert_eq!(names, ["Doubler"]);
        assert!(r.dao().pe_by_name("Source").is_err());
        r.register_workflow("zz46", &pipe(2), "pipe", None).unwrap();
        assert_eq!(r.pes_by_workflow("zz46", &"pipe".into()).unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn text_search_finds_partial_workflow_match() {
        // The Figure 6 scenario: query 'prime' finds workflow 'isPrime'.
        let mut r = reg_with_user();
        r.register_workflow("zz46", WF_SRC, "isPrime", Some("Workflow that prints random prime numbers"))
            .unwrap();
        let hits = r.search("zz46", "prime", SearchType::Workflow, QueryType::Text).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].name, "isPrime");
        assert_eq!(hits[0].kind, "workflow");
    }

    #[test]
    fn semantic_search_ranks_prime_pe_first() {
        // The Figure 7 scenario.
        let mut r = reg_with_user();
        r.register_pe("zz46", PRIME_SRC, None).unwrap();
        r.register_pe(
            "zz46",
            r#"pe CountWords : generic { input input groupby 0; output output;
               init { state.count = {}; }
               process { state.count[input[0]] = get(state.count, input[0], 0) + 1; emit(state.count); } }"#,
            Some("Counts the occurrences of each word"),
        )
        .unwrap();
        r.register_pe(
            "zz46",
            r#"pe ReverseText : iterative { input text; output output; process { emit(reverse(text)); } }"#,
            Some("Reverses the characters of the input string"),
        )
        .unwrap();
        let hits = r
            .search("zz46", "A PE that checks if a number is prime", SearchType::Pe, QueryType::Text)
            .unwrap();
        assert_eq!(hits.len(), 3, "semantic search ranks every PE");
        assert_eq!(hits[0].name, "IsPrime", "hits: {hits:?}");
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn code_completion_finds_random_producer() {
        // The Figure 8 scenario: query `randint(1, 1000)`.
        let mut r = reg_with_user();
        r.register_pe(
            "zz46",
            "pe NumberProducer : producer { output output; process { emit(randint(1, 1000)); } }",
            None,
        )
        .unwrap();
        r.register_pe("zz46", PRIME_SRC, None).unwrap();
        let hits = r.search("zz46", "randint(1, 1000)", SearchType::Pe, QueryType::Code).unwrap();
        assert_eq!(hits[0].name, "NumberProducer", "hits: {hits:?}");
    }

    #[test]
    fn describe_formats() {
        let mut r = reg_with_user();
        let standalone = PRIME_SRC.replace("IsPrime", "IsPrimeManual");
        let pe = r.register_pe("zz46", &standalone, Some("manual words")).unwrap();
        let d = r.describe("zz46", &EntityKey::Id(pe.pe_id)).unwrap();
        assert!(d.contains("IsPrimeManual"));
        assert!(d.contains("manual words"));
        r.register_workflow("zz46", WF_SRC, "isPrime", None).unwrap();
        let wd = r.describe("zz46", &"isPrime".into()).unwrap();
        assert!(wd.contains("PEs: ["));
    }

    #[test]
    fn remove_pe_and_workflow() {
        let mut r = reg_with_user();
        let pe = r.register_pe("zz46", PRIME_SRC, None).unwrap();
        r.remove_pe("zz46", &EntityKey::Id(pe.pe_id)).unwrap();
        assert!(r.get_pe("zz46", &EntityKey::Id(pe.pe_id)).is_err());
        let wf = r.register_workflow("zz46", WF_SRC, "isPrime", None).unwrap();
        r.remove_workflow("zz46", &EntityKey::Id(wf.workflow_id)).unwrap();
        assert!(r.get_workflow("zz46", &"isPrime".into()).is_err());
    }

    #[test]
    fn dump_lists_everything() {
        let mut r = reg_with_user();
        r.register_pe("zz46", &PRIME_SRC.replace("IsPrime", "IsPrimeManual"), None).unwrap();
        r.register_workflow("zz46", WF_SRC, "isPrime", None).unwrap();
        let d = r.dump("zz46").unwrap();
        assert!(!d["pes"].as_array().unwrap().is_empty());
        assert_eq!(d["workflows"][0]["entryPoint"].as_str(), Some("isPrime"));
    }

    #[test]
    fn entity_key_parsing() {
        assert_eq!(EntityKey::parse("42"), EntityKey::Id(42));
        assert_eq!(EntityKey::parse("IsPrime"), EntityKey::Name("IsPrime".into()));
        assert_eq!(EntityKey::from_value(&Value::Int(7)), Some(EntityKey::Id(7)));
        assert_eq!(EntityKey::from_value(&Value::Null), None);
    }

    #[test]
    fn durable_registry_survives_restart() {
        let dir = std::env::temp_dir().join(format!("laminar-reg-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut r = Registry::open(&dir).unwrap();
            r.register_user("zz46", "password").unwrap();
            r.register_pe("zz46", PRIME_SRC, Some("persisted")).unwrap();
        }
        {
            let r = Registry::open(&dir).unwrap();
            let pe = r.get_pe("zz46", &"IsPrime".into()).unwrap();
            assert_eq!(pe.description, "persisted");
            // Embeddings survived serialization.
            assert!(pe.desc_embedding.dim() > 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
