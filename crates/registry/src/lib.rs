//! # laminar-registry
//!
//! The central repository of Laminar (paper §3.1): users, Processing
//! Elements and workflows, their ownership relations, their code and their
//! embeddings — plus the three registry search modes of §4:
//!
//! * **text search** — normalized partial matching on names/descriptions
//!   (Figure 6);
//! * **semantic code search** — cosine over stored description embeddings
//!   (Figure 7);
//! * **code completion** — cosine over stored code embeddings (Figure 8).
//!
//! The storage engine is an embedded table store with unique indexes,
//! auto-increment keys, junction tables for the many-to-many relations,
//! and durability via snapshot + write-ahead log — the substitution for
//! the paper's remotely-hosted MySQL database.
//!
//! ```
//! use laminar_registry::{Registry, SearchType, QueryType};
//!
//! let mut reg = Registry::in_memory();
//! let user = reg.register_user("zz46", "password").unwrap();
//! let src = r#"pe IsPrime : iterative { input num; output output;
//!     process { if num > 1 { emit(num); } } }"#;
//! let pe = reg.register_pe(&user.user_name, src, Some("Checks if a number is prime")).unwrap();
//! let hits = reg.search(&user.user_name, "prime", SearchType::Pe, QueryType::Text).unwrap();
//! assert_eq!(hits[0].id, pe.pe_id);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod dao;
mod entities;
mod error;
mod index;
mod search;
pub mod service;
mod store;
mod wal;

pub use dao::Dao;
pub use entities::{decode_code, encode_code, hash_password, PeEntity, UserEntity, WorkflowEntity};
pub use error::RegistryError;
pub use index::{SearchIndex, VecField};
pub use search::{
    normalize_text, ranked_pe_hits, text_search_pes, text_search_workflows, QueryType, SearchHit,
    SearchOptions, SearchType, DEFAULT_SEARCH_LIMIT,
};
pub use service::{EntityKey, Registry, SearchResponse};
pub use store::{Junction, Row, Store, Table};
pub use wal::WalStore;
