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

pub mod dao;
pub mod entities;
pub mod error;
pub mod index;
pub mod search;
pub mod service;
pub mod store;
pub mod wal;

pub use entities::{PeEntity, UserEntity, WorkflowEntity};
pub use error::RegistryError;
pub use index::{SearchIndex, VecField};
pub use search::{QueryType, SearchHit, SearchOptions, SearchType, DEFAULT_SEARCH_LIMIT};
pub use service::{Registry, SearchResponse};
pub use store::{Row, Store, Table};
