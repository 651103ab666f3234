//! # laminar-embed
//!
//! The deep-learning code-search substrate of Laminar, rebuilt as
//! deterministic feature-hashing models (see DESIGN.md for the
//! substitution argument).
//!
//! The paper wires three model families into the framework:
//!
//! * **semantic code search** (unixcoder-code-search) — text → code,
//!   bi-encoder, cosine ranking (paper §4.2, Table 6);
//! * **code completion / partial-code clone retrieval**
//!   (ReACC-py-retriever) — code → code (paper §4.3, Table 7);
//! * **code summarization** (codet5-base-multi-sum) — code → English
//!   description used to fill missing registry descriptions (§3.1.1).
//!
//! This crate provides all three plus the evaluation harness: seven
//! [`models`] with distinct feature pipelines, [`metrics`] (MRR, MAP@k,
//! Precision@1), [`datasets`] generators standing in for CosQA / CSN /
//! CodeNet, and the [`summarize`] rule-based summarizer.
//!
//! ```
//! use laminar_embed::models::{model_by_name, EmbeddingModel};
//! use laminar_embed::embedding::cosine;
//!
//! let m = model_by_name("unixcoder-code-search").unwrap();
//! let code = m.embed_code("pe IsPrime : iterative { input num; output output; process { emit(num); } }");
//! let query = m.embed_text("a PE that checks if a number is prime");
//! let unrelated = m.embed_text("download a file over http");
//! assert!(cosine(&code, &query) > cosine(&code, &unrelated));
//! ```

pub mod datasets;
pub mod embedding;
pub mod metrics;
pub mod models;
pub mod summarize;
pub mod tokenizer;
pub mod xencoder;

pub use embedding::{cosine, top_k, Embedding, TopK};
pub use models::{all_models, model_by_name, EmbeddingModel};
pub use summarize::summarize_pe_source;
