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
//! This crate holds what the registry calls: seven [`models`] with
//! distinct feature pipelines over one tokenizer ([`code_tokens`],
//! [`text_words`]), the sparse [`Embedding`] with its one score
//! ([`cosine`]) and its one best-`k` selection ([`TopK`]), and the
//! rule-based summarizer ([`summarize_pe_source`]). The
//! paper's offline evaluation — the CosQA / CSN / CodeNet generators, the
//! ranking metrics and the cross-encoder — lives in `laminar-bench`.
//!
//! ```
//! use laminar_embed::{cosine, model_by_name};
//!
//! let m = model_by_name("unixcoder-code-search").unwrap();
//! let code = m.embed_code("pe IsPrime : iterative { input num; output output; process { emit(num); } }");
//! let query = m.embed_text("a PE that checks if a number is prime");
//! let unrelated = m.embed_text("download a file over http");
//! assert!(cosine(&code, &query) > cosine(&code, &unrelated));
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod embedding;
pub mod models;
mod summarize;
mod tokenizer;

pub use embedding::{cosine, cosine_of, Embedding, TopK};
pub use models::{model_by_name, EmbeddingModel};
pub use summarize::summarize_pe_source;
pub use tokenizer::{code_tokens, is_keyword, text_words, CodeToken, TokenClass};
