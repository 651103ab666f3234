//! # laminar-script
//!
//! **LamScript** — the small interpreted language Laminar uses for
//! Processing-Element code.
//!
//! In the paper, PEs are Python classes serialized with cloudpickle and
//! executed remotely. A Rust reproduction needs an equivalent *code-as-data*
//! mechanism: source that can be registered, embedded, summarized, shipped
//! over the wire and executed by a remote engine. LamScript provides exactly
//! that lifecycle.
//!
//! ## A complete PE
//!
//! ```text
//! pe IsPrime : iterative {
//!     doc "Checks if the given input is prime and forwards primes";
//!     input num;
//!     output output;
//!     process {
//!         let i = 2;
//!         let prime = num > 1;
//!         while i * i <= num {
//!             if num % i == 0 { prime = false; break; }
//!             i = i + 1;
//!         }
//!         if prime { emit(num); }
//!     }
//! }
//! ```
//!
//! ## Pipeline
//!
//! [`lex`](lexer::lex) → [`parse`](parser::parse_script) →
//! [`compile`](compile::compile_script) → [`Vm`](vm::Vm) (register
//! bytecode, fuel-bounded, cached per canonical source) is the one way a
//! script runs. [`Interp`](interp::Interp), the tree-walking interpreter,
//! is the language's plain reference semantics: the oracle the
//! differential suites compare the VM against, never a serving backend.
//! Beside them: [`analysis`] (imports à la `findimports`, identifier and
//! def-use extraction for the embedding models) and [`pretty`] (canonical
//! source form stored in the registry and used as the compile cache key).

pub mod analysis;
pub mod ast;
pub mod builtins;
pub mod compile;
pub mod error;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod runtime;
pub mod vm;

pub use ast::{Block, Expr, Item, PeDecl, PeKind, PortDecl, Script, Stmt, WorkflowDecl};
pub use compile::{compile_script, Program};
pub use error::{ErrorKind, ScriptError};
pub use interp::Interp;
pub use lexer::{lex, Token, TokenKind};
pub use parser::{parse_expr, parse_script};
pub use pretty::to_source;
pub use runtime::{Host, NullHost, Sink, VecSink};
pub use vm::Vm;

/// Parse and pretty-print: the canonical form of a script, used when the
/// registry stores PE code so that equivalent sources embed identically.
pub fn canonicalize(source: &str) -> Result<String, ScriptError> {
    Ok(to_source(&parse_script(source)?))
}
