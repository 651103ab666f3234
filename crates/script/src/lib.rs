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
//! [`prepare`] is the one door from source text to something runnable:
//! lex → [`parse_script`] (nesting bounded by the parser's
//! `MAX_NESTING`) → [`compile_script`], kept together as a [`Prepared`]
//! that the [`Vm`] (register bytecode, fuel-bounded) runs — the one
//! backend. The language's plain
//! reference semantics, a tree-walking interpreter the differential suites
//! compare the VM against, lives in the dev-only `laminar-oracle` crate.
//! Beside them: static analysis ([`imports`] à la `findimports`, and
//! [`subtokens`] and [`def_use_pairs`] for the embedding models) and
//! [`to_source`] (canonical source form stored in the registry).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod analysis;
mod ast;
mod builtins;
pub mod compile;
mod error;
mod lexer;
mod parser;
mod pretty;
mod runtime;
mod vm;

pub use analysis::{def_use_pairs, imports, pe_imports, subtokens, CodeFacts, DefUse};
pub use ast::{
    BinOp, Block, ConnectDecl, Expr, FnDecl, Item, NodeBinding, PeDecl, PeKind, PortDecl, Script, Stmt, UnOp,
    WorkflowDecl,
};
pub use builtins::{call as call_builtin, two_ints};
pub use compile::{compile_script, Program};
pub use error::{ErrorKind, ScriptError};
pub use parser::{parse_expr, parse_script};
pub use pretty::to_source;
pub use runtime::{
    binary_op, display_value, index_value, truthy, Host, NullHost, Sink, VecSink, DEFAULT_FUEL, DEFAULT_SEED,
    MAX_CALL_DEPTH,
};
pub use vm::Vm;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A script made runnable: the text it came from, that text's parse, and
/// that parse compiled. Built once, where the text enters ([`prepare`]),
/// and shared by everything that runs it — so the line numbers in its
/// errors point into [`Prepared::text`].
#[derive(Debug)]
pub struct Prepared {
    text: String,
    script: Script,
    program: Arc<Program>,
}

impl Prepared {
    /// The source text this was prepared from.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The parse of [`Self::text`].
    pub fn script(&self) -> &Script {
        &self.script
    }

    /// [`Self::script`] compiled.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }
}

/// Equal texts prepare to equal scripts and programs.
impl PartialEq for Prepared {
    fn eq(&self, other: &Prepared) -> bool {
        self.text == other.text
    }
}

static PREPARES: AtomicU64 = AtomicU64::new(0);

/// Parse `text` and compile that parse. The only way source text becomes
/// runnable: a script the parser or the compiler rejects is refused here,
/// wherever it entered.
pub fn prepare(text: &str) -> Result<Arc<Prepared>, ScriptError> {
    PREPARES.fetch_add(1, Ordering::Relaxed);
    let script = parse_script(text)?;
    let program = Arc::new(compile_script(&script)?);
    Ok(Arc::new(Prepared { text: text.into(), script, program }))
}

/// How many times this process called [`prepare`] — what tests pin "a
/// registered run prepares nothing" with.
pub fn prepare_count() -> u64 {
    PREPARES.load(Ordering::Relaxed)
}

/// Parse and pretty-print: the canonical form of a script, used when the
/// registry stores PE code so that equivalent sources embed identically.
pub fn canonicalize(source: &str) -> Result<String, ScriptError> {
    Ok(to_source(&parse_script(source)?))
}
