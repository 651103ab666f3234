//! LamScript error type, shared by lexer, parser and interpreter.

use std::fmt;

/// Broad classification of a script failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Lexical error: bad character, unterminated string, bad number.
    Lex,
    /// Syntax error.
    Parse,
    /// Name lookup failure at runtime.
    NameError,
    /// Type mismatch at runtime (e.g. `"a" * {}`).
    TypeError,
    /// Index/key out of range.
    IndexError,
    /// Division or modulo by zero.
    DivisionByZero,
    /// A float result too large to be a finite number, which JSON cannot
    /// carry (e.g. `exp(1000)`).
    Overflow,
    /// Wrong arity or bad argument to a builtin/host function.
    ArgumentError,
    /// The fuel budget was exhausted — runaway loop protection.
    FuelExhausted,
    /// Call stack exceeded the recursion bound.
    StackOverflow,
    /// A host function reported a failure.
    HostError,
    /// `emit` used outside a PE process context.
    ContextError,
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorKind::Lex => "lex error",
            ErrorKind::Parse => "parse error",
            ErrorKind::NameError => "name error",
            ErrorKind::TypeError => "type error",
            ErrorKind::IndexError => "index error",
            ErrorKind::DivisionByZero => "division by zero",
            ErrorKind::Overflow => "overflow error",
            ErrorKind::ArgumentError => "argument error",
            ErrorKind::FuelExhausted => "fuel exhausted",
            ErrorKind::StackOverflow => "stack overflow",
            ErrorKind::HostError => "host error",
            ErrorKind::ContextError => "context error",
        };
        f.write_str(s)
    }
}

/// A LamScript error with source position (1-based; 0 means "unknown").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptError {
    /// Classification.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
    /// 1-based source line, 0 if not applicable.
    pub line: usize,
    /// 1-based source column, 0 if not applicable.
    pub column: usize,
}

impl ScriptError {
    /// Error with a source position.
    pub fn at(kind: ErrorKind, message: impl Into<String>, line: usize, column: usize) -> Self {
        ScriptError { kind, message: message.into(), line, column }
    }

    /// Error without a position (runtime errors raised by builtins).
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        ScriptError { kind, message: message.into(), line: 0, column: 0 }
    }
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "{} at line {}, column {}: {}", self.kind, self.line, self.column, self.message)
        } else {
            write!(f, "{}: {}", self.kind, self.message)
        }
    }
}

impl std::error::Error for ScriptError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_with_position() {
        let e = ScriptError::at(ErrorKind::Parse, "expected '{'", 4, 9);
        assert_eq!(e.to_string(), "parse error at line 4, column 9: expected '{'");
    }

    #[test]
    fn display_without_position() {
        let e = ScriptError::new(ErrorKind::TypeError, "cannot add string and int");
        assert_eq!(e.to_string(), "type error: cannot add string and int");
    }
}
