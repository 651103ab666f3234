//! Dataflow error type.

use laminar_script::ScriptError;
use std::fmt;

/// Errors produced while building or enacting workflows.
#[derive(Debug, Clone, PartialEq)]
pub enum DataflowError {
    /// Graph construction error (unknown node, bad port, duplicate name…).
    Graph(String),
    /// The graph failed validation before enactment.
    Validation(String),
    /// A PE failed at runtime; carries the PE name and the script error.
    PeFailed { pe: String, error: ScriptError },
    /// A mapping back-end failed (worker panic, inbox closed…).
    Enactment(String),
    /// Run options were inconsistent (e.g. zero processes).
    Options(String),
    /// The run was cancelled via its
    /// [`crate::mapping::CancelToken`] before completing. Not a failure:
    /// events emitted before the stop are a valid prefix of the run's
    /// stream, and consumers see a `Cancelled` terminal marker instead of
    /// an error.
    Cancelled,
    /// A deliberately injected failure (see [`crate::fault::FaultPlan`]):
    /// the run was killed at the named epoch by the chaos harness. The
    /// checkpoint sealed just before the kill is durable, so a job that
    /// dies this way is resumable.
    Injected {
        /// The epoch whose seal triggered the kill.
        epoch: u64,
    },
}

impl fmt::Display for DataflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataflowError::Graph(m) => write!(f, "graph error: {m}"),
            DataflowError::Validation(m) => write!(f, "validation error: {m}"),
            DataflowError::PeFailed { pe, error } => write!(f, "PE '{pe}' failed: {error}"),
            DataflowError::Enactment(m) => write!(f, "enactment error: {m}"),
            DataflowError::Options(m) => write!(f, "options error: {m}"),
            DataflowError::Cancelled => write!(f, "run cancelled"),
            DataflowError::Injected { epoch } => {
                write!(f, "injected fault: run killed after epoch {epoch}")
            }
        }
    }
}

impl std::error::Error for DataflowError {}

/// The message a caught panic carries: its `&str` or `String` payload, as
/// `panic!` makes it, else a placeholder.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    let message = payload.downcast_ref::<&str>().copied();
    message.or_else(|| payload.downcast_ref::<String>().map(String::as_str)).unwrap_or("non-string payload")
}

impl From<ScriptError> for DataflowError {
    fn from(e: ScriptError) -> Self {
        DataflowError::PeFailed { pe: "<unknown>".into(), error: e }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_script::ErrorKind;

    #[test]
    fn display_variants() {
        assert!(DataflowError::Graph("x".into()).to_string().contains("graph error"));
        let pf = DataflowError::PeFailed {
            pe: "IsPrime".into(),
            error: ScriptError::new(ErrorKind::TypeError, "boom"),
        };
        assert!(pf.to_string().contains("IsPrime"));
        assert!(pf.to_string().contains("boom"));
    }
}
