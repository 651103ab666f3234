//! Registry error type — mirrors the server's structured error design
//! (paper §3.2.5): every error carries a type, a code and the failing
//! parameter, and serializes to the unified v1 JSON envelope
//! `{"error":{"code","status","message","parameter"?,"retryAfterMs"?}}`
//! shared by every endpoint.

use laminar_json::{jobj, Value};
use std::fmt;

/// Errors surfaced by registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// Entity not found; carries (entity kind, key).
    NotFound { entity: &'static str, key: String },
    /// Unique constraint violated; carries (table, column, value).
    Duplicate { entity: &'static str, field: &'static str, value: String },
    /// Login failed.
    Unauthorized(String),
    /// Input failed validation (bad name, unparsable code…).
    Invalid { field: &'static str, message: String },
    /// The storage engine failed (I/O, corruption).
    Storage(String),
    /// The server is saturated (admission control); retry later.
    Busy(String),
    /// Admission control with a concrete backoff: queue-full and
    /// per-tenant rate-limit 429s carry the server's own estimate of
    /// when a retry could succeed (`retryAfterMs` on the wire).
    Throttled { message: String, retry_after_ms: u64 },
    /// The requested work was cancelled on purpose (job cancel, pool
    /// shutdown) — terminal, but not a failure: the job's event log
    /// holds the valid prefix it produced.
    Cancelled(String),
}

impl RegistryError {
    /// Stable machine-readable error code (used by clients and tests).
    pub fn code(&self) -> u32 {
        match self {
            RegistryError::NotFound { .. } => 404,
            RegistryError::Duplicate { .. } => 409,
            RegistryError::Unauthorized(_) => 401,
            RegistryError::Invalid { .. } => 400,
            RegistryError::Storage(_) => 500,
            RegistryError::Busy(_) => 429,
            RegistryError::Throttled { .. } => 429,
            RegistryError::Cancelled(_) => 409,
        }
    }

    /// Short type tag.
    pub fn kind(&self) -> &'static str {
        match self {
            RegistryError::NotFound { .. } => "NotFound",
            RegistryError::Duplicate { .. } => "Duplicate",
            RegistryError::Unauthorized(_) => "Unauthorized",
            RegistryError::Invalid { .. } => "Invalid",
            RegistryError::Storage(_) => "Storage",
            RegistryError::Busy(_) => "Busy",
            RegistryError::Throttled { .. } => "Busy",
            RegistryError::Cancelled(_) => "Cancelled",
        }
    }

    /// The server's advised retry backoff, when it has one (429s).
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            RegistryError::Throttled { retry_after_ms, .. } => Some(*retry_after_ms),
            _ => None,
        }
    }

    /// The unified v1 error envelope (paper §3.2.5, redesigned in
    /// PR 10): every endpoint answers errors as one nested object —
    /// `code` is the stable machine-readable kind, `status` the HTTP
    /// status it rides on, `parameter` the failing input when there is
    /// one, and `retryAfterMs` the server's backoff advice on 429s.
    pub fn to_value(&self) -> Value {
        let mut detail = jobj! {
            "code" => self.kind(),
            "status" => self.code() as i64,
            "message" => self.to_string(),
        };
        match self {
            RegistryError::NotFound { key, .. } => {
                detail.set("parameter", key.as_str());
            }
            RegistryError::Duplicate { value, .. } => {
                detail.set("parameter", value.as_str());
            }
            RegistryError::Invalid { field, .. } => {
                detail.set("parameter", *field);
            }
            RegistryError::Throttled { retry_after_ms, .. } => {
                detail.set("retryAfterMs", *retry_after_ms as i64);
            }
            _ => {}
        }
        let mut v = Value::Null;
        v.set("error", detail);
        v
    }
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::NotFound { entity, key } => write!(f, "{entity} '{key}' not found"),
            RegistryError::Duplicate { entity, field, value } => {
                write!(f, "{entity} with {field} '{value}' already exists")
            }
            RegistryError::Unauthorized(m) => write!(f, "unauthorized: {m}"),
            RegistryError::Invalid { field, message } => write!(f, "invalid {field}: {message}"),
            RegistryError::Storage(m) => write!(f, "storage error: {m}"),
            RegistryError::Busy(m) => write!(f, "server busy: {m}"),
            RegistryError::Throttled { message, retry_after_ms } => {
                write!(f, "server busy: {message}; retry in {retry_after_ms}ms")
            }
            RegistryError::Cancelled(m) => write!(f, "cancelled: {m}"),
        }
    }
}

impl std::error::Error for RegistryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_and_envelope() {
        let e = RegistryError::NotFound { entity: "PE", key: "IsPrime".into() };
        assert_eq!(e.code(), 404);
        let v = e.to_value();
        assert_eq!(v["error"]["code"].as_str(), Some("NotFound"));
        assert_eq!(v["error"]["status"].as_i64(), Some(404));
        assert_eq!(v["error"]["parameter"].as_str(), Some("IsPrime"));
        assert!(v["error"]["message"].as_str().unwrap().contains("IsPrime"));
        assert!(v["error"]["retryAfterMs"].as_i64().is_none());
    }

    #[test]
    fn throttled_envelope_carries_retry_hint() {
        let e = RegistryError::Throttled { message: "queue full".into(), retry_after_ms: 125 };
        assert_eq!(e.code(), 429);
        assert_eq!(e.kind(), "Busy");
        assert_eq!(e.retry_after_ms(), Some(125));
        let v = e.to_value();
        assert_eq!(v["error"]["code"].as_str(), Some("Busy"));
        assert_eq!(v["error"]["status"].as_i64(), Some(429));
        assert_eq!(v["error"]["retryAfterMs"].as_i64(), Some(125));
        assert!(v["error"]["message"].as_str().unwrap().contains("retry in 125ms"));
        // Hint-less Busy omits the field rather than writing a zero.
        let plain = RegistryError::Busy("shutting down".into()).to_value();
        assert!(plain["error"]["retryAfterMs"].as_i64().is_none());
    }

    #[test]
    fn all_variants_display() {
        let variants = [
            RegistryError::NotFound { entity: "User", key: "x".into() },
            RegistryError::Duplicate { entity: "User", field: "userName", value: "x".into() },
            RegistryError::Unauthorized("bad password".into()),
            RegistryError::Invalid { field: "peCode", message: "parse error".into() },
            RegistryError::Storage("disk".into()),
            RegistryError::Busy("queue full".into()),
            RegistryError::Throttled { message: "rate limit".into(), retry_after_ms: 50 },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
            assert!(v.code() >= 400);
        }
    }
}
