//! Request/response envelopes shared by the in-process and TCP paths.

use laminar_json::Value;

/// HTTP-style method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Read.
    Get,
    /// Create.
    Post,
    /// Attach/replace.
    Put,
    /// Remove.
    Delete,
}

impl Method {
    /// Parse the wire form.
    pub(crate) fn parse(s: &str) -> Option<Method> {
        [Method::Get, Method::Post, Method::Put, Method::Delete]
            .into_iter()
            .find(|method| s.eq_ignore_ascii_case(method.as_str()))
    }

    /// Wire form.
    pub fn as_str(&self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
        }
    }
}

/// An API request.
#[derive(Debug, Clone)]
pub struct ApiRequest {
    /// Method.
    pub method: Method,
    /// Path, e.g. `/registry/zz46/pe/add` (segments percent-decoded).
    pub path: String,
    /// JSON body (Null when absent).
    pub body: Value,
}

impl ApiRequest {
    /// Build a request.
    pub fn new(method: Method, path: impl Into<String>, body: Value) -> ApiRequest {
        ApiRequest { method, path: path.into(), body }
    }

    /// Path segments (empty segments dropped).
    pub(crate) fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// An API response.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiResponse {
    /// HTTP-style status code.
    pub status: u16,
    /// JSON body.
    pub body: Value,
}

impl ApiResponse {
    /// 200 with a body.
    pub fn ok(body: Value) -> ApiResponse {
        ApiResponse { status: 200, body }
    }

    /// An error response from a registry error (standard envelope).
    pub(crate) fn error(e: &laminar_registry::RegistryError) -> ApiResponse {
        ApiResponse { status: e.code() as u16, body: e.to_value() }
    }

    /// The unified v1 error envelope for errors minted outside the
    /// registry error type (routing, HTTP parsing).
    fn error_envelope(status: u16, code: &str, message: &str) -> ApiResponse {
        let mut detail = Value::Null;
        detail.set("code", code).set("status", status as i64).set("message", message);
        let mut body = Value::Null;
        body.set("error", detail);
        ApiResponse { status, body }
    }

    /// 404 for unknown routes.
    pub(crate) fn not_found(path: &str) -> ApiResponse {
        Self::error_envelope(404, "NoSuchEndpoint", &format!("no route for {path}"))
    }

    /// 400 for malformed requests.
    pub(crate) fn bad_request(message: &str) -> ApiResponse {
        Self::error_envelope(400, "BadRequest", message)
    }

    /// Whether the call succeeded.
    pub fn is_ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_json::jobj;

    #[test]
    fn method_parse() {
        assert_eq!(Method::parse("get"), Some(Method::Get));
        assert_eq!(Method::parse("DELETE"), Some(Method::Delete));
        assert_eq!(Method::parse("PATCH"), None);
        assert_eq!(Method::Put.as_str(), "PUT");
    }

    #[test]
    fn segments_split() {
        let r = ApiRequest::new(Method::Get, "/registry/zz46/pe/all", Value::Null);
        assert_eq!(r.segments(), vec!["registry", "zz46", "pe", "all"]);
        let r = ApiRequest::new(Method::Get, "//a//b/", Value::Null);
        assert_eq!(r.segments(), vec!["a", "b"]);
    }

    #[test]
    fn response_constructors() {
        assert!(ApiResponse::ok(jobj! {"x" => 1}).is_ok());
        assert!(!ApiResponse::not_found("/nope").is_ok());
        let e = laminar_registry::RegistryError::Unauthorized("bad".into());
        let r = ApiResponse::error(&e);
        assert_eq!(r.status, 401);
        assert_eq!(r.body["error"]["code"].as_str(), Some("Unauthorized"));
    }

    #[test]
    fn every_error_constructor_answers_the_v1_envelope() {
        // One envelope shape across routing errors, HTTP-parse errors and
        // registry errors: {"error":{"code","status","message",...}}.
        let responses = [
            ApiResponse::not_found("/nope"),
            ApiResponse::bad_request("unreadable"),
            ApiResponse::error(&laminar_registry::RegistryError::Throttled {
                message: "slow down".into(),
                retry_after_ms: 40,
            }),
        ];
        for r in &responses {
            let detail = &r.body["error"];
            assert!(detail["code"].as_str().is_some(), "{r:?}");
            assert_eq!(detail["status"].as_i64(), Some(r.status as i64), "{r:?}");
            assert!(detail["message"].as_str().is_some(), "{r:?}");
        }
        assert_eq!(responses[2].body["error"]["retryAfterMs"].as_i64(), Some(40));
    }
}
