//! Per-tenant admission control: the token buckets checked before a
//! submission reaches the queue.

use std::collections::HashMap;
use std::time::Instant;

/// Token-bucket state for one tenant.
pub(crate) struct TokenBucket {
    tokens: f64,
    last: Instant,
}

/// Pool-wide per-tenant rate limiting (disabled by default — see
/// [`crate::EnginePool::set_tenant_rate`]). Classic token bucket: each tenant
/// accrues `per_sec` tokens up to `burst`; a submission costs one. An
/// empty bucket rejects with the bucket's own estimate of when the next
/// token lands — the `retryAfterMs` hint clients back off on.
pub(crate) struct RateLimiter {
    pub(crate) enabled: bool,
    pub(crate) per_sec: f64,
    pub(crate) burst: f64,
    pub(crate) buckets: HashMap<String, TokenBucket>,
}

impl RateLimiter {
    pub(crate) fn new() -> RateLimiter {
        RateLimiter { enabled: false, per_sec: 0.0, burst: 0.0, buckets: HashMap::new() }
    }

    /// Take one token for `owner`, or report how long until one lands.
    pub(crate) fn try_take(&mut self, owner: &str) -> Result<(), u64> {
        if !self.enabled {
            return Ok(());
        }
        let now = Instant::now();
        let bucket =
            self.buckets.entry(owner.to_string()).or_insert(TokenBucket { tokens: self.burst, last: now });
        let elapsed = now.duration_since(bucket.last).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.per_sec).min(self.burst);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            let wait_s = (1.0 - bucket.tokens) / self.per_sec.max(1e-9);
            Err((wait_s * 1000.0).ceil().max(1.0) as u64)
        }
    }
}
