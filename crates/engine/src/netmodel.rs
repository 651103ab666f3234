//! Network latency/bandwidth model for remote Execution Engines.
//!
//! Table 5 compares a local engine against one deployed on Azure App
//! Services. We reproduce the remote delta with a calibrated WAN model:
//! each request/response pays a round-trip time plus a bandwidth-
//! proportional transfer cost on the payload bytes.

use std::time::Duration;

/// A symmetric network link model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetModel {
    /// One-way latency.
    pub(crate) one_way_latency: Duration,
    /// Bandwidth in bytes per millisecond (0 = infinite).
    pub(crate) bytes_per_ms: u64,
}

impl NetModel {
    /// The loopback/local link: free.
    pub(crate) fn local() -> NetModel {
        NetModel { one_way_latency: Duration::ZERO, bytes_per_ms: 0 }
    }

    /// A WAN profile comparable to the paper's Azure deployment measured
    /// from a European client: ~25ms one-way, ~5MB/s.
    pub fn wan() -> NetModel {
        NetModel { one_way_latency: Duration::from_millis(25), bytes_per_ms: 5_000 }
    }

    /// Transfer delay for a payload of `bytes` in one direction.
    pub(crate) fn transfer_delay(&self, bytes: usize) -> Duration {
        // bytes_per_ms == 0 means infinite bandwidth (no transfer cost).
        let bw = (bytes as u64).checked_div(self.bytes_per_ms).map_or(Duration::ZERO, Duration::from_millis);
        self.one_way_latency + bw
    }

    /// Sleep for the one-direction delay of a payload of `bytes()` bytes
    /// (used by the engine to charge the cost for real). Sizing a payload
    /// means serialising it, so `bytes` runs only when the link has a
    /// bandwidth term to feed.
    pub(crate) fn charge(&self, bytes: impl FnOnce() -> usize) -> Duration {
        let d = self.transfer_delay(if self.bytes_per_ms == 0 { 0 } else { bytes() });
        if !d.is_zero() {
            std::thread::sleep(d);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_is_free() {
        let m = NetModel::local();
        assert_eq!(m.transfer_delay(1_000_000), Duration::ZERO);
    }

    #[test]
    fn wan_charges_latency_and_bandwidth() {
        let m = NetModel::wan();
        let small = m.transfer_delay(100);
        assert_eq!(small, Duration::from_millis(25), "latency-dominated");
        let big = m.transfer_delay(5_000_000);
        assert_eq!(big, Duration::from_millis(25 + 1000), "bandwidth-dominated");
    }

    #[test]
    fn charge_sleeps() {
        let m = NetModel { one_way_latency: Duration::from_millis(5), bytes_per_ms: 0 };
        let t0 = std::time::Instant::now();
        m.charge(|| unreachable!("no bandwidth term, nothing to size"));
        assert!(t0.elapsed() >= Duration::from_millis(4));
        let m = NetModel { one_way_latency: Duration::ZERO, bytes_per_ms: 1 };
        assert_eq!(m.charge(|| 3), Duration::from_millis(3));
    }
}
