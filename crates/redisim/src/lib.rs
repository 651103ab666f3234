//! # laminar-redisim
//!
//! An in-memory Redis-like broker.
//!
//! dispel4py's Redis mapping enacts a workflow by letting worker processes
//! coordinate exclusively through Redis lists used as work queues. This
//! crate reproduces the slice of Redis that mapping sends — `RPUSH`,
//! `BLPOP` and `INCR`, plus the `KEYS prefix*` its tests read — behind a
//! cloneable client handle, so the `laminar-dataflow` Redis mapping can run
//! workers that share nothing but the broker.
//!
//! ```
//! use laminar_redisim::Broker;
//! use std::time::Duration;
//!
//! let broker = Broker::new();
//! let client = broker.client();
//! client.rpush("queue:pe1", b"datum".to_vec());
//! let got = client.blpop("queue:pe1", Duration::from_millis(10)).unwrap();
//! assert_eq!(got, b"datum");
//! ```

#![forbid(unsafe_code)]

mod broker;

pub use broker::{Broker, BrokerError, RedisClient};
