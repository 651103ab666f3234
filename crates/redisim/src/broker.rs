//! The broker core: a keyspace of lists and counters, and blocking pops.

use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors surfaced by broker operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrokerError {
    /// Operation applied to a key holding the wrong kind of value
    /// (Redis's `WRONGTYPE`).
    WrongType { key: String, expected: &'static str, actual: &'static str },
    /// Blocking pop timed out.
    Timeout,
}

impl std::fmt::Display for BrokerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BrokerError::WrongType { key, expected, actual } => {
                write!(f, "WRONGTYPE key '{key}': expected {expected}, holds {actual}")
            }
            BrokerError::Timeout => write!(f, "blocking operation timed out"),
        }
    }
}

impl std::error::Error for BrokerError {}

enum Entry {
    List(VecDeque<Vec<u8>>),
    Counter(i64),
}

impl Entry {
    fn kind(&self) -> &'static str {
        match self {
            Entry::List(_) => "list",
            Entry::Counter(_) => "counter",
        }
    }

    fn wrong_type(&self, key: &str, expected: &'static str) -> BrokerError {
        BrokerError::WrongType { key: key.into(), expected, actual: self.kind() }
    }
}

struct Inner {
    keyspace: Mutex<HashMap<String, Entry>>,
    /// Woken whenever a list grows.
    list_grew: Condvar,
}

/// The broker itself. Cheap to clone via [`Broker::client`].
pub struct Broker {
    inner: Arc<Inner>,
}

impl Default for Broker {
    fn default() -> Self {
        Self::new()
    }
}

impl Broker {
    /// Start an empty broker.
    pub fn new() -> Self {
        Broker { inner: Arc::new(Inner { keyspace: Mutex::new(HashMap::new()), list_grew: Condvar::new() }) }
    }

    /// A client handle; clone freely across threads ("connections").
    pub fn client(&self) -> RedisClient {
        RedisClient { inner: Arc::clone(&self.inner) }
    }
}

/// A connection handle to a [`Broker`].
#[derive(Clone)]
pub struct RedisClient {
    inner: Arc<Inner>,
}

impl RedisClient {
    /// Append to the tail of a list, creating it if absent. Returns the new
    /// length.
    pub fn rpush(&self, key: &str, value: Vec<u8>) -> Result<usize, BrokerError> {
        let mut ks = self.inner.keyspace.lock();
        let entry = ks.entry(key.to_string()).or_insert_with(|| Entry::List(VecDeque::new()));
        let Entry::List(list) = entry else {
            return Err(entry.wrong_type(key, "list"));
        };
        list.push_back(value);
        let len = list.len();
        drop(ks);
        self.inner.list_grew.notify_all();
        Ok(len)
    }

    /// Blocking pop from the head: waits up to `timeout` for an element. A
    /// list that empties is removed, as Redis removes it.
    pub fn blpop(&self, key: &str, timeout: Duration) -> Result<Vec<u8>, BrokerError> {
        let deadline = Instant::now() + timeout;
        let mut ks = self.inner.keyspace.lock();
        loop {
            match ks.get_mut(key) {
                Some(Entry::List(list)) => {
                    let v = list.pop_front().expect("an empty list is removed");
                    if list.is_empty() {
                        ks.remove(key);
                    }
                    return Ok(v);
                }
                Some(e) => return Err(e.wrong_type(key, "list")),
                None => {}
            }
            if self.inner.list_grew.wait_until(&mut ks, deadline).timed_out() {
                return Err(BrokerError::Timeout);
            }
        }
    }

    /// Atomically increment a counter key, creating it at 0 first. Returns
    /// the new value.
    pub fn incr(&self, key: &str) -> Result<i64, BrokerError> {
        let mut ks = self.inner.keyspace.lock();
        let entry = ks.entry(key.to_string()).or_insert(Entry::Counter(0));
        let Entry::Counter(c) = entry else {
            return Err(entry.wrong_type(key, "counter"));
        };
        *c += 1;
        Ok(*c)
    }

    /// Keys with the given prefix (the subset of `KEYS pattern*` the
    /// mapping needs), sorted.
    pub fn keys_with_prefix(&self, prefix: &str) -> Vec<String> {
        let ks = self.inner.keyspace.lock();
        let mut out: Vec<String> = ks.keys().filter(|k| k.starts_with(prefix)).cloned().collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn list_fifo_order() {
        let b = Broker::new();
        let c = b.client();
        assert_eq!(c.rpush("q", b"1".to_vec()).unwrap(), 1);
        assert_eq!(c.rpush("q", b"2".to_vec()).unwrap(), 2);
        assert_eq!(c.blpop("q", Duration::ZERO).unwrap(), b"1");
        assert_eq!(c.blpop("q", Duration::ZERO).unwrap(), b"2");
        assert_eq!(c.blpop("q", Duration::ZERO).unwrap_err(), BrokerError::Timeout);
        assert!(c.keys_with_prefix("q").is_empty(), "a drained list is removed");
    }

    #[test]
    fn blpop_wakes_on_push() {
        let b = Broker::new();
        let c1 = b.client();
        let c2 = b.client();
        let waiter = thread::spawn(move || c1.blpop("jobs", Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(20));
        c2.rpush("jobs", b"work".to_vec()).unwrap();
        assert_eq!(waiter.join().unwrap().unwrap(), b"work");
    }

    #[test]
    fn blpop_times_out() {
        let b = Broker::new();
        let c = b.client();
        let err = c.blpop("empty", Duration::from_millis(20)).unwrap_err();
        assert_eq!(err, BrokerError::Timeout);
    }

    #[test]
    fn wrong_type_detected() {
        let b = Broker::new();
        let c = b.client();
        c.rpush("l", b"x".to_vec()).unwrap();
        assert!(matches!(c.incr("l"), Err(BrokerError::WrongType { .. })));
        c.incr("n").unwrap();
        assert!(matches!(c.rpush("n", b"x".to_vec()), Err(BrokerError::WrongType { .. })));
        assert!(matches!(c.blpop("n", Duration::ZERO), Err(BrokerError::WrongType { .. })));
    }

    #[test]
    fn counters_are_atomic_across_threads() {
        let b = Broker::new();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = b.client();
                thread::spawn(move || {
                    for _ in 0..1000 {
                        c.incr("n").unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(b.client().incr("n").unwrap(), 8001);
    }

    #[test]
    fn keys_with_prefix_sorted() {
        let b = Broker::new();
        let c = b.client();
        c.rpush("queue:b", vec![]).unwrap();
        c.rpush("queue:a", vec![]).unwrap();
        c.incr("other").unwrap();
        assert_eq!(c.keys_with_prefix("queue:"), vec!["queue:a", "queue:b"]);
    }

    #[test]
    fn many_producers_one_consumer() {
        let b = Broker::new();
        let n_producers = 4;
        let per = 250;
        let producers: Vec<_> = (0..n_producers)
            .map(|p| {
                let c = b.client();
                thread::spawn(move || {
                    for i in 0..per {
                        c.rpush("work", format!("{p}:{i}").into_bytes()).unwrap();
                    }
                })
            })
            .collect();
        let consumer = {
            let c = b.client();
            thread::spawn(move || {
                let mut got = 0;
                while got < n_producers * per {
                    c.blpop("work", Duration::from_secs(5)).unwrap();
                    got += 1;
                }
                got
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        assert_eq!(consumer.join().unwrap(), n_producers * per);
    }
}
