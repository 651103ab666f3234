//! Routing policies: how a datum chooses among destination PE instances.

use laminar_json::Value;

/// Grouping of an input connection (paper §2.1 "Grouping").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grouping {
    /// Round-robin across destination instances (the default).
    Shuffle,
    /// Route by hash of the tuple element at this index — dispel4py's
    /// `group-by`, behaving like MapReduce key routing. Data units with the
    /// same key always reach the same instance.
    GroupBy(usize),
    /// Broadcast every datum to all destination instances.
    OneToAll,
    /// Send everything to instance 0 (global aggregation).
    AllToOne,
}

/// Stateful router for one connection: owns the round-robin cursor.
#[derive(Debug, Clone)]
pub struct Router {
    grouping: Grouping,
    n_dest: usize,
    cursor: usize,
}

impl Router {
    /// Router over `n_dest` destination instances.
    pub fn new(grouping: Grouping, n_dest: usize) -> Self {
        assert!(n_dest > 0, "router needs at least one destination");
        Router { grouping, n_dest, cursor: 0 }
    }

    /// The round-robin cursor — the router's only mutable state, captured
    /// by epoch checkpoints so a resumed shuffle continues where the
    /// original left off.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Restore a cursor captured by [`Router::cursor`].
    pub fn set_cursor(&mut self, cursor: usize) {
        self.cursor = cursor % self.n_dest;
    }

    /// Destination instance indices for `datum`. One element except for
    /// `OneToAll`.
    pub fn route(&mut self, datum: &Value) -> Vec<usize> {
        let mut out = Vec::new();
        self.route_into(datum, &mut out);
        out
    }

    /// Allocation-free routing: append the destination indices for `datum`
    /// to `out` (which the caller clears and reuses across datums).
    pub fn route_into(&mut self, datum: &Value, out: &mut Vec<usize>) {
        match self.grouping {
            Grouping::Shuffle => {
                let i = self.cursor;
                self.cursor = (self.cursor + 1) % self.n_dest;
                out.push(i);
            }
            Grouping::GroupBy(key_index) => out.push(Self::groupby_index(datum, key_index, self.n_dest)),
            Grouping::OneToAll => out.extend(0..self.n_dest),
            Grouping::AllToOne => out.push(0),
        }
    }

    /// The group-by hash rule: the index among `n_dest` instances that
    /// the datum's key maps to. [`Router::route_into`] routes by it.
    pub fn groupby_index(datum: &Value, key_index: usize, n_dest: usize) -> usize {
        // The key is datum[key_index] for tuples/lists; scalar datums group
        // by their own value (a convenient degenerate case). Hashed by
        // reference — keys are never cloned on the routing path.
        static NULL: Value = Value::Null;
        let key = match datum {
            Value::Array(a) => a.get(key_index).unwrap_or(&NULL),
            other => other,
        };
        (key.stable_hash() % n_dest as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_json::jarr;

    #[test]
    fn shuffle_round_robins() {
        let mut r = Router::new(Grouping::Shuffle, 3);
        let v = Value::Int(0);
        let picks: Vec<usize> = (0..6).flat_map(|_| r.route(&v)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn groupby_is_sticky() {
        let mut r = Router::new(Grouping::GroupBy(0), 4);
        let a1 = r.route(&jarr!["the", 1]);
        let a2 = r.route(&jarr!["the", 99]);
        assert_eq!(a1, a2, "same key must route to the same instance");
        // Same rule as the static function.
        assert_eq!(a1[0], Router::groupby_index(&jarr!["the", 5], 0, 4));
    }

    #[test]
    fn groupby_distributes_distinct_keys() {
        let mut r = Router::new(Grouping::GroupBy(0), 8);
        let mut hit = std::collections::HashSet::new();
        for i in 0..200 {
            hit.insert(r.route(&jarr![format!("key{i}"), 1])[0]);
        }
        assert!(hit.len() >= 6, "expected most instances hit, got {hit:?}");
    }

    #[test]
    fn groupby_missing_index_is_stable() {
        let mut r = Router::new(Grouping::GroupBy(5), 4);
        let a = r.route(&jarr![1]);
        let b = r.route(&jarr![2]);
        assert_eq!(a, b, "missing key treats all tuples as one group (null key)");
    }

    #[test]
    fn groupby_scalar_uses_value() {
        let mut r = Router::new(Grouping::GroupBy(0), 16);
        let a = r.route(&Value::Str("alpha".into()));
        let b = r.route(&Value::Str("alpha".into()));
        assert_eq!(a, b);
    }

    #[test]
    fn one_to_all_broadcasts() {
        let mut r = Router::new(Grouping::OneToAll, 3);
        assert_eq!(r.route(&Value::Int(1)), vec![0, 1, 2]);
    }

    #[test]
    fn all_to_one_targets_zero() {
        let mut r = Router::new(Grouping::AllToOne, 5);
        for i in 0..4 {
            assert_eq!(r.route(&Value::Int(i)), vec![0]);
        }
    }

    #[test]
    #[should_panic(expected = "at least one destination")]
    fn zero_destinations_panics() {
        let _ = Router::new(Grouping::Shuffle, 0);
    }
}
