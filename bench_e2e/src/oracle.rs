//! Per-op correctness oracles. Each recomputes the expected result from
//! the workload's definition — never from the program's own output — and
//! reports the first diverging value. A mismatch makes the op *failed*.

use crate::corpus::{Expect, HIT_LIMIT};
use laminar_json::Value;
use laminar_workloads::{isprime, streaming};
use std::collections::BTreeMap;

/// What a finished run exposes, whichever layer returned it
/// (`ExecutionOutput` or `RunResult`).
pub struct RunView<'a> {
    pub printed: &'a [String],
    pub processed: &'a BTreeMap<String, u64>,
    /// Values on the terminal `WindowStats.output` port, if any.
    pub windows: &'a [Value],
}

fn expect_count(processed: &BTreeMap<String, u64>, pe: &str, want: u64) -> Result<(), String> {
    match processed.get(pe) {
        Some(got) if *got == want => Ok(()),
        got => Err(format!("processed[{pe}] = {got:?}, expected {want}")),
    }
}

/// `IsPrime` over 1..=iterations: one "the num P is prime" line per
/// prime, in order, and exact per-PE processed counts.
pub fn check_isprime(iterations: i64, view: &RunView) -> Result<(), String> {
    let primes: Vec<i64> = (1..=iterations).filter(|n| isprime::is_prime(*n)).collect();
    if view.printed.len() != primes.len() {
        return Err(format!("{} printed lines, expected {}", view.printed.len(), primes.len()));
    }
    for (line, p) in view.printed.iter().zip(&primes) {
        if *line != format!("the num {p} is prime") {
            return Err(format!("printed '{line}', expected prime {p}"));
        }
    }
    expect_count(view.processed, "NumberProducer", iterations as u64)?;
    expect_count(view.processed, "IsPrime", iterations as u64)?;
    expect_count(view.processed, "PrintPrime", primes.len() as u64)
}

/// The window aggregates `SensorWindows` must emit, folded from
/// `SensorFleet::reading` exactly as `WindowStats` folds them.
pub struct SensorReference {
    readings: usize,
    windows: Vec<(String, i64, f64)>,
}

impl SensorReference {
    pub fn new(readings: usize, sensors: usize) -> SensorReference {
        let fleet = streaming::SensorFleet::instant(sensors);
        let mut n: BTreeMap<String, i64> = BTreeMap::new();
        let mut sum: BTreeMap<String, f64> = BTreeMap::new();
        let mut windows = Vec::new();
        for i in 0..readings as i64 {
            let reading = fleet.reading(i);
            let id = reading[0].as_str().expect("sensor id").to_string();
            let count = n.entry(id.clone()).or_insert(0);
            let acc = sum.entry(id.clone()).or_insert(0.0);
            *count += 1;
            *acc += reading[1].as_f64().expect("sensor value");
            if *count % streaming::WINDOW as i64 == 0 {
                windows.push((id, *count, *acc / streaming::WINDOW as f64));
                *acc = 0.0;
            }
        }
        assert_eq!(windows.len(), streaming::expected_windows(readings, sensors));
        SensorReference { readings, windows }
    }

    pub fn check(&self, view: &RunView) -> Result<(), String> {
        if view.windows.len() != self.windows.len() {
            return Err(format!("{} windows, expected {}", view.windows.len(), self.windows.len()));
        }
        for (i, (got, (sensor, count, mean))) in view.windows.iter().zip(&self.windows).enumerate() {
            let same = got[0].as_str() == Some(sensor)
                && got[1].as_i64() == Some(*count)
                && got[2].as_f64().is_some_and(|m| (m - mean).abs() <= 1e-12);
            if !same {
                return Err(format!(
                    "window {i} = {}, expected [{sensor}, {count}, {mean}]",
                    laminar_json::to_string(got)
                ));
            }
        }
        expect_count(view.processed, "SensorPoll", self.readings as u64)?;
        expect_count(view.processed, "WindowStats", self.readings as u64)
    }
}

/// A `Beat` stream as the client sees it: `seq` gap-free from 0, exactly
/// `iterations` `output` events carrying 1..=iterations in order, and
/// the terminal `done` marker last.
pub fn check_beat_wire(iterations: i64, events: &[Value]) -> Result<(), String> {
    let mut next_output = 1i64;
    for (i, event) in events.iter().enumerate() {
        if event["seq"].as_i64() != Some(i as i64) {
            return Err(format!("event {i} has seq {:?}", event["seq"].as_i64()));
        }
        if event["type"].as_str() == Some("output") {
            if event["value"].as_i64() != Some(next_output) {
                return Err(format!(
                    "output {next_output} carried {}",
                    laminar_json::to_string(&event["value"])
                ));
            }
            next_output += 1;
        }
    }
    if next_output - 1 != iterations {
        return Err(format!("{} output events, expected {iterations}", next_output - 1));
    }
    match events.last().and_then(|e| e["type"].as_str()) {
        Some("done") => Ok(()),
        other => Err(format!("stream ended with {other:?}, expected the done marker")),
    }
}

/// The same stream below the pool, where there is no `seq` or marker
/// yet: the output values alone.
pub fn check_beat_outputs(iterations: i64, outputs: &[i64]) -> Result<(), String> {
    if outputs.len() as i64 != iterations {
        return Err(format!("{} outputs, expected {iterations}", outputs.len()));
    }
    match outputs.iter().zip(1i64..).find(|(got, want)| *got != want) {
        Some((got, want)) => Err(format!("output {want} carried {got}")),
        None => Ok(()),
    }
}

/// One search hit, whichever layer returned it.
pub struct Hit<'a> {
    pub name: &'a str,
    pub description: &'a str,
    pub score: f64,
}

pub fn check_hits<'a>(expect: &Expect, hits: impl Iterator<Item = Hit<'a>>) -> Result<(), String> {
    let hits: Vec<Hit> = hits.collect();
    let first = hits.first().map(|h| h.name);
    match expect {
        Expect::Top(name) if first == Some(name.as_str()) => Ok(()),
        Expect::Top(name) => Err(format!("hit #1 is {first:?}, expected planted {name}")),
        Expect::Only(name) if hits.len() == 1 && first == Some(name.as_str()) => Ok(()),
        Expect::Only(name) => Err(format!("{} hits led by {first:?}, expected only {name}", hits.len())),
        Expect::Nothing if hits.is_empty() => Ok(()),
        Expect::Nothing => Err(format!("{} hits led by {first:?}, expected none", hits.len())),
        Expect::Matches { word, n } => {
            if hits.len() != *n {
                return Err(format!("{} hits for '{word}', expected {n}", hits.len()));
            }
            match hits.iter().find(|h| {
                !h.description.contains(word.as_str()) && !h.name.to_lowercase().contains(word.as_str())
            }) {
                Some(h) => Err(format!("hit {} ('{}') does not contain '{word}'", h.name, h.description)),
                None => Ok(()),
            }
        }
        Expect::Ranked => {
            if hits.len() != HIT_LIMIT {
                return Err(format!("{} ranked hits, expected a full page of {HIT_LIMIT}", hits.len()));
            }
            match hits.windows(2).find(|w| w[0].score < w[1].score) {
                Some(w) => Err(format!("score {} ranked above {}", w[0].score, w[1].score)),
                None => Ok(()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_json::{jarr, jobj};

    fn counts(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn isprime_oracle_names_the_first_divergence() {
        let printed: Vec<String> = [2, 3, 5, 7].iter().map(|p| format!("the num {p} is prime")).collect();
        let processed = counts(&[("NumberProducer", 10), ("IsPrime", 10), ("PrintPrime", 4)]);
        let ok = RunView { printed: &printed, processed: &processed, windows: &[] };
        assert_eq!(check_isprime(10, &ok), Ok(()));

        let mut wrong = printed.clone();
        wrong[2] = "the num 6 is prime".into();
        let bad = RunView { printed: &wrong, processed: &processed, windows: &[] };
        assert!(check_isprime(10, &bad).unwrap_err().contains("expected prime 5"));

        let short = counts(&[("NumberProducer", 10), ("IsPrime", 9), ("PrintPrime", 4)]);
        let bad = RunView { printed: &printed, processed: &short, windows: &[] };
        assert!(check_isprime(10, &bad).unwrap_err().contains("processed[IsPrime]"));
    }

    #[test]
    fn sensor_reference_rejects_a_wrong_mean() {
        let reference = SensorReference::new(64, 4);
        let mut windows: Vec<Value> =
            reference.windows.iter().map(|(s, n, m)| jarr![s.as_str(), *n, *m]).collect();
        let processed = counts(&[("SensorPoll", 64), ("WindowStats", 64)]);
        let view = RunView { printed: &[], processed: &processed, windows: &windows };
        assert_eq!(reference.check(&view), Ok(()));
        windows[3] = jarr!["s3", 8, 0.123];
        let view = RunView { printed: &[], processed: &processed, windows: &windows };
        assert!(reference.check(&view).unwrap_err().starts_with("window 3"));
    }

    fn beat(values: &[i64]) -> Vec<Value> {
        let mut events = vec![jobj! { "seq" => 0, "type" => "plan" }];
        for v in values {
            events.push(jobj! { "seq" => events.len(), "type" => "output", "value" => *v });
        }
        events.push(jobj! { "seq" => events.len(), "type" => "done" });
        events
    }

    #[test]
    fn beat_oracle_wants_order_no_gaps_and_the_done_marker() {
        assert_eq!(check_beat_wire(3, &beat(&[1, 2, 3])), Ok(()));
        assert!(check_beat_wire(3, &beat(&[1, 3, 2])).unwrap_err().contains("output 2 carried 3"));
        assert!(check_beat_wire(4, &beat(&[1, 2, 3])).unwrap_err().contains("3 output events"));
        let mut gap = beat(&[1, 2, 3]);
        gap.remove(2);
        assert!(check_beat_wire(3, &gap).unwrap_err().contains("event 2 has seq"));
        let mut open = beat(&[1, 2, 3]);
        open.pop();
        assert!(check_beat_wire(3, &open).unwrap_err().contains("done marker"));
        assert_eq!(check_beat_outputs(3, &[1, 2, 3]), Ok(()));
        assert!(check_beat_outputs(3, &[1, 2, 4]).unwrap_err().contains("output 3 carried 4"));
    }

    #[test]
    fn hit_oracle_covers_every_expectation() {
        let hit =
            |name: &'static str, description: &'static str, score: f64| Hit { name, description, score };
        let top = Expect::Top("A".into());
        assert!(check_hits(&top, [hit("A", "", 1.0), hit("B", "", 0.5)].into_iter()).is_ok());
        assert!(check_hits(&top, [hit("B", "", 1.0)].into_iter()).is_err());
        let only = Expect::Only("A".into());
        assert!(check_hits(&only, [hit("A", "", 1.0)].into_iter()).is_ok());
        assert!(check_hits(&only, [hit("A", "", 1.0), hit("B", "", 1.0)].into_iter()).is_err());
        assert!(check_hits(&Expect::Nothing, std::iter::empty()).is_ok());
        assert!(check_hits(&Expect::Nothing, [hit("A", "", 1.0)].into_iter()).is_err());
        let matches = Expect::Matches { word: "kelp".into(), n: 2 };
        assert!(
            check_hits(&matches, [hit("A", "kelp dune", 1.0), hit("B", "elm kelp", 1.0)].into_iter()).is_ok()
        );
        assert!(check_hits(&matches, [hit("A", "kelp dune", 1.0), hit("B", "elm", 1.0)].into_iter()).is_err());
        assert!(check_hits(&matches, [hit("A", "kelp", 1.0)].into_iter()).is_err());
        let page = |flip: bool| {
            (0..HIT_LIMIT).map(move |i| {
                let rank = if flip && i == 7 { 9 } else { i };
                hit("P", "", 1.0 - rank as f64 * 0.01)
            })
        };
        assert!(check_hits(&Expect::Ranked, page(false)).is_ok());
        assert!(check_hits(&Expect::Ranked, page(true)).is_err());
        assert!(check_hits(&Expect::Ranked, page(false).take(3)).is_err());
    }
}
