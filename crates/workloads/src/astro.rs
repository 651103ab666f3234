//! The Internal Extinction astrophysics workflow (paper §5.2, Figure 10)
//! and its simulated Virtual Observatory substrate.
//!
//! Pipeline: `readRaDec` loads coordinates from a staged resource file →
//! `getVoTable` queries the (simulated) VO service per coordinate →
//! `filterColumns` parses the VOTable and keeps the columns of interest →
//! `internalExt` computes the internal extinction. The VO service is the
//! latency source that makes the Simple mapping slow and the Multi mapping
//! fast in Table 5.

use crate::votable::{Field, VoTable};
use laminar_json::Value;
use laminar_script::{ErrorKind, Host, ScriptError};
use parking_lot::Mutex;
use std::time::Duration;

/// The workflow source (Figure 10's four PEs).
pub const SOURCE: &str = r#"
pe ReadRaDec : producer {
    doc "Loads coordinate pairs from the input file and streams them";
    output output;
    process {
        let lines = resources.lines(input);
        for l in lines { emit(l); }
    }
}

pe GetVoTable : iterative {
    doc "Downloads the VOTable for a coordinate from the Virtual Observatory";
    import astroquery;
    input coords;
    output output;
    process {
        let parts = split(coords);
        let xml = vo.fetch(float(parts[0]), float(parts[1]));
        emit([coords, xml]);
    }
}

pe FilterColumns : iterative {
    doc "Parses the VOTable and keeps the logr25 and mtype columns";
    import astropy;
    input table;
    output output;
    process {
        let rows = astropy.parse_votable(table[1]);
        let kept = [];
        for r in rows {
            kept = push(kept, {"name": r["name"], "logr25": r["logr25"], "mtype": r["mtype"]});
        }
        emit([table[0], kept]);
    }
}

pe InternalExt : consumer {
    doc "Computes the internal extinction of each galaxy and prints it";
    input rows;
    process {
        for r in rows[1] {
            let mtype = r["mtype"];
            let k = 0.0;
            if mtype <= 3 { k = 1.57; }
            else if mtype <= 5 { k = 1.35; }
            else if mtype <= 7 { k = 1.12; }
            else { k = 0.86; }
            let ext = k * r["logr25"];
            print(r["name"], "extinction", round(ext, 3));
        }
    }
}

workflow Astrophysics {
    doc "A workflow to compute the internal extinction of galaxies";
    nodes { rd = ReadRaDec; vo = GetVoTable; filt = FilterColumns; ext = InternalExt; }
    connect rd.output -> vo.coords;
    connect vo.output -> filt.table;
    connect filt.output -> ext.rows;
}
"#;

/// Deterministic synthetic coordinate catalog: `n` "ra dec" lines.
pub fn coordinates_file(n: usize) -> String {
    let mut out = String::new();
    for i in 0..n {
        // Spread over the sky deterministically.
        let ra = (i as f64 * 47.13) % 360.0;
        let dec = ((i as f64 * 13.7) % 180.0) - 90.0;
        out.push_str(&format!("{ra:.4} {dec:.4}\n"));
    }
    out
}

/// Statistics the simulated VO service tracks.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct VoStats {
    /// Queries served.
    pub(crate) queries: u64,
}

/// The simulated Virtual Observatory service: returns a deterministic
/// VOTable per coordinate after a configurable service latency. This is
/// the stand-in for the AMIGA VO endpoint the paper queries.
pub struct VoService {
    latency: Duration,
    rows_per_table: usize,
    stats: Mutex<VoStats>,
}

impl VoService {
    /// Service with the given per-request latency and table size.
    pub fn new(latency: Duration, rows_per_table: usize) -> VoService {
        VoService { latency, rows_per_table, stats: Mutex::new(VoStats::default()) }
    }

    /// Table-5-calibrated profile: 20ms per query, 4 rows per table.
    pub fn table5() -> VoService {
        VoService::new(Duration::from_millis(20), 4)
    }

    /// Instant profile for unit tests.
    pub fn instant() -> VoService {
        VoService::new(Duration::ZERO, 4)
    }

    /// Queries served so far.
    #[cfg(test)]
    fn stats(&self) -> VoStats {
        *self.stats.lock()
    }

    /// Build the deterministic catalog slice for a coordinate.
    pub(crate) fn table_for(&self, ra: f64, dec: f64) -> VoTable {
        let mut t = VoTable::new(vec![
            Field { name: "name".into(), datatype: "char".into() },
            Field { name: "logr25".into(), datatype: "double".into() },
            Field { name: "mtype".into(), datatype: "int".into() },
        ]);
        // Deterministic pseudo-galaxies derived from the coordinate.
        let seed = ((ra * 1000.0) as i64).wrapping_mul(31).wrapping_add((dec * 1000.0) as i64);
        for i in 0..self.rows_per_table {
            let h = seed.wrapping_mul(6364136223846793005).wrapping_add(i as i64 * 1442695040888963407);
            let logr25 = ((h.unsigned_abs() % 1000) as f64) / 1000.0; // 0.000..0.999
            let mtype = (h.unsigned_abs() / 1000 % 10) as i64; // 0..9
            t.push_row(vec![
                Value::Str(format!("GAL{:03}-{i}", h.unsigned_abs() % 1000)),
                Value::Float(logr25),
                Value::Int(mtype),
            ]);
        }
        t
    }
}

impl Host for VoService {
    fn call(&self, module: &str, name: &str, args: &[Value]) -> Result<Value, ScriptError> {
        match (module, name) {
            ("vo", "fetch") => {
                let (ra, dec) = match args {
                    [a, b] => (
                        a.as_f64().ok_or_else(|| {
                            ScriptError::new(ErrorKind::ArgumentError, "vo.fetch: ra must be a number")
                        })?,
                        b.as_f64().ok_or_else(|| {
                            ScriptError::new(ErrorKind::ArgumentError, "vo.fetch: dec must be a number")
                        })?,
                    ),
                    _ => return Err(ScriptError::new(ErrorKind::ArgumentError, "vo.fetch(ra, dec)")),
                };
                if !(0.0..360.0).contains(&ra) || !(-90.0..=90.0).contains(&dec) {
                    return Err(ScriptError::new(
                        ErrorKind::HostError,
                        format!("vo.fetch: coordinate out of range (ra={ra}, dec={dec})"),
                    ));
                }
                // The "download": pay the service latency.
                if !self.latency.is_zero() {
                    std::thread::sleep(self.latency);
                }
                self.stats.lock().queries += 1;
                Ok(Value::Str(self.table_for(ra, dec).to_xml()))
            }
            ("astropy", "parse_votable") => match args {
                [Value::Str(xml)] => {
                    let table = VoTable::parse(xml).map_err(|e| {
                        ScriptError::new(ErrorKind::HostError, format!("VOTable parse failed: {e}"))
                    })?;
                    Ok(Value::Array(table.rows_as_objects()))
                }
                _ => Err(ScriptError::new(ErrorKind::ArgumentError, "astropy.parse_votable(xml)")),
            },
            _ => {
                Err(ScriptError::new(ErrorKind::NameError, format!("unknown host function {module}.{name}")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_dataflow::mapping::{Mapping, MultiMapping, SimpleMapping};
    use laminar_dataflow::{RunOptions, WorkflowGraph};
    use std::sync::Arc;

    fn run_astro(
        mapping: &dyn Mapping,
        n_coords: usize,
        processes: usize,
        latency: Duration,
    ) -> laminar_dataflow::RunResult {
        let service = Arc::new(VoService::new(latency, 4));
        // Stage the coordinates through a resources host shim.
        let coords = coordinates_file(n_coords);
        struct Resources {
            text: String,
            inner: Arc<VoService>,
        }
        impl Host for Resources {
            fn call(&self, module: &str, name: &str, args: &[Value]) -> Result<Value, ScriptError> {
                if module == "resources" && name == "lines" {
                    return Ok(Value::Array(
                        self.text.lines().filter(|l| !l.is_empty()).map(|l| Value::Str(l.into())).collect(),
                    ));
                }
                self.inner.call(module, name, args)
            }
        }
        let host: Arc<dyn Host + Send + Sync> =
            Arc::new(Resources { text: coords, inner: Arc::clone(&service) });
        let graph = WorkflowGraph::from_script_with_host(SOURCE, "Astrophysics", host).unwrap();
        let options = RunOptions::data(vec![Value::Str("coordinates.txt".into())]).with_processes(processes);
        mapping.execute(&graph, &options).unwrap()
    }

    #[test]
    fn workflow_parses_and_validates() {
        let g = WorkflowGraph::from_script(SOURCE, "Astrophysics").unwrap();
        assert_eq!(g.len(), 4);
        assert!(g.validate().is_ok());
        assert_eq!(g.roots().len(), 1);
    }

    #[test]
    fn end_to_end_prints_extinctions() {
        let r = run_astro(&SimpleMapping, 5, 1, Duration::ZERO);
        // 5 coordinates × 4 galaxies per table.
        assert_eq!(r.printed.len(), 20);
        for line in &r.printed {
            assert!(line.contains("extinction"), "line: {line}");
        }
        assert_eq!(r.stats.processed["GetVoTable"], 5);
    }

    #[test]
    fn multi_matches_simple_output_multiset() {
        let mut a: Vec<String> = run_astro(&SimpleMapping, 8, 1, Duration::ZERO).printed;
        let mut b: Vec<String> = run_astro(&MultiMapping, 8, 5, Duration::ZERO).printed;
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn latency_makes_multi_faster() {
        // The Table 5 mechanism: per-coordinate service latency is serial
        // under Simple but overlapped under Multi.
        let lat = Duration::from_millis(8);
        let t_simple = run_astro(&SimpleMapping, 12, 1, lat).stats.elapsed;
        let t_multi = run_astro(&MultiMapping, 12, 5, lat).stats.elapsed;
        assert!(
            t_multi < t_simple,
            "Multi ({t_multi:?}) must beat Simple ({t_simple:?}) under service latency"
        );
    }

    #[test]
    fn vo_service_determinism_and_stats() {
        let s = VoService::instant();
        let t1 = s.table_for(120.5, -30.25);
        let t2 = s.table_for(120.5, -30.25);
        assert_eq!(t1, t2);
        let other = s.table_for(121.5, -30.25);
        assert_ne!(t1, other);
        s.call("vo", "fetch", &[Value::Float(10.0), Value::Float(10.0)]).unwrap();
        assert_eq!(s.stats().queries, 1);
    }

    #[test]
    fn vo_service_rejects_bad_coordinates() {
        let s = VoService::instant();
        assert!(s.call("vo", "fetch", &[Value::Float(400.0), Value::Float(0.0)]).is_err());
        assert!(s.call("vo", "fetch", &[Value::Float(10.0)]).is_err());
        assert!(s.call("astropy", "parse_votable", &[Value::Str("junk".into())]).is_err());
    }

    #[test]
    fn coordinates_file_shape() {
        let f = coordinates_file(10);
        assert_eq!(f.lines().count(), 10);
        for line in f.lines() {
            let parts: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(parts.len(), 2);
            let ra: f64 = parts[0].parse().unwrap();
            let dec: f64 = parts[1].parse().unwrap();
            assert!((0.0..360.0).contains(&ra));
            assert!((-90.0..=90.0).contains(&dec));
        }
    }
}
