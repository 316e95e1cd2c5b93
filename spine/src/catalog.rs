//! The frozen catalog, read from `BENCHMARK.json` at the checkout root:
//! which workloads exist, which metrics each pass must print, their units
//! and the bound an end-to-end metric may worsen by.

use serde_json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Only end-to-end metrics carry a bound.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Catalog {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
    pub run_seconds: f64,
}

/// Whether `name` is printable as a metric, workload or unit name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
        && name.as_bytes()[0].is_ascii_alphanumeric()
}

fn metric_defs(list: &Value) -> Result<Vec<MetricDef>, String> {
    let items = list.as_array().ok_or("metric list is not an array")?;
    items
        .iter()
        .map(|m| {
            let name = m["name"].as_str().ok_or("metric without a name")?.to_string();
            if !valid_name(&name) {
                return Err(format!("metric name {name:?} is not printable"));
            }
            let better = m["better"].as_str().ok_or_else(|| format!("{name}: no `better`"))?;
            Ok(MetricDef {
                unit: m["unit"].as_str().ok_or_else(|| format!("{name}: no unit"))?.to_string(),
                higher_is_better: match better {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("{name}: better = {other:?}")),
                },
                bound: m.get("bound").and_then(Value::as_f64),
                name,
            })
        })
        .collect()
}

impl Catalog {
    pub fn parse(text: &str) -> Result<Self, String> {
        let json = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = json["workloads"]
            .as_array()
            .ok_or("BENCHMARK.json has no workloads")?
            .iter()
            .map(|w| w["name"].as_str().map(str::to_string).ok_or("workload without a name"))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Catalog {
            workloads,
            end_to_end: metric_defs(&json["end_to_end"])?,
            per_layer: metric_defs(&json["per_layer"])?,
            run_seconds: json["run_seconds"].as_f64().ok_or("BENCHMARK.json has no run_seconds")?,
        })
    }

    /// Read `BENCHMARK.json` from the current directory (the checkout
    /// root the benchmark is run from).
    pub fn load() -> Result<Self, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("cannot read BENCHMARK.json from the current directory: {e}"))?;
        Self::parse(&text)
    }

    pub fn metrics(&self, trace: bool) -> &[MetricDef] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    pub fn find(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end.iter().chain(&self.per_layer).find(|m| m.name == name)
    }

    /// Pair measured values with the catalog's definitions; a name on one
    /// side only is an error, in either direction.
    pub fn pair<'a>(
        &'a self,
        trace: bool,
        measured: &[(&'static str, f64)],
    ) -> Result<Vec<(&'a MetricDef, f64)>, String> {
        let defs = self.metrics(trace);
        for (name, _) in measured {
            if !defs.iter().any(|d| d.name == *name) {
                return Err(format!("measured metric `{name}` is not in BENCHMARK.json"));
            }
        }
        defs.iter()
            .map(|def| {
                measured
                    .iter()
                    .find(|(name, _)| *name == def.name)
                    .map(|(_, value)| (def, *value))
                    .ok_or_else(|| {
                        format!("BENCHMARK.json lists `{}`, which was not measured", def.name)
                    })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
        "command": ["bash", "spine/run.sh"], "paths": ["spine"], "run_seconds": 8,
        "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
        "end_to_end": [
            {"name": "rtt_p50_us", "unit": "us", "better": "lower", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "core.theta", "unit": "count", "better": "lower"}]
    }"#;

    #[test]
    fn parses_the_contract_shape() {
        let c = Catalog::parse(SAMPLE).unwrap();
        assert_eq!(c.workloads, vec!["a", "b"]);
        assert_eq!(c.run_seconds, 8.0);
        assert_eq!(c.end_to_end[0].bound, Some(0.1));
        assert!(!c.end_to_end[0].higher_is_better);
        assert_eq!(c.per_layer[0].bound, None);
        assert_eq!(c.find("core.theta").unwrap().unit, "count");
    }

    #[test]
    fn pairing_fails_in_either_direction() {
        let c = Catalog::parse(SAMPLE).unwrap();
        let ok = c.pair(false, &[("setup_s", 1.0), ("rtt_p50_us", 2.0)]).unwrap();
        assert_eq!(ok[0].0.name, "rtt_p50_us");
        assert_eq!(ok[0].1, 2.0);
        assert!(c.pair(false, &[("setup_s", 1.0)]).unwrap_err().contains("not measured"));
        assert!(c
            .pair(false, &[("setup_s", 1.0), ("rtt_p50_us", 2.0), ("extra", 3.0)])
            .unwrap_err()
            .contains("not in BENCHMARK.json"));
    }

    #[test]
    fn printed_names_are_restricted_to_the_safe_alphabet() {
        for good in ["rtt_p50_us", "serve.ping_rtt_us", "solve-ic", "1x"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "a b", "µs", ".x", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    /// The catalog this checkout freezes: it parses, lists the
    /// workloads the harness has plans for, and prints only safe names.
    #[test]
    fn the_frozen_catalog_is_printable_and_matches_the_plans() {
        let c = Catalog::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(c.workloads, crate::plan::WORKLOADS);
        assert!(c.end_to_end.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        for m in c.end_to_end.iter().chain(&c.per_layer) {
            assert!(valid_name(&m.name), "{}", m.name);
            assert!(m.unit.len() <= 16 && !m.unit.is_empty(), "{}", m.unit);
            assert!(m.unit.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)));
        }
        assert!(c.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        for name in &c.workloads {
            assert!(valid_name(name));
        }
    }
}
