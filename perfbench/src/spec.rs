//! `BENCHMARK.json`: the benchmark's own declaration of its command,
//! workloads and metrics. The run reads it to learn each metric's unit
//! and checks that it emits exactly the declared metric set, so the file
//! and the code cannot drift apart silently.

use crate::json::Json;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Allowed worsening as a share of the parent's median; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    pub name: String,
    pub why: String,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

const KEYS: [&str; 6] = [
    "command",
    "paths",
    "run_seconds",
    "workloads",
    "end_to_end",
    "per_layer",
];

/// Whether `name` is a valid workload or metric name: starts with a
/// letter or digit, at most 64 of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 of letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn valid_path(path: &str) -> bool {
    (1..=200).contains(&path.len())
        && !path.starts_with('/')
        && path.split('/').all(|part| part != "..")
        && path
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/'))
}

fn exact_keys(v: &Json, want: &[&str], what: &str) -> Result<(), String> {
    let keys = v.keys();
    if keys.len() != want.len() || !want.iter().all(|k| keys.contains(k)) {
        return Err(format!(
            "{what}: keys must be exactly {want:?}, got {keys:?}"
        ));
    }
    Ok(())
}

fn str_of<'a>(v: &'a Json, key: &str, what: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{what}: '{key}' must be a string"))
}

fn strings(v: &Json, key: &str, max: usize, max_len: usize) -> Result<Vec<String>, String> {
    let items = v
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("'{key}' must be a list"))?;
    if items.is_empty() || items.len() > max {
        return Err(format!("'{key}' must hold 1 to {max} strings"));
    }
    items
        .iter()
        .map(|s| {
            s.as_str()
                .filter(|s| s.chars().count() <= max_len)
                .map(str::to_string)
                .ok_or_else(|| format!("'{key}' entries must be strings of ≤ {max_len} characters"))
        })
        .collect()
}

fn metrics(v: &Json, key: &str, max: usize, bounded: bool) -> Result<Vec<Metric>, String> {
    let items = v
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("'{key}' must be a list"))?;
    if items.is_empty() || items.len() > max {
        return Err(format!("'{key}' must hold 1 to {max} metrics"));
    }
    let mut out = Vec::with_capacity(items.len());
    for m in items {
        let what = format!("{key} metric");
        if bounded {
            exact_keys(m, &["name", "unit", "better", "bound"], &what)?;
        } else {
            exact_keys(m, &["name", "unit", "better"], &what)?;
        }
        let name = str_of(m, "name", &what)?;
        let unit = str_of(m, "unit", &what)?;
        if !valid_name(name) {
            return Err(format!("{what}: invalid name {name:?}"));
        }
        if !valid_unit(unit) {
            return Err(format!("{what} {name}: invalid unit {unit:?}"));
        }
        let better = match str_of(m, "better", &what)? {
            "lower" => Better::Lower,
            "higher" => Better::Higher,
            other => return Err(format!("{what} {name}: 'better' is {other:?}")),
        };
        let bound = if bounded {
            let b = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{what} {name}: 'bound' must be a number"))?;
            if !(b > 0.0 && b <= 0.25) {
                return Err(format!("{what} {name}: bound {b} outside (0, 0.25]"));
            }
            Some(b)
        } else {
            None
        };
        out.push(Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            better,
            bound,
        });
    }
    Ok(out)
}

impl Spec {
    /// Parses and validates a `BENCHMARK.json` document.
    pub fn from_json(v: &Json) -> Result<Spec, String> {
        exact_keys(v, &KEYS, "BENCHMARK.json")?;
        let command = strings(v, "command", 32, 200)?;
        for arg in &command {
            if arg.starts_with('/') || arg.split('/').any(|p| p == "..") {
                return Err(format!("command argument {arg:?} leaves the repository"));
            }
        }
        let paths = strings(v, "paths", 16, 200)?;
        if let Some(bad) = paths.iter().find(|p| !valid_path(p)) {
            return Err(format!("invalid path {bad:?}"));
        }
        let run_seconds =
            v.get("run_seconds")
                .and_then(Json::as_f64)
                .filter(|s| s.fract() == 0.0 && (1.0..=60.0).contains(s))
                .ok_or("'run_seconds' must be a whole number from 1 to 60")? as u64;
        let raw = v
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("'workloads' must be a list")?;
        if !(2..=8).contains(&raw.len()) {
            return Err("'workloads' must hold 2 to 8 entries".into());
        }
        let mut workloads = Vec::with_capacity(raw.len());
        for w in raw {
            exact_keys(w, &["name", "why"], "workload")?;
            let name = str_of(w, "name", "workload")?;
            let why = str_of(w, "why", "workload")?;
            if !valid_name(name) {
                return Err(format!("invalid workload name {name:?}"));
            }
            if why.chars().count() > 200 || why.contains('\n') {
                return Err(format!(
                    "workload {name}: 'why' must be one line of ≤ 200 characters"
                ));
            }
            workloads.push(Workload {
                name: name.to_string(),
                why: why.to_string(),
            });
        }
        let end_to_end = metrics(v, "end_to_end", 16, true)?;
        let per_layer = metrics(v, "per_layer", 128, false)?;
        let setup = end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .ok_or("end_to_end must include setup_s")?;
        if setup.unit != "s" || setup.better != Better::Lower {
            return Err("setup_s must have unit s and better lower".into());
        }
        let mut names: Vec<&str> = workloads.iter().map(|w| w.name.as_str()).collect();
        names.extend(end_to_end.iter().map(|m| m.name.as_str()));
        names.extend(per_layer.iter().map(|m| m.name.as_str()));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("name {:?} is used twice", w[0]));
        }
        Ok(Spec {
            command,
            paths,
            run_seconds,
            workloads,
            end_to_end,
            per_layer,
        })
    }

    /// Parses and validates `BENCHMARK.json` text.
    pub fn parse(text: &str) -> Result<Spec, String> {
        if text.len() > 64 * 1024 {
            return Err("BENCHMARK.json exceeds 64 KiB".into());
        }
        Spec::from_json(&crate::json::parse(text)?)
    }

    /// Renders the spec back to JSON (the round trip the tests check).
    #[cfg(test)]
    pub fn to_json(&self) -> Json {
        let strs = |v: &[String]| Json::Arr(v.iter().map(|s| Json::Str(s.clone())).collect());
        let metric = |m: &Metric| {
            let mut members = vec![
                ("name".to_string(), Json::Str(m.name.clone())),
                ("unit".to_string(), Json::Str(m.unit.clone())),
                ("better".to_string(), Json::Str(m.better.as_str().into())),
            ];
            if let Some(b) = m.bound {
                members.push(("bound".to_string(), Json::Num(b)));
            }
            Json::Obj(members)
        };
        Json::Obj(vec![
            ("command".into(), strs(&self.command)),
            ("paths".into(), strs(&self.paths)),
            ("run_seconds".into(), Json::Num(self.run_seconds as f64)),
            (
                "workloads".into(),
                Json::Arr(
                    self.workloads
                        .iter()
                        .map(|w| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(w.name.clone())),
                                ("why".into(), Json::Str(w.why.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "end_to_end".into(),
                Json::Arr(self.end_to_end.iter().map(metric).collect()),
            ),
            (
                "per_layer".into(),
                Json::Arr(self.per_layer.iter().map(metric).collect()),
            ),
        ])
    }

    /// The metrics a run must emit: end-to-end untraced, per-layer traced.
    pub fn metrics_for(&self, trace: bool) -> &[Metric] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn committed_file_round_trips() {
        let spec = Spec::parse(COMMITTED).expect("committed BENCHMARK.json is valid");
        let rendered = spec.to_json().render_pretty();
        assert_eq!(Spec::parse(&rendered).unwrap(), spec);
        assert_eq!(
            crate::json::parse(&rendered).unwrap(),
            crate::json::parse(COMMITTED).unwrap(),
            "rendering loses nothing"
        );
    }

    #[test]
    fn committed_file_names_the_implemented_workloads() {
        let spec = Spec::parse(COMMITTED).unwrap();
        let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, crate::WORKLOADS[..names.len()]);
    }

    #[test]
    fn metric_names_follow_the_rules() {
        for good in [
            "setup_s",
            "client.send_us",
            "p99",
            "a-b_c.d",
            &"x".repeat(64),
        ] {
            assert!(valid_name(good), "{good:?}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ä", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for good in ["s", "ms", "1/s", "%", "MiB", "count"] {
            assert!(valid_unit(good), "{good:?}");
        }
        for bad in ["", "m s", "µs", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    /// The committed file with top-level `key` set to `value` (added when
    /// absent), validated.
    fn with(key: &str, value: Json) -> Result<Spec, String> {
        let mut v = crate::json::parse(COMMITTED).unwrap();
        if let Json::Obj(members) = &mut v {
            match members.iter_mut().find(|(k, _)| k == key) {
                Some(member) => member.1 = value,
                None => members.push((key.into(), value)),
            }
        }
        Spec::from_json(&v)
    }

    #[test]
    fn validation_rejects_contract_breaches() {
        let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::Str(s.to_string())).collect());
        assert!(with("extra", Json::Null).is_err());
        assert!(with("run_seconds", Json::Num(61.0)).is_err());
        assert!(with("run_seconds", Json::Num(2.5)).is_err());
        assert!(with("paths", strs(&["../x"])).is_err());
        assert!(with("command", strs(&["/bin/sh"])).is_err());
        let one_workload = Json::Arr(vec![Json::Obj(vec![
            ("name".into(), Json::Str("only".into())),
            ("why".into(), Json::Str("too few".into())),
        ])]);
        assert!(with("workloads", one_workload).is_err());
        let metric = |name: &str, bound: f64| {
            Json::Obj(vec![
                ("name".into(), Json::Str(name.into())),
                ("unit".into(), Json::Str("s".into())),
                ("better".into(), Json::Str("lower".into())),
                ("bound".into(), Json::Num(bound)),
            ])
        };
        let loose = Json::Arr(vec![metric("setup_s", 0.3)]);
        assert!(with("end_to_end", loose).is_err(), "bound above 0.25");
        let no_setup = Json::Arr(vec![metric("latency", 0.1)]);
        assert!(with("end_to_end", no_setup).is_err(), "setup_s required");
        let twice = Json::Arr(vec![metric("setup_s", 0.1), metric("setup_s", 0.1)]);
        assert!(with("end_to_end", twice).is_err(), "duplicate name");
    }
}
