//! Run manifests: the deterministic, machine-readable record of one
//! benchmark/flow run, written as `manifest-<name>.json`.
//!
//! A manifest has a **stable part** — schema version, run name, master
//! seed, every deterministic counter, and the run's key result values —
//! and a **volatile part**, the `timings` object (wall-clock spans,
//! per-worker stats, thread provenance). For a fixed seed the stable part
//! is byte-identical across runs and across worker-thread counts; CI
//! gates on exactly that property (`check_manifest`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::json::{self, Json};

/// Current manifest schema version.
pub const SCHEMA_VERSION: u64 = 1;

/// A run manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema: u64,
    /// Run name; the file is `manifest-<name>.json`.
    pub name: String,
    /// Master seed of the run (stable provenance).
    pub seed: u64,
    /// Deterministic counters (thread-count independent).
    pub counters: BTreeMap<String, u64>,
    /// Key result values, pre-formatted by the producer (deterministic).
    pub results: BTreeMap<String, String>,
    /// Volatile metrics: wall times, per-worker stats, thread provenance.
    pub timings: BTreeMap<String, f64>,
}

impl Manifest {
    /// The manifest's canonical file name.
    pub fn file_name(&self) -> String {
        format!("manifest-{}.json", self.name)
    }

    /// Serialises the full manifest (stable part first, `timings` last).
    pub fn to_json(&self) -> String {
        self.render(true)
    }

    /// Serialises only the stable part (no `timings` object) — the byte
    /// string that must be identical across thread counts.
    pub fn stable_json(&self) -> String {
        self.render(false)
    }

    fn render(&self, with_timings: bool) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", self.schema);
        let _ = writeln!(out, "  \"name\": \"{}\",", json::escape(&self.name));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        render_map(&mut out, "counters", &self.counters, |v| v.to_string());
        out.push_str(",\n");
        render_map(&mut out, "results", &self.results, |v| format!("\"{}\"", json::escape(v)));
        if with_timings {
            out.push_str(",\n");
            render_map(&mut out, "timings", &self.timings, |v| fmt_timing(*v));
        }
        out.push_str("\n}\n");
        out
    }

    /// Parses a manifest from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed or missing field.
    pub fn parse(src: &str) -> Result<Self, String> {
        let root = json::parse(src)?;
        let schema = root
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or_else(|| "missing/invalid 'schema'".to_string())?;
        let name = root
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing/invalid 'name'".to_string())?
            .to_string();
        let seed = root
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or_else(|| "missing/invalid 'seed'".to_string())?;
        let mut counters = BTreeMap::new();
        for (k, v) in obj_fields(&root, "counters")? {
            let n = v.as_u64().ok_or_else(|| format!("counter '{k}' is not a u64"))?;
            counters.insert(k.clone(), n);
        }
        let mut results = BTreeMap::new();
        for (k, v) in obj_fields(&root, "results")? {
            let s = v.as_str().ok_or_else(|| format!("result '{k}' is not a string"))?;
            results.insert(k.clone(), s.to_string());
        }
        let mut timings = BTreeMap::new();
        if root.get("timings").is_some() {
            for (k, v) in obj_fields(&root, "timings")? {
                // `null` is the explicit NaN encoding (see `fmt_timing`).
                let f = if matches!(v, Json::Null) {
                    f64::NAN
                } else {
                    v.as_f64().ok_or_else(|| format!("timing '{k}' is not a number"))?
                };
                timings.insert(k.clone(), f);
            }
        }
        Ok(Self { schema, name, seed, counters, results, timings })
    }

    /// Writes `manifest-<name>.json` into `dir` (created if missing).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to_dir(&self, dir: impl AsRef<Path>) -> io::Result<PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Reads and parses a manifest file.
    ///
    /// # Errors
    ///
    /// Returns a message for IO or parse failures.
    pub fn read(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn obj_fields<'a>(root: &'a Json, key: &str) -> Result<&'a [(String, Json)], String> {
    root.get(key).and_then(Json::as_obj).ok_or_else(|| format!("missing/invalid '{key}' object"))
}

/// Formats one timing value as a valid JSON token. Wall-clock rates can
/// legitimately go non-finite (a zero-duration stage, a failed divide);
/// `format!("{v:.3}")` would emit the invalid tokens `NaN` / `inf`, so
/// NaN is encoded as `null` (parsed back as NaN) and infinities clamp to
/// `±f64::MAX`. Very large magnitudes use exponent notation to keep the
/// token short.
fn fmt_timing(v: f64) -> String {
    if v.is_nan() {
        return "null".to_string();
    }
    let clamped = if v.is_infinite() { f64::MAX.copysign(v) } else { v };
    if clamped.abs() >= 1e15 {
        format!("{clamped:e}")
    } else {
        format!("{clamped:.3}")
    }
}

fn render_map<V>(
    out: &mut String,
    key: &str,
    map: &BTreeMap<String, V>,
    mut fmt: impl FnMut(&V) -> String,
) {
    let _ = write!(out, "  \"{key}\": {{");
    let mut first = true;
    for (k, v) in map {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\n    \"{}\": {}", json::escape(k), fmt(v));
    }
    if map.is_empty() {
        out.push('}');
    } else {
        out.push_str("\n  }");
    }
}

/// How [`diff`] compares two manifests.
#[derive(Clone, Debug)]
pub struct DiffConfig {
    /// Maximum allowed ratio between baseline and current for timing
    /// fields present in both manifests. The default (1000×) only catches
    /// catastrophic regressions — wall times legitimately vary across
    /// machines; counters are where the exact gating happens.
    pub timing_tolerance: f64,
    /// Whether timings are compared at all.
    pub compare_timings: bool,
    /// Per-key-prefix tolerance overrides (the perf-trajectory bands):
    /// a timing key uses the ratio of the *longest* matching prefix here
    /// instead of [`DiffConfig::timing_tolerance`]. Lets a gate hold
    /// `span.atpg.*` to a tight band while leaving noisy per-worker keys
    /// on the catastrophic-only default.
    pub bands: Vec<(String, f64)>,
}

impl Default for DiffConfig {
    fn default() -> Self {
        Self { timing_tolerance: 1000.0, compare_timings: true, bands: Vec::new() }
    }
}

impl DiffConfig {
    /// The tolerance ratio applying to `key` (longest matching band
    /// prefix, else the global default).
    pub fn tolerance_for(&self, key: &str) -> f64 {
        self.bands
            .iter()
            .filter(|(prefix, _)| key.starts_with(prefix.as_str()))
            .max_by_key(|(prefix, _)| prefix.len())
            .map_or(self.timing_tolerance, |&(_, ratio)| ratio)
    }
}

/// Diffs `current` against `baseline`: exact equality on schema, name,
/// seed, counters, and results; tolerance-banded comparison on timings
/// shared by both. Returns one message per mismatch (empty = pass).
pub fn diff(baseline: &Manifest, current: &Manifest, cfg: &DiffConfig) -> Vec<String> {
    let mut errors = Vec::new();
    if baseline.schema != current.schema {
        errors.push(format!("schema: baseline {} != current {}", baseline.schema, current.schema));
    }
    if baseline.name != current.name {
        errors.push(format!("name: baseline '{}' != current '{}'", baseline.name, current.name));
    }
    if baseline.seed != current.seed {
        errors.push(format!("seed: baseline {} != current {}", baseline.seed, current.seed));
    }
    diff_maps("counter", &baseline.counters, &current.counters, &mut errors);
    diff_maps("result", &baseline.results, &current.results, &mut errors);
    if cfg.compare_timings {
        for (k, &b) in &baseline.timings {
            let Some(&c) = current.timings.get(k) else { continue };
            if b.abs() < 1e-9 || c.abs() < 1e-9 || !b.is_finite() || !c.is_finite() {
                continue;
            }
            let tolerance = cfg.tolerance_for(k);
            let ratio = (c / b).abs();
            if ratio > tolerance || ratio < 1.0 / tolerance {
                errors.push(format!(
                    "timing '{k}': {c:.3} outside tolerance band ({b:.3} ± {tolerance}x)"
                ));
            }
        }
    }
    errors
}

fn diff_maps<V: PartialEq + std::fmt::Display>(
    what: &str,
    baseline: &BTreeMap<String, V>,
    current: &BTreeMap<String, V>,
    errors: &mut Vec<String>,
) {
    for (k, b) in baseline {
        match current.get(k) {
            None => errors.push(format!("{what} '{k}': missing from current (baseline {b})")),
            Some(c) if c != b => errors.push(format!("{what} '{k}': baseline {b} != current {c}")),
            Some(_) => {}
        }
    }
    for k in current.keys() {
        if !baseline.contains_key(k) {
            errors.push(format!("{what} '{k}': not in baseline"));
        }
    }
}

/// Collects metrics for one run: [`Run::start`] resets the current
/// recorder (see the crate root's scopes), the flow populates it, producers add key results, and
/// [`Run::finish`] snapshots everything into a [`Manifest`].
#[derive(Debug)]
pub struct Run {
    name: String,
    seed: u64,
    start: Instant,
    results: BTreeMap<String, String>,
}

impl Run {
    /// Starts a named run: resets the current recorder and the run clock.
    pub fn start(name: impl Into<String>, seed: u64) -> Self {
        crate::reset();
        Self { name: name.into(), seed, start: Instant::now(), results: BTreeMap::new() }
    }

    /// Records one key result value (already formatted, deterministic).
    pub fn result(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.results.insert(key.into(), value.into());
    }

    /// Records a float result with a fixed 6-decimal format.
    pub fn result_f64(&mut self, key: impl Into<String>, value: f64) {
        self.result(key, format!("{value:.6}"));
    }

    /// Records thread provenance in the volatile section (requested and
    /// resolved worker counts differ across environments by design).
    pub fn record_threads(&self, requested: usize, effective: usize) {
        crate::volatile_set("threads.requested", requested as f64);
        crate::volatile_set("threads.effective", effective as f64);
    }

    /// Snapshots the current recorder into a manifest. Total wall time lands in
    /// `timings["run.wall_ms"]`; each span's volatile wall-time histogram
    /// is summarised into `timings` as `span.<name>.ms_p50` / `.ms_p90` /
    /// `.ms_max` (quantiles are bucket-interpolated, see [`crate::hist`]).
    pub fn finish(self) -> Manifest {
        let (counters, timings) = crate::with_registry(|reg| {
            let t = &mut reg.volatiles;
            t.insert("run.wall_ms".to_string(), self.start.elapsed().as_secs_f64() * 1e3);
            for (name, h) in reg.wall_hists.iter().filter(|(_, h)| !h.is_empty()) {
                t.insert(format!("span.{name}.ms_p50"), h.quantile(0.5) as f64 / 1e6);
                t.insert(format!("span.{name}.ms_p90"), h.quantile(0.9) as f64 / 1e6);
                t.insert(format!("span.{name}.ms_max"), h.max as f64 / 1e6);
            }
            (reg.counters.clone(), t.clone())
        });
        let Run { name, seed, results, .. } = self;
        Manifest { schema: SCHEMA_VERSION, name, seed, counters, results, timings }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        let mut counters = BTreeMap::new();
        counters.insert("atpg.faults".to_string(), 123);
        counters.insert("span.pdesign.calls".to_string(), 4);
        let mut results = BTreeMap::new();
        results.insert("t.cov".to_string(), "0.987654".to_string());
        let mut timings = BTreeMap::new();
        timings.insert("span.pdesign.wall_ms".to_string(), 12.5);
        Manifest {
            schema: SCHEMA_VERSION,
            name: "unit".to_string(),
            seed: 0xDA7E,
            counters,
            results,
            timings,
        }
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let m = sample();
        let parsed = Manifest::parse(&m.to_json()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn stable_json_excludes_timings_only() {
        let m = sample();
        let stable = Manifest::parse(&m.stable_json()).unwrap();
        assert!(stable.timings.is_empty());
        assert_eq!(stable.counters, m.counters);
        assert_eq!(stable.results, m.results);
        let mut retimed = m.clone();
        retimed.timings.insert("span.pdesign.wall_ms".to_string(), 99.0);
        assert_eq!(m.stable_json(), retimed.stable_json());
    }

    #[test]
    fn diff_flags_counter_and_result_drift() {
        let base = sample();
        let mut cur = sample();
        assert!(diff(&base, &cur, &DiffConfig::default()).is_empty());
        cur.counters.insert("atpg.faults".to_string(), 124);
        cur.counters.insert("new.counter".to_string(), 1);
        cur.results.insert("t.cov".to_string(), "0.5".to_string());
        let errors = diff(&base, &cur, &DiffConfig::default());
        assert_eq!(errors.len(), 3, "{errors:?}");
    }

    #[test]
    fn diff_tolerates_timing_variation_within_band() {
        let base = sample();
        let mut cur = sample();
        cur.timings.insert("span.pdesign.wall_ms".to_string(), 12.5 * 4.0);
        let cfg = DiffConfig { timing_tolerance: 10.0, ..DiffConfig::default() };
        assert!(diff(&base, &cur, &cfg).is_empty());
        cur.timings.insert("span.pdesign.wall_ms".to_string(), 12.5 * 100.0);
        assert_eq!(diff(&base, &cur, &cfg).len(), 1);
        assert!(diff(&base, &cur, &DiffConfig { compare_timings: false, ..cfg.clone() }).is_empty());
    }

    #[test]
    fn diff_applies_longest_matching_band() {
        let base = sample();
        let mut cur = sample();
        cur.timings.insert("span.pdesign.wall_ms".to_string(), 12.5 * 100.0);
        let mut cfg = DiffConfig { timing_tolerance: 10.0, ..DiffConfig::default() };
        assert_eq!(diff(&base, &cur, &cfg).len(), 1, "100x breaks the 10x default");
        cfg.bands.push(("span.".to_string(), 5.0));
        cfg.bands.push(("span.pdesign.".to_string(), 500.0));
        assert_eq!(cfg.tolerance_for("span.pdesign.wall_ms"), 500.0);
        assert_eq!(cfg.tolerance_for("span.atpg.wall_ms"), 5.0);
        assert_eq!(cfg.tolerance_for("run.wall_ms"), 10.0);
        assert!(diff(&base, &cur, &cfg).is_empty(), "the longest band prefix wins");
    }

    #[test]
    fn non_finite_timings_serialise_as_valid_json() {
        let mut m = sample();
        m.timings.insert("rate.nan".to_string(), f64::NAN);
        m.timings.insert("rate.pinf".to_string(), f64::INFINITY);
        m.timings.insert("rate.ninf".to_string(), f64::NEG_INFINITY);
        m.timings.insert("rate.huge".to_string(), 1e300);
        let text = m.to_json();
        // The raw text must parse as JSON at all (the original bug: `NaN`
        // and `inf` tokens are not JSON).
        crate::json::parse(&text).expect("manifest with non-finite timings is valid JSON");
        let parsed = Manifest::parse(&text).unwrap();
        assert!(parsed.timings.get("rate.nan").unwrap().is_nan());
        assert_eq!(parsed.timings.get("rate.pinf"), Some(&f64::MAX));
        assert_eq!(parsed.timings.get("rate.ninf"), Some(&f64::MIN));
        let huge = *parsed.timings.get("rate.huge").unwrap();
        assert!((huge / 1e300 - 1.0).abs() < 1e-9, "{huge}");
        // Non-finite baselines never produce spurious diff errors.
        assert!(diff(&parsed, &parsed, &DiffConfig::default()).is_empty());
    }

    #[test]
    fn run_snapshots_registry() {
        let mut run = Run::start("r", 7);
        crate::add("k", 3);
        run.result_f64("cov", 0.5);
        run.record_threads(0, 8);
        let m = run.finish();
        assert_eq!(m.name, "r");
        assert_eq!(m.seed, 7);
        assert_eq!(m.counters.get("k"), Some(&3));
        assert_eq!(m.results.get("cov").map(String::as_str), Some("0.500000"));
        assert!(m.timings.contains_key("run.wall_ms"));
        assert_eq!(m.timings.get("threads.effective"), Some(&8.0));
    }
}
