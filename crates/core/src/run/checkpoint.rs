//! Checkpoint/resume state for the iterative resynthesis loop.
//!
//! After each accepted iteration the flow serialises a [`Checkpoint`]: the
//! *decision log* of accepted remaps, the fault-verdict dictionary, the
//! loop's own [`ResynthCursor`], and a snapshot of the deterministic
//! counters. Resume does **not** deserialise a netlist — it rebuilds the
//! seed netlist deterministically and *replays* the decision log, which
//! reproduces gate/net ids exactly and therefore makes `run_resumed()`
//! byte-identical to the uninterrupted run (the counters snapshot restores
//! what the replayed iterations would have counted).
//!
//! Floats (`q`, `p2`, map weights) are stored as IEEE-754 bit patterns in
//! `u64` fields so the round-trip is exact; the JSON codec keeps numbers
//! as raw text precisely for this reason.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use rsyn_observe::json::{self, Json};

use super::FlowError;
use crate::resynth::{Phase, ResynthCursor};

/// Version of the checkpoint JSON layout. A document of another schema
/// fails to parse, so a resuming caller treats it as stale.
const CHECKPOINT_SCHEMA: u64 = 2;

/// One accepted remap: enough to replay
/// `Window::extract` + `resynthesize_with` deterministically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RemapRecord {
    /// Names of the window gates that were replaced, in selection order.
    pub window: Vec<String>,
    /// Names of the library cells the mapper was allowed to use.
    pub allowed: Vec<String>,
    /// `MapOptions::area_weight` as IEEE-754 bits.
    pub area_weight_bits: u64,
    /// `MapOptions::delay_weight` as IEEE-754 bits.
    pub delay_weight_bits: u64,
}

/// Serialised state of the resynthesis loop after an accepted iteration.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Run name (ties the checkpoint to its manifest).
    pub name: String,
    /// The flow seed the run started from.
    pub seed: u64,
    /// Benchmark/circuit name the seed netlist is rebuilt from.
    pub circuit: String,
    /// The q constraint percentage, as IEEE-754 bits.
    pub q_bits: u64,
    /// Where the loop resumes: the first unexecuted iteration.
    pub cursor: ResynthCursor,
    /// Decision log of accepted remaps, in acceptance order.
    pub remaps: Vec<RemapRecord>,
    /// Fault-verdict dictionary: one char per fault in fault-list order
    /// (`D` detected, `U` undetectable, `N` undetected, `A` aborted).
    pub verdicts: String,
    /// Snapshot of the deterministic counters at checkpoint time.
    pub counters: BTreeMap<String, u64>,
}

impl Checkpoint {
    /// Serialises to deterministic, pretty-printed JSON (stable field and
    /// key order, `\n` line endings).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {CHECKPOINT_SCHEMA},");
        out.push_str("  \"kind\": \"checkpoint\",\n");
        let _ = writeln!(out, "  \"name\": \"{}\",", json::escape(&self.name));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"circuit\": \"{}\",", json::escape(&self.circuit));
        let _ = writeln!(out, "  \"q_bits\": {},", self.q_bits);
        let phase = match self.cursor.phase {
            Phase::One => 1,
            Phase::Two => 2,
        };
        let p2_bits = self.cursor.p2.map_or("null".to_string(), |p2| p2.to_bits().to_string());
        let _ = writeln!(
            out,
            "  \"cursor\": {{ \"phase\": {phase}, \"iter_in_phase\": {}, \"p2_bits\": {p2_bits} }},",
            self.cursor.iter_in_phase
        );
        out.push_str("  \"remaps\": [");
        for (i, r) in self.remaps.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let window: Vec<String> =
                r.window.iter().map(|g| format!("\"{}\"", json::escape(g))).collect();
            let allowed: Vec<String> =
                r.allowed.iter().map(|c| format!("\"{}\"", json::escape(c))).collect();
            let _ = write!(
                out,
                "    {{ \"window\": [{}], \"allowed\": [{}], \"area_weight_bits\": {}, \"delay_weight_bits\": {} }}",
                window.join(", "),
                allowed.join(", "),
                r.area_weight_bits,
                r.delay_weight_bits
            );
        }
        out.push_str(if self.remaps.is_empty() { "],\n" } else { "\n  ],\n" });
        let _ = writeln!(out, "  \"verdicts\": \"{}\",", json::escape(&self.verdicts));
        out.push_str("  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(out, "    \"{}\": {}", json::escape(k), v);
        }
        out.push_str(if self.counters.is_empty() { "}\n" } else { "\n  }\n" });
        out.push_str("}\n");
        out
    }

    /// Parses a checkpoint document produced by [`Checkpoint::to_json`].
    ///
    /// # Errors
    ///
    /// [`FlowError::Checkpoint`] on malformed JSON, a wrong `kind`/schema,
    /// or missing fields; `path` labels the source in the error.
    pub fn parse(src: &str, path: &str) -> Result<Self, FlowError> {
        let fail = |message: String| FlowError::Checkpoint { path: path.to_string(), message };
        let doc = json::parse(src).map_err(|e| fail(format!("malformed JSON: {e}")))?;
        let field = |key: &str| doc.get(key).ok_or_else(|| fail(format!("missing field `{key}`")));
        let str_field = |key: &str| -> Result<String, FlowError> {
            Ok(field(key)?
                .as_str()
                .ok_or_else(|| fail(format!("field `{key}` is not a string")))?
                .to_string())
        };
        let u64_of = |v: &Json, key: &str| -> Result<u64, FlowError> {
            v.as_u64().ok_or_else(|| fail(format!("field `{key}` is not a u64")))
        };
        let u64_field = |key: &str| -> Result<u64, FlowError> { u64_of(field(key)?, key) };

        let schema = u64_field("schema")?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(fail(format!("unsupported schema {schema} (want {CHECKPOINT_SCHEMA})")));
        }
        if str_field("kind")? != "checkpoint" {
            return Err(fail("not a checkpoint document".to_string()));
        }

        let cursor_doc = field("cursor")?;
        let cursor_field = |key: &str| -> Result<&Json, FlowError> {
            cursor_doc.get(key).ok_or_else(|| fail(format!("missing cursor field `{key}`")))
        };
        let phase = match u64_of(cursor_field("phase")?, "phase")? {
            1 => Phase::One,
            2 => Phase::Two,
            p => return Err(fail(format!("cursor phase {p} is not 1 or 2"))),
        };
        let p2 = match cursor_field("p2_bits")? {
            Json::Null => None,
            bits => Some(f64::from_bits(u64_of(bits, "p2_bits")?)),
        };
        let iter_in_phase = u64_of(cursor_field("iter_in_phase")?, "iter_in_phase")? as usize;
        let cursor = ResynthCursor { phase, iter_in_phase, p2 };

        let mut remaps = Vec::new();
        let Json::Arr(items) = field("remaps")? else {
            return Err(fail("field `remaps` is not an array".to_string()));
        };
        for item in items {
            let names = |key: &str| -> Result<Vec<String>, FlowError> {
                let Some(Json::Arr(vals)) = item.get(key) else {
                    return Err(fail(format!("remap field `{key}` is not an array")));
                };
                vals.iter()
                    .map(|v| {
                        v.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| fail(format!("remap field `{key}` holds a non-string")))
                    })
                    .collect()
            };
            let remap_u64 = |key: &str| -> Result<u64, FlowError> {
                u64_of(
                    item.get(key).ok_or_else(|| fail(format!("missing remap field `{key}`")))?,
                    key,
                )
            };
            remaps.push(RemapRecord {
                window: names("window")?,
                allowed: names("allowed")?,
                area_weight_bits: remap_u64("area_weight_bits")?,
                delay_weight_bits: remap_u64("delay_weight_bits")?,
            });
        }

        let mut counters = BTreeMap::new();
        let Json::Obj(fields) = field("counters")? else {
            return Err(fail("field `counters` is not an object".to_string()));
        };
        for (k, v) in fields {
            counters.insert(k.clone(), u64_of(v, k)?);
        }

        Ok(Checkpoint {
            name: str_field("name")?,
            seed: u64_field("seed")?,
            circuit: str_field("circuit")?,
            q_bits: u64_field("q_bits")?,
            cursor,
            remaps,
            verdicts: str_field("verdicts")?,
            counters,
        })
    }

    /// Writes the checkpoint to `path` atomically (write + rename).
    ///
    /// # Errors
    ///
    /// [`FlowError::Checkpoint`] when the filesystem refuses.
    pub fn write(&self, path: &Path) -> Result<(), FlowError> {
        let fail =
            |message: String| FlowError::Checkpoint { path: path.display().to_string(), message };
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, self.to_json()).map_err(|e| fail(format!("write failed: {e}")))?;
        std::fs::rename(&tmp, path).map_err(|e| fail(format!("rename failed: {e}")))
    }

    /// Reads and parses a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// [`FlowError::Checkpoint`] when the file is unreadable or malformed.
    pub fn read(path: &Path) -> Result<Self, FlowError> {
        let label = path.display().to_string();
        let src = std::fs::read_to_string(path).map_err(|e| FlowError::Checkpoint {
            path: label.clone(),
            message: format!("read failed: {e}"),
        })?;
        Self::parse(&src, &label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            name: "resilience".into(),
            seed: 0xDA7E,
            circuit: "sparc_tlu".into(),
            q_bits: 5.0f64.to_bits(),
            cursor: ResynthCursor { phase: Phase::Two, iter_in_phase: 3, p2: Some(12.5) },
            remaps: vec![
                RemapRecord {
                    window: vec!["u1".into(), "u2".into()],
                    allowed: vec!["NAND2X1".into(), "INVX1".into()],
                    area_weight_bits: 0.65f64.to_bits(),
                    delay_weight_bits: 0.35f64.to_bits(),
                },
                RemapRecord {
                    window: vec!["u\"q\"".into()],
                    allowed: vec![],
                    area_weight_bits: 1.0f64.to_bits(),
                    delay_weight_bits: 0.0f64.to_bits(),
                },
            ],
            verdicts: "DDUNAD".into(),
            counters: BTreeMap::from([
                ("atpg.aborted".to_string(), 1),
                ("resynth.accepted".to_string(), 2),
            ]),
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let cp = sample();
        let text = cp.to_json();
        let back = Checkpoint::parse(&text, "test").expect("parse back");
        assert_eq!(back, cp);
        // Serialisation itself is deterministic.
        assert_eq!(back.to_json(), text);
        // Float bit patterns survive exactly.
        assert_eq!(back.cursor.p2, Some(12.5));
    }

    #[test]
    fn empty_collections_round_trip() {
        let cp = Checkpoint {
            cursor: ResynthCursor::start(),
            remaps: Vec::new(),
            counters: BTreeMap::new(),
            verdicts: String::new(),
            ..sample()
        };
        let back = Checkpoint::parse(&cp.to_json(), "test").expect("parse back");
        assert_eq!(back, cp);
    }

    /// The checkpoint/resume gate compares checkpoints of one build, so it
    /// cannot see a layout change; this literal document can.
    #[test]
    fn a_schema_2_document_reads_and_writes_back_byte_for_byte() {
        let golden = r#"{
  "schema": 2,
  "kind": "checkpoint",
  "name": "resilience",
  "seed": 55934,
  "circuit": "sparc_tlu",
  "q_bits": 4617315517961601024,
  "cursor": { "phase": 2, "iter_in_phase": 1, "p2_bits": 4622945017495814144 },
  "remaps": [
    { "window": ["g12", "g40"], "allowed": ["NAND2X1", "INVX1"], "area_weight_bits": 4604187525047816028, "delay_weight_bits": 4599976659396224614 }
  ],
  "verdicts": "DDUN",
  "counters": {
    "resynth.accepted": 1
  }
}
"#;
        let cp = Checkpoint::parse(golden, "golden").expect("a schema-2 document parses");
        assert_eq!(
            cp.cursor,
            ResynthCursor { phase: Phase::Two, iter_in_phase: 1, p2: Some(12.0) }
        );
        assert_eq!(f64::from_bits(cp.q_bits), 5.0);
        assert_eq!(cp.remaps[0].window, ["g12", "g40"]);
        assert_eq!(f64::from_bits(cp.remaps[0].delay_weight_bits), 0.35);
        assert_eq!(cp.to_json(), golden);
    }

    #[test]
    fn rejects_foreign_documents() {
        let e = Checkpoint::parse("{\"schema\": 2}", "x").unwrap_err();
        assert!(matches!(e, FlowError::Checkpoint { .. }), "{e}");
        let manifest_like = "{\"schema\": 2, \"kind\": \"manifest\", \"name\": \"t\"}";
        assert!(Checkpoint::parse(manifest_like, "x").is_err());
        assert!(Checkpoint::parse("not json", "x").is_err());
        // A schema-1 checkpoint reads as stale.
        let schema_1 = sample().to_json().replacen("\"schema\": 2", "\"schema\": 1", 1);
        let e = Checkpoint::parse(&schema_1, "old").unwrap_err();
        assert!(
            matches!(&e, FlowError::Checkpoint { message, .. } if message.contains("schema 1")),
            "{e}"
        );
    }

    #[test]
    fn write_read_round_trip() {
        let dir = std::env::temp_dir().join("rsyn-checkpoint-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("checkpoint-unit.json");
        let cp = sample();
        cp.write(&path).expect("write");
        let back = Checkpoint::read(&path).expect("read");
        assert_eq!(back, cp);
        std::fs::remove_file(&path).ok();
    }
}
