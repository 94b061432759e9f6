//! CI gate over run manifests (see `rsyn_observe::manifest`).
//!
//! Two modes:
//!
//! * **Baseline diff** (default): `check_manifest <baseline> <current>`
//!   compares a freshly produced manifest against a checked-in baseline —
//!   exact equality on schema, name, seed, every counter and every result;
//!   timings shared by both files must stay within a ratio band
//!   (`--timing-tolerance R`, default 1000, i.e. only catastrophic drift
//!   fails; pass `--no-timings` to skip them entirely). Repeatable
//!   `--band PREFIX=R` flags tighten (or loosen) the band for every
//!   timing key starting with `PREFIX` — the longest matching prefix wins
//!   — which is how the perf-trajectory gate holds `span.*` wall times to
//!   a configured regression band while leaving noisier keys on the
//!   catastrophic-only default.
//! * **Determinism**: `check_manifest --determinism <a> <b>` asserts the
//!   *stable* serialisations of two manifests are byte-identical — the
//!   thread-count-independence gate (same run at `--threads 1` vs `N`).
//!   When both files are flow *checkpoints* (`"kind": "checkpoint"`, see
//!   `rsyn_resilience::Checkpoint`) the raw bytes are compared instead:
//!   checkpoints carry no volatile section, so a resumed run must
//!   re-produce them exactly.
//!
//! In both modes, repeatable `--require NAME` asserts the current (second)
//! manifest carries a non-zero counter `NAME`, and `--zero NAME` that it
//! carries none (absent or zero) — how the gates prove no fault ended
//! `Aborted`.
//!
//! Exit status: 0 on pass; 1 with one line per mismatch on stderr on fail;
//! 2 on usage or I/O errors.

use std::process::ExitCode;

use rsyn_observe::manifest::{diff, DiffConfig, Manifest};
use rsyn_resilience::Checkpoint;

/// True when the file at `path` parses as a flow checkpoint.
fn is_checkpoint(src: &str, path: &str) -> bool {
    Checkpoint::parse(src, path).is_ok()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: check_manifest [--timing-tolerance R | --no-timings] [--band PREFIX=R ...] \
         [--ignore PREFIX ...] [--require NAME ...] [--zero NAME ...] <baseline> <current>\n\
         \u{20}      check_manifest --determinism [--ignore PREFIX ...] [--require NAME ...] \
         [--zero NAME ...] <a> <b>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = DiffConfig::default();
    let mut determinism = false;
    if let Some(i) = args.iter().position(|a| a == "--determinism") {
        determinism = true;
        args.remove(i);
    }
    if let Some(i) = args.iter().position(|a| a == "--no-timings") {
        cfg.compare_timings = false;
        args.remove(i);
    }
    if let Some(i) = args.iter().position(|a| a == "--timing-tolerance") {
        if i + 1 >= args.len() {
            return usage();
        }
        match args[i + 1].parse::<f64>() {
            Ok(r) if r >= 1.0 => cfg.timing_tolerance = r,
            _ => {
                eprintln!("--timing-tolerance must be a ratio >= 1");
                return ExitCode::from(2);
            }
        }
        args.drain(i..=i + 1);
    }
    // `--ignore PREFIX` strips matching counters from both manifests before
    // any comparison — the warm-cache gate uses it to compare a cold and a
    // warm run, which agree on everything except their `cache.*` traffic.
    let mut ignores: Vec<String> = Vec::new();
    while let Some(i) = args.iter().position(|a| a == "--ignore") {
        if i + 1 >= args.len() {
            return usage();
        }
        ignores.push(args[i + 1].clone());
        args.drain(i..=i + 1);
    }
    // `--require NAME` asserts the *current* (second) manifest carries a
    // non-zero counter NAME — how the gate proves a warm run actually hit.
    let mut requires: Vec<String> = Vec::new();
    while let Some(i) = args.iter().position(|a| a == "--require") {
        if i + 1 >= args.len() {
            return usage();
        }
        requires.push(args[i + 1].clone());
        args.drain(i..=i + 1);
    }
    let mut zeros: Vec<String> = Vec::new();
    while let Some(i) = args.iter().position(|a| a == "--zero") {
        if i + 1 >= args.len() {
            return usage();
        }
        zeros.push(args[i + 1].clone());
        args.drain(i..=i + 1);
    }
    while let Some(i) = args.iter().position(|a| a == "--band") {
        if i + 1 >= args.len() {
            return usage();
        }
        let spec = args[i + 1].clone();
        let Some((prefix, ratio)) = spec.split_once('=') else {
            eprintln!("--band expects PREFIX=RATIO, got `{spec}`");
            return ExitCode::from(2);
        };
        match ratio.parse::<f64>() {
            Ok(r) if r >= 1.0 => cfg.bands.push((prefix.to_string(), r)),
            _ => {
                eprintln!("--band ratio must be >= 1, got `{ratio}`");
                return ExitCode::from(2);
            }
        }
        args.drain(i..=i + 1);
    }
    let [a, b] = args.as_slice() else {
        return usage();
    };

    if determinism {
        // Checkpoints have no volatile section, so their determinism gate
        // is raw byte equality rather than the stable-manifest projection.
        let (raw_a, raw_b) = match (std::fs::read_to_string(a), std::fs::read_to_string(b)) {
            (Ok(l), Ok(r)) => (l, r),
            (l, r) => {
                for e in [l.err(), r.err()].into_iter().flatten() {
                    eprintln!("error: {e}");
                }
                return ExitCode::from(2);
            }
        };
        if is_checkpoint(&raw_a, a) && is_checkpoint(&raw_b, b) {
            if raw_a == raw_b {
                println!("determinism ok: checkpoints {a} and {b} are byte-identical");
                return ExitCode::SUCCESS;
            }
            eprintln!("determinism FAILED: checkpoints {a} and {b} differ");
            return ExitCode::FAILURE;
        }
    }

    let (mut left, mut right) = match (Manifest::read(a), Manifest::read(b)) {
        (Ok(l), Ok(r)) => (l, r),
        (l, r) => {
            for e in [l.err(), r.err()].into_iter().flatten() {
                eprintln!("error: {e}");
            }
            return ExitCode::from(2);
        }
    };

    // Presence checks run against the raw current manifest, before any
    // `--ignore` stripping (the warm-cache gate requires `cache.hit` while
    // simultaneously ignoring the `cache.` prefix in the comparison).
    let mut missing = false;
    for name in &requires {
        let n = right.counters.get(name).copied().unwrap_or(0);
        if n == 0 {
            eprintln!("required counter `{name}` is absent or zero in {b}");
            missing = true;
        }
    }
    for name in &zeros {
        let n = right.counters.get(name).copied().unwrap_or(0);
        if n != 0 {
            eprintln!("counter `{name}` is {n} in {b}, expected zero");
            missing = true;
        }
    }
    if missing {
        return ExitCode::FAILURE;
    }
    if !ignores.is_empty() {
        for m in [&mut left, &mut right] {
            m.counters.retain(|k, _| !ignores.iter().any(|p| k.starts_with(p)));
        }
    }

    if determinism {
        if left.stable_json() == right.stable_json() {
            println!("determinism ok: {a} and {b} agree on the stable manifest");
            return ExitCode::SUCCESS;
        }
        eprintln!("determinism FAILED: stable manifests differ between {a} and {b}");
        for e in diff(&left, &right, &DiffConfig { compare_timings: false, ..cfg }) {
            eprintln!("  {e}");
        }
        return ExitCode::FAILURE;
    }

    let errors = diff(&left, &right, &cfg);
    if errors.is_empty() {
        println!("manifest ok: {b} matches baseline {a}");
        return ExitCode::SUCCESS;
    }
    eprintln!("manifest check FAILED: {b} vs baseline {a}");
    for e in &errors {
        eprintln!("  {e}");
    }
    ExitCode::FAILURE
}
