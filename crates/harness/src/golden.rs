//! Golden-baseline storage and drift comparison.
//!
//! Each gated experiment stores its JSON result under `goldens/<name>.json`
//! at the repository root. A check re-runs the experiment with the pinned
//! options and walks both trees under one rule for every gate: integers,
//! strings, bools and structure must match exactly, floats must agree
//! within a relative 1e-9, and any structural difference — missing key,
//! extra row, type change (an integer where the golden has a float, too)
//! — is a drift. A golden holds only simulated values, so nothing in it
//! is skipped. The CLI exits nonzero if any drift survives, which is what
//! CI gates on.

use crate::json::Json;
use std::path::{Path, PathBuf};

/// Where golden files live: `goldens/` at the repository root.
pub fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../goldens")
}

/// Path of one golden file.
pub fn golden_path(name: &str) -> PathBuf {
    goldens_dir().join(format!("{name}.json"))
}

/// The `*.json` files in `dir` that no name in `owned` claims, sorted:
/// leftovers of a deleted or renamed experiment, which a full `check`
/// reports as drift so they cannot linger unnoticed.
pub fn stale(dir: &Path, owned: &[&str]) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut stale: Vec<String> = entries
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|f| matches!(f.strip_suffix(".json"), Some(stem) if !owned.contains(&stem)))
        .collect();
    stale.sort();
    stale
}

/// Loads a golden baseline.
///
/// # Errors
///
/// Returns a message if the file is missing or malformed.
pub fn load(name: &str) -> Result<Json, String> {
    let path = golden_path(name);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes a golden baseline (pretty-printed, trailing newline).
///
/// # Errors
///
/// Returns a message on I/O failure.
pub fn store(name: &str, value: &Json) -> Result<PathBuf, String> {
    let dir = goldens_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let path = golden_path(name);
    std::fs::write(&path, value.to_pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// One detected difference between golden and actual.
#[derive(Clone, Debug, PartialEq)]
pub struct Drift {
    /// Slash-separated path into the JSON tree (`rows/3/cycles`).
    pub path: String,
    /// Human-readable description of the difference.
    pub detail: String,
}

impl std::fmt::Display for Drift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path, self.detail)
    }
}

/// Relative bound within which a float must agree with its golden. The
/// simulation is deterministic, so goldens reproduce to the last bit on
/// one host; the bound only absorbs a libm ulp between hosts.
const FLOAT_REL: f64 = 1e-9;

/// Compares an actual result against the golden baseline.
///
/// Returns every drift found (empty = pass).
pub fn compare(golden: &Json, actual: &Json) -> Vec<Drift> {
    let mut drifts = Vec::new();
    walk(golden, actual, "", &mut drifts);
    drifts
}

fn walk(golden: &Json, actual: &Json, path: &str, out: &mut Vec<Drift>) {
    let here = |p: &str| {
        if p.is_empty() {
            "<root>".to_string()
        } else {
            p.to_string()
        }
    };
    match (golden, actual) {
        (Json::Null, Json::Null) => {}
        (Json::Bool(g), Json::Bool(a)) => {
            if g != a {
                out.push(Drift {
                    path: here(path),
                    detail: format!("expected {g}, got {a}"),
                });
            }
        }
        (Json::Int(g), Json::Int(a)) => {
            if g != a {
                out.push(Drift {
                    path: here(path),
                    detail: format!("expected {g}, got {a} (exact integer match required)"),
                });
            }
        }
        (Json::Float(g), Json::Float(a)) => {
            let scale = g.abs().max(a.abs()).max(1e-300);
            if (g - a).abs() > FLOAT_REL * scale {
                out.push(Drift {
                    path: here(path),
                    detail: format!(
                        "expected {g}, got {a} (relative error {:.3e} > {FLOAT_REL:.0e})",
                        (g - a).abs() / scale
                    ),
                });
            }
        }
        (Json::Str(g), Json::Str(a)) => {
            if g != a {
                out.push(Drift {
                    path: here(path),
                    detail: format!("expected {g:?}, got {a:?}"),
                });
            }
        }
        (Json::Arr(g), Json::Arr(a)) => {
            if g.len() != a.len() {
                out.push(Drift {
                    path: here(path),
                    detail: format!("array length {} != {}", g.len(), a.len()),
                });
            }
            for (i, (gv, av)) in g.iter().zip(a.iter()).enumerate() {
                walk(gv, av, &format!("{path}/{i}"), out);
            }
        }
        (Json::Obj(g), Json::Obj(a)) => {
            for (k, gv) in g {
                let child = format!("{path}/{k}");
                match a.iter().find(|(ak, _)| ak == k) {
                    Some((_, av)) => walk(gv, av, &child, out),
                    None => out.push(Drift {
                        path: child,
                        detail: "missing in actual result".to_string(),
                    }),
                }
            }
            for (k, _) in a {
                if !g.iter().any(|(gk, _)| gk == k) {
                    out.push(Drift {
                        path: format!("{path}/{k}"),
                        detail: "unexpected key (absent from golden)".to_string(),
                    });
                }
            }
        }
        (g, a) => {
            out.push(Drift {
                path: here(path),
                detail: format!("type mismatch: golden {g:?} vs actual {a:?}"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(cycles: i64, ratio: f64) -> Json {
        Json::obj([(
            "rows",
            Json::arr([Json::obj([
                ("benchmark", Json::from("bst")),
                ("cycles", Json::Int(cycles)),
                ("ratio", Json::Float(ratio)),
            ])]),
        )])
    }

    #[test]
    fn identical_documents_pass() {
        assert!(compare(&doc(100, 0.5), &doc(100, 0.5)).is_empty());
    }

    #[test]
    fn integer_drift_is_exact() {
        let drifts = compare(&doc(100, 0.5), &doc(101, 0.5));
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].path, "/rows/0/cycles");
    }

    #[test]
    fn float_within_tolerance_passes_beyond_fails() {
        assert!(compare(&doc(1, 0.5), &doc(1, 0.5 * (1.0 + 1e-10))).is_empty());
        let drifts = compare(&doc(1, 0.5), &doc(1, 0.5 * (1.0 + 1e-8)));
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].path, "/rows/0/ratio");
    }

    #[test]
    fn structural_differences_are_drifts() {
        let golden = Json::obj([("a", Json::Int(1)), ("b", Json::Int(2))]);
        let actual = Json::obj([("a", Json::Int(1)), ("c", Json::Int(3))]);
        let drifts = compare(&golden, &actual);
        assert_eq!(drifts.len(), 2, "{drifts:?}");
        let golden = Json::arr([Json::Int(1)]);
        let actual = Json::arr([Json::Int(1), Json::Int(2)]);
        assert_eq!(compare(&golden, &actual).len(), 1);
    }

    #[test]
    fn int_vs_float_is_a_type_mismatch() {
        for (golden, actual) in [
            (Json::Int(3), Json::Float(3.0)),
            (Json::Float(3.0), Json::Int(3)),
        ] {
            let drifts = compare(&golden, &actual);
            assert_eq!(drifts.len(), 1);
            assert!(drifts[0].detail.starts_with("type mismatch"), "{drifts:?}");
        }
    }

    #[test]
    fn stale_lists_only_unowned_json_files() {
        let dir = std::env::temp_dir().join(format!("clear-golden-stale-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for f in ["a.json", "b.json", "notes.txt", "c.json"] {
            std::fs::write(dir.join(f), "{}").unwrap();
        }
        assert_eq!(stale(&dir, &["a"]), ["b.json", "c.json"]);
        assert!(stale(&dir, &["a", "b", "c"]).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
