//! The single writer behind every `BENCH_*.json` artifact.
//!
//! `fuzz --bench-out` and `serve --bench-out` both call [`bench_doc`], so
//! every benchmark artifact shares one schema: `name`, `unit`, `seed`,
//! `toolchain`, and a `values` array of rows whose shape is the bench's
//! own. CI's bench-trajectory steps append these files across commits and
//! rely on the stable top-level keys.

use crate::json::Json;

/// Builds a `BENCH_*.json` document in the shared schema.
///
/// `values` rows carry the bench-specific measurements (wall-clock fields
/// are welcome here — BENCH artifacts are trajectories, not goldens);
/// `unit` names what the rows measure (e.g. `"ops/s"`).
pub fn bench_doc(name: &str, unit: &str, seed: &str, values: Vec<Json>) -> Json {
    Json::obj([
        ("name", Json::from(name)),
        ("unit", Json::from(unit)),
        ("seed", Json::from(seed)),
        ("toolchain", Json::from(toolchain())),
        ("values", Json::Arr(values)),
    ])
}

/// The pinned toolchain channel, read from `rust-toolchain.toml` at run
/// time so BENCH rows are attributable to a compiler without a build
/// script. Falls back to `"unknown"` outside a checkout.
pub fn toolchain() -> String {
    for dir in ["rust-toolchain.toml", "../../rust-toolchain.toml"] {
        if let Ok(text) = std::fs::read_to_string(dir) {
            if let Some(channel) = parse_channel(&text) {
                return channel;
            }
        }
    }
    "unknown".to_string()
}

/// Extracts `channel = "..."` from a rust-toolchain.toml body.
fn parse_channel(text: &str) -> Option<String> {
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("channel") {
            let rest = rest.trim_start().strip_prefix('=')?.trim();
            return Some(rest.trim_matches('"').to_string());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_doc_has_the_shared_schema() {
        let doc = bench_doc(
            "serve",
            "ars/s",
            "1",
            vec![Json::obj([("ars_per_sec", Json::Float(1.5))])],
        );
        for key in ["name", "unit", "seed", "toolchain", "values"] {
            assert!(doc.get(key).is_some(), "{key}");
        }
        assert_eq!(doc.get("name"), Some(&Json::from("serve")));
        let text = doc.to_pretty();
        assert_eq!(Json::parse(&text).expect("parse"), doc);
    }

    #[test]
    fn channel_parses_from_toml() {
        assert_eq!(
            parse_channel("[toolchain]\nchannel = \"stable\"\n"),
            Some("stable".to_string())
        );
        assert_eq!(parse_channel("[toolchain]\n"), None);
        // The repo's own file resolves to something non-empty.
        assert!(!toolchain().is_empty());
    }
}
