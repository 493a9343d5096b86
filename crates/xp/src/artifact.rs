//! Schema-versioned artifact emission.
//!
//! Every JSON file written under `results/` flows through
//! [`emit_artifact`], which stamps a leading `schema_version` field so
//! downstream consumers (CI gates, the weekly full-reproduction run,
//! external analysis) can sniff compatibility before parsing the body.

use serde::Serialize;
use serde_json::Value;
use std::path::Path;

/// Schema version stamped into every JSON artifact written by
/// [`emit_artifact`]. Bump when a report's shape changes incompatibly.
pub const ARTIFACT_SCHEMA_VERSION: u64 = 2;

/// Serializes `value`, stamps a `schema_version` field into the root
/// object, and writes it pretty-printed to `path` (creating parent
/// directories as needed).
///
/// # Panics
///
/// Panics when `value` does not serialize to a JSON object or the file
/// cannot be written — report emission is not recoverable for the
/// benchmark binaries.
pub fn emit_artifact<T: Serialize + ?Sized>(path: impl AsRef<Path>, value: &T) {
    let _span = gpm_telemetry::span("artifact.write");
    let path = path.as_ref();
    let mut root = serde_json::to_value(value).expect("artifact serializes");
    match &mut root {
        Value::Map(entries) => entries.insert(
            0,
            (
                Value::Str("schema_version".to_string()),
                Value::U64(ARTIFACT_SCHEMA_VERSION),
            ),
        ),
        _ => panic!("artifact root must be a JSON object: {}", path.display()),
    }
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create artifact directory");
        }
    }
    // `root` is already a tree, so the printer borrows it.
    let text = serde_json::to_string_pretty(&root).expect("artifact serializes");
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
}

/// Writes a text artifact — an SVG chart, a Prometheus exposition, a
/// profile — to `path` (creating parent directories as needed).
///
/// # Panics
///
/// Panics when the file cannot be written.
pub fn emit_text(path: impl AsRef<Path>, text: &str) {
    let _span = gpm_telemetry::span("artifact.write");
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create artifact directory");
        }
    }
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    #[test]
    fn artifact_gets_schema_version_stamp() {
        #[derive(Serialize)]
        struct Tiny {
            x: u64,
        }
        let dir = std::env::temp_dir().join("gpm_xp_artifact_test");
        let path = dir.join("tiny.json");
        emit_artifact(&path, &Tiny { x: 7 });
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"schema_version\""));
        assert!(text.contains("\"x\""));
        // The stamp leads the object, so consumers can sniff it cheaply.
        assert!(text.find("schema_version").unwrap() < text.find('x').unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "artifact root must be a JSON object")]
    fn non_object_roots_are_rejected() {
        let dir = std::env::temp_dir().join("gpm_xp_artifact_test");
        emit_artifact(dir.join("arr.json"), &[1u64, 2, 3]);
    }
}
