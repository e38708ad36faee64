//! Minimal JSON writer for the benchmark binaries' `--json` mode.
//!
//! The workspace deliberately carries no serialization dependency (the
//! vendored crates are offline stubs), so the handful of flat rows the
//! benchmarks emit are serialized by hand. Values render as canonical
//! JSON: strings escaped, floats via Rust's shortest round-trip `{}`
//! formatting, `NaN`/infinities as `null` (JSON has no spelling for them).

use soff_obs::chrome::esc;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (kept exact; no float formatting).
    Int(i64),
    /// A float (`null` when not finite).
    Num(f64),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write!(f, "\"{}\"", esc(s)),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "\"{}\":{v}", esc(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// The workspace root (two levels above this crate's manifest), where
/// `BENCH_*.json` artifacts live so they can be committed and tracked
/// as the perf trajectory. Falls back to the current directory when the
/// compile-time path no longer exists (e.g. an installed binary).
fn artifact_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .filter(|p| p.is_dir())
        .map(Path::to_path_buf)
        .unwrap_or_else(|| Path::new(".").to_path_buf())
}

/// Writes one benchmark's rows to `BENCH_<name>.json` in the repo root
/// (`{"bench": <name>, "rows": [...]}`), so the artifact lands in the
/// same tracked place no matter which directory the binary runs from.
/// Returns the path written, for the binary to report.
///
/// # Errors
///
/// Propagates file-creation/write errors.
pub fn write_bench_rows(name: &str, rows: Vec<Json>) -> io::Result<std::path::PathBuf> {
    let doc = Json::obj(vec![("bench", Json::str(name)), ("rows", Json::Arr(rows))]);
    let path = artifact_dir().join(format!("BENCH_{name}.json"));
    fs::write(&path, format!("{doc}\n"))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars_and_escaping() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::Int(-3).to_string(), "-3");
        assert_eq!(Json::Num(1.5).to_string(), "1.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::str("a\"b\n").to_string(), "\"a\\\"b\\n\"");
    }

    #[test]
    fn renders_nested_structures() {
        let j = Json::obj(vec![
            ("name", Json::str("atax")),
            ("speedup", Json::Num(1.25)),
            ("tags", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
        ]);
        assert_eq!(j.to_string(), "{\"name\":\"atax\",\"speedup\":1.25,\"tags\":[1,2]}");
    }
}
