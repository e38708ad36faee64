//! Output checks: FNV-1a digests of everything a run produces that must
//! repeat exactly, and the golden digests they are compared against.

use std::collections::BTreeMap;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a-64 digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(FNV_OFFSET)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a value's `Debug` rendering into the digest. Simulated
    /// statistics are plain integers, so the rendering is exact.
    pub fn add_debug(&mut self, v: &impl std::fmt::Debug) {
        self.add(format!("{v:?}").as_bytes());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The committed golden digests, `workload → app → hex digest`.
pub struct Golden(BTreeMap<(String, String), String>);

impl Golden {
    /// Parses `golden.txt`: one `<workload> <app> <digest>` per line,
    /// `#` comments and blank lines ignored.
    pub fn parse(text: &str) -> Golden {
        let mut map = BTreeMap::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            if let [workload, app, digest] = f[..] {
                map.insert((workload.to_string(), app.to_string()), digest.to_string());
            }
        }
        Golden(map)
    }

    /// The committed golden set, compiled into the binary.
    pub fn committed() -> Golden {
        Golden::parse(include_str!("../golden.txt"))
    }

    /// Whether `digest` is the recorded one for `(workload, app)`. A
    /// missing entry never matches.
    pub fn matches(&self, workload: &str, app: &str, digest: &Digest) -> bool {
        self.0.get(&(workload.to_string(), app.to_string())) == Some(&digest.hex())
    }

    /// An app run passes when its host program succeeded and its digest
    /// is the recorded one.
    pub fn verdict(
        &self,
        workload: &str,
        app: &str,
        ran: Result<(), String>,
        digest: &Digest,
    ) -> Result<(), String> {
        ran?;
        if self.matches(workload, app, digest) {
            Ok(())
        } else {
            Err(mismatch(workload, app, digest))
        }
    }
}

/// The failure note for a digest that is not the recorded one. It ends
/// with the `golden.txt` line this run would record, so a legitimate
/// change of simulated results is re-recorded from the notes.
fn mismatch(workload: &str, app: &str, digest: &Digest) -> String {
    format!(
        "digest is not the golden one; this run's line: {workload} {app} {}",
        digest.hex()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_lines_round_trip() {
        let mut d = Digest::default();
        d.add(b"x");
        let g = Golden::parse(&format!("# comment\n\nsim-suite atax {}\n", d.hex()));
        assert!(g.matches("sim-suite", "atax", &d));
        assert!(!g.matches("sim-suite", "mvt", &d));
        assert!(!g.matches("sim-suite", "atax", &Digest::default()));
        // A mismatch note carries the line to record, which parses back.
        let err = g
            .verdict("sim-suite", "mvt", Ok(()), &d)
            .expect_err("no golden line for mvt");
        let line = err.rsplit(": ").next().expect("note has a line");
        assert!(Golden::parse(line).matches("sim-suite", "mvt", &d));
    }

    #[test]
    fn committed_golden_covers_every_workload() {
        let g = Golden::committed();
        for w in ["compile-cold", "sim-suite", "serve-mixed"] {
            assert!(
                g.0.keys().any(|(wl, _)| wl == w),
                "no golden digests for {w}"
            );
        }
    }
}
