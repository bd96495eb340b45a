//! The host fingerprint recorded with every result, and the like-for-like
//! guard on comparisons between results.

use spinfer_obs::json::Value;
use std::process::Command;

/// Cargo features the benchmark builds the workspace with.
pub const FEATURES: &str = "gpu-sim/simd";

/// What a host-clock number depends on besides the code under test.
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub avx2: bool,
    pub features: String,
    pub rustc: String,
    pub git_rev: String,
}

impl Fingerprint {
    pub fn detect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            nproc: host_jobs(),
            cpu_model,
            avx2: avx2(),
            features: FEATURES.to_string(),
            rustc: command_line("rustc", &["--version"]),
            git_rev: command_line("git", &["rev-parse", "--short", "HEAD"]),
        }
    }

    pub fn to_json(&self) -> Value {
        Value::obj()
            .set("nproc", Value::Num(self.nproc as f64))
            .set("cpu_model", Value::Str(self.cpu_model.clone()))
            .set("avx2", Value::Bool(self.avx2))
            .set("features", Value::Str(self.features.clone()))
            .set("rustc", Value::Str(self.rustc.clone()))
            .set("git_rev", Value::Str(self.git_rev.clone()))
    }

    pub fn from_json(v: &Value) -> Option<Self> {
        let s = |k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
        Some(Fingerprint {
            nproc: v.get("nproc")?.as_f64()? as usize,
            cpu_model: s("cpu_model")?,
            avx2: matches!(v.get("avx2")?, Value::Bool(true)),
            features: s("features")?,
            rustc: s("rustc")?,
            git_rev: s("git_rev")?,
        })
    }

    /// Fields that differ between two hosts, as `field: a != b`. The git
    /// rev is what a comparison compares, so it never counts.
    pub fn mismatches(&self, other: &Fingerprint) -> Vec<String> {
        let mut out = Vec::new();
        let mut cmp = |field: &str, a: String, b: String| {
            if a != b {
                out.push(format!("{field}: {a} != {b}"));
            }
        };
        cmp("nproc", self.nproc.to_string(), other.nproc.to_string());
        cmp("cpu_model", self.cpu_model.clone(), other.cpu_model.clone());
        cmp("avx2", self.avx2.to_string(), other.avx2.to_string());
        cmp("features", self.features.clone(), other.features.clone());
        cmp("rustc", self.rustc.clone(), other.rustc.clone());
        out
    }
}

/// Host job count: every available hardware thread, no more.
pub fn host_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// First line of a command's output, or `"unknown"` when it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Compares two result records (as written by a run). Prints each
/// metric both records share with its ratio, and returns the
/// fingerprint mismatches; a caller must not treat a comparison with
/// mismatches as passing.
pub fn compare(old: &Value, new: &Value) -> Result<Vec<String>, String> {
    let fp = |v: &Value, which: &str| {
        v.get("host")
            .and_then(Fingerprint::from_json)
            .ok_or_else(|| format!("{which} record has no host fingerprint"))
    };
    let (fa, fb) = (fp(old, "old")?, fp(new, "new")?);
    for key in ["workload", "trace"] {
        if old.get(key) != new.get(key) {
            return Err(format!("records differ in {key}; compare like with like"));
        }
    }
    let metrics = |v: &Value| v.get("metrics").and_then(Value::as_obj).map(<[_]>::to_vec);
    let (ma, mb) = (
        metrics(old).unwrap_or_default(),
        metrics(new).unwrap_or_default(),
    );
    for (name, a) in &ma {
        let Some((_, b)) = mb.iter().find(|(n, _)| n == name) else {
            continue;
        };
        let value = |m: &Value| m.get("value").and_then(Value::as_f64);
        if let (Some(a), Some(b)) = (value(a), value(b)) {
            let ratio = if a == 0.0 { f64::NAN } else { b / a };
            println!("{name:<44} {a:>16.6} -> {b:>16.6}  x{ratio:.4}");
        }
    }
    Ok(fa.mismatches(&fb))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> Fingerprint {
        Fingerprint {
            nproc: 2,
            cpu_model: "Example CPU".to_string(),
            avx2: true,
            features: FEATURES.to_string(),
            rustc: "rustc 1.0.0".to_string(),
            git_rev: "abc1234".to_string(),
        }
    }

    fn record(f: &Fingerprint, workload: &str, value: f64) -> Value {
        Value::obj()
            .set("workload", Value::Str(workload.to_string()))
            .set("trace", Value::Num(0.0))
            .set("host", f.to_json())
            .set(
                "metrics",
                Value::obj().set(
                    "setup_s",
                    Value::obj()
                        .set("value", Value::Num(value))
                        .set("unit", Value::Str("s".to_string())),
                ),
            )
    }

    #[test]
    fn fingerprint_round_trips_through_json() {
        let f = fp();
        assert_eq!(Fingerprint::from_json(&f.to_json()), Some(f));
    }

    #[test]
    fn matching_hosts_compare_cleanly_across_revs() {
        let a = fp();
        let b = Fingerprint {
            git_rev: "def5678".to_string(),
            ..fp()
        };
        assert!(
            compare(&record(&a, "spmm-hero", 1.0), &record(&b, "spmm-hero", 1.1))
                .expect("comparable")
                .is_empty()
        );
    }

    #[test]
    fn mismatched_hosts_are_reported() {
        let a = fp();
        let b = Fingerprint {
            nproc: 8,
            avx2: false,
            ..fp()
        };
        let m = compare(&record(&a, "spmm-hero", 1.0), &record(&b, "spmm-hero", 1.0))
            .expect("comparable");
        assert_eq!(m.len(), 2, "{m:?}");
        assert!(m[0].starts_with("nproc"));
    }

    #[test]
    fn records_without_fingerprint_or_of_other_workloads_are_refused() {
        let a = record(&fp(), "spmm-hero", 1.0);
        assert!(compare(&Value::obj(), &a).is_err());
        assert!(compare(&a, &record(&fp(), "decode-batch", 1.0)).is_err());
    }
}
