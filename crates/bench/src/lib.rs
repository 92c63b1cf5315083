//! # rna-bench
//!
//! Criterion benchmarks for the RNA reproduction.
//!
//! Three suites:
//!
//! * `figures` — one benchmark per table/figure of the paper, each driving
//!   a miniature version of the corresponding experiment end-to-end (the
//!   full-size regeneration lives in the `repro` binary of
//!   `rna-experiments`).
//! * `ablations` — the design choices DESIGN.md calls out: probe count,
//!   staleness bound, weighted accumulation, dynamic LR scaling, and the
//!   hierarchical PS cadence.
//! * `collectives` — the data-path primitives: ring AllReduce, partial
//!   AllReduce, gradient-cache operations, and probe sampling.
//!
//! Shared miniature configurations live here so the suites stay in sync.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use rna_core::sim::TrainSpec;
use rna_workload::HeterogeneityModel;

/// A miniature straggler-afflicted spec: `n` workers, 5 ms compute, 0–20 ms
/// dynamic delay, `rounds` synchronization rounds.
pub fn mini_spec(n: usize, rounds: u64, seed: u64) -> TrainSpec {
    TrainSpec::smoke_test(n, seed)
        .with_hetero(HeterogeneityModel::dynamic_uniform(n, 0, 20))
        .with_max_rounds(rounds)
}

/// Shared opening lines for the hand-formatted JSON reports the bench bins
/// emit (no serde_json in the offline build): the schema name, the git
/// commit the numbers were measured at, the detected CPU vector features,
/// and the host thread count — so a checked-in `BENCH_*.json` can always be
/// traced back to the exact code state *and* hardware class it describes
/// (a floor measured with AVX2 on 16 cores is meaningless on a scalar
/// single-core box).
///
/// The returned string is indented key lines ending in a comma; callers
/// splice it immediately after the opening `{` of their report.
pub fn json_header(schema: &str) -> String {
    let features = rna_tensor::simd::detected_features()
        .into_iter()
        .filter(|(_, on)| *on)
        .map(|(name, _)| format!("\"{name}\""))
        .collect::<Vec<_>>()
        .join(", ");
    let threads = rna_tensor::available_cores();
    format!(
        "  \"schema\": \"{schema}\",\n  \"commit\": \"{}\",\n  \"cpu_features\": [{features}],\n  \"threads\": {threads},",
        git_commit()
    )
}

/// Best-effort short commit hash read straight from `.git` — the offline
/// build spawns no processes. Walks up from the current directory so the
/// bins work from the workspace root or any crate directory.
fn git_commit() -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let git = d.join(".git");
        if git.is_dir() {
            return resolve_head(&git).unwrap_or_else(|| "unknown".to_string());
        }
        dir = d.parent().map(std::path::Path::to_path_buf);
    }
    "unknown".to_string()
}

/// Resolves `HEAD` to a hash: either detached (hash inline) or a symbolic
/// ref found loose under `refs/` or in `packed-refs`.
fn resolve_head(git: &std::path::Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => match std::fs::read_to_string(git.join(r)) {
            Ok(loose) => loose.trim().to_string(),
            Err(_) => {
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                packed.lines().find_map(|line| {
                    let (hash, name) = line.split_once(' ')?;
                    (name == r).then(|| hash.to_string())
                })?
            }
        },
    };
    (hash.len() >= 12 && hash.bytes().all(|b| b.is_ascii_hexdigit()))
        .then(|| hash[..12].to_string())
}

#[cfg(test)]
mod tests {
    #[test]
    fn header_carries_schema_commit_features_and_threads() {
        let h = super::json_header("test-schema-v1");
        assert!(h.starts_with("  \"schema\": \"test-schema-v1\",\n  \"commit\": \""));
        assert!(h.ends_with(","));
        // The workspace is a real git repo, so the hash must resolve.
        let commit_line = h.lines().nth(1).unwrap();
        let commit = commit_line.rsplit('"').nth(1).unwrap();
        assert_eq!(commit.len(), 12, "short hash, got {commit:?}");
        assert!(commit.bytes().all(|b| b.is_ascii_hexdigit()));
        // Hardware stamp: a features array (possibly empty) and a positive
        // thread count, so floors are comparable across machines.
        assert!(h.contains("\"cpu_features\": ["), "header: {h}");
        let threads_line = h.lines().last().unwrap();
        let n: usize = threads_line
            .trim()
            .strip_prefix("\"threads\": ")
            .and_then(|s| s.strip_suffix(','))
            .unwrap()
            .parse()
            .unwrap();
        assert!(n >= 1);
        if rna_tensor::simd::avx2_available() {
            assert!(h.contains("\"avx2\""));
        }
    }
}
