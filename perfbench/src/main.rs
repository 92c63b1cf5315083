//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <des_hier_wide|des_flat_10k|process_int8>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for about `--seconds`, checks the program's outputs,
//! prints a table and, as the last line of standard output, one JSON
//! object: `correct`, `attempted`, `failed` and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). Every run is also
//! appended to `history.jsonl` beside this package's manifest. Exits 1
//! when a check fails, 2 on bad arguments.
//!
//! `run_process` spawns this same executable as its workers: invoked as
//! `perfbench <addr> <worker> <key-hex> <incarnation>` it runs the
//! `rna-worker` loop instead.

mod des;
mod layers;
mod process;
mod report;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{Outcome, RunInfo};

const WORKLOADS: [&str; 3] = ["des_hier_wide", "des_flat_10k", "process_int8"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=600, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The worker side of `run_process`: the `rna-worker` command line.
fn worker_main(args: &[String]) -> ExitCode {
    let (Ok(worker), Some(key), Ok(incarnation)) = (
        args[2].parse(),
        rna_runtime::AuthKey::from_hex(&args[3]),
        args[4].parse(),
    ) else {
        eprintln!("perfbench worker: bad arguments {args:?}");
        return ExitCode::from(2);
    };
    match rna_runtime::worker::run_worker(&args[1], worker, &key, incarnation) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench worker {worker}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Peak resident memory of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The package directory (the benchmark builds in place, so this is inside
/// the checkout it runs from).
fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// FNV-1a over the program's sources (`crates/**`, sorted by path) and this
/// package's: identifies the code a history line measured even where no
/// git metadata exists.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench").join("src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        let body = std::fs::read(&f).unwrap_or_default();
        for b in rel.bytes().chain(body) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The checked-out commit, when the tree is a git work tree.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .ok()?
            .trim()
            .to_string(),
        None => head.to_string(),
    };
    (hash.len() >= 12 && hash.bytes().all(|b| b.is_ascii_hexdigit())).then_some(hash)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.len() == 5 && !argv[1].starts_with("--") {
        return worker_main(&argv);
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds as f64;
    let outcome: Outcome = match args.workload.as_str() {
        "des_hier_wide" => des::run(&des::HIER_WIDE, args.seed, seconds, args.trace),
        "des_flat_10k" => des::run(&des::FLAT_10K, args.seed, seconds, args.trace),
        _ => {
            let exe = match std::env::current_exe() {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("perfbench: cannot locate own executable: {e}");
                    return ExitCode::FAILURE;
                }
            };
            process::run(args.seed, seconds, args.trace, &exe)
        }
    };

    let root = package_dir().join("..");
    let info = RunInfo {
        workload: &args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        unix_s: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        source_digest: source_digest(&root),
        commit: git_commit(&root),
        cpu_features: rna_tensor::simd::detected_features()
            .into_iter()
            .filter_map(|(name, on)| on.then_some(name))
            .collect(),
        threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    };
    let history = package_dir().join("history.jsonl");
    if let Err(e) = report::append_history(&history, &report::history_line(&info, &outcome)) {
        eprintln!("perfbench: cannot append to {}: {e}", history.display());
    }
    print!("{}", report::table(&args.workload, &outcome, args.trace));
    println!("{}", report::result_line(&outcome));
    if outcome.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        std::iter::once("perfbench")
            .chain(s.split_whitespace())
            .map(String::from)
            .collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&argv(
            "--workload des_flat_10k --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "des_flat_10k");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse(&argv("--workload nope --seed 1")).is_err());
        assert!(parse(&argv("--workload des_flat_10k")).is_err());
        assert!(parse(&argv("--workload des_flat_10k --seed 1 --trace 2")).is_err());
        assert!(parse(&argv("--workload des_flat_10k --seed 1 --seconds 0")).is_err());
        assert!(parse(&argv("--workload des_flat_10k --seed")).is_err());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
