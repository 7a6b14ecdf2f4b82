//! Bench-report JSON: emitter, parser, and the regression checker, built on
//! the workspace-shared [`asym_model::json`] codec (no external
//! dependencies).
//!
//! Perf-trajectory tracking writes one `BENCH_*.json` file per bench target
//! so successive runs (locally or as CI artifacts) can be diffed and
//! plotted, and so CI can gate on drift against the committed baseline. The
//! format is deliberately flat:
//!
//! ```json
//! {
//!   "name": "sim-throughput",
//!   "scale": "smoke",
//!   "backend": "mem",
//!   "entries": [
//!     { "id": "e3-mergesort-k4", "algorithm": "aem-mergesort",
//!       "records": 50000, "seconds": 0.0042,
//!       "records_per_sec": 11904761.9,
//!       "reads": 6250, "writes": 6250, "peak_memory": 16 }
//!   ]
//! }
//! ```
//!
//! `algorithm` is the `Algorithm::name` of the sort that `sort::run`
//! dispatched to produce the entry (empty for workloads that are not sort jobs); the
//! checker flags an entry whose algorithm silently changed.
//!
//! `reads` / `writes` / `peak_memory` are the *modeled* [`EmStats`] of the
//! run — deterministic for a fixed workload and machine geometry, so the
//! checker ([`compare_reports`]) treats any change as a hard failure (a model
//! regression, not noise), while wall-clock throughput gets a tolerance.
//!
//! Bench binaries accept `--json <path>` (after `cargo bench ... --`) to
//! choose the output file; see [`json_path_from_args`]. The `bench_check`
//! bin (`cargo run -p asym-bench --bin bench_check`) wires
//! [`compare_reports`] into CI.

use asym_model::json::{find, get_f64, get_str, get_u64, number, quote, Json};
use em_sim::EmStats;
use std::io::Write;
use std::path::{Path, PathBuf};

/// One measured workload.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchEntry {
    /// Stable workload identifier (e.g. `e3-mergesort-k4`).
    pub id: String,
    /// The `Algorithm::name` of the sort the workload ran through
    /// `sort::run` (empty for non-sort workloads like `raw-stream`).
    pub algorithm: String,
    /// Records processed by one run.
    pub records: u64,
    /// Wall-clock seconds for one run.
    pub seconds: f64,
    /// Throughput: `records / seconds`.
    pub records_per_sec: f64,
    /// Modeled block reads of the run (0 when the workload reported none).
    pub reads: u64,
    /// Modeled block writes of the run.
    pub writes: u64,
    /// Modeled peak primary-memory lease, in records.
    pub peak_memory: u64,
}

/// A bench report: a named set of throughput measurements at one scale, on
/// one storage backend.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    name: String,
    scale: String,
    backend: String,
    entries: Vec<BenchEntry>,
}

impl Default for BenchReport {
    fn default() -> Self {
        Self::new("", "")
    }
}

impl BenchReport {
    /// An empty report for bench target `name` at `scale`, on the default
    /// `mem` backend (see [`BenchReport::with_backend`]).
    pub fn new(name: impl Into<String>, scale: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            scale: scale.into(),
            backend: "mem".into(),
            entries: Vec::new(),
        }
    }

    /// Tag the report with the storage backend the measurements ran on.
    pub fn with_backend(mut self, backend: impl Into<String>) -> Self {
        self.backend = backend.into();
        self
    }

    /// The scale this report was measured at.
    pub fn scale(&self) -> &str {
        &self.scale
    }

    /// The storage backend this report was measured on.
    pub fn backend(&self) -> &str {
        &self.backend
    }

    /// Record one measurement with no modeled stats (throughput is derived).
    pub fn push(&mut self, id: impl Into<String>, records: u64, seconds: f64) {
        self.push_with_stats(id, records, seconds, EmStats::default());
    }

    /// Record one measurement plus the modeled transfer stats of the run
    /// (no algorithm tag — for workloads that are not sort jobs).
    pub fn push_with_stats(
        &mut self,
        id: impl Into<String>,
        records: u64,
        seconds: f64,
        stats: EmStats,
    ) {
        self.push_sort(id, "", records, seconds, stats);
    }

    /// Record one sort-job measurement: stats plus the `Algorithm::name` of
    /// the sort that produced them.
    pub fn push_sort(
        &mut self,
        id: impl Into<String>,
        algorithm: impl Into<String>,
        records: u64,
        seconds: f64,
        stats: EmStats,
    ) {
        let records_per_sec = if seconds > 0.0 {
            records as f64 / seconds
        } else {
            0.0
        };
        self.entries.push(BenchEntry {
            id: id.into(),
            algorithm: algorithm.into(),
            records,
            seconds,
            records_per_sec,
            reads: stats.block_reads,
            writes: stats.block_writes,
            peak_memory: stats.peak_memory as u64,
        });
    }

    /// The measurements recorded so far.
    pub fn entries(&self) -> &[BenchEntry] {
        &self.entries
    }

    /// Render the report as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"name\": {},\n", quote(&self.name)));
        out.push_str(&format!("  \"scale\": {},\n", quote(&self.scale)));
        out.push_str(&format!("  \"backend\": {},\n", quote(&self.backend)));
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"id\": {}, \"algorithm\": {}, \"records\": {}, \"seconds\": {}, \
                 \"records_per_sec\": {}, \"reads\": {}, \"writes\": {}, \"peak_memory\": {} }}{}\n",
                quote(&e.id),
                quote(&e.algorithm),
                e.records,
                number(e.seconds),
                number(e.records_per_sec),
                e.reads,
                e.writes,
                e.peak_memory,
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write the JSON document to `path`.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }

    /// Parse a report back from its JSON rendering. Tolerates reports written
    /// before a field existed (`backend` defaults to `mem`, `algorithm` to
    /// empty, modeled stats to zero) so freshly-gated code can still read
    /// older committed baselines.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let v = Json::parse(text)?;
        let obj = v.as_obj().ok_or("top level must be an object")?;
        let mut report = BenchReport::new(
            get_str(obj, "name").unwrap_or_default(),
            get_str(obj, "scale").unwrap_or_default(),
        )
        .with_backend(get_str(obj, "backend").unwrap_or_else(|| "mem".into()));
        let entries = find(obj, "entries")
            .and_then(Json::as_arr)
            .ok_or("missing \"entries\" array")?;
        for e in entries {
            let eo = e.as_obj().ok_or("entry must be an object")?;
            report.entries.push(BenchEntry {
                id: get_str(eo, "id").ok_or("entry missing \"id\"")?,
                algorithm: get_str(eo, "algorithm").unwrap_or_default(),
                records: get_u64(eo, "records").ok_or("entry missing \"records\"")?,
                seconds: get_f64(eo, "seconds").ok_or("entry missing \"seconds\"")?,
                records_per_sec: get_f64(eo, "records_per_sec")
                    .ok_or("entry missing \"records_per_sec\"")?,
                reads: get_u64(eo, "reads").unwrap_or(0),
                writes: get_u64(eo, "writes").unwrap_or(0),
                peak_memory: get_u64(eo, "peak_memory").unwrap_or(0),
            });
        }
        Ok(report)
    }

    /// Read and parse a report file.
    pub fn read_from(path: &Path) -> Result<BenchReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Compare a fresh bench report against the committed baseline.
///
/// Returns one human-readable violation per finding (empty = gate passes):
///
/// * scale or backend mismatch — the reports are not comparable at all;
/// * an entry present on one side only — the workload set drifted without a
///   baseline regeneration;
/// * differing `records` or modeled `(reads, writes, peak_memory)` — modeled
///   costs are deterministic, so **any** change is a model regression;
/// * throughput below `(1 - tolerance) ×` baseline — a wall-clock regression
///   beyond noise (`tolerance` is a fraction, e.g. `0.25`).
pub fn compare_reports(baseline: &BenchReport, fresh: &BenchReport, tolerance: f64) -> Vec<String> {
    let mut violations = Vec::new();
    if baseline.scale != fresh.scale {
        violations.push(format!(
            "scale mismatch: baseline {:?} vs fresh {:?} (run the bench at the baseline's scale)",
            baseline.scale, fresh.scale
        ));
        return violations;
    }
    if baseline.backend != fresh.backend {
        violations.push(format!(
            "backend mismatch: baseline {:?} vs fresh {:?}",
            baseline.backend, fresh.backend
        ));
        return violations;
    }
    for b in &baseline.entries {
        let Some(f) = fresh.entries.iter().find(|f| f.id == b.id) else {
            violations.push(format!("{}: missing from the fresh run", b.id));
            continue;
        };
        if f.records != b.records {
            violations.push(format!(
                "{}: records changed {} -> {}",
                b.id, b.records, f.records
            ));
            continue;
        }
        // A workload silently switching algorithms is a harness regression
        // even when the counts happen to agree. Baselines written before
        // the field existed carry "" and are not compared.
        if !b.algorithm.is_empty() && f.algorithm != b.algorithm {
            violations.push(format!(
                "{}: algorithm changed {:?} -> {:?}",
                b.id, b.algorithm, f.algorithm
            ));
        }
        for (what, was, now) in [
            ("reads", b.reads, f.reads),
            ("writes", b.writes, f.writes),
            ("peak_memory", b.peak_memory, f.peak_memory),
        ] {
            if was != now {
                violations.push(format!(
                    "{}: modeled {what} changed {was} -> {now} (model regression)",
                    b.id
                ));
            }
        }
        let floor = b.records_per_sec * (1.0 - tolerance);
        if b.records_per_sec > 0.0 && f.records_per_sec < floor {
            violations.push(format!(
                "{}: throughput regressed {:.0} -> {:.0} records/sec ({:+.1}%, tolerance {:.0}%)",
                b.id,
                b.records_per_sec,
                f.records_per_sec,
                100.0 * (f.records_per_sec / b.records_per_sec - 1.0),
                100.0 * tolerance
            ));
        }
    }
    for f in &fresh.entries {
        if !baseline.entries.iter().any(|b| b.id == f.id) {
            violations.push(format!(
                "{}: not in the baseline (regenerate the committed BENCH json)",
                f.id
            ));
        }
    }
    violations
}

/// Scan CLI args for `--json <path>` (cargo passes everything after `--` to
/// the bench binary). Returns `default` when the flag is absent.
pub fn json_path_from_args(args: impl Iterator<Item = String>, default: &str) -> PathBuf {
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        if a == "--json" {
            if let Some(p) = args.next() {
                return PathBuf::from(p);
            }
        }
    }
    PathBuf::from(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(r: u64, w: u64, peak: usize) -> EmStats {
        EmStats {
            block_reads: r,
            block_writes: w,
            peak_memory: peak,
        }
    }

    #[test]
    fn report_renders_valid_flat_json() {
        let mut r = BenchReport::new("sim-throughput", "smoke");
        r.push_with_stats("raw-stream", 1000, 0.5, stats(125, 125, 16));
        r.push("e3-mergesort-k1", 2000, 0.0);
        let json = r.to_json();
        assert!(json.contains("\"name\": \"sim-throughput\""));
        assert!(json.contains("\"scale\": \"smoke\""));
        assert!(json.contains("\"backend\": \"mem\""));
        assert!(json.contains("\"id\": \"raw-stream\""));
        assert!(json.contains("\"records_per_sec\": 2000.000000"));
        assert!(json.contains("\"reads\": 125"));
        assert!(json.contains("\"peak_memory\": 16"));
        // Zero-duration run degrades to zero throughput, not inf/NaN.
        assert!(json.contains("\"records_per_sec\": 0.000000"));
        // Exactly one comma between the two entries.
        assert_eq!(json.matches("},\n").count(), 1);
    }

    #[test]
    fn report_roundtrips_through_the_parser() {
        let mut r = BenchReport::new("sim-throughput", "standard").with_backend("file");
        r.push_with_stats("raw-stream", 2_000_000, 0.052, stats(250_000, 250_000, 16));
        r.push_with_stats("e3-mergesort-k4", 200_000, 0.078, stats(637, 250, 72));
        let parsed = BenchReport::from_json(&r.to_json()).expect("parse");
        assert_eq!(parsed.name, r.name);
        assert_eq!(parsed.scale(), "standard");
        assert_eq!(parsed.backend(), "file");
        assert_eq!(parsed.entries().len(), 2);
        assert_eq!(parsed.entries()[0].reads, 250_000);
        assert_eq!(parsed.entries()[1].peak_memory, 72);
        assert!((parsed.entries()[0].seconds - 0.052).abs() < 1e-9);
    }

    #[test]
    fn parser_tolerates_pre_stats_reports() {
        let old = r#"{
  "name": "sim-throughput",
  "scale": "standard",
  "entries": [
    { "id": "raw-stream", "records": 100, "seconds": 0.5, "records_per_sec": 200.0 }
  ]
}"#;
        let parsed = BenchReport::from_json(old).expect("parse");
        assert_eq!(parsed.backend(), "mem");
        assert_eq!(parsed.entries()[0].reads, 0);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(BenchReport::from_json("{").is_err());
        assert!(BenchReport::from_json("[]").is_err());
        assert!(BenchReport::from_json("{\"name\": \"x\"}").is_err());
        assert!(Json::parse("{\"a\": 1} trailing").is_err());
        assert!(Json::parse("{\"a\": }").is_err());
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let mut r = BenchReport::new("t", "smoke");
        r.push_with_stats("a", 100, 0.1, stats(10, 10, 8));
        assert!(compare_reports(&r, &r.clone(), 0.25).is_empty());
    }

    #[test]
    fn algorithm_field_roundtrips_and_gates() {
        let mut base = BenchReport::new("t", "smoke");
        base.push_sort("e3", "aem-mergesort", 100, 0.1, stats(10, 10, 8));
        let json = base.to_json();
        assert!(json.contains("\"algorithm\": \"aem-mergesort\""));
        let parsed = BenchReport::from_json(&json).expect("parse");
        assert_eq!(parsed.entries()[0].algorithm, "aem-mergesort");

        // Same counts, different algorithm: the gate trips.
        let mut fresh = BenchReport::new("t", "smoke");
        fresh.push_sort("e3", "aem-samplesort", 100, 0.1, stats(10, 10, 8));
        let v = compare_reports(&base, &fresh, 0.25);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("algorithm changed"), "{v:?}");

        // A pre-field baseline ("" algorithm) does not gate.
        let mut old = BenchReport::new("t", "smoke");
        old.push_with_stats("e3", 100, 0.1, stats(10, 10, 8));
        assert!(compare_reports(&old, &fresh, 0.25).is_empty());
    }

    #[test]
    fn modeled_cost_drift_is_a_hard_failure() {
        let mut base = BenchReport::new("t", "smoke");
        base.push_with_stats("a", 100, 0.1, stats(10, 10, 8));
        let mut fresh = BenchReport::new("t", "smoke");
        fresh.push_with_stats("a", 100, 0.1, stats(10, 11, 8));
        let v = compare_reports(&base, &fresh, 0.25);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("writes changed 10 -> 11"), "{v:?}");
    }

    #[test]
    fn throughput_tolerance_is_applied() {
        let mut base = BenchReport::new("t", "smoke");
        base.push_with_stats("a", 1000, 1.0, stats(1, 1, 1)); // 1000 rec/s
        let mut ok = BenchReport::new("t", "smoke");
        ok.push_with_stats("a", 1000, 1.3, stats(1, 1, 1)); // ~769 rec/s, -23%
        assert!(compare_reports(&base, &ok, 0.25).is_empty());
        let mut slow = BenchReport::new("t", "smoke");
        slow.push_with_stats("a", 1000, 1.5, stats(1, 1, 1)); // ~667 rec/s, -33%
        let v = compare_reports(&base, &slow, 0.25);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("throughput regressed"), "{v:?}");
    }

    #[test]
    fn entry_set_drift_and_scale_mismatch_are_caught() {
        let mut base = BenchReport::new("t", "smoke");
        base.push("a", 100, 0.1);
        base.push("gone", 100, 0.1);
        let mut fresh = BenchReport::new("t", "smoke");
        fresh.push("a", 100, 0.1);
        fresh.push("new", 100, 0.1);
        let v = compare_reports(&base, &fresh, 0.25);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|m| m.contains("gone: missing")));
        assert!(v.iter().any(|m| m.contains("new: not in the baseline")));

        let other_scale = BenchReport::new("t", "standard");
        let v = compare_reports(&base, &other_scale, 0.25);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("scale mismatch"));

        let other_backend = BenchReport::new("t", "smoke").with_backend("file");
        let v = compare_reports(&base, &other_backend, 0.25);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("backend mismatch"));
    }

    #[test]
    fn records_change_short_circuits_stat_noise() {
        let mut base = BenchReport::new("t", "smoke");
        base.push_with_stats("a", 100, 0.1, stats(10, 10, 8));
        let mut fresh = BenchReport::new("t", "smoke");
        fresh.push_with_stats("a", 200, 0.1, stats(20, 20, 8));
        let v = compare_reports(&base, &fresh, 0.25);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("records changed 100 -> 200"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(quote("x\ny"), "\"x\\ny\"");
        assert_eq!(
            Json::parse("\"a\\\"b\\\\c\\n\\u0041\"").unwrap(),
            Json::Str("a\"b\\c\nA".into())
        );
    }

    #[test]
    fn json_flag_is_parsed_with_default_fallback() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            json_path_from_args(
                args(&["--bench", "--json", "out.json"]).into_iter(),
                "d.json"
            ),
            PathBuf::from("out.json")
        );
        assert_eq!(
            json_path_from_args(args(&["--bench"]).into_iter(), "d.json"),
            PathBuf::from("d.json")
        );
        assert_eq!(
            json_path_from_args(args(&["--json"]).into_iter(), "d.json"),
            PathBuf::from("d.json")
        );
    }

    #[test]
    fn write_to_creates_the_file() {
        let mut r = BenchReport::new("t", "smoke");
        r.push("case", 10, 0.1);
        let path = std::env::temp_dir().join("asym_bench_json_test.json");
        r.write_to(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, r.to_json());
        assert_eq!(BenchReport::read_from(&path).unwrap(), r);
        let _ = std::fs::remove_file(&path);
    }
}
