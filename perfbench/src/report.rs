//! Result assembly: named metrics with units and sample counts, output
//! checks, the layer ledger, the machine stamp, and the one-line JSON
//! result the run ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit (`ms`, `s`, `1/s`, `count`, `ratio`).
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Evidence (counts, digests, the mismatch).
    pub detail: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Output checks in the order they ran.
    pub checks: Vec<Check>,
    /// Operations attempted (codec calls, sessions).
    pub attempted: u64,
    /// Operations that failed (codec errors, concealment on clean input,
    /// sessions that did not complete).
    pub failed: u64,
    /// Human-readable layer ledger lines (traced runs).
    pub ledger: Vec<String>,
    /// Timings as measured, before normalization by the host probe, and
    /// the host slowdown they were normalized by.
    pub raw: Vec<Metric>,
    /// Normalized figures the run measures but the benchmark does not
    /// bound (their spread across runs on a shared host exceeds any
    /// bound the benchmark could set).
    pub info: Vec<Metric>,
}

impl Report {
    /// Records a metric. Non-finite values fail the run.
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        let finite = value.is_finite();
        self.check(&format!("{name} is finite"), finite, &format!("{value}"));
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value: if finite { value } else { 0.0 },
            samples,
        });
    }

    /// Records an output check; a failed check makes the run incorrect.
    pub fn check(&mut self, name: &str, ok: bool, detail: &str) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.to_string(),
        });
    }

    /// Records a value as measured, before normalization.
    pub fn raw(&mut self, name: &str, unit: &'static str, value: f64) {
        self.raw.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples: 0,
        });
    }

    /// Records a normalized figure that is reported but not bounded.
    pub fn info(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.info.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    /// Counts `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Adds one ledger line.
    pub fn ledger(&mut self, line: String) {
        self.ledger.push(line);
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The human-readable report followed by the JSON result line.
    pub fn render(&self, header: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{header}");
        for c in self
            .checks
            .iter()
            .filter(|c| !c.name.ends_with("is finite") || !c.ok)
        {
            let verdict = if c.ok { "ok  " } else { "FAIL" };
            let _ = writeln!(out, "check {verdict} {}: {}", c.name, c.detail);
        }
        for line in &self.ledger {
            let _ = writeln!(out, "ledger {line}");
        }
        for m in &self.raw {
            let _ = writeln!(out, "raw {} = {} {}", m.name, m.value, m.unit);
        }
        for m in &self.info {
            let _ = writeln!(
                out,
                "info {} = {} {} (n={}, not bounded)",
                m.name, m.value, m.unit, m.samples
            );
        }
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "metric {} = {} {} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        let attempted = self.attempted.max(1);
        let _ = writeln!(
            out,
            "ops attempted={attempted} failed={} fail_ratio={}",
            self.failed,
            self.failed as f64 / attempted as f64
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

/// The machine a result set ran on: core count, CPU model, active
/// kernel tier (and the `M4PS_KERNELS` setting that may force it) and
/// build profile.
pub fn machine_stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let forced = std::env::var("M4PS_KERNELS").unwrap_or_else(|_| "unset".to_string());
    format!(
        "machine nproc={nproc} cpu=\"{}\" kernel_tier={} M4PS_KERNELS={forced} profile={profile}",
        cpu_model(),
        m4ps_dsp::active_tier().name()
    )
}

/// CPU brand string from CPUID (no file reads).
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // CPUID is part of the x86-64 baseline; leaves above the reported
    // maximum extended leaf are never queried.
    let max_ext = __cpuid(0x8000_0000).eax;
    if max_ext < 0x8000_0004 {
        return "unknown".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".to_string()
}

/// Cross-run digest ledger: outputs keyed by (binary, seed, what) must
/// repeat exactly in every later run of the same binary and seed.
pub struct DigestLedger {
    path: Option<std::path::PathBuf>,
    prefix: String,
    known: BTreeMap<String, u64>,
    fresh: Vec<(String, u64)>,
}

impl DigestLedger {
    /// Opens the ledger at `path` (`None`: in-run checks only) for runs
    /// of this binary with `seed`.
    pub fn open(path: Option<&str>, seed: u64) -> Self {
        let binary = std::env::current_exe()
            .ok()
            .and_then(|p| std::fs::read(p).ok())
            .map_or(0, |b| crate::scene::digest([b.as_slice()]));
        let mut known = BTreeMap::new();
        if let Some(text) = path.and_then(|p| std::fs::read_to_string(p).ok()) {
            for line in text.lines() {
                if let Some((k, v)) = line.rsplit_once(' ') {
                    if let Ok(v) = u64::from_str_radix(v, 16) {
                        known.insert(k.to_string(), v);
                    }
                }
            }
        }
        DigestLedger {
            path: path.map(Into::into),
            prefix: format!("{binary:016x}/seed={seed}/"),
            known,
            fresh: Vec::new(),
        }
    }

    /// Checks `digest` for `what` against earlier runs, recording it
    /// when new. Returns `(ok, detail)`.
    pub fn observe(&mut self, what: &str, digest: u64) -> (bool, String) {
        let key = format!("{}{what}", self.prefix);
        match self.known.get(&key) {
            Some(&prev) if prev != digest => (
                false,
                format!("{what}: {digest:016x} differs from an earlier run's {prev:016x}"),
            ),
            Some(_) => (
                true,
                format!("{what}: {digest:016x} repeats an earlier run"),
            ),
            None => {
                self.known.insert(key.clone(), digest);
                self.fresh.push((key, digest));
                (true, format!("{what}: {digest:016x} (first run)"))
            }
        }
    }

    /// Appends this run's new entries to the ledger file.
    pub fn save(&self) {
        let Some(path) = &self.path else { return };
        if self.fresh.is_empty() {
            return;
        }
        let mut text = std::fs::read_to_string(path).unwrap_or_default();
        for (k, v) in &self.fresh {
            let _ = writeln!(text, "{k} {v:016x}");
        }
        if let Err(e) = std::fs::write(path, text) {
            eprintln!(
                "perfbench: could not update digest ledger {}: {e}",
                path.display()
            );
        }
    }
}
