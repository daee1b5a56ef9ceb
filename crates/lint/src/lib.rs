//! `lorafusion-lint` — a zero-external-dependency determinism &
//! soundness static-analysis pass for the whole workspace.
//!
//! The paper's headline claim is that fusion is *lossless*; the test
//! suite proves it dynamically with bitwise-equality gates. This crate
//! proves the negative space statically, in two tiers. The **token
//! tier** ([`rules`]) pattern-matches the lexed stream: no
//! iteration-order, wall-clock or thread-count nondeterminism, no
//! `unsafe` without its safety argument, offline zero-dep manifests.
//! The **semantic tier** ([`parse`] → [`graph`] → [`reach`]) builds an
//! approximate workspace call graph and enforces the checked-in
//! `architecture.toml` contract: the crate layering DAG, allocation-
//! and panic-freedom transitively from the declared hot rosters, and
//! `f32`-reduction confinement to the exact-parking sites.
//!
//! Run it as `cargo run -p lorafusion-lint -- check` (add
//! `--json <path>` for machine-readable diagnostics); suppress a rule
//! for a file with `// lint: allow(<rule>) — <reason>` (the reason is
//! mandatory, and suppressions are capped per crate by the `[pragmas]`
//! budget). `scripts/ci.sh` treats any diagnostic as failure.

pub mod graph;
pub mod lexer;
pub mod parse;
pub mod reach;
pub mod rules;
pub mod source;
pub mod toml_lite;
pub mod walk;

use std::collections::BTreeMap;
use std::path::Path;

use lorafusion_trace::json::{Json, ToJson};
use rules::Diag;

/// Result of a full-tree check.
#[derive(Debug, Default)]
pub struct Report {
    pub diags: Vec<Diag>,
    pub rust_files: usize,
    pub manifests: usize,
    /// Per-crate `unsafe` occurrence counts (every crate that was seen,
    /// including zero-count ones).
    pub unsafe_counts: BTreeMap<String, u64>,
    /// Per-crate pragma suppression counts (same coverage).
    pub pragma_counts: BTreeMap<String, u64>,
}

/// Per-file result of the token and parse pass.
struct FileAnalysis {
    rel: String,
    check: rules::FileCheck,
    parsed: parse::ParsedFile,
}

/// Runs every rule over the workspace rooted at `root`. Files are lexed
/// and parsed one after another, and diagnostics are sorted by
/// (path, line, rule) afterwards.
pub fn check_workspace(root: &Path) -> std::io::Result<Report> {
    let t0 = lorafusion_trace::now_us();
    let (rust, manifests) = walk::collect_files(root)?;
    let mut report = Report {
        rust_files: rust.len(),
        manifests: manifests.len(),
        ..Report::default()
    };

    let mut analyses = Vec::with_capacity(rust.len());
    for (abs, rel) in &rust {
        let lexed = lexer::lex(&std::fs::read_to_string(abs)?);
        analyses.push(FileAnalysis {
            rel: rel.clone(),
            check: rules::check_rust_lexed(rel, &lexed),
            parsed: parse::parse(&lexed),
        });
    }

    // Token tier + workspace model.
    let mut g = graph::Graph::default();
    let mut pragmas_by_file: BTreeMap<&str, &source::Pragmas> = BTreeMap::new();
    for a in &analyses {
        let krate = rules::crate_of(&a.rel).to_string();
        report.diags.extend(a.check.diags.iter().cloned());
        *report.unsafe_counts.entry(krate.clone()).or_insert(0) += a.check.unsafe_count;
        *report.pragma_counts.entry(krate.clone()).or_insert(0) +=
            a.check.pragmas.suppression_count();
        pragmas_by_file.insert(&a.rel, &a.check.pragmas);
        g.add_file(&a.rel, &krate, &a.parsed, &a.check.test_regions);
    }
    for (abs, rel) in &manifests {
        let src = std::fs::read_to_string(abs)?;
        report.diags.extend(rules::check_manifest(rel, &src));
        let krate = rules::crate_of(rel).to_string();
        let mut deps = std::collections::BTreeSet::new();
        for dep in toml_lite::parse_dependencies(&src) {
            // Only the crate's own direct `[dependencies]`: workspace.*
            // declaration tables and dev/build kinds are not layering
            // edges.
            if dep.section != "dependencies" {
                continue;
            }
            if let Some(short) = graph::package_crate(&dep.name) {
                deps.insert(short.to_string());
            }
        }
        g.add_manifest_deps(&krate, deps);
    }
    g.finish();

    // Semantic tier, honoring each file's pragmas.
    let arch_src = std::fs::read_to_string(root.join("architecture.toml")).ok();
    let semantic = reach::check_architecture(&g, arch_src.as_deref());
    report.diags.extend(semantic.into_iter().filter(|d| {
        !pragmas_by_file
            .get(d.path.as_str())
            .is_some_and(|p| p.allows(d.rule))
    }));

    // Budgets.
    let budget_src = std::fs::read_to_string(root.join("lint-budget.toml")).ok();
    report.diags.extend(rules::check_unsafe_budget(
        &report.unsafe_counts,
        budget_src.as_deref(),
    ));
    report.diags.extend(rules::check_pragma_budget(
        &report.pragma_counts,
        budget_src.as_deref(),
    ));

    report
        .diags
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    report.diags.dedup();

    lorafusion_trace::metrics::counter("lint.files").add(report.rust_files as u64);
    lorafusion_trace::metrics::counter("lint.violations").add(report.diags.len() as u64);
    lorafusion_trace::metrics::gauge("lint.scan_ms").set((lorafusion_trace::now_us() - t0) / 1e3);
    Ok(report)
}

/// Renders the current per-crate budgets in `lint-budget.toml` format
/// (the `budget` subcommand).
pub fn render_budget(counts: &BTreeMap<String, u64>, pragmas: &BTreeMap<String, u64>) -> String {
    let mut out = String::from(
        "# Per-crate budgets enforced by `lorafusion-lint`: `[unsafe]` caps the\n\
         # number of `unsafe` keyword occurrences (unsafe-budget rule), `[pragmas]`\n\
         # caps the number of `lint: allow(...)` suppressions (pragma-budget rule,\n\
         # exact match in both directions). Growing either surface requires bumping\n\
         # its entry here — a reviewable, auditable diff. Regenerate with\n\
         # `cargo run -p lorafusion-lint -- budget`.\n\n\
         [unsafe]\n",
    );
    for (krate, count) in counts {
        out.push_str(&format!("{krate} = {count}\n"));
    }
    out.push_str("\n[pragmas]\n");
    for (krate, count) in pragmas {
        out.push_str(&format!("{krate} = {count}\n"));
    }
    out
}

/// Renders a report as machine-readable JSON, mirroring the
/// `bench_regress` verdict shape: a top-level `ok`, scalar scan stats,
/// and a `diags` array of `{path, line, rule, message}` objects sorted
/// by (path, line, rule).
///
/// Schema (all fields always present):
///
/// ```json
/// {
///   "ok": bool,
///   "rust_files": u64,
///   "manifests": u64,
///   "violations": u64,
///   "diags": [{"path": str, "line": u64, "rule": str, "message": str}]
/// }
/// ```
pub fn render_json(report: &Report) -> String {
    let diags = report
        .diags
        .iter()
        .map(|d| {
            Json::Obj(vec![
                ("path".into(), Json::Str(d.path.clone())),
                ("line".into(), d.line.to_json()),
                ("rule".into(), Json::Str(d.rule.into())),
                ("message".into(), Json::Str(d.message.clone())),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("ok".into(), Json::Bool(report.diags.is_empty())),
        ("rust_files".into(), report.rust_files.to_json()),
        ("manifests".into(), report.manifests.to_json()),
        ("violations".into(), report.diags.len().to_json()),
        ("diags".into(), Json::Arr(diags)),
    ])
    .pretty()
}
