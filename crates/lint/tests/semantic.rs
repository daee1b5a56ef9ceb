//! Fixture suite for the semantic tier: each `architecture.toml` rule
//! has a positive fixture (must fire) and a negative fixture (must stay
//! silent) under `crates/lint/fixtures/`, checked through the full
//! lex → parse → graph → reach pipeline against the fixture contract
//! `arch_fixture.toml`. Also validates the `--json` rendering against
//! its documented schema, read back with the workspace's strict JSON
//! parser (`lorafusion_trace::json`).

use std::path::PathBuf;

use lorafusion_lint::graph::Graph;
use lorafusion_lint::reach::{check_alloc, check_float, check_layering, check_panic, ArchSpec};
use lorafusion_lint::rules::Diag;
use lorafusion_lint::{lexer, parse, render_json, source, Report};
use lorafusion_trace::json::{self, Json};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Builds a workspace graph from `(synthetic path, fixture name)` pairs
/// plus the manifest edges matching `arch_fixture.toml`.
fn graph_of(files: &[(&str, &str)]) -> Graph {
    let mut g = Graph::default();
    for (rel, name) in files {
        let src = fixture(name);
        let lexed = lexer::lex(&src);
        let parsed = parse::parse(&lexed);
        let regions = source::test_regions(&lexed.toks);
        g.add_file(
            rel,
            lorafusion_lint::rules::crate_of(rel),
            &parsed,
            &regions,
        );
    }
    for (krate, deps) in [
        ("trace", &[][..]),
        ("tensor", &["trace"][..]),
        ("kernels", &["tensor", "trace"][..]),
    ] {
        g.add_manifest_deps(krate, deps.iter().map(|s| s.to_string()).collect());
    }
    g.finish();
    g
}

fn spec() -> ArchSpec {
    ArchSpec::parse(&fixture("arch_fixture.toml"))
}

fn rules_fired(diags: &[Diag]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = diags.iter().map(|d| d.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

#[test]
fn hot_alloc_positive_fires_all_three_needle_kinds() {
    let g = graph_of(&[("crates/kernels/src/fused.rs", "hot_alloc_pos.rs")]);
    let diags = check_alloc(&g, &spec());
    assert_eq!(rules_fired(&diags), vec!["alloc-in-hot-path"]);
    assert_eq!(
        diags.len(),
        3,
        "Vec::with_capacity, push, format!: {diags:?}"
    );
    let msgs = diags
        .iter()
        .map(|d| d.message.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(msgs.contains("with_capacity"));
    assert!(msgs.contains("push"));
    assert!(msgs.contains("format"));
    assert!(
        msgs.contains("forward_into"),
        "each diagnostic names the hot root it is reachable from"
    );
}

#[test]
fn hot_alloc_negative_is_clean() {
    let g = graph_of(&[("crates/kernels/src/fused.rs", "hot_alloc_neg.rs")]);
    let diags = check_alloc(&g, &spec());
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn panic_hot_positive_fires_per_site() {
    let g = graph_of(&[("crates/tensor/src/microkernel.rs", "panic_hot_pos.rs")]);
    let diags = check_panic(&g, &spec());
    assert_eq!(rules_fired(&diags), vec!["panic-free-hot-path"]);
    // assert!, unwrap, and two slice-index expressions.
    assert_eq!(diags.len(), 4, "{diags:?}");
}

#[test]
fn panic_hot_negative_is_clean() {
    let g = graph_of(&[("crates/tensor/src/microkernel.rs", "panic_hot_neg.rs")]);
    let diags = check_panic(&g, &spec());
    assert!(diags.is_empty(), "debug_assert!/match/iterators: {diags:?}");
}

#[test]
fn float_reduction_positive_fires_and_parking_site_is_exempt() {
    let g = graph_of(&[("crates/tensor/src/stats.rs", "float_reduction_pos.rs")]);
    let diags = check_float(&g, &spec());
    assert_eq!(rules_fired(&diags), vec!["nonassociative-float-reduction"]);
    assert_eq!(diags.len(), 2, "sum::<f32> and additive fold: {diags:?}");
    // The identical source inside the documented parking site is clean.
    let parked = graph_of(&[("crates/tensor/src/loss.rs", "float_reduction_pos.rs")]);
    let diags = check_float(&parked, &spec());
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn float_reduction_negative_is_clean() {
    let g = graph_of(&[("crates/tensor/src/stats.rs", "float_reduction_neg.rs")]);
    let diags = check_float(&g, &spec());
    assert!(diags.is_empty(), "f64 accumulation and max fold: {diags:?}");
}

#[test]
fn layering_positive_fires_once_per_import_line() {
    let g = graph_of(&[("crates/tensor/src/bad.rs", "layering_pos.rs")]);
    let diags = check_layering(&g, &spec());
    assert_eq!(rules_fired(&diags), vec!["crate-layering"]);
    // The nested use group has three leaves on one line; the diagnostic
    // is deduplicated to one per (file, crate, line).
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].message.contains("`tensor` imports `kernels`"));
}

#[test]
fn layering_negative_is_clean() {
    let g = graph_of(&[("crates/tensor/src/metrics_use.rs", "layering_neg.rs")]);
    let diags = check_layering(&g, &spec());
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn parser_edge_cases_flow_through_the_whole_pipeline_cleanly() {
    // Nested generics, r#ident, nested multi-segment use groups: the
    // graph must come out structurally right and every semantic rule
    // silent.
    let g = graph_of(&[("crates/tensor/src/edge.rs", "parser_edge_neg.rs")]);
    assert_eq!(g.fns.len(), 1);
    assert_eq!(g.fns[0].name, "loop", "r#loop dequotes to a plain name");
    let s = spec();
    let layering = check_layering(&g, &s);
    assert!(layering.is_empty(), "{layering:?}");
    let float = check_float(&g, &s);
    assert!(float.is_empty(), "f64 accumulation: {float:?}");
}

// --- `--json` schema validation ------------------------------------

#[test]
fn json_rendering_matches_the_documented_schema() {
    let mut report = Report {
        rust_files: 143,
        manifests: 12,
        ..Report::default()
    };
    report.diags.push(Diag::new(
        "crates/tensor/src/a.rs",
        7,
        "crate-layering",
        "message with \"quotes\", a\nnewline, a\ttab, and a back\\slash",
    ));
    report.diags.push(Diag::new(
        "architecture.toml",
        0,
        "alloc-in-hot-path",
        "second diagnostic",
    ));
    let doc = json::parse(&render_json(&report)).expect("--json output parses");
    assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(doc.get("rust_files"), Some(&Json::Num(143.0)));
    assert_eq!(doc.get("manifests"), Some(&Json::Num(12.0)));
    assert_eq!(doc.get("violations"), Some(&Json::Num(2.0)));
    let Some(Json::Arr(diags)) = doc.get("diags") else {
        panic!("diags must be an array");
    };
    assert_eq!(diags.len(), 2);
    for d in diags {
        for key in ["path", "line", "rule", "message"] {
            assert!(d.get(key).is_some(), "field {key} must always be present");
        }
    }
    assert_eq!(
        diags[0].get("message"),
        Some(&Json::Str(
            "message with \"quotes\", a\nnewline, a\ttab, and a back\\slash".to_string()
        )),
        "escaping must round-trip"
    );
    assert_eq!(diags[0].get("line"), Some(&Json::Num(7.0)));
}

#[test]
fn json_rendering_of_a_clean_report_is_ok_with_empty_diags() {
    let report = Report {
        rust_files: 10,
        manifests: 2,
        ..Report::default()
    };
    let doc = json::parse(&render_json(&report)).expect("--json output parses");
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("violations"), Some(&Json::Num(0.0)));
    assert_eq!(doc.get("diags"), Some(&Json::Arr(Vec::new())));
}
