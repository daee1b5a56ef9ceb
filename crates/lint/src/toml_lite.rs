//! Minimal TOML reader for the three files the linter must understand:
//! workspace `Cargo.toml` manifests (dependency tables, for the
//! `dep-freeze` rule), `lint-budget.toml` (integer tables, for the
//! `unsafe-budget` and `pragma-budget` rules), and `architecture.toml`
//! (string arrays and string tables, for the semantic rule family).
//! Same spirit as the in-tree JSON codec in `trace::json`: parse
//! exactly the subset we write, strictly, with no external crates.

/// One dependency entry as declared in a manifest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DepEntry {
    pub name: String,
    pub line: u32,
    /// The table the entry came from (`dependencies`,
    /// `dev-dependencies`, `build-dependencies`, possibly prefixed with
    /// `workspace.` or a `target.…` selector).
    pub section: String,
    /// `foo.workspace = true` or `{ workspace = true }`.
    pub workspace: bool,
    /// `{ path = "…" }` — an in-tree dependency.
    pub path: bool,
    /// `{ optional = true }` — feature-gated.
    pub optional: bool,
    /// Pulls from a registry or git: bare version string, or a table
    /// with `version` / `git` / `registry` keys.
    pub external_source: bool,
}

const DEP_KINDS: [&str; 3] = ["dependencies", "dev-dependencies", "build-dependencies"];

/// Strips a trailing `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Splits a section header path on `.`, respecting quoted segments
/// (`[target.'cfg(unix)'.dependencies]`).
fn split_section(path: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut quote: Option<char> = None;
    for c in path.chars() {
        match c {
            '\'' | '"' => match quote {
                Some(q) if q == c => quote = None,
                None => quote = Some(c),
                _ => cur.push(c),
            },
            '.' if quote.is_none() => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    out.push(cur);
    out
}

/// Does this section path declare dependencies, and if so, is it a
/// whole table (`…dependencies`) or a single-dep subsection
/// (`…dependencies.foo`)?
fn dep_context(segs: &[String]) -> Option<Option<String>> {
    if let Some(last) = segs.last() {
        if DEP_KINDS.contains(&last.as_str()) {
            return Some(None);
        }
    }
    if segs.len() >= 2 && DEP_KINDS.contains(&segs[segs.len() - 2].as_str()) {
        return Some(Some(segs[segs.len() - 1].clone()));
    }
    None
}

/// Splits inline-table content on top-level commas (not inside
/// brackets or strings).
fn split_top_level(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut depth = 0i32;
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            '[' | '{' if !in_str => {
                depth += 1;
                cur.push(c);
            }
            ']' | '}' if !in_str => {
                depth -= 1;
                cur.push(c);
            }
            ',' if !in_str && depth == 0 => out.push(std::mem::take(&mut cur)),
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

/// Applies one `key = value` pair from a dependency table/subsection.
fn apply_dep_key(entry: &mut DepEntry, key: &str, value: &str) {
    let value = value.trim();
    match key {
        "workspace" => entry.workspace = value == "true",
        "path" => entry.path = true,
        "optional" => entry.optional = value == "true",
        "version" | "git" | "registry" => entry.external_source = true,
        _ => {}
    }
}

/// Extracts every dependency entry from a manifest.
pub fn parse_dependencies(src: &str) -> Vec<DepEntry> {
    let mut out: Vec<DepEntry> = Vec::new();
    // Some(None): inside a `[…dependencies]` table.
    // Some(Some(name)): inside a `[…dependencies.name]` subsection.
    let mut ctx: Option<Option<String>> = None;
    let mut section = String::new();
    for (idx, raw) in src.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') && line.ends_with(']') {
            let inner = line.trim_start_matches('[').trim_end_matches(']');
            let segs = split_section(inner);
            ctx = dep_context(&segs);
            section = inner.to_string();
            if let Some(Some(name)) = &ctx {
                // The subsection header itself declares the dependency.
                out.push(DepEntry {
                    name: name.clone(),
                    line: idx as u32 + 1,
                    section: section.clone(),
                    ..DepEntry::default()
                });
            }
            continue;
        }
        let Some(eq) = line.find('=') else {
            continue;
        };
        let (key, value) = (line[..eq].trim(), line[eq + 1..].trim());
        match &ctx {
            None => {}
            Some(Some(_)) => {
                // Key inside a `[dependencies.foo]` subsection.
                let entry = out.last_mut().expect("subsection pushed its entry");
                apply_dep_key(entry, key, value);
            }
            Some(None) => {
                // `foo = …` or `foo.key = …` inside the table.
                let (name, sub) = match key.split_once('.') {
                    Some((n, s)) => (n.trim(), Some(s.trim())),
                    None => (key, None),
                };
                // Dotted keys extend the previous entry for the same dep.
                let entry = match out.last_mut() {
                    Some(e) if e.name == name && e.section == section && sub.is_some() => e,
                    _ => {
                        out.push(DepEntry {
                            name: name.to_string(),
                            line: idx as u32 + 1,
                            section: section.clone(),
                            ..DepEntry::default()
                        });
                        out.last_mut().expect("just pushed")
                    }
                };
                match sub {
                    Some(subkey) => apply_dep_key(entry, subkey, value),
                    None => {
                        if value.starts_with('"') {
                            // `foo = "1.2"`: bare registry version.
                            entry.external_source = true;
                        } else if value.starts_with('{') {
                            let inner = value.trim_start_matches('{').trim_end_matches('}');
                            for pair in split_top_level(inner) {
                                if let Some((k, v)) = pair.split_once('=') {
                                    apply_dep_key(entry, k.trim(), v.trim());
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Parses `key = <integer>` pairs from one `[table]` of a TOML file
/// (used for `lint-budget.toml`). Unparseable values are skipped.
pub fn parse_int_table(src: &str, table: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut in_table = false;
    for raw in src.lines() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') && line.ends_with(']') {
            in_table = line.trim_start_matches('[').trim_end_matches(']').trim() == table;
            continue;
        }
        if !in_table {
            continue;
        }
        if let Some((k, v)) = line.split_once('=') {
            if let Ok(n) = v.trim().parse::<u64>() {
                out.push((k.trim().trim_matches('"').to_string(), n));
            }
        }
    }
    out
}

/// Extracts the double-quoted string literals from a fragment, in order.
fn quoted_strings(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => {
                if in_str {
                    out.push(std::mem::take(&mut cur));
                }
                in_str = !in_str;
            }
            _ if in_str => cur.push(c),
            _ => {}
        }
    }
    out
}

/// Parses `key = ["a", "b", …]` pairs from one `[table]`, tolerating
/// arrays that span multiple lines. Keys may be bare or quoted. Returns
/// `(key, values, line)` with the line of the key.
pub fn parse_str_list_table(src: &str, table: &str) -> Vec<(String, Vec<String>, u32)> {
    let mut out: Vec<(String, Vec<String>, u32)> = Vec::new();
    let mut in_table = false;
    let mut open_array = false;
    for (idx, raw) in src.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if open_array {
            let entry = out.last_mut().expect("array was opened by its key line");
            entry.1.extend(quoted_strings(line));
            if line.contains(']') {
                open_array = false;
            }
            continue;
        }
        if line.starts_with('[') && line.ends_with(']') && !line.contains('=') {
            in_table = line.trim_start_matches('[').trim_end_matches(']').trim() == table;
            continue;
        }
        if !in_table {
            continue;
        }
        if let Some((k, v)) = line.split_once('=') {
            let v = v.trim();
            if !v.starts_with('[') {
                continue;
            }
            let key = k.trim().trim_matches('"').to_string();
            let values = quoted_strings(v);
            open_array = !v.contains(']');
            out.push((key, values, idx as u32 + 1));
        }
    }
    out
}

/// Parses `"key" = "value"` pairs from one `[table]` (used for the
/// `[hot.cold]` exemption table of `architecture.toml`). Returns
/// `(key, value, line)`.
pub fn parse_str_table(src: &str, table: &str) -> Vec<(String, String, u32)> {
    let mut out = Vec::new();
    let mut in_table = false;
    for (idx, raw) in src.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') && line.ends_with(']') && !line.contains('=') {
            in_table = line.trim_start_matches('[').trim_end_matches(']').trim() == table;
            continue;
        }
        if !in_table {
            continue;
        }
        if let Some((k, v)) = line.split_once('=') {
            let strings = quoted_strings(v);
            let value = match strings.first() {
                Some(s) => s.clone(),
                None => continue,
            };
            out.push((
                k.trim().trim_matches('"').to_string(),
                value,
                idx as u32 + 1,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_and_path_deps_are_classified() {
        let src = "[dependencies]\nfoo.workspace = true\nbar = { path = \"../bar\" }\n";
        let deps = parse_dependencies(src);
        assert_eq!(deps.len(), 2);
        assert!(deps[0].workspace && !deps[0].external_source);
        assert!(deps[1].path && !deps[1].external_source);
    }

    #[test]
    fn bare_version_and_git_are_external() {
        let src = "[dev-dependencies]\nserde = \"1.0\"\nproptest = { version = \"1\", optional = true }\nx = { git = \"https://example.com/x\" }\n";
        let deps = parse_dependencies(src);
        assert!(deps[0].external_source && !deps[0].optional);
        assert!(deps[1].external_source && deps[1].optional);
        assert!(deps[2].external_source);
    }

    #[test]
    fn subsection_form_is_understood() {
        let src = "[dependencies.serde]\nversion = \"1\"\nfeatures = [\"derive\"]\n";
        let deps = parse_dependencies(src);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].name, "serde");
        assert!(deps[0].external_source);
    }

    #[test]
    fn target_selector_sections_are_dep_tables() {
        let src = "[target.'cfg(unix)'.dependencies]\nlibc = \"0.2\"\n";
        let deps = parse_dependencies(src);
        assert_eq!(deps.len(), 1);
        assert!(deps[0].external_source);
    }

    #[test]
    fn non_dep_sections_are_ignored() {
        let src = "[package]\nname = \"x\"\nversion = \"0.1\"\n[features]\nserde = []\n[workspace.lints.clippy]\ntodo = \"warn\"\n";
        assert!(parse_dependencies(src).is_empty());
    }

    #[test]
    fn comments_and_quoted_hashes_are_handled() {
        let src = "[dependencies]\nfoo = { path = \"a#b\" } # trailing = \"1.0\"\n";
        let deps = parse_dependencies(src);
        assert_eq!(deps.len(), 1);
        assert!(deps[0].path && !deps[0].external_source);
    }

    #[test]
    fn str_list_table_reads_single_and_multiline_arrays() {
        let src = "[deps]\ntrace = []\ntensor = [\"trace\"]\nkernels = [\n    \"tensor\", # fused kernels sit on the tensor substrate\n    \"trace\",\n]\n[other]\nx = [\"y\"]\n";
        let t = parse_str_list_table(src, "deps");
        assert_eq!(t.len(), 3);
        assert_eq!(t[0], ("trace".to_string(), vec![], 2));
        assert_eq!(t[1].1, vec!["trace"]);
        assert_eq!(t[2].0, "kernels");
        assert_eq!(t[2].1, vec!["tensor", "trace"]);
        assert_eq!(t[2].2, 4);
    }

    #[test]
    fn str_table_reads_quoted_keys_and_values() {
        let src = "[hot.cold]\n\"tensor::Matrix::resize\" = \"warm-up growth only\" # note\nplain = \"reason\"\n";
        let t = parse_str_table(src, "hot.cold");
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].0, "tensor::Matrix::resize");
        assert_eq!(t[0].1, "warm-up growth only");
        assert_eq!(t[1].0, "plain");
    }

    #[test]
    fn int_table_reads_budget_entries() {
        let src = "# comment\n[unsafe]\ntensor = 20\nkernels = 13\n[other]\ntensor = 99\n";
        let t = parse_int_table(src, "unsafe");
        assert_eq!(
            t,
            vec![("tensor".to_string(), 20), ("kernels".to_string(), 13)]
        );
    }
}
