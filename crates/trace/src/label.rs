//! Labeled metrics: a `Scope` layer over the flat registry.
//!
//! A labeled metric is an ordinary registry metric whose *name* carries
//! a canonical label block: `scheduler.events{class=arrive}`. The
//! canonical form is what makes labels deterministic:
//!
//! * label keys are sorted (byte order) and must be unique, so the
//!   rendered name is independent of the call-site argument order;
//! * keys and values are restricted to `[A-Za-z0-9_.:-]` — no braces,
//!   separators, or whitespace — so the name parses back unambiguously
//!   ([`check_labeled_name`], enforced by `trace::validate` on every
//!   exported counter track);
//! * the rendered suffix is interned through a `BTreeMap` keyed by the
//!   canonical string, so the same label set always resolves to the
//!   same leaked `&'static str` in the same registry slot regardless
//!   of which thread interned it first.
//!
//! **Hot-path contract:** resolving a [`Scope`] or a handle allocates
//! (it renders and interns the name); the returned `Counter`/`Gauge`/
//! `Histogram` handles are `Copy` atomics with zero-alloc increments.
//! Call sites therefore resolve once and cache — a `OnceLock` for
//! static label sets (see `sched::online`'s `Counters`), a
//! `BTreeMap<id, Counter>` for dynamic ones (per-adapter placement
//! counts) where only the *first* observation of a label value pays
//! the allocation (warmup), matching the span layer's contract that
//! steady-state instrumentation never allocates.
//!
//! Thread-count invariance is inherited from the registry: labeled
//! cells are plain `AtomicU64`s, increments commute, and the canonical
//! name fixes the registry identity, so totals, histogram buckets, and
//! extracted quantiles are bitwise-identical however the recording
//! work was partitioned across threads (asserted by
//! `crates/trace/tests/thread_invariance.rs`).

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use crate::metrics::{self, Counter, Gauge, Histogram};

/// Maximum labels per scope; matches the span arg budget so a labeled
/// metric can always be mirrored onto a span.
pub const MAX_LABELS: usize = 4;

/// Quantile suffixes the exporter may append after a label block.
pub const QUANTILE_SUFFIXES: [&str; 3] = [".p50", ".p95", ".p99"];

fn valid_part(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | ':' | '-'))
}

fn intern_suffix(rendered: &str) -> &'static str {
    static SUFFIXES: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();
    let mut map = SUFFIXES
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap();
    if let Some(&existing) = map.get(rendered) {
        return existing;
    }
    let leaked: &'static str = Box::leak(rendered.to_owned().into_boxed_str());
    map.insert(rendered.to_owned(), leaked);
    leaked
}

/// A resolved, canonicalized label set. Cheap to copy; construction
/// validates, sorts, and interns (allocates — cache the scope or the
/// handles it hands out, per the module contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scope {
    /// Interned `{k=v,…}` block, or `""` for the unlabeled scope.
    suffix: &'static str,
}

impl Scope {
    /// The empty scope: metrics resolve to their bare names.
    pub const fn unlabeled() -> Self {
        Scope { suffix: "" }
    }

    /// Build a scope from `key = value` pairs. Panics on empty or
    /// invalid-charset parts, duplicate keys, or more than
    /// [`MAX_LABELS`] pairs — label sets are code, not data, and a
    /// malformed one is a bug at the call site.
    pub fn new(pairs: &[(&str, &str)]) -> Self {
        assert!(
            pairs.len() <= MAX_LABELS,
            "scope holds at most {MAX_LABELS} labels, got {}",
            pairs.len()
        );
        if pairs.is_empty() {
            return Self::unlabeled();
        }
        let mut sorted: Vec<(&str, &str)> = pairs.to_vec();
        sorted.sort_by(|a, b| a.0.cmp(b.0));
        let mut rendered = String::from("{");
        for (i, &(k, v)) in sorted.iter().enumerate() {
            assert!(valid_part(k), "invalid label key {k:?}");
            assert!(valid_part(v), "invalid label value {v:?}");
            if i > 0 {
                assert_ne!(sorted[i - 1].0, k, "duplicate label key {k:?}");
                rendered.push(',');
            }
            rendered.push_str(k);
            rendered.push('=');
            rendered.push_str(v);
        }
        rendered.push('}');
        Scope {
            suffix: intern_suffix(&rendered),
        }
    }

    /// The interned label block (`""` when unlabeled).
    pub fn suffix(&self) -> &'static str {
        self.suffix
    }

    /// The full canonical metric name for `base` under this scope.
    pub fn render(&self, base: &str) -> String {
        format!("{base}{}", self.suffix)
    }

    fn interned(&self, base: &str) -> &'static str {
        assert!(valid_part(base), "invalid metric base name {base:?}");
        if self.suffix.is_empty() {
            metrics::intern(base)
        } else {
            metrics::intern(&self.render(base))
        }
    }

    /// Resolve the labeled counter `base{…}` (allocates; cache the
    /// returned handle).
    pub fn counter(&self, base: &str) -> Counter {
        metrics::counter(self.interned(base))
    }

    /// Resolve the labeled gauge `base{…}`.
    pub fn gauge(&self, base: &str) -> Gauge {
        metrics::gauge(self.interned(base))
    }

    /// Resolve the labeled histogram `base{…}`.
    pub fn histogram(&self, base: &str) -> Histogram {
        metrics::histogram(self.interned(base))
    }
}

/// Check a metric/counter-track name for label well-formedness:
/// either no `{` at all, or exactly one canonical `{k=v,…}` block —
/// valid charset, keys strictly ascending — followed by nothing or one
/// of the [`QUANTILE_SUFFIXES`]. `trace::validate` applies this to
/// every exported counter track.
pub fn check_labeled_name(name: &str) -> Result<(), String> {
    let Some(open) = name.find('{') else {
        // Unlabeled names must still be brace-free on the right.
        if name.contains('}') {
            return Err(format!("name {name:?} has '}}' without '{{'"));
        }
        return Ok(());
    };
    let base = &name[..open];
    if !valid_part(base) {
        return Err(format!("name {name:?} has an invalid base {base:?}"));
    }
    let rest = &name[open + 1..];
    let Some(close) = rest.find('}') else {
        return Err(format!("name {name:?} has an unterminated label block"));
    };
    let block = &rest[..close];
    let tail = &rest[close + 1..];
    if !(tail.is_empty() || QUANTILE_SUFFIXES.contains(&tail)) {
        return Err(format!(
            "name {name:?} has trailing {tail:?} after the label block \
             (only a quantile suffix is allowed)"
        ));
    }
    if block.contains('{') || tail.contains('{') || tail.contains('}') {
        return Err(format!("name {name:?} has nested or repeated braces"));
    }
    let mut prev_key: Option<&str> = None;
    for pair in block.split(',') {
        let Some((k, v)) = pair.split_once('=') else {
            return Err(format!("name {name:?}: label {pair:?} is not key=value"));
        };
        if !valid_part(k) || !valid_part(v) {
            return Err(format!("name {name:?}: label {pair:?} has invalid charset"));
        }
        if let Some(prev) = prev_key {
            if prev >= k {
                return Err(format!(
                    "name {name:?}: label keys not strictly ascending ({prev:?} then {k:?})"
                ));
            }
        }
        prev_key = Some(k);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_canonicalizes_order_and_interns() {
        let a = Scope::new(&[("class", "arrive"), ("adapter", "3")]);
        let b = Scope::new(&[("adapter", "3"), ("class", "arrive")]);
        assert_eq!(a, b, "argument order must not matter");
        assert_eq!(a.suffix(), "{adapter=3,class=arrive}");
        assert!(std::ptr::eq(a.suffix(), b.suffix()), "interned once");
        assert_eq!(
            a.render("scheduler.events"),
            "scheduler.events{adapter=3,class=arrive}"
        );
        assert_eq!(Scope::unlabeled().render("x.y"), "x.y");
    }

    #[test]
    fn labeled_handles_hit_the_same_cell() {
        let s1 = Scope::new(&[("k", "v")]);
        let s2 = Scope::new(&[("k", "v")]);
        let c1 = s1.counter("test.label.counter");
        let c2 = s2.counter("test.label.counter");
        let before = c1.get();
        c2.add(3);
        assert_eq!(c1.get(), before + 3, "same canonical name, same cell");
        let h = s1.histogram("test.label.hist");
        h.record(100);
        assert!(h.total() >= 1);
    }

    #[test]
    #[should_panic(expected = "duplicate label key")]
    fn duplicate_keys_panic() {
        let _ = Scope::new(&[("k", "a"), ("k", "b")]);
    }

    #[test]
    #[should_panic(expected = "invalid label value")]
    fn invalid_charset_panics() {
        let _ = Scope::new(&[("k", "a b")]);
    }

    #[test]
    fn name_checker_accepts_canonical_and_rejects_malformed() {
        assert!(check_labeled_name("gemm.calls").is_ok());
        assert!(check_labeled_name("scheduler.events{class=arrive}").is_ok());
        assert!(check_labeled_name("a.b{k=1,l=2}.p95").is_ok());
        assert!(check_labeled_name("a.b{k=1}{l=2}").is_err(), "two blocks");
        assert!(check_labeled_name("a.b{l=2,k=1}").is_err(), "unsorted");
        assert!(check_labeled_name("a.b{k=1,k=2}").is_err(), "duplicate");
        assert!(check_labeled_name("a.b{k}").is_err(), "no value");
        assert!(check_labeled_name("a.b{k=v").is_err(), "unterminated");
        assert!(check_labeled_name("a.b{k=v}x").is_err(), "bad tail");
        assert!(check_labeled_name("a.b{k=v w}").is_err(), "bad charset");
        assert!(check_labeled_name("a}b").is_err(), "stray close");
        assert!(check_labeled_name("{k=v}").is_err(), "empty base");
    }
}
