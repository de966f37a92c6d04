//! The documents' references resolve: a plain scan of DESIGN.md,
//! EXPERIMENTS.md, README.md and the Rust sources, with no dependency
//! beyond the workspace.
//!
//! * Every backticked test path (`tests/x.rs`, `crates/c/tests/x.rs`) in
//!   the three documents and in the doc comments under `crates/*/src` and
//!   `src/` exists, and a `path.rs::name` names a function in that file.
//!   A path in a crate's doc comment may be relative to that crate.
//! * Every other backticked `a::name` in the same places names an
//!   identifier some non-comment Rust line of the repo spells.
//! * Every "ROADMAP item N", "item N" or "N(x)" names an open ROADMAP
//!   item, and sub-item (x) of it.
//! * Every `DESIGN.md §N`, `DESIGN.md "…"` or `EXPERIMENTS.md "…"` cited
//!   from a Rust file or from the three documents resolves to a heading.
//!
//! A second test pins DESIGN.md §5's metric-key table to the keys a zero
//! telemetry hub dumps.

use sk_obs::json::{parse, Json};
use sk_obs::{Metrics, ObsConfig};
use std::collections::{BTreeSet, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 3] = ["DESIGN.md", "EXPERIMENTS.md", "README.md"];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Every `.rs` file under `dir`, `target` directories skipped.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The markdown text outside fenced code blocks, one line per line.
fn prose(md: &str) -> String {
    let mut fenced = false;
    let mut out = String::new();
    for line in md.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// A Rust file's doc-comment text (`///`, `//!`) outside fenced code
/// blocks, lines joined by spaces.
fn doc_comments(src: &str) -> String {
    comments(src, &["///", "//!"])
}

/// The text of a Rust file's comments that start with one of `markers`,
/// outside fenced code blocks, marker taken off and lines joined by
/// spaces, so a citation wrapped across comment lines reads as one.
fn comments(src: &str, markers: &[&str]) -> String {
    let mut fenced = false;
    let mut out = String::new();
    for line in src.lines() {
        let t = line.trim_start();
        let Some(rest) = markers.iter().find_map(|m| t.strip_prefix(m)) else { continue };
        if rest.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            out.push_str(rest);
            out.push(' ');
        }
    }
    out
}

/// The contents of every `…` span, each run of whitespace (a line break
/// included) read as one space.
fn backtick_spans(text: &str) -> Vec<String> {
    let parts: Vec<&str> = text.split('`').collect();
    parts
        .iter()
        .skip(1)
        .step_by(2)
        .take((parts.len() - 1) / 2)
        .map(|s| s.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect()
}

/// A span that is a repository path (`tests/…`, `crates/…`, `src/…`,
/// with no glob or placeholder in it), spaces a wrapped line left taken
/// out, and the function name after a `.rs::`.
fn cited_path(span: &str) -> Option<(String, Option<String>)> {
    let starts = ["tests/", "crates/", "src/", "examples/", "scenarios/"];
    if !starts.iter().any(|s| span.starts_with(s)) || span.contains(['*', '{', '<', '…']) {
        return None;
    }
    let span: String = span.split(' ').collect();
    let end = span.find(".rs").map(|i| i + 3).or_else(|| {
        [".txt", ".skn", ".json", ".toml"].iter().find_map(|x| span.find(x).map(|i| i + x.len()))
    })?;
    let name = span[end..].strip_prefix("::").filter(|n| !n.is_empty()).map(str::to_string);
    Some((span[..end].to_string(), name))
}

/// Each identifier that directly follows a `::` in `span`.
fn path_segments(span: &str) -> Vec<&str> {
    let b = span.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(off) = span[i..].find("::") {
        let start = i + off + 2;
        let mut end = start;
        while end < b.len() && is_ident_byte(b[end]) {
            end += 1;
        }
        if end > start && !b[start].is_ascii_digit() {
            out.push(&span[start..end]);
        }
        i = start;
    }
    out
}

/// The identifiers spelled on non-comment lines of every Rust file.
fn code_identifiers(files: &[PathBuf]) -> HashSet<String> {
    let mut set = HashSet::new();
    for f in files {
        for line in read(f).lines() {
            if line.trim_start().starts_with("//") {
                continue;
            }
            for tok in line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
                if !tok.is_empty() {
                    set.insert(tok.to_string());
                }
            }
        }
    }
    set
}

/// The open ROADMAP items and each one's lettered sub-items. Items are
/// the last run of `N. **…` headers under "## Open items" (the numbered
/// findings before them restart at 1).
fn roadmap_items(roadmap: &str) -> Vec<(u32, BTreeSet<String>)> {
    let open = roadmap.split("## Open items").nth(1).expect("ROADMAP has an Open items section");
    let open = open.split("\n### ").next().unwrap_or(open);
    let mut runs: Vec<Vec<(u32, BTreeSet<String>)>> = Vec::new();
    for line in open.lines() {
        let header = line
            .split_once(". **")
            .filter(|(n, _)| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|(n, _)| n.parse::<u32>().ok());
        if let Some(n) = header {
            if runs.last().and_then(|r| r.last()).is_none_or(|(prev, _)| n <= *prev) {
                runs.push(Vec::new());
            }
            runs.last_mut().unwrap().push((n, BTreeSet::new()));
        } else if let Some(item) = runs.last_mut().and_then(|r| r.last_mut()) {
            let t = line.trim_start();
            if let Some(rest) = t.strip_prefix("- (") {
                if let Some((sub, _)) = rest.split_once(')') {
                    if !sub.is_empty() && sub.bytes().all(|b| b.is_ascii_lowercase()) {
                        item.1.insert(sub.to_string());
                    }
                }
            }
        }
    }
    runs.pop().expect("ROADMAP lists numbered items")
}

/// Every ROADMAP citation in `text`: "ROADMAP item N", "ROADMAP N",
/// "item N", "items N", each optionally with "(x)", and a bare "N(x)".
fn roadmap_citations(text: &str) -> Vec<(u32, Option<String>)> {
    let b = text.as_bytes();
    let number_at = |i: usize| -> Option<(u32, Option<String>, usize)> {
        let mut j = i;
        while j < b.len() && b[j].is_ascii_digit() {
            j += 1;
        }
        if j == i || j - i > 2 {
            return None;
        }
        let n = text[i..j].parse().ok()?;
        let mut sub = None;
        if b.get(j) == Some(&b'(') {
            let k = text[j + 1..].find(')').map(|k| j + 1 + k)?;
            let s = &text[j + 1..k];
            if !s.is_empty() && s.len() <= 4 && s.bytes().all(|c| c.is_ascii_lowercase()) {
                sub = Some(s.to_string());
            }
        }
        Some((n, sub, j))
    };
    let mut out = Vec::new();
    for prefix in ["ROADMAP item ", "ROADMAP items ", "ROADMAP ", "item ", "items "] {
        let mut from = 0;
        while let Some(off) = text[from..].find(prefix) {
            let at = from + off;
            from = at + prefix.len();
            let word_start = at == 0 || !is_ident_byte(b[at - 1]);
            let after_roadmap = text[..at].ends_with("ROADMAP ");
            if word_start && !(prefix.starts_with("item") && after_roadmap) {
                if let Some((n, sub, _)) = number_at(from) {
                    out.push((n, sub));
                }
            }
        }
    }
    for (i, w) in b.windows(2).enumerate() {
        let starts_number = w[1].is_ascii_digit() && !is_ident_byte(w[0]) && w[0] != b'.';
        if starts_number
            && !text[..i + 1].ends_with("item ")
            && !text[..i + 1].ends_with("ROADMAP ")
        {
            if let Some((n, Some(sub), _)) = number_at(i + 1) {
                out.push((n, Some(sub)));
            }
        }
    }
    out
}

/// The headings of a markdown document, `#`s and spaces taken off.
fn headings(md: &str) -> Vec<String> {
    prose(md)
        .lines()
        .filter(|l| l.starts_with('#'))
        .map(|l| l.trim_start_matches('#').split_whitespace().collect::<Vec<_>>().join(" "))
        .collect()
}

/// Every `DESIGN.md §N`, `DESIGN.md "…"` and `EXPERIMENTS.md "…"` in
/// `text` that does not resolve, named with `source`.
fn unresolved_headings(
    text: &str,
    source: &str,
    design: &[String],
    exps: &[String],
) -> Vec<String> {
    let mut bad = Vec::new();
    for (doc, heads) in [("DESIGN", design), ("EXPERIMENTS", exps)] {
        let mut from = 0;
        while let Some(off) = text[from..].find(doc) {
            let at = from + off;
            from = at + doc.len();
            if at > 0 && is_ident_byte(text.as_bytes()[at - 1]) {
                continue;
            }
            let mut rest = &text[from..];
            rest = rest.strip_prefix(".md").unwrap_or(rest);
            if rest.starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_') {
                continue;
            }
            rest = rest.trim_start_matches([',', ' ']);
            if let Some(sec) = rest.strip_prefix('§') {
                let n: String = sec.chars().take_while(char::is_ascii_digit).collect();
                let missing = !heads.iter().any(|h| h.starts_with(&format!("{n}. ")));
                if doc == "DESIGN" && !n.is_empty() && missing {
                    bad.push(format!("{source}: DESIGN.md §{n} is no heading"));
                }
                rest = sec[n.len()..].trim_start_matches([',', ' ']);
            }
            if let Some(q) = rest.strip_prefix('"') {
                if let Some((quoted, _)) = q.split_once('"') {
                    let quoted = quoted.split_whitespace().collect::<Vec<_>>().join(" ");
                    if quoted != "…" && !heads.iter().any(|h| h.contains(&quoted)) {
                        bad.push(format!("{source}: {doc}.md \"{quoted}\" is no heading"));
                    }
                }
            }
        }
    }
    bad
}

#[test]
fn every_cited_path_name_item_and_heading_exists() {
    let root = root();
    let mut all_rs = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), &mut all_rs);
    }
    let idents = code_identifiers(&all_rs);
    let items = roadmap_items(&read(&root.join("ROADMAP.md")));
    let design = headings(&read(&root.join("DESIGN.md")));
    let exps = headings(&read(&root.join("EXPERIMENTS.md")));
    let mut bad = Vec::new();

    // (source name, text to scan, directory a relative path may start from)
    let mut texts: Vec<(String, String, PathBuf)> =
        DOCS.iter().map(|d| (d.to_string(), prose(&read(&root.join(d))), root.clone())).collect();
    for f in &all_rs {
        let rel = f.strip_prefix(&root).unwrap().to_string_lossy().into_owned();
        let parts: Vec<&str> = rel.split('/').collect();
        let documented =
            parts[0] == "src" || (parts[0] == "crates" && parts.get(2) == Some(&"src"));
        if documented {
            let crate_dir = if parts[0] == "crates" {
                root.join(&rel[..rel.find("/src/").unwrap()])
            } else {
                root.clone()
            };
            texts.push((rel, doc_comments(&read(f)), crate_dir));
        }
    }

    for (source, text, base) in &texts {
        for span in backtick_spans(text) {
            if let Some((path, name)) = cited_path(&span) {
                let file = [root.join(&path), base.join(&path)].into_iter().find(|p| p.is_file());
                match (file, name) {
                    (None, _) => bad.push(format!("{source}: `{path}` does not exist")),
                    (Some(f), Some(name)) if !read(&f).contains(&format!("fn {name}(")) => {
                        bad.push(format!("{source}: `{path}` has no fn {name}"))
                    }
                    _ => {}
                }
                continue;
            }
            for seg in path_segments(&span) {
                if !idents.contains(seg) {
                    bad.push(format!("{source}: `{span}` names `{seg}`, which no code spells"));
                }
            }
        }
        for (n, sub) in roadmap_citations(text) {
            match items.iter().find(|(i, _)| *i == n) {
                None => bad.push(format!("{source}: ROADMAP item {n} does not exist")),
                Some((_, subs)) => {
                    if let Some(s) = sub.filter(|s| !subs.contains(s)) {
                        bad.push(format!("{source}: ROADMAP {n}({s}) does not exist"));
                    }
                }
            }
        }
    }

    for (source, text) in DOCS.iter().map(|d| (d.to_string(), prose(&read(&root.join(d))))).chain(
        all_rs.iter().map(|f| {
            (
                f.strip_prefix(&root).unwrap().to_string_lossy().into_owned(),
                comments(&read(f), &["//"]),
            )
        }),
    ) {
        bad.extend(unresolved_headings(&text, &source, &design, &exps));
    }

    assert!(bad.is_empty(), "{} unresolved references:\n{}", bad.len(), bad.join("\n"));
}

/// The `(owner, key)` pairs of a metrics dump: counters, histograms and
/// other per-owner keys of the cores, the manager and the shards, and the
/// hub's own top-level series.
fn dump_keys(dump: &Json) -> BTreeSet<(String, String)> {
    let Json::Obj(top) = dump else { panic!("the dump is an object") };
    let mut keys = BTreeSet::new();
    for (k, v) in top {
        match (k.as_str(), v) {
            ("schema" | "version" | "n_cores", _) => {}
            ("cores", Json::Arr(a)) => owner_keys("core", &a[0], &mut keys),
            ("shards", Json::Arr(a)) => owner_keys("shard", &a[0], &mut keys),
            ("manager", _) => owner_keys("manager", v, &mut keys),
            _ => {
                keys.insert(("hub".to_string(), k.clone()));
            }
        }
    }
    keys
}

/// One owner's keys: the names inside `counters` and `hist`, and every
/// other field but `id`.
fn owner_keys(owner: &str, v: &Json, keys: &mut BTreeSet<(String, String)>) {
    let Json::Obj(fields) = v else { panic!("{owner} is an object") };
    for (k, v) in fields {
        match (k.as_str(), v) {
            ("id", _) => {}
            ("counters" | "hist", Json::Obj(inner)) => {
                keys.extend(inner.iter().map(|(name, _)| (owner.to_string(), name.clone())))
            }
            _ => {
                keys.insert((owner.to_string(), k.clone()));
            }
        }
    }
}

/// DESIGN.md §5's table rows as `(owner, key)`: the owner cell's first
/// word, and each backticked name of the metric cell with any `[i]`
/// index taken off.
fn design_table_keys(design: &str) -> BTreeSet<(String, String)> {
    let section = design.split("\n## 5.").nth(1).expect("DESIGN.md has a §5");
    let section = section.split("\n## ").next().unwrap();
    let mut lines = section.lines().skip_while(|l| !l.starts_with("| owner | metric |"));
    assert!(lines.next().is_some(), "DESIGN.md §5 has an `| owner | metric |` table");
    let mut keys = BTreeSet::new();
    for row in lines.skip(1).take_while(|l| l.starts_with('|')) {
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        let owner = cells[1].split_whitespace().next().unwrap_or("").to_string();
        for name in backtick_spans(cells[2]) {
            let name = name.split('[').next().unwrap().to_string();
            keys.insert((owner.clone(), name));
        }
    }
    keys
}

#[test]
fn design_metric_table_lists_exactly_the_dumped_keys() {
    let hub = Metrics::new_sharded(1, 1, ObsConfig::default());
    let dumped = dump_keys(&parse(&hub.to_json()).expect("the dump parses"));
    let table = design_table_keys(&read(&root().join("DESIGN.md")));
    let missing: Vec<_> = dumped.difference(&table).collect();
    let stale: Vec<_> = table.difference(&dumped).collect();
    assert!(
        missing.is_empty() && stale.is_empty(),
        "DESIGN.md §5's metric table is out of step with Metrics::to_json():\n\
         dumped but not in the table: {missing:?}\nin the table but not dumped: {stale:?}"
    );
}
