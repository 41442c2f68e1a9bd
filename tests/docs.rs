//! Documentation honesty tests: the protocol reference must cover every
//! command the parser knows, and the hand-written docs must not carry
//! dead relative links. The code blocks inside `README.md` and
//! `docs/*.md` are compiled separately, as doctests, through the
//! `#[cfg(doctest)]` includes in `src/lib.rs`.

use std::path::{Path, PathBuf};

use rept::serve::protocol::COMMAND_FORMS;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    let path = repo_root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path:?}: {e}"))
}

/// Every `Command` variant in `protocol.rs` must appear in
/// `COMMAND_FORMS` (scanned from the source, so a newly added variant
/// cannot dodge the table), and every documented wire form must appear
/// in `docs/PROTOCOL.md`.
#[test]
fn protocol_doc_covers_every_command_variant() {
    // 1. Scan the source for the enum's variants.
    let source = read("crates/rept-serve/src/protocol.rs");
    let body_start = source
        .find("pub enum Command {")
        .expect("Command enum in protocol.rs");
    let body = &source[body_start..];
    let body = &body[..body.find("\n}").expect("enum end")];
    let mut variants = Vec::new();
    for line in body.lines() {
        let line = line.trim();
        // Variant lines look like `Name,` / `Name(args),` at one indent
        // level; doc comments and the header are filtered out.
        if line.starts_with("///") || line.starts_with("pub enum") || line.is_empty() {
            continue;
        }
        let name: String = line
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric())
            .collect();
        if !name.is_empty() && name.chars().next().unwrap().is_ascii_uppercase() {
            variants.push(name);
        }
    }
    assert!(
        variants.len() >= 20,
        "variant scan looks broken: {variants:?}"
    );

    // 2. The table covers exactly the scanned variants, in order.
    let table: Vec<&str> = COMMAND_FORMS.iter().map(|(v, _)| *v).collect();
    assert_eq!(
        variants, table,
        "COMMAND_FORMS out of sync with the Command enum — update both \
         the table and docs/PROTOCOL.md"
    );

    // 3. Every wire form appears in the protocol reference.
    let doc = read("docs/PROTOCOL.md");
    for (variant, form) in COMMAND_FORMS {
        assert!(
            doc.contains(form),
            "docs/PROTOCOL.md does not document {variant} (expected the \
             wire form {form:?} to appear)"
        );
    }
}

/// Extracts `[text](target)` link targets from markdown, skipping
/// fenced code blocks (transcripts contain bracket-like noise).
fn markdown_links(text: &str) -> Vec<String> {
    let mut links = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut rest = line;
        while let Some(open) = rest.find("](") {
            let tail = &rest[open + 2..];
            let Some(close) = tail.find(')') else {
                break;
            };
            links.push(tail[..close].to_string());
            rest = &tail[close + 1..];
        }
    }
    links
}

/// Relative links in the hand-written docs must point at files that
/// exist — a rename or move must not leave dead links behind.
#[test]
fn docs_have_no_dead_relative_links() {
    let docs = [
        "README.md",
        "docs/ARCHITECTURE.md",
        "docs/PROTOCOL.md",
        "docs/DURABILITY.md",
        "docs/OBSERVABILITY.md",
    ];
    for doc in docs {
        let text = read(doc);
        let dir = repo_root().join(doc);
        let dir = dir.parent().unwrap_or_else(|| Path::new("."));
        for link in markdown_links(&text) {
            // External links and intra-page anchors are out of scope.
            if link.starts_with("http://")
                || link.starts_with("https://")
                || link.starts_with("mailto:")
                || link.starts_with('#')
            {
                continue;
            }
            let path = link.split('#').next().unwrap_or(&link);
            let target = dir.join(path);
            assert!(
                target.exists(),
                "{doc}: dead relative link {link:?} (resolved to {target:?})"
            );
        }
    }
}

/// The README's bench tables must keep citing the committed result
/// files, and those files must hold the sections the tables are
/// sourced from, each row with its spread over interleaved
/// repetitions and beside the host's measured parallelism. The rows
/// the in-tree benches no longer keep (sustained TCP ingest, shard
/// scaling) must stay measured end to end by the benchmark.
#[test]
fn readme_bench_tables_cite_committed_results() {
    let readme = read("README.md");
    assert!(readme.contains("BENCH_throughput.json"));
    assert!(readme.contains("BENCH_serve.json"));
    let benchmarks = &readme[readme.find("## Benchmarks").expect("a Benchmarks section")..];
    assert!(
        benchmarks.contains("servebench/reps.py"),
        "the README's Benchmarks section must point to servebench/reps.py"
    );
    let benchmark = read("BENCHMARK.json");
    for workload in ["ba-wire", "ws-durable-shards"] {
        assert!(
            benchmark.contains(&format!("\"name\": \"{workload}\"")),
            "BENCHMARK.json lost the {workload} workload"
        );
    }
    let serve = read("BENCH_serve.json");
    let throughput = read("BENCH_throughput.json");
    for (file, text) in [
        ("BENCH_serve.json", &serve),
        ("BENCH_throughput.json", &throughput),
    ] {
        assert!(
            text.contains("\"host_parallelism\""),
            "{file} must record host_parallelism"
        );
        assert!(
            text.contains("\"q1\"") && text.contains("\"q3\""),
            "{file} rows must carry their quartiles"
        );
    }
    assert!(
        serve.contains("\"tenant_scaling\""),
        "BENCH_serve.json lost its tenant_scaling section"
    );
    assert!(
        serve.contains("\"journal_overhead\""),
        "BENCH_serve.json lost its journal_overhead section"
    );
    assert!(
        serve.contains("\"quota_enforcement\""),
        "BENCH_serve.json lost its quota_enforcement section"
    );
    assert!(
        serve.contains("\"metrics_overhead\""),
        "BENCH_serve.json lost its metrics_overhead section"
    );
    assert!(
        serve.contains("\"publication\"") && readme.contains("`publication`"),
        "BENCH_serve.json's publication section, cited by the README"
    );
    assert!(
        throughput.contains("\"batch_split\""),
        "BENCH_throughput.json lost its batch_split section"
    );
}
