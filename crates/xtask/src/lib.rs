//! Text/line-based repo-invariant lints (`cargo xtask lint`).
//!
//! Seven rules, all enforced over the non-test code under `crates/` (see
//! DESIGN.md §"Concurrency model & checking" for the invariants they guard):
//!
//! * **ordering-rationale** — every `Ordering::` use carries an adjacent
//!   `// ordering:` rationale comment *and* a `file :: Ordering::Variant`
//!   entry in `crates/xtask/ordering_allowlist.txt`. Stale allowlist
//!   entries fail too, so the list always mirrors the tree.
//! * **ascending-locks** — `LockManager::acquire` in
//!   `engine/src/runtime/lock.rs` claims partitions via
//!   `for p in set.iter()` (ascending by construction) and its body
//!   contains no reversal (`.rev()` / `Reverse`); deadlock-freedom rests
//!   on this order.
//! * **facade-purity** — modules ported to `common::sync` (`epoch.rs`,
//!   everything under `engine/src/runtime/`) must not name `std::sync`
//!   outside `#[cfg(test)]`: a stray std type would silently bypass the
//!   model checker.
//! * **send-unwrap** — no `unwrap()` / `expect(` on channel `.send(` calls
//!   under `engine/src/runtime/`: a shutdown race would escalate a benign
//!   disconnect into a panic.
//! * **device-sync** — `sync_data(` / `sync_all(` appear only in
//!   `wal/src/log.rs` (the group-commit flush) and `wal/src/snapshot.rs`
//!   (snapshot files and markers), so no fsync creeps onto a serving path.
//! * **routing-rule** — `unsigned_abs() %` / `stable_hash() %` appear only
//!   in `common/src/value.rs`, inside `Value::home_partition`: every other
//!   place that needs a value's partition calls it, so storage placement,
//!   estimation and feature extraction cannot drift apart.
//! * **one-kernel** — the transaction-step kernel's rules are spelled out
//!   only in `engine/src/txn.rs` and in `storage`: the batch check
//!   (`.check_batch(`), OP4's release and mark (`.releasable(`,
//!   `early_released.insert(`), the reserved set
//!   (`early_released.difference(`) and the rollback check
//!   (`can_rollback(`). Every driver — fast path, coordinator, simulator,
//!   replay — steps a `txn::Attempt` instead, so no driver grows its own
//!   copy of a rule.
//!
//! Deliberately text-based (no `syn`, no dependencies): the rules key on
//! line patterns plus a brace-tracked `#[cfg(test)]` mask, which is robust
//! enough for the repo's formatting and keeps the tool offline-buildable.

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One rule violation, printed `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub file: String,
    /// 1-based; 0 for file-level findings (e.g. a stale allowlist entry).
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Files ported to the `common::sync` facade: `std::sync` is banned in
/// their non-test code (the facade itself and test modules are exempt).
/// An entry ending in `/` covers every file under that directory.
const FACADE_PORTED: &[&str] = &[
    "crates/common/src/epoch.rs",
    "crates/common/src/flush.rs",
    "crates/common/src/ring.rs",
    RUNTIME_DIR,
];

/// The live runtime's modules: their send calls get the send-unwrap rule.
const RUNTIME_DIR: &str = "crates/engine/src/runtime/";

/// The file whose lock-claim loop gets the ascending-locks rule.
const LOCK_RS: &str = "crates/engine/src/runtime/lock.rs";

/// The only files that may sync a file to the device: the command log's
/// group-commit flush and the snapshot writer.
const DEVICE_SYNC_ALLOWED: &[&str] = &["crates/wal/src/log.rs", "crates/wal/src/snapshot.rs"];

/// The only file that may spell out the routing arithmetic: the home of
/// `Value::home_partition`.
const ROUTING_RULE_HOME: &str = "crates/common/src/value.rs";

/// The only places that may spell out a transaction-step rule: the kernel,
/// and the storage crate whose rollback holds the one `can_rollback` check.
const KERNEL_HOMES: &[&str] = &["crates/engine/src/txn.rs", "crates/storage/"];

/// What spells out a transaction-step rule outside [`KERNEL_HOMES`].
const KERNEL_RULES: &[&str] = &[
    ".check_batch(",
    ".releasable(",
    "early_released.insert(",
    "early_released.difference(",
    "can_rollback(",
];

/// Whether `rel` is the file `entry` names, or — for an `entry` ending in
/// `/` — lies under that directory.
fn path_matches(rel: &str, entry: &str) -> bool {
    if entry.ends_with('/') {
        rel.contains(entry)
    } else {
        rel.ends_with(entry)
    }
}

/// Entry point for `cargo xtask lint`.
pub fn lint() -> ExitCode {
    let root = repo_root();
    match lint_tree(&root) {
        Ok(violations) if violations.is_empty() => {
            println!("xtask lint: ok");
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                eprintln!("{v}");
            }
            eprintln!("xtask lint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask lint: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The workspace root, resolved from this crate's manifest dir so the lint
/// works from any working directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask has a workspace root two levels up")
        .to_path_buf()
}

/// Lints every `.rs` file under `<root>/crates` (excluding `crates/xtask`
/// itself, whose source spells out the patterns it greps for).
pub fn lint_tree(root: &Path) -> Result<Vec<Violation>, String> {
    let allowlist = load_allowlist(&root.join("crates/xtask/ordering_allowlist.txt"))?;
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files)
        .map_err(|e| format!("walking crates/: {e}"))?;
    files.sort();

    let mut violations = Vec::new();
    let mut used_entries: BTreeSet<String> = BTreeSet::new();
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/");
        if rel.starts_with("crates/xtask/") {
            continue;
        }
        let content = std::fs::read_to_string(path).map_err(|e| format!("{rel}: {e}"))?;
        violations.extend(check_file(&rel, &content, &allowlist, &mut used_entries));
    }
    for stale in allowlist.difference(&used_entries) {
        violations.push(Violation {
            file: "crates/xtask/ordering_allowlist.txt".into(),
            line: 0,
            rule: "ordering-rationale",
            message: format!("stale allowlist entry (no matching use in the tree): {stale}"),
        });
    }
    Ok(violations)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Parses the allowlist: one `path :: Ordering::Variant` entry per line;
/// `#` comments and blank lines ignored.
pub fn load_allowlist(path: &Path) -> Result<BTreeSet<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(parse_allowlist(&text))
}

pub fn parse_allowlist(text: &str) -> BTreeSet<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect()
}

/// Runs every applicable rule on one file. `used_entries` collects the
/// allowlist entries this file consumed (for staleness reporting).
pub fn check_file(
    rel: &str,
    content: &str,
    allowlist: &BTreeSet<String>,
    used_entries: &mut BTreeSet<String>,
) -> Vec<Violation> {
    let lines: Vec<&str> = content.lines().collect();
    // Integration tests run on real threads and may use std primitives and
    // unwraps freely.
    let all_test = rel.contains("/tests/");
    let mask = if all_test { vec![true; lines.len()] } else { test_mask(&lines) };

    let mut out = Vec::new();
    if !all_test {
        out.extend(rule_ordering_rationale(rel, &lines, &mask, allowlist, used_entries));
    }
    if path_matches(rel, LOCK_RS) {
        out.extend(rule_ascending_locks(rel, &lines, &mask));
    }
    if path_matches(rel, RUNTIME_DIR) {
        out.extend(rule_send_unwrap(rel, &lines, &mask));
    }
    if FACADE_PORTED.iter().any(|f| path_matches(rel, f)) {
        out.extend(rule_facade_purity(rel, &lines, &mask));
    }
    if !all_test && !DEVICE_SYNC_ALLOWED.iter().any(|f| path_matches(rel, f)) {
        out.extend(rule_device_sync(rel, &lines, &mask));
    }
    if !all_test && !path_matches(rel, ROUTING_RULE_HOME) {
        out.extend(rule_routing_rule(rel, &lines, &mask));
    }
    if !all_test && !KERNEL_HOMES.iter().any(|f| path_matches(rel, f)) {
        out.extend(rule_one_kernel(rel, &lines, &mask));
    }
    out
}

/// `mask[i]` is true when line `i` is inside a `#[cfg(test)]` item. Brace
/// counting is textual; good enough because test modules close at end of
/// file in this repo's style.
pub fn test_mask(lines: &[&str]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut depth: i32 = 0;
    let mut in_test = false;
    let mut armed = false;
    for (i, raw) in lines.iter().enumerate() {
        let code = strip_comment(raw);
        if !in_test && code.contains("#[cfg(test)]") {
            armed = true;
            mask[i] = true;
            continue;
        }
        if armed {
            mask[i] = true;
            let opens = code.matches('{').count() as i32;
            let closes = code.matches('}').count() as i32;
            if opens > 0 {
                in_test = true;
                armed = false;
                depth = opens - closes;
                if depth <= 0 {
                    in_test = false;
                }
            }
            continue;
        }
        if in_test {
            mask[i] = true;
            depth += code.matches('{').count() as i32;
            depth -= code.matches('}').count() as i32;
            if depth <= 0 {
                in_test = false;
            }
        }
    }
    mask
}

/// Drops a trailing `//` comment (also swallows `//!` and `///` doc lines).
fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(idx) => &line[..idx],
        None => line,
    }
}

/// An `Ordering::` use is "annotated" when `// ordering:` appears on the
/// line itself or in the comment block immediately above its statement
/// (tolerating up to two interposed non-comment lines, e.g. a fn signature
/// between the block and the use).
fn has_adjacent_rationale(lines: &[&str], i: usize) -> bool {
    if lines[i].contains("// ordering:") {
        return true;
    }
    let mut j = i;
    let mut grace = 2;
    while j > 0 {
        j -= 1;
        if lines[j].trim_start().starts_with("//") {
            // Scan the whole consecutive comment block.
            loop {
                if lines[j].contains("// ordering:") {
                    return true;
                }
                if j == 0 || !lines[j - 1].trim_start().starts_with("//") {
                    return false;
                }
                j -= 1;
            }
        }
        if grace == 0 {
            return false;
        }
        grace -= 1;
    }
    false
}

fn rule_ordering_rationale(
    rel: &str,
    lines: &[&str],
    mask: &[bool],
    allowlist: &BTreeSet<String>,
    used_entries: &mut BTreeSet<String>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, raw) in lines.iter().enumerate() {
        if mask[i] {
            continue;
        }
        let code = strip_comment(raw);
        if !code.contains("Ordering::") {
            continue;
        }
        if !has_adjacent_rationale(lines, i) {
            out.push(Violation {
                file: rel.into(),
                line: i + 1,
                rule: "ordering-rationale",
                message: format!(
                    "`Ordering::` use without an adjacent `// ordering:` rationale \
                     comment: {}",
                    code.trim()
                ),
            });
        }
        for variant in ordering_variants(code) {
            let entry = format!("{rel} :: {variant}");
            if allowlist.contains(&entry) {
                used_entries.insert(entry);
            } else {
                out.push(Violation {
                    file: rel.into(),
                    line: i + 1,
                    rule: "ordering-rationale",
                    message: format!(
                        "`{variant}` not in crates/xtask/ordering_allowlist.txt \
                         (add `{entry}` once the rationale is reviewed)"
                    ),
                });
            }
        }
    }
    out
}

/// Every `Ordering::Variant` token on a code line.
fn ordering_variants(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = code;
    while let Some(pos) = rest.find("Ordering::") {
        let tail = &rest[pos + "Ordering::".len()..];
        let end = tail.find(|c: char| !c.is_ascii_alphanumeric() && c != '_').unwrap_or(tail.len());
        out.push(format!("Ordering::{}", &tail[..end]));
        rest = &tail[end..];
    }
    out
}

fn rule_ascending_locks(rel: &str, lines: &[&str], mask: &[bool]) -> Vec<Violation> {
    // Locate the body of `fn acquire(&self, set: PartitionSet)`.
    let Some(start) = lines.iter().enumerate().find_map(|(i, l)| {
        (!mask[i] && strip_comment(l).contains("fn acquire(&self, set: PartitionSet)")).then_some(i)
    }) else {
        return vec![Violation {
            file: rel.into(),
            line: 0,
            rule: "ascending-locks",
            message: "LockManager::acquire not found — the lock-order lint no longer \
                      matches the code; update the pattern alongside the refactor"
                .into(),
        }];
    };
    let mut out = Vec::new();
    let mut depth: i32 = 0;
    let mut entered = false;
    let mut saw_ascending_loop = false;
    for (i, raw) in lines.iter().enumerate().skip(start) {
        let code = strip_comment(raw);
        depth += code.matches('{').count() as i32;
        depth -= code.matches('}').count() as i32;
        if depth > 0 {
            entered = true;
        }
        if code.contains("for p in set.iter()") && !code.contains(".rev()") {
            saw_ascending_loop = true;
        }
        if code.contains(".rev()") || code.contains("Reverse") {
            out.push(Violation {
                file: rel.into(),
                line: i + 1,
                rule: "ascending-locks",
                message: format!(
                    "partition claim loop in LockManager::acquire reverses its order \
                     (deadlock-freedom depends on ascending claims): {}",
                    code.trim()
                ),
            });
        }
        if entered && depth <= 0 {
            break;
        }
    }
    if !saw_ascending_loop {
        out.push(Violation {
            file: rel.into(),
            line: start + 1,
            rule: "ascending-locks",
            message: "LockManager::acquire must claim partitions via `for p in set.iter()` \
                      (ascending partition order)"
                .into(),
        });
    }
    out
}

fn rule_facade_purity(rel: &str, lines: &[&str], mask: &[bool]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, raw) in lines.iter().enumerate() {
        if mask[i] {
            continue;
        }
        let code = strip_comment(raw);
        if code.contains("std::sync") {
            out.push(Violation {
                file: rel.into(),
                line: i + 1,
                rule: "facade-purity",
                message: format!(
                    "`std::sync` in a module ported to `common::sync` (use the facade so \
                     the model checker covers this code): {}",
                    code.trim()
                ),
            });
        }
    }
    out
}

fn rule_send_unwrap(rel: &str, lines: &[&str], mask: &[bool]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, raw) in lines.iter().enumerate() {
        if mask[i] {
            continue;
        }
        let code = strip_comment(raw);
        // Only unwrap/expect *after* the send call target the send's
        // Result; an `.expect(...)` earlier in the chain (e.g. unwrapping
        // the Option holding the sender) is a different story.
        let flagged = code.find(".send(").is_some_and(|s| {
            let after = &code[s..];
            after.contains(".unwrap()") || after.contains(".expect(")
        });
        if flagged {
            out.push(Violation {
                file: rel.into(),
                line: i + 1,
                rule: "send-unwrap",
                message: format!(
                    "channel send unwrapped in a worker path (a shutdown race would \
                     panic; handle the disconnect): {}",
                    code.trim()
                ),
            });
        }
    }
    out
}

fn rule_device_sync(rel: &str, lines: &[&str], mask: &[bool]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, raw) in lines.iter().enumerate() {
        if mask[i] {
            continue;
        }
        let code = strip_comment(raw);
        if code.contains("sync_data(") || code.contains("sync_all(") {
            out.push(Violation {
                file: rel.into(),
                line: i + 1,
                rule: "device-sync",
                message: format!(
                    "fsync outside the command log and the snapshot writer (durability \
                     goes through `LogSet::flush_all`): {}",
                    code.trim()
                ),
            });
        }
    }
    out
}

fn rule_routing_rule(rel: &str, lines: &[&str], mask: &[bool]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, raw) in lines.iter().enumerate() {
        if mask[i] {
            continue;
        }
        let code = strip_comment(raw);
        if code.contains("unsigned_abs() %") || code.contains("stable_hash() %") {
            out.push(Violation {
                file: rel.into(),
                line: i + 1,
                rule: "routing-rule",
                message: format!(
                    "partition arithmetic outside `Value::home_partition` (call it instead, \
                     so every layer routes a value the same way): {}",
                    code.trim()
                ),
            });
        }
    }
    out
}

fn rule_one_kernel(rel: &str, lines: &[&str], mask: &[bool]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, raw) in lines.iter().enumerate() {
        if mask[i] {
            continue;
        }
        let code = strip_comment(raw);
        if KERNEL_RULES.iter().any(|r| code.contains(r)) {
            out.push(Violation {
                file: rel.into(),
                line: i + 1,
                rule: "one-kernel",
                message: format!(
                    "a transaction-step rule outside `engine::txn` (step a `txn::Attempt` \
                     instead, so every driver applies the rule the same way): {}",
                    code.trim()
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(name: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    fn rules_of(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn missing_rationale_fixture_fails() {
        let src = fixture("missing_rationale.rs");
        let allow = parse_allowlist("fixtures/missing_rationale.rs :: Ordering::Relaxed");
        let mut used = BTreeSet::new();
        let v = check_file("fixtures/missing_rationale.rs", &src, &allow, &mut used);
        assert_eq!(rules_of(&v), ["ordering-rationale"], "{v:?}");
        assert!(v[0].message.contains("// ordering:"), "{}", v[0].message);
    }

    #[test]
    fn missing_allowlist_entry_fixture_fails() {
        let src = fixture("missing_allowlist.rs");
        let allow = BTreeSet::new();
        let mut used = BTreeSet::new();
        let v = check_file("fixtures/missing_allowlist.rs", &src, &allow, &mut used);
        assert_eq!(rules_of(&v), ["ordering-rationale"], "{v:?}");
        assert!(v[0].message.contains("allowlist"), "{}", v[0].message);
    }

    #[test]
    fn annotated_and_allowlisted_use_passes() {
        let src = fixture("missing_allowlist.rs");
        let allow = parse_allowlist("fixtures/missing_allowlist.rs :: Ordering::Release");
        let mut used = BTreeSet::new();
        let v = check_file("fixtures/missing_allowlist.rs", &src, &allow, &mut used);
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(used.len(), 1);
    }

    #[test]
    fn descending_locks_fixture_fails() {
        let src = fixture("descending_locks.rs");
        let mut used = BTreeSet::new();
        let v = check_file(
            LOCK_RS,
            &src,
            &parse_allowlist("crates/engine/src/runtime/lock.rs :: Ordering::Relaxed"),
            &mut used,
        );
        assert!(
            rules_of(&v).contains(&"ascending-locks"),
            "expected ascending-locks violation: {v:?}"
        );
    }

    #[test]
    fn std_sync_fixture_fails() {
        let src = fixture("std_sync_import.rs");
        let mut used = BTreeSet::new();
        let v = check_file("crates/common/src/epoch.rs", &src, &BTreeSet::new(), &mut used);
        assert!(rules_of(&v).contains(&"facade-purity"), "expected facade-purity violation: {v:?}");
        // The same text inside #[cfg(test)] is exempt.
        assert_eq!(
            v.iter().filter(|x| x.rule == "facade-purity").count(),
            1,
            "test-module use must be exempt: {v:?}"
        );
        // Every module under the runtime directory is facade-ported too.
        let v = check_file(
            "crates/engine/src/runtime/participant.rs",
            &src,
            &BTreeSet::new(),
            &mut used,
        );
        assert!(rules_of(&v).contains(&"facade-purity"), "runtime/ is covered by prefix: {v:?}");
    }

    #[test]
    fn send_unwrap_fixture_fails() {
        let src = fixture("send_unwrap.rs");
        let mut used = BTreeSet::new();
        let v =
            check_file("crates/engine/src/runtime/worker.rs", &src, &BTreeSet::new(), &mut used);
        let sends: Vec<_> = v.iter().filter(|x| x.rule == "send-unwrap").collect();
        assert_eq!(sends.len(), 2, "unwrap() and expect() must both trip: {v:?}");
    }

    #[test]
    fn device_sync_fixture_fails_outside_the_wal() {
        let src = fixture("device_sync.rs");
        let mut used = BTreeSet::new();
        let v =
            check_file("crates/engine/src/runtime/worker.rs", &src, &BTreeSet::new(), &mut used);
        let syncs: Vec<_> = v.iter().filter(|x| x.rule == "device-sync").collect();
        assert_eq!(syncs.len(), 1, "one non-test call; comments and tests exempt: {v:?}");
        assert_eq!(syncs[0].line, 5);
        for allowed in DEVICE_SYNC_ALLOWED {
            let v = check_file(allowed, &src, &BTreeSet::new(), &mut used);
            assert!(v.iter().all(|x| x.rule != "device-sync"), "{allowed}: {v:?}");
        }
    }

    #[test]
    fn routing_rule_fixture_fails_outside_value_rs() {
        let src = fixture("routing_rule.rs");
        let mut used = BTreeSet::new();
        let v = check_file("crates/houdini/src/feature.rs", &src, &BTreeSet::new(), &mut used);
        let lines: Vec<_> = v.iter().filter(|x| x.rule == "routing-rule").map(|x| x.line).collect();
        assert_eq!(lines, [6, 7], "both spellings trip; comments and tests exempt: {v:?}");
        let v = check_file(ROUTING_RULE_HOME, &src, &BTreeSet::new(), &mut used);
        assert!(v.iter().all(|x| x.rule != "routing-rule"), "{v:?}");
    }

    #[test]
    fn one_kernel_fixture_fails_outside_the_kernel() {
        let src = fixture("one_kernel.rs");
        let mut used = BTreeSet::new();
        let v = check_file("crates/engine/src/sim.rs", &src, &BTreeSet::new(), &mut used);
        let lines: Vec<_> = v.iter().filter(|x| x.rule == "one-kernel").map(|x| x.line).collect();
        assert_eq!(lines, [4, 6, 7, 9, 11], "every rule trips; comments and tests exempt: {v:?}");
        for home in ["crates/engine/src/txn.rs", "crates/storage/src/database.rs"] {
            let v = check_file(home, &src, &BTreeSet::new(), &mut used);
            assert!(v.iter().all(|x| x.rule != "one-kernel"), "{home}: {v:?}");
        }
    }

    #[test]
    fn test_mask_covers_cfg_test_module() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let lines: Vec<&str> = src.lines().collect();
        let mask = test_mask(&lines);
        assert_eq!(mask, [false, true, true, true, true, false]);
    }

    #[test]
    fn lint_repo_tree_is_clean() {
        let violations = lint_tree(&repo_root()).expect("lint walks the tree");
        assert!(
            violations.is_empty(),
            "repo must be lint-clean:\n{}",
            violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\n")
        );
    }
}
