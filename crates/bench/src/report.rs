//! Machine-readable bench results + the read-IO regression gate.
//!
//! Every smoke-mode `exp_*` bench emits a `BENCH_<name>.json` at the repo
//! root through [`BenchReport`] — one record per experiment cell with its
//! numeric metrics (queries, read IOs, wall-clock, snapshot sizes…) — and
//! prints a one-line summary for the CI log. `ci.sh` then runs the
//! `bench_gate` binary, which compares the `read_ios` metric of every cell
//! against the committed `BENCH_baseline.json` and fails on a >2%
//! regression. Read-IO counts are gated by default: they are deterministic
//! (all workloads are seeded), while wall-clock is noise on shared 1-core
//! CI containers. Wall-clock is still *recorded* — benches emit a
//! [`WALL_METRIC`] cell via [`BenchCell::report_wall`] and the baseline
//! keeps a `"wall"` mirror — so `bench_gate check --gate-wall` can opt in
//! to a wide-tolerance, regressions-only wall gate on quiet hardware.
//! Refresh the baseline with `./ci.sh --update-baseline`.
//!
//! Everything here is std-only (hand-rolled JSON subset writer/parser), so
//! the gate binary builds without the workspace's bench dev-dependencies.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Benches whose smoke runs are gated against the baseline, in ci.sh order.
pub const GATED_BENCHES: [&str; 9] = [
    "exp_batched",
    "exp_parallel",
    "exp_planner",
    "exp_shard",
    "exp_live",
    "exp_reopen",
    "exp_serve",
    "exp_lift",
    "exp_t1_tradeoff",
];

/// The committed baseline file at the repo root.
pub const BASELINE_FILE: &str = "BENCH_baseline.json";

/// The gated metric: deterministic read-IO counts.
pub const READ_METRIC: &str = "read_ios";

/// The recorded-but-ungated-by-default wall-clock metric (whole nanoseconds),
/// written by [`BenchCell::report_wall`]; gated only by `--gate-wall`.
pub const WALL_METRIC: &str = "wall_ns";

/// Where bench JSON lives: `$LCRS_BENCH_DIR` if set, else the repo root
/// (two levels up from the lcrs-bench manifest). The manifest directory is
/// the run-time one cargo sets for `cargo bench` / `cargo run` of this
/// package, so a binary compiled in one checkout and run from a copy
/// writes into the copy; the compile-time one is the fallback.
pub fn bench_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("LCRS_BENCH_DIR") {
        return PathBuf::from(dir);
    }
    let run_time = std::env::var_os("CARGO_MANIFEST_DIR")
        .filter(|_| std::env::var("CARGO_PKG_NAME").as_deref() == Ok(env!("CARGO_PKG_NAME")));
    let mut p = PathBuf::from(run_time.unwrap_or_else(|| env!("CARGO_MANIFEST_DIR").into()));
    p.pop();
    p.pop();
    p
}

/// Path of one bench's result file inside `dir`.
pub fn result_path(dir: &Path, bench: &str) -> PathBuf {
    dir.join(format!("BENCH_{bench}.json"))
}

/// One experiment cell: an id (e.g. `hs2d/Uniform/zipf`) plus its numeric
/// metrics in insertion order.
pub struct BenchCell {
    id: String,
    metrics: Vec<(String, f64)>,
}

impl BenchCell {
    /// Record one metric; returns `self` for chaining.
    pub fn metric(&mut self, key: &str, value: impl Into<f64>) -> &mut BenchCell {
        self.metrics.push((key.to_string(), value.into()));
        self
    }

    /// Record the cell's wall-clock under the canonical [`WALL_METRIC`]
    /// key (whole nanoseconds). Every smoke bench reports one so the wall
    /// column lands in every `BENCH_*.json`; it stays out of the default
    /// gate (see [`check_baseline`]).
    pub fn report_wall(&mut self, wall: std::time::Duration) -> &mut BenchCell {
        self.metric(WALL_METRIC, wall.as_nanos() as f64)
    }
}

/// A bench run's machine-readable results, written as `BENCH_<name>.json`.
pub struct BenchReport {
    name: String,
    smoke: bool,
    cells: Vec<BenchCell>,
}

impl BenchReport {
    pub fn new(name: &str, smoke: bool) -> BenchReport {
        BenchReport { name: name.to_string(), smoke, cells: Vec::new() }
    }

    /// Start a new cell (ids should be unique per report).
    pub fn cell(&mut self, id: impl Into<String>) -> &mut BenchCell {
        self.cells.push(BenchCell { id: id.into(), metrics: Vec::new() });
        self.cells.last_mut().unwrap()
    }

    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\n  \"bench\": {},\n  \"smoke\": {},\n  \"cells\": [",
            json_str(&self.name),
            self.smoke
        );
        for (i, c) in self.cells.iter().enumerate() {
            let _ =
                write!(s, "{}\n    {{\"id\": {}", if i > 0 { "," } else { "" }, json_str(&c.id));
            for (k, v) in &c.metrics {
                let _ = write!(s, ", {}: {}", json_str(k), json_num(*v));
            }
            let _ = write!(s, "}}");
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Write `BENCH_<name>.json` into [`bench_dir`] and print the one-line
    /// summary CI logs show. Returns the path written.
    pub fn write_default(&self) -> PathBuf {
        let path = result_path(&bench_dir(), &self.name);
        std::fs::write(&path, self.to_json())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        let reads: f64 = self
            .cells
            .iter()
            .flat_map(|c| &c.metrics)
            .filter(|(k, _)| k == READ_METRIC)
            .map(|(_, v)| *v)
            .sum();
        println!(
            "[bench-json] {}: {} cells, {} total read IOs{} -> {}",
            self.name,
            self.cells.len(),
            reads as u64,
            if self.smoke { " (smoke)" } else { "" },
            path.display()
        );
        path
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

// ---------------------------------------------------------------------------
// A JSON subset parser — enough for the files this module writes.
// ---------------------------------------------------------------------------

/// Parsed JSON value (objects keep key order via `BTreeMap` — order is
/// irrelevant to the gate).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parse a JSON document (objects, arrays, strings, numbers, booleans,
/// null; `\uXXXX` escapes limited to the BMP).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at offset {}", ch as char, pos))
    }
}

/// Deepest container nesting `parse_value` will follow before returning a
/// typed error. The parser recurses per level, so an unbounded depth (a
/// corrupted or adversarial baseline file like `"[[[[…"`) would blow the
/// stack inside `bench_gate` instead of failing cleanly; real
/// `BENCH_*.json` files nest 4 levels deep.
pub const MAX_JSON_DEPTH: usize = 128;

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_JSON_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_JSON_DEPTH} levels at offset {pos} (corrupt input?)"
        ));
    }
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut m = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(m));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                m.insert(key, parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(m));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut v = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(v));
            }
            loop {
                v.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(v));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad number at offset {start}"))
        }
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        *pos += 4;
                        out.push(char::from_u32(code).ok_or("surrogate \\u escape")?);
                    }
                    other => return Err(format!("bad escape \\{}", other as char)),
                }
            }
            _ => {
                // Re-decode multi-byte UTF-8 starting at c.
                let start = *pos - 1;
                let mut end = *pos;
                while end < b.len() && (b[end] & 0xC0) == 0x80 {
                    end += 1;
                }
                let chunk = std::str::from_utf8(&b[start..end]).map_err(|e| e.to_string())?;
                let ch = chunk.chars().next().ok_or("empty chunk")?;
                out.push(ch);
                *pos = start + ch.len_utf8();
            }
        }
    }
    Err("unterminated string".to_string())
}

// ---------------------------------------------------------------------------
// The regression gate.
// ---------------------------------------------------------------------------

/// `cell id -> metric value`, extracted from a result file.
type ReadMap = BTreeMap<String, f64>;

/// One bench's extracted smoke cells: the gated read IOs plus the
/// recorded (default-ungated) wall-clock values.
struct ResultCells {
    reads: ReadMap,
    walls: ReadMap,
}

fn read_result(dir: &Path, bench: &str) -> Result<ResultCells, String> {
    let path = result_path(dir, bench);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e} (run the smoke benches first)", path.display()))?;
    let json = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if json.get("smoke").and_then(|s| match s {
        Json::Bool(b) => Some(*b),
        _ => None,
    }) != Some(true)
    {
        return Err(format!(
            "{}: not a smoke-mode result; the gate only compares smoke runs",
            path.display()
        ));
    }
    let mut out = ResultCells { reads: ReadMap::new(), walls: ReadMap::new() };
    for cell in json.get("cells").and_then(Json::as_arr).unwrap_or(&[]) {
        let id = cell.get("id").and_then(Json::as_str).ok_or("cell without id")?;
        if let Some(reads) = cell.get(READ_METRIC).and_then(Json::as_f64) {
            out.reads.insert(id.to_string(), reads);
        }
        if let Some(wall) = cell.get(WALL_METRIC).and_then(Json::as_f64) {
            out.walls.insert(id.to_string(), wall);
        }
    }
    if out.reads.is_empty() {
        return Err(format!("{}: no {READ_METRIC} cells", path.display()));
    }
    Ok(out)
}

/// Compare every gated bench's current smoke results against the committed
/// baseline. `tolerance` is fractional (0.02 = 2%). Any read-IO cell off
/// baseline by more than the tolerance fails — regressions because they are
/// regressions, improvements because a stale-high baseline would mask the
/// next regression (the fix for either is `./ci.sh --update-baseline`).
///
/// `wall_tolerance` opts in to gating the recorded [`WALL_METRIC`] cells
/// too (`bench_gate check --gate-wall`): only *regressions* beyond the
/// (deliberately wide) tolerance fail, only for cells present in both the
/// baseline's `"wall"` mirror and the current run — wall-clock is noisy,
/// so an unexpectedly fast run is never an error. `None` leaves wall
/// recorded but ungated (the CI default).
///
/// Returns a printable summary, which names every read-IO cell that
/// differs from its baseline at all, or a printable failure report.
pub fn check_baseline(
    dir: &Path,
    tolerance: f64,
    wall_tolerance: Option<f64>,
) -> Result<String, String> {
    let baseline_path = dir.join(BASELINE_FILE);
    let text = std::fs::read_to_string(&baseline_path).map_err(|e| {
        format!("{}: {e} (create it with ./ci.sh --update-baseline)", baseline_path.display())
    })?;
    let baseline = parse_json(&text).map_err(|e| format!("{}: {e}", baseline_path.display()))?;
    let benches = match baseline.get("benches") {
        Some(Json::Obj(m)) => m,
        _ => return Err(format!("{}: missing \"benches\" object", baseline_path.display())),
    };
    let mut failures = Vec::new();
    let mut summary = Vec::new();
    let mut moved = Vec::new();
    for bench in GATED_BENCHES {
        let base = match benches.get(bench) {
            Some(Json::Obj(m)) => m,
            _ => {
                failures.push(format!(
                    "{bench}: missing from the baseline (refresh with ./ci.sh --update-baseline)"
                ));
                continue;
            }
        };
        let current = match read_result(dir, bench) {
            Ok(c) => c,
            Err(e) => {
                failures.push(e);
                continue;
            }
        };
        let mut regressions = 0usize;
        let mut improvements = 0usize;
        for (id, want) in base {
            let want = want.as_f64().unwrap_or(f64::NAN);
            match current.reads.get(id) {
                Some(&got) if got <= want * (1.0 + tolerance) => {
                    if got != want {
                        moved.push(format!("  {bench}/{id}: {want} → {got}"));
                    }
                    // An improvement beyond tolerance also fails: left
                    // unrefreshed, the stale-high baseline would let a
                    // later regression ride back up to it unnoticed.
                    if got < want * (1.0 - tolerance) {
                        improvements += 1;
                        failures.push(format!(
                            "{bench}/{id}: {got} read IOs vs baseline {want} \
                             ({:.1}% better than the {:.0}% tolerance) — lock in \
                             the win with ./ci.sh --update-baseline",
                            100.0 * (1.0 - got / want),
                            100.0 * tolerance
                        ));
                    }
                }
                Some(&got) => {
                    regressions += 1;
                    failures.push(format!(
                        "{bench}/{id}: {got} read IOs vs baseline {want} \
                         (+{:.1}% > {:.0}% tolerance)",
                        100.0 * (got / want - 1.0),
                        100.0 * tolerance
                    ));
                }
                None => failures.push(format!("{bench}/{id}: cell vanished from the smoke run")),
            }
        }
        for id in current.reads.keys() {
            if !base.contains_key(id) {
                failures.push(format!(
                    "{bench}/{id}: new cell not in the baseline \
                     (refresh with ./ci.sh --update-baseline)"
                ));
            }
        }
        // The opt-in wall gate: regressions only, cells present on both
        // sides only — see the function docs.
        let mut wall_regressions = 0usize;
        if let Some(wt) = wall_tolerance {
            let wall_base = baseline.get("wall").and_then(|w| w.get(bench));
            if let Some(Json::Obj(wall_base)) = wall_base {
                for (id, want) in wall_base {
                    let want = want.as_f64().unwrap_or(f64::NAN);
                    if let Some(&got) = current.walls.get(id) {
                        if got > want * (1.0 + wt) {
                            wall_regressions += 1;
                            failures.push(format!(
                                "{bench}/{id}: {got} ns wall vs baseline {want} \
                                 (+{:.1}% > {:.0}% wall tolerance)",
                                100.0 * (got / want - 1.0),
                                100.0 * wt
                            ));
                        }
                    }
                }
            } else if !current.walls.is_empty() {
                failures.push(format!(
                    "{bench}: wall cells present but no \"wall\" baseline \
                     (refresh with ./ci.sh --update-baseline)"
                ));
            }
        }
        summary.push(format!(
            "{bench}: {} cells vs baseline, {regressions} regressions, \
             {improvements} improved beyond tolerance{}",
            base.len(),
            if wall_tolerance.is_some() {
                format!(", {wall_regressions} wall regressions")
            } else {
                String::new()
            }
        ));
    }
    if !moved.is_empty() {
        summary.push("read-IO cells off baseline (baseline → current):".to_string());
        summary.append(&mut moved);
    }
    if failures.is_empty() {
        Ok(format!("[bench-gate] PASS\n{}", summary.join("\n")))
    } else {
        Err(format!("[bench-gate] FAIL\n{}", failures.join("\n")))
    }
}

/// Regenerate the baseline from the current smoke results: the gated
/// read-IO cells under `"benches"` plus a `"wall"` mirror of the recorded
/// wall-clock cells (ungated unless `--gate-wall`).
pub fn update_baseline(dir: &Path) -> Result<String, String> {
    let results: Vec<(&str, ResultCells)> = GATED_BENCHES
        .iter()
        .map(|b| read_result(dir, b).map(|c| (*b, c)))
        .collect::<Result<_, _>>()?;
    let mut s = String::from("{\n");
    s.push_str(
        "  \"note\": \"read-IO baseline for the smoke benches; the wall mirror is \
         not gated by default (noisy on CI; opt in with bench_gate check --gate-wall). \
         Refresh with ./ci.sh --update-baseline\",\n",
    );
    let reads: Vec<(&str, &ReadMap)> = results.iter().map(|(b, c)| (*b, &c.reads)).collect();
    let walls: Vec<(&str, &ReadMap)> =
        results.iter().filter(|(_, c)| !c.walls.is_empty()).map(|(b, c)| (*b, &c.walls)).collect();
    write_section(&mut s, "benches", &reads);
    s.push_str(",\n");
    write_section(&mut s, "wall", &walls);
    s.push_str("\n}\n");
    let path = dir.join(BASELINE_FILE);
    std::fs::write(&path, s).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(format!("[bench-gate] baseline refreshed -> {}", path.display()))
}

/// Write one `"name": {bench: {cell: value, …}, …}` baseline section
/// (no trailing newline or comma — the caller joins sections).
fn write_section(s: &mut String, name: &str, benches: &[(&str, &ReadMap)]) {
    let _ = write!(s, "  {}: {{", json_str(name));
    for (i, (bench, cells)) in benches.iter().enumerate() {
        let _ = write!(s, "{}\n    {}: {{", if i > 0 { "," } else { "" }, json_str(bench));
        for (j, (id, v)) in cells.iter().enumerate() {
            let _ = write!(
                s,
                "{}\n      {}: {}",
                if j > 0 { "," } else { "" },
                json_str(id),
                json_num(*v)
            );
        }
        let _ = write!(s, "\n    }}");
    }
    s.push_str("\n  }");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrips_through_the_parser() {
        let mut rep = BenchReport::new("exp_test", true);
        rep.cell("a/b").metric(READ_METRIC, 42u32).metric("wall_s", 0.125);
        rep.cell("c \"quoted\"").metric(READ_METRIC, 7u32);
        let json = parse_json(&rep.to_json()).unwrap();
        assert_eq!(json.get("bench").and_then(Json::as_str), Some("exp_test"));
        assert_eq!(json.get("smoke"), Some(&Json::Bool(true)));
        let cells = json.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].get("id").and_then(Json::as_str), Some("a/b"));
        assert_eq!(cells[0].get(READ_METRIC).and_then(Json::as_f64), Some(42.0));
        assert_eq!(cells[0].get("wall_s").and_then(Json::as_f64), Some(0.125));
        assert_eq!(cells[1].get("id").and_then(Json::as_str), Some("c \"quoted\""));
    }

    #[test]
    fn parser_handles_the_grammar() {
        let v = parse_json(r#"{"a": [1, -2.5, 3e2], "b": {"c": null, "d": false}, "e": "x\ny"}"#)
            .unwrap();
        assert_eq!(v.get("a").and_then(Json::as_arr).unwrap()[2], Json::Num(300.0));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
        assert_eq!(v.get("e").and_then(Json::as_str), Some("x\ny"));
        assert!(parse_json("{").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json(r#"{"k": }"#).is_err());
        assert_eq!(parse_json(r#""héllo A""#).unwrap(), Json::Str("héllo A".to_string()));
    }

    #[test]
    fn parser_caps_nesting_depth_instead_of_blowing_the_stack() {
        // Regression: the parser recurses per nesting level; a corrupted
        // baseline like "[[[[…" used to overflow the stack inside
        // bench_gate instead of returning the typed Err it promises.
        let deep = "[".repeat(4096);
        let err = parse_json(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let deep_objs = "{\"k\":".repeat(4096);
        let err = parse_json(&deep_objs).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");

        // At the cap exactly: still parses (the cap is generous; real
        // BENCH files nest 4 levels).
        let ok = format!("{}0{}", "[".repeat(MAX_JSON_DEPTH), "]".repeat(MAX_JSON_DEPTH));
        assert!(parse_json(&ok).is_ok());
        let too_deep =
            format!("{}0{}", "[".repeat(MAX_JSON_DEPTH + 1), "]".repeat(MAX_JSON_DEPTH + 1));
        assert!(parse_json(&too_deep).is_err());
    }

    fn write_result(dir: &Path, bench: &str, cells: &[(&str, f64)], smoke: bool) {
        write_result_wall(dir, bench, cells, smoke, None);
    }

    fn write_result_wall(
        dir: &Path,
        bench: &str,
        cells: &[(&str, f64)],
        smoke: bool,
        wall_ns: Option<f64>,
    ) {
        let mut rep = BenchReport::new(bench, smoke);
        for (id, reads) in cells {
            let cell = rep.cell(*id).metric(READ_METRIC, *reads);
            if let Some(ns) = wall_ns {
                cell.report_wall(std::time::Duration::from_nanos(ns as u64));
            }
        }
        std::fs::write(result_path(dir, bench), rep.to_json()).unwrap();
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let dir = std::env::temp_dir().join(format!("lcrs-gate-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for bench in GATED_BENCHES {
            write_result(&dir, bench, &[("cell/a", 100.0), ("cell/b", 50.0)], true);
        }
        update_baseline(&dir).unwrap();
        let pass = check_baseline(&dir, 0.02, None).unwrap();
        assert!(!pass.contains("→"), "identical cells are not named: {pass}");

        // +1% on one cell: within the 2% tolerance, and named in the
        // summary; the identical cell is not.
        write_result(&dir, "exp_batched", &[("cell/a", 101.0), ("cell/b", 50.0)], true);
        let pass = check_baseline(&dir, 0.02, None).unwrap();
        assert!(pass.contains("exp_batched/cell/a: 100 → 101"), "{pass}");
        assert!(!pass.contains("cell/b"), "{pass}");

        // +5%: gate fails and names the offender.
        write_result(&dir, "exp_batched", &[("cell/a", 105.0), ("cell/b", 50.0)], true);
        let err = check_baseline(&dir, 0.02, None).unwrap_err();
        assert!(err.contains("exp_batched/cell/a"), "{err}");

        // -20%: an improvement beyond tolerance fails too — the baseline
        // must be refreshed so later regressions can't hide below it.
        write_result(&dir, "exp_batched", &[("cell/a", 80.0), ("cell/b", 50.0)], true);
        let err = check_baseline(&dir, 0.02, None).unwrap_err();
        assert!(err.contains("update-baseline"), "{err}");

        // A vanished cell fails; a new unbaselined cell fails.
        write_result(&dir, "exp_batched", &[("cell/a", 100.0)], true);
        assert!(check_baseline(&dir, 0.02, None).unwrap_err().contains("vanished"));
        write_result(
            &dir,
            "exp_batched",
            &[("cell/a", 100.0), ("cell/b", 50.0), ("cell/new", 1.0)],
            true,
        );
        assert!(check_baseline(&dir, 0.02, None).unwrap_err().contains("cell/new"));

        // Non-smoke results are rejected outright.
        write_result(&dir, "exp_batched", &[("cell/a", 100.0), ("cell/b", 50.0)], false);
        assert!(check_baseline(&dir, 0.02, None).unwrap_err().contains("smoke"));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wall_cells_are_recorded_but_gated_only_on_request() {
        let dir = std::env::temp_dir().join(format!("lcrs-wall-gate-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for bench in GATED_BENCHES {
            write_result_wall(&dir, bench, &[("cell/a", 100.0)], true, Some(1_000_000.0));
        }
        update_baseline(&dir).unwrap();
        let baseline = std::fs::read_to_string(dir.join(BASELINE_FILE)).unwrap();
        let parsed = parse_json(&baseline).unwrap();
        assert_eq!(
            parsed.get("wall").and_then(|w| w.get("exp_reopen")).and_then(|b| b.get("cell/a")),
            Some(&Json::Num(1_000_000.0)),
            "the baseline must carry the wall mirror"
        );
        assert!(check_baseline(&dir, 0.02, Some(0.5)).is_ok());

        // A 3x wall blowup passes the default gate (wall ungated) but
        // fails the opt-in one, naming the cell.
        write_result_wall(&dir, "exp_reopen", &[("cell/a", 100.0)], true, Some(3_000_000.0));
        assert!(check_baseline(&dir, 0.02, None).is_ok(), "wall is ungated by default");
        let err = check_baseline(&dir, 0.02, Some(0.5)).unwrap_err();
        assert!(err.contains("exp_reopen/cell/a") && err.contains("wall"), "{err}");

        // A faster run never fails the wall gate (noise cuts both ways).
        write_result_wall(&dir, "exp_reopen", &[("cell/a", 100.0)], true, Some(100_000.0));
        assert!(check_baseline(&dir, 0.02, Some(0.5)).is_ok());

        // Wall cells without a wall baseline demand a refresh.
        let no_wall = baseline.replace("\"wall\"", "\"wall-renamed\"");
        std::fs::write(dir.join(BASELINE_FILE), no_wall).unwrap();
        let err = check_baseline(&dir, 0.02, Some(0.5)).unwrap_err();
        assert!(err.contains("update-baseline"), "{err}");

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
