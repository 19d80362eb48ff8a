//! Tests of the benchmark itself: its metric lists match `BENCHMARK.json`
//! and the README, tiny-scale runs of every workload check every reply and
//! fail none, and the same seed gives the same deterministic figures.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use perfbench::queries::Workload;
use perfbench::report::{END_TO_END, PER_LAYER};

/// A JSON value, enough to read `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Keys in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
}

fn parse(text: &str) -> Json {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos);
    skip_ws(bytes, &mut pos);
    assert_eq!(pos, bytes.len(), "trailing input in {text}");
    value
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) {
    skip_ws(b, pos);
    assert_eq!(b[*pos] as char, c as char, "at byte {pos}");
    *pos += 1;
}

fn parse_value(b: &[u8], pos: &mut usize) -> Json {
    skip_ws(b, pos);
    match b[*pos] {
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b[*pos] == b'}' {
                *pos += 1;
                return Json::Obj(fields);
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos);
                expect(b, pos, b':');
                fields.push((key, parse_value(b, pos)));
                skip_ws(b, pos);
                *pos += 1;
                if b[*pos - 1] == b'}' {
                    return Json::Obj(fields);
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b[*pos] == b']' {
                *pos += 1;
                return Json::Arr(items);
            }
            loop {
                items.push(parse_value(b, pos));
                skip_ws(b, pos);
                *pos += 1;
                if b[*pos - 1] == b']' {
                    return Json::Arr(items);
                }
            }
        }
        b'"' => Json::Str(parse_string(b, pos)),
        b't' => {
            *pos += 4;
            Json::Bool(true)
        }
        b'f' => {
            *pos += 5;
            Json::Bool(false)
        }
        b'n' => {
            *pos += 4;
            Json::Null
        }
        _ => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).unwrap();
            Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> String {
    assert_eq!(b[*pos], b'"');
    *pos += 1;
    let start = *pos;
    while b[*pos] != b'"' {
        assert_ne!(b[*pos], b'\\', "escapes are not used");
        *pos += 1;
    }
    *pos += 1;
    String::from_utf8(b[start..*pos - 1].to_vec()).unwrap()
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .to_path_buf()
}

fn benchmark_json() -> Json {
    parse(&std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap())
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let bench = benchmark_json();
    assert_eq!(
        bench.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        bench.get("paths"),
        &Json::Arr(vec![Json::Str("perfbench".into())])
    );
    let workloads: Vec<&str> = bench
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    for (section, list) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed: Vec<(&str, &str)> = bench
            .get(section)
            .arr()
            .iter()
            .map(|m| (m.get("name").str(), m.get("unit").str()))
            .collect();
        assert_eq!(listed, list, "{section}");
    }
    let setup = &bench.get("end_to_end").arr()[0];
    let largest = bench
        .get("end_to_end")
        .arr()
        .iter()
        .map(|m| m.get("bound").num())
        .fold(0.0, f64::max);
    assert_eq!(setup.get("name").str(), "setup_s");
    assert_eq!(
        setup.get("bound").num(),
        largest,
        "setup_s has the largest bound"
    );
}

#[test]
fn readme_explains_every_metric() {
    let readme =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md")).unwrap();
    for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            readme.contains(&format!("`{name}`")),
            "README.md does not describe {name}"
        );
    }
}

/// Run the benchmark at tiny scale; returns the parsed result line.
fn tiny_run(workload: Workload, seed: u64, trace: bool) -> Json {
    // Each run writes its spans under its own working directory.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "{}-{seed}-{trace}-{}",
        workload.name(),
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&dir)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .args(["--rows", "8000"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{} failed:\n{stderr}",
        workload.name()
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    let result = parse(stdout.lines().last().expect("a result line"));
    assert_eq!(result.keys(), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), &Json::Bool(true), "{stderr}");
    assert_eq!(result.get("failed").num(), 0.0, "{stderr}");
    assert!(result.get("attempted").num() >= 1.0);
    let expected = if trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let metrics = result.get("metrics");
    let printed: Vec<(&str, &str)> = metrics
        .keys()
        .into_iter()
        .map(|k| (k, metrics.get(k).get("unit").str()))
        .collect();
    assert_eq!(printed, expected);
    if trace {
        let spans = dir.join(format!(
            ".perfbench/spans-{}-seed{seed}.json",
            workload.name()
        ));
        let text = std::fs::read_to_string(spans).unwrap();
        assert!(text.contains("\"self_time\""));
    } else {
        assert_eq!(
            metrics.get("ok_share").get("value").num(),
            1.0,
            "failed_share is 0"
        );
        for (name, _) in END_TO_END {
            assert!(metrics.get(name).get("value").num() > 0.0, "{name} reads 0");
        }
    }
    result
}

fn values(result: &Json, names: &[&str]) -> BTreeMap<String, f64> {
    names
        .iter()
        .map(|n| {
            (
                n.to_string(),
                result.get("metrics").get(n).get("value").num(),
            )
        })
        .collect()
}

fn same_seed_same_figures(workload: Workload) {
    let e2e = ["fabric_bytes_per_query", "sim_ms_per_query"];
    let layer = [
        "check.model_states",
        "storage.pages_pruned_share",
        "exec.rows_out",
    ];
    let a = tiny_run(workload, 5, false);
    let b = tiny_run(workload, 5, false);
    assert_eq!(values(&a, &e2e), values(&b, &e2e));
    let a = tiny_run(workload, 5, true);
    let b = tiny_run(workload, 5, true);
    assert_eq!(values(&a, &layer), values(&b, &layer));
}

#[test]
fn point_runs_clean_and_is_deterministic() {
    same_seed_same_figures(Workload::Point);
}

#[test]
fn olap_runs_clean_and_is_deterministic() {
    same_seed_same_figures(Workload::Olap);
}

#[test]
fn serve_runs_clean_and_is_deterministic() {
    let result = tiny_run(Workload::Serve, 9, true);
    let metrics = result.get("metrics");
    for name in [
        "serve.run_sql_us",
        "serve.protocol_us",
        "serve.credits",
        "serve.result_frames",
    ] {
        assert!(
            metrics.get(name).get("value").num() > 0.0,
            "{name} reads 0 on serve"
        );
    }
    same_seed_same_figures(Workload::Serve);
}
