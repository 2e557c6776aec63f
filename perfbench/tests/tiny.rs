//! Runs every workload at tiny size, untraced and traced, and checks that
//! each metric `BENCHMARK.json` names is printed with its unit and that
//! every correctness check held.

use profserve::{parse_json, Json};
use std::path::Path;
use std::process::Command;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
}

fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
    obj.get(key)
        .unwrap_or_else(|| panic!("missing key {key} in {obj:?}"))
}

fn text(v: &Json) -> &str {
    v.as_str()
        .unwrap_or_else(|| panic!("expected a string, got {v:?}"))
}

/// (name, unit) of every metric of one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let spec =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("read BENCHMARK.json");
    let spec = parse_json(&spec).expect("BENCHMARK.json is JSON");
    field(&spec, section)
        .as_arr()
        .expect("a metric list")
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_string(),
                text(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    let result = parse_json(last).expect("the last line is JSON");
    assert_eq!(field(&result, "correct").as_bool(), Some(true), "{stdout}");
    assert!(field(&result, "attempted").as_u64() >= Some(1));
    let metrics = field(&result, "metrics");
    let section = if trace { "per_layer" } else { "end_to_end" };
    let names = declared(section);
    for (name, unit) in &names {
        let m = field(metrics, name);
        assert_eq!(text(field(m, "unit")), unit, "{workload}: unit of {name}");
        let value = field(m, "value").as_f64();
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} is {value:?}"
        );
        assert!(
            stdout.contains(&format!("  {name} ")),
            "{workload}: {name} is not in the report"
        );
    }
    let Json::Obj(printed) = metrics else {
        panic!("{workload}: metrics is not an object: {metrics:?}")
    };
    assert_eq!(
        printed.len(),
        names.len(),
        "{workload}: metrics beyond the declared {section} set"
    );
}

#[test]
fn bots_fine_tiny() {
    run("bots_fine", false);
    run("bots_fine", true);
}

#[test]
fn bots_cutoff_tiny() {
    run("bots_cutoff", false);
    run("bots_cutoff", true);
}

#[test]
fn profile_service_tiny() {
    run("profile_service", false);
    run("profile_service", true);
}
