//! `stackbench` — the repo's one benchmark. One command builds a seeded
//! corpus, serves it in this process, drives it with its own verified
//! load generator, and prints every metric as `name value unit`; with
//! `--trace` a traced pass adds the per-layer table. The last line of
//! standard output is the driver's JSON result. See `README.md`.

mod corpus;
mod deploy;
mod layers;
mod load;
mod manifest;
mod report;
mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: stackbench (--workload <name> | --all) [--seed <u64>] \
[--seconds <s>] [--trace [0|1]] [--quick] [--out <dir>]
       stackbench --emit-manifest   print BENCHMARK.json
       stackbench --bounds          print `name unit better bound` per end-to-end metric";

struct Args {
    workloads: Vec<&'static workload::Plan>,
    options: workload::Options,
}

enum Command {
    Run(Args),
    EmitManifest,
    Bounds,
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut workloads = Vec::new();
    let mut options = workload::Options {
        seed: 42,
        seconds: f64::from(manifest::RUN_SECONDS),
        trace: false,
        quick: false,
        out: PathBuf::from(manifest::PATH).join("out"),
    };
    let mut seconds_given = false;
    let mut rest = args.iter().peekable();
    while let Some(flag) = rest.next() {
        let mut value = |name: &str| {
            rest.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--emit-manifest" => return Ok(Command::EmitManifest),
            "--bounds" => return Ok(Command::Bounds),
            "--workload" => {
                let name = value("--workload")?;
                workloads.push(
                    workload::plan(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--all" => workloads = workload::PLANS.iter().collect(),
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                options.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--out" => options.out = PathBuf::from(value("--out")?),
            "--quick" => options.quick = true,
            // Bare `--trace` or the driver's `--trace 0|1`.
            "--trace" => {
                options.trace = match rest.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        rest.next();
                        false
                    }
                    Some("1") => {
                        rest.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if workloads.is_empty() {
        return Err("no workload named".to_string());
    }
    if options.quick && !seconds_given {
        options.seconds = 0.9;
    }
    if !(options.seconds > 0.0 && options.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(Command::Run(Args { workloads, options }))
}

/// Runs one workload, prints its lines and files, and returns the
/// driver's result line.
fn run_one(plan: &workload::Plan, options: &workload::Options) -> Result<String, String> {
    let report = workload::run(plan, options)?;
    print!("{}", report.lines());
    println!("attempted {} count", report.attempted);
    println!("failed {} count", report.failed);
    let path = options.out.join(format!("{}.json", plan.name));
    std::fs::write(&path, report.file_json())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    report.result_line(options.trace)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(Command::EmitManifest) => {
            print!("{}", manifest::render());
            return ExitCode::SUCCESS;
        }
        Ok(Command::Bounds) => {
            for m in &manifest::END_TO_END {
                let bound = m.bound.expect("end-to-end metrics carry a bound");
                println!("{} {} {} {bound}", m.name, m.unit, m.better.as_str());
            }
            return ExitCode::SUCCESS;
        }
        Ok(Command::Run(args)) => args,
        Err(message) => {
            eprintln!("stackbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for plan in &args.workloads {
        println!("workload {}", plan.name);
        match run_one(plan, &args.options) {
            // The result line is the last line of a workload's output.
            Ok(line) => println!("{line}"),
            Err(message) => {
                eprintln!("stackbench: {}: {message}", plan.name);
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = strings(&[
            "--workload",
            "mixed-rw",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ]);
        let Ok(Command::Run(args)) = parse(&args) else {
            panic!("the driver's arguments must parse");
        };
        assert_eq!(args.workloads[0].name, "mixed-rw");
        assert_eq!(args.options.seed, 7);
        assert!(!args.options.trace);
        let Ok(Command::Run(args)) = parse(&strings(&["--all", "--trace", "--quick"])) else {
            panic!("the documented arguments must parse");
        };
        assert_eq!(args.workloads.len(), 4);
        assert!(args.options.trace && args.options.quick);
        assert_eq!(args.options.seconds, 0.9);
        assert!(parse(&strings(&["--workload", "nope"])).is_err());
        assert!(parse(&strings(&["--seed", "1"])).is_err());
    }

    /// The declared workloads are the planned ones, in order.
    #[test]
    fn manifest_and_plans_name_the_same_workloads() {
        let declared: Vec<&str> = manifest::WORKLOADS.iter().map(|w| w.name).collect();
        let planned: Vec<&str> = workload::PLANS.iter().map(|p| p.name).collect();
        assert_eq!(declared, planned);
    }

    /// A `--quick --trace` run of all four workloads (corpus / 50, 0.9 s
    /// of timed phases): every declared metric comes out exactly once,
    /// finite and unit-tagged, and no operation fails.
    #[test]
    fn quick_traced_run_emits_every_declared_metric_once() {
        let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        let options = workload::Options {
            seed: 5,
            seconds: 0.9,
            trace: true,
            quick: true,
            out: out.clone(),
        };
        for plan in &workload::PLANS {
            let report = workload::run(plan, &options).expect("the quick run completes");
            assert_eq!(report.failed, 0, "{}: failed operations", plan.name);
            assert!(report.attempted > 0);
            let lines = report.lines();
            for metric in manifest::END_TO_END
                .iter()
                .chain(manifest::PER_LAYER.iter())
            {
                let emitted: Vec<&str> = lines
                    .lines()
                    .filter(|l| l.split(' ').next() == Some(metric.name))
                    .collect();
                assert_eq!(emitted.len(), 1, "{}: {}", plan.name, metric.name);
                let fields: Vec<&str> = emitted[0].split(' ').collect();
                assert_eq!(fields.len(), 3, "{}", emitted[0]);
                let value: f64 = fields[1].parse().expect("a number");
                assert!(value.is_finite(), "{}", emitted[0]);
                assert_eq!(fields[2], metric.unit);
            }
            assert_eq!(
                lines.lines().count(),
                manifest::END_TO_END.len() + manifest::PER_LAYER.len(),
                "{}: an undeclared metric was emitted",
                plan.name
            );
            for trace in [false, true] {
                let line = report
                    .result_line(trace)
                    .expect("every declared metric set");
                assert!(line.starts_with("{\"correct\": true, "), "{line}");
            }
            for metric in &manifest::END_TO_END {
                assert!(
                    report.get(metric.name).expect("set") > 0.0,
                    "{}",
                    metric.name
                );
            }
            assert!(out.join(format!("{}.trace.json", plan.name)).exists());
        }
        std::fs::remove_dir_all(&out).expect("the test's own directory");
    }
}
