//! `skute-benchmark`: one workload (`--workload`, what the driver calls),
//! a full set of all of them in fresh child processes (no `--workload`),
//! or `compare A.json B.json`.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use skute_benchmark::catalog::{RUN_SECONDS, WORKLOADS};
use skute_benchmark::json::{self, Json};
use skute_benchmark::report::RunArgs;
use skute_benchmark::{catalog, compare, run_workload};

const USAGE: &str = "usage:
  skute-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
                  [--smoke] [--sets K] [--out DIR]
  skute-benchmark compare A.json B.json

With --workload: runs that workload once and prints its metrics; the last
line is the result object. Without: runs every workload in a fresh child
process (K sets, seeds N, N+1, ...; with --trace also the traced runs) and
writes DIR/results.json.";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    sets: u64,
    out_dir: PathBuf,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        sets: 1,
        // Beside the sources the binary was built from, whatever the
        // current directory: in a checkout that is `benchmark/out`.
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if catalog::workload(&name).is_none() {
                    return Err(format!("unknown workload {name:?}"));
                }
                cli.workload = Some(name);
            }
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--sets" => {
                cli.sets = value("a number")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?
            }
            "--out" => cli.out_dir = PathBuf::from(value("a directory")?),
            "--smoke" => cli.smoke = true,
            // `--trace 0|1` from the driver, bare `--trace` from a person.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// Points the LSM stores' temporary directories (they are created under
/// `std::env::temp_dir()`) into the output directory, so the benchmark
/// writes nothing outside its checkout. Called before any thread starts.
fn confine_temp_files(out_dir: &Path) -> std::io::Result<PathBuf> {
    let tmp = std::path::absolute(out_dir.join("tmp"))?;
    std::fs::create_dir_all(&tmp)?;
    std::env::set_var("TMPDIR", &tmp);
    Ok(tmp.join(format!("skute-lsm-{}", std::process::id())))
}

fn run_one(cli: &Cli, workload: &str) -> std::io::Result<bool> {
    let store_dirs = confine_temp_files(&cli.out_dir)?;
    let shrink = if cli.smoke { 50 } else { 1 };
    let args = RunArgs {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds / shrink as f64,
        trace: cli.trace,
        shrink,
        out_dir: cli.out_dir.clone(),
    };
    let outcome = run_workload(&args);
    // Stores clean up after themselves; this catches what a leaked
    // (deliberately crashed) store left behind.
    let _ = std::fs::remove_dir_all(store_dirs);
    let outcome = outcome?;
    outcome.print(cli.trace);
    Ok(outcome.correct())
}

/// One child run: echoes its output, returns its result object.
fn child(cli: &Cli, workload: &str, seed: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&cli.out_dir)
        .stdout(Stdio::piped());
    if cli.smoke {
        command.arg("--smoke");
    }
    let mut process = command.spawn().map_err(|e| e.to_string())?;
    let stdout = process.stdout.take().expect("stdout is piped");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| e.to_string())?;
        if !line.starts_with('{') {
            println!("  {line}");
        }
        last = line;
    }
    let status = process.wait().map_err(|e| e.to_string())?;
    let result = json::parse(&last)
        .map_err(|e| format!("{workload}: no result object ({e}); exit {status}"))?;
    Ok(result)
}

fn run_sets(cli: &Cli) -> Result<bool, String> {
    let mut runs = Vec::new();
    let mut all_correct = true;
    for seed in cli.seed..cli.seed + cli.sets {
        for workload in &WORKLOADS {
            for trace in [false, true] {
                if trace && !cli.trace {
                    continue;
                }
                println!(
                    "== {} seed {seed} {}",
                    workload.name,
                    if trace { "traced" } else { "end to end" }
                );
                let result = child(cli, workload.name, seed, trace)?;
                all_correct &= result.get("correct") == Some(&Json::Bool(true));
                let mut run = vec![
                    ("workload".to_string(), Json::Str(workload.name.into())),
                    ("seed".to_string(), Json::Num(seed as f64)),
                    ("trace".to_string(), Json::Num(f64::from(u8::from(trace)))),
                ];
                run.extend(result.as_obj().unwrap_or_default().iter().cloned());
                runs.push(Json::Obj(run));
            }
        }
    }
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let lines: Vec<String> = runs.iter().map(|r| format!("  {}", r.render())).collect();
    let document = format!(
        "{{\"host_cpus\": {cpus}, \"seconds\": {}, \"smoke\": {}, \"runs\": [\n{}\n]}}\n",
        cli.seconds,
        cli.smoke,
        lines.join(",\n")
    );
    let path = cli.out_dir.join("results.json");
    std::fs::create_dir_all(&cli.out_dir)
        .and_then(|()| std::fs::write(&path, document))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => match compare::run(a, b) {
                Ok(0) => ExitCode::SUCCESS,
                Ok(_) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let correct = match &cli.workload {
        Some(workload) => run_one(&cli, workload).map_err(|e| e.to_string()),
        None => run_sets(&cli),
    };
    match correct {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("skute-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
