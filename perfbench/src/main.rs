//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Progress and the per-program tables go to standard error.

use bigfoot_perfbench::driver::run_child_pass;
use bigfoot_perfbench::{run, Config, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1 --work-dir DIR",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<(Config, Option<u64>), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = None;
    let mut child_pass = None;
    let mut flip_input = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} wants a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                })
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            // Internal: run one pass in this process (see `driver::run`).
            "--child-pass" => {
                child_pass = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--child-pass: {e}"))?,
                )
            }
            // Internal: the self-tests' deliberately wrong verdicts.
            "--flip-input" => {
                flip_input = Some(
                    value
                        .parse::<usize>()
                        .map_err(|e| format!("--flip-input: {e}"))?,
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload: String = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds wants a positive number".into());
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let mut cfg = Config::new(
        &workload,
        seed.ok_or("missing --seed")?,
        seconds,
        trace.ok_or("missing --trace")?,
        work_dir.ok_or("missing --work-dir")?,
        exe,
    );
    cfg.flip_input = flip_input;
    Ok((cfg, child_pass))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, child_pass) = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = match child_pass {
        Some(pass) => run_child_pass(&cfg, pass),
        None => run(&cfg).map(|r| r.to_json_line()),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
