//! Command line of the layered benchmark.
//!
//! ```text
//! awsad-perfbench --workload fleet|gateway|cluster --seed N --seconds S --trace 0|1
//!                 [--size full|tiny] [--out DIR]
//! awsad-perfbench --list
//! ```
//!
//! Prints the run record, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and the metrics: end-to-end ones on
//! untraced runs, per-layer ones on traced runs. Exits non-zero when any
//! outcome differs from direct stepping or any call fails.
//!
//! With `--setup-probe` added, runs only one set-up window and prints
//! its set-up times; an untraced run starts such processes itself.

use std::path::PathBuf;
use std::process::ExitCode;

use awsad_perfbench::procstat::LOAD_THREAD;
use awsad_perfbench::report::catalogue;
use awsad_perfbench::{run, setup_probe, Options, RunOutput, Size, Workload, PROBE_TAG};

fn usage() -> &'static str {
    "usage: awsad-perfbench --workload fleet|gateway|cluster --seed N --seconds S --trace 0|1 \
     [--size full|tiny] [--out DIR]\n       awsad-perfbench --list"
}

/// What the command line asks for.
enum Mode {
    /// Print the metric catalogue.
    List,
    /// One benchmark run.
    Run(Options),
    /// One set-up window of a run (see [`setup_probe`]).
    Probe(Options),
}

fn parse(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::FULL;
    let mut out_dir = Some(PathBuf::from("perfbench/out"));
    let mut probe = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--list" => return Ok(Mode::List),
            "--setup-probe" => {
                probe = true;
                continue;
            }
            _ => {}
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::FULL,
                    "tiny" => Size::TINY,
                    _ => return Err("--size takes full or tiny".into()),
                }
            }
            "--out" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let opts = Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
        out_dir,
        corrupt: None,
        probe_exe: std::env::current_exe().ok(),
    };
    Ok(if probe {
        Mode::Probe(opts)
    } else {
        Mode::Run(opts)
    })
}

/// Runs one measurement on a named load thread.
fn measure(opts: Options) -> Result<RunOutput, String> {
    std::thread::Builder::new()
        .name(LOAD_THREAD.into())
        .spawn(move || run(&opts))
        .expect("spawn load thread")
        .join()
        .unwrap_or_else(|_| Err("load thread panicked".into()))
}

/// Prints the record and the result line and picks the exit code. A run
/// whose gate failed still prints its (correct: false) line; a correct
/// run whose metrics are incomplete prints none.
fn finish(out: &RunOutput, end_to_end: bool) -> ExitCode {
    print!("{}", out.record);
    let (attempted, failed) = (out.gate.attempted, out.gate.failed);
    let correct = out.correct();
    let line = out
        .values
        .result_line(end_to_end, correct, attempted, failed);
    if !correct {
        println!("{line}");
        eprintln!("correctness gate failed: {failed} of {attempted} requests");
        return ExitCode::from(1);
    }
    if let Err(e) = out.values.check(end_to_end) {
        eprintln!("incomplete metrics: {e}");
        return ExitCode::from(1);
    }
    println!("{line}");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse(&args) {
        Ok(Mode::List) => {
            print!("{}", catalogue());
            return ExitCode::SUCCESS;
        }
        Ok(Mode::Run(opts)) => {
            let end_to_end = !opts.trace;
            measure(opts).map(|out| finish(&out, end_to_end))
        }
        Ok(Mode::Probe(opts)) => setup_probe(&opts).map(|times| {
            let times: Vec<String> = times.iter().map(f64::to_string).collect();
            println!("{PROBE_TAG} {}", times.join(" "));
            ExitCode::SUCCESS
        }),
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark failed: {e}");
        ExitCode::from(1)
    })
}
