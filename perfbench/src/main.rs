//! The repository benchmark: one command, named workloads, exact
//! percentiles, outputs checked as it runs.
//!
//! ```text
//! perfbench --workload <scan-insert|url-bytes|point-churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`) runs print the end-to-end metrics. A traced run
//! (`--trace 1`) first runs the same workload untraced in a child process,
//! then runs it again with the program's tracing on and prints the per-layer
//! metrics, including traced-minus-untraced overhead for every end-to-end
//! metric. The last line of standard output is always one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod extras;
mod harness;
mod layers;
mod ledger;
mod model;
mod point_churn;
mod report;
mod scan_insert;
mod stats;
mod url_bytes;

use std::io::Write;
use std::process::{Command, ExitCode, Stdio};

use harness::Config;
use report::{parse_result_line, result_line, table, Outcome};

/// A workload's run.
type Workload = fn(&Config) -> Outcome;

/// The workloads, by name.
const WORKLOADS: &[(&str, Workload)] = &[
    ("scan-insert", scan_insert::run),
    ("url-bytes", url_bytes::run),
    ("point-churn", point_churn::run),
];

struct Args {
    workload: String,
    cfg: Config,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(n, _)| *n == workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        cfg: Config {
            seed: seed.unwrap_or(1),
            seconds,
            trace,
        },
    })
}

/// Runs the workload untraced in a child process and returns its metrics,
/// or why the child run failed.
fn untraced_child(args: &Args) -> (std::collections::HashMap<String, f64>, Option<String>) {
    match spawn_untraced(args) {
        Ok((metrics, ok, last)) => (
            metrics,
            (!ok).then(|| format!("the untraced run failed: {last}")),
        ),
        Err(e) => (
            Default::default(),
            Some(format!("cannot run the untraced child: {e}")),
        ),
    }
}

fn spawn_untraced(
    args: &Args,
) -> Result<(std::collections::HashMap<String, f64>, bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.cfg.seed.to_string()])
        .args(["--seconds", &args.cfg.seconds.to_string()])
        .args(["--trace", "0"])
        .env("PMA_TRACE", "0")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    let ok = output.status.success() && last.contains("\"correct\": true");
    Ok((parse_result_line(&last), ok, last))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let untraced = args.cfg.trace.then(|| untraced_child(&args));
    pma_common::obs::trace::set_enabled(args.cfg.trace);

    let run = WORKLOADS
        .iter()
        .find(|(n, _)| *n == args.workload)
        .unwrap()
        .1;
    let mut out = run(&args.cfg);
    if let Some((_, Some(failure))) = &untraced {
        out.fail_run(failure.clone());
    }

    if let Some((untraced, _)) = &untraced {
        for m in out.e2e.clone() {
            let base = untraced.get(&m.name).copied().unwrap_or(f64::NAN);
            out.layer(
                &format!("{}{}", layers::OVERHEAD_PREFIX, m.name),
                m.value - base,
                m.unit,
            );
        }
    }
    let shown = if args.cfg.trace {
        &out.layers
    } else {
        &out.e2e
    };
    let mut text = format!(
        "perfbench {} seed={} seconds={} trace={}\n",
        args.workload, args.cfg.seed, args.cfg.seconds, args.cfg.trace as u8
    );
    if args.cfg.trace {
        text.push_str(&table("end-to-end (traced run)", &out.e2e, &|_| None));
    }
    let title = if args.cfg.trace {
        "per-layer"
    } else {
        "end-to-end"
    };
    text.push_str(&table(title, shown, &|name| {
        if args.cfg.trace {
            layers::moves(name)
        } else {
            None
        }
    }));
    for note in &out.notes {
        text.push_str(&format!("note: {note}\n"));
    }
    for f in &out.run_failures {
        text.push_str(&format!("RUN FAILED: {f}\n"));
    }
    text.push_str(&result_line(
        out.correct(),
        out.attempted,
        out.failed,
        shown,
    ));
    text.push('\n');
    let mut stdout = std::io::stdout().lock();
    let _ = stdout.write_all(text.as_bytes());
    let _ = stdout.flush();
    // Exit here rather than unwinding: a helper left behind by a missed
    // deadline (a flush or drop that never returned) ends with the process.
    std::process::exit(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv("--workload url-bytes --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(a.workload, "url-bytes");
        assert_eq!((a.cfg.seed, a.cfg.seconds, a.cfg.trace), (7, 3, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload scan-insert --trace 2")).is_err());
        assert!(parse_args(&argv("--workload scan-insert --seed x")).is_err());
        assert!(parse_args(&argv("--workload scan-insert --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload")).is_err());
    }
}
