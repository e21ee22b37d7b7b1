//! `swiftdir-serve`: the durable campaign server and its client modes.
//!
//! ```text
//! swiftdir-serve run    --dir D [--drain] [--poll-ms N]
//! swiftdir-serve submit --dir D --fuzz [--seeds N] [--protocol NAME]
//!                       [--ops N] [--jitter N] [--threads N]
//! swiftdir-serve submit --dir D --explore [--streams N] [--cores N]
//!                       [--blocks N] [--ops N] [--window N] [--depth N]
//!                       [--protocol NAME] [--stream FILE] [--threads N]
//! swiftdir-serve status --dir D
//! swiftdir-serve cancel --dir D ID
//! ```
//!
//! * `run` — serve the job directory: resume any job interrupted by a
//!   kill, then drain the queue (`--drain` exits when empty; otherwise
//!   the server polls forever). Every completed work unit is journaled
//!   before it is acknowledged, so `kill -9` at any instant loses only
//!   in-flight units and a restart finishes the campaign with a final
//!   digest set bit-identical to an uninterrupted run.
//! * `submit` — enqueue a fuzz or explore job and print its id.
//! * `status` — one line per job the spool knows about.
//! * `cancel` — trip a job's cancel flag (unit-granular, cooperative).
//!
//! Per-job artifacts live under `D/jobs/<id>/`: `checkpoint.ckpt`
//! (`swiftdir.ckpt.v1`), `progress.jsonl` (`swiftdir.progress.v1` —
//! follow live with `swiftdir-report --follow`), and `result.json`
//! (`swiftdir.result.v1`).

use std::process::ExitCode;
use std::time::Duration;

use swiftdir_core::explore::check_max_depth;
use swiftdir_serve::{parse_protocol, ExploreJob, FuzzJob, JobKind, JobSpec, JobState, Server};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("swiftdir-serve: expected a command (run|submit|status|cancel)");
        return ExitCode::FAILURE;
    };
    match run_command(command, &args[1..]) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("swiftdir-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_command(command: &str, rest: &[String]) -> Result<ExitCode, String> {
    match command {
        "run" => cmd_run(rest),
        "submit" => cmd_submit(rest),
        "status" => cmd_status(rest),
        "cancel" => cmd_cancel(rest),
        other => Err(format!(
            "unknown command {other:?} (run|submit|status|cancel)"
        )),
    }
}

/// Pulls `--dir` out of the flag list; every command requires it.
fn take_dir(rest: &[String]) -> Result<(Server, Vec<String>), String> {
    let mut dir = None;
    let mut left = Vec::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        if flag == "--dir" {
            dir = Some(it.next().ok_or("--dir expects a value")?.clone());
        } else {
            left.push(flag.clone());
        }
    }
    let dir = dir.ok_or("--dir DIR is required")?;
    Ok((Server::new(dir), left))
}

fn cmd_run(rest: &[String]) -> Result<ExitCode, String> {
    let (mut server, rest) = take_dir(rest)?;
    let mut drain = false;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--drain" => drain = true,
            "--poll-ms" => {
                let ms: u64 = it
                    .next()
                    .ok_or("--poll-ms expects a value")?
                    .parse()
                    .map_err(|e| format!("--poll-ms: {e}"))?;
                server.poll = Duration::from_millis(ms);
            }
            other => return Err(format!("unknown run flag {other:?}")),
        }
    }
    let summary = server.run(drain, None).map_err(|e| e.to_string())?;
    println!(
        "swiftdir-serve: {} jobs run, {} resumed",
        summary.jobs_run, summary.jobs_resumed
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_submit(rest: &[String]) -> Result<ExitCode, String> {
    let (server, rest) = take_dir(rest)?;
    let mut kind: Option<&str> = None;
    let mut threads = None;
    let mut fuzz = FuzzJob {
        seeds: 100,
        protocols: Vec::new(),
        ops: None,
        jitter: None,
    };
    let mut explore = ExploreJob::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{name} expects a value"))
        };
        let parse = |v: &str, name: &str| v.parse::<u64>().map_err(|e| format!("{name}: {e}"));
        match flag.as_str() {
            "--fuzz" => kind = Some("fuzz"),
            "--explore" => kind = Some("explore"),
            "--threads" => threads = Some(parse(value("--threads")?, "--threads")? as usize),
            "--seeds" => fuzz.seeds = parse(value("--seeds")?, "--seeds")?,
            "--jitter" => fuzz.jitter = Some(parse(value("--jitter")?, "--jitter")?),
            "--streams" => explore.streams = parse(value("--streams")?, "--streams")?,
            "--cores" => explore.cores = parse(value("--cores")?, "--cores")? as usize,
            "--blocks" => explore.blocks = parse(value("--blocks")?, "--blocks")? as usize,
            "--window" => explore.window = parse(value("--window")?, "--window")?,
            "--depth" => explore.max_depth = check_max_depth(parse(value("--depth")?, "--depth")?)?,
            "--ops" => {
                let ops = parse(value("--ops")?, "--ops")? as usize;
                fuzz.ops = Some(ops);
                explore.ops = ops;
            }
            "--protocol" => {
                let p = parse_protocol(value("--protocol")?)?;
                fuzz.protocols.push(p);
                explore.protocols.push(p);
            }
            "--stream" => {
                let path = value("--stream")?;
                explore.stream_text = Some(
                    std::fs::read_to_string(path).map_err(|e| format!("--stream {path}: {e}"))?,
                );
            }
            other => return Err(format!("unknown submit flag {other:?}")),
        }
    }
    let kind = match kind.ok_or("submit needs --fuzz or --explore")? {
        "fuzz" => JobKind::Fuzz(fuzz),
        _ => JobKind::Explore(explore),
    };
    let id = server
        .submit(&JobSpec {
            id: String::new(),
            threads,
            kind,
        })
        .map_err(|e| e.to_string())?;
    println!("{id}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_status(rest: &[String]) -> Result<ExitCode, String> {
    let (server, rest) = take_dir(rest)?;
    if let Some(flag) = rest.first() {
        return Err(format!("unknown status flag {flag:?}"));
    }
    let rows = server.status().map_err(|e| e.to_string())?;
    if rows.is_empty() {
        println!("swiftdir-serve: no jobs");
        return Ok(ExitCode::SUCCESS);
    }
    for row in rows {
        match row.state {
            JobState::Queued => println!("{}  queued", row.id),
            JobState::InFlight => {
                let progress = row
                    .progress
                    .map(|(done, total)| format!(" {done}/{total}"))
                    .unwrap_or_default();
                println!("{}  in-flight{progress}", row.id);
            }
            JobState::Done => {
                let r = row.result.expect("done state implies a result");
                println!(
                    "{}  done  ok={} cancelled={} units={} (fresh {}, resumed {}) \
                     failures={} digest_set={:#018x}",
                    row.id,
                    r.ok,
                    r.cancelled,
                    r.units,
                    r.fresh,
                    r.resumed,
                    r.failures,
                    r.digest_set
                );
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_cancel(rest: &[String]) -> Result<ExitCode, String> {
    let (server, rest) = take_dir(rest)?;
    let [id] = rest.as_slice() else {
        return Err("cancel expects exactly one job id".to_string());
    };
    if server.cancel(id).map_err(|e| e.to_string())? {
        println!("swiftdir-serve: cancel requested for {id}");
        Ok(ExitCode::SUCCESS)
    } else {
        Err(format!("no such job {id:?}"))
    }
}
