//! End-to-end benchmark of the cxm serving stack.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <warm_hits|fresh_sources|catalog_drift> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Starts `cxm-server` with its defaults as a child process, drives it over
//! loopback with `cxm_server::Client`, checks every reply against a
//! computation made apart from the serving path, and prints the metrics as
//! the last line of standard output. `--trace 1` is the traced run: spans
//! around the client calls and around each layer call of an in-process
//! replica, written to `e2ebench/out/`, summarised as per-layer metrics.
//! See `e2ebench/README.md`.

mod idle;
mod inputs;
mod oracle;
mod process;
mod replica;
mod report;
mod stats;
mod trace;
mod wire;
mod workload;

use std::path::PathBuf;
use std::time::Instant;

use cxm_server::Json;

use crate::trace::Tracer;
use crate::workload::{Inputs, Workload};

const USAGE: &str = "usage: cxm-e2ebench --workload <warm_hits|fresh_sources|catalog_drift> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug)]
struct Options {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        if let Err(e) = process::run_server_child() {
            eprintln!("server: {e}");
            std::process::exit(1);
        }
        return;
    }
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let pollers = idle::IdlePollers::start();
    let outcome =
        if options.trace { traced(&options, &pollers) } else { untraced(&options, &pollers) };
    drop(pollers);
    match outcome {
        Ok((detail, result)) => {
            println!("{}", detail.to_text());
            println!("{}", result.to_text());
        }
        Err(e) => {
            eprintln!("{}: {e}", options.workload.name());
            std::process::exit(1);
        }
    }
}

/// Detail members every run prints besides the workload's own.
fn run_facts(pollers: &idle::IdlePollers) -> Vec<(String, Json)> {
    vec![("idle_pollers".to_string(), Json::Int(pollers.count() as i64))]
}

fn untraced(o: &Options, pollers: &idle::IdlePollers) -> Result<(Json, Json), String> {
    let inputs = Inputs::generate(o.workload, o.seed, o.seconds);
    let out = workload::run_wire(o.workload, &inputs, o.seconds, None)?;
    let metrics = report::end_to_end(&out);
    let correct = out.ledger.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    let detail = report::detail(o.workload.name(), o.seed, &out, run_facts(pollers));
    Ok((detail, report::result_line(correct, out.ledger.attempted, out.ledger.failed, &metrics)))
}

fn traced(o: &Options, pollers: &idle::IdlePollers) -> Result<(Json, Json), String> {
    let inputs = Inputs::generate(o.workload, o.seed, o.seconds);
    let epoch = Instant::now();
    let mut wire = workload::run_wire(o.workload, &inputs, o.seconds, Some(epoch))?;

    let (mut replica, writes) = replica::replay(o.workload, &inputs, epoch);
    let mut ledger = std::mem::take(&mut replica.ledger);
    let replica_spans = std::mem::replace(&mut replica.tracer, Tracer::new(epoch, 0)).into_spans();
    let metrics = report::per_layer(&wire, &replica, &replica_spans, &writes);
    let mut spans = wire.spans.clone();
    spans.extend(replica_spans.iter().cloned());
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
        "spans-{}-seed{}.jsonl",
        o.workload.name(),
        o.seed
    ));
    trace::write_spans(&path, &spans).map_err(|e| format!("writing {}: {e}", path.display()))?;

    let breakdown = report::breakdown(&wire, &replica_spans, &writes);
    let end_to_end = report::end_to_end(&wire);
    let mut extra = run_facts(pollers);
    extra.extend([
        ("spans_file".to_string(), Json::str(path.display().to_string())),
        ("spans".to_string(), Json::Int(spans.len() as i64)),
        ("breakdown".to_string(), breakdown),
        (
            "traced_end_to_end".to_string(),
            Json::Object(
                end_to_end.iter().map(|m| (m.name.to_string(), Json::Float(m.value))).collect(),
            ),
        ),
    ]);
    let detail = report::detail(o.workload.name(), o.seed, &wire, extra);
    ledger.merge(std::mem::take(&mut wire.ledger));
    let correct = ledger.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    Ok((detail, report::result_line(correct, ledger.attempted, ledger.failed, &metrics)))
}
