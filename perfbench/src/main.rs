//! The repository benchmark: Proto's shipped Desktop configuration under
//! three app-shaped storage workloads, measured end to end on the modeled
//! and the host clock, and layer by layer from a trace taken outside the
//! system.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload asset_load --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One run repeats the workload (fresh system, same seed) until
//! `--seconds` have passed, at least `MIN_REPEATS` times, and reports host
//! times as the median over repeats. `--trace 1` alternates untraced and
//! traced repeats, checks that tracing left every modeled number unchanged,
//! prints the per-layer metrics and writes the spans to
//! `.perfbench_out/`. The last line of standard output is one JSON object;
//! the exit code is non-zero if any call failed or any output was wrong.

mod asset_load;
mod gen;
mod harness;
mod measure;
mod metadata_churn;
mod report;
mod save_sync;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use harness::Recording;
use kernel::KResult;
use report::Metric;

/// Repeats per run, at least: host time needs a median.
const MIN_REPEATS: usize = 3;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    AssetLoad,
    SaveSync,
    MetadataChurn,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "asset_load" => Some(Workload::AssetLoad),
            "save_sync" => Some(Workload::SaveSync),
            "metadata_churn" => Some(Workload::MetadataChurn),
            _ => None,
        }
    }
}

/// A workload's generated inputs for one seed.
enum Spec {
    AssetLoad(asset_load::Spec),
    SaveSync(save_sync::Spec),
    MetadataChurn(metadata_churn::Spec),
}

impl Spec {
    fn new(w: Workload, seed: u64) -> Spec {
        match w {
            Workload::AssetLoad => Spec::AssetLoad(asset_load::spec(seed)),
            Workload::SaveSync => Spec::SaveSync(save_sync::spec(seed)),
            Workload::MetadataChurn => Spec::MetadataChurn(metadata_churn::spec(seed)),
        }
    }

    /// Boots a fresh system, runs the workload once and verifies it.
    fn run(&self, traced: bool) -> KResult<Recording> {
        let h = match self {
            Spec::AssetLoad(s) => asset_load::run(s, traced)?,
            Spec::SaveSync(s) => save_sync::run(s, traced)?,
            Spec::MetadataChurn(s) => metadata_churn::run(s, traced)?,
        };
        Ok(h.rec)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let name = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(&name).ok_or(format!(
            "unknown workload '{name}' (asset_load, save_sync, metadata_churn)"
        ))?,
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace: match num("--trace")? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace {t}: expected 0 or 1")),
        },
    })
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: system error: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs the benchmark; `Ok(false)` means it ran but found wrong output.
fn bench(args: &Args) -> KResult<bool> {
    let spec = Spec::new(args.workload, args.seed);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut plain: Vec<Recording> = Vec::new();
    let mut traced: Vec<Recording> = Vec::new();
    let mut rss = 0.0;
    while plain.len() < MIN_REPEATS || Instant::now() < deadline {
        plain.push(spec.run(false)?);
        if plain.len() == 1 {
            // One repeat's footprint: later repeats only add allocator
            // fragmentation, which would tie the figure to machine speed.
            rss = measure::peak_rss_mb();
        }
        if args.trace {
            traced.push(spec.run(true)?);
        }
    }

    let all = || plain.iter().chain(&traced);
    let attempted: usize = all().map(|r| r.ops.len()).sum();
    let failed: usize = all().map(|r| r.failures.len()).sum();
    for f in all().flat_map(|r| &r.failures).take(20) {
        println!("FAILED: {f}");
    }
    let mut correct = failed == 0;

    println!(
        "perfbench {:?} seed={} repeats={} traced={}",
        args.workload,
        args.seed,
        plain.len(),
        traced.len()
    );
    let e2e = report::end_to_end(&plain, rss);
    let lat: Vec<u64> = plain[0].ops.iter().map(|o| o.modeled_cycles()).collect();
    let beyond = lat.len() - (lat.len() as f64 * 0.99).ceil() as usize;
    println!(
        "samples: {} timed syscalls per repeat; p99 has {beyond} beyond it",
        lat.len()
    );
    print_metrics(&e2e);
    println!(
        "  {:<44} {:>16.6} s (unbounded, listed per layer: drifts with the host's load)",
        "host_s",
        report::host_s(&plain)
    );
    let us = |c: f64| c * 1e6 / plain[0].freq_hz as f64;
    println!(
        "  {:<44} {:>16.6} us (unbounded: the median call costs the same cycles for every seed)",
        "modeled_op_p50_us",
        us(measure::hd_percentile(&lat, 50.0)),
    );
    println!(
        "  nearest-rank p50 {:.3} us, p99 {:.3} us",
        us(measure::percentile(&lat, 50.0) as f64),
        us(measure::percentile(&lat, 99.0) as f64)
    );
    println!(
        "  {:<44} {:>16.6} ({failed} failed / {attempted} attempted)",
        "error_rate",
        failed as f64 / attempted.max(1) as f64
    );
    let line_rate = report::line_rate_ratio(&plain[0]);
    if line_rate > 1.0 {
        println!(
            "WARNING: the card moved {line_rate:.3}x its {:.1} MB/s DMA line rate in modeled time \
             (a model artefact, not a failed op)",
            report::dma_ceiling_mb_s(&plain[0])
        );
    }

    // Modeled numbers must repeat exactly: across repeats of the seed, and
    // with tracing on, which must not move the modeled clock.
    let reference = layer_modeled(&plain[0]);
    let mut drifted: Vec<String> = plain[1..]
        .iter()
        .chain(&traced)
        .flat_map(|r| report::drift(&reference, &layer_modeled(r)))
        .collect();
    drifted.sort();
    drifted.dedup();
    if !drifted.is_empty() {
        if args.workload == Workload::AssetLoad {
            // Four scheduled readers: wake order can follow hash-map order
            // in the kernel (ROADMAP item 1), so drift is listed, not failed.
            println!("drift (listed, not failed): {}", drifted.join(", "));
        } else {
            println!(
                "FAILED: modeled values differ between repeats: {}",
                drifted.join(", ")
            );
            correct = false;
        }
    }

    let metrics = if args.trace {
        let (layers, nested) = traced_layers(&plain, &traced);
        correct &= nested;
        write_trace(args, &traced[0]);
        layers
    } else {
        e2e
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    Ok(correct)
}

/// Per-layer metrics: the median over traced repeats of each value, with
/// the self-time check on every traced repeat. Returns `false` if a trace
/// was not well nested.
fn traced_layers(plain: &[Recording], traced: &[Recording]) -> (Vec<Metric>, bool) {
    let host_s = report::host_s(plain);
    let overhead = (report::host_s(traced) - host_s) / host_s * 100.0;
    let mut nested = true;
    let mut first = None;
    let per_repeat: Vec<Vec<Metric>> = traced
        .iter()
        .map(|t| {
            let selfs = report::self_times(t).unwrap_or_else(|e| {
                println!("FAILED: trace is not well nested: {e}");
                nested = false;
                report::SelfTimes::default()
            });
            first.get_or_insert(selfs);
            report::per_layer(t, &selfs, host_s, overhead)
        })
        .collect();
    let layers: Vec<Metric> = (0..per_repeat[0].len())
        .map(|i| Metric {
            value: measure::median(&per_repeat.iter().map(|r| r[i].value).collect::<Vec<_>>()),
            ..per_repeat[0][i].clone()
        })
        .collect();
    println!("per-layer (median of {} traced repeats):", traced.len());
    print_metrics(&layers);
    if let Some(s) = first {
        let ms = |ns: u64| ns as f64 / 1e6;
        println!(
            "self times of traced repeat 1: workload {:.3} + sched {:.3} + syscalls {:.3} = {:.3} ms; traced phase {:.3} ms",
            ms(s.workload),
            ms(s.sched),
            ms(s.syscalls),
            ms(s.workload + s.sched + s.syscalls),
            ms(s.total)
        );
    }
    (layers, nested)
}

/// Every modeled value a run produced: end-to-end and per layer.
fn layer_modeled(r: &Recording) -> Vec<Metric> {
    let mut v = report::modeled(r);
    v.extend(report::per_layer(
        r,
        &report::SelfTimes::default(),
        0.0,
        0.0,
    ));
    v
}

fn write_trace(args: &Args, r: &Recording) {
    let dir = std::path::Path::new(".perfbench_out");
    let name = format!("trace-{:?}-{}.tsv", args.workload, args.seed).to_lowercase();
    let written = std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(dir.join(&name), report::spans_tsv(r)));
    match written {
        Ok(()) => println!("spans: {}", dir.join(name).display()),
        Err(e) => println!("spans not written: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two runs of one seed — one of them traced — give bit-identical
    /// modeled numbers, end to end and per layer. For `asset_load`, whose
    /// four scheduled readers can wake in hash-map order (ROADMAP item 1),
    /// the values that differ are listed instead.
    #[test]
    fn modeled_numbers_repeat_exactly() {
        for w in [Workload::SaveSync, Workload::MetadataChurn] {
            let spec = Spec::new(w, 7);
            let a = layer_modeled(&spec.run(false).expect("untraced run"));
            let b = layer_modeled(&spec.run(true).expect("traced run"));
            assert_eq!(report::drift(&a, &b), Vec::<String>::new(), "{w:?}");
        }
        let spec = Spec::new(Workload::AssetLoad, 7);
        let a = layer_modeled(&spec.run(false).expect("untraced run"));
        let b = layer_modeled(&spec.run(true).expect("traced run"));
        eprintln!(
            "asset_load counters that drift: {:?}",
            report::drift(&a, &b)
        );
    }

    /// Every metric the benchmark prints is declared in `BENCHMARK.json`
    /// under the same name and unit, and nothing else is.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("array end")];
            let field = |obj: &str, f: &str| -> String {
                let tag = format!("\"{f}\": \"");
                let at = obj.find(&tag).expect("field") + tag.len();
                obj[at..at + obj[at..].find('"').expect("closing quote")].to_string()
            };
            body.split('{')
                .skip(1)
                .map(|obj| (field(obj, "name"), field(obj, "unit")))
                .collect()
        };
        let recording = Recording {
            freq_hz: 1,
            ..Recording::default()
        };
        let declared = |ms: Vec<Metric>| -> Vec<(String, String)> {
            ms.into_iter()
                .map(|m| (m.name, m.unit.to_string()))
                .collect()
        };
        assert_eq!(
            section("end_to_end"),
            declared(report::end_to_end(std::slice::from_ref(&recording), 1.0))
        );
        assert_eq!(
            section("per_layer"),
            declared(report::per_layer(
                &recording,
                &report::SelfTimes::default(),
                0.0,
                0.0
            ))
        );
    }
}
