//! The paper-figure harness: prints the rows/series of every figure in the
//! paper's evaluation plus the ablations from DESIGN.md.
//!
//! ```text
//! harness fig2    [--scale S] [--runs N]     Figure 2 operator comparison
//! harness fig3    [--scale S] [--runs N]     Figure 3 SNB short reads
//! harness speedup [--runs N]                 §5 "up to 8×" scale sweep
//! harness memory  [--scale S]                ABL-MEM memory overhead
//! harness recovery [--scale S]               BENCH-recovery cold open: checkpoint vs WAL replay (writes BENCH_recovery.json)
//! harness serve   [--scale S] [--clients N] [--secs S]
//!                                            BENCH-serve wire-protocol load (writes BENCH_serve.json)
//! harness views   [--scale S]                BENCH-views materialized views on the update stream (writes BENCH_views.json)
//! harness compact [--scale S]                BENCH-compact DML churn + background compaction (writes BENCH_compact.json)
//! harness all     [--scale S] [--runs N]     everything above
//! ```
//!
//! Point-lookup latency and commit latency are gated by the repo
//! benchmark (`benchmark/`), not here. Use `--release` for meaningful
//! numbers.

use idf_bench::workload::Workload;
use idf_bench::{
    compact_bench, fig2, fig3, memory, recovery, render_comparisons, serve_bench, speedup,
    views_bench,
};

struct Args {
    command: String,
    scale: f64,
    runs: usize,
    clients: usize,
    secs: f64,
    json: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        command: "all".to_string(),
        scale: 2.0,
        runs: 5,
        clients: 32,
        secs: 4.0,
        json: false,
    };
    let mut it = std::env::args().skip(1);
    if let Some(cmd) = it.next() {
        args.command = cmd;
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scale" => {
                args.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale expects a number"));
            }
            "--runs" => {
                args.runs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--runs expects an integer"));
            }
            "--clients" => {
                args.clients = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--clients expects an integer"));
            }
            "--secs" => {
                args.secs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--secs expects a number"));
            }
            "--json" => args.json = true,
            other => die(&format!("unknown flag {other}")),
        }
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: harness [fig2|fig3|speedup|memory|recovery|serve|views|compact|all] \
         [--scale S] [--runs N] [--clients N] [--secs S] [--json]"
    );
    std::process::exit(2);
}

fn main() {
    // Crash-leg child re-exec for BENCH-compact: when the env var is
    // set this process churns/compacts until SIGKILLed, never parsing
    // its args.
    if compact_bench::crash_child_entry() {
        return;
    }
    let args = parse_args();
    if cfg!(debug_assertions) {
        eprintln!("warning: debug build — run with --release for meaningful timings");
    }
    let run = |what: &str| -> Result<(), idf_engine::error::EngineError> {
        match what {
            "fig2" => {
                eprintln!(
                    "# FIG2: building scale {} dataset (both modes)...",
                    args.scale
                );
                let w = Workload::new(args.scale)?;
                let rows = fig2::run(&w, args.runs)?;
                if args.json {
                    println!("{}", idf_bench::json::to_string_pretty(&rows));
                } else {
                    println!(
                        "{}",
                        render_comparisons(
                            &format!(
                                "FIG2: SQL operators on person_knows_person \
                                 (scale {}, {} knows rows)",
                                args.scale,
                                w.data.knows.len()
                            ),
                            &rows
                        )
                    );
                }
            }
            "fig3" => {
                eprintln!(
                    "# FIG3: building scale {} dataset (both modes)...",
                    args.scale
                );
                let w = Workload::new(args.scale)?;
                let rows = fig3::run(&w, args.runs, 8)?;
                if args.json {
                    println!("{}", idf_bench::json::to_string_pretty(&rows));
                } else {
                    println!(
                        "{}",
                        render_comparisons(
                            &format!(
                                "FIG3: SNB simple reads SQ1-SQ7 (scale {}, 8 bindings \
                                 per query; SQ5/SQ6 cannot use the index)",
                                args.scale
                            ),
                            &rows
                        )
                    );
                }
            }
            "speedup" => {
                eprintln!("# CLAIM-8X: sweeping scales...");
                let scales = [0.5, 1.0, 2.0, 4.0, 8.0];
                let points = speedup::run(&scales, args.runs)?;
                if args.json {
                    println!("{}", idf_bench::json::to_string_pretty(&points));
                } else {
                    println!("{}", speedup::render(&points));
                }
            }
            "recovery" => {
                let cfg = recovery::RecoveryConfig::for_scale(args.scale);
                eprintln!("# BENCH-recovery: {} row corpus...", cfg.rows);
                let report = recovery::run(&cfg)?;
                let json = idf_bench::json::to_string_pretty(&report);
                std::fs::write("BENCH_recovery.json", format!("{json}\n")).map_err(|e| {
                    idf_engine::error::EngineError::exec(format!(
                        "writing BENCH_recovery.json: {e}"
                    ))
                })?;
                eprintln!("# wrote BENCH_recovery.json");
                if args.json {
                    println!("{json}");
                } else {
                    println!("{}", recovery::render(&report));
                }
            }
            "serve" => {
                let mut cfg = serve_bench::ServeBenchConfig::for_scale(args.scale);
                cfg.max_clients = args.clients.max(1);
                cfg.step_secs = args.secs;
                eprintln!(
                    "# BENCH-serve: {} keys, sweeping up to {} clients...",
                    cfg.n_keys, cfg.max_clients
                );
                let report = serve_bench::run(&cfg)?;
                let json = idf_bench::json::to_string_pretty(&report);
                std::fs::write("BENCH_serve.json", format!("{json}\n")).map_err(|e| {
                    idf_engine::error::EngineError::exec(format!("writing BENCH_serve.json: {e}"))
                })?;
                eprintln!("# wrote BENCH_serve.json");
                if args.json {
                    println!("{json}");
                } else {
                    println!("{}", serve_bench::render(&report));
                }
            }
            "views" => {
                let cfg = views_bench::ViewsBenchConfig::for_scale(args.scale);
                eprintln!(
                    "# BENCH-views: SNB scale {}, {} stream events...",
                    cfg.snb_scale, cfg.events
                );
                let report = views_bench::run(&cfg)?;
                let json = idf_bench::json::to_string_pretty(&report);
                std::fs::write("BENCH_views.json", format!("{json}\n")).map_err(|e| {
                    idf_engine::error::EngineError::exec(format!("writing BENCH_views.json: {e}"))
                })?;
                eprintln!("# wrote BENCH_views.json");
                if args.json {
                    println!("{json}");
                } else {
                    println!("{}", views_bench::render(&report));
                }
            }
            "compact" => {
                let cfg = compact_bench::CompactBenchConfig::for_scale(args.scale);
                eprintln!(
                    "# BENCH-compact: {} keys, {} churn + {} steady waves...",
                    cfg.keys, cfg.churn_rounds, cfg.steady_rounds
                );
                let report = compact_bench::run(&cfg)?;
                let json = idf_bench::json::to_string_pretty(&report);
                std::fs::write("BENCH_compact.json", format!("{json}\n")).map_err(|e| {
                    idf_engine::error::EngineError::exec(format!("writing BENCH_compact.json: {e}"))
                })?;
                eprintln!("# wrote BENCH_compact.json");
                if args.json {
                    println!("{json}");
                } else {
                    println!("{}", compact_bench::render(&report));
                }
            }
            "memory" => {
                let rows = memory::run(args.scale)?;
                if args.json {
                    println!("{}", idf_bench::json::to_string_pretty(&rows));
                } else {
                    println!("{}", memory::render(&rows));
                }
            }
            other => die(&format!("unknown command {other}")),
        }
        Ok(())
    };
    let commands: Vec<String> = match args.command.as_str() {
        "all" => [
            "fig2", "fig3", "speedup", "memory", "recovery", "serve", "views", "compact",
        ]
        .into_iter()
        .map(String::from)
        .collect(),
        single => vec![single.to_string()],
    };
    for c in &commands {
        if let Err(e) = run(c) {
            eprintln!("error running {c}: {e}");
            std::process::exit(1);
        }
        println!();
    }
}
