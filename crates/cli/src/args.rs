//! Command-line parsing for `rwq` — hand-rolled so the workspace keeps its
//! small, offline dependency set.

use crate::session::SessionOptions;
use rw_core::{ApproxParams, ScanParams};
use rw_propensity::Prior;
use rw_util::Rat;
use std::fmt;
use std::path::PathBuf;

/// A parsed `rwq` invocation.
#[derive(Debug, PartialEq)]
pub enum Command {
    /// `rwq query <file> <query>... [options]`
    Query {
        /// The `.rwkb` knowledge-base file.
        file: PathBuf,
        /// One or more `L≈` queries.
        queries: Vec<String>,
        /// Session options parsed from flags.
        options: SessionOptions,
    },
    /// `rwq check <file>`: parse and describe the KB.
    Check {
        /// The `.rwkb` knowledge-base file.
        file: PathBuf,
    },
    /// `rwq repl <file> [options]`: answer queries from stdin.
    Repl {
        /// The `.rwkb` knowledge-base file.
        file: PathBuf,
        /// Session options parsed from flags.
        options: SessionOptions,
    },
    /// `rwq batch <file> [--threads N] [--cache] [--approx ...]`: queries
    /// from stdin (one per line), one JSON result object per line on
    /// stdout plus a closing summary line, against a single loaded KB.
    Batch {
        /// The `.rwkb` knowledge-base file.
        file: PathBuf,
        /// Session options (`--threads` / `--cache` and the `--approx`
        /// sampler knobs apply to batch).
        options: SessionOptions,
    },
    /// `rwq serve [file.rwkb] [--addr A] [--threads N] [--cache-shards S]
    /// [--max-queue Q] [--max-conns C] [--idle-timeout-ms T]`: run the
    /// persistent rw-server process. An optional positional KB file is
    /// preloaded under the name `default`. The first stdout line is
    /// `{"serving":{"addr":...,...}}` with the bound address.
    Serve {
        /// Optional KB preloaded as `default`.
        file: Option<PathBuf>,
        /// Listener/pool/cache/queue configuration.
        config: rw_server::ServerConfig,
        /// Enumeration-scan settings applied to the preloaded KB
        /// (`--symmetry` / `--min-n` / `--max-n`); KBs loaded later over
        /// the wire carry their own in the `load` request.
        scan: ScanParams,
    },
    /// `rwq shard --backend HOST:PORT ... [--addr A]`: run the
    /// consistent-hash front that routes queries across a fleet of
    /// `rwq serve` backends, with health probes and structured failover.
    Shard {
        /// Ring/listener/probe/retry configuration.
        config: rw_server::ShardConfig,
    },
    /// `rwq client --addr A [--retry N]`: forward JSONL requests from
    /// stdin to a running server, one response line per request on
    /// stdout.
    Client {
        /// The server address (`host:port`).
        addr: String,
        /// Reconnect attempts after a transient connection failure
        /// (refused/reset); `0` = fail immediately.
        retry: u32,
        /// First reconnect backoff in milliseconds, doubling per
        /// attempt.
        retry_backoff_ms: u64,
    },
    /// `rwq obs <trace.jsonl>`: aggregate a slow-query (or access) log
    /// into a flamegraph-style self/total table per span name.
    Obs {
        /// The JSONL span-trace file written by `rwq serve --slow-log`.
        path: PathBuf,
    },
    /// `rwq lab run <workload.jsonl> [--variants ...] [--threads 1,4]
    /// [--cache both] [--seed N] [--rows PATH] [--report PATH]`: run the
    /// workload through the experiment runner's variant matrix, emit one
    /// JSONL row per trial plus an analysis table, write the
    /// machine-readable gate report, and exit nonzero on any gate
    /// violation.
    Lab {
        /// The `workloads/*.jsonl` task-set file.
        workload: PathBuf,
        /// The variant matrix (engines × threads × cache) and run seed.
        config: rw_lab::RunConfig,
        /// Also write the trial rows to this file (they always stream to
        /// stdout).
        rows: Option<PathBuf>,
        /// Where to write `LAB_REPORT.json`.
        report: PathBuf,
    },
    /// `rwq help` (or no arguments).
    Help,
}

/// Argument errors, with the offending token.
#[derive(Debug, PartialEq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// The `rwq help` text.
pub const USAGE: &str = "\
rwq — random-worlds degrees of belief from statistical knowledge bases

USAGE:
  rwq query <file.rwkb> <query>... [options]
  rwq check <file.rwkb>
  rwq repl  <file.rwkb> [options]     (queries from stdin, one per line)
  rwq batch <file.rwkb> [--threads N] [--cache] [--approx ...]
                                      (queries from stdin, JSONL results out,
                                       closing {\"summary\":...} line)
  rwq serve [file.rwkb] [--addr A] [--threads N] [--cache-shards S] [--max-queue Q]
            [--max-conns C] [--idle-timeout-ms T]
            [--slow-log PATH [--slow-ms T]] [--access-log PATH]
            [--snapshot-dir PATH [--snapshot-interval-ms T]]
                                      (persistent server; optional file is
                                       preloaded as the KB named `default`;
                                       SIGTERM/SIGINT drain gracefully)
  rwq shard --backend HOST:PORT [--backend HOST:PORT ...] [--addr A]
            [--probe-interval-ms T] [--retry N] [--retry-backoff-ms T]
            [--vnodes V] [--threads N] [--max-queue Q] [--max-conns C]
                                      (consistent-hash front: routes queries
                                       across serve backends with health
                                       probes and structured failover)
  rwq client --addr A [--retry N [--retry-backoff-ms T]]
                                      (JSONL requests from stdin to a server)
  rwq obs <trace.jsonl>               (aggregate a slow-query span log into a
                                       flamegraph-style self/total table)
  rwq lab run <workload.jsonl> [--variants E1,E2,...] [--threads N1,N2,...]
              [--cache on|off|both] [--seed S] [--rows PATH] [--report PATH]
                                      (experiment runner: one JSONL row per
                                       trial, analysis table, LAB_REPORT.json;
                                       exits nonzero on gate violations)
  rwq help

OPTIONS:
  --tau P/Q            tolerance for finite-N output (default 1/10)
  --trend N1,N2,...    also print exact Pr_N at these domain sizes
  --prior NAME         use a propensity prior instead of random worlds:
                       per-predicate | carnap | lambda=X
  --quiet              suppress provenance / trend detail
  --threads N          worker threads for batch and serve (0 = one per
                       core; batch default 1 = stream answers
                       sequentially); with --approx also the sampler's
                       worker count (any verb)
  --addr HOST:PORT     serve: bind address (default 127.0.0.1:7878;
                       port 0 = pick a free port) / client: the server
  --cache-shards N     serve: shards of the shared answer cache (default 16)
  --max-queue N        serve: admission-queue capacity; queries beyond it
                       are rejected with code \"overloaded\" (default 1024)
  --max-conns N        serve: open-connection ceiling; connections beyond
                       it are refused with code \"overloaded\"
                       (default 10000)
  --idle-timeout-ms T  serve: evict connections idle for T milliseconds
                       (default 0 = never evict)
  --slow-log PATH      serve: append a structured JSONL line (query, KB
                       fingerprint, full span tree) for every request at
                       or over the --slow-ms threshold
  --slow-ms T          serve: slow-query threshold in milliseconds
                       (default 100; 0 logs every request)
  --access-log PATH    serve: append one JSONL line per answered request
  --snapshot-dir PATH  serve: persist the KB registry and answer caches
                       here (periodically and on drain) and reload them
                       warm on startup; a corrupted or version-skewed
                       snapshot is rejected with a structured error and
                       the server starts cold
  --snapshot-interval-ms T
                       serve: milliseconds between cache checkpoints
                       (default 5000; requires --snapshot-dir)
  --backend HOST:PORT  shard: one backend server (repeat per backend;
                       at least one required)
  --probe-interval-ms T
                       shard: health-probe cadence per backend in
                       milliseconds (default 250)
  --retry N            client / shard: reconnect attempts against one
                       peer after a transient connection failure
                       (client default 0 = fail fast; shard default 2,
                       then fail over to the ring successor)
  --retry-backoff-ms T first retry backoff in milliseconds, doubling
                       per attempt (default 50; on client requires
                       --retry)
  --vnodes V           shard: virtual nodes per backend on the hash
                       ring (default 64)
  --cache              share a canonical-query answer cache across the
                       session's queries (batch, query, repl)
  --symmetry           count symmetry-reduced orbit representatives in the
                       exact enumeration stage instead of raw worlds — the
                       finite-N scan reaches far deeper domains (query,
                       repl, batch; on serve it applies to the preloaded KB)
  --min-n N            first domain size of the enumeration scan (2..=64)
  --max-n N            last domain size of the enumeration scan (2..=64;
                       defaults: 8 plain, 40 with --symmetry)
  --approx             enable Monte-Carlo approximate inference: queries
                       missing every theorem pattern are answered by
                       sampling, with a 95% confidence interval
                       (batch, query, repl)
  --samples N          approx: total draw cap across the N-sweep
  --mc-seed S          approx: sampler seed (same seed => identical
                       answers at any --threads count)
  --ci X               approx: stop sampling once the CI half-width
                       reaches X (0 < X < 0.5)

LAB OPTIONS (rwq lab run):
  --variants E1,E2,...  engines to run: compiled | oracle | symmetry |
                        montecarlo | maxent (default compiled,oracle,montecarlo)
  --threads N1,N2,...   thread counts to run each engine under (default 1)
  --cache on|off|both   cache axis of the variant matrix (default both;
                        cached trials replay the query and verify the hit)
  --seed S              Monte-Carlo root seed (default 42)
  --rows PATH           also write the trial rows to PATH
  --report PATH         gate-report path (default LAB_REPORT.json)
";

fn parse_tau(s: &str) -> Result<Rat, ArgError> {
    let (p, q) = s
        .split_once('/')
        .ok_or_else(|| ArgError(format!("--tau expects P/Q, got `{s}`")))?;
    let p: i128 = p
        .trim()
        .parse()
        .map_err(|_| ArgError(format!("bad numerator `{p}`")))?;
    let q: i128 = q
        .trim()
        .parse()
        .map_err(|_| ArgError(format!("bad denominator `{q}`")))?;
    if p <= 0 || q <= 0 {
        return Err(ArgError(format!("--tau must be positive, got {s}")));
    }
    Ok(Rat::new(p, q))
}

fn parse_prior(s: &str) -> Result<Prior, ArgError> {
    match s {
        "per-predicate" => Ok(Prior::PerPredicate),
        "carnap" => Ok(Prior::CarnapStar),
        _ => {
            if let Some(rest) = s.strip_prefix("lambda=") {
                let v: f64 = rest
                    .parse()
                    .map_err(|_| ArgError(format!("bad λ value `{rest}`")))?;
                if v <= 0.0 {
                    return Err(ArgError("λ must be positive".to_string()));
                }
                Ok(Prior::Lambda(v))
            } else {
                Err(ArgError(format!(
                    "unknown prior `{s}` (expected per-predicate | carnap | lambda=X)"
                )))
            }
        }
    }
}

/// Parses a `--min-n` / `--max-n` domain size; its range is checked
/// with the rest of the window by [`ScanParams::validate`].
fn parse_scan_n(v: &str, flag: &str) -> Result<usize, ArgError> {
    v.parse().map_err(|_| {
        ArgError(format!(
            "{flag} expects a domain size in 2..={}, got `{v}`",
            rw_core::solvers::MAX_SCAN_N
        ))
    })
}

/// A per-KB option outside its range, as rw-core's validators word it.
fn range_error(message: String) -> ArgError {
    ArgError(format!("invalid option: {message}"))
}

fn parse_trend(s: &str) -> Result<Vec<usize>, ArgError> {
    s.split(',')
        .map(|t| {
            t.trim()
                .parse::<usize>()
                .map_err(|_| ArgError(format!("bad --trend size `{t}`")))
        })
        .collect()
}

fn parse_options(args: &[String]) -> Result<(SessionOptions, Vec<String>), ArgError> {
    let mut options = SessionOptions::default();
    let mut approx = false;
    let mut mc = ApproxParams::default();
    let mut positional = Vec::new();
    let mut i = 0usize;
    let value = |i: &mut usize, flag: &str| -> Result<String, ArgError> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| ArgError(format!("{flag} expects a value")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--tau" => options.tau = parse_tau(&value(&mut i, "--tau")?)?,
            "--prior" => options.prior = Some(parse_prior(&value(&mut i, "--prior")?)?),
            "--trend" => options.trend = parse_trend(&value(&mut i, "--trend")?)?,
            "--quiet" => options.explain = false,
            "--threads" => {
                options.threads = parse_threads(&value(&mut i, "--threads")?)?;
            }
            "--cache" => options.cache = true,
            "--symmetry" => options.scan.symmetry = true,
            "--min-n" => {
                options.scan.min_n = Some(parse_scan_n(&value(&mut i, "--min-n")?, "--min-n")?);
            }
            "--max-n" => {
                options.scan.max_n = Some(parse_scan_n(&value(&mut i, "--max-n")?, "--max-n")?);
            }
            "--approx" => approx = true,
            "--samples" => {
                let v = value(&mut i, "--samples")?;
                mc.samples = Some(
                    v.parse()
                        .map_err(|_| ArgError(format!("bad --samples count `{v}`")))?,
                );
            }
            "--mc-seed" => {
                let v = value(&mut i, "--mc-seed")?;
                mc.seed = Some(
                    v.parse()
                        .map_err(|_| ArgError(format!("bad --mc-seed `{v}`")))?,
                );
            }
            "--ci" => {
                let v = value(&mut i, "--ci")?;
                mc.ci = Some(
                    v.parse()
                        .map_err(|_| ArgError(format!("bad --ci value `{v}`")))?,
                );
            }
            flag if flag.starts_with("--") => {
                return Err(ArgError(format!("unknown option `{flag}`")));
            }
            _ => positional.push(args[i].clone()),
        }
        i += 1;
    }
    // Propensity sweeps need N points; give a sensible default ladder.
    if options.prior.is_some() && options.trend.is_empty() {
        options.trend = vec![16, 32, 64];
    }
    // The sampler knobs only mean something with the sampler on.
    if !approx {
        for (flag, set) in [
            ("--samples", mc.samples.is_some()),
            ("--mc-seed", mc.seed.is_some()),
            ("--ci", mc.ci.is_some()),
        ] {
            if set {
                return Err(ArgError(format!("{flag} requires --approx")));
            }
        }
    }
    if approx && options.prior.is_some() {
        return Err(ArgError(
            "--approx samples the random-worlds distribution; it cannot be combined with --prior"
                .to_string(),
        ));
    }
    mc.validate().map_err(range_error)?;
    options.scan.validate().map_err(range_error)?;
    options.approx = approx.then_some(mc);
    Ok((options, positional))
}

/// The one `--threads` rejection message, shared verbatim by every
/// subcommand that cannot use the flag — `query` and `repl` used to
/// word it differently, which made scripted error handling match one
/// verb and miss the other.
pub const THREADS_ERR: &str = "--threads applies to `batch`, `serve`, and `--approx` sessions \
     (0 = one worker per core); this subcommand answers one query at a time";

/// Only `batch` and `serve` shard work across threads; other verbs
/// answer one query at a time, so a `--threads` there is a
/// misunderstanding worth flagging — unless `--approx` is on, where the
/// count drives the sampler's worker pool instead.
fn reject_threads(options: &SessionOptions) -> Result<(), ArgError> {
    if options.threads != SessionOptions::default().threads && options.approx.is_none() {
        return Err(ArgError(THREADS_ERR.to_string()));
    }
    Ok(())
}

/// Parses a `--threads` value: any count, with `0` meaning one worker
/// per core — the same contract for `batch` and `serve`.
fn parse_threads(v: &str) -> Result<usize, ArgError> {
    v.parse()
        .map_err(|_| ArgError(format!("bad --threads count `{v}`")))
}

/// The CLI's default serving address (`rwq serve` without `--addr`).
pub const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7878";

/// Parses `rwq serve` arguments (its flag set is the server's, disjoint
/// from the per-query session options).
fn parse_serve(args: &[String]) -> Result<Command, ArgError> {
    let mut config = rw_server::ServerConfig {
        addr: DEFAULT_SERVE_ADDR.to_string(),
        ..rw_server::ServerConfig::default()
    };
    let mut scan = ScanParams::default();
    let mut slow_ms = None;
    let mut snapshot_interval_ms = None;
    let mut positional = Vec::new();
    let mut i = 0usize;
    let value = |i: &mut usize, flag: &str| -> Result<String, ArgError> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| ArgError(format!("{flag} expects a value")))
    };
    let positive = |v: String, flag: &str| -> Result<usize, ArgError> {
        match v.parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(ArgError(format!(
                "{flag} expects a positive count, got `{v}`"
            ))),
        }
    };
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => config.addr = value(&mut i, "--addr")?,
            "--threads" => config.threads = parse_threads(&value(&mut i, "--threads")?)?,
            "--cache-shards" => {
                config.cache_shards = positive(value(&mut i, "--cache-shards")?, "--cache-shards")?
            }
            "--max-queue" => {
                config.max_queue = positive(value(&mut i, "--max-queue")?, "--max-queue")?
            }
            "--max-conns" => {
                config.max_conns = positive(value(&mut i, "--max-conns")?, "--max-conns")?
            }
            "--idle-timeout-ms" => {
                let v = value(&mut i, "--idle-timeout-ms")?;
                config.idle_timeout_ms = v.parse::<u64>().map_err(|_| {
                    ArgError(format!("bad --idle-timeout-ms value `{v}` (0 disables)"))
                })?;
            }
            "--slow-log" => config.slow_log = Some(PathBuf::from(value(&mut i, "--slow-log")?)),
            "--slow-ms" => {
                let v = value(&mut i, "--slow-ms")?;
                slow_ms = Some(
                    v.parse::<u64>()
                        .map_err(|_| ArgError(format!("bad --slow-ms threshold `{v}`")))?,
                );
            }
            "--access-log" => {
                config.access_log = Some(PathBuf::from(value(&mut i, "--access-log")?))
            }
            "--snapshot-dir" => {
                config.snapshot_dir = Some(PathBuf::from(value(&mut i, "--snapshot-dir")?))
            }
            "--snapshot-interval-ms" => {
                let v = value(&mut i, "--snapshot-interval-ms")?;
                snapshot_interval_ms = Some(match v.parse::<u64>() {
                    Ok(ms) if ms > 0 => ms,
                    _ => {
                        return Err(ArgError(format!(
                            "bad --snapshot-interval-ms value `{v}` (positive milliseconds)"
                        )))
                    }
                });
            }
            "--symmetry" => scan.symmetry = true,
            "--min-n" => scan.min_n = Some(parse_scan_n(&value(&mut i, "--min-n")?, "--min-n")?),
            "--max-n" => scan.max_n = Some(parse_scan_n(&value(&mut i, "--max-n")?, "--max-n")?),
            flag if flag.starts_with("--") => {
                return Err(ArgError(format!("unknown serve option `{flag}`")));
            }
            _ => positional.push(args[i].clone()),
        }
        i += 1;
    }
    scan.validate().map_err(range_error)?;
    match slow_ms {
        Some(ms) if config.slow_log.is_some() => config.slow_ms = ms,
        Some(_) => {
            return Err(ArgError(
                "--slow-ms sets the --slow-log threshold; pass --slow-log PATH too".to_string(),
            ))
        }
        None => {}
    }
    match snapshot_interval_ms {
        Some(ms) if config.snapshot_dir.is_some() => config.snapshot_interval_ms = ms,
        Some(_) => {
            return Err(ArgError(
                "--snapshot-interval-ms sets the --snapshot-dir checkpoint cadence; \
                 pass --snapshot-dir PATH too"
                    .to_string(),
            ))
        }
        None => {}
    }
    if positional.len() > 1 {
        return Err(ArgError(
            "serve takes at most one KB file (preloaded as `default`)".to_string(),
        ));
    }
    if positional.is_empty() && scan != ScanParams::default() {
        return Err(ArgError(
            "--symmetry/--min-n/--max-n on serve configure the preloaded KB; \
             pass a KB file or send them in `load` requests"
                .to_string(),
        ));
    }
    Ok(Command::Serve {
        file: positional.pop().map(PathBuf::from),
        config,
        scan,
    })
}

/// The client's default first reconnect backoff (`--retry-backoff-ms`).
pub const DEFAULT_RETRY_BACKOFF_MS: u64 = 50;

/// Parses `rwq client` arguments.
fn parse_client(args: &[String]) -> Result<Command, ArgError> {
    let mut addr = None;
    let mut retry = 0u32;
    let mut backoff = None;
    let mut i = 0usize;
    let value = |i: &mut usize, flag: &str| -> Result<String, ArgError> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| ArgError(format!("{flag} expects a value")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = Some(value(&mut i, "--addr")?),
            "--retry" => {
                let v = value(&mut i, "--retry")?;
                retry = v
                    .parse()
                    .map_err(|_| ArgError(format!("bad --retry count `{v}`")))?;
            }
            "--retry-backoff-ms" => {
                let v = value(&mut i, "--retry-backoff-ms")?;
                backoff = Some(match v.parse::<u64>() {
                    Ok(ms) if ms > 0 => ms,
                    _ => {
                        return Err(ArgError(format!(
                            "bad --retry-backoff-ms value `{v}` (positive milliseconds)"
                        )))
                    }
                });
            }
            other => {
                return Err(ArgError(format!(
                    "unknown client argument `{other}` (client takes --addr, --retry \
                     and --retry-backoff-ms)"
                )));
            }
        }
        i += 1;
    }
    if backoff.is_some() && retry == 0 {
        return Err(ArgError(
            "--retry-backoff-ms paces the --retry reconnects; pass --retry N too".to_string(),
        ));
    }
    match addr {
        Some(addr) => Ok(Command::Client {
            addr,
            retry,
            retry_backoff_ms: backoff.unwrap_or(DEFAULT_RETRY_BACKOFF_MS),
        }),
        None => Err(ArgError(
            "client requires --addr HOST:PORT (a running `rwq serve`)".to_string(),
        )),
    }
}

/// The CLI's default shard-front address (`rwq shard` without `--addr`).
pub const DEFAULT_SHARD_ADDR: &str = "127.0.0.1:7879";

/// Parses `rwq shard` arguments into a [`rw_server::ShardConfig`].
fn parse_shard(args: &[String]) -> Result<Command, ArgError> {
    let mut config = rw_server::ShardConfig {
        addr: DEFAULT_SHARD_ADDR.to_string(),
        ..rw_server::ShardConfig::default()
    };
    let mut i = 0usize;
    let value = |i: &mut usize, flag: &str| -> Result<String, ArgError> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| ArgError(format!("{flag} expects a value")))
    };
    let positive = |v: String, flag: &str| -> Result<usize, ArgError> {
        match v.parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(ArgError(format!(
                "{flag} expects a positive count, got `{v}`"
            ))),
        }
    };
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => config.addr = value(&mut i, "--addr")?,
            "--backend" => config.backends.push(value(&mut i, "--backend")?),
            "--threads" => config.threads = parse_threads(&value(&mut i, "--threads")?)?,
            "--max-queue" => {
                config.max_queue = positive(value(&mut i, "--max-queue")?, "--max-queue")?
            }
            "--max-conns" => {
                config.max_conns = positive(value(&mut i, "--max-conns")?, "--max-conns")?
            }
            "--probe-interval-ms" => {
                config.probe_interval_ms =
                    positive(value(&mut i, "--probe-interval-ms")?, "--probe-interval-ms")? as u64;
            }
            "--retry" => {
                let v = value(&mut i, "--retry")?;
                config.retry = v
                    .parse()
                    .map_err(|_| ArgError(format!("bad --retry count `{v}`")))?;
            }
            "--retry-backoff-ms" => {
                config.retry_backoff_ms =
                    positive(value(&mut i, "--retry-backoff-ms")?, "--retry-backoff-ms")? as u64;
            }
            "--vnodes" => config.vnodes = positive(value(&mut i, "--vnodes")?, "--vnodes")?,
            flag if flag.starts_with("--") => {
                return Err(ArgError(format!("unknown shard option `{flag}`")));
            }
            other => {
                return Err(ArgError(format!(
                    "shard takes no positional arguments (got `{other}`); \
                     backends are `--backend HOST:PORT`"
                )));
            }
        }
        i += 1;
    }
    if config.backends.is_empty() {
        return Err(ArgError(
            "shard requires at least one --backend HOST:PORT (a running `rwq serve`)".to_string(),
        ));
    }
    Ok(Command::Shard { config })
}

/// Parses `rwq lab` arguments. The only verb today is `run`; its flag
/// set configures the variant matrix, not a session, so it is disjoint
/// from the per-query options.
fn parse_lab(args: &[String]) -> Result<Command, ArgError> {
    match args.first().map(String::as_str) {
        Some("run") => {}
        Some(other) => {
            return Err(ArgError(format!(
                "unknown lab verb `{other}` (expected `lab run <workload.jsonl>`)"
            )))
        }
        None => {
            return Err(ArgError(
                "lab expects `lab run <workload.jsonl>`".to_string(),
            ))
        }
    }
    let args = &args[1..];
    let mut config = rw_lab::RunConfig::default();
    let mut rows = None;
    let mut report = PathBuf::from("LAB_REPORT.json");
    let mut positional = Vec::new();
    let mut i = 0usize;
    let value = |i: &mut usize, flag: &str| -> Result<String, ArgError> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| ArgError(format!("{flag} expects a value")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--variants" => {
                let list = value(&mut i, "--variants")?;
                let mut engines = Vec::new();
                for word in list.split(',') {
                    let word = word.trim();
                    let Some(engine) = rw_lab::Engine::parse(word) else {
                        return Err(ArgError(format!(
                            "unknown engine `{word}` (expected compiled | oracle | symmetry \
                             | montecarlo | maxent)"
                        )));
                    };
                    if !engines.contains(&engine) {
                        engines.push(engine);
                    }
                }
                if engines.is_empty() {
                    return Err(ArgError(
                        "--variants expects at least one engine".to_string(),
                    ));
                }
                config.engines = engines;
            }
            "--threads" => {
                let list = value(&mut i, "--threads")?;
                let mut counts = Vec::new();
                for word in list.split(',') {
                    let word = word.trim();
                    match word.parse::<usize>() {
                        Ok(n) if n >= 1 => {
                            if !counts.contains(&n) {
                                counts.push(n);
                            }
                        }
                        _ => {
                            return Err(ArgError(format!(
                                "lab --threads expects a comma list of counts >= 1, got `{word}`"
                            )))
                        }
                    }
                }
                config.threads = counts;
            }
            "--cache" => {
                config.cache = match value(&mut i, "--cache")?.as_str() {
                    "on" => vec![true],
                    "off" => vec![false],
                    "both" => vec![false, true],
                    other => {
                        return Err(ArgError(format!(
                            "--cache expects on | off | both, got `{other}`"
                        )))
                    }
                };
            }
            "--seed" => {
                let v = value(&mut i, "--seed")?;
                config.seed = v
                    .parse()
                    .map_err(|_| ArgError(format!("bad --seed `{v}`")))?;
            }
            "--rows" => rows = Some(PathBuf::from(value(&mut i, "--rows")?)),
            "--report" => report = PathBuf::from(value(&mut i, "--report")?),
            flag if flag.starts_with("--") => {
                return Err(ArgError(format!("unknown lab option `{flag}`")));
            }
            _ => positional.push(args[i].clone()),
        }
        i += 1;
    }
    let [workload] = positional.as_slice() else {
        return Err(ArgError(
            "lab run expects exactly one workload file".to_string(),
        ));
    };
    Ok(Command::Lab {
        workload: PathBuf::from(workload),
        config,
        rows,
        report,
    })
}

/// Parses a full argument list (without the program name).
pub fn parse(args: &[String]) -> Result<Command, ArgError> {
    let Some(verb) = args.first() else {
        return Ok(Command::Help);
    };
    match verb.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "check" => {
            let (_, positional) = parse_options(&args[1..])?;
            let [file] = positional.as_slice() else {
                return Err(ArgError("check expects exactly one file".to_string()));
            };
            Ok(Command::Check {
                file: PathBuf::from(file),
            })
        }
        "serve" => parse_serve(&args[1..]),
        "shard" => parse_shard(&args[1..]),
        "client" => parse_client(&args[1..]),
        "obs" => {
            let [path] = &args[1..] else {
                return Err(ArgError(
                    "obs expects exactly one trace file (a `--slow-log` JSONL)".to_string(),
                ));
            };
            Ok(Command::Obs {
                path: PathBuf::from(path),
            })
        }
        "lab" => parse_lab(&args[1..]),
        "repl" => {
            let (options, positional) = parse_options(&args[1..])?;
            reject_threads(&options)?;
            let [file] = positional.as_slice() else {
                return Err(ArgError("repl expects exactly one file".to_string()));
            };
            Ok(Command::Repl {
                file: PathBuf::from(file),
                options,
            })
        }
        "batch" => {
            let (options, positional) = parse_options(&args[1..])?;
            if options.prior.is_some() {
                return Err(ArgError(
                    "batch always uses the random-worlds pipeline; --prior is not supported"
                        .to_string(),
                ));
            }
            // Rejected, not silently ignored: batch emits full JSON
            // objects, so the text-formatting flags have no effect.
            // (--threads / --cache and the --approx sampler knobs are the
            // batch-relevant options.)
            let concurrency_only = SessionOptions {
                threads: options.threads,
                cache: options.cache,
                approx: options.approx.clone(),
                scan: options.scan,
                ..SessionOptions::default()
            };
            if options != concurrency_only {
                return Err(ArgError(
                    "batch emits full JSON results; --tau, --trend and --quiet are not supported"
                        .to_string(),
                ));
            }
            let [file] = positional.as_slice() else {
                return Err(ArgError("batch expects exactly one file".to_string()));
            };
            Ok(Command::Batch {
                file: PathBuf::from(file),
                options,
            })
        }
        "query" => {
            let (options, mut positional) = parse_options(&args[1..])?;
            reject_threads(&options)?;
            if positional.len() < 2 {
                return Err(ArgError(
                    "query expects a file and at least one query".to_string(),
                ));
            }
            let file = PathBuf::from(positional.remove(0));
            Ok(Command::Query {
                file,
                queries: positional,
                options,
            })
        }
        other => Err(ArgError(format!(
            "unknown command `{other}` (try `rwq help`)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn query_with_options() {
        let cmd = parse(&strs(&[
            "query",
            "kb.rwkb",
            "Hep(Eric)",
            "--tau",
            "1/64",
            "--trend",
            "8,16",
            "--quiet",
        ]))
        .unwrap();
        match cmd {
            Command::Query {
                file,
                queries,
                options,
            } => {
                assert_eq!(file, PathBuf::from("kb.rwkb"));
                assert_eq!(queries, vec!["Hep(Eric)".to_string()]);
                assert_eq!(options.tau, Rat::new(1, 64));
                assert_eq!(options.trend, vec![8, 16]);
                assert!(!options.explain);
                assert_eq!(options.prior, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn priors_parse() {
        assert_eq!(parse_prior("per-predicate"), Ok(Prior::PerPredicate));
        assert_eq!(parse_prior("carnap"), Ok(Prior::CarnapStar));
        assert_eq!(parse_prior("lambda=3.5"), Ok(Prior::Lambda(3.5)));
        assert!(parse_prior("lambda=-1").is_err());
        assert!(parse_prior("dirichlet").is_err());
    }

    #[test]
    fn propensity_gets_default_trend() {
        let cmd = parse(&strs(&["query", "kb", "P(C)", "--prior", "carnap"])).unwrap();
        match cmd {
            Command::Query { options, .. } => assert_eq!(options.trend, vec![16, 32, 64]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_are_informative() {
        assert!(parse(&strs(&["frobnicate"]))
            .unwrap_err()
            .0
            .contains("unknown command"));
        assert!(parse(&strs(&["query", "kb"]))
            .unwrap_err()
            .0
            .contains("at least one query"));
        assert!(parse(&strs(&["check"]))
            .unwrap_err()
            .0
            .contains("exactly one file"));
        assert!(parse(&strs(&["query", "kb", "q", "--tau"]))
            .unwrap_err()
            .0
            .contains("expects a value"));
        assert!(parse(&strs(&["query", "kb", "q", "--tau", "0/3"]))
            .unwrap_err()
            .0
            .contains("positive"));
        assert!(parse(&strs(&["query", "kb", "q", "--wat"]))
            .unwrap_err()
            .0
            .contains("unknown option"));
    }

    #[test]
    fn batch_parses_and_rejects_priors() {
        let cmd = parse(&strs(&["batch", "kb.rwkb"])).unwrap();
        assert_eq!(
            cmd,
            Command::Batch {
                file: PathBuf::from("kb.rwkb"),
                options: SessionOptions::default(),
            }
        );
        assert!(parse(&strs(&["batch"]))
            .unwrap_err()
            .0
            .contains("exactly one file"));
        // Formatting flags are rejected outright rather than silently
        // ignored.
        for flagged in [
            vec!["batch", "kb", "--quiet"],
            vec!["batch", "kb", "--tau", "1/64"],
            vec!["batch", "kb", "--trend", "8,16"],
        ] {
            assert!(
                parse(&strs(&flagged))
                    .unwrap_err()
                    .0
                    .contains("not supported"),
                "{flagged:?}"
            );
        }
        assert!(parse(&strs(&["batch", "kb", "--prior", "carnap"]))
            .unwrap_err()
            .0
            .contains("--prior"));
    }

    #[test]
    fn batch_accepts_threads_and_cache() {
        let cmd = parse(&strs(&["batch", "kb.rwkb", "--threads", "4", "--cache"])).unwrap();
        match cmd {
            Command::Batch { options, .. } => {
                assert_eq!(options.threads, 4);
                assert!(options.cache);
            }
            other => panic!("{other:?}"),
        }
        // 0 = one worker per core.
        match parse(&strs(&["batch", "kb.rwkb", "--threads", "0"])).unwrap() {
            Command::Batch { options, .. } => assert_eq!(options.threads, 0),
            other => panic!("{other:?}"),
        }
        assert!(parse(&strs(&["batch", "kb", "--threads", "four"]))
            .unwrap_err()
            .0
            .contains("bad --threads"));
        assert!(parse(&strs(&["batch", "kb", "--threads"]))
            .unwrap_err()
            .0
            .contains("expects a value"));
    }

    #[test]
    fn threads_rejected_outside_batch_with_one_unified_message() {
        // The rejection text is a single constant — `query` and `repl`
        // used to word it differently (the verb was interpolated), so
        // scripts matching one missed the other.
        let mut seen = Vec::new();
        for verb in ["query", "repl"] {
            let err = parse(&strs(&[verb, "kb", "P(C)", "--threads", "2"])).unwrap_err();
            assert_eq!(err.0, THREADS_ERR, "{verb}");
            seen.push(err.0);
        }
        assert_eq!(seen[0], seen[1]);
        // ...while batch and serve accept the flag, including 0 = per-core.
        for args in [
            vec!["batch", "kb", "--threads", "0"],
            vec!["serve", "kb", "--threads", "0"],
            vec!["serve", "--threads", "4"],
        ] {
            assert!(parse(&strs(&args)).is_ok(), "{args:?}");
        }
        match parse(&strs(&["query", "kb", "P(C)", "--cache"])).unwrap() {
            Command::Query { options, .. } => assert!(options.cache),
            other => panic!("{other:?}"),
        }
        match parse(&strs(&["repl", "kb", "--cache"])).unwrap() {
            Command::Repl { options, .. } => assert!(options.cache),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn approx_flags_parse_for_every_serving_verb() {
        let cmd = parse(&strs(&[
            "query",
            "kb",
            "P(C)",
            "--approx",
            "--samples",
            "4096",
            "--mc-seed",
            "7",
            "--ci",
            "0.05",
            "--threads",
            "4",
        ]))
        .unwrap();
        match cmd {
            Command::Query { options, .. } => {
                let approx = options.approx.unwrap();
                assert_eq!(approx.samples, Some(4096));
                assert_eq!(approx.seed, Some(7));
                assert_eq!(approx.ci, Some(0.05));
                assert_eq!(options.threads, 4); // sampler workers
            }
            other => panic!("{other:?}"),
        }
        match parse(&strs(&["batch", "kb", "--approx", "--mc-seed", "9"])).unwrap() {
            Command::Batch { options, .. } => assert_eq!(options.approx.unwrap().seed, Some(9)),
            other => panic!("{other:?}"),
        }
        match parse(&strs(&["repl", "kb", "--approx"])).unwrap() {
            Command::Repl { options, .. } => assert!(options.approx.is_some()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn approx_flag_validation() {
        // Sampler knobs require --approx.
        for flagged in [
            vec!["query", "kb", "q", "--samples", "100"],
            vec!["query", "kb", "q", "--mc-seed", "1"],
            vec!["batch", "kb", "--ci", "0.1"],
        ] {
            assert!(
                parse(&strs(&flagged))
                    .unwrap_err()
                    .0
                    .contains("requires --approx"),
                "{flagged:?}"
            );
        }
        // --threads without --approx is still rejected for query.
        assert_eq!(
            parse(&strs(&["query", "kb", "q", "--threads", "2"]))
                .unwrap_err()
                .0,
            THREADS_ERR
        );
        // Bounds and parse errors.
        assert!(
            parse(&strs(&["query", "kb", "q", "--approx", "--ci", "0.7"]))
                .unwrap_err()
                .0
                .contains("half-width")
        );
        assert!(
            parse(&strs(&["query", "kb", "q", "--approx", "--samples", "0"]))
                .unwrap_err()
                .0
                .contains("positive")
        );
        // Approximate inference and propensity priors are different
        // semantics, not a stack.
        assert!(parse(&strs(&[
            "query", "kb", "q", "--approx", "--prior", "carnap"
        ]))
        .unwrap_err()
        .0
        .contains("--prior"));
    }

    #[test]
    fn scan_flags_parse_for_query_batch_and_serve() {
        match parse(&strs(&[
            "query",
            "kb",
            "P(C)",
            "--symmetry",
            "--min-n",
            "4",
            "--max-n",
            "32",
        ]))
        .unwrap()
        {
            Command::Query { options, .. } => {
                assert!(options.scan.symmetry);
                assert_eq!(options.scan.min_n, Some(4));
                assert_eq!(options.scan.max_n, Some(32));
            }
            other => panic!("{other:?}"),
        }
        match parse(&strs(&["batch", "kb", "--symmetry", "--max-n", "40"])).unwrap() {
            Command::Batch { options, .. } => {
                assert!(options.scan.symmetry);
                assert_eq!(options.scan.max_n, Some(40));
            }
            other => panic!("{other:?}"),
        }
        match parse(&strs(&["repl", "kb", "--min-n", "3"])).unwrap() {
            Command::Repl { options, .. } => assert_eq!(options.scan.min_n, Some(3)),
            other => panic!("{other:?}"),
        }
        match parse(&strs(&["serve", "kb.rwkb", "--symmetry", "--max-n", "48"])).unwrap() {
            Command::Serve { scan, .. } => {
                assert!(scan.symmetry);
                assert_eq!(scan.min_n, None);
                assert_eq!(scan.max_n, Some(48));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn scan_flag_validation() {
        // The window bounds mirror the server's `load` validation.
        for bad in [
            vec!["query", "kb", "q", "--min-n", "1"],
            vec!["query", "kb", "q", "--max-n", "65"],
            vec!["batch", "kb", "--max-n", "0"],
            vec!["serve", "kb", "--min-n", "huge"],
        ] {
            assert!(
                parse(&strs(&bad)).unwrap_err().0.contains("2..=64"),
                "{bad:?}"
            );
        }
        // Inverted windows are rejected on every verb that takes them.
        for bad in [
            vec!["query", "kb", "q", "--min-n", "10", "--max-n", "4"],
            vec!["serve", "kb", "--min-n", "10", "--max-n", "4"],
        ] {
            assert!(
                parse(&strs(&bad)).unwrap_err().0.contains("exceeds"),
                "{bad:?}"
            );
        }
        // On serve the scan knobs configure the preloaded KB; without a
        // file there is nothing for them to apply to.
        assert!(parse(&strs(&["serve", "--symmetry"]))
            .unwrap_err()
            .0
            .contains("preloaded KB"));
    }

    #[test]
    fn serve_parses_defaults_and_flags() {
        match parse(&strs(&["serve"])).unwrap() {
            Command::Serve { file, config, .. } => {
                assert_eq!(file, None);
                assert_eq!(config.addr, DEFAULT_SERVE_ADDR);
                assert_eq!(config.threads, 0); // per-core
                assert_eq!(config.cache_shards, 16);
                assert_eq!(config.max_queue, 1024);
                assert_eq!(config.max_conns, 10_000);
                assert_eq!(config.idle_timeout_ms, 0); // never evict
                assert!(!config.test_ops);
                assert_eq!(config.slow_log, None);
                assert_eq!(config.slow_ms, 100);
                assert_eq!(config.access_log, None);
                assert_eq!(config.snapshot_dir, None);
                assert_eq!(config.snapshot_interval_ms, 5000);
            }
            other => panic!("{other:?}"),
        }
        match parse(&strs(&[
            "serve",
            "kb.rwkb",
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "4",
            "--cache-shards",
            "8",
            "--max-queue",
            "64",
            "--max-conns",
            "2048",
            "--idle-timeout-ms",
            "30000",
            "--slow-log",
            "slow.jsonl",
            "--slow-ms",
            "0",
            "--access-log",
            "access.jsonl",
            "--snapshot-dir",
            "snaps",
            "--snapshot-interval-ms",
            "250",
        ]))
        .unwrap()
        {
            Command::Serve { file, config, .. } => {
                assert_eq!(file, Some(PathBuf::from("kb.rwkb")));
                assert_eq!(config.addr, "127.0.0.1:0");
                assert_eq!(config.threads, 4);
                assert_eq!(config.cache_shards, 8);
                assert_eq!(config.max_queue, 64);
                assert_eq!(config.max_conns, 2048);
                assert_eq!(config.idle_timeout_ms, 30_000);
                assert_eq!(config.slow_log, Some(PathBuf::from("slow.jsonl")));
                assert_eq!(config.slow_ms, 0);
                assert_eq!(config.access_log, Some(PathBuf::from("access.jsonl")));
                assert_eq!(config.snapshot_dir, Some(PathBuf::from("snaps")));
                assert_eq!(config.snapshot_interval_ms, 250);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn serve_snapshot_flag_validation() {
        // The interval paces --snapshot-dir checkpoints; alone it has
        // nothing to pace (same contract as --slow-ms/--slow-log).
        assert!(parse(&strs(&["serve", "--snapshot-interval-ms", "250"]))
            .unwrap_err()
            .0
            .contains("pass --snapshot-dir"));
        assert!(parse(&strs(&[
            "serve",
            "--snapshot-dir",
            "snaps",
            "--snapshot-interval-ms",
            "0"
        ]))
        .unwrap_err()
        .0
        .contains("bad --snapshot-interval-ms"));
        assert!(parse(&strs(&["serve", "--snapshot-dir"]))
            .unwrap_err()
            .0
            .contains("expects a value"));
    }

    #[test]
    fn serve_flag_validation() {
        assert!(parse(&strs(&["serve", "a.rwkb", "b.rwkb"]))
            .unwrap_err()
            .0
            .contains("at most one KB file"));
        assert!(parse(&strs(&["serve", "--max-queue", "0"]))
            .unwrap_err()
            .0
            .contains("positive"));
        assert!(parse(&strs(&["serve", "--max-conns", "0"]))
            .unwrap_err()
            .0
            .contains("positive"));
        assert!(parse(&strs(&["serve", "--idle-timeout-ms", "soon"]))
            .unwrap_err()
            .0
            .contains("bad --idle-timeout-ms"));
        assert!(parse(&strs(&["serve", "--cache-shards", "none"]))
            .unwrap_err()
            .0
            .contains("positive"));
        assert!(parse(&strs(&["serve", "--threads", "four"]))
            .unwrap_err()
            .0
            .contains("bad --threads"));
        assert!(parse(&strs(&["serve", "--quiet"]))
            .unwrap_err()
            .0
            .contains("unknown serve option"));
        assert!(parse(&strs(&["serve", "--addr"]))
            .unwrap_err()
            .0
            .contains("expects a value"));
        assert!(parse(&strs(&["serve", "--slow-ms", "50"]))
            .unwrap_err()
            .0
            .contains("--slow-log"));
        assert!(parse(&strs(&[
            "serve",
            "--slow-log",
            "s.jsonl",
            "--slow-ms",
            "soon"
        ]))
        .unwrap_err()
        .0
        .contains("bad --slow-ms"));
    }

    #[test]
    fn obs_takes_exactly_one_trace_file() {
        assert_eq!(
            parse(&strs(&["obs", "slow.jsonl"])).unwrap(),
            Command::Obs {
                path: PathBuf::from("slow.jsonl")
            }
        );
        assert!(parse(&strs(&["obs"]))
            .unwrap_err()
            .0
            .contains("exactly one trace file"));
        assert!(parse(&strs(&["obs", "a.jsonl", "b.jsonl"]))
            .unwrap_err()
            .0
            .contains("exactly one trace file"));
    }

    #[test]
    fn client_requires_addr() {
        assert_eq!(
            parse(&strs(&["client", "--addr", "127.0.0.1:7878"])).unwrap(),
            Command::Client {
                addr: "127.0.0.1:7878".to_string(),
                retry: 0,
                retry_backoff_ms: DEFAULT_RETRY_BACKOFF_MS,
            }
        );
        assert!(parse(&strs(&["client"]))
            .unwrap_err()
            .0
            .contains("requires --addr"));
        assert!(parse(&strs(&["client", "extra"]))
            .unwrap_err()
            .0
            .contains("unknown client argument"));
    }

    #[test]
    fn client_retry_flags_parse_and_validate() {
        match parse(&strs(&[
            "client",
            "--addr",
            "127.0.0.1:7878",
            "--retry",
            "5",
            "--retry-backoff-ms",
            "20",
        ]))
        .unwrap()
        {
            Command::Client {
                retry,
                retry_backoff_ms,
                ..
            } => {
                assert_eq!(retry, 5);
                assert_eq!(retry_backoff_ms, 20);
            }
            other => panic!("{other:?}"),
        }
        // The backoff knob paces reconnects; without --retry there are
        // none to pace.
        assert!(parse(&strs(&[
            "client",
            "--addr",
            "a:1",
            "--retry-backoff-ms",
            "20"
        ]))
        .unwrap_err()
        .0
        .contains("pass --retry"));
        assert!(parse(&strs(&["client", "--addr", "a:1", "--retry", "x"]))
            .unwrap_err()
            .0
            .contains("bad --retry"));
        assert!(parse(&strs(&[
            "client",
            "--addr",
            "a:1",
            "--retry",
            "1",
            "--retry-backoff-ms",
            "0"
        ]))
        .unwrap_err()
        .0
        .contains("bad --retry-backoff-ms"));
    }

    #[test]
    fn shard_parses_backends_and_knobs() {
        match parse(&strs(&["shard", "--backend", "127.0.0.1:7878"])).unwrap() {
            Command::Shard { config } => {
                assert_eq!(config.addr, DEFAULT_SHARD_ADDR);
                assert_eq!(config.backends, vec!["127.0.0.1:7878".to_string()]);
                // The remaining knobs keep the library defaults.
                assert_eq!(
                    config,
                    rw_server::ShardConfig {
                        addr: DEFAULT_SHARD_ADDR.to_string(),
                        backends: vec!["127.0.0.1:7878".to_string()],
                        ..rw_server::ShardConfig::default()
                    }
                );
            }
            other => panic!("{other:?}"),
        }
        match parse(&strs(&[
            "shard",
            "--addr",
            "127.0.0.1:0",
            "--backend",
            "127.0.0.1:7001",
            "--backend",
            "127.0.0.1:7002",
            "--probe-interval-ms",
            "100",
            "--retry",
            "3",
            "--retry-backoff-ms",
            "10",
            "--vnodes",
            "32",
            "--threads",
            "4",
            "--max-queue",
            "256",
            "--max-conns",
            "512",
        ]))
        .unwrap()
        {
            Command::Shard { config } => {
                assert_eq!(config.addr, "127.0.0.1:0");
                assert_eq!(config.backends.len(), 2);
                assert_eq!(config.probe_interval_ms, 100);
                assert_eq!(config.retry, 3);
                assert_eq!(config.retry_backoff_ms, 10);
                assert_eq!(config.vnodes, 32);
                assert_eq!(config.threads, 4);
                assert_eq!(config.max_queue, 256);
                assert_eq!(config.max_conns, 512);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn shard_rejects_bad_inputs() {
        assert!(parse(&strs(&["shard"]))
            .unwrap_err()
            .0
            .contains("at least one --backend"));
        assert!(parse(&strs(&["shard", "127.0.0.1:7878"]))
            .unwrap_err()
            .0
            .contains("no positional arguments"));
        assert!(parse(&strs(&["shard", "--backend", "a:1", "--quiet"]))
            .unwrap_err()
            .0
            .contains("unknown shard option"));
        assert!(
            parse(&strs(&["shard", "--backend", "a:1", "--vnodes", "0"]))
                .unwrap_err()
                .0
                .contains("positive")
        );
        assert!(parse(&strs(&[
            "shard",
            "--backend",
            "a:1",
            "--probe-interval-ms",
            "never"
        ]))
        .unwrap_err()
        .0
        .contains("positive"));
        assert!(parse(&strs(&["shard", "--backend"]))
            .unwrap_err()
            .0
            .contains("expects a value"));
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&strs(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn lab_run_parses_the_variant_matrix() {
        let cmd = parse(&strs(&[
            "lab",
            "run",
            "workloads/paper_examples.jsonl",
            "--variants",
            "compiled,oracle,montecarlo",
            "--threads",
            "1,4",
            "--cache",
            "on",
            "--seed",
            "7",
            "--rows",
            "rows.jsonl",
            "--report",
            "out/report.json",
        ]))
        .unwrap();
        match cmd {
            Command::Lab {
                workload,
                config,
                rows,
                report,
            } => {
                assert_eq!(workload, PathBuf::from("workloads/paper_examples.jsonl"));
                assert_eq!(
                    config.engines,
                    vec![
                        rw_lab::Engine::Compiled,
                        rw_lab::Engine::Oracle,
                        rw_lab::Engine::MonteCarlo
                    ]
                );
                assert_eq!(config.threads, vec![1, 4]);
                assert_eq!(config.cache, vec![true]);
                assert_eq!(config.seed, 7);
                assert_eq!(rows, Some(PathBuf::from("rows.jsonl")));
                assert_eq!(report, PathBuf::from("out/report.json"));
            }
            other => panic!("expected lab command, got {other:?}"),
        }
    }

    #[test]
    fn lab_defaults_mirror_run_config_defaults() {
        let cmd = parse(&strs(&["lab", "run", "w.jsonl"])).unwrap();
        match cmd {
            Command::Lab {
                config,
                rows,
                report,
                ..
            } => {
                assert_eq!(config, rw_lab::RunConfig::default());
                assert_eq!(rows, None);
                assert_eq!(report, PathBuf::from("LAB_REPORT.json"));
            }
            other => panic!("expected lab command, got {other:?}"),
        }
    }

    #[test]
    fn lab_rejects_bad_inputs() {
        assert!(parse(&strs(&["lab"])).unwrap_err().0.contains("lab run"));
        assert!(parse(&strs(&["lab", "walk", "w.jsonl"]))
            .unwrap_err()
            .0
            .contains("unknown lab verb"));
        assert!(parse(&strs(&["lab", "run"]))
            .unwrap_err()
            .0
            .contains("exactly one workload"));
        assert!(
            parse(&strs(&["lab", "run", "w.jsonl", "--variants", "warp"]))
                .unwrap_err()
                .0
                .contains("unknown engine")
        );
        assert!(parse(&strs(&["lab", "run", "w.jsonl", "--threads", "0"]))
            .unwrap_err()
            .0
            .contains("counts >= 1"));
        assert!(parse(&strs(&["lab", "run", "w.jsonl", "--cache", "maybe"]))
            .unwrap_err()
            .0
            .contains("on | off | both"));
        assert!(parse(&strs(&["lab", "run", "w.jsonl", "--quiet"]))
            .unwrap_err()
            .0
            .contains("unknown lab option"));
    }
}
