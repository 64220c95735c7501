//! The `sdb` command-line front-end. Five modes:
//!
//! * **One-shot** (the original): load CSV tables, run a textual
//!   relational-algebra query on the simulated systolic database machine,
//!   and print the result as CSV (optionally with hardware statistics).
//! * **Check**: `sdb check --table emp=emp.csv:str,int "scan(emp)"` — run
//!   the static analyzer only: print the typed plan summary (schemas, row
//!   bounds, predicted tiles and pulses) or the `SA00N` diagnostics with
//!   carets, without touching the machine. Exits nonzero on rejection.
//! * **Profile**: `sdb profile --table emp=emp.csv:str,int "scan(emp)"` —
//!   run the query through the server's `PROFILE` verb on an ephemeral
//!   in-process server and print the result plus the end-to-end profile:
//!   the analyzer's predictions (rows, tiles, pulse budget) next to the
//!   actuals per plan step, with the drift as a first-class field.
//! * **Serve**: `sdb serve --addr 127.0.0.1:4171` — run the long-lived
//!   query service from the `systolic-server` crate in the foreground
//!   until SIGINT/SIGTERM.
//! * **Connect**: `sdb --connect 127.0.0.1:4171 "scan(emp)"` — talk to a
//!   running server: optionally load tables, run one query, print the
//!   result exactly like the one-shot mode. `--profile` asks the server
//!   for the query's profile too; `--profiles` dumps its flight recorder.
//!
//! ```console
//! $ sdb --table emp=emp.csv:int,int,int --table dept=dept.csv:int,str \
//!       --stats "join(scan(emp), scan(dept), 1 = 0)"
//! ```
//!
//! Column types are `int`, `str`, `bool` or `date`; all columns of a given
//! type share one underlying domain, so same-typed columns across tables
//! are comparable (§2.4's union-compatibility by construction).

use std::fmt;
use std::path::Path;
use std::time::Duration;

use systolic_analyzer::diagnostics_json;
use systolic_core::ArrayLimits;
use systolic_machine::{Backend, MachineConfig, MachineError, ParseError, RunOutcome};
use systolic_relation::{DomainKind, RelationError};
use systolic_server::engine::kind_name;
use systolic_server::{Client, ClientError, Engine, EngineError, ServerConfig};
use systolic_telemetry::chrome::{ArgValue, ChromeTrace, PID_HOST, PID_SIMULATED};
use systolic_telemetry::{prom, SpanRecord};

/// CLI errors.
#[derive(Debug)]
pub enum CliError {
    /// Bad command-line usage; the string is the usage message.
    Usage(String),
    /// A CSV file could not be read, or the server socket failed.
    Io(std::io::Error),
    /// A table spec or CSV row failed to parse/encode.
    Relation(RelationError),
    /// The query failed to parse; keeps the query text so the error can
    /// point a caret at the offending byte.
    Query {
        /// The parse failure.
        err: ParseError,
        /// The query it occurred in.
        query: String,
    },
    /// Execution failed on the machine.
    Machine(MachineError),
    /// The static analyzer rejected the query; the string is the full
    /// rendering (caret diagnostics, or JSON under `check --json`).
    Rejected(String),
    /// A remote request over `--connect` failed.
    Server(ClientError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Relation(e) => write!(f, "{e}"),
            CliError::Query { err, query } => write!(f, "{}", err.pretty(query)),
            CliError::Machine(e) => write!(f, "{e}"),
            CliError::Rejected(rendered) => write!(f, "{rendered}"),
            CliError::Server(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}
impl From<RelationError> for CliError {
    fn from(e: RelationError) -> Self {
        CliError::Relation(e)
    }
}
impl From<MachineError> for CliError {
    fn from(e: MachineError) -> Self {
        CliError::Machine(e)
    }
}
impl From<EngineError> for CliError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::Parse { err, query } => CliError::Query { err, query },
            EngineError::Relation(e) => CliError::Relation(e),
            EngineError::Machine(e) => CliError::Machine(e),
            rejected @ EngineError::Analysis { .. } => CliError::Rejected(rejected.to_string()),
        }
    }
}
impl From<ClientError> for CliError {
    fn from(e: ClientError) -> Self {
        CliError::Server(e)
    }
}

/// One `--table NAME=PATH:TYPES` specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSpec {
    /// Relation name used in queries.
    pub name: String,
    /// CSV file path.
    pub path: String,
    /// Column types.
    pub kinds: Vec<DomainKind>,
}

/// Parse a `NAME=PATH:TYPES` table specification.
pub fn parse_table_spec(spec: &str) -> Result<TableSpec, CliError> {
    let usage = || {
        CliError::Usage(format!(
            "bad table spec {spec:?}: expected NAME=PATH:type,type,... \
             (types: int, str, bool, date)"
        ))
    };
    let (name, rest) = spec.split_once('=').ok_or_else(usage)?;
    let (path, types) = rest.rsplit_once(':').ok_or_else(usage)?;
    if name.is_empty() || path.is_empty() || types.is_empty() {
        return Err(usage());
    }
    let kinds = types
        .split(',')
        .map(|t| match t.trim() {
            "int" => Ok(DomainKind::Int),
            "str" => Ok(DomainKind::Str),
            "bool" => Ok(DomainKind::Bool),
            "date" => Ok(DomainKind::Date),
            _ => Err(usage()),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(TableSpec {
        name: name.to_string(),
        path: path.to_string(),
        kinds,
    })
}

/// Parsed one-shot command line.
#[derive(Debug, Default)]
pub struct CliArgs {
    /// Tables to load.
    pub tables: Vec<TableSpec>,
    /// The query text.
    pub query: String,
    /// Whether to print hardware statistics after the result.
    pub stats: bool,
    /// Operator backend: pulse simulator or closed-form columnar scans.
    /// `None` falls back to the `SYSTOLIC_BACKEND` environment variable,
    /// else the simulator. Results and hardware stats are bit-identical either
    /// way; only host speed changes.
    pub backend: Option<Backend>,
    /// Write a Chrome-trace-event JSON file merging the simulated-machine
    /// timeline and the host spans of this run.
    pub trace_out: Option<String>,
}

/// Parsed `sdb serve` command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeArgs {
    /// Listen address.
    pub addr: String,
    /// Operator backend (as in [`CliArgs::backend`]).
    pub backend: Option<Backend>,
    /// Connection worker threads.
    pub workers: usize,
    /// Slow-query log threshold in milliseconds; 0 disables the log.
    pub slow_query_ms: u64,
    /// Durable data directory (`None` = in-memory only).
    pub data_dir: Option<String>,
    /// Buffer-pool capacity of the paged store, in 8 KiB pages: frames for
    /// pages that are read (writes bypass the pool).
    pub pool_pages: usize,
    /// Write one merged Chrome/Perfetto trace covering every query on
    /// shutdown.
    pub trace_out: Option<String>,
    /// Flight-recorder depth: how many recent query profiles `PROFILES`
    /// retains (0 disables the recorder).
    pub profile_history: usize,
    /// Route admitted queries through the cost-based plan compiler
    /// (`--optimize on|off`, default on).
    pub optimize: bool,
}

impl Default for ServeArgs {
    fn default() -> Self {
        let defaults = ServerConfig::default();
        ServeArgs {
            addr: defaults.addr,
            backend: None,
            workers: defaults.workers,
            slow_query_ms: defaults
                .slow_query
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            data_dir: None,
            pool_pages: defaults.pool_pages,
            trace_out: None,
            profile_history: defaults.profile_history,
            optimize: defaults.optimize,
        }
    }
}

/// Parsed `sdb check` command line.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CheckArgs {
    /// Tables forming the catalog the query is checked against. CSV files
    /// are read (for schemas and row counts) but nothing runs.
    pub tables: Vec<TableSpec>,
    /// The query text to analyze.
    pub query: String,
    /// Emit the machine-readable JSON rendering instead of prose.
    pub json: bool,
    /// Run the cost-based plan compiler and print the before/after plans
    /// with per-step costs and accepted rewrites.
    pub explain: bool,
    /// Override every device's array bounds with `--limits A,B,C`. Zeros
    /// are allowed — that is the point: probe how the analyzer proves (or
    /// refutes, SA005) §8 tiling coverage for a hypothetical device.
    pub limits: Option<(usize, usize, usize)>,
    /// Override every memory module's capacity (bytes) with `--memory N` —
    /// probe the §9 staging-capacity check (SA006) for a hypothetical
    /// machine.
    pub memory: Option<u64>,
}

/// Parsed `sdb --connect` command line.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ConnectArgs {
    /// Server address.
    pub addr: String,
    /// Tables to load before the query (may be empty for a running
    /// server that already has them).
    pub tables: Vec<TableSpec>,
    /// The query text (may be empty when only loading or shutting down).
    pub query: String,
    /// Whether to print hardware statistics after the result.
    pub stats: bool,
    /// Ask the server to drain and exit afterwards.
    pub shutdown: bool,
    /// Print the server's Prometheus-style metrics exposition.
    pub metrics: bool,
    /// Scrape the exposition twice, validating both and checking that
    /// counters are monotonic between scrapes.
    pub check_metrics: bool,
    /// Ask a durable server to checkpoint its log.
    pub checkpoint: bool,
    /// Run the query via `PROFILE` and print its end-to-end profile JSON
    /// after the result.
    pub profile: bool,
    /// Dump the server's flight recorder (`PROFILES`), newest first.
    pub profiles: bool,
}

/// Parsed `sdb profile` command line.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ProfileArgs {
    /// Tables to load.
    pub tables: Vec<TableSpec>,
    /// The query text.
    pub query: String,
    /// Whether to print the stats footer after the result too.
    pub stats: bool,
    /// Operator backend (as in [`CliArgs::backend`]).
    pub backend: Option<Backend>,
}

/// Which mode a command line selects.
#[derive(Debug)]
pub enum Command {
    /// Load tables, run one query in-process, print, exit.
    OneShot(CliArgs),
    /// Statically analyze one query against the tables, without running it.
    Check(CheckArgs),
    /// Run one query through an ephemeral in-process server's `PROFILE`
    /// verb and print its end-to-end profile.
    Profile(ProfileArgs),
    /// Run the TCP query service in the foreground.
    Serve(ServeArgs),
    /// Talk to a running service.
    Connect(ConnectArgs),
}

/// Usage text.
pub const USAGE: &str = "usage: sdb --table NAME=PATH:type,type,... [--table ...] [--stats] \
[--backend sim|columnar] [--trace-out FILE] QUERY
       sdb check [--table NAME=PATH:type,...] [--json] [--explain] [--limits A,B,C] \
[--memory BYTES] QUERY
       sdb profile --table NAME=PATH:type,... [--stats] [--backend sim|columnar] QUERY
       sdb serve [--addr HOST:PORT] [--backend sim|columnar] [--workers N] \
[--io threads|poll] [--shards N] [--slow-query-ms MS] \
[--data-dir DIR] [--pool-pages N] [--trace-out FILE] \
[--profile-history N] [--optimize on|off]
       sdb --connect HOST:PORT [--table NAME=PATH:type,...] [--stats] [--profile] \
[--profiles] [--metrics] [--check-metrics] [--checkpoint] [--shutdown] [QUERY]
  types: int, str, bool, date
  query: scan/filter/intersect/difference/union/dedup/project/join/divide
  --backend B: run operators on the pulse simulator (sim, the default) or
               the closed-form bit-packed columnar scanner (columnar); same
               results and hardware stats, much faster host time; default
               via SYSTOLIC_BACKEND, which must name one of the two
  --trace-out FILE: write a Chrome/Perfetto trace of the run (simulated
               machine and host spans on separate process tracks)
  check: statically verify the query (schemas, domains, tiling coverage,
               capacity) and print the typed plan summary or the SA00N
               diagnostics; exits nonzero on rejection, never runs anything
  --json: (check) machine-readable output
  --explain: (check) run the cost-based plan compiler and print the chosen
               plan next to the unoptimized one — accepted rewrites (with
               their algebraic law ids), per-step predicted pulses, and
               the pulses the rewrites save
  profile: run the query via the server's PROFILE verb (on an ephemeral
               in-process server) and print the end-to-end profile — the
               analyzer's predicted rows/tiles/pulse budget next to the
               actuals per plan step, plus queue/lock/WAL waits
  --limits A,B,C: (check) analyze against devices bounded by max_a=A,
               max_b=B, max_cols=C (zeros allowed, to probe SA005)
  --memory BYTES: (check) analyze against memory modules of BYTES capacity
               (to probe the SA006 staging bound)
  serve: run the concurrent query service until SIGINT/SIGTERM
  --io threads|poll: accepted and ignored; every connection is served by
               its own worker thread
  --shards N: accepted and ignored; one machine serves every query
  --slow-query-ms MS: log queries slower than MS to stderr (0 disables)
  --data-dir DIR: persist loads and store(...) queries to a write-ahead log
               under DIR and recover them (byte-identically) on restart
  --pool-pages N: buffer-pool capacity of the paged store, in 8 KiB pages:
               frames for pages that are read (writes bypass the pool)
  --trace-out FILE: (serve) write one merged Chrome/Perfetto trace covering
               every query on shutdown
  --profile-history N: (serve) flight-recorder depth: how many recent query
               profiles PROFILES retains (0 disables)
  --optimize on|off: (serve) route admitted queries through the cost-based
               plan compiler (on, the default); result rows are
               byte-identical either way — off exists to measure the pulse
               difference
  --connect: run the query on a server instead of in-process
  --profile: (connect) run the query via PROFILE and print the profile JSON
  --profiles: (connect) dump the server's flight recorder, newest first
  --metrics: print the server's Prometheus text exposition
  --check-metrics: scrape twice, validate, and check counter monotonicity
  --checkpoint: snapshot a durable server's history and truncate its log
  example: sdb --table emp=emp.csv:str,int --stats 'filter(scan(emp), c1 >= 30)'";

fn flag_value<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a String>,
) -> Result<&'a String, CliError> {
    it.next()
        .ok_or_else(|| CliError::Usage(format!("{flag} requires a value")))
}

fn parse_number(flag: &str, value: &str) -> Result<usize, CliError> {
    value
        .parse()
        .map_err(|_| CliError::Usage(format!("{flag} expects a number, got {value:?}")))
}

fn parse_backend(value: &str) -> Result<Backend, CliError> {
    Backend::parse(value)
        .ok_or_else(|| CliError::Usage(format!("--backend expects sim or columnar, got {value:?}")))
}

/// Parse one-shot command-line arguments (excluding `argv[0]`).
pub fn parse_args(argv: &[String]) -> Result<CliArgs, CliError> {
    let mut args = CliArgs::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--table" => {
                let spec = flag_value("--table", &mut it)?;
                args.tables.push(parse_table_spec(spec)?);
            }
            "--stats" => args.stats = true,
            "--backend" => {
                let value = flag_value("--backend", &mut it)?;
                args.backend = Some(parse_backend(value)?);
            }
            "--trace-out" => {
                args.trace_out = Some(flag_value("--trace-out", &mut it)?.clone());
            }
            "--help" | "-h" => return Err(CliError::Usage(USAGE.to_string())),
            q if !q.starts_with('-') && args.query.is_empty() => args.query = q.to_string(),
            other => {
                return Err(CliError::Usage(format!(
                    "unexpected argument {other:?}\n{USAGE}"
                )))
            }
        }
    }
    if args.query.is_empty() {
        return Err(CliError::Usage(format!("missing query\n{USAGE}")));
    }
    if args.tables.is_empty() {
        return Err(CliError::Usage(format!(
            "at least one --table is required\n{USAGE}"
        )));
    }
    Ok(args)
}

fn parse_serve_args(argv: &[String]) -> Result<ServeArgs, CliError> {
    let mut args = ServeArgs::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => args.addr = flag_value("--addr", &mut it)?.clone(),
            "--backend" => {
                let value = flag_value("--backend", &mut it)?;
                args.backend = Some(parse_backend(value)?);
            }
            "--workers" => {
                let value = flag_value("--workers", &mut it)?;
                args.workers = parse_number("--workers", value)?.max(1);
            }
            "--io" => match flag_value("--io", &mut it)?.as_str() {
                // The one front end serves every connection on its own
                // thread; the old spellings still parse. Stderr, not
                // stdout: scripts read the ready line from stdout.
                value @ ("threads" | "poll") => eprintln!(
                    "sdb serve: --io {value} is ignored; every connection is served thread-per-connection"
                ),
                value => {
                    return Err(CliError::Usage(format!(
                        "--io expects threads or poll, got {value:?}"
                    )))
                }
            },
            "--shards" => {
                // One machine serves every query; the count still parses,
                // like `--io`.
                let value = flag_value("--shards", &mut it)?;
                parse_number("--shards", value)?;
                eprintln!("sdb serve: --shards {value} is ignored; one machine serves every query");
            }
            "--slow-query-ms" => {
                let value = flag_value("--slow-query-ms", &mut it)?;
                args.slow_query_ms = parse_number("--slow-query-ms", value)? as u64;
            }
            "--data-dir" => {
                args.data_dir = Some(flag_value("--data-dir", &mut it)?.clone());
            }
            "--pool-pages" => {
                let value = flag_value("--pool-pages", &mut it)?;
                args.pool_pages = parse_number("--pool-pages", value)?.max(1);
            }
            "--trace-out" => {
                args.trace_out = Some(flag_value("--trace-out", &mut it)?.clone());
            }
            "--profile-history" => {
                let value = flag_value("--profile-history", &mut it)?;
                args.profile_history = parse_number("--profile-history", value)?;
            }
            "--optimize" => {
                let value = flag_value("--optimize", &mut it)?;
                args.optimize = match value.as_str() {
                    "on" => true,
                    "off" => false,
                    other => {
                        return Err(CliError::Usage(format!(
                            "--optimize expects on or off, got {other:?}"
                        )))
                    }
                };
            }
            "--help" | "-h" => return Err(CliError::Usage(USAGE.to_string())),
            other => {
                return Err(CliError::Usage(format!(
                    "unexpected serve argument {other:?}\n{USAGE}"
                )))
            }
        }
    }
    Ok(args)
}

fn parse_check_args(argv: &[String]) -> Result<CheckArgs, CliError> {
    let mut args = CheckArgs::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--table" => {
                let spec = flag_value("--table", &mut it)?;
                args.tables.push(parse_table_spec(spec)?);
            }
            "--json" => args.json = true,
            "--explain" => args.explain = true,
            "--limits" => {
                let value = flag_value("--limits", &mut it)?;
                let parts: Vec<usize> = value
                    .split(',')
                    .map(|p| parse_number("--limits", p.trim()))
                    .collect::<Result<_, _>>()?;
                match parts.as_slice() {
                    &[a, b, c] => args.limits = Some((a, b, c)),
                    _ => {
                        return Err(CliError::Usage(format!(
                            "--limits expects A,B,C (three numbers), got {value:?}"
                        )))
                    }
                }
            }
            "--memory" => {
                let value = flag_value("--memory", &mut it)?;
                args.memory = Some(value.parse().map_err(|_| {
                    CliError::Usage(format!("--memory expects a byte count, got {value:?}"))
                })?);
            }
            "--help" | "-h" => return Err(CliError::Usage(USAGE.to_string())),
            q if !q.starts_with('-') && args.query.is_empty() => args.query = q.to_string(),
            other => {
                return Err(CliError::Usage(format!(
                    "unexpected check argument {other:?}\n{USAGE}"
                )))
            }
        }
    }
    if args.query.is_empty() {
        return Err(CliError::Usage(format!("check needs a query\n{USAGE}")));
    }
    Ok(args)
}

fn parse_connect_args(argv: &[String]) -> Result<ConnectArgs, CliError> {
    let mut args = ConnectArgs::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => args.addr = flag_value("--connect", &mut it)?.clone(),
            "--table" => {
                let spec = flag_value("--table", &mut it)?;
                args.tables.push(parse_table_spec(spec)?);
            }
            "--stats" => args.stats = true,
            "--shutdown" => args.shutdown = true,
            "--metrics" => args.metrics = true,
            "--check-metrics" => args.check_metrics = true,
            "--checkpoint" => args.checkpoint = true,
            "--profile" => args.profile = true,
            "--profiles" => args.profiles = true,
            "--help" | "-h" => return Err(CliError::Usage(USAGE.to_string())),
            q if !q.starts_with('-') && args.query.is_empty() => args.query = q.to_string(),
            other => {
                return Err(CliError::Usage(format!(
                    "unexpected argument {other:?}\n{USAGE}"
                )))
            }
        }
    }
    if args.addr.is_empty() {
        return Err(CliError::Usage("--connect requires an address".to_string()));
    }
    if args.query.is_empty()
        && args.tables.is_empty()
        && !args.shutdown
        && !args.metrics
        && !args.check_metrics
        && !args.checkpoint
        && !args.profiles
    {
        return Err(CliError::Usage(format!(
            "--connect needs a query, tables to load, --metrics, --profiles, --checkpoint, \
             or --shutdown\n{USAGE}"
        )));
    }
    if args.profile && args.query.is_empty() {
        return Err(CliError::Usage(format!(
            "--profile needs a query to profile\n{USAGE}"
        )));
    }
    Ok(args)
}

fn parse_profile_args(argv: &[String]) -> Result<ProfileArgs, CliError> {
    let mut args = ProfileArgs::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--table" => {
                let spec = flag_value("--table", &mut it)?;
                args.tables.push(parse_table_spec(spec)?);
            }
            "--stats" => args.stats = true,
            "--backend" => {
                let value = flag_value("--backend", &mut it)?;
                args.backend = Some(parse_backend(value)?);
            }
            "--help" | "-h" => return Err(CliError::Usage(USAGE.to_string())),
            q if !q.starts_with('-') && args.query.is_empty() => args.query = q.to_string(),
            other => {
                return Err(CliError::Usage(format!(
                    "unexpected profile argument {other:?}\n{USAGE}"
                )))
            }
        }
    }
    if args.query.is_empty() {
        return Err(CliError::Usage(format!("profile needs a query\n{USAGE}")));
    }
    if args.tables.is_empty() {
        return Err(CliError::Usage(format!(
            "profile needs at least one --table\n{USAGE}"
        )));
    }
    Ok(args)
}

/// Classify and parse a command line into its mode.
pub fn parse_command(argv: &[String]) -> Result<Command, CliError> {
    if argv.first().map(String::as_str) == Some("serve") {
        return Ok(Command::Serve(parse_serve_args(&argv[1..])?));
    }
    if argv.first().map(String::as_str) == Some("check") {
        return Ok(Command::Check(parse_check_args(&argv[1..])?));
    }
    if argv.first().map(String::as_str) == Some("profile") {
        return Ok(Command::Profile(parse_profile_args(&argv[1..])?));
    }
    if argv.iter().any(|a| a == "--connect") {
        return Ok(Command::Connect(parse_connect_args(argv)?));
    }
    Ok(Command::OneShot(parse_args(argv)?))
}

fn stats_footer(
    rows: usize,
    makespan_ns: u64,
    total_pulses: u64,
    array_runs: u64,
    bytes_from_disk: u64,
    max_device_concurrency: usize,
    host_wall_ns: u64,
) -> String {
    format!(
        "-- {rows} tuples; makespan {:.3} ms; {total_pulses} array pulses over \
         {array_runs} tile run(s); {bytes_from_disk} bytes from disk; \
         device concurrency {max_device_concurrency}\n\
         -- host: simulated in {:.3} ms\n",
        makespan_ns as f64 / 1e6,
        host_wall_ns as f64 / 1e6,
    )
}

/// Execute a query over in-memory CSV texts (the testable core; the binary
/// reads the files and delegates here). This is exactly the server's
/// engine, run in-process for one query.
pub fn run_query(
    tables: &[(TableSpec, String)],
    query: &str,
    stats: bool,
) -> Result<String, CliError> {
    run_query_traced(tables, query, stats, None, None)
}

/// [`run_query`] plus an explicit backend choice and, when `trace_out` is
/// set, a Chrome-trace-event JSON file merging the simulated-machine
/// timeline and the host spans of this run onto separate process tracks.
pub fn run_query_traced(
    tables: &[(TableSpec, String)],
    query: &str,
    stats: bool,
    backend: Option<Backend>,
    trace_out: Option<&Path>,
) -> Result<String, CliError> {
    let collector = trace_out.map(|_| systolic_telemetry::install());
    let run = run_engine(tables, query, stats, backend);
    let spans = collector.map(|c| {
        systolic_telemetry::uninstall();
        c.drain()
    });
    let (rendered, out) = run?;
    if let (Some(path), Some(spans)) = (trace_out, spans) {
        let trace = build_chrome_trace(&out, &spans);
        trace.write_to(path).map_err(|e| {
            CliError::Io(std::io::Error::new(
                e.kind(),
                format!("cannot write trace to {}: {e}", path.display()),
            ))
        })?;
    }
    Ok(rendered)
}

/// The default machine, on the `--backend` the user named if any.
fn machine_config(backend: Option<Backend>) -> MachineConfig {
    let mut machine = MachineConfig::default();
    if let Some(backend) = backend {
        machine.backend = backend;
    }
    machine
}

fn run_engine(
    tables: &[(TableSpec, String)],
    query: &str,
    stats: bool,
    backend: Option<Backend>,
) -> Result<(String, RunOutcome), CliError> {
    let mut engine = Engine::new(machine_config(backend))?;
    for (spec, text) in tables {
        engine.load_table(&spec.name, &spec.kinds, text)?;
    }
    let out = engine.run_query(query)?;
    let mut rendered = engine.render_csv(&out.result)?;
    if stats {
        rendered.push_str(&stats_footer(
            out.result.len(),
            out.stats.makespan_ns,
            out.stats.total_pulses,
            out.stats.array_runs,
            out.stats.bytes_from_disk,
            out.stats.max_device_concurrency,
            out.host_wall_ns,
        ));
    }
    Ok((rendered, out))
}

/// The two-clock merge: the machine's timeline goes on the simulated-time
/// process track (pulse-carrying events and all), the collected host spans
/// on the host-time track, one thread row per host thread. The clocks are
/// never mixed — each pid has its own time base.
fn build_chrome_trace(out: &RunOutcome, spans: &[SpanRecord]) -> ChromeTrace {
    let mut trace = ChromeTrace::new();
    out.timeline
        .to_chrome(&mut trace, PID_SIMULATED, "simulated machine (pulse time)");
    trace.set_process_name(PID_HOST, "host (wall time)");
    let mut threads: Vec<&str> = spans.iter().map(|s| s.thread.as_str()).collect();
    threads.sort_unstable();
    threads.dedup();
    for (i, t) in threads.iter().enumerate() {
        trace.set_thread_name(PID_HOST, i as u32 + 1, t);
    }
    for s in spans {
        let tid = threads
            .binary_search(&s.thread.as_str())
            .expect("thread indexed above") as u32
            + 1;
        let mut args = vec![
            ("trace_id".to_string(), ArgValue::U64(s.trace_id)),
            ("span_id".to_string(), ArgValue::U64(s.span_id)),
        ];
        for (k, v) in &s.args {
            args.push((k.to_string(), ArgValue::Str(v.clone())));
        }
        trace.complete(
            PID_HOST,
            tid,
            s.name,
            s.start_ns,
            s.end_ns - s.start_ns,
            args,
        );
    }
    trace
}

/// Statically analyze a query over in-memory CSV texts (the testable core
/// of `sdb check`; the binary reads the files and delegates here). Builds
/// the same catalog the one-shot engine would, but never constructs a
/// `System` — acceptance is a proof, not a dry run.
pub fn run_check(
    tables: &[(TableSpec, String)],
    query: &str,
    json: bool,
    explain: bool,
    limits: Option<(usize, usize, usize)>,
    memory: Option<u64>,
) -> Result<String, CliError> {
    let mut store = systolic_server::engine::Store::new();
    for (spec, text) in tables {
        store.register(&spec.name, &spec.kinds, text)?;
    }
    let mut machine = MachineConfig::default();
    if let Some(capacity) = memory {
        machine.memory_capacity = capacity;
    }
    if let Some((max_a, max_b, max_cols)) = limits {
        // Deliberately a struct literal, not `ArrayLimits::new` (which
        // asserts positivity): degenerate bounds are exactly what the
        // SA005 tiling proof exists to catch before a device would.
        for (_, device_limits) in &mut machine.devices {
            *device_limits = ArrayLimits {
                max_a,
                max_b,
                max_cols,
            };
        }
    }
    let view = store.catalog_view();
    match systolic_server::engine::prepare_checked(query, &view, &machine) {
        Ok((expr, analysis)) => {
            if explain {
                // The query just analyzed, so the compiler cannot refuse
                // it; surface the impossible arm as a rejection anyway
                // rather than panicking in a CLI.
                return match systolic_planner::optimize(&expr, &view, &machine) {
                    Ok(choice) => Ok(if json {
                        systolic_planner::json_explain(&choice)
                    } else {
                        systolic_planner::render_explain(&choice)
                    }),
                    Err(diags) => Err(CliError::Rejected(if json {
                        diagnostics_json(&diags)
                    } else {
                        let rendered: Vec<String> = diags.iter().map(|d| d.pretty(query)).collect();
                        rendered.join("\n")
                    })),
                };
            }
            Ok(if json {
                analysis.json()
            } else {
                analysis.render()
            })
        }
        Err(EngineError::Analysis { diags, query }) => Err(CliError::Rejected(if json {
            diagnostics_json(&diags)
        } else {
            let rendered: Vec<String> = diags.iter().map(|d| d.pretty(&query)).collect();
            rendered.join("\n")
        })),
        Err(other) => Err(other.into()),
    }
}

fn run_serve(args: &ServeArgs) -> Result<(), CliError> {
    let defaults = ServerConfig::default();
    systolic_server::run(ServerConfig {
        addr: args.addr.clone(),
        workers: args.workers,
        machine: machine_config(args.backend),
        slow_query: match args.slow_query_ms {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        },
        data_dir: args.data_dir.as_deref().map(std::path::PathBuf::from),
        pool_pages: args.pool_pages,
        trace_out: args.trace_out.as_deref().map(std::path::PathBuf::from),
        profile_history: args.profile_history,
        optimize: args.optimize,
        ..defaults
    })?;
    Ok(())
}

/// Run one query through an ephemeral in-process server's `PROFILE` verb —
/// the testable core of `sdb profile`. Using the real server (rather than
/// re-deriving the profile here) guarantees the printed profile is exactly
/// what a long-lived server would report for the same query.
pub fn run_profile(tables: &[(TableSpec, String)], args: &ProfileArgs) -> Result<String, CliError> {
    let handle = systolic_server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        machine: machine_config(args.backend),
        ..ServerConfig::default()
    })?;
    let run = || -> Result<String, CliError> {
        let mut client = Client::connect(handle.addr)?;
        for (spec, text) in tables {
            let kinds: Vec<&str> = spec.kinds.iter().map(|&k| kind_name(k)).collect();
            client.load_csv(&spec.name, &kinds.join(","), text)?;
        }
        let (result, profile) = client.profile(&args.query)?;
        let _ = client.close();
        let mut out = result.csv.clone();
        if args.stats {
            out.push_str(&stats_footer(
                result.rows,
                result.makespan_ns,
                result.total_pulses,
                result.array_runs,
                result.bytes_from_disk,
                result.max_device_concurrency,
                result.host_ns,
            ));
        }
        out.push_str("-- profile: ");
        out.push_str(&profile);
        out.push('\n');
        Ok(out)
    };
    let out = run();
    handle.shutdown();
    let _ = handle.join();
    out
}

fn run_connect(args: &ConnectArgs) -> Result<String, CliError> {
    let mut client = Client::connect(&args.addr)?;
    let mut out = String::new();
    for spec in &args.tables {
        let text = std::fs::read_to_string(&spec.path)?;
        let kinds: Vec<&str> = spec.kinds.iter().map(|&k| kind_name(k)).collect();
        let rows = client.load_csv(&spec.name, &kinds.join(","), &text)?;
        out.push_str(&format!("loaded {} ({rows} rows)\n", spec.name));
    }
    if !args.query.is_empty() {
        let (result, profile) = if args.profile {
            let (result, profile) = client.profile(&args.query)?;
            (result, Some(profile))
        } else {
            (client.query(&args.query)?, None)
        };
        out.push_str(&result.csv);
        if args.stats {
            out.push_str(&stats_footer(
                result.rows,
                result.makespan_ns,
                result.total_pulses,
                result.array_runs,
                result.bytes_from_disk,
                result.max_device_concurrency,
                result.host_ns,
            ));
        }
        if let Some(profile) = profile {
            out.push_str("-- profile: ");
            out.push_str(&profile);
            out.push('\n');
        }
    }
    if args.profiles {
        let dumped = client.profiles()?;
        out.push_str(&format!(
            "-- flight recorder: {} profile(s)\n",
            dumped.len()
        ));
        for line in &dumped {
            out.push_str(line);
            out.push('\n');
        }
    }
    if args.metrics || args.check_metrics {
        let invalid =
            |msg: String| CliError::Server(ClientError::Protocol(format!("bad metrics: {msg}")));
        let first = client.metrics()?;
        if args.check_metrics {
            let before = prom::validate(&first).map_err(invalid)?;
            let after = prom::validate(&client.metrics()?).map_err(invalid)?;
            prom::counters_monotonic(&before, &after).map_err(invalid)?;
            out.push_str(&format!(
                "metrics ok: {} series, {} families, counters monotonic\n",
                after.samples.len(),
                after.types.len(),
            ));
        } else {
            out.push_str(&first);
        }
    }
    if args.checkpoint {
        let (records, bytes) = client.checkpoint()?;
        out.push_str(&format!("checkpointed {records} records ({bytes} bytes)\n"));
    }
    if args.shutdown {
        client.shutdown_server()?;
        out.push_str("server shutting down\n");
    } else {
        let _ = client.close();
    }
    Ok(out)
}

/// Full CLI entry point over argv (reads CSV files from disk, may serve
/// forever in `serve` mode). A `SYSTOLIC_BACKEND` that names no backend is
/// a usage error up front, whatever the command: every `MachineConfig`
/// default reads it, and falling back to the simulator would run the wrong
/// backend without saying so.
pub fn main_with_args(argv: &[String]) -> Result<String, CliError> {
    Backend::from_env().map_err(CliError::Usage)?;
    match parse_command(argv)? {
        Command::OneShot(args) => {
            let mut tables = Vec::with_capacity(args.tables.len());
            for spec in &args.tables {
                let text = std::fs::read_to_string(&spec.path)?;
                tables.push((spec.clone(), text));
            }
            run_query_traced(
                &tables,
                &args.query,
                args.stats,
                args.backend,
                args.trace_out.as_deref().map(Path::new),
            )
        }
        Command::Check(args) => {
            let mut tables = Vec::with_capacity(args.tables.len());
            for spec in &args.tables {
                let text = std::fs::read_to_string(&spec.path)?;
                tables.push((spec.clone(), text));
            }
            run_check(
                &tables,
                &args.query,
                args.json,
                args.explain,
                args.limits,
                args.memory,
            )
        }
        Command::Profile(args) => {
            let mut tables = Vec::with_capacity(args.tables.len());
            for spec in &args.tables {
                let text = std::fs::read_to_string(&spec.path)?;
                tables.push((spec.clone(), text));
            }
            run_profile(&tables, &args)
        }
        Command::Serve(args) => {
            run_serve(&args)?;
            Ok(String::new())
        }
        Command::Connect(args) => run_connect(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, kinds: Vec<DomainKind>) -> TableSpec {
        TableSpec {
            name: name.into(),
            path: String::new(),
            kinds,
        }
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn table_spec_parsing() {
        let s = parse_table_spec("emp=data/emp.csv:str,int,bool").unwrap();
        assert_eq!(s.name, "emp");
        assert_eq!(s.path, "data/emp.csv");
        assert_eq!(
            s.kinds,
            vec![DomainKind::Str, DomainKind::Int, DomainKind::Bool]
        );
        assert!(parse_table_spec("noequals").is_err());
        assert!(parse_table_spec("a=b").is_err());
        assert!(parse_table_spec("a=b:blob").is_err());
    }

    #[test]
    fn arg_parsing() {
        let args = parse_args(&argv(&["--table", "a=a.csv:int", "--stats", "scan(a)"])).unwrap();
        assert_eq!(args.tables.len(), 1);
        assert!(args.stats);
        assert_eq!(args.query, "scan(a)");
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&argv(&["scan(a)"])).is_err(), "no tables");
    }

    #[test]
    fn the_removed_flags_are_usage_errors_on_every_verb() {
        // A stale `--threads` or `--batch-window` in a script must fail
        // loudly, not be ignored.
        for (flag, args) in [
            (
                "--threads",
                argv(&["--table", "a=a.csv:int", "--threads", "4", "scan(a)"]),
            ),
            (
                "--threads",
                argv(&[
                    "profile",
                    "--table",
                    "a=a.csv:int",
                    "--threads",
                    "4",
                    "scan(a)",
                ]),
            ),
            ("--threads", argv(&["serve", "--threads", "4"])),
            ("--batch-window", argv(&["serve", "--batch-window", "5"])),
        ] {
            match parse_command(&args) {
                Err(CliError::Usage(msg)) => assert!(
                    msg.starts_with("unexpected ") && msg.contains(&format!("argument \"{flag}\"")),
                    "{args:?}: {msg}"
                ),
                other => panic!("{args:?}: expected a usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn command_classification() {
        assert!(matches!(
            parse_command(&argv(&["--table", "a=a.csv:int", "scan(a)"])).unwrap(),
            Command::OneShot(_)
        ));
        match parse_command(&argv(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "8",
            "--io",
            "poll",
        ]))
        .unwrap()
        {
            Command::Serve(s) => {
                assert_eq!(s.addr, "127.0.0.1:0");
                assert_eq!(s.workers, 8);
            }
            other => panic!("expected serve, got {other:?}"),
        }
        // `--io` is accepted and ignored: both spellings parse to the same
        // arguments as leaving it out.
        let plain = parse_command(&argv(&["serve"])).unwrap();
        for io in ["threads", "poll"] {
            let with_io = parse_command(&argv(&["serve", "--io", io])).unwrap();
            assert_eq!(format!("{with_io:?}"), format!("{plain:?}"), "--io {io}");
        }
        // So is `--shards N`: one machine serves every query.
        let with_shards = parse_command(&argv(&["serve", "--shards", "4"])).unwrap();
        assert_eq!(
            format!("{with_shards:?}"),
            format!("{plain:?}"),
            "--shards 4"
        );
        match plain {
            Command::Serve(s) => {
                assert_eq!(s.data_dir, None, "in-memory by default");
            }
            other => panic!("expected serve, got {other:?}"),
        }
        match parse_command(&argv(&[
            "serve",
            "--data-dir",
            "/tmp/sdb-data",
            "--pool-pages",
            "64",
        ]))
        .unwrap()
        {
            Command::Serve(s) => {
                assert_eq!(s.data_dir.as_deref(), Some("/tmp/sdb-data"));
                assert_eq!(s.pool_pages, 64);
            }
            other => panic!("expected serve, got {other:?}"),
        }
        // Clock is the one replacement policy; `--replacer` is no flag.
        match parse_command(&argv(&["serve", "--replacer", "lru"])) {
            Err(CliError::Usage(msg)) => assert!(
                msg.starts_with("unexpected serve argument \"--replacer\""),
                "{msg}"
            ),
            other => panic!("expected a usage error, got {other:?}"),
        }
        match parse_command(&argv(&["--connect", "127.0.0.1:4171", "--checkpoint"])).unwrap() {
            Command::Connect(c) => {
                assert!(c.checkpoint, "--checkpoint alone is a valid connect");
                assert!(c.query.is_empty());
            }
            other => panic!("expected connect, got {other:?}"),
        }
        assert!(matches!(
            parse_command(&argv(&["serve", "--io", "epoll"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_command(&argv(&["serve", "--shards", "many"])),
            Err(CliError::Usage(_))
        ));
        match parse_command(&argv(&[
            "--connect",
            "127.0.0.1:4171",
            "--table",
            "a=a.csv:int",
            "--stats",
            "scan(a)",
        ]))
        .unwrap()
        {
            Command::Connect(c) => {
                assert_eq!(c.addr, "127.0.0.1:4171");
                assert_eq!(c.tables.len(), 1);
                assert!(c.stats);
                assert_eq!(c.query, "scan(a)");
                assert!(!c.shutdown);
            }
            other => panic!("expected connect, got {other:?}"),
        }
        assert!(matches!(
            parse_command(&argv(&["--connect", "addr"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_command(&argv(&["serve", "--what"])),
            Err(CliError::Usage(_))
        ));
        match parse_command(&argv(&["serve"])).unwrap() {
            Command::Serve(s) => assert!(s.optimize, "the plan compiler defaults to on"),
            other => panic!("expected serve, got {other:?}"),
        }
        match parse_command(&argv(&["serve", "--optimize", "off"])).unwrap() {
            Command::Serve(s) => assert!(!s.optimize),
            other => panic!("expected serve, got {other:?}"),
        }
        assert!(matches!(
            parse_command(&argv(&["serve", "--optimize", "maybe"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn check_args_parse() {
        match parse_command(&argv(&[
            "check",
            "--table",
            "a=a.csv:int",
            "--json",
            "--limits",
            "0,32,8",
            "scan(a)",
        ]))
        .unwrap()
        {
            Command::Check(c) => {
                assert_eq!(c.tables.len(), 1);
                assert!(c.json);
                assert!(!c.explain);
                assert_eq!(c.limits, Some((0, 32, 8)));
                assert_eq!(c.query, "scan(a)");
            }
            other => panic!("expected check, got {other:?}"),
        }
        match parse_command(&argv(&[
            "check",
            "--table",
            "a=a.csv:int",
            "--explain",
            "scan(a)",
        ]))
        .unwrap()
        {
            Command::Check(c) => assert!(c.explain),
            other => panic!("expected check, got {other:?}"),
        }
        assert!(matches!(
            parse_command(&argv(&["check"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_command(&argv(&["check", "--limits", "1,2", "scan(a)"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn check_accepts_a_sound_plan_with_a_typed_summary() {
        let emp = (
            spec("emp", vec![DomainKind::Str, DomainKind::Int]),
            "ada,10\ngrace,20\n".to_string(),
        );
        let dept = (
            spec("dept", vec![DomainKind::Int, DomainKind::Str]),
            "10,storage\n".to_string(),
        );
        let out = run_check(
            &[emp.clone(), dept.clone()],
            "join(scan(emp), scan(dept), 1 = 0)",
            false,
            false,
            None,
            None,
        )
        .unwrap();
        assert!(out.contains("plan accepted"), "{out}");
        assert!(out.contains("(str, int, str)"), "{out}");
        assert!(out.contains("tiles"), "{out}");
        let json = run_check(&[emp, dept], "scan(emp)", true, false, None, None).unwrap();
        assert!(json.starts_with("{\"accepted\": true"), "{json}");
    }

    #[test]
    fn check_rejects_with_stable_codes_and_carets() {
        let emp = (
            spec("emp", vec![DomainKind::Str, DomainKind::Int]),
            "ada,10\n".to_string(),
        );
        let err = run_check(
            std::slice::from_ref(&emp),
            "scan(ghost)",
            false,
            false,
            None,
            None,
        )
        .unwrap_err();
        let rendered = err.to_string();
        assert!(rendered.contains("SA007"), "{rendered}");
        assert!(rendered.contains('^'), "{rendered}");
        // JSON rejection carries the code machine-readably.
        let err = run_check(
            std::slice::from_ref(&emp),
            "project(scan(emp), [9])",
            true,
            false,
            None,
            None,
        )
        .unwrap_err();
        match &err {
            CliError::Rejected(json) => {
                assert!(json.contains("\"accepted\": false"), "{json}");
                assert!(json.contains("\"code\": \"SA002\""), "{json}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        // Degenerate --limits trip the SA005 tiling proof.
        let err = run_check(
            std::slice::from_ref(&emp),
            "dedup(scan(emp))",
            false,
            false,
            Some((0, 32, 8)),
            None,
        )
        .unwrap_err();
        assert!(err.to_string().contains("SA005"), "{err}");
        // A starved --memory override trips the SA006 staging bound.
        let err = run_check(&[emp], "scan(emp)", false, false, None, Some(4)).unwrap_err();
        assert!(err.to_string().contains("SA006"), "{err}");
    }

    #[test]
    fn check_explain_reports_rewrites_and_costs() {
        let a = (spec("a", vec![DomainKind::Int]), "1\n2\n3\n".to_string());
        let b = (spec("b", vec![DomainKind::Int]), "2\n4\n".to_string());
        // Union output is distinct by construction, so the trailing dedup
        // is provably redundant and the compiler removes it.
        let out = run_check(
            &[a.clone(), b.clone()],
            "dedup(union(scan(a), scan(b)))",
            false,
            true,
            None,
            None,
        )
        .unwrap();
        assert!(out.contains("plan compiler:"), "{out}");
        assert!(out.contains("dedup-elim"), "{out}");
        assert!(out.contains("pulses predicted"), "{out}");
        assert!(!out.contains("placement"), "{out}");
        let json = run_check(
            &[a, b],
            "dedup(union(scan(a), scan(b)))",
            true,
            true,
            None,
            None,
        )
        .unwrap();
        assert!(json.starts_with("{\"optimizer\":"), "{json}");
        assert!(json.contains("\"rule\": \"dedup-elim\""), "{json}");
    }

    #[test]
    fn backend_flag_parsing() {
        let args = parse_args(&argv(&[
            "--table",
            "a=a.csv:int",
            "--backend",
            "columnar",
            "scan(a)",
        ]))
        .unwrap();
        assert_eq!(args.backend, Some(Backend::Columnar));
        assert_eq!(
            parse_args(&argv(&["--table", "a=a.csv:int", "scan(a)"]))
                .unwrap()
                .backend,
            None,
            "unset flag defers to SYSTOLIC_BACKEND"
        );
        // The removed row-kernel backend is rejected like any unknown name
        // (`tests/backend_selection.rs` covers every mode and the toggle).
        for gone in ["kernel", "turbo"] {
            let args = ["--table", "a=a.csv:int", "--backend", gone, "scan(a)"];
            match parse_args(&argv(&args)) {
                Err(CliError::Usage(msg)) => assert_eq!(
                    msg,
                    format!("--backend expects sim or columnar, got {gone:?}")
                ),
                other => panic!("--backend {gone} must be a usage error, got {other:?}"),
            }
        }
        match parse_command(&argv(&["serve", "--backend", "sim"])).unwrap() {
            Command::Serve(s) => assert_eq!(s.backend, Some(Backend::Sim)),
            other => panic!("expected serve, got {other:?}"),
        }
        match parse_command(&argv(&["serve", "--backend", "columnar"])).unwrap() {
            Command::Serve(s) => assert_eq!(s.backend, Some(Backend::Columnar)),
            other => panic!("expected serve, got {other:?}"),
        }
    }

    #[test]
    fn columnar_backend_output_is_identical_to_sim() {
        let a = (
            spec("a", vec![DomainKind::Int]),
            "1\n2\n2\n3\n4\n".to_string(),
        );
        let b = (spec("b", vec![DomainKind::Int]), "2\n3\n5\n".to_string());
        for query in [
            "intersect(scan(a), scan(b))",
            "union(scan(a), scan(b))",
            "dedup(scan(a))",
            "join(scan(a), scan(b), 0 <= 0)",
        ] {
            let tables = [a.clone(), b.clone()];
            let sim = run_query_traced(&tables, query, false, Some(Backend::Sim), None).unwrap();
            let columnar =
                run_query_traced(&tables, query, false, Some(Backend::Columnar), None).unwrap();
            assert_eq!(columnar, sim, "{query}");
        }
    }

    #[test]
    fn end_to_end_join_query() {
        let emp = (
            spec("emp", vec![DomainKind::Str, DomainKind::Int]),
            "ada,10\ngrace,20\nedsger,30\n".to_string(),
        );
        let dept = (
            spec("dept", vec![DomainKind::Int, DomainKind::Str]),
            "10,storage\n20,query\n".to_string(),
        );
        let out = run_query(&[emp, dept], "join(scan(emp), scan(dept), 1 = 0)", false).unwrap();
        assert!(out.contains("ada,10,storage"));
        assert!(out.contains("grace,20,query"));
        assert!(!out.contains("edsger"));
    }

    #[test]
    fn filter_and_stats_footer() {
        let t = (
            spec("nums", vec![DomainKind::Int, DomainKind::Int]),
            "1,10\n2,20\n3,30\n".to_string(),
        );
        let out = run_query(&[t], "filter(scan(nums), c1 >= 20)", true).unwrap();
        assert!(out.contains("2,20"));
        assert!(out.contains("3,30"));
        assert!(!out.contains("1,10"));
        assert!(out.contains("-- 2 tuples"));
        assert!(out.contains("array pulses"));
    }

    #[test]
    fn set_operations_across_tables() {
        let a = (spec("a", vec![DomainKind::Int]), "1\n2\n3\n".to_string());
        let b = (spec("b", vec![DomainKind::Int]), "2\n3\n4\n".to_string());
        let out = run_query(&[a, b], "intersect(scan(a), scan(b))", false).unwrap();
        let lines: Vec<&str> = out.lines().skip(1).collect();
        assert_eq!(lines, vec!["2", "3"]);
    }

    #[test]
    fn errors_are_surfaced() {
        let t = (spec("a", vec![DomainKind::Int]), "1\n".to_string());
        assert!(matches!(
            run_query(std::slice::from_ref(&t), "explode(scan(a))", false),
            Err(CliError::Query { .. })
        ));
        assert!(matches!(
            run_query(std::slice::from_ref(&t), "scan(missing)", false),
            Err(CliError::Machine(_))
        ));
        assert!(matches!(
            run_query(&[(t.0.clone(), "notanint\n".to_string())], "scan(a)", false),
            Err(CliError::Relation(_))
        ));
    }

    #[test]
    fn parse_errors_display_with_a_caret() {
        let t = (spec("a", vec![DomainKind::Int]), "1\n".to_string());
        let err = run_query(std::slice::from_ref(&t), "explode(scan(a))", false).unwrap_err();
        let rendered = err.to_string();
        assert!(rendered.contains('^'), "{rendered}");
        assert!(rendered.contains("explode(scan(a))"), "{rendered}");
    }

    #[test]
    fn division_via_the_cli() {
        let takes = (
            spec("takes", vec![DomainKind::Str, DomainKind::Str]),
            "ida,db\nida,os\njoe,db\n".to_string(),
        );
        let core = (spec("core", vec![DomainKind::Str]), "db\nos\n".to_string());
        let out = run_query(
            &[takes, core],
            "divide(scan(takes), scan(core), 0, 1, 0)",
            false,
        )
        .unwrap();
        assert!(out.contains("ida"));
        assert!(!out.contains("joe"));
    }

    /// Serializes tests that install the process-global span collector.
    fn trace_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn trace_out_merges_sim_and_host_tracks_with_exact_pulse_totals() {
        use systolic_telemetry::json::{self, Json};

        let _guard = trace_lock();
        let a = (spec("a", vec![DomainKind::Int]), "1\n2\n3\n4\n".to_string());
        let b = (spec("b", vec![DomainKind::Int]), "2\n3\n5\n".to_string());
        let query = "intersect(scan(a), scan(b))";

        // The oracle: the same deterministic run priced without tracing.
        let mut engine = Engine::new(MachineConfig::default()).unwrap();
        for (s, text) in [&a, &b] {
            engine.load_table(&s.name, &s.kinds, text).unwrap();
        }
        let expected_pulses = engine.run_query(query).unwrap().stats.total_pulses;
        assert!(expected_pulses > 0);

        let dir = std::env::temp_dir().join(format!("sdb-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        run_query_traced(&[a, b], query, false, None, Some(&path)).unwrap();

        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let pid_of = |e: &Json| e.get("pid").and_then(Json::as_u64).unwrap();
        // The simulated track's pulse args must total the run's pulses
        // exactly — no ns-to-pulse rounding anywhere.
        let sim_pulses: u64 = events
            .iter()
            .filter(|e| pid_of(e) == PID_SIMULATED as u64)
            .filter_map(|e| e.get("args").and_then(|a| a.get("pulses")))
            .filter_map(Json::as_u64)
            .sum();
        assert_eq!(sim_pulses, expected_pulses);
        // And the host track carries the machine spans of this run.
        let host_names: Vec<&str> = events
            .iter()
            .filter(|e| pid_of(e) == PID_HOST as u64)
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert!(host_names.contains(&"machine.run"), "{host_names:?}");
        assert!(host_names.contains(&"machine.execute"), "{host_names:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_out_to_unwritable_path_fails_cleanly_without_partial_file() {
        let _guard = trace_lock();
        let a = (spec("a", vec![DomainKind::Int]), "1\n".to_string());
        let path = Path::new("/proc/no-such-dir/trace.json");
        let err = run_query_traced(&[a], "scan(a)", false, None, Some(path)).unwrap_err();
        match &err {
            CliError::Io(e) => {
                let msg = e.to_string();
                assert!(msg.contains("cannot write trace to"), "{msg}");
                assert!(msg.contains("/proc/no-such-dir/trace.json"), "{msg}");
            }
            other => panic!("expected a clean io error, got {other:?}"),
        }
        assert!(!path.exists(), "no partial file may be left behind");
    }

    #[test]
    fn connect_metrics_flags_print_and_check_the_exposition() {
        let handle = systolic_server::spawn(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        })
        .unwrap();
        let dir = std::env::temp_dir().join(format!("sdb-metrics-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("m.csv");
        std::fs::write(&csv, "1\n2\n").unwrap();
        let base = ConnectArgs {
            addr: handle.addr.to_string(),
            tables: vec![TableSpec {
                name: "m".into(),
                path: csv.display().to_string(),
                kinds: vec![DomainKind::Int],
            }],
            query: "scan(m)".into(),
            ..ConnectArgs::default()
        };

        let printed = run_connect(&ConnectArgs {
            metrics: true,
            ..base.clone()
        })
        .unwrap();
        assert!(
            printed.contains("# TYPE sdb_server_queries_total counter"),
            "{printed}"
        );
        assert!(
            printed.contains("sdb_request_latency_ns_bucket"),
            "{printed}"
        );

        let checked = run_connect(&ConnectArgs {
            check_metrics: true,
            query: String::new(),
            tables: Vec::new(),
            ..base
        })
        .unwrap();
        assert!(checked.contains("metrics ok:"), "{checked}");
        assert!(checked.contains("counters monotonic"), "{checked}");

        run_connect(&ConnectArgs {
            addr: handle.addr.to_string(),
            shutdown: true,
            ..ConnectArgs::default()
        })
        .unwrap();
        handle.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn profile_args_parse() {
        match parse_command(&argv(&[
            "profile",
            "--table",
            "a=a.csv:int",
            "--stats",
            "--backend",
            "columnar",
            "scan(a)",
        ]))
        .unwrap()
        {
            Command::Profile(p) => {
                assert_eq!(p.tables.len(), 1);
                assert!(p.stats);
                assert_eq!(p.backend, Some(Backend::Columnar));
                assert_eq!(p.query, "scan(a)");
            }
            other => panic!("expected profile, got {other:?}"),
        }
        assert!(matches!(
            parse_command(&argv(&["profile", "scan(a)"])),
            Err(CliError::Usage(_)),
        ));
        assert!(matches!(
            parse_command(&argv(&["profile", "--table", "a=a.csv:int"])),
            Err(CliError::Usage(_)),
        ));
        match parse_command(&argv(&[
            "serve",
            "--trace-out",
            "all.json",
            "--profile-history",
            "8",
        ]))
        .unwrap()
        {
            Command::Serve(s) => {
                assert_eq!(s.trace_out.as_deref(), Some("all.json"));
                assert_eq!(s.profile_history, 8);
            }
            other => panic!("expected serve, got {other:?}"),
        }
        match parse_command(&argv(&["--connect", "127.0.0.1:1", "--profile", "scan(a)"])).unwrap() {
            Command::Connect(c) => assert!(c.profile),
            other => panic!("expected connect, got {other:?}"),
        }
        // --profile without a query is incomplete; --profiles alone is fine.
        assert!(matches!(
            parse_command(&argv(&["--connect", "127.0.0.1:1", "--profile"])),
            Err(CliError::Usage(_)),
        ));
        match parse_command(&argv(&["--connect", "127.0.0.1:1", "--profiles"])).unwrap() {
            Command::Connect(c) => assert!(c.profiles),
            other => panic!("expected connect, got {other:?}"),
        }
    }

    #[test]
    fn profile_mode_prints_result_and_one_line_profile() {
        use systolic_telemetry::json::{self, Json};

        let nums = (
            spec("nums", vec![DomainKind::Int, DomainKind::Int]),
            "1,10\n2,20\n3,30\n".to_string(),
        );
        let args = ProfileArgs {
            query: "filter(scan(nums), c1 >= 20)".into(),
            stats: true,
            ..ProfileArgs::default()
        };
        let out = run_profile(std::slice::from_ref(&nums), &args).unwrap();
        assert!(out.contains("2,20"), "{out}");
        assert!(out.contains("-- 2 tuples"), "{out}");
        let profile_line = out
            .lines()
            .find_map(|l| l.strip_prefix("-- profile: "))
            .expect("profile line");
        let doc = json::parse(profile_line).expect("profile is valid JSON");
        assert_eq!(
            doc.get("query").and_then(Json::as_str),
            Some("filter(scan(nums), c1 >= 20)")
        );
        let predicted = doc.get("predicted").unwrap();
        let actual = doc.get("actual").unwrap();
        let budget = predicted
            .get("pulse_budget")
            .and_then(Json::as_u64)
            .unwrap();
        let pulses = actual.get("pulses").and_then(Json::as_u64).unwrap();
        assert!(budget >= pulses, "budget {budget} < actual {pulses}");
        assert_eq!(actual.get("rows").and_then(Json::as_u64), Some(2));
        assert!(doc.get("steps").and_then(Json::as_array).is_some());
    }

    #[test]
    fn connect_profile_and_profiles_flags_round_trip() {
        let handle = systolic_server::spawn(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        })
        .unwrap();
        let dir = std::env::temp_dir().join(format!("sdb-profile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("p.csv");
        std::fs::write(&csv, "1\n2\n").unwrap();
        let out = run_connect(&ConnectArgs {
            addr: handle.addr.to_string(),
            tables: vec![TableSpec {
                name: "p".into(),
                path: csv.display().to_string(),
                kinds: vec![DomainKind::Int],
            }],
            query: "scan(p)".into(),
            profile: true,
            profiles: true,
            ..ConnectArgs::default()
        })
        .unwrap();
        assert!(out.contains("-- profile: {\"query\":\"scan(p)\""), "{out}");
        assert!(out.contains("-- flight recorder: 1 profile(s)"), "{out}");
        run_connect(&ConnectArgs {
            addr: handle.addr.to_string(),
            shutdown: true,
            ..ConnectArgs::default()
        })
        .unwrap();
        handle.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn new_flags_parse() {
        let args = parse_args(&argv(&[
            "--table",
            "a=a.csv:int",
            "--trace-out",
            "t.json",
            "scan(a)",
        ]))
        .unwrap();
        assert_eq!(args.trace_out.as_deref(), Some("t.json"));
        match parse_command(&argv(&["serve", "--slow-query-ms", "250"])).unwrap() {
            Command::Serve(s) => assert_eq!(s.slow_query_ms, 250),
            other => panic!("expected serve, got {other:?}"),
        }
        match parse_command(&argv(&["--connect", "127.0.0.1:1", "--check-metrics"])).unwrap() {
            Command::Connect(c) => {
                assert!(c.check_metrics);
                assert!(!c.metrics);
            }
            other => panic!("expected connect, got {other:?}"),
        }
        // --metrics alone is a complete connect command.
        assert!(parse_connect_args(&argv(&["--connect", "127.0.0.1:1", "--metrics"])).is_ok());
    }

    #[test]
    fn connect_mode_round_trips_against_a_live_server() {
        let handle = systolic_server::spawn(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        })
        .unwrap();
        let dir = std::env::temp_dir().join(format!("sdb-connect-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("nums.csv");
        std::fs::write(&csv, "1,10\n2,20\n3,30\n").unwrap();

        let out = run_connect(&ConnectArgs {
            addr: handle.addr.to_string(),
            tables: vec![TableSpec {
                name: "nums".into(),
                path: csv.display().to_string(),
                kinds: vec![DomainKind::Int, DomainKind::Int],
            }],
            query: "filter(scan(nums), c1 >= 20)".into(),
            stats: true,
            ..ConnectArgs::default()
        })
        .unwrap();
        assert!(out.contains("loaded nums (3 rows)"), "{out}");
        assert!(out.contains("2,20"), "{out}");
        assert!(out.contains("3,30"), "{out}");
        assert!(out.contains("-- 2 tuples"), "{out}");
        assert!(out.contains("-- host:"), "{out}");

        // The remote answer matches the in-process one-shot path exactly
        // (minus the load echo and the nondeterministic host line).
        let local = run_query(
            &[(
                spec("nums", vec![DomainKind::Int, DomainKind::Int]),
                "1,10\n2,20\n3,30\n".to_string(),
            )],
            "filter(scan(nums), c1 >= 20)",
            false,
        )
        .unwrap();
        assert!(out.contains(&local), "{out}\nvs\n{local}");

        let bye = run_connect(&ConnectArgs {
            addr: handle.addr.to_string(),
            shutdown: true,
            ..ConnectArgs::default()
        })
        .unwrap();
        assert!(bye.contains("shutting down"));
        handle.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
