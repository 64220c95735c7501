//! A small blocking client for the wire protocol — used by `sdb --connect`,
//! the end-to-end tests, and the throughput benchmark.

use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use systolic_telemetry::TraceCtx;

use crate::frame::escape;
use crate::protocol::{
    parse_checkpointed_frame, parse_host_frame, parse_metrics_frame, parse_profile_frame,
    parse_profiles_frame, parse_result_frame, parse_spans_frame, queryc_request,
};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server sent something the client could not interpret.
    Protocol(String),
    /// The server answered with an `ERR` frame.
    Remote {
        /// The error kind (`parse`, `machine`, `timeout`, ...).
        kind: String,
        /// Unescaped human-readable detail (multi-line for parse errors).
        detail: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Remote { kind, detail } => write!(f, "server error ({kind}): {detail}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A successful query answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// Result row count.
    pub rows: usize,
    /// Simulated makespan in nanoseconds.
    pub makespan_ns: u64,
    /// Total array pulses.
    pub total_pulses: u64,
    /// Physical array invocations.
    pub array_runs: u64,
    /// Bytes delivered by the simulated disk.
    pub bytes_from_disk: u64,
    /// Maximum simultaneous devices.
    pub max_device_concurrency: usize,
    /// Result CSV.
    pub csv: String,
    /// Host wall-clock nanoseconds (nondeterministic; from the `HOST`
    /// frame).
    pub host_ns: u64,
    /// The raw `RESULT` frame, byte-for-byte — what determinism tests
    /// compare.
    pub raw: String,
}

/// A connected session.
pub struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { reader, stream })
    }

    fn send(&mut self, frame: &str) -> Result<(), ClientError> {
        self.stream.write_all(frame.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()?;
        Ok(())
    }

    fn recv(&mut self) -> Result<String, ClientError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Protocol(
                "server closed the connection".to_string(),
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Interpret an `ERR` frame as a [`ClientError::Remote`].
    fn check_err(frame: &str) -> Result<(), ClientError> {
        let Some(body) = frame.strip_prefix("ERR ") else {
            return Ok(());
        };
        let (kind, detail) = body.split_once(' ').unwrap_or((body, ""));
        // Parse errors carry a structured `at=<byte>` field before the
        // detail; fold it into the kind's detail text.
        let (kind, detail) = match detail.split_once(' ') {
            Some((at, rest)) if kind == "parse" && at.starts_with("at=") => (kind, rest),
            // Analysis frames carry `SA00N [at=<s>..<e>]` before the detail;
            // the caret rendering repeats the code, so nothing is lost.
            Some((code, rest)) if kind == "analysis" && code.starts_with("SA") => {
                match rest.split_once(' ') {
                    Some((at, tail)) if at.starts_with("at=") => (kind, tail),
                    _ => (kind, rest),
                }
            }
            _ => (kind, detail),
        };
        Err(ClientError::Remote {
            kind: kind.to_string(),
            detail: crate::frame::unescape(detail).unwrap_or_else(|_| detail.to_string()),
        })
    }

    /// Register a CSV table; `kinds` is the comma-separated type list
    /// (`int,str,bool,date`). Returns the row count.
    pub fn load_csv(&mut self, name: &str, kinds: &str, csv: &str) -> Result<usize, ClientError> {
        self.send(&format!("LOAD {name} {kinds} {}", escape(csv)))?;
        let frame = self.recv()?;
        Self::check_err(&frame)?;
        frame
            .strip_prefix(&format!("LOADED {name} rows="))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| ClientError::Protocol(format!("expected LOADED frame, got {frame:?}")))
    }

    /// Run a query and parse the answer.
    pub fn query(&mut self, query: &str) -> Result<QueryResult, ClientError> {
        let (raw, host) = self.raw_query_frames(query)?;
        let fields = parse_result_frame(&raw).map_err(ClientError::Protocol)?;
        let host_ns = parse_host_frame(&host).map_err(ClientError::Protocol)?;
        Ok(QueryResult {
            rows: fields.rows,
            makespan_ns: fields.makespan_ns,
            total_pulses: fields.total_pulses,
            array_runs: fields.array_runs,
            bytes_from_disk: fields.bytes_from_disk,
            max_device_concurrency: fields.max_device_concurrency,
            csv: fields.csv,
            host_ns,
            raw,
        })
    }

    /// Run a query via `QUERYC` and return the raw `RESULT` frame, the
    /// per-plan-step output cardinalities from the `CARDS` frame, and the
    /// host nanoseconds — the shard-router protocol, also usable directly.
    pub fn query_cards(&mut self, query: &str) -> Result<(String, Vec<u64>, u64), ClientError> {
        self.send_query_cards(query, None)?;
        let (result, cards, host_ns, _spans) = self.recv_query_cards(false)?;
        Ok((result, cards, host_ns))
    }

    /// Send a `QUERYC` frame without waiting for the answer (the router
    /// fans one out to every shard before reading any reply, so the shards
    /// compute concurrently). A `trace` stamp asks the shard to trail its
    /// answer with a `SPANS` batch parented under that context.
    pub(crate) fn send_query_cards(
        &mut self,
        query: &str,
        trace: Option<TraceCtx>,
    ) -> Result<(), ClientError> {
        self.send(&queryc_request(query, trace))
    }

    /// Read one `QUERYC` answer: `RESULT` + `CARDS` + `HOST`, plus the
    /// `SPANS` trailer when the request carried a trace stamp.
    pub(crate) fn recv_query_cards(
        &mut self,
        expect_spans: bool,
    ) -> Result<(String, Vec<u64>, u64, Option<String>), ClientError> {
        let result = self.recv()?;
        Self::check_err(&result)?;
        if !result.starts_with("RESULT ") {
            return Err(ClientError::Protocol(format!(
                "expected RESULT frame, got {result:?}"
            )));
        }
        let cards_line = self.recv()?;
        Self::check_err(&cards_line)?;
        let cards =
            crate::protocol::parse_cards_frame(&cards_line).map_err(ClientError::Protocol)?;
        let host = self.recv()?;
        Self::check_err(&host)?;
        let host_ns = crate::protocol::parse_host_frame(&host).map_err(ClientError::Protocol)?;
        let spans = if expect_spans {
            let frame = self.recv()?;
            Self::check_err(&frame)?;
            Some(parse_spans_frame(&frame).map_err(ClientError::Protocol)?)
        } else {
            None
        };
        Ok((result, cards, host_ns, spans))
    }

    /// Run a query via `PROFILE` and return the parsed answer plus the
    /// single-line JSON query profile the server inserted between the
    /// (byte-identical) `RESULT` frame and `HOST`.
    pub fn profile(&mut self, query: &str) -> Result<(QueryResult, String), ClientError> {
        self.send(&format!("PROFILE {query}"))?;
        let raw = self.recv()?;
        Self::check_err(&raw)?;
        if !raw.starts_with("RESULT ") {
            return Err(ClientError::Protocol(format!(
                "expected RESULT frame, got {raw:?}"
            )));
        }
        let profile_line = self.recv()?;
        Self::check_err(&profile_line)?;
        let profile = parse_profile_frame(&profile_line).map_err(ClientError::Protocol)?;
        let host = self.recv()?;
        Self::check_err(&host)?;
        let fields = parse_result_frame(&raw).map_err(ClientError::Protocol)?;
        let host_ns = parse_host_frame(&host).map_err(ClientError::Protocol)?;
        Ok((
            QueryResult {
                rows: fields.rows,
                makespan_ns: fields.makespan_ns,
                total_pulses: fields.total_pulses,
                array_runs: fields.array_runs,
                bytes_from_disk: fields.bytes_from_disk,
                max_device_concurrency: fields.max_device_concurrency,
                csv: fields.csv,
                host_ns,
                raw,
            },
            profile,
        ))
    }

    /// Dump the server's flight recorder: the retained recent query
    /// profiles as single-line JSON texts, newest first.
    pub fn profiles(&mut self) -> Result<Vec<String>, ClientError> {
        self.send("PROFILES")?;
        let frame = self.recv()?;
        Self::check_err(&frame)?;
        parse_profiles_frame(&frame).map_err(ClientError::Protocol)
    }

    /// Run a query and return the raw (`RESULT`, `HOST`) frame pair —
    /// what byte-identity checks compare.
    pub fn raw_query_frames(&mut self, query: &str) -> Result<(String, String), ClientError> {
        self.send_query(query)?;
        self.recv_query_frames()
    }

    /// Send one `QUERY` frame without waiting for the answer. Pairs with
    /// [`Client::recv_query_frames`]; together they let a test or benchmark
    /// hold requests in flight on *many* connections at once (send on every
    /// connection first, then collect).
    pub fn send_query(&mut self, query: &str) -> Result<(), ClientError> {
        self.send(&format!("QUERY {query}"))
    }

    /// Read one (`RESULT`, `HOST`) answer pair for a previously sent
    /// query. An `ERR` answer is a single frame — this returns the
    /// [`ClientError::Remote`] after consuming exactly that frame, so the
    /// connection stays aligned for the next answer.
    pub fn recv_query_frames(&mut self) -> Result<(String, String), ClientError> {
        let result = self.recv()?;
        Self::check_err(&result)?;
        if !result.starts_with("RESULT ") {
            return Err(ClientError::Protocol(format!(
                "expected RESULT frame, got {result:?}"
            )));
        }
        let host = self.recv()?;
        Self::check_err(&host)?;
        Ok((result, host))
    }

    /// Send every query back-to-back without waiting for answers, then
    /// read the (`RESULT`, `HOST`) frame pairs in request order. The server
    /// answers pipelined frames one at a time off its read buffer.
    pub fn pipeline_queries(
        &mut self,
        queries: &[&str],
    ) -> Result<Vec<(String, String)>, ClientError> {
        let mut batch = String::new();
        for q in queries {
            batch.push_str("QUERY ");
            batch.push_str(q);
            batch.push('\n');
        }
        self.stream.write_all(batch.as_bytes())?;
        self.stream.flush()?;
        let mut out = Vec::with_capacity(queries.len());
        for _ in queries {
            let result = self.recv()?;
            Self::check_err(&result)?;
            if !result.starts_with("RESULT ") {
                return Err(ClientError::Protocol(format!(
                    "expected RESULT frame, got {result:?}"
                )));
            }
            let host = self.recv()?;
            Self::check_err(&host)?;
            out.push((result, host));
        }
        Ok(out)
    }

    /// Fetch the raw `STATS` frame.
    pub fn stats_line(&mut self) -> Result<String, ClientError> {
        self.send("STATS")?;
        let frame = self.recv()?;
        Self::check_err(&frame)?;
        Ok(frame)
    }

    /// Fetch the Prometheus-style text exposition (unescaped, multi-line).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        self.send("METRICS")?;
        let frame = self.recv()?;
        Self::check_err(&frame)?;
        parse_metrics_frame(&frame).map_err(ClientError::Protocol)
    }

    /// Ask a durable server to checkpoint its log. Returns the number of
    /// history records snapshotted and the snapshot's byte size.
    pub fn checkpoint(&mut self) -> Result<(u64, u64), ClientError> {
        self.send("CHECKPOINT")?;
        let frame = self.recv()?;
        Self::check_err(&frame)?;
        parse_checkpointed_frame(&frame).map_err(ClientError::Protocol)
    }

    /// End the session politely.
    pub fn close(&mut self) -> Result<(), ClientError> {
        self.send("CLOSE")?;
        let frame = self.recv()?;
        Self::check_err(&frame)?;
        Ok(())
    }

    /// Ask the server to drain and exit.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.send("SHUTDOWN")?;
        let frame = self.recv()?;
        Self::check_err(&frame)?;
        Ok(())
    }
}
