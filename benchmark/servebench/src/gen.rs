//! Seeded inputs. Every table, predicate constant and op order comes from
//! here and from `--seed`; the server only ever sees what this generates.

use std::fmt;

use crate::rng::Rng;

/// `QUERY` frames pipelined per `batch_reads` round. Two rounds in flight
/// (14) stay under the server's `max_batch` of 16: at 16 the admission window
/// closes the moment both rounds are in, and a run flips between that mode
/// and the timed-out window depending on how the two clients fall in phase.
pub const ROUND: usize = 7;

/// A cell of a generated table.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Val {
    /// An `int` column value.
    Int(i64),
    /// A `str` column value (letters and digits only, so CSV never quotes).
    Str(String),
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Int(v) => write!(f, "{v}"),
            Val::Str(s) => f.write_str(s),
        }
    }
}

/// A generated row.
pub type Row = Vec<Val>;

/// A generated base relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Relation name.
    pub name: String,
    /// Rows, in load order.
    pub rows: Vec<Row>,
}

impl Table {
    /// The wire type list (`int,int,str`), read off the first row.
    pub fn kinds(&self) -> String {
        let kinds: Vec<&str> = self.rows[0]
            .iter()
            .map(|v| match v {
                Val::Int(_) => "int",
                Val::Str(_) => "str",
            })
            .collect();
        kinds.join(",")
    }

    /// Header-less CSV text, one line per row.
    pub fn csv(&self) -> String {
        render_rows(&self.rows)
    }

    /// The `LOAD` request frame for this table.
    pub fn load_frame(&self) -> String {
        format!(
            "LOAD {} {} {}",
            self.name,
            self.kinds(),
            self.csv().replace('\n', "\\n")
        )
    }
}

/// Rows as CSV lines (no header).
pub fn render_rows(rows: &[Row]) -> String {
    let mut out = String::new();
    for row in rows {
        for (k, v) in row.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&v.to_string());
        }
        out.push('\n');
    }
    out
}

/// A comparison in a filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `>=`
    Ge,
    /// `=`
    Eq,
}

/// A generated query. Kept as a tree so the text sent to the server and the
/// benchmark's own evaluation ([`crate::oracle`]) come from one value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Q {
    /// `scan(name)`
    Scan(String),
    /// `filter(inner, c<col> <cmp> <value>)`
    Filter(Box<Q>, usize, Cmp, i64),
    /// `intersect(a, b)`
    Intersect(Box<Q>, Box<Q>),
    /// `union(a, b)`
    Union(Box<Q>, Box<Q>),
    /// `difference(a, b)`
    Difference(Box<Q>, Box<Q>),
    /// `dedup(inner)`
    Dedup(Box<Q>),
    /// `join(a, b, <ca> = <cb>)`
    Join(Box<Q>, Box<Q>, usize, usize),
    /// `divide(a, b, key, ca, cb)`
    Divide(Box<Q>, Box<Q>, usize, usize, usize),
    /// `store(inner, name)`
    Store(Box<Q>, String),
}

impl Q {
    fn scan(name: &str) -> Box<Q> {
        Box::new(Q::Scan(name.to_string()))
    }

    fn filter_ge(name: &str, col: usize, value: i64) -> Q {
        Q::Filter(Q::scan(name), col, Cmp::Ge, value)
    }
}

impl fmt::Display for Q {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Q::Scan(name) => write!(f, "scan({name})"),
            Q::Filter(inner, col, cmp, value) => {
                let op = match cmp {
                    Cmp::Ge => ">=",
                    Cmp::Eq => "=",
                };
                write!(f, "filter({inner}, c{col} {op} {value})")
            }
            Q::Intersect(a, b) => write!(f, "intersect({a}, {b})"),
            Q::Union(a, b) => write!(f, "union({a}, {b})"),
            Q::Difference(a, b) => write!(f, "difference({a}, {b})"),
            Q::Dedup(inner) => write!(f, "dedup({inner})"),
            Q::Join(a, b, ca, cb) => write!(f, "join({a}, {b}, {ca} = {cb})"),
            Q::Divide(a, b, key, ca, cb) => write!(f, "divide({a}, {b}, {key}, {ca}, {cb})"),
            Q::Store(inner, name) => write!(f, "store({inner}, {name})"),
        }
    }
}

/// The six traffic mixes. Why each exists is in [`crate::spec::why`] (and
/// `BENCHMARK.json`); the README has the full table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One small query at a time: the front end's fixed costs.
    PointReads,
    /// Pipelined rounds: merged admission, fused scans, batch CSE.
    BatchReads,
    /// 2048-row operator queries on the columnar backend.
    ScanReads,
    /// The same operator queries on the pulse simulator.
    SimReads,
    /// The shard router: fan-out, merge, re-pricing, fallback.
    ShardedReads,
    /// Reads beside durable writes, ending in a crash and a restart.
    DurableMix,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 6] = [
        Workload::PointReads,
        Workload::BatchReads,
        Workload::ScanReads,
        Workload::SimReads,
        Workload::ShardedReads,
        Workload::DurableMix,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PointReads => "point_reads",
            Workload::BatchReads => "batch_reads",
            Workload::ScanReads => "scan_reads",
            Workload::SimReads => "sim_reads",
            Workload::ShardedReads => "sharded_reads",
            Workload::DurableMix => "durable_mix",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `sdb serve` flags beyond `--addr`/`--data-dir`. Everything not
    /// listed stays at the server's default, so a later change to a default
    /// is measured, not masked.
    pub fn server_flags(self) -> &'static [&'static str] {
        match self {
            Workload::PointReads | Workload::ScanReads | Workload::DurableMix => {
                &["--backend", "columnar"]
            }
            Workload::BatchReads => &["--backend", "columnar", "--io", "poll"],
            Workload::SimReads => &["--backend", "sim"],
            Workload::ShardedReads => &["--backend", "columnar", "--io", "poll", "--shards", "2"],
        }
    }

    /// Closed-loop client threads, one connection each. Every client of this
    /// server (`sdb --connect`, `systolic_server::Client`) waits for its
    /// reply, so the loop is closed. Two match the sandbox's two cores —
    /// except where one query occupies the machine for many milliseconds:
    /// there a second client makes runs flip between two modes (both queries
    /// merged into one schedule, or each waiting out the other's), decided by
    /// whether the slower CSV render misses the next admission window.
    pub fn clients(self) -> usize {
        match self {
            Workload::ScanReads | Workload::SimReads => 1,
            _ => 2,
        }
    }

    /// Whether each op is a pipelined round of [`ROUND`] queries.
    pub fn pipelined(self) -> bool {
        self == Workload::BatchReads
    }

    /// Whether the server runs on a `--data-dir` and the stream has writes.
    pub fn durable(self) -> bool {
        self == Workload::DurableMix
    }

    /// Whether the shard router is in front.
    pub fn sharded(self) -> bool {
        self == Workload::ShardedReads
    }
}

/// Everything a workload sends, generated from the seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// Base relations, loaded at set-up in this order.
    pub tables: Vec<Table>,
    /// The distinct read queries. The warm-up pass runs each once and keeps
    /// its `RESULT` frame as the reference; op streams refer to them by index.
    pub queries: Vec<Q>,
    /// `durable_mix` only: row sets the fresh-named `LOAD`s cycle through.
    pub write_pool: Vec<Vec<Row>>,
}

/// Rows of one `durable_mix` write.
const WRITE_ROWS: usize = 256;

/// Generate a workload's inputs.
pub fn inputs(workload: Workload, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 1);
    match workload {
        Workload::PointReads => small(&mut rng, 16, false),
        Workload::BatchReads => small(&mut rng, 32, false),
        Workload::DurableMix => small(&mut rng, 16, true),
        Workload::ScanReads => operators(&mut rng, 2048, 16),
        Workload::SimReads => operators(&mut rng, 96, 8),
        Workload::ShardedReads => sharded(&mut rng),
    }
}

fn int_row(values: &[i64]) -> Row {
    values.iter().map(|&v| Val::Int(v)).collect()
}

/// `emp` (256 rows), `a` and `b` (64 rows each): small enough that machine
/// work is microseconds. `filters` cheap selections over `emp`, stratified
/// so mean selectivity does not move with the seed, then one intersection
/// and one remove-duplicates so the arrays (and the pulse count) are used.
fn small(rng: &mut Rng, filters: usize, writes: bool) -> Inputs {
    let mut ids: Vec<i64> = (0..256).collect();
    rng.shuffle(&mut ids);
    let emp = ids
        .iter()
        .map(|&id| int_row(&[id, rng.below(960) as i64, rng.below(16) as i64]))
        .collect();
    let mut a: Vec<Row> = (0..48)
        .map(|_| int_row(&[rng.below(64) as i64, rng.below(64) as i64]))
        .collect();
    for _ in 0..16 {
        let dup = a[rng.below(48) as usize].clone();
        a.push(dup);
    }
    rng.shuffle(&mut a);
    let mut b: Vec<Row> = (0..32).map(|k| a[2 * k].clone()).collect();
    b.extend((0..32).map(|_| int_row(&[rng.below(64) as i64, 64 + rng.below(64) as i64])));
    rng.shuffle(&mut b);
    let band = 960 / filters as u64;
    let mut queries: Vec<Q> = (0..filters as u64)
        .map(|i| Q::filter_ge("emp", 1, (i * band + rng.below(band)) as i64))
        .collect();
    queries.push(Q::Intersect(Q::scan("a"), Q::scan("b")));
    queries.push(Q::Dedup(Q::scan("a")));
    let write_pool = if writes {
        (0..8)
            .map(|_| {
                (0..WRITE_ROWS)
                    .map(|_| int_row(&[rng.below(100_000) as i64, rng.below(100_000) as i64]))
                    .collect()
            })
            .collect()
    } else {
        Vec::new()
    };
    Inputs {
        tables: vec![
            Table {
                name: "emp".into(),
                rows: emp,
            },
            Table {
                name: "a".into(),
                rows: a,
            },
            Table {
                name: "b".into(),
                rows: b,
            },
        ],
        queries,
        write_pool,
    }
}

/// `r` and `s` (`n` rows × 2 ints over a domain of `2n`) and the divisor `d`
/// (`nd` rows): the seven operator queries of the paper, sized so the
/// machine and the operator kernels dominate. A quarter of `r` is complete
/// `(key, y)` groups so the quotient is not empty, an eighth repeats earlier
/// rows so remove-duplicates has work, and half of `s` comes from `r` so the
/// set operations keep about half.
fn operators(rng: &mut Rng, n: usize, nd: usize) -> Inputs {
    let domain = 2 * n as u64;
    let pick = |rng: &mut Rng| rng.below(domain) as i64;
    let mut divisor: Vec<i64> = Vec::new();
    while divisor.len() < nd {
        let y = pick(rng);
        if !divisor.contains(&y) {
            divisor.push(y);
        }
    }
    let mut r: Vec<Row> = Vec::with_capacity(n);
    for _ in 0..n / (4 * nd) {
        let key = pick(rng);
        r.extend(divisor.iter().map(|&y| int_row(&[key, y])));
    }
    while r.len() < n - n / 8 {
        r.push(int_row(&[pick(rng), pick(rng)]));
    }
    while r.len() < n {
        let dup = r[rng.below(r.len() as u64) as usize].clone();
        r.push(dup);
    }
    rng.shuffle(&mut r);
    let mut s: Vec<Row> = (0..n / 2)
        .map(|_| r[rng.below(n as u64) as usize].clone())
        .collect();
    s.extend((0..n - n / 2).map(|_| int_row(&[pick(rng), pick(rng)])));
    rng.shuffle(&mut s);
    let threshold = (domain / 2 + rng.below(domain / 16)) as i64;
    let (rs, ss) = (|| Q::scan("r"), || Q::scan("s"));
    let queries = vec![
        Q::Intersect(rs(), ss()),
        Q::Union(rs(), ss()),
        Q::Difference(rs(), ss()),
        Q::Dedup(rs()),
        Q::Join(rs(), ss(), 0, 0),
        Q::filter_ge("r", 1, threshold),
        Q::Divide(rs(), Q::scan("d"), 0, 1, 0),
    ];
    Inputs {
        tables: vec![
            Table {
                name: "r".into(),
                rows: r,
            },
            Table {
                name: "s".into(),
                rows: s,
            },
            Table {
                name: "d".into(),
                rows: divisor.iter().map(|&y| int_row(&[y])).collect(),
            },
        ],
        queries,
        write_pool: Vec::new(),
    }
}

/// `dept` (64 rows) and `emp` (512 rows). Eight queries the router accepts
/// (int filters, first-column equi-joins, a remove-duplicates) and four it
/// declines (an equality on a string column, a join not on the first
/// column). `dept` is loaded first with its names ascending, so a string's
/// §2.3 code is its rank whether the dictionary interns in arrival order
/// (today) or preserves order (ROADMAP item 3).
fn sharded(rng: &mut Rng) -> Inputs {
    let dept_name = |id: i64| Val::Str(format!("d{id:02}"));
    let dept: Vec<Row> = (0..64)
        .map(|id| vec![Val::Int(id), dept_name(id)])
        .collect();
    let mut ids: Vec<i64> = (0..512).collect();
    rng.shuffle(&mut ids);
    let emp: Vec<Row> = ids
        .iter()
        .map(|&id| {
            let dept_id = rng.below(64) as i64;
            vec![Val::Int(id), Val::Int(dept_id), dept_name(dept_id)]
        })
        .collect();
    let (e, d) = (|| Q::scan("emp"), || Q::scan("dept"));
    let mut queries: Vec<Q> = (0..5u64)
        .map(|i| Q::filter_ge("emp", 1, (i * 12 + rng.below(12)) as i64))
        .collect();
    queries.push(Q::Join(e(), d(), 0, 0));
    queries.push(Q::Dedup(d()));
    queries.push(Q::Join(
        // A narrow band: this filter's output feeds an array, so its
        // selectivity sets the workload's pulse count.
        Box::new(Q::filter_ge("emp", 1, 30 + rng.below(4) as i64)),
        d(),
        0,
        0,
    ));
    // The analyzer refuses to order string codes (SA004), so both string
    // predicates are equalities.
    queries.push(Q::Filter(e(), 2, Cmp::Eq, rng.below(64) as i64));
    queries.push(Q::Filter(d(), 1, Cmp::Eq, rng.below(64) as i64));
    queries.push(Q::Join(e(), d(), 1, 0));
    queries.push(Q::Join(e(), d(), 2, 1));
    Inputs {
        tables: vec![
            Table {
                name: "dept".into(),
                rows: dept,
            },
            Table {
                name: "emp".into(),
                rows: emp,
            },
        ],
        queries,
        write_pool: Vec::new(),
    }
}

/// One closed-loop step of a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Send `queries[id]`, wait for its answer.
    Query(usize),
    /// Pipeline [`ROUND`] queries, then read every answer.
    Round([usize; ROUND]),
    /// `LOAD` a fresh-named relation holding `write_pool[pool]`.
    Load {
        /// The never-before-used relation name.
        name: String,
        /// Index into [`Inputs::write_pool`].
        pool: usize,
    },
    /// `store(queries[id], name)` under a fresh name.
    Store {
        /// The never-before-used relation name.
        name: String,
        /// The stored query (one of the `emp` filters).
        id: usize,
    },
}

/// The seeded, endless op sequence of one client.
#[derive(Debug, Clone)]
pub struct OpStream {
    workload: Workload,
    client: usize,
    queries: usize,
    filters: usize,
    pool: usize,
    rng: Rng,
    reads: usize,
    writes: usize,
}

impl OpStream {
    /// The stream of client `client` (`0..workload.clients()`).
    pub fn new(workload: Workload, inputs: &Inputs, seed: u64, client: usize) -> OpStream {
        let queries = inputs.queries.len();
        OpStream {
            workload,
            client,
            queries,
            // In the small-table workloads the filters come first and the
            // two array queries last.
            filters: queries - 2,
            pool: inputs.write_pool.len(),
            rng: Rng::new(seed, 100 + client as u64),
            // Clients start the cycle at different queries.
            reads: client * queries / workload.clients(),
            writes: 0,
        }
    }

    fn next_read(&mut self) -> usize {
        let id = self.reads % self.queries;
        self.reads += 1;
        id
    }

    /// The same stream for a second pass over one server: `LOAD` of an
    /// existing name is `ERR conflict`, so its writes continue the numbering
    /// far beyond any first pass (a multiple of four keeps the `store` cadence).
    pub fn second_pass(mut self) -> OpStream {
        self.writes = 1_000_000;
        self
    }

    /// The next op.
    pub fn next_op(&mut self) -> Op {
        match self.workload {
            // Four distinct filters over `emp` (one fused scan), one array
            // query, and the first two filters again verbatim (batch CSE).
            Workload::BatchReads => {
                let mut picks: Vec<usize> = Vec::with_capacity(4);
                while picks.len() < 4 {
                    let id = self.rng.below(self.filters as u64) as usize;
                    if !picks.contains(&id) {
                        picks.push(id);
                    }
                }
                let array = self.filters + self.reads % 2;
                self.reads += 1;
                Op::Round([
                    picks[0], picks[1], picks[2], picks[3], array, picks[0], picks[1],
                ])
            }
            // A fifth of the ops write; every fourth write is a `store`.
            Workload::DurableMix if self.rng.below(5) == 0 => {
                let n = self.writes;
                self.writes += 1;
                if n % 4 == 3 {
                    Op::Store {
                        name: format!("s{}_{n}", self.client),
                        id: self.rng.below(self.filters as u64) as usize,
                    }
                } else {
                    Op::Load {
                        name: format!("w{}_{n}", self.client),
                        pool: n % self.pool,
                    }
                }
            }
            _ => Op::Query(self.next_read()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire_bytes(workload: Workload, seed: u64) -> String {
        let inputs = inputs(workload, seed);
        let mut out = String::new();
        for table in &inputs.tables {
            out.push_str(&table.load_frame());
            out.push('\n');
        }
        for query in &inputs.queries {
            out.push_str(&query.to_string());
            out.push('\n');
        }
        for client in 0..workload.clients() {
            let mut stream = OpStream::new(workload, &inputs, seed, client);
            for _ in 0..500 {
                out.push_str(&format!("{:?}\n", stream.next_op()));
            }
        }
        out
    }

    #[test]
    fn same_seed_same_bytes_and_other_seed_other_bytes() {
        for workload in Workload::ALL {
            let first = wire_bytes(workload, 1980);
            assert_eq!(first, wire_bytes(workload, 1980), "{}", workload.name());
            assert_ne!(first, wire_bytes(workload, 1981), "{}", workload.name());
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn tables_have_the_stated_sizes() {
        let scan = inputs(Workload::ScanReads, 7);
        assert_eq!(scan.tables[0].rows.len(), 2048);
        assert_eq!(scan.tables[1].rows.len(), 2048);
        assert_eq!(scan.tables[2].rows.len(), 16);
        assert_eq!(scan.queries.len(), 7);
        let sim = inputs(Workload::SimReads, 7);
        assert_eq!(sim.tables[0].rows.len(), 96);
        assert_eq!(sim.tables[2].rows.len(), 8);
        assert_eq!(inputs(Workload::PointReads, 7).queries.len(), 18);
        assert_eq!(inputs(Workload::ShardedReads, 7).queries.len(), 12);
        assert_eq!(inputs(Workload::DurableMix, 7).write_pool.len(), 8);
    }

    #[test]
    fn durable_stream_writes_a_fifth_and_never_repeats_a_name() {
        let inputs = inputs(Workload::DurableMix, 3);
        let mut stream = OpStream::new(Workload::DurableMix, &inputs, 3, 1);
        let mut names = std::collections::HashSet::new();
        let mut stores = 0;
        for _ in 0..5000 {
            match stream.next_op() {
                Op::Load { name, .. } => assert!(names.insert(name)),
                Op::Store { name, .. } => {
                    stores += 1;
                    assert!(names.insert(name));
                }
                _ => {}
            }
        }
        assert!((800..1200).contains(&names.len()), "{}", names.len());
        assert!((names.len() / 4).abs_diff(stores) <= 1);
    }

    #[test]
    fn a_round_repeats_its_first_two_queries() {
        let inputs = inputs(Workload::BatchReads, 3);
        let mut stream = OpStream::new(Workload::BatchReads, &inputs, 3, 0);
        let Op::Round(ids) = stream.next_op() else {
            panic!("batch_reads ops are rounds");
        };
        assert_eq!((ids[5], ids[6]), (ids[0], ids[1]));
        assert!(ids[4] >= 32, "fifth slot is an array query");
    }
}
