//! Shared catalog + query preparation for the server.
//!
//! [`Store`] owns the [`Catalog`] and the analyzer's live [`CatalogView`]:
//! everything a worker thread needs to admit a query, import CSV into
//! encoded relations and render results back out. It deliberately does
//! *not* own the [`systolic_machine::System`] — machine runs take turns
//! behind the machine lock; the store sits behind an `RwLock` so many
//! connections can admit queries and render results concurrently.
//!
//! [`Engine`] pairs a `Store` with a private `System` for one-shot,
//! in-process use (tests, the classic CLI path, and the byte-identity
//! oracle the server is checked against).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use systolic_analyzer::{analyze, Analysis, CatalogView, ColumnInfo, Diagnostic};
use systolic_machine::{
    parse, parse_spanned, push_selections, Action, Expr, MachineConfig, MachineError, ParseError,
    Plan, RunOutcome, RunStats, System,
};
use systolic_relation::{
    export_csv, import_csv_columnar, Catalog, Column, DomainId, DomainKind, MultiRelation,
    RelationError, Schema,
};

/// Errors from preparing or running a query against an engine.
#[derive(Debug)]
pub enum EngineError {
    /// The query text failed to parse; keeps the source so the error can be
    /// rendered with a caret.
    Parse {
        /// The parse failure.
        err: ParseError,
        /// The query text it occurred in.
        query: String,
    },
    /// CSV import or result rendering failed.
    Relation(RelationError),
    /// The machine rejected or failed the plan.
    Machine(MachineError),
    /// The static analyzer rejected the plan before it reached the machine;
    /// keeps the source so diagnostics can be rendered with carets.
    Analysis {
        /// Every finding, in source order.
        diags: Vec<Diagnostic>,
        /// The query text the findings point into.
        query: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse { err, query } => write!(f, "{}", err.pretty(query)),
            EngineError::Relation(e) => write!(f, "{e}"),
            EngineError::Machine(e) => write!(f, "{e}"),
            EngineError::Analysis { diags, query } => {
                let rendered: Vec<String> = diags.iter().map(|d| d.pretty(query)).collect();
                write!(f, "{}", rendered.join("\n"))
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<RelationError> for EngineError {
    fn from(e: RelationError) -> Self {
        EngineError::Relation(e)
    }
}
impl From<MachineError> for EngineError {
    fn from(e: MachineError) -> Self {
        EngineError::Machine(e)
    }
}

/// Map a wire-format type name to a domain kind.
pub fn kind_of(name: &str) -> Option<DomainKind> {
    match name {
        "int" => Some(DomainKind::Int),
        "str" => Some(DomainKind::Str),
        "bool" => Some(DomainKind::Bool),
        "date" => Some(DomainKind::Date),
        _ => None,
    }
}

/// The wire-format name of a domain kind.
pub fn kind_name(kind: DomainKind) -> &'static str {
    match kind {
        DomainKind::Int => "int",
        DomainKind::Str => "str",
        DomainKind::Bool => "bool",
        DomainKind::Date => "date",
    }
}

/// Parse a comma-separated type list (`int,str,date`).
pub fn parse_kinds(list: &str) -> Result<Vec<DomainKind>, String> {
    list.split(',')
        .map(|t| {
            kind_of(t.trim())
                .ok_or_else(|| format!("unknown column type {:?} (int, str, bool, date)", t.trim()))
        })
        .collect()
}

/// The shared catalog: domains, the analyzer's view of every table, and
/// CSV import/render.
///
/// Tables get columns named `c0..c{n-1}`, and all columns of a given type
/// share one underlying domain so same-typed columns across tables are
/// comparable (§2.4's union-compatibility by construction) — the same
/// convention the `sdb` one-shot path uses. It follows that a table's
/// schema is a function of its kind list alone, so schemas are interned
/// per kind list: every `int,int` table shares one [`Schema`] and one
/// column slice in the view.
///
/// The [`CatalogView`] is the store's only table map. It is kept live by
/// [`Store::register`] and [`Store::unregister`], so a query borrows it
/// ([`Store::view`]) instead of copying the catalog.
#[derive(Debug, Default)]
pub struct Store {
    catalog: Catalog,
    domains: HashMap<&'static str, DomainId>,
    shapes: HashMap<Vec<DomainKind>, (Schema, Arc<[ColumnInfo]>)>,
    view: CatalogView,
}

impl Store {
    /// An empty store.
    pub fn new() -> Self {
        Store::default()
    }

    fn domain_of(&mut self, kind: DomainKind) -> DomainId {
        let key = kind_name(kind);
        match self.domains.get(key) {
            Some(&id) => id,
            None => {
                let id = self.catalog.add_domain(key, kind);
                self.domains.insert(key, id);
                id
            }
        }
    }

    /// The interned schema and view columns of a kind list.
    fn shape_of(&mut self, kinds: &[DomainKind]) -> (Schema, Arc<[ColumnInfo]>) {
        if let Some(shape) = self.shapes.get(kinds) {
            return shape.clone();
        }
        let columns: Vec<Column> = kinds
            .iter()
            .enumerate()
            .map(|(k, &kind)| Column::new(format!("c{k}"), self.domain_of(kind)))
            .collect();
        let infos: Arc<[ColumnInfo]> = columns
            .iter()
            .zip(kinds)
            .map(|(col, &kind)| ColumnInfo {
                domain: col.domain,
                kind,
            })
            .collect();
        let shape = (Schema::new(columns), infos);
        self.shapes.insert(kinds.to_vec(), shape.clone());
        shape
    }

    /// Import CSV text as table `name` with the given column kinds,
    /// registering it in the view. Re-registering a name overwrites it.
    ///
    /// The zero-detour ingest path: the bit-packed columnar planes are
    /// built *while parsing*, so a later columnar scan never re-walks the
    /// rows to pack them.
    pub fn register(
        &mut self,
        name: &str,
        kinds: &[DomainKind],
        csv: &str,
    ) -> Result<MultiRelation, EngineError> {
        let (schema, infos) = self.shape_of(kinds);
        let rel = import_csv_columnar(&mut self.catalog, &schema, csv)?;
        self.view.add_table(name, infos, rel.len() as u64);
        Ok(rel)
    }

    /// Advertise the `store(...)` write-backs of a finished run of `plan`:
    /// each target with the columns `analysis` inferred for it and the rows
    /// the run wrote back (`step_rows`, aligned with `plan.steps`), so later
    /// queries can scan it. A same-named table is overwritten, as a load
    /// overwrites one.
    pub fn register_stored(&mut self, plan: &Plan, analysis: &Analysis, step_rows: &[u64]) {
        for (step, &rows) in plan.steps.iter().zip(step_rows) {
            let Action::Store { as_name, .. } = &step.action else {
                continue;
            };
            let label = format!("store({as_name})");
            if let Some(node) = analysis.nodes.iter().find(|n| n.label == label) {
                let kinds: Vec<DomainKind> = node.columns.iter().map(|c| c.kind).collect();
                let (_, infos) = self.shape_of(&kinds);
                self.view.add_table(as_name.as_str(), infos, rows);
            }
        }
    }

    /// The live analyzer view: per-table column domains (identity and
    /// kind) plus registration-time row counts. Borrowed, not copied —
    /// what the per-request admission path reads under the store's lock.
    pub fn view(&self) -> &CatalogView {
        &self.view
    }

    /// An owned copy of [`Store::view`], for callers that keep it past the
    /// store's lock. O(tables): not for per-request code.
    pub fn catalog_view(&self) -> CatalogView {
        self.view.clone()
    }

    /// Whether a table with this name has been registered.
    pub fn has_table(&self, name: &str) -> bool {
        self.view.has(name)
    }

    /// Remove a table registration.
    ///
    /// Used to undo a speculative [`Store::register`] when the load it
    /// belongs to is fenced off (e.g. the client timed out before the
    /// relation reached the machine), so the catalog never advertises a
    /// table whose load the client was told failed.
    pub fn unregister(&mut self, name: &str) {
        self.view.remove_table(name);
    }

    /// Number of registered tables.
    pub fn table_count(&self) -> usize {
        self.view.len()
    }

    /// Render a result relation as CSV.
    pub fn render_csv(&self, rel: &MultiRelation) -> Result<String, EngineError> {
        Ok(export_csv(&self.catalog, rel)?)
    }

    /// Render a result relation as its `RESULT` frame, in one pass (see
    /// [`crate::protocol::render_result_frame`]).
    pub fn render_result_frame(
        &self,
        rel: &MultiRelation,
        stats: &RunStats,
    ) -> Result<String, EngineError> {
        Ok(crate::protocol::render_result_frame(
            &self.catalog,
            rel,
            stats,
        )?)
    }
}

/// Parse query text and apply the §9 logic-per-track rewrite (filters over
/// plain scans run at the disk).
pub fn prepare(query: &str) -> Result<Expr, EngineError> {
    let expr = parse(query).map_err(|err| EngineError::Parse {
        err,
        query: query.to_string(),
    })?;
    Ok(push_selections(expr))
}

/// Parse, statically analyze, and rewrite a query: the server's admission
/// path. The analyzer sees the parsed tree (so diagnostic spans line up
/// with the source); only an accepted plan gets the §9 logic-per-track
/// rewrite. Returns the rewritten expression plus the typed [`Analysis`].
pub fn prepare_checked(
    query: &str,
    view: &CatalogView,
    machine: &MachineConfig,
) -> Result<(Expr, Analysis), EngineError> {
    let (expr, spans) = parse_spanned(query).map_err(|err| EngineError::Parse {
        err,
        query: query.to_string(),
    })?;
    let analysis =
        analyze(&expr, view, machine, &spans).map_err(|diags| EngineError::Analysis {
            diags,
            query: query.to_string(),
        })?;
    Ok((push_selections(expr), analysis))
}

/// The base-relation names an expression scans, sorted and deduplicated.
pub fn scan_names(expr: &Expr) -> Vec<String> {
    fn walk(expr: &Expr, out: &mut Vec<String>) {
        match expr {
            Expr::Scan { name, .. } => out.push(name.clone()),
            Expr::Intersect(a, b)
            | Expr::Difference(a, b)
            | Expr::Union(a, b)
            | Expr::Join(a, b, _) => {
                walk(a, out);
                walk(b, out);
            }
            Expr::Dedup(a) | Expr::Project(a, _) | Expr::Select(a, _) => walk(a, out),
            Expr::Store(a, _) => walk(a, out),
            Expr::Divide {
                dividend, divisor, ..
            } => {
                walk(dividend, out);
                walk(divisor, out);
            }
        }
    }
    let mut names = Vec::new();
    walk(expr, &mut names);
    names.sort();
    names.dedup();
    names
}

/// The `store(...)` target names in an expression, in tree order.
pub fn store_names(expr: &Expr) -> Vec<String> {
    fn walk(expr: &Expr, out: &mut Vec<String>) {
        match expr {
            Expr::Scan { .. } => {}
            Expr::Intersect(a, b)
            | Expr::Difference(a, b)
            | Expr::Union(a, b)
            | Expr::Join(a, b, _) => {
                walk(a, out);
                walk(b, out);
            }
            Expr::Dedup(a) | Expr::Project(a, _) | Expr::Select(a, _) => walk(a, out),
            Expr::Store(a, name) => {
                out.push(name.clone());
                walk(a, out);
            }
            Expr::Divide {
                dividend, divisor, ..
            } => {
                walk(dividend, out);
                walk(divisor, out);
            }
        }
    }
    let mut names = Vec::new();
    walk(expr, &mut names);
    names
}

/// A store plus a private machine: the one-shot, in-process query path.
#[derive(Debug)]
pub struct Engine {
    store: Store,
    system: System,
}

impl Engine {
    /// Build an engine over a machine with the given configuration.
    pub fn new(config: MachineConfig) -> Result<Self, EngineError> {
        Ok(Engine {
            store: Store::new(),
            system: System::new(config)?,
        })
    }

    /// Register a table and load it onto the machine's disk. Returns the
    /// row count.
    pub fn load_table(
        &mut self,
        name: &str,
        kinds: &[DomainKind],
        csv: &str,
    ) -> Result<usize, EngineError> {
        let rel = self.store.register(name, kinds, csv)?;
        let rows = rel.len();
        self.system.load_base(name.to_string(), rel);
        Ok(rows)
    }

    /// Parse, rewrite, and run a query.
    pub fn run_query(&mut self, query: &str) -> Result<RunOutcome, EngineError> {
        let expr = prepare(query)?;
        Ok(self.system.run(&expr)?)
    }

    /// Render a result relation as CSV.
    pub fn render_csv(&self, rel: &MultiRelation) -> Result<String, EngineError> {
        self.store.render_csv(rel)
    }

    /// The underlying store.
    pub fn store(&self) -> &Store {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_runs_a_join_end_to_end() {
        let mut engine = Engine::new(MachineConfig::default()).unwrap();
        engine
            .load_table(
                "emp",
                &[DomainKind::Str, DomainKind::Int],
                "ada,10\ngrace,20\nedsger,30\n",
            )
            .unwrap();
        engine
            .load_table(
                "dept",
                &[DomainKind::Int, DomainKind::Str],
                "10,storage\n20,query\n",
            )
            .unwrap();
        let out = engine
            .run_query("join(scan(emp), scan(dept), 1 = 0)")
            .unwrap();
        let csv = engine.render_csv(&out.result).unwrap();
        assert!(csv.contains("ada,10,storage"));
        assert!(csv.contains("grace,20,query"));
        assert!(!csv.contains("edsger"));
    }

    #[test]
    fn parse_errors_render_with_a_caret() {
        let mut engine = Engine::new(MachineConfig::default()).unwrap();
        let err = engine.run_query("explode(scan(a))").unwrap_err();
        let rendered = err.to_string();
        assert!(rendered.contains('^'), "{rendered}");
        assert!(rendered.contains("explode(scan(a))"), "{rendered}");
    }

    #[test]
    fn the_view_is_live_and_shares_one_schema_per_kind_list() {
        let mut store = Store::new();
        let ints = [DomainKind::Int, DomainKind::Int];
        store.register("x", &ints, "1,2\n").unwrap();
        store.register("y", &ints, "3,4\n5,6\n").unwrap();
        store.register("z", &[DomainKind::Str], "s\n").unwrap();
        let view = store.view();
        let (x, y, z) = (
            view.table("x").unwrap(),
            view.table("y").unwrap(),
            view.table("z").unwrap(),
        );
        assert!(Arc::ptr_eq(&x.columns, &y.columns));
        assert!(!Arc::ptr_eq(&x.columns, &z.columns));
        assert_eq!((x.rows, y.rows, z.rows), (1, 2, 1));
        assert_eq!(store.table_count(), 3);
        store.unregister("y");
        assert!(!store.view().has("y") && !store.has_table("y"));
        assert_eq!(store.catalog_view().len(), 2);
    }

    #[test]
    fn scan_names_are_collected_sorted_and_deduped() {
        let expr = prepare("join(intersect(scan(b), scan(a)), scan(b), 0 = 0)").unwrap();
        assert_eq!(scan_names(&expr), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn store_names_are_collected() {
        let expr = prepare("store(union(scan(a), scan(b)), out)").unwrap();
        assert_eq!(store_names(&expr), vec!["out".to_string()]);
        let expr = prepare("scan(a)").unwrap();
        assert!(store_names(&expr).is_empty());
    }

    #[test]
    fn kind_tables_round_trip() {
        for kind in [
            DomainKind::Int,
            DomainKind::Str,
            DomainKind::Bool,
            DomainKind::Date,
        ] {
            assert_eq!(kind_of(kind_name(kind)), Some(kind));
        }
        assert!(kind_of("blob").is_none());
        assert_eq!(
            parse_kinds("int, str,date").unwrap(),
            vec![DomainKind::Int, DomainKind::Str, DomainKind::Date]
        );
        assert!(parse_kinds("int,nope").is_err());
    }
}
