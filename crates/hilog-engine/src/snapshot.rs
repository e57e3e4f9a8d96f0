//! The concurrent serving split: an immutable, shareable [`DbSnapshot`] for
//! readers and a single-writer [`DbWriter`] that publishes snapshots.
//!
//! [`HiLogDb`] amortises work across queries, but every read route takes
//! `&mut self` because its caches fill lazily — so not even two concurrent
//! readers are possible.  This module splits that API in two:
//!
//! * A [`DbSnapshot`] is an **immutable** view of the database at one
//!   *epoch*: the program and every heavyweight cache are shared with the
//!   session by `Arc` (publishing is a handful of refcount bumps, never a
//!   deep copy).  All of its query routes take `&self` and the type is
//!   `Send + Sync`, so any number of threads can answer queries from the
//!   same snapshot in parallel.  Caches the writer had not filled yet are
//!   built lazily *inside* the snapshot under interior locks — the first
//!   reader that needs the full model builds it, later readers reuse it.
//! * A [`DbWriter`] owns the underlying [`HiLogDb`] and with it the whole
//!   incremental mutation path (semi-naive delta grounding on assert, DRed
//!   overdelete/rederive on retract, instance-level table maintenance).
//!   Mutations accumulate into a batch; [`DbWriter::publish`] exports the
//!   session's caches as the next snapshot and swaps it into the shared
//!   cell.  Readers never block on the writer and the writer never waits
//!   for readers: a reader keeps whatever snapshot it pinned until it asks
//!   the handle for the current one.
//! * A [`SnapshotHandle`] is the cloneable reader endpoint:
//!   [`SnapshotHandle::current`] pins the most recently published snapshot.
//!
//! Subgoal tables flow in both directions.  A published snapshot starts
//! with the writer's completed tables; queries answered on reader threads
//! add tables to the snapshot's own map; and the writer *adopts* those
//! reader-computed tables back — but only while its program is still
//! exactly the program the snapshot was built from (before the first
//! mutation of a batch, or at a mutation-free publish).  Adopted tables
//! then enjoy the session's instance-level maintenance like any other.
//!
//! ```
//! use hilog_engine::session::HiLogDb;
//! use hilog_syntax::{parse_program, parse_query, parse_term};
//!
//! let program = parse_program(
//!     "winning(X) :- move(X, Y), not winning(Y). move(a, b). move(b, c).",
//! )
//! .unwrap();
//! let (mut writer, handle) = HiLogDb::new(program).into_serving();
//! let query = parse_query("?- winning(X).").unwrap();
//!
//! // Readers pin the published snapshot; queries take `&self`.
//! let snapshot = handle.current();
//! assert_eq!(snapshot.query(&query).unwrap().answers.len(), 1);
//!
//! // The writer mutates and publishes the next epoch; the pinned snapshot
//! // is untouched and keeps answering at epoch 0.
//! writer.assert_fact(parse_term("move(c, d)").unwrap()).unwrap();
//! writer.publish();
//! assert_eq!(snapshot.epoch(), 0);
//! assert_eq!(handle.current().epoch(), 1);
//! assert_eq!(handle.current().query(&query).unwrap().answers.len(), 2);
//! ```

use crate::edb::EdbPin;
use crate::error::EngineError;
use crate::ground::GroundProgram;
use crate::grounder::ground_with_facts;
use crate::horn::{least_model_with_facts, EvalOptions, NegationMode};
use crate::magic_eval::{
    normalize_pattern, EvalStats, ModelSource, QueryEvaluator, Table, QUERY_HEAD,
};
use crate::modular::{figure1_procedure, ModularOutcome};
use crate::plan::{PlanStrategy, QueryPlan};
use crate::session::{
    assemble, build_plan, consensus_model, eval_against_model, materialize, true_answer, HiLogDb,
    QueryAnswer, QueryResult, Semantics, SnapshotParts,
};
use crate::stable::{stable_models_of_ground, StableOptions};
use crate::storage::{FactStore, StorageConfig};
use crate::wfs::well_founded_eval;
use hilog_core::interpretation::{Model, Truth};
use hilog_core::literal::Literal;
use hilog_core::program::Program;
use hilog_core::rule::{Query, Rule};
use hilog_core::subst::Substitution;
use hilog_core::term::Term;
use hilog_core::unify::match_with;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Reads a possibly poisoned lock.  Every critical section in this module
/// either only swaps `Arc`s or leaves the caches in a consistent (possibly
/// merely colder) state on unwind, so a poisoned lock is safe to keep using.
fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Writes a possibly poisoned lock; see [`read_lock`].
fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// The lazily fillable caches of a snapshot, guarded together: the model
/// routes fill them in dependency order (grounding before model before
/// stable models) under one write lock, so concurrent first-readers do the
/// expensive work once instead of racing.
#[derive(Debug, Default)]
struct SnapCore {
    /// Relevant instantiation of the program (shared with the writer when it
    /// was warm at publish time, built here otherwise).
    ground: Option<Arc<GroundProgram>>,
    /// The possibly-true store backing `ground`; kept alongside it so a
    /// snapshot-built grounding has the same shape a writer-built one has.
    possibly: Option<Arc<FactStore>>,
    /// Full model under the snapshot's semantics.
    model: Option<Arc<Model>>,
    /// Stable models (filled by [`DbSnapshot::stable_models`]).
    stable: Option<Arc<Vec<Model>>>,
    /// Figure 1 outcome (filled by [`DbSnapshot::check_modular`]).
    modular: Option<Arc<ModularOutcome>>,
}

/// An immutable view of the database at one publication epoch.
///
/// All query routes take `&self`, and the type is `Send + Sync`: wrap it in
/// an `Arc` (which is what [`SnapshotHandle::current`] hands out) and share
/// it across as many reader threads as you like.  See the [module
/// documentation](crate::snapshot) for the overall shape.
#[derive(Debug)]
pub struct DbSnapshot {
    /// The rules at this epoch, shared with the writer.
    rules: Arc<Program>,
    /// The writer's EDB, pinned at this epoch's version.
    edb: EdbPin,
    /// [`DbSnapshot::program`]'s rules-plus-facts view, built on first use.
    materialized: OnceLock<Program>,
    opts: EvalOptions,
    stable_opts: StableOptions,
    semantics: Semantics,
    /// Publication counter: 0 for the snapshot [`HiLogDb::into_serving`]
    /// publishes, +1 per [`DbWriter::publish`].
    epoch: u64,
    /// Lazily fillable model-side caches (interior mutability: the routes
    /// take `&self`).
    core: RwLock<SnapCore>,
    /// Completed subgoal tables, seeded from the writer at publish time and
    /// extended by the queries answered on this snapshot.  Tables are only
    /// ever *added* here — the program is frozen, so a completed table can
    /// never go stale within a snapshot's lifetime.
    tables: RwLock<HashMap<Term, Arc<Table>>>,
    /// Relation-storage backend for stores this snapshot builds lazily.
    storage: StorageConfig,
}

impl DbSnapshot {
    /// Assembles a snapshot from the writer's exported cache handles.
    pub(crate) fn from_parts(parts: SnapshotParts, epoch: u64) -> Self {
        DbSnapshot {
            rules: parts.rules,
            edb: parts.edb,
            materialized: OnceLock::new(),
            opts: parts.opts,
            stable_opts: parts.stable_opts,
            semantics: parts.semantics,
            epoch,
            core: RwLock::new(SnapCore {
                ground: parts.ground,
                possibly: parts.possibly,
                model: parts.model,
                stable: parts.stable,
                modular: parts.modular,
            }),
            tables: RwLock::new(parts.tables),
            storage: parts.storage,
        }
    }

    /// The program this snapshot answers from, in
    /// [`HiLogDb::program`]'s layout (built on first use).
    pub fn program(&self) -> &Program {
        self.materialized
            .get_or_init(|| materialize(&self.rules, self.edb.read()))
    }

    /// Number of rules plus ground facts (copies counted) in the program —
    /// `program().len()` without building it.
    pub fn program_len(&self) -> usize {
        self.rules.len() + self.edb.read().len()
    }

    /// The snapshot's evaluation limits.
    pub fn options(&self) -> EvalOptions {
        self.opts
    }

    /// The semantics queries are answered under.
    pub fn semantics(&self) -> Semantics {
        self.semantics
    }

    /// The publication epoch: 0 for the initial snapshot, incremented by
    /// every [`DbWriter::publish`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of completed subgoal tables currently held (seeded plus
    /// derived by queries on this snapshot).
    pub fn cached_subqueries(&self) -> usize {
        read_lock(&self.tables)
            .values()
            .filter(|t| t.complete)
            .count()
    }

    /// Aggregate relation-storage statistics over this snapshot's stores:
    /// the lazily built possibly-true store and every subgoal table's answer
    /// store (the snapshot-side mirror of
    /// [`HiLogDb::storage_stats`](crate::session::HiLogDb::storage_stats)).
    pub fn storage_stats(&self) -> crate::storage::RelationStorageStats {
        let mut total = self.edb.edb().storage_stats();
        if let Some(possibly) = &read_lock(&self.core).possibly {
            total.merge(&possibly.storage_stats());
        }
        for table in read_lock(&self.tables).values() {
            total.merge(&table.answers.storage_stats());
        }
        total
    }

    /// Builds the plan [`query`](DbSnapshot::query) would execute, without
    /// evaluating anything.  A snapshot's model is never stale and its
    /// tables are never patched or dropped, so those plan fields are always
    /// `false`/zero here.
    pub fn explain(&self, query: &Query) -> QueryPlan {
        let cached_model = read_lock(&self.core).model.is_some();
        build_plan(
            self.semantics,
            query,
            cached_model,
            false,
            self.cached_subqueries(),
            0,
            0,
        )
    }

    /// Answers a query through the plan [`explain`](DbSnapshot::explain)
    /// chooses — the same routes as [`HiLogDb::query`], over shared caches.
    pub fn query(&self, query: &Query) -> Result<QueryResult, EngineError> {
        let plan = self.explain(query);
        let tables_reused = read_lock(&self.tables).len();
        // The join-index probe counters are thread-local, so the deltas are
        // per-query even with many readers querying concurrently.
        let (probes_before, fallbacks_before) = crate::horn::probe_counters();
        // Parallel counters are process-wide (pool workers can't write a
        // reader's thread-locals), so with concurrent readers the deltas may
        // include each other's pool work — observability, not answers.
        let (waves_before, rounds_before, tasks_before) = crate::pool::parallel_counters();
        // Deadline counters are thread-local like the probe counters.
        let (dl_checks_before, dl_exceeded_before) = crate::deadline::deadline_counters();
        let mut result = match plan.strategy {
            PlanStrategy::MagicSets => match self.query_magic(query) {
                Ok((answers, stats)) => assemble(answers, stats, plan, None),
                Err(
                    err @ (EngineError::NotModularlyStratified(_) | EngineError::Floundering(_)),
                ) => {
                    // Same transparent fallback as the session: the tabled
                    // route cannot settle this query, the bottom-up
                    // well-founded construction still can.
                    let note = err.to_string();
                    let (answers, stats) = self.query_full(query)?;
                    assemble(answers, stats, plan, Some(note))
                }
                Err(err) => return Err(err),
            },
            PlanStrategy::FullModel => {
                let (answers, stats) = self.query_full(query)?;
                assemble(answers, stats, plan, None)
            }
        };
        result.stats.tables_reused = tables_reused;
        let (probes_after, fallbacks_after) = crate::horn::probe_counters();
        result.stats.index_probes = probes_after - probes_before;
        result.stats.index_fallback_scans = fallbacks_after - fallbacks_before;
        let (waves_after, rounds_after, tasks_after) = crate::pool::parallel_counters();
        result.stats.parallel_waves = waves_after - waves_before;
        result.stats.parallel_partitioned_rounds = rounds_after - rounds_before;
        result.stats.parallel_tasks = tasks_after - tasks_before;
        let (dl_checks_after, dl_exceeded_after) = crate::deadline::deadline_counters();
        result.stats.deadline_checks = dl_checks_after - dl_checks_before;
        result.stats.deadline_exceeded = dl_exceeded_after - dl_exceeded_before;
        result.stats.live_symbols = hilog_core::symbol::symbol_pool_stats().live;
        Ok(result)
    }

    /// Three-valued truth of a single ground atom under the snapshot's
    /// semantics.
    pub fn holds(&self, atom: &Term) -> Result<Truth, EngineError> {
        if !atom.is_ground() {
            return Err(EngineError::Floundering(format!(
                "holds() requires a ground atom, got `{atom}`"
            )));
        }
        Ok(self.query(&Query::atom(atom.clone()))?.truth)
    }

    /// The full model under the snapshot's semantics, building (and caching
    /// in the snapshot) on first use.  Errors are not cached: a failed build
    /// is retried by the next caller, exactly like a fresh session.
    pub fn model(&self) -> Result<Arc<Model>, EngineError> {
        self.model_impl().map(|(model, _, _)| model)
    }

    /// The stable models of the program, computing them on first use.
    pub fn stable_models(&self) -> Result<Arc<Vec<Model>>, EngineError> {
        if let Some(stable) = &read_lock(&self.core).stable {
            return Ok(stable.clone());
        }
        let mut core = write_lock(&self.core);
        self.ensure_stable_locked(&mut core)
    }

    /// Runs (and caches) the Figure 1 modular-stratification procedure.
    pub fn check_modular(&self) -> Result<Arc<ModularOutcome>, EngineError> {
        if let Some(modular) = &read_lock(&self.core).modular {
            return Ok(modular.clone());
        }
        let mut core = write_lock(&self.core);
        self.ensure_modular_locked(&mut core)
    }

    /// Magic-sets route: tabled evaluation seeded with the snapshot's
    /// completed tables; completed tables merge back into the snapshot.
    fn query_magic(&self, query: &Query) -> Result<(Vec<QueryAnswer>, EvalStats), EngineError> {
        let vars = query.variables();
        // Fast path: a single-atom query whose table is already complete is
        // answered under the read lock alone — the path concurrent readers
        // hammering the same warm query stay on.
        if let [Literal::Pos(atom)] = query.literals.as_slice() {
            let key = normalize_pattern(atom);
            let hit = read_lock(&self.tables)
                .get(&key)
                .filter(|t| t.complete)
                .cloned();
            if let Some(table) = hit {
                let answers = table
                    .answers
                    .collect_atoms()
                    .into_iter()
                    .filter_map(|answer| {
                        let mut theta = Substitution::new();
                        match_with(atom, &answer, &mut theta).then(|| true_answer(&theta, &vars))
                    })
                    .collect();
                let stats = EvalStats {
                    cached_subqueries: 1,
                    ..EvalStats::default()
                };
                return Ok((answers, stats));
            }
        }
        // Seeding clones the table map, but the tables themselves are `Arc`d
        // — this is per-entry refcount bumps, not a copy of any answer set.
        let tables = read_lock(&self.tables).clone();
        let seeded_tables = tables.len();
        let seeded_answers: usize = tables.values().map(|t| t.answers.len()).sum();
        let per_query = move |mut stats: EvalStats| {
            stats.subqueries = stats.subqueries.saturating_sub(seeded_tables);
            stats.answers = stats.answers.saturating_sub(seeded_answers);
            stats
        };
        if let [Literal::Pos(atom)] = query.literals.as_slice() {
            let mut evaluator = QueryEvaluator::with_tables(
                &self.rules,
                self.edb.read(),
                self.opts,
                tables,
                self.storage.clone(),
            );
            let solved = evaluator.solve_atom(atom);
            let stats = per_query(evaluator.stats());
            let mut fresh = evaluator.into_tables();
            fresh.retain(|_, t| t.complete);
            self.merge_tables(fresh);
            let answers = solved?
                .into_iter()
                .filter_map(|answer| {
                    let mut theta = Substitution::new();
                    match_with(atom, &answer, &mut theta).then(|| true_answer(&theta, &vars))
                })
                .collect();
            Ok((answers, stats))
        } else {
            // Conjunctions run through an auxiliary `__query_answer` rule.
            // It extends a per-query copy of the rules alone: the facts stay
            // in the EDB.
            let head = Term::apps(
                QUERY_HEAD,
                vars.iter().map(|v| Term::Var(v.clone())).collect(),
            );
            let mut scratch = Program::clone(&self.rules);
            scratch.push(Rule::new(head.clone(), query.literals.clone()));
            let mut evaluator = QueryEvaluator::with_tables(
                &scratch,
                self.edb.read(),
                self.opts,
                tables,
                self.storage.clone(),
            );
            let solved = evaluator.solve_atom(&head);
            let stats = per_query(evaluator.stats());
            let mut fresh = evaluator.into_tables();
            // Every table except the auxiliary one is a valid table of the
            // base program and is kept.
            let aux_functor = Term::sym(QUERY_HEAD);
            fresh.retain(|_, t| t.complete && t.pattern.outermost_functor() != &aux_functor);
            self.merge_tables(fresh);
            let answers = solved?
                .into_iter()
                .filter_map(|answer| {
                    let mut theta = Substitution::new();
                    match_with(&head, &answer, &mut theta).then(|| true_answer(&theta, &vars))
                })
                .collect();
            Ok((answers, stats))
        }
    }

    /// Full-model route: match the query against the (lazily built) model.
    fn query_full(&self, query: &Query) -> Result<(Vec<QueryAnswer>, EvalStats), EngineError> {
        let (model, model_source, groundings) = self.model_impl()?;
        let answers = eval_against_model(&model, query)?;
        let stats = EvalStats {
            answers: answers.len(),
            groundings,
            model_source,
            ..EvalStats::default()
        };
        Ok((answers, stats))
    }

    /// The model plus how it was obtained and how many grounding passes the
    /// call performed.  Double-checked: the warm path is one read lock; a
    /// cold snapshot computes under the write lock, so concurrent
    /// first-readers build the model once and the rest reuse it.
    fn model_impl(&self) -> Result<(Arc<Model>, ModelSource, usize), EngineError> {
        if let Some(model) = &read_lock(&self.core).model {
            return Ok((model.clone(), ModelSource::Cached, 0));
        }
        let mut core = write_lock(&self.core);
        if let Some(model) = &core.model {
            // Another reader built it between our two lock acquisitions.
            return Ok((model.clone(), ModelSource::Cached, 0));
        }
        let mut groundings = 0;
        let model = match self.semantics {
            Semantics::WellFounded => {
                groundings += self.ensure_ground_locked(&mut core)?;
                well_founded_eval(
                    core.ground.as_deref().expect("just grounded"),
                    self.opts.eval_threads,
                )
            }
            Semantics::Stable => {
                let stable = self.ensure_stable_locked(&mut core)?;
                consensus_model(&stable)?
            }
            Semantics::ModularCheck => {
                let outcome = self.ensure_modular_locked(&mut core)?;
                match (&outcome.model, &outcome.reason) {
                    (Some(model), _) => model.clone(),
                    (None, reason) => {
                        return Err(EngineError::NotModularlyStratified(
                            reason.clone().unwrap_or_else(|| {
                                "the Figure 1 procedure rejected the program".into()
                            }),
                        ))
                    }
                }
            }
        };
        let model = Arc::new(model);
        core.model = Some(model.clone());
        Ok((model, ModelSource::Rebuilt, groundings))
    }

    /// Fills the grounding under the held write lock; returns the number of
    /// grounding passes performed (0 if it was already warm).
    fn ensure_ground_locked(&self, core: &mut SnapCore) -> Result<usize, EngineError> {
        if core.ground.is_some() {
            return Ok(0);
        }
        let facts = self.edb.read().distinct_facts();
        let mut possibly = FactStore::new(&self.storage);
        least_model_with_facts(
            &self.rules,
            &facts,
            NegationMode::Ignore,
            self.opts,
            &mut possibly,
        )?;
        core.ground = Some(Arc::new(ground_with_facts(
            &self.rules,
            &facts,
            &possibly,
            self.opts,
        )?));
        core.possibly = Some(Arc::new(possibly));
        Ok(1)
    }

    /// Fills (and returns) the stable models under the held write lock.
    fn ensure_stable_locked(&self, core: &mut SnapCore) -> Result<Arc<Vec<Model>>, EngineError> {
        if let Some(stable) = &core.stable {
            return Ok(stable.clone());
        }
        self.ensure_ground_locked(core)?;
        let ground = core.ground.as_deref().expect("just grounded");
        let stable = Arc::new(stable_models_of_ground(ground, self.stable_opts)?);
        core.stable = Some(stable.clone());
        Ok(stable)
    }

    /// Fills (and returns) the Figure 1 outcome under the held write lock.
    fn ensure_modular_locked(
        &self,
        core: &mut SnapCore,
    ) -> Result<Arc<ModularOutcome>, EngineError> {
        if let Some(modular) = &core.modular {
            return Ok(modular.clone());
        }
        let modular = Arc::new(figure1_procedure(self.program(), self.opts)?);
        core.modular = Some(modular.clone());
        Ok(modular)
    }

    /// Merges freshly completed tables into the snapshot's map.  First
    /// writer wins per key: any complete table for a pattern is as good as
    /// any other (the program is frozen), so a racing query's table is
    /// simply kept.
    fn merge_tables(&self, fresh: HashMap<Term, Arc<Table>>) {
        let mut tables = write_lock(&self.tables);
        for (key, table) in fresh {
            tables.entry(key).or_insert(table);
        }
    }

    /// `Arc` clones of the current table map, for the writer to adopt.
    pub(crate) fn tables_snapshot(&self) -> HashMap<Term, Arc<Table>> {
        read_lock(&self.tables).clone()
    }
}

/// The cloneable reader endpoint: pins the most recently published
/// [`DbSnapshot`].  Cheap to clone (one `Arc`), `Send + Sync`, and valid for
/// as long as any writer or other handle exists.
#[derive(Debug, Clone)]
pub struct SnapshotHandle {
    cell: Arc<RwLock<Arc<DbSnapshot>>>,
}

impl SnapshotHandle {
    /// The most recently published snapshot.  The critical section is one
    /// `Arc` clone — nanoseconds — so readers effectively never contend with
    /// the writer's swap; the returned snapshot stays valid (and unchanged,
    /// epoch included) for as long as the caller holds it.
    pub fn current(&self) -> Arc<DbSnapshot> {
        read_lock(&self.cell).clone()
    }
}

/// The single-writer half of the serving split: owns the [`HiLogDb`] and
/// with it the incremental mutation path, and publishes [`DbSnapshot`]s.
///
/// Mutations accumulate into the current batch; nothing is visible to
/// readers until [`publish`](DbWriter::publish) swaps the next snapshot into
/// the shared cell.  See the [module documentation](crate::snapshot).
#[derive(Debug)]
pub struct DbWriter {
    db: HiLogDb,
    /// Epoch of the most recently published snapshot.
    epoch: u64,
    /// `true` once the current batch has mutated the session, i.e. once the
    /// writer's program may differ from the published snapshot's.  Guards
    /// table adoption: reader-computed tables are only sound to adopt while
    /// the programs are still identical.
    batch_dirty: bool,
    cell: Arc<RwLock<Arc<DbSnapshot>>>,
}

impl DbWriter {
    /// Splits a session into the serving pair, publishing its current state
    /// as the epoch-0 snapshot.  (Also reachable as
    /// [`HiLogDb::into_serving`].)
    pub(crate) fn from_db(db: HiLogDb) -> (DbWriter, SnapshotHandle) {
        DbWriter::from_db_at(db, 0)
    }

    /// [`DbWriter::from_db`], but publishing the initial snapshot at `epoch`.
    /// The recovery path of the durable storage layer uses this so a session
    /// rebuilt from checkpoint + WAL resumes at the epoch it went down with.
    pub(crate) fn from_db_at(mut db: HiLogDb, epoch: u64) -> (DbWriter, SnapshotHandle) {
        let snapshot = Arc::new(DbSnapshot::from_parts(db.snapshot_parts(), epoch));
        let cell = Arc::new(RwLock::new(snapshot));
        let handle = SnapshotHandle { cell: cell.clone() };
        (
            DbWriter {
                db,
                epoch,
                batch_dirty: false,
                cell,
            },
            handle,
        )
    }

    /// A serving pair over `program` with default options and well-founded
    /// semantics.
    pub fn new(program: Program) -> (DbWriter, SnapshotHandle) {
        HiLogDb::new(program).into_serving()
    }

    /// A fresh reader endpoint (equivalent to cloning any existing one).
    pub fn handle(&self) -> SnapshotHandle {
        SnapshotHandle {
            cell: self.cell.clone(),
        }
    }

    /// The most recently published snapshot.
    pub fn current(&self) -> Arc<DbSnapshot> {
        read_lock(&self.cell).clone()
    }

    /// Epoch of the most recently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The writer's program, **including unpublished batch mutations**.
    pub fn program(&self) -> &Program {
        self.db.program()
    }

    /// [`Self::program`] built afresh without caching it (see
    /// [`HiLogDb::to_program`]).
    pub fn to_program(&self) -> Program {
        self.db.to_program()
    }

    /// Takes the subgoal-table maintenance counts of the mutations since the
    /// last call (see [`HiLogDb::take_table_maintenance`]).
    pub fn take_table_maintenance(&mut self) -> crate::session::TableMaintenance {
        self.db.take_table_maintenance()
    }

    /// The semantics queries are answered under.
    pub fn semantics(&self) -> Semantics {
        self.db.semantics()
    }

    /// The session's cached full model, pending deltas discharged (see
    /// [`HiLogDb::cached_model`]).  Checkpointing persists this alongside
    /// the program; `None` simply means the checkpoint carries no model.
    pub fn cached_model(&mut self) -> Option<Arc<Model>> {
        self.db.cached_model()
    }

    /// Marks the batch open, adopting reader-computed tables first if this
    /// is the batch's first mutation: at that moment the writer's program is
    /// still exactly the published snapshot's, so its completed tables are
    /// valid session tables — and once adopted they are *maintained* through
    /// the mutation like any table the session computed itself.
    fn begin_batch(&mut self) {
        if !self.batch_dirty {
            let tables = self.current().tables_snapshot();
            self.db.adopt_tables(tables);
            self.batch_dirty = true;
        }
    }

    /// Asserts a ground fact into the current batch (semi-naive incremental
    /// maintenance; see [`HiLogDb::assert_fact`]).  Not visible to readers
    /// until [`publish`](DbWriter::publish).
    pub fn assert_fact(&mut self, fact: Term) -> Result<(), EngineError> {
        self.begin_batch();
        self.db.assert_fact(fact)
    }

    /// Retracts one occurrence of a ground fact in the current batch (DRed
    /// maintenance; see [`HiLogDb::retract_fact`]).
    pub fn retract_fact(&mut self, fact: &Term) -> bool {
        self.begin_batch();
        self.db.retract_fact(fact)
    }

    /// Asserts a rule into the current batch (see [`HiLogDb::assert_rule`]).
    pub fn assert_rule(&mut self, rule: Rule) {
        self.begin_batch();
        self.db.assert_rule(rule)
    }

    /// Retracts the first matching rule in the current batch (see
    /// [`HiLogDb::retract_rule`]).
    pub fn retract_rule(&mut self, rule: &Rule) -> bool {
        self.begin_batch();
        self.db.retract_rule(rule)
    }

    /// Direct access to the underlying session — the escape hatch for routes
    /// without a writer wrapper ([`HiLogDb::stable_models`], …).
    /// Conservatively marks the batch dirty, since the caller may mutate.
    pub fn db(&mut self) -> &mut HiLogDb {
        self.batch_dirty = true;
        &mut self.db
    }

    /// Publishes the session's current state as the next snapshot and swaps
    /// it into the shared cell; readers see it on their next
    /// [`SnapshotHandle::current`] call, while already pinned snapshots are
    /// untouched.  A mutation-free publish first adopts the tables reader
    /// queries computed on the outgoing snapshot (the programs are
    /// identical), so warmth accumulates across epochs instead of resetting.
    pub fn publish(&mut self) -> Arc<DbSnapshot> {
        if !self.batch_dirty {
            let tables = self.current().tables_snapshot();
            self.db.adopt_tables(tables);
        }
        self.epoch += 1;
        let snapshot = Arc::new(DbSnapshot::from_parts(self.db.snapshot_parts(), self.epoch));
        *write_lock(&self.cell) = snapshot.clone();
        self.batch_dirty = false;
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilog_syntax::{parse_program, parse_query, parse_term};

    fn game() -> Program {
        parse_program(
            "winning(X) :- move(X, Y), not winning(Y).\n\
             move(a, b). move(b, c).",
        )
        .unwrap()
    }

    #[test]
    fn serving_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DbSnapshot>();
        assert_send_sync::<Arc<DbSnapshot>>();
        assert_send_sync::<SnapshotHandle>();
        assert_send_sync::<DbWriter>();
    }

    #[test]
    fn pinned_snapshots_answer_their_own_epoch() {
        let (mut writer, handle) = HiLogDb::new(game()).into_serving();
        let pinned = handle.current();
        assert_eq!(pinned.epoch(), 0);
        let query = parse_query("?- winning(X).").unwrap();
        let before = pinned.query(&query).unwrap();
        assert_eq!(before.answers.len(), 1); // only b wins
        writer
            .assert_fact(parse_term("move(c, d)").unwrap())
            .unwrap();
        let published = writer.publish();
        assert_eq!(published.epoch(), 1);
        assert_eq!(handle.current().epoch(), 1);
        // The pinned snapshot still answers the epoch-0 state.
        assert_eq!(pinned.query(&query).unwrap().answers, before.answers);
        // The new snapshot sees the extended chain a -> b -> c -> d.
        let after = handle.current().query(&query).unwrap();
        let xs: Vec<String> = after
            .answers
            .iter()
            .map(|a| a.binding("X").unwrap().to_string())
            .collect();
        assert!(xs.contains(&"c".to_string()));
    }

    #[test]
    fn snapshot_answers_match_a_fresh_session() {
        let program = game();
        let (_writer, handle) = HiLogDb::new(program.clone()).into_serving();
        let snapshot = handle.current();
        let mut fresh = HiLogDb::new(program);
        for q in [
            "?- winning(X).",
            "?- winning(b).",
            "?- P(a, X).",
            "?- move(X, Y), not winning(Y).",
        ] {
            let query = parse_query(q).unwrap();
            let ours = snapshot.query(&query).unwrap();
            let theirs = fresh.query(&query).unwrap();
            assert_eq!(ours.answers, theirs.answers, "answers diverged on {q}");
            assert_eq!(ours.truth, theirs.truth, "truth diverged on {q}");
        }
    }

    #[test]
    fn concurrent_readers_share_one_snapshot() {
        let (_writer, handle) = HiLogDb::new(game()).into_serving();
        let query = parse_query("?- winning(X).").unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let handle = handle.clone();
                let query = &query;
                s.spawn(move || {
                    let result = handle.current().query(query).unwrap();
                    assert_eq!(result.answers.len(), 1);
                    assert_eq!(result.answers[0].binding("X").unwrap(), &Term::sym("b"));
                });
            }
        });
    }

    #[test]
    fn full_model_is_built_once_per_snapshot() {
        let (_writer, handle) = HiLogDb::new(game()).into_serving();
        let snapshot = handle.current();
        let query = parse_query("?- P(a, X).").unwrap();
        let first = snapshot.query(&query).unwrap();
        assert_eq!(first.stats.groundings, 1);
        assert_eq!(first.stats.model_source, ModelSource::Rebuilt);
        let second = snapshot.query(&query).unwrap();
        assert_eq!(second.stats.groundings, 0);
        assert_eq!(second.stats.model_source, ModelSource::Cached);
    }

    #[test]
    fn reader_warmed_tables_flow_back_on_publish() {
        let (mut writer, handle) = HiLogDb::new(game()).into_serving();
        let query = parse_query("?- winning(X).").unwrap();
        // Warm the tables on the *snapshot*, not the writer.
        let first = handle.current().query(&query).unwrap();
        assert!(first.stats.rule_applications > 0);
        // A mutation-free publish adopts them into the writer; the next
        // snapshot starts warm.
        let next = writer.publish();
        assert!(next.cached_subqueries() > 0);
        let warm = next.query(&query).unwrap();
        assert_eq!(warm.stats.rule_applications, 0, "tables were not adopted");
        assert!(warm.stats.cached_subqueries > 0);
    }

    #[test]
    fn tables_adopted_before_a_batch_survive_unrelated_mutations() {
        let (mut writer, handle) = HiLogDb::new(
            parse_program(
                "winning(X) :- move(X, Y), not winning(Y).\n\
                 reach(X) :- edge(X, Y).\n\
                 move(a, b). move(b, c). edge(u, v).",
            )
            .unwrap(),
        )
        .into_serving();
        let win = parse_query("?- winning(X).").unwrap();
        handle.current().query(&win).unwrap();
        // First mutation of the batch adopts the reader-computed winning
        // tables (programs still equal), then the unrelated edge fact leaves
        // them untouched through the instance-level maintenance.
        writer
            .assert_fact(parse_term("edge(v, w)").unwrap())
            .unwrap();
        let snapshot = writer.publish();
        assert!(snapshot.cached_subqueries() > 0, "warm tables were lost");
        let warm = snapshot.query(&win).unwrap();
        assert_eq!(warm.stats.rule_applications, 0);
        // And the mutation is visible.
        let reach = snapshot
            .query(&parse_query("?- reach(X).").unwrap())
            .unwrap();
        assert!(reach
            .answers
            .iter()
            .any(|a| a.binding("X").unwrap() == &Term::sym("v")));
    }

    #[test]
    fn snapshot_serves_stable_and_modular_routes() {
        let (_writer, handle) = HiLogDb::builder()
            .program(parse_program("p :- not q. q :- not p. r :- p. r :- q.").unwrap())
            .semantics(Semantics::Stable)
            .build()
            .into_serving();
        let snapshot = handle.current();
        assert_eq!(snapshot.stable_models().unwrap().len(), 2);
        assert_eq!(
            snapshot.holds(&parse_term("r").unwrap()).unwrap(),
            Truth::True
        );
        assert_eq!(
            snapshot.holds(&parse_term("p").unwrap()).unwrap(),
            Truth::Undefined
        );

        let (_writer, handle) = HiLogDb::builder()
            .program(game())
            .semantics(Semantics::ModularCheck)
            .build()
            .into_serving();
        let snapshot = handle.current();
        assert!(snapshot.check_modular().unwrap().modularly_stratified);
        assert_eq!(
            snapshot.holds(&parse_term("winning(b)").unwrap()).unwrap(),
            Truth::True
        );
    }

    #[test]
    fn writer_batches_are_invisible_until_published() {
        let (mut writer, handle) = HiLogDb::new(game()).into_serving();
        writer
            .assert_fact(parse_term("move(c, d)").unwrap())
            .unwrap();
        // Still epoch 0 and still the old answers.
        let current = handle.current();
        assert_eq!(current.epoch(), 0);
        assert_eq!(
            current.holds(&parse_term("move(c, d)").unwrap()).unwrap(),
            Truth::False
        );
        writer.publish();
        assert_eq!(
            handle
                .current()
                .holds(&parse_term("move(c, d)").unwrap())
                .unwrap(),
            Truth::True
        );
    }
}
