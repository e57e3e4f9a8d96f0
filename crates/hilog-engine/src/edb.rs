//! The extensional database: every ground fact of a session, counted, in one
//! argument-indexed store shared by the writer and its published snapshots.
//!
//! A [`crate::session::HiLogDb`] keeps its ground facts here rather than as
//! bodyless rules in its [`Program`](hilog_core::program::Program): asserting
//! or retracting a fact is a count update plus (on the first copy in, or the
//! last copy out) one [`FactStore`] insert or remove, and the query-directed
//! evaluator answers a subgoal's fact instances by probing the store's
//! argument indexes instead of unifying every fact of the predicate.  The
//! store is built on the session's [`StorageConfig`], so the spill backend
//! pages cold fact payloads exactly as it does for every other store.
//!
//! The EDB is a multiset: a fact asserted twice needs two retractions before
//! it is gone, as when facts were rules in a list.
//!
//! # Versions
//!
//! One EDB serves the writer and every snapshot it has published, without a
//! copy per publication.  Pinning (`Edb::pin`) freezes the current version
//! for a snapshot and opens the next one for the writer.  While any pin is
//! held, each writer change records the fact's count before it, so a pinned
//! view still reads the counts of its own version; a fact whose last copy
//! the writer retracts stays in the store, invisible to the writer, until no
//! pin can see it.  The records fold away when the pins that needed them are
//! dropped (or, if the EDB is busy then, at the writer's next change), so
//! without readers the EDB holds exactly the writer's facts and no history
//! at all.

use crate::storage::{FactStore, RelationStorage, RelationStorageStats, StorageConfig};
use hilog_core::rule::Rule;
use hilog_core::term::Term;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Returns `true` for the rules an EDB holds: bodyless rules with a ground
/// head.  (A fact with variables stays among a program's rules.)
pub(crate) fn is_ground_fact(rule: &Rule) -> bool {
    rule.is_fact() && rule.head.is_ground()
}

/// The version the writer reads: every change made so far.
const LATEST: u64 = u64::MAX;

/// The counted, versioned fact store; see the [module documentation](self).
#[derive(Debug)]
pub struct Edb {
    state: RwLock<EdbState>,
    /// Pinned versions and how many snapshots hold each.  A separate lock
    /// from `state`, so a reader dropping its pin never waits for a writer
    /// change (lock order where both are taken: `state`, then `pins`).
    pins: Mutex<BTreeMap<u64, usize>>,
}

#[derive(Debug)]
struct EdbState {
    /// Every fact some view (the writer's or a pinned one) counts at least
    /// once.
    store: FactStore,
    /// The writer's copies beyond the first of each fact asserted more than
    /// once.
    extra: HashMap<Term, u32>,
    /// Count histories of the facts changed since the oldest pinned version.
    history: HashMap<Term, History>,
    /// `(version, fact)` per recorded change, oldest first: the work list
    /// that collapses histories once no pin needs them.
    changes: VecDeque<(u64, Term)>,
    /// The version writer changes are recorded under (one past the newest
    /// pin).
    version: u64,
    /// The writer's facts, copies counted.
    len: usize,
}

/// One fact's counts across the versions a pinned view may read.
#[derive(Debug)]
struct History {
    /// The count before the first recorded change.
    before: u32,
    /// `(version, count after)` per version that changed the fact, oldest
    /// first, but for the newest, which is `latest`.  Usually empty, so a
    /// fact changed once per publish costs no allocation.
    older: Vec<(u64, u32)>,
    /// The newest change.
    latest: (u64, u32),
}

impl History {
    fn count_at(&self, at: u64) -> u32 {
        std::iter::once(&self.latest)
            .chain(self.older.iter().rev())
            .find(|(version, _)| *version <= at)
            .map_or(self.before, |(_, count)| *count)
    }
}

impl EdbState {
    fn count_at(&self, fact: &Term, at: u64) -> u32 {
        match self.history.get(fact) {
            Some(history) => history.count_at(at),
            None if self.store.contains(fact) => 1 + self.extra.get(fact).copied().unwrap_or(0),
            None => 0,
        }
    }

    /// Folds every change no pinned view can read into the writer's state:
    /// changes at or below `oldest_pin` (all of them without pins).  Facts
    /// left at count zero leave the store.
    fn collapse(&mut self, oldest_pin: Option<u64>) {
        let visible = |version: u64| oldest_pin.is_none_or(|pin| version <= pin);
        while let Some((version, _)) = self.changes.front() {
            if !visible(*version) {
                break;
            }
            let (_, fact) = self.changes.pop_front().expect("front exists");
            let Some(history) = self.history.get_mut(&fact) else {
                continue;
            };
            if visible(history.latest.0) {
                let count = history.latest.1;
                self.history.remove(&fact);
                if count == 0 {
                    self.store.remove(&fact);
                }
                continue;
            }
            let settled = history
                .older
                .iter()
                .take_while(|(version, _)| visible(*version))
                .count();
            if settled > 0 {
                history.before = history.older[settled - 1].1;
                history.older.drain(..settled);
            }
        }
    }

    /// Records that the writer moved `fact` from `old` to `new` copies; only
    /// needed while some pinned view may read the old count.
    fn record(&mut self, fact: &Term, old: u32, new: u32) {
        let version = self.version;
        match self.history.get_mut(fact) {
            Some(history) if history.latest.0 == version => history.latest.1 = new,
            Some(history) => {
                let previous = std::mem::replace(&mut history.latest, (version, new));
                history.older.push(previous);
                self.changes.push_back((version, fact.clone()));
            }
            None => {
                self.history.insert(
                    fact.clone(),
                    History {
                        before: old,
                        older: Vec::new(),
                        latest: (version, new),
                    },
                );
                self.changes.push_back((version, fact.clone()));
            }
        }
    }

    /// Keeps `extra` in step with a writer change from `old` to `new`
    /// copies (untouched while both are at most one).
    fn set_extra(&mut self, fact: &Term, old: u32, new: u32) {
        if new > 1 {
            self.extra.insert(fact.clone(), new - 1);
        } else if old > 1 {
            self.extra.remove(fact);
        }
    }
}

impl Edb {
    /// An empty EDB on the configured backend.
    pub(crate) fn new(storage: &StorageConfig) -> Self {
        Edb {
            state: RwLock::new(EdbState {
                store: FactStore::new(storage),
                extra: HashMap::new(),
                history: HashMap::new(),
                changes: VecDeque::new(),
                version: 0,
                len: 0,
            }),
            pins: Mutex::new(BTreeMap::new()),
        }
    }

    /// An EDB holding `facts` (copies counted), loaded in one pass.
    pub(crate) fn from_facts(
        storage: &StorageConfig,
        facts: impl IntoIterator<Item = Term>,
    ) -> Self {
        let edb = Edb::new(storage);
        {
            let mut state = edb.write_state();
            for fact in facts {
                state.len += 1;
                if !state.store.insert(fact.clone()) {
                    *state.extra.entry(fact).or_default() += 1;
                }
            }
        }
        edb
    }

    fn read_state(&self) -> RwLockReadGuard<'_, EdbState> {
        self.state.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_state(&self) -> RwLockWriteGuard<'_, EdbState> {
        self.state.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The oldest pinned version, if any snapshot holds one.  Read under
    /// the state lock, which [`Self::pin`] also holds while it adds a pin,
    /// so no pin can appear between this read and a collapse that uses it.
    fn oldest_pin(&self, _state: &EdbState) -> Option<u64> {
        self.pins
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .next()
            .copied()
    }

    /// Writer change: one more copy of `fact`.  Returns the new count.
    pub(crate) fn insert(&self, fact: Term) -> u32 {
        let mut state = self.write_state();
        let oldest_pin = self.oldest_pin(&state);
        state.collapse(oldest_pin);
        let old = state.count_at(&fact, LATEST);
        let new = old + 1;
        if old == 0 {
            state.store.insert(fact.clone());
        }
        state.set_extra(&fact, old, new);
        state.len += 1;
        if oldest_pin.is_some() {
            state.record(&fact, old, new);
        }
        new
    }

    /// Writer change: one copy of `fact` fewer.  Returns the remaining
    /// count, or `None` (and changes nothing) if the writer has no copy.
    pub(crate) fn remove(&self, fact: &Term) -> Option<u32> {
        let mut state = self.write_state();
        let oldest_pin = self.oldest_pin(&state);
        state.collapse(oldest_pin);
        let old = state.count_at(fact, LATEST);
        if old == 0 {
            return None;
        }
        let new = old - 1;
        state.set_extra(fact, old, new);
        state.len -= 1;
        if oldest_pin.is_some() {
            state.record(fact, old, new);
        } else if new == 0 {
            state.store.remove(fact);
        }
        Some(new)
    }

    /// Freezes the current version for a snapshot and opens the next one
    /// for the writer.  The pin keeps that version readable until dropped.
    pub(crate) fn pin(self: &Arc<Self>) -> EdbPin {
        let mut state = self.write_state();
        let version = state.version;
        state.version += 1;
        *self
            .pins
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(version)
            .or_default() += 1;
        EdbPin {
            edb: Arc::clone(self),
            version,
        }
    }

    /// The writer's view: every change made so far.
    pub(crate) fn latest(&self) -> EdbRead<'_> {
        EdbRead {
            edb: self,
            at: LATEST,
        }
    }

    /// Storage statistics of the underlying fact store.
    pub fn storage_stats(&self) -> RelationStorageStats {
        self.read_state().store.storage_stats()
    }
}

/// A snapshot's hold on one EDB version; see [`Edb::pin`].
#[derive(Debug)]
pub(crate) struct EdbPin {
    edb: Arc<Edb>,
    version: u64,
}

impl EdbPin {
    /// The pinned view.
    pub(crate) fn read(&self) -> EdbRead<'_> {
        EdbRead {
            edb: &self.edb,
            at: self.version,
        }
    }

    /// The shared EDB itself.
    pub(crate) fn edb(&self) -> &Edb {
        &self.edb
    }
}

impl Drop for EdbPin {
    fn drop(&mut self) {
        {
            let mut pins = self.edb.pins.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(held) = pins.get_mut(&self.version) {
                *held -= 1;
                if *held == 0 {
                    pins.remove(&self.version);
                }
            }
        }
        // Fold away the records only this pin needed, so the views still
        // pinned read without consulting them.  Never waits: a busy EDB
        // leaves the fold to the writer's next change.
        if let Ok(mut state) = self.edb.state.try_write() {
            let oldest_pin = self.edb.oldest_pin(&state);
            state.collapse(oldest_pin);
        }
    }
}

/// Read access to the EDB as of one version (the writer's, or a pin's).
/// Each call takes the EDB's read lock for its own duration only.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EdbRead<'a> {
    edb: &'a Edb,
    at: u64,
}

impl<'a> EdbRead<'a> {
    /// How many copies of `fact` this view holds.
    pub(crate) fn count(&self, fact: &Term) -> u32 {
        self.edb.read_state().count_at(fact, self.at)
    }

    /// Returns `true` if this view holds at least one copy of `fact`.
    pub(crate) fn contains(&self, fact: &Term) -> bool {
        self.count(fact) > 0
    }

    /// The facts of this view that could match `pattern`, each once: the
    /// store's best access path (an argument-index probe when the pattern
    /// binds an argument), restricted to the view.  Callers still match
    /// each candidate.
    pub(crate) fn candidates(&self, pattern: &Term) -> Vec<Term> {
        let state = self.edb.read_state();
        let mut out = state.store.collect_candidates(pattern);
        // A stored fact without a history is counted by every view.
        if !state.history.is_empty() {
            out.retain(|fact| {
                state
                    .history
                    .get(fact)
                    .is_none_or(|history| history.count_at(self.at) > 0)
            });
        }
        out
    }

    /// Visits every fact of this view with its count, in term order, under
    /// the read lock: `visit` must not reach back into the EDB.
    pub(crate) fn for_each_fact(&self, mut visit: impl FnMut(&Term, u32)) {
        let state = self.edb.read_state();
        state.store.for_each_atom(&mut |fact| {
            let count = state.count_at(fact, self.at);
            if count > 0 {
                visit(fact, count);
            }
        });
    }

    /// Every fact of this view, each once, in term order.
    pub(crate) fn distinct_facts(&self) -> Vec<Term> {
        let mut out = Vec::new();
        self.for_each_fact(|fact, _| out.push(fact.clone()));
        out
    }

    /// Number of facts in this view, copies counted.
    pub(crate) fn len(&self) -> usize {
        let state = self.edb.read_state();
        let mut len = state.len as i64;
        if self.at != LATEST {
            for history in state.history.values() {
                len += i64::from(history.count_at(self.at)) - i64::from(history.count_at(LATEST));
            }
        }
        len as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fact(name: &str, arg: &str) -> Term {
        Term::apps(name, vec![Term::sym(arg)])
    }

    fn memory() -> StorageConfig {
        StorageConfig::InMemory
    }

    #[test]
    fn copies_are_counted_and_retracted_one_at_a_time() {
        let edb = Edb::new(&memory());
        assert_eq!(edb.insert(fact("p", "a")), 1);
        assert_eq!(edb.insert(fact("p", "a")), 2);
        assert_eq!(edb.latest().len(), 2);
        assert_eq!(edb.remove(&fact("p", "a")), Some(1));
        assert!(edb.latest().contains(&fact("p", "a")));
        assert_eq!(edb.remove(&fact("p", "a")), Some(0));
        assert!(!edb.latest().contains(&fact("p", "a")));
        assert_eq!(edb.remove(&fact("p", "a")), None);
        assert_eq!(edb.latest().len(), 0);
        assert_eq!(edb.storage_stats().resident_facts, 0);
    }

    #[test]
    fn pinned_views_read_their_own_version() {
        let edb = Arc::new(Edb::from_facts(
            &memory(),
            [fact("p", "a"), fact("p", "b"), fact("p", "b")],
        ));
        let first = edb.pin();
        edb.remove(&fact("p", "a"));
        edb.insert(fact("p", "c"));
        edb.remove(&fact("p", "b"));
        let second = edb.pin();
        edb.insert(fact("p", "a"));
        let pattern = Term::apps("p", vec![Term::var("X")]);
        let names = |read: EdbRead<'_>| -> Vec<String> {
            read.candidates(&pattern)
                .iter()
                .map(ToString::to_string)
                .collect()
        };
        assert_eq!(names(first.read()), ["p(a)", "p(b)"]);
        assert_eq!(first.read().count(&fact("p", "b")), 2);
        assert_eq!(first.read().len(), 3);
        assert_eq!(names(second.read()), ["p(b)", "p(c)"]);
        assert_eq!(second.read().len(), 2);
        assert_eq!(names(edb.latest()), ["p(a)", "p(b)", "p(c)"]);
        assert_eq!(edb.latest().len(), 3);
        // Once the pins are gone the next change folds the history away.
        drop(first);
        drop(second);
        edb.insert(fact("p", "d"));
        let state = edb.read_state();
        assert!(state.history.is_empty() && state.changes.is_empty());
        assert_eq!(state.store.len(), 4);
    }

    #[test]
    fn retracted_facts_leave_the_store_when_no_pin_sees_them() {
        let edb = Arc::new(Edb::from_facts(&memory(), [fact("p", "a")]));
        let pin = edb.pin();
        edb.remove(&fact("p", "a"));
        assert!(pin.read().contains(&fact("p", "a")));
        assert!(!edb.latest().contains(&fact("p", "a")));
        assert_eq!(edb.storage_stats().resident_facts, 1);
        drop(pin);
        edb.insert(fact("q", "a"));
        assert_eq!(edb.storage_stats().resident_facts, 1);
        assert_eq!(edb.latest().distinct_facts(), [fact("q", "a")]);
    }
}
