//! A miniature relational store — the "traditional database system"
//! subsystem of the running example (Section 2).
//!
//! Queries like `Artist = "Beatles"` grade every object crisply: 1 if the
//! row matches, 0 otherwise. A hash index per column provides the
//! *set access* (enumerate all matches) that powers the filtered strategy
//! of Section 4, alongside the regular sorted/random access of every
//! subsystem.

use garlic_agg::Grade;
use garlic_core::access::{GradedSource, MemorySource, SetAccess, SourceError};
use garlic_core::graded_set::GradedEntry;
use garlic_core::ObjectId;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::api::{AtomicQuery, Subsystem, SubsystemError, Target};

/// A value stored in a relational column.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Text.
    Text(String),
    /// A number (equality compares exactly).
    Number(f64),
    /// A boolean.
    Bool(bool),
}

impl Value {
    /// Shorthand for a text value.
    pub fn text(s: &str) -> Value {
        Value::Text(s.to_owned())
    }

    fn key(&self) -> String {
        match self {
            Value::Text(s) => format!("t:{s}"),
            Value::Number(n) => format!("n:{n}"),
            Value::Bool(b) => format!("b:{b}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Text(s) => write!(f, "{s}"),
            Value::Number(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// An in-memory relation: named columns, one row per object, equality
/// indexes on every column.
#[derive(Debug, Clone)]
pub struct RelationalStore {
    name: String,
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
    /// column → value-key → matching rows.
    indexes: Vec<HashMap<String, Vec<ObjectId>>>,
}

impl RelationalStore {
    /// Creates an empty relation with the given columns.
    pub fn new(name: &str, columns: &[&str]) -> Self {
        RelationalStore {
            name: name.to_owned(),
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
            rows: Vec::new(),
            indexes: columns.iter().map(|_| HashMap::new()).collect(),
        }
    }

    /// Appends a row; the row's position is its [`ObjectId`].
    ///
    /// # Panics
    /// Panics if the row width differs from the column count.
    pub fn insert(&mut self, row: Vec<Value>) -> ObjectId {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width must match column count"
        );
        let id = ObjectId(self.rows.len() as u64);
        for (c, value) in row.iter().enumerate() {
            self.indexes[c].entry(value.key()).or_default().push(id);
        }
        self.rows.push(row);
        id
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The column position of `name`, if present.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// A cell value.
    pub fn cell(&self, id: ObjectId, column: &str) -> Option<&Value> {
        let c = self.column_index(column)?;
        self.rows.get(id.index()).map(|r| &r[c])
    }

    /// Index lookup: all rows where `column = value`.
    pub fn select_eq(&self, column: &str, value: &Value) -> Result<Vec<ObjectId>, SubsystemError> {
        let c = self
            .column_index(column)
            .ok_or_else(|| SubsystemError::UnknownAttribute {
                attribute: column.to_owned(),
                subsystem: self.name.clone(),
            })?;
        Ok(self.indexes[c]
            .get(&value.key())
            .cloned()
            .unwrap_or_default())
    }

    /// Predicate scan: all rows satisfying an arbitrary [`Predicate`].
    /// Equality goes through the hash index; ranges scan the column.
    pub fn select(&self, predicate: &Predicate) -> Result<Vec<ObjectId>, SubsystemError> {
        match predicate {
            Predicate::Eq(column, value) => self.select_eq(column, value),
            Predicate::Ne(column, value) => {
                let c = self.require_column(column)?;
                Ok(self.scan(c, |v| v != value))
            }
            Predicate::Lt(column, bound) => self.numeric_scan(column, |x| x < *bound),
            Predicate::Le(column, bound) => self.numeric_scan(column, |x| x <= *bound),
            Predicate::Gt(column, bound) => self.numeric_scan(column, |x| x > *bound),
            Predicate::Ge(column, bound) => self.numeric_scan(column, |x| x >= *bound),
            Predicate::Between(column, lo, hi) => {
                self.numeric_scan(column, |x| *lo <= x && x <= *hi)
            }
        }
    }

    /// Evaluates any predicate as a crisp graded source with set access.
    pub fn predicate_source_for(
        &self,
        predicate: &Predicate,
    ) -> Result<CrispSource, SubsystemError> {
        Ok(CrispSource::new(self.rows.len(), self.select(predicate)?))
    }

    fn require_column(&self, column: &str) -> Result<usize, SubsystemError> {
        self.column_index(column)
            .ok_or_else(|| SubsystemError::UnknownAttribute {
                attribute: column.to_owned(),
                subsystem: self.name.clone(),
            })
    }

    fn scan(&self, column: usize, keep: impl Fn(&Value) -> bool) -> Vec<ObjectId> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, row)| keep(&row[column]))
            .map(|(i, _)| ObjectId(i as u64))
            .collect()
    }

    fn numeric_scan(
        &self,
        column: &str,
        keep: impl Fn(f64) -> bool,
    ) -> Result<Vec<ObjectId>, SubsystemError> {
        let c = self.require_column(column)?;
        // Type check against the first row, if any.
        if let Some(first) = self.rows.first() {
            if !matches!(first[c], Value::Number(_)) {
                return Err(SubsystemError::TypeMismatch {
                    attribute: column.to_owned(),
                    detail: "range predicates require a numeric column".into(),
                });
            }
        }
        Ok(self.scan(c, |v| matches!(v, Value::Number(x) if keep(*x))))
    }

    /// Evaluates `column = value` as a crisp graded source with set access.
    pub fn predicate_source(
        &self,
        column: &str,
        value: &Value,
    ) -> Result<CrispSource, SubsystemError> {
        let matches = self.select_eq(column, value)?;
        Ok(CrispSource::new(self.rows.len(), matches))
    }
}

/// A relational selection predicate. `Eq`/`Ne` apply to any column type;
/// the range forms require numeric columns. (The paper's atomic queries are
/// `X = t`; the richer forms let the relational substrate express the
/// selective crisp filters the Section 4 strategy feeds on, e.g.
/// `Year BETWEEN 1966 AND 1969`.)
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `column = value` (index-accelerated).
    Eq(String, Value),
    /// `column != value`.
    Ne(String, Value),
    /// `column < bound`.
    Lt(String, f64),
    /// `column <= bound`.
    Le(String, f64),
    /// `column > bound`.
    Gt(String, f64),
    /// `column >= bound`.
    Ge(String, f64),
    /// `lo <= column <= hi`.
    Between(String, f64, f64),
}

impl Predicate {
    /// `column = value` shorthand.
    pub fn eq(column: &str, value: Value) -> Predicate {
        Predicate::Eq(column.to_owned(), value)
    }
}

/// A crisp graded source: a match set over a universe, grades 1/0, with
/// [`SetAccess`]. Sorted order puts matches first (by id), non-matches after
/// (by id).
#[derive(Debug, Clone)]
pub struct CrispSource {
    inner: MemorySource,
    matches: Vec<ObjectId>,
}

impl CrispSource {
    /// Builds from a universe size and the set of matching objects.
    pub fn new(n: usize, mut matches: Vec<ObjectId>) -> Self {
        matches.sort();
        matches.dedup();
        let mut grades = vec![Grade::ZERO; n];
        for id in &matches {
            grades[id.index()] = Grade::ONE;
        }
        CrispSource {
            inner: MemorySource::from_grades(&grades),
            matches,
        }
    }

    /// The number of matching objects (`|S|` in the Section 4 strategy).
    pub fn selectivity_count(&self) -> usize {
        self.matches.len()
    }
}

impl GradedSource for CrispSource {
    fn len(&self) -> usize {
        self.inner.len()
    }
    /// Streams the materialised matches-first ranking as a sequential
    /// slice walk (no per-rank index resolution).
    fn try_sorted_batch(
        &self,
        start: usize,
        count: usize,
        out: &mut Vec<GradedEntry>,
    ) -> Result<usize, SourceError> {
        self.inner.try_sorted_batch(start, count, out)
    }
    fn try_random_batch(
        &self,
        objects: &[ObjectId],
        out: &mut Vec<Option<Grade>>,
    ) -> Result<(), SourceError> {
        self.inner.try_random_batch(objects, out)
    }
}

impl SetAccess for CrispSource {
    fn try_matching_set(&self) -> Result<Vec<ObjectId>, SourceError> {
        Ok(self.matches.clone())
    }
}

impl Subsystem for RelationalStore {
    fn name(&self) -> &str {
        &self.name
    }

    fn attributes(&self) -> Vec<String> {
        self.columns.clone()
    }

    fn universe_size(&self) -> usize {
        self.rows.len()
    }

    fn evaluate(&self, query: &AtomicQuery) -> Result<Arc<dyn GradedSource>, SubsystemError> {
        Ok(Arc::new(self.predicate_source(
            &query.attribute,
            &target_value(query)?,
        )?))
    }

    fn is_crisp(&self, attribute: &str) -> bool {
        self.column_index(attribute).is_some()
    }

    fn evaluate_set(&self, query: &AtomicQuery) -> Result<Arc<dyn SetAccess>, SubsystemError> {
        Ok(Arc::new(self.predicate_source(
            &query.attribute,
            &target_value(query)?,
        )?))
    }

    fn estimate_matches(&self, query: &AtomicQuery) -> Option<usize> {
        let value = target_value(query).ok()?;
        self.select_eq(&query.attribute, &value)
            .ok()
            .map(|v| v.len())
    }
}

fn target_value(query: &AtomicQuery) -> Result<Value, SubsystemError> {
    match &query.target {
        Target::Text(s) => Ok(Value::Text(s.clone())),
        Target::Number(n) => Ok(Value::Number(*n)),
        Target::Terms(_) => Err(SubsystemError::TypeMismatch {
            attribute: query.attribute.clone(),
            detail: "relational columns take text or numeric targets".into(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> RelationalStore {
        let mut s = RelationalStore::new("cd_store", &["Artist", "Year"]);
        s.insert(vec![Value::text("Beatles"), Value::Number(1966.0)]);
        s.insert(vec![Value::text("Kinks"), Value::Number(1966.0)]);
        s.insert(vec![Value::text("Beatles"), Value::Number(1969.0)]);
        s
    }

    #[test]
    fn select_eq_uses_index() {
        let s = store();
        assert_eq!(
            s.select_eq("Artist", &Value::text("Beatles")).unwrap(),
            vec![ObjectId(0), ObjectId(2)]
        );
        assert_eq!(
            s.select_eq("Year", &Value::Number(1966.0)).unwrap(),
            vec![ObjectId(0), ObjectId(1)]
        );
        assert!(s
            .select_eq("Artist", &Value::text("Abba"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn unknown_column_errors() {
        assert!(matches!(
            store().select_eq("Genre", &Value::text("rock")),
            Err(SubsystemError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn crisp_source_grades_and_set_access() {
        let s = store();
        let src = s
            .predicate_source("Artist", &Value::text("Beatles"))
            .unwrap();
        assert_eq!(src.len(), 3);
        assert_eq!(src.random_access(ObjectId(0)), Some(Grade::ONE));
        assert_eq!(src.random_access(ObjectId(1)), Some(Grade::ZERO));
        assert_eq!(src.matching_set(), vec![ObjectId(0), ObjectId(2)]);
        assert_eq!(src.selectivity_count(), 2);
        // Sorted access: matches first.
        assert_eq!(src.sorted_access(0).unwrap().grade, Grade::ONE);
        assert_eq!(src.sorted_access(2).unwrap().grade, Grade::ZERO);
    }

    #[test]
    fn cursor_streams_matches_first_in_batches() {
        let s = store();
        let src = s
            .predicate_source("Artist", &Value::text("Beatles"))
            .unwrap();
        let mut cursor = src.open_sorted();
        let mut streamed = Vec::new();
        assert_eq!(cursor.next_batch(&mut streamed, 2), 2);
        assert_eq!(cursor.next_batch(&mut streamed, 2), 1);
        // The grade-1 block (the match set) streams before all non-matches.
        assert_eq!(streamed[0].grade, Grade::ONE);
        assert_eq!(streamed[1].grade, Grade::ONE);
        assert_eq!(streamed[2].grade, Grade::ZERO);
        for (rank, e) in streamed.iter().enumerate() {
            assert_eq!(Some(*e), src.sorted_access(rank));
        }
    }

    #[test]
    fn subsystem_interface() {
        let s = store();
        assert_eq!(s.attributes(), vec!["Artist", "Year"]);
        assert_eq!(s.universe_size(), 3);
        let src = s
            .evaluate(&AtomicQuery::new("Artist", Target::text("Kinks")))
            .unwrap();
        assert_eq!(src.random_access(ObjectId(1)), Some(Grade::ONE));
        assert!(!s.supports_internal_conjunction());
        assert!(s
            .evaluate(&AtomicQuery::new("Artist", Target::terms(&["x"])))
            .is_err());
    }

    #[test]
    fn cell_lookup() {
        let s = store();
        assert_eq!(s.cell(ObjectId(1), "Artist"), Some(&Value::text("Kinks")));
        assert_eq!(s.cell(ObjectId(9), "Artist"), None);
    }

    #[test]
    fn range_predicates() {
        let s = store();
        assert_eq!(
            s.select(&Predicate::Lt("Year".into(), 1967.0)).unwrap(),
            vec![ObjectId(0), ObjectId(1)]
        );
        assert_eq!(
            s.select(&Predicate::Ge("Year".into(), 1969.0)).unwrap(),
            vec![ObjectId(2)]
        );
        assert_eq!(
            s.select(&Predicate::Between("Year".into(), 1966.0, 1969.0))
                .unwrap()
                .len(),
            3
        );
        assert_eq!(
            s.select(&Predicate::Between("Year".into(), 1967.0, 1968.0))
                .unwrap(),
            vec![]
        );
    }

    #[test]
    fn ne_predicate_works_on_text() {
        let s = store();
        assert_eq!(
            s.select(&Predicate::Ne("Artist".into(), Value::text("Beatles")))
                .unwrap(),
            vec![ObjectId(1)]
        );
    }

    #[test]
    fn range_on_text_column_is_type_error() {
        let s = store();
        assert!(matches!(
            s.select(&Predicate::Lt("Artist".into(), 5.0)),
            Err(SubsystemError::TypeMismatch { .. })
        ));
        assert!(matches!(
            s.select(&Predicate::Lt("Genre".into(), 5.0)),
            Err(SubsystemError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn predicate_source_for_ranges_is_crisp() {
        let s = store();
        let src = s
            .predicate_source_for(&Predicate::Between("Year".into(), 1966.0, 1966.0))
            .unwrap();
        assert_eq!(src.selectivity_count(), 2);
        assert_eq!(src.matching_set(), vec![ObjectId(0), ObjectId(1)]);
        assert_eq!(src.random_access(ObjectId(2)), Some(Grade::ZERO));
    }

    #[test]
    fn eq_shorthand() {
        let s = store();
        let p = Predicate::eq("Artist", Value::text("Kinks"));
        assert_eq!(s.select(&p).unwrap(), vec![ObjectId(1)]);
    }
}
