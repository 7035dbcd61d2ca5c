//! A miniature relational store — the "traditional database system"
//! subsystem of the running example (Section 2).
//!
//! Queries like `Artist = "Beatles"` grade every object crisply: 1 if the
//! row matches, 0 otherwise. Selection is equality only, as the paper's
//! atomic queries are `X = t`. A hash index per column finds a
//! predicate's rows, and the answer is a crisp [`MemorySource`] over
//! those 0/1 grades: the regular sorted/random access of every subsystem,
//! plus the *set access* (enumerate all matches, the grade-1 prefix of
//! the sorted order) that powers the filtered strategy of Section 4.

use garlic_agg::Grade;
use garlic_core::access::{GradedSource, MemorySource, SetAccess};
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
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Text(s) => write!(f, "{s}"),
            Value::Number(n) => write!(f, "{n}"),
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

    /// Evaluates `column = value` as a crisp graded source: grade 1 for a
    /// matching row, 0 for the rest. Its sorted order puts the matches
    /// first (by id), then the non-matches (by id), so its match set is
    /// that grade-1 prefix.
    pub fn predicate_source(
        &self,
        column: &str,
        value: &Value,
    ) -> Result<MemorySource, SubsystemError> {
        let mut grades = vec![Grade::ZERO; self.rows.len()];
        for id in self.select_eq(column, value)? {
            grades[id.index()] = Grade::ONE;
        }
        Ok(MemorySource::from_grades(&grades))
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
        let mut streamed = Vec::new();
        assert_eq!(src.sorted_batch(0, 2, &mut streamed), 2);
        assert_eq!(src.sorted_batch(2, 2, &mut streamed), 1);
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
}
