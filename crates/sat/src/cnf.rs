//! Variables, literals and a plain CNF formula.

use std::fmt;

/// A propositional variable, numbered densely from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl Var {
    /// Dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A literal: a variable with a sign, encoded as `2*var + sign` so a literal
/// indexes watch lists directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    #[inline]
    pub fn pos(v: Var) -> Self {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    #[inline]
    pub fn neg(v: Var) -> Self {
        Lit((v.0 << 1) | 1)
    }

    /// Builds a literal from a variable and a polarity (`true` = positive).
    #[inline]
    pub fn new(v: Var, positive: bool) -> Self {
        if positive {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` when this is the positive literal.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    #[inline]
    #[must_use]
    pub fn negated(self) -> Self {
        Lit(self.0 ^ 1)
    }

    /// Dense code usable as a watch-list index (`2*var + sign`).
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Inverse of [`Lit::code`].
    #[inline]
    pub fn from_code(code: usize) -> Self {
        Lit(code as u32)
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        self.negated()
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "{}", self.var())
        } else {
            write!(f, "!{}", self.var())
        }
    }
}

/// A plain CNF formula: a clause list plus a variable count.
///
/// [`crate::Solver::add_cnf`] loads one and [`Cnf::eval`] checks a model
/// against it; the [`crate::Solver`] keeps its own internal clause database.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cnf {
    /// Number of variables (`Var(0) .. Var(num_vars-1)`).
    pub num_vars: u32,
    /// The clauses; each clause is a disjunction of literals.
    pub clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// Creates an empty formula.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Appends a clause.
    pub fn add_clause(&mut self, lits: impl Into<Vec<Lit>>) {
        self.clauses.push(lits.into());
    }

    /// Evaluates the formula under a full assignment (`assignment[v]` is the
    /// value of `Var(v)`).
    ///
    /// # Panics
    ///
    /// Panics if the assignment is shorter than `num_vars`.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        assert!(assignment.len() >= self.num_vars as usize);
        self.clauses.iter().all(|c| {
            c.iter()
                .any(|l| assignment[l.var().index()] == l.is_positive())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding() {
        let v = Var(5);
        let p = Lit::pos(v);
        let n = Lit::neg(v);
        assert_eq!(p.var(), v);
        assert_eq!(n.var(), v);
        assert!(p.is_positive());
        assert!(!n.is_positive());
        assert_eq!(!p, n);
        assert_eq!(p.negated().negated(), p);
        assert_eq!(Lit::from_code(p.code()), p);
        assert_eq!(Lit::new(v, false), n);
    }

    #[test]
    fn eval_formula() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        cnf.add_clause(vec![Lit::pos(a), Lit::pos(b)]);
        cnf.add_clause(vec![Lit::neg(a), Lit::neg(b)]);
        assert!(cnf.eval(&[true, false]));
        assert!(cnf.eval(&[false, true]));
        assert!(!cnf.eval(&[false, false]));
        assert!(!cnf.eval(&[true, true]));
    }
}
