//! A small Boolean-expression AST that can be lowered onto a [`BddManager`].
//!
//! Constraint functions (the paper's `Fc`) and structural gate equations are
//! conveniently written as [`Expr`] trees and then converted to BDDs in one
//! call.

use crate::manager::BddManager;
use crate::node::Bdd;

/// A Boolean expression over named variables.
///
/// # Example
///
/// ```
/// use msatpg_bdd::{BddManager, Expr};
///
/// let mut m = BddManager::new();
/// // Fc = l0 + l2  (the constraint of Example 2 in the paper)
/// let fc = Expr::or(Expr::var("l0"), Expr::var("l2"));
/// let bdd = fc.build(&mut m);
/// let l0 = m.var("l0");
/// let l2 = m.var("l2");
/// assert_eq!(bdd, m.or(l0, l2));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr {
    /// Constant `true` or `false`.
    Const(bool),
    /// A named variable.
    Var(String),
    /// Negation of a subexpression.
    Not(Box<Expr>),
    /// Conjunction of subexpressions (empty = `true`).
    And(Vec<Expr>),
    /// Disjunction of subexpressions (empty = `false`).
    Or(Vec<Expr>),
    /// Exclusive-or of exactly two subexpressions.
    Xor(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// The constant `true` expression.
    pub fn t() -> Self {
        Expr::Const(true)
    }

    /// The constant `false` expression.
    pub fn f() -> Self {
        Expr::Const(false)
    }

    /// A named variable.
    pub fn var(name: impl Into<String>) -> Self {
        Expr::Var(name.into())
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(e: Expr) -> Self {
        Expr::Not(Box::new(e))
    }

    /// Binary conjunction.
    pub fn and(a: Expr, b: Expr) -> Self {
        Expr::And(vec![a, b])
    }

    /// N-ary conjunction.
    pub fn and_all(es: Vec<Expr>) -> Self {
        Expr::And(es)
    }

    /// Binary disjunction.
    pub fn or(a: Expr, b: Expr) -> Self {
        Expr::Or(vec![a, b])
    }

    /// N-ary disjunction.
    pub fn or_all(es: Vec<Expr>) -> Self {
        Expr::Or(es)
    }

    /// Exclusive-or.
    pub fn xor(a: Expr, b: Expr) -> Self {
        Expr::Xor(Box::new(a), Box::new(b))
    }

    /// Lowers the expression onto a manager, declaring any variables it
    /// mentions that are not declared yet.
    pub fn build(&self, m: &mut BddManager) -> Bdd {
        match self {
            Expr::Const(b) => m.constant(*b),
            Expr::Var(name) => m.var(name),
            Expr::Not(e) => {
                let inner = e.build(m);
                m.not(inner)
            }
            Expr::And(es) => es.iter().fold(m.one(), |acc, e| {
                let b = e.build(m);
                m.and(acc, b)
            }),
            Expr::Or(es) => es.iter().fold(m.zero(), |acc, e| {
                let b = e.build(m);
                m.or(acc, b)
            }),
            Expr::Xor(a, b) => {
                let ba = a.build(m);
                let bb = b.build(m);
                m.xor(ba, bb)
            }
        }
    }

    /// Collects the variable names referenced by the expression (with
    /// duplicates removed, in first-appearance order).
    pub fn variables(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(n) => {
                if !out.iter().any(|x| x == n) {
                    out.push(n.clone());
                }
            }
            Expr::Not(e) => e.collect_vars(out),
            Expr::And(es) | Expr::Or(es) => {
                for e in es {
                    e.collect_vars(out);
                }
            }
            Expr::Xor(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_build_to_terminals() {
        let mut m = BddManager::new();
        assert!(Expr::t().build(&mut m).is_one());
        assert!(Expr::f().build(&mut m).is_zero());
    }

    #[test]
    fn nested_expression_matches_manual_construction() {
        let mut m = BddManager::new();
        let e = Expr::and(
            Expr::or(Expr::var("a"), Expr::var("b")),
            Expr::not(Expr::var("c")),
        );
        let built = e.build(&mut m);
        let a = m.var("a");
        let b = m.var("b");
        let c = m.var("c");
        let manual = {
            let ab = m.or(a, b);
            let nc = m.not(c);
            m.and(ab, nc)
        };
        assert_eq!(built, manual);
    }

    #[test]
    fn xor_expression() {
        let mut m = BddManager::new();
        let e = Expr::xor(Expr::var("x"), Expr::var("y"));
        let built = e.build(&mut m);
        let x = m.var("x");
        let y = m.var("y");
        assert_eq!(built, m.xor(x, y));
    }

    #[test]
    fn empty_and_or() {
        let mut m = BddManager::new();
        assert!(Expr::and_all(vec![]).build(&mut m).is_one());
        assert!(Expr::or_all(vec![]).build(&mut m).is_zero());
    }

    #[test]
    fn variables_are_collected_in_order_without_duplicates() {
        let e = Expr::or_all(vec![
            Expr::var("b"),
            Expr::and(Expr::var("a"), Expr::var("b")),
            Expr::xor(Expr::var("c"), Expr::not(Expr::var("a"))),
        ]);
        assert_eq!(e.variables(), vec!["b", "a", "c"]);
    }
}
