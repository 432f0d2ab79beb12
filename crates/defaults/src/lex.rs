//! Lexicographic entailment [Leh95, BCD+93]: the refinement of System Z
//! that counts violations per priority level instead of only tracking the
//! worst one.
//!
//! The paper's §3.3 introduces the *drowning problem*: a subclass that is
//! exceptional in one respect (penguins do not fly) is blocked by System Z
//! from inheriting every *unrelated* default (yellow things are easy to
//! see), because System Z ranks worlds only by the highest-priority rule
//! they falsify. Lexicographic entailment repairs this by comparing, level
//! by level from most-specific to most-normal, *how many* rules a world
//! violates. Random worlds repairs it too (Theorem 5.16, Example 5.21);
//! this module lets the experiment harness line the three systems up on the
//! same rule sets.
//!
//! Priorities come from the same toleration partition (`z_partition`) that
//! System Z uses, so the two systems differ only in the world ordering.

use rw_epsilon::prop::DefaultRule;
use rw_epsilon::systems::{world_count, z_partition};
use rw_epsilon::PropFormula;

/// The violation signature of a world: for each priority level, from the
/// most specific (highest toleration rank) down to the most normal, the
/// number of rules in that level the world falsifies.
pub fn violation_signature(
    rules: &[DefaultRule],
    partition: &[Vec<usize>],
    world: u32,
) -> Vec<usize> {
    partition
        .iter()
        .rev()
        .map(|level| level.iter().filter(|&&i| rules[i].falsified(world)).count())
        .collect()
}

/// Lexicographic entailment: does every lex-minimal `premise`-world satisfy
/// `conclusion`? Returns `None` when the rule set is ε-inconsistent (no
/// toleration partition exists). A premise with no worlds entails
/// everything vacuously.
///
/// ```
/// use rw_defaults::lex_entails;
/// use rw_epsilon::prop::{DefaultRule, VarTable};
///
/// let mut vt = VarTable::new();
/// let rules = vec![
///     DefaultRule::new(vt.parse("bird").unwrap(), vt.parse("fly").unwrap()),
///     DefaultRule::new(vt.parse("penguin").unwrap(), vt.parse("!fly").unwrap()),
///     DefaultRule::new(vt.parse("penguin").unwrap(), vt.parse("bird").unwrap()),
///     DefaultRule::new(vt.parse("yellow").unwrap(), vt.parse("see").unwrap()),
/// ];
/// let yp = vt.parse("yellow & penguin").unwrap();
/// let see = vt.parse("see").unwrap();
/// // The yellow penguin is easy to see — no drowning (§3.3).
/// assert_eq!(lex_entails(&rules, &yp, &see), Some(true));
/// ```
pub fn lex_entails(
    rules: &[DefaultRule],
    premise: &PropFormula,
    conclusion: &PropFormula,
) -> Option<bool> {
    let partition = z_partition(rules)?;
    let worlds = world_count(rules, &[premise, conclusion]);

    let mut best: Option<Vec<usize>> = None;
    let mut all_satisfy = true;
    for w in 0..worlds {
        if !premise.eval(w) {
            continue;
        }
        let sig = violation_signature(rules, &partition, w);
        match &best {
            Some(b) if sig > *b => continue,
            Some(b) if sig == *b => {
                all_satisfy = all_satisfy && conclusion.eval(w);
            }
            _ => {
                best = Some(sig);
                all_satisfy = conclusion.eval(w);
            }
        }
    }
    Some(all_satisfy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rw_epsilon::prop::VarTable;
    use rw_epsilon::z_entails;

    fn rule(vt: &mut VarTable, p: &str, c: &str) -> DefaultRule {
        DefaultRule::new(vt.parse(p).unwrap(), vt.parse(c).unwrap())
    }

    /// The paper's KB_fly + yellow default (§3.3, Example 5.21).
    fn drowning_rules(vt: &mut VarTable) -> Vec<DefaultRule> {
        vec![
            rule(vt, "bird", "fly"),
            rule(vt, "penguin", "!fly"),
            rule(vt, "penguin", "bird"),
            rule(vt, "yellow", "easy_to_see"),
        ]
    }

    #[test]
    fn simple_default_fires() {
        let mut vt = VarTable::new();
        let rules = vec![rule(&mut vt, "bird", "fly")];
        let bird = vt.parse("bird").unwrap();
        let fly = vt.parse("fly").unwrap();
        assert_eq!(lex_entails(&rules, &bird, &fly), Some(true));
    }

    #[test]
    fn specificity_holds() {
        let mut vt = VarTable::new();
        let rules = drowning_rules(&mut vt);
        let penguin = vt.parse("penguin").unwrap();
        let not_fly = vt.parse("!fly").unwrap();
        assert_eq!(lex_entails(&rules, &penguin, &not_fly), Some(true));
    }

    #[test]
    fn lex_solves_the_drowning_problem_where_z_drowns() {
        let mut vt = VarTable::new();
        let rules = drowning_rules(&mut vt);
        let yp = vt.parse("yellow & penguin").unwrap();
        let ets = vt.parse("easy_to_see").unwrap();
        // System Z drowns: the yellow penguin cannot inherit visibility.
        assert_eq!(z_entails(&rules, &yp, &ets), Some(false));
        // Lexicographic entailment does not.
        assert_eq!(lex_entails(&rules, &yp, &ets), Some(true));
    }

    #[test]
    fn exceptional_subclass_inheritance() {
        // Warm-bloodedness (§3.3): a bird default unrelated to flight.
        let mut vt = VarTable::new();
        let mut rules = drowning_rules(&mut vt);
        rules.push(rule(&mut vt, "bird", "warm_blooded"));
        let penguin = vt.parse("penguin").unwrap();
        let wb = vt.parse("warm_blooded").unwrap();
        assert_eq!(z_entails(&rules, &penguin, &wb), Some(false));
        assert_eq!(lex_entails(&rules, &penguin, &wb), Some(true));
    }

    #[test]
    fn inconsistent_rules_return_none() {
        let mut vt = VarTable::new();
        let rules = vec![rule(&mut vt, "p", "q"), rule(&mut vt, "p", "!q")];
        let p = vt.parse("p").unwrap();
        let q = vt.parse("q").unwrap();
        assert_eq!(lex_entails(&rules, &p, &q), None);
    }

    #[test]
    fn unsatisfiable_premise_entails_vacuously() {
        let mut vt = VarTable::new();
        let rules = vec![rule(&mut vt, "p", "q")];
        let contradiction = vt.parse("p & !p").unwrap();
        let q = vt.parse("q").unwrap();
        assert_eq!(lex_entails(&rules, &contradiction, &q), Some(true));
    }

    #[test]
    fn nixon_diamond_remains_ambiguous() {
        let mut vt = VarTable::new();
        let rules = vec![
            rule(&mut vt, "quaker", "pacifist"),
            rule(&mut vt, "republican", "!pacifist"),
        ];
        let both = vt.parse("quaker & republican").unwrap();
        let pac = vt.parse("pacifist").unwrap();
        // Both one-violation worlds are lex-minimal: no conclusion either
        // way, matching random worlds' symmetric 1/2 (§5.3).
        assert_eq!(lex_entails(&rules, &both, &pac), Some(false));
        assert_eq!(
            lex_entails(&rules, &both, &PropFormula::not(pac)),
            Some(false)
        );
    }

    #[test]
    fn signature_orders_most_specific_first() {
        let mut vt = VarTable::new();
        let rules = drowning_rules(&mut vt);
        let partition = z_partition(&rules).unwrap();
        // A world where a penguin flies violates a level-1 rule; signature
        // leads with the most specific level.
        let penguin = vt.var("penguin");
        let bird = vt.var("bird");
        let fly = vt.var("fly");
        let w = (1 << penguin | 1 << bird | 1 << fly) as u32;
        let sig = violation_signature(&rules, &partition, w);
        assert_eq!(sig.len(), partition.len());
        assert!(sig[0] >= 1, "penguin→¬fly violation counts at the front");
    }
}
