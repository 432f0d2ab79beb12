//! ε-semantics (System P) and Pearl's System Z over propositional default
//! rules.
//!
//! * **ε-consistency / p-entailment** (Adams; Goldszmidt–Pearl): a rule set
//!   `R` is ε-consistent iff the toleration procedure empties it — repeatedly
//!   remove every rule *tolerated* by the remainder (some world verifies the
//!   rule while falsifying none of the rest). `R` p-entails `B → C` iff
//!   `R ∪ {B → ¬C}` is ε-inconsistent. p-entailment is exactly the five core
//!   KLM rules of the paper's §3.2 (and is therefore too weak for
//!   inheritance — reproduced in tests).
//! * **System Z** (Pearl): rank rules by the toleration partition; rank
//!   worlds by the highest-ranked rule they falsify; entail `B → C` iff the
//!   best `B ∧ C` world is strictly better ranked than the best `B ∧ ¬C`
//!   world. System Z adds rational monotonicity but *drowns* exceptional
//!   subclasses (paper §3.3) — also reproduced in tests.

use crate::prop::{DefaultRule, PropFormula};

/// The number of propositional worlds over the variables `rules` and
/// `extra` mention: `2^n` for the highest variable count `n` (at most 25).
pub fn world_count(rules: &[DefaultRule], extra: &[&PropFormula]) -> u32 {
    let mut n = 0usize;
    for r in rules {
        n = n.max(r.var_count());
    }
    for f in extra {
        n = n.max(f.var_count());
    }
    assert!(n <= 25, "too many propositional variables ({n})");
    1u32 << n
}

/// Is `rule` tolerated by `others`? (Some world verifies `rule` and
/// materially satisfies every rule in `others`.)
pub fn tolerated(rule: &DefaultRule, others: &[&DefaultRule]) -> bool {
    let all: Vec<&DefaultRule> = others.iter().copied().chain([rule]).collect();
    let mut n = 0usize;
    for r in &all {
        n = n.max(r.var_count());
    }
    let worlds = 1u32 << n;
    (0..worlds).any(|w| rule.verified(w) && others.iter().all(|o| !o.falsified(w)))
}

/// The toleration partition `Z₀, Z₁, ...`: `Zᵢ` contains the rules tolerated
/// by everything not yet removed. Returns `None` if the set is
/// ε-inconsistent (some nonempty remainder tolerates none of its rules).
pub fn z_partition(rules: &[DefaultRule]) -> Option<Vec<Vec<usize>>> {
    let mut remaining: Vec<usize> = (0..rules.len()).collect();
    let mut partition = Vec::new();
    while !remaining.is_empty() {
        let level: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| {
                let others: Vec<&DefaultRule> = remaining
                    .iter()
                    .filter(|&&j| j != i)
                    .map(|&j| &rules[j])
                    .collect();
                tolerated(&rules[i], &others)
            })
            .collect();
        if level.is_empty() {
            return None;
        }
        remaining.retain(|i| !level.contains(i));
        partition.push(level);
    }
    Some(partition)
}

/// ε-consistency of a rule set.
pub fn epsilon_consistent(rules: &[DefaultRule]) -> bool {
    z_partition(rules).is_some()
}

/// p-entailment (= ε-entailment = System P): `R |~ B → C` iff
/// `R ∪ {B → ¬C}` is ε-inconsistent.
pub fn p_entails(rules: &[DefaultRule], premise: &PropFormula, conclusion: &PropFormula) -> bool {
    let mut extended: Vec<DefaultRule> = rules.to_vec();
    extended.push(DefaultRule::new(
        premise.clone(),
        PropFormula::not(conclusion.clone()),
    ));
    !epsilon_consistent(&extended)
}

/// The System-Z rank of a world: 0 if it falsifies no rule, else
/// `1 + max` toleration level of a falsified rule.
pub fn z_rank(rules: &[DefaultRule], partition: &[Vec<usize>], world: u32) -> u32 {
    let mut rank = 0u32;
    for (level, idxs) in partition.iter().enumerate() {
        for &i in idxs {
            if rules[i].falsified(world) {
                rank = rank.max(level as u32 + 1);
            }
        }
    }
    rank
}

/// System-Z entailment: `κ(B ∧ C) < κ(B ∧ ¬C)` (with `κ(φ) = min` rank of a
/// `φ`-world; an unsatisfiable side has rank ∞). Returns `None` when the
/// rule set is ε-inconsistent.
pub fn z_entails(
    rules: &[DefaultRule],
    premise: &PropFormula,
    conclusion: &PropFormula,
) -> Option<bool> {
    let partition = z_partition(rules)?;
    let worlds = world_count(rules, &[premise, conclusion]);
    let mut best_with = u32::MAX;
    let mut best_without = u32::MAX;
    for w in 0..worlds {
        if !premise.eval(w) {
            continue;
        }
        let rank = z_rank(rules, &partition, w);
        if conclusion.eval(w) {
            best_with = best_with.min(rank);
        } else {
            best_without = best_without.min(rank);
        }
    }
    Some(best_with < best_without)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::VarTable;

    /// The penguin triad: birds fly, penguins don't, penguins are birds.
    fn penguin_rules(vt: &mut VarTable) -> Vec<DefaultRule> {
        vec![
            DefaultRule::new(vt.parse("bird").unwrap(), vt.parse("fly").unwrap()),
            DefaultRule::new(vt.parse("penguin").unwrap(), vt.parse("!fly").unwrap()),
            DefaultRule::new(vt.parse("penguin").unwrap(), vt.parse("bird").unwrap()),
        ]
    }

    #[test]
    fn penguins_are_consistent_and_partitioned() {
        let mut vt = VarTable::new();
        let rules = penguin_rules(&mut vt);
        let p = z_partition(&rules).unwrap();
        // bird→fly is tolerated first; the penguin rules form level 1.
        assert_eq!(p.len(), 2);
        assert_eq!(p[0], vec![0]);
        assert_eq!(p[1], vec![1, 2]);
    }

    #[test]
    fn contradictory_defaults_are_inconsistent() {
        let mut vt = VarTable::new();
        let rules = vec![
            DefaultRule::new(vt.parse("bird").unwrap(), vt.parse("fly").unwrap()),
            DefaultRule::new(vt.parse("bird").unwrap(), vt.parse("!fly").unwrap()),
        ];
        assert!(!epsilon_consistent(&rules));
    }

    #[test]
    fn p_entailment_gets_specificity_but_not_inheritance() {
        let mut vt = VarTable::new();
        let mut rules = penguin_rules(&mut vt);
        let penguin = vt.parse("penguin").unwrap();
        let no_fly = vt.parse("!fly").unwrap();
        // Specificity: penguins don't fly.
        assert!(p_entails(&rules, &penguin, &no_fly));
        // But p-entailment cannot do exceptional-subclass inheritance:
        // add birds→warm; penguins are NOT p-entailed to be warm.
        rules.push(DefaultRule::new(
            vt.parse("bird").unwrap(),
            vt.parse("warm").unwrap(),
        ));
        let warm = vt.parse("warm").unwrap();
        assert!(!p_entails(&rules, &penguin, &warm));
    }

    #[test]
    fn z_gets_irrelevance_but_drowns() {
        let mut vt = VarTable::new();
        let mut rules = penguin_rules(&mut vt);
        let penguin = vt.parse("penguin").unwrap();
        let no_fly = vt.parse("!fly").unwrap();
        assert_eq!(z_entails(&rules, &penguin, &no_fly), Some(true));
        // Irrelevance (rational monotonicity): red birds still fly.
        let red_bird = vt.parse("bird & red").unwrap();
        let fly = vt.parse("fly").unwrap();
        assert_eq!(z_entails(&rules, &red_bird, &fly), Some(true));
        // The drowning problem (paper §3.3): penguins inherit NOTHING from
        // birds in System Z, not even warm-bloodedness.
        rules.push(DefaultRule::new(
            vt.parse("bird").unwrap(),
            vt.parse("warm").unwrap(),
        ));
        let warm = vt.parse("warm").unwrap();
        assert_eq!(z_entails(&rules, &penguin, &warm), Some(false));
    }

    #[test]
    fn p_entailment_satisfies_core_klm_rules_numerically() {
        // Cut on a small theory: from {a→b, a&b→c}: a |~ c.
        let mut vt = VarTable::new();
        let rules = vec![
            DefaultRule::new(vt.parse("a").unwrap(), vt.parse("b").unwrap()),
            DefaultRule::new(vt.parse("a & b").unwrap(), vt.parse("c").unwrap()),
        ];
        let a = vt.parse("a").unwrap();
        let c = vt.parse("c").unwrap();
        assert!(p_entails(&rules, &a, &c));
        // And: a |~ b and a |~ c gives a |~ b & c.
        let bc = vt.parse("b & c").unwrap();
        assert!(p_entails(&rules, &a, &bc));
        // Reflexivity.
        assert!(p_entails(&rules, &a, &a));
    }

    #[test]
    fn no_transitivity_in_p() {
        // {a→b, b→c} does not p-entail a→c (the classic failure).
        let mut vt = VarTable::new();
        let rules = vec![
            DefaultRule::new(vt.parse("a").unwrap(), vt.parse("b").unwrap()),
            DefaultRule::new(vt.parse("b").unwrap(), vt.parse("c").unwrap()),
        ];
        let a = vt.parse("a").unwrap();
        let c = vt.parse("c").unwrap();
        assert!(!p_entails(&rules, &a, &c));
        // System Z does conclude it (rational monotonicity).
        assert_eq!(z_entails(&rules, &a, &c), Some(true));
    }
}
