//! Pins the exact bytes of `canon::canonical_formula` and the values of
//! `canon::kb_fingerprint` for the conjunction and disjunction shapes the
//! parser can build: left-deep and right-nested chains, mixed `&`/`or`/`!`,
//! duplicates, and KB statements that are themselves conjunctions.
//! Answer-cache keys and server snapshots store these bytes, so a change
//! to how `&`/`or` are represented must leave every value below as it is.

use rw_logic::{canon, KnowledgeBase};

const KB: &str = "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); Fever(Tom)";

#[test]
fn canonical_query_strings_are_pinned() {
    let cases: &[(&str, &str)] = &[
        (
            "Hep(Eric) & Jaun(Eric) & Fever(Eric)",
            "&(P:Fever(c:Eric),P:Hep(c:Eric),P:Jaun(c:Eric))",
        ),
        (
            "Hep(Eric) & (Jaun(Eric) & Fever(Eric))",
            "&(P:Fever(c:Eric),P:Hep(c:Eric),P:Jaun(c:Eric))",
        ),
        (
            "(Hep(Eric) & Jaun(Eric)) & (Fever(Eric) & Hep(Tom))",
            "&(P:Fever(c:Eric),P:Hep(c:Eric),P:Hep(c:Tom),P:Jaun(c:Eric))",
        ),
        (
            "Hep(Eric) or Jaun(Eric) or Fever(Eric)",
            "|(P:Fever(c:Eric),P:Hep(c:Eric),P:Jaun(c:Eric))",
        ),
        (
            "Hep(Eric) or (Jaun(Eric) or (Fever(Eric) or Hep(Tom)))",
            "|(P:Fever(c:Eric),P:Hep(c:Eric),P:Hep(c:Tom),P:Jaun(c:Eric))",
        ),
        (
            "!(Hep(Eric) or Jaun(Eric)) & (Fever(Eric) or !!Hep(Eric)) or Jaun(Tom)",
            "|(&(!(|(P:Hep(c:Eric),P:Jaun(c:Eric))),|(P:Fever(c:Eric),P:Hep(c:Eric))),P:Jaun(c:Tom))",
        ),
        (
            "!!(Hep(Eric) & Jaun(Eric)) & Fever(Eric)",
            "&(&(P:Hep(c:Eric),P:Jaun(c:Eric)),P:Fever(c:Eric))",
        ),
        (
            "(Hep(Eric) or Jaun(Eric)) & (Jaun(Eric) or Hep(Eric)) & !(Fever(Tom) & !Fever(Tom))",
            "&(!(&(!(P:Fever(c:Tom)),P:Fever(c:Tom))),|(P:Hep(c:Eric),P:Jaun(c:Eric)))",
        ),
        (
            "Hep(Eric) & Hep(Eric) & (Hep(Eric) & Jaun(Eric))",
            "&(P:Hep(c:Eric),P:Jaun(c:Eric))",
        ),
        (
            "Hep(Eric) or Hep(Eric)",
            "P:Hep(c:Eric)",
        ),
        (
            "(Hep(Eric) & Hep(Eric)) or (Hep(Eric) & Hep(Eric)) or Jaun(Eric)",
            "|(P:Hep(c:Eric),P:Jaun(c:Eric))",
        ),
        (
            "Hep(Eric) & true & (false or Jaun(Eric))",
            "&(P:Hep(c:Eric),T,|(F,P:Jaun(c:Eric)))",
        ),
        (
            "forall x (Hep(x) & (Jaun(x) & Fever(x)) => Hep(x) or (Jaun(x) or Fever(x)))",
            "A(=>(&(P:Fever($0),P:Hep($0),P:Jaun($0)),|(P:Fever($0),P:Hep($0),P:Jaun($0))))",
        ),
        (
            "exists x (Hep(x) & Jaun(x)) <=> (Fever(Tom) & Hep(Tom))",
            "<=>(&(P:Fever(c:Tom),P:Hep(c:Tom)),E(&(P:Hep($0),P:Jaun($0))))",
        ),
        (
            "||Hep(x) & (Jaun(x) & Fever(x)) | Jaun(x) or Fever(x) or Hep(x)||_x ~=_1 0.8",
            "cmp[~=1](prop1(&(P:Fever($0),P:Hep($0),P:Jaun($0))||(P:Fever($0),P:Hep($0),P:Jaun($0))),r:4/5)",
        ),
        (
            "0.2 <~_2 ||Hep(x) & Jaun(x)||_x & ||Jaun(x) & Hep(x)||_x <= 0.9",
            "&(cmp[<=](prop1(&(P:Hep($0),P:Jaun($0))|),r:9/10),cmp[<~2](r:1/5,prop1(&(P:Hep($0),P:Jaun($0))|)))",
        ),
        (
            "exists! x (Hep(x) & Jaun(x))",
            "E(&(A(=>(&(P:Hep($1),P:Jaun($1)),=($0,$1))),P:Hep($0),P:Jaun($0)))",
        ),
    ];
    for (query, want) in cases {
        let mut kb = KnowledgeBase::parse(KB).unwrap();
        let q = kb.parse_query(query).unwrap();
        assert_eq!(
            canon::canonical_formula(kb.vocab(), &q),
            *want,
            "query `{query}`"
        );
    }
}

#[test]
fn kb_fingerprints_and_conjoined_forms_are_pinned() {
    let cases: &[(&str, u64, &str)] = &[
        (
            "Hep(Eric) & Jaun(Eric)",
            0x8a12_058d_778f_b718,
            "&(P:Hep(c:Eric),P:Jaun(c:Eric))",
        ),
        (
            "Hep(Eric) & (Jaun(Eric) & Fever(Eric)); Jaun(Tom)",
            0x1611_8fed_546f_1f00,
            "&(P:Fever(c:Eric),P:Hep(c:Eric),P:Jaun(c:Eric),P:Jaun(c:Tom))",
        ),
        (
            "(Hep(Eric) & Jaun(Eric)) & Fever(Eric); Jaun(Tom) or (Hep(Tom) or Fever(Tom))",
            0x2c92_3ef2_d08e_fd3e,
            "&(P:Fever(c:Eric),P:Hep(c:Eric),P:Jaun(c:Eric),|(P:Fever(c:Tom),P:Hep(c:Tom),P:Jaun(c:Tom)))",
        ),
        (
            "||Hep(x) | Jaun(x)||_x ~=_1 0.8 & Jaun(Eric); Jaun(Eric) & Jaun(Eric)",
            0x79ad_8f60_85b3_65dd,
            "&(P:Jaun(c:Eric),cmp[~=1](prop1(P:Hep($0)|P:Jaun($0)),r:4/5))",
        ),
        (
            "forall x (Bird(x) & Penguin(x) => !Fly(x)); Bird(x) ->_1 Fly(x) & (Wings(x) & Feathers(x)); Penguin(Tweety)",
            0xf6a1_f1d3_17fd_d9cc,
            "&(A(=>(&(P:Bird($0),P:Penguin($0)),!(P:Fly($0)))),P:Penguin(c:Tweety),cmp[~=1](prop1(&(P:Feathers($0),P:Fly($0),P:Wings($0))|P:Bird($0)),r:1/1))",
        ),
    ];
    for (src, fingerprint, conjoined) in cases {
        let kb = KnowledgeBase::parse(src).unwrap();
        assert_eq!(canon::kb_fingerprint(&kb), *fingerprint, "KB `{src}`");
        let whole = canon::canonical_formula(kb.vocab(), &kb.as_formula());
        assert_eq!(whole, *conjoined, "KB `{src}` as one formula");
    }
}
