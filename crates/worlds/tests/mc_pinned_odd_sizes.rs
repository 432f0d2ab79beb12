//! Pinned Monte-Carlo streams at domain sizes that are not powers of
//! two, where an element draw reduces its word by division rather than
//! by a mask and may reject a word: exact `Tally` values for one seed.
//!
//! Like `mc_pinned.rs` (whose diagonals all sit at powers of two), these
//! tallies were captured from the sampler that preceded the
//! stream-identical kernel, and every field is compared, the floats bit
//! for bit. The shapes cover a conditional proportion whose `else` coin
//! is biased too, with forced bits on both of its predicates; a binary
//! predicate whose forced literals collide whenever the constants do;
//! and function-table entries drawn from the stream.

use rw_logic::KnowledgeBase;
use rw_util::Rat;
use rw_worlds::mc::{estimate_sweep, McConfig, Tally};

/// `[drawn, accepted, hits, w_acc, w_hit, w2_acc, w2_hit]`, floats as
/// their IEEE-754 bit patterns.
type Row = [u64; 7];

/// `(KB, query, one row per sweep point)`.
type Case = (&'static str, &'static str, &'static [Row]);

#[rustfmt::skip]
const CASES: &[Case] = &[
    (
        "||Fly(x) | Bird(x)||_x ~=_1 0.9; Bird(Tweety); !Bird(Opus); Fly(Opus)",
        "Fly(Tweety)",
        &[
            [1024, 758, 735, 0x40433b529a1f72f4, 0x40415b36823e59fd, 0x400d93151fde63c5, 0x40085fcbe406870a],
            [1024, 706, 693, 0x403863824a8f562d, 0x40370b0c9c93a0ee, 0x3ff664f1710b6f04, 0x3ff421ebccf2f1d6],
            [1024, 665, 655, 0x402f9c5ec18c4017, 0x402e79162d6aa00b, 0x3fe1eb43814bac2e, 0x3fe0dcf513ad8fa8],
            [1024, 797, 750, 0x4027feb4b484ffbe, 0x4024d442c8b24277, 0x3fda4bfe72fa50ee, 0x3fd5c3a198147a01],
        ],
    ),
    (
        "Likes(A, B); !Likes(B, A); ||Likes(x, y)||_{x,y} ~=_1 0.3",
        "Likes(A, A) or Likes(B, B)",
        &[
            [1024, 551, 379, 0x4061380000000000, 0x4057b00000000000, 0x4041380000000000, 0x4037b00000000000],
            [1024, 263, 167, 0x4050700000000000, 0x4044e00000000000, 0x4030700000000000, 0x4024e00000000000],
            [1024, 111, 69, 0x403bc00000000000, 0x4031400000000000, 0x401bc00000000000, 0x4011400000000000],
            [1024, 12, 9, 0x4008000000000000, 0x4002000000000000, 0x3fe8000000000000, 0x3fe2000000000000],
        ],
    ),
    (
        "||P(x)||_x ~=_1 0.3; D = Next(C); P(Next(D)); !Q(C)",
        "P(C) & C = Next(Next(C))",
        &[
            [1024, 48, 16, 0x4031eeae07fc1d3a, 0x40184ba1762c48a8, 0x401ec8f2c534ae94, 0x400514bc817a5622],
            [1024, 28, 13, 0x4020f0d13ca17d8b, 0x400efd33d2cffe9e, 0x40067340d45b6e25, 0x3ff45bdcdbd45f80],
            [1024, 9, 2, 0x400297ebe4e33260, 0x3fe0870a92911056, 0x3fe334da0484bab4, 0x3fc11288e7926d13],
            [1024, 6, 1, 0x3fef125f90fb22ac, 0x3fbcae7f99855b14, 0x3fc7ec11b5cd917b, 0x3f89b516da4bb715],
        ],
    ),
];

fn row(t: &Tally) -> Row {
    [
        t.drawn,
        t.accepted,
        t.hits,
        t.w_acc.to_bits(),
        t.w_hit.to_bits(),
        t.w2_acc.to_bits(),
        t.w2_hit.to_bits(),
    ]
}

#[test]
fn tallies_at_sizes_off_the_powers_of_two_are_pinned() {
    let points = [
        (Rat::new(1, 4), 5),
        (Rat::new(1, 6), 6),
        (Rat::new(1, 8), 7),
        (Rat::new(1, 10), 12),
    ];
    let cfg = McConfig {
        seed: 1,
        max_samples: 4096,
        target_ci: 0.001,
        ..McConfig::default()
    };
    for &(kb_src, q_src, expected) in CASES {
        let mut kb = KnowledgeBase::parse(kb_src).unwrap();
        let q = kb.parse_query(q_src).unwrap();
        let sweep = estimate_sweep(&kb, &q, &points, &cfg);
        let got: Vec<Row> = sweep.points.iter().map(|p| row(&p.tally)).collect();
        assert_eq!(got, expected, "stream moved on `{kb_src}` ⊢ `{q_src}`");
    }
}
