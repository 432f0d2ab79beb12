//! Pinned Monte-Carlo streams: exact `Tally` values for fixed seeds.
//!
//! The sampler's answers are a pure function of `(seed, KB, query,
//! sweep)`, and served answers, cache entries and the benchmark's vetted
//! seeds all depend on that function staying put. These tallies were
//! captured from the `World`/`Evaluator` sampler that preceded the
//! compiled slot-vector kernel; any change to the RNG call order, the
//! accept decisions or the weight arithmetic shows up here as a
//! mismatch. Every field is compared, the floats bit for bit.
//!
//! Coverage:
//! * the four unary-limits benchmark family shapes (both queries each)
//!   on the `(1/4, 8), (1/8, 16), (1/16, 32)` diagonal, 16,384 draws;
//! * a binary predicate whose two forced literals collide whenever the
//!   constants do (structural rejections);
//! * a unary function with an equality, so function-table entries are
//!   drawn from the stream.

use rw_logic::KnowledgeBase;
use rw_util::Rat;
use rw_worlds::mc::{estimate_sweep, McConfig, Tally};

/// `[drawn, accepted, hits, w_acc, w_hit, w2_acc, w2_hit]`, floats as
/// their IEEE-754 bit patterns.
type Row = [u64; 7];

/// `(KB, query, one row per sweep point)`.
type Case = (&'static str, &'static str, &'static [Row]);

#[rustfmt::skip]
const UNARY_LIMITS: &[Case] = &[
    (
        "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); Jaun(Tom)",
        "Hep(Eric) & Hep(Tom)",
        &[
            [5461, 4866, 3448, 0x40835f5f0a420000, 0x40745cbfb4840000, 0x40649f7db734ac36, 0x405284138f0038ca],
            [5461, 3599, 2352, 0x406940aad087cc69, 0x405d5038f4750771, 0x403493fb5593b768, 0x4026ebae47f53fcf],
            [5462, 2512, 1631, 0x4040d393b76170d3, 0x40352c4b156ae03b, 0x3fea68e1dcdf8ebd, 0x3fe0f624ed82bfee],
        ],
    ),
    (
        "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); Jaun(Tom)",
        "Hep(Eric) & !Hep(Tom)",
        &[
            [5461, 4866, 622, 0x40835f5f0a420000, 0x405c4ea55b800001, 0x40649f7db734ac36, 0x403da254288c4828],
            [5461, 3599, 557, 0x406940aad087cc69, 0x4041cffce7912b01, 0x403493fb5593b768, 0x400c0cbce85bcede],
            [5462, 2512, 367, 0x4040d393b76170d3, 0x40151b4241434134, 0x3fea68e1dcdf8ebd, 0x3fc01cc27a7774af],
        ],
    ),
    (
        "||Hep(x)||_x ~=_1 0.3; Jaun(Eric); Jaun(Tom)",
        "Hep(Eric) & Hep(Tom)",
        &[
            [5461, 4853, 470, 0x408d81c79050ea11, 0x4064b9f28fac4ab0, 0x40750da3ac92d87b, 0x405512f77beb939a],
            [5461, 3968, 321, 0x407450b3a5049466, 0x4043d683992b6e05, 0x40475007e8184fc4, 0x401d0a9f6c8ea115],
            [5462, 3016, 269, 0x4052974b73595689, 0x401f3226180951f4, 0x4009e437ca1c72d4, 0x3fd875ec8aa22152],
        ],
    ),
    (
        "||Hep(x)||_x ~=_1 0.3; Jaun(Eric); Jaun(Tom)",
        "!Hep(Eric) & Hep(Tom)",
        &[
            [5461, 4853, 943, 0x408d81c79050ea11, 0x4068c686157e58df, 0x40750da3ac92d87b, 0x40507525f63f0523],
            [5461, 3968, 775, 0x407450b3a5049466, 0x404f9fc5a57c4c5a, 0x40475007e8184fc4, 0x40209497a92accb1],
            [5462, 3016, 605, 0x4052974b73595689, 0x402fbe3645aeb543, 0x4009e437ca1c72d4, 0x3fe6150992ff3a76],
        ],
    ),
    (
        "||Fly(x) | Bird(x)||_x ~=_1 0.9; Bird(Tweety); Bird(Opus)",
        "Fly(Tweety) & Fly(Opus)",
        &[
            [5461, 5176, 4430, 0x407adbfb767a02b4, 0x40711f13d3d64414, 0x405fc158d991ae24, 0x4052a7d85c1249c0],
            [5461, 4869, 4143, 0x4056811a8199b66d, 0x404ffa53ce3b435a, 0x40171b0e3521807c, 0x400f90cb708903c4],
            [5462, 3449, 2819, 0x400f965cc562baf5, 0x4007eed2de01a360, 0x3f9391eb4c4f1e0b, 0x3f8ddf1add9ede2f],
        ],
    ),
    (
        "||Fly(x) | Bird(x)||_x ~=_1 0.9; Bird(Tweety); Bird(Opus)",
        "Fly(Tweety) & !Fly(Opus)",
        &[
            [5461, 5176, 345, 0x407adbfb767a02b4, 0x40507dcda0d93fe3, 0x405fc158d991ae24, 0x403397398952cf3b],
            [5461, 4869, 342, 0x4056811a8199b66d, 0x402892812ce2c68a, 0x40171b0e3521807c, 0x3fea5383d753001e],
            [5462, 3449, 300, 0x400f965cc562baf5, 0x3fde2613f617e514, 0x3f9391eb4c4f1e0b, 0x3f62f6f9bd61ae30],
        ],
    ),
    (
        "||Hep(x) | Jaun(x)||_x ~=_1 0.6; Jaun(Eric); Jaun(Tom); Jaun(Ann)",
        "Hep(Eric) & Hep(Tom)",
        &[
            [5461, 4136, 1553, 0x4083a9173a04ea9a, 0x406b107f705f8460, 0x405e402392c019b2, 0x4043b830e86af80b],
            [5461, 3042, 1022, 0x4078403be661416c, 0x405f8a5a5900b00b, 0x404dcfb1e5560958, 0x40336cf23f19d4ca],
            [5462, 2046, 727, 0x406989d98acaa677, 0x40524be68b9b2d16, 0x40372b20a221576c, 0x402118f2f83f8e99],
        ],
    ),
    (
        "||Hep(x) | Jaun(x)||_x ~=_1 0.6; Jaun(Eric); Jaun(Tom); Jaun(Ann)",
        "Hep(Ann) & !Hep(Tom)",
        &[
            [5461, 4136, 996, 0x4083a9173a04ea9a, 0x406208bb7bbdfb13, 0x405e402392c019b2, 0x4039601c1d15c4d3],
            [5461, 3042, 751, 0x4078403be661416c, 0x4057149591f3dfba, 0x404dcfb1e5560958, 0x402a6a3485fe05e5],
            [5462, 2046, 520, 0x406989d98acaa677, 0x40492ed75c4dd271, 0x40372b20a221576c, 0x4015b227fdc4439a],
        ],
    ),
];

#[rustfmt::skip]
const SMALL_DIAGONAL: &[Case] = &[
    (
        "Likes(A, B); !Likes(B, A)",
        "Likes(A, A) or Likes(B, B)",
        &[
            [2048, 1535, 1148, 0x4077fc0000000000, 0x4071f00000000000, 0x4057fc0000000000, 0x4051f00000000000],
            [2048, 1795, 1316, 0x407c0c0000000000, 0x4074900000000000, 0x405c0c0000000000, 0x4054900000000000],
        ],
    ),
    (
        "||P(x)||_x ~=_1 0.3; D = Next(C); P(Next(D))",
        "P(C) & C = Next(Next(C))",
        &[
            [2048, 125, 53, 0x40605fc59e4f7206, 0x404bd6a90212bdee, 0x4063b38330a5d72b, 0x4050c68724d451e3],
            [2048, 43, 11, 0x403c2923eb411312, 0x401e015ad02efa9c, 0x4034f97bb27ccab4, 0x4016ece145c3a542],
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

fn check(cases: &[Case], points: &[(Rat, usize)], samples: u64) {
    let cfg = McConfig {
        seed: 1,
        max_samples: samples,
        target_ci: 0.001,
        ..McConfig::default()
    };
    for &(kb_src, q_src, expected) in cases {
        let mut kb = KnowledgeBase::parse(kb_src).unwrap();
        let q = kb.parse_query(q_src).unwrap();
        let sweep = estimate_sweep(&kb, &q, points, &cfg);
        let got: Vec<Row> = sweep.points.iter().map(|p| row(&p.tally)).collect();
        assert_eq!(got, expected, "stream moved on `{kb_src}` ⊢ `{q_src}`");
    }
}

#[test]
fn unary_limits_family_tallies_are_pinned() {
    let diagonal = [
        (Rat::new(1, 4), 8),
        (Rat::new(1, 8), 16),
        (Rat::new(1, 16), 32),
    ];
    check(UNARY_LIMITS, &diagonal, 16384);
}

#[test]
fn collision_and_function_tallies_are_pinned() {
    check(
        SMALL_DIAGONAL,
        &[(Rat::new(1, 4), 4), (Rat::new(1, 8), 8)],
        4096,
    );
}
