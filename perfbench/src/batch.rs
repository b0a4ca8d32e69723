//! The two batch workloads: `words` (the Fig. 8 address-generator route of
//! Table 6) and `arith` (the Table 5 LUT-cascade route).
//!
//! A pass synthesizes every function of the workload once; passes repeat
//! until the run's time is used. `synth_wall_s` is the median pass time,
//! spec to emitted cascade. No check runs inside a timed synthesis: each
//! first-pass result is verified against its generator's oracle and
//! audited right after it is timed, then dropped, so only one function's
//! managers are alive at a time; later passes must emit byte-identical
//! artifacts.

use crate::common::{self, Engine, Metrics, Rng};
use crate::trace::{self, span};
use bddcf_bdd::{BddManager, ReorderCost};
use bddcf_cascade::{synthesize_partitioned, AddressGenerator, CascadeOptions, MultiCascade};
use bddcf_check::audit_artifact_text;
use bddcf_core::partition::partition_outputs;
use bddcf_core::{CfLayout, IsfBdds};
use bddcf_funcs::words::synthetic_words;
use bddcf_funcs::{
    build_isf_pieces, Benchmark, DecimalAdder, DecimalMultiplier, RadixConverter, RnsConverter,
    WordList,
};
use bddcf_io::{cascade_to_verilog, write_cascade};
use bddcf_logic::{MultiOracle, Response};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Words per list and lists per pass of the `words` workload.
const WORDS_PER_LIST: usize = 200;
const WORD_LISTS: usize = 3;
/// Seeded non-words checked per list (Table 6 checks 2000).
const NON_WORDS: usize = 20_000;
/// Seeded care inputs checked per arithmetic function.
const CARE_SAMPLES: usize = 1000;
/// The set-up is repeated at least this often and for at least this long.
const SETUP_MIN_REPEATS: usize = 11;
const SETUP_MIN_S: f64 = 1.0;

/// One arithmetic function of the `arith` workload.
#[derive(Clone, Debug, PartialEq)]
pub enum ArithFn {
    Rns(Vec<u64>),
    Radix(u64, usize),
    Adder(usize),
    Multiplier(usize),
}

impl ArithFn {
    fn generator(&self) -> Box<dyn Benchmark> {
        match self {
            ArithFn::Rns(moduli) => Box::new(RnsConverter::new(moduli.clone())),
            ArithFn::Radix(p, k) => Box::new(RadixConverter::new(*p, *k)),
            ArithFn::Adder(k) => Box::new(DecimalAdder::new(*k)),
            ArithFn::Multiplier(k) => Box::new(DecimalMultiplier::new(*k)),
        }
    }
}

/// The 13 arithmetic rows of Table 5 with their pinned optimized columns
/// (Cel*, LUT*, Mem*) from `results_table5.txt`.
pub fn table5_rows() -> Vec<(ArithFn, [u64; 3])> {
    use ArithFn::*;
    vec![
        (Rns(vec![5, 7, 11, 13]), [4, 29, 69632]),
        (Rns(vec![7, 11, 13, 17]), [8, 73, 190464]),
        (Rns(vec![11, 13, 15, 17]), [18, 115, 313344]),
        (Radix(11, 4), [4, 29, 104448]),
        (Radix(13, 4), [5, 40, 124928]),
        (Radix(10, 5), [8, 66, 180224]),
        (Radix(5, 6), [6, 43, 88064]),
        (Radix(6, 6), [5, 38, 122880]),
        (Radix(7, 6), [8, 56, 178176]),
        (Radix(3, 10), [8, 68, 206848]),
        (Adder(3), [6, 22, 9728]),
        (Adder(4), [8, 29, 15104]),
        (Multiplier(2), [7, 63, 178176]),
    ]
}

fn bits_for(max: u64) -> u32 {
    64 - max.leading_zeros()
}

/// A function of the same family and size as `row`: a radix converter may
/// take another radix whose digits and result keep their bit widths. The
/// RNS converters keep the paper's moduli: every other same-size moduli
/// set, and every other order of the same moduli, moves the row's sifting
/// and Alg. 3.3 time by up to 2x, which made the seed rather than the code
/// the largest source of spread. The decimal adders and the multiplier
/// have no free parameter at a given digit count.
fn sibling(row: &ArithFn, rng: &mut Rng) -> ArithFn {
    match row {
        ArithFn::Radix(p, k) => {
            let b = bits_for(p - 1);
            let same_size = |q: u64| {
                !q.is_power_of_two()
                    && bits_for(q - 1) == b
                    && bits_for(q.pow(*k as u32) - 1) == bits_for(p.pow(*k as u32) - 1)
            };
            let choices: Vec<u64> = (3..=(1u64 << b)).filter(|&q| same_size(q)).collect();
            ArithFn::Radix(choices[rng.range(0, choices.len() as u64) as usize], *k)
        }
        other => other.clone(),
    }
}

/// Seed 0 is Table 5 itself; any other seed draws a sibling for each row.
pub fn arith_functions(seed: u64) -> Vec<ArithFn> {
    let rows = table5_rows().into_iter().map(|(f, _)| f);
    if seed == 0 {
        return rows.collect();
    }
    let mut rng = Rng::new(seed);
    rows.map(|f| sibling(&f, &mut rng)).collect()
}

/// Counters taken at the layer boundaries of one pass.
#[derive(Default)]
struct LayerCounts {
    engine: Engine,
    prepare_calls: u64,
    alg33_width_sum: u64,
    emit_bytes: u64,
}

/// A synthesized function: the cascades, or for a word list the Fig. 8
/// address generator built around them.
enum Realized {
    Cascades(MultiCascade),
    Generator(AddressGenerator),
}

/// What one function's synthesis produced.
struct Synthesized {
    wall: Duration,
    /// Kept for the first-pass checks (unreduced specification).
    mgr: BddManager,
    layout: CfLayout,
    isf: IsfBdds,
    realized: Realized,
    texts: Vec<(String, String)>,
}

impl Synthesized {
    fn cascades(&self) -> &MultiCascade {
        match &self.realized {
            Realized::Cascades(m) => m,
            Realized::Generator(g) => g.cascades(),
        }
    }
}

fn emit(multi: &MultiCascade, counts: &mut LayerCounts) -> Vec<(String, String)> {
    span("io.emit", || {
        multi
            .cascades
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let text = write_cascade(c);
                let verilog = cascade_to_verilog(c, &format!("part{i}"))
                    .expect("invariant: part<i> is a valid module name");
                counts.emit_bytes += (text.len() + verilog.len()) as u64;
                (text, verilog)
            })
            .collect()
    })
}

fn prepare(cf: &mut bddcf_core::Cf, support: bool, counts: &mut LayerCounts) {
    span("cascade.prepare", || {
        if support {
            span("core.support", || cf.reduce_support_variables());
        }
        span("core.sift", || {
            cf.optimize_order(ReorderCost::SumOfWidths, 1)
        });
        let stats = span("core.alg33", || cf.reduce_alg33_default());
        counts.prepare_calls += 1;
        counts.alg33_width_sum += stats.max_width_after as u64;
        counts.engine.add(&cf.manager().engine_stats());
    });
}

/// Spec to emitted cascade for one function, timed. A word list takes the
/// Fig. 8 route of Table 6 (one part, support reduction, address
/// generator); an arithmetic function the Table 5 route (two output halves).
fn synthesize(f: &dyn Benchmark, list: Option<&WordList>, counts: &mut LayerCounts) -> Synthesized {
    let t0 = Instant::now();
    let (mgr, layout, isf) = span("funcs.build", || build_isf_pieces(f));
    let m = layout.num_outputs();
    let parts = match list {
        #[allow(clippy::single_range_in_vec_init)] // the partition API takes a list
        Some(_) => vec![0..m],
        None => vec![0..m.div_ceil(2), m.div_ceil(2)..m],
    };
    let multi = span("cascade.synthesize_partitioned", || {
        synthesize_partitioned(
            &mgr,
            &layout,
            &isf,
            &parts,
            &CascadeOptions::default(),
            |cf| prepare(cf, list.is_some(), counts),
        )
    });
    let texts = emit(&multi, counts);
    let realized = match list {
        Some(list) => Realized::Generator(span("cascade.addrgen", || {
            AddressGenerator::new(multi, list.encoded().to_vec(), list.num_inputs())
        })),
        None => Realized::Cascades(multi),
    };
    let wall = t0.elapsed();
    counts.engine.add(&mgr.engine_stats());
    Synthesized {
        wall,
        mgr,
        layout,
        isf,
        realized,
        texts,
    }
}

/// Generated inputs of a batch workload.
enum Inputs {
    Words {
        lists: Vec<WordList>,
        non_words: Vec<Vec<u64>>,
    },
    Arith {
        seed: u64,
        functions: Vec<Box<dyn Benchmark>>,
        care: Vec<Vec<(Vec<bool>, u64)>>,
    },
}

impl Inputs {
    fn len(&self) -> usize {
        match self {
            Inputs::Words { lists, .. } => lists.len(),
            Inputs::Arith { functions, .. } => functions.len(),
        }
    }

    fn name(&self, i: usize) -> String {
        match self {
            Inputs::Words { lists, .. } => format!("{} words", lists[i].len()),
            Inputs::Arith { functions, .. } => functions[i].name(),
        }
    }

    fn synth(&self, i: usize, counts: &mut LayerCounts) -> Synthesized {
        match self {
            Inputs::Words { lists, .. } => synthesize(&lists[i], Some(&lists[i]), counts),
            Inputs::Arith { functions, .. } => synthesize(functions[i].as_ref(), None, counts),
        }
    }
}

fn make_words(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let lists: Vec<WordList> = (0..WORD_LISTS)
        .map(|_| WordList::new(synthetic_words(WORDS_PER_LIST, rng.next_u64()), true))
        .collect();
    let non_words = lists
        .iter()
        .map(|list| {
            let mut out = Vec::with_capacity(NON_WORDS);
            while out.len() < NON_WORDS {
                let w = rng.next_u64() & ((1u64 << 40) - 1);
                if !list.encoded().contains(&w) {
                    out.push(w);
                }
            }
            out
        })
        .collect();
    Inputs::Words { lists, non_words }
}

fn make_arith(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed ^ 0xa5a5);
    let functions: Vec<Box<dyn Benchmark>> = arith_functions(seed)
        .iter()
        .map(ArithFn::generator)
        .collect();
    let care = functions
        .iter()
        .map(|f| {
            let n = f.num_inputs();
            let mut out = Vec::with_capacity(CARE_SAMPLES);
            while out.len() < CARE_SAMPLES {
                let word = rng.next_u64() & ((1u64 << n) - 1);
                let input: Vec<bool> = (0..n).map(|i| word >> i & 1 == 1).collect();
                if let Response::Value(v) = f.respond(&input) {
                    out.push((input, v));
                }
            }
            out
        })
        .collect();
    Inputs::Arith {
        seed,
        functions,
        care,
    }
}

/// What the run keeps of a function's first pass once it is checked.
struct FirstPass {
    texts: Vec<(String, String)>,
    quality: [u64; 4],
    parts: usize,
}

/// Check of function `i`'s first-pass result; returns the number of
/// failed checks (each is described on stderr).
fn check(inputs: &Inputs, i: usize, s: &Synthesized) -> u64 {
    let mut failed = 0;
    match inputs {
        Inputs::Words { lists, non_words } => {
            let Realized::Generator(g) = &s.realized else {
                unreachable!("word lists are realized as address generators")
            };
            for (k, &w) in lists[i].encoded().iter().enumerate() {
                if g.lookup(w) != (k + 1) as u64 {
                    eprintln!(
                        "words: list {i}: word {} lost its index",
                        lists[i].words()[k]
                    );
                    failed += 1;
                }
            }
            for &w in &non_words[i] {
                if g.lookup(w) != 0 {
                    eprintln!("words: list {i}: non-word {w:#x} not mapped to 0");
                    failed += 1;
                }
            }
        }
        Inputs::Arith {
            seed,
            functions,
            care,
        } => {
            let name = functions[i].name();
            let multi = s.cascades();
            for (input, want) in &care[i] {
                if multi.eval(input) != *want {
                    eprintln!("arith: {name}: cascade disagrees with the oracle");
                    failed += 1;
                }
            }
            let ranges: Vec<Range<usize>> = multi.ranges.clone();
            for (k, range) in ranges.into_iter().enumerate() {
                let mut spec = partition_outputs(&s.mgr, &s.layout, &s.isf, &[range])
                    .pop()
                    .expect("one range in, one part out");
                let (text, verilog) = &s.texts[k];
                let report =
                    audit_artifact_text(text, verilog, &format!("part{k}"), &mut spec, "arith");
                if !report.is_clean() {
                    eprintln!("arith: {name}: part {k} fails the artifact audit");
                    failed += 1;
                }
            }
            if *seed == 0 {
                let pin = table5_rows()[i].1;
                let got = [
                    multi.num_cells() as u64,
                    multi.lut_outputs() as u64,
                    multi.memory_bits(),
                ];
                if got != pin {
                    eprintln!("arith: {name}: Cel*/LUT*/Mem* {got:?} differ from Table 5 {pin:?}");
                    failed += 1;
                }
            }
        }
    }
    failed
}

/// Per-function quality of a pass: (memory bits incl. AUX, cells, width
/// sum over parts, inputs no part reads).
fn quality(s: &Synthesized) -> [u64; 4] {
    let multi = s.cascades();
    let memory = match &s.realized {
        Realized::Generator(g) => g.total_memory_bits(),
        Realized::Cascades(m) => m.memory_bits(),
    };
    let width: usize = multi.parts.iter().map(|p| p.max_width()).sum();
    let mut used = vec![false; s.layout.num_inputs()];
    for part in &multi.parts {
        for i in part.support_inputs() {
            used[i] = true;
        }
    }
    let removed = used.iter().filter(|&&u| !u).count();
    [
        memory,
        multi.num_cells() as u64,
        width as u64,
        removed as u64,
    ]
}

/// Runs a batch workload and returns `(attempted, failed, metrics)`.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> (u64, u64, Metrics) {
    let make = |s| match workload {
        "words" => make_words(s),
        _ => make_arith(s),
    };
    // Set-up: generate the inputs again and again for a while and keep the
    // median time, so that a short burst of host noise moves few samples.
    let mut setups = Vec::new();
    let mut inputs = None;
    while setups.len() < SETUP_MIN_REPEATS || setups.iter().sum::<f64>() < SETUP_MIN_S {
        let t = Instant::now();
        inputs = Some(std::hint::black_box(make(seed)));
        setups.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("the set-ups ran");
    let n = inputs.len();

    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut pass_walls: Vec<f64> = Vec::new();
    let mut first: Vec<FirstPass> = Vec::new();
    // A function fails when any check on it fails, in any pass.
    let mut bad = vec![false; n];
    let mut counts = LayerCounts::default();
    // At least one pass; another only while it fits in the time left.
    loop {
        let mut pass = Duration::ZERO;
        for i in 0..n {
            let s = inputs.synth(i, &mut counts);
            pass += s.wall;
            if first.len() < n {
                // Checks and quality, outside the timed synthesis.
                bad[i] |= check(&inputs, i, &s) > 0;
                let quality = quality(&s);
                eprintln!(
                    "{workload}: {:<28} {:>9.1} ms  mem {} cells {} width {} rv {}",
                    inputs.name(i),
                    common::ms(s.wall),
                    quality[0],
                    quality[1],
                    quality[2],
                    quality[3]
                );
                first.push(FirstPass {
                    parts: s.cascades().parts.len(),
                    texts: s.texts,
                    quality,
                });
            } else if s.texts != first[i].texts {
                eprintln!("{workload}: function {i}: artifacts differ between passes");
                bad[i] = true;
            }
        }
        pass_walls.push(pass.as_secs_f64());
        let elapsed = start.elapsed();
        if elapsed + pass > budget {
            break;
        }
    }
    let mut q = [0u64; 4];
    for f in &first {
        for (acc, v) in q.iter_mut().zip(f.quality) {
            *acc += v;
        }
    }

    let synth_wall = common::median(&pass_walls);
    let mut out = Metrics::default();
    // A batch request is one whole pass over the workload's functions.
    let pass_ms: Vec<f64> = pass_walls.iter().map(|s| s * 1e3).collect();
    out.insert("serve_p99_ms", common::percentile(&pass_ms, 99.0));
    if traced {
        // One more pass with spans on; the difference to the untraced
        // median is the tracing overhead.
        let mut counts = LayerCounts::default();
        trace::set_enabled(true);
        let t = Instant::now();
        for (i, bad) in bad.iter_mut().enumerate() {
            if inputs.synth(i, &mut counts).texts != first[i].texts {
                eprintln!("{workload}: function {i}: traced artifacts differ");
                *bad = true;
            }
        }
        let traced_wall = t.elapsed().as_secs_f64();
        let summary = trace::finish();
        crate::write_trace(workload, seed, &summary.chrome_json);
        let synth_self = summary.self_s("cascade.synthesize_partitioned");
        out.insert("core.sift_s", summary.self_s("core.sift"));
        out.insert("core.alg33_s", summary.self_s("core.alg33"));
        out.insert("core.support_s", summary.self_s("core.support"));
        out.insert("funcs.build_s", summary.self_s("funcs.build"));
        out.insert("cascade.synth_s", synth_self);
        out.insert(
            "cascade.prepare_useful_ratio",
            first.iter().map(|f| f.parts).sum::<usize>() as f64
                / counts.prepare_calls.max(1) as f64,
        );
        out.insert("cascade.addrgen_s", summary.self_s("cascade.addrgen"));
        out.insert("io.emit_s", summary.self_s("io.emit"));
        out.insert("io.emit_bytes", counts.emit_bytes as f64);
        counts.engine.report(&mut out);
        out.insert("core.support.removed_vars", q[3] as f64);
        out.insert("core.alg33.width_sum", counts.alg33_width_sum as f64);
        out.insert(
            "trace.attributed_frac",
            summary.root_total.as_secs_f64() / traced_wall,
        );
        out.insert("trace.overhead_frac", traced_wall / synth_wall - 1.0);
    }
    let attempted = n as u64;
    let failed = bad.iter().filter(|&&b| b).count() as u64;
    if !traced {
        out.insert("setup_s", common::median(&setups));
        out.insert("synth_wall_s", synth_wall);
        out.insert("peak_rss_mb", common::peak_rss_mb());
        out.insert("cascade_memory_bits", q[0] as f64);
        out.insert("cascade_cells", q[1] as f64);
        out.insert("cf_width_sum", q[2] as f64);
        out.insert("error_rate", common::error_rate(attempted, failed));
        out.insert("serve_p50_ms", synth_wall * 1e3);
        out.insert(
            "serve_goodput_rps",
            (attempted - failed) as f64 / synth_wall,
        );
    }
    eprintln!("{workload}: {n} functions, {} passes", pass_walls.len());
    (attempted, failed, out)
}
