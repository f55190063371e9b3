//! Seeded random BFJ program generation, for property-based testing of the
//! analysis and detectors.
//!
//! Generated programs always parse, terminate, stay in array bounds, and
//! acquire locks in a fixed nesting order (no deadlocks). The `racy` knob
//! decides whether shared accesses may happen outside the lock; the
//! remaining knobs opt into additional program shapes — volatile fields,
//! a second (nested) lock, strided loops, `a.length` symbolic bounds, and
//! worker-local fork/join subtrees — that the differential fuzzer uses to
//! widen coverage. All default to off, preserving the classic shapes.

use bigfoot_bfj::sched::Rng;
use std::fmt::Write;

/// Configuration for the generator.
#[derive(Debug, Clone)]
pub struct RandomConfig {
    /// RNG seed (same seed, same program).
    pub seed: u64,
    /// Rough number of statements per worker method.
    pub size: usize,
    /// Number of worker threads forked from main.
    pub threads: usize,
    /// Shared array length (0 is allowed: loops become vacuous).
    pub array_len: usize,
    /// If false, every shared access is lock-protected or on a
    /// thread-private partition (the program is race-free by
    /// construction). If true, some accesses go unprotected.
    pub racy: bool,
    /// Number of lock objects (1 or 2). With 2, some critical sections
    /// nest `l` then `l2`; in racy mode a statement may guard a shared
    /// field with *only* the inner lock — the classic wrong-lock race.
    pub locks: usize,
    /// Declare a `volatile` field on the shared object and emit
    /// publish/consume statements through it (synchronization, never
    /// themselves racy).
    pub volatiles: bool,
    /// Emit strided loops (`for (i = off; i < n; i = i + k)`) over the
    /// shared array.
    pub strided: bool,
    /// Use the symbolic `a.length` bound instead of the literal length
    /// where the shape allows it.
    pub symbolic_bounds: bool,
    /// Workers may fork a helper method and join it (fork/join trees
    /// deeper than main's flat fork list). In racy mode the join is
    /// sometimes skipped, letting the helper run unsynchronized.
    pub fork_trees: bool,
}

impl Default for RandomConfig {
    fn default() -> Self {
        RandomConfig {
            seed: 1,
            size: 12,
            threads: 2,
            array_len: 24,
            racy: false,
            locks: 1,
            volatiles: false,
            strided: false,
            symbolic_bounds: false,
            fork_trees: false,
        }
    }
}

/// Generates the source text of a random BFJ program.
pub fn random_program(cfg: &RandomConfig) -> String {
    let mut rng = Rng::new(cfg.seed);
    let mut src = String::new();
    let n = cfg.array_len;
    let two_locks = cfg.locks > 1;
    if cfg.volatiles {
        src.push_str("class Shared { field f0; field f1; field f2; volatile v0; }\n");
    } else {
        src.push_str("class Shared { field f0; field f1; field f2; }\n");
    }
    src.push_str("class Lk { }\nclass Worker {\n");
    let params = if two_locks {
        "s, a, l, l2, me"
    } else {
        "s, a, l, me"
    };
    for w in 0..cfg.threads {
        if cfg.fork_trees {
            // Helper forked from `work{w}`; never forks further itself,
            // so the tree depth is bounded at two.
            let _ = writeln!(src, "    meth help{w}({params}) {{");
            let mut tmp = 0usize;
            let body = 1 + rng.below(2);
            for _ in 0..body {
                gen_stmt(&mut rng, cfg, &mut src, &mut tmp, w, n, false);
            }
            src.push_str("        return 0;\n    }\n");
        }
        let _ = writeln!(src, "    meth work{w}({params}) {{");
        let mut tmp = 0usize;
        for _ in 0..cfg.size {
            gen_stmt(&mut rng, cfg, &mut src, &mut tmp, w, n, cfg.fork_trees);
        }
        src.push_str("        return 0;\n    }\n");
    }
    src.push_str("}\nmain {\n    s = new Shared;\n    l = new Lk;\n");
    if two_locks {
        src.push_str("    l2 = new Lk;\n");
    }
    let _ = writeln!(src, "    a = new_array({n});");
    let init_hi = if cfg.symbolic_bounds {
        "a.length".to_string()
    } else {
        n.to_string()
    };
    let _ = writeln!(
        src,
        "    for (i = 0; i < {init_hi}; i = i + 1) {{ a[i] = 0; }}"
    );
    src.push_str("    w = new Worker;\n");
    for t in 0..cfg.threads {
        if two_locks {
            let _ = writeln!(src, "    fork t{t} = w.work{t}(s, a, l, l2, {t});");
        } else {
            let _ = writeln!(src, "    fork t{t} = w.work{t}(s, a, l, {t});");
        }
    }
    for t in 0..cfg.threads {
        let _ = writeln!(src, "    join(t{t});");
    }
    src.push_str("}\n");
    src
}

fn gen_stmt(
    rng: &mut Rng,
    cfg: &RandomConfig,
    src: &mut String,
    tmp: &mut usize,
    worker: usize,
    n: usize,
    allow_fork: bool,
) {
    let indent = "        ";
    let protected = !cfg.racy || rng.below(100) < 60;
    let field = rng.below(3);
    // The classic six shapes always participate; the opt-in shapes are
    // appended so existing seeds keep their statement streams only when
    // every knob is off (each knob also consumes extra RNG draws).
    let mut shapes: Vec<u8> = vec![0, 1, 2, 2, 3, 4];
    if cfg.volatiles {
        shapes.push(5);
    }
    if cfg.strided {
        shapes.push(6);
    }
    if cfg.locks > 1 {
        shapes.push(7);
    }
    if allow_fork {
        shapes.push(8);
    }
    match shapes[rng.below(shapes.len() as u64) as usize] {
        // Lock-protected field read-modify-write.
        0 => {
            if protected {
                let _ = writeln!(src, "{indent}acq(l);");
            }
            let _ = writeln!(src, "{indent}s.f{field} = s.f{field} + 1;");
            if protected {
                let _ = writeln!(src, "{indent}rel(l);");
            }
        }
        // Field read into a local.
        1 => {
            if protected {
                let _ = writeln!(src, "{indent}acq(l);");
            }
            let v = *tmp;
            *tmp += 1;
            let _ = writeln!(src, "{indent}v{worker}x{v} = s.f{field};");
            if protected {
                let _ = writeln!(src, "{indent}rel(l);");
            }
        }
        // Loop over a contiguous partition of the array. In race-free
        // mode this must hold the lock: other statements (the whole-array
        // scan) touch every index.
        2 => {
            let t = cfg.threads.max(1);
            let chunk = n / t;
            let lo = worker * chunk;
            let hi = lo + chunk;
            let v = *tmp;
            *tmp += 1;
            if protected {
                let _ = writeln!(src, "{indent}acq(l);");
            }
            let _ = writeln!(
                src,
                "{indent}for (i{v} = {lo}; i{v} < {hi}; i{v} = i{v} + 1) {{ a[i{v}] = a[i{v}] + 1; }}"
            );
            if protected {
                let _ = writeln!(src, "{indent}rel(l);");
            }
        }
        // Whole-array read under the lock (or unprotected when racy).
        3 => {
            if protected {
                let _ = writeln!(src, "{indent}acq(l);");
            }
            let v = *tmp;
            *tmp += 1;
            let hi = bound(cfg, rng, n);
            let _ = writeln!(
                src,
                "{indent}acc{worker}x{v} = 0;\n{indent}for (j{v} = 0; j{v} < {hi}; j{v} = j{v} + 1) {{ acc{worker}x{v} = acc{worker}x{v} + a[j{v}]; }}"
            );
            if protected {
                let _ = writeln!(src, "{indent}rel(l);");
            }
        }
        // Conditional access.
        4 => {
            if protected {
                let _ = writeln!(src, "{indent}acq(l);");
            }
            let v = *tmp;
            *tmp += 1;
            let _ = writeln!(
                src,
                "{indent}c{worker}x{v} = s.f{field};\n{indent}if (c{worker}x{v} > 2) {{ s.f{field} = c{worker}x{v} - 1; }} else {{ s.f{field} = c{worker}x{v} + 1; }}"
            );
            if protected {
                let _ = writeln!(src, "{indent}rel(l);");
            }
        }
        // Volatile publish/consume: synchronization, never racy itself,
        // and a kill point for check motion past it.
        5 => {
            let v = *tmp;
            *tmp += 1;
            let _ = writeln!(src, "{indent}s.v0 = me + {v};");
            let _ = writeln!(src, "{indent}p{worker}x{v} = s.v0;");
        }
        // Strided loop over the shared array. Whole-array footprint on a
        // residue class, so it must hold the lock in race-free mode.
        6 => {
            let stride = 2 + rng.below(2);
            let off = rng.below(stride);
            let v = *tmp;
            *tmp += 1;
            let hi = bound(cfg, rng, n);
            if protected {
                let _ = writeln!(src, "{indent}acq(l);");
            }
            let _ = writeln!(
                src,
                "{indent}for (q{v} = {off}; q{v} < {hi}; q{v} = q{v} + {stride}) {{ a[q{v}] = a[q{v}] + 1; }}"
            );
            if protected {
                let _ = writeln!(src, "{indent}rel(l);");
            }
        }
        // Nested critical section: `l` then `l2`, always in that order
        // (no deadlocks). In racy mode an unprotected statement holds
        // *only* the inner lock — the classic wrong-lock race against
        // `l`-guarded accesses of the same field.
        7 => {
            if protected {
                let _ = writeln!(src, "{indent}acq(l);");
            }
            let _ = writeln!(src, "{indent}acq(l2);");
            let _ = writeln!(src, "{indent}s.f{field} = s.f{field} + 1;");
            let _ = writeln!(src, "{indent}rel(l2);");
            if protected {
                let _ = writeln!(src, "{indent}rel(l);");
            }
        }
        // Fork a helper. Race-free mode joins immediately, so the helper
        // only overlaps other workers (whose conflicting accesses share
        // the lock). Racy mode may leave it unjoined.
        _ => {
            let v = *tmp;
            *tmp += 1;
            let args = if cfg.locks > 1 {
                "s, a, l, l2, me"
            } else {
                "s, a, l, me"
            };
            let _ = writeln!(
                src,
                "{indent}fork h{worker}x{v} = this.help{worker}({args});"
            );
            let skip_join = cfg.racy && rng.below(100) < 40;
            if !skip_join {
                let _ = writeln!(src, "{indent}join(h{worker}x{v});");
            }
        }
    }
}

/// Upper bound for a whole-array loop: the literal length, or the
/// symbolic `a.length` when that knob is on.
fn bound(cfg: &RandomConfig, rng: &mut Rng, n: usize) -> String {
    if cfg.symbolic_bounds && rng.below(100) < 50 {
        "a.length".to_string()
    } else {
        n.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigfoot_bfj::{parse_program, Interp, NullSink, SchedPolicy};

    #[test]
    fn random_programs_parse_and_run() {
        for seed in 1..20 {
            for racy in [false, true] {
                let cfg = RandomConfig {
                    seed,
                    racy,
                    ..RandomConfig::default()
                };
                let src = random_program(&cfg);
                let p = parse_program(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
                Interp::new(&p, SchedPolicy::default())
                    .with_max_steps(2_000_000)
                    .run(&mut NullSink)
                    .unwrap_or_else(|e| panic!("{e}\n{src}"));
            }
        }
    }

    #[test]
    fn same_seed_same_program() {
        let cfg = RandomConfig::default();
        assert_eq!(random_program(&cfg), random_program(&cfg));
    }

    /// Every opt-in shape at once still parses, runs, and terminates.
    #[test]
    fn extended_shapes_parse_and_run() {
        for seed in 1..20 {
            for racy in [false, true] {
                let cfg = RandomConfig {
                    seed,
                    racy,
                    size: 10,
                    locks: 2,
                    volatiles: true,
                    strided: true,
                    symbolic_bounds: true,
                    fork_trees: true,
                    ..RandomConfig::default()
                };
                let src = random_program(&cfg);
                let p = parse_program(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
                Interp::new(&p, SchedPolicy::default())
                    .with_max_steps(2_000_000)
                    .run(&mut NullSink)
                    .unwrap_or_else(|e| panic!("{e}\n{src}"));
            }
        }
    }

    /// With every knob on but `racy` off the program must stay race-free:
    /// nested locks order `l` before `l2`, volatiles synchronize, helpers
    /// are joined before the worker continues.
    #[test]
    fn extended_race_free_programs_have_no_races() {
        use bigfoot_detectors::Detector;
        for seed in 1..10 {
            let cfg = RandomConfig {
                seed,
                racy: false,
                size: 8,
                locks: 2,
                volatiles: true,
                strided: true,
                symbolic_bounds: true,
                fork_trees: true,
                ..RandomConfig::default()
            };
            let src = random_program(&cfg);
            let p = parse_program(&src).unwrap();
            let mut ft = Detector::fasttrack();
            Interp::new(
                &p,
                SchedPolicy::Random {
                    seed: seed * 13 + 1,
                    switch_inv: 3,
                },
            )
            .run(&mut ft)
            .unwrap();
            let stats = ft.finish();
            assert!(
                !stats.has_races(),
                "seed {seed} raced: {:?}\n{src}",
                stats.races
            );
        }
    }

    /// Zero-length arrays must not break any shape (loops become vacuous).
    #[test]
    fn zero_length_arrays_are_tolerated() {
        for seed in 1..6 {
            let cfg = RandomConfig {
                seed,
                racy: true,
                array_len: 0,
                locks: 2,
                volatiles: true,
                strided: true,
                symbolic_bounds: true,
                fork_trees: true,
                ..RandomConfig::default()
            };
            let src = random_program(&cfg);
            let p = parse_program(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
            Interp::new(&p, SchedPolicy::default())
                .with_max_steps(2_000_000)
                .run(&mut NullSink)
                .unwrap_or_else(|e| panic!("{e}\n{src}"));
        }
    }

    #[test]
    fn race_free_programs_have_no_races() {
        use bigfoot_detectors::Detector;
        for seed in 1..10 {
            let cfg = RandomConfig {
                seed,
                racy: false,
                ..RandomConfig::default()
            };
            let src = random_program(&cfg);
            let p = parse_program(&src).unwrap();
            let mut ft = Detector::fasttrack();
            Interp::new(
                &p,
                SchedPolicy::Random {
                    seed: seed * 7 + 1,
                    switch_inv: 4,
                },
            )
            .run(&mut ft)
            .unwrap();
            let stats = ft.finish();
            assert!(
                !stats.has_races(),
                "seed {seed} raced: {:?}\n{src}",
                stats.races
            );
        }
    }
}
