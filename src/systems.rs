//! The built-in system families: one table that every `simsym` command
//! resolves a system name through.
//!
//! A family is spelled two ways on the command line. `name:N` (the
//! `analyze`, `elect`, `report`, `dot` and `lint` argument) reads `N`
//! as the family's own parameter: a processor count for most, the
//! dimension `D` for `hypercube`, `PxV` for `board`. `--family name
//! --procs N` (`verify`, `soak`) always reads `N` as a processor count
//! and maps it onto the parameter — so `hypercube:3` and `--family
//! hypercube --procs 8` are the same 8-processor system. [`Family`]
//! holds both readings, the sizes each accepts, the constructor, and the
//! line `simsym list` prints.

use simsym_graph::{topology, SystemGraph};

/// What a family's size parameter is, and the constructor it feeds.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// A single fixed system; a `:N` suffix is ignored.
    Fixed(fn() -> SystemGraph),
    /// `name:N` is the processor count: `Procs(min, even, build)` takes
    /// at least `min` processors, and only an even count when `even`.
    Procs(usize, bool, fn(usize) -> SystemGraph),
    /// `name:D` is a hypercube dimension in `1..=MAX_DIM`, so the
    /// processor count is the power of two `2^D`.
    Dim(fn(usize) -> SystemGraph),
    /// `name:PxV`: `P` processors sharing `V` variables, both positive.
    /// Takes no `--procs`, which could not say what `V` is.
    Board(fn(usize, usize) -> SystemGraph),
}

/// Largest hypercube dimension: the ceiling [`topology::hypercube`]
/// enforces.
pub const MAX_DIM: usize = 26;

/// One built-in family.
#[derive(Clone, Copy, Debug)]
pub struct Family {
    pub name: &'static str,
    pub shape: Shape,
    /// The `simsym list` description.
    pub about: &'static str,
}

/// Every built-in family, in `simsym list` order.
pub const FAMILIES: &[Family] = &[
    Family {
        name: "figure1",
        shape: Shape::Fixed(topology::figure1),
        about: "two processors sharing one variable by the same name (Fig. 1)",
    },
    Family {
        name: "figure2",
        shape: Shape::Fixed(topology::figure2),
        about: "the 'complicated alibis' system (Fig. 2)",
    },
    Family {
        name: "figure3",
        shape: Shape::Fixed(topology::figure3),
        about: "the fair-S mimicry system (Fig. 3; mark p2 to get the paper's z)",
    },
    Family {
        name: "ring",
        shape: Shape::Procs(2, false, topology::uniform_ring),
        about: "uniform ring of N processors with left/right forks (Fig. 4 for N=5)",
    },
    Family {
        name: "marked-ring",
        shape: Shape::Procs(3, false, topology::marked_ring),
        about: "ring with a structurally marked processor",
    },
    Family {
        name: "line",
        shape: Shape::Procs(2, false, topology::line),
        about: "open line of N processors",
    },
    Family {
        name: "star",
        shape: Shape::Procs(1, false, topology::star),
        about: "N processors sharing one hub variable",
    },
    Family {
        name: "table",
        shape: Shape::Procs(2, false, topology::philosophers_table),
        about: "alias of ring:N (the dining table)",
    },
    Family {
        name: "alternating",
        shape: Shape::Procs(2, true, topology::philosophers_alternating),
        about: "even-N table with alternating orientation (Fig. 5 for N=6)",
    },
    Family {
        name: "hypercube",
        shape: Shape::Dim(topology::hypercube),
        about: "D-dimensional hypercube: 2^D processors, one variable per edge",
    },
    Family {
        name: "board",
        shape: Shape::Board(topology::shared_board),
        about: "P processors sharing V variables under common names",
    },
];

/// The family called `name`.
pub fn family(name: &str) -> Option<&'static Family> {
    FAMILIES.iter().find(|f| f.name == name)
}

/// Parses a system spec like `ring:5`, `hypercube:3` or `board:3x2`.
pub fn parse(spec: &str) -> Result<SystemGraph, String> {
    let (name, param) = match spec.split_once(':') {
        Some((k, p)) => (k, Some(p)),
        None => (spec, None),
    };
    family(name)
        .ok_or_else(|| format!("unknown system {name:?}"))?
        .build(param)
}

impl Family {
    /// How `simsym list` spells the family: `ring:N`, `hypercube:D`, ….
    pub fn usage(&self) -> String {
        let param = match self.shape {
            Shape::Fixed(_) => return self.name.to_owned(),
            Shape::Procs(..) => "N",
            Shape::Dim(_) => "D",
            Shape::Board(_) => "PxV",
        };
        format!("{}:{param}", self.name)
    }

    /// Builds the system from the `:param` suffix of `name:param`.
    pub fn build(&self, param: Option<&str>) -> Result<SystemGraph, String> {
        let name = self.name;
        let size = |min: usize| -> Result<usize, String> {
            let p = param.ok_or_else(|| format!("{name} needs a size, e.g. {name}:5"))?;
            let v: usize = p.parse().map_err(|_| format!("bad size {p:?}"))?;
            if v < min {
                return Err(format!("{name} needs size >= {min}"));
            }
            Ok(v)
        };
        match self.shape {
            Shape::Fixed(build) => Ok(build()),
            Shape::Procs(min, even, build) => {
                let n = size(min)?;
                if even && !n.is_multiple_of(2) {
                    return Err(format!("{name} needs an even size"));
                }
                Ok(build(n))
            }
            Shape::Dim(build) => {
                let d = size(1)?;
                if d > MAX_DIM {
                    return Err(format!("{name} dimension must be at most {MAX_DIM}"));
                }
                Ok(build(d))
            }
            Shape::Board(build) => {
                let usage = || format!("{name} needs PxV, e.g. {name}:3x2");
                let (a, b) = param.and_then(|p| p.split_once('x')).ok_or_else(usage)?;
                let procs: usize = a.parse().map_err(|_| "bad board size")?;
                let vars: usize = b.parse().map_err(|_| "bad board size")?;
                if procs == 0 || vars == 0 {
                    return Err("board sizes must be positive".to_owned());
                }
                Ok(build(procs, vars))
            }
        }
    }

    /// Builds the system with exactly `procs` processors (the `--procs`
    /// reading of a size).
    pub fn with_procs(&self, procs: usize) -> Result<SystemGraph, String> {
        let name = self.name;
        match self.shape {
            Shape::Procs(min, even, build) => {
                if procs < min {
                    return Err(format!(
                        "{name} needs at least {min} processors (got {procs})"
                    ));
                }
                if even && !procs.is_multiple_of(2) {
                    return Err(format!(
                        "{name} needs an even number of processors (got {procs})"
                    ));
                }
                Ok(build(procs))
            }
            Shape::Dim(build) => {
                if !(2..=(1 << MAX_DIM)).contains(&procs) || !procs.is_power_of_two() {
                    return Err(format!(
                        "{name} needs a power-of-two --procs between 2 and 2^{MAX_DIM} (got {procs})"
                    ));
                }
                Ok(build(procs.trailing_zeros() as usize))
            }
            Shape::Fixed(_) | Shape::Board(_) => Err(format!("{name} takes no processor count")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_readings_of_a_size_agree() {
        for (spec, family_name, procs) in [
            ("ring:5", "ring", 5),
            ("table:6", "table", 6),
            ("alternating:6", "alternating", 6),
            ("hypercube:3", "hypercube", 8),
        ] {
            let by_spec = parse(spec).unwrap();
            let by_procs = family(family_name).unwrap().with_procs(procs).unwrap();
            assert_eq!(by_spec, by_procs, "{spec}");
            assert_eq!(by_procs.processor_count(), procs);
        }
    }

    #[test]
    fn sizes_outside_the_table_are_errors_not_panics() {
        for (name, procs, fragment) in [
            ("ring", 1, "at least 2"),
            ("alternating", 0, "at least 2"),
            ("alternating", 5, "even"),
            ("hypercube", 6, "power-of-two"),
            ("board", 4, "no processor count"),
        ] {
            let err = family(name).unwrap().with_procs(procs).unwrap_err();
            assert!(err.contains(fragment), "{name} {procs}: {err}");
        }
        for (spec, fragment) in [
            ("ring", "needs a size"),
            ("ring:x", "bad size"),
            ("marked-ring:2", "size >= 3"),
            ("alternating:5", "even"),
            ("hypercube:27", "at most 26"),
            ("board:3", "PxV"),
            ("torus:4", "unknown system"),
        ] {
            let err = parse(spec).unwrap_err();
            assert!(err.contains(fragment), "{spec}: {err}");
        }
    }

    #[test]
    fn usage_spells_each_parameter() {
        let usages: Vec<String> = FAMILIES.iter().map(Family::usage).collect();
        assert_eq!(
            usages.join(" "),
            "figure1 figure2 figure3 ring:N marked-ring:N line:N star:N table:N \
             alternating:N hypercube:D board:PxV"
        );
    }
}
