//! One declarative flag parser for every command-line tool.
//!
//! A tool declares a [`Spec`]: a table of [`Flag`]s saying whether each
//! takes a value and whether it may repeat. The parser makes one
//! pass over argv; unknown, duplicate and value-less flags, stray
//! positionals and (through the typed getters of [`Args`]) malformed
//! values are usage errors, which exit 2. `--help` prints help
//! generated from the same table.
//!
//! The run-policy flags (`--fabric`, `--search`, `--fault`, `--faults`,
//! `--fault-seed`, `--max-cycles`, `--param`) are not decoded here:
//! [`Args::run_request`] hands them to [`crate::request`], the decoder
//! `mard` applies to the same options in its query string, and a value
//! it rejects is a usage error too.

use crate::kernels::traits::Scale;
use crate::request::RunRequest;
use std::fmt::Display;
use std::str::FromStr;

/// One entry of a flag table.
#[derive(Debug)]
pub struct Flag {
    /// The flag as typed, e.g. `--out`.
    pub name: &'static str,
    /// The value's placeholder in help text (`None`: a switch).
    pub value: Option<&'static str>,
    /// Whether the flag may repeat (its values accumulate).
    pub repeats: bool,
    /// One line of help.
    pub help: &'static str,
}

/// A switch: present or absent.
pub const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        value: None,
        repeats: false,
        help,
    }
}

/// A flag that takes one value, once.
pub const fn opt(name: &'static str, value: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        value: Some(value),
        repeats: false,
        help,
    }
}

/// A flag that takes one value and may repeat.
pub const fn multi(name: &'static str, value: &'static str, help: &'static str) -> Flag {
    Flag {
        repeats: true,
        ..opt(name, value, help)
    }
}

const HELP: Flag = switch("--help", "print this help");

/// A command-line tool's interface.
#[derive(Debug)]
pub struct Spec {
    /// Binary name, the prefix of every diagnostic.
    pub name: &'static str,
    /// One-line summary for `--help`.
    pub about: &'static str,
    /// Positional arguments in the usage line (empty: none accepted).
    pub positional: &'static str,
    /// The flag table.
    pub flags: &'static [Flag],
    /// Free text appended to `--help`.
    pub notes: &'static str,
}

impl Spec {
    fn flag(&self, name: &str) -> Option<&Flag> {
        self.flags.iter().find(|f| f.name == name)
    }

    /// The `--help` text, generated from the flag table.
    fn help(&self) -> String {
        let cells: Vec<(String, &str)> = (self.flags.iter().chain([&HELP]))
            .map(|f| {
                let value = f.value.map(|v| format!(" {v}")).unwrap_or_default();
                let dots = if f.repeats { "..." } else { "" };
                (format!("{}{value}{dots}", f.name), f.help)
            })
            .collect();
        let w = cells.iter().map(|(c, _)| c.len()).max().unwrap_or(0);
        let mut s = format!(
            "{}: {}\n\nUSAGE:\n  {} [OPTIONS]",
            self.name, self.about, self.name
        );
        if !self.positional.is_empty() {
            s.push_str(&format!(" {}", self.positional));
        }
        s.push_str("\n\nOPTIONS:\n");
        for (cell, help) in cells {
            s.push_str(&format!("  {cell:<w$}  {help}\n"));
        }
        if !self.notes.is_empty() {
            s.push_str(&format!("\n{}", self.notes));
        }
        s
    }

    /// Parses `argv` (without the program name) in one pass.
    ///
    /// # Errors
    /// The usage message for an unknown or duplicate flag, a flag
    /// missing its value, or a positional the tool does not take.
    fn parse<I: IntoIterator<Item = String>>(&'static self, argv: I) -> Result<Args, String> {
        let mut args = Args {
            spec: self,
            values: Vec::new(),
            positional: Vec::new(),
            help: false,
        };
        let mut it = argv.into_iter();
        while let Some(tok) = it.next() {
            if tok == "--help" || tok == "-h" {
                args.help = true;
            } else if !tok.starts_with("--") {
                if self.positional.is_empty() {
                    return Err(format!("unexpected argument `{tok}`"));
                }
                args.positional.push(tok);
            } else {
                let flag = self
                    .flag(&tok)
                    .ok_or_else(|| format!("unknown flag `{tok}`"))?;
                if !flag.repeats && args.values.iter().any(|(n, _)| *n == flag.name) {
                    return Err(format!("duplicate flag `{tok}`"));
                }
                let value = match flag.value {
                    None => String::new(),
                    // A flag-like token is a forgotten value, not a value.
                    Some(_) => it
                        .next()
                        .filter(|v| !v.starts_with("--"))
                        .ok_or_else(|| format!("{tok} needs a value"))?,
                };
                args.values.push((flag.name, value));
            }
        }
        Ok(args)
    }

    /// Parses the process's argv: `--help` prints the help and exits 0,
    /// a usage error exits 2.
    pub fn parse_env(&'static self) -> Args {
        match self.parse(std::env::args().skip(1)) {
            Ok(a) if a.help => {
                print!("{}", self.help());
                std::process::exit(0)
            }
            Ok(a) => a,
            Err(e) => usage_exit(self.name, e),
        }
    }

    /// Runs a tool: parses argv, builds its config (an error is a usage
    /// error, exit 2), then runs it (an error exits 1).
    pub fn run<C>(
        &'static self,
        config: impl FnOnce(&Args) -> Result<C, String>,
        run: impl FnOnce(C) -> Result<(), String>,
    ) {
        let a = self.parse_env();
        if let Err(e) = run(a.or_exit(config(&a))) {
            eprintln!("{}: {e}", self.name);
            std::process::exit(1);
        }
    }
}

/// Prints `name: msg` with a pointer to `--help` and exits 2.
pub fn usage_exit(name: &str, msg: impl Display) -> ! {
    eprintln!("{name}: {msg}\n(run `{name} --help` for usage)");
    std::process::exit(2)
}

/// A parsed command line; the typed getters check values.
#[derive(Debug)]
pub struct Args {
    spec: &'static Spec,
    values: Vec<(&'static str, String)>,
    positional: Vec<String>,
    help: bool,
}

impl Args {
    fn values(&self, name: &str) -> Vec<&str> {
        assert!(
            self.spec.flag(name).is_some(),
            "{}: getter for undeclared flag {name}",
            self.spec.name
        );
        let named = self.values.iter().filter(|(n, _)| *n == name);
        named.map(|(_, v)| v.as_str()).collect()
    }

    /// Unwraps a usage-level result, or prints the message and exits 2.
    pub fn or_exit<T>(&self, r: Result<T, String>) -> T {
        r.unwrap_or_else(|e| usage_exit(self.spec.name, e))
    }

    /// The positional arguments, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Whether a flag was given.
    pub fn has(&self, name: &str) -> bool {
        !self.values(name).is_empty()
    }

    /// The value of a single-valued flag, if given.
    pub fn str(&self, name: &str) -> Option<&str> {
        self.values(name).first().copied()
    }

    /// Every value of a repeatable flag, in command-line order.
    pub fn strings(&self, name: &str) -> Vec<String> {
        self.values(name).into_iter().map(str::to_string).collect()
    }

    /// A value parsed with its type's [`FromStr`]; errors read `name: <error>`.
    pub fn parsed<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        (self
            .str(name)
            .map(|v| v.parse().map_err(|e| format!("{name}: {e}"))))
        .transpose()
    }

    /// A number, or `default` when the flag is absent.
    pub fn num<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.str(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name} needs a count: `{v}` is not a number")),
        }
    }

    /// A count that must be at least 1.
    pub fn positive(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.num(name, default)? {
            0 => Err(format!("{name} needs a count >= 1, got `0`")),
            n => Ok(n),
        }
    }

    /// A non-empty comma list (entries trimmed, empty entries dropped).
    pub fn list<T: FromStr>(&self, name: &str) -> Result<Option<Vec<T>>, String>
    where
        T::Err: Display,
    {
        let Some(v) = self.str(name) else {
            return Ok(None);
        };
        let items = v.split(',').map(str::trim).filter(|s| !s.is_empty());
        let items = items
            .map(|s| s.parse().map_err(|e| format!("{name}: `{s}`: {e}")))
            .collect::<Result<Vec<T>, String>>()?;
        match items.is_empty() {
            true => Err(format!("{name} needs at least one entry")),
            false => Ok(Some(items)),
        }
    }

    /// The problem size from `--scale tiny|small|paper` or the `--paper`
    /// switch, whichever the tool declares; `Small` by default.
    pub fn scale(&self) -> Result<Scale, String> {
        if self.spec.flag("--paper").is_some() && self.has("--paper") {
            return Ok(Scale::Paper);
        }
        let scale = self.spec.flag("--scale").and_then(|_| self.str("--scale"));
        match scale {
            None | Some("small") => Ok(Scale::Small),
            Some("tiny") => Ok(Scale::Tiny),
            Some("paper") => Ok(Scale::Paper),
            Some(other) => Err(format!(
                "--scale: `{other}` is not one of tiny, small, paper"
            )),
        }
    }

    /// The run request the command line names: its `--fabric`,
    /// `--search`, `--fault`, `--faults`, `--fault-seed`, `--max-cycles`
    /// and `--param` flags, whichever the tool declares, decoded by
    /// [`RunRequest::decode`].
    pub fn run_request(&self) -> Result<RunRequest, String> {
        let pairs = self.values.iter().map(|(n, v)| (&n[2..], v.as_str()));
        RunRequest::decode(pairs).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::FabricDims;

    static SPEC: Spec = Spec {
        name: "tool",
        about: "does things",
        positional: "FILE",
        flags: &[
            switch("--dry", "do nothing"),
            opt("--out", "PATH", "where to write"),
            opt("--count", "N", "how many"),
            opt("--search", "MOVES[,RESTARTS]", "search budget"),
            opt("--fabrics", "RxC,...", "fabrics"),
            opt("--scale", "NAME", "problem size"),
            multi("--fault", "SPEC", "pin a fault"),
            opt("--faults", "N", "random faults"),
            opt("--fault-seed", "S", "seed"),
        ],
        notes: "NOTES\n",
    };

    fn parse(argv: &[&str]) -> Result<Args, String> {
        SPEC.parse(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn one_pass_with_values_switches_and_positionals() {
        let a = parse(&["--out", "x.json", "in.mar", "--dry", "--fault", "pe:0,0"]).unwrap();
        assert_eq!(a.str("--out"), Some("x.json"));
        assert!(a.has("--dry"));
        assert!(!a.has("--count"));
        assert_eq!(a.positional(), ["in.mar"]);
        assert_eq!(a.strings("--fault"), ["pe:0,0"]);
    }

    #[test]
    fn bad_command_lines_are_usage_errors() {
        let err = |argv: &[&str]| parse(argv).unwrap_err();
        assert_eq!(err(&["--nope"]), "unknown flag `--nope`");
        assert_eq!(err(&["--out", "a", "--out", "b"]), "duplicate flag `--out`");
        assert_eq!(err(&["--dry", "--dry"]), "duplicate flag `--dry`");
        assert_eq!(err(&["--out"]), "--out needs a value");
        assert_eq!(err(&["--out", "--dry"]), "--out needs a value");
        // Repeatable flags accumulate instead.
        let a = parse(&["--fault", "pe:0,0", "--fault", "pe:1,1"]).unwrap();
        assert_eq!(a.strings("--fault").len(), 2);
    }

    #[test]
    fn tools_without_positionals_reject_them() {
        static BARE: Spec = Spec {
            name: "bare",
            about: "",
            positional: "",
            flags: &[],
            notes: "",
        };
        let e = BARE.parse(["stray".to_string()]).unwrap_err();
        assert_eq!(e, "unexpected argument `stray`");
    }

    #[test]
    fn typed_getters_reject_malformed_values() {
        let a = parse(&["--count", "abc"]).unwrap();
        let e = a.num("--count", 0u64).unwrap_err();
        assert!(e.contains("--count needs a count") && e.contains("not a number"));
        let a = parse(&["--count", "0"]).unwrap();
        assert!(a.positive("--count", 1).is_err());
        assert_eq!(a.num("--faults", 7usize).unwrap(), 7, "absent -> default");

        let search = |v: &str| parse(&["--search", v]).unwrap().run_request();
        assert!(search("150,2").unwrap().search.is_some());
        for bad in ["x", "150,y", "1,2,3", "150,0"] {
            assert!(search(bad).is_err(), "{bad}");
        }

        let a = parse(&["--fabrics", "4x4, 6x6"]).unwrap();
        let dims: Vec<FabricDims> = a.list("--fabrics").unwrap().unwrap();
        assert_eq!(dims, [FabricDims::new(4, 4), FabricDims::new(6, 6)]);
        for bad in ["300x4", ","] {
            let a = parse(&["--fabrics", bad]).unwrap();
            assert!(a.list::<FabricDims>("--fabrics").is_err(), "{bad}");
        }
        let a = parse(&["--scale", "huge"]).unwrap();
        assert!(a.scale().is_err());
        let a = parse(&["--scale", "tiny"]).unwrap();
        assert_eq!(a.scale().unwrap(), Scale::Tiny);
    }

    #[test]
    fn fault_flags_build_one_fault_set() {
        let a = parse(&["--fault", "pe:0,0", "--faults", "2", "--fault-seed", "3"]).unwrap();
        assert_eq!(a.run_request().unwrap().faults().specs().len(), 3);
        let a = parse(&["--fault", "pe:9,9"]).unwrap();
        assert!(a.run_request().is_err(), "off-fabric");
    }

    #[test]
    fn help_lists_every_flag() {
        assert!(parse(&["--help"]).unwrap().help);
        let h = SPEC.help();
        for f in SPEC.flags {
            assert!(h.contains(f.name), "{h}");
        }
        assert!(h.contains("--fault SPEC...") && h.contains("--help") && h.ends_with("NOTES\n"));
    }
}
