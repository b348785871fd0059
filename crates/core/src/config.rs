//! The one place `CBRAIN_*` environment variables are read, the one
//! parser every binary's command line goes through, and the stdout
//! writer ([`print_stdout`]) the `cbrain` and harness binaries print
//! their reports through.
//!
//! Six knobs configure the workspace from the environment. Each has a
//! single documented precedence: **CLI flag > environment > default**.
//! Call sites never touch [`std::env::var`] for these directly — they go
//! through [`EnvConfig`], which captures the raw environment once and
//! exposes typed accessors:
//!
//! | Variable              | Accessor                                  | Meaning                                        |
//! |-----------------------|-------------------------------------------|------------------------------------------------|
//! | `CBRAIN_CACHE`        | [`persistence_enabled`], [`cache_file`]   | `off`/`0` disables cache persistence entirely  |
//! | `CBRAIN_CACHE_DIR`    | [`cache_file`]                            | overrides the cache *directory*                |
//! | `CBRAIN_CACHE_MAX`    | [`cache_max`]                             | bounds persisted cache entries (LRU-evicted)   |
//! | `CBRAIN_MAC_RATE`     | [`mac_rate`]                              | pins the CPU MAC-rate calibration (Table 4)    |
//! | `CBRAIN_METRICS_ADDR` | [`metrics_addr`]                          | default `cbrand --metrics-addr` listen address |
//! | `CBRAIN_MAX_CONNS`    | [`max_conns`]                             | default `cbrand --max-connections` accept cap  |
//!
//! [`persistence_enabled`]: EnvConfig::persistence_enabled
//! [`cache_file`]: EnvConfig::cache_file
//! [`cache_max`]: EnvConfig::cache_max
//! [`mac_rate`]: EnvConfig::mac_rate
//! [`metrics_addr`]: EnvConfig::metrics_addr
//! [`max_conns`]: EnvConfig::max_conns
//!
//! The struct is a plain snapshot: [`EnvConfig::load`] reads the process
//! environment, [`EnvConfig::from_lookup`] builds one from any closure so
//! tests never have to mutate process-global state.
//!
//! Two more variables are read below this crate, by the crates that act
//! on them: `CBRAIN_FORCE_SCALAR` inside `cbrain_simd` (re-exported as
//! [`cbrain_model::simd`]) and `CBRAIN_TELEMETRY` inside
//! `cbrain_telemetry` (re-exported as [`crate::telemetry`]). Both sit
//! below this crate in the dependency graph, so they cannot see
//! [`EnvConfig`]; each documents its own parsing rule.
//!
//! ## The flag grammar
//!
//! A binary names the flags it accepts in a table of [`FlagSpec`]s and
//! hands its arguments to [`Flags::parse`]. The grammar has one form:
//! `--flag VALUE` for a flag with a value placeholder, `--flag` alone for
//! a bare switch. Any other token is ``unknown flag `X` ``, and a flag
//! whose value is missing is ``X needs a value``. The typed reads on
//! [`Flags`] own the remaining messages (``bad --X `v` ``, ``--X must be
//! at least 1``), so every binary words its usage errors alike. A flag
//! given twice keeps its last value.
//!
//! ```
//! use cbrain::config::{FlagSpec, Flags};
//!
//! const TABLE: &[FlagSpec] = &[("--jobs", Some("N")), ("--json", None)];
//! let args: Vec<String> = ["--jobs", "3", "--json"].map(String::from).to_vec();
//! let flags = Flags::parse(&args, TABLE).unwrap();
//! assert_eq!(flags.jobs().unwrap(), 3);
//! assert!(flags.switch("--json"));
//! let typo: Vec<String> = ["--jbos", "3"].map(String::from).to_vec();
//! assert_eq!(Flags::parse(&typo, TABLE).unwrap_err().to_string(), "unknown flag `--jbos`");
//! ```

use std::path::PathBuf;

/// Disables cache persistence entirely when set to `off` or `0`.
pub const ENV_CACHE: &str = "CBRAIN_CACHE";

/// Overrides the cache *directory* (the file name inside it is fixed).
pub const ENV_CACHE_DIR: &str = "CBRAIN_CACHE_DIR";

/// Bounds the number of persisted cache entries. When set to a positive
/// integer, save paths evict least-recently-used entries down to the
/// bound before writing, so a long-lived cache (the `cbrand` daemon's)
/// stops growing without bound.
pub const ENV_CACHE_MAX: &str = "CBRAIN_CACHE_MAX";

/// Pins the host-CPU MAC-rate calibration (MACs/second) used by the
/// Table 4 experiment, making its output byte-reproducible.
pub const ENV_MAC_RATE: &str = "CBRAIN_MAC_RATE";

/// Default listen address for `cbrand --metrics-addr` (Prometheus
/// text-format exposition over `GET /metrics`). The flag always beats
/// this; unset or blank means "no exposition listener".
pub const ENV_METRICS_ADDR: &str = "CBRAIN_METRICS_ADDR";

/// Default cap on concurrently open daemon connections for
/// `cbrand --max-connections`. Connections arriving past the cap are
/// answered with `busy` instead of queueing in the kernel backlog. The
/// flag always beats this; unset, blank, zero or unparsable all mean
/// "no cap".
pub const ENV_MAX_CONNS: &str = "CBRAIN_MAX_CONNS";

/// A typed snapshot of every `CBRAIN_*` environment variable (plus the
/// `XDG_CACHE_HOME`/`HOME` fallbacks that cache-path resolution needs).
///
/// Construction captures raw strings only; interpretation happens in the
/// accessors so each knob keeps its own leniency rules (see each method).
#[derive(Debug, Clone, Default)]
pub struct EnvConfig {
    cache: Option<String>,
    cache_dir: Option<String>,
    cache_max: Option<String>,
    mac_rate: Option<String>,
    metrics_addr: Option<String>,
    max_conns: Option<String>,
    xdg_cache_home: Option<String>,
    home: Option<String>,
}

impl EnvConfig {
    /// Snapshots the process environment. This is the only function in
    /// the workspace that reads `CBRAIN_*` variables.
    #[must_use]
    pub fn load() -> Self {
        Self::from_lookup(|key| std::env::var(key).ok())
    }

    /// Builds a config from an arbitrary lookup, so tests can exercise
    /// every branch without mutating process-global environment state.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Self {
        Self {
            cache: lookup(ENV_CACHE),
            cache_dir: lookup(ENV_CACHE_DIR),
            cache_max: lookup(ENV_CACHE_MAX),
            mac_rate: lookup(ENV_MAC_RATE),
            metrics_addr: lookup(ENV_METRICS_ADDR),
            max_conns: lookup(ENV_MAX_CONNS),
            xdg_cache_home: lookup("XDG_CACHE_HOME"),
            home: lookup("HOME"),
        }
    }

    /// Whether cache persistence is enabled at all. `CBRAIN_CACHE=off`
    /// or `=0` disables it; anything else (including unset) enables it.
    #[must_use]
    pub fn persistence_enabled(&self) -> bool {
        !matches!(self.cache.as_deref(), Some("off") | Some("0"))
    }

    /// The cache file the environment selects, or `None` when
    /// persistence is disabled or no cache directory can be derived.
    ///
    /// Resolution order for the directory: `$CBRAIN_CACHE_DIR`, then
    /// `$XDG_CACHE_HOME/cbrain`, then `$HOME/.cache/cbrain`.
    #[must_use]
    pub fn cache_file(&self) -> Option<PathBuf> {
        if !self.persistence_enabled() {
            return None;
        }
        let dir = if let Some(d) = &self.cache_dir {
            PathBuf::from(d)
        } else if let Some(d) = &self.xdg_cache_home {
            PathBuf::from(d).join("cbrain")
        } else if let Some(h) = &self.home {
            PathBuf::from(h).join(".cache").join("cbrain")
        } else {
            return None;
        };
        Some(dir.join(crate::persist::CACHE_FILE_NAME))
    }

    /// The persisted-entry bound, if any. Unset, empty, zero or
    /// unparsable values all mean "unbounded" — a bad bound must never
    /// make a save path fail.
    #[must_use]
    pub fn cache_max(&self) -> Option<usize> {
        self.cache_max
            .as_deref()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    }

    /// The pinned MAC rate in MACs/second, or `None` to calibrate live.
    ///
    /// # Errors
    ///
    /// A usage error naming the variable and its value when it is set
    /// but not a positive finite number: a typo'd pin would otherwise
    /// silently un-pin Table 4 and break byte-identity diffs, which is
    /// exactly what the pin exists for.
    pub fn mac_rate(&self) -> Result<Option<f64>, FlagError> {
        let Some(raw) = self.mac_rate.as_deref() else {
            return Ok(None);
        };
        raw.trim()
            .parse::<f64>()
            .ok()
            .filter(|r| r.is_finite() && *r > 0.0)
            .map(Some)
            .ok_or_else(|| {
                FlagError(format!(
                    "{ENV_MAC_RATE} must be a positive number, got `{raw}`"
                ))
            })
    }

    /// The default metrics listen address (`HOST:PORT`), or `None` when
    /// the variable is unset or blank. A flag (`--metrics-addr`) always
    /// beats this.
    #[must_use]
    pub fn metrics_addr(&self) -> Option<String> {
        self.metrics_addr
            .as_deref()
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_owned)
    }

    /// The default connection cap, if any. Same leniency as
    /// [`EnvConfig::cache_max`]: unset, empty, zero or unparsable all
    /// mean "uncapped" — a typo'd cap must never refuse every client.
    #[must_use]
    pub fn max_conns(&self) -> Option<usize> {
        self.max_conns
            .as_deref()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    }
}

/// One flag a binary accepts: its name and, for a flag that takes a
/// value, the value's placeholder in usage text (`None` marks a bare
/// switch).
pub type FlagSpec = (&'static str, Option<&'static str>);

/// A usage error: an unknown flag, a missing value, a value its flag
/// cannot take, or a `CBRAIN_*` value the binary cannot take. The
/// message is user-facing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlagError(pub String);

impl std::fmt::Display for FlagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FlagError {}

/// A command line parsed against a [`FlagSpec`] table (see the module
/// docs for the grammar).
#[derive(Debug, Clone)]
pub struct Flags {
    /// Every flag given, in command-line order, with its value (`None`
    /// for a switch).
    given: Vec<(&'static str, Option<String>)>,
}

impl Flags {
    /// Parses `tokens` (the arguments after the program or subcommand
    /// name) against `table`.
    ///
    /// # Errors
    ///
    /// ``unknown flag `X` `` for the first token that is not a flag in
    /// `table`, or ``X needs a value`` when a flag that takes a value
    /// ends the line.
    pub fn parse(tokens: &[String], table: &[FlagSpec]) -> Result<Self, FlagError> {
        let mut given = Vec::new();
        let mut tokens = tokens.iter();
        while let Some(token) = tokens.next() {
            let Some(&(name, placeholder)) = table.iter().find(|(name, _)| name == token) else {
                return Err(FlagError(format!("unknown flag `{token}`")));
            };
            let value = match placeholder {
                Some(_) => Some(
                    tokens
                        .next()
                        .ok_or_else(|| FlagError(format!("{name} needs a value")))?
                        .clone(),
                ),
                None => None,
            };
            given.push((name, value));
        }
        Ok(Self { given })
    }

    /// Whether the switch (or flag) `name` was given.
    #[must_use]
    pub fn switch(&self, name: &str) -> bool {
        self.given.iter().any(|(given, _)| *given == name)
    }

    /// The last of `names` given with a value, and that value. Flags
    /// that set the same thing (`--network` and `--spec`) read through
    /// this so the later one wins.
    #[must_use]
    pub fn last(&self, names: &[&str]) -> Option<(&'static str, &str)> {
        self.given.iter().rev().find_map(|(name, value)| {
            Some((*name, value.as_deref()?)).filter(|_| names.contains(name))
        })
    }

    /// The value `name` was last given.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<&str> {
        self.last(&[name]).map(|(_, value)| value)
    }

    /// `name`'s value through `read`, which words its own errors.
    ///
    /// # Errors
    ///
    /// Whatever `read` returns.
    pub fn read<T>(
        &self,
        name: &str,
        read: impl FnOnce(&str) -> Result<T, FlagError>,
    ) -> Result<Option<T>, FlagError> {
        self.value(name).map(read).transpose()
    }

    /// `name`'s value parsed as a `T`.
    ///
    /// # Errors
    ///
    /// ``bad NAME `v` `` when the value does not parse.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, FlagError> {
        self.read(name, |v| {
            v.parse()
                .map_err(|_| FlagError(format!("bad {name} `{v}`")))
        })
    }

    /// `name`'s value as a count of at least 1.
    ///
    /// # Errors
    ///
    /// ``bad NAME `v` `` for a non-number, ``NAME must be at least 1``
    /// for zero.
    pub fn count(&self, name: &str) -> Result<Option<usize>, FlagError> {
        match self.parsed(name)? {
            Some(0) => Err(FlagError(format!("{name} must be at least 1"))),
            n => Ok(n),
        }
    }

    /// `--jobs N` (N ≥ 1), or every core when the flag is absent.
    ///
    /// # Errors
    ///
    /// As [`Flags::count`].
    pub fn jobs(&self) -> Result<usize, FlagError> {
        Ok(self.count("--jobs")?.unwrap_or_else(crate::available_jobs))
    }
}

/// The one-line usage of a binary whose flags are all optional, built
/// from its table so the two cannot drift: `usage: BIN [--jobs N]`.
#[must_use]
pub fn usage_line(bin: &str, table: &[FlagSpec]) -> String {
    let mut line = format!("usage: {bin}");
    for (name, placeholder) in table {
        match placeholder {
            Some(p) => line.push_str(&format!(" [{name} {p}]")),
            None => line.push_str(&format!(" [{name}]")),
        }
    }
    line
}

/// This process's arguments after the program name.
///
/// # Errors
///
/// A usage error naming the first argument that is not UTF-8, where
/// [`std::env::args`] would panic.
pub fn process_args() -> Result<Vec<String>, FlagError> {
    std::env::args_os()
        .skip(1)
        .map(|arg| {
            arg.into_string().map_err(|arg| {
                FlagError(format!("argument `{}` is not UTF-8", arg.to_string_lossy()))
            })
        })
        .collect()
}

/// Parses this process's arguments against `table` and reads them with
/// `read`. On a usage error it prints `error: …` and `usage` to stderr
/// and exits with status 1, before the binary does any work.
pub fn args_or_exit<T>(
    usage: &str,
    table: &[FlagSpec],
    read: impl FnOnce(&Flags) -> Result<T, FlagError>,
) -> T {
    let parsed = process_args().and_then(|tokens| Flags::parse(&tokens, table));
    match parsed.and_then(|flags| read(&flags)) {
        Ok(value) => value,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{usage}");
            std::process::exit(1)
        }
    }
}

/// Writes `text` to stdout and flushes it; returns whether stdout still
/// takes output. Once its reader has gone (a closed pipe, as under
/// `| head`) this returns `false` where `print!` would panic, so a binary
/// can stop producing output and return from `main` normally: it exits 0
/// and its drop guards (the cache save) still run. Any other write error
/// panics, as `print!` does.
pub fn print_stdout(text: &str) -> bool {
    use std::io::Write as _;
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => true,
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => false,
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::path::Path;

    fn config(pairs: &[(&str, &str)]) -> EnvConfig {
        let map: HashMap<String, String> = pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        EnvConfig::from_lookup(|key| map.get(key).cloned())
    }

    fn tokens(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    const TABLE: &[FlagSpec] = &[
        ("--jobs", Some("N")),
        ("--network", Some("NAME")),
        ("--spec", Some("FILE")),
        ("--breakdown", None),
    ];

    #[test]
    fn flags_parse_values_switches_and_keep_the_last_repeat() {
        let flags = Flags::parse(
            &tokens("--jobs 2 --breakdown --network a --jobs 3 --spec b"),
            TABLE,
        )
        .unwrap();
        assert!(flags.switch("--breakdown"));
        assert_eq!(flags.jobs(), Ok(3));
        assert_eq!(flags.value("--network"), Some("a"));
        assert_eq!(flags.last(&["--network", "--spec"]), Some(("--spec", "b")));
        assert_eq!(flags.value("--missing"), None);
        let flags = Flags::parse(&[], TABLE).unwrap();
        assert!(!flags.switch("--breakdown"));
        assert_eq!(flags.jobs(), Ok(crate::available_jobs()));
    }

    #[test]
    fn flag_errors_name_the_offending_token() {
        let err = |line: &str| Flags::parse(&tokens(line), TABLE).unwrap_err().0;
        assert_eq!(err("--jbos 2"), "unknown flag `--jbos`");
        assert_eq!(err("--jobs=2"), "unknown flag `--jobs=2`");
        assert_eq!(err("-j 2"), "unknown flag `-j`");
        assert_eq!(err("--breakdown extra"), "unknown flag `extra`");
        assert_eq!(err("--breakdown --jobs"), "--jobs needs a value");
    }

    #[test]
    fn typed_reads_own_their_messages() {
        let read = |line: &str| Flags::parse(&tokens(line), TABLE).unwrap();
        assert_eq!(
            read("--jobs 0").jobs().unwrap_err().0,
            "--jobs must be at least 1"
        );
        assert_eq!(read("--jobs x").jobs().unwrap_err().0, "bad --jobs `x`");
        assert_eq!(
            read("--jobs -1").count("--jobs").unwrap_err().0,
            "bad --jobs `-1`"
        );
        assert_eq!(read("--jobs 7").parsed::<u16>("--jobs"), Ok(Some(7)));
        assert_eq!(read("").parsed::<u16>("--jobs"), Ok(None));
    }

    #[test]
    fn usage_line_lists_exactly_the_table() {
        assert_eq!(
            usage_line("exp", TABLE),
            "usage: exp [--jobs N] [--network NAME] [--spec FILE] [--breakdown]"
        );
        assert_eq!(usage_line("gen_specs", &[]), "usage: gen_specs");
    }

    /// The parser's reference model: walk the tokens, and stop at the
    /// first one that is not a flag of `TABLE` or that needs a value the
    /// line does not have. On success, each flag given and its last
    /// value (`None` for a switch).
    fn model(tokens: &[String]) -> Result<HashMap<&'static str, Option<String>>, String> {
        let mut given = HashMap::new();
        let mut i = 0;
        while i < tokens.len() {
            let Some(&(name, placeholder)) = TABLE.iter().find(|(n, _)| *n == tokens[i]) else {
                return Err(format!("unknown flag `{}`", tokens[i]));
            };
            let value = match placeholder {
                Some(_) => {
                    i += 1;
                    let value = tokens.get(i).ok_or(format!("{name} needs a value"))?;
                    Some(value.clone())
                }
                None => None,
            };
            given.insert(name, value);
            i += 1;
        }
        Ok(given)
    }

    #[test]
    fn fuzzed_flag_lines_parse_exactly_as_the_model_says() {
        // Accepted names, near misses of them, the `--` separator, empty
        // strings and plain values, in random mixes.
        const VOCABULARY: &[&str] = &[
            "--jobs",
            "--network",
            "--spec",
            "--breakdown",
            "--jbos",
            "--job",
            "--jobs=2",
            "-jobs",
            "--JOBS",
            "--breakdown ",
            "-j",
            "--",
            "",
            "-",
            "2",
            "0",
            "x",
            "alexnet",
            "--network=vgg",
            "\u{0}",
            "é",
        ];
        let mut rng = cbrain_model::rng::XorShift64::seed_from_u64(0x00f1_a65e);
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..20_000 {
            let len = rng.range_usize(0, 8);
            let line: Vec<String> = (0..len)
                .map(|_| VOCABULARY[rng.below(VOCABULARY.len() as u64) as usize].to_owned())
                .collect();
            let parsed = std::panic::catch_unwind(|| Flags::parse(&line, TABLE))
                .unwrap_or_else(|_| panic!("the parser panicked on {line:?}"));
            match (parsed, model(&line)) {
                (Ok(flags), Ok(given)) => {
                    accepted += 1;
                    for &(name, _) in TABLE {
                        assert_eq!(flags.switch(name), given.contains_key(name), "{line:?}");
                        let want = given.get(name).and_then(Option::as_deref);
                        assert_eq!(flags.value(name), want, "{line:?}");
                    }
                }
                (Err(e), Err(want)) => {
                    rejected += 1;
                    assert_eq!(e.0, want, "{line:?}");
                }
                (got, want) => panic!("{line:?}: parser {got:?}, model {want:?}"),
            }
        }
        // Both outcomes must be well exercised for the check to mean much.
        assert!(
            accepted > 1_000 && rejected > 1_000,
            "{accepted} / {rejected}"
        );
    }

    #[test]
    fn cache_switch_disables_persistence() {
        for off in ["off", "0"] {
            let cfg = config(&[(ENV_CACHE, off), (ENV_CACHE_DIR, "/tmp/x")]);
            assert!(!cfg.persistence_enabled());
            assert_eq!(cfg.cache_file(), None);
        }
        let cfg = config(&[(ENV_CACHE, "auto"), (ENV_CACHE_DIR, "/tmp/x")]);
        assert!(cfg.persistence_enabled());
        assert!(cfg.cache_file().is_some());
    }

    #[test]
    fn cache_dir_resolution_order() {
        let explicit = config(&[
            (ENV_CACHE_DIR, "/d"),
            ("XDG_CACHE_HOME", "/x"),
            ("HOME", "/h"),
        ]);
        assert_eq!(
            explicit.cache_file(),
            Some(Path::new("/d").join(crate::persist::CACHE_FILE_NAME))
        );
        let xdg = config(&[("XDG_CACHE_HOME", "/x"), ("HOME", "/h")]);
        assert_eq!(
            xdg.cache_file(),
            Some(Path::new("/x/cbrain").join(crate::persist::CACHE_FILE_NAME))
        );
        let home = config(&[("HOME", "/h")]);
        assert_eq!(
            home.cache_file(),
            Some(Path::new("/h/.cache/cbrain").join(crate::persist::CACHE_FILE_NAME))
        );
        assert_eq!(config(&[]).cache_file(), None);
    }

    #[test]
    fn cache_max_is_lenient() {
        assert_eq!(config(&[(ENV_CACHE_MAX, " 12 ")]).cache_max(), Some(12));
        for bad in ["", "0", "-3", "lots"] {
            assert_eq!(config(&[(ENV_CACHE_MAX, bad)]).cache_max(), None);
        }
        assert_eq!(config(&[]).cache_max(), None);
    }

    #[test]
    fn mac_rate_parses_or_is_absent() {
        assert_eq!(
            config(&[(ENV_MAC_RATE, "5.7e8")]).mac_rate(),
            Ok(Some(5.7e8))
        );
        assert_eq!(config(&[]).mac_rate(), Ok(None));
    }

    #[test]
    fn mac_rate_rejects_garbage() {
        assert_eq!(
            config(&[(ENV_MAC_RATE, "fast")]).mac_rate().unwrap_err().0,
            "CBRAIN_MAC_RATE must be a positive number, got `fast`"
        );
    }

    #[test]
    fn mac_rate_rejects_nonpositive() {
        for bad in ["-1.0", "0", "inf", "NaN", ""] {
            assert_eq!(
                config(&[(ENV_MAC_RATE, bad)]).mac_rate().unwrap_err().0,
                format!("CBRAIN_MAC_RATE must be a positive number, got `{bad}`")
            );
        }
    }

    #[test]
    fn metrics_addr_ignores_blank_values() {
        assert_eq!(
            config(&[(ENV_METRICS_ADDR, " 127.0.0.1:9200 ")]).metrics_addr(),
            Some("127.0.0.1:9200".to_owned())
        );
        assert_eq!(config(&[(ENV_METRICS_ADDR, "  ")]).metrics_addr(), None);
        assert_eq!(config(&[]).metrics_addr(), None);
    }

    #[test]
    fn max_conns_is_lenient() {
        assert_eq!(config(&[(ENV_MAX_CONNS, " 500 ")]).max_conns(), Some(500));
        for bad in ["", "0", "-2", "many"] {
            assert_eq!(config(&[(ENV_MAX_CONNS, bad)]).max_conns(), None);
        }
        assert_eq!(config(&[]).max_conns(), None);
    }

    #[test]
    fn max_conns_name_matches_the_daemon_flag() {
        assert_eq!(ENV_MAX_CONNS, "CBRAIN_MAX_CONNS");
    }
}
