//! `cbrand` — the C-Brain serving daemon.
//!
//! ```text
//! cbrand [--host HOST] [--port PORT] [--jobs N] [--cache auto|off|PATH]
//!        [--workers N] [--queue-depth N] [--metrics-addr ADDR]
//!        [--max-connections N] [--help]
//! ```
//!
//! Prints `cbrand listening on HOST:PORT` on stdout once bound (scripts
//! parse the port from this line when `--port 0` asks for an ephemeral
//! one), then serves until a client sends `shutdown`. With a metrics
//! listener enabled (`--metrics-addr`, or the `CBRAIN_METRICS_ADDR`
//! environment variable when the flag is absent) it also prints
//! `cbrand metrics listening on HOST:PORT` — again parseable when the
//! requested port was 0.

use cbrain::config::{args_or_exit, EnvConfig, FlagError, FlagSpec, Flags};
use cbrain_serve::daemon::{Daemon, DaemonOptions};
use std::path::PathBuf;
use std::process::ExitCode;

const HELP: &str = "cbrand - C-Brain serving daemon

USAGE:
    cbrand [OPTIONS]

Each option is `--flag VALUE` or a bare switch; anything else is a
usage error (exit 1).

OPTIONS:
    --host HOST     Bind address (default 127.0.0.1)
    --port PORT     TCP port; 0 picks an ephemeral port (default 7227)
    --jobs N        Pool workers per compile batch, N >= 1
                    (default: all cores)
    --cache MODE    auto (default): the resolved user cache file
                    off:            no persistence
                    PATH:           an explicit cache file
    --workers N     Connection-serving worker threads; 0 = max(cores, 4)
                    (default 0)
    --queue-depth N Bound on accepted-but-unserved connections; 0 = 64
                    (default 0). The daemon starts answering `busy`
                    instead of queueing at this depth, and stops again
                    at half of it
    --metrics-addr ADDR
                    Serve Prometheus text-format metrics over HTTP at
                    ADDR (e.g. 127.0.0.1:9227; port 0 picks an ephemeral
                    port). Default: CBRAIN_METRICS_ADDR, else disabled
    --max-connections N
                    Hard cap on concurrently open connections; arrivals
                    past it are answered `busy`. 0 = no cap.
                    Default: CBRAIN_MAX_CONNS, else 0
    --help          Show this help
";

const FLAGS: &[FlagSpec] = &[
    ("--host", Some("HOST")),
    ("--port", Some("PORT")),
    ("--jobs", Some("N")),
    ("--cache", Some("MODE")),
    ("--workers", Some("N")),
    ("--queue-depth", Some("N")),
    ("--metrics-addr", Some("ADDR")),
    ("--max-connections", Some("N")),
    ("--help", None),
];

/// The bind address and daemon options the flags select (`None` for
/// `--help`). The metrics address and connection cap fall back to their
/// environment variables: flag beats environment, environment beats
/// the default.
fn args(flags: &Flags, env: &EnvConfig) -> Result<Option<(String, DaemonOptions)>, FlagError> {
    if flags.switch("--help") {
        return Ok(None);
    }
    let host = flags.value("--host").unwrap_or("127.0.0.1");
    let port: u16 = flags.parsed("--port")?.unwrap_or(7227);
    let opts = DaemonOptions {
        jobs: flags.jobs()?,
        cache_path: cache_path(flags.value("--cache").unwrap_or("auto"), env),
        workers: flags.parsed("--workers")?.unwrap_or(0),
        queue_depth: flags.parsed("--queue-depth")?.unwrap_or(0),
        busy_retry_ms: 0,
        metrics_addr: flags
            .value("--metrics-addr")
            .map(str::to_owned)
            .or_else(|| env.metrics_addr()),
        max_connections: flags
            .parsed("--max-connections")?
            .or_else(|| env.max_conns())
            .unwrap_or(0),
    };
    Ok(Some((format!("{host}:{port}"), opts)))
}

fn cache_path(mode: &str, env: &EnvConfig) -> Option<PathBuf> {
    match mode {
        "off" => None,
        "auto" => env.cache_file(),
        path => Some(PathBuf::from(path)),
    }
}

fn main() -> ExitCode {
    let Some((addr, opts)) = args_or_exit(HELP, FLAGS, |flags| args(flags, &EnvConfig::load()))
    else {
        print!("{HELP}");
        return ExitCode::SUCCESS;
    };
    let daemon = match Daemon::bind(&addr, opts) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("cbrand: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("cbrand: {}", daemon.load_note());
    println!("cbrand listening on {}", daemon.local_addr());
    if let Some(addr) = daemon.metrics_addr() {
        println!("cbrand metrics listening on {addr}");
    }
    // Scripts wait on this line; make sure it is out before we block.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    match daemon.run() {
        Ok(save_note) => {
            eprintln!("cbrand: {save_note}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cbrand: serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_lists_exactly_the_flags_the_parser_accepts() {
        let listed: Vec<&str> = HELP
            .lines()
            .filter_map(|line| line.strip_prefix("    --"))
            .map(|rest| &rest[..rest.find(' ').unwrap_or(rest.len())])
            .collect();
        let accepted: Vec<&str> = FLAGS.iter().map(|(name, _)| &name[2..]).collect();
        assert_eq!(listed, accepted);
    }

    fn read(line: &str, env: &EnvConfig) -> Result<Option<(String, DaemonOptions)>, FlagError> {
        let tokens: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        args(&Flags::parse(&tokens, FLAGS)?, env)
    }

    #[test]
    fn flags_beat_the_environment() {
        let env = EnvConfig::from_lookup(|key| match key {
            cbrain::config::ENV_METRICS_ADDR => Some("127.0.0.1:9300".into()),
            cbrain::config::ENV_MAX_CONNS => Some("40".into()),
            _ => None,
        });
        let (_, opts) = read("", &env).unwrap().unwrap();
        assert_eq!(opts.metrics_addr.as_deref(), Some("127.0.0.1:9300"));
        assert_eq!(opts.max_connections, 40);
        let line = "--metrics-addr 127.0.0.1:0 --max-connections 7 --port 0 --jobs 2";
        let (addr, opts) = read(line, &env).unwrap().unwrap();
        assert_eq!(addr, "127.0.0.1:0");
        assert_eq!(opts.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(opts.max_connections, 7);
        assert_eq!(opts.jobs, 2);
        let (addr, opts) = read("--cache off", &EnvConfig::default()).unwrap().unwrap();
        assert_eq!(addr, "127.0.0.1:7227");
        assert_eq!((opts.metrics_addr, opts.max_connections), (None, 0));
        assert!(read("--help --port 0", &env).unwrap().is_none());
    }

    #[test]
    fn usage_errors_name_the_flag() {
        let err = |line: &str| read(line, &EnvConfig::default()).unwrap_err().0;
        assert_eq!(err("--jbos 2"), "unknown flag `--jbos`");
        assert_eq!(err("--port"), "--port needs a value");
        assert_eq!(err("--port 70000"), "bad --port `70000`");
        assert_eq!(err("--jobs 0"), "--jobs must be at least 1");
        assert_eq!(err("-h"), "unknown flag `-h`");
    }
}
