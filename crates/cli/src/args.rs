//! The command line as two tables. [`FLAGS`] declares every flag once:
//! its spellings, its metavariable and how its value is read.
//! [`COMMANDS`] declares every command once: its synopsis, which is also
//! its positional shape, and the flags it reads. Parsing, command
//! selection, refusals, daemon forwarding and [`usage`] all come from
//! these two tables.

use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use hypersweep_analysis::{
    default_jobs, validate_cache_cap, validate_cache_shards,
    validate_campaign_size as campaign_size, validate_max_dim, StrategyKind,
};
use hypersweep_scenario::ScenarioId;
use hypersweep_server::{BenchConfig, ServerLimits};

use crate::bench::{cmd_bench_audit, cmd_bench_check, cmd_bench_serve, cmd_telemetry_gate};
use crate::{
    cmd_audit, cmd_check, cmd_check_replay, cmd_check_scenario, cmd_daemon, cmd_list, cmd_report,
    cmd_report_scenarios, cmd_run, cmd_serve, cmd_trace, cmd_watch, parse_policy,
    CheckCampaignOpts,
};

/// How a flag takes its value.
#[derive(Clone, Copy)]
enum Value {
    Switch,
    /// Any text; a missing one "needs" the description.
    Text(&'static str),
    /// An integer in the inclusive range.
    Int(u64, u64),
    /// An integer whose check names the valid range when it fails.
    Checked(fn(u64) -> Result<u64, String>),
}
use Value::{Checked, Int, Switch, Text};

/// A flag: its spellings (`|`-separated, canonical first), the
/// metavariable `usage` shows, and how its value is read.
struct Flag(&'static str, &'static str, Value);

const POSITIVE: Value = Int(1, usize::MAX as u64);
const ANY: Value = Int(0, u64::MAX);

const FLAGS: &[Flag] = &[
    Flag("--full", "", Switch),
    Flag("--fast", "", Switch),
    Flag("--timings", "", Switch),
    Flag("--no-telemetry", "", Switch),
    Flag("--force", "", Switch),
    Flag("--json", "DIR", Text("a directory")),
    Flag("--state-dir", "DIR", Text("a directory")),
    Flag("--out", "FILE", Text("a file path")),
    Flag("--persist", "FILE", Text("a file path")),
    Flag("--state-file", "FILE", Text("a file path")),
    Flag("--log-file", "FILE", Text("a file path")),
    Flag("--metrics-file", "FILE", Text("a file path")),
    Flag("--replay", "FILE", Text("a file path")),
    Flag("--addr", "HOST:PORT", Text("a host:port")),
    Flag("--uds", "PATH", Text("a socket path")),
    Flag("--strategy", "S", Text("a value")),
    Flag("--scenario", "NAME", Text("a value")),
    Flag("--instance", "full|holes:<seed>|corridor", Text("a value")),
    Flag("--policy", "P", Text("a value")),
    Flag("--jobs", "N", POSITIVE),
    Flag("--connections|--clients", "N", POSITIVE),
    Flag("--requests", "N", POSITIVE),
    Flag("--pipeline-depth", "N", POSITIVE),
    Flag("--timeout-ms", "N", POSITIVE),
    Flag("--metrics-interval-ms", "N", POSITIVE),
    Flag("--dim", "D", Int(1, u32::MAX as u64)),
    Flag("--seed", "K", ANY),
    Flag("--max-steps", "N", ANY),
    Flag("--plant", "I", ANY),
    Flag("--max-dim", "N", Checked(max_dim)),
    Flag("--cache-cap", "N", Checked(cache_cap)),
    Flag("--cache-shards", "N", Checked(cache_shards)),
    Flag("--campaign-size|--schedules", "N", Checked(campaign_size)),
    Flag("--stride", "N", Checked(watch_stride)),
];

fn max_dim(v: u64) -> Result<u64, String> {
    validate_max_dim(v.try_into().unwrap_or(u32::MAX)).map(u64::from)
}

fn cache_cap(v: u64) -> Result<u64, String> {
    validate_cache_cap(v.try_into().unwrap_or(usize::MAX)).map(|v| v as u64)
}

fn cache_shards(v: u64) -> Result<u64, String> {
    validate_cache_shards(v.try_into().unwrap_or(usize::MAX)).map(|v| v as u64)
}

/// `watch` renders a frame every this many events unless `--stride` says.
const WATCH_STRIDE: usize = 8;

/// Upper bound on `watch --stride`: far past the event count of any film
/// `watch` renders (`d ≤ 8`), where every larger stride shows the same
/// single final frame.
const MAX_WATCH_STRIDE: u64 = 1_000_000;

fn watch_stride(v: u64) -> Result<u64, String> {
    let range = format!("valid range is 1..={MAX_WATCH_STRIDE}");
    if v == 0 {
        Err(format!(
            "--stride must be at least 1 (watch renders a frame every N events; \
             omit the flag for the default of {WATCH_STRIDE}); {range}"
        ))
    } else if v > MAX_WATCH_STRIDE {
        Err(format!(
            "--stride {v} exceeds the supported limit {MAX_WATCH_STRIDE} \
             (no film has that many events, so only its final frame would render); {range}"
        ))
    } else {
        Ok(v)
    }
}

/// The flag spelled `spelling`.
fn flag(spelling: &str) -> Option<&'static Flag> {
    FLAGS.iter().find(|f| f.0.split('|').any(|n| n == spelling))
}

/// A flag as given: the flag, its spelling as typed, and its value
/// (empty for a switch).
type Given = (&'static Flag, String, String);

/// The last given value of the flag named `name`.
fn last<'a>(given: &'a [Given], name: &str) -> Option<&'a Given> {
    given.iter().rev().find(|g| g.0.name() == name)
}

impl Flag {
    fn name(&self) -> &'static str {
        self.0.split('|').next().unwrap_or_default()
    }

    fn needs(&self, typed: &str) -> String {
        let needs = match self.2 {
            Text(needs) => needs,
            Int(1, _) => "a positive integer",
            _ => "an integer",
        };
        format!("{typed} needs {needs}\n{}", usage())
    }

    fn check(&self, typed: &str, value: &str) -> Result<(), String> {
        let int = || value.parse::<u64>().map_err(|_| self.needs(typed));
        match self.2 {
            Switch | Text(_) => Ok(()),
            Int(min, max) if int().is_ok_and(|v| (min..=max).contains(&v)) => Ok(()),
            Int(..) => Err(self.needs(typed)),
            Checked(check) => check(int()?).map(drop),
        }
    }
}

/// A command: its synopsis and the canonical names of the flags it
/// reads, in space-separated groups. In the synopsis, `<arg>` takes one
/// positional (`<arg...>` one or more), `--flag VALUE` selects this
/// command when that flag is given with that value, `a|b` accepts
/// either, an upper-case VALUE accepts any, and `[...]` only documents.
struct Command(&'static str, &'static [&'static str], Run);

type Run = fn(&Args) -> Result<ExitCode, String>;

impl Command {
    fn reads(&self, name: &str) -> bool {
        self.1
            .iter()
            .flat_map(|g| g.split_whitespace())
            .any(|f| f == name)
    }

    /// The synopsis tokens that positionals and selectors must fit.
    fn pattern(&self) -> impl Iterator<Item = &'static str> {
        self.0
            .split(' ')
            .filter(|t| !t.starts_with('[') && !t.ends_with(']'))
    }

    fn matches(&self, positional: &[String], given: &[Given]) -> bool {
        let mut positional = positional.iter();
        let mut pattern = self.pattern();
        while let Some(token) = pattern.next() {
            let fits = if token.starts_with("--") {
                let want = pattern.next().unwrap_or_default();
                last(given, token).is_some_and(|(.., v)| {
                    want == want.to_uppercase() || want.split('|').any(|w| w == v)
                })
            } else if token.contains("...") {
                return positional.next().is_some();
            } else {
                let word = |p: &String| token.starts_with('<') || token.split('|').any(|w| w == p);
                positional.next().is_some_and(word)
            };
            if !fits {
                return false;
            }
        }
        positional.next().is_none()
    }
}

const REPORT: &str = "--full --max-dim --json --jobs --cache-cap --timings";
/// The scenario campaigns' flags; the hypercube checker reads these too,
/// bar `--instance`, plus `--plant --out`.
const GRID: &str = "--scenario --strategy --dim --campaign-size --seed --jobs --max-steps \
     --timings --instance";
const CUBE: &str = "--scenario --strategy --dim --campaign-size --seed --jobs --max-steps \
     --timings --plant --out";
const BENCH_SERVE: &str = "--addr --uds --connections --requests --pipeline-depth --max-dim --out";
/// What `serve` reads and `daemon start|restart` forwards to it.
const SERVE: &str = "--addr --uds --max-dim --jobs --cache-cap --cache-shards --timeout-ms \
     --metrics-file --metrics-interval-ms --no-telemetry --persist --state-file --log-file";
const DAEMON: &str = "--state-dir --force";
const DEFAULT_ADDR: &str = "127.0.0.1:7071";

static COMMANDS: &[Command] = &[
    Command("list", &[], |_| {
        cmd_list();
        Ok(ExitCode::SUCCESS)
    }),
    Command("report scenarios", &["--dim"], |a| {
        ok(cmd_report_scenarios(a.dim()))
    }),
    Command("report <id...|all>", &[REPORT], |a| {
        ok(a.report(&a.positional[1..]))
    }),
    Command("figures", &[REPORT], |a| {
        ok(a.report(&["f1", "f2", "f3", "f4"].map(String::from)))
    }),
    Command("run <strategy> <d>", &["--policy --fast"], |a| {
        let policy = parse_policy(a.value("--policy").unwrap_or("fifo"));
        let policy = policy.map_err(|e| format!("{e}\n{}", usage()))?;
        let d = a.dimension(2, hypersweep_topology::MAX_DIMENSION)?;
        ok(cmd_run(&a.positional[1], d, policy, a.on("--fast")))
    }),
    Command("watch <strategy> <d>", &["--stride"], |a| {
        let stride = a.get("--stride").unwrap_or(WATCH_STRIDE);
        ok(cmd_watch(&a.positional[1], a.dimension(2, 8)?, stride))
    }),
    Command("trace <strategy> <d> <out.json>", &[], |a| {
        let d = a.dimension(2, 14)?;
        ok(cmd_trace(&a.positional[1], d, &a.positional[3]))
    }),
    Command("audit <d> <trace.json>", &[], |a| {
        ok(cmd_audit(a.dimension(1, 14)?, &a.positional[2]))
    }),
    Command("check --replay FILE", &["--replay"], |a| {
        ok(cmd_check_replay(a.value("--replay").unwrap_or_default()))
    }),
    Command("check --scenario grid|dynamic", &[GRID], |a| {
        let id = ScenarioId::parse(a.value("--scenario").unwrap_or_default());
        let id = id.expect("the synopsis admits grid or dynamic");
        let (strategy, instance) = (a.strategy(), a.value("--instance"));
        let run = cmd_check_scenario(id, strategy, a.dim(), instance, &a.campaign(None));
        ok(run)
    }),
    Command("check [--scenario hypercube]", &[CUBE], |a| {
        let scenario = a.value("--scenario").unwrap_or("hypercube");
        if ScenarioId::parse(scenario) != Some(ScenarioId::Hypercube) {
            let known = "(known: hypercube, grid, dynamic)";
            return Err(format!("unknown scenario '{scenario}' {known}"));
        }
        let opts = a.campaign(a.get("--plant"));
        ok(cmd_check(a.strategy(), a.dim(), &opts, a.value("--out")))
    }),
    Command("bench-check", &["--jobs --out"], |a| {
        ok(cmd_bench_check(a.out("BENCH_check.json"), a.jobs()))
    }),
    Command("bench-audit", &["--out"], |a| {
        ok(cmd_bench_audit(a.out("BENCH_audit.json")))
    }),
    Command("serve", &[SERVE], |a| {
        let s = ServerLimits::default();
        let limits = ServerLimits {
            max_dim: a.get("--max-dim").unwrap_or(s.max_dim),
            workers: a.get("--jobs").unwrap_or(s.workers),
            cache_capacity: a.get("--cache-cap").or(s.cache_capacity),
            request_timeout: a.millis("--timeout-ms").unwrap_or(s.request_timeout),
            telemetry: !a.on("--no-telemetry"),
            metrics_file: a.get("--metrics-file"),
            metrics_interval: a
                .millis("--metrics-interval-ms")
                .unwrap_or(s.metrics_interval),
            cache_shards: a.get("--cache-shards").unwrap_or(s.cache_shards),
            uds_path: a.get("--uds"),
            persist_path: a.get("--persist"),
            ..s
        };
        let (state, log) = (a.get("--state-file"), a.get("--log-file"));
        ok(cmd_serve(a.addr(), limits, state, log))
    }),
    Command("bench-serve", &[BENCH_SERVE], |a| {
        let cfg = BenchConfig {
            addr: a.addr().to_string(),
            uds: a.get("--uds"),
            clients: a.get("--connections").unwrap_or(4),
            requests: a.get("--requests").unwrap_or(64),
            pipeline_depth: a.get("--pipeline-depth").unwrap_or(1),
            max_dim: a.get("--max-dim").unwrap_or(8),
        };
        ok(cmd_bench_serve(&cfg, a.out("BENCH_serve.json")))
    }),
    Command("telemetry-gate <on.json> <off.json>", &["--out"], |a| {
        let out = a.out("BENCH_telemetry.json");
        ok(cmd_telemetry_gate(&a.positional[1], &a.positional[2], out))
    }),
    Command("daemon start|restart", &[SERVE, DAEMON], |a| {
        let (dir, forwarded) = (a.state_dir(), a.respell(SERVE));
        cmd_daemon(&a.positional[1], dir, a.on("--force"), forwarded)
    }),
    Command("daemon status|stop", &["--state-dir"], |a| {
        cmd_daemon(&a.positional[1], a.state_dir(), false, Vec::new())
    }),
];

/// A command that exits 0 when it succeeds.
fn ok(result: Result<(), String>) -> Result<ExitCode, String> {
    result.map(|()| ExitCode::SUCCESS)
}

/// A parsed command line: the selected command, the positionals, and the
/// flags in the order given.
struct Args {
    command: &'static Command,
    positional: Vec<String>,
    given: Vec<Given>,
}

impl Args {
    /// The value of a flag the command reads; a switch reads as `""`.
    fn value(&self, name: &str) -> Option<&str> {
        debug_assert!(self.command.reads(name), "{} omits {name}", self.command.0);
        last(&self.given, name).map(|(.., v)| v.as_str())
    }

    fn on(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    /// A value parsed as a path, a string or an integer; integers were
    /// checked when the line was parsed.
    fn get<T: FromStr<Err: std::fmt::Debug>>(&self, name: &str) -> Option<T> {
        self.value(name)
            .map(|v| v.parse().expect("values are checked when parsed"))
    }

    fn millis(&self, name: &str) -> Option<Duration> {
        self.get(name).map(Duration::from_millis)
    }

    fn out<'a>(&'a self, default: &'a str) -> &'a str {
        self.value("--out").unwrap_or(default)
    }

    fn addr(&self) -> &str {
        self.value("--addr").unwrap_or(DEFAULT_ADDR)
    }

    fn strategy(&self) -> &str {
        self.value("--strategy").unwrap_or("all")
    }

    fn jobs(&self) -> usize {
        self.get("--jobs").unwrap_or_else(default_jobs)
    }

    fn dim(&self) -> u32 {
        self.get("--dim").unwrap_or(6)
    }

    fn state_dir(&self) -> PathBuf {
        self.get("--state-dir")
            .unwrap_or_else(|| PathBuf::from(".hypersweep-daemon"))
    }

    /// Positional `i` as a dimension in `1..=max`.
    fn dimension(&self, i: usize, max: u32) -> Result<u32, String> {
        let (command, text) = (&self.positional[0], &self.positional[i]);
        let d = text.parse().ok().filter(|d| (1..=max).contains(d));
        d.ok_or_else(|| format!("{command} needs a dimension in 1..={max}, got '{text}'"))
    }

    fn report(&self, ids: &[String]) -> Result<(), String> {
        let (full, json, timings) = (self.on("--full"), self.get("--json"), self.on("--timings"));
        let (max_dim, cap) = (self.get("--max-dim"), self.get("--cache-cap"));
        cmd_report(ids, full, max_dim, json, self.jobs(), cap, timings)
    }

    fn campaign(&self, planted: Option<u64>) -> CheckCampaignOpts {
        CheckCampaignOpts {
            schedules: self.get("--campaign-size").unwrap_or(200),
            seed: self.get("--seed").unwrap_or(0),
            jobs: self.jobs(),
            max_steps: self.get("--max-steps").unwrap_or(0),
            planted,
            timings: self.on("--timings"),
        }
    }

    /// The flags among `names` that were given, spelled out again.
    fn respell(&self, names: &str) -> Vec<String> {
        let mut args = Vec::new();
        for name in names.split_whitespace() {
            if let Some((flag, _, value)) = last(&self.given, name) {
                args.push(name.to_string());
                if !matches!(flag.2, Switch) {
                    args.push(value.clone());
                }
            }
        }
        args
    }
}

/// Parse `argv` (without the program name) and run the command it
/// selects.
pub(crate) fn run(argv: &[String]) -> Result<ExitCode, String> {
    let args = parse(argv)?;
    (args.command.2)(&args)
}

/// Read every flag by [`FLAGS`] (the last of repeats wins), select the
/// command whose synopsis fits, then refuse any flag it does not read
/// and check the values of the rest.
fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut positional, mut given) = (Vec::new(), Vec::new());
    let mut argv = argv.iter();
    while let Some(arg) = argv.next() {
        if !arg.starts_with("--") {
            positional.push(arg.clone());
            continue;
        }
        let flag = flag(arg).ok_or_else(|| format!("unknown flag {arg}\n{}", usage()))?;
        let value = match flag.2 {
            Switch => String::new(),
            _ => argv.next().ok_or_else(|| flag.needs(arg))?.clone(),
        };
        given.push((flag, arg.clone(), value));
    }
    let find = COMMANDS.iter().find(|c| c.matches(&positional, &given));
    let command = find.ok_or_else(usage)?;
    for (flag, typed, value) in &given {
        if !command.reads(flag.name()) {
            let readers = COMMANDS.iter().filter(|c| c.reads(flag.name()));
            let readers: Vec<&str> = readers.map(|c| c.0).collect();
            return Err(format!("{typed} applies only to {}", readers.join(", ")));
        }
        flag.check(typed, value)?;
    }
    Ok(Args {
        command,
        positional,
        given,
    })
}

/// One command's usage: its synopsis, then each flag it reads that the
/// synopsis does not spell, wrapped at 100 columns.
fn usage_of(command: &Command) -> String {
    let (mut text, mut line) = (String::new(), format!("    hypersweep {}", command.0));
    for name in command.1.iter().flat_map(|g| g.split_whitespace()) {
        let Flag(names, meta, value) = flag(name).expect("commands read declared flags");
        let part = match value {
            _ if command.0.contains(name) => continue,
            Switch => format!(" [{names}]"),
            _ => format!(" [{names} {meta}]"),
        };
        if line.len() + part.len() > 100 {
            text += &(std::mem::replace(&mut line, " ".repeat(8)) + "\n");
        }
        line += &part;
    }
    text + &line + "\n"
}

pub(crate) fn usage() -> String {
    let rows: String = COMMANDS.iter().map(usage_of).collect();
    let strategies: Vec<&str> = StrategyKind::ALL.iter().map(|k| k.label()).collect();
    let strategies = strategies.join(", ");
    format!(
        "usage:\n{rows}\n\
         daemon start|restart passes its serve flags to the managed daemon\n\
         strategies (run, watch, trace): {strategies}\n\
         policies: fifo, lifo, round-robin, random:<seed>, synchronous\n\
         check strategies: clean, visibility, cloning, synchronous, mutant-eager-guard, mutant-wakeup-clone, all\n\
         scenario strategies (--scenario grid|dynamic): sweep, mutant-grid-leaky-guard, all\n\
         experiment ids: f1 f2 f3 f4 t2 t3 t4 t5 t6 t7 t8 t9 t10 e11 e12 e13 e14 e15 e16\n\
         bench-check env: BENCH_CHECK_{{DIMS,SCHEDULES,BUDGET_MS,BASELINE}}\n\
         bench-audit env: BENCH_AUDIT_{{DIMS,BUDGET_MS,BASELINE}}\n\
         bench-serve env: BENCH_SERVE_BASELINE"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A line that selects `command`: its words, `x` per positional (two
    /// for `<arg...>`), and its selector with the first value it admits.
    fn sample(command: &Command) -> Vec<String> {
        let word = |t: &'static str| match t.split('|').next() {
            _ if t.contains("...") => "x x",
            _ if t.starts_with('<') => "x",
            w => w.unwrap_or_default(),
        };
        let words = command.pattern().flat_map(|t| word(t).split(' '));
        words.map(String::from).collect()
    }

    fn selector(command: &Command) -> Option<&'static str> {
        command.pattern().find(|t| t.starts_with("--"))
    }

    /// Each spelling of each flag, added to each command's sample line,
    /// parses exactly when the command reads the flag, and a refusal
    /// names the flag as typed; `usage()` shows each command with each
    /// flag it reads. A selector the command does not read (`--replay` on
    /// `check`) selects a sibling instead, so it is not tried there.
    /// Nothing runs.
    #[test]
    fn every_command_accepts_and_shows_exactly_the_flags_it_reads() {
        let selects = |f: &Flag| COMMANDS.iter().any(|c| selector(c) == Some(f.name()));
        let usage = usage();
        for command in COMMANDS {
            let (base, own) = (sample(command), usage_of(command));
            assert_eq!(parse(&base).map(|a| a.command.0), Ok(command.0));
            assert!(usage.contains(&own) && own.contains(command.0), "{own}");
            let reads = |f: &Flag| command.reads(f.name());
            for flag in FLAGS.iter().filter(|&f| reads(f) || !selects(f)) {
                for spelling in flag.0.split('|') {
                    assert!(!reads(flag) || own.contains(spelling), "{own}: {spelling}");
                    let mut argv = [&base[..], &[spelling.to_string()]].concat();
                    if !matches!(flag.2, Switch) {
                        // "1" suits every value flag; a selector keeps its value.
                        let at = base.iter().position(|t| t == flag.name());
                        argv.push(at.map_or("1".into(), |i| base[i + 1].clone()));
                    }
                    match parse(&argv) {
                        Ok(a) => assert!(reads(flag) && a.command.0 == command.0, "{argv:?}"),
                        Err(e) => assert!(
                            !reads(flag) && e.starts_with(&format!("{spelling} applies only to ")),
                            "{argv:?}: {e}"
                        ),
                    }
                }
            }
        }
        let unknown = parse(&["list".into(), "--bogus".into()]).err();
        assert!(unknown.is_some_and(|e| e.starts_with("unknown flag --bogus")));
    }

    #[test]
    fn daemon_start_forwards_the_serve_flags_it_was_given() {
        let argv = "daemon start --state-dir d --no-telemetry --addr a --addr b --force";
        let argv: Vec<String> = argv.split(' ').map(String::from).collect();
        let args = parse(&argv).expect("a valid daemon start");
        assert_eq!(args.respell(SERVE), ["--addr", "b", "--no-telemetry"]);
    }
}
