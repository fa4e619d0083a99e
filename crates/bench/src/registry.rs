//! The experiment registry: every experiment this crate can run is one row
//! of [`EXPERIMENTS`], and `all_experiments [--out DIR] [NAME…]` is the one
//! runner over it.
//!
//! A row is plain data plus a `fn() -> Outcome`. The experiment's module
//! owns everything about it — worlds, the JSON it composes, the keys a
//! reader of that JSON may rely on, and its acceptance bars (a
//! `failures(&Run)` function beside the run code) — and the runner treats
//! every row alike: print the report, write the exports, read them back
//! from disk, validate format and required keys, collect the failures.
//! The one bar the tracing experiments share — every kind `obs::vocab` says
//! the experiment shows was traced — is [`untraced_kinds`].

use crate::{ablations, analytics, failover, fleet, fleetobs, journeys, obs_export, paper, poison};
use obs::export::{event_json, parse_event, parse_json, validate_json};
use obs::vocab;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// How an exported file must parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// One JSON value.
    Json,
    /// An event trace: every line is an event of `obs::vocab`, written as
    /// `obs::export::event_json` writes it.
    Jsonl,
}

/// One file an experiment writes under the output directory.
pub struct Export {
    /// File name, e.g. `BENCH_obs.json`.
    pub file: &'static str,
    /// The format the file is validated against after it is read back.
    pub format: Format,
    /// The document.
    pub contents: String,
    /// Substrings the document must contain: the keys (and table rows) a
    /// reader of the committed file may rely on.
    pub required: Vec<String>,
}

impl Export {
    /// An export that must contain every one of `keys`.
    pub fn new(file: &'static str, format: Format, contents: String, keys: &[&str]) -> Export {
        Export {
            file,
            format,
            contents,
            required: keys.iter().map(|k| k.to_string()).collect(),
        }
    }

    /// Adds required substrings computed from a table (scheme labels,
    /// table rows).
    pub fn also_require(mut self, more: impl IntoIterator<Item = String>) -> Export {
        self.required.extend(more);
        self
    }
}

/// What one experiment run produced.
pub struct Outcome {
    /// The human-readable report, printed as is.
    pub report: String,
    /// Files to write, in the order of [`Experiment::files`].
    pub exports: Vec<Export>,
    /// Acceptance bars the run missed (empty on a good run).
    pub failures: Vec<String>,
}

impl Outcome {
    /// An outcome that only prints: the paper artefacts and the ablations
    /// have shapes to compare by eye, not bars.
    pub fn report_only(report: String) -> Outcome {
        Outcome {
            report,
            exports: Vec::new(),
            failures: Vec::new(),
        }
    }
}

/// One row of the registry.
pub struct Experiment {
    /// The name given on the command line.
    pub name: &'static str,
    /// Heading printed before the report.
    pub title: &'static str,
    /// Whether this is one of the paper's own tables or figures — the set
    /// a bare `all_experiments` runs.
    pub paper: bool,
    /// The files [`Experiment::run`] exports.
    pub files: &'static [&'static str],
    /// Runs the experiment with its committed seed.
    pub run: fn() -> Outcome,
}

/// Every experiment, in the order `all_experiments` lists and runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        title: "Table I: comparison among spoof detection schemes",
        paper: true,
        files: &[],
        run: paper::table1,
    },
    Experiment {
        name: "table2",
        title: "Table II: request latency per scheme",
        paper: true,
        files: &[],
        run: paper::table2,
    },
    Experiment {
        name: "table3",
        title: "Table III: guard throughput per scheme",
        paper: true,
        files: &[],
        run: paper::table3,
    },
    Experiment {
        name: "fig5",
        title: "Figure 5: BIND ANS under attack, guard on and off",
        paper: true,
        files: &[],
        run: paper::fig5,
    },
    Experiment {
        name: "fig6",
        title: "Figure 6: guard under attack, spoof detection on and off",
        paper: true,
        files: &[],
        run: paper::fig6,
    },
    Experiment {
        name: "fig7",
        title: "Figure 7: TCP proxy throughput",
        paper: true,
        files: &[],
        run: paper::fig7,
    },
    Experiment {
        name: "ablations",
        title: "Ablations of the guard's design choices",
        paper: false,
        files: &[],
        run: ablations::experiment,
    },
    Experiment {
        name: "obs",
        title: "Telemetry export (obs)",
        paper: false,
        files: &[obs_export::SNAPSHOT_FILE, obs_export::TRACE_FILE],
        run: obs_export::experiment,
    },
    Experiment {
        name: "journeys",
        title: "Query journeys & alerting",
        paper: false,
        files: &[journeys::SUMMARY_FILE, journeys::CHROME_TRACE_FILE],
        run: journeys::experiment,
    },
    Experiment {
        name: "ha",
        title: "High availability: failover, checkpoints, flood sweep",
        paper: false,
        files: &[failover::SUMMARY_FILE],
        run: failover::experiment,
    },
    Experiment {
        name: "fleet",
        title: "Anycast fleet: catchment shift, cookie interop",
        paper: false,
        files: &[fleet::SUMMARY_FILE],
        run: fleet::experiment,
    },
    Experiment {
        name: "fleetobs",
        title: "Fleet observability: cross-node stitching, fleet rules",
        paper: false,
        files: &[fleetobs::SUMMARY_FILE, fleetobs::TRACE_FILE],
        run: fleetobs::experiment,
    },
    Experiment {
        name: "analytics",
        title: "Traffic analytics: spoof vs flash crowd, sketch merge",
        paper: false,
        files: &[analytics::SUMMARY_FILE],
        run: analytics::experiment,
    },
    Experiment {
        name: "poison",
        title: "Cache poisoning: adversary suite vs unilateral hardening",
        paper: false,
        files: &[poison::SUMMARY_FILE],
        run: poison::experiment,
    },
];

/// Drains `obs`'s trace ring into the set of kinds it held.
pub fn traced_kinds(obs: &obs::Obs) -> BTreeSet<&'static str> {
    obs.tracer.drain().0.iter().map(|e| e.kind).collect()
}

/// The acceptance bar of every experiment that traces: one failure per
/// kind whose `obs::vocab` row names `experiment` in `shown_by` and that
/// `traced` does not hold.
pub fn untraced_kinds(experiment: &str, traced: impl Fn(&str) -> bool) -> Vec<String> {
    vocab::KINDS
        .iter()
        .filter(|k| k.shown_by == Some(experiment) && !traced(k.name))
        .map(|k| format!("required event kind {:?} was never traced", k.name))
        .collect()
}

/// What the command line asked for.
pub struct Plan {
    /// Directory the exports are written under.
    pub out: PathBuf,
    /// The experiments to run, in the order named.
    pub experiments: Vec<&'static Experiment>,
}

fn usage() -> String {
    let mut text = String::from(
        "usage: all_experiments [--out DIR] [NAME...]\n\
         \x20 --out DIR  directory for the exported files (default .)\n\
         \x20 no NAME runs the paper's own evaluation (*)\n\
         experiments:\n",
    );
    for e in EXPERIMENTS {
        let mark = if e.paper { '*' } else { ' ' };
        text.push_str(&format!(" {mark} {:<10} {}\n", e.name, e.title));
    }
    text
}

fn lookup(name: &str) -> Result<&'static Experiment, String> {
    EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .ok_or_else(|| format!("unknown experiment {name:?}"))
}

/// Parses the arguments after the program name. Anything that is not
/// `--out DIR` or a registered name is an error carrying the usage text:
/// a typo must not fall through to a different run.
pub fn parse_args(args: &[String]) -> Result<Plan, String> {
    let mut out = PathBuf::from(".");
    let mut experiments = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let problem = if arg == "--out" {
            match args.next() {
                Some(dir) => {
                    out = PathBuf::from(dir);
                    continue;
                }
                None => "--out needs a directory".to_string(),
            }
        } else if arg.starts_with('-') {
            format!("unknown flag {arg:?}")
        } else {
            match lookup(arg) {
                Ok(e) => {
                    experiments.push(e);
                    continue;
                }
                Err(problem) => problem,
            }
        };
        return Err(format!("{problem}\n{}", usage()));
    }
    if experiments.is_empty() {
        experiments.extend(EXPERIMENTS.iter().filter(|e| e.paper));
    }
    Ok(Plan { out, experiments })
}

/// Checks one export as read back from disk: it parses as its format and
/// contains every required substring. Returns every problem found.
pub fn validate(export: &Export, on_disk: &str) -> Vec<String> {
    let file = export.file;
    let mut problems = Vec::new();
    match export.format {
        Format::Json => {
            if let Err(off) = validate_json(on_disk) {
                problems.push(format!("{file} is not valid JSON (byte {off})"));
            }
        }
        Format::Jsonl => {
            let bad = on_disk.lines().position(|line| {
                let event = parse_json(line).ok().and_then(|doc| parse_event(&doc));
                event.map(|e| event_json(&e).to_string()).as_deref() != Some(line)
            });
            if let Some(line) = bad {
                problems.push(format!("{file} line {line} is not an event of obs::vocab"));
            }
        }
    }
    for key in &export.required {
        if !on_disk.contains(key.as_str()) {
            problems.push(format!("{file} is missing {key}"));
        }
    }
    problems
}

/// Runs the plan. For each experiment: prints its title and report, writes
/// its exports under `plan.out` and validates each as read back from disk.
/// Returns every failure (acceptance bars, then export problems), prefixed
/// with the experiment's name; one failing experiment does not stop the
/// others.
pub fn run(plan: &Plan) -> Vec<String> {
    if let Err(e) = std::fs::create_dir_all(&plan.out) {
        return vec![format!("{}: {e}", plan.out.display())];
    }
    let mut failures = Vec::new();
    for exp in &plan.experiments {
        println!("== {} ==", exp.title);
        let outcome = (exp.run)();
        print!("{}", outcome.report);
        let mut failed = outcome.failures;
        let written: Vec<&str> = outcome.exports.iter().map(|e| e.file).collect();
        if written != exp.files {
            failed.push(format!("exported {written:?}, registered {:?}", exp.files));
        }
        for export in &outcome.exports {
            let path = plan.out.join(export.file);
            let on_disk = std::fs::write(&path, &export.contents)
                .and_then(|()| std::fs::read_to_string(&path));
            match on_disk {
                Ok(on_disk) => {
                    println!("wrote {} ({} bytes)", path.display(), on_disk.len());
                    failed.extend(validate(export, &on_disk));
                }
                Err(e) => failed.push(format!("{}: {e}", path.display())),
            }
        }
        failures.extend(failed.iter().map(|f| format!("{}: {f}", exp.name)));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER: [&str; 6] = ["table1", "table2", "table3", "fig5", "fig6", "fig7"];

    fn parse(args: &[&str]) -> Result<Plan, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn names(plan: &Plan) -> Vec<&'static str> {
        plan.experiments.iter().map(|e| e.name).collect()
    }

    #[test]
    fn names_and_export_files_are_unique_and_the_paper_set_is_the_papers() {
        let mut seen = BTreeSet::new();
        for e in EXPERIMENTS {
            assert!(
                seen.insert(e.name),
                "experiment {} registered twice",
                e.name
            );
        }
        for file in EXPERIMENTS.iter().flat_map(|e| e.files) {
            assert!(seen.insert(file), "two experiments export {file}");
        }
        let paper: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|e| e.paper)
            .map(|e| e.name)
            .collect();
        assert_eq!(paper, PAPER);
    }

    #[test]
    fn no_names_means_the_paper_set_and_names_run_in_the_order_given() {
        let plan = parse(&[]).unwrap();
        assert_eq!(
            (names(&plan), plan.out),
            (PAPER.to_vec(), PathBuf::from("."))
        );
        // `analytics` is a row like any other: it parses in the one build.
        let plan = parse(&["poison", "--out", "target/x", "analytics"]).unwrap();
        assert_eq!(
            (names(&plan), plan.out),
            (vec!["poison", "analytics"], PathBuf::from("target/x"))
        );
    }

    #[test]
    fn a_typo_or_a_dangling_out_is_an_error_that_lists_the_registered_names() {
        for (bad, problem) in [
            (&["--posion"][..], "unknown flag \"--posion\""),
            (&["posion"], "unknown experiment \"posion\""),
            (&["obs", "--outdir", "x"], "unknown flag \"--outdir\""),
            (&["obs", "--out"], "--out needs a directory"),
        ] {
            let err = parse(bad).err().expect("must be rejected");
            assert_eq!(err.lines().next(), Some(problem));
            for e in EXPERIMENTS {
                assert!(err.contains(e.name), "usage must list {}: {err}", e.name);
            }
        }
    }

    #[test]
    fn a_bad_export_fails_naming_the_key_the_byte_or_the_line() {
        let json = Export::new("x.json", Format::Json, String::new(), &["\"took_over\":"]);
        assert_eq!(
            validate(&json, "{\"took_over\":true}"),
            Vec::<String>::new()
        );
        assert_eq!(validate(&json, "{}"), ["x.json is missing \"took_over\":"]);
        assert_eq!(
            validate(&json, "{\"took_over\":1,}"),
            ["x.json is not valid JSON (byte 15)"]
        );
        // A trace line is held to the vocabulary and to the writer's bytes.
        let jsonl = Export::new("x.jsonl", Format::Jsonl, String::new(), &[]);
        let grant = "{\"t\":5,\"component\":\"guard\",\"kind\":\"grant\",\"fields\":{\"qid\":7}}\n";
        assert_eq!(validate(&jsonl, &grant.repeat(2)), Vec::<String>::new());
        for bad in [
            grant.replace("grant", "grunt"),
            grant.replace("qid", "quid"),
            grant.replace(":7", ": 7"),
            grant.replace("}}", "}"),
        ] {
            let problems = validate(&jsonl, &format!("{grant}{bad}"));
            assert_eq!(problems, ["x.jsonl line 1 is not an event of obs::vocab"], "{bad}");
        }
    }

    /// Parsed and written again, each committed JSON export is the same
    /// bytes: the writer adds no whitespace, reorders no member and
    /// re-formats no number that the drift gate would otherwise only catch
    /// after a full run.
    #[test]
    fn committed_exports_are_the_writers_fixed_points() {
        let committed = [
            ("BENCH_obs.json", include_str!("../../../BENCH_obs.json")),
            ("BENCH_journeys.json", include_str!("../../../BENCH_journeys.json")),
            ("BENCH_failover.json", include_str!("../../../BENCH_failover.json")),
            ("BENCH_fleet.json", include_str!("../../../BENCH_fleet.json")),
            ("BENCH_fleetobs.json", include_str!("../../../BENCH_fleetobs.json")),
            ("BENCH_analytics.json", include_str!("../../../BENCH_analytics.json")),
            ("BENCH_poison.json", include_str!("../../../BENCH_poison.json")),
        ];
        for (file, doc) in committed {
            let parsed = parse_json(doc).unwrap_or_else(|off| panic!("{file} invalid at byte {off}"));
            let written = parsed.to_string();
            let differs_at = written.bytes().zip(doc.bytes()).position(|(a, b)| a != b);
            assert!(written == doc, "{file} is written back differently from byte {differs_at:?}");
        }
    }

    #[test]
    fn every_shown_by_names_a_tracing_experiment_whose_bar_misses_a_struck_kind() {
        let tracing = ["obs", "fleetobs", "analytics", "poison"];
        for k in vocab::KINDS {
            assert!(k.shown_by.is_none_or(|e| tracing.contains(&e)), "{k:?}");
        }
        for (experiment, n) in tracing.into_iter().zip([8, 2, 1, 6]) {
            assert!(lookup(experiment).is_ok());
            let shown: Vec<&str> = vocab::KINDS
                .iter()
                .filter(|k| k.shown_by == Some(experiment))
                .map(|k| k.name)
                .collect();
            assert_eq!(shown.len(), n, "{experiment} shows {shown:?}");
            assert_eq!(untraced_kinds(experiment, |k| shown.contains(&k)), Vec::<String>::new());
            for struck in &shown {
                assert_eq!(
                    untraced_kinds(experiment, |k| k != *struck && shown.contains(&k)),
                    [format!("required event kind {struck:?} was never traced")]
                );
            }
        }
    }

    fn broken() -> Outcome {
        Outcome {
            report: "report\n".to_string(),
            exports: vec![Export::new(
                "BENCH_broken.json",
                Format::Json,
                "{\"ok\":false}".to_string(),
                &["\"ok\":true"],
            )],
            failures: vec!["the bar was missed".to_string()],
        }
    }

    #[test]
    fn the_runner_reads_exports_back_and_collects_every_failure() {
        static BROKEN: Experiment = Experiment {
            name: "broken",
            title: "A run that misses a bar and exports a bad document",
            paper: false,
            files: &["BENCH_elsewhere.json"],
            run: broken,
        };
        let out = std::env::temp_dir().join(format!("bench-registry-{}", std::process::id()));
        let failures = run(&Plan {
            out: out.clone(),
            experiments: vec![&BROKEN],
        });
        let on_disk = std::fs::read_to_string(out.join("BENCH_broken.json")).unwrap();
        std::fs::remove_dir_all(&out).unwrap();
        assert_eq!(on_disk, "{\"ok\":false}");
        assert_eq!(
            failures,
            [
                "broken: the bar was missed",
                "broken: exported [\"BENCH_broken.json\"], registered [\"BENCH_elsewhere.json\"]",
                "broken: BENCH_broken.json is missing \"ok\":true",
            ]
        );
    }
}
