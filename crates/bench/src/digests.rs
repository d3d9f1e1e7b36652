//! The behavioural contract of the paper figures: a committed ledger of
//! run digests.
//!
//! Every BENCH policy row carries `digest`, the hex
//! [`SimReport::deterministic_digest`](o2o_sim::SimReport::deterministic_digest)
//! of its run — a hash of every outcome the run produced (delays, both
//! dissatisfaction series, queue and idle counts, faults), none of its
//! wall-clock. `results/digests.json` records those digests for the
//! figure runs in [`LEDGER_RUNS`] — the six binaries of Figs. 4–9 at a
//! small scale, and all but Fig. 8 at full scale — keyed per run by
//! policy and, for sweeps, by sweep point. `bench digests` re-runs them
//! and fails on any difference, so a change that claims to keep outcomes
//! proves it, and one that changes them on purpose shows exactly which
//! runs moved (`bench digests --record` rewrites the ledger).

use crate::json::Json;
use std::collections::BTreeMap;

/// The figure runs the ledger covers, in run order: a figure binary and
/// the `--scale` it runs at.
///
/// At scale 0.05 all six take about 2 s together in release, but the NYC
/// day has only 35 taxis. Scale 1.0 is the scale of `results/fig*.txt`,
/// where the NYC rush hour holds thousands of pending requests; those
/// five runs take about 20 s together. Fig. 8 stays at the small scale
/// only, since its full-scale run takes about 4 min.
pub const LEDGER_RUNS: [(&str, f64); 11] = [
    ("fig4_nonsharing_nyc", 0.05),
    ("fig5_nonsharing_boston", 0.05),
    ("fig6_taxi_count_sweep", 0.05),
    ("fig7_clock_time", 0.05),
    ("fig8_sharing_nyc", 0.05),
    ("fig9_sharing_boston", 0.05),
    ("fig4_nonsharing_nyc", 1.0),
    ("fig5_nonsharing_boston", 1.0),
    ("fig6_taxi_count_sweep", 1.0),
    ("fig7_clock_time", 1.0),
    ("fig9_sharing_boston", 1.0),
];

/// The ledger key of one run: the figure binary and its `--scale`
/// argument, as on the command line (`fig4_nonsharing_nyc --scale 1`).
#[must_use]
pub fn run_key(figure: &str, scale: f64) -> String {
    format!("{figure} --scale {scale}")
}

/// The `(key, digest)` pairs of one figure's BENCH document: one per
/// policy row, keyed by the policy name, prefixed by the sweep point
/// (`paper_taxis=100/NSTD-P`) when the rows are a sweep.
///
/// # Errors
///
/// Describes the first row without a `policy` or `digest` string.
pub fn figure_digests(doc: &Json) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    if let Some(rows) = doc.get("rows").and_then(Json::as_arr) {
        for row in rows {
            let Json::Obj(fields) = row else {
                return Err("sweep row is not an object".into());
            };
            let point: Vec<String> = fields
                .iter()
                .filter(|(k, _)| k != "policies")
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            policy_digests(row, &format!("{}/", point.join(",")), &mut out)?;
        }
    } else {
        policy_digests(doc, "", &mut out)?;
    }
    Ok(out)
}

fn policy_digests(
    doc: &Json,
    prefix: &str,
    out: &mut BTreeMap<String, String>,
) -> Result<(), String> {
    let rows = doc
        .get("policies")
        .and_then(Json::as_arr)
        .ok_or("no `policies` array")?;
    for row in rows {
        let field = |name: &str| {
            row.get(name)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("policy row without a `{name}` string"))
        };
        out.insert(
            format!("{prefix}{}", field("policy")?),
            field("digest")?.into(),
        );
    }
    Ok(())
}

/// The ledger document: the seed and, per run (keyed by [`run_key`]),
/// its digests.
#[must_use]
pub fn ledger_json(seed: u64, runs: &[(String, BTreeMap<String, String>)]) -> Json {
    Json::obj(vec![
        ("seed", seed.into()),
        (
            "runs",
            Json::Obj(
                runs.iter()
                    .map(|(run, digests)| {
                        let entries = digests
                            .iter()
                            .map(|(k, d)| (k.clone(), Json::from(d.as_str())))
                            .collect();
                        (run.clone(), Json::Obj(entries))
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Every difference between a recorded ledger and a fresh one, one line
/// each: `run/key: old -> new`, with `missing` for a side that has no
/// entry. Empty when they agree.
#[must_use]
pub fn ledger_diff(recorded: &Json, fresh: &Json) -> Vec<String> {
    let flat = |doc: &Json| -> BTreeMap<String, String> {
        let mut out = BTreeMap::new();
        if let Some(Json::Obj(runs)) = doc.get("runs") {
            for (run, entries) in runs {
                if let Json::Obj(entries) = entries {
                    for (key, digest) in entries {
                        let digest = digest.as_str().unwrap_or("?").to_string();
                        out.insert(format!("{run}/{key}"), digest);
                    }
                }
            }
        }
        out
    };
    let (old, new) = (flat(recorded), flat(fresh));
    let mut keys: Vec<&String> = old.keys().chain(new.keys()).collect();
    keys.sort();
    keys.dedup();
    let mut out = Vec::new();
    if recorded.get("seed") != fresh.get("seed") {
        out.push(format!(
            "seed: {:?} -> {:?}",
            recorded.get("seed"),
            fresh.get("seed")
        ));
    }
    for key in keys {
        let (a, b) = (old.get(key), new.get(key));
        if a != b {
            let show = |d: Option<&String>| d.map_or("missing", String::as_str).to_string();
            out.push(format!("{key}: {} -> {}", show(a), show(b)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(policy: &str, digest: &str) -> Json {
        Json::obj(vec![("policy", policy.into()), ("digest", digest.into())])
    }

    #[test]
    fn sweeps_key_each_policy_by_its_point() {
        let flat = Json::obj(vec![(
            "policies",
            Json::Arr(vec![row("NSTD-P", "aa"), row("Near", "bb")]),
        )]);
        let got = figure_digests(&flat).unwrap();
        assert_eq!(got.get("NSTD-P").map(String::as_str), Some("aa"));
        let sweep = Json::obj(vec![(
            "rows",
            Json::Arr(vec![Json::obj(vec![
                ("paper_taxis", 100usize.into()),
                ("policies", Json::Arr(vec![row("NSTD-P", "cc")])),
            ])]),
        )]);
        let got = figure_digests(&sweep).unwrap();
        assert_eq!(
            got.get("paper_taxis=100/NSTD-P").map(String::as_str),
            Some("cc")
        );
        let undigested = Json::obj(vec![(
            "policies",
            Json::Arr(vec![Json::obj(vec![("policy", "Near".into())])]),
        )]);
        assert!(figure_digests(&undigested).is_err());
        assert!(figure_digests(&Json::obj(vec![])).is_err());
    }

    #[test]
    fn diff_names_every_moved_missing_and_extra_run() {
        let mk = |scale: f64, pairs: &[(&str, &str)]| {
            let digests = pairs
                .iter()
                .map(|(k, d)| ((*k).to_string(), (*d).to_string()))
                .collect();
            ledger_json(42, &[(run_key("fig4", scale), digests)])
        };
        let old = mk(0.05, &[("NSTD-P", "aa"), ("Near", "bb")]);
        assert!(ledger_diff(&old, &old).is_empty());
        let new = mk(0.05, &[("NSTD-P", "ab"), ("Pair", "cc")]);
        assert_eq!(
            ledger_diff(&old, &new),
            vec![
                "fig4 --scale 0.05/NSTD-P: aa -> ab",
                "fig4 --scale 0.05/Near: bb -> missing",
                "fig4 --scale 0.05/Pair: missing -> cc",
            ]
        );
        // A run at another scale is another run.
        let rescaled = mk(1.0, &[("NSTD-P", "aa")]);
        assert_eq!(
            ledger_diff(&mk(0.05, &[("NSTD-P", "aa")]), &rescaled),
            vec![
                "fig4 --scale 0.05/NSTD-P: aa -> missing",
                "fig4 --scale 1/NSTD-P: missing -> aa",
            ]
        );
        let reseeded = ledger_json(7, &[]);
        assert!(ledger_diff(&ledger_json(42, &[]), &reseeded)[0].starts_with("seed"));
    }
}
